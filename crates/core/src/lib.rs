//! The LATEST methodology: accelerator frequency-switching-latency
//! measurement (Sections V and VI of the paper).
//!
//! This crate is the paper's primary contribution, implemented faithfully
//! over the simulated CUDA/NVML substrate:
//!
//! * **Phase 1** ([`phase1`]) — warm-up and per-frequency characterisation:
//!   run the microbenchmark under every frequency, pool per-SM iteration
//!   statistics, and validate every ordered frequency pair with a
//!   confidence-interval test on the difference of means (Algorithm 1).
//! * **Phase 2** ([`phase2`]) — the switching benchmark: IEEE 1588 timer
//!   sync, start the kernel at the initial frequency, sleep through the
//!   delay period, stamp `t_s`, issue the frequency change, synchronise and
//!   collect per-SM records (Algorithm 2, lines 1–8).
//! * **Phase 3** ([`phase3`]) — per-core evaluation: find the first
//!   iteration inside the two-standard-deviation band of the target
//!   frequency, confirm the remaining iterations match the target mean, and
//!   aggregate `max(t_e − t_s)` over cores (Algorithm 2, lines 9–24).
//! * **Controller** ([`controller`]) — repetition with the relative-
//!   standard-error stopping rule (checked every 25 passes), throttle
//!   polling every 5 passes with discard + 10 s backoff on thermal events
//!   and pair-skip on power events (Sec. VI).
//! * **Analysis** ([`analysis`]) — the adaptive DBSCAN outlier filter
//!   (Algorithm 3) applied per pair, with cluster census and silhouette
//!   validation.
//! * **Session** ([`session`]) — the campaign runner,
//!   [`CampaignSession::run`]: pairs measured one after another in
//!   canonical order on the calling thread, each on its own seeded
//!   platform (the queue's worker pool runs them as tasks on threads),
//!   typed progress events through observer hooks or channels, cooperative
//!   cancellation, and checkpoint/resume over the serialisable
//!   [`CampaignResult`].
//! * **Fleet** ([`fleet`]) — multi-device orchestration: one campaign per
//!   device spec, run one after another, aggregated into per-device
//!   results and cross-device summary rows.
//! * **Store** ([`store`]) — the results archive: campaign runs persisted
//!   under content-addressed [`RunId`]s with the effective spec and
//!   provenance, so experiments accumulate into a queryable corpus instead
//!   of evaporating.
//! * **View** ([`view`]) — typed query views over results:
//!   [`LatencyView`]/[`PairView`] filter by frequency pair, direction,
//!   outcome and percentile band, replacing ad-hoc pair iteration in every
//!   consumer.
//! * **Spec** ([`spec`]) — declarative campaign descriptions: serialisable
//!   [`CampaignSpec`]/[`FleetSpec`] with fail-fast validation that
//!   enumerates every violated constraint, resolved through device and
//!   workload registries into sessions and fleets.
//! * **State** ([`state`]) — [`FreqState`], a point in the (core, memory)
//!   clock plane and the one pair coordinate of configs, phase 1, results
//!   and views: every pair lookup takes `impl Into<FreqState>`, so a bare
//!   core frequency names the core-only state.
//! * **Platform** ([`platform`]) — the backend abstraction the methodology
//!   is generic over: NVML-style control plus CUDA-style execution, with
//!   memory clocks and ground truth (one ledger per clock domain) as
//!   optional capabilities only the simulator implements.
//!   [`SimPlatform`] is that simulator: one simulated GPU plus the driver
//!   and host-runtime cost model (call blocking, bus travel, driver
//!   stalls, launch, synchronize, copy and `%globaltimer` costs).
//! * **Output** ([`output`]) — the `.csv` convention of Sec. VI:
//!   `latest_{init}MHz_{target}MHz_{hostname}_gpu{index}.csv`.
//!
//! Closed-loop validation: the simulated device records ground-truth
//! transition times, so integration tests assert that the tool's measured
//! switching latency matches what the silicon actually did — a check that is
//! impossible on physical hardware and the main payoff of the simulation
//! substrate.

pub mod analysis;
pub mod campaign;
pub mod config;
pub mod controller;
pub mod error;
pub mod fleet;
pub mod output;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod platform;
pub mod probe;
pub mod session;
pub mod spec;
pub mod state;
pub mod store;
pub mod view;

pub use analysis::{analyze_pair, PairAnalysis};
pub use campaign::{CampaignResult, PairMeasurement};
pub use config::CampaignConfig;
pub use controller::{PairOutcome, PairRun};
pub use error::{CoreError, CoreResult};
pub use fleet::{Fleet, FleetDeviceSummary, FleetObserver, FleetResult};
pub use phase1::{FreqCharacterization, Phase1Result};
pub use platform::{
    GroundTruth, MemoryClocks, Platform, PlatformFactory, SimPlatform, SimPlatformFactory,
};
pub use session::{
    CampaignEvent, CampaignObserver, CampaignPrelude, CampaignSession, CancelToken,
    ChannelObserver, PairTask, SkipReason,
};
pub use spec::{
    CampaignSpec, CampaignSpecBuilder, FleetSpec, FreqSelection, ScenarioSpec, SpecCheckpoint,
    SpecError, SpecErrors,
};
pub use state::{FreqState, PairKind};
pub use store::{Provenance, ResultStore, RunId, StoreError, StoreResult, StoredRun};
pub use view::{Direction, LatencyView, OutcomeKind, PairStat, PairView};

#[cfg(test)]
mod testing;

/// [`SimPlatform`]'s driver and host-runtime cost model, exercised through
/// the [`Platform`] and [`MemoryClocks`] traits: what a locked-clocks call
/// costs and when it reaches the device, what queries, launches,
/// synchronizes, copies and timer reads cost, and which calls fail.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use latest_gpu_sim::devices::{self, DeviceSpec};
    use latest_gpu_sim::freq::{ClockDomain, FreqMhz};
    use latest_gpu_sim::sm::WorkloadParams;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_gpu_sim::{KernelConfig, LaunchError};
    use latest_sim_clock::{SimDuration, SimTime};

    use crate::{CoreError, GroundTruth, MemoryClocks, Platform, SimPlatform};

    fn a100() -> SimPlatform {
        SimPlatform::new(devices::a100_sxm4(), 42).unwrap()
    }

    /// An A100 that switches in a fixed 5 ms and wakes instantly, so kernel
    /// timings are predictable.
    fn fixed_a100_spec() -> DeviceSpec {
        let mut spec = devices::a100_sxm4();
        spec.wakeup_ramp = SimDuration::ZERO;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(5),
        });
        spec
    }

    fn small_kernel() -> KernelConfig {
        KernelConfig {
            iters_per_sm: 200,
            workload: WorkloadParams::default_micro(),
            simulated_sms: Some(2),
        }
    }

    #[test]
    fn set_locked_clocks_blocks_host_and_snaps() {
        let mut p = a100();
        let before = p.now();
        let snapped = p.set_locked_clocks(FreqMhz(1001)).unwrap();
        let after = p.now();
        // 1001 snaps to 1005 (ladder 210 + 15k).
        assert_eq!(snapped, FreqMhz(1005));
        let blocked = after.saturating_since(before);
        assert!(
            blocked >= SimDuration::from_micros(20) && blocked <= SimDuration::from_millis(5),
            "blocking {blocked}"
        );
    }

    #[test]
    fn request_applies_asynchronously_after_return() {
        let mut p = a100();
        let call = p.now();
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        // Ground truth: the device recorded the transition with our call time
        // and an arrival after it.
        let gt = p.last_transition(ClockDomain::Core).unwrap();
        assert_eq!(gt.host_call, call);
        assert!(gt.device_arrival > call, "arrival must be after the call");
        assert_eq!(gt.to, FreqMhz(705));
        assert!(gt.settled > gt.device_arrival);
    }

    /// The facts Fig. 2 reads: the call enters at `now()`, the ledger's
    /// `host_call` is that instant, the request arrives no earlier, and the
    /// call returns at the `now()` read right after it.
    #[test]
    fn ledger_and_clock_give_fig2_call_arrival_and_return() {
        let mut p = a100();
        p.set_locked_clocks(FreqMhz(1095)).unwrap();
        p.sleep(SimDuration::from_millis(100));
        let before = p.now();
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        let returned = p.now();
        let gt = p.last_transition(ClockDomain::Core).unwrap();
        assert_eq!(gt.host_call, before);
        assert!(gt.device_arrival >= gt.host_call);
        assert!(returned > gt.host_call);
        assert_eq!(p.transitions(ClockDomain::Core).len(), 2);
    }

    #[test]
    fn invalid_clock_rejected() {
        let mut p = a100();
        assert!(matches!(
            p.set_locked_clocks(FreqMhz(100)),
            Err(CoreError::InvalidClock {
                requested: 100,
                min: 210,
                max: 1410
            })
        ));
        assert!(p.set_locked_clocks(FreqMhz(5000)).is_err());
        // A rejected call reaches neither the device nor the clock.
        assert!(p.transitions(ClockDomain::Core).is_empty());
        assert_eq!(p.now(), SimTime::EPOCH);
    }

    #[test]
    fn queries_advance_time() {
        let mut p = a100();
        let t0 = p.now();
        let _ = p.current_clock();
        let t1 = p.now();
        let _ = p.throttle_reasons();
        let t2 = p.now();
        let temp = p.temperature_c();
        let t3 = p.now();
        // Each query costs 20-60 µs.
        for (a, b) in [(t0, t1), (t1, t2), (t2, t3)] {
            let cost = b.saturating_since(a);
            assert!(
                cost >= SimDuration::from_micros(20) && cost < SimDuration::from_micros(60),
                "query cost {cost}"
            );
        }
        assert!(temp > 0.0 && temp < 100.0);
    }

    #[test]
    fn reset_returns_to_nominal() {
        let mut p = a100();
        p.set_locked_clocks(FreqMhz(300)).unwrap();
        let snapped = p.reset_locked_clocks().unwrap();
        assert_eq!(snapped, FreqMhz(1095));
        // After the transition settles, the requested plan is nominal.
        p.sleep(SimDuration::from_secs(1));
        let gt = p.last_transition(ClockDomain::Core).unwrap();
        assert_eq!(gt.to, FreqMhz(1095));
    }

    #[test]
    fn stall_probability_produces_late_arrivals() {
        // Crank the stall probability and watch arrivals spread out.
        let mut spec = devices::a100_sxm4();
        spec.driver.stall_prob = 1.0;
        let mut p = SimPlatform::new(spec, 7).unwrap();
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        let gt = p.last_transition(ClockDomain::Core).unwrap();
        let travel = gt.device_arrival.saturating_since(gt.host_call);
        assert!(
            travel >= SimDuration::from_millis(2),
            "stalled travel only {travel}"
        );
    }

    #[test]
    fn memory_locked_clocks_roundtrip() {
        let mut p = a100();
        assert_eq!(p.supported_mem_clocks().len(), 3);
        // Out-of-ladder memory clocks are rejected like core clocks.
        assert!(matches!(
            p.set_locked_mem_clocks(FreqMhz(100)),
            Err(CoreError::InvalidClock {
                requested: 100,
                min: 810,
                max: 1215
            })
        ));
        let call = p.now();
        let snapped = p.set_locked_mem_clocks(FreqMhz(820)).unwrap();
        assert_eq!(snapped, FreqMhz(810));
        // Ground truth lands in the memory-domain ledger, not the core one.
        assert!(p.transitions(ClockDomain::Core).is_empty());
        let gt = p.last_transition(ClockDomain::Memory).unwrap();
        assert_eq!(gt.to, FreqMhz(810));
        assert_eq!(gt.host_call, call);
        assert!(gt.device_arrival > call);
        // After settling, the reported memory clock is the locked state and
        // reset returns to the documented default.
        p.sleep(SimDuration::from_secs(1));
        assert_eq!(p.current_mem_clock(), FreqMhz(810));
        assert_eq!(p.reset_locked_mem_clocks().unwrap(), FreqMhz(1215));
    }

    #[test]
    fn launch_is_asynchronous() {
        let mut p = SimPlatform::new(fixed_a100_spec(), 3).unwrap();
        let t0 = p.now();
        let _id = p.launch_benchmark(small_kernel()).unwrap();
        let launch_cost = p.now().saturating_since(t0);
        // Launch returns in tens of microseconds, far less than the ~20 ms
        // the kernel itself needs.
        assert!(
            launch_cost < SimDuration::from_micros(100),
            "launch {launch_cost}"
        );
    }

    #[test]
    fn synchronize_advances_to_completion() {
        let mut p = SimPlatform::new(fixed_a100_spec(), 3).unwrap();
        p.set_locked_clocks(FreqMhz(1005)).unwrap();
        p.sleep(SimDuration::from_millis(100));
        let start = p.now();
        let id = p.launch_benchmark(small_kernel()).unwrap();
        let done = p.synchronize();
        assert_eq!(p.now(), done);
        // 200 iterations of ~100 us at ~1 GHz is ~20 ms.
        let elapsed = done.saturating_since(start);
        assert!(
            elapsed >= SimDuration::from_millis(15) && elapsed <= SimDuration::from_millis(40),
            "elapsed {elapsed}"
        );
        let records = p.collect_records(id).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].len(), 200);
    }

    #[test]
    fn copy_records_pays_bandwidth_and_consumes() {
        let mut p = SimPlatform::new(fixed_a100_spec(), 3).unwrap();
        let id = p.launch_benchmark(small_kernel()).unwrap();
        p.synchronize();
        let before = p.now();
        let records = p.collect_records(id).unwrap();
        // 400 records at 20 GB/s plus the fixed 5 µs setup.
        let bytes = records.iter().map(Vec::len).sum::<usize>()
            * std::mem::size_of::<latest_gpu_sim::sm::IterRecord>();
        assert_eq!(
            p.now().saturating_since(before),
            SimDuration::from_secs_f64(bytes as f64 / 20e9 + 5e-6)
        );
        assert!(matches!(
            p.collect_records(id),
            Err(CoreError::NoRecords(consumed)) if consumed == id
        ));
    }

    #[test]
    fn usleep_advances_exactly() {
        let mut p = SimPlatform::new(fixed_a100_spec(), 3).unwrap();
        let t0 = p.now();
        p.sleep(SimDuration::from_micros(1500));
        assert_eq!(p.now().saturating_since(t0), SimDuration::from_micros(1500));
    }

    #[test]
    fn globaltimer_roundtrip_brackets_device_stamp() {
        let spec = fixed_a100_spec();
        let offset = spec.timer_offset_ns;
        let mut p = SimPlatform::new(spec, 3).unwrap();
        for _ in 0..20 {
            let (before, stamp, after) = p.read_globaltimer();
            assert!(after > before);
            // The device stamp, mapped back to the global timeline, must lie
            // within the round trip.
            let approx_global = stamp.offset_by(-offset);
            assert!(
                approx_global >= before && approx_global <= after,
                "stamp outside round trip"
            );
            // Quantised to the 1 us globaltimer resolution.
            assert_eq!(stamp.as_nanos() % 1_000, 0);
        }
    }

    #[test]
    fn empty_kernel_launch_fails() {
        let mut p = SimPlatform::new(fixed_a100_spec(), 3).unwrap();
        let cfg = KernelConfig {
            iters_per_sm: 0,
            workload: WorkloadParams::default_micro(),
            simulated_sms: Some(1),
        };
        assert!(matches!(
            p.launch_benchmark(cfg),
            Err(CoreError::Launch(LaunchError::EmptyKernel))
        ));
    }
}
