//! The platform abstraction: what the methodology needs from an accelerator.
//!
//! Phases 1–3, the probe and the RSE controller are
//! defined over *any* accelerator exposing NVML-style control and CUDA-style
//! execution (Secs. V–VI make no simulator assumptions). The [`Platform`]
//! trait captures exactly that contract — clock access, frequency control,
//! kernel launch/collect, timer synchronisation and thermal/power polling —
//! so every phase function is generic over the backend.
//!
//! [`SimPlatform`] is the first implementor: one simulated GPU on one
//! virtual clock, with the driver and host-runtime cost model of a real
//! NVML + CUDA stack (call blocking, bus travel, driver stalls, launch,
//! synchronize, copy and timer-read costs) drawn from seeded streams. It
//! additionally implements the optional [`GroundTruth`] capability (the
//! device records the exact moment each transition settled), which is what
//! makes closed-loop validation possible — a real-hardware backend cannot
//! offer it, and everything downstream treats it as optional.
//!
//! [`PlatformFactory`] abstracts platform *construction*: the campaign
//! driver creates a fresh platform per frequency pair (seeded from the
//! pair) so pairs can run in parallel with bitwise-reproducible results.

use std::ops::Range;

use latest_clock_sync::{synchronize, SyncConfig, SyncResult};
use latest_gpu_sim::devices::DeviceSpec;
use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::noise::LogNormal;
use latest_gpu_sim::sm::IterRecord;
use latest_gpu_sim::transition::TransitionGroundTruth;
use latest_gpu_sim::{ClockDomain, GpuDevice, KernelConfig, KernelId, ThrottleReasons};
use latest_sim_clock::{SharedClock, SimDuration, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::{CoreError, CoreResult};

/// Per-SM timer records copied back to the host.
pub type TimerData = Vec<Vec<IterRecord>>;

/// The accelerator contract the LATEST methodology runs against.
///
/// A platform is "the machine": one driver control handle and one execution
/// context sharing a physical device and a host clock. The methodology only
/// ever talks to this trait; backends decide what sits behind it (a
/// simulated GPU here, NVML + CUDA on real hardware).
pub trait Platform: Send {
    // --- clock access ---

    /// Current host time.
    fn now(&self) -> SimTime;

    /// Host-side sleep (`usleep`): the tool sleeps through the delay period
    /// and thermal backoffs.
    fn sleep(&mut self, d: SimDuration);

    // --- frequency control (NVML-style) ---

    /// Lock the SM clock to `target` (`nvmlDeviceSetGpuLockedClocks` with
    /// `min == max`). Returns the ladder-snapped frequency. The call blocks
    /// briefly on the host; the device applies the change asynchronously.
    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz>;

    /// Release the lock and return to the nominal clock.
    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz>;

    /// The instantaneous SM clock (`nvmlDeviceGetClockInfo`).
    fn current_clock(&mut self) -> FreqMhz;

    /// The device's supported frequency ladder.
    fn supported_clocks(&self) -> Vec<FreqMhz>;

    // --- kernel launch / collect (CUDA-style) ---

    /// Asynchronously launch the timing microbenchmark kernel.
    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId>;

    /// Block until every queued kernel finishes; returns the completion time.
    fn synchronize(&mut self) -> SimTime;

    /// Copy a finished kernel's per-SM iteration records to the host.
    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData>;

    // --- timer synchronisation ---

    /// Run an IEEE 1588 host↔device timer synchronisation.
    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult;

    // --- thermal / power polling ---

    /// The current throttle-reason bitmask
    /// (`nvmlDeviceGetCurrentClocksThrottleReasons`).
    fn throttle_reasons(&mut self) -> ThrottleReasons;

    /// The GPU temperature in °C (`nvmlDeviceGetTemperature`).
    fn temperature_c(&mut self) -> f64;

    // --- metadata ---

    /// Human-readable device name.
    fn device_name(&self) -> String;

    // --- capability discovery ---

    /// The closed-loop validation capability, when the backend offers it.
    ///
    /// Only backends that *know* the true transition times (the simulator)
    /// return `Some`; the methodology itself never requires it, and every
    /// ground-truth assertion downstream is gated on this returning `Some`.
    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        None
    }

    /// The memory-clock control capability, when the backend offers it.
    ///
    /// Not every accelerator (or driver) exposes locked memory clocks;
    /// campaigns that sweep the memory dimension require `Some`, core-only
    /// campaigns never call this.
    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        None
    }
}

/// Optional capability: NVML-style memory (DRAM) clock control.
///
/// The second frequency domain. Mirrors the core-clock surface of
/// [`Platform`] one-for-one (`nvmlDeviceSetMemoryLockedClocks` /
/// `nvmlDeviceGetClockInfo(NVML_CLOCK_MEM)`); capability-gated because real
/// parts differ in whether the driver exposes it at all.
pub trait MemoryClocks {
    /// Lock the memory clock to `target`. Returns the ladder-snapped
    /// frequency; blocks briefly on the host while the device applies the
    /// change asynchronously.
    fn set_locked_mem_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz>;

    /// Release the memory lock and return to the default memory clock.
    fn reset_locked_mem_clocks(&mut self) -> CoreResult<FreqMhz>;

    /// The instantaneous memory clock.
    fn current_mem_clock(&mut self) -> FreqMhz;

    /// The device's supported memory-clock ladder.
    fn supported_mem_clocks(&self) -> Vec<FreqMhz>;

    /// The default (unlocked) memory clock.
    fn default_mem_clock(&self) -> FreqMhz;
}

/// Fetch the [`MemoryClocks`] capability or fail with
/// [`CoreError::MemoryClocksUnsupported`](crate::error::CoreError) — the
/// single gate every memory-sweeping phase goes through.
pub fn require_memory_clocks<P: Platform + ?Sized>(
    platform: &mut P,
) -> CoreResult<&mut dyn MemoryClocks> {
    platform
        .as_memory_clocks()
        .ok_or(crate::error::CoreError::MemoryClocksUnsupported)
}

/// Optional capability: the platform records ground-truth transitions.
///
/// Implemented by the simulator only — real hardware cannot know the true
/// switching latency (that is why the paper needs a methodology at all).
///
/// Each [`ClockDomain`] keeps its own ledger: core requests never show up
/// in the memory ledger, nor the other way round.
pub trait GroundTruth {
    /// All ground-truth transitions of `domain` recorded so far, in
    /// request order.
    fn transitions(&self, domain: ClockDomain) -> Vec<TransitionGroundTruth>;

    /// The most recent ground-truth transition of `domain`.
    fn last_transition(&self, domain: ClockDomain) -> Option<TransitionGroundTruth>;
}

/// Builds fresh [`Platform`] instances for campaign workers.
///
/// The campaign schedules work at pair granularity and gives every pair its
/// own platform seeded from `(campaign seed, pair)`; this trait is how it
/// asks the backend for one.
pub trait PlatformFactory: Send + Sync {
    /// The platform type this factory builds.
    type Platform: Platform;

    /// Create a platform seeded with `seed`.
    fn create(&self, seed: u64) -> CoreResult<Self::Platform>;

    /// Name of the device the platforms will run on.
    fn device_name(&self) -> String;
}

/// Effective device-to-host bandwidth of a record copy (bytes/s): about a
/// PCIe gen4 x16 link.
const D2H_BANDWIDTH: f64 = 20e9;

/// Fixed setup cost of a record copy (s).
const COPY_SETUP_S: f64 = 5e-6;

/// Host-side overhead of an asynchronous kernel launch (µs).
const LAUNCH_OVERHEAD_US: Range<f64> = 8.0..18.0;

/// One simulated machine: a virtual host clock, one simulated GPU, and the
/// driver and host-runtime cost model between them.
///
/// The frequency-change call has a different target device from its
/// originator (Fig. 2): the host-side call blocks briefly and returns
/// before the device has applied anything; the request travels the bus
/// and is processed asynchronously. Per locked-clocks call, sampled from
/// the device's [`DriverProfile`](latest_gpu_sim::devices::DriverProfile)
/// in this order — blocking, travel, stall check:
///
/// ```text
/// host:   |--- call blocking (~100 µs) ---| (returns)
/// bus:        |--- request travel (~10-60 µs) ---|
/// device:                                        |-> transition model ...
/// ```
///
/// A small probability of a *driver stall* (lock contention with
/// monitoring daemons etc.) adds tens of milliseconds to the travel time;
/// these stalls are the dominant source of the outlier measurements the
/// paper's DBSCAN stage removes.
///
/// Driver queries read the device at call entry, then cost 20–60 µs. On
/// the host-runtime side a kernel launch costs 8–18 µs and returns before
/// the kernel runs, a synchronize waits for completion and then 3–10 µs,
/// a record copy pays for its bytes at 20 GB/s plus 5 µs, and a
/// `%globaltimer` read is a round trip of 6–20 µs out and 4–15 µs back.
/// Driver calls and host-runtime calls draw from two separate seeded
/// streams, so adding a query never shifts a launch cost.
pub struct SimPlatform {
    clock: SharedClock,
    device: GpuDevice,
    /// Driver stream: locked-clocks and query costs.
    driver_rng: ChaCha8Rng,
    /// Host-runtime stream: launch, synchronize and timer-read costs.
    host_rng: ChaCha8Rng,
}

impl SimPlatform {
    /// Build a platform over a single device. Construction cannot fail;
    /// the `Result` stays until the benchmark's next change, which
    /// compiles against it.
    pub fn new(spec: DeviceSpec, seed: u64) -> CoreResult<SimPlatform> {
        let clock = SharedClock::new();
        let driver_rng = ChaCha8Rng::seed_from_u64(0xD215EED ^ spec.name.len() as u64);
        Ok(SimPlatform {
            device: GpuDevice::new(spec, seed, clock.clone()),
            clock,
            driver_rng,
            host_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xCAFE ^ 0xC0DA),
        })
    }

    /// One locked-clocks call in `domain` (`nvmlDeviceSet*LockedClocks`
    /// with `min == max`): the host blocks for the sampled call time while
    /// the request travels the bus (plus a rare driver stall) and reaches
    /// the device asynchronously. Rejects clocks outside the ladder range,
    /// mirroring `NVML_ERROR_INVALID_ARGUMENT`; returns the ladder-snapped
    /// target.
    fn lock_clocks(&mut self, domain: ClockDomain, target: FreqMhz) -> CoreResult<FreqMhz> {
        let spec = self.device.spec();
        let ladder = spec.ladder_of(domain);
        let (min, max) = (ladder.min(), ladder.max());
        if target < min || target > max {
            return Err(CoreError::InvalidClock {
                requested: target.0,
                min: min.0,
                max: max.0,
            });
        }

        let profile = &spec.driver;
        let rng = &mut self.driver_rng;
        let call = self.clock.now();
        let blocking_us =
            LogNormal::from_median(profile.call_blocking_us, profile.call_blocking_sigma_ln)
                .sample(rng);
        let mut travel_us =
            LogNormal::from_median(profile.request_travel_us, profile.request_travel_sigma_ln)
                .sample(rng);
        if rng.gen::<f64>() < profile.stall_prob {
            travel_us += profile.stall.sample_ms(rng) * 1e3;
        }
        let arrival = call + SimDuration::from_nanos((travel_us * 1e3).round() as u64);
        let snapped = self
            .device
            .apply_locked_clocks(domain, call, arrival, target);
        self.clock
            .advance(SimDuration::from_nanos((blocking_us * 1e3).round() as u64));
        Ok(snapped)
    }

    /// One driver query: read the device at call entry, then pay the query
    /// cost (cheap but not free: 20–60 µs).
    fn query<T>(&mut self, read: impl FnOnce(&mut GpuDevice, SimTime) -> T) -> T {
        let value = read(&mut self.device, self.clock.now());
        let us: f64 = self.driver_rng.gen_range(20.0..60.0);
        self.clock
            .advance(SimDuration::from_nanos((us * 1e3) as u64));
        value
    }

    /// One `%globaltimer` read round trip: a single-timestamp kernel
    /// returning `(host_before, device_stamp, host_after)`. The device
    /// stamp is taken somewhere inside the (asymmetric) round trip; the PTP
    /// layer bounds the offset error by the round-trip width.
    pub(crate) fn read_globaltimer(&mut self) -> (SimTime, SimTime, SimTime) {
        let host_before = self.clock.now();
        // Outbound: launch latency until the kernel's timestamp instruction
        // retires on the device.
        let out_us: f64 = self.host_rng.gen_range(6.0..20.0);
        let stamp_global = self
            .clock
            .advance(SimDuration::from_nanos((out_us * 1e3) as u64));
        let device_stamp = self.device.timer().project(stamp_global);
        // Return path: completion signal + host wakeup.
        let back_us: f64 = self.host_rng.gen_range(4.0..15.0);
        let host_after = self
            .clock
            .advance(SimDuration::from_nanos((back_us * 1e3) as u64));
        (host_before, device_stamp, host_after)
    }
}

impl Platform for SimPlatform {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn sleep(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        self.lock_clocks(ClockDomain::Core, target)
    }

    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz> {
        let nominal = self.device.spec().nominal_mhz;
        self.lock_clocks(ClockDomain::Core, nominal)
    }

    fn current_clock(&mut self) -> FreqMhz {
        self.query(|d, now| d.current_sm_clock(now))
    }

    fn supported_clocks(&self) -> Vec<FreqMhz> {
        self.device.spec().ladder.steps().to_vec()
    }

    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId> {
        let overhead_us = self.host_rng.gen_range(LAUNCH_OVERHEAD_US);
        let enqueue = self
            .clock
            .advance(SimDuration::from_nanos((overhead_us * 1e3) as u64));
        self.device
            .enqueue_kernel(enqueue, config)
            .map_err(CoreError::Launch)
    }

    fn synchronize(&mut self) -> SimTime {
        let completion = self.device.synchronize(self.clock.now());
        // Synchronisation itself has a small host-side exit cost.
        let exit_us: f64 = self.host_rng.gen_range(3.0..10.0);
        self.clock.advance_to(completion);
        self.clock
            .advance(SimDuration::from_nanos((exit_us * 1e3) as u64))
    }

    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData> {
        let records = self
            .device
            .take_records(id)
            .ok_or(CoreError::NoRecords(id))?;
        let bytes: usize = records
            .iter()
            .map(|sm| sm.len() * std::mem::size_of::<IterRecord>())
            .sum();
        let secs = bytes as f64 / D2H_BANDWIDTH + COPY_SETUP_S;
        self.clock.advance(SimDuration::from_secs_f64(secs));
        Ok(records)
    }

    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult {
        synchronize(&mut || self.read_globaltimer(), config)
    }

    fn throttle_reasons(&mut self) -> ThrottleReasons {
        self.query(|d, now| d.throttle_reasons(now))
    }

    fn temperature_c(&mut self) -> f64 {
        self.query(|d, now| d.temperature(now))
    }

    fn device_name(&self) -> String {
        self.device.spec().name.clone()
    }

    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        Some(self)
    }

    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        Some(self)
    }
}

impl GroundTruth for SimPlatform {
    fn transitions(&self, domain: ClockDomain) -> Vec<TransitionGroundTruth> {
        self.device.transitions(domain).to_vec()
    }

    fn last_transition(&self, domain: ClockDomain) -> Option<TransitionGroundTruth> {
        self.device.transitions(domain).last().copied()
    }
}

impl MemoryClocks for SimPlatform {
    fn set_locked_mem_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        self.lock_clocks(ClockDomain::Memory, target)
    }

    fn reset_locked_mem_clocks(&mut self) -> CoreResult<FreqMhz> {
        let default = self.device.spec().mem_default();
        self.lock_clocks(ClockDomain::Memory, default)
    }

    fn current_mem_clock(&mut self) -> FreqMhz {
        self.query(|d, now| d.current_mem_clock(now))
    }

    fn supported_mem_clocks(&self) -> Vec<FreqMhz> {
        self.device.spec().mem_ladder.steps().to_vec()
    }

    fn default_mem_clock(&self) -> FreqMhz {
        self.device.spec().mem_default()
    }
}

/// Factory for [`SimPlatform`]s over one device spec.
#[derive(Clone, Debug)]
pub struct SimPlatformFactory {
    spec: DeviceSpec,
}

impl SimPlatformFactory {
    /// Build platforms for `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        SimPlatformFactory { spec }
    }

    /// The device spec platforms are built from.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
}

impl PlatformFactory for SimPlatformFactory {
    type Platform = SimPlatform;

    fn create(&self, seed: u64) -> CoreResult<SimPlatform> {
        SimPlatform::new(self.spec.clone(), seed)
    }

    fn device_name(&self) -> String {
        self.spec.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;

    #[test]
    fn platform_wires_one_device() {
        let p = SimPlatform::new(devices::a100_sxm4(), 7).unwrap();
        assert!(Platform::device_name(&p).contains("A100"));
        assert_eq!(Platform::now(&p), SimTime::EPOCH);
        assert!(p.transitions(ClockDomain::Core).is_empty());
    }

    #[test]
    fn timer_sync_recovers_device_offset() {
        let spec = devices::a100_sxm4();
        let true_offset = spec.timer_offset_ns;
        let mut p = SimPlatform::new(spec, 11).unwrap();
        let sync = p.synchronize_timers(&SyncConfig::default());
        // Drift over the first few ms is negligible; the estimate must land
        // within the reported uncertainty of the configured skew.
        let err = (sync.offset_ns - true_offset).unsigned_abs();
        assert!(
            err <= sync.uncertainty_ns + 2_000,
            "sync err {err} ns vs bound {}",
            sync.uncertainty_ns
        );
    }

    #[test]
    fn ground_truth_appears_after_clock_request() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 3).unwrap();
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        assert_eq!(p.transitions(ClockDomain::Core).len(), 1);
        assert_eq!(p.last_transition(ClockDomain::Core).unwrap().to.0, 705);
    }

    /// The methodology's contract: every phase sees the simulator only
    /// through the trait, and the ground-truth capability is discoverable.
    #[test]
    fn trait_surface_matches_facades() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 5).unwrap();
        assert!(Platform::device_name(&p).contains("A100"));
        assert_eq!(p.supported_clocks().len(), 81);
        let snapped = p.set_locked_clocks(FreqMhz(1001)).unwrap();
        assert_eq!(snapped, FreqMhz(1005));
        let gt = p.as_ground_truth().expect("simulator offers ground truth");
        assert_eq!(
            gt.last_transition(ClockDomain::Core).unwrap().to,
            FreqMhz(1005)
        );
        let t0 = Platform::now(&p);
        p.sleep(SimDuration::from_micros(250));
        assert_eq!(
            Platform::now(&p).saturating_since(t0),
            SimDuration::from_micros(250)
        );
    }

    /// The memory domain is a discoverable capability, mirrored onto its
    /// own ground-truth ledger — core transitions never leak into it.
    #[test]
    fn memory_clock_capability_is_discoverable_and_separate() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 13).unwrap();
        let default_mem = {
            let mc = p.as_memory_clocks().expect("simulator offers mem clocks");
            assert_eq!(mc.supported_mem_clocks().len(), 3);
            mc.default_mem_clock()
        };
        assert_eq!(default_mem, FreqMhz(1215));
        {
            let mc = p.as_memory_clocks().unwrap();
            let snapped = mc.set_locked_mem_clocks(FreqMhz(820)).unwrap();
            assert_eq!(snapped, FreqMhz(810));
        }
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        let gt = p.as_ground_truth().unwrap();
        assert_eq!(gt.transitions(ClockDomain::Core).len(), 1);
        assert_eq!(gt.transitions(ClockDomain::Memory).len(), 1);
        assert_eq!(
            gt.last_transition(ClockDomain::Core).unwrap().to,
            FreqMhz(705)
        );
        assert_eq!(
            gt.last_transition(ClockDomain::Memory).unwrap().to,
            FreqMhz(810)
        );
    }

    #[test]
    fn factory_builds_seeded_platforms() {
        let factory = SimPlatformFactory::new(devices::gh200());
        assert!(factory.device_name().contains("GH200"));
        let mut a = factory.create(9).unwrap();
        let mut b = factory.create(9).unwrap();
        // Same seed, same behaviour: the first control call lands at the
        // same virtual instant on both instances.
        a.set_locked_clocks(FreqMhz(1980)).unwrap();
        b.set_locked_clocks(FreqMhz(1980)).unwrap();
        let (ga, gb) = (
            a.last_transition(ClockDomain::Core).unwrap(),
            b.last_transition(ClockDomain::Core).unwrap(),
        );
        assert_eq!(ga.device_arrival, gb.device_arrival);
    }
}
