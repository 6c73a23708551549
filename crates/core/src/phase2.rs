//! Phase 2 — the switching-latency benchmark (Algorithm 2, lines 1–8).
//!
//! One measurement pass:
//!
//! 1. synchronise host and device timers (IEEE 1588),
//! 2. lock the initial frequency and run a short warm-up workload so the
//!    device is hot, awake and settled at the initial clock,
//! 3. launch the benchmark kernel (long enough to cover delay period +
//!    probed latency bound + confirmation window),
//! 4. sleep through the delay period,
//! 5. stamp `t_s` (host time mapped onto the device timeline) and issue the
//!    frequency-change call,
//! 6. synchronise and copy the per-SM records back.

use latest_clock_sync::{SyncConfig, SyncResult};
use latest_gpu_sim::KernelConfig;
use latest_sim_clock::{SimDuration, SimTime};
use latest_stats::{SigmaBand, Summary};

use crate::config::{CampaignConfig, CONFIRM_ITERATIONS, DELAY_ITERATIONS, SIGMA_K};
use crate::error::CoreResult;
use crate::platform::{require_memory_clocks, Platform, TimerData};
use crate::state::FreqState;

/// Everything phase 3 needs from one benchmark pass.
#[derive(Clone, Debug)]
pub struct SwitchCapture {
    /// Initial clock state of the pair measured.
    pub init: FreqState,
    /// Target clock state.
    pub target: FreqState,
    /// `t_s` on the device timeline: host clock at the change call, mapped
    /// through the sync offset (Algorithm 2 line 6).
    pub ts_device: SimTime,
    /// Per-SM iteration records.
    pub records: TimerData,
    /// The sync used for the mapping (error bound travels with the data).
    pub sync: SyncResult,
    /// Iterations the kernel was sized to.
    pub kernel_iters: u32,
}

/// Size the benchmark kernel: delay period + latency bound (with safety
/// factor) + confirmation window, in iterations at the *slower* of the two
/// states (conservative — for core-only pairs this is the lower core
/// frequency, exactly the legacy sizing).
pub fn kernel_iterations(
    config: &CampaignConfig,
    init: impl Into<FreqState>,
    target: impl Into<FreqState>,
    latency_bound_ms: f64,
) -> u32 {
    let iter_ns = config
        .expected_iter_ns_state(init)
        .max(config.expected_iter_ns_state(target));
    let latency_iters =
        (latency_bound_ms * 1e6 * config.probe_safety_factor / iter_ns).ceil() as u32;
    DELAY_ITERATIONS + latency_iters + CONFIRM_ITERATIONS
}

/// Run one benchmark pass for `init → target`.
///
/// `init_stats` is the phase-1 characterisation of the *initial* frequency:
/// the warm-up loop runs until the device demonstrably executes at it (the
/// transition into the initial frequency can itself take hundreds of ms on
/// slow targets, and measuring before it lands would corrupt `t_s`).
///
/// `latency_bound_ms` is the current upper-bound estimate for this pair's
/// switching latency (from the probe phase, or grown by the retry logic when
/// the capture window proved too short).
pub fn run_phase2<P: Platform>(
    platform: &mut P,
    config: &CampaignConfig,
    init: impl Into<FreqState>,
    target: impl Into<FreqState>,
    init_stats: &Summary,
    latency_bound_ms: f64,
) -> CoreResult<SwitchCapture> {
    let init: FreqState = init.into();
    let target: FreqState = target.into();
    // 1. Timer synchronisation.
    let sync = platform.synchronize_timers(&SyncConfig::default());

    // 2. Initial clock state + warm-up workload, verified against the init
    //    characterisation: keep running until the tail of a warm kernel
    //    sits inside the init band.
    if let Some(mem) = init.mem {
        require_memory_clocks(platform)?.set_locked_mem_clocks(mem)?;
    }
    platform.set_locked_clocks(init.core)?;
    let warm_cfg = KernelConfig {
        iters_per_sm: DELAY_ITERATIONS,
        workload: config.workload,
        simulated_sms: Some(1),
    };
    let init_band = SigmaBand::with_k(init_stats, SIGMA_K);
    const MAX_WARM_KERNELS: usize = 64;
    for _ in 0..MAX_WARM_KERNELS {
        let warm_id = platform.launch_benchmark(warm_cfg)?;
        platform.synchronize();
        let records = platform.collect_records(warm_id)?;
        let tail = &records[0][records[0].len().saturating_sub(32)..];
        let in_band = tail
            .iter()
            .filter(|r| init_band.contains(r.duration().as_nanos() as f64))
            .count();
        if in_band * 10 >= tail.len() * 9 {
            break; // >= 90 % of the tail executes at the initial frequency
        }
    }

    // 3. The benchmark kernel.
    let iters = kernel_iterations(config, init, target, latency_bound_ms);
    let bench_cfg = KernelConfig {
        iters_per_sm: iters,
        workload: config.workload,
        simulated_sms: config.simulated_sms,
    };
    let bench_id = platform.launch_benchmark(bench_cfg)?;

    // 4. Delay period: sleep while the kernel accumulates initial-state
    //    iterations.
    let delay_ns = DELAY_ITERATIONS as f64 * config.expected_iter_ns_state(init);
    platform.sleep(SimDuration::from_nanos(delay_ns as u64));

    // 5. t_s, then the frequency-change call(s): only the domains that
    //    actually change, core first — a simultaneous pair issues both
    //    driver calls back-to-back, and its latency is measured from the
    //    first call.
    let ts_host = platform.now();
    let ts_device = sync.host_to_device(ts_host);
    if target.core != init.core {
        platform.set_locked_clocks(target.core)?;
    }
    if target.mem != init.mem {
        if let Some(mem) = target.mem {
            require_memory_clocks(platform)?.set_locked_mem_clocks(mem)?;
        }
    }

    // 6. Wait for the kernel and fetch records.
    platform.synchronize();
    let records = platform.collect_records(bench_id)?;

    Ok(SwitchCapture {
        init,
        target,
        ts_device,
        records,
        sync,
        kernel_iters: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::platform::{GroundTruth, SimPlatform};
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::{ClockDomain, FreqMhz};

    fn fixed_latency_config(ms: u64) -> CampaignConfig {
        resolve_on(
            fixed(devices::a100_sxm4(), ms),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .seed(13),
        )
    }

    #[test]
    fn kernel_sizing_covers_all_windows() {
        let config = fixed_latency_config(10);
        let n = kernel_iterations(&config, FreqMhz(1410), FreqMhz(705), 10.0);
        // delay 300 + bound (10 ms * 10 / 141.8 us = 706) + confirm 300.
        assert!(n >= 300 + 700 + 300, "n = {n}");
        assert!(n < 2_000, "n = {n} oversized");
    }

    /// Phase-1 characterisation for the fixture frequencies, as the real
    /// pipeline provides it.
    fn stats_for<P: Platform>(
        platform: &mut P,
        config: &CampaignConfig,
        freq: FreqMhz,
    ) -> latest_stats::Summary {
        crate::phase1::characterize_state(platform, config, freq)
            .unwrap()
            .iter_ns
    }

    #[test]
    fn capture_contains_both_regimes() {
        let config = fixed_latency_config(8);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let init_stats = stats_for(&mut platform, &config, FreqMhz(1410));
        let cap = run_phase2(
            &mut platform,
            &config,
            FreqMhz(1410),
            FreqMhz(705),
            &init_stats,
            10.0,
        )
        .unwrap();
        assert_eq!(cap.records.len(), 8);

        let fast_ns = config.expected_iter_ns_state(FreqMhz(1410));
        let slow_ns = config.expected_iter_ns_state(FreqMhz(705));
        let sm = &cap.records[0];
        let n_fast = sm
            .iter()
            .filter(|r| ((r.duration().as_nanos() as f64) - fast_ns).abs() < fast_ns * 0.05)
            .count();
        let n_slow = sm
            .iter()
            .filter(|r| ((r.duration().as_nanos() as f64) - slow_ns).abs() < slow_ns * 0.05)
            .count();
        assert!(n_fast > 100, "only {n_fast} initial-frequency iterations");
        assert!(n_slow > 100, "only {n_slow} target-frequency iterations");
    }

    #[test]
    fn ts_lands_after_delay_period_iterations() {
        let config = fixed_latency_config(8);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let init_stats = stats_for(&mut platform, &config, FreqMhz(1410));
        let cap = run_phase2(
            &mut platform,
            &config,
            FreqMhz(1410),
            FreqMhz(705),
            &init_stats,
            10.0,
        )
        .unwrap();
        let sm = &cap.records[0];
        let before_ts = sm.iter().filter(|r| r.start < cap.ts_device).count();
        // The delay period is 300 iterations; allow slack for launch overhead
        // and sync uncertainty.
        assert!(
            (250..=400).contains(&before_ts),
            "{before_ts} iterations before t_s"
        );
    }

    #[test]
    fn ground_truth_latency_within_capture_window() {
        let config = fixed_latency_config(12);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let init_stats = stats_for(&mut platform, &config, FreqMhz(705));
        let _ = run_phase2(
            &mut platform,
            &config,
            FreqMhz(705),
            FreqMhz(1410),
            &init_stats,
            15.0,
        )
        .unwrap();
        let gt = platform.last_transition(ClockDomain::Core).unwrap();
        assert_eq!(gt.to, FreqMhz(1410));
        // 12 ms fixed + sub-ms driver travel.
        let sl = gt.switching_latency().as_millis_f64();
        assert!((11.9..14.0).contains(&sl), "ground truth {sl} ms");
    }
}
