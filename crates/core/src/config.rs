//! Campaign configuration: the knobs a caller sets for one run of the
//! LATEST tool (Sec. VI) plus the simulation-fidelity controls, and the
//! methodology values the paper fixes as named constants.
//!
//! Mirrors the CLI of the paper's tool: the mandatory benchmarked-frequency
//! list, the device index, the RSE threshold (default 5 %), and the
//! minimum/maximum measurement counts. Secs. V–VI fix the rest in prose —
//! the delay period, the confirmation window, the 2σ detection band, an RSE
//! check every 25 passes, a throttle poll every 5, and a 5-measurement
//! discard plus 10 s back-off after a thermal event — so those are the
//! constants below, not fields.

use latest_gpu_sim::devices::DeviceSpec;
use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::sm::WorkloadParams;
use latest_sim_clock::SimDuration;

use crate::state::FreqState;

// --- stopping rule (Sec. VI) ---

/// RSE is evaluated every this many passes (25 in the paper).
pub const RSE_CHECK_EVERY: usize = 25;
/// Throttle reasons are polled every this many passes (5).
pub const THROTTLE_CHECK_EVERY: usize = 5;
/// Measurements discarded after a thermal event (5).
pub const THERMAL_DISCARD: usize = 5;
/// Cool-down pause after a thermal event (10 s).
pub const THERMAL_BACKOFF: SimDuration = SimDuration::from_secs(10);
/// Consecutive thermal discards tolerated with no net progress before the
/// controller stops discarding and keeps measurements. On a device whose
/// busy steady-state sits above the throttle threshold, every poll window
/// re-trips the thermal event; discarding each window's measurements would
/// livelock the pair. Past this limit the data is kept — per-pass phase-3
/// evaluation remains the quality gate for measurements taken under a
/// clamped clock.
pub const THERMAL_DISCARD_LIMIT: usize = 3;

// --- methodology constants (Sec. V) ---

/// Iterations executed at the initial frequency before the change call
/// (the *delay period*; "several hundred").
pub const DELAY_ITERATIONS: u32 = 300;
/// Iterations after the detected transition used to confirm the target
/// mean ("several hundred up to a thousand").
pub const CONFIRM_ITERATIONS: u32 = 300;
/// Width multiplier of the detection band (2.0 = the paper's 2σ).
pub const SIGMA_K: f64 = 2.0;
/// Relative tolerance for the `meanDiff < tol` acceptance in Algorithm 2
/// (fraction of the target mean). Tight enough to reject detections that
/// fire a few ms early on near-adjacent pairs (a 2 ms-early hit leaves
/// ~0.3 % of init-speed iterations in the confirm window), loose enough for
/// honest passes (shift ~stderr ≈ 0.06 %). Phase 3 applies this test
/// first and builds the Welch interval only for the cores it leaves open.
pub const MEAN_TOLERANCE_REL: f64 = 0.003;

// --- phase 1 ---

/// Kernels per frequency in phase 1 (first ones absorb wake-up).
pub const PHASE1_KERNELS: usize = 3;
/// Minimum busy time under a frequency before its characterisation kernel
/// runs. Must exceed the slowest plausible transition *into* that
/// frequency, or the "last kernel" statistics are contaminated with
/// old-frequency iterations (Sec. V wake-up bullet: "keep the accelerator
/// busy for a few seconds").
pub const PHASE1_SETTLE: SimDuration = SimDuration::from_millis(1_500);

/// Configuration of one measurement campaign on one device: the knobs a
/// caller sets. The paper's fixed values are the module's constants.
///
/// Built only by [`CampaignSpec::resolve_with`](crate::spec::CampaignSpec::resolve_with),
/// which validates the spec and fills the fields a spec does not name
/// (`confidence` through `phase1_iters`). A caller that needs another value
/// of one of those sets the public field on the resolved config.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The device to benchmark.
    pub spec: DeviceSpec,
    /// Device index (for output naming; multi-GPU campaigns create one
    /// config per unit).
    pub device_index: usize,
    /// Hostname used in output file names.
    pub hostname: String,
    /// Frequencies to benchmark (the tool's mandatory argument). Must be
    /// ladder values; all ordered pairs of distinct entries are candidates.
    pub frequencies: Vec<FreqMhz>,
    /// Memory (DRAM) frequencies to benchmark. Empty = core-only campaign
    /// (the original single-domain model, memory clock at the device
    /// default). Non-empty = the campaign sweeps the full core × memory
    /// state plane; entries must be memory-ladder values.
    pub mem_frequencies: Vec<FreqMhz>,
    /// Master seed for the simulation substrate.
    pub seed: u64,

    // --- stopping rule (Sec. VI) ---
    /// RSE threshold below which a pair's measurement loop stops (0.05).
    pub rse_threshold: f64,
    /// Measurements to collect before RSE checks begin.
    pub min_measurements: usize,
    /// Hard cap on measurements per pair.
    pub max_measurements: usize,

    // --- statistics and retries ---
    /// Confidence level for every interval/test (0.95).
    pub confidence: f64,
    /// Upper bound on phase-2/3 retries per measurement before the pair
    /// errors out.
    pub max_retries: usize,
    /// Safety factor on the probed switching-latency upper bound when sizing
    /// the benchmark kernel ("tenfold the longest switching latency").
    pub probe_safety_factor: f64,
    /// Fallback upper bound (ms) used before any probe data exists.
    pub initial_latency_guess_ms: f64,
    /// Iterations per phase-1 kernel.
    pub phase1_iters: u32,

    // --- workload & fidelity ---
    /// The microbenchmark workload.
    pub workload: WorkloadParams,
    /// SM record streams to simulate per kernel (`None` = all SMs,
    /// hardware-faithful but slower; the default 8 is statistically
    /// equivalent because all SMs share one clock domain).
    pub simulated_sms: Option<u32>,
}

impl CampaignConfig {
    /// The campaign's clock states: the configured core frequencies when
    /// `mem_frequencies` is empty (core-only, memory at the device
    /// default), otherwise the full core × memory cross product in
    /// core-major order.
    pub fn states(&self) -> Vec<FreqState> {
        if self.mem_frequencies.is_empty() {
            self.frequencies
                .iter()
                .map(|&f| FreqState::core_only(f))
                .collect()
        } else {
            let mut states =
                Vec::with_capacity(self.frequencies.len() * self.mem_frequencies.len());
            for &core in &self.frequencies {
                for &mem in &self.mem_frequencies {
                    states.push(FreqState::with_mem(core, mem));
                }
            }
            states
        }
    }

    /// All ordered pairs (init != target) of the campaign's clock states,
    /// init-major in [`Self::states`] order. A 2-D campaign includes
    /// core-only, memory-only and simultaneous transitions as distinct
    /// pairs.
    pub fn ordered_state_pairs(&self) -> Vec<(FreqState, FreqState)> {
        let states = self.states();
        let mut pairs = Vec::new();
        for &a in &states {
            for &b in &states {
                if a != b {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// Expected duration of one iteration in `state` (ns, noise-free):
    /// the memory-stall portion of the workload is rescaled by the state's
    /// memory clock; a core-only state keeps memory at the device default.
    pub fn expected_iter_ns_state(&self, state: impl Into<FreqState>) -> f64 {
        let state = state.into();
        let reference = self.spec.mem_freq_mhz as f64;
        self.workload.expected_iter_ns(
            state.core.as_f64(),
            state.mem.map_or(reference, FreqMhz::as_f64),
            reference,
        )
    }

    /// The core-pair part of [`Self::state_pair_seed`], the single-domain
    /// era's formula.
    fn pair_seed(&self, init: FreqMhz, target: FreqMhz) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((init.0 as u64) << 32) | target.0 as u64)
    }

    /// Derived per-pair seed, stable across runs and independent of pair
    /// execution order (this is what makes a campaign whose pairs run
    /// concurrently on the queue's worker pool bitwise equal to
    /// `CampaignSession::run`). Core-only pairs reduce to the exact legacy
    /// core-pair formula (bitwise-identical campaigns); states with a
    /// memory clock fold an independently mixed hash of the memory pair
    /// into the same stream, keeping distinct state pairs collision-free.
    pub fn state_pair_seed(&self, init: FreqState, target: FreqState) -> u64 {
        let base = self.pair_seed(init.core, target.core);
        if init.mem.is_none() && target.mem.is_none() {
            return base;
        }
        // `+ 1` keeps `Some(FreqMhz(0))` distinct from `None`.
        let mi = init.mem.map(|m| m.0 as u64 + 1).unwrap_or(0);
        let mt = target.mem.map(|m| m.0 as u64 + 1).unwrap_or(0);
        base ^ mix64((mi << 32) | mt)
    }
}

/// A 64-bit finaliser (splitmix64's): full avalanche, zero-free for
/// non-zero inputs in practice — used to fold the memory pair into the
/// per-pair seed without disturbing the legacy core-only stream.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, CampaignSpecBuilder, SpecError};

    fn a100(mhz: &[u32]) -> CampaignSpecBuilder {
        CampaignSpec::builder("a100").frequencies_mhz(mhz)
    }

    fn resolve(spec: CampaignSpecBuilder) -> CampaignConfig {
        spec.build_unchecked().resolve().unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let c = resolve(a100(&[705, 1410]));
        assert_eq!(c.rse_threshold, 0.05);
        assert_eq!((c.min_measurements, c.max_measurements), (25, 150));
        assert_eq!(c.confidence, 0.95);
        assert_eq!(c.max_retries, 8);
        assert_eq!(c.probe_safety_factor, 10.0);
        assert_eq!(c.initial_latency_guess_ms, 50.0);
        assert_eq!(c.phase1_iters, 800);
        assert_eq!(RSE_CHECK_EVERY, 25);
        assert_eq!(THROTTLE_CHECK_EVERY, 5);
        assert_eq!(THERMAL_DISCARD, 5);
        assert_eq!(THERMAL_BACKOFF, SimDuration::from_secs(10));
        assert_eq!(THERMAL_DISCARD_LIMIT, 3);
        assert_eq!(DELAY_ITERATIONS, 300);
        assert_eq!(CONFIRM_ITERATIONS, 300);
        assert_eq!(SIGMA_K, 2.0);
        assert_eq!(MEAN_TOLERANCE_REL, 0.003);
        assert_eq!(PHASE1_KERNELS, 3);
        assert_eq!(PHASE1_SETTLE, SimDuration::from_millis(1_500));
    }

    #[test]
    fn validate_reports_each_out_of_range_knob() {
        use SpecError as E;
        let cases = [
            (
                0.0,
                25,
                150,
                Some(8),
                E::RseThresholdOutOfRange { value: 0.0 },
            ),
            (
                1.0,
                25,
                150,
                Some(8),
                E::RseThresholdOutOfRange { value: 1.0 },
            ),
            (0.05, 0, 150, Some(8), E::ZeroMinMeasurements),
            (
                0.05,
                100,
                10,
                Some(8),
                E::MeasurementBoundsInverted { min: 100, max: 10 },
            ),
            (0.05, 25, 150, Some(0), E::ZeroSimulatedSms),
        ];
        for (rse, min, max, sms, expected) in cases {
            let spec = CampaignSpec {
                rse_threshold: rse,
                min_measurements: min,
                max_measurements: max,
                simulated_sms: sms,
                ..a100(&[705, 1410]).build_unchecked()
            };
            let errors = spec.validate().unwrap_err();
            assert_eq!(errors.errors(), std::slice::from_ref(&expected));
            assert_eq!(spec.resolve().unwrap_err(), errors, "{expected}");
        }
    }

    #[test]
    fn ordered_state_pairs_exclude_the_diagonal() {
        let c = resolve(a100(&[705, 1095, 1410]));
        let pairs = c.ordered_state_pairs();
        assert_eq!(pairs.len(), 6);
        assert!(!pairs.iter().any(|(a, b)| a == b));
    }

    #[test]
    fn frequency_subset_spans_ladder() {
        let c = resolve(CampaignSpec::builder("gh200").frequency_subset(18));
        assert_eq!(c.frequencies.len(), 18);
        assert_eq!(c.frequencies[0], FreqMhz(345));
        assert_eq!(*c.frequencies.last().unwrap(), FreqMhz(1980));
    }

    #[test]
    fn pair_seed_is_order_sensitive_and_stable() {
        let c = resolve(a100(&[705, 1410]).seed(5));
        let a = c.pair_seed(FreqMhz(705), FreqMhz(1410));
        let b = c.pair_seed(FreqMhz(1410), FreqMhz(705));
        assert_ne!(a, b);
        assert_eq!(a, c.pair_seed(FreqMhz(705), FreqMhz(1410)));
    }

    #[test]
    fn states_default_to_core_only_and_cross_with_memory() {
        let core_only = resolve(a100(&[705, 1410]));
        assert_eq!(
            core_only.states(),
            vec![
                FreqState::core_only(FreqMhz(705)),
                FreqState::core_only(FreqMhz(1410)),
            ]
        );
        assert_eq!(core_only.ordered_state_pairs().len(), 2);

        let plane = resolve(a100(&[705, 1410]).mem_frequencies_mhz(&[810, 1215]));
        assert_eq!(plane.states().len(), 4);
        // 4 states → 12 ordered pairs: 4 core-only, 4 memory-only,
        // 4 simultaneous.
        let pairs = plane.ordered_state_pairs();
        assert_eq!(pairs.len(), 12);
        use crate::state::PairKind;
        let count = |k: PairKind| {
            pairs
                .iter()
                .filter(|(a, b)| a.kind_to(b) == Some(k))
                .count()
        };
        assert_eq!(count(PairKind::Core), 4);
        assert_eq!(count(PairKind::Memory), 4);
        assert_eq!(count(PairKind::Simultaneous), 4);
    }

    #[test]
    fn state_pair_seed_reduces_to_legacy_formula_for_core_only() {
        let c = resolve(a100(&[705, 1410]).seed(9));
        let legacy = c.pair_seed(FreqMhz(705), FreqMhz(1410));
        assert_eq!(
            c.state_pair_seed(
                FreqState::core_only(FreqMhz(705)),
                FreqState::core_only(FreqMhz(1410)),
            ),
            legacy
        );
        // Adding a memory dimension perturbs the seed, and distinct memory
        // pairs over the same core pair stay distinct.
        let a = c.state_pair_seed(
            FreqState::with_mem(FreqMhz(705), FreqMhz(810)),
            FreqState::with_mem(FreqMhz(1410), FreqMhz(810)),
        );
        let b = c.state_pair_seed(
            FreqState::with_mem(FreqMhz(705), FreqMhz(1215)),
            FreqState::with_mem(FreqMhz(1410), FreqMhz(1215)),
        );
        assert_ne!(a, legacy);
        assert_ne!(a, b);
    }

    #[test]
    fn expected_iter_ns_state_scales_memory_stall() {
        let c = resolve(a100(&[705, 1410]).workload("memory-bound"));
        let core = FreqMhz(1410);
        let full = c.expected_iter_ns_state(FreqState::with_mem(core, FreqMhz(1215)));
        let half = c.expected_iter_ns_state(FreqState::with_mem(core, FreqMhz(607)));
        assert!(half > full * 1.4, "half-mem-clock {half} vs full {full}");
        // Core-only states run memory at the device default (1215 MHz).
        assert_eq!(
            c.expected_iter_ns_state(FreqState::core_only(core)),
            c.expected_iter_ns_state(FreqState::with_mem(core, FreqMhz(1215)))
        );
    }
}
