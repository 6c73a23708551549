//! Phase 1 — warm-up and per-frequency characterisation (Algorithm 1).
//!
//! For every benchmarked frequency: lock the clock, run several kernels (the
//! early ones absorb wake-up and the clock transition; only the *last*
//! kernel's iterations are kept), and pool mean/σ across all SM record
//! streams. Then test every ordered pair with the confidence interval of the
//! difference of means: pairs whose interval contains zero are *excluded* —
//! their runtimes cannot be told apart, so the end of a transition between
//! them is undetectable.
//!
//! Erratum note: Algorithm 1 line 10 as printed (`lbDiff > 0 and
//! hbDiff < 0`) is unsatisfiable; the text's intent ("pairs where the null
//! hypothesis could not be rejected are excluded") is implemented: a pair is
//! valid iff the interval excludes zero.

use std::collections::BTreeMap;

use latest_gpu_sim::KernelConfig;
use latest_stats::{diff_confidence_interval, Summary};

use crate::config::{CampaignConfig, PHASE1_KERNELS, PHASE1_SETTLE};
use crate::error::{CoreError, CoreResult};
use crate::platform::Platform;
use crate::state::FreqState;

/// Per-state characterisation from the last warm kernel.
///
/// `freq` is a [`FreqState`]: a bare core frequency for single-domain
/// campaigns (serialised as the legacy bare number) or a full
/// core + memory point for 2-D campaigns.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct FreqCharacterization {
    /// The clock state characterised.
    pub freq: FreqState,
    /// Pooled iteration-duration summary (ns).
    pub iter_ns: Summary,
}

/// Output of phase 1.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
#[serde(from = "Phase1ResultRepr", into = "Phase1ResultRepr")]
pub struct Phase1Result {
    /// Characterisation per clock state.
    pub freqs: BTreeMap<FreqState, FreqCharacterization>,
    /// Ordered state pairs whose difference interval excludes zero.
    pub valid_pairs: Vec<(FreqState, FreqState)>,
    /// Ordered state pairs excluded as statistically indistinguishable.
    pub skipped_pairs: Vec<(FreqState, FreqState)>,
}

/// Serialised shape of [`Phase1Result`]: the frequency map flattens into a
/// sequence (each characterisation carries its own frequency), which keeps
/// the JSON free of non-string map keys.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
struct Phase1ResultRepr {
    freqs: Vec<FreqCharacterization>,
    valid_pairs: Vec<(FreqState, FreqState)>,
    skipped_pairs: Vec<(FreqState, FreqState)>,
}

impl From<Phase1Result> for Phase1ResultRepr {
    fn from(r: Phase1Result) -> Self {
        Phase1ResultRepr {
            freqs: r.freqs.into_values().collect(),
            valid_pairs: r.valid_pairs,
            skipped_pairs: r.skipped_pairs,
        }
    }
}

impl From<Phase1ResultRepr> for Phase1Result {
    fn from(r: Phase1ResultRepr) -> Self {
        Phase1Result {
            freqs: r.freqs.into_iter().map(|c| (c.freq, c)).collect(),
            valid_pairs: r.valid_pairs,
            skipped_pairs: r.skipped_pairs,
        }
    }
}

impl Phase1Result {
    /// The characterisation of one clock state (a bare
    /// [`FreqMhz`](latest_gpu_sim::freq::FreqMhz)
    /// converts to the core-only state).
    pub fn of(&self, state: impl Into<FreqState>) -> Option<&FreqCharacterization> {
        self.freqs.get(&state.into())
    }

    /// Whether a state pair survived validation.
    pub fn is_valid(&self, init: impl Into<FreqState>, target: impl Into<FreqState>) -> bool {
        self.valid_pairs.contains(&(init.into(), target.into()))
    }
}

/// Run phase 1 on `platform` for every configured frequency.
pub fn run_phase1<P: Platform>(
    platform: &mut P,
    config: &CampaignConfig,
) -> CoreResult<Phase1Result> {
    if config.frequencies.len() < 2 {
        return Err(CoreError::NotEnoughFrequencies {
            got: config.frequencies.len(),
        });
    }
    for &f in &config.frequencies {
        if !config.spec.ladder.contains(f) {
            return Err(CoreError::UnknownFrequency { freq: f });
        }
    }
    for &m in &config.mem_frequencies {
        if !config.spec.mem_ladder.contains(m) {
            return Err(CoreError::UnknownMemFrequency { freq: m });
        }
    }

    let mut freqs = BTreeMap::new();
    for state in config.states() {
        let ch = characterize_state(platform, config, state)?;
        freqs.insert(state, ch);
    }

    // Pairwise validation (Algorithm 1, lines 7-11, with the erratum fixed).
    let mut valid_pairs = Vec::new();
    let mut skipped_pairs = Vec::new();
    for (init, target) in config.ordered_state_pairs() {
        let a = freqs[&init].iter_ns;
        let b = freqs[&target].iter_ns;
        let distinguishable = diff_confidence_interval(&a, &b, config.confidence)
            .map(|ci| !ci.contains_zero())
            .unwrap_or(false);
        if distinguishable {
            valid_pairs.push((init, target));
        } else {
            skipped_pairs.push((init, target));
        }
    }

    Ok(Phase1Result {
        freqs,
        valid_pairs,
        skipped_pairs,
    })
}

/// Characterise one clock state: lock the memory clock (when the state has
/// one), lock the core clock, run [`PHASE1_KERNELS`] kernels, keep only the
/// last kernel's pooled statistics.
pub fn characterize_state<P: Platform>(
    platform: &mut P,
    config: &CampaignConfig,
    state: impl Into<FreqState>,
) -> CoreResult<FreqCharacterization> {
    let state = state.into();
    if let Some(mem) = state.mem {
        crate::platform::require_memory_clocks(platform)?.set_locked_mem_clocks(mem)?;
    }
    platform.set_locked_clocks(state.core)?;
    let kernel_cfg = KernelConfig {
        iters_per_sm: config.phase1_iters,
        workload: config.workload,
        simulated_sms: config.simulated_sms,
    };

    // Warm-up: keep the device busy until the settle budget has elapsed
    // (covers wake-up *and* the transition into `freq`, which can itself
    // take hundreds of ms on some targets), then at least the configured
    // kernel count. Only the final kernel is measured.
    let settle_from = platform.now();
    let mut warm_kernels = 0usize;
    while warm_kernels + 1 < PHASE1_KERNELS
        || platform.now().saturating_since(settle_from) < PHASE1_SETTLE
    {
        let id = platform.launch_benchmark(kernel_cfg)?;
        platform.synchronize();
        let _ = platform.collect_records(id)?; // warm-up data discarded
        warm_kernels += 1;
        if warm_kernels > 10_000 {
            break; // defensive bound against a stalled platform clock
        }
    }
    let id = platform.launch_benchmark(kernel_cfg)?;
    platform.synchronize();
    let records = platform.collect_records(id)?;

    // Pool all SM streams, dropping the first few iterations of each (they
    // may straddle a residual ramp after a cold start).
    let mut durations: Vec<f64> = Vec::new();
    for sm in &records {
        durations.extend(sm.iter().skip(8).map(|r| r.duration().as_nanos() as f64));
    }

    // Robust two-pass statistics: rare device-side disturbances (ECC scrubs,
    // context timeslices) produce isolated multi-x iterations that would
    // inflate the standard deviation — and with it the 2σ detection band —
    // by several times.
    let stats = latest_stats::robust_stats(&durations, 4.0, 2);
    Ok(FreqCharacterization {
        freq: state,
        iter_ns: stats.summary(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::platform::SimPlatform;
    use crate::spec::CampaignSpec;
    use latest_gpu_sim::freq::FreqMhz;

    fn quick_config(freqs: &[u32]) -> CampaignConfig {
        a100(freqs, 42)
    }

    fn a100(freqs: &[u32], seed: u64) -> CampaignConfig {
        CampaignSpec::builder("a100")
            .frequencies_mhz(freqs)
            .seed(seed)
            .build_unchecked()
            .resolve()
            .unwrap()
    }

    #[test]
    fn characterization_tracks_frequency() {
        let config = quick_config(&[705, 1410]);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let r = run_phase1(&mut platform, &config).unwrap();
        let slow = r.of(FreqMhz(705)).unwrap().iter_ns;
        let fast = r.of(FreqMhz(1410)).unwrap().iter_ns;
        // 100k cycles: ~141.8 us at 705 MHz, ~70.9 us at 1410 MHz.
        assert!(
            (slow.mean - 141_844.0).abs() < 1_500.0,
            "slow {}",
            slow.mean
        );
        assert!((fast.mean - 70_922.0).abs() < 1_000.0, "fast {}", fast.mean);
        assert!(slow.n > 1_000);
    }

    #[test]
    fn distant_pairs_are_valid() {
        let config = quick_config(&[705, 1095, 1410]);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let r = run_phase1(&mut platform, &config).unwrap();
        assert_eq!(r.valid_pairs.len(), 6);
        assert!(r.skipped_pairs.is_empty());
        assert!(r.is_valid(FreqMhz(705), FreqMhz(1410)));
    }

    #[test]
    fn indistinguishable_pairs_are_skipped() {
        // Make the workload noise huge so adjacent ladder steps overlap.
        let mut config = a100(&[1395, 1410], 7);
        config.workload.noise_rel_sigma = 0.5;
        config.phase1_iters = 40; // few samples, wide intervals
                                  // At 95 % confidence the validation CI has a 5 % type-I rate by
                                  // construction, so with *any* fixed seed this assertion is a coin
                                  // the seed either wins or loses. 99.9 % keeps the skip mechanism
                                  // under test while making the false-reject odds negligible.
        config.confidence = 0.999;
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let r = run_phase1(&mut platform, &config).unwrap();
        assert!(
            !r.skipped_pairs.is_empty(),
            "adjacent noisy pair should be indistinguishable"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        // A spec cannot describe these; a caller can still set them on a
        // resolved config's public fields.
        let mut config = quick_config(&[705, 1410]);
        config.frequencies = vec![FreqMhz(705)];
        let mut platform = SimPlatform::new(config.spec.clone(), 1).unwrap();
        assert!(matches!(
            run_phase1(&mut platform, &config),
            Err(CoreError::NotEnoughFrequencies { got: 1 })
        ));

        config.frequencies = vec![FreqMhz(705), FreqMhz(1000)]; // 1000 not on ladder
        let mut platform = SimPlatform::new(config.spec.clone(), 1).unwrap();
        assert!(matches!(
            run_phase1(&mut platform, &config),
            Err(CoreError::UnknownFrequency { .. })
        ));
    }
}
