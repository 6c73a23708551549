//! The switching-latency upper-bound probe (Sec. V, "Switching latency"
//! bullet).
//!
//! Before measuring every pair, the methodology estimates how long capture
//! windows must be: measure a handful of pairs spanning "small, medium, and
//! high-frequency levels" once each, and size the real benchmark at tenfold
//! the longest observed latency. If even the probe cannot capture a
//! transition, its own window grows tenfold and retries.

use crate::config::CampaignConfig;
use crate::error::CoreResult;
use crate::phase1::Phase1Result;
use crate::phase2::run_phase2;
use crate::phase3::evaluate_pass;
use crate::platform::Platform;
use crate::state::FreqState;

/// Result of the probe phase.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ProbeResult {
    /// Latencies observed per probed state pair (ms).
    pub samples: Vec<(FreqState, FreqState, f64)>,
    /// The largest observed latency (ms) — the basis for window sizing.
    pub max_latency_ms: f64,
}

/// The representative clock states probed: low, median and high entries of
/// the campaign's state list (for a core-only campaign, exactly the low /
/// median / high configured frequencies).
pub fn probe_states(config: &CampaignConfig) -> Vec<FreqState> {
    let mut sorted = config.states();
    sorted.sort();
    sorted.dedup();
    match sorted.len() {
        0..=2 => sorted,
        n => vec![sorted[0], sorted[n / 2], sorted[n - 1]],
    }
}

/// Run the probe on `platform`. Probes each ordered pair of the
/// representative frequencies once.
pub fn estimate_upper_bound<P: Platform>(
    platform: &mut P,
    config: &CampaignConfig,
    phase1: &Phase1Result,
) -> CoreResult<ProbeResult> {
    let states = probe_states(config);
    let mut samples = Vec::new();
    let mut max_latency_ms: f64 = 0.0;

    for &init in &states {
        for &target in &states {
            if init == target || !phase1.is_valid(init, target) {
                continue;
            }
            let target_stats = phase1.of(target).expect("characterised").iter_ns;
            let init_stats = phase1.of(init).expect("characterised").iter_ns;
            let mut bound = config.initial_latency_guess_ms;
            // Up to three window growths; a pair that still cannot be
            // captured is reported via the max of others.
            for _ in 0..3 {
                let capture = run_phase2(platform, config, init, target, &init_stats, bound)?;
                let eval = evaluate_pass(&capture, &target_stats, config);
                match eval.latency_ns {
                    Some(ns) => {
                        let ms = ns as f64 / 1e6;
                        samples.push((init, target, ms));
                        max_latency_ms = max_latency_ms.max(ms);
                        break;
                    }
                    None if eval.looks_truncated() => bound *= 10.0,
                    None => {}
                }
            }
        }
    }

    // Nothing captured at all: fall back to the configured guess so the
    // campaign still sizes sane windows.
    if max_latency_ms == 0.0 {
        max_latency_ms = config.initial_latency_guess_ms;
    }
    Ok(ProbeResult {
        samples,
        max_latency_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::run_phase1;
    use crate::platform::SimPlatform;
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use latest_gpu_sim::devices;

    #[test]
    fn representative_states_are_low_mid_high() {
        use latest_gpu_sim::freq::FreqMhz;
        let a100 = |mhz: &[u32]| CampaignSpec::builder("a100").frequencies_mhz(mhz);
        let config = a100(&[210, 405, 705, 1095, 1410])
            .build_unchecked()
            .resolve()
            .unwrap();
        let f = probe_states(&config);
        assert_eq!(
            f,
            vec![
                FreqState::core_only(FreqMhz(210)),
                FreqState::core_only(FreqMhz(705)),
                FreqState::core_only(FreqMhz(1410)),
            ]
        );

        let two = a100(&[705, 1410]).build_unchecked().resolve().unwrap();
        assert_eq!(probe_states(&two).len(), 2);

        // A 2-D campaign's probe spans the state plane's extremes.
        let plane = a100(&[705, 1410])
            .mem_frequencies_mhz(&[810, 1215])
            .build_unchecked()
            .resolve()
            .unwrap();
        let s = probe_states(&plane);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], FreqState::with_mem(FreqMhz(705), FreqMhz(810)));
        assert_eq!(s[2], FreqState::with_mem(FreqMhz(1410), FreqMhz(1215)));
    }

    #[test]
    fn probe_finds_the_latency_scale() {
        let config = resolve_on(
            fixed(devices::a100_sxm4(), 18),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[210, 705, 1410])
                .seed(5),
        );
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        let probe = estimate_upper_bound(&mut platform, &config, &p1).unwrap();
        assert!(!probe.samples.is_empty());
        assert!(
            (probe.max_latency_ms - 18.0).abs() < 1.5,
            "probe max {} ms",
            probe.max_latency_ms
        );
    }

    #[test]
    fn probe_grows_window_for_slow_devices() {
        let mut config = resolve_on(
            fixed(devices::a100_sxm4(), 400),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .seed(6),
        );
        // Initial guess 50 ms: window 500 ms covers 400 ms, so this works
        // even on the first try; shrink the guess to force growth.
        config.initial_latency_guess_ms = 3.0;
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        let probe = estimate_upper_bound(&mut platform, &config, &p1).unwrap();
        assert!(
            (probe.max_latency_ms - 400.0).abs() < 10.0,
            "probe max {} ms",
            probe.max_latency_ms
        );
    }
}
