//! The per-pair measurement controller (Sec. VI).
//!
//! Repeats phases 2–3 for one frequency pair until the relative standard
//! error of the collected switching latencies drops below the configured
//! threshold, with the paper's operational guards:
//!
//! * RSE is only evaluated every 25 passes and only after the minimum
//!   measurement count;
//! * throttle reasons are polled every 5 passes — a thermal event discards
//!   the newest 5 measurements and pauses 10 s for cool-down; a power event
//!   abandons the pair (the requested frequency cannot be held);
//! * a pass that produces no confirmed per-core latency is retried
//!   (Algorithm 2's GOTO line 1); if the evaluation looks *truncated* (no
//!   core ever saw the target regime) the capture window is grown tenfold,
//!   per Sec. V's "repeated with a ten-times longer workload".

use latest_gpu_sim::ClockDomain;
use latest_stats::{RunningStats, Summary};

use crate::config::{
    CampaignConfig, RSE_CHECK_EVERY, THERMAL_BACKOFF, THERMAL_DISCARD, THERMAL_DISCARD_LIMIT,
    THROTTLE_CHECK_EVERY,
};
use crate::error::CoreResult;
use crate::phase1::Phase1Result;
use crate::phase2::run_phase2;
use crate::phase3::evaluate_pass;
use crate::platform::{GroundTruth, Platform};
use crate::state::{FreqState, PairKind};

/// The collected measurements for one pair.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PairRun {
    /// Initial clock state.
    pub init: FreqState,
    /// Target clock state.
    pub target: FreqState,
    /// Accepted switching latencies (ms), in measurement order.
    pub latencies_ms: Vec<f64>,
    /// Ground-truth switching latencies (ms) for the same passes, when the
    /// platform offers the [`GroundTruth`]
    /// capability (simulator only; used for closed-loop validation). `NaN`
    /// entries mean the backend could not know the truth.
    pub ground_truth_ms: Vec<f64>,
    /// Total phase-2/3 retries over the whole run.
    pub retries: usize,
    /// Thermal backoff events encountered.
    pub thermal_events: usize,
    /// The RSE at stop time.
    pub final_rse: f64,
    /// The capture-window bound in effect at the end (ms).
    pub final_bound_ms: f64,
}

impl PairRun {
    /// Raw (unfiltered) descriptive summary of the latencies.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.latencies_ms)
    }

    /// Which clock domains this pair transitions (core / memory /
    /// simultaneous).
    pub fn kind(&self) -> PairKind {
        self.init.kind_to(&self.target).unwrap_or(PairKind::Core)
    }
}

/// How a pair's measurement loop ended.
#[derive(Clone, Debug)]
pub enum PairOutcome {
    /// The loop completed (RSE target or measurement cap).
    Completed(PairRun),
    /// Power throttling made the pair unmeasurable; the partial data is
    /// discarded as the paper prescribes.
    PowerLimited {
        /// Measurements taken before the event.
        measurements_before: usize,
    },
    /// Phase 1 marked the pair statistically indistinguishable.
    SkippedIndistinguishable,
    /// Every phase-2/3 attempt of one measurement failed evaluation
    /// (Algorithm 2's GOTO loop never confirmed the target regime). The
    /// pair is reported unmeasured; the campaign continues.
    RetriesExhausted {
        /// Measurements accepted before the failing one.
        measurements_before: usize,
        /// Attempts spent on the failing measurement.
        attempts: usize,
    },
    /// The session was cancelled before this pair was scheduled. Resuming
    /// from a checkpoint re-runs exactly these pairs.
    Cancelled,
}

impl PairOutcome {
    /// The run, if completed.
    pub fn run(&self) -> Option<&PairRun> {
        match self {
            PairOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the session was cancelled before measuring this pair.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, PairOutcome::Cancelled)
    }
}

// The vendored serde derive handles unit-variant enums only, so the
// data-carrying outcome is (de)serialised by hand as a tagged map — the
// same externally-visible shape upstream serde's adjacently-tagged enums
// would produce.
impl serde::Serialize for PairOutcome {
    fn to_value(&self) -> serde::Value {
        let tag = |s: &str| ("status".to_string(), serde::Value::Str(s.to_string()));
        match self {
            PairOutcome::Completed(run) => {
                serde::Value::Map(vec![tag("completed"), ("run".to_string(), run.to_value())])
            }
            PairOutcome::PowerLimited {
                measurements_before,
            } => serde::Value::Map(vec![
                tag("power_limited"),
                (
                    "measurements_before".to_string(),
                    measurements_before.to_value(),
                ),
            ]),
            PairOutcome::SkippedIndistinguishable => {
                serde::Value::Map(vec![tag("skipped_indistinguishable")])
            }
            PairOutcome::RetriesExhausted {
                measurements_before,
                attempts,
            } => serde::Value::Map(vec![
                tag("retries_exhausted"),
                (
                    "measurements_before".to_string(),
                    measurements_before.to_value(),
                ),
                ("attempts".to_string(), attempts.to_value()),
            ]),
            PairOutcome::Cancelled => serde::Value::Map(vec![tag("cancelled")]),
        }
    }
}

impl serde::Deserialize for PairOutcome {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for PairOutcome, got {value:?}"))
        })?;
        let status = serde::field(entries, "status", "PairOutcome")?
            .as_str()
            .ok_or_else(|| serde::Error::custom("PairOutcome status must be a string"))?;
        match status {
            "completed" => Ok(PairOutcome::Completed(serde::Deserialize::from_value(
                serde::field(entries, "run", "PairOutcome")?,
            )?)),
            "power_limited" => Ok(PairOutcome::PowerLimited {
                measurements_before: serde::Deserialize::from_value(serde::field(
                    entries,
                    "measurements_before",
                    "PairOutcome",
                )?)?,
            }),
            "skipped_indistinguishable" => Ok(PairOutcome::SkippedIndistinguishable),
            "retries_exhausted" => Ok(PairOutcome::RetriesExhausted {
                measurements_before: serde::Deserialize::from_value(serde::field(
                    entries,
                    "measurements_before",
                    "PairOutcome",
                )?)?,
                attempts: serde::Deserialize::from_value(serde::field(
                    entries,
                    "attempts",
                    "PairOutcome",
                )?)?,
            }),
            "cancelled" => Ok(PairOutcome::Cancelled),
            other => Err(serde::Error::custom(format!(
                "unknown PairOutcome status `{other}`"
            ))),
        }
    }
}

/// Ground-truth switching latency (ms) for the pair kind just driven:
/// the core ledger for core-only pairs, the memory ledger for memory-only
/// pairs, and for simultaneous pairs the span from the *first* driver call
/// (core — phase 2 issues core before memory) to the *last* domain to
/// settle.
fn ground_truth_ms_for(gt: &dyn GroundTruth, init: FreqState, target: FreqState) -> Option<f64> {
    match init.kind_to(&target) {
        Some(PairKind::Core) | None => gt
            .last_transition(ClockDomain::Core)
            .map(|g| g.switching_latency().as_millis_f64()),
        Some(PairKind::Memory) => gt
            .last_transition(ClockDomain::Memory)
            .map(|g| g.switching_latency().as_millis_f64()),
        Some(PairKind::Simultaneous) => {
            let core = gt.last_transition(ClockDomain::Core)?;
            let mem = gt.last_transition(ClockDomain::Memory)?;
            let settled = core.settled.max(mem.settled);
            Some(settled.saturating_since(core.host_call).as_millis_f64())
        }
    }
}

/// Measure one pair to completion.
///
/// `initial_bound_ms` is the probe phase's upper-bound estimate for the
/// switching latency (used to size capture windows).
pub fn run_pair<P: Platform>(
    platform: &mut P,
    config: &CampaignConfig,
    phase1: &Phase1Result,
    init: impl Into<FreqState>,
    target: impl Into<FreqState>,
    initial_bound_ms: f64,
) -> CoreResult<PairOutcome> {
    let init: FreqState = init.into();
    let target: FreqState = target.into();
    if !phase1.is_valid(init, target) {
        return Ok(PairOutcome::SkippedIndistinguishable);
    }
    let target_stats = phase1
        .of(target)
        .expect("phase 1 characterised every configured frequency")
        .iter_ns;
    let init_stats = phase1
        .of(init)
        .expect("phase 1 characterised every configured frequency")
        .iter_ns;

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut ground_truth_ms: Vec<f64> = Vec::new();
    let mut retries = 0usize;
    let mut thermal_events = 0usize;
    let mut bound_ms = initial_bound_ms.max(1.0);

    let mut consecutive_thermal_discards = 0usize;

    while latencies_ms.len() < config.max_measurements {
        // One measurement, with the GOTO-line-1 retry loop.
        let mut measured: Option<(f64, f64)> = None;
        for _attempt in 0..config.max_retries {
            let capture = run_phase2(platform, config, init, target, &init_stats, bound_ms)?;
            let eval = evaluate_pass(&capture, &target_stats, config);
            match eval.latency_ns {
                Some(ns) => {
                    // Closed-loop bookkeeping is gated on the capability:
                    // only a backend that knows the truth can report it.
                    let gt = platform
                        .as_ground_truth()
                        .and_then(|g| ground_truth_ms_for(g, init, target))
                        .unwrap_or(f64::NAN);
                    measured = Some((ns as f64 / 1e6, gt));
                    break;
                }
                None => {
                    retries += 1;
                    if eval.looks_truncated() {
                        // The window likely ended before the transition did.
                        bound_ms *= 10.0;
                    }
                }
            }
        }
        let Some((ms, gt)) = measured else {
            return Ok(PairOutcome::RetriesExhausted {
                measurements_before: latencies_ms.len(),
                attempts: config.max_retries,
            });
        };
        latencies_ms.push(ms);
        ground_truth_ms.push(gt);
        let n = latencies_ms.len();

        // Throttle poll every 5 passes.
        if n.is_multiple_of(THROTTLE_CHECK_EVERY) {
            let reasons = platform.throttle_reasons();
            if reasons.sw_power_cap {
                return Ok(PairOutcome::PowerLimited {
                    measurements_before: n,
                });
            }
            if reasons.hw_thermal_slowdown {
                thermal_events += 1;
                // Discard the (possibly contaminated) newest measurements —
                // but only while doing so can still make progress. A device
                // whose busy steady-state temperature exceeds the throttle
                // threshold re-trips this event on *every* poll window; an
                // unconditional discard would then remove exactly the
                // window's measurements each time and livelock the pair.
                // Past the limit the data is kept: phase-3 evaluation has
                // already vetted each pass against the target-frequency
                // regime, which is the actual quality gate.
                if consecutive_thermal_discards < THERMAL_DISCARD_LIMIT {
                    consecutive_thermal_discards += 1;
                    let drop = THERMAL_DISCARD.min(latencies_ms.len());
                    latencies_ms.truncate(latencies_ms.len() - drop);
                    ground_truth_ms.truncate(ground_truth_ms.len() - drop);
                    platform.sleep(THERMAL_BACKOFF);
                    continue;
                }
                platform.sleep(THERMAL_BACKOFF);
            } else {
                consecutive_thermal_discards = 0;
            }
        }

        // RSE check every 25 passes, once past the minimum.
        if n >= config.min_measurements && n.is_multiple_of(RSE_CHECK_EVERY) {
            let s = RunningStats::from_slice(&latencies_ms).summary();
            if s.rse() < config.rse_threshold {
                break;
            }
        }
    }

    let final_rse = RunningStats::from_slice(&latencies_ms).summary().rse();
    Ok(PairOutcome::Completed(PairRun {
        init,
        target,
        latencies_ms,
        ground_truth_ms,
        retries,
        thermal_events,
        final_rse,
        final_bound_ms: bound_ms,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::run_phase1;
    use crate::platform::SimPlatform;
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::FreqMhz;

    fn fixed_config(ms: u64, min: usize, max: usize) -> CampaignConfig {
        let mut device = fixed(devices::a100_sxm4(), ms);
        // A genuinely stable device: the stock driver profile injects rare
        // multi-ms stalls (the paper's outlier sources), which are real
        // latency and would legitimately keep the RSE above threshold.
        device.driver.stall_prob = 0.0;
        resolve_on(
            device,
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .measurements(min, max)
                .seed(31),
        )
    }

    fn run(config: &CampaignConfig, init: u32, target: u32) -> PairOutcome {
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, config).unwrap();
        run_pair(
            &mut platform,
            config,
            &p1,
            FreqMhz(init),
            FreqMhz(target),
            config.initial_latency_guess_ms,
        )
        .unwrap()
    }

    #[test]
    fn rse_stopping_rule_converges_early_on_stable_device() {
        // Fixed latency -> tiny RSE -> should stop at the first RSE check
        // (25 measurements), not at the 150 cap.
        let config = fixed_config(10, 25, 150);
        let out = run(&config, 1410, 705);
        let r = out.run().expect("completed");
        assert_eq!(r.latencies_ms.len(), 25);
        assert!(r.final_rse < 0.05, "rse {}", r.final_rse);
        // All measurements recover the 10 ms ground truth closely.
        for (&m, &g) in r.latencies_ms.iter().zip(&r.ground_truth_ms) {
            assert!((m - g).abs() < 0.5, "measured {m} vs gt {g}");
        }
    }

    #[test]
    fn max_measurements_caps_noisy_pairs() {
        // High RSE threshold impossible to reach quickly -> cap applies.
        let mut config = fixed_config(10, 5, 30);
        config.rse_threshold = 1e-9;
        let out = run(&config, 705, 1410);
        let r = out.run().expect("completed");
        assert_eq!(r.latencies_ms.len(), 30);
    }

    #[test]
    fn window_grows_tenfold_when_latency_exceeds_probe_bound() {
        // True latency 120 ms, probe bound claims 2 ms: the first pass is
        // truncated, the controller must grow the window and still succeed.
        let mut config = fixed_config(120, 3, 5);
        config.initial_latency_guess_ms = 2.0;
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        let out = run_pair(
            &mut platform,
            &config,
            &p1,
            FreqMhz(1410),
            FreqMhz(705),
            2.0,
        )
        .unwrap();
        let r = out.run().expect("completed");
        assert!(r.retries >= 1, "no retry recorded");
        assert!(r.final_bound_ms >= 20.0, "bound {}", r.final_bound_ms);
        for &m in &r.latencies_ms {
            assert!((m - 120.0).abs() < 2.0, "measured {m}");
        }
    }

    #[test]
    fn power_limited_pair_is_skipped() {
        let mut config = fixed_config(5, 5, 50);
        // TDP that only sustains ~900 MHz: locking 1410 trips the power cap.
        config.spec.thermal.tdp_w = config.spec.power.busy_power(900.0);
        let out = run(&config, 705, 1410);
        assert!(matches!(out, PairOutcome::PowerLimited { .. }));
    }

    #[test]
    fn invalid_pair_is_skipped_without_measuring() {
        let config = fixed_config(5, 5, 50);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        // Forge an empty valid list.
        let p1_forged = Phase1Result {
            freqs: p1.freqs.clone(),
            valid_pairs: vec![],
            skipped_pairs: p1.valid_pairs.clone(),
        };
        let out = run_pair(
            &mut platform,
            &config,
            &p1_forged,
            FreqMhz(705),
            FreqMhz(1410),
            10.0,
        )
        .unwrap();
        assert!(matches!(out, PairOutcome::SkippedIndistinguishable));
    }

    #[test]
    fn thermal_event_discards_and_backs_off() {
        // Aggressive thermals: the device heats past the throttle threshold
        // during measurement, so the 5-pass poll must fire at least once.
        let mut config = fixed_config(8, 10, 20);
        config.spec.thermal.tau_s = 0.5;
        config.spec.thermal.r_th = 0.16;
        config.spec.thermal.throttle_temp_c = 66.0; // busy SS at 1410 is ~80C
        config.spec.thermal.release_temp_c = 60.0;
        config.spec.thermal.throttle_cap_mhz = 1410.0; // cap high: reasons
                                                       // fire, records stay clean
        let out = run(&config, 705, 1410);
        let r = out.run().expect("completed");
        assert!(r.thermal_events >= 1, "no thermal event observed");
    }
}
