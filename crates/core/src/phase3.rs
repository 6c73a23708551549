//! Phase 3 — per-core evaluation (Algorithm 2, lines 9–24).
//!
//! For each SM record stream:
//!
//! 1. skip iterations that started before `t_s`,
//! 2. find the first iteration whose execution time falls inside the
//!    two-standard-deviation band of the *target* frequency's phase-1
//!    characterisation, then walk back over immediately preceding
//!    iterations that are still target-regime evidence (noisy at-target
//!    draws, isolated disturbance spikes) — the entry iteration's start
//!    read is the candidate `t_e`,
//! 3. confirm: the mean of the iterations from the candidate onward must be
//!    statistically indistinguishable from the phase-1 target mean (the
//!    difference is inside the relative tolerance, or the difference
//!    interval contains zero). The tolerance test decides first; the
//!    interval, which inverts Student's t, is built only for the few cores
//!    it leaves open. This rejects lucky hits inside the adaptation
//!    ramp, where "execution time ... might correspond to any frequency
//!    value, including the target frequency" (Sec. IV);
//! 4. the per-core switching latency is `t_e − t_s`; the pair's value for
//!    this pass is the **maximum across cores** (the whole device must have
//!    settled).
//!
//! If no core yields a confirmed latency the pass is discarded and phases
//! 2–3 repeat (the `GOTO line 1` of Algorithm 2), with the capture window
//! enlarged if the transition may simply not have finished inside it.

use latest_gpu_sim::sm::IterRecord;
use latest_stats::{diff_confidence_interval, robust_stats, SigmaBand, Summary};

use crate::config::{CampaignConfig, CONFIRM_ITERATIONS, MEAN_TOLERANCE_REL, SIGMA_K};
use crate::phase2::SwitchCapture;

/// Why a single SM stream produced no confirmed latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreRejection {
    /// No iteration after `t_s` entered the target band: the transition
    /// (probably) did not complete inside the capture window.
    NoBandEntry,
    /// A band entry existed but the post-entry mean failed confirmation:
    /// the device was still adapting.
    ConfirmationFailed,
    /// Too few iterations after the candidate to run the confirmation test.
    WindowTooShort,
}

/// Per-SM evaluation detail.
#[derive(Clone, Copy, Debug)]
pub struct CoreEvaluation {
    /// SM index within the record set.
    pub sm: usize,
    /// The confirmed latency in nanoseconds, or the rejection reason.
    pub outcome: Result<u64, CoreRejection>,
}

/// Result of evaluating one capture.
#[derive(Clone, Debug)]
pub struct PassEvaluation {
    /// Per-core outcomes.
    pub cores: Vec<CoreEvaluation>,
    /// The pass-level switching latency: max over confirmed cores (ns).
    pub latency_ns: Option<u64>,
}

impl PassEvaluation {
    /// Number of cores that produced a confirmed latency.
    pub fn confirmed_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Whether every core failed only because the window was too short /
    /// never entered the band — the signal to grow the capture window on
    /// retry rather than just re-rolling.
    pub fn looks_truncated(&self) -> bool {
        self.latency_ns.is_none()
            && self.cores.iter().all(|c| {
                matches!(
                    c.outcome,
                    Err(CoreRejection::NoBandEntry | CoreRejection::WindowTooShort)
                )
            })
    }
}

/// Evaluate one capture against the target frequency's characterisation.
pub fn evaluate_pass(
    capture: &SwitchCapture,
    target_iter_ns: &Summary,
    config: &CampaignConfig,
) -> PassEvaluation {
    let band = SigmaBand::with_k(target_iter_ns, SIGMA_K);
    let cores: Vec<CoreEvaluation> = capture
        .records
        .iter()
        .enumerate()
        .map(|(sm, records)| CoreEvaluation {
            sm,
            outcome: evaluate_core(records, capture, &band, target_iter_ns, config),
        })
        .collect();
    let latency_ns = cores.iter().filter_map(|c| c.outcome.ok()).max();
    PassEvaluation { cores, latency_ns }
}

/// Algorithm 2's inner loop for one SM.
fn evaluate_core(
    records: &[IterRecord],
    capture: &SwitchCapture,
    band: &SigmaBand,
    target_iter_ns: &Summary,
    config: &CampaignConfig,
) -> Result<u64, CoreRejection> {
    // Line 12: only iterations starting at/after t_s are relevant.
    let first_after = records.partition_point(|r| r.start < capture.ts_device);
    let relevant = &records[first_after..];
    if relevant.is_empty() {
        return Err(CoreRejection::WindowTooShort);
    }

    // Line 16: first iteration inside the 2σ band of the target mean.
    let Some(hit) = relevant
        .iter()
        .position(|r| band.contains(r.duration().as_nanos() as f64))
    else {
        return Err(CoreRejection::NoBandEntry);
    };

    // The first in-band iteration can lag the true regime entry: an
    // iteration already at the target can fall outside the 2σ band (≈ 4.6 %
    // of honest draws), and a disturbance spike (a rare multi-x iteration)
    // right at the boundary pushes the first band hit later by its whole
    // duration. Both would inflate the reported latency by whole
    // iterations. Walk back over immediately preceding iterations that are
    // still evidence of the *target* regime:
    //   * durations inside a 1.5×-widened band (noisy at-target draws), or
    //   * durations slower than `spike_floor` — slower than both regimes,
    //     so they cannot be initial-frequency or adaptation-ramp
    //     iterations, only disturbances.
    // The transition straddler and ramp iterations have durations between
    // the two regimes and stop the walk. The walk is capped: spikes are
    // isolated events, and an unbounded walk must not crawl into the
    // initial regime. Residual bias: a spiked iteration that *straddles*
    // the boundary is walked over too, undershooting by up to one spike
    // length (spike_scale x one iteration) — the same order as the
    // detection granularity already accepted, and bounded by the cap.
    let init_est = {
        let pre = &records[..first_after];
        let tail = &pre[pre.len().saturating_sub(32)..];
        if tail.is_empty() {
            target_iter_ns.mean
        } else {
            tail.iter()
                .map(|r| r.duration().as_nanos() as f64)
                .sum::<f64>()
                / tail.len() as f64
        }
    };
    let wide = SigmaBand::with_k(target_iter_ns, SIGMA_K * 1.5);
    let spike_floor = 1.25 * init_est.max(target_iter_ns.mean);
    let mut entry = hit;
    while entry > 0 && hit - entry < 8 {
        let d = relevant[entry - 1].duration().as_nanos() as f64;
        if wide.contains(d) || d > spike_floor {
            entry -= 1;
        } else {
            break;
        }
    }

    // `t_e`: the entry iteration's start read — the end read of the last
    // iteration that still carried pre-target content. Using the entry's
    // *end* read would systematically overshoot by one full iteration (and
    // by the whole spike length when a spike sits on the boundary).
    let te = relevant[entry].start;

    // Lines 19-20: confirm with the remaining iterations. The window is
    // estimated through the same 4σ spike trimmer as phase 1: one untrimmed
    // disturbance spike (a rare multi-x iteration) inflates the window's
    // standard deviation enough to widen the Welch interval over zero and
    // launder a false early detection into an acceptance.
    let confirm_window = &relevant[entry..];
    if confirm_window.len() < 8 {
        return Err(CoreRejection::WindowTooShort);
    }
    let confirm_n = (CONFIRM_ITERATIONS as usize).min(confirm_window.len());
    let durations: Vec<f64> = confirm_window[..confirm_n]
        .iter()
        .map(|r| r.duration().as_nanos() as f64)
        .collect();
    let confirm = robust_stats(&durations, 4.0, 2).summary();

    if !confirms(&confirm, target_iter_ns, config.confidence) {
        return Err(CoreRejection::ConfirmationFailed);
    }

    // t_e - t_s on the device timeline.
    Ok(te.saturating_since(capture.ts_device).as_nanos())
}

/// Lines 19-20's test: the confirmation window's mean cannot be told apart
/// from the phase-1 target mean. Either the means differ by less than
/// [`MEAN_TOLERANCE_REL`] of the target mean, or their Welch difference
/// interval contains zero; both need two observations a side. The
/// tolerance test is one subtraction and settles almost every core, so it
/// decides first: the interval inverts Student's t (a bisection of about
/// 45 CDF evaluations) and is built only when the tolerance has not
/// already accepted.
fn confirms(confirm: &Summary, target: &Summary, confidence: f64) -> bool {
    let within_tolerance = (confirm.mean - target.mean).abs() < MEAN_TOLERANCE_REL * target.mean;
    (within_tolerance && confirm.n >= 2 && target.n >= 2)
        || diff_confidence_interval(confirm, target, confidence)
            .is_some_and(|ci| ci.contains_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::phase1::run_phase1;
    use crate::phase2::run_phase2;
    use crate::platform::{GroundTruth, SimPlatform};
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::{ClockDomain, FreqMhz};
    use latest_sim_clock::SimTime;

    fn fixed_config(ms: u64) -> CampaignConfig {
        resolve_on(
            fixed(devices::a100_sxm4(), ms),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .seed(23),
        )
    }

    /// End-to-end phases 1→3 on a fixed-latency device: the measured value
    /// must recover the ground truth within granularity bounds.
    #[test]
    fn recovers_fixed_ground_truth() {
        let config = fixed_config(10);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        let init_stats = p1.of(FreqMhz(1410)).unwrap().iter_ns;
        let cap = run_phase2(
            &mut platform,
            &config,
            FreqMhz(1410),
            FreqMhz(705),
            &init_stats,
            15.0,
        )
        .unwrap();
        let target_stats = p1.of(FreqMhz(705)).unwrap().iter_ns;
        let eval = evaluate_pass(&cap, &target_stats, &config);
        let measured_ms = eval.latency_ns.expect("pass must evaluate") as f64 / 1e6;

        let gt = platform
            .last_transition(ClockDomain::Core)
            .unwrap()
            .switching_latency()
            .as_millis_f64();
        // Detection granularity: one iteration at the slow clock (~142 us)
        // plus sync uncertainty (~10 us) plus driver travel.
        assert!(
            (measured_ms - gt).abs() < 0.5,
            "measured {measured_ms:.3} ms vs ground truth {gt:.3} ms"
        );
        assert!(eval.confirmed_cores() >= 1);
    }

    #[test]
    fn max_over_cores_is_taken() {
        let config = fixed_config(6);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        let init_stats = p1.of(FreqMhz(705)).unwrap().iter_ns;
        let cap = run_phase2(
            &mut platform,
            &config,
            FreqMhz(705),
            FreqMhz(1410),
            &init_stats,
            10.0,
        )
        .unwrap();
        let target_stats = p1.of(FreqMhz(1410)).unwrap().iter_ns;
        let eval = evaluate_pass(&cap, &target_stats, &config);
        let per_core: Vec<u64> = eval.cores.iter().filter_map(|c| c.outcome.ok()).collect();
        assert!(!per_core.is_empty());
        assert_eq!(eval.latency_ns.unwrap(), *per_core.iter().max().unwrap());
    }

    #[test]
    fn truncated_capture_reports_no_band_entry() {
        // Latency far beyond the capture window: no core can see the target
        // regime, and the evaluation must say "truncated", not invent data.
        let config = fixed_config(500);
        let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
        let p1 = run_phase1(&mut platform, &config).unwrap();
        // Bound lied: claim 2 ms so the kernel is far too short.
        let init_stats = p1.of(FreqMhz(1410)).unwrap().iter_ns;
        let cap = run_phase2(
            &mut platform,
            &config,
            FreqMhz(1410),
            FreqMhz(705),
            &init_stats,
            2.0,
        )
        .unwrap();
        let target_stats = p1.of(FreqMhz(705)).unwrap().iter_ns;
        let eval = evaluate_pass(&cap, &target_stats, &config);
        assert!(eval.latency_ns.is_none());
        assert!(eval.looks_truncated());
    }

    #[test]
    fn synthetic_adaptation_ramp_is_rejected_by_confirmation() {
        // Hand-build a capture where iterations sit inside the band briefly
        // (fake target-like durations) and then leave it: confirmation must
        // reject the stream rather than report a bogus early latency.
        let config = fixed_config(10);
        let target = Summary {
            n: 10_000,
            mean: 100_000.0,
            stdev: 1_000.0,
            stderr: 10.0,
            min: 95_000.0,
            max: 105_000.0,
        };
        let mut records = Vec::new();
        let mut t = 1_000_000u64;
        // 5 iterations at init speed (50 us), 3 "lucky" in-band (100 us),
        // then 40 at a wrong speed (130 us) — an adaptation artefact.
        for dur in std::iter::repeat_n(50_000u64, 5)
            .chain(std::iter::repeat_n(100_000u64, 3))
            .chain(std::iter::repeat_n(130_000u64, 40))
        {
            records.push(IterRecord {
                start: SimTime::from_nanos(t),
                end: SimTime::from_nanos(t + dur),
            });
            t += dur;
        }
        let cap = SwitchCapture {
            init: FreqMhz(1410).into(),
            target: FreqMhz(705).into(),
            ts_device: SimTime::from_nanos(1_000_000),
            records: vec![records],
            sync: latest_clock_sync::SyncResult {
                offset_ns: 0,
                uncertainty_ns: 1_000,
                rounds: 1,
                best_round_trip_ns: 1_000,
            },
            kernel_iters: 48,
        };
        let eval = evaluate_pass(&cap, &target, &config);
        assert_eq!(eval.latency_ns, None);
        assert_eq!(
            eval.cores[0].outcome,
            Err(CoreRejection::ConfirmationFailed)
        );
    }

    /// The reference for `confirms`: the same decision with the interval
    /// built first, on every input.
    fn confirms_interval_first(confirm: &Summary, target: &Summary, confidence: f64) -> bool {
        match diff_confidence_interval(confirm, target, confidence) {
            Some(ci) => {
                ci.contains_zero()
                    || (confirm.mean - target.mean).abs() < MEAN_TOLERANCE_REL * target.mean
            }
            None => false,
        }
    }

    fn summary(n: u64, mean: f64, stdev: f64) -> Summary {
        Summary {
            n,
            mean,
            stdev,
            stderr: stdev / (n.max(1) as f64).sqrt(),
            min: mean,
            max: mean,
        }
    }

    /// Confirm-window means around `target`: equal, inside and outside the
    /// tolerance, three ULPs either side of both tolerance edges, and the
    /// non-finite values.
    fn confirm_means(target: f64) -> Vec<f64> {
        let tol = MEAN_TOLERANCE_REL * target;
        let mut means = vec![
            target,
            target + 0.5 * tol,
            target - 2.0 * tol,
            target * 1.01,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for edge in [target + tol, target - tol] {
            let (mut up, mut down) = (edge, edge);
            means.push(edge);
            for _ in 0..3 {
                up = up.next_up();
                down = down.next_down();
                means.extend([up, down]);
            }
        }
        means
    }

    #[test]
    fn tolerance_first_confirmation_matches_interval_first() {
        let ns = [0u64, 1, 2, 8, 300];
        let stdevs = [0.0, 40.0, 4_000.0];
        let targets = [
            100_000.0,
            1.0,
            0.0,
            -5.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let (mut cases, mut accepted, mut tolerance_only) = (0usize, 0usize, 0usize);
        for &target_mean in &targets {
            for confirm_mean in confirm_means(target_mean) {
                for (&cn, &tn) in ns.iter().flat_map(|a| ns.iter().map(move |b| (a, b))) {
                    for (&cs, &ts) in stdevs
                        .iter()
                        .flat_map(|a| stdevs.iter().map(move |b| (a, b)))
                    {
                        let confirm = summary(cn, confirm_mean, cs);
                        let target = summary(tn, target_mean, ts);
                        for confidence in [0.95, 0.99] {
                            let want = confirms_interval_first(&confirm, &target, confidence);
                            assert_eq!(
                                confirms(&confirm, &target, confidence),
                                want,
                                "confirm {confirm:?} target {target:?} confidence {confidence}"
                            );
                            cases += 1;
                            accepted += want as usize;
                            tolerance_only += (want
                                && !diff_confidence_interval(&confirm, &target, confidence)
                                    .is_some_and(|ci| ci.contains_zero()))
                                as usize;
                        }
                    }
                }
            }
        }
        // Both answers occur, and the tolerance alone accepts some cases
        // the interval rejects: the shortcut path is exercised, not only
        // the fallback.
        assert!(accepted > 0 && accepted < cases, "{accepted} of {cases}");
        assert!(tolerance_only > 0);
    }

    #[test]
    fn empty_post_ts_window_is_too_short() {
        let config = fixed_config(10);
        let target = Summary {
            n: 100,
            mean: 100_000.0,
            stdev: 1_000.0,
            stderr: 100.0,
            min: 0.0,
            max: 0.0,
        };
        let records = vec![IterRecord {
            start: SimTime::from_nanos(0),
            end: SimTime::from_nanos(100_000),
        }];
        let cap = SwitchCapture {
            init: FreqMhz(1410).into(),
            target: FreqMhz(705).into(),
            ts_device: SimTime::from_nanos(500_000), // after every record
            records: vec![records],
            sync: latest_clock_sync::SyncResult {
                offset_ns: 0,
                uncertainty_ns: 1_000,
                rounds: 1,
                best_round_trip_ns: 1_000,
            },
            kernel_iters: 1,
        };
        let eval = evaluate_pass(&cap, &target, &config);
        assert_eq!(eval.cores[0].outcome, Err(CoreRejection::WindowTooShort));
        assert!(eval.looks_truncated());
    }
}
