//! The streaming campaign engine: pair-granular scheduling, typed progress
//! events, cooperative cancellation and checkpoint/resume.
//!
//! [`CampaignSession`] is the one campaign runner. It
//!
//! * schedules work at **pair granularity** — phase 1 and the probe run
//!   once, then every ordered pair is an independent work item on its own
//!   freshly seeded platform, so any order gives bitwise-identical
//!   results. [`CampaignSession::run`] measures the pairs one after
//!   another on the calling thread, in canonical order, because a GPU's
//!   clock is device-wide; the queue's worker pool runs each
//!   [`PairTask`] of [`CampaignSession::pending_pairs`] as its own task
//!   through [`CampaignSession::measure`]. Both settle pairs into
//!   canonical-order slots with [`settle`] and build the result with
//!   [`CampaignSession::assemble`];
//! * emits **typed progress events** ([`CampaignEvent`]) through any number
//!   of observer hooks or a plain [`std::sync::mpsc`] channel, so UIs and
//!   loggers watch the campaign in real time;
//! * honours a **cooperative [`CancelToken`]**: cancellation is checked
//!   before each pair, unmeasured pairs are recorded as
//!   [`PairOutcome::Cancelled`], and the partial [`CampaignResult`] is a
//!   valid checkpoint;
//! * **resumes** from such a checkpoint: completed pairs are restored
//!   verbatim, only the missing ones run, and — because every pair's
//!   platform is seeded from `(campaign seed, pair)` — the resumed result
//!   is bitwise identical to an uninterrupted run.
//!
//! The engine is generic over [`PlatformFactory`], so the same scheduling,
//! eventing and checkpointing applies to any backend implementing
//! [`Platform`](crate::platform::Platform).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use latest_cluster::AdaptiveConfig;

use crate::analysis::analyze_pair;
use crate::campaign::{CampaignResult, PairMeasurement};
use crate::config::CampaignConfig;
use crate::controller::{run_pair, PairOutcome};
use crate::error::{CoreError, CoreResult};
use crate::phase1::{run_phase1, Phase1Result};
use crate::platform::{PlatformFactory, SimPlatformFactory};
use crate::probe::{estimate_upper_bound, ProbeResult};
use crate::state::FreqState;

/// Why a pair produced no measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Phase 1 found the pair statistically indistinguishable.
    Indistinguishable,
    /// Power throttling made the pair unmeasurable.
    PowerLimited,
    /// Every evaluation retry failed.
    RetriesExhausted,
    /// The session was cancelled before the pair was scheduled.
    Cancelled,
}

impl SkipReason {
    fn of(outcome: &PairOutcome) -> Option<SkipReason> {
        match outcome {
            PairOutcome::Completed(_) => None,
            PairOutcome::SkippedIndistinguishable => Some(SkipReason::Indistinguishable),
            PairOutcome::PowerLimited { .. } => Some(SkipReason::PowerLimited),
            PairOutcome::RetriesExhausted { .. } => Some(SkipReason::RetriesExhausted),
            PairOutcome::Cancelled => Some(SkipReason::Cancelled),
        }
    }
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SkipReason::Indistinguishable => "indistinguishable",
            SkipReason::PowerLimited => "power-limited",
            SkipReason::RetriesExhausted => "retries exhausted",
            SkipReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Typed progress events emitted by a [`CampaignSession`].
///
/// Under [`CampaignSession::run`] pair-level events arrive in canonical
/// pair order. They may interleave arbitrarily between pairs when pairs
/// run concurrently (pair tasks on the queue's worker pool); per pair,
/// `PairStarted` always precedes `PairFinished`/`PairSkipped`.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// The session started.
    CampaignStarted {
        /// Device under measurement.
        device_name: String,
        /// Number of ordered pairs scheduled.
        n_pairs: usize,
    },
    /// Phase 1 finished characterising and validating.
    Phase1Done {
        /// Pairs whose difference interval excluded zero.
        valid_pairs: usize,
        /// Pairs excluded as indistinguishable.
        skipped_pairs: usize,
    },
    /// The probe phase produced a capture-window bound.
    ProbeDone {
        /// Largest observed latency (ms).
        max_latency_ms: f64,
    },
    /// One pair's measurement loop is starting.
    PairStarted {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
    },
    /// One pair completed with measurements.
    PairFinished {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
        /// Accepted measurement count.
        measurements: usize,
        /// Outlier-filtered mean latency (ms).
        mean_ms: f64,
    },
    /// One pair ended without measurements.
    PairSkipped {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
        /// Why.
        reason: SkipReason,
    },
    /// One pair was restored from a resume checkpoint without re-running.
    PairRestored {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
    },
    /// The session finished (possibly partially, after cancellation).
    CampaignFinished {
        /// Pairs that completed with measurements.
        completed: usize,
        /// Pairs skipped for statistical/thermal reasons.
        skipped: usize,
        /// Pairs left unmeasured by cancellation.
        cancelled: usize,
    },
}

impl std::fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignEvent::CampaignStarted {
                device_name,
                n_pairs,
            } => {
                write!(f, "campaign started on {device_name}: {n_pairs} pairs")
            }
            CampaignEvent::Phase1Done {
                valid_pairs,
                skipped_pairs,
            } => {
                write!(
                    f,
                    "phase 1 done: {valid_pairs} valid, {skipped_pairs} skipped"
                )
            }
            CampaignEvent::ProbeDone { max_latency_ms } => {
                write!(f, "probe done: bound {max_latency_ms:.3} ms")
            }
            CampaignEvent::PairStarted { init, target, .. } => {
                write!(f, "pair {init}->{target} MHz started")
            }
            CampaignEvent::PairFinished {
                init,
                target,
                measurements,
                mean_ms,
                ..
            } => {
                write!(
                    f,
                    "pair {init}->{target} MHz finished: n={measurements}, mean {mean_ms:.3} ms"
                )
            }
            CampaignEvent::PairSkipped {
                init,
                target,
                reason,
                ..
            } => {
                write!(f, "pair {init}->{target} MHz skipped ({reason})")
            }
            CampaignEvent::PairRestored { init, target, .. } => {
                write!(f, "pair {init}->{target} MHz restored from checkpoint")
            }
            CampaignEvent::CampaignFinished {
                completed,
                skipped,
                cancelled,
            } => {
                write!(
                    f,
                    "campaign finished: {completed} completed, {skipped} skipped, {cancelled} cancelled"
                )
            }
        }
    }
}

/// Observer hook for [`CampaignEvent`]s.
///
/// Implemented for any `Fn(&CampaignEvent) + Send + Sync` closure; events
/// may arrive from worker threads when pairs run concurrently.
pub trait CampaignObserver: Send + Sync {
    /// Called for every event, in emission order per pair.
    fn event(&self, event: &CampaignEvent);
}

impl<F: Fn(&CampaignEvent) + Send + Sync> CampaignObserver for F {
    fn event(&self, event: &CampaignEvent) {
        self(event)
    }
}

/// Observer that forwards every event into an mpsc channel.
pub struct ChannelObserver {
    tx: Sender<CampaignEvent>,
}

impl ChannelObserver {
    /// Wrap a sender.
    pub fn new(tx: Sender<CampaignEvent>) -> Self {
        ChannelObserver { tx }
    }
}

impl CampaignObserver for ChannelObserver {
    fn event(&self, event: &CampaignEvent) {
        // A dropped receiver only means nobody is listening any more.
        let _ = self.tx.send(event.clone());
    }
}

/// Cooperative cancellation handle.
///
/// Clone it out of the session, hand it to another thread (or an observer),
/// and call [`CancelToken::cancel`]; the session checks it at pair
/// granularity and winds down, recording unmeasured pairs as
/// [`PairOutcome::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Phase 1 + probe: the once-per-campaign preamble every pair shares.
///
/// Produced by [`CampaignSession::prelude`] on a platform seeded from the
/// campaign seed alone (or restored from a resume checkpoint, which is
/// equivalent bit for bit), then handed unchanged to every
/// [`CampaignSession::measure`] call.
#[derive(Clone, Debug)]
pub struct CampaignPrelude {
    /// Phase-1 characterisation and pair validation.
    pub phase1: Phase1Result,
    /// Probe-phase capture-window bound.
    pub probe: ProbeResult,
}

/// One schedulable pair of a campaign: its canonical position plus the
/// `state_pair_seed`-derived seed its platform is constructed from.
///
/// # Determinism contract
///
/// A pair task owns everything its measurement needs. Its `seed` builds
/// the pair's `Platform` through the session's [`PlatformFactory`], and
/// phase 1 + probe arrive as the shared [`CampaignPrelude`]. No state
/// flows between pairs, so the tasks of
/// [`CampaignSession::pending_pairs`], measured in *any* order on *any*
/// number of threads (or processes), yield measurements bitwise
/// identical to [`CampaignSession::run`]; [`settle`] and
/// [`CampaignSession::assemble`] only have to put them back in canonical
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairTask {
    /// Position in `ordered_state_pairs` order.
    pub index: usize,
    /// Initial frequency state.
    pub init: FreqState,
    /// Target frequency state.
    pub target: FreqState,
    /// The platform seed for this pair:
    /// `config.state_pair_seed(init, target)`.
    pub seed: u64,
}

/// Record one settled pair in its canonical slot and say whether a
/// checkpoint is due: after every `every` settled pairs, and once more
/// when the last slot fills.
///
/// `slots` holds one entry per ordered pair, `Some` once the pair settled
/// (measured, skipped, or restored from a checkpoint);
/// [`CampaignSession::assemble`] turns it into a result.
pub fn settle(
    slots: &mut [Option<PairMeasurement>],
    index: usize,
    meas: PairMeasurement,
    every: usize,
) -> bool {
    slots[index] = Some(meas);
    let settled = slots.iter().filter(|s| s.is_some()).count();
    settled % every.max(1) == 0 || settled == slots.len()
}

/// Receives periodic partial-result snapshots; see
/// [`CampaignSession::checkpoint_to`].
type CheckpointSink = Arc<dyn Fn(&CampaignResult) + Send + Sync>;

/// The streaming campaign engine. See the [module docs](self) for the tour.
pub struct CampaignSession<F: PlatformFactory = SimPlatformFactory> {
    config: CampaignConfig,
    factory: F,
    observers: Vec<Arc<dyn CampaignObserver>>,
    cancel: CancelToken,
    checkpoint: Option<CampaignResult>,
    checkpoint_every: usize,
    checkpoint_sink: Option<CheckpointSink>,
}

impl CampaignSession<SimPlatformFactory> {
    /// A session over the simulated backend described by `config.spec`.
    pub fn new(config: CampaignConfig) -> Self {
        let factory = SimPlatformFactory::new(config.spec.clone());
        CampaignSession::with_factory(config, factory)
    }
}

impl<F: PlatformFactory> CampaignSession<F> {
    /// A session over an arbitrary backend.
    pub fn with_factory(config: CampaignConfig, factory: F) -> Self {
        CampaignSession {
            config,
            factory,
            observers: Vec::new(),
            cancel: CancelToken::new(),
            checkpoint: None,
            checkpoint_every: 1,
            checkpoint_sink: None,
        }
    }

    /// Attach an observer; may be called several times.
    pub fn observe(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observers.push(Arc::new(observer));
        self
    }

    /// Attach a channel observer and return its receiving end.
    pub fn events(&mut self) -> Receiver<CampaignEvent> {
        let (tx, rx) = channel();
        self.observers.push(Arc::new(ChannelObserver::new(tx)));
        rx
    }

    /// Share a caller-owned cancellation token with the session.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The session's cancellation token (clone it before `run`).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Stream resumable checkpoints while the campaign runs: after every
    /// `every` settled pairs (and once more when the last pair settles),
    /// `sink` receives a partial [`CampaignResult`] whose unmeasured pairs
    /// are recorded as [`PairOutcome::Cancelled`] — exactly the shape
    /// [`CampaignSession::resume_from`] accepts, so persisting each
    /// snapshot gives crash recovery for free.
    ///
    /// [`CampaignSession::run`] calls the sink on the caller's thread, in
    /// canonical pair order.
    pub fn checkpoint_to(
        mut self,
        every: usize,
        sink: impl Fn(&CampaignResult) + Send + Sync + 'static,
    ) -> Self {
        self.checkpoint_every = every.max(1);
        self.checkpoint_sink = Some(Arc::new(sink));
        self
    }

    /// Resume from a partial result: pairs already measured (or skipped for
    /// statistical/thermal reasons) are restored verbatim, only
    /// [`PairOutcome::Cancelled`] pairs run.
    ///
    /// Fails fast at [`CampaignSession::run`] time if the checkpoint does
    /// not match the configuration (different device or pair set).
    pub fn resume_from(mut self, checkpoint: CampaignResult) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    fn emit(&self, event: CampaignEvent) {
        for obs in &self.observers {
            obs.event(&event);
        }
    }

    /// Validate a checkpoint against the configured campaign.
    ///
    /// A checkpoint is only usable when it was taken by *this* campaign:
    /// same device, same seed (restored pairs would otherwise mix noise
    /// streams with re-run ones) and the exact configured pair set (the
    /// restored phase 1 must have characterised every configured
    /// frequency, or missing pairs would be silently mis-skipped as
    /// indistinguishable).
    fn check_checkpoint(&self, cp: &CampaignResult) -> CoreResult<()> {
        let expected = self.factory.device_name();
        if cp.device_name != expected {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint is for device {:?}, session runs {expected:?}",
                    cp.device_name
                ),
            });
        }
        if cp.seed != self.config.seed {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint was taken under seed {}, session is configured with seed {}",
                    cp.seed, self.config.seed
                ),
            });
        }
        let ordered = self.config.ordered_state_pairs();
        if cp.pairs().len() != ordered.len() {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint covers {} pairs, the configuration schedules {}",
                    cp.pairs().len(),
                    ordered.len()
                ),
            });
        }
        for &(init, target) in &ordered {
            if cp.pair(init, target).is_none() {
                return Err(CoreError::CheckpointMismatch {
                    reason: format!(
                        "configured pair {init}->{target} MHz is missing from the checkpoint"
                    ),
                });
            }
        }
        for state in self.config.states() {
            if cp.phase1.of(state).is_none() {
                return Err(CoreError::CheckpointMismatch {
                    reason: format!("checkpoint phase 1 never characterised {state} MHz"),
                });
            }
        }
        Ok(())
    }

    /// Run phase 1 and the probe — the once-per-campaign preamble every
    /// pair shares — emitting `CampaignStarted`, `Phase1Done` and
    /// `ProbeDone`.
    ///
    /// On a resume, phase 1 + probe are restored from the (validated)
    /// checkpoint; their platform is seeded from the campaign seed alone,
    /// so a re-run would reproduce them bit for bit anyway.
    pub fn prelude(&self) -> CoreResult<CampaignPrelude> {
        let config = &self.config;
        self.emit(CampaignEvent::CampaignStarted {
            device_name: self.factory.device_name(),
            n_pairs: config.ordered_state_pairs().len(),
        });

        if let Some(cp) = &self.checkpoint {
            self.check_checkpoint(cp)?;
        }

        let (phase1, probe) = match &self.checkpoint {
            Some(cp) => (cp.phase1.clone(), cp.probe.clone()),
            None => {
                if self.cancel.is_cancelled() {
                    return Err(CoreError::Cancelled);
                }
                let mut p0 = self.factory.create(config.seed)?;
                let phase1 = run_phase1(&mut p0, config)?;
                let probe = estimate_upper_bound(&mut p0, config, &phase1)?;
                (phase1, probe)
            }
        };
        self.emit(CampaignEvent::Phase1Done {
            valid_pairs: phase1.valid_pairs.len(),
            skipped_pairs: phase1.skipped_pairs.len(),
        });
        self.emit(CampaignEvent::ProbeDone {
            max_latency_ms: probe.max_latency_ms,
        });
        Ok(CampaignPrelude { phase1, probe })
    }

    /// Whether the resume checkpoint already holds this pair's measurement.
    fn is_restored(&self, init: FreqState, target: FreqState) -> bool {
        self.checkpoint
            .as_ref()
            .and_then(|cp| cp.pair(init, target))
            .is_some_and(|p| !p.outcome.is_cancelled())
    }

    /// Pairs restorable verbatim from the resume checkpoint, as
    /// `(canonical index, measurement)` in canonical order (empty without a
    /// checkpoint). These are exactly the pairs
    /// [`CampaignSession::pending_pairs`] excludes; [`settle`] them into
    /// the slots alongside the measured ones.
    pub fn restored_pairs(&self) -> Vec<(usize, PairMeasurement)> {
        let Some(cp) = &self.checkpoint else {
            return Vec::new();
        };
        self.config
            .ordered_state_pairs()
            .iter()
            .enumerate()
            .filter_map(|(i, &(a, b))| {
                cp.pair(a, b)
                    .filter(|p| !p.outcome.is_cancelled())
                    .map(|p| (i, p.clone()))
            })
            .collect()
    }

    /// Every pair not restorable from the resume checkpoint, in canonical
    /// order: the campaign's remaining work, one self-contained
    /// [`PairTask`] per pair.
    pub fn pending_pairs(&self) -> Vec<PairTask> {
        self.config
            .ordered_state_pairs()
            .iter()
            .enumerate()
            .filter(|&(_, &(init, target))| !self.is_restored(init, target))
            .map(|(index, &(init, target))| PairTask {
                index,
                init,
                target,
                seed: self.config.state_pair_seed(init, target),
            })
            .collect()
    }

    /// Measure one pair on its freshly seeded platform, emitting the pair
    /// events. Once the session is cancelled the pair is not run: it comes
    /// back as a [`PairOutcome::Cancelled`] placeholder, which callers
    /// leave unsettled.
    pub fn measure(
        &self,
        prelude: &CampaignPrelude,
        task: &PairTask,
    ) -> CoreResult<PairMeasurement> {
        let PairTask {
            index,
            init,
            target,
            seed,
        } = *task;
        if self.cancel.is_cancelled() {
            self.emit(CampaignEvent::PairSkipped {
                index,
                init,
                target,
                reason: SkipReason::Cancelled,
            });
            return Ok(PairMeasurement {
                init,
                target,
                outcome: PairOutcome::Cancelled,
                analysis: None,
            });
        }
        self.emit(CampaignEvent::PairStarted {
            index,
            init,
            target,
        });
        let mut platform = self.factory.create(seed)?;
        let outcome = run_pair(
            &mut platform,
            &self.config,
            &prelude.phase1,
            init,
            target,
            prelude.probe.max_latency_ms,
        )?;
        let analysis = outcome
            .run()
            .map(|r| analyze_pair(&r.latencies_ms, &AdaptiveConfig::default()));
        match (&outcome, &analysis) {
            (PairOutcome::Completed(run), Some(a)) => {
                self.emit(CampaignEvent::PairFinished {
                    index,
                    init,
                    target,
                    measurements: run.latencies_ms.len(),
                    mean_ms: a.filtered.mean,
                });
            }
            _ => {
                if let Some(reason) = SkipReason::of(&outcome) {
                    self.emit(CampaignEvent::PairSkipped {
                        index,
                        init,
                        target,
                        reason,
                    });
                }
            }
        }
        Ok(PairMeasurement {
            init,
            target,
            outcome,
            analysis,
        })
    }

    /// Assemble canonical-order slots (see [`settle`]) into this
    /// campaign's [`CampaignResult`]. Unsettled slots become
    /// [`PairOutcome::Cancelled`] placeholders, so a partly filled slot
    /// vector is exactly the resumable-checkpoint shape
    /// [`CampaignSession::resume_from`] accepts.
    pub fn assemble(
        &self,
        prelude: &CampaignPrelude,
        slots: &[Option<PairMeasurement>],
    ) -> CampaignResult {
        let ordered = self.config.ordered_state_pairs();
        let pairs = slots
            .iter()
            .zip(&ordered)
            .map(|(slot, &(init, target))| {
                slot.clone().unwrap_or(PairMeasurement {
                    init,
                    target,
                    outcome: PairOutcome::Cancelled,
                    analysis: None,
                })
            })
            .collect();
        CampaignResult::new(
            self.factory.device_name(),
            self.config.device_index,
            self.config.seed,
            prelude.phase1.clone(),
            prelude.probe.clone(),
            pairs,
        )
    }

    /// [`CampaignSession::assemble`] the final slots and emit
    /// `CampaignFinished` with the result's pair counts.
    pub fn finish(
        &self,
        prelude: &CampaignPrelude,
        slots: &[Option<PairMeasurement>],
    ) -> CampaignResult {
        let result = self.assemble(prelude, slots);
        let (completed, skipped, cancelled) =
            result
                .pairs()
                .iter()
                .fold((0, 0, 0), |(c, s, x), p| match &p.outcome {
                    PairOutcome::Completed(_) => (c + 1, s, x),
                    PairOutcome::Cancelled => (c, s, x + 1),
                    _ => (c, s + 1, x),
                });
        self.emit(CampaignEvent::CampaignFinished {
            completed,
            skipped,
            cancelled,
        });
        result
    }

    /// Run the campaign to completion (or cancellation).
    ///
    /// Pairs are measured one after another on the calling thread, in
    /// canonical `ordered_state_pairs` order: restored pairs first (as
    /// `PairRestored`), then every pending pair. So every event, and every
    /// checkpoint-sink call, happens on the caller's thread in that order.
    ///
    /// Returns the full [`CampaignResult`]; after a cancellation the result
    /// is partial ([`CampaignResult::is_partial`]) and can be fed back
    /// through [`CampaignSession::resume_from`].
    pub fn run(&self) -> CoreResult<CampaignResult> {
        let prelude = self.prelude()?;

        // Settled pairs land in canonical-order slots, so a checkpoint
        // snapshot can stand Cancelled placeholders in for pairs not yet
        // measured — exactly the resumable partial-result shape
        // `resume_from` validates.
        let mut slots = vec![None; self.config.ordered_state_pairs().len()];
        let mut settle_pair = |index: usize, meas: PairMeasurement| {
            if settle(&mut slots, index, meas, self.checkpoint_every) {
                if let Some(sink) = &self.checkpoint_sink {
                    sink(&self.assemble(&prelude, &slots));
                }
            }
        };

        // Checkpoint hits restore without touching the device.
        for (index, meas) in self.restored_pairs() {
            self.emit(CampaignEvent::PairRestored {
                index,
                init: meas.init,
                target: meas.target,
            });
            settle_pair(index, meas);
        }

        for task in self.pending_pairs() {
            let meas = self.measure(&prelude, &task)?;
            if !meas.outcome.is_cancelled() {
                settle_pair(task.index, meas);
            }
        }
        Ok(self.finish(&prelude, &slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_sim_clock::SimDuration;
    use std::sync::{Arc, Mutex};

    fn small_campaign(seed: u64) -> CampaignConfig {
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1410])
            .measurements(8, 20)
            .simulated_sms(Some(4))
            .seed(seed)
            .build()
    }

    #[test]
    fn events_cover_every_pair_in_order() {
        let mut session = CampaignSession::new(small_campaign(22));
        let rx = session.events();
        let result = session.run().unwrap();
        drop(session);
        let events: Vec<CampaignEvent> = rx.try_iter().collect();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStarted { n_pairs: 2, .. })
        ));
        let phase1_at = events
            .iter()
            .position(|e| matches!(e, CampaignEvent::Phase1Done { .. }))
            .unwrap();
        let first_start = events
            .iter()
            .position(|e| matches!(e, CampaignEvent::PairStarted { .. }))
            .unwrap();
        assert!(phase1_at < first_start, "phase 1 must precede pair work");
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::PairFinished { .. }))
            .count();
        assert_eq!(finishes, result.completed().count());
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignFinished { .. })
        ));
    }

    #[test]
    fn run_starts_pairs_in_canonical_order_on_the_calling_thread() {
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        let config = CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(5, 10)
            .simulated_sms(Some(2))
            .seed(21)
            .build();
        let n = config.ordered_state_pairs().len();
        let started = Arc::new(Mutex::new(Vec::new()));
        let seen = started.clone();
        CampaignSession::new(config)
            .observe(move |e: &CampaignEvent| {
                if let CampaignEvent::PairStarted { index, .. } = e {
                    seen.lock()
                        .unwrap()
                        .push((*index, std::thread::current().id()));
                }
            })
            .run()
            .unwrap();
        let caller = std::thread::current().id();
        let started = started.lock().unwrap();
        let indices: Vec<usize> = started.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>());
        assert!(started.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn cancellation_yields_partial_checkpoint() {
        let session = CampaignSession::new(small_campaign(23));
        let token = session.cancel_token();
        // Cancel as soon as the first pair finishes: the second must be
        // recorded as cancelled, not measured.
        let session = session.observe(move |e: &CampaignEvent| {
            if matches!(e, CampaignEvent::PairFinished { .. }) {
                token.cancel();
            }
        });
        let result = session.run().unwrap();
        assert!(result.is_partial());
        assert_eq!(result.completed().count(), 1);
        assert_eq!(
            result
                .pairs()
                .iter()
                .filter(|p| p.outcome.is_cancelled())
                .count(),
            1
        );
    }

    #[test]
    fn cancel_before_start_aborts_cleanly() {
        let session = CampaignSession::new(small_campaign(24));
        session.cancel_token().cancel();
        assert!(matches!(session.run(), Err(CoreError::Cancelled)));
    }

    #[test]
    fn resume_completes_a_cancelled_run_bitwise() {
        let full = CampaignSession::new(small_campaign(25)).run().unwrap();

        let session = CampaignSession::new(small_campaign(25));
        let token = session.cancel_token();
        let session = session.observe(move |e: &CampaignEvent| {
            if matches!(e, CampaignEvent::PairFinished { .. }) {
                token.cancel();
            }
        });
        let partial = session.run().unwrap();
        assert!(partial.is_partial());

        // Round-trip the checkpoint through its serialised form, as a
        // process restart would.
        let checkpoint = CampaignResult::from_json(&partial.to_json()).unwrap();
        let resumed = CampaignSession::new(small_campaign(25))
            .resume_from(checkpoint)
            .run()
            .unwrap();
        assert!(!resumed.is_partial());
        for (a, b) in full.pairs().iter().zip(resumed.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
        }
    }

    #[test]
    fn periodic_checkpoints_are_resumable_and_converge() {
        let snapshots: Arc<Mutex<Vec<CampaignResult>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = snapshots.clone();
        let full = CampaignSession::new(small_campaign(30))
            .checkpoint_to(1, move |cp: &CampaignResult| {
                sink.lock().unwrap().push(cp.clone())
            })
            .run()
            .unwrap();

        let snaps = snapshots.lock().unwrap();
        // Two pairs, every = 1: one snapshot per settled pair.
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].is_partial(), "first snapshot must be partial");
        assert!(!snaps[1].is_partial(), "last snapshot must be complete");

        // A mid-run snapshot round-trips through JSON (as a process restart
        // would) and resumes to the uninterrupted result, bit for bit.
        let cp = CampaignResult::from_json(&snaps[0].to_json()).unwrap();
        let resumed = CampaignSession::new(small_campaign(30))
            .resume_from(cp)
            .run()
            .unwrap();
        for (a, b) in full.pairs().iter().zip(resumed.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
        }
        // And the final snapshot IS the final result.
        for (a, b) in full.pairs().iter().zip(snaps[1].pairs()) {
            assert_eq!(a.latencies_ms(), b.latencies_ms());
        }
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let cp = CampaignSession::new(small_campaign(26)).run().unwrap();

        // Wrong device.
        let other = CampaignConfig::builder(devices::gh200())
            .frequencies_mhz(&[705, 1980])
            .measurements(8, 20)
            .seed(26)
            .build();
        let err = CampaignSession::new(other).resume_from(cp.clone()).run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));

        // Wrong seed: restored pairs would mix noise streams with re-runs.
        let err = CampaignSession::new(small_campaign(27))
            .resume_from(cp.clone())
            .run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));

        // Wrong frequency set: the checkpoint's phase 1 never characterised
        // 1095 MHz, so its pairs could not be scheduled from this resume.
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        let wider = CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(8, 20)
            .simulated_sms(Some(4))
            .seed(26)
            .build();
        let err = CampaignSession::new(wider).resume_from(cp).run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));
    }
}
