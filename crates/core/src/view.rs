//! Typed query views over campaign results.
//!
//! Every consumer of a [`CampaignResult`] used to re-implement the same
//! filter chain — `result.pairs().iter().filter(|p| ...)` with its own
//! completion check, direction test and statistic extraction — in the
//! governor's [`LatencyTable`](../../latest_governor/table/struct.LatencyTable.html),
//! the report renderers, the fleet aggregation and the CLI. [`LatencyView`]
//! replaces all of them: a builder that narrows a result by device
//! coordinates, frequency pair, transition direction, outcome and percentile
//! band, then projects the selection as [`PairView`]s, pooled latencies or
//! per-pair statistics.
//!
//! ```
//! use latest_core::view::{Direction, LatencyView, PairStat};
//! # use latest_core::CampaignSpec;
//! # let session = CampaignSpec::builder("a100")
//! #     .frequencies_mhz(&[705, 1410]).measurements(5, 10)
//! #     .build().unwrap().into_session().unwrap();
//! # let result = session.run().unwrap();
//! // Pool the outlier-filtered latencies of every completed down-switch.
//! let down = LatencyView::of(&result)
//!     .direction(Direction::Decreasing)
//!     .pooled_filtered_ms();
//! // Worst filtered latency over all completed pairs.
//! let worst = LatencyView::of(&result).stat(PairStat::Max);
//! # let _ = (down, worst);
//! ```
//!
//! Views borrow the result; building one allocates nothing until a
//! projection runs.

use latest_stats::{quantile, Summary};

use crate::campaign::{CampaignResult, PairMeasurement};
use crate::controller::PairOutcome;
use crate::state::{FreqState, PairKind};

/// Transition direction of a frequency pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Target frequency above the initial one.
    Increasing,
    /// Target frequency below the initial one.
    Decreasing,
}

/// The shape of a pair's outcome, without its payload — the filterable
/// classification of [`PairOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Measured to completion.
    Completed,
    /// Abandoned on a power event.
    PowerLimited,
    /// Phase 1 found the pair statistically indistinguishable.
    Indistinguishable,
    /// Every phase-2/3 attempt failed evaluation.
    RetriesExhausted,
    /// Never scheduled before cancellation.
    Cancelled,
}

impl PairOutcome {
    /// Classify this outcome for filtering.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            PairOutcome::Completed(_) => OutcomeKind::Completed,
            PairOutcome::PowerLimited { .. } => OutcomeKind::PowerLimited,
            PairOutcome::SkippedIndistinguishable => OutcomeKind::Indistinguishable,
            PairOutcome::RetriesExhausted { .. } => OutcomeKind::RetriesExhausted,
            PairOutcome::Cancelled => OutcomeKind::Cancelled,
        }
    }
}

/// Which per-pair statistic a projection extracts (over the
/// outlier-filtered sample).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairStat {
    /// Best case: minimum filtered latency.
    Min,
    /// Mean of the filtered latencies.
    Mean,
    /// Worst case: maximum filtered latency.
    Max,
}

/// A read-only view of one pair's measurement: typed access to its
/// coordinates, outcome, and raw/filtered latency samples.
#[derive(Clone, Copy, Debug)]
pub struct PairView<'a> {
    measurement: &'a PairMeasurement,
}

impl<'a> PairView<'a> {
    /// View one measurement.
    pub fn new(measurement: &'a PairMeasurement) -> Self {
        PairView { measurement }
    }

    /// The underlying measurement record.
    pub fn measurement(&self) -> &'a PairMeasurement {
        self.measurement
    }

    /// Initial frequency state.
    pub fn init(&self) -> FreqState {
        self.measurement.init
    }

    /// Target frequency state.
    pub fn target(&self) -> FreqState {
        self.measurement.target
    }

    /// Initial core frequency (MHz).
    pub fn init_mhz(&self) -> u32 {
        self.measurement.init_mhz()
    }

    /// Target core frequency (MHz).
    pub fn target_mhz(&self) -> u32 {
        self.measurement.target_mhz()
    }

    /// Initial memory frequency (MHz), when the pair carries one.
    pub fn init_mem_mhz(&self) -> Option<u32> {
        self.measurement.init.mem.map(|m| m.0)
    }

    /// Target memory frequency (MHz), when the pair carries one.
    pub fn target_mem_mhz(&self) -> Option<u32> {
        self.measurement.target.mem.map(|m| m.0)
    }

    /// Which domain(s) the transition moves.
    pub fn kind(&self) -> PairKind {
        self.measurement.kind()
    }

    /// Transition direction (core compared first; for core-equal —
    /// memory-only — pairs, the memory clocks decide).
    pub fn direction(&self) -> Direction {
        if self.measurement.target > self.measurement.init {
            Direction::Increasing
        } else {
            Direction::Decreasing
        }
    }

    /// Outcome classification.
    pub fn outcome(&self) -> OutcomeKind {
        self.measurement.outcome.kind()
    }

    /// Raw latencies (ms) when the pair completed.
    pub fn raw_ms(&self) -> Option<&'a [f64]> {
        self.measurement.latencies_ms()
    }

    /// Outlier-filtered latencies (ms) when the pair completed and the
    /// filter left data.
    pub fn filtered_ms(&self) -> Option<&'a [f64]> {
        let a = self.measurement.analysis.as_ref()?;
        if a.inliers_ms.is_empty() {
            None
        } else {
            Some(&a.inliers_ms)
        }
    }

    /// Summary over the outlier-filtered sample.
    pub fn filtered_summary(&self) -> Option<Summary> {
        self.filtered_ms().map(|_| {
            self.measurement
                .analysis
                .as_ref()
                .expect("checked")
                .filtered
        })
    }

    /// One statistic of the outlier-filtered sample.
    pub fn stat(&self, stat: PairStat) -> Option<f64> {
        let s = self.filtered_summary()?;
        Some(match stat {
            PairStat::Min => s.min,
            PairStat::Mean => s.mean,
            PairStat::Max => s.max,
        })
    }

    /// Quantile `q` of the outlier-filtered sample.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.filtered_ms().map(|xs| quantile(xs, q))
    }
}

/// A filtering, projecting view over a whole campaign's pairs.
///
/// Filters compose with builder chaining; projections iterate the result's
/// pairs lazily in `ordered_state_pairs` order (so every projection is
/// deterministic).
#[derive(Clone, Copy, Debug)]
pub struct LatencyView<'a> {
    result: &'a CampaignResult,
    direction: Option<Direction>,
    init_mhz: Option<u32>,
    target_mhz: Option<u32>,
    outcome: Option<OutcomeKind>,
    band: Option<(f64, f64)>,
}

impl<'a> LatencyView<'a> {
    /// An unfiltered view of every pair in the campaign.
    pub fn of(result: &'a CampaignResult) -> Self {
        LatencyView {
            result,
            direction: None,
            init_mhz: None,
            target_mhz: None,
            outcome: None,
            band: None,
        }
    }

    /// The campaign the view projects.
    pub fn result(&self) -> &'a CampaignResult {
        self.result
    }

    /// Keep only pairs transitioning in `direction`.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = Some(direction);
        self
    }

    /// Keep only pairs starting at `mhz`.
    pub fn init_mhz(mut self, mhz: u32) -> Self {
        self.init_mhz = Some(mhz);
        self
    }

    /// Keep only pairs targeting `mhz`.
    pub fn target_mhz(mut self, mhz: u32) -> Self {
        self.target_mhz = Some(mhz);
        self
    }

    /// Keep only pairs whose outcome classifies as `kind`.
    pub fn outcome(mut self, kind: OutcomeKind) -> Self {
        self.outcome = Some(kind);
        self
    }

    /// Shorthand for `outcome(OutcomeKind::Completed)`.
    pub fn completed(self) -> Self {
        self.outcome(OutcomeKind::Completed)
    }

    /// Restrict latency projections to each pair's `[lo, hi]` percentile
    /// band (quantiles in `[0, 1]` of the pair's own filtered sample) —
    /// e.g. `.percentile_band(0.0, 0.5)` keeps each pair's fastest half.
    ///
    /// Affects [`LatencyView::pooled_filtered_ms`]; per-pair summaries
    /// keep the full sample.
    pub fn percentile_band(mut self, lo: f64, hi: f64) -> Self {
        self.band = Some((lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0)));
        self
    }

    fn admits(&self, view: &PairView<'_>) -> bool {
        if let Some(d) = self.direction {
            if view.direction() != d {
                return false;
            }
        }
        if let Some(init) = self.init_mhz {
            if view.init_mhz() != init {
                return false;
            }
        }
        if let Some(target) = self.target_mhz {
            if view.target_mhz() != target {
                return false;
            }
        }
        if let Some(kind) = self.outcome {
            if view.outcome() != kind {
                return false;
            }
        }
        true
    }

    fn band_of(&self, xs: &[f64]) -> Option<(f64, f64)> {
        self.band
            .map(|(lo, hi)| (quantile(xs, lo), quantile(xs, hi)))
    }

    /// Every pair admitted by the filters, in schedule order.
    pub fn pairs(&self) -> impl Iterator<Item = PairView<'a>> + '_ {
        self.result
            .pairs()
            .iter()
            .map(PairView::new)
            .filter(move |p| self.admits(p))
    }

    /// Number of admitted pairs.
    pub fn count(&self) -> usize {
        self.pairs().count()
    }

    /// O(1) lookup of one admitted pair by its clock states (a bare
    /// [`FreqMhz`](latest_gpu_sim::freq::FreqMhz) converts to the
    /// core-only state).
    pub fn pair(
        &self,
        init: impl Into<FreqState>,
        target: impl Into<FreqState>,
    ) -> Option<PairView<'a>> {
        let view = PairView::new(self.result.pair(init, target)?);
        self.admits(&view).then_some(view)
    }

    /// Pool the outlier-filtered latencies of every admitted completed
    /// pair (percentile band applied per pair).
    pub fn pooled_filtered_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for p in self.pairs() {
            if let Some(xs) = p.filtered_ms() {
                match self.band_of(xs) {
                    Some((lo, hi)) => {
                        out.extend(xs.iter().copied().filter(|&x| lo <= x && x <= hi))
                    }
                    None => out.extend_from_slice(xs),
                }
            }
        }
        out
    }

    /// Aggregate one per-pair statistic over every admitted pair:
    /// `(min, mean-of-means, max)` of the statistic, `None` when no admitted
    /// pair has filtered data.
    pub fn stat_range(&self, stat: PairStat) -> Option<(f64, f64, f64)> {
        let vals: Vec<f64> = self.pairs().filter_map(|p| p.stat(stat)).collect();
        if vals.is_empty() {
            return None;
        }
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        Some((min, mean, max))
    }

    /// The extreme of one statistic over admitted pairs, with the clock
    /// states of the pair it occurs on: `(value, init, target)`. `largest`
    /// picks max.
    pub fn stat_extreme(
        &self,
        stat: PairStat,
        largest: bool,
    ) -> Option<(f64, FreqState, FreqState)> {
        let cells = self
            .pairs()
            .filter_map(|p| p.stat(stat).map(|v| (v, p.init(), p.target())));
        if largest {
            cells.max_by(|a, b| a.0.total_cmp(&b.0))
        } else {
            cells.min_by(|a, b| a.0.total_cmp(&b.0))
        }
    }

    /// One statistic over every admitted pair, reduced to its worst (max);
    /// `None` when nothing is admitted. Shorthand over
    /// [`LatencyView::stat_range`].
    pub fn stat(&self, stat: PairStat) -> Option<f64> {
        self.stat_range(stat).map(|(_, _, max)| max)
    }

    /// The distinct core frequencies (MHz) appearing in admitted pairs,
    /// ascending — the axis of a heatmap over this view.
    pub fn frequencies_mhz(&self) -> Vec<u32> {
        let mut freqs: Vec<u32> = self
            .pairs()
            .flat_map(|p| [p.init_mhz(), p.target_mhz()])
            .collect();
        freqs.sort_unstable();
        freqs.dedup();
        freqs
    }

    /// The distinct memory clocks (MHz) appearing in admitted pairs,
    /// ascending — the slice axis of a 2-D sweep (empty for a core-only
    /// campaign).
    pub fn mem_clocks_mhz(&self) -> Vec<u32> {
        let mut mems: Vec<u32> = self
            .pairs()
            .flat_map(|p| [p.init_mem_mhz(), p.target_mem_mhz()])
            .flatten()
            .collect();
        mems.sort_unstable();
        mems.dedup();
        mems
    }

    /// The distinct clock states appearing in admitted pairs, in the
    /// canonical [`FreqState`] order — the axis of a state×state heatmap
    /// over a 2-D sweep.
    pub fn states(&self) -> Vec<FreqState> {
        let mut states: Vec<FreqState> =
            self.pairs().flat_map(|p| [p.init(), p.target()]).collect();
        states.sort_unstable();
        states.dedup();
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use crate::CampaignSession;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::FreqMhz;

    fn small_result(seed: u64) -> CampaignResult {
        let config = resolve_on(
            fixed(devices::a100_sxm4(), 8),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1095, 1410])
                .measurements(6, 12)
                .simulated_sms(Some(2))
                .seed(seed),
        );
        CampaignSession::new(config).run().unwrap()
    }

    #[test]
    fn unfiltered_view_sees_every_pair() {
        let r = small_result(3);
        let v = LatencyView::of(&r);
        assert_eq!(v.count(), r.pairs().len());
        assert_eq!(v.frequencies_mhz(), vec![705, 1095, 1410]);
    }

    #[test]
    fn direction_filter_partitions_pairs() {
        let r = small_result(4);
        let up = LatencyView::of(&r).direction(Direction::Increasing);
        let down = LatencyView::of(&r).direction(Direction::Decreasing);
        assert_eq!(up.count() + down.count(), r.pairs().len());
        assert!(up.pairs().all(|p| p.target_mhz() > p.init_mhz()));
        assert!(down.pairs().all(|p| p.target_mhz() < p.init_mhz()));
    }

    #[test]
    fn coordinate_filters_compose() {
        let r = small_result(5);
        let v = LatencyView::of(&r).init_mhz(705).target_mhz(1410);
        assert_eq!(v.count(), 1);
        let p = v.pair(FreqMhz(705), FreqMhz(1410)).unwrap();
        assert_eq!(p.direction(), Direction::Increasing);
        // The same pair is invisible through a contradictory filter.
        assert!(LatencyView::of(&r)
            .direction(Direction::Decreasing)
            .pair(FreqMhz(705), FreqMhz(1410))
            .is_none());
    }

    #[test]
    fn completed_filter_matches_result_completed() {
        let r = small_result(6);
        let via_view: Vec<(u32, u32)> = LatencyView::of(&r)
            .completed()
            .pairs()
            .map(|p| (p.init_mhz(), p.target_mhz()))
            .collect();
        let via_result: Vec<(u32, u32)> = r
            .completed()
            .map(|p| (p.init_mhz(), p.target_mhz()))
            .collect();
        assert_eq!(via_view, via_result);
    }

    #[test]
    fn pooled_latencies_match_manual_pooling() {
        let r = small_result(7);
        let pooled = LatencyView::of(&r).completed().pooled_filtered_ms();
        let manual: Vec<f64> = r
            .completed()
            .filter_map(|p| p.analysis.as_ref())
            .flat_map(|a| a.inliers_ms.iter().copied())
            .collect();
        assert_eq!(pooled, manual);
        assert!(!pooled.is_empty());
    }

    #[test]
    fn percentile_band_narrows_the_pool() {
        let r = small_result(8);
        let full = LatencyView::of(&r).completed().pooled_filtered_ms();
        let lower_half = LatencyView::of(&r)
            .completed()
            .percentile_band(0.0, 0.5)
            .pooled_filtered_ms();
        assert!(lower_half.len() <= full.len());
        assert!(!lower_half.is_empty());
        // Everything in the banded pool exists in the full pool.
        for x in &lower_half {
            assert!(full.contains(x));
        }
    }

    #[test]
    fn stat_projections_are_consistent() {
        let r = small_result(9);
        let v = LatencyView::of(&r).completed();
        let (min, mean, max) = v.stat_range(PairStat::Mean).unwrap();
        assert!(min <= mean && mean <= max);
        let (worst, init, target) = v.stat_extreme(PairStat::Max, true).unwrap();
        assert_eq!(
            v.pair(init, target).unwrap().stat(PairStat::Max),
            Some(worst)
        );
        let (best, _, _) = v.stat_extreme(PairStat::Min, false).unwrap();
        assert!(best <= worst);
    }

    #[test]
    fn outcome_kinds_classify() {
        assert_eq!(
            PairOutcome::SkippedIndistinguishable.kind(),
            OutcomeKind::Indistinguishable
        );
        assert_eq!(PairOutcome::Cancelled.kind(), OutcomeKind::Cancelled);
        assert_eq!(
            PairOutcome::PowerLimited {
                measurements_before: 3
            }
            .kind(),
            OutcomeKind::PowerLimited
        );
    }
}
