//! The switching-latency knowledge base a runtime system deploys.
//!
//! A [`LatencyTable`] holds, per ordered frequency pair, the outlier-filtered
//! latency sample measured by a LATEST campaign. The governor queries it for
//! expected and tail latencies, and for the *avoid list* — pairs whose
//! overhead is pathological compared to their neighbours (Sec. VIII: "the
//! runtime system may avoid some frequency transitions, which show overhead
//! higher than other frequency pairs"). A [`TransitionReplay`] draws the
//! cost of each switch a simulated device pays from that same sample.

use std::collections::BTreeMap;
use std::fmt;

use latest_core::{CampaignResult, OutcomeKind};
use latest_gpu_sim::freq::FreqMhz;
use latest_stats::Summary;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Why pairs of a campaign did *not* make it into a [`LatencyTable`].
///
/// `from_campaign` used to drop these silently; a governor deployed from a
/// partial campaign should know how partial its knowledge base is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkippedPairs {
    /// Abandoned on a power event.
    pub power_limited: usize,
    /// Statistically indistinguishable in phase 1 (no latency to tabulate).
    pub indistinguishable: usize,
    /// Every measurement attempt failed evaluation.
    pub retries_exhausted: usize,
    /// Never scheduled before the session was cancelled.
    pub cancelled: usize,
    /// Completed, but outlier filtering left no sample.
    pub empty_filtered: usize,
    /// Initial or target state pins a memory clock. The table is keyed by
    /// core clocks alone, so such a pair would overwrite a core cell (a
    /// memory-only switch would land on a core self-pair); it is skipped
    /// whatever its outcome.
    pub memory_plane: usize,
}

impl SkippedPairs {
    /// Total pairs skipped.
    pub fn total(&self) -> usize {
        self.power_limited
            + self.indistinguishable
            + self.retries_exhausted
            + self.cancelled
            + self.empty_filtered
            + self.memory_plane
    }

    /// Whether nothing was skipped (the table covers the whole campaign).
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

impl fmt::Display for SkippedPairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pairs skipped ({} power-limited, {} indistinguishable, \
             {} retries-exhausted, {} cancelled, {} empty after filtering, \
             {} with a memory clock)",
            self.total(),
            self.power_limited,
            self.indistinguishable,
            self.retries_exhausted,
            self.cancelled,
            self.empty_filtered,
            self.memory_plane
        )
    }
}

/// Measured switching-latency record for one ordered frequency pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PairLatency {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// Outlier-filtered latencies (ms), sorted ascending.
    pub latencies_ms: Vec<f64>,
}

impl PairLatency {
    /// Build from an unsorted sample.
    pub fn new(init_mhz: u32, target_mhz: u32, mut latencies_ms: Vec<f64>) -> Self {
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        PairLatency {
            init_mhz,
            target_mhz,
            latencies_ms,
        }
    }

    /// Mean latency (ms).
    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }

    /// Latency at quantile `q` in `[0, 1]` (nearest-rank on the sorted
    /// sample).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        let idx = ((q.clamp(0.0, 1.0)) * (self.latencies_ms.len() - 1) as f64).round() as usize;
        self.latencies_ms[idx]
    }

    /// Summary statistics of the sample.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.latencies_ms)
    }
}

/// Per-device table of measured switching latencies.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(from = "LatencyTableRepr", into = "LatencyTableRepr")]
pub struct LatencyTable {
    /// Device the table was measured on.
    pub device_name: String,
    entries: BTreeMap<(u32, u32), PairLatency>,
}

/// JSON shape of a [`LatencyTable`]: a flat pair list (JSON map keys must be
/// strings, so the tuple-keyed map cannot serialise directly).
#[derive(Serialize, Deserialize)]
struct LatencyTableRepr {
    device_name: String,
    pairs: Vec<PairLatency>,
}

impl From<LatencyTableRepr> for LatencyTable {
    fn from(repr: LatencyTableRepr) -> Self {
        let mut table = LatencyTable::new(repr.device_name);
        for pair in repr.pairs {
            table.insert(pair);
        }
        table
    }
}

impl From<LatencyTable> for LatencyTableRepr {
    fn from(table: LatencyTable) -> Self {
        LatencyTableRepr {
            device_name: table.device_name,
            pairs: table.entries.into_values().collect(),
        }
    }
}

impl LatencyTable {
    /// Empty table for `device_name`.
    pub fn new(device_name: impl Into<String>) -> Self {
        LatencyTable {
            device_name: device_name.into(),
            entries: BTreeMap::new(),
        }
    }

    /// Build from a completed LATEST campaign, taking each pair's
    /// outlier-filtered latencies (selected through
    /// [`latest_core::view::LatencyView`]). Non-completed pairs are
    /// dropped; use [`LatencyTable::from_campaign_counting`] to see how
    /// many, and why.
    pub fn from_campaign(result: &CampaignResult) -> Self {
        Self::from_campaign_counting(result).0
    }

    /// Like [`LatencyTable::from_campaign`], but also reports every pair
    /// that did *not* make it into the table, classified by cause. Pairs
    /// with a memory clock are skipped and counted, never merged into the
    /// core-keyed cells.
    pub fn from_campaign_counting(result: &CampaignResult) -> (Self, SkippedPairs) {
        let mut table = LatencyTable::new(result.device_name.clone());
        let mut skipped = SkippedPairs::default();
        for pair in result.pairs() {
            if pair.init.has_mem() || pair.target.has_mem() {
                skipped.memory_plane += 1;
                continue;
            }
            match pair.outcome.kind() {
                OutcomeKind::Completed => {
                    match pair.analysis.as_ref().filter(|a| !a.inliers_ms.is_empty()) {
                        Some(a) => table.insert(PairLatency::new(
                            pair.init_mhz(),
                            pair.target_mhz(),
                            a.inliers_ms.clone(),
                        )),
                        None => skipped.empty_filtered += 1,
                    }
                }
                OutcomeKind::PowerLimited => skipped.power_limited += 1,
                OutcomeKind::Indistinguishable => skipped.indistinguishable += 1,
                OutcomeKind::RetriesExhausted => skipped.retries_exhausted += 1,
                OutcomeKind::Cancelled => skipped.cancelled += 1,
            }
        }
        (table, skipped)
    }

    /// Insert or replace one pair's record.
    pub fn insert(&mut self, pair: PairLatency) {
        self.entries.insert((pair.init_mhz, pair.target_mhz), pair);
    }

    /// Number of pairs with data.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record for `init → target`, if measured.
    pub fn pair(&self, init: FreqMhz, target: FreqMhz) -> Option<&PairLatency> {
        self.entries.get(&(init.0, target.0))
    }

    /// All measured pairs.
    pub fn pairs(&self) -> impl Iterator<Item = &PairLatency> {
        self.entries.values()
    }

    /// Expected (mean) latency of `init → target` in ms. `None` when the
    /// pair was never measured (a governor must then treat it as unknown,
    /// not as free).
    pub fn expected_ms(&self, init: FreqMhz, target: FreqMhz) -> Option<f64> {
        self.pair(init, target).map(PairLatency::mean_ms)
    }

    /// Median of all pair mean latencies — the table's "typical" cost.
    pub fn typical_ms(&self) -> Option<f64> {
        let mut means: Vec<f64> = self.entries.values().map(PairLatency::mean_ms).collect();
        if means.is_empty() {
            return None;
        }
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(means[means.len() / 2])
    }

    /// Whether `init → target` is *pathological*: its mean latency exceeds
    /// `factor` times the table's typical latency. These are the pairs the
    /// paper recommends a runtime system avoid.
    pub fn is_pathological(&self, init: FreqMhz, target: FreqMhz, factor: f64) -> bool {
        match (self.expected_ms(init, target), self.typical_ms()) {
            (Some(mean), Some(typical)) => mean > factor * typical,
            _ => false,
        }
    }

    /// All pathological pairs under `factor` (the avoid list).
    pub fn avoid_list(&self, factor: f64) -> Vec<(u32, u32)> {
        let Some(typical) = self.typical_ms() else {
            return Vec::new();
        };
        self.entries
            .values()
            .filter(|p| p.mean_ms() > factor * typical)
            .map(|p| (p.init_mhz, p.target_mhz))
            .collect()
    }

    /// Frequencies appearing as a target anywhere in the table, ascending.
    pub fn known_targets(&self) -> Vec<FreqMhz> {
        let mut targets: Vec<u32> = self.entries.keys().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        targets.dedup();
        targets.into_iter().map(FreqMhz).collect()
    }

    /// The cheapest measured alternative to `init → target` among targets
    /// within `±window_mhz` of the desired target (the desired pair
    /// included). Returns the chosen target and its expected latency.
    ///
    /// This is the table-driven detour a latency-aware governor takes when
    /// the straight transition is pathological: a neighbouring frequency
    /// with near-identical power/performance but an order of magnitude
    /// cheaper transition.
    pub fn cheapest_near(
        &self,
        init: FreqMhz,
        target: FreqMhz,
        window_mhz: u32,
    ) -> Option<(FreqMhz, f64)> {
        self.known_targets()
            .into_iter()
            .filter(|t| t.0.abs_diff(target.0) <= window_mhz)
            .filter_map(|t| self.expected_ms(init, t).map(|ms| (t, ms)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }

    /// Serialise to JSON (the deployment artefact a runtime system ships).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serialises")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Replayed transition cost: draw a latency from the measured sample of the
/// pair (uniformly, seeded), falling back to the table's typical latency
/// for pairs the campaign never measured.
#[derive(Clone, Debug)]
pub struct TransitionReplay {
    table: LatencyTable,
    rng: ChaCha8Rng,
    fallback_ms: f64,
}

impl TransitionReplay {
    /// Build a replay source from a measured table.
    pub fn new(table: LatencyTable, seed: u64) -> Self {
        let fallback_ms = table.typical_ms().unwrap_or(10.0);
        TransitionReplay {
            table,
            rng: ChaCha8Rng::seed_from_u64(seed),
            fallback_ms,
        }
    }

    /// The table latencies are drawn from.
    pub fn table(&self) -> &LatencyTable {
        &self.table
    }

    /// Draw the latency of one `init → target` transition (ms).
    pub fn draw_ms(&mut self, init: FreqMhz, target: FreqMhz) -> f64 {
        match self.table.pair(init, target) {
            Some(p) if !p.latencies_ms.is_empty() => {
                let idx = self.rng.gen_range(0..p.latencies_ms.len());
                p.latencies_ms[idx]
            }
            _ => self.fallback_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> LatencyTable {
        let mut t = LatencyTable::new("TestGPU");
        t.insert(PairLatency::new(1000, 1500, vec![5.0, 5.5, 6.0, 5.2]));
        t.insert(PairLatency::new(1500, 1000, vec![4.0, 4.2, 4.1]));
        t.insert(PairLatency::new(1000, 1200, vec![200.0, 210.0, 190.0]));
        t.insert(PairLatency::new(1500, 1200, vec![150.0, 160.0]));
        t.insert(PairLatency::new(1200, 1000, vec![5.0, 5.1]));
        t
    }

    #[test]
    fn mean_and_quantiles_on_sorted_sample() {
        let p = PairLatency::new(1000, 1500, vec![6.0, 5.0, 7.0, 8.0]);
        assert_eq!(p.latencies_ms, vec![5.0, 6.0, 7.0, 8.0]);
        assert!((p.mean_ms() - 6.5).abs() < 1e-12);
        assert_eq!(p.quantile_ms(0.0), 5.0);
        assert_eq!(p.quantile_ms(1.0), 8.0);
        assert_eq!(p.quantile_ms(0.5), 7.0); // nearest rank on 4 samples
    }

    #[test]
    fn pathological_pairs_detected_against_typical() {
        let t = sample_table();
        // typical (median of means) is ~5.05; the 1000->1200 pair at 200 ms
        // is pathological under any reasonable factor.
        assert!(t.is_pathological(FreqMhz(1000), FreqMhz(1200), 10.0));
        assert!(!t.is_pathological(FreqMhz(1000), FreqMhz(1500), 10.0));
        let avoid = t.avoid_list(10.0);
        assert!(avoid.contains(&(1000, 1200)));
        assert!(avoid.contains(&(1500, 1200)));
        assert_eq!(avoid.len(), 2);
    }

    #[test]
    fn unknown_pair_is_none_not_zero() {
        let t = sample_table();
        assert_eq!(t.expected_ms(FreqMhz(1200), FreqMhz(1500)), None);
    }

    #[test]
    fn cheapest_near_takes_the_detour() {
        let t = sample_table();
        // Straight 1000->1200 costs ~200 ms; the 1500 target is outside a
        // 100 MHz window, so the detour is not available...
        let (choice, ms) = t.cheapest_near(FreqMhz(1000), FreqMhz(1200), 100).unwrap();
        assert_eq!(choice, FreqMhz(1200));
        assert!(ms > 100.0);
        // ...but a 300 MHz window admits 1500 at ~5.4 ms.
        let (choice, ms) = t.cheapest_near(FreqMhz(1000), FreqMhz(1200), 300).unwrap();
        assert_eq!(choice, FreqMhz(1500));
        assert!(ms < 10.0);
    }

    #[test]
    fn json_round_trip() {
        let t = sample_table();
        let parsed = LatencyTable::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert_eq!(
            parsed.expected_ms(FreqMhz(1000), FreqMhz(1500)),
            t.expected_ms(FreqMhz(1000), FreqMhz(1500))
        );
        assert_eq!(parsed.device_name, "TestGPU");
    }

    #[test]
    fn empty_table_has_no_typical_or_avoid_list() {
        let t = LatencyTable::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.typical_ms(), None);
        assert!(t.avoid_list(2.0).is_empty());
        assert!(!t.is_pathological(FreqMhz(1), FreqMhz(2), 2.0));
    }

    #[test]
    fn replay_draws_from_the_measured_sample() {
        let mut table = LatencyTable::new("x");
        table.insert(PairLatency::new(1000, 2000, vec![3.0, 7.0, 11.0]));
        let mut replay = TransitionReplay::new(table, 5);
        for _ in 0..50 {
            let d = replay.draw_ms(FreqMhz(1000), FreqMhz(2000));
            assert!([3.0, 7.0, 11.0].contains(&d));
        }
        // Unmeasured pair: fall back to the typical latency (median of
        // means = 7.0).
        let d = replay.draw_ms(FreqMhz(2000), FreqMhz(1000));
        assert!((d - 7.0).abs() < 1e-9);
    }

    #[test]
    fn replay_is_deterministic_per_seed_and_differs_across_seeds() {
        let mut table = LatencyTable::new("x");
        table.insert(PairLatency::new(
            1000,
            2000,
            (0..64).map(f64::from).collect(),
        ));
        let draw = |seed: u64| -> Vec<f64> {
            let mut replay = TransitionReplay::new(table.clone(), seed);
            (0..32)
                .map(|_| replay.draw_ms(FreqMhz(1000), FreqMhz(2000)))
                .collect()
        };
        assert_eq!(draw(11), draw(11), "same seed must replay identically");
        assert_ne!(draw(11), draw(12), "reseeding must change the stream");
    }

    #[test]
    fn absent_pair_always_falls_back_without_consuming_randomness() {
        let mut table = LatencyTable::new("x");
        table.insert(PairLatency::new(1000, 2000, vec![3.0, 7.0, 11.0]));
        // Interleave absent-pair draws between measured draws: the measured
        // stream must be unchanged versus drawing them back to back,
        // because fallback draws consume no RNG state.
        let plain: Vec<f64> = {
            let mut r = TransitionReplay::new(table.clone(), 6);
            (0..16)
                .map(|_| r.draw_ms(FreqMhz(1000), FreqMhz(2000)))
                .collect()
        };
        let interleaved: Vec<f64> = {
            let mut r = TransitionReplay::new(table.clone(), 6);
            (0..16)
                .map(|_| {
                    let absent = r.draw_ms(FreqMhz(9999), FreqMhz(1));
                    assert!((absent - 7.0).abs() < 1e-9, "fallback is typical_ms");
                    r.draw_ms(FreqMhz(1000), FreqMhz(2000))
                })
                .collect()
        };
        assert_eq!(plain, interleaved);
        // Empty table: the fallback falls back again, to a fixed constant.
        let mut empty = TransitionReplay::new(LatencyTable::new("none"), 6);
        assert!((empty.draw_ms(FreqMhz(1), FreqMhz(2)) - 10.0).abs() < 1e-9);
    }
}
