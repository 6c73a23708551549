//! Campaign-to-campaign comparison: per-pair latency deltas with
//! Mann–Whitney significance.
//!
//! The archive makes runs durable; [`CampaignDiff`] makes them comparable.
//! Given two campaign results (a baseline `A` and a candidate `B`), it
//! pairs up their common frequency transitions, tests each pair's
//! outlier-filtered latency samples with the distribution-free
//! Mann–Whitney U test
//! ([`latest_stats::hypothesis::mann_whitney_u`]), and classifies every
//! significant mean increase as a **regression** (and decrease as an
//! improvement). The rendered views — a signed delta heatmap and a
//! per-pair regression table — drive `latest diff`, whose exit code turns
//! a significant regression into a CI failure.

use latest_core::view::LatencyView;
use latest_core::{CampaignResult, FreqState};
use latest_stats::hypothesis::mann_whitney_u;

use crate::heatmap::Heatmap;
use crate::table::TextTable;

/// One frequency pair's latency change between two campaigns.
#[derive(Clone, Debug)]
pub struct PairDelta {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// Mean filtered latency in run A (ms).
    pub mean_a_ms: f64,
    /// Mean filtered latency in run B (ms).
    pub mean_b_ms: f64,
    /// `mean_b_ms − mean_a_ms`: positive = B is slower.
    pub delta_ms: f64,
    /// Two-sided Mann–Whitney p-value; `None` when either sample was too
    /// small to test.
    pub p_value: Option<f64>,
    /// Whether the samples differ significantly at the diff's alpha.
    pub significant: bool,
}

impl PairDelta {
    /// A significant slowdown in B relative to A.
    pub fn is_regression(&self) -> bool {
        self.significant && self.delta_ms > 0.0
    }

    /// A significant speedup in B relative to A.
    pub fn is_improvement(&self) -> bool {
        self.significant && self.delta_ms < 0.0
    }
}

/// The comparison of two campaigns, pair by pair.
#[derive(Clone, Debug)]
pub struct CampaignDiff {
    /// Device of run A (the baseline).
    pub device_a: String,
    /// Device of run B (the candidate).
    pub device_b: String,
    /// Significance level the per-pair tests used.
    pub alpha: f64,
    /// Deltas for every pair completed in both runs, in A's schedule order.
    pub deltas: Vec<PairDelta>,
    /// Pairs completed only in A.
    pub only_in_a: Vec<(u32, u32)>,
    /// Pairs completed only in B.
    pub only_in_b: Vec<(u32, u32)>,
}

impl CampaignDiff {
    /// Compare two campaign results at **family-wise** significance level
    /// `alpha` (conventionally 0.05).
    ///
    /// A campaign diff runs one Mann–Whitney test per common pair — dozens
    /// of tests for a heatmap-shaped campaign — so raw per-test alpha
    /// would flag a false regression in most diffs of identical code
    /// (1 − 0.95³⁰ ≈ 0.79 for 30 pairs). Significance is therefore
    /// decided by the Holm–Bonferroni step-down over the whole family of
    /// pair tests, which controls the probability of *any* false
    /// significant pair at `alpha` while staying more powerful than plain
    /// Bonferroni. The recorded [`PairDelta::p_value`]s stay raw
    /// (uncorrected) for transparency.
    pub fn between(a: &CampaignResult, b: &CampaignResult, alpha: f64) -> CampaignDiff {
        let view_a = LatencyView::of(a).completed();
        let view_b = LatencyView::of(b).completed();
        let mut deltas = Vec::new();
        let mut only_in_a = Vec::new();
        for pa in view_a.pairs() {
            let Some(xs_a) = pa.filtered_ms() else {
                continue;
            };
            let (init, target) = (pa.init_mhz(), pa.target_mhz());
            let Some(xs_b) = view_b
                .pair(FreqState::core_mhz(init), FreqState::core_mhz(target))
                .and_then(|p| p.filtered_ms())
            else {
                only_in_a.push((init, target));
                continue;
            };
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let (mean_a, mean_b) = (mean(xs_a), mean(xs_b));
            let test = mann_whitney_u(xs_a, xs_b, alpha);
            deltas.push(PairDelta {
                init_mhz: init,
                target_mhz: target,
                mean_a_ms: mean_a,
                mean_b_ms: mean_b,
                delta_ms: mean_b - mean_a,
                p_value: test.as_ref().map(|t| t.p_value),
                significant: false, // decided below, family-wise
            });
        }
        holm_mark_significant(&mut deltas, alpha);
        let only_in_b = view_b
            .pairs()
            .filter(|p| p.filtered_ms().is_some())
            .map(|p| (p.init_mhz(), p.target_mhz()))
            .filter(|&(i, t)| {
                view_a
                    .pair(FreqState::core_mhz(i), FreqState::core_mhz(t))
                    .and_then(|p| p.filtered_ms())
                    .is_none()
            })
            .collect();
        CampaignDiff {
            device_a: a.device_name.clone(),
            device_b: b.device_name.clone(),
            alpha,
            deltas,
            only_in_a,
            only_in_b,
        }
    }

    /// Every significant regression (B slower than A).
    pub fn regressions(&self) -> impl Iterator<Item = &PairDelta> {
        self.deltas.iter().filter(|d| d.is_regression())
    }

    /// Pairs the baseline measured that the candidate could not — B lost
    /// the ability to measure a transition, which gates like a regression
    /// (`latest diff` exits non-zero on these too).
    pub fn lost_pairs(&self) -> &[(u32, u32)] {
        &self.only_in_a
    }

    /// Every significant improvement (B faster than A).
    pub fn improvements(&self) -> impl Iterator<Item = &PairDelta> {
        self.deltas.iter().filter(|d| d.is_improvement())
    }

    /// Number of significant regressions — `latest diff` exits non-zero
    /// when this is positive.
    pub fn significant_regressions(&self) -> usize {
        self.regressions().count()
    }

    /// The signed per-pair delta heatmap (initial frequency in rows, target
    /// in columns; positive cells = B slower).
    pub fn delta_heatmap(&self) -> Heatmap {
        let mut freqs: Vec<u32> = self
            .deltas
            .iter()
            .flat_map(|d| [d.init_mhz, d.target_mhz])
            .collect();
        freqs.sort_unstable();
        freqs.dedup();
        let mut hm = Heatmap::new(
            freqs.iter().map(|f| f.to_string()).collect(),
            freqs.iter().map(|f| f.to_string()).collect(),
        )
        .with_title(format!(
            "mean switching-latency delta [ms] ({} -> {})",
            self.device_a, self.device_b
        ));
        for d in &self.deltas {
            let row = freqs.binary_search(&d.init_mhz).expect("freq indexed");
            let col = freqs.binary_search(&d.target_mhz).expect("freq indexed");
            hm.set(row, col, Some(d.delta_ms));
        }
        hm
    }

    /// The per-pair regression table: coordinates, means, delta, p-value
    /// and verdict for every common pair, plus a row per one-sided pair.
    pub fn regression_table(&self) -> TextTable {
        let mut table = TextTable::with_header(&[
            "init[MHz]",
            "target[MHz]",
            "mean A[ms]",
            "mean B[ms]",
            "delta[ms]",
            "p-value",
            "verdict",
        ])
        .titled(format!(
            "per-pair latency deltas, alpha {} ({} -> {})",
            self.alpha, self.device_a, self.device_b
        ));
        for d in &self.deltas {
            let verdict = if d.is_regression() {
                "REGRESSION"
            } else if d.is_improvement() {
                "improvement"
            } else {
                "unchanged"
            };
            table.row(&[
                d.init_mhz.to_string(),
                d.target_mhz.to_string(),
                format!("{:.3}", d.mean_a_ms),
                format!("{:.3}", d.mean_b_ms),
                format!("{:+.3}", d.delta_ms),
                d.p_value.map_or("-".to_string(), |p| format!("{p:.4}")),
                verdict.to_string(),
            ]);
        }
        let one_sided = |pairs: &[(u32, u32)], verdict: &str, table: &mut TextTable| {
            for &(init, target) in pairs {
                table.row(&[
                    init.to_string(),
                    target.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    verdict.to_string(),
                ]);
            }
        };
        one_sided(&self.only_in_a, "only in A", &mut table);
        one_sided(&self.only_in_b, "only in B", &mut table);
        table
    }
}

/// Holm–Bonferroni step-down: sort the testable deltas by raw p-value
/// ascending and reject H0 for the k-th smallest (0-based) while
/// `p ≤ alpha / (m − k)`; the first failure stops the walk. Controls the
/// family-wise error rate at `alpha`.
fn holm_mark_significant(deltas: &mut [PairDelta], alpha: f64) {
    let mut order: Vec<usize> = (0..deltas.len())
        .filter(|&i| deltas[i].p_value.is_some())
        .collect();
    let m = order.len();
    order.sort_by(|&i, &j| {
        deltas[i]
            .p_value
            .expect("filtered")
            .total_cmp(&deltas[j].p_value.expect("filtered"))
    });
    for (k, &i) in order.iter().enumerate() {
        let p = deltas[i].p_value.expect("filtered");
        if p <= alpha / (m - k) as f64 {
            deltas[i].significant = true;
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};
    use crate::testing::fixed_a100_run;
    use latest_core::CampaignSpec;

    fn run(seed: u64, latency_ms: u64) -> CampaignResult {
        fixed_a100_run(
            latency_ms,
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .measurements(8, 16)
                .simulated_sms(Some(2))
                .seed(seed),
        )
    }

    #[test]
    fn identical_runs_have_no_significant_deltas() {
        let a = run(5, 8);
        let diff = CampaignDiff::between(&a, &a, 0.05);
        assert_eq!(diff.deltas.len(), 2);
        assert_eq!(diff.significant_regressions(), 0);
        assert_eq!(diff.improvements().count(), 0);
        for d in &diff.deltas {
            assert_eq!(d.delta_ms, 0.0);
            assert!(!d.significant);
        }
        assert!(diff.only_in_a.is_empty() && diff.only_in_b.is_empty());
    }

    #[test]
    fn slower_device_shows_regressions() {
        let a = run(5, 8);
        let b = run(5, 24);
        let diff = CampaignDiff::between(&a, &b, 0.05);
        assert!(diff.significant_regressions() > 0);
        assert!(diff.deltas.iter().all(|d| d.delta_ms > 10.0));
        // And the reverse direction reports improvements instead.
        let reverse = CampaignDiff::between(&b, &a, 0.05);
        assert_eq!(reverse.significant_regressions(), 0);
        assert!(reverse.improvements().count() > 0);
    }

    #[test]
    fn rendered_views_carry_the_verdicts() {
        let a = run(9, 8);
        let b = run(9, 24);
        let diff = CampaignDiff::between(&a, &b, 0.05);
        let table = diff.regression_table().render(Format::Text);
        assert!(table.contains("REGRESSION"));
        let hm = diff.delta_heatmap();
        assert_eq!(hm.n_rows(), 2);
        let (_, _, min) = hm.min_cell().unwrap();
        assert!(min > 0.0, "all deltas positive, min {min}");
        assert!(hm.title().contains("delta"));
    }

    #[test]
    fn disjoint_pairs_are_reported_not_tested() {
        let run = |mhz: &[u32]| {
            fixed_a100_run(
                8,
                CampaignSpec::builder("fixed")
                    .frequencies_mhz(mhz)
                    .measurements(6, 10)
                    .simulated_sms(Some(2))
                    .seed(3),
            )
        };
        let a = run(&[705, 1410]);
        let b = run(&[705, 1095]);
        let diff = CampaignDiff::between(&a, &b, 0.05);
        assert!(diff.deltas.is_empty());
        assert_eq!(diff.only_in_a.len(), 2);
        assert_eq!(diff.lost_pairs().len(), 2);
        assert_eq!(diff.only_in_b.len(), 2);
        let rendered = diff.regression_table().render(Format::Text);
        assert!(rendered.contains("only in A") && rendered.contains("only in B"));
    }

    fn delta_with_p(p: Option<f64>) -> PairDelta {
        PairDelta {
            init_mhz: 1,
            target_mhz: 2,
            mean_a_ms: 1.0,
            mean_b_ms: 2.0,
            delta_ms: 1.0,
            p_value: p,
            significant: false,
        }
    }

    #[test]
    fn holm_controls_the_family_wise_rate() {
        // 20 tests with p = 0.04 each: every one passes a raw 0.05
        // threshold, none survives Holm (0.04 > 0.05/20).
        let mut uniform: Vec<PairDelta> = (0..20).map(|_| delta_with_p(Some(0.04))).collect();
        holm_mark_significant(&mut uniform, 0.05);
        assert!(uniform.iter().all(|d| !d.significant));

        // One overwhelming effect among nulls survives; the step-down then
        // admits a second moderate one at the relaxed threshold.
        let mut mixed = vec![
            delta_with_p(Some(0.9)),
            delta_with_p(Some(1e-9)),
            delta_with_p(Some(0.012)),
        ];
        holm_mark_significant(&mut mixed, 0.05);
        assert!(!mixed[0].significant);
        assert!(mixed[1].significant); // 1e-9 <= 0.05/3
        assert!(mixed[2].significant); // 0.012 <= 0.05/2
                                       // Untestable pairs are ignored, not counted in the family size.
        let mut with_none = vec![delta_with_p(None), delta_with_p(Some(0.04))];
        holm_mark_significant(&mut with_none, 0.05);
        assert!(!with_none[0].significant);
        assert!(with_none[1].significant); // m = 1, threshold 0.05
    }
}
