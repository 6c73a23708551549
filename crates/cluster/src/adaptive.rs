//! Algorithm 3: iterative DBSCAN outlier detection with adaptive parameters.
//!
//! The paper's adaptive loop:
//!
//! ```text
//! Input : data, m
//! start = ceil(0.04 * dataset.len());
//! end   = floor(0.02 * dataset.len());
//! for i = start; i > end; i = i - 2 do
//!     r = mult * quantile_range(data, 0.05, 0.95);
//!     dbscan = DBSCAN(eps = r, minPts = i);
//!     dbscan.fit(data);
//!     noiseRatio = |noise| / |data|;
//!     if noiseRatio > 0.1 then continue;
//!     break;
//! ```
//!
//! `minPts` walks from 4 % down to 2 % of the dataset in steps of two,
//! halting as soon as fewer than 10 % of the measurements are flagged as
//! outliers (larger flagged fractions are considered "false outliers").
//! The experimental setup in Sec. VII used minPts 8→15 decreasing by 2 and
//! `mult = 0.15`, which this module reproduces as defaults for the paper's
//! dataset sizes (a few hundred measurements per pair).

use crate::dbscan::{Dbscan, Labeling};
use latest_stats::quantile_range;

/// Configuration for the adaptive filter.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Multiplier `m` applied to the 0.05–0.95 quantile range to obtain eps
    /// (0.15 in the paper's experiments).
    pub eps_multiplier: f64,
    /// Upper minPts bound as a fraction of the dataset (0.04 in Alg. 3).
    pub min_pts_hi_frac: f64,
    /// Lower minPts bound as a fraction of the dataset (0.02 in Alg. 3).
    pub min_pts_lo_frac: f64,
    /// Acceptable outlier fraction (0.10 in Alg. 3).
    pub max_noise_ratio: f64,
    /// Step by which minPts decreases (2 in Alg. 3).
    pub min_pts_step: usize,
    /// Hard floor for minPts: the "dimensionality + 1" DBSCAN guideline, and
    /// a guard for tiny datasets where 2 % rounds to zero.
    pub min_pts_floor: usize,
    /// When the minPts descent alone cannot reach `max_noise_ratio` (on
    /// small datasets the 2–4 % bounds collapse onto the floor and leave a
    /// single attempt), eps is widened by this factor and the descent
    /// re-run. Algorithm 3's stated goal is the noise target; widening the
    /// neighbourhood is the standard DBSCAN lever left once minPts is
    /// exhausted.
    pub eps_growth: f64,
    /// Maximum eps-widening rounds after the initial one (0 disables).
    pub max_eps_rounds: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            eps_multiplier: 0.15,
            min_pts_hi_frac: 0.04,
            min_pts_lo_frac: 0.02,
            max_noise_ratio: 0.10,
            min_pts_step: 2,
            min_pts_floor: 4,
            eps_growth: 1.5,
            max_eps_rounds: 4,
        }
    }
}

/// Result of the adaptive outlier filter.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// The accepted labeling (last DBSCAN run).
    pub labeling: Labeling,
    /// The eps actually used.
    pub eps: f64,
    /// The minPts of the accepted run.
    pub min_pts: usize,
    /// Whether the loop found a run meeting the noise-ratio target (if false,
    /// the returned labeling is the final attempt and callers should treat
    /// the dataset as pathological).
    pub converged: bool,
    /// Number of DBSCAN runs performed.
    pub attempts: usize,
}

impl AdaptiveOutcome {
    /// The inlier (non-noise) values, in input order.
    pub fn inliers(&self, data: &[f64]) -> Vec<f64> {
        data.iter()
            .zip(&self.labeling.labels)
            .filter(|(_, l)| !l.is_noise())
            .map(|(&x, _)| x)
            .collect()
    }

    /// The outlier values, in input order.
    pub fn outliers(&self, data: &[f64]) -> Vec<f64> {
        data.iter()
            .zip(&self.labeling.labels)
            .filter(|(_, l)| l.is_noise())
            .map(|(&x, _)| x)
            .collect()
    }
}

/// Run Algorithm 3 on a switching-latency dataset.
///
/// Returns `None` for datasets too small to cluster meaningfully (fewer than
/// `2 * min_pts_floor` points), holding a non-finite sample (NaN or ±∞), or
/// with a degenerate (zero or non-finite) quantile range, in which case
/// callers keep all measurements.
pub fn adaptive_outlier_filter(data: &[f64], config: &AdaptiveConfig) -> Option<AdaptiveOutcome> {
    let n = data.len();
    if n < config.min_pts_floor * 2 || !data.iter().all(|x| x.is_finite()) {
        return None;
    }
    let range = quantile_range(data, 0.05, 0.95);
    if !range.is_finite() || range <= 0.0 {
        return None;
    }
    let base_eps = config.eps_multiplier * range;

    let start = ((config.min_pts_hi_frac * n as f64).ceil() as usize).max(config.min_pts_floor);
    let end = ((config.min_pts_lo_frac * n as f64).floor() as usize).max(config.min_pts_floor - 1);

    // Eps widening only applies where the minPts descent is degenerate —
    // small datasets whose 2-4 % bounds collapse onto the floor, leaving it
    // one or two attempts. On large datasets the descent has real room, and
    // widening eps there could merge legitimately distinct latency clusters
    // (the tight multi-modal structure of Fig. 5 survives precisely because
    // eps stays at 0.15 x the quantile range).
    let descent_degenerate = start <= config.min_pts_floor + config.min_pts_step;
    let eps_rounds = if descent_degenerate {
        config.max_eps_rounds
    } else {
        0
    };

    let mut attempts = 0usize;
    let mut last: Option<(Labeling, usize, f64)> = None;
    let mut eps = base_eps;
    for round in 0..=eps_rounds {
        if round > 0 {
            eps *= config.eps_growth.max(1.0 + f64::EPSILON);
        }
        let mut min_pts = start;
        // `for i = start; i > end; i -= step`, with a floor guard.
        while min_pts > end && min_pts >= config.min_pts_floor {
            let labeling = Dbscan::new(eps, min_pts).fit_1d(data);
            attempts += 1;
            if labeling.noise_ratio() <= config.max_noise_ratio {
                return Some(AdaptiveOutcome {
                    labeling,
                    eps,
                    min_pts,
                    converged: true,
                    attempts,
                });
            }
            last = Some((labeling, min_pts, eps));
            if min_pts < config.min_pts_step {
                break;
            }
            min_pts -= config.min_pts_step;
        }
    }

    last.map(|(labeling, min_pts, eps)| AdaptiveOutcome {
        labeling,
        eps,
        min_pts,
        converged: false,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A paper-like dataset: one dominant latency cluster, a secondary mode,
    /// and a few percent of extreme outliers.
    fn latency_like(n_main: usize, n_secondary: usize, n_outliers: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..n_main {
            v.push(15.0 + ((i * 37) % 100) as f64 * 0.01);
        }
        for i in 0..n_secondary {
            v.push(21.0 + ((i * 53) % 100) as f64 * 0.01);
        }
        for i in 0..n_outliers {
            v.push(200.0 + (i as f64) * 45.0);
        }
        v
    }

    #[test]
    fn paper_defaults_on_typical_pair_dataset() {
        // ~300 measurements as in "several hundreds of switching latency
        // measurements" per pair.
        let data = latency_like(270, 25, 5);
        let out = adaptive_outlier_filter(&data, &AdaptiveConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.labeling.noise_ratio() <= 0.10);
        // The extreme values must be flagged.
        let outliers = out.outliers(&data);
        assert!(outliers.len() >= 5, "outliers: {outliers:?}");
        assert!(outliers.iter().all(|&x| x >= 200.0));
        // minPts within the paper's reported adaptive window for n = 300:
        // ceil(0.04*300) = 12 down to floor(0.02*300) = 6.
        assert!((6..=12).contains(&out.min_pts), "min_pts = {}", out.min_pts);
    }

    #[test]
    fn clean_dataset_flags_nothing() {
        let data = latency_like(300, 0, 0);
        let out = adaptive_outlier_filter(&data, &AdaptiveConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.labeling.noise_count(), 0);
        assert_eq!(out.inliers(&data).len(), data.len());
        // Should accept on the very first attempt.
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn multi_cluster_pairs_are_preserved() {
        // GH200-style: several separated latency clusters, all legitimate.
        let mut data = Vec::new();
        for c in 0..5 {
            let base = 10.0 + c as f64 * 60.0;
            for i in 0..60 {
                data.push(base + ((i * 31) % 50) as f64 * 0.02);
            }
        }
        let out = adaptive_outlier_filter(&data, &AdaptiveConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.labeling.n_clusters, 5);
        assert!(out.labeling.noise_ratio() <= 0.10);
    }

    #[test]
    fn tiny_dataset_returns_none() {
        assert!(adaptive_outlier_filter(&[1.0, 2.0, 3.0], &AdaptiveConfig::default()).is_none());
    }

    #[test]
    fn degenerate_constant_dataset_returns_none() {
        let data = vec![5.0; 100];
        assert!(adaptive_outlier_filter(&data, &AdaptiveConfig::default()).is_none());
    }

    #[test]
    fn non_finite_sample_returns_none() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = latency_like(270, 25, 5);
            data[100] = bad;
            assert!(
                adaptive_outlier_filter(&data, &AdaptiveConfig::default()).is_none(),
                "{bad} sample"
            );
        }
    }

    #[test]
    fn nonconvergent_dataset_reports_converged_false() {
        // Uniformly spread data at a scale where eps = 0.15 * range creates
        // fragmented neighbourhoods: force minPts high via config so nothing
        // clusters.
        let data: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        let config = AdaptiveConfig {
            eps_multiplier: 0.001,
            ..AdaptiveConfig::default()
        };
        let out = adaptive_outlier_filter(&data, &config).unwrap();
        assert!(!out.converged);
        assert_eq!(out.labeling.noise_ratio(), 1.0);
        assert!(out.attempts >= 1);
    }

    #[test]
    fn outlier_plus_inlier_partition_is_total() {
        let data = latency_like(200, 40, 8);
        let out = adaptive_outlier_filter(&data, &AdaptiveConfig::default()).unwrap();
        assert_eq!(
            out.inliers(&data).len() + out.outliers(&data).len(),
            data.len()
        );
    }
}
