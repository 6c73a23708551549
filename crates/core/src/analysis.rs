//! Per-pair measurement analysis (Sec. V-C): adaptive DBSCAN outlier
//! filtering, cluster census and silhouette validation.

use latest_cluster::{adaptive_outlier_filter, silhouette_score_1d, AdaptiveConfig};
use latest_stats::Summary;

/// The analysed view of one pair's latency dataset.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PairAnalysis {
    /// Latencies that survived the outlier filter (all of them when the
    /// dataset was too small/degenerate to cluster).
    pub inliers_ms: Vec<f64>,
    /// Latencies flagged as outliers.
    pub outliers_ms: Vec<f64>,
    /// Number of DBSCAN clusters among the inliers (1 when unfiltered).
    pub n_clusters: usize,
    /// Silhouette score, defined only when 2+ clusters exist.
    pub silhouette: Option<f64>,
    /// Summary over the raw dataset.
    pub raw: Summary,
    /// Summary over the inliers.
    pub filtered: Summary,
    /// Whether the adaptive loop converged (outlier ratio <= 10 %).
    pub converged: bool,
}

impl PairAnalysis {
    /// Outlier fraction of the raw dataset.
    pub fn outlier_ratio(&self) -> f64 {
        let n = self.inliers_ms.len() + self.outliers_ms.len();
        if n == 0 {
            0.0
        } else {
            self.outliers_ms.len() as f64 / n as f64
        }
    }
}

/// Analyse one pair's latencies with Algorithm 3 (paper defaults unless
/// `config` overrides them).
pub fn analyze_pair(latencies_ms: &[f64], config: &AdaptiveConfig) -> PairAnalysis {
    let raw = Summary::of(latencies_ms);
    match adaptive_outlier_filter(latencies_ms, config) {
        Some(outcome) => {
            let inliers = outcome.inliers(latencies_ms);
            let outliers = outcome.outliers(latencies_ms);
            let silhouette = silhouette_score_1d(latencies_ms, &outcome.labeling);
            PairAnalysis {
                filtered: Summary::of(&inliers),
                inliers_ms: inliers,
                outliers_ms: outliers,
                n_clusters: outcome.labeling.n_clusters,
                silhouette,
                raw,
                converged: outcome.converged,
            }
        }
        None => PairAnalysis {
            inliers_ms: latencies_ms.to_vec(),
            outliers_ms: Vec::new(),
            n_clusters: 1,
            silhouette: None,
            raw,
            filtered: raw,
            converged: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outliers_are_removed_from_filtered_summary() {
        let mut data: Vec<f64> = (0..200).map(|i| 15.0 + (i % 10) as f64 * 0.05).collect();
        data.extend([300.0, 450.0, 520.0]);
        let a = analyze_pair(&data, &AdaptiveConfig::default());
        assert_eq!(a.outliers_ms.len(), 3);
        assert!(a.filtered.max < 20.0);
        assert!(a.raw.max > 500.0);
        assert!(a.converged);
        assert!(a.outlier_ratio() < 0.02);
    }

    #[test]
    fn multi_cluster_silhouette_reported() {
        let mut data = Vec::new();
        for c in 0..3 {
            let base = 20.0 + c as f64 * 80.0;
            for i in 0..80 {
                data.push(base + (i % 7) as f64 * 0.1);
            }
        }
        let a = analyze_pair(&data, &AdaptiveConfig::default());
        assert_eq!(a.n_clusters, 3);
        let s = a.silhouette.expect("defined for 2+ clusters");
        assert!(s > 0.4, "silhouette {s} below the paper's floor");
    }

    #[test]
    fn non_finite_sample_passes_through_unfiltered() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data: Vec<f64> = (0..200).map(|i| 15.0 + (i % 10) as f64 * 0.05).collect();
            data.extend([300.0, bad, 520.0]);
            let a = analyze_pair(&data, &AdaptiveConfig::default());
            assert_eq!(a.inliers_ms.len(), data.len(), "{bad} sample");
            assert!(a.outliers_ms.is_empty());
            assert_eq!(a.n_clusters, 1);
            assert!(a.silhouette.is_none());
            assert!(a.converged);
        }
    }

    #[test]
    fn tiny_dataset_passes_through() {
        let data = [5.0, 5.1, 5.2];
        let a = analyze_pair(&data, &AdaptiveConfig::default());
        assert_eq!(a.inliers_ms.len(), 3);
        assert!(a.outliers_ms.is_empty());
        assert_eq!(a.n_clusters, 1);
        assert!(a.silhouette.is_none());
    }
}
