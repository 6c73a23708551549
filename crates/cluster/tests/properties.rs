//! Property-based tests for the clustering substrate (DBSCAN, silhouette,
//! the Algorithm-3 adaptive filter).

use latest_cluster::{adaptive_outlier_filter, silhouette_score_1d, AdaptiveConfig, Dbscan, Label};
use proptest::prelude::*;
use std::time::Instant;

/// Latency-like positive data: a dense cluster with optional spread.
fn clustered(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(10.0..12.0f64, min_len..150)
}

fn arbitrary(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0e4f64, min_len..150)
}

/// Longest dataset [`grid`] builds: 29 steps of at most 4 copies.
const GRID_MAX: usize = 116;

/// Sorted integer-grid data built as steps `(gap kind, copies)`. The gap to
/// the previous value is 0 (duplicates), 1, exactly ε, ε + 1, 2ε (a lone
/// point there sits within ε of two clusters) or 3ε. Integer values and ε
/// keep `fit_euclidean`'s squared distances exact.
fn grid(eps: u32, steps: &[(u32, usize)]) -> Vec<f64> {
    let mut x = 0u32;
    let mut data = Vec::new();
    for &(kind, copies) in steps {
        x += [0, 1, eps, eps + 1, 2 * eps, 3 * eps][kind as usize];
        data.extend(std::iter::repeat_n(x as f64, copies));
    }
    data
}

/// Wall time of one call of `f`, in seconds.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Quadrupling a dense dataset must not cost 16× as it would in a quadratic
/// clusterer: the sort is O(n log n) and the sweeps O(n), so about 4×.
#[test]
fn fit_1d_scales_linearly_on_dense_data() {
    // A shuffled 0..n with ε = n/2: every neighbourhood holds at least
    // half of the points.
    let dense = |n: usize| -> Vec<f64> { (0..n).map(|i| (i * 2_654_435_761 % n) as f64).collect() };
    let fit = |data: &[f64]| {
        // Ten fits per sample keep each sample well above timer noise.
        for _ in 0..10 {
            let labeling = Dbscan::new(data.len() as f64 / 2.0, 4).fit_1d(data);
            assert_eq!(labeling.n_clusters, 1);
        }
    };
    let (small, large) = (dense(2_000), dense(8_000));
    let (mut t_small, mut t_large) = (Vec::new(), Vec::new());
    // Interleave the sizes so that a burst of load on the host hits both.
    for _ in 0..7 {
        t_small.push(secs(|| fit(&small)));
        t_large.push(secs(|| fit(&large)));
    }
    let ratio = median(t_large) / median(t_small);
    assert!(
        ratio < 8.0,
        "8k/2k fit_1d time ratio {ratio:.1}, want about 4"
    );
}

proptest! {
    // --- DBSCAN -------------------------------------------------------------

    #[test]
    fn labels_partition_the_data(xs in arbitrary(1), eps in 0.1..100.0f64, min_pts in 1usize..10) {
        let labeling = Dbscan::new(eps, min_pts).fit_1d(&xs);
        prop_assert_eq!(labeling.labels.len(), xs.len());
        // Every point is either noise or belongs to a valid cluster id.
        for l in &labeling.labels {
            match l {
                Label::Noise => {}
                Label::Cluster(c) => prop_assert!(*c < labeling.n_clusters),
            }
        }
        // Every advertised cluster is non-empty.
        let sizes = labeling.cluster_sizes();
        prop_assert_eq!(sizes.len(), labeling.n_clusters);
        for s in sizes {
            prop_assert!(s > 0);
        }
    }

    #[test]
    fn huge_eps_yields_single_cluster(xs in arbitrary(3)) {
        // With eps spanning the whole data range and min_pts = 2, all points
        // are mutually reachable: one cluster, zero noise.
        let span = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        let labeling = Dbscan::new(span + 1.0, 2).fit_1d(&xs);
        prop_assert_eq!(labeling.n_clusters, 1);
        prop_assert_eq!(labeling.noise_count(), 0);
    }

    #[test]
    fn tiny_eps_high_minpts_yields_all_noise(xs in arbitrary(2)) {
        // min_pts above the dataset size: nothing can be a core point.
        let labeling = Dbscan::new(1e-12, xs.len() + 1).fit_1d(&xs);
        prop_assert_eq!(labeling.n_clusters, 0);
        prop_assert_eq!(labeling.noise_count(), xs.len());
        prop_assert!((labeling.noise_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_1d_labels_equal_the_generic_path_ids_included(
        eps in 1u32..5,
        min_pts in 1usize..7,
        steps in prop::collection::vec((0u32..6, 1usize..5), 1..30),
        keys in prop::collection::vec(0u64..u64::MAX, GRID_MAX..GRID_MAX + 1),
    ) {
        let sorted = grid(eps, &steps);
        let cfg = Dbscan::new(eps as f64, min_pts);
        let fast = cfg.fit_1d(&sorted);
        let points: Vec<Vec<f64>> = sorted.iter().map(|&x| vec![x]).collect();
        let generic = cfg.fit_euclidean(&points);
        prop_assert_eq!(&fast.labels, &generic.labels, "data {:?}", sorted);
        prop_assert_eq!(fast.n_clusters, generic.n_clusters);

        // Shuffled input: each point keeps the label of its sorted twin.
        let mut perm: Vec<usize> = (0..sorted.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        let shuffled: Vec<f64> = perm.iter().map(|&i| sorted[i]).collect();
        let relabelled = cfg.fit_1d(&shuffled);
        let expected: Vec<Label> = perm.iter().map(|&i| fast.labels[i]).collect();
        prop_assert_eq!(relabelled.labels, expected, "data {:?}", shuffled);
        prop_assert_eq!(relabelled.n_clusters, fast.n_clusters);
    }

    #[test]
    fn dbscan_is_permutation_invariant_in_counts(xs in arbitrary(4), eps in 0.5..50.0f64) {
        let a = Dbscan::new(eps, 3).fit_1d(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        let b = Dbscan::new(eps, 3).fit_1d(&rev);
        prop_assert_eq!(a.n_clusters, b.n_clusters);
        prop_assert_eq!(a.noise_count(), b.noise_count());
        let mut sa = a.cluster_sizes();
        let mut sb = b.cluster_sizes();
        sa.sort_unstable();
        sb.sort_unstable();
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn scaling_data_and_eps_preserves_labels(xs in arbitrary(3), eps in 0.5..50.0f64, k in 0.01..100.0f64) {
        let a = Dbscan::new(eps, 3).fit_1d(&xs);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        let b = Dbscan::new(eps * k, 3).fit_1d(&scaled);
        prop_assert_eq!(a.n_clusters, b.n_clusters);
        prop_assert_eq!(a.noise_count(), b.noise_count());
    }

    // --- silhouette ------------------------------------------------------------

    #[test]
    fn silhouette_is_bounded(xs in arbitrary(6), eps in 0.5..200.0f64) {
        let labeling = Dbscan::new(eps, 2).fit_1d(&xs);
        if let Some(s) = silhouette_score_1d(&xs, &labeling) {
            prop_assert!((-1.0..=1.0).contains(&s), "silhouette {s}");
        }
    }

    #[test]
    fn well_separated_clusters_score_high(
        a in prop::collection::vec(0.0..1.0f64, 5..40),
        b in prop::collection::vec(1000.0..1001.0f64, 5..40),
    ) {
        let mut xs = a.clone();
        xs.extend_from_slice(&b);
        let labeling = Dbscan::new(5.0, 3).fit_1d(&xs);
        prop_assert_eq!(labeling.n_clusters, 2);
        let s = silhouette_score_1d(&xs, &labeling).expect("two clusters scored");
        prop_assert!(s > 0.9, "silhouette {s} for 1000x-separated clusters");
    }

    // --- Algorithm 3 (adaptive filter) ------------------------------------------

    #[test]
    fn adaptive_filter_conserves_points(xs in clustered(30)) {
        if let Some(outcome) = adaptive_outlier_filter(&xs, &AdaptiveConfig::default()) {
            let inliers = outcome.inliers(&xs);
            let outliers = outcome.outliers(&xs);
            prop_assert_eq!(inliers.len() + outliers.len(), xs.len());
        }
    }

    #[test]
    fn adaptive_filter_keeps_outliers_below_the_halt_ratio(xs in clustered(30)) {
        if let Some(outcome) = adaptive_outlier_filter(&xs, &AdaptiveConfig::default()) {
            if outcome.converged {
                let ratio = outcome.outliers(&xs).len() as f64 / xs.len() as f64;
                prop_assert!(ratio <= 0.10 + 1e-9, "outlier ratio {ratio}");
            }
        }
    }

    #[test]
    fn tight_cluster_with_injected_extremes_flags_only_extremes(
        xs in prop::collection::vec(10.0..11.0f64, 50..120),
        spikes in prop::collection::vec(500.0..1000.0f64, 1..4),
    ) {
        let mut data = xs.clone();
        data.extend_from_slice(&spikes);
        if let Some(outcome) = adaptive_outlier_filter(&data, &AdaptiveConfig::default()) {
            let outliers = outcome.outliers(&data);
            // Every flagged point is one of the spikes — the dense cluster
            // must never lose points to the filter.
            for o in &outliers {
                prop_assert!(*o >= 500.0, "dense-cluster point {o} flagged as outlier");
            }
            prop_assert_eq!(outliers.len(), spikes.len());
        }
    }
}
