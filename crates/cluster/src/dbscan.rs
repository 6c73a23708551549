//! DBSCAN (Ester et al. 1996) with a fast exact path for 1-D data.
//!
//! Switching-latency datasets are one-dimensional, so ε-neighbourhoods are
//! contiguous ranges of the sorted data. The 1-D path sorts once
//! (O(n log n)) and then sweeps the sorted data in O(n): a two-pointer
//! window finds the core points, runs of core points each within ε of the
//! one before form the clusters, and border points attach to the nearest
//! core point that reaches them. The labels, cluster ids included, are the
//! ones the textbook expansion produces when it visits points in sorted
//! order. A generic multi-dimensional O(n²) implementation is provided for
//! completeness and as a cross-check in tests.

/// Cluster assignment of one point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    /// Low-density point: an outlier measurement.
    Noise,
    /// Member of the cluster with the given id (0-based, densest-first order
    /// is *not* guaranteed; ids follow discovery order, which for
    /// [`Dbscan::fit_1d`] is ascending value).
    Cluster(usize),
}

impl Label {
    /// Whether this point was labelled noise.
    pub fn is_noise(self) -> bool {
        matches!(self, Label::Noise)
    }

    /// Cluster id, if any.
    pub fn cluster(self) -> Option<usize> {
        match self {
            Label::Noise => None,
            Label::Cluster(c) => Some(c),
        }
    }
}

/// The result of a DBSCAN run: one [`Label`] per input point, in input order.
#[derive(Clone, Debug)]
pub struct Labeling {
    /// Per-point labels, parallel to the input slice.
    pub labels: Vec<Label>,
    /// Number of clusters discovered.
    pub n_clusters: usize,
}

impl Labeling {
    /// Number of noise points.
    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_noise()).count()
    }

    /// Noise fraction of the dataset (0 for empty input).
    pub fn noise_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.noise_count() as f64 / self.labels.len() as f64
        }
    }

    /// Sizes of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_clusters];
        for l in &self.labels {
            if let Label::Cluster(c) = l {
                sizes[*c] += 1;
            }
        }
        sizes
    }

    /// Indices of the points in the largest cluster (empty if no clusters).
    pub fn largest_cluster_indices(&self) -> Vec<usize> {
        let sizes = self.cluster_sizes();
        let Some((largest, _)) = sizes.iter().enumerate().max_by_key(|(_, &s)| s) else {
            return Vec::new();
        };
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (l.cluster() == Some(largest)).then_some(i))
            .collect()
    }
}

/// DBSCAN parameterised by ε and minPts.
///
/// `min_pts` counts the point itself, matching the scikit-learn convention
/// the paper's analysis scripts rely on.
#[derive(Clone, Copy, Debug)]
pub struct Dbscan {
    /// Neighbourhood radius.
    pub eps: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Dbscan {
    /// Construct a DBSCAN configuration.
    ///
    /// Panics if `eps` is not strictly positive and finite or `min_pts == 0`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(
            eps > 0.0 && eps.is_finite(),
            "eps must be positive and finite, got {eps}"
        );
        assert!(min_pts >= 1, "min_pts must be at least 1");
        Dbscan { eps, min_pts }
    }

    /// Cluster one-dimensional data with exact DBSCAN semantics. Cluster ids
    /// follow ascending value, and a border point within ε of two clusters
    /// joins the lower one. Costs an O(n log n) sort followed by O(n)
    /// sweeps (see the module docs).
    ///
    /// Panics on NaN input.
    pub fn fit_1d(&self, data: &[f64]) -> Labeling {
        let n = data.len();
        if n == 0 {
            return Labeling {
                labels: Vec::new(),
                n_clusters: 0,
            };
        }

        // Sort once; neighbourhoods become contiguous index ranges.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("NaN in DBSCAN input"));
        let sorted: Vec<f64> = order.iter().map(|&i| data[i]).collect();

        // Core points: the neighbour range [lo, hi) of sorted position p
        // holds the v with !(v < x − ε) and v ≤ x + ε. Both bounds only
        // move right as p does, so one two-pointer window finds them all.
        let mut core = vec![false; n];
        let (mut lo, mut hi) = (0, 0);
        for (p, &x) in sorted.iter().enumerate() {
            while sorted[lo] < x - self.eps {
                lo += 1;
            }
            while hi < n && sorted[hi] <= x + self.eps {
                hi += 1;
            }
            core[p] = hi - lo >= self.min_pts;
        }

        // Forward sweep. A run of core points each within ε of the one
        // before is one cluster, numbered in sorted order. A border point
        // joins the cluster of the nearest earlier core point if that one
        // reaches it; ranges only move right, so no other earlier one does.
        let mut labels_sorted = vec![Label::Noise; n];
        let mut n_clusters = 0usize;
        let mut last_core: Option<(f64, usize)> = None;
        for (p, &x) in sorted.iter().enumerate() {
            let reached = last_core
                .filter(|&(c, _)| x <= c + self.eps)
                .map(|(_, cid)| cid);
            if core[p] {
                let cid = reached.unwrap_or_else(|| {
                    n_clusters += 1;
                    n_clusters - 1
                });
                labels_sorted[p] = Label::Cluster(cid);
                last_core = Some((x, cid));
            } else if let Some(cid) = reached {
                labels_sorted[p] = Label::Cluster(cid);
            }
        }

        // Backward sweep: a border point that no earlier core point reaches
        // joins the cluster of the nearest later core point, if that one
        // reaches it.
        let mut next_core: Option<(f64, Label)> = None;
        for (p, &x) in sorted.iter().enumerate().rev() {
            if core[p] {
                next_core = Some((x, labels_sorted[p]));
            } else if let (Label::Noise, Some((c, label))) = (labels_sorted[p], next_core) {
                if x >= c - self.eps {
                    labels_sorted[p] = label;
                }
            }
        }

        // Scatter back to input order.
        let mut labels = vec![Label::Noise; n];
        for (p, &orig) in order.iter().enumerate() {
            labels[orig] = labels_sorted[p];
        }
        Labeling { labels, n_clusters }
    }

    /// Cluster d-dimensional points with Euclidean distance. O(n²); intended
    /// for modest n and as a semantic cross-check of the 1-D fast path.
    ///
    /// Panics if points have inconsistent dimensionality.
    pub fn fit_euclidean(&self, points: &[Vec<f64>]) -> Labeling {
        let n = points.len();
        if n == 0 {
            return Labeling {
                labels: Vec::new(),
                n_clusters: 0,
            };
        }
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "inconsistent point dimensionality"
        );
        let eps2 = self.eps * self.eps;
        let dist2 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let neighbors = |i: usize| -> Vec<usize> {
            (0..n)
                .filter(|&j| dist2(&points[i], &points[j]) <= eps2)
                .collect()
        };

        let mut labels: Vec<Option<Label>> = vec![None; n];
        let mut n_clusters = 0usize;
        for i in 0..n {
            if labels[i].is_some() {
                continue;
            }
            let nb = neighbors(i);
            if nb.len() < self.min_pts {
                labels[i] = Some(Label::Noise);
                continue;
            }
            let cid = n_clusters;
            n_clusters += 1;
            labels[i] = Some(Label::Cluster(cid));
            let mut frontier: Vec<usize> = nb.into_iter().filter(|&q| q != i).collect();
            while let Some(q) = frontier.pop() {
                match labels[q] {
                    Some(Label::Noise) => labels[q] = Some(Label::Cluster(cid)),
                    Some(Label::Cluster(_)) => {}
                    None => {
                        labels[q] = Some(Label::Cluster(cid));
                        let qnb = neighbors(q);
                        if qnb.len() >= self.min_pts {
                            frontier.extend(qnb.into_iter().filter(|&r| {
                                labels[r].is_none() || labels[r] == Some(Label::Noise)
                            }));
                        }
                    }
                }
            }
        }
        Labeling {
            labels: labels.into_iter().map(|l| l.expect("labelled")).collect(),
            n_clusters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_obvious_clusters_and_one_outlier() {
        // 5 points near 10, 5 near 100, one lone point at 500.
        let data = [
            9.8, 10.0, 10.1, 10.2, 9.9, 99.8, 100.0, 100.1, 100.2, 99.9, 500.0,
        ];
        let out = Dbscan::new(1.0, 3).fit_1d(&data);
        assert_eq!(out.n_clusters, 2);
        assert_eq!(out.noise_count(), 1);
        assert!(out.labels[10].is_noise());
        // All members of the first group share a label distinct from the second.
        let c0 = out.labels[0].cluster().unwrap();
        let c5 = out.labels[5].cluster().unwrap();
        assert_ne!(c0, c5);
        for i in 0..5 {
            assert_eq!(out.labels[i].cluster(), Some(c0));
        }
        for i in 5..10 {
            assert_eq!(out.labels[i].cluster(), Some(c5));
        }
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let out = Dbscan::new(0.1, 2).fit_1d(&data);
        assert_eq!(out.n_clusters, 0);
        assert_eq!(out.noise_count(), 4);
        assert_eq!(out.noise_ratio(), 1.0);
    }

    #[test]
    fn single_cluster_chain_connectivity() {
        // Points spaced 0.5 apart chain into one cluster with eps=0.6.
        let data: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let out = Dbscan::new(0.6, 3).fit_1d(&data);
        assert_eq!(out.n_clusters, 1);
        assert_eq!(out.noise_count(), 0);
        assert_eq!(out.cluster_sizes(), vec![20]);
    }

    #[test]
    fn border_point_is_claimed_not_noise() {
        // Dense blob plus one point within eps of the blob edge but with a
        // sparse own-neighbourhood: classic border point.
        let mut data = vec![0.0, 0.05, 0.1, 0.15, 0.2];
        data.push(0.95); // within eps=0.8 of 0.2 only
        let out = Dbscan::new(0.8, 5).fit_1d(&data);
        assert_eq!(out.n_clusters, 1);
        assert_eq!(out.labels[5].cluster(), out.labels[0].cluster());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out = Dbscan::new(1.0, 2).fit_1d(&[]);
        assert_eq!(out.n_clusters, 0);
        assert!(out.labels.is_empty());

        let out = Dbscan::new(1.0, 1).fit_1d(&[42.0]);
        // min_pts = 1: a singleton is its own core point.
        assert_eq!(out.n_clusters, 1);
        assert_eq!(out.noise_count(), 0);

        let out = Dbscan::new(1.0, 2).fit_1d(&[42.0]);
        assert_eq!(out.noise_count(), 1);
    }

    #[test]
    fn duplicate_values_count_as_neighbors() {
        let data = [5.0; 10];
        let out = Dbscan::new(0.001, 10).fit_1d(&data);
        assert_eq!(out.n_clusters, 1);
        assert_eq!(out.noise_count(), 0);
    }

    #[test]
    fn fast_1d_path_matches_generic_euclidean() {
        // Pseudo-random-ish latency-like data, deterministic.
        let data: Vec<f64> = (0..200)
            .map(|i| {
                let base = if i % 17 == 0 { 250.0 } else { 20.0 };
                base + ((i * 2654435761u64 % 1000) as f64) / 100.0
            })
            .collect();
        let cfg = Dbscan::new(3.0, 5);
        let a = cfg.fit_1d(&data);
        let points: Vec<Vec<f64>> = data.iter().map(|&x| vec![x]).collect();
        let b = cfg.fit_euclidean(&points);
        assert_eq!(a.n_clusters, b.n_clusters);
        // Noise sets must be identical; cluster ids may be permuted.
        for i in 0..data.len() {
            assert_eq!(a.labels[i].is_noise(), b.labels[i].is_noise(), "point {i}");
        }
        // Partition must be identical up to relabeling.
        for i in 0..data.len() {
            for j in 0..data.len() {
                let same_a = a.labels[i].cluster() == a.labels[j].cluster()
                    && a.labels[i].cluster().is_some();
                let same_b = b.labels[i].cluster() == b.labels[j].cluster()
                    && b.labels[i].cluster().is_some();
                assert_eq!(same_a, same_b, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn largest_cluster_indices() {
        let data = [1.0, 1.1, 1.2, 1.3, 9.0, 9.1, 50.0];
        let out = Dbscan::new(0.5, 2).fit_1d(&data);
        let largest = out.largest_cluster_indices();
        assert_eq!(largest, vec![0, 1, 2, 3]);
    }

    #[test]
    fn euclidean_2d_clusters() {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        for i in 0..10 {
            pts.push(vec![i as f64 * 0.01, 0.0]);
            pts.push(vec![5.0 + i as f64 * 0.01, 5.0]);
        }
        pts.push(vec![100.0, 100.0]);
        let out = Dbscan::new(0.5, 3).fit_euclidean(&pts);
        assert_eq!(out.n_clusters, 2);
        assert_eq!(out.noise_count(), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_eps() {
        Dbscan::new(0.0, 3);
    }
}
