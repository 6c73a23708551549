//! Scatter plots of per-measurement switching latencies (Fig. 5 and 6:
//! measurement index on x, latency on y, cluster membership as the marker).

use latest_cluster::Labeling;

/// A latency scatter figure (Figs. 5/6): per-measurement latencies with
/// optional cluster membership, ready for the
/// [`Artifact`](crate::Artifact) renderings.
#[derive(Clone, Debug)]
pub struct Scatter {
    /// Figure title.
    pub title: String,
    /// Per-measurement latencies (ms), in measurement order.
    pub latencies_ms: Vec<f64>,
    /// Cluster id per measurement (`None` = noise/outlier); parallel to
    /// `latencies_ms`. May be empty when no clustering was run.
    pub cluster_of: Vec<Option<usize>>,
}

impl Scatter {
    /// Build a scatter; `cluster_of` must be empty or parallel to the data.
    pub fn new(
        title: impl Into<String>,
        latencies_ms: Vec<f64>,
        cluster_of: Vec<Option<usize>>,
    ) -> Self {
        assert!(
            cluster_of.is_empty() || cluster_of.len() == latencies_ms.len(),
            "cluster labels must be absent or parallel to the data"
        );
        Scatter {
            title: title.into(),
            latencies_ms,
            cluster_of,
        }
    }

    /// Build from a DBSCAN labeling (noise becomes `None`).
    pub fn from_labeling(
        title: impl Into<String>,
        latencies_ms: Vec<f64>,
        labeling: &Labeling,
    ) -> Self {
        let cluster_of = labeling
            .labels
            .iter()
            .map(|l| match l {
                latest_cluster::Label::Cluster(c) => Some(*c),
                latest_cluster::Label::Noise => None,
            })
            .collect();
        Scatter::new(title, latencies_ms, cluster_of)
    }

    /// The text rendering on a `rows` × `cols` canvas: latency (y) against
    /// measurement index (x), cluster ids as digits, noise as `x`, and `o`
    /// when no clustering was run. [`Format::Text`](crate::Format::Text) is
    /// this at 20 × 64.
    pub fn ascii_plot(&self, rows: usize, cols: usize) -> String {
        let latencies = &self.latencies_ms;
        let mut out = format!("{}\n", self.title);
        if latencies.is_empty() || rows < 2 || cols < 2 {
            out.push_str("(no data)\n");
            return out;
        }
        let lo = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = latencies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);

        // canvas[row][col]: row 0 = top (highest latency).
        let mut canvas = vec![vec![' '; cols]; rows];
        for (i, &v) in latencies.iter().enumerate() {
            let col = i * (cols - 1) / (latencies.len() - 1).max(1);
            let level = ((v - lo) / span * (rows - 1) as f64).round() as usize;
            let row = rows - 1 - level.min(rows - 1);
            canvas[row][col] = match self.cluster_of.get(i) {
                Some(Some(c)) => char::from_digit((c % 10) as u32, 10).unwrap_or('*'),
                Some(None) => 'x',
                None => 'o',
            };
        }

        for (r, line) in canvas.iter().enumerate() {
            let level = hi - span * r as f64 / (rows - 1) as f64;
            out.push_str(&format!("{level:>10.2} |"));
            out.extend(line.iter());
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>10} +{}\n{:>10}  0{:>width$}\n",
            "",
            "-".repeat(cols),
            "",
            latencies.len(),
            width = cols - 1
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};
    use latest_cluster::Dbscan;

    #[test]
    fn renders_clusters_with_distinct_markers() {
        let mut data: Vec<f64> = Vec::new();
        for i in 0..60 {
            data.push(if i % 2 == 0 { 60.0 } else { 180.0 });
        }
        data.push(460.0); // outlier
        let labeling = Dbscan::new(10.0, 4).fit_1d(&data);
        assert_eq!(labeling.n_clusters, 2);
        let txt =
            Scatter::from_labeling("GH200 1770->1260 MHz", data, &labeling).ascii_plot(20, 40);
        assert!(txt.contains("GH200"));
        assert!(txt.contains('0'));
        assert!(txt.contains('1'));
        assert!(txt.contains('x'));
    }

    #[test]
    fn renders_without_labels() {
        let data = vec![5.0, 6.0, 5.5, 30.0];
        let txt = Scatter::new("plain", data, vec![]).render(Format::Text);
        assert!(txt.contains('o'));
    }

    #[test]
    fn empty_data_is_graceful() {
        let txt = Scatter::new("none", vec![], vec![]).render(Format::Text);
        assert!(txt.contains("(no data)"));
    }

    #[test]
    fn constant_data_does_not_divide_by_zero() {
        let data = vec![7.0; 10];
        let txt = Scatter::new("flat", data, vec![]).ascii_plot(10, 20);
        assert!(txt.contains('o'));
    }
}
