//! Violin-plot data reduction: Gaussian KDE over latency samples, split by
//! transition direction (Fig. 4: frequency increasing on the left, rising →
//! falling comparison per GPU).

use latest_stats::{quantile, Summary};

/// Latencies split by transition direction.
#[derive(Clone, Debug, Default)]
pub struct DirectionSplit {
    /// Latencies of frequency-increasing transitions (init < target).
    pub increasing: Vec<f64>,
    /// Latencies of frequency-decreasing transitions (init > target).
    pub decreasing: Vec<f64>,
}

impl DirectionSplit {
    /// Feed one pair's latencies.
    pub fn add(&mut self, init_mhz: u32, target_mhz: u32, latencies: &[f64]) {
        if target_mhz > init_mhz {
            self.increasing.extend_from_slice(latencies);
        } else if target_mhz < init_mhz {
            self.decreasing.extend_from_slice(latencies);
        }
    }

    /// Pool a campaign view's filtered latencies by transition direction
    /// (the Fig. 4 reduction; respects whatever filters the view carries).
    pub fn from_view(view: &latest_core::view::LatencyView<'_>) -> DirectionSplit {
        use latest_core::view::Direction;
        DirectionSplit {
            increasing: view.direction(Direction::Increasing).pooled_filtered_ms(),
            decreasing: view.direction(Direction::Decreasing).pooled_filtered_ms(),
        }
    }
}

/// The rendered summary of one violin: KDE evaluated on a grid plus the
/// quartile skeleton.
#[derive(Clone, Debug)]
pub struct ViolinSummary {
    /// Label of the group.
    pub label: String,
    /// Grid points (latency, ms).
    pub grid: Vec<f64>,
    /// Normalised density at each grid point (max = 1).
    pub density: Vec<f64>,
    /// Descriptive summary.
    pub summary: Summary,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl ViolinSummary {
    /// Build from samples with `bins` KDE evaluation points.
    ///
    /// Returns `None` on fewer than 3 samples (no meaningful density).
    pub fn build(label: impl Into<String>, samples: &[f64], bins: usize) -> Option<ViolinSummary> {
        if samples.len() < 3 || bins < 2 {
            return None;
        }
        let summary = Summary::of(samples);
        // Silverman's rule of thumb.
        let n = samples.len() as f64;
        let bw = (1.06 * summary.stdev * n.powf(-0.2)).max(1e-9);

        let lo = summary.min - 2.0 * bw;
        let hi = summary.max + 2.0 * bw;
        let grid: Vec<f64> = (0..bins)
            .map(|i| lo + (hi - lo) * i as f64 / (bins - 1) as f64)
            .collect();
        let mut density: Vec<f64> = grid
            .iter()
            .map(|&x| {
                samples
                    .iter()
                    .map(|&s| {
                        let z = (x - s) / bw;
                        (-0.5 * z * z).exp()
                    })
                    .sum::<f64>()
            })
            .collect();
        let max = density.iter().cloned().fold(f64::MIN, f64::max);
        if max > 0.0 {
            for d in &mut density {
                *d /= max;
            }
        }
        Some(ViolinSummary {
            label: label.into(),
            grid,
            density,
            summary,
            q1: quantile(samples, 0.25),
            median: quantile(samples, 0.50),
            q3: quantile(samples, 0.75),
        })
    }

    /// Number of distinct density modes (local maxima above `threshold` of
    /// the peak) — multi-modal violins are the RTX Quadro signature.
    pub fn mode_count(&self, threshold: f64) -> usize {
        let d = &self.density;
        (1..d.len().saturating_sub(1))
            .filter(|&i| d[i] > threshold && d[i] >= d[i - 1] && d[i] > d[i + 1])
            .count()
    }

    /// The text rendering with bars up to `width` columns: a summary line,
    /// then ~24 downsampled grid points with bar length ∝ density.
    /// [`Format::Text`](crate::Format::Text) is this at 48 columns.
    pub fn ascii_bars(&self, width: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} (n={}, median={:.2} ms, IQR {:.2}-{:.2})\n",
            self.label, self.summary.n, self.median, self.q1, self.q3
        ));
        // Downsample the grid to ~24 display rows.
        let rows = 24usize.min(self.grid.len());
        for r in 0..rows {
            let i = r * (self.grid.len() - 1) / (rows - 1).max(1);
            let bar_len = (self.density[i] * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>10.2} | {}\n",
                self.grid[i],
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

/// The paper's Fig. 4 shape: two violins side by side, frequency-increasing
/// transitions against decreasing ones, as one
/// [`Artifact`](crate::Artifact).
#[derive(Clone, Debug)]
pub struct ViolinPair {
    /// Figure title.
    pub title: String,
    /// Left violin (conventionally the increasing direction).
    pub left: ViolinSummary,
    /// Right violin (conventionally the decreasing direction).
    pub right: ViolinSummary,
}

impl ViolinPair {
    /// Pair two violins under a title.
    pub fn new(title: impl Into<String>, left: ViolinSummary, right: ViolinSummary) -> Self {
        ViolinPair {
            title: title.into(),
            left,
            right,
        }
    }

    /// Build the Fig. 4 figure from a [`DirectionSplit`] with `bins` KDE
    /// grid points per violin. `None` when either direction has fewer than
    /// 3 samples.
    pub fn from_split(
        title: impl Into<String>,
        split: &DirectionSplit,
        bins: usize,
    ) -> Option<ViolinPair> {
        Some(ViolinPair::new(
            title,
            ViolinSummary::build("increasing", &split.increasing, bins)?,
            ViolinSummary::build("decreasing", &split.decreasing, bins)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bimodal() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..200 {
            v.push(20.0 + (i % 10) as f64 * 0.2);
        }
        for i in 0..200 {
            v.push(135.0 + (i % 10) as f64 * 0.2);
        }
        v
    }

    #[test]
    fn direction_split_routes_by_sign() {
        let mut split = DirectionSplit::default();
        split.add(705, 1410, &[1.0, 2.0]);
        split.add(1410, 705, &[3.0]);
        split.add(900, 900, &[99.0]); // same freq: ignored
        assert_eq!(split.increasing, vec![1.0, 2.0]);
        assert_eq!(split.decreasing, vec![3.0]);
    }

    #[test]
    fn kde_peaks_near_the_modes() {
        let v = ViolinSummary::build("quadro-like", &bimodal(), 200).unwrap();
        // Find the grid position of the max density: must be near 20 or 135.
        let (imax, _) = v
            .density
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let peak = v.grid[imax];
        assert!(
            (peak - 21.0).abs() < 5.0 || (peak - 136.0).abs() < 5.0,
            "peak at {peak}"
        );
        assert!(v.mode_count(0.3) >= 2, "bimodal data must show 2+ modes");
    }

    #[test]
    fn unimodal_data_has_one_mode() {
        let data: Vec<f64> = (0..300)
            .map(|i| 15.0 + ((i * 37) % 100) as f64 * 0.01)
            .collect();
        let v = ViolinSummary::build("a100-like", &data, 150).unwrap();
        assert_eq!(v.mode_count(0.5), 1);
    }

    #[test]
    fn quartiles_ordered() {
        let v = ViolinSummary::build("x", &bimodal(), 100).unwrap();
        assert!(v.q1 <= v.median && v.median <= v.q3);
        assert!(v.summary.min <= v.q1 && v.q3 <= v.summary.max);
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(ViolinSummary::build("x", &[1.0, 2.0], 100).is_none());
        assert!(ViolinSummary::build("x", &[1.0, 2.0, 3.0], 1).is_none());
    }

    #[test]
    fn render_produces_bars() {
        use crate::artifact::{Artifact, Format};
        let v = ViolinSummary::build("demo", &bimodal(), 100).unwrap();
        let txt = v.render(Format::Text);
        assert!(txt.contains("demo"));
        assert!(txt.contains('#'));
        assert!(txt.lines().count() >= 10);
    }
}
