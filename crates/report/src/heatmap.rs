//! Labelled 2-D heatmaps: the paper's Fig. 3 (min/max switching latency),
//! Fig. 7/8 (cross-unit ranges) layout — initial frequency in rows, target
//! frequency in columns.

use std::fmt::Write as _;

/// A rectangular grid of optional values with row/column labels.
#[derive(Clone, Debug)]
pub struct Heatmap {
    /// Row labels (initial frequencies, MHz).
    pub row_labels: Vec<String>,
    /// Column labels (target frequencies, MHz).
    pub col_labels: Vec<String>,
    values: Vec<Option<f64>>,
    title: String,
}

impl Heatmap {
    /// An empty heatmap with the given labels.
    pub fn new(row_labels: Vec<String>, col_labels: Vec<String>) -> Self {
        let values = vec![None; row_labels.len() * col_labels.len()];
        Heatmap {
            row_labels,
            col_labels,
            values,
            title: String::new(),
        }
    }

    /// Attach a title (the first line or caption of every rendering).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// The attached title (empty unless set by [`Heatmap::with_title`]).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Build the paper-layout heatmap from a campaign query view: initial
    /// frequency in rows, target in columns, blank diagonal, one cell per
    /// pair the view admits with filtered data. This is the single home of
    /// the composition the figure binaries, the bundle and the golden
    /// tests all share.
    pub fn from_view(
        view: &latest_core::view::LatencyView<'_>,
        freqs_mhz: &[u32],
        stat: latest_core::view::PairStat,
    ) -> Heatmap {
        Heatmap::build(freqs_mhz, freqs_mhz, |init, target| {
            if init == target {
                return None;
            }
            view.pair(
                latest_core::FreqState::core_mhz(init),
                latest_core::FreqState::core_mhz(target),
            )
            .and_then(|p| p.stat(stat))
        })
    }

    /// Build the state×state heatmap of a 2-D (core × memory) campaign:
    /// every distinct clock state in rows and columns (labelled e.g.
    /// `705+m810`), blank diagonal, one cell per admitted ordered state
    /// pair. This is the full-plane generalisation of
    /// [`Heatmap::from_view`] — it shows core-only, memory-only and
    /// simultaneous transitions in one grid.
    pub fn from_view_states(
        view: &latest_core::view::LatencyView<'_>,
        states: &[latest_core::FreqState],
        stat: latest_core::view::PairStat,
    ) -> Heatmap {
        Heatmap::build(states, states, |init, target| {
            if init == target {
                return None;
            }
            view.pair(init, target).and_then(|p| p.stat(stat))
        })
    }

    /// Build one memory-clock *slice* of a 2-D (core × memory) campaign:
    /// the same core-in-rows/core-in-columns layout as
    /// [`Heatmap::from_view`], but every cell is the pair that holds the
    /// memory clock pinned at `mem_mhz` on both sides. Together with the
    /// per-slice loop in the bundle this renders a 2-D sweep as a stack of
    /// paper-layout figures, one per memory clock.
    pub fn from_view_mem_slice(
        view: &latest_core::view::LatencyView<'_>,
        freqs_mhz: &[u32],
        stat: latest_core::view::PairStat,
        mem_mhz: u32,
    ) -> Heatmap {
        use latest_core::FreqState;
        Heatmap::build(freqs_mhz, freqs_mhz, |init, target| {
            if init == target {
                return None;
            }
            view.pair(
                FreqState::mhz(init, mem_mhz),
                FreqState::mhz(target, mem_mhz),
            )
            .and_then(|p| p.stat(stat))
        })
    }

    /// Build from row/column keys and a cell function (None = blank, e.g.
    /// the diagonal).
    pub fn build<K: ToString + Copy>(
        rows: &[K],
        cols: &[K],
        mut cell: impl FnMut(K, K) -> Option<f64>,
    ) -> Self {
        let mut hm = Heatmap::new(
            rows.iter().map(|r| r.to_string()).collect(),
            cols.iter().map(|c| c.to_string()).collect(),
        );
        for (i, &r) in rows.iter().enumerate() {
            for (j, &c) in cols.iter().enumerate() {
                hm.set(i, j, cell(r, c));
            }
        }
        hm
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_labels.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.col_labels.len()
    }

    /// Set cell (row, col).
    pub fn set(&mut self, row: usize, col: usize, v: Option<f64>) {
        let n_cols = self.n_cols();
        self.values[row * n_cols + col] = v;
    }

    /// Get cell (row, col).
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        self.values[row * self.n_cols() + col]
    }

    /// Smallest populated non-NaN value with its (row, col).
    ///
    /// NaN cells are skipped, not propagated: backends without the
    /// `GroundTruth` capability legitimately produce NaN cells, and a
    /// single one must not poison (or, as a `partial_cmp().unwrap()` once
    /// did, panic) the scale of the rest of the figure.
    pub fn min_cell(&self) -> Option<(usize, usize, f64)> {
        self.iter_finite_cells().min_by(|a, b| a.2.total_cmp(&b.2))
    }

    /// Largest populated non-NaN value with its (row, col). Same skip-NaN
    /// semantics as [`Heatmap::min_cell`].
    pub fn max_cell(&self) -> Option<(usize, usize, f64)> {
        self.iter_finite_cells().max_by(|a, b| a.2.total_cmp(&b.2))
    }

    /// Mean over populated non-NaN cells.
    pub fn mean(&self) -> Option<f64> {
        let (n, sum) = self
            .iter_finite_cells()
            .fold((0usize, 0.0), |(n, s), (_, _, v)| (n + 1, s + v));
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    fn iter_finite_cells(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.iter_cells().filter(|(_, _, v)| !v.is_nan())
    }

    /// Populated cells as (row, col, value).
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n_cols = self.n_cols();
        self.values
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.map(|v| (i / n_cols, i % n_cols, v)))
    }

    /// Column means (ignoring blanks and NaN cells): exposes the "target
    /// frequency dominates" structure the paper calls out.
    pub fn col_means(&self) -> Vec<Option<f64>> {
        (0..self.n_cols())
            .map(|j| {
                let vals: Vec<f64> = (0..self.n_rows())
                    .filter_map(|i| self.get(i, j))
                    .filter(|v| !v.is_nan())
                    .collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            })
            .collect()
    }

    /// Row means (ignoring blanks and NaN cells).
    pub fn row_means(&self) -> Vec<Option<f64>> {
        (0..self.n_rows())
            .map(|i| {
                let vals: Vec<f64> = (0..self.n_cols())
                    .filter_map(|j| self.get(i, j))
                    .filter(|v| !v.is_nan())
                    .collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            })
            .collect()
    }

    /// Merge with another heatmap cell-wise (labels must match), e.g.
    /// range = max-heatmap − min-heatmap for Fig. 7/8.
    ///
    /// Panics if dimensions differ.
    pub fn combine(&self, other: &Heatmap, f: impl Fn(f64, f64) -> f64) -> Heatmap {
        assert_eq!(self.row_labels, other.row_labels, "row labels differ");
        assert_eq!(self.col_labels, other.col_labels, "column labels differ");
        let mut out = Heatmap::new(self.row_labels.clone(), self.col_labels.clone());
        for i in 0..self.n_rows() {
            for j in 0..self.n_cols() {
                out.set(
                    i,
                    j,
                    match (self.get(i, j), other.get(i, j)) {
                        (Some(a), Some(b)) => Some(f(a, b)),
                        _ => None,
                    },
                );
            }
        }
        out
    }

    /// The text rendering with each cell coloured on an ANSI 256-colour
    /// green→red scale like the paper's figures — for terminals;
    /// [`Format::Text`](crate::Format::Text) is the same grid uncoloured.
    pub fn ansi_text(&self) -> String {
        self.text(true)
    }

    /// The titled fixed-width grid; `color` adds the ANSI scale.
    pub(crate) fn text(&self, color: bool) -> String {
        // Wide enough for every label: core-only MHz labels fit the legacy
        // 8 columns (keeping that output byte-identical); 2-D state labels
        // like `1410+m1215` stretch the grid uniformly.
        let width = self
            .row_labels
            .iter()
            .chain(&self.col_labels)
            .map(|l| l.len() + 1)
            .fold(8usize, usize::max);
        let (lo, hi) = match (self.min_cell(), self.max_cell()) {
            (Some(a), Some(b)) => (a.2, b.2),
            _ => (0.0, 1.0),
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:>width$} |", "init\\tgt");
        for c in &self.col_labels {
            let _ = write!(out, "{c:>width$}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "-".repeat(width + 2 + width * self.n_cols()));
        for (i, r) in self.row_labels.iter().enumerate() {
            let _ = write!(out, "{r:>width$} |");
            for j in 0..self.n_cols() {
                match self.get(i, j) {
                    Some(v) => {
                        let cell = format!("{v:>width$.2}");
                        if color && hi > lo {
                            let a = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                            // 256-colour ramp: green (46) → yellow → red (196).
                            let code = match (a * 4.0) as u32 {
                                0 => 46,
                                1 => 118,
                                2 => 226,
                                3 => 208,
                                _ => 196,
                            };
                            let _ = write!(out, "\x1b[38;5;{code}m{cell}\x1b[0m");
                        } else {
                            out.push_str(&cell);
                        }
                    }
                    None => {
                        let _ = write!(out, "{:>width$}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};

    fn sample() -> Heatmap {
        Heatmap::build(&[705u32, 1095, 1410], &[705u32, 1095, 1410], |r, c| {
            if r == c {
                None
            } else {
                Some((r as f64 / 100.0) + (c as f64 / 1000.0))
            }
        })
    }

    #[test]
    fn build_and_lookup() {
        let hm = sample();
        assert_eq!(hm.n_rows(), 3);
        assert_eq!(hm.n_cols(), 3);
        assert_eq!(hm.get(0, 0), None); // diagonal blank
        assert!((hm.get(0, 2).unwrap() - (7.05 + 1.41)).abs() < 1e-12);
    }

    #[test]
    fn min_max_mean() {
        let hm = sample();
        let (_, _, min) = hm.min_cell().unwrap();
        let (_, _, max) = hm.max_cell().unwrap();
        assert!(min < max);
        let mean = hm.mean().unwrap();
        assert!(min <= mean && mean <= max);
    }

    #[test]
    fn col_structure_is_visible() {
        // Column-dominant data: col_means spread must exceed row_means
        // spread.
        let hm = Heatmap::build(&[1u32, 2, 3], &[10u32, 20, 30], |_r, c| Some(c as f64));
        let spread = |v: Vec<Option<f64>>| {
            let vals: Vec<f64> = v.into_iter().flatten().collect();
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(hm.col_means()) > spread(hm.row_means()) + 10.0);
    }

    #[test]
    fn combine_computes_ranges() {
        let max = Heatmap::build(&[1u32, 2], &[1u32, 2], |r, c| Some((r * c) as f64 + 5.0));
        let min = Heatmap::build(&[1u32, 2], &[1u32, 2], |r, c| Some((r * c) as f64));
        let range = max.combine(&min, |a, b| a - b);
        for (_, _, v) in range.iter_cells() {
            assert_eq!(v, 5.0);
        }
    }

    #[test]
    fn render_contains_labels_and_blanks() {
        let hm = sample().with_title("test map [ms]");
        let txt = hm.render(Format::Text);
        assert!(txt.starts_with("test map [ms]\n"));
        assert!(txt.contains("705"));
        assert!(txt.contains("1410"));
        assert!(txt.contains('-'));
        assert!(!txt.contains('\x1b'));
        // The terminal rendering adds escape codes.
        let coloured = hm.ansi_text();
        assert!(coloured.contains("\x1b[38;5;"));
    }

    #[test]
    fn csv_roundtrip_structure() {
        let hm = sample();
        let csv = hm.render(Format::Csv);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("init_mhz,705,1095,1410"));
        // Diagonal blank -> ",," pattern present.
        assert!(lines[1].contains(",,") || lines[1].ends_with(','));
    }

    #[test]
    fn nan_cells_do_not_panic_or_poison_the_scale() {
        // Backends without ground truth legitimately produce NaN cells; a
        // single one used to panic min_cell/max_cell via
        // partial_cmp().unwrap().
        let hm = Heatmap::build(&[705u32, 1095, 1410], &[705u32, 1095, 1410], |r, c| {
            if r == c {
                None
            } else if r == 705 && c == 1410 {
                Some(f64::NAN)
            } else {
                Some((r + c) as f64 / 100.0)
            }
        });
        let (_, _, min) = hm.min_cell().expect("finite cells remain");
        let (_, _, max) = hm.max_cell().expect("finite cells remain");
        assert!(min.is_finite() && max.is_finite());
        assert!(min < max);
        let mean = hm.mean().unwrap();
        assert!(mean.is_finite() && min <= mean && mean <= max);
        for v in hm.col_means().into_iter().chain(hm.row_means()).flatten() {
            assert!(v.is_finite());
        }
        // Rendering still works (the NaN cell prints, the scale holds).
        let txt = hm.ansi_text();
        assert!(txt.contains("NaN"));
        let csv = hm.render(Format::Csv);
        assert!(csv.lines().count() == 4);

        // All-NaN grids degrade to None, not a panic.
        let all_nan = Heatmap::build(&[1u32], &[2u32], |_, _| Some(f64::NAN));
        assert!(all_nan.min_cell().is_none());
        assert!(all_nan.max_cell().is_none());
        assert!(all_nan.mean().is_none());
        let _ = all_nan.ansi_text();
    }

    #[test]
    fn title_is_attached_and_carried() {
        let hm = sample().with_title("Fig. 3a");
        assert_eq!(hm.title(), "Fig. 3a");
        assert_eq!(sample().title(), "");
    }

    #[test]
    #[should_panic]
    fn combine_rejects_mismatched_labels() {
        let a = Heatmap::new(vec!["1".into()], vec!["1".into()]);
        let b = Heatmap::new(vec!["2".into()], vec!["1".into()]);
        a.combine(&b, |x, _| x);
    }
}
