//! Prediction-service figures: predicted-vs-measured scatter and error
//! heatmaps.
//!
//! The prediction service validates a fitted latency model against held-out
//! measurements and simulator ground truth; this module renders those
//! comparisons. Like [`govern`](crate::govern), it deliberately depends on
//! plain row types rather than `latest-predict` — anything shaped like a
//! (pair, measured, predicted, interval) record renders, whatever produced
//! it.

use std::fmt::Write as _;

use crate::artifact::{csv_cell, f64_v, json_of, map, str_v, u64_v, Artifact, Format};
use crate::heatmap::Heatmap;
use crate::svg::escape;
use crate::table::TextTable;

/// One predicted-vs-measured comparison row.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictionRow {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// Reference value — a held-out measurement or ground truth (ms).
    pub measured_ms: f64,
    /// The model's point estimate (ms).
    pub predicted_ms: f64,
    /// Lower confidence bound (ms).
    pub lo_ms: f64,
    /// Upper confidence bound (ms).
    pub hi_ms: f64,
    /// Which model tier answered (`measured`, `interpolated`,
    /// `regression`).
    pub source: String,
}

impl PredictionRow {
    /// Signed relative error of the prediction.
    pub fn rel_error(&self) -> f64 {
        if self.measured_ms != 0.0 {
            (self.predicted_ms - self.measured_ms) / self.measured_ms
        } else {
            f64::NAN
        }
    }

    /// Whether the reference landed inside the predicted interval.
    pub fn covered(&self) -> bool {
        (self.lo_ms..=self.hi_ms).contains(&self.measured_ms)
    }
}

/// Predicted-vs-measured scatter: each pair plotted at (measured,
/// predicted), with the identity diagonal as the perfect-model reference.
#[derive(Clone, Debug)]
pub struct PredictionScatter {
    /// Figure title.
    pub title: String,
    /// The comparison rows.
    pub rows: Vec<PredictionRow>,
}

impl PredictionScatter {
    /// Build a scatter over comparison rows.
    pub fn new(title: impl Into<String>, rows: Vec<PredictionRow>) -> Self {
        PredictionScatter {
            title: title.into(),
            rows,
        }
    }

    /// ASCII rendering: a square plot with '*' points and the identity
    /// diagonal, followed by a per-pair table.
    fn render_text(&self) -> String {
        const SIZE: usize = 21;
        let mut out = format!("{}\n", self.title);
        let max = self
            .rows
            .iter()
            .flat_map(|r| [r.measured_ms, r.predicted_ms])
            .fold(0.0f64, f64::max);
        if max > 0.0 {
            let mut grid = vec![vec![' '; SIZE]; SIZE];
            for (i, row) in grid.iter_mut().enumerate() {
                // Identity diagonal: y axis points up, so row 0 is the top.
                row[SIZE - 1 - i] = '.';
            }
            for r in &self.rows {
                let x = ((r.measured_ms / max) * (SIZE - 1) as f64).round() as usize;
                let y = ((r.predicted_ms / max) * (SIZE - 1) as f64).round() as usize;
                grid[SIZE - 1 - y.min(SIZE - 1)][x.min(SIZE - 1)] = '*';
            }
            out.push_str(&format!(
                "predicted [0..{max:.2} ms] vertical vs measured [0..{max:.2} ms] horizontal\n"
            ));
            for row in grid {
                out.push('|');
                out.extend(row);
                out.push('\n');
            }
            out.push('+');
            out.extend(std::iter::repeat_n('-', SIZE));
            out.push('\n');
        }
        out.push_str(&prediction_table(&self.rows).render(Format::Text));
        out
    }

    fn render_svg(&self) -> String {
        const W: f64 = 560.0;
        const MARGIN: f64 = 60.0;
        let plot = W - 2.0 * MARGIN;
        let max = self
            .rows
            .iter()
            .flat_map(|r| [r.measured_ms, r.hi_ms])
            .fold(1e-9f64, f64::max);
        let x_of = |ms: f64| MARGIN + (ms / max).clamp(0.0, 1.0) * plot;
        let y_of = |ms: f64| MARGIN + plot - (ms / max).clamp(0.0, 1.0) * plot;
        let mut out = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0}" height="{W:.0}" viewBox="0 0 {W:.0} {W:.0}" font-family="sans-serif">
<text x="{MARGIN:.1}" y="{:.1}" font-size="14" font-weight="bold">{}</text>
"#,
            MARGIN * 0.5,
            escape(&self.title)
        );
        // Axes and the identity diagonal.
        out.push_str(&format!(
            "<rect x=\"{MARGIN:.1}\" y=\"{MARGIN:.1}\" width=\"{plot:.1}\" height=\"{plot:.1}\" fill=\"none\" stroke=\"#444\"/>\n"
        ));
        out.push_str(&format!(
            "<line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#999\" stroke-dasharray=\"4 3\"/>\n",
            x_of(0.0),
            y_of(0.0),
            x_of(max),
            y_of(max)
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\">measured [0..{max:.2} ms]</text>\n",
            MARGIN + plot / 2.0,
            W - MARGIN * 0.3
        ));
        for r in &self.rows {
            let (x, y) = (x_of(r.measured_ms), y_of(r.predicted_ms));
            // Confidence interval as a vertical whisker.
            out.push_str(&format!(
                "<line x1=\"{x:.1}\" y1=\"{:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#7aa\" stroke-width=\"1\"/>\n",
                y_of(r.lo_ms),
                y_of(r.hi_ms)
            ));
            out.push_str(&format!(
                "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3\" fill=\"#c33\"><title>{} -&gt; {}: measured {:.3} predicted {:.3} [{}]</title></circle>\n",
                r.init_mhz, r.target_mhz, r.measured_ms, r.predicted_ms,
                escape(&r.source)
            ));
        }
        out.push_str("</svg>\n");
        out
    }
}

impl Artifact for PredictionScatter {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Svg => self.render_svg(),
            Format::Csv => {
                let mut out = String::from(
                    "init_mhz,target_mhz,measured_ms,predicted_ms,lo_ms,hi_ms,source,rel_error,covered\n",
                );
                for r in &self.rows {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{},{},{},{}",
                        r.init_mhz,
                        r.target_mhz,
                        r.measured_ms,
                        r.predicted_ms,
                        r.lo_ms,
                        r.hi_ms,
                        csv_cell(&r.source),
                        r.rel_error(),
                        r.covered()
                    );
                }
                out
            }
            Format::Json => {
                let rows: Vec<serde::Value> = self
                    .rows
                    .iter()
                    .map(|r| {
                        map(vec![
                            ("init_mhz", u64_v(r.init_mhz as usize)),
                            ("target_mhz", u64_v(r.target_mhz as usize)),
                            ("measured_ms", f64_v(r.measured_ms)),
                            ("predicted_ms", f64_v(r.predicted_ms)),
                            ("lo_ms", f64_v(r.lo_ms)),
                            ("hi_ms", f64_v(r.hi_ms)),
                            ("source", str_v(&r.source)),
                            ("rel_error", f64_v(r.rel_error())),
                            ("covered", serde::Value::Bool(r.covered())),
                        ])
                    })
                    .collect();
                json_of(map(vec![
                    ("title", str_v(&self.title)),
                    ("rows", serde::Value::Seq(rows)),
                ]))
            }
        }
    }
}

/// Per-pair comparison table (the text companion of the scatter).
pub fn prediction_table(rows: &[PredictionRow]) -> TextTable {
    let mut table = TextTable::with_header(&[
        "init [MHz]",
        "target [MHz]",
        "measured [ms]",
        "predicted [ms]",
        "interval [ms]",
        "rel err",
        "source",
    ]);
    for r in rows {
        table.row(&[
            r.init_mhz.to_string(),
            r.target_mhz.to_string(),
            format!("{:.3}", r.measured_ms),
            format!("{:.3}", r.predicted_ms),
            format!("[{:.3}, {:.3}]", r.lo_ms, r.hi_ms),
            format!("{:+.1}%", r.rel_error() * 100.0),
            r.source.clone(),
        ]);
    }
    table
}

/// Absolute relative error per pair as a heatmap (init rows, target
/// columns), in percent — the "where does the model go wrong" figure.
pub fn prediction_error_heatmap(rows: &[PredictionRow], title: &str) -> Heatmap {
    let mut freqs: Vec<u32> = rows
        .iter()
        .flat_map(|r| [r.init_mhz, r.target_mhz])
        .collect();
    freqs.sort_unstable();
    freqs.dedup();
    Heatmap::build(&freqs, &freqs, |init, target| {
        rows.iter()
            .find(|r| r.init_mhz == init && r.target_mhz == target)
            .map(|r| r.rel_error().abs() * 100.0)
    })
    .with_title(title)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<PredictionRow> {
        vec![
            PredictionRow {
                init_mhz: 600,
                target_mhz: 900,
                measured_ms: 2.0,
                predicted_ms: 2.1,
                lo_ms: 1.8,
                hi_ms: 2.4,
                source: "interpolated".to_string(),
            },
            PredictionRow {
                init_mhz: 900,
                target_mhz: 600,
                measured_ms: 4.0,
                predicted_ms: 3.0,
                lo_ms: 2.5,
                hi_ms: 3.5,
                source: "regression".to_string(),
            },
        ]
    }

    #[test]
    fn row_metrics() {
        let rs = rows();
        assert!((rs[0].rel_error() - 0.05).abs() < 1e-9);
        assert!(rs[0].covered());
        assert!((rs[1].rel_error() + 0.25).abs() < 1e-9);
        assert!(!rs[1].covered());
    }

    #[test]
    fn scatter_renders_all_formats() {
        let scatter = PredictionScatter::new("predicted vs measured", rows());
        for format in Format::ALL {
            let out = scatter.render(format);
            assert!(!out.is_empty(), "{format}");
        }
        let text = scatter.render(Format::Text);
        assert!(text.contains("predicted vs measured"));
        assert!(text.contains('*'));
        let svg = scatter.render(Format::Svg);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("circle"));
        let csv = scatter.render(Format::Csv);
        assert!(csv.lines().count() == 3);
        let json = scatter.render(Format::Json);
        assert!(json.contains("\"covered\""));
    }

    #[test]
    fn renders_are_deterministic() {
        let scatter = PredictionScatter::new("det", rows());
        for format in Format::ALL {
            assert_eq!(scatter.render(format), scatter.render(format));
        }
    }

    #[test]
    fn error_heatmap_places_pairs() {
        let hm = prediction_error_heatmap(&rows(), "abs rel error [%]");
        assert_eq!(hm.n_rows(), 2);
        assert_eq!(hm.n_cols(), 2);
        // (600, 900) is row 0 col 1: 5 % error.
        assert!((hm.get(0, 1).unwrap() - 5.0).abs() < 1e-9);
        // Diagonal unmeasured.
        assert!(hm.get(0, 0).is_none());
    }

    #[test]
    fn table_lists_every_row() {
        let table = prediction_table(&rows());
        assert_eq!(table.rows().len(), 2);
        let rendered = table.render(Format::Text);
        assert!(rendered.contains("+5.0%"));
        assert!(rendered.contains("regression"));
    }
}
