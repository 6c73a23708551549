//! The rendering contract: every figure is an [`Artifact`], and every
//! output [`Format`] is one arm of its one verb.
//!
//! The paper's evaluation is artefact-driven — heatmaps (Figs. 3, 7, 8),
//! violins (Fig. 4), scatters (Figs. 5, 6), boxplots (Fig. 9), Tables I–II
//! and the EXPERIMENTS.md records — and each of them renders the same way:
//!
//! ```
//! use latest_report::{Artifact, Format, Heatmap};
//!
//! let hm = Heatmap::build(&[705u32, 1410], &[705u32, 1410], |r, c| {
//!     if r == c { None } else { Some(1.0) }
//! })
//! .with_title("demo [ms]");
//! assert!(hm.render(Format::Text).starts_with("demo [ms]\n"));
//! assert!(hm.render(Format::Svg).starts_with("<svg"));
//! ```
//!
//! Rendering is infallible: it builds a `String`, and only writing a
//! [`Bundle`](crate::Bundle) to disk can fail. Every figure type renders in
//! **all four** formats:
//!
//! | Format | Produces |
//! |---|---|
//! | [`Format::Text`] | the terminal rendering (tables, ASCII plots) |
//! | [`Format::Svg`] | a standalone deterministic SVG document |
//! | [`Format::Csv`] | the figure's underlying data as CSV |
//! | [`Format::Json`] | the figure's underlying data as JSON |
//!
//! All renderings are deterministic: the same artifact renders to the same
//! bytes, so bundles can be committed and diffed.

use std::fmt::Write as _;

use serde::Serialize as _;

use crate::boxplot::{BoxStats, BoxplotGroup};
use crate::experiments::ExperimentRecord;
use crate::heatmap::Heatmap;
use crate::scatter::Scatter;
use crate::svg::{boxplot_svg, heatmap_svg, scatter_svg, text_svg, violin_pair_svg, violin_svg};
use crate::table::TextTable;
use crate::violin::{ViolinPair, ViolinSummary};

/// The four output formats of the reporting pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Terminal-oriented plain text.
    Text,
    /// Standalone SVG document.
    Svg,
    /// Machine-readable CSV.
    Csv,
    /// Machine-readable JSON.
    Json,
}

impl Format {
    /// Every format, in bundle emission order.
    pub const ALL: [Format; 4] = [Format::Text, Format::Svg, Format::Csv, Format::Json];

    /// Conventional file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Svg => "svg",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::Text => "text",
            Format::Svg => "svg",
            Format::Csv => "csv",
            Format::Json => "json",
        })
    }
}

/// A renderable paper artefact. One implementation per figure type; one
/// match arm per [`Format`].
pub trait Artifact {
    /// Human title of the artefact (figure caption / table heading).
    fn title(&self) -> &str;

    /// Render in `format`.
    fn render(&self, format: Format) -> String;
}

// --- shared rendering helpers ----------------------------------------------

/// Quote a CSV cell when it contains structural characters.
pub(crate) fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Wrap a raw [`serde::Value`] so the vendored `serde_json` can print it.
pub(crate) struct RawValue(pub(crate) serde::Value);

impl serde::Serialize for RawValue {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// Pretty-print a raw value tree with the crate's one JSON convention
/// (two-space pretty form, trailing newline) — every JSON the pipeline
/// emits goes through here so the bitwise-determinism promise has a single
/// implementation to keep.
pub(crate) fn json_of(value: serde::Value) -> String {
    let mut text = serde_json::to_string_pretty(&RawValue(value)).expect("value tree serialises");
    text.push('\n');
    text
}

pub(crate) fn map(entries: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn str_v(s: &str) -> serde::Value {
    serde::Value::Str(s.to_string())
}

pub(crate) fn f64_v(x: f64) -> serde::Value {
    serde::Value::F64(x)
}

pub(crate) fn u64_v(x: usize) -> serde::Value {
    serde::Value::U64(x as u64)
}

pub(crate) fn f64_seq(xs: &[f64]) -> serde::Value {
    serde::Value::Seq(xs.iter().map(|&x| f64_v(x)).collect())
}

fn str_seq(xs: &[String]) -> serde::Value {
    serde::Value::Seq(xs.iter().map(|x| str_v(x)).collect())
}

fn box_value(label: &str, b: &BoxStats) -> serde::Value {
    map(vec![
        ("label", str_v(label)),
        ("q1", f64_v(b.q1)),
        ("median", f64_v(b.median)),
        ("q3", f64_v(b.q3)),
        ("whisker_lo", f64_v(b.whisker_lo)),
        ("whisker_hi", f64_v(b.whisker_hi)),
        ("n", u64_v(b.n)),
        ("fliers", f64_seq(&b.fliers)),
    ])
}

/// The boxplot CSV: a header plus one row per labelled box.
fn box_csv<'a>(groups: impl IntoIterator<Item = (&'a str, &'a BoxStats)>) -> String {
    let mut out =
        String::from("label,q1_ms,median_ms,q3_ms,whisker_lo_ms,whisker_hi_ms,n,fliers\n");
    for (label, b) in groups {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            csv_cell(label),
            b.q1,
            b.median,
            b.q3,
            b.whisker_lo,
            b.whisker_hi,
            b.n,
            b.fliers.len()
        );
    }
    out
}

fn violin_value(v: &ViolinSummary) -> serde::Value {
    map(vec![
        ("label", str_v(&v.label)),
        ("n", u64_v(v.summary.n as usize)),
        ("q1", f64_v(v.q1)),
        ("median", f64_v(v.median)),
        ("q3", f64_v(v.q3)),
        ("grid_ms", f64_seq(&v.grid)),
        ("density", f64_seq(&v.density)),
    ])
}

fn violin_csv(violins: &[&ViolinSummary]) -> String {
    let mut out = String::from("label,grid_ms,density\n");
    for v in violins {
        for (g, d) in v.grid.iter().zip(&v.density) {
            let _ = writeln!(out, "{},{g},{d}", csv_cell(&v.label));
        }
    }
    out
}

/// Width of the density bars in a violin's text rendering.
const VIOLIN_BAR_WIDTH: usize = 48;

// --- Artifact implementations ----------------------------------------------

impl Artifact for Heatmap {
    fn title(&self) -> &str {
        self.title()
    }

    fn render(&self, format: Format) -> String {
        match format {
            // File-oriented text: no ANSI colour codes.
            Format::Text => self.text(false),
            Format::Svg => heatmap_svg(self),
            // Blank cells stay empty.
            Format::Csv => {
                let mut out = String::from("init_mhz");
                for c in &self.col_labels {
                    let _ = write!(out, ",{}", csv_cell(c));
                }
                out.push('\n');
                for (i, r) in self.row_labels.iter().enumerate() {
                    out.push_str(&csv_cell(r));
                    for j in 0..self.n_cols() {
                        match self.get(i, j) {
                            Some(v) => {
                                let _ = write!(out, ",{v:.4}");
                            }
                            None => out.push(','),
                        }
                    }
                    out.push('\n');
                }
                out
            }
            Format::Json => {
                let cells: Vec<serde::Value> = (0..self.n_rows())
                    .map(|i| {
                        serde::Value::Seq(
                            (0..self.n_cols())
                                .map(|j| self.get(i, j).map_or(serde::Value::Null, f64_v))
                                .collect(),
                        )
                    })
                    .collect();
                json_of(map(vec![
                    ("title", str_v(self.title())),
                    ("row_labels", str_seq(&self.row_labels)),
                    ("col_labels", str_seq(&self.col_labels)),
                    ("cells", serde::Value::Seq(cells)),
                ]))
            }
        }
    }
}

impl Artifact for ViolinSummary {
    fn title(&self) -> &str {
        &self.label
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.ascii_bars(VIOLIN_BAR_WIDTH),
            Format::Svg => violin_svg(self),
            Format::Csv => violin_csv(&[self]),
            Format::Json => json_of(violin_value(self)),
        }
    }
}

impl Artifact for ViolinPair {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => format!(
                "{}\n\n{}\n{}",
                self.title,
                self.left.ascii_bars(VIOLIN_BAR_WIDTH),
                self.right.ascii_bars(VIOLIN_BAR_WIDTH)
            ),
            Format::Svg => violin_pair_svg(self),
            Format::Csv => violin_csv(&[&self.left, &self.right]),
            Format::Json => json_of(map(vec![
                ("title", str_v(&self.title)),
                ("left", violin_value(&self.left)),
                ("right", violin_value(&self.right)),
            ])),
        }
    }
}

impl Artifact for BoxStats {
    fn title(&self) -> &str {
        "boxplot"
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => format!("{}\n", self.render_line("sample")),
            Format::Svg => boxplot_svg(&[("sample".to_string(), self.clone())], "boxplot"),
            Format::Csv => box_csv([("sample", self)]),
            Format::Json => json_of(box_value("sample", self)),
        }
    }
}

impl Artifact for BoxplotGroup {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => {
                let mut out = format!("{}\n", self.title);
                for (label, b) in &self.groups {
                    let _ = writeln!(out, "{}", b.render_line(label));
                }
                out
            }
            Format::Svg => boxplot_svg(&self.groups, &self.title),
            Format::Csv => box_csv(self.groups.iter().map(|(label, b)| (label.as_str(), b))),
            Format::Json => json_of(map(vec![
                ("title", str_v(&self.title)),
                (
                    "groups",
                    serde::Value::Seq(
                        self.groups
                            .iter()
                            .map(|(label, b)| box_value(label, b))
                            .collect(),
                    ),
                ),
            ])),
        }
    }
}

impl Artifact for Scatter {
    fn title(&self) -> &str {
        &self.title
    }

    fn render(&self, format: Format) -> String {
        let cluster = |i: usize| self.cluster_of.get(i).copied().flatten();
        match format {
            Format::Text => self.ascii_plot(20, 64),
            Format::Svg => scatter_svg(self),
            Format::Csv => {
                let mut out = String::from("measurement,latency_ms,cluster\n");
                for (i, ms) in self.latencies_ms.iter().enumerate() {
                    let cell = cluster(i).map_or(String::new(), |c| c.to_string());
                    let _ = writeln!(out, "{i},{ms},{cell}");
                }
                out
            }
            Format::Json => {
                let clusters: Vec<serde::Value> = (0..self.latencies_ms.len())
                    .map(|i| cluster(i).map_or(serde::Value::Null, u64_v))
                    .collect();
                json_of(map(vec![
                    ("title", str_v(&self.title)),
                    ("latencies_ms", f64_seq(&self.latencies_ms)),
                    ("cluster", serde::Value::Seq(clusters)),
                ]))
            }
        }
    }
}

impl Artifact for TextTable {
    fn title(&self) -> &str {
        self.title()
    }

    fn render(&self, format: Format) -> String {
        match format {
            Format::Text if self.title().is_empty() => self.body(),
            Format::Text => format!("{}\n{}", self.title(), self.body()),
            Format::Svg => text_svg(self.title(), &self.body()),
            Format::Csv => {
                let mut out = String::new();
                for cells in
                    std::iter::once(self.header()).chain(self.rows().iter().map(Vec::as_slice))
                {
                    let cols: Vec<String> = cells.iter().map(|c| csv_cell(c)).collect();
                    let _ = writeln!(out, "{}", cols.join(","));
                }
                out
            }
            Format::Json => json_of(map(vec![
                ("title", str_v(self.title())),
                ("header", str_seq(self.header())),
                (
                    "rows",
                    serde::Value::Seq(self.rows().iter().map(|r| str_seq(r)).collect()),
                ),
            ])),
        }
    }
}

impl Artifact for ExperimentRecord {
    fn title(&self) -> &str {
        &self.title
    }

    /// The Text arm is the record's EXPERIMENTS.md section.
    fn render(&self, format: Format) -> String {
        match format {
            Format::Text => {
                let mut out = format!("### {} — {}\n\n", self.id, self.title);
                let _ = writeln!(out, "*Parameters*: {}\n", self.parameters);
                out.push_str("| Metric | Paper | Measured | Shape holds? | Note |\n");
                out.push_str("|---|---|---|---|---|\n");
                for r in &self.rows {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {} | {} |",
                        r.metric,
                        r.paper,
                        r.measured,
                        if r.shape_holds { "yes" } else { "NO" },
                        r.note
                    );
                }
                out.push('\n');
                out
            }
            Format::Svg => text_svg(&self.title, &self.render(Format::Text)),
            Format::Csv => {
                let mut out = String::from("metric,paper,measured,shape_holds,note\n");
                for r in &self.rows {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{}",
                        csv_cell(&r.metric),
                        csv_cell(&r.paper),
                        csv_cell(&r.measured),
                        r.shape_holds,
                        csv_cell(&r.note)
                    );
                }
                out
            }
            Format::Json => json_of(self.to_value()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_heatmap() -> Heatmap {
        Heatmap::build(&[705u32, 1095, 1410], &[705u32, 1095, 1410], |r, c| {
            if r == c {
                None
            } else {
                Some((r + c) as f64 / 100.0)
            }
        })
        .with_title("sample heatmap [ms]")
    }

    fn sample_violin(label: &str, base: f64) -> ViolinSummary {
        let xs: Vec<f64> = (0..120).map(|i| base + (i % 12) as f64 * 0.25).collect();
        ViolinSummary::build(label, &xs, 48).unwrap()
    }

    fn all_artifacts() -> Vec<Box<dyn Artifact>> {
        let xs: Vec<f64> = (0..60).map(|i| 5.0 + (i % 7) as f64 * 0.3).collect();
        let mut group = BoxplotGroup::new("per-pair boxplots [ms]");
        group.add("705->1410", &xs).add("1410->705", &xs);
        let mut table = TextTable::with_header(&["device", "pairs"]).titled("summary");
        table.row_display(&["A100, SXM4", "6"]);
        let mut record = ExperimentRecord::new("table2", "Summary", "test params");
        record.compare("worst [ms]", "22.7", "21.4", true, "ok");
        vec![
            Box::new(sample_heatmap()),
            Box::new(sample_violin("increasing", 10.0)),
            Box::new(ViolinPair::new(
                "direction split",
                sample_violin("increasing", 10.0),
                sample_violin("decreasing", 6.0),
            )),
            Box::new(BoxStats::of(&xs).unwrap()),
            Box::new(group),
            Box::new(Scatter::new(
                "GH200 1770->1260",
                xs.clone(),
                (0..60)
                    .map(|i| if i == 3 { None } else { Some(i % 2) })
                    .collect(),
            )),
            Box::new(table),
            Box::new(record),
        ]
    }

    #[test]
    fn every_artifact_renders_through_every_sink() {
        for artifact in all_artifacts() {
            for format in Format::ALL {
                let out = artifact.render(format);
                assert!(
                    !out.is_empty(),
                    "{} produced empty {format} output",
                    artifact.title()
                );
                match format {
                    Format::Svg => {
                        assert!(out.starts_with("<svg"), "{}", artifact.title());
                        assert!(out.trim_end().ends_with("</svg>"), "{}", artifact.title());
                    }
                    Format::Json => {
                        assert!(out.starts_with('{'), "{}", artifact.title());
                        assert!(out.ends_with('\n'), "{}", artifact.title());
                    }
                    Format::Csv => {
                        assert!(out.lines().count() >= 1, "{}", artifact.title());
                    }
                    Format::Text => {}
                }
            }
        }
    }

    #[test]
    fn renders_are_deterministic() {
        for artifact in all_artifacts() {
            for format in Format::ALL {
                let a = artifact.render(format);
                let b = artifact.render(format);
                assert_eq!(a, b, "{} not deterministic in {format}", artifact.title());
            }
        }
    }

    #[test]
    fn sink_formats_and_extensions() {
        let names: Vec<String> = Format::ALL.iter().map(|f| f.to_string()).collect();
        assert_eq!(names, vec!["text", "svg", "csv", "json"]);
        let exts: Vec<&str> = Format::ALL.iter().map(|f| f.extension()).collect();
        assert_eq!(exts, vec!["txt", "svg", "csv", "json"]);
    }

    #[test]
    fn csv_cells_are_quoted_when_structural() {
        let mut table = TextTable::with_header(&["name", "note"]);
        table.row_display(&["a,b", "say \"hi\""]);
        let csv = table.render(Format::Csv);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn heatmap_json_has_null_diagonal() {
        let json = sample_heatmap().render(Format::Json);
        assert!(json.contains("null"));
        assert!(json.contains("\"row_labels\""));
    }
}
