//! Paper-vs-measured experiment records — the machinery behind
//! EXPERIMENTS.md.
//!
//! Every regeneration binary emits one [`ExperimentRecord`] naming the paper
//! artefact (table/figure), the qualitative claims being reproduced, and the
//! measured values. As an [`Artifact`](crate::Artifact) its Text format is
//! the record's Markdown section and its Json format the archival form.

use serde::{Deserialize, Serialize};

/// One paper-value vs measured-value comparison row.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct MetricRow {
    /// What is being compared (e.g. "A100 worst-case max \[ms\]").
    pub metric: String,
    /// The paper's value, as reported.
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the qualitative shape holds.
    pub shape_holds: bool,
    /// Free-form note.
    pub note: String,
}

/// One experiment (table or figure) record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Identifier, e.g. "fig3b" or "table2".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Workload / parameters used.
    pub parameters: String,
    /// Comparison rows.
    pub rows: Vec<MetricRow>,
}

impl ExperimentRecord {
    /// Start a record.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        parameters: impl Into<String>,
    ) -> Self {
        ExperimentRecord {
            id: id.into(),
            title: title.into(),
            parameters: parameters.into(),
            rows: Vec::new(),
        }
    }

    /// Add a comparison row.
    pub fn compare(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        shape_holds: bool,
        note: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(MetricRow {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            shape_holds,
            note: note.into(),
        });
        self
    }

    /// Whether every row's shape holds.
    pub fn all_shapes_hold(&self) -> bool {
        self.rows.iter().all(|r| r.shape_holds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};

    fn record() -> ExperimentRecord {
        let mut r = ExperimentRecord::new(
            "table2",
            "Summary of switching latencies across GPUs",
            "18-frequency subsets, RSE 5 %, min 25 / max 150 measurements",
        );
        r.compare(
            "A100 worst-case max [ms]",
            "22.716",
            "21.4",
            true,
            "all A100 worst cases < 25 ms",
        );
        r.compare(
            "GH200 worst-case max [ms]",
            "477.318",
            "455.0",
            true,
            "rare spike",
        );
        r
    }

    #[test]
    fn markdown_section_structure() {
        let md = record().render(Format::Text);
        assert!(md.starts_with("### table2"));
        assert!(md.contains("| Metric | Paper | Measured |"));
        assert!(md.contains("22.716"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() >= 4);
    }

    #[test]
    fn json_roundtrip() {
        let r = record();
        let back: ExperimentRecord = serde_json::from_str(&r.render(Format::Json)).unwrap();
        assert_eq!(back.id, "table2");
        assert_eq!(back.rows, r.rows);
    }

    #[test]
    fn shape_aggregation() {
        let mut r = record();
        assert!(r.all_shapes_hold());
        r.compare("x", "1", "100", false, "off");
        assert!(!r.all_shapes_hold());
    }
}
