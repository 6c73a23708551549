//! Aligned plain-text tables — Table I (hardware setup) and Table II
//! (latency summaries) renderers.

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl TextTable {
    /// Start a table with a header row.
    pub fn with_header(cols: &[&str]) -> Self {
        TextTable {
            header: cols.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: String::new(),
        }
    }

    /// Attach a title (the first line of the
    /// [`Artifact`](crate::Artifact) renderings; [`TextTable::body`] stays
    /// title-less).
    pub fn titled(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// The attached title (empty unless set by [`TextTable::titled`]).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The header cells.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of display-able values.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The aligned header, rule and rows without the title (first column
    /// left, rest right) — what the CLI prints under its own headings.
    /// [`Format::Text`](crate::Format::Text) is this under the title line.
    pub fn body(&self) -> String {
        let n = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", c, width = widths[0]));
                } else {
                    line.push_str(&format!("  {:>width$}", c, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (n - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One device's row in a cross-device latency comparison (the fleet
/// driver's aggregation feeds this; Table II of the paper is the
/// single-statistic ancestor of the shape).
#[derive(Clone, Debug)]
pub struct CrossDeviceRow {
    /// Device name.
    pub device: String,
    /// Ordered pairs scheduled on the device.
    pub pairs_total: usize,
    /// Pairs that completed with measurements.
    pub pairs_completed: usize,
    /// Best (minimum) filtered per-pair latency (ms).
    pub best_ms: f64,
    /// Mean of the filtered per-pair means (ms).
    pub mean_ms: f64,
    /// Worst (maximum) filtered per-pair latency (ms).
    pub worst_ms: f64,
}

impl From<&latest_core::FleetDeviceSummary> for CrossDeviceRow {
    fn from(s: &latest_core::FleetDeviceSummary) -> Self {
        CrossDeviceRow {
            device: s.device_name.clone(),
            pairs_total: s.pairs_total,
            pairs_completed: s.pairs_completed,
            best_ms: s.best_ms,
            mean_ms: s.mean_ms,
            worst_ms: s.worst_ms,
        }
    }
}

impl From<latest_core::FleetDeviceSummary> for CrossDeviceRow {
    fn from(s: latest_core::FleetDeviceSummary) -> Self {
        CrossDeviceRow::from(&s)
    }
}

/// Render the cross-device comparison table: one row per device of a fleet
/// run, latency statistics over its completed pairs.
pub fn cross_device_table(rows: &[CrossDeviceRow]) -> TextTable {
    let mut table = TextTable::with_header(&[
        "device",
        "pairs",
        "completed",
        "best[ms]",
        "mean[ms]",
        "worst[ms]",
    ]);
    let fmt = |x: f64| {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "-".to_string()
        }
    };
    for r in rows {
        table.row(&[
            r.device.clone(),
            r.pairs_total.to_string(),
            r.pairs_completed.to_string(),
            fmt(r.best_ms),
            fmt(r.mean_ms),
            fmt(r.worst_ms),
        ]);
    }
    table
}

/// Render one campaign's per-pair summary table (the `latest run` stdout
/// shape): one row per scheduled pair with its filtered statistics and
/// outcome, selected through the core query views instead of ad-hoc
/// iteration.
pub fn campaign_summary_table(result: &latest_core::CampaignResult) -> TextTable {
    use latest_core::view::{LatencyView, OutcomeKind, PairStat};
    use latest_core::PairOutcome;

    // The memory column only appears when the campaign actually swept the
    // memory domain, so single-domain output stays byte-identical.
    let has_mem = result
        .pairs()
        .iter()
        .any(|p| p.init.has_mem() || p.target.has_mem());
    let mut header = vec!["init[MHz]", "target[MHz]"];
    if has_mem {
        header.push("mem[MHz]");
    }
    header.extend(["n", "min[ms]", "mean[ms]", "max[ms]", "outliers", "status"]);
    let mut table = TextTable::with_header(&header).titled(format!(
        "{} (device {}): per-pair switching latencies",
        result.device_name, result.device_index
    ));
    let mem_cell = |pair: &latest_core::view::PairView<'_>| -> String {
        match (pair.init_mem_mhz(), pair.target_mem_mhz()) {
            (Some(i), Some(t)) if i == t => i.to_string(),
            (Some(i), Some(t)) => format!("{i}->{t}"),
            (Some(i), None) => format!("{i}->default"),
            (None, Some(t)) => format!("default->{t}"),
            (None, None) => "-".to_string(),
        }
    };
    for pair in LatencyView::of(result).pairs() {
        let m = pair.measurement();
        let status = match &m.outcome {
            PairOutcome::Completed(_) => "ok".to_string(),
            PairOutcome::PowerLimited { .. } => "power-limited".to_string(),
            PairOutcome::SkippedIndistinguishable => "indistinguishable".to_string(),
            PairOutcome::RetriesExhausted { attempts, .. } => {
                format!("unmeasurable ({attempts} attempts)")
            }
            PairOutcome::Cancelled => "cancelled".to_string(),
        };
        let mut row = vec![pair.init_mhz().to_string(), pair.target_mhz().to_string()];
        if has_mem {
            row.push(mem_cell(&pair));
        }
        match (pair.outcome(), pair.filtered_ms()) {
            (OutcomeKind::Completed, Some(inliers)) => {
                let a = m.analysis.as_ref().expect("completed implies analysed");
                row.extend([
                    inliers.len().to_string(),
                    format!("{:.3}", pair.stat(PairStat::Min).expect("has data")),
                    format!("{:.3}", pair.stat(PairStat::Mean).expect("has data")),
                    format!("{:.3}", pair.stat(PairStat::Max).expect("has data")),
                    a.outliers_ms.len().to_string(),
                    status,
                ]);
            }
            _ => {
                let n = match &m.outcome {
                    PairOutcome::PowerLimited {
                        measurements_before,
                    } => measurements_before.to_string(),
                    _ => "0".to_string(),
                };
                row.extend([n, "-".into(), "-".into(), "-".into(), "-".into(), status]);
            }
        };
        table.row(&row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};

    fn table1_like() -> TextTable {
        let mut t = TextTable::with_header(&["Model", "SM [#]", "Max SM [MHz]"]);
        t.row_display(&["RTX Quadro 6000", "72", "2100"]);
        t.row_display(&["A100 SXM-4", "108", "1410"]);
        t.row_display(&["GH200", "132", "1980"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let t = table1_like();
        let txt = t.render(Format::Text);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 5); // header + rule + 3 rows
                                    // All lines same length (alignment).
        let lens: Vec<usize> = lines.iter().map(|l| l.trim_end().len()).collect();
        assert!(lens[2] >= lens[0] - 2 && lens[2] <= lens[0] + 2);
        assert!(txt.contains("A100 SXM-4"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::with_header(&["a", "b"]);
        t.row_display(&["only-one"]);
    }

    #[test]
    fn cross_device_rows_render_per_device() {
        let rows = vec![
            CrossDeviceRow {
                device: "NVIDIA A100-SXM4-40GB".into(),
                pairs_total: 6,
                pairs_completed: 6,
                best_ms: 8.1,
                mean_ms: 9.8,
                worst_ms: 21.4,
            },
            CrossDeviceRow {
                device: "NVIDIA GH200".into(),
                pairs_total: 6,
                pairs_completed: 4,
                best_ms: 55.0,
                mean_ms: 180.5,
                worst_ms: 455.0,
            },
        ];
        let txt = cross_device_table(&rows).render(Format::Text);
        assert!(txt.contains("A100"));
        assert!(txt.contains("GH200"));
        assert!(txt.contains("455.000"));
        assert_eq!(txt.lines().count(), 4); // header + rule + 2 devices

        // A device with no completed pairs renders dashes, not inf/NaN.
        let empty = vec![CrossDeviceRow {
            device: "idle".into(),
            pairs_total: 2,
            pairs_completed: 0,
            best_ms: f64::INFINITY,
            mean_ms: f64::NAN,
            worst_ms: f64::NEG_INFINITY,
        }];
        let txt = cross_device_table(&empty).render(Format::Text);
        assert!(!txt.contains("inf") && !txt.contains("NaN"));
    }
}
