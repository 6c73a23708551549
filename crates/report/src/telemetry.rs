//! Service telemetry rendering: the per-stage latency quantile table
//! behind `latest queue stats`.
//!
//! A [`TelemetrySnapshot`] is one drain/serve call's merged stage
//! histograms; this module renders it through the same [`Artifact`]
//! contract as every other figure — text, CSV and JSON from one table.
//!
//! [`Artifact`]: crate::Artifact

use latest_telemetry::{Stage, TelemetrySnapshot};

use crate::table::TextTable;

/// Human-readable duration for a nanosecond figure.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Per-stage latency table (count, p50/p90/p99, max) over a drain's
/// telemetry snapshot, one row per stage of the service taxonomy.
/// Stages with no samples render `-` placeholders.
pub fn stage_latency_table(snapshot: &TelemetrySnapshot) -> TextTable {
    let mut table = TextTable::with_header(&["stage", "count", "p50", "p90", "p99", "max"]);
    for stage in Stage::ALL {
        let hist = snapshot.stage(stage);
        let q = |p: f64| {
            hist.quantile(p)
                .map(fmt_ns)
                .unwrap_or_else(|| "-".to_string())
        };
        table.row(&[
            stage.name().to_string(),
            hist.count().to_string(),
            q(0.50),
            q(0.90),
            q(0.99),
            hist.max().map(fmt_ns).unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table.titled(format!(
        "service stage latency — {} sample(s), {} dropped event(s)",
        snapshot.records_total(),
        snapshot.dropped_events
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};
    use latest_telemetry::Registry;

    #[test]
    fn every_stage_gets_a_row() {
        let registry = Registry::new(1);
        registry.recorder(0).record(Stage::ShardExec, 2_000_000);
        registry.recorder(0).record(Stage::QueueWait, 500);
        let table = stage_latency_table(&registry.snapshot());
        assert_eq!(table.n_rows(), Stage::COUNT);
        let rendered = table.render(Format::Text);
        assert!(rendered.contains("shard-exec"), "{rendered}");
        assert!(rendered.contains("2.00ms"), "{rendered}");
        assert!(rendered.contains("500ns"), "{rendered}");
        assert!(table.title().contains("2 sample(s)"), "{}", table.title());
    }

    #[test]
    fn empty_stages_render_placeholders() {
        let table = stage_latency_table(&TelemetrySnapshot::default());
        for row in table.rows() {
            assert_eq!(row[1], "0");
            assert_eq!(row[2], "-");
            assert_eq!(row[5], "-");
        }
    }

    #[test]
    fn duration_formatting_scales_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.50s");
    }
}
