//! Closed-loop governor scorecards as report artefacts.
//!
//! The `latest govern` CLI scores each (policy × traffic) cell with the
//! governor daemon; this module renders those scores through the same
//! [`Artifact`](crate::artifact::Artifact) machinery as every other figure:
//! an aligned comparison table plus policy-by-traffic heatmaps of the
//! missed-deadline rate and energy. The row type is deliberately plain (no
//! `latest-governor` dependency) so any scorecard-shaped data renders.

use crate::heatmap::Heatmap;
use crate::table::TextTable;

/// One (policy × traffic) scorecard row, reduced to the reported metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyScoreRow {
    /// Policy name.
    pub policy: String,
    /// Traffic scenario name.
    pub traffic: String,
    /// Requests offered.
    pub requests: usize,
    /// Requests that carried a deadline.
    pub with_deadline: usize,
    /// Deadline-carrying requests that completed late.
    pub missed_deadlines: usize,
    /// Median request latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile request latency (ms).
    pub p99_ms: f64,
    /// Energy over the run (J).
    pub energy_j: f64,
    /// Frequency switches issued.
    pub switches: usize,
    /// Total time with a switch in flight (ms).
    pub time_in_switch_ms: f64,
}

impl PolicyScoreRow {
    /// Missed-deadline rate over deadline-carrying requests (0 when none).
    pub fn missed_rate(&self) -> f64 {
        if self.with_deadline == 0 {
            0.0
        } else {
            self.missed_deadlines as f64 / self.with_deadline as f64
        }
    }
}

/// The policy-comparison table: one row per (policy × traffic) cell, in the
/// order given.
pub fn policy_scorecard_table(rows: &[PolicyScoreRow]) -> TextTable {
    let mut table = TextTable::with_header(&[
        "traffic",
        "policy",
        "requests",
        "deadlines",
        "missed",
        "miss %",
        "p50 ms",
        "p99 ms",
        "energy J",
        "switches",
        "in-switch ms",
    ])
    .titled("Closed-loop governor scorecards");
    for r in rows {
        table.row(&[
            r.traffic.clone(),
            r.policy.clone(),
            r.requests.to_string(),
            r.with_deadline.to_string(),
            r.missed_deadlines.to_string(),
            format!("{:.2}", 100.0 * r.missed_rate()),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.1}", r.energy_j),
            r.switches.to_string(),
            format!("{:.1}", r.time_in_switch_ms),
        ]);
    }
    table
}

/// Distinct values in first-appearance order.
fn ordered_distinct<'a>(items: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for item in items {
        if !out.iter().any(|x| x == item) {
            out.push(item.to_string());
        }
    }
    out
}

/// Build a policy (rows) × traffic (columns) heatmap of `metric`.
fn metric_heatmap(
    rows: &[PolicyScoreRow],
    title: &str,
    metric: impl Fn(&PolicyScoreRow) -> f64,
) -> Heatmap {
    let policies = ordered_distinct(rows.iter().map(|r| r.policy.as_str()));
    let traffics = ordered_distinct(rows.iter().map(|r| r.traffic.as_str()));
    let mut map = Heatmap::new(policies.clone(), traffics.clone()).with_title(title);
    for r in rows {
        let i = policies
            .iter()
            .position(|p| p == &r.policy)
            .expect("row policy listed");
        let j = traffics
            .iter()
            .position(|t| t == &r.traffic)
            .expect("row traffic listed");
        map.set(i, j, Some(metric(r)));
    }
    map
}

/// Missed-deadline rate (percent) per policy × traffic.
pub fn missed_rate_heatmap(rows: &[PolicyScoreRow]) -> Heatmap {
    metric_heatmap(
        rows,
        "Missed-deadline rate (%) by policy and traffic",
        |r| 100.0 * r.missed_rate(),
    )
}

/// Energy (J) per policy × traffic.
pub fn energy_heatmap(rows: &[PolicyScoreRow]) -> Heatmap {
    metric_heatmap(rows, "Energy (J) by policy and traffic", |r| r.energy_j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};

    fn rows() -> Vec<PolicyScoreRow> {
        let mut out = Vec::new();
        for (ti, traffic) in ["bursty", "deadline"].iter().enumerate() {
            for (pi, policy) in ["run-at-max", "latency-oblivious", "latency-aware"]
                .iter()
                .enumerate()
            {
                out.push(PolicyScoreRow {
                    policy: policy.to_string(),
                    traffic: traffic.to_string(),
                    requests: 1000,
                    with_deadline: 800,
                    missed_deadlines: 40 * pi + 10 * ti,
                    p50_ms: 6.0 + pi as f64,
                    p99_ms: 30.0 + 10.0 * pi as f64,
                    energy_j: 900.0 - 50.0 * pi as f64,
                    switches: 10 * pi,
                    time_in_switch_ms: 120.0 * pi as f64,
                });
            }
        }
        out
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let table = policy_scorecard_table(&rows());
        assert_eq!(table.n_rows(), 6);
        let text = table.render(Format::Text);
        assert!(text.contains("latency-aware"));
        assert!(text.contains("miss %"));
    }

    #[test]
    fn heatmaps_are_policy_by_traffic() {
        let rows = rows();
        let miss = missed_rate_heatmap(&rows);
        assert_eq!(miss.n_rows(), 3);
        assert_eq!(miss.n_cols(), 2);
        // run-at-max on bursty: 0 missed of 800.
        assert_eq!(miss.get(0, 0), Some(0.0));
        // latency-oblivious on bursty: 40/800 = 5 %.
        assert_eq!(miss.get(1, 0), Some(5.0));
        let energy = energy_heatmap(&rows);
        assert_eq!(energy.get(2, 1), Some(800.0));
    }

    #[test]
    fn artefacts_render_in_every_format() {
        let rows = rows();
        let table = policy_scorecard_table(&rows);
        let map = missed_rate_heatmap(&rows);
        for format in Format::ALL {
            table.render(format);
            map.render(format);
        }
    }

    #[test]
    fn heatmap_csv_quotes_comma_bearing_traffic_names() {
        // Traffic names come from user JSON; a comma in one must not split
        // its column in `govern --out`'s missed_rate.csv / energy.csv.
        let rows: Vec<PolicyScoreRow> = rows()
            .into_iter()
            .map(|r| PolicyScoreRow {
                traffic: r.traffic.replace("bursty", "bursty, \"tight\""),
                ..r
            })
            .collect();
        for map in [missed_rate_heatmap(&rows), energy_heatmap(&rows)] {
            let csv = map.render(Format::Csv);
            let mut lines = csv.lines();
            assert_eq!(
                lines.next(),
                Some(r#"init_mhz,"bursty, ""tight""",deadline"#)
            );
            for line in lines {
                assert_eq!(line.split(',').count(), 3, "{line}");
            }
        }
    }

    #[test]
    fn missed_rate_handles_deadline_free_scenarios() {
        let row = PolicyScoreRow {
            with_deadline: 0,
            missed_deadlines: 0,
            ..rows().remove(0)
        };
        assert_eq!(row.missed_rate(), 0.0);
    }
}
