//! Reporting and figure regeneration for the LATEST reproduction.
//!
//! The paper's evaluation artefacts are heatmaps (Fig. 3, 7, 8), violin
//! plots (Fig. 4), scatter plots (Fig. 5, 6), boxplots (Fig. 9) and two
//! tables. This crate turns campaign results into those artefacts as
//! plain-text renderings plus machine-readable exports:
//!
//! * [`heatmap`] — labelled 2-D grids with ANSI colour scales and CSV
//!   export (initial frequency in rows, target in columns, as the paper
//!   lays them out);
//! * [`violin`] — Gaussian-KDE density summaries split by transition
//!   direction (frequency increasing vs decreasing);
//! * [`boxplot`] — five-number summaries with 1.5·IQR whiskers and fliers;
//! * [`scatter`] — measurement-index vs latency plots with cluster labels;
//! * [`table`] — aligned text tables (Table I / Table II);
//! * [`govern`] — closed-loop governor scorecards (policy × traffic
//!   comparison table and heatmaps for the `latest govern` CLI);
//! * [`predicted`] — prediction-service validation figures
//!   (predicted-vs-measured scatter with confidence whiskers, relative
//!   error heatmap, per-pair comparison table);
//! * [`telemetry`] — the per-stage service latency quantile table
//!   (`latest queue stats`);
//! * [`experiments`] — paper-value vs measured-value records that generate
//!   the EXPERIMENTS.md comparison sections.
//!
//! All of the above render through one verb:
//!
//! * [`artifact`] — the [`Artifact`] trait: `render(Format) -> String` in
//!   each of the four [`Format`]s (text, a dependency-free SVG document,
//!   CSV, JSON); every figure type implements it;
//! * [`bundle`] — the [`Bundle`] composer: one call emits a complete
//!   paper-artefact directory (EXPERIMENTS.md, every figure in every
//!   format, summary CSV/JSON) for a campaign result;
//! * [`diff`] — [`CampaignDiff`]: per-pair latency deltas between two
//!   stored runs with Mann–Whitney significance, rendered as a signed
//!   heatmap and a regression table.

pub mod artifact;
pub mod boxplot;
pub mod bundle;
pub mod diff;
pub mod experiments;
pub mod govern;
pub mod heatmap;
pub mod predicted;
pub mod scatter;
mod svg;
pub mod table;
pub mod telemetry;
pub mod violin;

pub use artifact::{Artifact, Format};
pub use boxplot::{BoxStats, BoxplotGroup};
pub use bundle::Bundle;
pub use diff::{CampaignDiff, PairDelta};
pub use experiments::{ExperimentRecord, MetricRow};
pub use govern::{energy_heatmap, missed_rate_heatmap, policy_scorecard_table, PolicyScoreRow};
pub use heatmap::Heatmap;
pub use predicted::{prediction_error_heatmap, prediction_table, PredictionRow, PredictionScatter};
pub use scatter::Scatter;
pub use table::{campaign_summary_table, cross_device_table, CrossDeviceRow, TextTable};
pub use telemetry::stage_latency_table;
pub use violin::{DirectionSplit, ViolinPair, ViolinSummary};

#[cfg(test)]
mod testing;
