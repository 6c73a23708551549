//! Density-based clustering for switching-latency outlier analysis.
//!
//! Section V-C of the paper filters outlier measurements (CUDA driver
//! management, CPU-side interruptions, monitoring daemons) from each
//! frequency-pair dataset with DBSCAN, using an *adaptive* parameter-selection
//! loop (Algorithm 3):
//!
//! * `eps` is a multiple of the 0.05–0.95 quantile range of the latencies,
//! * `minPts` walks down from 4 % to 2 % of the dataset size in steps of two,
//! * the loop stops as soon as fewer than 10 % of points are labelled noise.
//!
//! This crate provides, from scratch:
//!
//! * [`dbscan::Dbscan`] — DBSCAN with an exact 1-D path (the latency
//!   datasets are one-dimensional): an O(n log n) sort followed by an O(n)
//!   sweep over the sorted data, and a generic multi-dimensional fallback,
//! * [`silhouette`] — the silhouette score the paper uses to validate that
//!   multi-cluster pairs are genuinely separated (score > 0.4, avg 0.84),
//! * [`adaptive`] — Algorithm 3 itself.

pub mod adaptive;
pub mod dbscan;
pub mod silhouette;

pub use adaptive::{adaptive_outlier_filter, AdaptiveConfig, AdaptiveOutcome};
pub use dbscan::{Dbscan, Label, Labeling};
pub use silhouette::silhouette_score_1d;
