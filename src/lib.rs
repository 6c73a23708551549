//! # latest-rs
//!
//! A from-scratch Rust reproduction of *"Methodology for GPU Frequency
//! Switching Latency Measurement"* (Velička, Vysocky, Riha — IT4Innovations,
//! IPPS 2025, arXiv:2502.20075), including the paper's LATEST benchmarking
//! tool and every substrate it depends on, running against a deterministic
//! virtual-time GPU simulator.
//!
//! This facade crate re-exports the workspace crates under one namespace so
//! examples, integration tests and downstream users deal with a single
//! dependency:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`sim_clock`] | `latest-sim-clock` | virtual time, clock views |
//! | [`gpu_sim`] | `latest-gpu-sim` | the simulated GPU (SMs, DVFS, thermals) |
//! | [`nvml`] | `latest-nvml-sim` | NVML-shaped driver façade |
//! | [`cuda`] | `latest-cuda-sim` | CUDA-shaped host runtime façade |
//! | [`clock_sync`] | `latest-clock-sync` | IEEE 1588 host↔device timer sync |
//! | [`stats`] | `latest-stats` | tests, intervals, RSE, quantiles |
//! | [`cluster`] | `latest-cluster` | DBSCAN, k-NN, silhouette, Alg. 3 |
//! | [`core`] | `latest-core` | the LATEST methodology (Alg. 1 & 2) |
//! | [`ftalat`] | `latest-ftalat` | FTaLaT CPU baseline (Sec. IV) |
//! | [`governor`] | `latest-governor` | latency-aware DVFS governor (Sec. VIII application) |
//! | [`queue`] | `latest-queue` | campaign execution service (job queue, workers, result cache) |
//! | [`telemetry`] | `latest-telemetry` | lock-free stage latency histograms, clocks, registries |
//! | [`traffic`] | `latest-traffic` | deterministic open-loop traffic generators |
//! | [`predict`] | `latest-predict` | latency models fitted over the archive, served to the governor |
//! | [`report`] | `latest-report` | heatmaps, violins, tables, CSV |
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs`; the one-paragraph version:
//!
//! ```no_run
//! use latest::core::{CampaignEvent, CampaignSpec};
//!
//! // Measure the SM frequency switching latency between two frequencies on
//! // a simulated A100-SXM4, streaming progress as pairs finish.
//! let session = CampaignSpec::builder("a100")
//!     .frequencies_mhz(&[1095, 1410])
//!     .seed(42)
//!     .build()
//!     .expect("valid spec")
//!     .into_session()
//!     .expect("built-in device and workload")
//!     .observe(|e: &CampaignEvent| eprintln!("{e}"));
//! let campaign = session.run().expect("campaign failed");
//! for pair in campaign.pairs() {
//!     println!("{} -> {}: {:?}", pair.init, pair.target, pair.filtered_summary());
//! }
//! ```
//!
//! Without observers, `spec.into_session()?.run()` is the whole blocking
//! call; multi-device sweeps use
//! [`core::Fleet`](latest_core::fleet::Fleet).

pub use latest_clock_sync as clock_sync;
pub use latest_cluster as cluster;
pub use latest_core as core;
pub use latest_cuda_sim as cuda;
pub use latest_ftalat as ftalat;
pub use latest_governor as governor;
pub use latest_gpu_sim as gpu_sim;
pub use latest_nvml_sim as nvml;
pub use latest_predict as predict;
pub use latest_queue as queue;
pub use latest_report as report;
pub use latest_sim_clock as sim_clock;
pub use latest_stats as stats;
pub use latest_telemetry as telemetry;
pub use latest_traffic as traffic;
