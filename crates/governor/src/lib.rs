//! Latency-aware DVFS governor — the paper's motivating application.
//!
//! The paper's introduction and summary (Secs. I and VIII) motivate the
//! whole measurement effort with a runtime system that adjusts accelerator
//! frequency *during* a workload: "the frequency changes can be performed
//! with better timing" and "the runtime system may avoid some frequency
//! transitions, which show overhead higher than other frequency pairs".
//! This crate closes that loop: it consumes the switching-latency tables
//! produced by the LATEST campaign and uses them to drive frequency-scaling
//! decisions under synthetic request traffic.
//!
//! * [`table`] — [`LatencyTable`]: the per-pair switching-latency knowledge
//!   base, built from a [`latest_core::CampaignResult`] or raw entries, with
//!   percentile queries, expensive-pair classification and JSON round-trip;
//!   and [`TransitionReplay`], which draws each switch's cost from the
//!   measured distribution of its pair.
//! * [`power`] — frequency-to-power model with a cubic dynamic part,
//!   calibrated per device, and energy integration over busy and idle time.
//! * [`daemon`] — the governor: a [`daemon::GovernorDaemon`] polls a
//!   simulated device under open-loop `latest-traffic` load, classifies
//!   utilisation into zones with stability counters and hysteresis, and
//!   asks a [`DaemonPolicy`] (run-at-max, latency-oblivious or
//!   latency-aware) for a frequency. Switches cost what the paper measures:
//!   the device keeps serving at the old clock until the switch lands.
//!   Produces per-(policy × traffic) [`daemon::Scorecard`]s.
//!
//! The comparison this enables (latency-aware vs latency-oblivious on GPUs
//! with and without pathological pairs) is regenerated by `repro_governor`
//! in the bench crate.

pub mod daemon;
pub mod power;
pub mod table;

pub use daemon::{
    make_policy, replay_seed, scorecards_to_json, DaemonConfig, DaemonPolicy, GovernorDaemon,
    LatencyAwareDaemon, LatencyObliviousDaemon, LoadZone, RunAtMaxDaemon, Scorecard, ZoneLadder,
    POLICY_NAMES,
};
pub use power::{PhaseKind, PowerModel};
pub use table::{LatencyTable, PairLatency, SkippedPairs, TransitionReplay};
