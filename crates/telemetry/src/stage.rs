//! The service's stage taxonomy: where a job's wall-clock time goes
//! between submission and settle.
//!
//! Every stage is a latency distribution recorded by the worker that
//! observed the transition:
//!
//! ```text
//!   submit ──▶ first seen ──▶ claimed ──▶ pairs fanned out ──▶ settle
//!              ╰─ QueueWait ─╯╰ ClaimToStart ╯
//!                             ╰───────── SettleLatency ───────╯
//!   per pair:    ShardExec (measure)   CheckpointStall (write)
//!   per event:   EventFanIn (delivery to every observer)
//! ```
//!
//! Events are delivered on the thread that produces them, so a pair's
//! own `PairStarted`/`PairFinished` deliveries fall inside that pair's
//! `ShardExec` window, as `latest run`'s observers run inside the pair.

use std::fmt;

/// A stage of the service pipeline; see the [module docs](self).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Submission (first seen by a claim scan) until a worker claims the job.
    QueueWait,
    /// Claim until the member's pairs are fanned out onto the task board.
    ClaimToStart,
    /// Measurement of one pair task (the name predates pair tasks; it is
    /// reported as `shard-exec`).
    ShardExec,
    /// A checkpoint write stalling the worker that hit the boundary.
    CheckpointStall,
    /// Claim until the job settles (done, failed or cancelled).
    SettleLatency,
    /// Delivery of one queue event to every attached observer, on the
    /// thread that produced it.
    EventFanIn,
}

impl Stage {
    /// Number of stages; the length of per-slot recorder arrays.
    pub const COUNT: usize = 6;

    /// Every stage, in recorder-slot order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::ClaimToStart,
        Stage::ShardExec,
        Stage::CheckpointStall,
        Stage::SettleLatency,
        Stage::EventFanIn,
    ];

    /// The stage's slot in per-recorder arrays (dense, `0..COUNT`).
    pub fn index(&self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::ClaimToStart => 1,
            Stage::ShardExec => 2,
            Stage::CheckpointStall => 3,
            Stage::SettleLatency => 4,
            Stage::EventFanIn => 5,
        }
    }

    /// Stable kebab-case name used in JSON snapshots and report tables.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::QueueWait => "queue-wait",
            Stage::ClaimToStart => "claim-to-start",
            Stage::ShardExec => "shard-exec",
            Stage::CheckpointStall => "checkpoint-stall",
            Stage::SettleLatency => "settle-latency",
            Stage::EventFanIn => "event-fan-in",
        }
    }

    /// Parse a [`Stage::name`] back into a stage.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(format!("{stage}"), stage.name());
        }
        assert_eq!(Stage::from_name("no-such-stage"), None);
    }

    #[test]
    fn names_are_unique_kebab_case() {
        let mut seen = std::collections::HashSet::new();
        for stage in Stage::ALL {
            assert!(seen.insert(stage.name()), "duplicate name {}", stage.name());
            assert!(stage
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
