//! The service-wide event multiplexer: every worker's per-campaign
//! [`CampaignEvent`] stream, plus job lifecycle transitions, fanned into
//! one slot-tagged feed.
//!
//! A [`QueueObserver`] sees every event of every concurrent job; a
//! [`QueueChannelObserver`] forwards them into a plain
//! [`std::sync::mpsc`] channel for live UIs (`queue watch` tails the
//! rendered feed). Tagging is two-level: the job id, and — inside fleet
//! jobs — the member slot the campaign event came from.
//!
//! Between the producing workers and the observers sits an
//! [`EventSpool`]: per-worker bounded buffers drained in seq-ordered
//! batches, so the record-side cost of an event is one buffer append
//! instead of a synchronous fan-out through every observer — and when a
//! buffer fills, the event is *counted* as dropped (the pool's
//! dropped-event counter) instead of silently blocking the measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;

use latest_core::session::CampaignEvent;
use latest_core::store::RunId;
use parking_lot::Mutex;

use crate::job::JobId;

/// One event in the multiplexed service feed.
#[derive(Clone, Debug, PartialEq)]
pub enum QueueEvent {
    /// A worker claimed a job.
    Started {
        /// The claimed job.
        job: JobId,
        /// Worker slot (0-based) executing it.
        worker: usize,
    },
    /// A claimed job was fanned out onto the task board; its pair total
    /// is known. Emitted once per executed job, after `Started` and
    /// before any `Progress`.
    Planned {
        /// The planned job.
        job: JobId,
        /// Fleet member campaigns in the job (1 for campaign jobs).
        members: usize,
        /// Total ordered frequency pairs across all members.
        pairs: usize,
    },
    /// A campaign event from one member of a running job.
    Progress {
        /// The running job.
        job: JobId,
        /// Member slot within the job (0 for campaign jobs).
        member: usize,
        /// The underlying campaign event.
        event: CampaignEvent,
    },
    /// A job was served from the result cache without recomputation.
    CacheHit {
        /// The satisfied job.
        job: JobId,
        /// Archive addresses the results were served from.
        run_ids: Vec<RunId>,
    },
    /// A job finished executing; results are archived.
    Done {
        /// The finished job.
        job: JobId,
        /// Archive addresses of the results.
        run_ids: Vec<RunId>,
    },
    /// A queued duplicate was settled by another job's execution.
    Coalesced {
        /// The settled duplicate.
        job: JobId,
        /// The job whose execution satisfied it.
        with: JobId,
    },
    /// A job failed; it will not be retried.
    Failed {
        /// The failed job.
        job: JobId,
        /// The rendered error.
        error: String,
    },
    /// A job was cancelled by request.
    Cancelled {
        /// The cancelled job.
        job: JobId,
    },
    /// A running job was requeued because the service is shutting down;
    /// its checkpoint resumes it on restart.
    Requeued {
        /// The requeued job.
        job: JobId,
    },
}

impl QueueEvent {
    /// The job the event concerns.
    pub fn job(&self) -> JobId {
        match self {
            QueueEvent::Started { job, .. }
            | QueueEvent::Planned { job, .. }
            | QueueEvent::Progress { job, .. }
            | QueueEvent::CacheHit { job, .. }
            | QueueEvent::Done { job, .. }
            | QueueEvent::Coalesced { job, .. }
            | QueueEvent::Failed { job, .. }
            | QueueEvent::Cancelled { job }
            | QueueEvent::Requeued { job } => *job,
        }
    }
}

fn join_ids(run_ids: &[RunId]) -> String {
    run_ids
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl std::fmt::Display for QueueEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueEvent::Started { job, worker } => write!(f, "{job} started on worker {worker}"),
            QueueEvent::Planned {
                job,
                members,
                pairs,
            } => {
                write!(f, "{job} planned: {members} member(s), {pairs} pairs")
            }
            QueueEvent::Progress { job, member, event } => {
                write!(f, "{job}[m{member}] {event}")
            }
            QueueEvent::CacheHit { job, run_ids } => {
                write!(f, "{job} served from cache ({})", join_ids(run_ids))
            }
            QueueEvent::Done { job, run_ids } => {
                write!(f, "{job} done ({})", join_ids(run_ids))
            }
            QueueEvent::Coalesced { job, with } => {
                write!(f, "{job} coalesced with {with}")
            }
            QueueEvent::Failed { job, error } => write!(f, "{job} failed: {error}"),
            QueueEvent::Cancelled { job } => write!(f, "{job} cancelled"),
            QueueEvent::Requeued { job } => {
                write!(f, "{job} requeued for resume (service shutting down)")
            }
        }
    }
}

/// Observer hook for the multiplexed service feed.
///
/// Implemented for any `Fn(&QueueEvent) + Send + Sync` closure; events
/// arrive from worker threads in arbitrary interleaving between jobs, but
/// per job they respect the campaign event ordering.
pub trait QueueObserver: Send + Sync {
    /// Called for every event of every job.
    fn event(&self, event: &QueueEvent);
}

impl<F: Fn(&QueueEvent) + Send + Sync> QueueObserver for F {
    fn event(&self, event: &QueueEvent) {
        self(event)
    }
}

/// Observer that forwards every event into an mpsc channel.
pub struct QueueChannelObserver {
    tx: Sender<QueueEvent>,
}

impl QueueChannelObserver {
    /// Wrap a sender.
    pub fn new(tx: Sender<QueueEvent>) -> Self {
        QueueChannelObserver { tx }
    }
}

impl QueueObserver for QueueChannelObserver {
    fn event(&self, event: &QueueEvent) {
        // A dropped receiver only means nobody is listening any more.
        let _ = self.tx.send(event.clone());
    }
}

/// Per-worker bounded event buffers with a global sequence, drained in
/// batches; see the [module docs](self).
///
/// Each producing thread pushes into its own slot (one short mutex with
/// no other contenders), tagged with a globally-ordered sequence number.
/// [`EventSpool::drain`] merges every slot back into production order.
/// `push` returning `false` means the slot was full and the event was
/// discarded — the caller counts it instead of blocking.
pub struct EventSpool {
    seq: AtomicU64,
    slots: Box<[Mutex<SpoolBuffer>]>,
    capacity: usize,
}

/// One slot's buffer: sequence-tagged events awaiting a drain.
type SpoolBuffer = Vec<(u64, QueueEvent)>;

impl EventSpool {
    /// A spool with `slots` buffers of `capacity` events each (both at
    /// least 1).
    pub fn new(slots: usize, capacity: usize) -> Self {
        let n = slots.max(1);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Mutex::new(Vec::new()));
        EventSpool {
            seq: AtomicU64::new(0),
            slots: v.into_boxed_slice(),
            capacity: capacity.max(1),
        }
    }

    /// Number of buffer slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Buffer one event under `slot` (clamped to the last slot). Returns
    /// `false` — and discards the event — when the buffer is full.
    pub fn push(&self, slot: usize, event: QueueEvent) -> bool {
        let i = slot.min(self.slots.len() - 1);
        let mut buf = self.slots[i].lock();
        if buf.len() >= self.capacity {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        buf.push((seq, event));
        true
    }

    /// Take everything buffered so far, across all slots, in sequence
    /// (production) order.
    pub fn drain(&self) -> Vec<QueueEvent> {
        let mut merged: Vec<(u64, QueueEvent)> = Vec::new();
        for slot in self.slots.iter() {
            let mut buf = slot.lock();
            merged.append(&mut buf);
        }
        merged.sort_by_key(|(seq, _)| *seq);
        merged.into_iter().map(|(_, e)| e).collect()
    }

    /// Discard everything buffered and restart the sequence.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.lock().clear();
        }
        self.seq.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lines_are_job_prefixed() {
        let e = QueueEvent::Started {
            job: JobId(3),
            worker: 1,
        };
        assert_eq!(e.to_string(), "job-000003 started on worker 1");
        assert_eq!(e.job(), JobId(3));
        let e = QueueEvent::Progress {
            job: JobId(4),
            member: 2,
            event: CampaignEvent::ProbeDone {
                max_latency_ms: 1.5,
            },
        };
        assert!(e.to_string().starts_with("job-000004[m2] probe done"));
        let e = QueueEvent::Coalesced {
            job: JobId(5),
            with: JobId(1),
        };
        assert_eq!(e.to_string(), "job-000005 coalesced with job-000001");
    }

    #[test]
    fn spool_drains_in_sequence_order_across_slots() {
        let spool = EventSpool::new(3, 8);
        assert!(spool.push(0, QueueEvent::Cancelled { job: JobId(1) }));
        assert!(spool.push(2, QueueEvent::Cancelled { job: JobId(2) }));
        assert!(spool.push(0, QueueEvent::Cancelled { job: JobId(3) }));
        assert!(spool.push(1, QueueEvent::Cancelled { job: JobId(4) }));
        let jobs: Vec<JobId> = spool.drain().iter().map(QueueEvent::job).collect();
        assert_eq!(jobs, vec![JobId(1), JobId(2), JobId(3), JobId(4)]);
        assert!(spool.drain().is_empty(), "drain takes everything");
    }

    #[test]
    fn full_slots_reject_instead_of_blocking() {
        let spool = EventSpool::new(2, 2);
        assert!(spool.push(0, QueueEvent::Cancelled { job: JobId(1) }));
        assert!(spool.push(0, QueueEvent::Cancelled { job: JobId(2) }));
        assert!(
            !spool.push(0, QueueEvent::Cancelled { job: JobId(3) }),
            "third push into a 2-deep slot must report the drop"
        );
        // The sibling slot still has room, and out-of-range slots clamp.
        assert!(spool.push(1, QueueEvent::Cancelled { job: JobId(4) }));
        assert!(spool.push(99, QueueEvent::Cancelled { job: JobId(5) }));
        assert_eq!(spool.drain().len(), 4);
        spool.reset();
        assert!(spool.push(0, QueueEvent::Cancelled { job: JobId(6) }));
        assert_eq!(spool.drain().len(), 1);
    }

    #[test]
    fn channel_observer_forwards() {
        let (tx, rx) = std::sync::mpsc::channel();
        let obs = QueueChannelObserver::new(tx);
        obs.event(&QueueEvent::Cancelled { job: JobId(9) });
        drop(obs);
        let got: Vec<QueueEvent> = rx.iter().collect();
        assert_eq!(got, vec![QueueEvent::Cancelled { job: JobId(9) }]);
    }
}
