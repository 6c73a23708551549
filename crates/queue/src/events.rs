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
//! The thread that produces an event calls the observers with it, so
//! each event is seen when it happens.

use std::sync::mpsc::Sender;

use latest_core::session::CampaignEvent;
use latest_core::store::RunId;

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
/// Implemented for any `Fn(&QueueEvent) + Send + Sync` closure. The
/// contract:
///
/// * called on the thread that produced the event, as it happens — a
///   slow observer slows that worker;
/// * called one event at a time across the whole pool, never
///   concurrently; events of different jobs interleave arbitrarily, but
///   per job they respect the campaign event ordering;
/// * never called with the journal lock held, so it may call back into
///   the queue (`request_cancel`).
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
    fn channel_observer_forwards() {
        let (tx, rx) = std::sync::mpsc::channel();
        let obs = QueueChannelObserver::new(tx);
        obs.event(&QueueEvent::Cancelled { job: JobId(9) });
        drop(obs);
        let got: Vec<QueueEvent> = rx.iter().collect();
        assert_eq!(got, vec![QueueEvent::Cancelled { job: JobId(9) }]);
    }
}
