//! The campaign execution service: a persistent job queue, a bounded
//! worker pool and a content-addressed result cache over the LATEST
//! methodology.
//!
//! The paper's methodology is a long-running measurement campaign per
//! device (Secs. IV–VI); a production deployment serves *many* campaigns
//! from many clients — performance models and DVFS schedulers hammering a
//! measurement service with overlapping spec requests. This crate is that
//! service layer:
//!
//! * **[`JobQueue`]** — a crash-safe, directory-backed queue of
//!   [`Job`]s (`Queued → Running → Done/Failed/Cancelled`), journaled one
//!   atomic-rename file per job, scheduled priority-first and FIFO within
//!   a priority. Submissions of the same spec share a content-addressed
//!   [`JobKey`], so duplicates coalesce onto one execution.
//! * **[`WorkerPool`]** — a work-stealing pair scheduler: a claimed job
//!   becomes one task per pending [`PairTask`](latest_core::PairTask),
//!   spread across every worker thread, with per-job
//!   [`CancelToken`](latest_core::CancelToken)s, a journaled
//!   [`PairLedger`] of in-flight progress and periodic resumable
//!   checkpoints: a killed service requeues its in-flight jobs on restart
//!   and resumes each from its checkpoint bitwise identical to an
//!   uninterrupted run.
//! * **Result cache** — before executing, a job consults the
//!   [`ResultStore`](latest_core::ResultStore): an archived run of the
//!   identical spec is served without recomputation (unless the job was
//!   submitted with `force`), and completed jobs auto-archive — the store
//!   memoizes the whole service.
//! * **[`QueueEvent`] multiplexer** — slot-tagged fan-in of every
//!   worker's campaign event stream, for live progress across concurrent
//!   jobs ([`ProgressFormatter`] renders the feed lines `queue watch`
//!   replays). The producing thread calls the observers as each event
//!   happens, one event at a time; the persisted feed is a rotating
//!   [`EventLog`] that [`EventTail`] follows across rotations.
//! * **Service telemetry** — per-worker lock-free stage latency
//!   recorders ([`latest_telemetry`]) time queue wait, claim-to-start,
//!   pair execution, checkpoint stalls, settle latency and event
//!   fan-in; the merged snapshot rides on [`DrainStats`] and persists as
//!   `<dir>/telemetry.json` for `queue status` / `queue stats`.
//!
//! ```no_run
//! use latest_queue::{JobQueue, PoolConfig, SubmitOptions, WorkerPool};
//! use latest_core::spec::{CampaignSpec, ScenarioSpec};
//!
//! let spec = ScenarioSpec::Campaign(
//!     CampaignSpec::builder("a100")
//!         .frequencies_mhz(&[705, 1410])
//!         .build()
//!         .unwrap(),
//! );
//! let queue = JobQueue::open("latest-queue").unwrap();
//! queue.submit(spec.clone(), SubmitOptions::default()).unwrap();
//! queue.submit(spec, SubmitOptions::default()).unwrap(); // coalesces
//!
//! let pool = WorkerPool::open("latest-queue", PoolConfig::default()).unwrap();
//! let stats = pool.drain().unwrap();
//! assert_eq!(stats.executed, 1);
//! assert_eq!(stats.coalesced, 1);
//! ```

pub mod error;
pub mod eventlog;
pub mod events;
pub mod job;
pub mod pool;
pub mod progress;
pub mod queue;

pub use error::{QueueError, QueueResult};
pub use eventlog::{EventLog, EventTail};
pub use events::{QueueChannelObserver, QueueEvent, QueueObserver};
pub use job::{CompletionVia, Job, JobId, JobKey, JobState, MemberLedger, PairLedger};
pub use pool::{DrainStats, PoolConfig, WorkerPool};
pub use progress::ProgressFormatter;
pub use queue::{Claim, JobQueue, QueueCounts, QueueLock, ServiceLock, SubmitOptions};
