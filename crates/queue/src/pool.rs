//! The work-stealing shard scheduler: N threads pulling jobs off the
//! [`JobQueue`] and executing them at *pair-shard* granularity, with
//! cooperative cancellation, periodic cross-shard checkpoints and the
//! result cache.
//!
//! Execution path per job:
//!
//! 1. **Cache** — unless the job was submitted with `force`, an archived
//!    run of every member spec (the [`RunId`]s are known up front:
//!    execution is deterministic) is a cache hit served without
//!    recomputation.
//! 2. **Plan** — the claiming worker fans the job out onto the shared
//!    task board: one setup task per member campaign. Each setup resolves
//!    its spec, restores any matching checkpoint, runs the phase-1 +
//!    probe prelude once, and decomposes the member's pending pairs into
//!    [`WorkUnit`] shards — so a single claimed job spreads across every
//!    idle worker in the pool, not just the claimer.
//! 3. **Execute** — workers steal shard tasks off the board and run them
//!    through the member's [`CampaignSession`]. Per-pair platforms are
//!    seeded from the campaign seed and the pair alone, so the
//!    interleaving of shards across workers is invisible in the results:
//!    the assembled output is bitwise identical to
//!    [`CampaignSession::run`]. Settled pairs fold into a per-member
//!    [`SpecCheckpoint`] (atomic write-to-temp + rename), and the shard
//!    ledger on the job's journal entry tracks pair/shard progress for
//!    `queue status`.
//! 4. **Archive** — when a job's last shard settles, the finishing worker
//!    assembles each member's slots ([`CampaignSession::finish`]),
//!    archives each member result into the [`ResultStore`], and settles
//!    the job.
//! 5. **Settle** — still-queued duplicates of the job's key are marked
//!    `Done` (coalesced): two submissions of the same spec observe one
//!    execution.
//!
//! Shutdown ([`WorkerPool::shutdown_token`]) cancels every in-flight
//! session; their partial results are checkpointed and the jobs revert to
//! `Queued`, so a restarted service resumes each one from where the last
//! run stopped — even mid-shard, the crash-recovery path and the
//! graceful-shutdown path are the same code.
//!
//! Every stage of this path is timed into per-worker lock-free latency
//! recorders ([`latest_telemetry`]): queue wait, claim-to-start, shard
//! execution, checkpoint stalls, settle latency and observer fan-in.
//! The merged [`TelemetrySnapshot`] rides on [`DrainStats`] and is
//! persisted as `<dir>/telemetry.json` at the end of every drain/serve
//! call. Between workers and observers sits an
//! [`EventSpool`]: the measurement path pays
//! one bounded buffer append per event (drops are counted, never
//! blocking), and batches are delivered in production order at pair,
//! task and lifecycle boundaries.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::Duration;

use latest_core::session::{
    settle, CampaignEvent, CampaignPrelude, CampaignSession, CancelToken, WorkUnit,
};
use latest_core::spec::{CampaignSpec, SpecCheckpoint};
use latest_core::store::{write_atomic, ResultStore, RunId, StoreError};
use latest_core::{CoreError, PairMeasurement};
use latest_telemetry::{ClockSpec, Registry, Stage, StageClock, TelemetrySnapshot};
use parking_lot::Mutex;

use crate::error::QueueResult;
use crate::events::{EventSpool, QueueChannelObserver, QueueEvent, QueueObserver};
use crate::job::{CompletionVia, Job, JobId, JobState, MemberLedger, ShardLedger};
use crate::queue::JobQueue;

/// Tuning knobs for a [`WorkerPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (at least 1).
    pub workers: usize,
    /// Pairs between resumable checkpoint snapshots.
    pub checkpoint_every: usize,
    /// How long an idle worker sleeps before re-polling the journal.
    pub poll_interval: Duration,
    /// Archive directory override (`None` = `<queue dir>/store`).
    pub store_dir: Option<PathBuf>,
    /// Pairs per shard work unit (0 = auto: about two shards per worker,
    /// so a claimed job keeps the whole pool busy with headroom for
    /// stealing).
    pub shard_pairs: usize,
    /// How service-side timing is taken: real monotonic time (default) or
    /// virtual tick time for deterministic telemetry in tests and the CI
    /// determinism gate (meaningful with `workers: 1` — tick clocks are
    /// per-thread).
    pub clock: ClockSpec,
    /// Capacity of each worker's event buffer; events beyond it are
    /// dropped (and counted) instead of blocking the measurement path.
    pub event_buffer: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 2,
            checkpoint_every: 1,
            poll_interval: Duration::from_millis(25),
            store_dir: None,
            shard_pairs: 0,
            clock: ClockSpec::Monotonic,
            event_buffer: 4096,
        }
    }
}

/// What a drain/serve call processed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Jobs that ran to completion on the pool.
    pub executed: usize,
    /// Jobs served from the result cache.
    pub cached: usize,
    /// Duplicates settled by another job's execution.
    pub coalesced: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled by request.
    pub cancelled: usize,
    /// In-flight jobs requeued by shutdown.
    pub requeued: usize,
    /// Shard work units executed across all jobs.
    pub shards_executed: usize,
    /// Pairs measured (not restored, not cancelled) across all jobs.
    pub pairs_measured: usize,
    /// Wall-clock milliseconds the call spent.
    pub elapsed_ms: u64,
    /// Merged per-stage service latency histograms for the call (queue
    /// wait, claim-to-start, shard execution, checkpoint stalls, settle
    /// latency, event fan-in), plus the dropped-event count.
    pub telemetry: TelemetrySnapshot,
}

impl DrainStats {
    /// Jobs settled successfully (executed + cached + coalesced).
    pub fn settled(&self) -> usize {
        self.executed + self.cached + self.coalesced
    }

    /// Settled jobs per wall-clock second (the service throughput figure).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 0.0;
        }
        self.settled() as f64 / (self.elapsed_ms as f64 / 1000.0)
    }

    /// Serialise to pretty JSON (the `queue serve --stats-out` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("drain stats serialise")
    }
}

impl serde::Serialize for DrainStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("executed".to_string(), self.executed.to_value()),
            ("cached".to_string(), self.cached.to_value()),
            ("coalesced".to_string(), self.coalesced.to_value()),
            ("failed".to_string(), self.failed.to_value()),
            ("cancelled".to_string(), self.cancelled.to_value()),
            ("requeued".to_string(), self.requeued.to_value()),
            (
                "shards_executed".to_string(),
                self.shards_executed.to_value(),
            ),
            ("pairs_measured".to_string(), self.pairs_measured.to_value()),
            ("elapsed_ms".to_string(), self.elapsed_ms.to_value()),
            ("jobs_per_sec".to_string(), self.jobs_per_sec().to_value()),
            ("telemetry".to_string(), self.telemetry.to_value()),
        ])
    }
}

impl std::fmt::Display for DrainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} settled ({} executed, {} cached, {} coalesced), {} failed, \
             {} cancelled, {} requeued; {} shards / {} pairs measured \
             in {:.2}s ({:.2} jobs/s)",
            self.settled(),
            self.executed,
            self.cached,
            self.coalesced,
            self.failed,
            self.cancelled,
            self.requeued,
            self.shards_executed,
            self.pairs_measured,
            self.elapsed_ms as f64 / 1000.0,
            self.jobs_per_sec(),
        )
    }
}

/// One schedulable step of an in-flight job on the task board.
enum Task {
    /// Resolve one member's spec, build its session, run the prelude and
    /// fan its pending pairs out as shard tasks.
    Setup { run: Arc<JobRun>, member: usize },
    /// Execute one shard work unit of a member campaign.
    Shard {
        run: Arc<JobRun>,
        member: usize,
        unit: WorkUnit,
    },
}

/// The shared task board every worker steals from. A plain FIFO deque
/// under a mutex — tasks are coarse (a prelude or a batch of pairs), so
/// contention here is noise next to the measurement work itself. The one
/// std `Mutex` in the crate: workers sleep on a `Condvar`, which the
/// `parking_lot` stand-in does not provide.
struct TaskBoard {
    tasks: StdMutex<VecDeque<Task>>,
    available: Condvar,
}

impl TaskBoard {
    fn new() -> Self {
        TaskBoard {
            tasks: StdMutex::new(VecDeque::new()),
            available: Condvar::new(),
        }
    }

    fn push(&self, new: Vec<Task>) {
        let mut tasks = self.tasks.lock().expect("task board poisoned");
        tasks.extend(new);
        self.available.notify_all();
    }

    fn pop(&self) -> Option<Task> {
        self.tasks.lock().expect("task board poisoned").pop_front()
    }

    /// Sleep until a task may be available (or the timeout passes — the
    /// caller re-checks shutdown and the journal either way).
    fn wait(&self, timeout: Duration) {
        let tasks = self.tasks.lock().expect("task board poisoned");
        if tasks.is_empty() {
            let _ = self.available.wait_timeout(tasks, timeout);
        }
    }

    fn clear(&self) {
        self.tasks.lock().expect("task board poisoned").clear();
    }
}

/// Shared state of one claimed job while its tasks are in flight.
struct JobRun {
    job: Mutex<Job>,
    /// Service-clock timestamp of the claim, the zero point for the job's
    /// claim-to-start and settle-latency telemetry.
    claimed_ns: u64,
    /// The job's cancellation token, shared with every member session.
    token: CancelToken,
    /// Per-member state, set by the member's setup task (`None` when the
    /// member was cancelled before its prelude finished).
    members: Vec<OnceLock<Option<MemberRun>>>,
    /// Unfinished tasks; the worker that drops it to zero finalises.
    outstanding: AtomicUsize,
    /// First terminal failure, if any (first writer wins).
    failure: Mutex<Option<String>>,
}

impl JobRun {
    fn fail(&self, message: String) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(message);
        }
        // Stop sibling shards promptly; the failure outranks the
        // cancellation when the job settles.
        self.token.cancel();
    }

    fn failed(&self) -> bool {
        self.failure.lock().is_some()
    }
}

/// One member campaign of an in-flight job: its session (shared by every
/// worker running its shards), the prelude, and the slot-wise results.
struct MemberRun {
    spec: CampaignSpec,
    session: CampaignSession,
    prelude: CampaignPrelude,
    ckpt_path: PathBuf,
    shards_total: usize,
    shards_done: AtomicUsize,
    /// Canonical-order result slots; `Some` once the pair settled (or was
    /// restored from a checkpoint).
    slots: Mutex<Vec<Option<PairMeasurement>>>,
}

/// Per-thread telemetry context: which registry/spool slot this thread
/// records into, and the stage clock it reads. Workers get slot `0..N` at
/// loop entry; every other thread (the drain caller, tests poking the
/// pool directly) lazily claims the shared service slot `N`.
struct WorkerCtx {
    slot: usize,
    clock: StageClock,
}

thread_local! {
    static WORKER_CTX: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

/// The campaign execution service. See the [module docs](self) for the
/// execution path.
pub struct WorkerPool {
    queue: JobQueue,
    store: ResultStore,
    config: PoolConfig,
    observers: Vec<Arc<dyn QueueObserver>>,
    shutdown: CancelToken,
    /// Serialises journal read-modify-write cycles across workers.
    claim_lock: Mutex<()>,
    /// Cancel tokens of in-flight jobs, keyed by job id.
    running: Mutex<HashMap<JobId, CancelToken>>,
    board: TaskBoard,
    stats: Mutex<DrainStats>,
    /// Per-slot stage latency recorders (one per worker + the service
    /// slot); merged into a [`TelemetrySnapshot`] at drain end.
    registry: Arc<Registry>,
    /// Per-slot bounded event buffers between workers and observers.
    spool: Arc<EventSpool>,
    /// Serialises observer delivery so drained batches keep their order.
    /// Lock order: `deliver` before the journal file lock, never inside
    /// it — observers may call back into the queue (`request_cancel`).
    deliver: Mutex<()>,
    /// Service-clock timestamp each queued job was first observed at, the
    /// zero point for its queue-wait telemetry.
    first_seen: Mutex<HashMap<JobId, u64>>,
}

impl WorkerPool {
    /// Open a pool over the queue directory. Crash recovery — reverting
    /// `Running` jobs a killed service left behind to `Queued`, to resume
    /// from their checkpoints — happens at the start of every
    /// [`WorkerPool::serve`]/[`WorkerPool::drain`] call, under the
    /// directory's exclusive service lock.
    pub fn open(dir: impl Into<PathBuf>, config: PoolConfig) -> QueueResult<WorkerPool> {
        let queue = JobQueue::open(dir)?;
        let store_dir = config
            .store_dir
            .clone()
            .unwrap_or_else(|| queue.default_store_dir());
        let store = ResultStore::open(store_dir)?;
        let config = PoolConfig {
            workers: config.workers.max(1),
            checkpoint_every: config.checkpoint_every.max(1),
            event_buffer: config.event_buffer.max(1),
            ..config
        };
        // One telemetry/spool slot per worker, plus the shared service
        // slot for the drain caller and any other thread.
        let slots = config.workers + 1;
        Ok(WorkerPool {
            queue,
            store,
            registry: Arc::new(Registry::new(slots)),
            spool: Arc::new(EventSpool::new(slots, config.event_buffer)),
            config,
            observers: Vec::new(),
            shutdown: CancelToken::new(),
            claim_lock: Mutex::new(()),
            running: Mutex::new(HashMap::new()),
            board: TaskBoard::new(),
            stats: Mutex::new(DrainStats::default()),
            deliver: Mutex::new(()),
            first_seen: Mutex::new(HashMap::new()),
        })
    }

    /// The pool's job queue.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// The result cache the pool consults and archives into.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Attach an observer to the multiplexed event feed; may be called
    /// several times.
    pub fn observe(mut self, observer: impl QueueObserver + 'static) -> Self {
        self.observers.push(Arc::new(observer));
        self
    }

    /// Attach a channel observer and return its receiving end.
    pub fn events(&mut self) -> Receiver<QueueEvent> {
        let (tx, rx) = channel();
        self.observers.push(Arc::new(QueueChannelObserver::new(tx)));
        rx
    }

    /// The pool-wide shutdown token: cancelling it winds down every
    /// worker; in-flight jobs are checkpointed and requeued for resume.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Bind this thread's telemetry slot and give it a fresh stage clock.
    fn set_ctx(&self, slot: usize) {
        let clock = self.config.clock.clock();
        WORKER_CTX.with(|ctx| *ctx.borrow_mut() = Some(WorkerCtx { slot, clock }));
    }

    /// Run `f` with this thread's telemetry context, lazily binding the
    /// shared service slot for threads no worker loop registered.
    fn with_ctx<T>(&self, f: impl FnOnce(&WorkerCtx) -> T) -> T {
        WORKER_CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let ctx = ctx.get_or_insert_with(|| WorkerCtx {
                slot: self.config.workers,
                clock: self.config.clock.clock(),
            });
            f(ctx)
        })
    }

    /// Current service-clock time for this thread.
    fn now_ns(&self) -> u64 {
        self.with_ctx(|ctx| ctx.clock.now_ns())
    }

    /// Record one stage sample into this thread's recorder — lock-free
    /// and allocation-free past the thread-local lookup.
    fn record(&self, stage: Stage, ns: u64) {
        self.with_ctx(|ctx| self.registry.recorder(ctx.slot).record(stage, ns));
    }

    /// Queue a lifecycle event and deliver everything buffered so far.
    /// Lifecycle transitions are rare and watchers expect them promptly;
    /// high-rate `Progress` events only ride along in the next batch.
    fn emit(&self, event: QueueEvent) {
        self.with_ctx(|ctx| {
            if !self.spool.push(ctx.slot, event) {
                self.registry.recorder(ctx.slot).note_dropped(1);
            }
        });
        self.flush_events();
    }

    /// Deliver every buffered event, in production order, to every
    /// observer; the batch's wall time lands in the event-fan-in stage.
    /// Must never be called with the journal file lock held (observers
    /// may call back into the queue).
    fn flush_events(&self) {
        let _guard = self.deliver.lock();
        let batch = self.spool.drain();
        if batch.is_empty() {
            return;
        }
        let start = self.now_ns();
        for event in &batch {
            for obs in &self.observers {
                obs.event(event);
            }
        }
        self.record(Stage::EventFanIn, self.now_ns().saturating_sub(start));
    }

    /// Process jobs until the queue is empty and every worker is idle (or
    /// shutdown is requested), then return what was processed.
    pub fn drain(&self) -> QueueResult<DrainStats> {
        self.run_workers(true)
    }

    /// Serve indefinitely: like [`WorkerPool::drain`], but an empty queue
    /// is polled for new submissions instead of ending the call. Returns
    /// only after [`WorkerPool::shutdown_token`] is cancelled.
    pub fn serve(&self) -> QueueResult<DrainStats> {
        self.run_workers(false)
    }

    /// Pending pairs → shard count for one member's plan.
    fn shards_for(&self, pending: usize) -> usize {
        if self.config.shard_pairs > 0 {
            pending.div_ceil(self.config.shard_pairs).max(1)
        } else {
            (self.config.workers * 2).clamp(1, pending.max(1))
        }
    }

    fn run_workers(&self, drain: bool) -> QueueResult<DrainStats> {
        // One service per queue directory: recover() cannot tell a killed
        // service's Running entries from a live sibling's, so serving
        // without this exclusive hold could requeue — and re-execute —
        // jobs another pool is still running.
        let _service = self.queue.try_lock_service()?.ok_or_else(|| {
            crate::error::QueueError::ServiceActive {
                dir: self.queue.dir().to_path_buf(),
            }
        })?;
        self.queue.recover()?;
        // A previous run that erred out may have abandoned tasks; their
        // jobs were just recovered to Queued, so the stale tasks are dead.
        self.board.clear();
        *self.stats.lock() = DrainStats::default();
        self.registry.reset();
        self.spool.reset();
        self.first_seen.lock().clear();
        // The calling thread records into the shared service slot; the
        // drain-level clock times the call as a whole.
        self.set_ctx(self.config.workers);
        let drain_clock = self.config.clock.clock();
        let started = drain_clock.now_ns();
        let errors: Mutex<Vec<crate::error::QueueError>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for worker in 0..self.config.workers {
                let errors = &errors;
                scope.spawn(move || {
                    if let Err(e) = self.worker_loop(worker, drain) {
                        // A worker dying must not hang the pool.
                        self.shutdown.cancel();
                        errors.lock().push(e);
                    }
                });
            }
        });
        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(e);
        }
        // Workers flush as they go; this catches anything buffered after
        // the last worker's final flush.
        self.flush_events();
        let mut stats = self.stats.lock();
        stats.elapsed_ms = drain_clock.now_ns().saturating_sub(started) / 1_000_000;
        stats.telemetry = self.registry.snapshot();
        self.persist_telemetry(&stats.telemetry)?;
        Ok(stats.clone())
    }

    /// Persist the drain's telemetry snapshot next to the journal
    /// (`<dir>/telemetry.json`, atomic write-to-temp + rename) so `queue
    /// status`/`queue stats` can report service latency after the fact.
    fn persist_telemetry(&self, snapshot: &TelemetrySnapshot) -> QueueResult<()> {
        write_atomic(&self.queue.telemetry_path(), snapshot.to_json())?;
        Ok(())
    }

    fn worker_loop(&self, worker: usize, drain: bool) -> QueueResult<()> {
        self.set_ctx(worker);
        loop {
            // Board first: shard tasks of claimed jobs outrank new claims,
            // and they must still be consumed after shutdown — each
            // in-flight job settles (requeued, with its checkpoint) only
            // when its last task completes.
            if let Some(task) = self.board.pop() {
                self.run_task(task)?;
                continue;
            }
            if self.shutdown.is_cancelled() {
                return Ok(());
            }
            // Claim under the locks: popping a job and registering its
            // cancel token must be one atomic step, or a sibling worker
            // could observe "queue empty, nobody running" mid-claim and
            // exit early. The claim_lock serialises workers in this
            // process; the queue's file lock serialises against other
            // processes (a concurrent `queue cancel`). One journal parse
            // per cycle: markers are a directory listing, and the claim
            // carries the snapshot's pending count. Cancellation events
            // are emitted only after both locks drop — observers may call
            // back into the queue.
            let (claimed, cancelled, exit) = {
                let _guard = self.claim_lock.lock();
                let _flock = self.queue.lock_exclusive()?;
                let cancelled = self.honour_cancel_markers()?;
                let claim = self.queue.claim()?;
                let now = self.now_ns();
                let mut first_seen = self.first_seen.lock();
                for id in &claim.queued {
                    first_seen.entry(*id).or_insert(now);
                }
                match claim.job {
                    Some(job) => {
                        let waited = first_seen
                            .remove(&job.id)
                            .map(|seen| now.saturating_sub(seen))
                            .unwrap_or(0);
                        drop(first_seen);
                        self.record(Stage::QueueWait, waited);
                        let token = CancelToken::new();
                        self.running.lock().insert(job.id, token.clone());
                        (Some((job, token, now)), cancelled, false)
                    }
                    None => {
                        let exit = drain && self.running.lock().is_empty() && claim.pending == 0;
                        (None, cancelled, exit)
                    }
                }
            };
            for id in cancelled {
                self.emit(QueueEvent::Cancelled { job: id });
            }
            if exit {
                return Ok(());
            }
            match claimed {
                Some((job, token, claimed_ns)) => self.begin(worker, job, token, claimed_ns)?,
                None => self.board.wait(self.config.poll_interval),
            }
        }
    }

    /// Apply pending cancellation markers: queued jobs are journaled as
    /// `Cancelled`; running jobs get their token cancelled (the owning
    /// job's tasks settle the state). Only marked jobs are loaded, so the
    /// (usual) no-markers poll costs one directory listing. Returns the
    /// freshly-cancelled ids — the caller emits their events after the
    /// journal lock drops.
    fn honour_cancel_markers(&self) -> QueueResult<Vec<JobId>> {
        let mut cancelled = Vec::new();
        for id in self.queue.pending_cancels()? {
            let mut job = match self.queue.load(id) {
                Ok(job) => job,
                // A marker for a journal entry that no longer parses (or
                // was removed) must not wedge every poll cycle.
                Err(_) => {
                    self.queue.clear_cancel_request(id)?;
                    continue;
                }
            };
            match job.state {
                JobState::Queued => {
                    job.state = JobState::Cancelled;
                    self.queue.save(&job)?;
                    self.queue.clear_checkpoints(&job)?;
                    self.queue.clear_cancel_request(job.id)?;
                    self.stats.lock().cancelled += 1;
                    self.first_seen.lock().remove(&job.id);
                    cancelled.push(job.id);
                }
                JobState::Running => {
                    if let Some(token) = self.running.lock().get(&job.id) {
                        token.cancel();
                    }
                    // The marker stays until the job's tasks settle it, so
                    // it survives a crash in between.
                }
                _ => self.queue.clear_cancel_request(job.id)?,
            }
        }
        Ok(cancelled)
    }

    fn finish(&self, id: JobId) {
        self.running.lock().remove(&id);
    }

    /// Start a claimed job: serve it from cache when possible, otherwise
    /// fan one setup task per member onto the board. The claimer returns
    /// to the loop immediately — the whole pool executes the job.
    fn begin(
        &self,
        worker: usize,
        mut job: Job,
        token: CancelToken,
        claimed_ns: u64,
    ) -> QueueResult<()> {
        self.emit(QueueEvent::Started {
            job: job.id,
            worker,
        });
        let run_ids = job.run_ids();

        // Result cache: an archived run of every member spec satisfies the
        // job without recomputation (integrity-validated loads — a corrupt
        // archive entry falls through to re-execution, never gets served).
        if !job.force && self.cache_hit(&job)? {
            job.state = JobState::Done {
                run_ids: run_ids.clone(),
                via: CompletionVia::Cache,
            };
            self.queue.clear_checkpoints(&job)?;
            self.emit(QueueEvent::CacheHit {
                job: job.id,
                run_ids: run_ids.clone(),
            });
            self.stats.lock().cached += 1;
            self.settle_done(&job, &run_ids)?;
            self.record(
                Stage::SettleLatency,
                self.now_ns().saturating_sub(claimed_ns),
            );
            self.finish(job.id);
            return Ok(());
        }

        let members = job.members().len();
        let pairs: usize = job
            .members()
            .iter()
            .filter_map(|spec| spec.resolve().ok())
            .map(|config| config.ordered_state_pairs().len())
            .sum();
        self.emit(QueueEvent::Planned {
            job: job.id,
            members,
            pairs,
        });
        let run = Arc::new(JobRun {
            job: Mutex::new(job),
            claimed_ns,
            token,
            members: (0..members).map(|_| OnceLock::new()).collect(),
            outstanding: AtomicUsize::new(members),
            failure: Mutex::new(None),
        });
        let tasks = (0..members)
            .map(|member| Task::Setup {
                run: run.clone(),
                member,
            })
            .collect();
        self.board.push(tasks);
        Ok(())
    }

    fn run_task(&self, task: Task) -> QueueResult<()> {
        match task {
            Task::Setup { run, member } => self.setup_member(&run, member),
            Task::Shard { run, member, unit } => self.run_shard(&run, member, &unit),
        }
    }

    /// Build one member's session and fan its pending pairs out as shard
    /// tasks. Runs the member's prelude (phase 1 + probe) exactly once.
    fn setup_member(&self, run: &Arc<JobRun>, member: usize) -> QueueResult<()> {
        if run.failed() || run.token.is_cancelled() || self.shutdown.is_cancelled() {
            let _ = run.members[member].set(None);
            return self.complete_task(run);
        }
        let (job_id, spec) = {
            let job = run.job.lock();
            (job.id, job.members()[member].clone())
        };
        match self.build_member(job_id, member, &spec, run) {
            Ok(Some(mut mr)) => {
                // Claim-to-start: claim to "this member is ready to
                // measure" (spec resolution, checkpoint restore, prelude).
                self.record(
                    Stage::ClaimToStart,
                    self.now_ns().saturating_sub(run.claimed_ns),
                );
                let (restored, pending) = {
                    let slots = mr.slots.lock();
                    let restored: Vec<(usize, PairMeasurement)> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.as_ref().map(|m| (i, m.clone())))
                        .collect();
                    let pending = slots.len() - restored.len();
                    (restored, pending)
                };
                for (index, meas) in &restored {
                    self.emit(QueueEvent::Progress {
                        job: job_id,
                        member,
                        event: CampaignEvent::PairRestored {
                            index: *index,
                            init: meas.init,
                            target: meas.target,
                        },
                    });
                }
                let units = if pending == 0 {
                    Vec::new()
                } else {
                    mr.session.plan(self.shards_for(pending))
                };
                mr.shards_total = units.len();
                let _ = run.members[member].set(Some(mr));
                self.update_ledger(run)?;
                if units.is_empty() {
                    // Fully restored from the checkpoint: nothing to run.
                    return self.complete_task(run);
                }
                // Register the shard tasks before pushing them: a sibling
                // may pop and finish one before we decrement for the
                // setup task itself.
                run.outstanding.fetch_add(units.len(), Ordering::SeqCst);
                let tasks = units
                    .into_iter()
                    .map(|unit| Task::Shard {
                        run: run.clone(),
                        member,
                        unit,
                    })
                    .collect();
                self.board.push(tasks);
                self.complete_task(run)
            }
            Ok(None) => {
                // Cancelled before the prelude finished.
                let _ = run.members[member].set(None);
                self.complete_task(run)
            }
            Err(message) => {
                run.fail(message);
                let _ = run.members[member].set(None);
                self.complete_task(run)
            }
        }
    }

    /// Resolve one member spec into a ready-to-shard [`MemberRun`],
    /// resuming from its checkpoint when one matches. `Ok(None)` means
    /// cancelled during the prelude.
    fn build_member(
        &self,
        job_id: JobId,
        member: usize,
        spec: &CampaignSpec,
        run: &Arc<JobRun>,
    ) -> Result<Option<MemberRun>, String> {
        let config = spec
            .resolve()
            .map_err(|e| format!("member {member}: {e}"))?;
        let total = config.ordered_state_pairs().len();
        let ckpt_path = self.queue.checkpoint_path(job_id, member);

        let mut session = CampaignSession::new(config).with_cancel_token(run.token.clone());

        // Resume: a checkpoint taken under the identical spec restores its
        // settled pairs verbatim; anything unreadable or mismatched is
        // discarded (the job file is the source of truth for the spec).
        if ckpt_path.is_file() {
            let restored = SpecCheckpoint::load(&ckpt_path)
                .ok()
                .filter(|cp| &cp.spec == spec);
            match restored {
                Some(cp) => session = session.resume_from(cp.result),
                None => {
                    let _ = fs::remove_file(&ckpt_path);
                }
            }
        }

        // Fan the member's campaign events into the multiplexed feed via
        // the spool: the measurement thread pays one buffer append, not a
        // synchronous walk of every observer. A full buffer drops the
        // event and bumps the worker's dropped counter instead.
        let spool = self.spool.clone();
        let registry = self.registry.clone();
        let service_slot = self.config.workers;
        session = session.observe(move |e: &CampaignEvent| {
            let event = QueueEvent::Progress {
                job: job_id,
                member,
                event: e.clone(),
            };
            let slot = WORKER_CTX
                .with(|ctx| ctx.borrow().as_ref().map(|c| c.slot))
                .unwrap_or(service_slot);
            if !spool.push(slot, event) {
                registry.recorder(slot).note_dropped(1);
            }
        });

        let prelude = match session.prelude() {
            Ok(prelude) => prelude,
            Err(CoreError::Cancelled) => return Ok(None),
            Err(e) => return Err(format!("member {member}: {e}")),
        };

        let mut slots = vec![None; total];
        for (index, meas) in session.restored_pairs() {
            slots[index] = Some(meas);
        }
        Ok(Some(MemberRun {
            spec: spec.clone(),
            session,
            prelude,
            ckpt_path,
            shards_total: 0,
            shards_done: AtomicUsize::new(0),
            slots: Mutex::new(slots),
        }))
    }

    /// Execute one shard work unit; settled pairs fold into the member's
    /// checkpoint, which doubles as the busy pool's cancellation poll.
    fn run_shard(&self, run: &Arc<JobRun>, member: usize, unit: &WorkUnit) -> QueueResult<()> {
        if run.failed() || self.shutdown.is_cancelled() || run.token.is_cancelled() {
            return self.complete_task(run);
        }
        let Some(Some(mr)) = run.members[member].get() else {
            // A shard task only exists because setup stored the member.
            run.fail(format!("member {member}: internal: shard before setup"));
            return self.complete_task(run);
        };
        let job_id = run.job.lock().id;

        let on_settle = |index: usize, meas: &PairMeasurement| {
            // The session already spooled this pair's events (its
            // `PairFinished` is emitted before this hook runs): deliver
            // them now, so watchers still see pair-granular progress.
            self.flush_events();
            let mut slots = mr.slots.lock();
            if settle(
                &mut slots,
                index,
                meas.clone(),
                self.config.checkpoint_every,
            ) {
                self.write_checkpoint(mr, &slots);
                // The settle hook doubles as the busy pool's cancellation
                // poll: markers and shutdown are honoured at the next
                // checkpoint boundary even when no worker is idle.
                if self.shutdown.is_cancelled() || self.queue.cancel_requested(job_id) {
                    run.token.cancel();
                }
            }
        };

        let exec_start = self.now_ns();
        let outcome = mr.session.run_unit_with(&mr.prelude, unit, on_settle);
        self.record(Stage::ShardExec, self.now_ns().saturating_sub(exec_start));
        match outcome {
            Ok(pairs) => {
                let measured = pairs
                    .iter()
                    .filter(|(_, m)| !m.outcome.is_cancelled())
                    .count();
                if measured > 0 || !run.token.is_cancelled() {
                    let mut stats = self.stats.lock();
                    stats.shards_executed += 1;
                    stats.pairs_measured += measured;
                    drop(stats);
                    mr.shards_done.fetch_add(1, Ordering::SeqCst);
                    {
                        let slots = mr.slots.lock();
                        self.write_checkpoint(mr, &slots);
                    }
                    self.update_ledger(run)?;
                }
            }
            Err(CoreError::Cancelled) => {}
            Err(e) => run.fail(format!("member {member}: {e}")),
        }
        self.complete_task(run)
    }

    /// Persist the member's settled slots as a resumable checkpoint,
    /// written with the same atomic rename discipline as the journal.
    /// Unsettled slots become `Cancelled` placeholders — exactly the
    /// partial-result shape `resume_from` validates.
    fn write_checkpoint(&self, mr: &MemberRun, slots: &[Option<PairMeasurement>]) {
        let start = self.now_ns();
        let doc = SpecCheckpoint {
            spec: mr.spec.clone(),
            result: mr.session.assemble(&mr.prelude, slots),
        };
        let _ = doc.save(&mr.ckpt_path);
        self.record(Stage::CheckpointStall, self.now_ns().saturating_sub(start));
    }

    /// Journal the job's shard ledger (pair/shard progress per member) so
    /// `queue status` can report in-flight progress without tailing the
    /// event feed.
    fn update_ledger(&self, run: &Arc<JobRun>) -> QueueResult<()> {
        let mut members = Vec::with_capacity(run.members.len());
        for slot in &run.members {
            match slot.get() {
                Some(Some(mr)) => {
                    let slots = mr.slots.lock();
                    members.push(MemberLedger {
                        pairs_done: slots.iter().filter(|s| s.is_some()).count(),
                        pairs_total: slots.len(),
                        shards_done: mr.shards_done.load(Ordering::SeqCst),
                        shards_total: mr.shards_total,
                    });
                }
                _ => members.push(MemberLedger::default()),
            }
        }
        let job = {
            let mut job = run.job.lock();
            job.ledger = Some(ShardLedger { members });
            job.clone()
        };
        let _guard = self.claim_lock.lock();
        let _flock = self.queue.lock_exclusive()?;
        self.queue.save(&job)?;
        Ok(())
    }

    /// Settle a job whose last task just completed. Exactly one worker
    /// gets here per job (the outstanding count hits zero once).
    fn finalize(&self, run: &Arc<JobRun>) -> QueueResult<()> {
        let mut job = run.job.lock().clone();
        let failure = run.failure.lock().clone();
        let run_ids = job.run_ids();

        if let Some(error) = failure {
            job.state = JobState::Failed {
                error: error.clone(),
            };
            job.ledger = None;
            self.queue.save(&job)?;
            self.queue.clear_cancel_request(job.id)?;
            self.emit(QueueEvent::Failed { job: job.id, error });
            self.stats.lock().failed += 1;
            self.record(
                Stage::SettleLatency,
                self.now_ns().saturating_sub(run.claimed_ns),
            );
            self.finish(job.id);
            return Ok(());
        }

        if self.shutdown.is_cancelled() {
            // Service shutdown: back to the queue; checkpoints (and the
            // ledger) resume the job on restart.
            job.state = JobState::Queued;
            self.queue.save(&job)?;
            self.emit(QueueEvent::Requeued { job: job.id });
            self.stats.lock().requeued += 1;
            self.finish(job.id);
            return Ok(());
        }

        if run.token.is_cancelled() {
            // User cancellation: settle as cancelled, drop state.
            job.state = JobState::Cancelled;
            job.ledger = None;
            self.queue.save(&job)?;
            self.queue.clear_checkpoints(&job)?;
            self.queue.clear_cancel_request(job.id)?;
            self.emit(QueueEvent::Cancelled { job: job.id });
            self.stats.lock().cancelled += 1;
            self.record(
                Stage::SettleLatency,
                self.now_ns().saturating_sub(run.claimed_ns),
            );
            self.finish(job.id);
            return Ok(());
        }

        // Success: assemble every member's slots into its result and
        // auto-archive — the store becomes a memoization layer
        // for the whole service.
        let mut results = Vec::with_capacity(run.members.len());
        for (member, slot) in run.members.iter().enumerate() {
            let Some(Some(mr)) = slot.get() else {
                run.fail(format!("member {member}: internal: never built"));
                return self.finalize(run);
            };
            // `finish` spools the member's `CampaignFinished` through the
            // session's observer; deliver it before the next member's.
            let result = mr.session.finish(&mr.prelude, &mr.slots.lock());
            self.flush_events();
            results.push((mr.spec.clone(), result));
        }
        for (spec, result) in &results {
            self.store.put(spec, result)?;
        }
        self.queue.clear_checkpoints(&job)?;
        job.state = JobState::Done {
            run_ids: run_ids.clone(),
            via: CompletionVia::Executed,
        };
        job.ledger = None;
        self.emit(QueueEvent::Done {
            job: job.id,
            run_ids: run_ids.clone(),
        });
        self.stats.lock().executed += 1;
        self.settle_done(&job, &run_ids)?;
        // Settle latency: claim to fully settled (archived + journaled +
        // duplicates coalesced). Requeued jobs never settle, so the
        // shutdown path above records nothing.
        self.record(
            Stage::SettleLatency,
            self.now_ns().saturating_sub(run.claimed_ns),
        );
        self.finish(job.id);
        Ok(())
    }

    /// Count one finished task; the last one settles the job. Buffered
    /// events are delivered first, so watchers see a task's progress
    /// before (not interleaved with) the job's terminal event.
    fn complete_task(&self, run: &Arc<JobRun>) -> QueueResult<()> {
        self.flush_events();
        if run.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finalize(run)?;
        }
        Ok(())
    }

    /// Whether every member spec's run is archived (validated). Absent,
    /// torn and tampered entries all fall through to re-execution — a bad
    /// archive file must never be served *or* wedge the worker.
    fn cache_hit(&self, job: &Job) -> QueueResult<bool> {
        for spec in job.members() {
            match self.store.get(&RunId::of_spec(spec)) {
                Ok(_) => {}
                Err(
                    StoreError::NotFound { .. }
                    | StoreError::Parse { .. }
                    | StoreError::Corrupt { .. },
                ) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Journal a job's `Done` state and settle its still-queued
    /// duplicates in one step under the claim lock — a sibling worker
    /// must never observe the key released (job `Done`) while a duplicate
    /// is still claimable, or it would re-serve the duplicate from cache
    /// instead of coalescing it.
    fn settle_done(&self, job: &Job, run_ids: &[RunId]) -> QueueResult<()> {
        let settled = {
            let _guard = self.claim_lock.lock();
            let _flock = self.queue.lock_exclusive()?;
            self.queue.save(job)?;
            self.queue.settle_duplicates(&job.key(), run_ids, job.id)?
        };
        for dup in settled {
            self.queue.clear_checkpoints(&dup)?;
            self.emit(QueueEvent::Coalesced {
                job: dup.id,
                with: job.id,
            });
            self.stats.lock().coalesced += 1;
        }
        Ok(())
    }
}
