//! End-to-end proof of the campaign execution service: a mixed batch over
//! a multi-worker pool with deduplication, the result cache, and
//! checkpointed crash recovery — the acceptance path of the queue
//! subsystem.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use latest::core::spec::{CampaignSpec, FleetSpec, ScenarioSpec};
use latest::core::store::RunId;
use latest::core::{CampaignEvent, CampaignResult, CampaignSession};
use latest::queue::{CompletionVia, JobState, PoolConfig, QueueEvent, SubmitOptions, WorkerPool};
use latest::telemetry::{ClockSpec, Stage};

fn tiny(seed: u64) -> CampaignSpec {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .measurements(3, 6)
        .simulated_sms(Some(2))
        .seed(seed)
        .build()
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latest_queue_e2e_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Reference: the result the service must reproduce for a spec, computed
/// on a plain uninterrupted session.
fn reference_run(spec: &CampaignSpec) -> CampaignResult {
    CampaignSession::new(spec.resolve().unwrap()).run().unwrap()
}

type EventLog = Arc<Mutex<Vec<QueueEvent>>>;

fn recording_pool_with(dir: &PathBuf, config: PoolConfig) -> (WorkerPool, EventLog) {
    let events: EventLog = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let pool = WorkerPool::open(dir, config)
        .unwrap()
        .observe(move |e: &QueueEvent| sink.lock().unwrap().push(e.clone()));
    (pool, events)
}

fn recording_pool(dir: &PathBuf, workers: usize) -> (WorkerPool, EventLog) {
    recording_pool_with(
        dir,
        PoolConfig {
            workers,
            ..PoolConfig::default()
        },
    )
}

/// Which jobs emitted actual campaign work (any `Progress` event).
fn jobs_that_executed(events: &[QueueEvent]) -> Vec<latest::queue::JobId> {
    let mut ids: Vec<latest::queue::JobId> = events
        .iter()
        .filter_map(|e| match e {
            QueueEvent::Progress { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    ids.sort();
    ids.dedup();
    ids
}

#[test]
fn mixed_batch_dedupes_caches_and_archives() {
    let dir = temp_dir("mixed");
    let campaign_a = tiny(1);
    let campaign_b = tiny(2);
    let fleet = FleetSpec::new().member(tiny(70)).member(tiny(71));

    let (pool, events) = recording_pool(&dir, 2);
    let queue = pool.queue();
    let job_a = queue
        .submit(
            ScenarioSpec::Campaign(campaign_a.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let job_b = queue
        .submit(
            ScenarioSpec::Campaign(campaign_b.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let job_fleet = queue
        .submit(ScenarioSpec::Fleet(fleet.clone()), SubmitOptions::default())
        .unwrap();
    // The duplicate: identical spec, second submission.
    let job_dup = queue
        .submit(
            ScenarioSpec::Campaign(campaign_a.clone()),
            SubmitOptions::default(),
        )
        .unwrap();

    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 3, "A, B and the fleet execute");
    assert_eq!(stats.coalesced, 1, "the duplicate coalesces");
    assert_eq!(stats.cached + stats.failed + stats.cancelled, 0);

    // Both submissions of the same spec are Done with the same RunId —
    // and only one of them ever emitted campaign work.
    let expect_id = RunId::of_spec(&campaign_a);
    for id in [job_a.id, job_dup.id] {
        match queue.load(id).unwrap().state {
            JobState::Done { run_ids, .. } => assert_eq!(run_ids, vec![expect_id.clone()]),
            other => panic!("{id} should be Done, is {other:?}"),
        }
    }
    let via_of = |id| match queue.load(id).unwrap().state {
        JobState::Done { via, .. } => via,
        other => panic!("expected Done, got {other:?}"),
    };
    let vias = [via_of(job_a.id), via_of(job_dup.id)];
    assert!(vias.contains(&CompletionVia::Executed));
    assert!(vias.contains(&CompletionVia::Coalesced));
    let executed = jobs_that_executed(&events.lock().unwrap());
    assert_eq!(
        executed
            .iter()
            .filter(|id| **id == job_a.id || **id == job_dup.id)
            .count(),
        1,
        "exactly one of the duplicate submissions does the work"
    );
    assert!(executed.contains(&job_b.id) && executed.contains(&job_fleet.id));

    // Every result landed in the store, bitwise identical to a plain
    // uninterrupted session run of the same spec.
    let store = pool.store();
    for spec in [
        &campaign_a,
        &campaign_b,
        &fleet.members[0],
        &fleet.members[1],
    ] {
        let stored = store.get(&RunId::of_spec(spec)).unwrap();
        assert_eq!(
            stored.result.to_json(),
            reference_run(spec).to_json(),
            "archived result for seed {} must match a direct run",
            spec.seed
        );
    }

    // Resubmit A: the archive satisfies it without recomputation.
    let before = events.lock().unwrap().len();
    let job_cached = queue
        .submit(
            ScenarioSpec::Campaign(campaign_a.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(
        (stats.executed, stats.cached),
        (0, 1),
        "cache hit, no execution"
    );
    assert_eq!(via_of(job_cached.id), CompletionVia::Cache);
    let after: Vec<QueueEvent> = events.lock().unwrap()[before..].to_vec();
    assert!(
        after
            .iter()
            .all(|e| !matches!(e, QueueEvent::Progress { .. })),
        "a cache hit must not emit campaign work: {after:?}"
    );
    assert!(after
        .iter()
        .any(|e| matches!(e, QueueEvent::CacheHit { job, .. } if *job == job_cached.id)));

    // force bypasses the cache and re-executes (deterministically, so the
    // archive bytes are unchanged).
    let job_forced = queue
        .submit(
            ScenarioSpec::Campaign(campaign_a.clone()),
            SubmitOptions {
                priority: 0,
                force: true,
            },
        )
        .unwrap();
    let path = store.root().join(format!("{expect_id}.json"));
    let bytes_before = fs::read(&path).unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!((stats.executed, stats.cached), (1, 0), "force re-executes");
    assert_eq!(via_of(job_forced.id), CompletionVia::Executed);
    assert_eq!(
        bytes_before,
        fs::read(&path).unwrap(),
        "re-run is byte-idempotent"
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fleet_and_a_campaign_sharing_a_member_both_archive_it() {
    // Different job keys, so neither coalesces into the other: when both
    // are claimed before either settles, both archive the shared run.
    let dir = temp_dir("shared_member");
    let shared = tiny(80);
    let fleet = FleetSpec::new().member(shared.clone()).member(tiny(81));

    let (pool, _) = recording_pool(&dir, 2);
    let queue = pool.queue();
    let job_fleet = queue
        .submit(ScenarioSpec::Fleet(fleet.clone()), SubmitOptions::default())
        .unwrap();
    let job_campaign = queue
        .submit(
            ScenarioSpec::Campaign(shared.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.executed + stats.cached, 2);
    for id in [job_fleet.id, job_campaign.id] {
        let state = queue.load(id).unwrap().state;
        assert!(matches!(state, JobState::Done { .. }), "{id}: {state:?}");
    }

    let shared_id = RunId::of_spec(&shared);
    let runs = pool.store().list().unwrap();
    assert_eq!(runs.iter().filter(|r| r.run_id == shared_id).count(), 1);
    assert_eq!(runs.len(), 2, "the shared run and the fleet's other member");
    assert_eq!(
        pool.store().get(&shared_id).unwrap().result.to_json(),
        reference_run(&shared).to_json()
    );

    fs::remove_dir_all(&dir).ok();
}

/// A journaled member that no longer resolves (here: its device was
/// rewritten to one no registry knows) fails its job with the resolution
/// error, and the service goes on to drain and archive the next job.
#[test]
fn a_member_that_no_longer_resolves_fails_its_job_and_the_next_still_archives() {
    let dir = temp_dir("unresolvable_member");
    let (pool, events) = recording_pool(&dir, 2);
    let queue = pool.queue();
    let fleet = FleetSpec::new().member(tiny(90)).member(tiny(91));
    let broken = queue
        .submit(ScenarioSpec::Fleet(fleet.clone()), SubmitOptions::default())
        .unwrap();
    let healthy_spec = tiny(92);
    let healthy = queue
        .submit(
            ScenarioSpec::Campaign(healthy_spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();

    let mut unknown = fleet.clone();
    unknown.members[1].device = "no-such-gpu".to_string();
    let expected = format!(
        "member 1: {}",
        unknown.members[1].resolve().expect_err("unknown device")
    );
    let mut job = queue.load(broken.id).unwrap();
    job.spec = ScenarioSpec::Fleet(unknown);
    queue.save(&job).unwrap();

    let stats = pool.drain().unwrap();
    assert_eq!((stats.failed, stats.executed), (1, 1));
    match queue.load(broken.id).unwrap().state {
        JobState::Failed { error } => assert_eq!(error, expected),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(matches!(
        queue.load(healthy.id).unwrap().state,
        JobState::Done {
            via: CompletionVia::Executed,
            ..
        }
    ));
    // The plan counts only the member that resolved.
    let planned_pairs = events.lock().unwrap().iter().find_map(|e| match e {
        QueueEvent::Planned { job, pairs, .. } if *job == broken.id => Some(*pairs),
        _ => None,
    });
    let member0_pairs = fleet.members[0]
        .resolve()
        .unwrap()
        .ordered_state_pairs()
        .len();
    assert_eq!(planned_pairs, Some(member0_pairs));

    let runs = pool.store().list().unwrap();
    assert_eq!(runs.len(), 1, "only the healthy job archives");
    let healthy_id = RunId::of_spec(&healthy_spec);
    assert_eq!(
        pool.store().get(&healthy_id).unwrap().result.to_json(),
        reference_run(&healthy_spec).to_json()
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_duplicates_execute_instead_of_coalescing() {
    let dir = temp_dir("force_dup");
    let spec = tiny(5);

    // Warm the cache with one execution.
    let (pool, _) = recording_pool(&dir, 1);
    pool.queue()
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    pool.drain().unwrap();

    // A plain and a forced submission of the same spec, drained together:
    // the plain one is served from the cache, but the forced one demanded
    // a fresh measurement — it must execute, never coalesce onto the
    // plain job's cache hit.
    let (pool, events) = recording_pool(&dir, 2);
    let queue = pool.queue();
    let plain = queue
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let forced = queue
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions {
                priority: 0,
                force: true,
            },
        )
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(
        (stats.cached, stats.executed, stats.coalesced),
        (1, 1, 0),
        "cache serves the plain job, the forced one runs"
    );
    let via_of = |id| match queue.load(id).unwrap().state {
        JobState::Done { via, .. } => via,
        other => panic!("expected Done, got {other:?}"),
    };
    assert_eq!(via_of(plain.id), CompletionVia::Cache);
    assert_eq!(via_of(forced.id), CompletionVia::Executed);
    let executed = jobs_that_executed(&events.lock().unwrap());
    assert_eq!(executed, vec![forced.id], "only the forced job does work");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_pool_resumes_from_checkpoint_bitwise() {
    let dir = temp_dir("kill");
    // Six ordered pairs so the kill reliably lands mid-campaign.
    let spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1095, 1410])
        .measurements(3, 6)
        .simulated_sms(Some(2))
        .seed(33)
        .build()
        .unwrap();
    let reference = reference_run(&spec);

    // Phase 1: a pool that "dies" (shutdown token, the same path a kill
    // takes through recover()) as soon as the first pair finishes.
    let (pool, _events) = recording_pool(&dir, 2);
    let job = pool
        .queue()
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let shutdown = pool.shutdown_token();
    let pool = pool.observe(move |e: &QueueEvent| {
        if matches!(
            e,
            QueueEvent::Progress {
                event: CampaignEvent::PairFinished { .. },
                ..
            }
        ) {
            shutdown.cancel();
        }
    });
    let stats = pool.drain().unwrap();
    assert_eq!(
        stats.requeued, 1,
        "the in-flight job is requeued for resume"
    );
    assert_eq!(stats.executed, 0);
    drop(pool);

    // Recovery (which serve/drain runs automatically under the service
    // lock) reverts the killed run's Running entry to Queued, and a
    // resumable checkpoint is on disk.
    let (pool, events) = recording_pool(&dir, 2);
    pool.queue().recover().unwrap();
    assert_eq!(pool.queue().load(job.id).unwrap().state, JobState::Queued);
    assert!(
        pool.queue().checkpoint_path(job.id, 0).is_file(),
        "the killed run must leave a checkpoint"
    );

    // Phase 2: restart on the same directory; the job resumes from the
    // checkpoint — restored pairs are not re-measured — and the archived
    // result is bitwise identical to an uninterrupted run.
    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 1);
    match pool.queue().load(job.id).unwrap().state {
        JobState::Done { via, .. } => assert_eq!(via, CompletionVia::Executed),
        other => panic!("expected Done, got {other:?}"),
    }
    let restored = events
        .lock()
        .unwrap()
        .iter()
        .filter(|e| {
            matches!(
                e,
                QueueEvent::Progress {
                    event: CampaignEvent::PairRestored { .. },
                    ..
                }
            )
        })
        .count();
    assert!(restored > 0, "the resume must restore checkpointed pairs");
    let stored = pool.store().get(&RunId::of_spec(&spec)).unwrap();
    assert_eq!(
        stored.result.to_json(),
        reference.to_json(),
        "resumed result must be bitwise identical to an uninterrupted run"
    );
    assert!(
        !pool.queue().checkpoint_path(job.id, 0).is_file(),
        "checkpoints are cleared once the job settles"
    );

    fs::remove_dir_all(&dir).ok();
}

/// Twelve ordered pairs: enough to spread meaningfully across 4 workers.
fn wide(seed: u64) -> CampaignSpec {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[540, 810, 1095, 1410])
        .measurements(3, 6)
        .simulated_sms(Some(2))
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn sharded_drains_are_bitwise_identical_across_worker_counts() {
    // The scheduler contract: splitting a job into pair tasks and
    // spreading them across any number of workers must be invisible in
    // the archived bytes.
    let spec = wide(77);
    let reference = reference_run(&spec);
    for workers in [1usize, 2, 4] {
        let dir = temp_dir(&format!("shard_w{workers}"));
        let (pool, events) = recording_pool_with(
            &dir,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
        );
        pool.queue()
            .submit(
                ScenarioSpec::Campaign(spec.clone()),
                SubmitOptions::default(),
            )
            .unwrap();
        let stats = pool.drain().unwrap();
        assert_eq!(stats.executed, 1, "workers={workers}: {stats:?}");
        assert_eq!(
            (stats.shards_executed, stats.pairs_measured),
            (12, 12),
            "workers={workers}: one pair task per pair"
        );
        assert_eq!(
            stats.telemetry.stage(Stage::ShardExec).count(),
            12,
            "workers={workers}: one shard-exec telemetry sample per pair task"
        );
        let pair_events = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    QueueEvent::Progress {
                        event: CampaignEvent::PairFinished { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pair_events, 12, "workers={workers}");
        let stored = pool.store().get(&RunId::of_spec(&spec)).unwrap();
        assert_eq!(
            stored.result.to_json(),
            reference.to_json(),
            "workers={workers}: a pooled drain must be bitwise identical"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn killed_pool_resumes_mid_shard_bitwise() {
    // Kill the service after the very first pair finishes: the job is
    // requeued with its ledger intact, and the restart resumes from the
    // per-pair checkpoint — never re-measuring settled pairs — to a
    // bitwise-identical archive.
    let dir = temp_dir("kill_shard");
    let spec = wide(91);
    let reference = reference_run(&spec);
    let pooled = PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    };

    let (pool, _events) = recording_pool_with(&dir, pooled.clone());
    let job = pool
        .queue()
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let shutdown = pool.shutdown_token();
    let pool = pool.observe(move |e: &QueueEvent| {
        if matches!(
            e,
            QueueEvent::Progress {
                event: CampaignEvent::PairFinished { .. },
                ..
            }
        ) {
            shutdown.cancel();
        }
    });
    let stats = pool.drain().unwrap();
    assert_eq!((stats.requeued, stats.executed), (1, 0), "{stats:?}");
    assert!(
        stats.shards_executed >= 1 && stats.shards_executed < 12,
        "the kill must land mid-job: {stats:?}"
    );
    let requeued = pool.queue().load(job.id).unwrap();
    let ledger = requeued.ledger.expect("a requeued job keeps its ledger");
    assert!(
        ledger.pairs_done() >= 1 && ledger.pairs_done() < ledger.pairs_total(),
        "ledger must record partial progress: {}",
        ledger.summary()
    );
    drop(pool);

    // Restart on the same directory: the resumed drain restores the
    // settled pairs from the checkpoint and finishes the rest.
    let (pool, events) = recording_pool_with(&dir, pooled);
    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 1, "{stats:?}");
    let restored = events
        .lock()
        .unwrap()
        .iter()
        .filter(|e| {
            matches!(
                e,
                QueueEvent::Progress {
                    event: CampaignEvent::PairRestored { .. },
                    ..
                }
            )
        })
        .count();
    assert!(restored > 0, "the resume must restore checkpointed pairs");
    match pool.queue().load(job.id).unwrap().state {
        JobState::Done { via, .. } => assert_eq!(via, CompletionVia::Executed),
        other => panic!("expected Done, got {other:?}"),
    }
    let stored = pool.store().get(&RunId::of_spec(&spec)).unwrap();
    assert_eq!(
        stored.result.to_json(),
        reference.to_json(),
        "kill-and-resume must be bitwise identical to an uninterrupted run"
    );
    assert!(
        !pool.queue().checkpoint_path(job.id, 0).is_file(),
        "checkpoints are cleared once the job settles"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_checkpoints_pairs_settled_between_boundaries() {
    // With a checkpoint boundary every 100 pairs, none is reached in a
    // twelve-pair job; a shutdown must still checkpoint every settled
    // pair, so the restart restores them instead of measuring them again.
    let dir = temp_dir("bank");
    let spec = wide(93);
    let reference = reference_run(&spec);
    let sparse = PoolConfig {
        workers: 1,
        checkpoint_every: 100,
        ..PoolConfig::default()
    };

    let (pool, _events) = recording_pool_with(&dir, sparse.clone());
    let job = pool
        .queue()
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let shutdown = pool.shutdown_token();
    let pool = pool.observe(move |e: &QueueEvent| {
        if matches!(
            e,
            QueueEvent::Progress {
                event: CampaignEvent::PairFinished { .. },
                ..
            }
        ) {
            shutdown.cancel();
        }
    });
    let stats = pool.drain().unwrap();
    assert_eq!((stats.requeued, stats.executed), (1, 0), "{stats:?}");
    let measured = stats.pairs_measured;
    assert!((1..12).contains(&measured), "{stats:?}");
    let ledger = pool.queue().load(job.id).unwrap().ledger.unwrap();
    assert_eq!(ledger.pairs_done(), measured, "{}", ledger.summary());
    drop(pool);

    let (pool, _events) = recording_pool_with(&dir, sparse);
    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 1, "{stats:?}");
    assert_eq!(
        stats.pairs_measured,
        12 - measured,
        "settled pairs are restored, not measured again"
    );
    let stored = pool.store().get(&RunId::of_spec(&spec)).unwrap();
    assert_eq!(stored.result.to_json(), reference.to_json());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelling_a_running_job_settles_it_cancelled() {
    let dir = temp_dir("cancel");
    let spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1095, 1410])
        .measurements(3, 6)
        .simulated_sms(Some(2))
        .seed(44)
        .build()
        .unwrap();
    // Two workers: the idle one polls cancellation markers while its
    // sibling executes, so the request lands mid-run.
    let (pool, _events) = recording_pool(&dir, 2);
    let job = pool
        .queue()
        .submit(ScenarioSpec::Campaign(spec), SubmitOptions::default())
        .unwrap();
    // Request cancellation as soon as the job starts: the marker is
    // honoured on the next poll and the job settles as Cancelled (not
    // requeued — only shutdown requeues).
    let queue = pool.queue().clone();
    let pool = pool.observe(move |e: &QueueEvent| {
        if matches!(e, QueueEvent::Started { .. }) {
            queue.request_cancel(e.job()).unwrap();
        }
    });
    let stats = pool.drain().unwrap();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(
        pool.queue().load(job.id).unwrap().state,
        JobState::Cancelled
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancellation_lands_even_when_every_worker_is_busy() {
    let dir = temp_dir("busy_cancel");
    let spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1095, 1410])
        .measurements(3, 6)
        .simulated_sms(Some(2))
        .seed(46)
        .build()
        .unwrap();
    // One worker: nobody is idle to poll markers, so the request must be
    // honoured by the executing worker's own checkpoint sink.
    let (pool, _events) = recording_pool(&dir, 1);
    let job = pool
        .queue()
        .submit(ScenarioSpec::Campaign(spec), SubmitOptions::default())
        .unwrap();
    let queue = pool.queue().clone();
    let pool = pool.observe(move |e: &QueueEvent| {
        if matches!(
            e,
            QueueEvent::Progress {
                event: CampaignEvent::PairFinished { .. },
                ..
            }
        ) {
            let _ = queue.request_cancel(e.job());
        }
    });
    let stats = pool.drain().unwrap();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    assert_eq!(
        pool.queue().load(job.id).unwrap().state,
        JobState::Cancelled
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn pair_events_reach_observers_when_they_happen() {
    // A `started` line must carry the time the pair started: observers
    // are called as each event is produced, so a pair's PairStarted and
    // PairFinished arrive a measurement apart, not back to back at the
    // pair's end.
    let dir = temp_dir("feed_timing");
    let stamps: Arc<Mutex<Vec<(usize, bool, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = stamps.clone();
    let pool = WorkerPool::open(
        &dir,
        PoolConfig {
            workers: 1,
            clock: ClockSpec::Monotonic,
            ..PoolConfig::default()
        },
    )
    .unwrap()
    .observe(move |e: &QueueEvent| {
        let now = Instant::now();
        let stamp = match e {
            QueueEvent::Progress {
                event: CampaignEvent::PairStarted { index, .. },
                ..
            } => (*index, true),
            QueueEvent::Progress {
                event: CampaignEvent::PairFinished { index, .. },
                ..
            } => (*index, false),
            _ => return,
        };
        sink.lock().unwrap().push((stamp.0, stamp.1, now));
    });
    pool.queue()
        .submit(ScenarioSpec::Campaign(tiny(91)), SubmitOptions::default())
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(stats.pairs_measured, 2, "{stats:?}");
    let min_exec_ns = stats.telemetry.stage(Stage::ShardExec).min().unwrap();
    let stamps = stamps.lock().unwrap();
    let at = |pair: usize, started: bool| {
        stamps
            .iter()
            .find(|(i, s, _)| *i == pair && *s == started)
            .map(|(_, _, t)| *t)
            .unwrap_or_else(|| panic!("pair {pair}: no event (started={started})"))
    };
    for pair in 0..2 {
        let gap_ns = at(pair, false).duration_since(at(pair, true)).as_nanos() as u64;
        assert!(
            2 * gap_ns >= min_exec_ns,
            "pair {pair}: started and finished delivered {gap_ns} ns apart, \
             but measuring a pair takes at least {min_exec_ns} ns"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_second_service_on_the_same_dir_is_refused() {
    let dir = temp_dir("second_service");
    let (pool, _events) = recording_pool(&dir, 1);
    pool.queue()
        .submit(ScenarioSpec::Campaign(tiny(9)), SubmitOptions::default())
        .unwrap();
    // Simulate a live sibling service holding the directory's slot: a
    // drain must refuse rather than recover (and re-execute) its jobs.
    let sibling = pool.queue().try_lock_service().unwrap().unwrap();
    match pool.drain() {
        Err(latest::queue::QueueError::ServiceActive { .. }) => {}
        other => panic!("expected ServiceActive, got {other:?}"),
    }
    drop(sibling);
    assert_eq!(pool.drain().unwrap().executed, 1);
    fs::remove_dir_all(&dir).ok();
}
