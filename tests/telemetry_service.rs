//! End-to-end proof of the service telemetry subsystem: a drain times
//! every stage of the execution path into lock-free recorders, persists
//! the merged snapshot, stays bitwise-reproducible under the virtual
//! clock, counts (never blocks on) dropped events, and renders through
//! the report Artifact contract.

use std::fs;
use std::path::PathBuf;

use latest::core::spec::{CampaignSpec, ScenarioSpec};
use latest::core::store::RunId;
use latest::core::CampaignSession;
use latest::queue::{PoolConfig, SubmitOptions, WorkerPool};
use latest::report::{stage_latency_table, Artifact, Format};
use latest::telemetry::{ClockSpec, Stage, TelemetrySnapshot};

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
    let dir =
        std::env::temp_dir().join(format!("latest_telemetry_e2e_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn drain_records_every_service_stage_and_persists_the_snapshot() {
    let dir = temp_dir("stages");
    let pool = WorkerPool::open(&dir, PoolConfig::default()).unwrap();
    pool.queue()
        .submit(ScenarioSpec::Campaign(tiny(11)), SubmitOptions::default())
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 1, "{stats:?}");

    let t = &stats.telemetry;
    assert_eq!(
        t.stage(Stage::QueueWait).count(),
        1,
        "one claim, one queue-wait sample"
    );
    assert_eq!(
        t.stage(Stage::SettleLatency).count(),
        1,
        "one settled job, one settle-latency sample"
    );
    assert!(t.stage(Stage::ClaimToStart).count() >= 1, "{t:?}");
    assert!(t.stage(Stage::ShardExec).count() >= 1, "{t:?}");
    assert!(
        t.stage(Stage::CheckpointStall).count() >= 1,
        "checkpoint_every=1 must checkpoint at least once: {t:?}"
    );
    assert!(
        t.stage(Stage::EventFanIn).count() >= 1,
        "observerless pools still drain the spool in batches: {t:?}"
    );
    assert_eq!(t.dropped_events, 0, "default buffer never fills here");

    // The drain persisted exactly the snapshot it returned.
    let persisted = fs::read_to_string(pool.queue().telemetry_path()).unwrap();
    assert_eq!(persisted, t.to_json());
    let parsed = TelemetrySnapshot::from_json(&persisted).unwrap();
    assert_eq!(&parsed, t, "snapshot JSON round-trips losslessly");

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn virtual_clock_single_worker_snapshots_are_bitwise_identical() {
    // The CI determinism gate in library form: two fresh drains of the
    // same scenario under the tick clock with one worker must persist
    // byte-for-byte identical telemetry.
    let run = |tag: &str| {
        let dir = temp_dir(tag);
        let pool = WorkerPool::open(
            &dir,
            PoolConfig {
                workers: 1,
                shard_pairs: 2,
                clock: ClockSpec::Ticks { tick_ns: 100_000 },
                ..PoolConfig::default()
            },
        )
        .unwrap();
        pool.queue()
            .submit(ScenarioSpec::Campaign(tiny(21)), SubmitOptions::default())
            .unwrap();
        let stats = pool.drain().unwrap();
        assert_eq!(stats.executed, 1, "{stats:?}");
        let json = fs::read_to_string(pool.queue().telemetry_path()).unwrap();
        fs::remove_dir_all(&dir).ok();
        json
    };
    let first = run("det_a");
    let second = run("det_b");
    assert_eq!(first, second, "virtual-clock drains must be reproducible");
    assert!(
        !TelemetrySnapshot::from_json(&first).unwrap().is_empty(),
        "the identical snapshots must not be trivially empty"
    );
}

#[test]
fn full_event_buffer_counts_drops_without_losing_the_measurement() {
    let dir = temp_dir("drops");
    let spec = tiny(31);
    let reference = CampaignSession::new(spec.resolve().unwrap()).run().unwrap();
    let pool = WorkerPool::open(
        &dir,
        PoolConfig {
            workers: 1,
            event_buffer: 1,
            ..PoolConfig::default()
        },
    )
    .unwrap();
    pool.queue()
        .submit(
            ScenarioSpec::Campaign(spec.clone()),
            SubmitOptions::default(),
        )
        .unwrap();
    let stats = pool.drain().unwrap();
    assert_eq!(stats.executed, 1, "{stats:?}");
    assert!(
        stats.telemetry.dropped_events > 0,
        "a 1-deep buffer must overflow on campaign event bursts: {:?}",
        stats.telemetry
    );
    // Dropped events are observability loss only — the archived result is
    // still bitwise identical to an uninterrupted direct run.
    let stored = pool.store().get(&RunId::of_spec(&spec)).unwrap();
    assert_eq!(stored.result.to_json(), reference.to_json());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_stats_table_renders_in_every_artifact_format() {
    let dir = temp_dir("render");
    let pool = WorkerPool::open(&dir, PoolConfig::default()).unwrap();
    pool.queue()
        .submit(ScenarioSpec::Campaign(tiny(41)), SubmitOptions::default())
        .unwrap();
    let stats = pool.drain().unwrap();
    let table = stage_latency_table(&stats.telemetry);
    let text = table.render(Format::Text);
    assert!(text.contains("queue-wait"), "{text}");
    assert!(text.contains("shard-exec"), "{text}");
    let csv = table.render(Format::Csv);
    assert!(csv.lines().count() > Stage::COUNT, "{csv}");
    let json = table.render(Format::Json);
    assert!(json.contains("settle-latency"), "{json}");
    fs::remove_dir_all(&dir).ok();
}
