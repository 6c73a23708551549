//! End-to-end proof of the service telemetry subsystem: a drain times
//! every stage of the execution path into lock-free recorders, persists
//! the merged snapshot, stays bitwise-reproducible under the virtual
//! clock, and renders through the report Artifact contract.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use latest::core::spec::{CampaignSpec, ScenarioSpec};
use latest::queue::{
    EventLog, PoolConfig, ProgressFormatter, QueueEvent, SubmitOptions, WorkerPool,
};
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
        "observerless pools still time each event's delivery: {t:?}"
    );
    assert_eq!(t.dropped_events, 0, "events are never dropped");

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
    // byte-for-byte identical telemetry and event logs (rendered as
    // `queue serve` renders them, elapsed stamps on the same clock).
    let clock = ClockSpec::Ticks { tick_ns: 100_000 };
    let run = |tag: &str| {
        let dir = temp_dir(tag);
        let pool = WorkerPool::open(
            &dir,
            PoolConfig {
                workers: 1,
                clock,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let log = EventLog::open(
            pool.queue().events_log_path(),
            pool.queue().rotated_events_log_path(),
            0,
        )
        .unwrap();
        let formatter = Mutex::new(ProgressFormatter::with_clock(clock.clock()));
        let pool = pool.observe(move |e: &QueueEvent| {
            let line = match e {
                QueueEvent::Progress { job, member, event } => {
                    format!("{job}[m{member}] {}", formatter.lock().unwrap().line(event))
                }
                other => other.to_string(),
            };
            log.append_line(&line).unwrap();
        });
        pool.queue()
            .submit(ScenarioSpec::Campaign(tiny(21)), SubmitOptions::default())
            .unwrap();
        let stats = pool.drain().unwrap();
        assert_eq!(stats.executed, 1, "{stats:?}");
        let json = fs::read_to_string(pool.queue().telemetry_path()).unwrap();
        let events = fs::read_to_string(pool.queue().events_log_path()).unwrap();
        fs::remove_dir_all(&dir).ok();
        (json, events)
    };
    let (first, first_events) = run("det_a");
    let (second, second_events) = run("det_b");
    assert_eq!(first, second, "virtual-clock drains must be reproducible");
    assert_eq!(
        first_events, second_events,
        "virtual-clock event logs must be reproducible"
    );
    assert!(
        !TelemetrySnapshot::from_json(&first).unwrap().is_empty(),
        "the identical snapshots must not be trivially empty"
    );
    assert!(
        first_events.contains("pair 705->1410 MHz started"),
        "the identical event logs must carry the pair feed: {first_events}"
    );
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
