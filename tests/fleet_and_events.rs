//! The streaming session API and the multi-device fleet driver, exercised
//! across crate boundaries: events must arrive *while the campaign runs*
//! (not as a post-hoc dump), cancellation must checkpoint, and a fleet over
//! two different GPU models must aggregate per-device results that feed the
//! cross-device report table.

mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use latest::core::{
    CampaignConfig, CampaignEvent, CampaignSession, CampaignSpec, Fleet, PairOutcome, SkipReason,
};
use latest::gpu_sim::devices::{self, DeviceSpec};
use latest::gpu_sim::transition::FixedTransition;
use latest::report::{cross_device_table, Artifact, CrossDeviceRow, Format};
use latest::sim_clock::SimDuration;

fn quick_config(mut device: DeviceSpec, freqs: &[u32], seed: u64) -> CampaignConfig {
    device.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(7),
    });
    common::resolve_on(
        device,
        CampaignSpec::builder("fixed")
            .frequencies_mhz(freqs)
            .measurements(6, 15)
            .simulated_sms(Some(2))
            .seed(seed),
    )
}

/// The acceptance test for the event stream: a consumer on another thread
/// observes `PairFinished` events in real time, i.e. delivered while the
/// campaign is still running, not as a post-hoc dump.
#[test]
fn event_stream_delivers_pair_finished_in_real_time() {
    let mut session =
        CampaignSession::new(quick_config(devices::a100_sxm4(), &[705, 1095, 1410], 41));
    let rx = session.events();

    // Rendezvous observer: on the *first* PairFinished the worker blocks
    // inside run() until this thread acknowledges receipt. That makes the
    // "observed in real time" property deterministic — the campaign cannot
    // have completed when the first PairFinished is consumed, regardless
    // of thread scheduling.
    let (ack_tx, ack_rx) = std::sync::mpsc::channel::<()>();
    let first = std::sync::atomic::AtomicBool::new(true);
    let ack_rx = std::sync::Mutex::new(ack_rx);
    let session = session.observe(move |e: &CampaignEvent| {
        if matches!(e, CampaignEvent::PairFinished { .. })
            && first.swap(false, std::sync::atomic::Ordering::SeqCst)
        {
            let _ = ack_rx.lock().unwrap().recv();
        }
    });

    let worker = std::thread::spawn(move || session.run().unwrap());

    let mut started = 0usize;
    let mut finished = 0usize;
    let mut saw_phase1 = false;
    loop {
        match rx.recv_timeout(Duration::from_secs(300)) {
            Ok(CampaignEvent::Phase1Done { .. }) => {
                assert_eq!(started, 0, "phase 1 must precede all pair work");
                saw_phase1 = true;
            }
            Ok(CampaignEvent::PairStarted { .. }) => started += 1,
            Ok(CampaignEvent::PairFinished {
                measurements,
                mean_ms,
                ..
            }) => {
                finished += 1;
                assert!(measurements >= 6);
                assert!(mean_ms > 0.0);
                if finished == 1 {
                    // The observer holds the worker inside run() until we
                    // acknowledge: this event was necessarily observed in
                    // real time.
                    assert!(
                        !worker.is_finished(),
                        "campaign finished before its first PairFinished was consumed"
                    );
                    ack_tx.send(()).unwrap();
                }
            }
            Ok(CampaignEvent::CampaignFinished { completed, .. }) => {
                assert_eq!(completed, finished);
                break;
            }
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => panic!("event stream stalled"),
            Err(RecvTimeoutError::Disconnected) => panic!("stream closed before completion"),
        }
    }
    let result = worker.join().unwrap();

    assert!(saw_phase1);
    assert_eq!(started, 6, "every ordered pair must announce itself");
    assert_eq!(finished, result.completed().count());
}

/// Fleet acceptance: a run over two different device specs (A100 + GH200)
/// completes with per-device results, and the aggregation feeds the
/// cross-device table renderer.
#[test]
fn fleet_over_two_models_aggregates_per_device() {
    let fleet = Fleet::new()
        .add_campaign(quick_config(devices::a100_sxm4(), &[705, 1410], 42))
        .add_campaign(quick_config(devices::gh200(), &[705, 1980], 43));
    let result = fleet.run().unwrap();

    assert_eq!(result.devices().len(), 2);
    assert!(result.unstarted().is_empty());
    let a100 = result
        .by_name("NVIDIA A100-SXM4-40GB")
        .expect("A100 measured");
    let gh200 = result
        .by_name("NVIDIA GH200 (Grace Hopper)")
        .expect("GH200 measured");
    assert!(a100.completed().count() >= 1);
    assert!(gh200.completed().count() >= 1);

    // Aggregate rows feed latest-report's cross-device table.
    let rows: Vec<CrossDeviceRow> = result.summary_rows().into_iter().map(Into::into).collect();
    let rendered = cross_device_table(&rows).render(Format::Text);
    assert!(rendered.contains("A100"));
    assert!(rendered.contains("GH200"));
    assert_eq!(rendered.lines().count(), 4); // header + rule + 2 devices

    // Same fixed 7 ms transition model on both devices: the filtered means
    // must agree on the scale even though the architectures differ.
    for s in result.summary_rows() {
        assert!(
            s.best_ms > 5.0 && s.worst_ms < 25.0,
            "{}: [{:.3}, {:.3}] ms outside the fixed-transition band",
            s.device_name,
            s.best_ms,
            s.worst_ms
        );
    }
}

/// Fleet events are tagged with the device slot, and a shared cancel token
/// checkpoints every member.
#[test]
fn fleet_events_and_cancellation_compose() {
    let fleet = Fleet::new()
        .add_campaign(quick_config(devices::a100_sxm4(), &[705, 1410], 44))
        .add_campaign(quick_config(devices::a100_sxm4_unit(1), &[705, 1410], 45));

    let (tx, rx) = std::sync::mpsc::channel::<(usize, bool)>();
    let tx = std::sync::Mutex::new(tx);
    let fleet = fleet.observe(move |slot: usize, e: &CampaignEvent| {
        if matches!(
            e,
            CampaignEvent::PairFinished { .. } | CampaignEvent::PairSkipped { .. }
        ) {
            let finished = matches!(e, CampaignEvent::PairFinished { .. });
            let _ = tx.lock().unwrap().send((slot, finished));
        }
    });
    let result = fleet.run().unwrap();
    let tagged: Vec<(usize, bool)> = rx.try_iter().collect();
    assert!(tagged.iter().any(|&(slot, _)| slot == 0));
    assert!(tagged.iter().any(|&(slot, _)| slot == 1));
    assert_eq!(
        tagged.iter().filter(|&&(_, finished)| finished).count(),
        result
            .devices()
            .iter()
            .map(|d| d.completed().count())
            .sum::<usize>()
    );
}

/// A cancelled pair is recorded with the dedicated outcome and skip reason,
/// and the partial result knows it is partial.
#[test]
fn cancellation_marks_pairs_and_result_partial() {
    let session = CampaignSession::new(quick_config(devices::a100_sxm4(), &[705, 1095, 1410], 46));
    let token = session.cancel_token();
    let mut session = session.observe(move |e: &CampaignEvent| {
        if matches!(e, CampaignEvent::PairFinished { .. }) {
            token.cancel();
        }
    });
    let rx = session.events();
    let result = session.run().unwrap();

    assert!(result.is_partial());
    assert_eq!(result.completed().count(), 1);
    let cancelled = result
        .pairs()
        .iter()
        .filter(|p| matches!(p.outcome, PairOutcome::Cancelled))
        .count();
    assert_eq!(cancelled, result.pairs().len() - 1);
    let skip_events = rx
        .try_iter()
        .filter(|e| {
            matches!(
                e,
                CampaignEvent::PairSkipped {
                    reason: SkipReason::Cancelled,
                    ..
                }
            )
        })
        .count();
    assert_eq!(skip_events, cancelled);
}
