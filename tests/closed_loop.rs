//! Closed-loop validation: the measurement pipeline must *recover* the
//! simulated device's ground-truth switching latencies.
//!
//! This is the central payoff of the simulation substrate — on physical
//! hardware the true latency is unknowable (that is why the paper needs a
//! methodology at all); in the simulator the device records the exact
//! moment each transition request landed and settled, so we can assert the
//! tool's output against the truth.

mod common;

use std::sync::Arc;

use latest::core::{CampaignSession, CampaignSpec};
use latest::gpu_sim::devices::{self, DeviceSpec};
use latest::gpu_sim::transition::FixedTransition;
use latest::sim_clock::SimDuration;

fn fixed_spec(base: DeviceSpec, ms: u64) -> DeviceSpec {
    let mut spec = base;
    spec.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(ms),
    });
    spec
}

fn campaign(device: DeviceSpec, freqs: &[u32], seed: u64) -> latest::core::CampaignResult {
    let config = common::resolve_on(
        device,
        CampaignSpec::builder("device")
            .frequencies_mhz(freqs)
            .measurements(10, 25)
            .simulated_sms(Some(4))
            .seed(seed),
    );
    CampaignSession::new(config).run().expect("campaign")
}

#[test]
fn pipeline_recovers_fixed_latency_on_a100() {
    let result = campaign(fixed_spec(devices::a100_sxm4(), 12), &[705, 1095, 1410], 1);
    let mut checked = 0;
    for pair in result.completed() {
        let run = pair.outcome.run().unwrap();
        for (&measured, &truth) in run.latencies_ms.iter().zip(&run.ground_truth_ms) {
            assert!(
                (measured - truth).abs() < 0.6,
                "{}->{}: measured {measured} ms vs ground truth {truth} ms",
                pair.init_mhz(),
                pair.target_mhz()
            );
            checked += 1;
        }
    }
    assert!(checked >= 60, "only {checked} closed-loop checks ran");
}

#[test]
fn pipeline_recovers_fixed_latency_on_every_architecture() {
    for (base, freqs) in [
        (devices::a100_sxm4(), [705u32, 1410]),
        (devices::gh200(), [705, 1980]),
        (devices::rtx_quadro_6000(), [750, 1650]),
    ] {
        let name = base.name.clone();
        let result = campaign(fixed_spec(base, 20), &freqs, 2);
        for pair in result.completed() {
            let analysis = pair.analysis.as_ref().unwrap();
            assert!(
                (analysis.filtered.mean - 20.0).abs() < 2.0,
                "{name} {}->{}: mean {} ms, expected ~20 ms + detection granularity",
                pair.init_mhz(),
                pair.target_mhz(),
                analysis.filtered.mean
            );
        }
    }
}

#[test]
fn measured_latency_never_precedes_the_request() {
    // Physical causality: the detected transition end must come after the
    // change request, for every accepted measurement.
    let result = campaign(fixed_spec(devices::a100_sxm4(), 5), &[705, 1410], 3);
    for pair in result.completed() {
        for &ms in &pair.outcome.run().unwrap().latencies_ms {
            assert!(
                ms > 0.0,
                "{}->{}: non-positive latency {ms}",
                pair.init_mhz(),
                pair.target_mhz()
            );
        }
    }
}

#[test]
fn stock_models_recover_their_own_ground_truth() {
    // Not just fixed transitions: the calibrated per-architecture models
    // (mixtures, ramps, slow columns) must also be recovered within the
    // detection granularity of one workload iteration.
    let result = campaign(devices::a100_sxm4(), &[705, 1095, 1410], 4);
    let mut worst_err: f64 = 0.0;
    for pair in result.completed() {
        let run = pair.outcome.run().unwrap();
        for (&measured, &truth) in run.latencies_ms.iter().zip(&run.ground_truth_ms) {
            worst_err = worst_err.max((measured - truth).abs());
        }
    }
    assert!(worst_err < 1.0, "worst measurement error {worst_err} ms");
}

#[test]
fn probe_bound_covers_true_latencies() {
    // The probe phase's upper-bound estimate must dominate the latencies the
    // full campaign then observes (otherwise capture windows truncate).
    let result = campaign(devices::gh200(), &[705, 1095, 1980], 5);
    let bound = result.probe.max_latency_ms * 10.0; // tenfold rule, Sec. V
    for pair in result.completed() {
        let run = pair.outcome.run().unwrap();
        for &ms in &run.latencies_ms {
            assert!(
                ms <= bound || run.final_bound_ms >= ms,
                "{}->{}: latency {ms} ms above probe bound {bound} ms without window growth",
                pair.init_mhz(),
                pair.target_mhz()
            );
        }
    }
}
