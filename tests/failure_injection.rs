//! Failure injection across crate boundaries: the tool must degrade the way
//! the paper's tool does — skip power-limited pairs, back off on thermal
//! events, skip statistically indistinguishable pairs, and survive
//! evaluation retries without aborting the campaign.

mod common;

use std::sync::Arc;

use latest::core::{CampaignConfig, CampaignSession, CampaignSpec, PairOutcome};
use latest::gpu_sim::devices::{self, DeviceSpec};
use latest::gpu_sim::freq::FreqMhz;
use latest::gpu_sim::transition::FixedTransition;
use latest::sim_clock::SimDuration;

fn base_config(device: DeviceSpec, freqs: &[u32], seed: u64) -> CampaignConfig {
    common::resolve_on(
        device,
        CampaignSpec::builder("device")
            .frequencies_mhz(freqs)
            .measurements(8, 20)
            .simulated_sms(Some(4))
            .seed(seed),
    )
}

#[test]
fn power_capped_frequency_pairs_are_skipped_not_fatal() {
    // A TDP that cannot sustain the top clock (but sustains 1095 MHz):
    // pairs targeting it must end PowerLimited while the rest of the
    // campaign completes.
    let mut spec = devices::a100_sxm4();
    spec.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(6),
    });
    spec.thermal.tdp_w = spec.power.busy_power(1200.0);
    let result = CampaignSession::new(base_config(spec, &[705, 1095, 1410], 10))
        .run()
        .unwrap();

    let power_limited: Vec<_> = result
        .pairs()
        .iter()
        .filter(|p| matches!(p.outcome, PairOutcome::PowerLimited { .. }))
        .collect();
    assert!(!power_limited.is_empty(), "no pair hit the power cap");
    for p in &power_limited {
        assert_eq!(
            p.target_mhz(),
            1410,
            "only the unsustainable clock should power-limit"
        );
        assert!(
            p.analysis.is_none(),
            "power-limited pairs must carry no analysis"
        );
    }
    // Pairs between sustainable clocks still completed.
    assert!(
        result.completed().any(|p| p.target_mhz() != 1410),
        "sustainable pairs should have completed"
    );
}

#[test]
fn thermal_events_discard_and_continue() {
    // Aggressive thermal model: throttling fires mid-run; the controller
    // must discard the newest measurements, back off and still complete.
    let mut spec = devices::a100_sxm4();
    spec.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(8),
    });
    spec.thermal.tau_s = 0.5;
    spec.thermal.r_th = 0.16;
    spec.thermal.throttle_temp_c = 66.0;
    spec.thermal.release_temp_c = 60.0;
    spec.thermal.throttle_cap_mhz = 1410.0;
    let result = CampaignSession::new(base_config(spec, &[705, 1410], 11))
        .run()
        .unwrap();

    let mut saw_thermal = false;
    for p in result.completed() {
        let run = p.outcome.run().unwrap();
        saw_thermal |= run.thermal_events > 0;
        // The data that survived must still be sane.
        let a = p.analysis.as_ref().unwrap();
        assert!(
            (a.filtered.mean - 8.0).abs() < 2.0,
            "mean {}",
            a.filtered.mean
        );
    }
    assert!(saw_thermal, "thermal injection never fired");
}

#[test]
fn indistinguishable_pairs_are_excluded_in_phase1() {
    // Adjacent 15 MHz A100 steps under heavy workload noise and few
    // samples: phase 1 must exclude the pair rather than measure garbage.
    let mut config = base_config(devices::a100_sxm4(), &[1395, 1410], 12);
    config.workload.noise_rel_sigma = 0.5;
    config.phase1_iters = 40;
    let result = CampaignSession::new(config).run().unwrap();
    assert!(
        result
            .pairs()
            .iter()
            .any(|p| matches!(p.outcome, PairOutcome::SkippedIndistinguishable)),
        "no pair was excluded"
    );
    for p in result.pairs() {
        if matches!(p.outcome, PairOutcome::SkippedIndistinguishable) {
            assert!(p.analysis.is_none());
            assert!(p.latencies_ms().is_none());
        }
    }
}

#[test]
fn campaign_survives_unmeasurable_pairs() {
    // Zero retries allowed and a capture window bound of nearly nothing:
    // evaluation can fail, but the campaign must return outcomes for every
    // pair instead of erroring out.
    let mut config = base_config(devices::rtx_quadro_6000(), &[750, 990, 1650], 13);
    config.max_retries = 1;
    config.initial_latency_guess_ms = 0.5;
    config.probe_safety_factor = 1.0;
    let result = CampaignSession::new(config)
        .run()
        .expect("campaign must not abort");
    assert_eq!(result.pairs().len(), 6);
    for p in result.pairs() {
        match &p.outcome {
            PairOutcome::Completed(run) => assert!(!run.latencies_ms.is_empty()),
            PairOutcome::RetriesExhausted { attempts, .. } => assert_eq!(*attempts, 1),
            PairOutcome::PowerLimited { .. } | PairOutcome::SkippedIndistinguishable => {}
            PairOutcome::Cancelled => panic!("nothing cancelled this campaign"),
        }
    }
}

#[test]
fn single_frequency_config_is_rejected() {
    let spec = CampaignSpec::builder("a100").frequencies_mhz(&[705]);
    assert!(spec.build_unchecked().resolve().is_err());
    // A resolved config edited past its spec is still refused at run time.
    let mut config = base_config(devices::a100_sxm4(), &[705, 1410], 14);
    config.frequencies.truncate(1);
    assert!(CampaignSession::new(config).run().is_err());
}

#[test]
fn off_ladder_frequency_is_rejected() {
    // 1000 MHz is not a 15 MHz A100 ladder step.
    let spec = CampaignSpec::builder("a100").frequencies_mhz(&[705, 1000]);
    assert!(spec.build_unchecked().resolve().is_err());
    let mut config = base_config(devices::a100_sxm4(), &[705, 1410], 15);
    config.frequencies[1] = FreqMhz(1000);
    assert!(CampaignSession::new(config).run().is_err());
}
