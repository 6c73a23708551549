//! The closed control loop end to end: the checked-in
//! `scenarios/governor_stress.json` campaign is measured, archived in a
//! `ResultStore`, reloaded, turned into a `LatencyTable`, and driven by the
//! governor daemon under the builtin traffic catalog. Pins the headline
//! ablation (latency-aware strictly beats latency-oblivious on missed
//! deadlines under gaming and deadline traffic on the pathological Quadro
//! table) and bitwise scorecard determinism.

use latest::core::spec::CampaignSpec;
use latest::core::{FreqSelection, ResultStore};
use latest::governor::{
    make_policy, replay_seed, DaemonConfig, GovernorDaemon, LatencyTable, PowerModel, Scorecard,
    TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::predict::{corpus_for_device, PredictModel, PredictedTable};
use latest::traffic::TrafficRegistry;

fn stress_spec() -> CampaignSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("governor_stress.json");
    let mut spec = CampaignSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    // The checked-in scenario asks for 25..80 measurements per pair under a
    // tight 4 % RSE stopping rule; a reduced replica keeps this test fast
    // while preserving the pathology (the Quadro's slow 930/990 MHz target
    // columns are properties of the device model, not the stopping rule).
    // The RSE threshold must be relaxed along with the sample budget, or
    // pairs exhaust their retries before converging and drop out.
    spec.min_measurements = 4;
    spec.max_measurements = 8;
    spec.rse_threshold = 0.5;
    spec.validate().unwrap();
    spec
}

/// Archive the reduced stress campaign in a fresh store, reload it by spec
/// address, and hand back the latency table exactly as the CLI would. The
/// campaign runs once; all tests share the resulting table.
fn stress_table() -> &'static LatencyTable {
    static TABLE: std::sync::OnceLock<LatencyTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_stress_table)
}

fn build_stress_table() -> LatencyTable {
    let dir = std::env::temp_dir().join(format!("latest_govern_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();

    let spec = stress_spec();
    let result = spec.clone().into_session().unwrap().run().unwrap();
    let put_id = store.put(&spec, &result).unwrap();

    let reloaded = store.latest_for(&spec).unwrap().expect("run just archived");
    assert_eq!(reloaded.run_id, put_id);

    let (table, skipped) = LatencyTable::from_campaign_counting(&reloaded.result);
    // The stress scenario's whole point: transitions into the Quadro's slow
    // 930/990 MHz target columns exhaust their measurement retries under the
    // bursty disturbance workload and drop out of the table — explicitly
    // counted, never silently. The governor must cope with those pairs being
    // unknown at decision time.
    assert_eq!(
        skipped.retries_exhausted, 5,
        "skip pattern drifted: {skipped}"
    );
    assert_eq!(skipped.total(), 5, "unexpected extra skips: {skipped}");
    // 4 frequencies => 12 ordered pairs; completed + skipped covers them.
    assert_eq!(table.len() + skipped.total(), 12);
    let _ = std::fs::remove_dir_all(&dir);
    table
}

fn score(table: &LatencyTable, policy_name: &str, traffic_name: &str, base_seed: u64) -> Scorecard {
    let registry = TrafficRegistry::builtin();
    let trace = registry.get(traffic_name).unwrap().generate().unwrap();
    let ladder = ZoneLadder::from_table(table).unwrap();
    let daemon = GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
    let policy = make_policy(policy_name, table).unwrap();
    let seed = replay_seed(base_seed, policy.name(), &trace.name);
    let mut replay = TransitionReplay::new(table.clone(), seed);
    daemon.run(policy.as_ref(), &trace, &mut replay, seed)
}

#[test]
fn latency_aware_misses_fewer_deadlines_on_gaming_and_deadline_traffic() {
    let table = stress_table();
    // The stress scenario exists to exercise exactly this pathology: the
    // ladder's Low/Medium/High rungs are the Quadro's slow 930/990 targets.
    let ladder = ZoneLadder::from_table(table).unwrap();
    assert!(
        ladder.rungs().iter().any(|f| f.0 == 930 || f.0 == 990),
        "ladder lost the pathological rungs: {:?}",
        ladder.rungs()
    );

    // Under the paper's cost model the device keeps serving at the old
    // clock through a switch, so a slow switch costs time spent at the
    // wrong frequency rather than a stall. On gaming and deadline traffic
    // that still costs the oblivious governor deadlines the aware one
    // keeps. (On bursty traffic it does not: there the aware governor
    // misses more deadlines, for about a fifth less energy.)
    for traffic in ["gaming", "deadline"] {
        let aware = score(table, "latency-aware", traffic, 0);
        let oblivious = score(table, "latency-oblivious", traffic, 0);
        assert!(
            aware.with_deadline > 0,
            "{traffic} traffic carries deadlines"
        );
        assert_eq!(aware.with_deadline, oblivious.with_deadline);
        assert!(
            aware.missed_deadlines < oblivious.missed_deadlines,
            "latency-aware must strictly beat oblivious on {traffic}: \
             aware {} vs oblivious {} (of {})",
            aware.missed_deadlines,
            oblivious.missed_deadlines,
            aware.with_deadline
        );
        // The mechanism, not just the outcome: the oblivious governor pays
        // for switches the aware one declines.
        assert!(oblivious.switches > aware.switches, "{traffic}");
        assert!(
            oblivious.time_in_switch_ms > aware.time_in_switch_ms,
            "{traffic}"
        );
    }
}

#[test]
fn every_policy_scores_every_builtin_traffic_shape() {
    let table = stress_table();
    let registry = TrafficRegistry::builtin();
    assert!(registry.names().len() >= 4);
    for traffic in registry.names() {
        for policy in POLICY_NAMES {
            let card = score(table, policy, traffic, 7);
            assert_eq!(card.policy, *policy);
            assert_eq!(card.traffic, traffic);
            assert!(card.requests > 0, "{policy}/{traffic} scored no requests");
            assert_eq!(
                card.completed, card.requests,
                "{policy}/{traffic} left requests unserved"
            );
            assert!(card.runtime_ms > 0.0);
            assert!(card.energy_j > 0.0);
            assert!(card.missed_deadlines <= card.with_deadline);
        }
    }
}

#[test]
fn a_predicted_table_fills_the_skipped_pairs_and_drives_the_daemon_deterministically() {
    let dir = std::env::temp_dir().join(format!("latest_govern_pred_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let spec = stress_spec();
    let result = spec.clone().into_session().unwrap().run().unwrap();
    store.put(&spec, &result).unwrap();

    let corpus = corpus_for_device(&store, &spec.device, None).unwrap();
    let model = PredictModel::fit(&corpus).unwrap();
    let FreqSelection::List(freqs) = &spec.frequencies else {
        panic!("stress scenario lists its frequencies explicitly");
    };

    // The measured table skips the 5 pairs that exhaust their retries (see
    // build_stress_table); the prediction cascade answers all 12 ordered
    // pairs, falling back to interpolation/regression for the skipped ones.
    let full = PredictedTable::over(&model, freqs, f64::INFINITY);
    assert_eq!(full.entries.len(), 12);
    assert_eq!(full.accepted().count(), 12);
    assert!(
        full.entries.iter().any(|e| e.source != "measured"),
        "the skipped pairs must be served by the fallback tiers"
    );
    let table = full.to_latency_table();
    assert_eq!(table.len(), 12, "the gated table covers every ordered pair");
    assert!(
        corpus.pairs.len() < 12,
        "the measured corpus must have holes for prediction to fill"
    );

    // The confidence gate is what relaxes the latency-aware policy's
    // unknown-pair refusal: a tighter gate keeps fewer pairs, and the ones
    // it drops stay unknown to the policy exactly like unmeasured pairs.
    let tight = PredictedTable::over(&model, freqs, 0.0);
    assert!(tight.accepted().count() < full.accepted().count());
    assert_eq!(
        tight.to_latency_table().len(),
        tight.accepted().count(),
        "rejected pairs stay out of the governor's table"
    );

    // Closed loop on predicted latencies: bitwise-deterministic scorecards,
    // same as on a measured table.
    for traffic in ["bursty", "steady"] {
        let first = score(&table, "latency-aware", traffic, 11);
        let second = score(&table, "latency-aware", traffic, 11);
        assert_eq!(first.to_json(), second.to_json(), "{traffic}");
        assert_eq!(first.completed, first.requests);
    }
    // And refitting over the same archive reproduces the model bitwise.
    assert_eq!(
        PredictModel::fit(&corpus).unwrap().to_json(),
        model.to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scorecards_are_bitwise_deterministic_across_reruns() {
    let table = stress_table();
    for (policy, traffic) in [
        ("latency-aware", "bursty"),
        ("latency-oblivious", "gaming"),
        ("run-at-max", "deadline"),
    ] {
        let first = score(table, policy, traffic, 42);
        let second = score(table, policy, traffic, 42);
        assert_eq!(first.to_json(), second.to_json(), "{policy}/{traffic}");
        // A different base seed must actually change the replay stream.
        let other = score(table, policy, traffic, 43);
        assert_ne!(first.seed, other.seed, "{policy}/{traffic}");
    }
}
