//! Property-based tests for the governor: table queries, latency replay and
//! the accounting identities of the daemon loop.

use std::sync::OnceLock;

use latest_governor::{
    make_policy, DaemonConfig, GovernorDaemon, LatencyTable, PairLatency, PhaseKind, PowerModel,
    Scorecard, TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest_gpu_sim::freq::FreqMhz;
use latest_traffic::{TrafficRegistry, TrafficTrace};
use proptest::prelude::*;

fn tables() -> impl Strategy<Value = LatencyTable> {
    prop::collection::vec(1.0..100.0f64, 1..6).prop_map(|ms| {
        let freqs = [210u32, 1058, 1410];
        let mut t = LatencyTable::new("prop");
        for &a in &freqs {
            for &b in &freqs {
                if a != b {
                    t.insert(PairLatency::new(a, b, ms.clone()));
                }
            }
        }
        t
    })
}

/// The builtin traffic catalog, generated once.
fn catalog() -> &'static [TrafficTrace] {
    static CATALOG: OnceLock<Vec<TrafficTrace>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        TrafficRegistry::builtin()
            .specs()
            .iter()
            .map(|spec| spec.generate().unwrap())
            .collect()
    })
}

fn traffic() -> impl Strategy<Value = &'static TrafficTrace> {
    (0..catalog().len()).prop_map(|i| &catalog()[i])
}

fn score(table: &LatencyTable, policy: &str, trace: &TrafficTrace, seed: u64) -> Scorecard {
    let ladder = ZoneLadder::from_table(table).unwrap();
    let daemon = GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
    let policy = make_policy(policy, table).unwrap();
    let mut replay = TransitionReplay::new(table.clone(), seed);
    daemon.run(policy.as_ref(), trace, &mut replay, seed)
}

proptest! {
    // --- PairLatency / LatencyTable ------------------------------------------

    #[test]
    fn quantile_is_monotone(ms in prop::collection::vec(0.1..1000.0f64, 1..100), p in 0.0..1.0f64, q in 0.0..1.0f64) {
        let pair = PairLatency::new(1, 2, ms);
        let (lo, hi) = (p.min(q), p.max(q));
        prop_assert!(pair.quantile_ms(lo) <= pair.quantile_ms(hi));
        prop_assert!(pair.mean_ms() >= pair.quantile_ms(0.0));
        prop_assert!(pair.mean_ms() <= pair.quantile_ms(1.0));
    }

    #[test]
    fn avoid_list_entries_are_pathological(table in tables(), factor in 1.5..10.0f64) {
        for (i, t) in table.avoid_list(factor) {
            prop_assert!(table.is_pathological(FreqMhz(i), FreqMhz(t), factor));
        }
    }

    #[test]
    fn json_round_trip_preserves_every_pair(table in tables()) {
        let restored = LatencyTable::from_json(&table.to_json()).unwrap();
        prop_assert_eq!(restored.len(), table.len());
        for p in table.pairs() {
            let r = restored.pair(FreqMhz(p.init_mhz), FreqMhz(p.target_mhz)).unwrap();
            prop_assert_eq!(&r.latencies_ms, &p.latencies_ms);
        }
    }

    #[test]
    fn cheapest_near_never_exceeds_straight_cost(table in tables(), window in 0u32..500) {
        // If the straight pair is measured, the detour can only improve it.
        let (init, target) = (FreqMhz(1410), FreqMhz(210));
        if let (Some(straight), Some((_, detour_ms))) = (
            table.expected_ms(init, target),
            table.cheapest_near(init, target, window),
        ) {
            prop_assert!(detour_ms <= straight + 1e-12);
        }
    }

    #[test]
    fn replay_draws_stay_within_the_observed_sample_range(
        ms in prop::collection::vec(0.1..1000.0f64, 1..40),
        seed in 0u64..1000,
        draws in 1usize..50,
    ) {
        let pair = PairLatency::new(1000, 1500, ms);
        let (lo, hi) = (pair.quantile_ms(0.0), pair.quantile_ms(1.0));
        let mut table = LatencyTable::new("prop");
        table.insert(pair);
        let mut replay = TransitionReplay::new(table, seed);
        for _ in 0..draws {
            let d = replay.draw_ms(FreqMhz(1000), FreqMhz(1500));
            prop_assert!((lo..=hi).contains(&d), "{d} outside [{lo}, {hi}]");
        }
    }

    // --- daemon accounting ---------------------------------------------------------

    #[test]
    fn every_policy_completes_every_request(table in tables(), trace in traffic(), seed in 0u64..100) {
        for policy in POLICY_NAMES {
            let card = score(&table, policy, trace, seed);
            prop_assert_eq!(card.completed, card.requests, "{}/{}", policy, trace.name);
        }
    }

    #[test]
    fn energy_is_bounded_by_power_extremes(table in tables(), trace in traffic(), seed in 0u64..100) {
        // Energy must lie between the idle draw at the bottom rung and the
        // busy draw at the top rung, integrated over the actual runtime.
        let ladder = ZoneLadder::from_table(&table).unwrap();
        let power = PowerModel::sxm_class(ladder.max());
        let p_floor = power.power_w(ladder.rungs()[0], PhaseKind::Idle);
        let p_ceil = power.power_w(ladder.max(), PhaseKind::Busy);
        for policy in POLICY_NAMES {
            let card = score(&table, policy, trace, seed);
            prop_assert!(card.energy_j >= p_floor * card.runtime_ms / 1e3 - 1e-6);
            prop_assert!(card.energy_j <= p_ceil * card.runtime_ms / 1e3 + 1e-6);
        }
    }

    #[test]
    // `tables()` always spans the same rungs, so two draws share a top
    // rung and differ only in latencies, which run-at-max never pays.
    fn run_at_max_ignores_switch_latencies(a in tables(), b in tables(), trace in traffic(), seed in 0u64..100) {
        let card_a = score(&a, "run-at-max", trace, seed);
        prop_assert_eq!(card_a.switches, 0);
        prop_assert_eq!(card_a.to_json(), score(&b, "run-at-max", trace, seed).to_json());
    }
}
