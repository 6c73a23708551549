//! Measurement-to-deployment integration: a LATEST campaign feeds the DVFS
//! governor daemon, and the latency knowledge must change (and improve) its
//! decisions under builtin traffic — the full loop the paper's Sec. VIII
//! motivates.

use latest::core::{CampaignConfig, CampaignEvent, CampaignSession, CampaignSpec};
use latest::governor::{
    make_policy, DaemonConfig, GovernorDaemon, LatencyTable, PowerModel, Scorecard,
    TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::traffic::TrafficRegistry;

fn gh200(n_freqs: usize, seed: u64) -> CampaignConfig {
    CampaignSpec::builder("gh200")
        .frequency_subset(n_freqs)
        .measurements(15, 30)
        .simulated_sms(Some(3))
        .seed(seed)
        .build_unchecked()
        .resolve()
        .unwrap()
}

fn measured_table(seed: u64) -> LatencyTable {
    let config = gh200(6, seed);
    let result = CampaignSession::new(config).run().expect("campaign");
    LatencyTable::from_campaign(&result)
}

/// Score every daemon policy on one builtin traffic shape over `table`,
/// in `POLICY_NAMES` order.
fn score_all(table: &LatencyTable, traffic: &str, seed: u64) -> Vec<Scorecard> {
    let trace = TrafficRegistry::builtin()
        .get(traffic)
        .unwrap()
        .generate()
        .unwrap();
    let ladder = ZoneLadder::from_table(table).unwrap();
    let daemon = GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
    POLICY_NAMES
        .iter()
        .map(|name| {
            let policy = make_policy(name, table).unwrap();
            let mut replay = TransitionReplay::new(table.clone(), seed);
            daemon.run(policy.as_ref(), &trace, &mut replay, seed)
        })
        .collect()
}

#[test]
fn campaign_table_is_complete_and_sane() {
    let table = measured_table(201);
    // 6 frequencies -> up to 30 ordered pairs (minus skipped/power-limited).
    assert!(table.len() >= 24, "only {} pairs measured", table.len());
    for pair in table.pairs() {
        assert!(pair.mean_ms() > 0.0);
        assert!(pair.quantile_ms(1.0) >= pair.quantile_ms(0.0));
    }
    let typical = table.typical_ms().unwrap();
    assert!((2.0..50.0).contains(&typical), "typical {typical} ms");
}

#[test]
fn table_survives_json_deployment_round_trip() {
    let table = measured_table(202);
    let restored = LatencyTable::from_json(&table.to_json()).unwrap();
    assert_eq!(restored.len(), table.len());
    for pair in table.pairs() {
        let r = restored
            .pair(
                latest::gpu_sim::freq::FreqMhz(pair.init_mhz),
                latest::gpu_sim::freq::FreqMhz(pair.target_mhz),
            )
            .expect("pair preserved");
        assert_eq!(r.latencies_ms, pair.latencies_ms);
    }
}

#[test]
fn latency_aware_governor_misses_fewer_deadlines_on_deadline_traffic() {
    // Tight deadlines against GH200 latencies: chasing every zone change
    // leaves the device mid-switch at the wrong clock when work arrives.
    // The aware governor declines the switches that do not amortise.
    let table = measured_table(204);
    let cards = score_all(&table, "deadline", 7);
    let (oblivious, aware) = (&cards[1], &cards[2]);
    assert!(aware.with_deadline > 0);
    assert!(
        aware.switches < oblivious.switches,
        "no suppression happened"
    );
    assert!(aware.suppressed > 0);
    assert!(
        aware.missed_deadlines < oblivious.missed_deadlines,
        "aware {} vs oblivious {} missed of {}",
        aware.missed_deadlines,
        oblivious.missed_deadlines,
        aware.with_deadline
    );
}

#[test]
fn latency_aware_governor_keeps_dvfs_savings_on_friendly_workloads() {
    // Steady load amortises GH200's switches: the aware governor must not
    // be more conservative than necessary. It should keep most of the
    // oblivious policy's energy saving against run-at-max.
    let table = measured_table(203);
    let cards = score_all(&table, "steady", 9);
    let (baseline, oblivious, aware) = (&cards[0], &cards[1], &cards[2]);
    let saving = |c: &Scorecard| 1.0 - c.energy_j / baseline.energy_j;
    let (s_obl, s_aware) = (saving(oblivious), saving(aware));
    assert!(
        s_obl > 0.02,
        "oblivious saving {:.1}% too small to compare",
        100.0 * s_obl
    );
    assert!(
        s_aware >= 0.8 * s_obl,
        "aware saving {:.1}% lost too much of oblivious {:.1}%",
        100.0 * s_aware,
        100.0 * s_obl
    );
    // ...and not by leaving the device underclocked under load.
    assert!(
        aware.p99_latency_ms <= oblivious.p99_latency_ms,
        "aware p99 {:.1} ms vs oblivious {:.1} ms",
        aware.p99_latency_ms,
        oblivious.p99_latency_ms
    );
}

#[test]
fn cancelled_pairs_are_counted_not_silently_dropped() {
    // Cancel a campaign after three pairs: the rest end Cancelled and must
    // show up in the skipped-pair count, with the table/skip split exactly
    // partitioning the campaign's pairs.
    let session = CampaignSession::new(gh200(6, 206));
    let token = session.cancel_token();
    let seen = std::sync::atomic::AtomicUsize::new(0);
    let session = session.observe(move |e: &CampaignEvent| {
        if matches!(e, CampaignEvent::PairFinished { .. })
            && seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == 3
        {
            token.cancel();
        }
    });
    let partial = session.run().unwrap();
    assert!(partial.is_partial(), "cancellation must leave pairs undone");

    let (table, skipped) = LatencyTable::from_campaign_counting(&partial);
    assert!(skipped.cancelled > 0, "no Cancelled pairs counted");
    assert_eq!(
        table.len() + skipped.total(),
        partial.pairs().len(),
        "table + skipped must partition the campaign: {skipped}"
    );
    // The silent constructor builds the identical table.
    assert_eq!(LatencyTable::from_campaign(&partial).len(), table.len());

    // An uninterrupted run of the same campaign skips strictly fewer pairs.
    let full = CampaignSession::new(gh200(6, 206)).run().expect("campaign");
    let (_, full_skipped) = LatencyTable::from_campaign_counting(&full);
    assert_eq!(full_skipped.cancelled, 0);
    assert!(full_skipped.total() < skipped.total());
}

#[test]
fn avoid_list_matches_pathological_columns() {
    // GH200's slow target columns must show up in the table's avoid list
    // when the sweep touched them.
    let result = CampaignSession::new(gh200(10, 205))
        .run()
        .expect("campaign");
    let table = LatencyTable::from_campaign(&result);
    let avoid = table.avoid_list(5.0);
    if !avoid.is_empty() {
        // Pathological pairs concentrate on few targets (column structure).
        let mut targets: Vec<u32> = avoid.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        targets.dedup();
        assert!(targets.len() <= 3, "avoid-list targets {targets:?}");
    }
}
