//! The paper's motivating application, end to end: measure a GPU's
//! switching-latency table with the LATEST methodology, hand it to the
//! governor daemon, and show what the knowledge is worth under synthetic
//! request traffic (Secs. I and VIII).
//!
//! ```text
//! cargo run --release --example dvfs_governor
//! ```
//!
//! The daemon's three policies are compared on the builtin traffic
//! catalog:
//!
//! * `run-at-max` — no DVFS (the energy and latency reference),
//! * `latency-oblivious` — follow every load-zone change as if switches
//!   were free (a CPU-derived runtime system transplanted to a GPU),
//! * `latency-aware` — switch only when the *measured* latency amortises
//!   against the expected zone dwell time, and detour around pathological
//!   pairs.
//!
//! A switch costs what the paper measures: the device keeps serving at the
//! old clock until the target clock takes over.

use latest::core::{CampaignSession, CampaignSpec};
use latest::governor::{
    make_policy, replay_seed, DaemonConfig, GovernorDaemon, LatencyTable, PowerModel,
    TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::traffic::TrafficRegistry;

fn main() {
    // Step 1 — run a LATEST campaign on the simulated GH200 (the GPU with
    // pathological target columns, where latency awareness matters most).
    let config = CampaignSpec::builder("gh200")
        .frequency_subset(8)
        .measurements(25, 50)
        .simulated_sms(Some(4))
        .seed(0x60F)
        .build_unchecked()
        .resolve()
        .expect("valid spec");
    println!(
        "measuring switching latencies on {} (LATEST campaign)...",
        config.spec.name
    );
    let result = CampaignSession::new(config).run().expect("campaign");
    let table = LatencyTable::from_campaign(&result);
    println!(
        "table: {} pairs, typical latency {:.1} ms, {} pathological pairs (>5x typical)\n",
        table.len(),
        table.typical_ms().unwrap_or(f64::NAN),
        table.avoid_list(5.0).len()
    );

    // Step 2 — the daemon over the table's measured target frequencies.
    let ladder = ZoneLadder::from_table(&table).expect("table has targets");
    let daemon = GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));

    // Step 3 — every policy against every builtin traffic shape.
    let registry = TrafficRegistry::builtin();
    for spec in registry.specs() {
        let trace = spec.generate().expect("builtin traffic generates");
        println!("traffic: {} ({} requests)", trace.name, trace.len());
        println!(
            "  {:<18} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
            "policy", "missed", "p99[ms]", "energy[J]", "saving[%]", "switches", "declined"
        );
        let mut baseline_j = None;
        for name in POLICY_NAMES {
            let policy = make_policy(name, &table).expect("known policy");
            let seed = replay_seed(0x60F, name, &trace.name);
            let mut replay = TransitionReplay::new(table.clone(), seed);
            let card = daemon.run(policy.as_ref(), &trace, &mut replay, seed);
            // run-at-max comes first in POLICY_NAMES: the energy baseline.
            let baseline_j = *baseline_j.get_or_insert(card.energy_j);
            println!(
                "  {:<18} {:>9} {:>9.1} {:>10.0} {:>10.1} {:>9} {:>9}",
                card.policy,
                format!("{}/{}", card.missed_deadlines, card.with_deadline),
                card.p99_latency_ms,
                card.energy_j,
                100.0 * (1.0 - card.energy_j / baseline_j),
                card.switches,
                card.suppressed,
            );
        }
        println!();
    }

    println!("reading: the oblivious policy saves energy by following the load and pays");
    println!("for every switch in time spent at the wrong clock. The aware policy declines");
    println!("switches that do not amortise against the measured latency; since it decides");
    println!("only at zone changes, a declined up-switch under sustained load is not");
    println!("revisited and can strand the device at a low clock (the deadline rows).");
}
