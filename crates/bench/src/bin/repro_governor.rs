//! Ablation: what is switching-latency knowledge *worth* to a DVFS runtime
//! system? (the paper's Sec. I / Sec. VIII motivation, quantified).
//!
//! Measures a latency table on each simulated GPU, then runs the governor
//! daemon's three policies over the builtin traffic catalog and reports
//! missed deadlines, tail latency and energy saving against the run-at-max
//! baseline. Switches cost what the paper measures: the device keeps
//! serving at the old clock until the target clock takes over.

use bench_support::repro_spec;
use latest_core::CampaignSession;
use latest_governor::{
    make_policy, replay_seed, DaemonConfig, GovernorDaemon, LatencyTable, PowerModel,
    TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest_report::{Artifact, Format, TextTable};
use latest_traffic::{TrafficRegistry, TrafficTrace};

fn main() {
    let sweeps = [
        ("a100", 0xAB_01u64),
        ("gh200", 0xAB_02),
        ("quadro", 0xAB_03),
    ];
    let traces: Vec<TrafficTrace> = TrafficRegistry::builtin()
        .specs()
        .iter()
        .map(|spec| spec.generate().expect("builtin traffic generates"))
        .collect();

    for (device, seed) in sweeps {
        let config = repro_spec(device, 8, seed).resolve().expect("valid spec");
        let name = config.spec.name.clone();
        let result = CampaignSession::new(config).run().expect("campaign");
        let table = LatencyTable::from_campaign(&result);
        println!(
            "\n=== {name}: table of {} pairs, typical {:.1} ms, {} pathological ===",
            table.len(),
            table.typical_ms().unwrap_or(f64::NAN),
            table.avoid_list(5.0).len()
        );

        let ladder = ZoneLadder::from_table(&table).expect("table has targets");
        let daemon =
            GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
        let mut t = TextTable::with_header(&[
            "traffic",
            "policy",
            "missed",
            "p99[ms]",
            "energy[J]",
            "saving[%]",
            "switches",
            "declined",
            "in-switch[ms]",
        ]);
        for trace in &traces {
            // POLICY_NAMES starts with run-at-max: the energy baseline.
            let mut baseline_j = None;
            for policy_name in POLICY_NAMES {
                let policy = make_policy(policy_name, &table).expect("known policy");
                let cell_seed = replay_seed(seed, policy_name, &trace.name);
                let mut replay = TransitionReplay::new(table.clone(), cell_seed);
                let card = daemon.run(policy.as_ref(), trace, &mut replay, cell_seed);
                let baseline_j = *baseline_j.get_or_insert(card.energy_j);
                t.row(&[
                    trace.name.clone(),
                    card.policy.clone(),
                    format!("{}/{}", card.missed_deadlines, card.with_deadline),
                    format!("{:.1}", card.p99_latency_ms),
                    format!("{:.0}", card.energy_j),
                    format!("{:.1}", 100.0 * (1.0 - card.energy_j / baseline_j)),
                    card.switches.to_string(),
                    card.suppressed.to_string(),
                    format!("{:.0}", card.time_in_switch_ms),
                ]);
            }
        }
        println!("{}", t.render(Format::Text));
    }

    println!("\nreading: on the Quadro (switches of ~100 ms) the aware governor matches");
    println!("run-at-max misses on gaming and deadline traffic while the oblivious one misses");
    println!("hundreds. It decides only at zone changes, so where switches rarely amortise");
    println!("(the A100 rows) a declined up-switch under load strands the device at a low");
    println!("clock and its tail latency runs to seconds.");
}
