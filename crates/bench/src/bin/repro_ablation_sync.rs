//! **Ablation 4 (phase 2)** — IEEE 1588 synchronisation quality versus the
//! number of exchange rounds. The switching-latency origin `t_s` is a host
//! timestamp mapped onto the device timeline; its error adds directly to
//! every measured latency, so the sync budget matters.

use latest_clock_sync::SyncConfig;
use latest_core::{Platform, SimPlatform};
use latest_gpu_sim::devices;
use latest_report::{Artifact, Format, TextTable};

fn main() {
    println!("ABLATION: PTP sync error vs number of exchange rounds\n");
    let mut t = TextTable::with_header(&[
        "rounds",
        "mean |err| [us]",
        "max |err| [us]",
        "mean bound [us]",
        "bound held",
    ]);

    for &rounds in &[1usize, 4, 16, 64, 256] {
        let mut errs = Vec::new();
        let mut bounds = Vec::new();
        let mut held = 0usize;
        const REPS: usize = 25;
        for rep in 0..REPS {
            let spec = devices::a100_sxm4();
            let truth = spec.timer_offset_ns;
            let mut platform = SimPlatform::new(spec, 1000 + rep as u64).unwrap();
            let cfg = SyncConfig {
                rounds,
                keep_best: 4.min(rounds),
                ..Default::default()
            };
            let r = platform.synchronize_timers(&cfg);
            let err = (r.offset_ns - truth).unsigned_abs();
            errs.push(err as f64 / 1e3);
            bounds.push(r.uncertainty_ns as f64 / 1e3);
            if err <= r.uncertainty_ns + 1_000 {
                held += 1;
            }
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().cloned().fold(f64::MIN, f64::max);
        let mean_bound = bounds.iter().sum::<f64>() / bounds.len() as f64;
        t.row(&[
            rounds.to_string(),
            format!("{mean:.2}"),
            format!("{max:.2}"),
            format!("{mean_bound:.2}"),
            format!("{held}/{REPS}"),
        ]);
    }
    println!("{}", t.render(Format::Text));
    println!(
        "Shape check: error and bound shrink with rounds (min-filtering) and\n\
         flatten near the device-timer quantisation (1 us) — more rounds past\n\
         ~64 buy little, which is why the tool syncs once per measurement pass."
    );
}
