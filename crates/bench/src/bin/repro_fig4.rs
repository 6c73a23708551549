//! Regenerates **Fig. 4** — switching-latency distributions per GPU, split
//! by direction: frequency increasing (left violin) vs decreasing (right
//! violin). Reproduced as KDE summaries with mode counts.
//!
//! Paper shape targets: RTX Quadro 6000 shows the highest variability with
//! multiple density regions; A100 is tightly clumped with a clear
//! increase/decrease asymmetry; GH200 records the highest extremes but most
//! mass below 100 ms.

use bench_support::{direction_split, repro_spec};
use latest_core::CampaignSession;
use latest_report::ViolinSummary;

fn main() {
    let sweeps = [
        ("quadro", 14usize, 0xF164Au64),
        ("a100", 18, 0xF164B),
        ("gh200", 18, 0xF164C),
    ];

    println!("FIG. 4: switching-latency distributions, increasing vs decreasing\n");
    for (device, n, seed) in sweeps {
        let config = repro_spec(device, n, seed).resolve().expect("valid spec");
        let name = config.spec.name.clone();
        let result = CampaignSession::new(config).run().expect("sweep");
        let split = direction_split(&result);

        println!("=== {name} ===");
        for (dir, data) in [
            ("increasing", &split.increasing),
            ("decreasing", &split.decreasing),
        ] {
            match ViolinSummary::build(
                format!("{dir} (init<target: {})", dir == "increasing"),
                data,
                160,
            ) {
                Some(v) => {
                    println!(
                        "  {dir:<10}: n={:>5}  median={:>8.2} ms  IQR=[{:>7.2}, {:>7.2}]  \
                         p99={:>8.2}  max={:>8.2}  modes={}",
                        v.summary.n,
                        v.median,
                        v.q1,
                        v.q3,
                        latest_stats::quantile(data, 0.99),
                        v.summary.max,
                        v.mode_count(0.25),
                    );
                    println!("{}", v.ascii_bars(60));
                }
                None => println!("  {dir:<10}: insufficient data"),
            }
        }

        // Per-device shape notes.
        let inc_med = latest_stats::median(&split.increasing);
        let dec_med = latest_stats::median(&split.decreasing);
        if name.contains("A100") {
            println!(
                "  shape: A100 decreasing median {dec_med:.1} ms vs increasing {inc_med:.1} ms \
                 (paper: decreasing substantially lower)\n"
            );
        } else if name.contains("GH200") {
            let below100 = split
                .increasing
                .iter()
                .chain(&split.decreasing)
                .filter(|&&x| x < 100.0)
                .count() as f64
                / (split.increasing.len() + split.decreasing.len()) as f64;
            println!(
                "  shape: GH200 fraction below 100 ms: {:.0} % (paper: most of the worst \
                 cases below 100 ms)\n",
                below100 * 100.0
            );
        } else {
            println!("  shape: Quadro distributions multi-modal in both directions\n");
        }
    }
}
