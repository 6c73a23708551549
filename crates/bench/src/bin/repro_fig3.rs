//! Regenerates **Fig. 3** — heatmaps of minimum/maximum switching latencies:
//!
//! * 3a: GH200 minimum latencies (18×18 subset),
//! * 3b: GH200 maximum latencies,
//! * 3c: A100 maximum latencies (18×18),
//! * 3d: RTX Quadro 6000 maximum latencies (14×14),
//!
//! plus the paper's structural observation that *the target frequency has a
//! much higher impact than the initial frequency* (row/column pattern).

use bench_support::{
    campaign_heatmap, direction_split, freqs_mhz, heatmap_text, repro_spec, CellStat,
};
use latest_core::CampaignSession;

fn column_dominance(hm: &latest_report::Heatmap) -> (f64, f64) {
    let spread = |means: Vec<Option<f64>>| {
        let vals: Vec<f64> = means.into_iter().flatten().collect();
        if vals.is_empty() {
            return 0.0;
        }
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };
    (spread(hm.col_means()), spread(hm.row_means()))
}

fn main() {
    // --- GH200: min and max (Fig. 3a, 3b) ---
    let config = repro_spec("gh200", 18, 0xF163A)
        .resolve()
        .expect("valid spec");
    let freqs = freqs_mhz(&config);
    let gh = CampaignSession::new(config).run().expect("GH200 sweep");
    let gh_min = campaign_heatmap(&gh, &freqs, CellStat::Min)
        .with_title("FIG. 3a: GH200 minimum switching latencies [ms]");
    let gh_max = campaign_heatmap(&gh, &freqs, CellStat::Max)
        .with_title("FIG. 3b: GH200 maximum switching latencies [ms]");
    println!("{}", heatmap_text(&gh_min));
    println!("{}", heatmap_text(&gh_max));

    // --- A100 max (Fig. 3c) ---
    let config = repro_spec("a100", 18, 0xF163C)
        .resolve()
        .expect("valid spec");
    let freqs = freqs_mhz(&config);
    let a100 = CampaignSession::new(config).run().expect("A100 sweep");
    let a100_max = campaign_heatmap(&a100, &freqs, CellStat::Max)
        .with_title("FIG. 3c: A100 maximum switching latencies [ms]");
    println!("{}", heatmap_text(&a100_max));

    // --- RTX Quadro 6000 max (Fig. 3d) ---
    let config = repro_spec("quadro", 14, 0xF163D)
        .resolve()
        .expect("valid spec");
    let freqs = freqs_mhz(&config);
    let quadro = CampaignSession::new(config).run().expect("Quadro sweep");
    let quadro_max = campaign_heatmap(&quadro, &freqs, CellStat::Max)
        .with_title("FIG. 3d: RTX Quadro 6000 maximum switching latencies [ms]");
    println!("{}", heatmap_text(&quadro_max));

    // --- Shape checks ---
    println!("Shape checks vs the paper:");
    let (gmin, _, vmin) = gh_min.min_cell().unwrap();
    let _ = gmin;
    println!("  GH200 minimum-heatmap floor: {vmin:.2} ms (paper: ~5.2-6.7 ms baseline)");
    let (_, _, vmax) = gh_max.max_cell().unwrap();
    println!("  GH200 maximum-heatmap peak:  {vmax:.1} ms (paper: 477.3 ms)");
    let (_, _, amax) = a100_max.max_cell().unwrap();
    println!("  A100 maximum-heatmap peak:   {amax:.1} ms (paper: 22.7 ms, all < 25 ms)");
    let (_, _, qmax) = quadro_max.max_cell().unwrap();
    println!("  Quadro maximum-heatmap peak: {qmax:.1} ms (paper: 350.4 ms)");

    for (name, hm) in [
        ("GH200 (max)", &gh_max),
        ("A100 (max)", &a100_max),
        ("Quadro (max)", &quadro_max),
    ] {
        let (col, row) = column_dominance(hm);
        println!(
            "  {name}: target-frequency (column) spread {col:.1} ms vs initial (row) spread {row:.1} ms{}",
            if col > row { "  -> target dominates (matches paper)" } else { "" }
        );
    }

    let split = direction_split(&a100);
    let inc: f64 = split.increasing.iter().sum::<f64>() / split.increasing.len().max(1) as f64;
    let dec: f64 = split.decreasing.iter().sum::<f64>() / split.decreasing.len().max(1) as f64;
    println!(
        "  A100 directional asymmetry: increasing mean {inc:.1} ms vs decreasing mean {dec:.1} ms\
         \n    (paper: decreasing substantially lower)"
    );
}
