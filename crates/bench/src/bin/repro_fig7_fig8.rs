//! Regenerates **Fig. 7 and Fig. 8** — manufacturing variability across
//! four A100-SXM4 units (the Karolina front-row GPUs):
//!
//! * Fig. 7: per-pair range (max − min across units) of the **best-case**
//!   (minimum) switching latencies — paper shows mostly < 0.5 ms,
//! * Fig. 8: per-pair range of the **worst-case** (maximum) latencies —
//!   paper shows up to ~12 ms on isolated pairs.

use bench_support::{
    campaign_heatmap, freqs_mhz, heatmap_text, repro_spec, resolve_with_a100_units, CellStat,
    A100_UNIT,
};
use latest_core::{CampaignSession, CampaignSpec};
use latest_report::Heatmap;

fn main() {
    let n_freqs = 12usize;

    // Sweep each unit (all units share the same ladder, hence the same
    // frequency subset and comparable heatmap cells).
    let mut mins: Vec<Heatmap> = Vec::new();
    let mut maxs: Vec<Heatmap> = Vec::new();
    for unit in 0..4 {
        let config = resolve_with_a100_units(&CampaignSpec {
            device_index: unit,
            ..repro_spec(A100_UNIT, n_freqs, 0xF1678 + unit as u64)
        });
        let freqs = freqs_mhz(&config);
        let result = CampaignSession::new(config).run().expect("unit sweep");
        mins.push(campaign_heatmap(&result, &freqs, CellStat::Min));
        maxs.push(campaign_heatmap(&result, &freqs, CellStat::Max));
    }

    // Range across units, cell-wise.
    let range_of = |maps: &[Heatmap]| -> Heatmap {
        let mut lo = maps[0].clone();
        let mut hi = maps[0].clone();
        for m in &maps[1..] {
            lo = lo.combine(m, f64::min);
            hi = hi.combine(m, f64::max);
        }
        hi.combine(&lo, |a, b| a - b)
    };
    let fig7 = range_of(&mins)
        .with_title("FIG. 7: ranges of minimum switching latencies across four A100 units [ms]");
    let fig8 = range_of(&maxs)
        .with_title("FIG. 8: ranges of maximum switching latencies across four A100 units [ms]");
    println!("{}", heatmap_text(&fig7));
    println!("{}", heatmap_text(&fig8));

    let f7_mean = fig7.mean().unwrap();
    let f8_mean = fig8.mean().unwrap();
    let (_, _, f7_max) = fig7.max_cell().unwrap();
    let (_, _, f8_max) = fig8.max_cell().unwrap();
    println!("Shape checks vs the paper:");
    println!(
        "  best-case ranges  (Fig. 7): mean {f7_mean:.2} ms, max {f7_max:.2} ms (paper: mostly < 0.5 ms)"
    );
    println!(
        "  worst-case ranges (Fig. 8): mean {f8_mean:.2} ms, max {f8_max:.2} ms (paper: up to ~12.7 ms)"
    );
    println!(
        "  worst-case spread exceeds best-case spread: {}",
        if f8_mean > f7_mean {
            "yes (matches paper)"
        } else {
            "NO"
        }
    );
}
