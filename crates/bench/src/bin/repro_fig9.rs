//! Regenerates **Fig. 9** — boxplots of switching latencies on the four
//! A100 units for the three frequency pairs with the highest cross-unit
//! spread (paper: 1065→840, 1065→975, 1350→885 MHz), asking the paper's
//! question: *is any single unit consistently slower than the others?*
//! (Paper's answer: no.)

use bench_support::{resolve_with_a100_units, A100_UNIT};
use latest_core::{CampaignSession, CampaignSpec};
use latest_report::BoxStats;

const PAIRS: [(u32, u32); 3] = [(1065, 840), (1065, 975), (1350, 885)];

fn main() {
    println!("FIG. 9: per-unit switching-latency boxplots, A100 x4 [ms]\n");

    // medians[pair][unit]
    let mut medians = vec![vec![0.0f64; 4]; PAIRS.len()];
    #[allow(clippy::needless_range_loop)]
    // `unit` is a device index, not just a position in `medians`
    for unit in 0..4usize {
        println!("--- device index {unit} ---");
        // One campaign covering all three pairs' frequencies.
        let freqs: Vec<u32> = {
            let mut f: Vec<u32> = PAIRS.iter().flat_map(|&(a, b)| [a, b]).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        let config = resolve_with_a100_units(
            &CampaignSpec::builder(A100_UNIT)
                .frequencies_mhz(&freqs)
                .measurements(40, 60)
                .simulated_sms(Some(4))
                .device_index(unit)
                .seed(0xF169 + unit as u64)
                .build_unchecked(),
        );
        let result = CampaignSession::new(config).run().expect("unit campaign");
        for (pi, &(init, target)) in PAIRS.iter().enumerate() {
            let data = result
                .pairs()
                .iter()
                .find(|p| p.init_mhz() == init && p.target_mhz() == target)
                .and_then(|p| p.analysis.as_ref())
                .map(|a| a.inliers_ms.clone())
                .unwrap_or_default();
            if let Some(b) = BoxStats::of(&data) {
                medians[pi][unit] = b.median;
                println!("{}", b.render_line(&format!("{init}->{target} MHz")));
            }
        }
        println!();
    }

    // The paper's conclusion: no unit is consistently the slowest.
    println!("Shape check — per-pair slowest unit:");
    let mut slowest: Vec<usize> = Vec::new();
    for (pi, &(init, target)) in PAIRS.iter().enumerate() {
        let (u, m) = medians[pi]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        println!("  {init}->{target} MHz: unit {u} (median {m:.2} ms)");
        slowest.push(u);
    }
    let consistent = slowest.windows(2).all(|w| w[0] == w[1]);
    println!(
        "  single unit consistently worst: {} (paper: no single instance \
         consistently exhibits worse behaviour)",
        if consistent {
            "YES (differs from paper)"
        } else {
            "no (matches paper)"
        }
    );
}
