//! Full-device heatmap sweep, reproducing the Fig. 3 workflow of the paper:
//! measure every ordered pair of a frequency subset, filter outliers, and
//! render minimum (best-case) and maximum (worst-case) switching-latency
//! heatmaps with initial frequency in rows and target frequency in columns.
//!
//! ```text
//! cargo run --release --example heatmap_sweep [gh200|a100|quadro] [n_freqs]
//! ```
//!
//! The paper's key structural observation — the **target** frequency
//! dominates the latency (visible column pattern), the initial frequency is
//! second-order — is quantified at the end by comparing the variance of
//! column means against the variance of row means.

use latest::core::view::{LatencyView, PairStat};
use latest::core::{CampaignSession, CampaignSpec};
use latest::report::Heatmap;

fn main() {
    let mut args = std::env::args().skip(1);
    let device = args.next().unwrap_or_else(|| "gh200".into());
    let n_freqs: usize = args
        .next()
        .map(|s| s.parse().expect("n_freqs"))
        .unwrap_or(10);

    let config = CampaignSpec::builder(device)
        .frequency_subset(n_freqs)
        .measurements(25, 60)
        .simulated_sms(Some(6))
        .seed(0xF163)
        .build_unchecked()
        .resolve()
        .unwrap_or_else(|errors| {
            eprintln!("{errors}");
            std::process::exit(2);
        });
    let freqs: Vec<u32> = config.frequencies.iter().map(|f| f.0).collect();
    let device_name = config.spec.name.clone();
    println!("sweeping {device_name} over a {n_freqs}-frequency ladder subset...");

    let result = CampaignSession::new(config).run().expect("sweep failed");

    let view = LatencyView::of(&result).completed();
    for (title, stat) in [
        ("minimum (best-case)", PairStat::Min),
        ("maximum (worst-case)", PairStat::Max),
    ] {
        let hm = Heatmap::from_view(&view, &freqs, stat)
            .with_title(format!("{device_name}: {title} switching latencies [ms]"));
        println!("\n{}", hm.ansi_text());

        // Quantify the paper's "row pattern": target frequency dominates.
        let spread = |means: Vec<Option<f64>>| {
            let vals: Vec<f64> = means.into_iter().flatten().collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        let col_spread = spread(hm.col_means()); // per-target variation
        let row_spread = spread(hm.row_means()); // per-initial variation
        println!(
            "structure: spread of per-target means {:.2} ms vs per-initial means {:.2} ms ({}x)",
            col_spread,
            row_spread,
            (col_spread / row_spread).round()
        );
    }
}
