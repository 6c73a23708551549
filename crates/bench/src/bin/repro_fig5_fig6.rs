//! Regenerates **Fig. 5 and Fig. 6** — scatter plots of repeated
//! switching-latency measurements for two GH200 pairs:
//!
//! * Fig. 5: 1770 → 1260 MHz — multiple distinct latency clusters,
//! * Fig. 6: 1305 → 1845 MHz — one large cluster with scattered outliers.
//!
//! Both are validated with the silhouette score (paper: always > 0.4 when
//! 2+ clusters, average 0.84 over all GPUs).

use latest_cluster::{adaptive_outlier_filter, silhouette_score_1d, AdaptiveConfig};
use latest_core::{CampaignSession, CampaignSpec};
use latest_report::Scatter;

fn measure_pair(init: u32, target: u32, seed: u64) -> Vec<f64> {
    let config = CampaignSpec::builder("gh200")
        .frequencies_mhz(&[init, target])
        .measurements(220, 260)
        .rse_threshold(1e-9) // force a fixed-size dataset like the paper's
        .simulated_sms(Some(4))
        .seed(seed)
        .build_unchecked()
        .resolve()
        .expect("valid spec");
    let result = CampaignSession::new(config).run().expect("pair campaign");
    result
        .pairs()
        .iter()
        .find(|p| p.init_mhz() == init && p.target_mhz() == target)
        .and_then(|p| p.latencies_ms().map(<[f64]>::to_vec))
        .expect("pair measured")
}

fn show(title: &str, data: &[f64]) {
    let outcome = adaptive_outlier_filter(data, &AdaptiveConfig::default());
    let scatter = match &outcome {
        Some(o) => Scatter::from_labeling(title, data.to_vec(), &o.labeling),
        None => Scatter::new(title, data.to_vec(), Vec::new()),
    };
    println!("{}", scatter.ascii_plot(24, 72));
    if let Some(o) = &outcome {
        let sil = silhouette_score_1d(data, &o.labeling);
        println!(
            "  clusters: {}   outliers: {} / {}   silhouette: {}",
            o.labeling.n_clusters,
            o.labeling.noise_count(),
            data.len(),
            sil.map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "n/a (single cluster)".into()),
        );
        if let Some(s) = sil {
            println!(
                "  shape: silhouette {} 0.4 (paper: always above 0.4 for multi-cluster pairs)",
                if s > 0.4 { ">" } else { "<= !!" }
            );
        }
    }
    println!();
}

fn main() {
    println!("FIG. 5 / FIG. 6: per-pair switching-latency scatter (GH200)\n");

    // Fig. 5: into the slow 1260 MHz band -> multi-cluster.
    let fig5 = measure_pair(1770, 1260, 0xF165);
    show("FIG. 5: 1770 -> 1260 MHz (expect multiple clusters)", &fig5);

    // Fig. 6: a baseline pair -> one cluster + stray outliers.
    let fig6 = measure_pair(1305, 1845, 0xF166);
    show(
        "FIG. 6: 1305 -> 1845 MHz (expect one dominant cluster)",
        &fig6,
    );
}
