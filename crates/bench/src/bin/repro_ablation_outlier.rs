//! **Ablation 3 (Sec. V-C)** — outlier filtering strategies on
//! switching-latency datasets: the paper's adaptive DBSCAN (Algorithm 3)
//! versus a fixed-parameter DBSCAN and classic 3σ trimming.
//!
//! Datasets are synthesised with *known* outlier labels: a main latency
//! cluster (possibly multi-modal, as on GH200) plus a few percent of
//! driver-stall outliers. A good filter removes the stalls without eating
//! legitimate secondary clusters; 3σ trimming fails exactly there.

use latest_cluster::{adaptive_outlier_filter, AdaptiveConfig, Dbscan};
use latest_report::{Artifact, Format, TextTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// (data, is_outlier ground truth)
fn synth(multi_modal: bool, n: usize, outlier_frac: f64, seed: u64) -> (Vec<f64>, Vec<bool>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen::<f64>() < outlier_frac {
            // Driver stall: far tail.
            data.push(400.0 + rng.gen::<f64>() * 300.0);
            truth.push(true);
        } else if multi_modal && rng.gen::<f64>() < 0.3 {
            // Legitimate secondary latency cluster (GH200-style).
            data.push(120.0 + rng.gen::<f64>() * 4.0);
            truth.push(false);
        } else {
            data.push(15.0 + rng.gen::<f64>() * 2.0);
            truth.push(false);
        }
    }
    (data, truth)
}

/// (false positives = good data flagged, false negatives = stalls kept)
fn score(flagged: &[bool], truth: &[bool]) -> (usize, usize) {
    let fp = flagged
        .iter()
        .zip(truth)
        .filter(|(f, t)| **f && !**t)
        .count();
    let fnn = flagged
        .iter()
        .zip(truth)
        .filter(|(f, t)| !**f && **t)
        .count();
    (fp, fnn)
}

fn three_sigma_flags(data: &[f64]) -> Vec<bool> {
    let s = latest_stats::Summary::of(data);
    data.iter()
        .map(|&x| (x - s.mean).abs() > 3.0 * s.stdev)
        .collect()
}

fn main() {
    println!("ABLATION: outlier filtering (adaptive DBSCAN vs fixed DBSCAN vs 3-sigma)\n");
    let mut t = TextTable::with_header(&["dataset", "filter", "false pos", "false neg"]);

    for (name, multi) in [
        ("unimodal (A100-like)", false),
        ("bimodal (GH200-like)", true),
    ] {
        let (data, truth) = synth(multi, 300, 0.03, 0x071);
        // Adaptive DBSCAN (Alg. 3).
        if let Some(out) = adaptive_outlier_filter(&data, &AdaptiveConfig::default()) {
            let flags: Vec<bool> = out.labeling.labels.iter().map(|l| l.is_noise()).collect();
            let (fp, fnn) = score(&flags, &truth);
            t.row(&[
                name.into(),
                "adaptive DBSCAN (Alg. 3)".into(),
                fp.to_string(),
                fnn.to_string(),
            ]);
        }
        // Fixed DBSCAN with a deliberately generic parameterisation.
        let fixed = Dbscan::new(1.0, 12).fit_1d(&data);
        let flags: Vec<bool> = fixed.labels.iter().map(|l| l.is_noise()).collect();
        let (fp, fnn) = score(&flags, &truth);
        t.row(&[
            name.into(),
            "fixed DBSCAN (eps=1, minPts=12)".into(),
            fp.to_string(),
            fnn.to_string(),
        ]);
        // 3-sigma trimming.
        let (fp, fnn) = score(&three_sigma_flags(&data), &truth);
        t.row(&[
            name.into(),
            "3-sigma trim".into(),
            fp.to_string(),
            fnn.to_string(),
        ]);
    }
    println!("{}", t.render(Format::Text));
    println!(
        "Shape check: adaptive DBSCAN keeps both legitimate clusters while\n\
         flagging stalls; 3-sigma trimming either keeps stalls (inflated sigma)\n\
         or eats the secondary cluster; fixed DBSCAN depends on luck of the\n\
         parameterisation — the reason Algorithm 3 adapts them per dataset."
    );
}
