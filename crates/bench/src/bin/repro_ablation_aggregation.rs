//! **Ablation 2 (phase 3)** — aggregate the per-core latencies with
//! `max` (the paper: "the switching latency ... is then evaluated as the
//! maximum of the t_e − t_s values obtained from all ACC cores") versus
//! `mean`/`min`. The max is the only aggregate that upper-bounds the
//! device-wide settling time, which is what a DVFS runtime must budget for.

use latest_core::phase1::run_phase1;
use latest_core::phase2::run_phase2;
use latest_core::phase3::evaluate_pass;
use latest_core::{CampaignSpec, GroundTruth, SimPlatform};
use latest_gpu_sim::freq::{ClockDomain, FreqMhz};
use latest_report::{Artifact, Format, TextTable};

fn main() {
    let config = CampaignSpec::builder("gh200")
        .frequencies_mhz(&[705, 1500])
        .simulated_sms(Some(8))
        .seed(0xAB2)
        .build_unchecked()
        .resolve()
        .expect("valid spec");
    let mut platform = SimPlatform::new(config.spec.clone(), config.seed).unwrap();
    let p1 = run_phase1(&mut platform, &config).unwrap();
    let init = FreqMhz(705);
    let target = FreqMhz(1500);
    let init_stats = p1.of(init).unwrap().iter_ns;
    let target_stats = p1.of(target).unwrap().iter_ns;

    const PASSES: usize = 30;
    let mut under_max = 0usize; // passes where aggregate < ground truth
    let mut under_mean = 0usize;
    let mut under_min = 0usize;
    let mut rows: Vec<[f64; 4]> = Vec::new();
    for _ in 0..PASSES {
        let cap =
            run_phase2(&mut platform, &config, init, target, &init_stats, 25.0).expect("phase 2");
        let truth = platform
            .last_transition(ClockDomain::Core)
            .unwrap()
            .switching_latency()
            .as_millis_f64();
        let eval = evaluate_pass(&cap, &target_stats, &config);
        let per_core: Vec<f64> = eval
            .cores
            .iter()
            .filter_map(|c| c.outcome.ok())
            .map(|ns| ns as f64 / 1e6)
            .collect();
        if per_core.is_empty() {
            continue;
        }
        let max = per_core.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_core.iter().cloned().fold(f64::MAX, f64::min);
        let mean = per_core.iter().sum::<f64>() / per_core.len() as f64;
        if max < truth {
            under_max += 1;
        }
        if mean < truth {
            under_mean += 1;
        }
        if min < truth {
            under_min += 1;
        }
        rows.push([truth, max, mean, min]);
    }

    println!("ABLATION: per-core aggregation (max vs mean vs min over cores)\n");
    let mut t =
        TextTable::with_header(&["pass", "truth [ms]", "max [ms]", "mean [ms]", "min [ms]"]);
    for (i, r) in rows.iter().take(8).enumerate() {
        t.row(&[
            i.to_string(),
            format!("{:.3}", r[0]),
            format!("{:.3}", r[1]),
            format!("{:.3}", r[2]),
            format!("{:.3}", r[3]),
        ]);
    }
    println!("{}", t.render(Format::Text));
    let n = rows.len();
    println!("passes where the aggregate UNDER-estimates the ground truth (of {n}):");
    println!("  max  over cores: {under_max}");
    println!("  mean over cores: {under_mean}");
    println!("  min  over cores: {under_min}");
    println!(
        "\nShape check: max-over-cores under-estimates least (it waits for the\n\
         whole device) — the conservative choice the paper makes."
    );
}
