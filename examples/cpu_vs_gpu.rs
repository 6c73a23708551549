//! The Sec. VII scale comparison: CPU cores complete DVFS transitions in
//! microseconds to low milliseconds, GPUs need tens to hundreds of
//! milliseconds. Runs the FTaLaT methodology (Sec. IV) on two simulated CPU
//! models and the LATEST methodology (Sec. V) on the three simulated GPUs,
//! then prints the measured scale gap.
//!
//! ```text
//! cargo run --release --example cpu_vs_gpu
//! ```

use latest::core::{CampaignSession, CampaignSpec};
use latest::ftalat::{
    ftalat_phase1, intel_skylake_sp, measure_transition, slow_governor_cpu, SimCpuCore,
};
use latest::gpu_sim::freq::FreqMhz;
use latest::sim_clock::SharedClock;

/// FTaLaT-style tiny iteration (~1-2.5 us) so the detection granularity
/// stays far below the measured latency.
const CPU_WORK_CYCLES: f64 = 3_000.0;

fn cpu_latency_ms(spec_name: &str, spec: latest::ftalat::CpuSpec, seed: u64) -> f64 {
    let freqs: Vec<FreqMhz> = vec![spec.ladder.min(), spec.ladder.max()];
    let mut core = SimCpuCore::new(spec, seed, SharedClock::new());
    let stats = ftalat_phase1(&mut core, &freqs, 400, CPU_WORK_CYCLES);

    let mut worst_ns: u64 = 0;
    for (init, target) in [(freqs[0], freqs[1]), (freqs[1], freqs[0])] {
        let m = measure_transition(&mut core, init, target, &stats, CPU_WORK_CYCLES, 30)
            .unwrap_or_else(|| panic!("{spec_name}: {init:?}->{target:?} unmeasurable"));
        worst_ns = worst_ns.max(m.latency_ns);
    }
    worst_ns as f64 / 1e6
}

fn gpu_worst_mean_ms(device: &str, seed: u64) -> (String, f64, f64) {
    let config = CampaignSpec::builder(device)
        .frequency_subset(6)
        .measurements(25, 50)
        .simulated_sms(Some(4))
        .seed(seed)
        .build_unchecked()
        .resolve()
        .expect("valid spec");
    let name = config.spec.name.clone();
    let result = CampaignSession::new(config).run().expect("gpu campaign");
    let maxima: Vec<f64> = result
        .completed()
        .filter_map(|p| p.analysis.as_ref())
        .filter(|a| !a.inliers_ms.is_empty())
        .map(|a| a.filtered.max)
        .collect();
    let mean = maxima.iter().sum::<f64>() / maxima.len() as f64;
    let max = maxima.iter().cloned().fold(f64::MIN, f64::max);
    (name, mean, max)
}

fn main() {
    println!("measuring CPU transition latencies with FTaLaT (Sec. IV)...");
    let skylake_ms = cpu_latency_ms("skylake", intel_skylake_sp(), 11);
    let governor_ms = cpu_latency_ms("slow-governor", slow_governor_cpu(), 12);

    println!("measuring GPU switching latencies with LATEST (Sec. V)...\n");
    let gpus = [
        gpu_worst_mean_ms("quadro", 21),
        gpu_worst_mean_ms("a100", 22),
        gpu_worst_mean_ms("gh200", 23),
    ];

    println!(
        "{:<28} {:>16} {:>16}",
        "platform", "worst mean [ms]", "worst max [ms]"
    );
    println!(
        "{:<28} {:>16.3} {:>16}",
        "Intel Skylake SP (CPU)", skylake_ms, "-"
    );
    println!(
        "{:<28} {:>16.3} {:>16}",
        "slow-governor CPU", governor_ms, "-"
    );
    for (name, mean, max) in &gpus {
        println!("{:<28} {:>16.3} {:>16.3}", name, mean, max);
    }

    let fastest_gpu = gpus.iter().map(|g| g.1).fold(f64::MAX, f64::min);
    let slowest_cpu = skylake_ms.max(governor_ms);
    println!(
        "\neven the fastest GPU adjusts its clocks {:.0}x slower than the slowest CPU model",
        fastest_gpu / slowest_cpu
    );
    println!(
        "(the paper: CPUs finish in microseconds or units of ms, GPUs need tens to hundreds of ms)"
    );
}
