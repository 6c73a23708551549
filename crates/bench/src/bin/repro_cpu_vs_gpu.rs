//! Regenerates the **Sec. VII CPU-vs-GPU comparison**: "several studies
//! presenting the transition latency of modern Intel and AMD CPUs show that
//! CPUs complete the frequency transitions in microseconds, or units of
//! milliseconds at most, while GPUs require significantly more time,
//! ranging from tens to hundreds of milliseconds."

use latest_core::{CampaignSession, CampaignSpec};
use latest_ftalat::cpu::{intel_skylake_sp, slow_governor_cpu, SimCpuCore};
use latest_ftalat::{ftalat_phase1, measure_transition};
use latest_gpu_sim::devices::DeviceRegistry;
use latest_gpu_sim::freq::FreqMhz;
use latest_report::{Artifact, Format, TextTable};
use latest_sim_clock::SharedClock;

const CPU_WORK: f64 = 3_000.0;

fn cpu_latency_ms(spec: latest_ftalat::CpuSpec, seed: u64) -> (String, f64) {
    let name = spec.name.to_string();
    let ladder_lo = spec.ladder.min();
    let ladder_hi = spec.ladder.max();
    let mut core = SimCpuCore::new(spec, seed, SharedClock::new());
    let stats = ftalat_phase1(&mut core, &[ladder_lo, ladder_hi], 400, CPU_WORK);
    let mut worst: f64 = 0.0;
    for (a, b) in [(ladder_hi, ladder_lo), (ladder_lo, ladder_hi)] {
        if let Some(m) = measure_transition(&mut core, a, b, &stats, CPU_WORK, 20) {
            worst = worst.max(m.latency_ns as f64 / 1e6);
        }
    }
    (name, worst)
}

fn gpu_latency_ms(device: &str, seed: u64) -> (String, f64, f64) {
    let ladder = DeviceRegistry::builtin()
        .get(device)
        .expect("built-in device")
        .ladder;
    let lo = ladder.min().0;
    let hi = ladder.max().0;
    let mid = ladder.snap(FreqMhz((lo + hi) / 2)).0;
    let config = CampaignSpec::builder(device)
        .frequencies_mhz(&[lo, mid, hi])
        .measurements(15, 30)
        .simulated_sms(Some(4))
        .seed(seed)
        .build_unchecked()
        .resolve()
        .expect("valid spec");
    let name = config.spec.name.clone();
    let result = CampaignSession::new(config).run().expect("gpu campaign");
    let mut best = f64::INFINITY;
    let mut worst: f64 = 0.0;
    for p in result.completed() {
        if let Some(a) = &p.analysis {
            best = best.min(a.filtered.min);
            worst = worst.max(a.filtered.max);
        }
    }
    (name, best, worst)
}

fn main() {
    println!("Sec. VII: CPU transition latency vs GPU switching latency\n");

    let cpus = [
        cpu_latency_ms(intel_skylake_sp(), 0xC91),
        cpu_latency_ms(slow_governor_cpu(), 0xC92),
    ];
    let gpus = [
        gpu_latency_ms("quadro", 0x691),
        gpu_latency_ms("a100", 0x692),
        gpu_latency_ms("gh200", 0x693),
    ];

    let mut t = TextTable::with_header(&["Device", "Class", "Latency range [ms]"]);
    for (name, worst) in &cpus {
        t.row(&[name.clone(), "CPU".to_string(), format!("<= {worst:.3}")]);
    }
    for (name, best, worst) in &gpus {
        t.row(&[
            name.clone(),
            "GPU".to_string(),
            format!("{best:.1} - {worst:.1}"),
        ]);
    }
    println!("{}", t.render(Format::Text));

    let cpu_worst = cpus.iter().map(|c| c.1).fold(0.0f64, f64::max);
    let gpu_best = gpus.iter().map(|g| g.1).fold(f64::INFINITY, f64::min);
    println!(
        "slowest CPU transition: {cpu_worst:.3} ms; fastest GPU switching: {gpu_best:.1} ms \
         -> gap {:.0}x",
        gpu_best / cpu_worst.max(1e-9)
    );
    println!(
        "shape check: CPUs in microseconds-to-milliseconds, GPUs in tens-to-hundreds \
         of milliseconds: {}",
        if cpu_worst < 3.0 && gpu_best > 3.0 {
            "holds"
        } else {
            "DOES NOT HOLD"
        }
    );
}
