//! Quickstart: measure the SM frequency-switching latency of a simulated
//! NVIDIA A100-SXM4 between three frequencies, print per-pair summaries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the one-screen version of what the LATEST tool does:
//!
//! 1. **Phase 1** characterises the microbenchmark iteration time under each
//!    frequency and validates every ordered pair with a confidence-interval
//!    test on the difference of means (Algorithm 1 in the paper).
//! 2. **Phase 2** runs the kernel at the initial frequency, synchronises the
//!    host and device timers (IEEE 1588), sleeps through the delay period and
//!    issues the frequency change, stamping `t_s`.
//! 3. **Phase 3** finds, per SM, the first iteration inside the 2σ band of
//!    the target frequency, confirms the remaining iterations match the
//!    target mean, and takes `max(t_e − t_s)` over SMs.
//! 4. The repetition controller re-runs phases 2–3 until the relative
//!    standard error of the collected latencies drops below 5 %, then the
//!    adaptive DBSCAN filter (Algorithm 3) removes outliers.
//!
//! The campaign runs through the streaming `CampaignSession` API: pairs are
//! scheduled individually and every start/finish is observable as a typed
//! event while the campaign is still running. Without observers,
//! `CampaignSession::new(config).run()` is the whole blocking call.

use latest::core::{CampaignEvent, CampaignSession, CampaignSpec};

fn main() {
    // A simulated A100-SXM4: 108 SMs, the 210–1410 MHz ladder of Table I,
    // and a transition model calibrated to the paper's measured shape.
    let config = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1095, 1410]) // min-ish / nominal / max
        .measurements(25, 60) // stop on 5 % RSE within [25, 60]
        .seed(42)
        .build()
        .expect("valid spec")
        .resolve()
        .expect("built-in device and workload");
    let device = &config.spec;
    println!(
        "device: {} ({} SMs, {} ladder steps)",
        device.name,
        device.sm_count,
        device.ladder.len()
    );

    // Watch the campaign happen: phase-1 validation, the probe bound, then
    // one started/finished event per frequency pair.
    let session = CampaignSession::new(config).observe(|e: &CampaignEvent| println!(".. {e}"));
    let result = session.run().expect("campaign failed");

    println!(
        "phase 1: {} frequencies characterised, {} of {} ordered pairs valid\n",
        result.phase1.freqs.len(),
        result.phase1.valid_pairs.len(),
        result.pairs().len(),
    );

    println!(
        "{:>6} {:>6}  {:>5}  {:>9} {:>9} {:>9}  {:>8}",
        "init", "target", "n", "min[ms]", "mean[ms]", "max[ms]", "outliers"
    );
    for pair in result.completed() {
        let analysis = pair
            .analysis
            .as_ref()
            .expect("completed pairs are analysed");
        let s = analysis.filtered;
        println!(
            "{:>6} {:>6}  {:>5}  {:>9.3} {:>9.3} {:>9.3}  {:>8}",
            pair.init_mhz(),
            pair.target_mhz(),
            analysis.inliers_ms.len(),
            s.min,
            s.mean,
            s.max,
            analysis.outliers_ms.len(),
        );
    }

    // The paper's headline observation (Sec. VII): the A100 completes its
    // transitions in a narrow band well below 25 ms worst case.
    let worst = result
        .completed()
        .filter_map(|p| p.analysis.as_ref().map(|a| a.filtered.max))
        .fold(f64::MIN, f64::max);
    println!("\nworst-case switching latency over all pairs: {worst:.3} ms");
}
