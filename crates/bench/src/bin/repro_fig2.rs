//! Regenerates **Fig. 2** — CPU-to-accelerator communication while issuing
//! a frequency-change request: the host-side call blocks and returns, the
//! request travels the bus, the device applies it asynchronously, and the
//! clock settles only after the transition latency. The gap between "call
//! returned" and "device settled" is exactly why switching latency must be
//! measured from device-side timestamps.

use latest_core::{GroundTruth, SimPlatform};
use latest_gpu_sim::devices;
use latest_gpu_sim::freq::{ClockDomain, FreqMhz};

fn main() {
    let mut platform = SimPlatform::new(devices::a100_sxm4(), 42).expect("platform");
    // Settle at an initial frequency first.
    platform.nvml.set_gpu_locked_clocks(FreqMhz(1095)).unwrap();
    platform
        .cuda
        .usleep(latest_sim_clock::SimDuration::from_millis(100));
    platform.nvml.take_trace();

    // The traced request.
    platform.nvml.set_gpu_locked_clocks(FreqMhz(705)).unwrap();
    let trace = platform.nvml.take_trace().pop().expect("traced call");
    let gt = platform
        .last_transition(ClockDomain::Core)
        .expect("ground truth");

    let t0 = trace.call;
    let rel_us = |t: latest_sim_clock::SimTime| t.signed_delta_ns(t0) as f64 / 1e3;

    println!("FIG. 2: CPU -> ACC frequency-change request path (A100 facade, simulated)\n");
    println!("transition {} -> {} MHz\n", gt.from, gt.to);
    println!("{:>12}   side     event", "t [us]");
    println!("{}", "-".repeat(64));
    println!(
        "{:>12.1}   CPU      nvmlDeviceSetGpuLockedClocks() entered",
        0.0
    );
    println!(
        "{:>12.1}   CPU      call returned (host unblocked)",
        rel_us(trace.ret)
    );
    println!(
        "{:>12.1}   bus      request arrived at the device",
        rel_us(trace.device_arrival.unwrap())
    );
    println!(
        "{:>12.1}   ACC      clock left the initial frequency",
        rel_us(gt.ramp_start)
    );
    println!(
        "{:>12.1}   ACC      clock settled at the target  <-- switching latency ends here",
        rel_us(gt.settled)
    );
    println!(
        "\nswitching latency (request -> settled): {:.3} ms",
        gt.switching_latency().as_millis_f64()
    );
    println!(
        "transition latency (device-internal):   {:.3} ms",
        gt.transition_latency().as_millis_f64()
    );
    println!(
        "\nShape check: the call returns in ~0.1 ms while the device settles only\n\
         milliseconds later — the asynchronous gap of Fig. 2 that distinguishes\n\
         switching latency from CPU-style transition latency."
    );
}
