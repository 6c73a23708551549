//! Regenerates **Table I** — used hardware experimental setup: SM counts,
//! driver versions, memory frequency, and SM frequency range/steps for the
//! three simulated GPUs.

use latest_gpu_sim::devices;
use latest_report::{Artifact, Format, TextTable};

fn main() {
    let specs = devices::paper_devices();
    let mut t = TextTable::with_header(&[
        "Model",
        "Architecture",
        "SM [#]",
        "Driver version",
        "Mem freq. [MHz]",
        "Max SM freq [MHz]",
        "Nom SM freq [MHz]",
        "Min SM freq [MHz]",
        "SM freq steps [#]",
    ]);
    for s in &specs {
        t.row(&[
            s.name.clone(),
            s.architecture.to_string(),
            s.sm_count.to_string(),
            s.driver_version.to_string(),
            s.mem_freq_mhz.to_string(),
            s.ladder.max().to_string(),
            s.nominal_mhz.to_string(),
            s.ladder.min().to_string(),
            s.ladder.len().to_string(),
        ]);
    }
    println!("TABLE I: Used hardware experimental setup (simulated devices)\n");
    println!("{}", t.render(Format::Text));
    println!(
        "Paper reference: RTX Quadro 6000 (72 SM, 300-2100 MHz, 120 steps), \
         A100 SXM-4 (108 SM, 210-1410 MHz, 81 steps), GH200 (132 SM, 345-1980 MHz, 110 steps)."
    );
}
