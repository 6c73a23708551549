//! Manufacturing-variability study across four simulated A100-SXM4 units,
//! reproducing the Sec. VII-C workflow (Figs. 7–9): benchmark the same
//! frequency subset on four units of the same SKU and report the per-pair
//! spread of best- and worst-case switching latencies.
//!
//! ```text
//! cargo run --release --example multi_gpu_variability
//! ```
//!
//! Each unit is the device registry's `a100` at a different `device_index`
//! — the same architecture model with a per-unit manufacturing perturbation
//! of the transition engine, as the four front-row GPUs of a Karolina node
//! would show. The whole experiment is a declarative [`FleetSpec`]: four
//! member [`CampaignSpec`]s, each an independent device slot with its own
//! seed, resolved through the registries into a `Fleet` whose `run`
//! measures the units one after another on this thread, each unit's pairs
//! in canonical order (`fleet_spec.to_json()` is the equivalent
//! `latest run` scenario file).

use latest::core::spec::{CampaignSpec, FleetSpec};
use latest::gpu_sim::devices;
use latest::gpu_sim::freq::FreqMhz;
use latest::report::{cross_device_table, Artifact, BoxStats, CrossDeviceRow, Format, Heatmap};

const UNITS: usize = 4;
const N_FREQS: usize = 8;

fn main() {
    println!("benchmarking {UNITS} A100-SXM4 units over {N_FREQS} frequencies each...");

    let mut fleet_spec =
        FleetSpec::new().description("four A100-SXM4 units of one Karolina node (Sec. VII-C)");
    for unit in 0..UNITS {
        fleet_spec = fleet_spec.member(
            CampaignSpec::builder("a100")
                .frequency_subset(N_FREQS)
                .measurements(25, 50)
                .simulated_sms(Some(4))
                .device_index(unit)
                .seed(0xA100 + unit as u64)
                .build()
                .expect("valid member spec"),
        );
    }
    let fleet_result = fleet_spec
        .into_fleet()
        .expect("specs resolve")
        .run()
        .expect("fleet campaign");
    let results = fleet_result.devices();

    // The fleet's own aggregation: one summary row per unit.
    let rows: Vec<CrossDeviceRow> = fleet_result
        .summary_rows()
        .into_iter()
        .map(Into::into)
        .collect();
    println!("\n{}", cross_device_table(&rows).render(Format::Text));
    let freqs: Vec<u32> = devices::a100_sxm4()
        .ladder
        .subset(N_FREQS)
        .iter()
        .map(|f| f.0)
        .collect();

    // Figs. 7/8: range (max unit − min unit) of the per-pair best-case and
    // worst-case latencies across the four units.
    for (title, pick_min) in [("minimum (Fig. 7)", true), ("maximum (Fig. 8)", false)] {
        let hm = Heatmap::build(&freqs, &freqs, |init, target| {
            if init == target {
                return None;
            }
            let per_unit: Vec<f64> = results
                .iter()
                .filter_map(|r| {
                    r.pair(FreqMhz(init), FreqMhz(target))
                        .and_then(|p| p.analysis.as_ref())
                        .filter(|a| !a.inliers_ms.is_empty())
                        .map(|a| {
                            if pick_min {
                                a.filtered.min
                            } else {
                                a.filtered.max
                            }
                        })
                })
                .collect();
            if per_unit.len() < 2 {
                return None;
            }
            let lo = per_unit.iter().cloned().fold(f64::MAX, f64::min);
            let hi = per_unit.iter().cloned().fold(f64::MIN, f64::max);
            Some(hi - lo)
        })
        .with_title(format!(
            "Range of {title} switching latencies across {UNITS} units [ms]"
        ));
        println!("\n{}", hm.ansi_text());
    }

    // Fig. 9: per-unit boxplots for the pairs with the widest spread.
    let mut spreads: Vec<(u32, u32, f64)> = Vec::new();
    for &init in &freqs {
        for &target in &freqs {
            if init == target {
                continue;
            }
            let maxes: Vec<f64> = results
                .iter()
                .filter_map(|r| {
                    r.pair(FreqMhz(init), FreqMhz(target))
                        .and_then(|p| p.analysis.as_ref())
                        .map(|a| a.filtered.max)
                })
                .collect();
            if maxes.len() == UNITS {
                let lo = maxes.iter().cloned().fold(f64::MAX, f64::min);
                let hi = maxes.iter().cloned().fold(f64::MIN, f64::max);
                spreads.push((init, target, hi - lo));
            }
        }
    }
    spreads.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());

    println!("\nper-unit latency boxplots for the 3 widest-spread pairs (Fig. 9):");
    for &(init, target, spread) in spreads.iter().take(3) {
        println!("\n  {init} -> {target} MHz (unit spread {spread:.2} ms):");
        for (unit, r) in results.iter().enumerate() {
            let pair = r
                .pair(FreqMhz(init), FreqMhz(target))
                .expect("pair present");
            if let Some(a) = &pair.analysis {
                if let Some(bs) = BoxStats::of(&a.inliers_ms) {
                    println!("    {}", bs.render_line(&format!("unit {unit}")));
                }
            }
        }
    }

    // Paper conclusion: no single unit is consistently the slowest.
    let mut slowest_counts = [0usize; UNITS];
    for &init in &freqs {
        for &target in &freqs {
            if init == target {
                continue;
            }
            let per_unit: Vec<(usize, f64)> = results
                .iter()
                .enumerate()
                .filter_map(|(u, r)| {
                    r.pair(FreqMhz(init), FreqMhz(target))
                        .and_then(|p| p.analysis.as_ref())
                        .map(|a| (u, a.filtered.max))
                })
                .collect();
            if let Some(&(u, _)) = per_unit
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            {
                slowest_counts[u] += 1;
            }
        }
    }
    println!("\nhow often each unit was the slowest for a pair: {slowest_counts:?}");
    println!("(the paper finds no unit consistently worse than the others)");
}
