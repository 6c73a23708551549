//! Shared support for the paper-artefact regeneration binaries.
//!
//! Every `repro_*` binary re-creates one table or figure of the paper. They
//! share the sweep driver here: a campaign spec scaled so a full heatmap
//! regenerates in seconds of wall-clock time. Virtual time is free; the
//! knobs traded down from the paper's tool are the measurement counts
//! (25–60 per pair instead of up to 150) and the number of simulated SM
//! record streams (6 instead of the default 8), see [`repro_spec`].

use latest_core::spec::CampaignSpec;
use latest_core::view::{LatencyView, PairStat};
use latest_core::{CampaignConfig, CampaignResult, FreqState};
use latest_gpu_sim::devices::{a100_sxm4_unit, DeviceEntry, DeviceRegistry};
use latest_gpu_sim::sm::WorkloadRegistry;
use latest_report::{Artifact, DirectionSplit, Format, Heatmap};

/// The standard repro-scale campaign on a registry device: `n_freqs`
/// evenly spaced ladder frequencies, 25–60 measurements per pair at 5 %
/// RSE, 6 simulated SM streams. Validated when resolved; for a built-in
/// device its `to_json()` is a ready-made `latest run` scenario file.
pub fn repro_spec(device: &str, n_freqs: usize, seed: u64) -> CampaignSpec {
    CampaignSpec::builder(device)
        .frequency_subset(n_freqs)
        .seed(seed)
        .measurements(25, 60)
        .simulated_sms(Some(6))
        .build_unchecked()
}

/// Registry name of the four Karolina A100 units (Sec. VII-C) that the
/// variability figures sweep: unit `i` is [`a100_sxm4_unit`]`(i)`. The
/// built-in `a100` entry differs at unit 0, which is the nominal
/// `a100_sxm4` (another device name, transition seed and timer).
pub const A100_UNIT: &str = "a100-unit";

/// Resolve `spec` through the built-in registries plus [`A100_UNIT`].
pub fn resolve_with_a100_units(spec: &CampaignSpec) -> CampaignConfig {
    let mut devices = DeviceRegistry::builtin();
    devices.register(
        DeviceEntry::new(A100_UNIT, "the four Karolina A100 units", a100_sxm4_unit).with_units(4),
    );
    spec.resolve_with(&devices, &WorkloadRegistry::builtin())
        .expect("A100 unit spec resolves")
}

/// Which per-pair statistic feeds a heatmap cell. Alias of the core query
/// layer's [`PairStat`], kept under the historical name the `repro_*`
/// binaries use.
pub type CellStat = PairStat;

/// A heatmap for the terminal: ANSI-coloured, or the plain
/// [`Format::Text`] rendering when `NO_COLOR` is set.
pub fn heatmap_text(hm: &Heatmap) -> String {
    if std::env::var("NO_COLOR").is_err() {
        hm.ansi_text()
    } else {
        hm.render(Format::Text)
    }
}

/// Build the paper-layout heatmap (initial frequency in rows, target in
/// columns) from a campaign.
pub fn campaign_heatmap(result: &CampaignResult, freqs_mhz: &[u32], stat: CellStat) -> Heatmap {
    Heatmap::from_view(&LatencyView::of(result).completed(), freqs_mhz, stat)
}

/// Pool a campaign's filtered latencies by transition direction (Fig. 4).
pub fn direction_split(result: &CampaignResult) -> DirectionSplit {
    DirectionSplit::from_view(&LatencyView::of(result).completed())
}

/// The frequency list of a repro config, as u32 MHz.
pub fn freqs_mhz(config: &CampaignConfig) -> Vec<u32> {
    config.frequencies.iter().map(|f| f.0).collect()
}

/// Worst-case / best-case summary rows for Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Device name.
    pub device: String,
    /// min / mean / max of the per-pair statistic, plus argmin/argmax pairs.
    pub min: (f64, FreqState, FreqState),
    /// Mean over pairs.
    pub mean: f64,
    /// Max over pairs with its pair.
    pub max: (f64, FreqState, FreqState),
}

/// Summarise one campaign into a Table II row for the given statistic.
pub fn table2_row(result: &CampaignResult, stat: CellStat) -> Option<Table2Row> {
    let view = LatencyView::of(result).completed();
    let min = view.stat_extreme(stat, false)?;
    let max = view.stat_extreme(stat, true)?;
    let (_, mean, _) = view.stat_range(stat)?;
    Some(Table2Row {
        device: result.device_name.clone(),
        min,
        mean,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::CampaignSession;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_sim_clock::SimDuration;
    use std::sync::Arc;

    fn tiny_sweep() -> (CampaignResult, Vec<u32>) {
        let mut device = devices::a100_sxm4();
        device.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        let mut registry = DeviceRegistry::empty();
        registry.register(DeviceEntry::new("fixed", "7 ms A100", move |_| {
            device.clone()
        }));
        let config = CampaignSpec::builder("fixed")
            .frequencies_mhz(&[705, 1410])
            .measurements(8, 12)
            .seed(2)
            .simulated_sms(Some(2))
            .build_unchecked()
            .resolve_with(&registry, &WorkloadRegistry::builtin())
            .unwrap();
        let freqs = freqs_mhz(&config);
        (CampaignSession::new(config).run().unwrap(), freqs)
    }

    #[test]
    fn heatmap_has_blank_diagonal_and_filled_cells() {
        let (result, freqs) = tiny_sweep();
        let hm = campaign_heatmap(&result, &freqs, CellStat::Max);
        assert_eq!(hm.get(0, 0), None);
        assert!(hm.get(0, 1).is_some());
        assert!(hm.get(1, 0).is_some());
        // Fixed 7 ms device: all cells near 7 ms.
        for (_, _, v) in hm.iter_cells() {
            assert!((6.8..10.0).contains(&v), "cell {v}");
        }
    }

    #[test]
    fn table2_row_min_le_mean_le_max() {
        let (result, _) = tiny_sweep();
        let row = table2_row(&result, CellStat::Max).unwrap();
        assert!(row.min.0 <= row.mean && row.mean <= row.max.0);
        assert!(row.device.contains("A100"));
    }

    #[test]
    fn a100_unit_entry_resolves_every_karolina_unit() {
        for unit in 0..4 {
            let config = resolve_with_a100_units(&CampaignSpec {
                device_index: unit,
                ..repro_spec(A100_UNIT, 4, 0)
            });
            assert_eq!(config.spec.name, devices::a100_sxm4_unit(unit).name);
        }
    }

    #[test]
    fn direction_split_covers_both_directions() {
        let (result, _) = tiny_sweep();
        let split = direction_split(&result);
        assert!(!split.increasing.is_empty());
        assert!(!split.decreasing.is_empty());
    }
}
