//! The paper-artefact bundle: one call renders a campaign's complete
//! evaluation directory.
//!
//! A [`Bundle`] is an ordered set of named [`Artifact`]s. Writing it emits
//! every artifact in **all four** formats (`<name>.txt/.svg/.csv/.json`)
//! plus `EXPERIMENTS.md` (the experiment-record sections) and
//! `summary.json` (the machine-readable per-pair summary CI trends on).
//! [`Bundle::for_campaign`] composes the standard paper set for one
//! campaign result: min/mean/max heatmaps (Fig. 3 layout), the
//! direction-split violin pair (Fig. 4), the worst pair's measurement
//! scatter (Figs. 5/6 shape), per-pair boxplots (Fig. 9 shape), and the
//! per-pair summary table (Table II shape).
//!
//! Every emission is deterministic: rendering the same stored result twice
//! produces bitwise-identical files, so bundles can be committed, diffed
//! and compared across machines.

use std::fs;
use std::path::{Path, PathBuf};

use latest_core::view::{LatencyView, PairStat};
use latest_core::CampaignResult;

use crate::artifact::{Artifact, Format};
use crate::boxplot::BoxplotGroup;
use crate::experiments::ExperimentRecord;
use crate::heatmap::Heatmap;
use crate::scatter::Scatter;
use crate::table::campaign_summary_table;
use crate::violin::{DirectionSplit, ViolinPair};

/// An ordered set of named artifacts plus experiment records, renderable
/// as one output directory.
#[derive(Default)]
pub struct Bundle {
    entries: Vec<(String, Box<dyn Artifact>)>,
    experiments: Vec<ExperimentRecord>,
    extra_files: Vec<(String, String)>,
}

impl Bundle {
    /// An empty bundle.
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Append one named artifact (the name becomes the file stem).
    pub fn add(&mut self, name: impl Into<String>, artifact: impl Artifact + 'static) -> &mut Self {
        self.entries.push((name.into(), Box::new(artifact)));
        self
    }

    /// Append one experiment record (rendered into `EXPERIMENTS.md`).
    pub fn add_experiment(&mut self, record: ExperimentRecord) -> &mut Self {
        self.experiments.push(record);
        self
    }

    /// Append one verbatim extra file (e.g. a machine-readable summary).
    pub fn add_file(&mut self, name: impl Into<String>, content: impl Into<String>) -> &mut Self {
        self.extra_files.push((name.into(), content.into()));
        self
    }

    /// The artifact names, in emission order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Compose the standard paper-artefact set for one campaign result.
    pub fn for_campaign(result: &CampaignResult) -> Bundle {
        let mut bundle = Bundle::new();
        let device = result.device_name.clone();
        let completed = LatencyView::of(result).completed();
        let freqs = LatencyView::of(result).frequencies_mhz();
        let mem_clocks = completed.mem_clocks_mhz();

        // Fig. 3 layout: one heatmap per per-pair statistic. Core-only
        // campaigns keep the core×core grid; a 2-D sweep generalises to the
        // full state×state grid (core-only cells would all miss otherwise).
        let stats = [
            ("heatmap_min", PairStat::Min, "minimum (best-case)"),
            ("heatmap_mean", PairStat::Mean, "mean"),
            ("heatmap_max", PairStat::Max, "maximum (worst-case)"),
        ];
        let states = completed.states();
        for (name, stat, label) in stats {
            let hm = if mem_clocks.is_empty() {
                Heatmap::from_view(&completed, &freqs, stat)
            } else {
                Heatmap::from_view_states(&completed, &states, stat)
            }
            .with_title(format!("{device}: {label} switching latencies [ms]"));
            bundle.add(name, hm);
        }

        // One paper-layout core×core slice per memory clock of a 2-D
        // sweep: the core transitions measured with the memory domain
        // pinned at that clock.
        for &mem in &mem_clocks {
            for (stem, stat, label) in stats {
                let hm = Heatmap::from_view_mem_slice(&completed, &freqs, stat, mem).with_title(
                    format!("{device}: {label} switching latencies at mem {mem} MHz [ms]"),
                );
                bundle.add(format!("{stem}_m{mem}"), hm);
            }
        }

        // Fig. 4: direction-split violins (skipped when a direction has too
        // few samples to estimate a density).
        let split = DirectionSplit::from_view(&completed);
        if let Some(pair) = ViolinPair::from_split(
            format!("{device}: switching latencies by transition direction [ms]"),
            &split,
            120,
        ) {
            bundle.add("violin_directions", pair);
        }

        // Figs. 5/6 shape: the worst pair's per-measurement scatter, raw
        // sample with the filter's outliers marked as noise.
        if let Some((_, init, target)) = completed.stat_extreme(PairStat::Max, true) {
            if let Some(pair) = completed.pair(init, target) {
                if let (Some(raw), Some(analysis)) =
                    (pair.raw_ms(), pair.measurement().analysis.as_ref())
                {
                    let is_outlier = |x: f64| {
                        analysis
                            .outliers_ms
                            .iter()
                            .any(|&o| o.to_bits() == x.to_bits())
                    };
                    let clusters: Vec<Option<usize>> = raw
                        .iter()
                        .map(|&x| if is_outlier(x) { None } else { Some(0) })
                        .collect();
                    bundle.add(
                        "scatter_worst_pair",
                        Scatter::new(
                            format!(
                                "{device}: {init} -> {target} MHz per-measurement latencies [ms]"
                            ),
                            raw.to_vec(),
                            clusters,
                        ),
                    );
                }
            }
        }

        // Fig. 9 shape: one box per completed pair.
        let mut boxes = BoxplotGroup::new(format!("{device}: per-pair filtered latencies [ms]"));
        for pair in completed.pairs() {
            if let Some(xs) = pair.filtered_ms() {
                boxes.add(format!("{}->{}", pair.init(), pair.target()), xs);
            }
        }
        if !boxes.groups.is_empty() {
            bundle.add("boxplot_pairs", boxes);
        }

        // Table II shape: the per-pair summary table.
        bundle.add("summary_table", campaign_summary_table(result));

        // EXPERIMENTS.md record + the machine-readable summary.
        bundle.add_experiment(campaign_record(result));
        bundle.add_file("summary.json", summary_json(result));
        bundle
    }

    /// Render every output file as `(relative file name, content)` pairs,
    /// in deterministic order, without touching the filesystem.
    pub fn render_all(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, artifact) in &self.entries {
            for format in Format::ALL {
                out.push((
                    format!("{name}.{}", format.extension()),
                    artifact.render(format),
                ));
            }
        }
        if !self.experiments.is_empty() {
            let mut md = String::from("# Experiments\n\n");
            for record in &self.experiments {
                md.push_str(&record.render(Format::Text));
            }
            out.push(("EXPERIMENTS.md".to_string(), md));
        }
        for (name, content) in &self.extra_files {
            out.push((name.clone(), content.clone()));
        }
        out
    }

    /// Write the bundle into `dir` (created if needed), returning the
    /// written paths in emission order.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, content) in self.render_all() {
            let path = dir.join(name);
            fs::write(&path, content)?;
            written.push(path);
        }
        Ok(written)
    }
}

/// The experiment record a bundle embeds for an archived run: the run's
/// own headline statistics (no paper column — the archive compares runs to
/// each other, not to the paper).
fn campaign_record(result: &CampaignResult) -> ExperimentRecord {
    let completed = LatencyView::of(result).completed();
    let mut record = ExperimentRecord::new(
        "campaign",
        format!("{} switching-latency campaign", result.device_name),
        format!(
            "seed {}, {} scheduled pairs, {} completed",
            result.seed,
            result.pairs().len(),
            completed.count()
        ),
    );
    let fmt = |v: Option<(f64, latest_core::FreqState, latest_core::FreqState)>| match v {
        Some((ms, init, target)) => format!("{ms:.3} ({init}->{target})"),
        None => "-".to_string(),
    };
    record.compare(
        "best-case min [ms]",
        "-",
        fmt(completed.stat_extreme(PairStat::Min, false)),
        true,
        "fastest measured transition",
    );
    record.compare(
        "worst-case max [ms]",
        "-",
        fmt(completed.stat_extreme(PairStat::Max, true)),
        true,
        "slowest measured transition",
    );
    let mean = completed
        .stat_range(PairStat::Mean)
        .map_or("-".to_string(), |(_, mean, _)| format!("{mean:.3}"));
    record.compare(
        "mean of per-pair means [ms]",
        "-",
        mean,
        true,
        "averaged over completed pairs",
    );
    record
}

/// The machine-readable per-pair summary (`summary.json`): what the CI
/// bench trajectory ingests.
fn summary_json(result: &CampaignResult) -> String {
    use serde::Serialize as _;
    let completed = LatencyView::of(result).completed();
    let pairs: Vec<serde::Value> = completed
        .pairs()
        .filter_map(|p| {
            let n = p.filtered_ms()?.len();
            let mut entries = vec![
                ("init_mhz".to_string(), p.init_mhz().to_value()),
                ("target_mhz".to_string(), p.target_mhz().to_value()),
            ];
            // Memory-domain fields only when the pair carries them, so
            // single-domain summaries stay byte-identical.
            if let Some(mem) = p.init_mem_mhz() {
                entries.push(("init_mem_mhz".to_string(), mem.to_value()));
            }
            if let Some(mem) = p.target_mem_mhz() {
                entries.push(("target_mem_mhz".to_string(), mem.to_value()));
            }
            if p.init_mem_mhz().is_some() || p.target_mem_mhz().is_some() {
                entries.push(("kind".to_string(), p.kind().label().to_value()));
            }
            entries.extend([
                ("n".to_string(), n.to_value()),
                (
                    "min_ms".to_string(),
                    p.stat(PairStat::Min).expect("has data").to_value(),
                ),
                (
                    "mean_ms".to_string(),
                    p.stat(PairStat::Mean).expect("has data").to_value(),
                ),
                (
                    "max_ms".to_string(),
                    p.stat(PairStat::Max).expect("has data").to_value(),
                ),
            ]);
            Some(serde::Value::Map(entries))
        })
        .collect();
    crate::artifact::json_of(serde::Value::Map(vec![
        ("device_name".to_string(), result.device_name.to_value()),
        ("device_index".to_string(), result.device_index.to_value()),
        ("seed".to_string(), result.seed.to_value()),
        ("pairs_total".to_string(), result.pairs().len().to_value()),
        ("pairs".to_string(), serde::Value::Seq(pairs)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fixed_a100_run;
    use latest_core::CampaignSpec;

    fn small_result(seed: u64) -> CampaignResult {
        fixed_a100_run(
            8,
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1095, 1410])
                .measurements(6, 12)
                .simulated_sms(Some(2))
                .seed(seed),
        )
    }

    #[test]
    fn campaign_bundle_contains_the_standard_set() {
        let bundle = Bundle::for_campaign(&small_result(7));
        let names = bundle.names();
        for expected in [
            "heatmap_min",
            "heatmap_mean",
            "heatmap_max",
            "violin_directions",
            "scatter_worst_pair",
            "boxplot_pairs",
            "summary_table",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let files = bundle.render_all();
        // Every artifact in all four formats, plus EXPERIMENTS.md and
        // summary.json.
        assert_eq!(files.len(), names.len() * 4 + 2);
        assert!(files.iter().any(|(n, _)| n == "EXPERIMENTS.md"));
        assert!(files.iter().any(|(n, _)| n == "summary.json"));
        for (name, content) in &files {
            assert!(!content.is_empty(), "{name} rendered empty");
        }
    }

    fn mem_plane_result(seed: u64) -> CampaignResult {
        fixed_a100_run(
            8,
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1410])
                .mem_frequencies_mhz(&[810, 1215])
                .measurements(6, 12)
                .simulated_sms(Some(2))
                .seed(seed),
        )
    }

    #[test]
    fn two_domain_bundle_adds_per_mem_clock_slices() {
        let result = mem_plane_result(13);
        let bundle = Bundle::for_campaign(&result);
        let names = bundle.names();
        for expected in [
            "heatmap_min_m810",
            "heatmap_mean_m810",
            "heatmap_max_m810",
            "heatmap_min_m1215",
            "heatmap_mean_m1215",
            "heatmap_max_m1215",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        let files = bundle.render_all();
        assert_eq!(files.len(), names.len() * 4 + 2);

        // The top-level heatmaps generalise to state×state grids.
        let (_, txt) = files
            .iter()
            .find(|(n, _)| n == "heatmap_max.txt")
            .expect("state heatmap present");
        assert!(txt.contains("705+m810"), "missing 2-D label:\n{txt}");

        // summary.json carries the memory dimension and the pair kind.
        let (_, summary) = files.iter().find(|(n, _)| n == "summary.json").unwrap();
        assert!(summary.contains("\"init_mem_mhz\""), "{summary}");
        assert!(summary.contains("\"kind\""), "{summary}");
        assert!(summary.contains("\"memory\"") || summary.contains("\"simultaneous\""));

        // The per-pair table gains the mem column.
        let (_, table) = files
            .iter()
            .find(|(n, _)| n == "summary_table.txt")
            .unwrap();
        assert!(table.contains("mem[MHz]"), "{table}");
    }

    #[test]
    fn two_domain_bundle_is_bitwise_deterministic() {
        let a = Bundle::for_campaign(&mem_plane_result(17)).render_all();
        let b = Bundle::for_campaign(&mem_plane_result(17)).render_all();
        assert_eq!(a, b);
    }

    #[test]
    fn core_only_bundle_has_no_mem_artifacts() {
        // A single-domain campaign must keep the exact pre-memory artifact
        // set: no slice heatmaps, no mem column, no mem summary fields.
        let bundle = Bundle::for_campaign(&small_result(7));
        let is_slice = |n: &str| {
            n.rsplit_once("_m").is_some_and(|(_, suffix)| {
                !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit())
            })
        };
        assert!(
            bundle.names().iter().all(|n| !is_slice(n)),
            "{:?}",
            bundle.names()
        );
        let files = bundle.render_all();
        let (_, summary) = files.iter().find(|(n, _)| n == "summary.json").unwrap();
        assert!(!summary.contains("mem_mhz"));
        let (_, table) = files
            .iter()
            .find(|(n, _)| n == "summary_table.txt")
            .unwrap();
        assert!(!table.contains("mem[MHz]"));
    }

    #[test]
    fn bundle_render_is_bitwise_deterministic() {
        let result = small_result(11);
        let a = Bundle::for_campaign(&result).render_all();
        let b = Bundle::for_campaign(&result).render_all();
        assert_eq!(a.len(), b.len());
        for ((na, ca), (nb, cb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(ca, cb, "{na} differs between renders");
        }
    }

    #[test]
    fn bundle_writes_the_directory() {
        let dir = std::env::temp_dir().join(format!("latest_bundle_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let bundle = Bundle::for_campaign(&small_result(3));
        let written = bundle.write_to(&dir).unwrap();
        assert!(!written.is_empty());
        for path in &written {
            assert!(path.is_file(), "{} missing", path.display());
        }
        assert!(dir.join("EXPERIMENTS.md").is_file());
        assert!(dir.join("heatmap_max.svg").is_file());
        assert!(dir.join("summary_table.csv").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }
}
