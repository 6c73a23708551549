//! The corpus layer: turn an archive of runs into per-device training data.
//!
//! Every archived run contributes its outlier-filtered per-pair samples
//! (through the same [`LatencyView`]/`PairView` projections every other
//! consumer uses). Runs are grouped by the *device* their spec names and by
//! experiment family ([`RunId::family_of`] — same spec up to the seed), so
//! re-runs of one experiment pool naturally. After pooling, each pair's
//! combined sample passes once more through the adaptive DBSCAN outlier
//! filter: a run measured under a disturbance regime can contribute
//! stragglers that are inliers within that run but outliers across the
//! corpus.
//!
//! Pairs are keyed by core clock alone, so only core-only pairs train: a
//! pair whose initial or target state pins a memory clock is skipped, and
//! a run with no core-only pair (a memory-plane sweep) contributes nothing
//! — merging its samples would fold e.g. 705/810 → 705/1215 MHz into a
//! 705 → 705 self-pair.
//!
//! Assembly is deterministic: runs are visited in run-id order, pairs are
//! kept in `(init, target)` order, and samples are sorted ascending.

use std::collections::{BTreeMap, BTreeSet};

use latest_cluster::{adaptive_outlier_filter, AdaptiveConfig};
use latest_core::{LatencyView, PairMeasurement, ResultStore, RunId};

use crate::{PredictError, PredictResult};

/// Pooled training sample for one ordered frequency pair.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusPair {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// Pooled, cross-run-filtered latencies (ms), sorted ascending.
    pub samples_ms: Vec<f64>,
    /// Number of archived runs contributing samples to this pair.
    pub runs: u64,
    /// Samples dropped by the cross-run outlier pass.
    pub outliers_rejected: u64,
}

impl CorpusPair {
    /// Mean of the pooled sample (NaN when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return f64::NAN;
        }
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
    }
}

/// Training data for one device, assembled from the archive.
#[derive(Clone, Debug, PartialEq)]
pub struct Corpus {
    /// Registry device name the runs were specified against (kept as the
    /// spec-level name, not the resolved marketing name, so low-confidence
    /// pairs can be resubmitted as campaign specs).
    pub device: String,
    /// Experiment families contributing runs, sorted.
    pub families: Vec<String>,
    /// Archived runs contributing.
    pub runs: u64,
    /// Per-pair pooled samples, sorted by `(init, target)`.
    pub pairs: Vec<CorpusPair>,
}

impl Corpus {
    /// Distinct frequencies appearing in any pair, ascending.
    pub fn frequencies_mhz(&self) -> Vec<u32> {
        let mut freqs: BTreeSet<u32> = BTreeSet::new();
        for p in &self.pairs {
            freqs.insert(p.init_mhz);
            freqs.insert(p.target_mhz);
        }
        freqs.into_iter().collect()
    }

    /// The pooled sample for one ordered pair.
    pub fn pair(&self, init_mhz: u32, target_mhz: u32) -> Option<&CorpusPair> {
        self.pairs
            .iter()
            .find(|p| p.init_mhz == init_mhz && p.target_mhz == target_mhz)
    }

    /// Total pooled samples across all pairs.
    pub fn total_samples(&self) -> u64 {
        self.pairs.iter().map(|p| p.samples_ms.len() as u64).sum()
    }
}

/// Does a family id match a CLI-style prefix? Accepts the prefix with or
/// without the `run-` sigil, so `latest list-runs --family 3fa9` and
/// `--family run-3fa9` mean the same thing.
pub fn family_matches(family: &RunId, prefix: &str) -> bool {
    let id = family.as_str();
    id.starts_with(prefix) || id.trim_start_matches("run-").starts_with(prefix)
}

/// Assemble one corpus per device from every archived run, optionally
/// restricted to families matching `family_prefix`. Devices come back in
/// name order; devices with no usable pairs are omitted. Pairs with a
/// memory clock are skipped (see the [module docs](self)).
pub fn build_corpora(
    store: &ResultStore,
    family_prefix: Option<&str>,
) -> PredictResult<Vec<Corpus>> {
    let mut runs = store.list()?;
    runs.sort_by(|a, b| a.run_id.cmp(&b.run_id));

    // device -> (families, run count, pair -> (samples, contributing runs))
    type PairAcc = BTreeMap<(u32, u32), (Vec<f64>, u64)>;
    let mut by_device: BTreeMap<String, (BTreeSet<String>, u64, PairAcc)> = BTreeMap::new();

    let core_only = |p: &PairMeasurement| !p.init.has_mem() && !p.target.has_mem();
    for run in &runs {
        let family = RunId::family_of(&run.spec);
        if let Some(prefix) = family_prefix {
            if !family_matches(&family, prefix) {
                continue;
            }
        }
        if !run.result.pairs().iter().any(core_only) {
            continue;
        }
        let entry = by_device.entry(run.spec.device.clone()).or_default();
        entry.0.insert(family.as_str().to_string());
        entry.1 += 1;
        let view = LatencyView::of(&run.result).completed();
        for pair in view.pairs().filter(|p| core_only(p.measurement())) {
            if let Some(filtered) = pair.filtered_ms() {
                if filtered.is_empty() {
                    continue;
                }
                let acc = entry
                    .2
                    .entry((pair.init_mhz(), pair.target_mhz()))
                    .or_default();
                acc.0.extend_from_slice(filtered);
                acc.1 += 1;
            }
        }
    }

    let mut corpora = Vec::new();
    for (device, (families, run_count, pair_acc)) in by_device {
        let mut pairs = Vec::new();
        for ((init, target), (pooled, contributing)) in pair_acc {
            let (mut samples, rejected) =
                match adaptive_outlier_filter(&pooled, &AdaptiveConfig::default()) {
                    // Cross-run pass: keep the filter's inliers.
                    Some(outcome) => {
                        let inliers = outcome.inliers(&pooled);
                        let rejected = (pooled.len() - inliers.len()) as u64;
                        (inliers, rejected)
                    }
                    // Too small / degenerate for DBSCAN: keep everything,
                    // matching the per-pair filter's own behaviour.
                    None => (pooled, 0),
                };
            if samples.is_empty() {
                continue;
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in latency sample"));
            pairs.push(CorpusPair {
                init_mhz: init,
                target_mhz: target,
                samples_ms: samples,
                runs: contributing,
                outliers_rejected: rejected,
            });
        }
        if pairs.is_empty() {
            continue;
        }
        corpora.push(Corpus {
            device,
            families: families.into_iter().collect(),
            runs: run_count,
            pairs,
        });
    }
    Ok(corpora)
}

/// The corpus for one device (by registry name), with an optional family
/// prefix filter. Errors when the archive holds nothing matching.
pub fn corpus_for_device(
    store: &ResultStore,
    device: &str,
    family_prefix: Option<&str>,
) -> PredictResult<Corpus> {
    build_corpora(store, family_prefix)?
        .into_iter()
        .find(|c| c.device == device)
        .ok_or_else(|| PredictError::EmptyCorpus {
            device: Some(device.to_string()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::spec::CampaignSpec;

    fn tiny_spec(seed: u64) -> CampaignSpec {
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[540, 1095])
            .seed(seed)
            .measurements(4, 6)
            .rse_threshold(0.5)
            .build()
            .unwrap()
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "latest_predict_corpus_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.clone(), ResultStore::open(dir).unwrap())
    }

    #[test]
    fn pools_across_seeds_within_one_family() {
        let (dir, store) = temp_store("pool");
        for seed in [11, 12] {
            let spec = tiny_spec(seed);
            let result = spec.clone().into_session().unwrap().run().unwrap();
            store.put(&spec, &result).unwrap();
        }

        let corpora = build_corpora(&store, None).unwrap();
        assert_eq!(corpora.len(), 1);
        let corpus = &corpora[0];
        assert_eq!(corpus.device, "a100");
        assert_eq!(corpus.runs, 2);
        // Seeds differ, family doesn't.
        assert_eq!(corpus.families.len(), 1);
        // 2 frequencies => 2 ordered pairs, each fed by both runs.
        assert_eq!(corpus.pairs.len(), 2);
        for pair in &corpus.pairs {
            assert_eq!(pair.runs, 2, "{}->{}", pair.init_mhz, pair.target_mhz);
            assert!(pair.samples_ms.len() >= 8);
            assert!(pair.samples_ms.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(corpus.frequencies_mhz(), vec![540, 1095]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_filter_excludes_other_experiments() {
        let (dir, store) = temp_store("family");
        let spec_a = tiny_spec(1);
        let result_a = spec_a.clone().into_session().unwrap().run().unwrap();
        store.put(&spec_a, &result_a).unwrap();

        let mut spec_b = tiny_spec(1);
        spec_b.description = "another family".to_string();
        let result_b = spec_b.clone().into_session().unwrap().run().unwrap();
        store.put(&spec_b, &result_b).unwrap();

        let family_a = RunId::family_of(&spec_a);
        assert_ne!(family_a, RunId::family_of(&spec_b));

        let all = build_corpora(&store, None).unwrap();
        assert_eq!(all[0].runs, 2);

        // A full-id prefix and a bare-hex prefix both select just family A.
        for prefix in [
            family_a.as_str().to_string(),
            family_a.as_str().trim_start_matches("run-")[..8].to_string(),
        ] {
            let filtered = build_corpora(&store, Some(&prefix)).unwrap();
            assert_eq!(filtered.len(), 1, "prefix {prefix}");
            assert_eq!(filtered[0].runs, 1);
            assert_eq!(filtered[0].families, vec![family_a.as_str().to_string()]);
        }

        assert!(matches!(
            corpus_for_device(&store, "quadro", None),
            Err(PredictError::EmptyCorpus { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
