//! The validation layer: does the model deserve to be deployed?
//!
//! Two complementary checks. **Held-out validation** ([`cross_validate`])
//! answers "how well does the model predict pairs it never saw": pairs are
//! dealt into k folds deterministically, each fold's pairs are predicted by
//! a model fitted on the other folds, and the errors aggregate into
//! MAE/MAPE/RMSE plus interval coverage. **Closed-loop validation**
//! ([`closed_loop_validate`]) answers "how well does the model predict what
//! the silicon actually does": replay every grid pair on a fresh
//! [`SimPlatform`] and compare the prediction against the device's recorded
//! ground-truth transitions — the check the paper's methodology can never
//! run on real hardware.
//!
//! Both reports convert into `latest-report` artifacts (scatter, error
//! heatmap, table) for the `latest predict validate` CLI.

use latest_core::{GroundTruth, SimPlatform};
use latest_gpu_sim::devices::DeviceSpec;
use latest_gpu_sim::freq::{ClockDomain, FreqMhz};
use latest_report::{prediction_error_heatmap, Heatmap, PredictionRow, PredictionScatter};
use latest_sim_clock::SimDuration;
use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;
use crate::model::PredictModel;
use crate::{PredictError, PredictResult};

/// One held-out (or ground-truth) comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// The held-out measured mean (ms).
    pub measured_ms: f64,
    /// The model's prediction (ms).
    pub predicted_ms: f64,
    /// Lower confidence bound (ms).
    pub lo_ms: f64,
    /// Upper confidence bound (ms).
    pub hi_ms: f64,
    /// Cascade tier that answered (`measured` never appears: the pair was
    /// held out).
    pub source: String,
}

/// Aggregate held-out validation metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Device validated.
    pub device: String,
    /// Folds used.
    pub folds: u64,
    /// Per-pair comparisons, in (init, target) order.
    pub rows: Vec<ValidationRow>,
    /// Mean absolute error (ms).
    pub mae_ms: f64,
    /// Mean absolute percentage error (fraction, not percent).
    pub mape: f64,
    /// Root-mean-square error (ms).
    pub rmse_ms: f64,
    /// Fraction of held-out means inside the predicted interval.
    pub coverage: f64,
}

impl ValidationReport {
    /// Canonical JSON (two-space pretty form, trailing newline).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("report serialises");
        text.push('\n');
        text
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> PredictResult<ValidationReport> {
        serde_json::from_str(text).map_err(|e| PredictError::Json(e.to_string()))
    }

    /// The predicted-vs-measured scatter artifact.
    pub fn scatter(&self) -> PredictionScatter {
        PredictionScatter::new(
            format!("held-out predicted vs measured — {}", self.device),
            prediction_rows(&self.rows),
        )
    }

    /// The absolute-relative-error heatmap artifact.
    pub fn error_heatmap(&self) -> Heatmap {
        prediction_error_heatmap(
            &prediction_rows(&self.rows),
            &format!("held-out abs rel error [%] — {}", self.device),
        )
    }
}

fn prediction_rows(rows: &[ValidationRow]) -> Vec<PredictionRow> {
    rows.iter()
        .map(|r| PredictionRow {
            init_mhz: r.init_mhz,
            target_mhz: r.target_mhz,
            measured_ms: r.measured_ms,
            predicted_ms: r.predicted_ms,
            lo_ms: r.lo_ms,
            hi_ms: r.hi_ms,
            source: r.source.clone(),
        })
        .collect()
}

fn metrics(rows: &[ValidationRow]) -> (f64, f64, f64, f64) {
    let n = rows.len() as f64;
    if rows.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    }
    let mae = rows
        .iter()
        .map(|r| (r.predicted_ms - r.measured_ms).abs())
        .sum::<f64>()
        / n;
    let mape = rows
        .iter()
        .map(|r| ((r.predicted_ms - r.measured_ms) / r.measured_ms).abs())
        .sum::<f64>()
        / n;
    let rmse = (rows
        .iter()
        .map(|r| (r.predicted_ms - r.measured_ms).powi(2))
        .sum::<f64>()
        / n)
        .sqrt();
    let coverage = rows
        .iter()
        .filter(|r| (r.lo_ms..=r.hi_ms).contains(&r.measured_ms))
        .count() as f64
        / n;
    (mae, mape, rmse, coverage)
}

/// K-fold held-out validation. Pairs are assigned to folds by their index
/// in (init, target) order (`index % k`) — deterministic, no RNG — and each
/// fold is predicted by a model fitted on the remaining pairs. `k` is
/// clamped to the pair count; at least two measured pairs are required.
pub fn cross_validate(corpus: &Corpus, k: usize) -> PredictResult<ValidationReport> {
    if corpus.pairs.len() < 2 {
        return Err(PredictError::NotEnoughPairs {
            have: corpus.pairs.len(),
            need: 2,
        });
    }
    let k = k.clamp(2, corpus.pairs.len());

    let mut rows = Vec::new();
    for fold in 0..k {
        let training = Corpus {
            device: corpus.device.clone(),
            families: corpus.families.clone(),
            runs: corpus.runs,
            pairs: corpus
                .pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k != fold)
                .map(|(_, p)| p.clone())
                .collect(),
        };
        let model = PredictModel::fit(&training)?;
        for (_, held_out) in corpus
            .pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k == fold)
        {
            let p = model
                .predict(held_out.init_mhz, held_out.target_mhz)
                .expect("held-out pairs are never self-pairs");
            rows.push(ValidationRow {
                init_mhz: held_out.init_mhz,
                target_mhz: held_out.target_mhz,
                measured_ms: held_out.mean_ms(),
                predicted_ms: p.value_ms,
                lo_ms: p.lo_ms,
                hi_ms: p.hi_ms,
                source: p.source.as_str().to_string(),
            });
        }
    }
    rows.sort_by_key(|r| (r.init_mhz, r.target_mhz));

    let (mae_ms, mape, rmse_ms, coverage) = metrics(&rows);
    Ok(ValidationReport {
        device: corpus.device.clone(),
        folds: k as u64,
        rows,
        mae_ms,
        mape,
        rmse_ms,
        coverage,
    })
}

/// One ground-truth comparison from the closed loop.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopRow {
    /// Initial frequency (MHz).
    pub init_mhz: u32,
    /// Target frequency (MHz).
    pub target_mhz: u32,
    /// Mean ground-truth switching latency over the replayed transitions
    /// (ms).
    pub truth_ms: f64,
    /// The model's prediction (ms).
    pub predicted_ms: f64,
    /// Prediction interval (ms).
    pub lo_ms: f64,
    /// Prediction interval (ms).
    pub hi_ms: f64,
}

/// Aggregate closed-loop validation metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopReport {
    /// Device replayed.
    pub device: String,
    /// Ground-truth transitions replayed per pair.
    pub reps: u64,
    /// Per-pair comparisons, in (init, target) order.
    pub rows: Vec<ClosedLoopRow>,
    /// Mean absolute error against ground truth (ms).
    pub mae_ms: f64,
    /// Mean absolute percentage error against ground truth.
    pub mape: f64,
}

impl ClosedLoopReport {
    /// Canonical JSON (two-space pretty form, trailing newline).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("report serialises");
        text.push('\n');
        text
    }

    /// The ground-truth-vs-predicted scatter artifact.
    pub fn scatter(&self) -> PredictionScatter {
        PredictionScatter::new(
            format!("closed-loop predicted vs ground truth — {}", self.device),
            self.rows
                .iter()
                .map(|r| PredictionRow {
                    init_mhz: r.init_mhz,
                    target_mhz: r.target_mhz,
                    measured_ms: r.truth_ms,
                    predicted_ms: r.predicted_ms,
                    lo_ms: r.lo_ms,
                    hi_ms: r.hi_ms,
                    source: "ground-truth".to_string(),
                })
                .collect(),
        )
    }
}

/// Closed-loop validation: replay every grid pair on a fresh simulated
/// platform and compare predictions against the device's recorded
/// ground-truth transitions. Each pair is replayed `reps` times under
/// deterministic per-(pair, rep) seeds derived from `seed`.
pub fn closed_loop_validate(
    model: &PredictModel,
    spec: &DeviceSpec,
    reps: u32,
    seed: u64,
) -> PredictResult<ClosedLoopReport> {
    let reps = reps.max(1);
    let mut rows = Vec::new();
    for cell in model.cells() {
        let (init, target) = (cell.init_mhz, cell.target_mhz);
        let mut truths = Vec::new();
        for rep in 0..reps {
            // Pair/rep-addressed seed: stable under reordering.
            let pair_seed = seed ^ ((init as u64) << 40) ^ ((target as u64) << 16) ^ rep as u64;
            let mut platform = SimPlatform::new(spec.clone(), pair_seed)
                .map_err(|e| PredictError::Platform(e.to_string()))?;
            // First lock lands the device at `init`, second is the measured
            // transition; ground truth records both, we take the last.
            platform
                .nvml
                .set_gpu_locked_clocks(FreqMhz(init))
                .map_err(|e| PredictError::Platform(e.to_string()))?;
            // Let the first transition settle so the second starts cleanly
            // from `init`.
            platform.cuda.usleep(SimDuration::from_micros(200_000));
            platform
                .nvml
                .set_gpu_locked_clocks(FreqMhz(target))
                .map_err(|e| PredictError::Platform(e.to_string()))?;
            let gt = platform
                .last_transition(ClockDomain::Core)
                .expect("transition just requested");
            truths.push(gt.switching_latency().as_millis_f64());
        }
        let truth_ms = truths.iter().sum::<f64>() / truths.len() as f64;
        let p = model
            .predict(init, target)
            .expect("grid cells are never self-pairs");
        rows.push(ClosedLoopRow {
            init_mhz: init,
            target_mhz: target,
            truth_ms,
            predicted_ms: p.value_ms,
            lo_ms: p.lo_ms,
            hi_ms: p.hi_ms,
        });
    }
    if rows.is_empty() {
        return Err(PredictError::EmptyCorpus {
            device: Some(model.device.clone()),
        });
    }
    let n = rows.len() as f64;
    let mae_ms = rows
        .iter()
        .map(|r| (r.predicted_ms - r.truth_ms).abs())
        .sum::<f64>()
        / n;
    let mape = rows
        .iter()
        .map(|r| ((r.predicted_ms - r.truth_ms) / r.truth_ms).abs())
        .sum::<f64>()
        / n;
    Ok(ClosedLoopReport {
        device: model.device.clone(),
        reps: reps as u64,
        rows,
        mae_ms,
        mape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusPair;

    fn corpus(freqs: &[u32]) -> Corpus {
        let mut pairs = Vec::new();
        for &i in freqs {
            for &t in freqs {
                if i == t {
                    continue;
                }
                let base = (i as f64 - t as f64).abs() / 200.0 + 1.5;
                pairs.push(CorpusPair {
                    init_mhz: i,
                    target_mhz: t,
                    samples_ms: vec![base * 0.97, base * 0.99, base, base * 1.01, base * 1.03],
                    runs: 1,
                    outliers_rejected: 0,
                });
            }
        }
        Corpus {
            device: "synthetic".to_string(),
            families: vec![],
            runs: 1,
            pairs,
        }
    }

    #[test]
    fn held_out_error_is_bounded_on_a_lawful_corpus() {
        // The corpus follows an affine law in |Δf| — exactly what the
        // regression can express, so held-out error must be small.
        let report = cross_validate(&corpus(&[500, 750, 1000, 1250]), 4).unwrap();
        assert_eq!(report.rows.len(), 12);
        assert_eq!(report.folds, 4);
        // No held-out prediction may claim to be a measurement.
        assert!(report.rows.iter().all(|r| r.source != "measured"));
        assert!(
            report.mape < 0.25,
            "held-out MAPE {:.3} out of bounds",
            report.mape
        );
        assert!(report.mae_ms.is_finite() && report.rmse_ms >= report.mae_ms);
    }

    #[test]
    fn cross_validation_is_deterministic() {
        let c = corpus(&[500, 750, 1000]);
        let a = cross_validate(&c, 3).unwrap();
        let b = cross_validate(&c, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn too_few_pairs_is_an_error() {
        let mut c = corpus(&[500, 750]);
        c.pairs.truncate(1);
        assert!(matches!(
            cross_validate(&c, 5),
            Err(PredictError::NotEnoughPairs { have: 1, need: 2 })
        ));
    }

    #[test]
    fn report_artifacts_render() {
        use latest_report::{Artifact, Format};
        let report = cross_validate(&corpus(&[500, 750, 1000]), 3).unwrap();
        let scatter = report.scatter();
        for format in Format::ALL {
            assert!(!scatter.render(format).is_empty());
        }
        let hm = report.error_heatmap();
        assert_eq!(hm.n_rows(), 3);
        let round = ValidationReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, round);
    }

    #[test]
    fn closed_loop_tracks_ground_truth_on_the_real_device_model() {
        use latest_gpu_sim::devices;
        // Train on actual simulator behaviour: run a reduced campaign and
        // fit on its archive, then replay ground truth on the same device.
        let spec = latest_core::CampaignSpec::builder("a100")
            .frequencies_mhz(&[540, 1095])
            .measurements(6, 10)
            .rse_threshold(0.5)
            .seed(17)
            .build()
            .unwrap();
        let dir =
            std::env::temp_dir().join(format!("latest_predict_closed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = latest_core::ResultStore::open(&dir).unwrap();
        let result = spec.clone().into_session().unwrap().run().unwrap();
        store.put(&spec, &result).unwrap();
        let corpus = crate::corpus_for_device(&store, "a100", None).unwrap();
        let model = PredictModel::fit(&corpus).unwrap();

        let device = devices::DeviceRegistry::builtin().get("a100").unwrap();
        let report = closed_loop_validate(&model, &device, 3, 99).unwrap();
        assert_eq!(report.rows.len(), corpus.pairs.len());
        assert!(report.rows.iter().all(|r| r.truth_ms > 0.0));
        // The model was trained on measurements of this same silicon; the
        // closed loop must agree to within a loose factor.
        assert!(
            report.mape < 0.5,
            "closed-loop MAPE {:.3} out of bounds",
            report.mape
        );

        let again = closed_loop_validate(&model, &device, 3, 99).unwrap();
        assert_eq!(report, again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
