//! `archive_pipeline`: the work after measurement, over an archive built
//! in set-up from seeded samples (each pair's samples pass through
//! `analyze_pair` and `CampaignResult::new` into `ResultStore::put`; no
//! kernel is simulated). The timed work lists and reads every run, pools
//! the corpus (the cross-run DBSCAN pass over thousands of samples per
//! pair), fits and k-fold validates the predictor, renders and writes one
//! bundle per run, and scores the 3-policy × 5-traffic governor matrix.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use latest::cluster::AdaptiveConfig;
use latest::core::controller::{PairOutcome, PairRun};
use latest::core::probe::ProbeResult;
use latest::core::{
    analyze_pair, CampaignResult, CampaignSpec, FreqCharacterization, FreqState, PairMeasurement,
    Phase1Result, ResultStore, RunId,
};
use latest::governor::{
    make_policy, replay_seed, scorecards_to_json, DaemonConfig, GovernorDaemon, LatencyTable,
    PowerModel, TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::predict::{build_corpora, cross_validate, PredictModel};
use latest::report::Bundle;
use latest::stats::Summary;
use latest::traffic::TrafficRegistry;

use crate::calib::Meter;
use crate::campaign::{other_ms, CV_FOLDS};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{stats, Iteration, Quality, Workload};

/// Archived runs: one experiment family, one seed each.
const RUNS: usize = 12;
/// Ladder points of every run (12 ordered pairs).
const FREQS: [u32; 4] = [540, 885, 1230, 1410];
/// Samples per pair per run; pooled, each pair reaches RUNS × SAMPLES.
const SAMPLES: usize = 300;

pub struct ArchivePipeline {
    seed: u64,
    dir: PathBuf,
    store: ResultStore,
    specs: Vec<CampaignSpec>,
    iteration: usize,
    gt_error_pct: f64,
    mape: f64,
}

/// The device's settle time for one transition (ms): the ground truth the
/// seeded samples scatter around. Slower down than up, and growing with
/// the frequency step, plus one slow target column (as the GH200 and
/// Quadro models have). Interpolation cannot see the column from its
/// neighbours, so the held-out error is mostly this fixed model misfit,
/// which keeps `predict_cv_mape` steady from seed to seed.
fn truth_ms(init: u32, target: u32) -> f64 {
    let span = (target as f64 - init as f64).abs() / 1000.0;
    let direction = if target > init { 6.0 } else { 8.5 };
    let band = if target < 700 { 1.5 } else { 0.0 };
    let column = if target == 885 { 3.0 } else { 0.0 };
    direction + 3.0 * span + band + column
}

/// One pair's measured latencies: settle time plus the control call's
/// travel and jitter, with rare multi-ms stalls the outlier filter must
/// reject.
fn samples(rng: &mut Rng, truth: f64) -> Vec<f64> {
    (0..SAMPLES)
        .map(|_| {
            let travel = 0.3 - 0.2 * rng.uniform().max(1e-12).ln();
            let jitter = 0.04 * truth * rng.normal();
            let stall = if rng.uniform() < 0.01 {
                truth * (2.0 + 3.0 * rng.uniform())
            } else {
                0.0
            };
            (truth + travel + jitter + stall).max(0.05)
        })
        .collect()
}

fn archived_run(run_seed: u64, rng: &mut Rng) -> (CampaignSpec, CampaignResult) {
    let spec = CampaignSpec::builder("a100")
        .description("seeded archive for the archive_pipeline benchmark")
        .frequencies_mhz(&FREQS)
        .measurements(25, SAMPLES)
        .seed(run_seed)
        .build_unchecked();
    let state = FreqState::core_mhz;
    let freqs = FREQS
        .iter()
        .map(|&f| {
            let iter_ns: Vec<f64> = (0..64)
                .map(|_| 1e8 / f as f64 * (1.0 + 0.01 * rng.normal()))
                .collect();
            (
                state(f),
                FreqCharacterization {
                    freq: state(f),
                    iter_ns: Summary::of(&iter_ns),
                },
            )
        })
        .collect();
    let ordered: Vec<(FreqState, FreqState)> = FREQS
        .iter()
        .flat_map(|&a| {
            FREQS
                .iter()
                .filter(move |&&b| b != a)
                .map(move |&b| (state(a), state(b)))
        })
        .collect();
    let adaptive = AdaptiveConfig::default();
    let pairs = ordered
        .iter()
        .map(|&(init, target)| {
            let truth = truth_ms(init.core.0, target.core.0);
            let latencies_ms = samples(rng, truth);
            let summary = Summary::of(&latencies_ms);
            let analysis = analyze_pair(&latencies_ms, &adaptive);
            PairMeasurement {
                init,
                target,
                outcome: PairOutcome::Completed(PairRun {
                    init,
                    target,
                    ground_truth_ms: vec![truth; latencies_ms.len()],
                    latencies_ms,
                    retries: 0,
                    thermal_events: 0,
                    final_rse: summary.rse(),
                    final_bound_ms: summary.max,
                }),
                analysis: Some(analysis),
            }
        })
        .collect();
    let phase1 = Phase1Result {
        freqs,
        valid_pairs: ordered.clone(),
        skipped_pairs: Vec::new(),
    };
    let probe = ProbeResult {
        samples: Vec::new(),
        max_latency_ms: truth_ms(FREQS[FREQS.len() - 1], FREQS[0]) * 2.0,
    };
    let result = CampaignResult::new(
        "NVIDIA A100-SXM4-40GB".to_string(),
        0,
        run_seed,
        phase1,
        probe,
        pairs,
    );
    (spec, result)
}

/// Held-out MAPE of the predictor on the seeded reference archive (this
/// workload's inputs for `seed`). The other workloads report it as their
/// `predict_cv_mape`: their own archives are too small for a steady figure
/// (the table2 run's 56 pairs move the MAPE by about 16 % from seed to
/// seed, the service's mixed small jobs by 30–70 %).
pub fn reference_cv_mape(seed: u64, dir: &Path) -> Result<f64, String> {
    let archive = ArchivePipeline::setup(seed, dir)?;
    let corpora = build_corpora(&archive.store, None).map_err(|e| e.to_string());
    let mape = corpora.and_then(|corpora| {
        let corpus = corpora
            .first()
            .ok_or("the reference archive has no corpus")?;
        cross_validate(corpus, CV_FOLDS)
            .map(|r| r.mape)
            .map_err(|e| e.to_string())
    });
    let _ = std::fs::remove_dir_all(dir);
    mape
}

impl Workload for ArchivePipeline {
    const SETUP_REPEATS: usize = 1;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let store = ResultStore::open(dir.join("store")).map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed ^ 0xa4c1_17e0);
        let mut specs = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let run_seed = rng.next_u64() >> 16;
            let (spec, result) = archived_run(run_seed, &mut rng);
            store
                .put(&spec, &result)
                .map_err(|e| format!("archiving seeded run: {e}"))?;
            specs.push(spec);
        }
        Ok(ArchivePipeline {
            seed,
            dir: dir.to_path_buf(),
            store,
            specs,
            iteration: 0,
            gt_error_pct: f64::NAN,
            mape: f64::NAN,
        })
    }

    fn iterate(
        &mut self,
        meter: &Arc<Meter>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        self.iteration += 1;
        let bundles = self.dir.join(format!("bundles-{}", self.iteration));
        let span = |name: &'static str, trace: String, parent, start: Instant| {
            if let Some(t) = tracer {
                t.record(name, trace, parent, t.ns_at(start), t.now_ns());
            }
        };
        // The calibration loop runs between steps, outside every span.
        let tick = || {
            if tracer.is_none() {
                meter.tick();
            }
        };
        let mut output = String::new();
        meter.sample();
        let t0 = Instant::now();

        // List and read every run.
        let t = Instant::now();
        let runs = self
            .store
            .list()
            .map_err(|e| format!("listing the archive: {e}"))?;
        span("core.store_list", "archive".into(), None, t);
        tick();
        it.check(runs.len() == RUNS, || {
            format!("archive lists {} runs, expected {RUNS}", runs.len())
        });

        // Pool the corpus, fit, validate.
        let t = Instant::now();
        let corpora = build_corpora(&self.store, None).map_err(|e| e.to_string())?;
        let corpus_ms = t.elapsed().as_secs_f64() * 1e3;
        span("predict.corpus", "archive".into(), None, t);
        tick();
        let corpus = match corpora.as_slice() {
            [one] => one,
            _ => return Err(format!("expected one corpus, built {}", corpora.len())),
        };
        let t = Instant::now();
        let model = PredictModel::fit(corpus).map_err(|e| e.to_string())?;
        let fit_ms = t.elapsed().as_secs_f64() * 1e3;
        span("predict.fit", "archive".into(), None, t);
        let t = Instant::now();
        let report = cross_validate(corpus, CV_FOLDS).map_err(|e| e.to_string())?;
        let cv_ms = t.elapsed().as_secs_f64() * 1e3;
        span("predict.cv", "archive".into(), None, t);
        tick();
        output.push_str(&model.to_json());
        output.push_str(&report.to_json());

        // One bundle per run: read, render, write.
        let t = Instant::now();
        let (mut files, mut bytes) = (0u64, 0u64);
        let mut get_ms = Vec::new();
        let mut turnarounds = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let id = RunId::of_spec(spec);
            let start = Instant::now();
            let run = self
                .store
                .get(&id)
                .map_err(|e| format!("reading {id}: {e}"))?;
            get_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let written = Bundle::for_campaign(&run.result)
                .write_to(&bundles.join(id.as_str()))
                .map_err(|e| format!("writing the bundle of {id}: {e}"))?;
            turnarounds.push((start, Instant::now()));
            span(
                "report.bundle",
                id.to_string(),
                Some("report.bundles"),
                start,
            );
            files += written.len() as u64;
            for path in &written {
                bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
            tick();
        }
        let bundle_ms = t.elapsed().as_secs_f64() * 1e3;
        span("report.bundles", "archive".into(), None, t);

        // The govern matrix over the first run's latency table.
        let t = Instant::now();
        let table = LatencyTable::from_campaign(&runs[0].result);
        let ladder = ZoneLadder::from_table(&table).ok_or("latency table has no targets")?;
        let daemon =
            GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
        let registry = TrafficRegistry::builtin();
        let mut cards = Vec::new();
        for traffic in registry.names() {
            let trace = registry
                .get(traffic)
                .expect("listed traffic resolves")
                .generate()
                .map_err(|e| format!("traffic {traffic}: {e}"))?;
            for policy_name in POLICY_NAMES {
                let start = Instant::now();
                let policy = make_policy(policy_name, &table)?;
                let seed = replay_seed(self.seed, policy.name(), &trace.name);
                let mut replay = TransitionReplay::new(table.clone(), seed);
                let card = daemon.run(policy.as_ref(), &trace, &mut replay, seed);
                it.check(card.completed == card.requests, || {
                    format!("{policy_name}/{traffic} left requests unserved")
                });
                span(
                    "governor.cell",
                    format!("{policy_name}/{traffic}"),
                    Some("governor.matrix"),
                    start,
                );
                cards.push(card);
                tick();
            }
        }
        let matrix_ms = t.elapsed().as_secs_f64() * 1e3;
        span("governor.matrix", "archive".into(), None, t);
        output.push_str(&scorecards_to_json(&cards));
        let end = Instant::now();
        let raw_wall_s = (end - t0).as_secs_f64();
        meter.sample();
        let scale = meter.scale();
        it.wall_s = scale.of(t0, end);
        it.turnaround_ms = turnarounds
            .iter()
            .map(|&(from, to)| scale.of(from, to) * 1e3)
            .collect();
        let _ = std::fs::remove_dir_all(&bundles);

        let pairs: usize = runs.iter().map(|r| r.result.pairs().len()).sum();
        let requests: u64 = cards.iter().map(|c| c.requests as u64).sum();
        let pooled = corpus.total_samples();
        let rejected: u64 = corpus.pairs.iter().map(|p| p.outliers_rejected).sum();
        it.pairs = pairs as f64;
        it.pairs_s = it.wall_s;
        it.jobs = runs.len() as f64;
        it.jobs_s = it.wall_s;
        it.attempted += (runs.len() + cards.len() + 3) as u64;
        it.counts.insert("predict.pooled_samples", pooled);
        it.counts.insert("predict.outliers_rejected", rejected);
        it.counts.insert("governor.requests", requests);
        it.counts.insert("report.files", files);
        it.counts.insert("report.bytes", bytes);
        it.output = output;
        let errors: Vec<f64> = corpus
            .pairs
            .iter()
            .flat_map(|p| {
                let truth = truth_ms(p.init_mhz, p.target_mhz);
                p.samples_ms
                    .iter()
                    .map(move |s| ((s - truth) / truth).abs() * 100.0)
            })
            .collect();
        self.gt_error_pct = stats::median(&errors).ok_or("empty corpus")?;
        self.mape = report.mape;

        if let Some(tracer) = tracer {
            let l = &mut it.layers;
            l.set("predict.corpus_ms", corpus_ms);
            l.set("predict.pooled_samples", pooled as f64);
            l.set("predict.outliers_rejected", rejected as f64);
            l.set("predict.fit_ms", fit_ms);
            l.set("predict.cv_ms", cv_ms);
            l.set("report.bundle_ms", bundle_ms);
            l.set("report.files", files as f64);
            l.set("report.bytes", bytes as f64);
            l.set("governor.matrix_ms", matrix_ms);
            l.set("governor.requests", requests as f64);
            for ms in get_ms {
                l.sample("core.store_get_ms", ms);
            }
            let (spans, _) = tracer.snapshot("");
            l.set("trace.other_ms", other_ms(&spans, raw_wall_s));
            // Store writes, timed from outside: every run re-put
            // (byte-idempotent).
            let mut store_bytes = 0u64;
            for run in &runs {
                let t = Instant::now();
                self.store
                    .put(&run.spec, &run.result)
                    .map_err(|e| format!("re-archiving {}: {e}", run.run_id))?;
                l.sample("core.store_put_ms", t.elapsed().as_secs_f64() * 1e3);
                let path = self.store.root().join(format!("{}.json", run.run_id));
                store_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            }
            l.set("core.store_bytes", store_bytes as f64);
        }
        Ok(it)
    }

    fn quality(&mut self) -> Result<Quality, String> {
        Ok(Quality {
            gt_error_pct: self.gt_error_pct,
            cv_mape: self.mape,
        })
    }
}
