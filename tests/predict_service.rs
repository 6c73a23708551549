//! The prediction service end to end over the facade: paper-ladder
//! campaigns are measured and archived, a model is fitted over the pooled
//! archive, held-out and closed-loop validation stay inside explicit error
//! bounds, and the batch path routes low-confidence pairs back into the
//! measurement queue.

use latest::core::spec::CampaignSpec;
use latest::core::ResultStore;
use latest::gpu_sim::devices::DeviceRegistry;
use latest::predict::{
    build_corpora, closed_loop_validate, corpus_for_device, cross_validate, serve_batch,
    PredictError, PredictModel,
};
use latest::queue::JobQueue;
use latest::report::{Artifact, Format};

/// Paper-ladder points of the A100-SXM4 (Table I frequencies).
const A100_LADDER: [u32; 4] = [540, 705, 1095, 1410];

fn ladder_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&A100_LADDER)
        .seed(seed)
        .measurements(6, 10)
        .rse_threshold(0.5)
        .build()
        .unwrap()
}

fn archive_ladder_runs(dir: &std::path::Path) -> ResultStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultStore::open(dir).unwrap();
    for seed in [21, 22] {
        let spec = ladder_spec(seed);
        let result = spec.clone().into_session().unwrap().run().unwrap();
        store.put(&spec, &result).unwrap();
    }
    store
}

#[test]
fn held_out_error_is_bounded_on_the_paper_ladder() {
    let dir = std::env::temp_dir().join(format!("latest_predict_it_{}", std::process::id()));
    let store = archive_ladder_runs(&dir);

    let corpora = build_corpora(&store, None).unwrap();
    let [corpus] = corpora.as_slice() else {
        panic!("one device archived, got {}", corpora.len());
    };
    assert_eq!(corpus.device, "a100");
    assert_eq!(corpus.runs, 2, "both seeds pool into one corpus");
    assert_eq!(corpus.pairs.len(), 12, "4 ladder points, 12 ordered pairs");

    let report = cross_validate(corpus, 5).unwrap();
    assert_eq!(
        report.rows.len(),
        12,
        "every measured pair gets held out once"
    );
    // The explicit bound: predictions for held-out paper-ladder pairs stay
    // within 25 % mean absolute percentage error of their measurements.
    assert!(
        report.mape < 0.25,
        "held-out MAPE {:.4} exceeds the 25 % bound",
        report.mape
    );
    assert!(report.mae_ms.is_finite() && report.mae_ms > 0.0);
    assert!(report.rmse_ms >= report.mae_ms);

    // Validation is deterministic: same archive, bitwise-identical report.
    let again = cross_validate(corpus, 5).unwrap();
    assert_eq!(report.to_json(), again.to_json());

    // The report renders as artifacts in every format.
    for format in Format::ALL {
        let scatter = report.scatter().render(format);
        assert!(!scatter.is_empty(), "{format:?} scatter is empty");
        let heatmap = report.error_heatmap().render(format);
        assert!(!heatmap.is_empty(), "{format:?} heatmap is empty");
    }

    // Closed loop: the model fitted on the whole corpus predicts the
    // simulator's ground-truth transitions (2 replays per pair, seed 0)
    // within 35 % mean absolute percentage error, deterministically.
    let model = PredictModel::fit(corpus).unwrap();
    let a100 = DeviceRegistry::builtin().get("a100").unwrap();
    let closed = closed_loop_validate(&model, &a100, 2, 0).unwrap();
    assert_eq!(closed.rows.len(), 12);
    assert!(
        closed.mape < 0.35,
        "closed-loop MAPE {:.4} exceeds the 35 % bound",
        closed.mape
    );
    let again = closed_loop_validate(&model, &a100, 2, 0).unwrap();
    assert_eq!(closed.to_json(), again.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn low_confidence_batch_queries_become_measurement_jobs() {
    let dir = std::env::temp_dir().join(format!("latest_predict_itq_{}", std::process::id()));
    let store = archive_ladder_runs(&dir);
    let corpus = build_corpora(&store, None).unwrap().remove(0);
    let model = PredictModel::fit(&corpus).unwrap();

    let queue_dir = dir.join("queue");
    let queue = JobQueue::open(&queue_dir).unwrap();
    let template = ladder_spec(0);

    // A measured pair answers confidently; an unmeasured on-ladder pair
    // below the grid under a zero-width gate cannot, and is routed to
    // measurement (the queue validates the follow-up spec, so only ladder
    // frequencies are resubmittable).
    let outcome = serve_batch(
        &model,
        &[(540, 1410), (1320, 330)],
        0.0,
        Some((&queue, &template)),
    )
    .unwrap();
    assert_eq!(outcome.answers.len(), 2);
    assert!(!outcome.low_confidence.is_empty());
    let job_id = outcome
        .submitted_job
        .as_deref()
        .expect("follow-up submitted");
    let jobs = queue.jobs().unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(format!("job-{}", jobs[0].id.0), job_id);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memory-plane sweep pins a memory clock on every pair. The corpus keys
/// pairs by core clock alone, so those samples must stay out: merged, they
/// would fold 705/810 -> 705/1215 MHz into a 705 -> 705 self-pair, which
/// held-out validation cannot predict.
#[test]
fn memory_plane_runs_stay_out_of_the_corpus() {
    let dir = std::env::temp_dir().join(format!("latest_predict_itm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mem_spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .mem_frequencies_mhz(&[810, 1215])
        .seed(21)
        .measurements(6, 10)
        .rse_threshold(0.5)
        .build()
        .unwrap();
    let core_spec = ladder_spec(21);
    let mem_run = mem_spec.clone().into_session().unwrap().run().unwrap();
    let core_run = core_spec.clone().into_session().unwrap().run().unwrap();

    let store = |name: &str, runs: &[(&CampaignSpec, &latest::core::CampaignResult)]| {
        let store = ResultStore::open(dir.join(name)).unwrap();
        for (spec, result) in runs {
            store.put(spec, result).unwrap();
        }
        store
    };
    let core = store("core", &[(&core_spec, &core_run)]);
    let mixed = store("mixed", &[(&core_spec, &core_run), (&mem_spec, &mem_run)]);
    let mem_only = store("mem", &[(&mem_spec, &mem_run)]);

    // Core-only plus memory-plane trains exactly what core-only alone does.
    assert_eq!(
        build_corpora(&mixed, None).unwrap(),
        build_corpora(&core, None).unwrap()
    );
    let model = |store: &ResultStore| {
        let corpus = corpus_for_device(store, "a100", None).unwrap();
        PredictModel::fit(&corpus).unwrap().to_json()
    };
    assert_eq!(model(&mixed), model(&core));

    // Memory-plane runs alone leave nothing to train on: an empty corpus,
    // which `predict validate` reports as an input error (exit 2).
    assert!(build_corpora(&mem_only, None).unwrap().is_empty());
    assert!(matches!(
        corpus_for_device(&mem_only, "a100", None),
        Err(PredictError::EmptyCorpus { .. })
    ));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_latest"))
        .args(["predict", "validate", "--store"])
        .arg(dir.join("mem"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
