//! The unified results pipeline end to end: archive a campaign in the
//! [`ResultStore`], query it back, render the artifact bundle, and diff
//! stored runs — the `latest run --store` / `latest report` / `latest diff`
//! data path, exercised at the library level.

use std::fs;
use std::path::PathBuf;

use latest::core::spec::CampaignSpec;
use latest::core::store::{ResultStore, RunId};
use latest::core::view::{LatencyView, PairStat};
use latest::core::{CampaignResult, CampaignSession};
use latest::report::{Artifact, Bundle, CampaignDiff, Format};
use proptest::prelude::*;

fn tiny_spec(seed: u64, max_measurements: usize) -> CampaignSpec {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .measurements(3, max_measurements.max(3))
        .simulated_sms(Some(2))
        .seed(seed)
        .build()
        .unwrap()
}

fn run_spec(spec: &CampaignSpec) -> CampaignResult {
    CampaignSession::new(spec.resolve().unwrap()).run().unwrap()
}

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("latest_it_store_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    ResultStore::open(dir).unwrap()
}

#[test]
fn archive_query_report_diff_round_trip() {
    let store = temp_store("pipeline");
    let spec = tiny_spec(41, 8);
    let result = run_spec(&spec);
    let id = store.put(&spec, &result).unwrap();

    // Query layer over the reloaded run agrees with the in-memory one.
    let stored = store.get(&id).unwrap();
    let live = LatencyView::of(&result).completed();
    let reloaded = LatencyView::of(&stored.result).completed();
    assert_eq!(live.count(), reloaded.count());
    assert_eq!(
        live.stat_extreme(PairStat::Max, true)
            .map(|(v, i, t)| (v.to_bits(), i, t)),
        reloaded
            .stat_extreme(PairStat::Max, true)
            .map(|(v, i, t)| (v.to_bits(), i, t)),
    );

    // The bundle rendered from the stored run is bitwise identical to the
    // bundle rendered from the live result: determinism survives the
    // archive round trip.
    let live_bundle = Bundle::for_campaign(&result).render_all();
    let stored_bundle = Bundle::for_campaign(&stored.result).render_all();
    assert_eq!(live_bundle, stored_bundle);

    // `latest diff` semantics: a run against itself reports zero
    // significant regressions (and zero improvements).
    let diff = CampaignDiff::between(&stored.result, &stored.result, 0.05);
    assert_eq!(diff.significant_regressions(), 0);
    assert_eq!(diff.improvements().count(), 0);
    assert!(!diff.deltas.is_empty());

    fs::remove_dir_all(store.root()).ok();
}

#[test]
fn diff_of_different_seeds_is_significance_annotated() {
    let store = temp_store("seeds");
    let spec_a = tiny_spec(1, 10);
    let spec_b = tiny_spec(2, 10);
    let id_a = store.put(&spec_a, &run_spec(&spec_a)).unwrap();
    let id_b = store.put(&spec_b, &run_spec(&spec_b)).unwrap();
    assert_ne!(id_a, id_b, "different seeds must archive separately");

    let (a, b) = (store.get(&id_a).unwrap(), store.get(&id_b).unwrap());
    let diff = CampaignDiff::between(&a.result, &b.result, 0.05);
    assert_eq!(diff.deltas.len(), 2);
    // Every common pair carries a p-value from the Mann-Whitney test.
    for d in &diff.deltas {
        let p = d.p_value.expect("samples are large enough to test");
        assert!((0.0..=1.0).contains(&p));
    }
    // The rendered table annotates significance per pair.
    let table = diff.regression_table().render(Format::Text);
    assert!(table.contains("p-value"));
    assert!(table.contains("verdict"));
    fs::remove_dir_all(store.root()).ok();
}

#[test]
fn store_survives_reopen_and_lists_provenance() {
    let root: PathBuf;
    {
        let store = temp_store("reopen");
        root = store.root().to_path_buf();
        let spec = tiny_spec(9, 6);
        store.put(&spec, &run_spec(&spec)).unwrap();
    }
    let reopened = ResultStore::open(&root).unwrap();
    let runs = reopened.list().unwrap();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].provenance.seed, 9);
    assert_eq!(runs[0].provenance.pairs_total, 2);
    assert!(runs[0].provenance.device_name.contains("A100"));
    fs::remove_dir_all(&root).ok();
}

proptest! {
    /// `RunId` is a pure function of the spec and stable across JSON
    /// re-serialisation, for any builder-accepted spec shape.
    #[test]
    fn run_id_stable_across_reserialisation(
        device_i in 0usize..3,
        seed in 0u64..u64::MAX,
        rse in 0.001f64..0.95,
        min in 1usize..60,
        extra in 0usize..100,
        n in 2usize..12,
    ) {
        let device = ["a100", "gh200", "quadro"][device_i];
        let spec = CampaignSpec::builder(device)
            .frequency_subset(n)
            .seed(seed)
            .rse_threshold(rse)
            .measurements(min, min + extra)
            .build()
            .expect("valid spec");
        let id = RunId::of_spec(&spec);
        let mut reserialised = spec.clone();
        for _ in 0..3 {
            reserialised = CampaignSpec::from_json(&reserialised.to_json()).unwrap();
            prop_assert_eq!(RunId::of_spec(&reserialised), id.clone());
        }
        // And a different seed always moves the address.
        let mut other = spec.clone();
        other.seed = seed.wrapping_add(1);
        prop_assert_ne!(RunId::of_spec(&other), id);
    }
}

// Store idempotence needs real campaign runs; keep the case count small so
// the property stays cheap.
fn idempotence_cases() -> Vec<(u64, usize)> {
    vec![(1, 3), (2, 4), (3, 5), (17, 6), (99, 8)]
}

#[test]
fn store_put_get_put_is_idempotent() {
    let store = temp_store("idem_it");
    for (seed, max) in idempotence_cases() {
        let spec = tiny_spec(seed, max);
        let result = run_spec(&spec);
        let id1 = store.put(&spec, &result).unwrap();
        let bytes1 = fs::read(store.root().join(format!("{id1}.json"))).unwrap();
        let stored = store.get(&id1).unwrap();
        // put(get(put(x))) writes the same bytes at the same address.
        let id2 = store.put(&stored.spec, &stored.result).unwrap();
        let bytes2 = fs::read(store.root().join(format!("{id2}.json"))).unwrap();
        assert_eq!(id1, id2, "seed {seed}");
        assert_eq!(bytes1, bytes2, "seed {seed}: archive entry not idempotent");
    }
    fs::remove_dir_all(store.root()).ok();
}
