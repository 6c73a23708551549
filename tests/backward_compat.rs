//! Backward compatibility with the single-domain era: adding the memory
//! frequency domain must not move any existing run id (the content address
//! of a spec) nor change a single archived byte of a core-only campaign.
//! The `pre_mem_*` fixtures under `tests/fixtures/` were captured before
//! the memory domain landed and pin that behaviour forever; the
//! `mem_plane_*` fixtures pin a 2-D (core x memory) campaign the same way.

use std::fs;
use std::path::{Path, PathBuf};

use latest::core::spec::{CampaignSpec, ScenarioSpec};
use latest::core::store::ResultStore;
use latest::core::{CampaignSession, RunId};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn campaign_spec(target: &str) -> CampaignSpec {
    let (path, member) = match target.split_once('#') {
        Some((p, m)) => {
            let index: usize = m
                .strip_prefix("member")
                .and_then(|i| i.parse().ok())
                .unwrap_or_else(|| panic!("bad member tag in {target:?}"));
            (p, Some(index))
        }
        None => (target, None),
    };
    let text =
        fs::read_to_string(repo_path(path)).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let scenario = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
    match (scenario, member) {
        (ScenarioSpec::Campaign(spec), None) => spec,
        (ScenarioSpec::Fleet(fleet), Some(i)) => fleet.members[i].clone(),
        (ScenarioSpec::Campaign(_), Some(_)) => panic!("{target}: campaign spec has no members"),
        (ScenarioSpec::Fleet(_), None) => panic!("{target}: fleet target needs a #memberN tag"),
    }
}

/// Every scenario that existed before the memory domain keeps its exact
/// content-addressed run id: archives stay addressable, caches stay warm.
#[test]
fn scenario_run_ids_survive_the_memory_domain() {
    let manifest = fs::read_to_string(repo_path("tests/fixtures/pre_mem_run_ids.txt")).unwrap();
    let mut checked = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (target, expected) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("bad manifest line {line:?}"));
        let spec = campaign_spec(target);
        assert_eq!(
            RunId::of_spec(&spec).to_string(),
            expected,
            "{target}: run id moved — pre-memory archives of this spec are orphaned"
        );
        checked += 1;
    }
    assert_eq!(checked, 7, "manifest lost lines");
}

/// Re-running the pre-memory golden spec reproduces its archived store
/// file byte for byte: same run id, same latencies, same serialised form.
#[test]
fn pre_memory_archive_bytes_reproduce_exactly() {
    let text = fs::read_to_string(repo_path("tests/fixtures/pre_mem_spec.json")).unwrap();
    let ScenarioSpec::Campaign(spec) = ScenarioSpec::from_json(&text).unwrap() else {
        panic!("pre_mem_spec.json must be a campaign spec");
    };
    let config = spec.resolve().expect("golden spec resolves");
    let result = CampaignSession::new(config)
        .run()
        .expect("golden campaign runs");

    let dir = std::env::temp_dir().join(format!("latest_premem_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let store = ResultStore::open(&dir).unwrap();
    let id = store.put(&spec, &result).unwrap();
    assert_eq!(id.to_string(), "run-5f26ffe10dc1829f254fce69e56156d0");

    let fresh = fs::read(dir.join(format!("{id}.json"))).unwrap();
    let golden = fs::read(repo_path(
        "tests/fixtures/pre_mem_store/run-5f26ffe10dc1829f254fce69e56156d0.json",
    ))
    .unwrap();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fresh, golden,
        "archived bytes drifted from the single-domain era"
    );
}

/// Re-running the memory-plane golden spec (2 core x 2 memory clocks,
/// memory-bound, the shape of the benchmark's memory jobs) reproduces its
/// archived store file byte for byte. It pins every 2-D random stream:
/// core and memory switch plans, their arrival draws and the NVML call
/// timing of both clock-lock requests.
#[test]
fn memory_plane_archive_bytes_reproduce_exactly() {
    let text = fs::read_to_string(repo_path("tests/fixtures/mem_plane_spec.json")).unwrap();
    let ScenarioSpec::Campaign(spec) = ScenarioSpec::from_json(&text).unwrap() else {
        panic!("mem_plane_spec.json must be a campaign spec");
    };
    let config = spec.resolve().expect("golden spec resolves");
    let result = CampaignSession::new(config)
        .run()
        .expect("golden campaign runs");

    let dir = std::env::temp_dir().join(format!("latest_memplane_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let store = ResultStore::open(&dir).unwrap();
    let id = store.put(&spec, &result).unwrap();
    assert_eq!(id.to_string(), "run-40fa3fcbf6a657f4ac93e35d7785bcc7");

    let fresh = fs::read(dir.join(format!("{id}.json"))).unwrap();
    let golden = fs::read(repo_path(
        "tests/fixtures/mem_plane_store/run-40fa3fcbf6a657f4ac93e35d7785bcc7.json",
    ))
    .unwrap();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(fresh, golden, "memory-plane archived bytes drifted");
}
