//! Characterization of the `latest` command-line front end: for each
//! representative invocation, the exit code, the exact stdout bytes and the
//! first stderr line, observed by running the binary on temp dirs.
//!
//! Exit-status contract: 0 ok; 1 runtime failure or a significant
//! regression in `diff`; 2 usage or input error; 3 `queue status` while
//! jobs are still pending.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

struct Outcome {
    code: i32,
    stdout: String,
    stderr: String,
}

impl Outcome {
    fn first_err(&self) -> &str {
        self.stderr.lines().next().unwrap_or("")
    }
}

fn latest(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_latest"))
        .args(args)
        .output()
        .expect("spawn latest");
    Outcome {
        code: out.status.code().expect("exited normally"),
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr: String::from_utf8(out.stderr).unwrap(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latest_cli_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(path: &std::path::Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// The help text of one command group: identical bytes for every way of
/// asking, on stdout, with exit 0 and nothing on stderr.
fn help_text(invocations: &[&[&str]], first_line: &str) -> String {
    let reference = latest(invocations[0]);
    assert_eq!(reference.code, 0, "{:?}", invocations[0]);
    assert!(
        reference.stdout.starts_with(first_line),
        "{:?}",
        invocations[0]
    );
    for args in invocations {
        let out = latest(args);
        assert_eq!(out.code, 0, "{args:?}");
        assert_eq!(out.stdout, reference.stdout, "{args:?}");
        assert_eq!(out.stderr, "", "{args:?}");
    }
    reference.stdout
}

fn top_usage() -> String {
    help_text(
        &[&["help"], &[], &["--help"], &["-h"], &["run", "--help"]],
        "usage: latest <command> [options]\n",
    )
}

fn queue_usage() -> String {
    help_text(
        &[
            &["queue", "help"],
            &["queue"],
            &["queue", "--help"],
            &["queue", "submit", "-h"],
        ],
        "usage: latest queue <command> [options]\n",
    )
}

fn govern_usage() -> String {
    help_text(
        &[
            &["govern", "help"],
            &["govern"],
            &["govern", "-h"],
            &["govern", "run", "--help"],
        ],
        "usage: latest govern <command> [options]\n",
    )
}

fn predict_usage() -> String {
    help_text(
        &[
            &["predict", "help"],
            &["predict"],
            &["predict", "--help"],
            &["predict", "fit", "--help"],
        ],
        "usage: latest predict <command> [options]\n",
    )
}

/// A usage error: exit 2, nothing on stdout, and stderr is the message
/// followed by the group's help text and a blank line, byte for byte.
fn assert_usage_error(args: &[&str], msg: &str, usage: &str) {
    let out = latest(args);
    assert_eq!(out.code, 2, "{args:?}: {}", out.stderr);
    assert_eq!(out.stdout, "", "{args:?}");
    assert_eq!(out.stderr, format!("error: {msg}\n\n{usage}\n"), "{args:?}");
}

/// An input error: exit 2, nothing on stdout, one `error:` line.
fn assert_input_error(args: &[&str], first_line: &str) {
    let out = latest(args);
    assert_eq!(out.code, 2, "{args:?}: {}", out.stderr);
    assert_eq!(out.stdout, "", "{args:?}");
    assert_eq!(out.first_err(), first_line, "{args:?}");
}

#[test]
fn help_texts_print_on_stdout_and_exit_zero() {
    assert!(top_usage().contains("\n  queue <submit|serve|stat"));
    assert!(queue_usage().contains("\n  stats [--json|--csv]"));
    // `queue serve` takes every unset flag from the pool's defaults.
    let poll_ms = latest::queue::PoolConfig::default()
        .poll_interval
        .as_millis();
    assert!(queue_usage().contains(&format!("--poll-ms (default {poll_ms})")));
    assert!(govern_usage().contains("\n  list-traffic "));
    assert!(predict_usage().contains("\n  validate [options] "));
}

#[test]
fn usage_errors_print_the_group_usage_and_exit_two() {
    let top = top_usage();
    assert_usage_error(
        &["frobnicate"],
        "bad frequency \"frobnicate\" in list",
        &top,
    );
    assert_usage_error(&["run", "--bogus"], "unknown option --bogus", &top);
    // Neither a direct run nor the queue service has a work-unit size:
    // the pair is the only unit of work.
    assert_usage_error(
        &["run", "scenarios/table2.json", "--shard-pairs", "2"],
        "unknown option --shard-pairs",
        &top,
    );
    assert_usage_error(
        &["queue", "serve", "--shard-pairs", "2"],
        "unknown option --shard-pairs",
        &queue_usage(),
    );
    assert_usage_error(&["run", "--seed"], "missing value for --seed", &top);
    assert_usage_error(
        &["run", "--seed", "x", "705,1410"],
        "--seed: invalid digit found in string",
        &top,
    );
    assert_usage_error(
        &["diff", "a", "b", "--alpha", "2"],
        "--alpha must be in (0, 1), got 2",
        &top,
    );
    assert_usage_error(
        &["list-runs", "extra"],
        "list-runs takes no positional arguments",
        &top,
    );

    let queue = queue_usage();
    assert_usage_error(&["queue", "frob"], "unknown queue command \"frob\"", &queue);
    assert_usage_error(
        &["queue", "serve", "--workers"],
        "missing value for --workers",
        &queue,
    );

    let govern = govern_usage();
    assert_usage_error(
        &["govern", "run", "steady", "--table", "x", "--gate", "-1"],
        "--gate must be non-negative, got -1",
        &govern,
    );
    assert_usage_error(
        &["govern", "run", "--json"],
        "govern run takes at least one traffic scenario",
        &govern,
    );

    let predict = predict_usage();
    assert_usage_error(
        &["predict", "query", "m.json", "--gate", "-1"],
        "--gate must be non-negative, got -1",
        &predict,
    );
    assert_usage_error(
        &["predict", "validate", "--folds", "many"],
        "--folds: invalid digit found in string",
        &predict,
    );
}

#[test]
fn unreadable_and_unparsable_scenarios_are_input_errors() {
    let dir = temp_dir("input");
    let missing = dir.join("missing.json");
    let missing = path_str(&missing);
    assert_input_error(
        &["validate", missing],
        &format!("error: reading {missing}: No such file or directory (os error 2)"),
    );
    let bad = dir.join("bad.json");
    fs::write(&bad, "{x").unwrap();
    let bad = path_str(&bad);
    assert_input_error(
        &["validate", bad],
        &format!("error: parsing {bad}: expected `\"` at byte 1"),
    );
    assert_input_error(
        &["queue", "submit", bad, "--dir", path_str(&dir.join("q"))],
        &format!("error: parsing {bad}: expected `\"` at byte 1"),
    );
    // `run` reports a bad scenario file as a usage error.
    assert_usage_error(
        &["run", bad],
        &format!("parsing {bad}: expected `\"` at byte 1"),
        &top_usage(),
    );
    let model = dir.join("missing.model.json");
    let model = path_str(&model);
    assert_input_error(
        &["predict", "query", model, "705,1410"],
        &format!("error: reading {model}: No such file or directory (os error 2)"),
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_accepts_a_valid_spec_and_lists_violations() {
    let table2 = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/table2.json");
    let out = latest(&["validate", table2]);
    assert_eq!(out.code, 0);
    assert_eq!(
        out.stdout,
        format!(
            "OK: {table2}: campaign on NVIDIA A100-SXM4-40GB \
             (8 frequencies, 56 ordered pairs)\n"
        )
    );
    assert_eq!(out.stderr, "");

    let dir = temp_dir("validate");
    let invalid = dir.join("invalid.json");
    fs::write(
        &invalid,
        r#"{"device": "nope", "frequencies": [705, 1410]}"#,
    )
    .unwrap();
    let invalid = path_str(&invalid);
    let out = latest(&["validate", invalid]);
    assert_eq!(out.code, 2);
    assert_eq!(out.stdout, "");
    assert_eq!(
        out.stderr,
        format!(
            "{invalid}: 1 violation(s)\n  - unknown device \"nope\" (known: quadro, a100, gh200)\n"
        )
    );
    fs::remove_dir_all(&dir).ok();
}

const PRINT_SPEC: &str = r#"{
  "description": "",
  "device": "a100",
  "device_index": 0,
  "hostname": "simnode",
  "frequencies": [
    705,
    1410
  ],
  "seed": 0,
  "rse_threshold": 0.05,
  "min_measurements": 25,
  "max_measurements": 150,
  "simulated_sms": 8,
  "workload": "paper-default"
}
"#;

const LIST_DEVICES: &str = "\
name                         device  ladder [MHz]  steps  mem ladder [MHz]  mem steps  units                   aliases
----------------------------------------------------------------------------------------------------------------------
quadro       NVIDIA Quadro RTX 6000      315-2100    120          405-7001          5      1  rtx6000, quadro-rtx-6000
a100          NVIDIA A100-SXM4-40GB      210-1410     81          810-1215          3      4                 a100-sxm4
gh200   NVIDIA GH200 (Grace Hopper)      345-1980    110         1593-2619          3      1              grace-hopper

  quadro: RTX Quadro 6000 (Turing): target-owned latency regimes, slow 930/990 MHz columns
  a100: A100-SXM4 (Ampere): tight unimodal transitions; 4 per-unit variants
  gh200: GH200 (Hopper): fast baseline, slow multi-modal 1260/1875 MHz target columns
";

const LIST_WORKLOADS: &str = "\
name                                                                              description
---------------------------------------------------------------------------------------------
paper-default  the paper's arithmetic microbenchmark (~100 us iterations at 1 GHz, 1 % noise)
memory-bound       short arithmetic block + 45 us DRAM stall (in memory cycles) per iteration
bursty                                   noisy iterations with frequent 5x disturbance spikes

";

#[test]
fn listings_and_print_spec_are_pinned() {
    for (args, expected) in [
        (
            &["print-spec", "--model", "a100", "705,1410"][..],
            PRINT_SPEC,
        ),
        (&["list-devices"][..], LIST_DEVICES),
        (&["list-workloads"][..], LIST_WORKLOADS),
    ] {
        let out = latest(args);
        assert_eq!(out.code, 0, "{args:?}");
        assert_eq!(out.stdout, expected, "{args:?}");
        assert_eq!(out.stderr, "", "{args:?}");
    }
}

const TINY_RUN: &[&str] = &[
    "run", "--model", "a100", "--min", "3", "--max", "6", "705,1410",
];
const TINY_RUN_ID: &str = "run-fa98d06f32c80a9e9005d669d0f3d0dd";

const TINY_SUMMARY: &str = "\
init[MHz]  target[MHz]  n  min[ms]  mean[ms]  max[ms]  outliers  status
-----------------------------------------------------------------------
705               1410  6    9.763    12.819   18.718         0      ok
1410               705  6    4.925     6.052    6.808         0      ok

";

const TINY_SELF_DIFF: &str = "\
init[MHz]  target[MHz]  mean A[ms]  mean B[ms]  delta[ms]  p-value    verdict
-----------------------------------------------------------------------------
705               1410      12.819      12.819     +0.000   1.0000  unchanged
1410               705       6.052       6.052     +0.000   1.0000  unchanged

mean switching-latency delta [ms] (NVIDIA A100-SXM4-40GB -> NVIDIA A100-SXM4-40GB)
init\\tgt |     705    1410
--------------------------
     705 |       -    0.00
    1410 |    0.00       -

";

/// Archive the tiny campaign into `store`.
fn archive_tiny_run(store: &str) -> Outcome {
    let mut args = TINY_RUN.to_vec();
    args.extend(["--store", store]);
    latest(&args)
}

#[test]
fn run_archive_report_and_diff_round_trip() {
    let dir = temp_dir("archive");
    let store = dir.join("store");
    let store = path_str(&store);

    let first = archive_tiny_run(store);
    assert_eq!(first.code, 0, "{}", first.stderr);
    assert_eq!(first.stdout, TINY_SUMMARY);
    assert_eq!(
        first.first_err(),
        "benchmarking NVIDIA A100-SXM4-40GB (device 0), 2 frequencies, 2 ordered pairs"
    );

    let rerun = archive_tiny_run(store);
    assert_eq!(rerun.code, 0);
    assert_eq!(rerun.stdout, TINY_SUMMARY);
    assert_eq!(
        rerun.first_err(),
        format!(
            "cache hit: serving archived run {TINY_RUN_ID} from {store} \
             (pass --force to re-measure)"
        )
    );

    let ids = latest(&["list-runs", "--store", store, "--ids"]);
    assert_eq!(ids.code, 0);
    assert_eq!(ids.stdout, format!("{TINY_RUN_ID}\n"));
    assert_eq!(ids.stderr, "");

    let bundle = dir.join("bundle");
    let bundle = path_str(&bundle);
    let report = latest(&["report", TINY_RUN_ID, "--store", store, "--out", bundle]);
    assert_eq!(report.code, 0, "{}", report.stderr);
    assert_eq!(report.stdout, "");
    assert_eq!(
        report.first_err(),
        format!(
            "rendered {TINY_RUN_ID} (a100 on NVIDIA A100-SXM4-40GB, seed 0): 30 files in {bundle}"
        )
    );

    let diff = latest(&[
        "diff",
        TINY_RUN_ID,
        "--against",
        TINY_RUN_ID,
        "--store",
        store,
    ]);
    assert_eq!(diff.code, 0, "{}", diff.stderr);
    assert_eq!(diff.stdout, TINY_SELF_DIFF);
    assert_eq!(diff.first_err(), format!("A: {TINY_RUN_ID} (seed 0)"));

    assert_input_error(
        &["report", "run-0000", "--store", store],
        "error: run run-0000… is not in the archive",
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn prune_zero_is_a_usage_error_that_keeps_the_store() {
    let dir = temp_dir("prune");
    let store = dir.join("store");
    let store = path_str(&store);
    assert_eq!(archive_tiny_run(store).code, 0);
    assert_usage_error(
        &["list-runs", "--store", store, "--prune", "0"],
        "--prune must be at least 1",
        &top_usage(),
    );
    let ids = latest(&["list-runs", "--store", store, "--ids"]);
    assert_eq!(ids.stdout, format!("{TINY_RUN_ID}\n"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_with_zero_workers_is_a_usage_error() {
    let dir = temp_dir("workers");
    let queue = dir.join("queue");
    assert_usage_error(
        &[
            "queue",
            "serve",
            "--dir",
            path_str(&queue),
            "--workers",
            "0",
            "--drain",
        ],
        "--workers must be at least 1",
        &queue_usage(),
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_status_on_an_empty_queue() {
    let dir = temp_dir("status");
    let queue = dir.join("queue");
    let out = latest(&["queue", "status", "--dir", path_str(&queue)]);
    assert_eq!(out.code, 0, "{}", out.stderr);
    assert_eq!(
        out.stdout,
        "job  priority  state  work  detail\n----------------------------------\n\n"
    );
    assert_eq!(
        out.first_err(),
        "0 job(s): 0 settled, 0 pending, 0 failed/cancelled"
    );
    fs::remove_dir_all(&dir).ok();
}

/// The governor's latency table is keyed by core clocks alone, so every
/// pair of a memory-plane run is skipped and counted (never merged into a
/// core cell), and the empty table that leaves is an input error.
#[test]
fn govern_skips_memory_plane_pairs_and_rejects_the_empty_table() {
    let dir = temp_dir("govern_mem");
    let store = dir.join("store");
    let store = path_str(&store);
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/mem_plane_spec.json"
    );
    let run = latest(&["run", spec, "--store", store]);
    assert_eq!(run.code, 0, "{}", run.stderr);

    let out = latest(&["govern", "run", "steady", "--table", spec, "--store", store]);
    assert_eq!(out.code, 2, "{}", out.stderr);
    assert_eq!(out.stdout, "");
    let id = "run-40fa3fcbf6a657f4ac93e35d7785bcc7";
    assert_eq!(
        out.stderr,
        format!(
            "note: 12 pairs skipped (0 power-limited, 0 indistinguishable, \
             0 retries-exhausted, 0 cancelled, 0 empty after filtering, \
             12 with a memory clock) ({id})\n\
             error: {id} yields an empty latency table\n"
        )
    );
    fs::remove_dir_all(&dir).ok();
}
