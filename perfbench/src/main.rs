//! The repository's benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_table2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Every run sets its inputs up, runs one
//! untimed warm-up iteration that later iterations are checked against,
//! then repeats the workload until `--seconds` have passed, timing a few
//! more set-ups before each iteration (their median is `setup_s`). With
//! `--trace 1` untraced and traced iterations alternate: the traced ones
//! give the per-layer metrics, the difference between the two is the
//! tracing overhead. End-to-end timings are reported at a reference host
//! speed, measured by a calibration loop run between the timed operations
//! (see `calib.rs`). The last line of
//! standard output is one JSON object; human-readable lines precede it.
//! The exit code is 0 only when every correctness check passed.
//! `perfbench/METRICS.md` defines every metric.

mod archive;
mod calib;
mod campaign;
mod host;
mod rng;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use calib::Meter;
use trace::Tracer;

/// Per-layer values of one traced iteration: scalars, plus samples pooled
/// across traced iterations before a percentile is taken.
#[derive(Debug, Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// What one iteration of a workload produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Wall time of the iteration's timed work (s).
    pub wall_s: f64,
    /// Frequency pairs measured or processed, and the seconds they took.
    pub pairs: f64,
    pub pairs_s: f64,
    /// Jobs served cold, and the seconds they took.
    pub jobs: f64,
    pub jobs_s: f64,
    /// Per-job turnaround samples (ms).
    pub turnaround_ms: Vec<f64>,
    /// Operations attempted, and a description of each that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Exact counts, identical across iterations of one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// The iteration's output, compared byte for byte across iterations.
    pub output: String,
    /// Per-layer values (traced iterations only).
    pub layers: Layers,
}

impl Iteration {
    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Output quality of a seed's inputs: deterministic, so computed once.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// Median relative error of the filter's inlier measurements against
    /// ground truth (%).
    pub gt_error_pct: f64,
    /// Mean absolute percentage error of k-fold validated predictions.
    pub cv_mape: f64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Set-ups timed before each timed iteration (their median is
    /// `setup_s`).
    const SETUP_REPEATS: usize;

    /// Build the inputs for `seed` under the scratch directory `dir`.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// Run the timed work once; spans go to `tracer` when one is given.
    fn iterate(
        &mut self,
        meter: &Arc<Meter>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Iteration, String>;

    /// Output quality, computed after the warm-up iteration.
    fn quality(&mut self) -> Result<Quality, String>;

    /// Traced-run work outside the timed loop, such as a direct replay
    /// that attributes work the program does on its own threads.
    fn traced_extras(&mut self, _tracer: &Arc<Tracer>, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }
}

/// End-to-end metrics, in output order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("pairs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("turnaround_ms_p50", "ms"),
    ("turnaround_ms_p75", "ms"),
    ("gt_error_pct_p50", "%"),
    ("predict_cv_mape", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer metric is reduced from traced iterations.
enum Reduce {
    /// Median over traced iterations of a per-iteration value.
    Value,
    /// Median of samples pooled across traced iterations.
    Median(&'static str),
    /// Tail percentile of pooled samples (withheld without 10 beyond it).
    Tail(&'static str, f64),
}

/// Per-layer metrics, in output order, with units.
const PER_LAYER: &[(&str, &str, Reduce)] = &[
    ("gpu-sim.kernel_ms", "ms", Reduce::Value),
    ("gpu-sim.kernels", "count", Reduce::Value),
    ("gpu-sim.iterations", "count", Reduce::Value),
    ("gpu-sim.ns_per_iter", "ns", Reduce::Value),
    ("nvml-sim.control_ms", "ms", Reduce::Value),
    ("nvml-sim.calls", "count", Reduce::Value),
    ("clock-sync.ms", "ms", Reduce::Value),
    ("clock-sync.calls", "count", Reduce::Value),
    ("core.phase1_ms", "ms", Reduce::Value),
    ("core.probe_ms", "ms", Reduce::Value),
    ("core.pair_ms_p50", "ms", Reduce::Median("core.pair_ms")),
    ("core.pair_ms_p90", "ms", Reduce::Tail("core.pair_ms", 0.9)),
    ("core.controller_self_ms", "ms", Reduce::Value),
    ("core.passes", "count", Reduce::Value),
    ("core.measurements", "count", Reduce::Value),
    ("core.useful_pass_ratio", "ratio", Reduce::Value),
    ("core.session_busy_ratio", "ratio", Reduce::Value),
    ("core.analysis_ms", "ms", Reduce::Value),
    ("core.analysis_samples", "count", Reduce::Value),
    ("core.analysis_kept_ratio", "ratio", Reduce::Value),
    ("predict.corpus_ms", "ms", Reduce::Value),
    ("predict.pooled_samples", "count", Reduce::Value),
    ("predict.outliers_rejected", "count", Reduce::Value),
    ("predict.fit_ms", "ms", Reduce::Value),
    ("predict.cv_ms", "ms", Reduce::Value),
    (
        "core.store_put_ms_p50",
        "ms",
        Reduce::Median("core.store_put_ms"),
    ),
    (
        "core.store_get_ms_p50",
        "ms",
        Reduce::Median("core.store_get_ms"),
    ),
    ("core.store_bytes", "B", Reduce::Value),
    (
        "queue.submit_ms_p50",
        "ms",
        Reduce::Median("queue.submit_ms"),
    ),
    ("queue.wait_ms_p50", "ms", Reduce::Median("queue.wait_ms")),
    ("queue.exec_ms_p50", "ms", Reduce::Median("queue.exec_ms")),
    ("queue.shards", "count", Reduce::Value),
    ("queue.cache_hits", "count", Reduce::Value),
    ("queue.coalesced", "count", Reduce::Value),
    ("queue.failed", "count", Reduce::Value),
    ("queue.pool_utilisation", "ratio", Reduce::Value),
    ("telemetry.dropped_events", "count", Reduce::Value),
    ("report.bundle_ms", "ms", Reduce::Value),
    ("report.files", "count", Reduce::Value),
    ("report.bytes", "B", Reduce::Value),
    ("governor.matrix_ms", "ms", Reduce::Value),
    ("governor.requests", "count", Reduce::Value),
    ("trace.overhead_ms", "ms", Reduce::Value),
    ("trace.other_ms", "ms", Reduce::Value),
];

/// Timed iterations a run makes at least, whatever `--seconds` says: the
/// pooled turnaround samples need them for their p75.
const MIN_ITERATIONS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 31403;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("scenarios").join("table2.json").is_file() {
        eprintln!("perfbench: run from the repository root (scenarios/table2.json not found)");
        return ExitCode::from(2);
    }
    let stamp = host::Stamp::collect(&root);
    println!("# host {}", stamp.line());
    let out_dir = root.join(".bench_out");
    let work = out_dir.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = match args.workload.as_str() {
        "campaign_table2" => run::<campaign::Table2>(&args, &work),
        "service_drain" => run::<service::ServiceDrain>(&args, &work),
        "archive_pipeline" => run::<archive::ArchivePipeline>(&args, &work),
        other => Err(format!(
            "unknown workload {other} (campaign_table2, service_drain, archive_pipeline)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    settle(&out_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match report.write_trace(&path, &stamp, &args) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    report.print(&args);
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Everything one run measured.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-metric raw values behind each median, for the human-readable
    /// lines (spread and n).
    raw: BTreeMap<&'static str, Vec<f64>>,
    /// Every time the calibration loop took (s).
    loop_times: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<(usize, trace::Span)>,
    platforms: Vec<(usize, String, trace::PlatformCounts)>,
}

fn run<W: Workload>(args: &Args, work: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    settle(work);
    let meter = Arc::new(Meter::new());

    let mut workload = W::setup(args.seed, &work.join("inputs"))?;

    // Warm-up: the reference every later iteration is checked against.
    let reference = workload.iterate(&meter, None)?;
    let quality = workload.quality()?;

    // Set-up is timed again before every timed iteration, so its median
    // sees the whole run's conditions rather than one instant of it (and
    // not the cold process the first set-up ran in). These instances are
    // discarded. Set-up runs on this thread, so its times are scaled to
    // the reference host speed on every workload.
    let mut setups = Vec::new();
    let mut time_setups = |n: usize| -> Result<(), String> {
        meter.sample();
        let mut spans = Vec::with_capacity(W::SETUP_REPEATS);
        for i in 0..W::SETUP_REPEATS {
            let dir = work.join(format!("setup-{n}-{i}"));
            let start = Instant::now();
            let again = W::setup(args.seed, &dir)?;
            spans.push((start, Instant::now()));
            drop(again);
            let _ = std::fs::remove_dir_all(&dir);
        }
        meter.sample();
        let scale = meter.scale();
        setups.extend(spans.iter().map(|&(from, to)| scale.of(from, to)));
        Ok(())
    };
    let mut attempted = reference.attempted;
    let mut failures = reference.failures.clone();

    let tracer = Tracer::new();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut traced_counts: Option<BTreeMap<&'static str, u64>> = None;
    let mut spans = Vec::new();
    let mut platforms = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let enough = |u: &Vec<Iteration>, t: &Vec<Iteration>| {
        u.len() >= MIN_ITERATIONS && (!args.trace || t.len() >= MIN_ITERATIONS)
    };
    let mut n = 0usize;
    while Instant::now() < deadline || !enough(&untraced, &traced) {
        let is_traced = args.trace && n % 2 == 1;
        n += 1;
        time_setups(n)?;
        let mut it = match workload.iterate(&meter, is_traced.then_some(&tracer)) {
            Ok(it) => it,
            Err(e) => {
                attempted += 1;
                failures.push(e);
                break;
            }
        };
        it.check(it.output == reference.output, || {
            format!("iteration {n} output differs from the warm-up iteration's")
        });
        for (name, value) in &reference.counts {
            let got = it.counts.get(name).copied();
            it.check(got == Some(*value), || {
                format!("iteration {n}: count {name} is {got:?}, warm-up had {value}")
            });
        }
        attempted += it.attempted;
        failures.append(&mut it.failures);
        if is_traced {
            // Layer counts must repeat exactly across traced iterations.
            let counts: BTreeMap<&'static str, u64> = it
                .layers
                .values
                .iter()
                .filter(|(name, _)| unit_of(name) == Some("count"))
                .map(|(name, v)| (*name, *v as u64))
                .collect();
            match &traced_counts {
                None => traced_counts = Some(counts),
                Some(first) => {
                    attempted += 1;
                    if first != &counts {
                        failures.push(format!(
                            "traced iteration {n}: layer counts {counts:?} differ from {first:?}"
                        ));
                    }
                }
            }
            let (s, p) = tracer.take();
            spans.extend(s.into_iter().map(|s| (n, s)));
            platforms.extend(p.into_iter().map(|(t, c)| (n, t, c)));
            traced.push(it);
        } else {
            untraced.push(it);
        }
    }

    let mut extra = Layers::default();
    if args.trace {
        workload.traced_extras(&tracer, &mut extra)?;
        let (s, p) = tracer.take();
        spans.extend(s.into_iter().map(|s| (0, s)));
        platforms.extend(p.into_iter().map(|(t, c)| (0, t, c)));
    }

    let mut raw: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let per = |f: &dyn Fn(&Iteration) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
    raw.insert("wall_s", per(&|i| i.wall_s));
    raw.insert("pairs_per_s", per(&|i| i.pairs / i.pairs_s));
    raw.insert("jobs_per_s", per(&|i| i.jobs / i.jobs_s));
    let turnaround: Vec<f64> = untraced
        .iter()
        .flat_map(|i| i.turnaround_ms.iter().copied())
        .collect();
    raw.insert("setup_s", setups);

    let mut metrics = Vec::new();
    let mut missing = |name: &str| failures.push(format!("metric {name} could not be computed"));
    if args.trace {
        let wall_untraced = stats::median(&raw["wall_s"]).unwrap_or(f64::NAN);
        for (name, unit, reduce) in PER_LAYER {
            let value = match reduce {
                Reduce::Value => match *name {
                    "trace.overhead_ms" => {
                        let wall_traced =
                            stats::median(&traced.iter().map(|i| i.wall_s).collect::<Vec<_>>());
                        wall_traced.map(|t| (t - wall_untraced) * 1e3)
                    }
                    _ => {
                        let values: Vec<f64> = traced
                            .iter()
                            .map(|i| i.layers.values.get(name).copied().unwrap_or(0.0))
                            .collect();
                        let value = stats::median(&values).unwrap_or(0.0);
                        Some(value + extra.values.get(name).copied().unwrap_or(0.0))
                    }
                },
                Reduce::Median(key) | Reduce::Tail(key, _) => {
                    let mut pooled: Vec<f64> = traced
                        .iter()
                        .flat_map(|i| i.layers.samples.get(key).into_iter().flatten().copied())
                        .collect();
                    pooled.extend(extra.samples.get(key).into_iter().flatten().copied());
                    if pooled.is_empty() {
                        // The layer does not run on this workload.
                        Some(0.0)
                    } else if let Reduce::Tail(_, p) = reduce {
                        stats::tail_percentile(&pooled, *p)
                    } else {
                        stats::median(&pooled)
                    }
                }
            };
            match value {
                Some(v) if v.is_finite() => metrics.push((*name, *unit, v)),
                _ => missing(name),
            }
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match *name {
                "turnaround_ms_p50" => stats::median(&turnaround),
                "turnaround_ms_p75" => stats::tail_percentile(&turnaround, 0.75),
                "gt_error_pct_p50" => Some(quality.gt_error_pct),
                "predict_cv_mape" => Some(quality.cv_mape),
                "peak_rss_mb" => host::peak_rss_mb(),
                _ => stats::median(&raw[name]),
            };
            match value {
                Some(v) if v.is_finite() && v > 0.0 => metrics.push((*name, *unit, v)),
                _ => missing(name),
            }
        }
    }
    raw.insert("turnaround_ms_p50", turnaround);

    Ok(Report {
        metrics,
        raw,
        loop_times: meter.loop_times(),
        attempted,
        failures,
        spans,
        platforms,
    })
}

/// Commit the file system's pending changes by syncing `dir`, so that a
/// run neither waits out an earlier run's clean-up (the disk discards the
/// blocks deleted files freed) nor leaves its own to the next run.
fn settle(dir: &Path) {
    let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
}

fn unit_of(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

impl Report {
    fn print(&self, args: &Args) {
        for failure in &self.failures {
            println!("# FAILED: {failure}");
        }
        if let Some(loop_s) = stats::median(&self.loop_times) {
            println!(
                "# {} calibration loop = {:.4} ms (reference {} ms, min {:.4}, max {:.4}, n={}); timings below are scaled to the reference",
                args.workload,
                loop_s * 1e3,
                calib::REFERENCE_S * 1e3,
                self.loop_times.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
                self.loop_times.iter().copied().fold(0.0, f64::max) * 1e3,
                self.loop_times.len()
            );
        }
        for (name, unit, value) in &self.metrics {
            let detail = self
                .raw
                .get(name)
                .map(|xs| {
                    let spread = stats::relative_iqr(xs)
                        .map(|s| format!("{:.1}%", s * 100.0))
                        .unwrap_or_else(|| "-".to_string());
                    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    format!(
                        "  (iqr/median {spread}, n={}, min {lo:.6}, max {hi:.6})",
                        xs.len()
                    )
                })
                .unwrap_or_default();
            println!("# {} {name} = {value} {unit}{detail}", args.workload);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
    }

    /// Write every span and platform aggregate, with the host stamp.
    fn write_trace(&self, path: &Path, stamp: &host::Stamp, args: &Args) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"host\": {},\n  \"spans\": [",
            args.workload,
            args.seed,
            stamp.json()
        );
        for (i, (iteration, s)) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| format!("\"{p}\""))
                .unwrap_or("null".into());
            let _ = write!(
                out,
                "{}\n    {{\"iteration\": {iteration}, \"name\": \"{}\", \"trace\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.trace,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ],\n  \"platforms\": [");
        for (i, (iteration, t, c)) in self.platforms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"iteration\": {iteration}, \"trace\": \"{t}\", \"kernel_ns\": {}, \"kernels\": {}, \"iterations\": {}, \"nvml_ns\": {}, \"nvml_calls\": {}, \"sync_ns\": {}, \"sync_calls\": {}}}",
                if i == 0 { "" } else { "," },
                c.kernel_ns,
                c.kernels,
                c.iterations,
                c.nvml_ns,
                c.nvml_calls,
                c.sync_ns,
                c.sync_calls
            );
        }
        out.push_str("\n  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
