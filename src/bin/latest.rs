//! `latest` — the command-line benchmarking tool of Sec. VI, over the
//! simulated CUDA substrate.
//!
//! Experiments are *data*: a scenario file (JSON [`CampaignSpec`] or
//! [`FleetSpec`]) fully describes a campaign, and the legacy flag interface
//! compiles to exactly the same spec — `print-spec` shows the effective
//! spec for any invocation, and re-running that output reproduces the run
//! bit for bit.
//!
//! ```text
//! latest run scenarios/table2.json --json
//! latest run --model gh200 --rse 0.05 --min 25 --max 150 705,1260,1980
//! latest run big_sweep.json --checkpoint sweep.ckpt.json   # resumes on restart
//! latest validate scenarios/fleet_sweep.json
//! latest print-spec --model a100 --seed 7 705,1410
//! latest list-devices
//! latest 705,1095,1410          # legacy shorthand for `run`
//! ```
//!
//! After each pair, latencies are written to
//! `latest_{init}MHz_{target}MHz_{hostname}_gpu{index}.csv` in the output
//! directory, exactly as the paper describes; fleet runs write a
//! cross-device `fleet_summary.csv` instead.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use latest::core::output::write_pair_csv;
use latest::core::spec::{CampaignSpec, FleetSpec, ScenarioSpec, SpecCheckpoint, SpecErrors};
use latest::core::store::{ResultStore, StoreError, StoredRun};
use latest::core::{CampaignEvent, CampaignResult, CampaignSession, FleetResult, PairOutcome};
use latest::governor::{
    make_policy, replay_seed, scorecards_to_json, DaemonConfig, GovernorDaemon, LatencyTable,
    PowerModel, Scorecard, TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::gpu_sim::devices::DeviceRegistry;
use latest::gpu_sim::sm::WorkloadRegistry;
use latest::predict::{
    build_corpora, closed_loop_validate, corpus_for_device, cross_validate, family_matches,
    parse_batch_pairs, serve_batch, PredictModel, PredictedTable,
};
use latest::queue::{
    EventLog, EventTail, JobId, JobQueue, JobState, PoolConfig, ProgressFormatter, QueueEvent,
    SubmitOptions, WorkerPool,
};
use latest::report::{
    campaign_summary_table, cross_device_table, energy_heatmap, missed_rate_heatmap,
    policy_scorecard_table, stage_latency_table, Artifact, Bundle, CampaignDiff, CrossDeviceRow,
    Format, PolicyScoreRow, TextTable,
};
use latest::telemetry::{ClockSpec, Stage, TelemetrySnapshot};
use latest::traffic::{TrafficRegistry, TrafficSpec};

const USAGE: &str = "\
usage: latest <command> [options]
       latest [OPTIONS] <freq,freq,...>         (legacy shorthand for `run`)

Benchmark the SM frequency switching latency of simulated CUDA GPUs, and
maintain an archive of the results.

commands:
  run [<spec.json>] [options] [<freq,freq,...>]
                       run a campaign (or fleet) described by a scenario
                       file, by flags, or by a file with flag overrides
  report <run-id|spec.json> [--store <dir>] [--out <dir>]
                       render a stored run's complete artefact bundle
                       (figures, tables, EXPERIMENTS.md in all formats)
  diff <a> <b> | diff <a> --against <b>
                       per-pair latency deltas between two stored runs with
                       Mann-Whitney significance; exits 1 on significant
                       regressions
  list-runs [--store <dir>] [--ids] [--family <prefix>] [--prune <n>]
                       enumerate the archive with spec provenance; --family
                       filters to one experiment family; --prune keeps only
                       the latest n >= 1 runs per family
  queue <submit|serve|status|stats|cancel|watch> [...]
                       the campaign execution service (see `latest queue help`)
  govern <run|list-policies|list-traffic> [...]
                       score governor policies against synthetic traffic
                       using an archived latency table (see `latest govern help`)
  predict <fit|query|validate> [...]
                       fit latency models over the archive and serve pairs
                       nobody measured (see `latest predict help`)
  validate <spec.json> check a scenario file, listing every violation
  print-spec [...]     print the effective spec for any run invocation
  list-devices         enumerate the device registry
  list-workloads       enumerate the workload presets
  help                 print this message

run/print-spec options (flags override scenario-file fields; for fleet
specs, overrides apply to every member):
  --model <name>       gpu model (see `latest list-devices`)
  --device <index>     device unit index                     [0]
  --rse <fraction>     RSE stopping threshold                [0.05]
  --min <count>        measurements before RSE checks begin  [25]
  --max <count>        hard cap on measurements per pair     [150]
  --seed <u64>         simulation seed                       [0]
  --hostname <name>    hostname used in CSV file names       [simnode]
  --sms <count>        simulated SM record streams           [8]
  --workload <name>    workload preset (see list-workloads)  [paper-default]

run-only options:
  --out <dir>          per-pair CSVs (campaign) or fleet_summary.csv (fleet)
  --store <dir>        archive the finished result(s) into this result
                       store (fleet members are stored per slot); when the
                       effective spec's run is already archived, the stored
                       summary is served and execution is skipped
  --force              re-measure even when --store already holds an
                       archived run of the effective spec
  --json               emit the full result as JSON on stdout
  --progress           stream per-pair progress events to stderr
  --checkpoint <path>  persist a resumable checkpoint to this file while
                       running, and resume from it when it already exists
                       (single-campaign specs only)
  --checkpoint-every <n>  pairs between checkpoint writes    [5]

report/diff/list-runs options:
  --store <dir>        the result store to read               [latest-store]
  --out <dir>          output directory (report: the bundle; diff: the
                       delta heatmap + regression table in all formats)
  --alpha <p>          diff significance level                [0.05]
  --family <prefix>    list-runs: only runs whose experiment family id
                       starts with this prefix (with or without `run-`)

Run targets for report/diff are either archived run ids (`run-<hex>`, any
unambiguous prefix of at least 4 digits) or campaign scenario files, which
resolve to the archived run of that exact spec.

exit status (every command):
  0                    ok
  1                    runtime failure, or a significant regression in `diff`
  2                    usage or input error
  3                    `queue status` while jobs are still pending
";

// ---------------------------------------------------------------------------
// the front end: one error type, one reporter, one flag cursor

/// Why a command stopped short. Commands return it; [`report`] prints it
/// and picks the exit status, so every command keeps the same contract.
enum CliError {
    /// A malformed invocation: `error: …` and the command group's usage
    /// text on stderr, exit 2. An empty message asks for help: the usage
    /// text on stdout, exit 0.
    Usage(&'static str, String),
    /// Unusable input (an unreadable or invalid file, an unknown run or
    /// job id, a store that cannot be opened): exit 2.
    Input(String),
    /// A runtime failure: exit 1.
    Failed(String),
}

use CliError::{Failed, Input};

/// What a command returns: its exit status, or why it stopped.
type CliResult = Result<ExitCode, CliError>;

fn usage(text: &'static str, msg: impl Into<String>) -> CliError {
    CliError::Usage(text, msg.into())
}

fn report(err: CliError) -> ExitCode {
    let (code, msg) = match err {
        CliError::Usage(text, msg) if msg.is_empty() => {
            print!("{text}");
            return ExitCode::SUCCESS;
        }
        CliError::Usage(text, msg) => (2, format!("{msg}\n\n{text}")),
        Input(msg) => (2, msg),
        Failed(msg) => (1, msg),
    };
    eprintln!("error: {msg}");
    ExitCode::from(code)
}

/// One argument as [`Args`] yields it.
enum Arg<'a> {
    Flag(&'a str),
    Positional(&'a str),
}

use Arg::{Flag, Positional};

/// A cursor over one command group's arguments. It yields flags and
/// positionals, turns `--help`/`-h` into a help request, and reads the
/// current flag's value with uniform error messages.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
    usage: &'static str,
}

impl<'a> Args<'a> {
    fn new(raw: &'a [String], usage: &'static str) -> Self {
        Args {
            rest: raw.iter(),
            flag: "",
            usage,
        }
    }

    fn next(&mut self) -> Result<Option<Arg<'a>>, CliError> {
        let Some(arg) = self.rest.next() else {
            return Ok(None);
        };
        Ok(Some(match arg.as_str() {
            "--help" | "-h" => return Err(self.error("")),
            flag if flag.starts_with('-') => {
                self.flag = flag;
                Flag(flag)
            }
            positional => Positional(positional),
        }))
    }

    /// The current flag's value: the next argument, whatever it looks like.
    fn value(&mut self) -> Result<String, CliError> {
        let value = self.rest.next().cloned();
        value.ok_or_else(|| self.error(format!("missing value for {}", self.flag)))
    }

    /// The current flag's value, parsed.
    fn parse<T: FromStr>(&mut self) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        let text = self.value()?;
        text.parse()
            .map_err(|e| self.error(format!("{}: {e}", self.flag)))
    }

    /// A usage error against this group's usage text.
    fn error(&self, msg: impl Into<String>) -> CliError {
        usage(self.usage, msg)
    }

    fn unknown(&self) -> CliError {
        self.error(format!("unknown option {}", self.flag))
    }
}

/// Read a JSON document and parse it; either failure names the file.
fn read_json<T, E: Display>(
    path: impl AsRef<Path>,
    from_json: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let path = path.as_ref();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn parse_freq_list(text: &str) -> Result<Vec<u32>, String> {
    let mut freqs = Vec::new();
    for part in text.split(',') {
        let mhz: u32 = part
            .trim()
            .parse()
            .map_err(|_| format!("bad frequency {part:?} in list"))?;
        freqs.push(mhz);
    }
    Ok(freqs)
}

/// Write an artefact bundle, returning the files written.
fn write_bundle(bundle: &Bundle, dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    bundle
        .write_to(dir)
        .map_err(|e| Failed(format!("writing bundle: {e}")))
}

// ---------------------------------------------------------------------------
// run arguments and the effective spec

#[derive(Default)]
struct RunArgs {
    spec_path: Option<PathBuf>,
    frequencies: Option<Vec<u32>>,
    model: Option<String>,
    device_index: Option<usize>,
    rse: Option<f64>,
    min: Option<usize>,
    max: Option<usize>,
    seed: Option<u64>,
    hostname: Option<String>,
    sms: Option<u32>,
    workload: Option<String>,
    out_dir: Option<PathBuf>,
    store: Option<PathBuf>,
    force: bool,
    json: bool,
    progress: bool,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
}

fn parse_run_args(raw: &[String]) -> Result<RunArgs, CliError> {
    let mut out = RunArgs {
        checkpoint_every: 5,
        ..RunArgs::default()
    };
    let mut args = Args::new(raw, USAGE);
    while let Some(arg) = args.next()? {
        match arg {
            Flag("--model") => out.model = Some(args.value()?),
            Flag("--device") => out.device_index = Some(args.parse()?),
            Flag("--rse") => out.rse = Some(args.parse()?),
            Flag("--min") => out.min = Some(args.parse()?),
            Flag("--max") => out.max = Some(args.parse()?),
            Flag("--seed") => out.seed = Some(args.parse()?),
            Flag("--hostname") => out.hostname = Some(args.value()?),
            Flag("--sms") => out.sms = Some(args.parse()?),
            Flag("--workload") => out.workload = Some(args.value()?),
            Flag("--out") => out.out_dir = Some(args.parse()?),
            Flag("--store") => out.store = Some(args.parse()?),
            Flag("--force") => out.force = true,
            Flag("--json") => out.json = true,
            Flag("--progress") => out.progress = true,
            Flag("--checkpoint") => out.checkpoint = Some(args.parse()?),
            Flag("--checkpoint-every") => out.checkpoint_every = args.parse()?,
            Flag(_) => return Err(args.unknown()),
            // A positional is either the scenario file or the legacy
            // frequency list.
            Positional(p) if p.ends_with(".json") || Path::new(p).is_file() => {
                if out.spec_path.is_some() {
                    return Err(args.error("multiple scenario files given"));
                }
                out.spec_path = Some(PathBuf::from(p));
            }
            Positional(p) => {
                if out.frequencies.is_some() {
                    return Err(args.error("multiple frequency lists given"));
                }
                out.frequencies = Some(parse_freq_list(p).map_err(|msg| args.error(msg))?);
            }
        }
    }
    Ok(out)
}

/// Compile the invocation — scenario file plus flag overrides, or flags
/// alone — into the effective spec. This is the single construction path:
/// the legacy interface has no behaviour of its own.
fn effective_spec(args: &RunArgs) -> Result<ScenarioSpec, CliError> {
    let mut scenario = match &args.spec_path {
        Some(path) => read_json(path, ScenarioSpec::from_json).map_err(|msg| usage(USAGE, msg))?,
        None => ScenarioSpec::Campaign(CampaignSpec::default()),
    };
    let apply = |spec: &mut CampaignSpec| {
        if let Some(freqs) = &args.frequencies {
            spec.frequencies = latest::core::FreqSelection::List(freqs.clone());
        }
        if let Some(model) = &args.model {
            spec.device = model.clone();
        }
        if let Some(index) = args.device_index {
            spec.device_index = index;
        }
        if let Some(rse) = args.rse {
            spec.rse_threshold = rse;
        }
        if let Some(min) = args.min {
            spec.min_measurements = min;
        }
        if let Some(max) = args.max {
            spec.max_measurements = max;
        }
        if let Some(seed) = args.seed {
            spec.seed = seed;
        }
        if let Some(hostname) = &args.hostname {
            spec.hostname = hostname.clone();
        }
        if let Some(sms) = args.sms {
            spec.simulated_sms = Some(sms);
        }
        if let Some(workload) = &args.workload {
            spec.workload = workload.clone();
        }
    };
    match &mut scenario {
        ScenarioSpec::Campaign(spec) => apply(spec),
        ScenarioSpec::Fleet(fleet) => fleet.members.iter_mut().for_each(apply),
    }
    if args.spec_path.is_none() && args.frequencies.is_none() {
        return Err(usage(
            USAGE,
            "need a scenario file or a comma-separated frequency list (see `latest help`)",
        ));
    }
    Ok(scenario)
}

/// A spec that does not resolve, with every violation listed.
fn invalid_spec(errors: SpecErrors) -> CliError {
    let mut msg = "invalid spec:".to_string();
    for e in errors.errors() {
        msg.push_str(&format!("\n  - {e}"));
    }
    Input(msg)
}

// ---------------------------------------------------------------------------
// subcommands

/// Describe a campaign's frequency plane: `"3 frequencies"` for a
/// core-only sweep, `"2 core x 3 memory frequencies"` for a 2-D one.
fn freq_plane(config: &latest::core::CampaignConfig) -> String {
    if config.mem_frequencies.is_empty() {
        format!("{} frequencies", config.frequencies.len())
    } else {
        format!(
            "{} core x {} memory frequencies",
            config.frequencies.len(),
            config.mem_frequencies.len()
        )
    }
}

fn cmd_validate(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err(usage(USAGE, "validate takes exactly one scenario file"));
    };
    let scenario = read_json(path, ScenarioSpec::from_json).map_err(Input)?;
    if let Err(errors) = scenario.validate() {
        eprintln!("{path}: {} violation(s)", errors.errors().len());
        for e in errors.errors() {
            eprintln!("  - {e}");
        }
        return Ok(ExitCode::from(2));
    }
    match &scenario {
        ScenarioSpec::Campaign(c) => {
            let config = c.resolve().expect("validated spec resolves");
            println!(
                "OK: {path}: campaign on {} ({}, {} ordered pairs)",
                config.spec.name,
                freq_plane(&config),
                config.ordered_state_pairs().len()
            );
        }
        ScenarioSpec::Fleet(f) => {
            println!(
                "OK: {path}: fleet of {} member campaign(s)",
                f.members.len()
            );
            for (i, member) in f.members.iter().enumerate() {
                let config = member.resolve().expect("validated member resolves");
                println!(
                    "  member {i}: {} ({}, {} ordered pairs)",
                    config.spec.name,
                    freq_plane(&config),
                    config.ordered_state_pairs().len()
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_print_spec(raw: &[String]) -> CliResult {
    let scenario = effective_spec(&parse_run_args(raw)?)?;
    println!("{}", scenario.to_json());
    Ok(ExitCode::SUCCESS)
}

fn cmd_list_devices() -> CliResult {
    let registry = DeviceRegistry::builtin();
    let mut table = TextTable::with_header(&[
        "name",
        "device",
        "ladder [MHz]",
        "steps",
        "mem ladder [MHz]",
        "mem steps",
        "units",
        "aliases",
    ]);
    for entry in registry.entries() {
        let spec = entry.make(0);
        table.row(&[
            entry.name().to_string(),
            spec.name.clone(),
            format!("{}-{}", spec.ladder.min().0, spec.ladder.max().0),
            spec.ladder.len().to_string(),
            format!("{}-{}", spec.mem_ladder.min().0, spec.mem_ladder.max().0),
            spec.mem_ladder.len().to_string(),
            entry.units().to_string(),
            entry.aliases().join(", "),
        ]);
    }
    println!("{}", table.render(Format::Text));
    for entry in registry.entries() {
        println!("  {}: {}", entry.name(), entry.description());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_list_workloads() -> CliResult {
    let registry = WorkloadRegistry::builtin();
    let mut table = TextTable::with_header(&["name", "description"]);
    for entry in registry.entries() {
        table.row(&[entry.name().to_string(), entry.description().to_string()]);
    }
    println!("{}", table.render(Format::Text));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// run

fn cmd_run(raw: &[String]) -> CliResult {
    let args = parse_run_args(raw)?;
    // No separate validation pass: resolve()/into_fleet() below report the
    // same exhaustive SpecErrors.
    match effective_spec(&args)? {
        ScenarioSpec::Campaign(spec) => run_campaign(spec, &args),
        ScenarioSpec::Fleet(spec) => run_fleet(spec, &args),
    }
}

fn run_campaign(spec: CampaignSpec, args: &RunArgs) -> CliResult {
    let config = spec.resolve().map_err(invalid_spec)?;
    let hostname = config.hostname.clone();
    let device_index = config.device_index;

    // Result-cache consult: the same semantics as the queue service — an
    // archived run of the identical effective spec is served without
    // recomputation unless --force asks for a re-measurement.
    if let Some(dir) = &args.store {
        if !args.force {
            match ResultStore::open(dir).and_then(|store| store.latest_for(&spec)) {
                Ok(Some(run)) => {
                    eprintln!(
                        "cache hit: serving archived run {} from {} (pass --force to re-measure)",
                        run.run_id,
                        dir.display()
                    );
                    return finish_campaign(&run.result, args, &hostname, device_index);
                }
                Ok(None) => {}
                // A torn or tampered entry is a cache miss, not a dead
                // end: re-measuring re-archives it (same semantics as the
                // queue service's cache consult).
                Err(e @ (StoreError::Parse { .. } | StoreError::Corrupt { .. })) => {
                    eprintln!("warning: archived entry is unreadable, re-measuring: {e}");
                }
                Err(e) => return Err(Input(format!("consulting result store: {e}"))),
            }
        }
    }

    eprintln!(
        "benchmarking {} (device {}), {}, {} ordered pairs",
        config.spec.name,
        config.device_index,
        freq_plane(&config),
        config.ordered_state_pairs().len()
    );

    let mut session = CampaignSession::new(config);
    if args.progress {
        let fmt = std::sync::Mutex::new(ProgressFormatter::new());
        session = session.observe(move |e: &CampaignEvent| {
            eprintln!("progress: {}", fmt.lock().unwrap().line(e));
        });
    }
    if let Some(path) = &args.checkpoint {
        if path.is_file() {
            let checkpoint = SpecCheckpoint::load(path).map_err(|e| {
                Input(format!(
                    "checkpoint {} is unreadable ({e}); delete it to start fresh",
                    path.display()
                ))
            })?;
            // The session validates device, seed and pair set itself, but
            // only the stored spec can reveal a knob mismatch (measurement
            // bounds, RSE, workload): refuse to mix configurations.
            if checkpoint.spec != spec {
                return Err(Input(format!(
                    "checkpoint {} was taken under a different spec; \
                     rerun with the original scenario/flags, or delete the \
                     checkpoint to start fresh",
                    path.display()
                )));
            }
            eprintln!(
                "resuming from checkpoint {} ({} of {} pairs already settled)",
                path.display(),
                checkpoint
                    .result
                    .pairs()
                    .iter()
                    .filter(|p| !p.outcome.is_cancelled())
                    .count(),
                checkpoint.result.pairs().len()
            );
            session = session.resume_from(checkpoint.result);
        }
        let sink_path = path.clone();
        let sink_spec = spec.clone();
        session = session.checkpoint_to(args.checkpoint_every, move |cp: &CampaignResult| {
            let doc = SpecCheckpoint {
                spec: sink_spec.clone(),
                result: cp.clone(),
            };
            if let Err(e) = doc.save(&sink_path) {
                eprintln!("warning: writing checkpoint {}: {e}", sink_path.display());
            }
        });
    }

    let result = session.run().map_err(|e| Failed(e.to_string()))?;

    eprintln!(
        "phase 1: {} valid pairs, {} skipped as indistinguishable",
        result.phase1.valid_pairs.len(),
        result.phase1.skipped_pairs.len()
    );

    if let Some(dir) = &args.store {
        let id = ResultStore::open(dir)
            .and_then(|store| store.put(&spec, &result))
            .map_err(|e| Failed(format!("archiving result: {e}")))?;
        eprintln!("archived as {id} in {}", dir.display());
    }
    finish_campaign(&result, args, &hostname, device_index)
}

/// The common output tail of `latest run` for campaigns, shared between a
/// fresh execution and a result served from the archive: summary table,
/// optional per-pair CSVs, optional JSON on stdout.
fn finish_campaign(
    result: &CampaignResult,
    args: &RunArgs,
    hostname: &str,
    device_index: usize,
) -> CliResult {
    let table = campaign_summary_table(result);
    let mut csv_files = 0usize;
    if let Some(dir) = &args.out_dir {
        for pair in result.pairs() {
            if let PairOutcome::Completed(run) = &pair.outcome {
                match write_pair_csv(dir, run, hostname, device_index) {
                    Ok(_) => csv_files += 1,
                    Err(e) => eprintln!(
                        "warning: writing CSV for {}->{}: {e}",
                        pair.init, pair.target
                    ),
                }
            }
        }
    }
    if args.json {
        // The serialisable result is the machine interface; the table stays
        // on stderr so `latest run --json | jq` composes cleanly.
        println!("{}", result.to_json());
        eprintln!("{}", table.body());
    } else {
        println!("{}", table.body());
    }
    if let Some(dir) = &args.out_dir {
        eprintln!("wrote {csv_files} CSV files to {}", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn run_fleet(spec: FleetSpec, args: &RunArgs) -> CliResult {
    if args.checkpoint.is_some() {
        return Err(Input(
            "--checkpoint supports single-campaign specs only".to_string(),
        ));
    }
    let n_members = spec.members.len();
    let member_specs = spec.members.clone();

    // Result-cache consult, same semantics as the single-campaign path
    // and the queue service: archived runs of *every* member satisfy the
    // fleet without recomputation unless --force asks for a re-measure.
    if let Some(dir) = &args.store {
        if !args.force {
            let archived = ResultStore::open(dir).and_then(|store| {
                let mut runs = Vec::new();
                for member in &member_specs {
                    match store.latest_for(member) {
                        Ok(Some(run)) => runs.push(run.result),
                        Ok(None) => return Ok(None),
                        // A torn or tampered member entry is a cache miss
                        // for the whole fleet: re-measuring re-archives it.
                        Err(e @ (StoreError::Parse { .. } | StoreError::Corrupt { .. })) => {
                            eprintln!("warning: archived entry is unreadable, re-measuring: {e}");
                            return Ok(None);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(Some(runs))
            });
            let archived = archived.map_err(|e| Input(format!("consulting result store: {e}")))?;
            if let Some(runs) = archived {
                eprintln!(
                    "cache hit: serving {n_members} archived member run(s) from {} \
                     (pass --force to re-measure)",
                    dir.display()
                );
                return finish_fleet(&FleetResult::from_devices(runs), args);
            }
        }
    }

    let fleet = spec.into_fleet().map_err(invalid_spec)?;
    eprintln!("benchmarking a fleet of {n_members} device(s)");
    let fleet = if args.progress {
        let fmts =
            std::sync::Mutex::new(std::collections::HashMap::<usize, ProgressFormatter>::new());
        fleet.observe(move |slot: usize, e: &CampaignEvent| {
            let mut fmts = fmts.lock().unwrap();
            let line = fmts.entry(slot).or_default().line(e);
            eprintln!("progress[device {slot}]: {line}");
        })
    } else {
        fleet
    };
    let result = fleet.run().map_err(|e| Failed(e.to_string()))?;
    if let Some(dir) = &args.store {
        // Members that were cancelled before starting have no result; the
        // started ones appear in `devices()` in slot order.
        let started: Vec<CampaignSpec> = member_specs
            .iter()
            .enumerate()
            .filter(|(slot, _)| !result.unstarted().contains(slot))
            .map(|(_, m)| m.clone())
            .collect();
        let ids = ResultStore::open(dir)
            .and_then(|store| {
                let fleet_spec = FleetSpec {
                    description: String::new(),
                    members: started,
                };
                store.put_fleet(&fleet_spec, result.devices())
            })
            .map_err(|e| Failed(format!("archiving fleet results: {e}")))?;
        for (slot, id) in ids.iter().enumerate() {
            eprintln!("archived member {slot} as {id} in {}", dir.display());
        }
    }
    finish_fleet(&result, args)
}

/// Render a fleet result (fresh or served from the archive): the
/// cross-device table, `--json` output and the `--out` summary CSV.
fn finish_fleet(result: &FleetResult, args: &RunArgs) -> CliResult {
    let rows: Vec<CrossDeviceRow> = result.summary_rows().into_iter().map(Into::into).collect();
    let table = cross_device_table(&rows).render(Format::Text);
    if args.json {
        println!("{}", result.to_json());
        eprintln!("{table}");
    } else {
        println!("{table}");
    }
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| Failed(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join("fleet_summary.csv");
        std::fs::write(&path, result.summary_csv())
            .map_err(|e| Failed(format!("writing {}: {e}", path.display())))?;
        eprintln!("wrote cross-device summary to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// archive subcommands (report / diff / list-runs)

struct ArchiveArgs {
    targets: Vec<String>,
    store: PathBuf,
    out: Option<PathBuf>,
    alpha: f64,
    against: Option<String>,
    ids_only: bool,
    prune: Option<usize>,
    family: Option<String>,
}

fn parse_archive_args(raw: &[String]) -> Result<ArchiveArgs, CliError> {
    let mut out = ArchiveArgs {
        targets: Vec::new(),
        store: PathBuf::from("latest-store"),
        out: None,
        alpha: 0.05,
        against: None,
        ids_only: false,
        prune: None,
        family: None,
    };
    let mut args = Args::new(raw, USAGE);
    while let Some(arg) = args.next()? {
        match arg {
            Flag("--store") => out.store = args.parse()?,
            Flag("--out") => out.out = Some(args.parse()?),
            Flag("--against") => out.against = Some(args.value()?),
            Flag("--alpha") => {
                out.alpha = args.parse()?;
                if !(out.alpha > 0.0 && out.alpha < 1.0) {
                    return Err(args.error(format!("--alpha must be in (0, 1), got {}", out.alpha)));
                }
            }
            Flag("--ids") => out.ids_only = true,
            Flag("--family") => out.family = Some(args.value()?),
            Flag("--prune") => {
                // Keeping zero runs per family would empty the archive.
                let keep = args.parse()?;
                if keep == 0 {
                    return Err(args.error("--prune must be at least 1"));
                }
                out.prune = Some(keep);
            }
            Flag(_) => return Err(args.unknown()),
            Positional(p) => out.targets.push(p.to_string()),
        }
    }
    Ok(out)
}

fn open_store(dir: &Path) -> Result<ResultStore, CliError> {
    ResultStore::open(dir).map_err(|e| Input(format!("opening store: {e}")))
}

/// Resolve a run target — an archived run id (or unambiguous prefix), or a
/// campaign scenario file whose spec addresses its archived run — to the
/// stored run it names.
fn resolve_stored_run(store: &ResultStore, target: &str) -> Result<StoredRun, CliError> {
    if target.ends_with(".json") || Path::new(target).is_file() {
        let spec = match read_json(target, ScenarioSpec::from_json).map_err(Input)? {
            ScenarioSpec::Campaign(spec) => spec,
            ScenarioSpec::Fleet(_) => {
                return Err(Input(format!(
                    "{target} is a fleet spec; fleet members are archived per slot — \
                     address one member's campaign spec or its run id"
                )))
            }
        };
        return store
            .latest_for(&spec)
            .map_err(|e| Input(e.to_string()))?
            .ok_or_else(|| {
                Input(format!(
                    "no archived run for the spec in {target} (expected {}); \
                     archive one with `latest run {target} --store {}`",
                    latest::core::RunId::of_spec(&spec),
                    store.root().display()
                ))
            });
    }
    store
        .resolve(target)
        .and_then(|id| store.get(&id))
        .map_err(|e| Input(e.to_string()))
}

fn cmd_report(raw: &[String]) -> CliResult {
    let args = parse_archive_args(raw)?;
    let [target] = args.targets.as_slice() else {
        return Err(usage(
            USAGE,
            "report takes exactly one run id or campaign scenario file",
        ));
    };
    let store = open_store(&args.store)?;
    let run = resolve_stored_run(&store, target)?;
    let out_dir = args
        .out
        .unwrap_or_else(|| PathBuf::from(format!("{}-report", run.run_id)));
    let written = write_bundle(&Bundle::for_campaign(&run.result), &out_dir)?;
    eprintln!(
        "rendered {} ({} on {}, seed {}): {} files in {}",
        run.run_id,
        run.spec.device,
        run.provenance.device_name,
        run.provenance.seed,
        written.len(),
        out_dir.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(raw: &[String]) -> CliResult {
    let args = parse_archive_args(raw)?;
    let (target_a, target_b) = match (args.targets.as_slice(), &args.against) {
        ([a, b], None) => (a, b),
        ([a], Some(b)) => (a, b),
        _ => {
            return Err(usage(
                USAGE,
                "diff takes two run targets (either `diff A B` or `diff A --against B`)",
            ))
        }
    };
    let store = open_store(&args.store)?;
    let run_a = resolve_stored_run(&store, target_a)?;
    let run_b = resolve_stored_run(&store, target_b)?;
    let diff = CampaignDiff::between(&run_a.result, &run_b.result, args.alpha);
    eprintln!("A: {} (seed {})", run_a.run_id, run_a.provenance.seed);
    eprintln!("B: {} (seed {})", run_b.run_id, run_b.provenance.seed);
    let table = diff.regression_table();
    let heatmap = diff.delta_heatmap();
    println!("{}", table.body());
    println!("{}", heatmap.render(Format::Text));
    if let Some(dir) = &args.out {
        let mut bundle = Bundle::new();
        bundle.add("delta_heatmap", heatmap);
        bundle.add("regression_table", table);
        bundle
            .write_to(dir)
            .map_err(|e| Failed(format!("writing diff artifacts: {e}")))?;
        eprintln!("wrote diff artifacts to {}", dir.display());
    }
    let regressions = diff.significant_regressions();
    let improvements = diff.improvements().count();
    let lost = diff.lost_pairs().len();
    eprintln!(
        "{} common pair(s): {regressions} significant regression(s), \
         {improvements} significant improvement(s) at family-wise alpha {}",
        diff.deltas.len(),
        args.alpha
    );
    if lost > 0 {
        eprintln!(
            "{lost} pair(s) measured in A have no data in B — \
             losing a measurable transition gates like a regression"
        );
    }
    Ok(if regressions > 0 || lost > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_list_runs(raw: &[String]) -> CliResult {
    let args = parse_archive_args(raw)?;
    if !args.targets.is_empty() {
        return Err(usage(USAGE, "list-runs takes no positional arguments"));
    }
    let dir = args.store.display();
    let store = ResultStore::open(&args.store).map_err(|e| Input(format!("opening {dir}: {e}")))?;
    if let Some(keep) = args.prune {
        let removed = store
            .gc(keep)
            .map_err(|e| Input(format!("pruning {dir}: {e}")))?;
        for id in &removed {
            eprintln!("pruned {id}");
        }
        eprintln!(
            "pruned {} run(s), keeping the latest {keep} per experiment family",
            removed.len()
        );
    }
    let mut runs = store
        .list()
        .map_err(|e| Input(format!("listing {dir}: {e}")))?;
    if let Some(prefix) = &args.family {
        runs.retain(|run| family_matches(&latest::core::RunId::family_of(&run.spec), prefix));
    }
    if args.ids_only {
        for run in &runs {
            println!("{}", run.run_id);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut table = TextTable::with_header(&[
        "run id",
        "device",
        "seed",
        "pairs",
        "completed",
        "description",
    ]);
    for run in &runs {
        table.row(&[
            run.run_id.to_string(),
            format!("{} [{}]", run.spec.device, run.provenance.device_index),
            run.provenance.seed.to_string(),
            run.provenance.pairs_total.to_string(),
            run.provenance.pairs_completed.to_string(),
            run.provenance.description.clone(),
        ]);
    }
    println!("{}", table.render(Format::Text));
    match &args.family {
        Some(prefix) => eprintln!(
            "{} archived run(s) in {dir} in experiment family {prefix}*",
            runs.len()
        ),
        None => eprintln!("{} archived run(s) in {dir}", runs.len()),
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// queue subcommands (the campaign execution service)

const QUEUE_USAGE: &str = "\
usage: latest queue <command> [options]

The campaign execution service: a persistent job queue, a bounded worker
pool, and a content-addressed result cache. Submissions of the same spec
coalesce onto one execution; archived runs are served without
recomputation; a killed service resumes every in-flight job from its
checkpoint on restart.

commands:
  submit <spec.json> [--priority P] [--force]
                       enqueue a campaign or fleet scenario
  serve [--workers N] [--drain] [--store <dir>] [--checkpoint-every N]
        [--poll-ms M] [--stats-out <file>] [--log-max-bytes B]
        [--virtual-clock]
                       run the worker pool; --drain exits once the queue
                       is empty, otherwise idle workers poll for new
                       submissions every --poll-ms (default 25). Each
                       pending pair of a claimed job is one task, so a
                       job spreads across every worker. events.log rotates
                       to events.log.1 at --log-max-bytes (default 8 MiB,
                       0 = unbounded); --virtual-clock times telemetry on
                       a deterministic tick clock (pair with --workers 1
                       for bitwise-reproducible snapshots)
  status [<job-id>]    show job states; exits 0 only when all jobs are
                       done, 1 on failures/cancellations, 3 while pending
  stats [--json|--csv] per-stage service latency (p50/p90/p99/max) from
                       the last drain's telemetry snapshot
  cancel <job-id>      cancel a queued or running job
  watch                stream the multiplexed event feed until the queue
                       settles (follows events.log across rotations)

common options:
  --dir <dir>          the queue directory                    [latest-queue]
";

#[derive(Default)]
struct QueueArgs {
    positionals: Vec<String>,
    dir: Option<PathBuf>,
    workers: Option<usize>,
    drain: bool,
    store: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    poll_ms: Option<u64>,
    stats_out: Option<PathBuf>,
    priority: i32,
    force: bool,
    log_max_bytes: Option<u64>,
    virtual_clock: bool,
    json: bool,
    csv: bool,
}

impl QueueArgs {
    fn dir(&self) -> PathBuf {
        self.dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("latest-queue"))
    }

    fn open(&self) -> Result<JobQueue, CliError> {
        JobQueue::open(self.dir()).map_err(|e| Input(format!("opening queue: {e}")))
    }
}

fn parse_queue_args(raw: &[String]) -> Result<QueueArgs, CliError> {
    let mut out = QueueArgs::default();
    let mut args = Args::new(raw, QUEUE_USAGE);
    while let Some(arg) = args.next()? {
        match arg {
            Flag("--dir") => out.dir = Some(args.parse()?),
            Flag("--workers") => {
                // The pool cannot run without a worker.
                let workers = args.parse()?;
                if workers == 0 {
                    return Err(args.error("--workers must be at least 1"));
                }
                out.workers = Some(workers);
            }
            Flag("--drain") => out.drain = true,
            Flag("--store") => out.store = Some(args.parse()?),
            Flag("--checkpoint-every") => out.checkpoint_every = Some(args.parse()?),
            Flag("--poll-ms") => out.poll_ms = Some(args.parse()?),
            Flag("--stats-out") => out.stats_out = Some(args.parse()?),
            Flag("--priority") => out.priority = args.parse()?,
            Flag("--force") => out.force = true,
            Flag("--log-max-bytes") => out.log_max_bytes = Some(args.parse()?),
            Flag("--virtual-clock") => out.virtual_clock = true,
            Flag("--json") => out.json = true,
            Flag("--csv") => out.csv = true,
            Flag(_) => return Err(args.unknown()),
            Positional(p) => out.positionals.push(p.to_string()),
        }
    }
    Ok(out)
}

fn queue_submit(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    let [path] = args.positionals.as_slice() else {
        return Err(usage(QUEUE_USAGE, "submit takes exactly one scenario file"));
    };
    let spec = read_json(path, ScenarioSpec::from_json).map_err(Input)?;
    let job = JobQueue::open(args.dir())
        .and_then(|q| {
            q.submit(
                spec,
                SubmitOptions {
                    priority: args.priority,
                    force: args.force,
                },
            )
        })
        .map_err(|e| Input(e.to_string()))?;
    println!("{}", job.id);
    eprintln!(
        "queued {} ({}, key {}, priority {}{})",
        job.id,
        job.describe(),
        job.key(),
        job.priority,
        if job.force { ", forced" } else { "" }
    );
    Ok(ExitCode::SUCCESS)
}

fn queue_serve(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    if !args.positionals.is_empty() {
        return Err(usage(QUEUE_USAGE, "serve takes no positional arguments"));
    }
    // --virtual-clock: per-thread deterministic tick clocks in place of
    // monotonic time, so two drains of the same scenario (with
    // --workers 1) persist bitwise-identical telemetry snapshots.
    let clock = if args.virtual_clock {
        ClockSpec::Ticks { tick_ns: 100_000 }
    } else {
        ClockSpec::Monotonic
    };
    let defaults = PoolConfig::default();
    let config = PoolConfig {
        workers: args.workers.unwrap_or(defaults.workers),
        checkpoint_every: args.checkpoint_every.unwrap_or(defaults.checkpoint_every),
        poll_interval: args
            .poll_ms
            .map_or(defaults.poll_interval, std::time::Duration::from_millis),
        store_dir: args.store.clone(),
        clock,
    };
    let workers = config.workers;
    let dir = args.dir();
    let pool = WorkerPool::open(&dir, config)
        .map_err(|e| Input(format!("opening queue {}: {e}", dir.display())))?;
    eprintln!(
        "serving {} with {workers} worker(s); archive at {}",
        dir.display(),
        pool.store().root().display()
    );

    // Event feed: every line goes to stderr and to the size-capped,
    // rotating events.log that `queue watch` replays, with per-campaign
    // elapsed/ETA progress rendering (the same formatter `latest run
    // --progress` uses).
    let log_path = pool.queue().events_log_path();
    let log = EventLog::open(
        &log_path,
        pool.queue().rotated_events_log_path(),
        args.log_max_bytes.unwrap_or(8 * 1024 * 1024),
    )
    .map_err(|e| Input(format!("opening {}: {e}", log_path.display())))?;
    // One formatter per *job* (not per member): the `Planned` event seeds
    // the job-wide pair total, so fleet jobs get one done/total counter
    // and ETA spanning every member's pairs. Under --virtual-clock the
    // formatters read the same deterministic tick time as the telemetry.
    let formatters =
        std::sync::Mutex::new(std::collections::HashMap::<JobId, ProgressFormatter>::new());
    let pool = pool.observe(move |e: &QueueEvent| {
        let line = match e {
            QueueEvent::Planned { job, pairs, .. } => {
                let mut fmts = formatters.lock().unwrap();
                let fmt = fmts.entry(*job).or_default();
                *fmt = ProgressFormatter::with_clock(clock.clock());
                fmt.seed_totals(*pairs);
                e.to_string()
            }
            QueueEvent::Progress { job, member, event } => {
                let mut fmts = formatters.lock().unwrap();
                let fmt = fmts.entry(*job).or_default();
                format!("{job}[m{member}] {}", fmt.line(event))
            }
            other => other.to_string(),
        };
        eprintln!("{line}");
        let _ = log.append_line(&line);
    });

    let stats = if args.drain {
        pool.drain()
    } else {
        pool.serve()
    }
    .map_err(|e| Failed(e.to_string()))?;
    eprintln!("{stats}");
    if let Some(path) = &args.stats_out {
        std::fs::write(path, stats.to_json())
            .map_err(|e| Failed(format!("writing {}: {e}", path.display())))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn queue_status(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    let queue = args.open()?;
    let jobs = match args.positionals.as_slice() {
        [] => queue.jobs(),
        [id] => JobId::parse(id)
            .and_then(|id| queue.load(id))
            .map(|job| vec![job]),
        _ => return Err(usage(QUEUE_USAGE, "status takes at most one job id")),
    }
    .map_err(|e| Input(e.to_string()))?;
    let mut table = TextTable::with_header(&["job", "priority", "state", "work", "detail"]);
    for job in &jobs {
        // A pending job with a journaled pair ledger (running, or
        // requeued mid-flight by a shutdown) shows its progress inline.
        let detail = match &job.ledger {
            Some(ledger) if job.state.is_pending() => {
                format!("{} — {}", job.state, ledger.summary())
            }
            _ => job.state.to_string(),
        };
        table.row(&[
            job.id.to_string(),
            job.priority.to_string(),
            job.state.label().to_string(),
            job.describe(),
            detail,
        ]);
    }
    println!("{}", table.render(Format::Text));
    let pending = jobs.iter().filter(|j| j.state.is_pending()).count();
    let unhappy = jobs
        .iter()
        .filter(|j| matches!(j.state, JobState::Failed { .. } | JobState::Cancelled))
        .count();
    eprintln!(
        "{} job(s): {} settled, {} pending, {} failed/cancelled",
        jobs.len(),
        jobs.len() - pending - unhappy,
        pending,
        unhappy
    );
    // Service latency one-liner from the last drain's persisted
    // telemetry snapshot (queue wait = submit-to-claim, turnaround =
    // claim-to-settled); `queue stats` has the full per-stage table.
    if let Ok(snapshot) = read_json(queue.telemetry_path(), TelemetrySnapshot::from_json) {
        let wait = snapshot.stage(Stage::QueueWait);
        let turn = snapshot.stage(Stage::SettleLatency);
        eprintln!(
            "last drain: queue-wait n={} p50={} p99={}; turnaround n={} p50={} p99={}",
            wait.count(),
            human_ns(wait.quantile(0.50)),
            human_ns(wait.quantile(0.99)),
            turn.count(),
            human_ns(turn.quantile(0.50)),
            human_ns(turn.quantile(0.99)),
        );
    }
    Ok(if unhappy > 0 {
        ExitCode::FAILURE
    } else if pending > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Human-readable duration for an optional nanosecond quantile.
fn human_ns(ns: Option<u64>) -> String {
    match ns {
        None => "-".to_string(),
        Some(ns) if ns < 1_000 => format!("{ns}ns"),
        Some(ns) if ns < 1_000_000 => format!("{:.1}us", ns as f64 / 1e3),
        Some(ns) if ns < 1_000_000_000 => format!("{:.2}ms", ns as f64 / 1e6),
        Some(ns) => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn queue_stats(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    if !args.positionals.is_empty() {
        return Err(usage(QUEUE_USAGE, "stats takes no positional arguments"));
    }
    let path = args.open()?.telemetry_path();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        Failed(format!(
            "no telemetry snapshot at {} ({e}); run `latest queue serve` first",
            path.display()
        ))
    })?;
    let snapshot = TelemetrySnapshot::from_json(&text)
        .map_err(|e| Input(format!("parsing {}: {e}", path.display())))?;
    let format = if args.json {
        Format::Json
    } else if args.csv {
        Format::Csv
    } else {
        Format::Text
    };
    print!("{}", stage_latency_table(&snapshot).render(format));
    Ok(ExitCode::SUCCESS)
}

fn queue_cancel(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    let [id] = args.positionals.as_slice() else {
        return Err(usage(QUEUE_USAGE, "cancel takes exactly one job id"));
    };
    let (id, accepted) = JobId::parse(id)
        .and_then(|id| JobQueue::open(args.dir()).map(|q| (q, id)))
        .and_then(|(q, id)| q.request_cancel(id).map(|accepted| (id, accepted)))
        .map_err(|e| Input(e.to_string()))?;
    if !accepted {
        return Err(Failed(format!("{id} has already settled")));
    }
    eprintln!("cancellation requested for {id}");
    Ok(ExitCode::SUCCESS)
}

fn queue_watch(raw: &[String]) -> CliResult {
    let args = parse_queue_args(raw)?;
    if !args.positionals.is_empty() {
        return Err(usage(QUEUE_USAGE, "watch takes no positional arguments"));
    }
    let queue = args.open()?;
    // Tail incrementally, following rotations: the EventTail reads only
    // the bytes appended since the last poll, and when serve rotates
    // events.log to events.log.1 mid-watch it finishes the rotated
    // generation before continuing at the top of the new file.
    let mut tail = EventTail::new(queue.events_log_path(), queue.rotated_events_log_path());
    let poll = std::time::Duration::from_millis(args.poll_ms.unwrap_or(200));
    loop {
        let lines = tail
            .poll()
            .map_err(|e| Input(format!("tailing event log: {e}")))?;
        for line in lines {
            println!("{line}");
        }
        let counts = queue.counts().map_err(|e| Input(e.to_string()))?;
        if counts.pending() == 0 {
            eprintln!(
                "queue settled: {} done, {} failed, {} cancelled",
                counts.done, counts.failed, counts.cancelled
            );
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(poll);
    }
}

fn cmd_queue(raw: &[String]) -> CliResult {
    match raw.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Err(usage(QUEUE_USAGE, "")),
        Some("submit") => queue_submit(&raw[1..]),
        Some("serve") => queue_serve(&raw[1..]),
        Some("status") => queue_status(&raw[1..]),
        Some("stats") => queue_stats(&raw[1..]),
        Some("cancel") => queue_cancel(&raw[1..]),
        Some("watch") => queue_watch(&raw[1..]),
        Some(other) => Err(usage(
            QUEUE_USAGE,
            format!("unknown queue command {other:?}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// govern subcommands (closed-loop policy scoring)

const GOVERN_USAGE: &str = "\
usage: latest govern <command> [options]

Close the measurement loop: run governor policies over synthetic traffic on
a simulated device whose every frequency switch pays a latency replayed
from a measured, archived campaign. Until a switch lands the device keeps
serving at the old clock — the paper's overhead made end-to-end observable.

commands:
  run <traffic>... (--table <run-id|spec.json> | --predicted <model.json>)
                       score policies over traffic scenarios; each
                       <traffic> is a built-in name (see list-traffic) or
                       a traffic-spec JSON file
  list-policies        enumerate the daemon policies
  list-traffic         enumerate the built-in traffic scenarios
  help                 print this message

run options:
  --table <target>     archived run id (unambiguous prefix) or campaign
                       scenario file whose archived run supplies the
                       latency table
  --predicted <model.json>
                       supply the latency table from a fitted prediction
                       model instead (`latest predict fit`): every grid
                       pair whose confidence interval passes the gate is
                       accepted, the rest stay unknown to the policies
  --gate <fraction>    --predicted: max accepted interval width relative
                       to the estimate                        [0.5]
  --freqs <f,f,...>    --predicted: frequency set to tabulate  [model grid]
  --store <dir>        the result store to read               [latest-store]
  --policy <name>      score this policy; repeatable          [all policies]
  --compare            score every policy (the default when no --policy)
  --seed <u64>         base seed for the latency replay       [0]
  --out <dir>          write the scorecard bundle (comparison table +
                       missed-rate/energy heatmaps, all formats) here
  --json               emit the scorecards as JSON on stdout

Determinism: the same traffic specs, the same table (archived or
predicted) and the same --seed give bitwise-identical scorecards,
independent of cell order.
";

#[derive(Default)]
struct GovernArgs {
    traffics: Vec<String>,
    table: Option<String>,
    predicted: Option<PathBuf>,
    gate: Option<f64>,
    freqs: Option<Vec<u32>>,
    store: Option<PathBuf>,
    policies: Vec<String>,
    compare: bool,
    seed: u64,
    out: Option<PathBuf>,
    json: bool,
}

/// `--gate`: the confidence gate, a non-negative relative width.
fn parse_gate(args: &mut Args) -> Result<f64, CliError> {
    let gate: f64 = args.parse()?;
    if gate.is_nan() || gate < 0.0 {
        return Err(args.error(format!("--gate must be non-negative, got {gate}")));
    }
    Ok(gate)
}

/// `--freqs`: a comma-separated frequency list.
fn parse_freqs(args: &mut Args) -> Result<Vec<u32>, CliError> {
    let text = args.value()?;
    parse_freq_list(&text).map_err(|msg| args.error(msg))
}

fn parse_govern_args(raw: &[String]) -> Result<GovernArgs, CliError> {
    let mut out = GovernArgs::default();
    let mut args = Args::new(raw, GOVERN_USAGE);
    while let Some(arg) = args.next()? {
        match arg {
            Flag("--table") => out.table = Some(args.value()?),
            Flag("--predicted") => out.predicted = Some(args.parse()?),
            Flag("--gate") => out.gate = Some(parse_gate(&mut args)?),
            Flag("--freqs") => out.freqs = Some(parse_freqs(&mut args)?),
            Flag("--store") => out.store = Some(args.parse()?),
            Flag("--policy") => out.policies.push(args.value()?),
            Flag("--compare") => out.compare = true,
            Flag("--seed") => out.seed = args.parse()?,
            Flag("--out") => out.out = Some(args.parse()?),
            Flag("--json") => out.json = true,
            Flag(_) => return Err(args.unknown()),
            Positional(p) => out.traffics.push(p.to_string()),
        }
    }
    Ok(out)
}

/// Resolve one traffic argument: a built-in scenario name, or a path to a
/// traffic-spec JSON file.
fn resolve_traffic(registry: &TrafficRegistry, target: &str) -> Result<TrafficSpec, String> {
    if let Some(spec) = registry.get(target) {
        return Ok(spec.clone());
    }
    if target.ends_with(".json") || Path::new(target).is_file() {
        let spec = read_json(target, TrafficSpec::from_json)?;
        spec.validate().map_err(|e| format!("{target}: {e}"))?;
        return Ok(spec);
    }
    Err(format!(
        "unknown traffic `{target}`: not a built-in scenario ({}) and not a file",
        registry.names().join(", ")
    ))
}

fn govern_run(raw: &[String]) -> CliResult {
    let args = parse_govern_args(raw)?;
    if args.traffics.is_empty() {
        return Err(usage(
            GOVERN_USAGE,
            "govern run takes at least one traffic scenario",
        ));
    }
    if args.predicted.is_none() && (args.gate.is_some() || args.freqs.is_some()) {
        return Err(usage(
            GOVERN_USAGE,
            "--gate and --freqs only apply with --predicted",
        ));
    }
    let (table, table_label) = match (&args.table, &args.predicted) {
        (Some(_), Some(_)) => {
            return Err(usage(
                GOVERN_USAGE,
                "--table and --predicted are mutually exclusive",
            ))
        }
        (None, None) => {
            return Err(usage(
                GOVERN_USAGE,
                "one of --table <run-id|spec.json> or --predicted <model.json> is required",
            ))
        }
        (Some(table_target), None) => {
            let store_dir = args
                .store
                .clone()
                .unwrap_or_else(|| PathBuf::from("latest-store"));
            let run = resolve_stored_run(&open_store(&store_dir)?, table_target)?;
            let (table, skipped) = LatencyTable::from_campaign_counting(&run.result);
            if !skipped.is_empty() {
                eprintln!("note: {} ({})", skipped, run.run_id);
            }
            (table, run.run_id.to_string())
        }
        (None, Some(model_path)) => {
            let model = read_json(model_path, PredictModel::from_json).map_err(Input)?;
            let freqs = args
                .freqs
                .clone()
                .unwrap_or_else(|| model.grid_freqs_mhz.clone());
            let gate = args.gate.unwrap_or(0.5);
            let predicted = PredictedTable::over(&model, &freqs, gate);
            let rejected = predicted.rejected_pairs().len();
            if rejected > 0 {
                eprintln!(
                    "note: {rejected} low-confidence pair(s) rejected by the gate ({gate}); \
                     they stay unknown to the policies"
                );
            }
            (
                predicted.to_latency_table(),
                format!("predicted:{}", model_path.display()),
            )
        }
    };
    let Some(ladder) = ZoneLadder::from_table(&table) else {
        return Err(Input(format!(
            "{table_label} yields an empty latency table"
        )));
    };

    let policy_names: Vec<String> = if args.policies.is_empty() || args.compare {
        POLICY_NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        args.policies.clone()
    };
    let policies = policy_names
        .iter()
        .map(|name| make_policy(name, &table).map_err(|msg| usage(GOVERN_USAGE, msg)))
        .collect::<Result<Vec<_>, _>>()?;

    let registry = TrafficRegistry::builtin();
    let mut traces = Vec::new();
    for target in &args.traffics {
        let spec = resolve_traffic(&registry, target).map_err(|msg| usage(GOVERN_USAGE, msg))?;
        let trace = spec
            .generate()
            .map_err(|e| usage(GOVERN_USAGE, format!("{target}: {e}")))?;
        traces.push(trace);
    }

    let daemon = GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
    let mut cards: Vec<Scorecard> = Vec::new();
    for trace in &traces {
        for policy in &policies {
            let seed = replay_seed(args.seed, policy.name(), &trace.name);
            let mut replay = TransitionReplay::new(table.clone(), seed);
            cards.push(daemon.run(policy.as_ref(), trace, &mut replay, seed));
        }
    }

    let rows: Vec<PolicyScoreRow> = cards
        .iter()
        .map(|c| PolicyScoreRow {
            policy: c.policy.clone(),
            traffic: c.traffic.clone(),
            requests: c.requests,
            with_deadline: c.with_deadline,
            missed_deadlines: c.missed_deadlines,
            p50_ms: c.p50_latency_ms,
            p99_ms: c.p99_latency_ms,
            energy_j: c.energy_j,
            switches: c.switches,
            time_in_switch_ms: c.time_in_switch_ms,
        })
        .collect();

    if args.json {
        println!("{}", scorecards_to_json(&cards));
    } else {
        println!("{}", policy_scorecard_table(&rows).body());
        eprintln!(
            "scored {} policies x {} traffic scenarios against table {} ({} pairs, device {})",
            policies.len(),
            traces.len(),
            table_label,
            table.len(),
            table.device_name
        );
    }

    if let Some(out_dir) = &args.out {
        let mut bundle = Bundle::new();
        bundle.add("scorecard_table", policy_scorecard_table(&rows));
        bundle.add("missed_rate", missed_rate_heatmap(&rows));
        bundle.add("energy", energy_heatmap(&rows));
        bundle.add_file("scorecards.json", scorecards_to_json(&cards));
        let written = write_bundle(&bundle, out_dir)?;
        eprintln!("wrote {} files to {}", written.len(), out_dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn govern_list_policies() -> CliResult {
    let mut table = TextTable::with_header(&["policy", "behaviour"]);
    table.row(&[
        "run-at-max".to_string(),
        "pin the ladder ceiling; never switch".to_string(),
    ]);
    table.row(&[
        "latency-oblivious".to_string(),
        "chase the load zone at every change, as if switches were free".to_string(),
    ]);
    table.row(&[
        "latency-aware".to_string(),
        "switch only when the measured cost amortises; detour pathological pairs".to_string(),
    ]);
    println!("{}", table.render(Format::Text));
    Ok(ExitCode::SUCCESS)
}

fn govern_list_traffic() -> CliResult {
    let registry = TrafficRegistry::builtin();
    let mut table = TextTable::with_header(&["name", "shape", "duration ms", "description"]);
    for spec in registry.specs() {
        table.row(&[
            spec.name.clone(),
            spec.shape.kind().to_string(),
            format!("{:.0}", spec.duration_ms),
            spec.description.clone(),
        ]);
    }
    println!("{}", table.render(Format::Text));
    Ok(ExitCode::SUCCESS)
}

fn cmd_govern(raw: &[String]) -> CliResult {
    match raw.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Err(usage(GOVERN_USAGE, "")),
        Some("run") => govern_run(&raw[1..]),
        Some("list-policies") => govern_list_policies(),
        Some("list-traffic") => govern_list_traffic(),
        Some(other) => Err(usage(
            GOVERN_USAGE,
            format!("unknown govern command {other:?}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// predict subcommands (the prediction service)

const PREDICT_USAGE: &str = "\
usage: latest predict <command> [options]

The prediction service: fit per-device latency models over the result
archive and serve pairs nobody measured. A model answers from a cascade —
exact lookup on measured grid cells, bilinear interpolation between them,
robust log-space regression beyond the grid — and every answer carries a
confidence interval from the fit residuals. Fitting is deterministic: the
same archive produces bitwise-identical model JSON.

commands:
  fit [options]        fit one model per archived device and write
                       <device>.model.json into the output directory
  query <model.json> [<init,target>...] [options]
                       answer pair queries from a fitted model; with
                       --queue, low-confidence pairs are resubmitted to
                       the measurement service as one follow-up campaign
  validate [options]   k-fold held-out validation over the archive, or
                       closed-loop validation against simulator ground
                       truth with --closed-loop
  help                 print this message

fit options:
  --store <dir>        the result store to read               [latest-store]
  --device <name>      fit only this device
  --family <prefix>    train only on runs in this experiment family
  --out <dir>          model output directory                 [predict-models]

query options:
  --gate <fraction>    max accepted interval width relative to the
                       estimate                               [0.5]
  --batch <file.json>  add pairs from {\"pairs\": [[init, target], ...]}
  --freqs <f,f,...>    predict every ordered pair over this frequency set
                       instead, and print the confidence-gated table
  --queue <dir>        submit low-confidence pairs to this job queue as
                       one follow-up campaign (requires --spec)
  --spec <file.json>   template campaign spec for the follow-up
  --json               emit the batch outcome / table as JSON

validate options:
  --store <dir>        the result store to read               [latest-store]
  --device <name>      validate only this device              [all devices]
  --family <prefix>    restrict to this experiment family
  --folds <k>          cross-validation folds                 [5]
  --closed-loop        replay every grid pair on a fresh simulated device
                       and compare predictions to recorded ground truth
  --reps <n>           closed-loop replays per pair           [3]
  --seed <u64>         closed-loop replay seed                [0]
  --out <dir>          write scatter / error-heatmap artifacts here
  --json               emit the validation report(s) as JSON on stdout
";

struct PredictArgs {
    positionals: Vec<String>,
    store: PathBuf,
    device: Option<String>,
    family: Option<String>,
    out: Option<PathBuf>,
    gate: f64,
    batch: Option<PathBuf>,
    freqs: Option<Vec<u32>>,
    queue: Option<PathBuf>,
    spec: Option<PathBuf>,
    folds: usize,
    closed_loop: bool,
    reps: u32,
    seed: u64,
    json: bool,
}

fn parse_predict_args(raw: &[String]) -> Result<PredictArgs, CliError> {
    let mut out = PredictArgs {
        positionals: Vec::new(),
        store: PathBuf::from("latest-store"),
        device: None,
        family: None,
        out: None,
        gate: 0.5,
        batch: None,
        freqs: None,
        queue: None,
        spec: None,
        folds: 5,
        closed_loop: false,
        reps: 3,
        seed: 0,
        json: false,
    };
    let mut args = Args::new(raw, PREDICT_USAGE);
    while let Some(arg) = args.next()? {
        match arg {
            Flag("--store") => out.store = args.parse()?,
            Flag("--device") => out.device = Some(args.value()?),
            Flag("--family") => out.family = Some(args.value()?),
            Flag("--out") => out.out = Some(args.parse()?),
            Flag("--gate") => out.gate = parse_gate(&mut args)?,
            Flag("--batch") => out.batch = Some(args.parse()?),
            Flag("--freqs") => out.freqs = Some(parse_freqs(&mut args)?),
            Flag("--queue") => out.queue = Some(args.parse()?),
            Flag("--spec") => out.spec = Some(args.parse()?),
            Flag("--folds") => out.folds = args.parse()?,
            Flag("--closed-loop") => out.closed_loop = true,
            Flag("--reps") => out.reps = args.parse()?,
            Flag("--seed") => out.seed = args.parse()?,
            Flag("--json") => out.json = true,
            Flag(_) => return Err(args.unknown()),
            Positional(p) => out.positionals.push(p.to_string()),
        }
    }
    Ok(out)
}

/// The per-device corpora selected by the `--device` / `--family` filters.
fn predict_corpora(args: &PredictArgs) -> Result<Vec<latest::predict::Corpus>, CliError> {
    let store = ResultStore::open(&args.store)
        .map_err(|e| Input(format!("opening {}: {e}", args.store.display())))?;
    let corpora = match &args.device {
        Some(device) => corpus_for_device(&store, device, args.family.as_deref()).map(|c| vec![c]),
        None => build_corpora(&store, args.family.as_deref()),
    }
    .map_err(|e| Input(e.to_string()))?;
    if corpora.is_empty() {
        return Err(Input(format!(
            "the archive at {} holds no runs matching the filter",
            args.store.display()
        )));
    }
    Ok(corpora)
}

fn predict_fit(raw: &[String]) -> CliResult {
    let args = parse_predict_args(raw)?;
    if !args.positionals.is_empty() {
        return Err(usage(
            PREDICT_USAGE,
            "predict fit takes no positional arguments",
        ));
    }
    let corpora = predict_corpora(&args)?;
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("predict-models"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| Failed(format!("creating {}: {e}", out_dir.display())))?;
    for corpus in &corpora {
        let model = PredictModel::fit(corpus)
            .map_err(|e| Failed(format!("fitting {}: {e}", corpus.device)))?;
        let path = out_dir.join(format!("{}.model.json", corpus.device));
        std::fs::write(&path, model.to_json())
            .map_err(|e| Failed(format!("writing {}: {e}", path.display())))?;
        eprintln!(
            "fitted {}: {} pairs / {} samples from {} run(s), {} features -> {}",
            corpus.device,
            model.trained_pairs,
            model.training_samples,
            corpus.runs,
            model.feature_set,
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Render served predictions as an aligned table.
fn predicted_pairs_table(pairs: &[latest::predict::PredictedPair]) -> TextTable {
    let mut table = TextTable::with_header(&[
        "init MHz",
        "target MHz",
        "latency ms",
        "lo ms",
        "hi ms",
        "source",
        "accepted",
    ]);
    for p in pairs {
        table.row(&[
            p.init_mhz.to_string(),
            p.target_mhz.to_string(),
            format!("{:.4}", p.value_ms),
            format!("{:.4}", p.lo_ms),
            format!("{:.4}", p.hi_ms),
            p.source.clone(),
            if p.accepted { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

fn predict_query(raw: &[String]) -> CliResult {
    let args = parse_predict_args(raw)?;
    let Some((model_path, pair_args)) = args.positionals.split_first() else {
        return Err(usage(
            PREDICT_USAGE,
            "predict query takes a model file first",
        ));
    };
    let model = read_json(model_path, PredictModel::from_json).map_err(Input)?;

    // Table mode: every ordered pair over a frequency set.
    if let Some(freqs) = &args.freqs {
        if !pair_args.is_empty() || args.batch.is_some() {
            return Err(usage(
                PREDICT_USAGE,
                "--freqs replaces explicit pairs; give one or the other",
            ));
        }
        let table = PredictedTable::over(&model, freqs, args.gate);
        if args.json {
            print!("{}", table.to_json());
        } else {
            println!(
                "{}",
                predicted_pairs_table(&table.entries).render(Format::Text)
            );
            eprintln!(
                "{} of {} pair(s) accepted at gate {} (device {})",
                table.accepted().count(),
                table.entries.len(),
                args.gate,
                table.device
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    // Batch mode: explicit pairs from the command line and/or a batch file.
    let mut pairs = Vec::new();
    for arg in pair_args {
        match parse_freq_list(arg).as_deref() {
            Ok([init, target]) => pairs.push((*init, *target)),
            _ => {
                return Err(usage(
                    PREDICT_USAGE,
                    format!("bad pair {arg:?}: expected <init,target>"),
                ))
            }
        }
    }
    if let Some(batch_path) = &args.batch {
        pairs.extend(read_json(batch_path, parse_batch_pairs).map_err(Input)?);
    }
    if pairs.is_empty() {
        return Err(usage(
            PREDICT_USAGE,
            "predict query needs pairs (positional <init,target> or --batch)",
        ));
    }

    let follow_up = match (&args.queue, &args.spec) {
        (Some(queue_dir), Some(spec_path)) => {
            let queue = JobQueue::open(queue_dir)
                .map_err(|e| Input(format!("opening queue {}: {e}", queue_dir.display())))?;
            let template = match read_json(spec_path, ScenarioSpec::from_json).map_err(Input)? {
                ScenarioSpec::Campaign(spec) => spec,
                ScenarioSpec::Fleet(_) => {
                    return Err(Input(format!(
                        "{} is a fleet spec; the follow-up template must be a campaign",
                        spec_path.display()
                    )))
                }
            };
            Some((queue, template))
        }
        (None, None) => None,
        _ => return Err(usage(PREDICT_USAGE, "--queue and --spec go together")),
    };
    let outcome = serve_batch(
        &model,
        &pairs,
        args.gate,
        follow_up.as_ref().map(|(q, t)| (q, t)),
    )
    .map_err(|e| Input(e.to_string()))?;
    if args.json {
        print!("{}", outcome.to_json());
    } else {
        println!(
            "{}",
            predicted_pairs_table(&outcome.answers).render(Format::Text)
        );
        if !outcome.low_confidence.is_empty() {
            eprintln!(
                "{} low-confidence pair(s) at gate {}",
                outcome.low_confidence.len(),
                args.gate
            );
        }
        if let Some(job) = &outcome.submitted_job {
            eprintln!("submitted follow-up measurement campaign as {job}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn predict_validate(raw: &[String]) -> CliResult {
    let args = parse_predict_args(raw)?;
    if !args.positionals.is_empty() {
        return Err(usage(
            PREDICT_USAGE,
            "predict validate takes no positional arguments",
        ));
    }
    let corpora = predict_corpora(&args)?;
    if args.closed_loop {
        return predict_validate_closed_loop(&args, &corpora);
    }

    let reports = corpora
        .iter()
        .map(|corpus| {
            cross_validate(corpus, args.folds)
                .map_err(|e| Input(format!("validating {}: {e}", corpus.device)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if args.json {
        if let [report] = reports.as_slice() {
            print!("{}", report.to_json());
        } else {
            let mut text = serde_json::to_string_pretty(&reports).expect("reports serialise");
            text.push('\n');
            print!("{text}");
        }
    } else {
        let mut table = TextTable::with_header(&[
            "device", "folds", "pairs", "MAE ms", "MAPE", "RMSE ms", "coverage",
        ]);
        for r in &reports {
            table.row(&[
                r.device.clone(),
                r.folds.to_string(),
                r.rows.len().to_string(),
                format!("{:.4}", r.mae_ms),
                format!("{:.4}", r.mape),
                format!("{:.4}", r.rmse_ms),
                format!("{:.2}", r.coverage),
            ]);
        }
        println!("{}", table.render(Format::Text));
    }
    if let Some(out_dir) = &args.out {
        let mut bundle = Bundle::new();
        for report in &reports {
            bundle.add(
                format!("{}_held_out_scatter", report.device),
                report.scatter(),
            );
            bundle.add(
                format!("{}_held_out_error", report.device),
                report.error_heatmap(),
            );
            bundle.add_file(format!("{}_held_out.json", report.device), report.to_json());
        }
        let written = write_bundle(&bundle, out_dir)?;
        eprintln!("wrote {} files to {}", written.len(), out_dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn predict_validate_closed_loop(
    args: &PredictArgs,
    corpora: &[latest::predict::Corpus],
) -> CliResult {
    let registry = DeviceRegistry::builtin();
    let mut reports = Vec::new();
    for corpus in corpora {
        let model = PredictModel::fit(corpus)
            .map_err(|e| Input(format!("fitting {}: {e}", corpus.device)))?;
        let Some(device) = registry.get(&corpus.device) else {
            return Err(Input(format!(
                "device '{}' is not in the registry; closed-loop replay needs a \
                 simulator spec",
                corpus.device
            )));
        };
        let report = closed_loop_validate(&model, &device, args.reps, args.seed)
            .map_err(|e| Input(format!("replaying {}: {e}", corpus.device)))?;
        reports.push(report);
    }
    if args.json {
        if let [report] = reports.as_slice() {
            print!("{}", report.to_json());
        } else {
            let mut text = serde_json::to_string_pretty(&reports).expect("reports serialise");
            text.push('\n');
            print!("{text}");
        }
    } else {
        let mut table = TextTable::with_header(&["device", "reps", "pairs", "MAE ms", "MAPE"]);
        for r in &reports {
            table.row(&[
                r.device.clone(),
                r.reps.to_string(),
                r.rows.len().to_string(),
                format!("{:.4}", r.mae_ms),
                format!("{:.4}", r.mape),
            ]);
        }
        println!("{}", table.render(Format::Text));
    }
    if let Some(out_dir) = &args.out {
        let mut bundle = Bundle::new();
        for report in &reports {
            bundle.add(
                format!("{}_closed_loop_scatter", report.device),
                report.scatter(),
            );
            bundle.add_file(
                format!("{}_closed_loop.json", report.device),
                report.to_json(),
            );
        }
        let written = write_bundle(&bundle, out_dir)?;
        eprintln!("wrote {} files to {}", written.len(), out_dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_predict(raw: &[String]) -> CliResult {
    match raw.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Err(usage(PREDICT_USAGE, "")),
        Some("fit") => predict_fit(&raw[1..]),
        Some("query") => predict_query(&raw[1..]),
        Some("validate") => predict_validate(&raw[1..]),
        Some(other) => Err(usage(
            PREDICT_USAGE,
            format!("unknown predict command {other:?}"),
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => Err(usage(USAGE, "")),
        Some("run") => cmd_run(&argv[1..]),
        Some("report") => cmd_report(&argv[1..]),
        Some("diff") => cmd_diff(&argv[1..]),
        Some("list-runs") => cmd_list_runs(&argv[1..]),
        Some("queue") => cmd_queue(&argv[1..]),
        Some("govern") => cmd_govern(&argv[1..]),
        Some("predict") => cmd_predict(&argv[1..]),
        Some("validate") => cmd_validate(&argv[1..]),
        Some("print-spec") => cmd_print_spec(&argv[1..]),
        Some("list-devices") => cmd_list_devices(),
        Some("list-workloads") => cmd_list_workloads(),
        // Legacy shorthand: `latest [OPTIONS] <freq,freq,...>` is `run`.
        Some(_) => cmd_run(&argv),
    };
    outcome.unwrap_or_else(report)
}
