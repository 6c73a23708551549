//! `service_drain`: a batch of small seeded campaign jobs submitted to a
//! fresh `JobQueue` and drained by a `WorkerPool` at `nproc` workers, cold
//! (every distinct job executes and archives; duplicates coalesce), then
//! all resubmitted and drained warm (every job is a cache hit or
//! coalesces). Per job the simulator does little, so the journal,
//! checkpoints, coalescing and the store dominate. The mix includes
//! memory-plane jobs, the `run_sm` memory path `campaign_table2` never
//! takes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use latest::core::{CampaignSpec, ResultStore, RunId, ScenarioSpec};
use latest::queue::{
    DrainStats, JobId, JobQueue, PoolConfig, QueueEvent, SubmitOptions, WorkerPool,
};
use latest::telemetry::Stage;

use crate::archive::reference_cv_mape;
use crate::calib::Meter;
use crate::campaign::{campaign_layers, finish_ratios, gt_error_pct, other_ms, run_traced};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{host, Iteration, Layers, Quality, Workload};

/// Distinct jobs in the batch.
const DISTINCT: usize = 40;
/// Resubmissions of earlier jobs in the same batch (they coalesce).
const DUPLICATES: usize = 4;
/// Warm rounds per iteration. Warm drains are checked and traced, not
/// timed end to end: their time followed the disk's state, which earlier
/// runs' file churn changes for minutes.
const WARM_ROUNDS: usize = 1;

pub struct ServiceDrain {
    seed: u64,
    specs: Vec<CampaignSpec>,
    /// Submission order: indices into `specs` (duplicates last, so each
    /// original is claimed before its copy).
    order: Vec<usize>,
    dir: PathBuf,
    iteration: usize,
    /// The previous iteration's queue directory (its store is checked by
    /// `quality`).
    last_dir: Option<PathBuf>,
}

/// The job mix: A100 `paper-default` campaigns over 2–3 ladder points,
/// Quadro `bursty` campaigns over 2, and A100 `memory-bound` campaigns
/// over a 2 core × 2 memory clock plane; 5–10 measurements on 2 SMs each.
/// The mix's shape (devices, frequencies, duplicates) is fixed, so every
/// seed asks for the same amount of work; the seed sets each campaign's
/// own seed.
fn job_specs(seed: u64) -> Vec<CampaignSpec> {
    let mut shape = Rng::new(0x5e41_ce00);
    let mut seeds = Rng::new(seed ^ 0x5e41_ce00);
    // Four ladder points, so the A100 jobs pool into one well-fed corpus.
    const A100: [u32; 4] = [540, 885, 1230, 1410];
    // Off the Quadro's slow 930/990 MHz columns, where bursty pairs can
    // exhaust their retries.
    const QUADRO: [u32; 5] = [435, 660, 1395, 1785, 2100];
    (0..DISTINCT)
        .map(|i| {
            let job_seed = seeds.next_u64() >> 16;
            let builder = match i % 8 {
                5 | 6 => CampaignSpec::builder("quadro")
                    .frequencies_mhz(&shape.pick(&QUADRO, 2))
                    .workload("bursty"),
                7 => CampaignSpec::builder("a100")
                    .frequencies_mhz(&shape.pick(&A100, 2))
                    .mem_frequencies_mhz(&[810, 1215])
                    .workload("memory-bound"),
                _ => {
                    let k = 2 + shape.below(2);
                    CampaignSpec::builder("a100").frequencies_mhz(&shape.pick(&A100, k))
                }
            };
            builder
                .seed(job_seed)
                .measurements(5, 10)
                .simulated_sms(Some(2))
                .build_unchecked()
        })
        .collect()
}

/// Submit/settle instants per job, observed from outside the pool.
#[derive(Default)]
struct JobClock {
    submitted: HashMap<JobId, Instant>,
    started: HashMap<JobId, Instant>,
    settled: HashMap<JobId, (Instant, &'static str)>,
}

impl ServiceDrain {
    fn submit_all(
        &self,
        queue: &JobQueue,
        clock: &Mutex<JobClock>,
        submit_ms: &mut Vec<f64>,
    ) -> Result<Vec<JobId>, String> {
        let mut ids = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            let t = Instant::now();
            let job = queue
                .submit(
                    ScenarioSpec::Campaign(self.specs[i].clone()),
                    SubmitOptions::default(),
                )
                .map_err(|e| format!("submitting job {i}: {e}"))?;
            submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            clock
                .lock()
                .expect("job clock poisoned")
                .submitted
                .insert(job.id, t);
            ids.push(job.id);
        }
        Ok(ids)
    }

    fn distinct_ids(&self) -> Vec<RunId> {
        self.specs.iter().map(RunId::of_spec).collect()
    }
}

impl Workload for ServiceDrain {
    const SETUP_REPEATS: usize = 10;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let specs = job_specs(seed);
        for (i, spec) in specs.iter().enumerate() {
            spec.validate().map_err(|e| format!("job spec {i}: {e}"))?;
        }
        let mut shape = Rng::new(0xd00b_1e00);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.extend(shape.pick(&(0..DISTINCT).collect::<Vec<_>>(), DUPLICATES));
        Ok(ServiceDrain {
            seed,
            specs,
            order,
            dir: dir.to_path_buf(),
            iteration: 0,
            last_dir: None,
        })
    }

    fn iterate(
        &mut self,
        _meter: &Arc<Meter>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Iteration, String> {
        let mut it = Iteration::default();
        self.iteration += 1;
        // Earlier queues stay until the run's scratch directory goes:
        // deleting them here made every later drain's file operations
        // slower (the disk discards freed blocks).
        let dir = self.dir.join(format!("queue-{}", self.iteration));
        self.last_dir = Some(dir.clone());
        let queue = JobQueue::open(&dir).map_err(|e| e.to_string())?;
        let clock = Arc::new(Mutex::new(JobClock::default()));
        let observer_clock = clock.clone();
        let workers = host::nproc();
        let pool = WorkerPool::open(
            &dir,
            PoolConfig {
                workers,
                // An idle worker re-polls the journal this often (the CLI's
                // `--poll-ms`); at the default the last drain step waits out
                // up to 25 ms, a sixth of a warm drain.
                poll_interval: Duration::from_millis(2),
                ..PoolConfig::default()
            },
        )
        .map_err(|e| e.to_string())?
        .observe(move |event: &QueueEvent| {
            let now = Instant::now();
            let mut c = observer_clock.lock().expect("job clock poisoned");
            match event {
                QueueEvent::Started { job, .. } => {
                    c.started.insert(*job, now);
                }
                QueueEvent::Done { job, .. } => {
                    c.settled.insert(*job, (now, "done"));
                }
                QueueEvent::CacheHit { job, .. } => {
                    c.settled.insert(*job, (now, "cache"));
                }
                QueueEvent::Coalesced { job, .. } => {
                    c.settled.insert(*job, (now, "coalesced"));
                }
                QueueEvent::Failed { job, .. } | QueueEvent::Cancelled { job } => {
                    c.settled.insert(*job, (now, "failed"));
                }
                _ => {}
            }
        });
        let total = self.order.len();
        let mut submit_ms = Vec::new();
        let span = |name: &'static str, start: Instant, end: Instant| {
            if let Some(t) = tracer {
                t.record(name, "drain", None, t.ns_at(start), t.ns_at(end));
            }
        };

        // One round: submit the whole batch, drain it. Before each round,
        // outside every span, the file system commits what earlier rounds
        // left pending, so that a round does not wait out its
        // predecessor's writes.
        //
        // These timings are not scaled to the reference host speed: the
        // pool's threads spend a drain waking each other and in file
        // operations, which the calibration loop does not track (scaled,
        // neighbouring warm drains of near-equal wall time read up to 1.4
        // times apart).
        let mut round = |label: &str| -> Result<Round, String> {
            std::fs::File::open(&dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| format!("syncing {}: {e}", dir.display()))?;
            let start = Instant::now();
            let ids = self.submit_all(&queue, &clock, &mut submit_ms)?;
            let submitted = Instant::now();
            let stats = pool.drain().map_err(|e| format!("{label} drain: {e}"))?;
            let drained = Instant::now();
            let jobs = std::mem::take(&mut *clock.lock().expect("job clock poisoned"));
            Ok(Round {
                ids,
                stats,
                jobs,
                start,
                submitted,
                drained,
            })
        };
        let cold = round("cold")?;
        let warm = (0..WARM_ROUNDS)
            .map(|_| round("warm"))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, r) in std::iter::once(&cold).chain(&warm).enumerate() {
            let (submit, drain) = if i == 0 {
                ("queue.submit_cold", "queue.drain_cold")
            } else {
                ("queue.submit_warm", "queue.drain_warm")
            };
            span(submit, r.start, r.submitted);
            span(drain, r.submitted, r.drained);
        }

        let last = warm.last().map_or(cold.drained, |r| r.drained);
        it.wall_s = (cold.drained - cold.start).as_secs_f64();
        let cold_s = cold.drain_s();
        it.pairs = cold.stats.pairs_measured as f64;
        it.pairs_s = cold_s;
        it.jobs = cold.stats.settled() as f64;
        it.jobs_s = cold_s;
        it.attempted += ((1 + WARM_ROUNDS) * total) as u64;
        check_drain(&mut it, "cold", &cold, DISTINCT, 0, DUPLICATES);
        for r in &warm {
            check_drain(&mut it, "warm", r, 0, DISTINCT, DUPLICATES);
        }
        for id in &cold.ids {
            if let (Some(sub), Some((end, _))) =
                (cold.jobs.submitted.get(id), cold.jobs.settled.get(id))
            {
                it.turnaround_ms
                    .push(end.duration_since(*sub).as_secs_f64() * 1e3);
            }
        }
        let cached: usize = warm.iter().map(|r| r.stats.cached).sum();
        let coalesced: usize = std::iter::once(&cold)
            .chain(&warm)
            .map(|r| r.stats.coalesced)
            .sum();
        it.counts
            .insert("queue.executed", cold.stats.executed as u64);
        it.counts.insert("queue.cached", cached as u64);
        it.counts.insert("queue.coalesced", coalesced as u64);
        it.counts
            .insert("queue.shards", cold.stats.shards_executed as u64);
        it.counts
            .insert("pairs.measured", cold.stats.pairs_measured as u64);

        // The archive the cold drain wrote, byte for byte: identical
        // across iterations whatever the workers' interleaving.
        let store = pool.store();
        let mut output = String::new();
        let mut store_bytes = 0u64;
        for id in self.distinct_ids() {
            let path = store.root().join(format!("{id}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading archived {id}: {e}"))?;
            store_bytes += text.len() as u64;
            output.push_str(&text);
        }
        it.output = output;

        if let Some(tracer) = tracer {
            let l = &mut it.layers;
            for ms in &submit_ms {
                l.sample("queue.submit_ms", *ms);
            }
            for id in &cold.ids {
                let c = &cold.jobs;
                let (Some(sub), Some((end, how))) = (c.submitted.get(id), c.settled.get(id)) else {
                    continue;
                };
                let (from, to) = (tracer.ns_at(*sub), tracer.ns_at(*end));
                tracer.record(
                    "queue.job",
                    id.to_string(),
                    Some("queue.drain_cold"),
                    from,
                    to,
                );
                if let Some(start) = c.started.get(id) {
                    l.sample(
                        "queue.wait_ms",
                        start.duration_since(*sub).as_secs_f64() * 1e3,
                    );
                    if *how == "done" {
                        l.sample(
                            "queue.exec_ms",
                            end.duration_since(*start).as_secs_f64() * 1e3,
                        );
                    }
                }
            }
            let failed: usize = std::iter::once(&cold)
                .chain(&warm)
                .map(|r| r.stats.failed)
                .sum();
            let dropped: u64 = std::iter::once(&cold)
                .chain(&warm)
                .map(|r| r.stats.telemetry.dropped_events)
                .sum();
            l.set("queue.shards", cold.stats.shards_executed as f64);
            l.set("queue.cache_hits", cached as f64);
            l.set("queue.coalesced", coalesced as f64);
            l.set("queue.failed", failed as f64);
            let shard_ns = cold.stats.telemetry.stage(Stage::ShardExec).sum() as f64;
            l.set(
                "queue.pool_utilisation",
                shard_ns / (workers as f64 * cold_s * 1e9),
            );
            l.set("telemetry.dropped_events", dropped as f64);
            l.set("core.store_bytes", store_bytes as f64);
            let (spans, _) = tracer.snapshot("drain");
            l.set(
                "trace.other_ms",
                other_ms(&spans, (last - cold.start).as_secs_f64()),
            );
            // The store layer under the service's own entries, timed from
            // outside the pool: every archived run read back and re-put
            // (byte-idempotent).
            for (spec, id) in self.specs.iter().zip(self.distinct_ids()) {
                let t = Instant::now();
                let run = store.get(&id).map_err(|e| format!("reading {id}: {e}"))?;
                l.sample("core.store_get_ms", t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                store
                    .put(spec, &run.result)
                    .map_err(|e| format!("re-archiving {id}: {e}"))?;
                l.sample("core.store_put_ms", t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok(it)
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let dir = self.last_dir.as_ref().ok_or("no drained queue yet")?;
        let store = ResultStore::open(dir.join("store")).map_err(|e| e.to_string())?;
        let results = self
            .distinct_ids()
            .iter()
            .map(|id| store.get(id).map(|r| r.result))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        // One archived job against a direct session run of its spec.
        let direct = self.specs[0]
            .clone()
            .into_session()
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?;
        if direct.to_json() != results[0].to_json() {
            return Err("archived job 0 differs from a direct session run of its spec".into());
        }
        Ok(Quality {
            gt_error_pct: gt_error_pct(&results)?,
            cv_mape: reference_cv_mape(self.seed, &self.dir.join("reference"))?,
        })
    }

    /// Replay every distinct job through a traced session: the simulator,
    /// NVML, clock-sync and controller work the pool's own threads did,
    /// which cannot be timed from outside the pool. Each replay must equal
    /// the archived run byte for byte.
    fn traced_extras(&mut self, tracer: &Arc<Tracer>, layers: &mut Layers) -> Result<(), String> {
        let dir = self.last_dir.as_ref().ok_or("no drained queue yet")?;
        let store = ResultStore::open(dir.join("store")).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let mut it = Iteration::default();
        for (i, spec) in self.specs.iter().enumerate() {
            let config = spec.resolve().map_err(|e| e.to_string())?;
            let prefix = format!("replay-{i}/");
            let t = Instant::now();
            let result = run_traced(&config, tracer, &prefix, |_| {}).map_err(|e| e.to_string())?;
            let wall = t.elapsed().as_secs_f64();
            let archived = store
                .get(&RunId::of_spec(spec))
                .map_err(|e| e.to_string())?;
            it.check(archived.result.to_json() == result.to_json(), || {
                format!("replay of job {i} differs from its archived run")
            });
            let (spans, platforms) = tracer.snapshot(&prefix);
            campaign_layers(&config, &result, &spans, &platforms, wall, &mut it)?;
        }
        finish_ratios(&mut it.layers, start.elapsed().as_secs_f64());
        if let Some(failure) = it.failures.first() {
            return Err(failure.clone());
        }
        layers.values.extend(it.layers.values);
        for (k, v) in it.layers.samples {
            layers.samples.entry(k).or_default().extend(v);
        }
        Ok(())
    }
}

/// One submit-and-drain round of the batch.
struct Round {
    ids: Vec<JobId>,
    stats: DrainStats,
    jobs: JobClock,
    start: Instant,
    submitted: Instant,
    drained: Instant,
}

impl Round {
    fn drain_s(&self) -> f64 {
        (self.drained - self.submitted).as_secs_f64()
    }
}

/// Check a round's drain statistics and that every job settled.
fn check_drain(
    it: &mut Iteration,
    label: &str,
    round: &Round,
    executed: usize,
    cached: usize,
    coalesced: usize,
) {
    let stats = &round.stats;
    let got = (stats.executed, stats.cached, stats.coalesced, stats.failed);
    it.check(got == (executed, cached, coalesced, 0), || {
        format!(
            "{label} drain settled (executed, cached, coalesced, failed) = {got:?}, \
             expected {:?}",
            (executed, cached, coalesced, 0)
        )
    });
    let jobs = &round.jobs;
    let unsettled = round
        .ids
        .iter()
        .filter(|id| !jobs.settled.contains_key(id))
        .count();
    it.check(unsettled == 0, || {
        format!("{label} drain: {unsettled} jobs never settled")
    });
    let failed = jobs
        .settled
        .values()
        .filter(|(_, how)| *how == "failed")
        .count();
    it.check(failed == 0, || {
        format!("{label} drain: {failed} jobs failed")
    });
}
