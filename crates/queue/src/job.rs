//! The job model: one submission to the campaign execution service.
//!
//! A [`Job`] wraps a [`ScenarioSpec`] (one campaign or a fleet of them)
//! with a queue identity, a scheduling priority and a lifecycle
//! [`JobState`]. Jobs are content-addressed through their [`JobKey`] — the
//! [`RunId`] of a campaign spec, or a stable hash of a fleet spec — which
//! is what the queue deduplicates on: two submissions of the same spec
//! share a key, so one execution settles both.

use latest_core::spec::{CampaignSpec, ScenarioSpec};
use latest_core::store::{content_hash128, RunId};

use crate::error::{QueueError, QueueResult};

/// Identity of one submission: a dense sequence number allocated by the
/// queue (`job-000042`). The sequence doubles as the FIFO order within a
/// priority class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl JobId {
    /// Parse a `job-<decimal>` id string.
    pub fn parse(text: &str) -> QueueResult<JobId> {
        text.strip_prefix("job-")
            .and_then(|d| d.parse::<u64>().ok())
            .map(JobId)
            .ok_or_else(|| QueueError::BadJobId {
                text: text.to_string(),
            })
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

/// Content address of the *work* a job describes, independent of when or
/// how often it was submitted. Campaign jobs reuse the spec's [`RunId`];
/// fleet jobs hash the canonical fleet JSON the same way (`fleet-<32
/// hex>`). Jobs with equal keys describe bitwise-identical executions, so
/// the queue runs one of them and settles the rest.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(String);

impl JobKey {
    /// Derive the key of a scenario.
    pub fn of_spec(spec: &ScenarioSpec) -> JobKey {
        match spec {
            ScenarioSpec::Campaign(c) => JobKey(RunId::of_spec(c).to_string()),
            ScenarioSpec::Fleet(f) => {
                let (h1, h2) = content_hash128(f.to_json().as_bytes());
                JobKey(format!("fleet-{h1:016x}{h2:016x}"))
            }
        }
    }

    /// The key as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How a [`JobState::Done`] job reached completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompletionVia {
    /// The worker pool ran the campaign(s).
    Executed,
    /// An archived run of the identical spec was served from the result
    /// store without recomputation.
    Cache,
    /// An identical job executed concurrently; this one observed that
    /// single execution.
    Coalesced,
}

impl std::fmt::Display for CompletionVia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CompletionVia::Executed => "executed",
            CompletionVia::Cache => "cache",
            CompletionVia::Coalesced => "coalesced",
        })
    }
}

/// Lifecycle of a job: `Queued → Running → Done | Failed | Cancelled`.
///
/// A service killed mid-run reverts its `Running` jobs to `Queued` on
/// restart ([`JobQueue::recover`](crate::queue::JobQueue::recover)); their
/// checkpoints make the re-run resume instead of restart.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing (or about to execute) the job.
    Running,
    /// Finished; results are archived under `run_ids` (one per campaign,
    /// or one per fleet member in slot order).
    Done {
        /// Archive addresses of the job's results.
        run_ids: Vec<RunId>,
        /// Whether the job executed, hit the cache, or coalesced.
        via: CompletionVia,
    },
    /// Execution failed; the job will not be retried.
    Failed {
        /// The rendered error.
        error: String,
    },
    /// Cancelled by request before completing.
    Cancelled,
}

impl JobState {
    /// Whether the job is still waiting or running.
    pub fn is_pending(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }

    /// Short lifecycle label (`queued`, `running`, `done`, …).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobState::Done { run_ids, via } => {
                let ids: Vec<String> = run_ids.iter().map(|r| r.to_string()).collect();
                write!(f, "done ({via}: {})", ids.join(", "))
            }
            JobState::Failed { error } => write!(f, "failed ({error})"),
            other => f.write_str(other.label()),
        }
    }
}

impl serde::Serialize for JobState {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![("state".to_string(), self.label().to_string().to_value())];
        match self {
            JobState::Done { run_ids, via } => {
                let ids: Vec<String> = run_ids.iter().map(|r| r.to_string()).collect();
                entries.push(("run_ids".to_string(), ids.to_value()));
                entries.push(("via".to_string(), via.to_string().to_value()));
            }
            JobState::Failed { error } => {
                entries.push(("error".to_string(), error.to_value()));
            }
            _ => {}
        }
        serde::Value::Map(entries)
    }
}

impl serde::Deserialize for JobState {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for JobState, got {value:?}"))
        })?;
        let tag: String =
            serde::Deserialize::from_value(serde::field(entries, "state", "JobState")?)?;
        match tag.as_str() {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "cancelled" => Ok(JobState::Cancelled),
            "failed" => Ok(JobState::Failed {
                error: serde::Deserialize::from_value(serde::field(entries, "error", "JobState")?)?,
            }),
            "done" => {
                let ids: Vec<String> =
                    serde::Deserialize::from_value(serde::field(entries, "run_ids", "JobState")?)?;
                let run_ids = ids
                    .iter()
                    .map(|t| {
                        RunId::parse(t)
                            .map_err(|e| serde::Error::custom(format!("bad run id in job: {e}")))
                    })
                    .collect::<Result<Vec<RunId>, serde::Error>>()?;
                let via: String =
                    serde::Deserialize::from_value(serde::field(entries, "via", "JobState")?)?;
                let via = match via.as_str() {
                    "executed" => CompletionVia::Executed,
                    "cache" => CompletionVia::Cache,
                    "coalesced" => CompletionVia::Coalesced,
                    other => {
                        return Err(serde::Error::custom(format!(
                            "unknown completion mode {other:?}"
                        )))
                    }
                };
                Ok(JobState::Done { run_ids, via })
            }
            other => Err(serde::Error::custom(format!("unknown job state {other:?}"))),
        }
    }
}

/// Pair-level progress of one member campaign, journaled while the job
/// runs so `queue status` (and a post-crash inspection) can see how far
/// execution got without parsing checkpoints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemberLedger {
    /// Pairs settled (measured, skipped or restored from checkpoint).
    pub pairs_done: usize,
    /// Pairs the member campaign schedules in total.
    pub pairs_total: usize,
}

/// The job's pair ledger: one [`MemberLedger`] per member, in slot order.
/// Journaled at every checkpoint boundary, so recovery knows exactly which
/// fraction of the job survives in checkpoints — a requeued job measures
/// only its unsettled pairs (the checkpoint restores the settled ones
/// verbatim).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairLedger {
    /// Per-member progress, in slot order.
    pub members: Vec<MemberLedger>,
}

impl PairLedger {
    /// Pairs settled across every member.
    pub fn pairs_done(&self) -> usize {
        self.members.iter().map(|m| m.pairs_done).sum()
    }

    /// Pairs scheduled across every member.
    pub fn pairs_total(&self) -> usize {
        self.members.iter().map(|m| m.pairs_total).sum()
    }

    /// One-line progress summary (`12/56 pairs`).
    pub fn summary(&self) -> String {
        format!("{}/{} pairs", self.pairs_done(), self.pairs_total())
    }
}

impl serde::Serialize for MemberLedger {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("pairs_done".to_string(), self.pairs_done.to_value()),
            ("pairs_total".to_string(), self.pairs_total.to_value()),
        ])
    }
}

impl serde::Deserialize for MemberLedger {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for MemberLedger, got {value:?}"))
        })?;
        let get = |name: &str| -> Result<usize, serde::Error> {
            let v: u64 =
                serde::Deserialize::from_value(serde::field(entries, name, "MemberLedger")?)?;
            Ok(v as usize)
        };
        Ok(MemberLedger {
            pairs_done: get("pairs_done")?,
            pairs_total: get("pairs_total")?,
        })
    }
}

impl serde::Serialize for PairLedger {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("members".to_string(), self.members.to_value())])
    }
}

impl serde::Deserialize for PairLedger {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for PairLedger, got {value:?}"))
        })?;
        Ok(PairLedger {
            members: serde::Deserialize::from_value(serde::field(
                entries,
                "members",
                "PairLedger",
            )?)?,
        })
    }
}

const JOB_FORMAT: u64 = 1;

/// One submission: the scenario to run, its scheduling priority and
/// lifecycle state. Persisted as one JSON file per job in the queue
/// directory's journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Queue identity (also the journal file stem and the FIFO order).
    pub id: JobId,
    /// Scheduling priority: higher runs sooner; ties are FIFO by id.
    pub priority: i32,
    /// Bypass the result cache: execute even when an archived run of the
    /// identical spec exists.
    pub force: bool,
    /// The scenario to execute.
    pub spec: ScenarioSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Pair-level progress, journaled while the job runs (and kept on a
    /// shutdown-requeued job, so `status` shows how much of the resume is
    /// already banked in checkpoints). `None` before execution plans the
    /// job and after it settles.
    pub ledger: Option<PairLedger>,
}

impl Job {
    /// The job's content address (derived from the spec, never stored).
    pub fn key(&self) -> JobKey {
        JobKey::of_spec(&self.spec)
    }

    /// The member campaign specs, in slot order (a campaign job is a
    /// single-member slice).
    pub fn members(&self) -> &[CampaignSpec] {
        match &self.spec {
            ScenarioSpec::Campaign(c) => std::slice::from_ref(c),
            ScenarioSpec::Fleet(f) => &f.members,
        }
    }

    /// The archive addresses the job's results will land on, in slot
    /// order. Execution is deterministic, so these are known up front.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.members().iter().map(RunId::of_spec).collect()
    }

    /// One-line summary of the work (`a100 campaign, 2 freqs` / `fleet of
    /// 2`), for status tables and event lines.
    pub fn describe(&self) -> String {
        match &self.spec {
            ScenarioSpec::Campaign(c) => format!("campaign on {}", c.device),
            ScenarioSpec::Fleet(f) => format!("fleet of {}", f.members.len()),
        }
    }

    /// Serialise to pretty JSON (the journal file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("job serialises")
    }

    /// Parse a job back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

impl serde::Serialize for Job {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("format".to_string(), JOB_FORMAT.to_value()),
            ("id".to_string(), self.id.to_string().to_value()),
            ("priority".to_string(), (self.priority as i64).to_value()),
            ("force".to_string(), self.force.to_value()),
            ("state".to_string(), self.state.to_value()),
        ];
        if let Some(ledger) = &self.ledger {
            entries.push(("ledger".to_string(), ledger.to_value()));
        }
        entries.push(("spec".to_string(), self.spec.to_value()));
        serde::Value::Map(entries)
    }
}

impl serde::Deserialize for Job {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::custom(format!("expected map for Job, got {value:?}")))?;
        let field = |name: &str| serde::field(entries, name, "Job");
        let format: u64 = serde::Deserialize::from_value(field("format")?)?;
        if format != JOB_FORMAT {
            return Err(serde::Error::custom(format!(
                "unsupported job format {format} (this tool reads {JOB_FORMAT})"
            )));
        }
        let id_text: String = serde::Deserialize::from_value(field("id")?)?;
        let id = JobId::parse(&id_text)
            .map_err(|e| serde::Error::custom(format!("bad job id in journal entry: {e}")))?;
        let priority: i64 = serde::Deserialize::from_value(field("priority")?)?;
        // Optional: entries journaled before the ledger existed (or outside
        // an execution window) carry no ledger. Keys a ledger member does
        // not know — the shard counters older services journaled — are
        // ignored, and dropped on the next save.
        let ledger = entries
            .iter()
            .find(|(k, _)| k == "ledger")
            .map(|(_, v)| serde::Deserialize::from_value(v))
            .transpose()?;
        Ok(Job {
            id,
            priority: priority as i32,
            force: serde::Deserialize::from_value(field("force")?)?,
            state: serde::Deserialize::from_value(field("state")?)?,
            spec: serde::Deserialize::from_value(field("spec")?)?,
            ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::spec::FleetSpec;

    fn tiny(seed: u64) -> CampaignSpec {
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .measurements(3, 6)
            .simulated_sms(Some(2))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn job_ids_format_and_parse() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "job-000042");
        assert_eq!(JobId::parse("job-000042").unwrap(), id);
        assert_eq!(JobId::parse("job-7").unwrap(), JobId(7));
        assert!(JobId::parse("run-000042").is_err());
        assert!(JobId::parse("job-x").is_err());
    }

    #[test]
    fn keys_are_content_addressed() {
        let a = ScenarioSpec::Campaign(tiny(1));
        let b = ScenarioSpec::Campaign(tiny(1));
        let c = ScenarioSpec::Campaign(tiny(2));
        assert_eq!(JobKey::of_spec(&a), JobKey::of_spec(&b));
        assert_ne!(JobKey::of_spec(&a), JobKey::of_spec(&c));
        // Campaign keys are literally the run id.
        assert_eq!(
            JobKey::of_spec(&a).as_str(),
            RunId::of_spec(&tiny(1)).as_str()
        );
        // Fleet keys are stable across re-serialisation and distinct from
        // campaign keys.
        let f = ScenarioSpec::Fleet(FleetSpec::new().member(tiny(1)).member(tiny(2)));
        let f2 = ScenarioSpec::from_json(&f.to_json()).unwrap();
        assert_eq!(JobKey::of_spec(&f), JobKey::of_spec(&f2));
        assert!(JobKey::of_spec(&f).as_str().starts_with("fleet-"));
    }

    #[test]
    fn jobs_round_trip_through_json() {
        let states = vec![
            JobState::Queued,
            JobState::Running,
            JobState::Cancelled,
            JobState::Failed {
                error: "spec violation".to_string(),
            },
            JobState::Done {
                run_ids: vec![RunId::of_spec(&tiny(3))],
                via: CompletionVia::Cache,
            },
            JobState::Done {
                run_ids: vec![RunId::of_spec(&tiny(3)), RunId::of_spec(&tiny(4))],
                via: CompletionVia::Coalesced,
            },
        ];
        for (i, state) in states.into_iter().enumerate() {
            let job = Job {
                id: JobId(i as u64),
                priority: -2 + i as i32,
                force: i % 2 == 0,
                spec: ScenarioSpec::Campaign(tiny(9)),
                state,
                ledger: None,
            };
            let back = Job::from_json(&job.to_json()).unwrap();
            assert_eq!(back, job);
        }
    }

    #[test]
    fn ledgers_round_trip_and_summarise() {
        let ledger = PairLedger {
            members: vec![
                MemberLedger {
                    pairs_done: 4,
                    pairs_total: 6,
                },
                MemberLedger {
                    pairs_done: 6,
                    pairs_total: 6,
                },
            ],
        };
        assert_eq!(ledger.summary(), "10/12 pairs");
        let job = Job {
            id: JobId(7),
            priority: 0,
            force: false,
            spec: ScenarioSpec::Campaign(tiny(9)),
            state: JobState::Running,
            ledger: Some(ledger),
        };
        let back = Job::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
        // Entries journaled without a ledger still parse: the field is
        // optional.
        let bare = Job {
            ledger: None,
            ..job
        };
        assert_eq!(Job::from_json(&bare.to_json()).unwrap().ledger, None);
    }

    #[test]
    fn shard_era_ledgers_load_and_resave_without_shard_counters() {
        // A job a shutdown requeued under a service that still scheduled
        // pair shards: its ledger members carry shard counters.
        let entry = r#"{
  "format": 1,
  "id": "job-000007",
  "priority": 0,
  "force": false,
  "state": {
    "state": "queued"
  },
  "ledger": {
    "members": [
      {
        "pairs_done": 1,
        "pairs_total": 2,
        "shards_done": 1,
        "shards_total": 2
      }
    ]
  },
  "spec": {
    "description": "",
    "device": "a100",
    "device_index": 0,
    "hostname": "simnode",
    "frequencies": [
      705,
      1410
    ],
    "seed": 9,
    "rse_threshold": 0.05,
    "min_measurements": 3,
    "max_measurements": 6,
    "simulated_sms": 2,
    "workload": "paper-default"
  }
}"#;
        let job = Job::from_json(entry).expect("a shard-era entry loads");
        assert_eq!(job.state, JobState::Queued);
        let ledger = job.ledger.as_ref().expect("the ledger survives");
        assert_eq!(
            ledger.members,
            vec![MemberLedger {
                pairs_done: 1,
                pairs_total: 2,
            }]
        );
        assert_eq!(ledger.summary(), "1/2 pairs");
        // Re-saving drops the shard counters and changes nothing else.
        let resaved = job.to_json();
        assert!(!resaved.contains("shards_"), "{resaved}");
        assert_eq!(
            resaved,
            entry.replace(
                ",\n        \"shards_done\": 1,\n        \"shards_total\": 2",
                ""
            )
        );
    }

    #[test]
    fn fleet_jobs_expose_members_in_slot_order() {
        let job = Job {
            id: JobId(0),
            priority: 0,
            force: false,
            spec: ScenarioSpec::Fleet(FleetSpec::new().member(tiny(1)).member(tiny(2))),
            state: JobState::Queued,
            ledger: None,
        };
        assert_eq!(job.members().len(), 2);
        assert_eq!(job.run_ids().len(), 2);
        assert_eq!(job.run_ids()[0], RunId::of_spec(&tiny(1)));
        assert_eq!(job.run_ids()[1], RunId::of_spec(&tiny(2)));
        assert_eq!(job.describe(), "fleet of 2");
    }
}
