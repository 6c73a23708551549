//! The governor daemon: a closed control loop over synthetic traffic.
//!
//! A deployed governor has no plan of the workload ahead: it polls
//! utilisation, classifies the load into zones, debounces the
//! classification with stability counters, and only then switches —
//! paying, each time, a latency drawn from the *measured* [`LatencyTable`].
//! This module is that loop, in the control-loop shape of production GPU
//! governors (multi-level zones, hysteresis, idle slow-poll, aggressive
//! down-clocking), run in virtual time against an open-loop
//! [`TrafficTrace`].
//!
//! Switches cost what the paper measures. Its phase 2 watches a workload
//! that keeps iterating at the *initial* frequency until the target
//! frequency takes over, so while a switch is in flight the device keeps
//! serving its queue at the old clock, drawing busy power at that clock.
//! The latency is paid in time spent at the wrong frequency: a slow switch
//! down leaves the device fast and power-hungry for longer, a slow switch
//! up leaves it too slow for the load that asked for the change. A policy
//! that consults the table before switching ([`LatencyAwareDaemon`])
//! declines switches that do not amortise; one that assumes switches are
//! free ([`LatencyObliviousDaemon`]) pays for every debounced zone change.

use std::collections::VecDeque;
use std::fmt;

use latest_gpu_sim::freq::FreqMhz;
use latest_traffic::TrafficTrace;
use serde::{Deserialize, Serialize};

use crate::power::{PhaseKind, PowerModel};
use crate::table::{LatencyTable, TransitionReplay};

/// Debounced load classification, coarsest to hottest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadZone {
    /// No work and no arrivals: the daemon slow-polls.
    Idle,
    /// Utilisation below the low watermark.
    Low,
    /// Utilisation between the low and medium watermarks.
    Medium,
    /// Utilisation between the medium and high watermarks.
    High,
    /// Utilisation above the high watermark, or the queue past the
    /// saturation depth.
    Saturated,
}

impl LoadZone {
    /// Ordering rank (Idle = 0 … Saturated = 4).
    pub fn rank(self) -> u8 {
        match self {
            LoadZone::Idle => 0,
            LoadZone::Low => 1,
            LoadZone::Medium => 2,
            LoadZone::High => 3,
            LoadZone::Saturated => 4,
        }
    }

    /// Display label.
    pub fn as_str(self) -> &'static str {
        match self {
            LoadZone::Idle => "idle",
            LoadZone::Low => "low",
            LoadZone::Medium => "medium",
            LoadZone::High => "high",
            LoadZone::Saturated => "saturated",
        }
    }
}

impl fmt::Display for LoadZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Control-loop tuning: poll cadence, utilisation watermarks, stability
/// (debounce) counters.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Control-loop period (ms of virtual time).
    pub poll_ms: f64,
    /// Relaxed period while idle (the idle slow-poll).
    pub idle_poll_ms: f64,
    /// Consecutive polls a *hotter* zone must persist before it is applied.
    pub up_stability: u32,
    /// Consecutive polls a *cooler* zone must persist before it is applied.
    pub down_stability: u32,
    /// Apply a drop to [`LoadZone::Idle`] after a single poll (aggressive
    /// down-clocking: idle is unambiguous).
    pub aggressive_down: bool,
    /// Utilisation below this is [`LoadZone::Low`].
    pub low_util: f64,
    /// Utilisation below this (and ≥ `low_util`) is [`LoadZone::Medium`].
    pub medium_util: f64,
    /// Utilisation below this (and ≥ `medium_util`) is [`LoadZone::High`].
    pub high_util: f64,
    /// Queue depth at or above which the zone is [`LoadZone::Saturated`]
    /// regardless of utilisation.
    pub saturation_queue: usize,
    /// Hard stop on virtual time (guards against a runaway backlog).
    pub max_virtual_ms: f64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            poll_ms: 10.0,
            idle_poll_ms: 50.0,
            up_stability: 2,
            down_stability: 4,
            aggressive_down: true,
            low_util: 0.15,
            medium_util: 0.45,
            high_util: 0.80,
            saturation_queue: 4,
            max_virtual_ms: 600_000.0,
        }
    }
}

impl DaemonConfig {
    /// Classify one poll window's observation into a zone.
    pub fn classify(&self, utilisation: f64, queue_depth: usize) -> LoadZone {
        if queue_depth >= self.saturation_queue {
            return LoadZone::Saturated;
        }
        if utilisation <= 1e-9 && queue_depth == 0 {
            return LoadZone::Idle;
        }
        if utilisation < self.low_util {
            LoadZone::Low
        } else if utilisation < self.medium_util {
            LoadZone::Medium
        } else if utilisation < self.high_util {
            LoadZone::High
        } else {
            LoadZone::Saturated
        }
    }

    /// Debounce threshold for moving from `applied` to `pending`.
    fn stability_needed(&self, applied: LoadZone, pending: LoadZone) -> u32 {
        if pending.rank() > applied.rank() {
            self.up_stability
        } else if self.aggressive_down && pending == LoadZone::Idle {
            1
        } else {
            self.down_stability
        }
    }
}

/// Maps zones onto the table's measured target frequencies: the only
/// frequencies a table-driven governor can reason about.
#[derive(Clone, Debug)]
pub struct ZoneLadder {
    rungs: Vec<FreqMhz>,
}

impl ZoneLadder {
    /// Build from a table's known targets (ascending). Returns `None` when
    /// the table has no targets at all.
    pub fn from_table(table: &LatencyTable) -> Option<Self> {
        let rungs = table.known_targets();
        if rungs.is_empty() {
            None
        } else {
            Some(ZoneLadder { rungs })
        }
    }

    /// The rung a zone maps to: idle at the bottom, saturated at the top,
    /// the middle zones spread across the ladder.
    pub fn target(&self, zone: LoadZone) -> FreqMhz {
        let fraction = match zone {
            LoadZone::Idle => 0.0,
            LoadZone::Low => 0.25,
            LoadZone::Medium => 0.5,
            LoadZone::High => 0.75,
            LoadZone::Saturated => 1.0,
        };
        let idx = ((self.rungs.len() - 1) as f64 * fraction).round() as usize;
        self.rungs[idx]
    }

    /// The ladder ceiling.
    pub fn max(&self) -> FreqMhz {
        *self.rungs.last().expect("ladder is non-empty")
    }

    /// All rungs, ascending.
    pub fn rungs(&self) -> &[FreqMhz] {
        &self.rungs
    }
}

/// An online frequency policy for the daemon: sees only the debounced zone,
/// the current frequency and a dwell-time hint — no future knowledge.
pub trait DaemonPolicy {
    /// Policy name for scorecards.
    fn name(&self) -> &str;

    /// Frequency applied before the run starts (free, like a boot clock).
    fn initial_frequency(&self, ladder: &ZoneLadder) -> FreqMhz;

    /// Called when the debounced zone changes. `dwell_hint_ms` is the
    /// daemon's running estimate of how long a zone persists. Return the
    /// frequency to switch to, or `None` to stay.
    fn decide(
        &self,
        zone: LoadZone,
        current: FreqMhz,
        ladder: &ZoneLadder,
        dwell_hint_ms: f64,
    ) -> Option<FreqMhz>;
}

/// Never switch: pin the ladder ceiling.
#[derive(Clone, Debug, Default)]
pub struct RunAtMaxDaemon;

impl DaemonPolicy for RunAtMaxDaemon {
    fn name(&self) -> &str {
        "run-at-max"
    }

    fn initial_frequency(&self, ladder: &ZoneLadder) -> FreqMhz {
        ladder.max()
    }

    fn decide(
        &self,
        _zone: LoadZone,
        _current: FreqMhz,
        _ladder: &ZoneLadder,
        _dwell_hint_ms: f64,
    ) -> Option<FreqMhz> {
        None
    }
}

/// Chase the ladder at every zone change, assuming switches are free — the
/// CPU-governor reflex transplanted to a GPU.
#[derive(Clone, Debug, Default)]
pub struct LatencyObliviousDaemon;

impl DaemonPolicy for LatencyObliviousDaemon {
    fn name(&self) -> &str {
        "latency-oblivious"
    }

    fn initial_frequency(&self, ladder: &ZoneLadder) -> FreqMhz {
        ladder.max()
    }

    fn decide(
        &self,
        zone: LoadZone,
        current: FreqMhz,
        ladder: &ZoneLadder,
        _dwell_hint_ms: f64,
    ) -> Option<FreqMhz> {
        let want = ladder.target(zone);
        (want != current).then_some(want)
    }
}

/// Consult the measured table before every switch: unknown pairs are
/// unaffordable, pathological pairs are detoured, and a switch must
/// amortise against the expected zone dwell time.
#[derive(Clone, Debug)]
pub struct LatencyAwareDaemon {
    table: LatencyTable,
    /// A switch must cost at most this fraction of the dwell hint.
    pub amortise_fraction: f64,
    /// Detour window (MHz) around a pathological target.
    pub detour_window_mhz: u32,
    /// A pair is pathological above `factor ×` the table's typical latency.
    pub pathological_factor: f64,
}

impl LatencyAwareDaemon {
    /// Default thresholds: 10 % amortisation, 200 MHz detours, 2× typical.
    pub fn new(table: LatencyTable) -> Self {
        LatencyAwareDaemon {
            table,
            amortise_fraction: 0.1,
            detour_window_mhz: 200,
            pathological_factor: 2.0,
        }
    }
}

impl DaemonPolicy for LatencyAwareDaemon {
    fn name(&self) -> &str {
        "latency-aware"
    }

    fn initial_frequency(&self, ladder: &ZoneLadder) -> FreqMhz {
        ladder.max()
    }

    fn decide(
        &self,
        zone: LoadZone,
        current: FreqMhz,
        ladder: &ZoneLadder,
        dwell_hint_ms: f64,
    ) -> Option<FreqMhz> {
        let want = ladder.target(zone);
        if want == current {
            return None;
        }
        // Unknown pairs are unaffordable, not free.
        let straight = self.table.expected_ms(current, want)?;
        let (target, expected_ms) =
            if self
                .table
                .is_pathological(current, want, self.pathological_factor)
            {
                match self
                    .table
                    .cheapest_near(current, want, self.detour_window_mhz)
                {
                    Some((alt, alt_ms)) if alt_ms < straight => (alt, alt_ms),
                    _ => (want, straight),
                }
            } else {
                (want, straight)
            };
        if target == current || expected_ms > self.amortise_fraction * dwell_hint_ms {
            return None;
        }
        Some(target)
    }
}

/// The daemon policy names, in canonical scorecard order.
pub const POLICY_NAMES: &[&str] = &["run-at-max", "latency-oblivious", "latency-aware"];

/// Build a daemon policy by name (the CLI entry point).
pub fn make_policy(name: &str, table: &LatencyTable) -> Result<Box<dyn DaemonPolicy>, String> {
    match name {
        "run-at-max" => Ok(Box::new(RunAtMaxDaemon)),
        "latency-oblivious" => Ok(Box::new(LatencyObliviousDaemon)),
        "latency-aware" => Ok(Box::new(LatencyAwareDaemon::new(table.clone()))),
        other => Err(format!(
            "unknown policy `{other}` (known policies: {})",
            POLICY_NAMES.join(", ")
        )),
    }
}

/// Derive the replay seed for one (policy × traffic) cell from a base seed,
/// so every cell draws an independent but reproducible latency stream
/// regardless of evaluation order. FNV-1a over the labels.
pub fn replay_seed(base: u64, policy: &str, traffic: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    eat(&base.to_le_bytes());
    eat(policy.as_bytes());
    eat(b"\x00");
    eat(traffic.as_bytes());
    hash
}

/// Closed-loop outcome of one (policy × traffic) cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scorecard {
    /// Policy name.
    pub policy: String,
    /// Traffic scenario name.
    pub traffic: String,
    /// Replay seed the switch latencies were drawn under.
    pub seed: u64,
    /// Requests offered.
    pub requests: usize,
    /// Requests completed (always all of them; the run drains the queue).
    pub completed: usize,
    /// Requests that carried a deadline.
    pub with_deadline: usize,
    /// Deadline-carrying requests that completed late.
    pub missed_deadlines: usize,
    /// Mean request latency, arrival to completion (ms).
    pub mean_latency_ms: f64,
    /// Median request latency (ms, nearest rank).
    pub p50_latency_ms: f64,
    /// 99th-percentile request latency (ms, nearest rank).
    pub p99_latency_ms: f64,
    /// Virtual time to drain the scenario (ms).
    pub runtime_ms: f64,
    /// Energy over the run (J), via the [`PowerModel`].
    pub energy_j: f64,
    /// Frequency switches issued.
    pub switches: usize,
    /// Zone changes where the policy chose not to switch.
    pub suppressed: usize,
    /// Requests that arrived while a switch was in flight (served at the
    /// old clock until the switch lands).
    pub arrivals_mid_switch: usize,
    /// Total time with a switch in flight (ms).
    pub time_in_switch_ms: f64,
    /// Longest single switch paid (ms).
    pub worst_switch_ms: f64,
    /// Control polls taken at the idle slow-poll cadence.
    pub idle_polls: usize,
}

impl Scorecard {
    /// Missed-deadline rate over deadline-carrying requests (0 when the
    /// scenario has none).
    pub fn missed_rate(&self) -> f64 {
        if self.with_deadline == 0 {
            0.0
        } else {
            self.missed_deadlines as f64 / self.with_deadline as f64
        }
    }

    /// Serialise to pretty JSON with a fixed field order (bitwise
    /// deterministic for identical runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scorecard serialises")
    }
}

/// Serialise a batch of scorecards to pretty JSON with fixed field order
/// (the `govern run --json` output; bitwise deterministic for identical
/// runs).
pub fn scorecards_to_json(cards: &[Scorecard]) -> String {
    serde_json::to_string_pretty(&cards.to_vec()).expect("scorecards serialise")
}

/// One queued request during the run.
struct Job {
    arrival_ms: f64,
    remaining_ref_ms: f64,
    deadline_ms: Option<f64>,
}

/// The control loop itself: steps a simulated device in virtual time under
/// a [`DaemonPolicy`], paying measured latency for every switch.
#[derive(Clone, Debug)]
pub struct GovernorDaemon {
    config: DaemonConfig,
    power: PowerModel,
}

impl GovernorDaemon {
    /// A daemon with `config` over a device modelled by `power` (whose
    /// `f_max` is the reference frequency work amounts are normalised to).
    pub fn new(config: DaemonConfig, power: PowerModel) -> Self {
        GovernorDaemon { config, power }
    }

    /// Run `policy` over `trace`, drawing switch latencies from `replay`.
    ///
    /// The device serves the queue FIFO at a rate proportional to its
    /// current frequency; while a switch is in flight it keeps serving at
    /// the old frequency until the switch lands (the paper's cost model).
    /// Zone changes debounced while a switch is in flight stay pending and
    /// reach the policy at the first poll after landing. The run ends when
    /// the queue drains after the last arrival.
    pub fn run(
        &self,
        policy: &dyn DaemonPolicy,
        trace: &TrafficTrace,
        replay: &mut TransitionReplay,
        seed: u64,
    ) -> Scorecard {
        let ladder = ZoneLadder::from_table(replay.table()).expect("latency table has targets");
        let f_ref = self.power.f_max;
        let cfg = &self.config;

        let mut now = 0.0f64;
        let mut current = policy.initial_frequency(&ladder);
        let mut queue: VecDeque<Job> = VecDeque::new();
        let mut next_arrival = 0usize;
        // (landing instant, landing frequency)
        let mut in_switch: Option<(f64, FreqMhz)> = None;
        let mut next_poll = cfg.poll_ms;
        let mut busy_in_window = 0.0f64;
        let mut window_start = 0.0f64;

        // Debounce state.
        let mut applied_zone = LoadZone::Idle;
        let mut pending_zone = LoadZone::Idle;
        let mut pending_count = 0u32;
        let mut zone_since = 0.0f64;
        let mut dwell_ema = 8.0 * cfg.poll_ms;

        // Accounting.
        let mut latencies: Vec<f64> = Vec::with_capacity(trace.len());
        let mut missed = 0usize;
        let mut with_deadline = 0usize;
        let mut energy_j = 0.0f64;
        let mut switches = 0usize;
        let mut suppressed = 0usize;
        let mut arrivals_mid_switch = 0usize;
        let mut time_in_switch = 0.0f64;
        let mut worst_switch = 0.0f64;
        let mut idle_polls = 0usize;

        loop {
            // A switch in flight does not stop the device: `current` stays
            // the old clock until the switch lands.
            let serving = !queue.is_empty();
            let speed = current.as_f64() / f_ref.as_f64();

            // Next event: arrival, head-of-queue completion, switch landing
            // or control poll — whichever is soonest.
            let mut next = next_poll;
            if let Some(r) = trace.requests.get(next_arrival) {
                next = next.min(r.arrival_ms);
            }
            if serving && speed > 0.0 {
                let head = queue.front().expect("serving implies non-empty");
                next = next.min(now + head.remaining_ref_ms / speed);
            }
            if let Some((land, _)) = in_switch {
                next = next.min(land);
            }
            let dt = (next - now).max(0.0);

            // Advance: drain work, integrate energy.
            if dt > 0.0 {
                if serving {
                    if let Some(head) = queue.front_mut() {
                        head.remaining_ref_ms = (head.remaining_ref_ms - dt * speed).max(0.0);
                    }
                    busy_in_window += dt;
                    energy_j += self.power.energy_j(current, PhaseKind::Busy, dt);
                } else {
                    energy_j += self.power.energy_j(current, PhaseKind::Idle, dt);
                }
            }
            now = next;

            // Switch lands.
            if let Some((land, target)) = in_switch {
                if now >= land {
                    current = target;
                    in_switch = None;
                }
            }

            // Head-of-queue completion.
            while let Some(head) = queue.front() {
                if head.remaining_ref_ms > 1e-9 {
                    break;
                }
                let job = queue.pop_front().expect("front exists");
                latencies.push(now - job.arrival_ms);
                if let Some(d) = job.deadline_ms {
                    with_deadline += 1;
                    if now > d {
                        missed += 1;
                    }
                }
            }

            // Arrivals at this instant.
            while let Some(r) = trace.requests.get(next_arrival) {
                if r.arrival_ms > now {
                    break;
                }
                if in_switch.is_some() {
                    arrivals_mid_switch += 1;
                }
                queue.push_back(Job {
                    arrival_ms: r.arrival_ms,
                    remaining_ref_ms: r.work_ms,
                    deadline_ms: r.deadline_ms,
                });
                next_arrival += 1;
            }

            // Control poll.
            if now >= next_poll {
                let window = (now - window_start).max(1e-9);
                let utilisation = (busy_in_window / window).clamp(0.0, 1.0);
                let observed = cfg.classify(utilisation, queue.len());
                if observed == pending_zone {
                    pending_count += 1;
                } else {
                    pending_zone = observed;
                    pending_count = 1;
                }
                // While a switch is in flight the zone stays pending: it is
                // applied and decided at the first poll after landing.
                if pending_zone != applied_zone
                    && in_switch.is_none()
                    && pending_count >= cfg.stability_needed(applied_zone, pending_zone)
                {
                    // Debounced zone change: update the dwell estimate and
                    // consult the policy.
                    let dwell = now - zone_since;
                    dwell_ema = 0.7 * dwell_ema + 0.3 * dwell;
                    applied_zone = pending_zone;
                    zone_since = now;
                    match policy.decide(applied_zone, current, &ladder, dwell_ema) {
                        Some(target) if target != current => {
                            let latency = replay.draw_ms(current, target);
                            in_switch = Some((now + latency, target));
                            switches += 1;
                            time_in_switch += latency;
                            worst_switch = worst_switch.max(latency);
                        }
                        _ => suppressed += 1,
                    }
                }
                busy_in_window = 0.0;
                window_start = now;
                let idle = applied_zone == LoadZone::Idle && queue.is_empty();
                if idle {
                    idle_polls += 1;
                    next_poll = now + cfg.idle_poll_ms;
                } else {
                    next_poll = now + cfg.poll_ms;
                }
            }

            let drained = next_arrival >= trace.len() && queue.is_empty() && in_switch.is_none();
            if drained || now >= cfg.max_virtual_ms {
                break;
            }
        }

        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantile = |q: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let idx = (q * (latencies.len() - 1) as f64).round() as usize;
            latencies[idx]
        };
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };

        Scorecard {
            policy: policy.name().to_string(),
            traffic: trace.name.clone(),
            seed,
            requests: trace.len(),
            completed: latencies.len(),
            with_deadline,
            missed_deadlines: missed,
            mean_latency_ms: mean,
            p50_latency_ms: quantile(0.5),
            p99_latency_ms: quantile(0.99),
            runtime_ms: now,
            energy_j,
            switches,
            suppressed,
            arrivals_mid_switch,
            time_in_switch_ms: time_in_switch,
            worst_switch_ms: worst_switch,
            idle_polls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PairLatency;
    use latest_traffic::{TrafficRegistry, TrafficShape, TrafficSpec};

    /// Dense table over four rungs with a flat `ms` latency everywhere.
    fn flat_table(ms: f64) -> LatencyTable {
        let freqs = [735u32, 930, 990, 1440];
        let mut t = LatencyTable::new("flat");
        for &a in &freqs {
            for &b in &freqs {
                if a != b {
                    t.insert(PairLatency::new(a, b, vec![ms, ms]));
                }
            }
        }
        t
    }

    /// Like the measured Quadro table: cheap pairs except pathologically
    /// slow transitions into the two middle rungs.
    fn pathological_table() -> LatencyTable {
        let freqs = [735u32, 930, 990, 1440];
        let mut t = LatencyTable::new("quadro-like");
        for &a in &freqs {
            for &b in &freqs {
                if a == b {
                    continue;
                }
                let ms = if b == 930 || b == 990 { 237.0 } else { 20.0 };
                t.insert(PairLatency::new(a, b, vec![ms, ms + 1.0]));
            }
        }
        t
    }

    fn daemon() -> GovernorDaemon {
        GovernorDaemon::new(
            DaemonConfig::default(),
            PowerModel::sxm_class(FreqMhz(1440)),
        )
    }

    fn bursty_trace() -> TrafficTrace {
        TrafficRegistry::builtin()
            .get("bursty")
            .unwrap()
            .generate()
            .unwrap()
    }

    #[test]
    fn zones_classify_and_rank() {
        let cfg = DaemonConfig::default();
        assert_eq!(cfg.classify(0.0, 0), LoadZone::Idle);
        assert_eq!(cfg.classify(0.05, 1), LoadZone::Low);
        assert_eq!(cfg.classify(0.3, 1), LoadZone::Medium);
        assert_eq!(cfg.classify(0.6, 1), LoadZone::High);
        assert_eq!(cfg.classify(0.95, 1), LoadZone::Saturated);
        assert_eq!(
            cfg.classify(0.0, 10),
            LoadZone::Saturated,
            "deep queue saturates"
        );
        assert!(LoadZone::Idle < LoadZone::Saturated);
    }

    #[test]
    fn ladder_spreads_zones_over_known_targets() {
        let ladder = ZoneLadder::from_table(&flat_table(5.0)).unwrap();
        assert_eq!(ladder.target(LoadZone::Idle), FreqMhz(735));
        assert_eq!(ladder.target(LoadZone::Low), FreqMhz(930));
        assert_eq!(ladder.target(LoadZone::Medium), FreqMhz(990));
        assert_eq!(ladder.target(LoadZone::High), FreqMhz(990));
        assert_eq!(ladder.target(LoadZone::Saturated), FreqMhz(1440));
        assert_eq!(ladder.max(), FreqMhz(1440));
        assert!(ZoneLadder::from_table(&LatencyTable::new("empty")).is_none());
    }

    #[test]
    fn run_at_max_never_switches_and_completes_everything() {
        let table = flat_table(5.0);
        let trace = bursty_trace();
        let mut replay = TransitionReplay::new(table, 1);
        let card = daemon().run(&RunAtMaxDaemon, &trace, &mut replay, 1);
        assert_eq!(card.switches, 0);
        assert_eq!(card.completed, card.requests);
        assert_eq!(card.time_in_switch_ms, 0.0);
        assert!(card.runtime_ms >= trace.last_arrival_ms());
    }

    #[test]
    fn oblivious_switches_under_bursts() {
        let trace = bursty_trace();
        let mut replay = TransitionReplay::new(pathological_table(), 2);
        let card = daemon().run(&LatencyObliviousDaemon, &trace, &mut replay, 2);
        assert!(card.switches > 0, "bursty load must trigger zone changes");
        assert!(card.time_in_switch_ms > 0.0);
        assert!(card.arrivals_mid_switch > 0, "bursts arrive mid-switch");
        assert_eq!(card.completed, card.requests);
    }

    #[test]
    fn a_switch_in_flight_keeps_serving_at_the_old_clock() {
        // Two 100 ms requests. The first drives the zone up and back to
        // idle, where the oblivious policy switches 1440 -> 735 MHz at a
        // cost of 10 s. The second arrives mid-switch and must be served at
        // the old clock, with busy power drawn at that clock, instead of
        // waiting for the switch to land.
        let request = |arrival_ms| latest_traffic::Request {
            arrival_ms,
            work_ms: 100.0,
            deadline_ms: None,
        };
        let trace = TrafficTrace {
            name: "two".into(),
            shape: "manual".into(),
            seed: 0,
            requests: vec![request(100.0), request(1_000.0)],
        };
        let mut replay = TransitionReplay::new(flat_table(10_000.0), 1);
        let card = daemon().run(&LatencyObliviousDaemon, &trace, &mut replay, 1);
        assert_eq!(card.switches, 1);
        assert_eq!(card.arrivals_mid_switch, 1);
        assert_eq!(card.completed, 2);
        assert!((card.p99_latency_ms - 100.0).abs() < 1e-6, "{card:?}");
        let power = PowerModel::sxm_class(FreqMhz(1440));
        let busy_ms = 200.0;
        let expected = power.energy_j(FreqMhz(1440), PhaseKind::Busy, busy_ms)
            + power.energy_j(FreqMhz(1440), PhaseKind::Idle, card.runtime_ms - busy_ms);
        assert!(
            (card.energy_j - expected).abs() < 1e-6,
            "energy {} J vs {expected} J",
            card.energy_j
        );
    }

    /// Chases the ladder like [`LatencyObliviousDaemon`] and records every
    /// zone it is asked to decide on.
    #[derive(Default)]
    struct Recording {
        zones: std::cell::RefCell<Vec<LoadZone>>,
    }

    impl DaemonPolicy for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn initial_frequency(&self, ladder: &ZoneLadder) -> FreqMhz {
            ladder.max()
        }

        fn decide(
            &self,
            zone: LoadZone,
            current: FreqMhz,
            ladder: &ZoneLadder,
            dwell_hint_ms: f64,
        ) -> Option<FreqMhz> {
            self.zones.borrow_mut().push(zone);
            LatencyObliviousDaemon.decide(zone, current, ladder, dwell_hint_ms)
        }
    }

    #[test]
    fn every_applied_zone_change_reaches_the_policy() {
        // 200 ms switches under bursty load: zones change while switches
        // are in flight. Each applied change must still reach `decide`, so
        // consecutive decisions always see a different zone (the applied
        // zone starts at idle).
        let trace = bursty_trace();
        let mut replay = TransitionReplay::new(flat_table(200.0), 4);
        let policy = Recording::default();
        let card = daemon().run(&policy, &trace, &mut replay, 4);
        let zones = policy.zones.into_inner();
        assert!(card.switches > 0);
        assert_eq!(zones.len(), card.switches + card.suppressed);
        let mut previous = LoadZone::Idle;
        for (i, &zone) in zones.iter().enumerate() {
            assert_ne!(
                zone, previous,
                "decision {i} repeats {zone}: a zone change in between was applied silently"
            );
            previous = zone;
        }
    }

    #[test]
    fn aware_strictly_beats_oblivious_on_missed_deadlines() {
        // On gaming and deadline traffic the oblivious policy's switches
        // into the slow middle rungs leave the device underclocked when
        // the load returns; the aware policy declines them. (Under bursty
        // traffic it does not win: see the README's governor section.)
        let table = pathological_table();
        for traffic in ["gaming", "deadline"] {
            let trace = TrafficRegistry::builtin()
                .get(traffic)
                .unwrap()
                .generate()
                .unwrap();
            let mut replay_o = TransitionReplay::new(table.clone(), 3);
            let oblivious = daemon().run(&LatencyObliviousDaemon, &trace, &mut replay_o, 3);
            let mut replay_a = TransitionReplay::new(table.clone(), 3);
            let aware = daemon().run(
                &LatencyAwareDaemon::new(table.clone()),
                &trace,
                &mut replay_a,
                3,
            );
            assert!(
                aware.missed_deadlines < oblivious.missed_deadlines,
                "{traffic}: aware {} vs oblivious {}",
                aware.missed_deadlines,
                oblivious.missed_deadlines
            );
            assert!(aware.suppressed > 0, "awareness means declining switches");
        }
    }

    #[test]
    fn oblivious_switches_at_every_zone_change() {
        let ladder = ZoneLadder::from_table(&flat_table(5.0)).unwrap();
        let p = LatencyObliviousDaemon;
        for zone in [LoadZone::Idle, LoadZone::Low, LoadZone::Saturated] {
            let want = ladder.target(zone);
            for &current in ladder.rungs() {
                let expected = (want != current).then_some(want);
                assert_eq!(p.decide(zone, current, &ladder, 0.0), expected);
            }
        }
    }

    #[test]
    fn aware_skips_unamortised_switches() {
        // 300 ms flat latency against a 1 s dwell at 10 % amortisation: no
        // switch ever pays off.
        let table = flat_table(300.0);
        let ladder = ZoneLadder::from_table(&table).unwrap();
        let p = LatencyAwareDaemon::new(table);
        for zone in [LoadZone::Idle, LoadZone::Low, LoadZone::Medium] {
            assert_eq!(p.decide(zone, ladder.max(), &ladder, 1_000.0), None);
        }
    }

    #[test]
    fn aware_switches_when_cheap() {
        // 1 ms flat latency: every zone change amortises at once.
        let table = flat_table(1.0);
        let ladder = ZoneLadder::from_table(&table).unwrap();
        let p = LatencyAwareDaemon::new(table);
        assert_eq!(
            p.decide(LoadZone::Idle, ladder.max(), &ladder, 100.0),
            Some(FreqMhz(735))
        );
    }

    #[test]
    fn aware_treats_unknown_pairs_as_unaffordable() {
        let mut table = LatencyTable::new("one-pair");
        table.insert(PairLatency::new(1440, 930, vec![1.0]));
        let ladder = ZoneLadder::from_table(&table).unwrap();
        let p = LatencyAwareDaemon::new(table);
        // 930 is the only known target, so the ladder is just [930]; from
        // 1440 the straight pair is known, from 735 it is not.
        assert_eq!(
            p.decide(LoadZone::Idle, FreqMhz(1440), &ladder, 1e9),
            Some(FreqMhz(930))
        );
        assert_eq!(p.decide(LoadZone::Idle, FreqMhz(735), &ladder, 1e9), None);
    }

    #[test]
    fn aware_detours_around_pathological_pairs() {
        // Straight 1440 -> 930 is pathological (237 ms); 990 is the
        // cheapest neighbour of 930 within the 200 MHz window.
        let mut table = flat_table(5.0);
        table.insert(PairLatency::new(1440, 930, vec![237.0, 238.0]));
        table.insert(PairLatency::new(1440, 990, vec![4.0]));
        let ladder = ZoneLadder::from_table(&table).unwrap();
        let p = LatencyAwareDaemon::new(table);
        assert_eq!(ladder.target(LoadZone::Low), FreqMhz(930));
        assert_eq!(
            p.decide(LoadZone::Low, FreqMhz(1440), &ladder, 1e9),
            Some(FreqMhz(990))
        );
    }

    #[test]
    fn same_seed_same_scorecard_bitwise() {
        let trace = bursty_trace();
        let table = pathological_table();
        let run = |seed| {
            let mut replay = TransitionReplay::new(table.clone(), seed);
            daemon()
                .run(&LatencyObliviousDaemon, &trace, &mut replay, seed)
                .to_json()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "the seed must matter");
    }

    #[test]
    fn idle_traffic_slow_polls() {
        let spec = TrafficSpec {
            name: "sparse".into(),
            shape: TrafficShape::Steady { rate_hz: 2.0 },
            duration_ms: 4_000.0,
            seed: 5,
            ..TrafficSpec::default()
        };
        let trace = spec.generate().unwrap();
        let mut replay = TransitionReplay::new(flat_table(5.0), 5);
        let card = daemon().run(&RunAtMaxDaemon, &trace, &mut replay, 5);
        assert!(card.idle_polls > 0, "sparse load must hit the idle path");
    }

    #[test]
    fn scorecard_round_trips_and_rates() {
        let trace = bursty_trace();
        let mut replay = TransitionReplay::new(flat_table(5.0), 9);
        let card = daemon().run(&RunAtMaxDaemon, &trace, &mut replay, 9);
        let parsed: Scorecard = serde_json::from_str(&card.to_json()).unwrap();
        assert_eq!(parsed, card);
        assert!(card.missed_rate() >= 0.0 && card.missed_rate() <= 1.0);
        let none = Scorecard {
            with_deadline: 0,
            missed_deadlines: 0,
            ..card
        };
        assert_eq!(none.missed_rate(), 0.0);
    }

    #[test]
    fn replay_seed_is_order_free_and_label_sensitive() {
        let a = replay_seed(42, "latency-aware", "bursty");
        assert_eq!(a, replay_seed(42, "latency-aware", "bursty"));
        assert_ne!(a, replay_seed(42, "latency-oblivious", "bursty"));
        assert_ne!(a, replay_seed(42, "latency-aware", "steady"));
        assert_ne!(a, replay_seed(43, "latency-aware", "bursty"));
        // The separator prevents (policy, traffic) concatenation collisions.
        assert_ne!(replay_seed(1, "ab", "c"), replay_seed(1, "a", "bc"),);
    }

    #[test]
    fn make_policy_knows_every_name() {
        let table = flat_table(5.0);
        for name in POLICY_NAMES {
            assert_eq!(make_policy(name, &table).unwrap().name(), *name);
        }
        assert!(make_policy("cargo-cult", &table).is_err());
    }
}
