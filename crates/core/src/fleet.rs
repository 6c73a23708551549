//! The multi-device fleet driver: one campaign per
//! [`DeviceSpec`](latest_gpu_sim::devices::DeviceSpec), run one after
//! another, aggregated per device.
//!
//! The paper benchmarks three GPU models and four units of the same SKU;
//! related frequency-scaling studies sweep whole clusters. [`Fleet`] is the
//! orchestration layer for that shape: add one [`CampaignConfig`] per
//! device (different models, or units of one model), run them in slot
//! order on the calling thread — each device an independent
//! [`CampaignSession`] whose pairs run in canonical order — and collect a
//! [`FleetResult`] holding per-device [`CampaignResult`]s plus
//! cross-device summary rows ready for `latest-report`'s table renderers.
//!
//! Cancellation and progress events compose: one shared [`CancelToken`]
//! winds down every member session, and a [`FleetObserver`] sees every
//! member's [`CampaignEvent`] tagged with its device slot.

use crate::campaign::CampaignResult;
use crate::config::CampaignConfig;
use crate::error::{CoreError, CoreResult};
use crate::session::{CampaignEvent, CampaignSession, CancelToken};

/// Observer hook for fleet-wide progress: every member session's event,
/// tagged with the member's slot in the fleet.
pub trait FleetObserver: Send + Sync {
    /// Called for every event of every member campaign.
    fn event(&self, device_slot: usize, event: &CampaignEvent);
}

impl<F: Fn(usize, &CampaignEvent) + Send + Sync> FleetObserver for F {
    fn event(&self, device_slot: usize, event: &CampaignEvent) {
        self(device_slot, event)
    }
}

/// A fleet of devices to measure, one campaign each.
#[derive(Default)]
pub struct Fleet {
    members: Vec<CampaignConfig>,
    observers: Vec<std::sync::Arc<dyn FleetObserver>>,
    cancel: CancelToken,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Fleet::default()
    }

    /// Add one device's campaign configuration.
    pub fn add_campaign(mut self, config: CampaignConfig) -> Self {
        self.members.push(config);
        self
    }

    /// Attach a fleet-wide observer.
    pub fn observe(mut self, observer: impl FleetObserver + 'static) -> Self {
        self.observers.push(std::sync::Arc::new(observer));
        self
    }

    /// The shared cancellation token: cancelling it winds down every member.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Number of member devices.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members' campaign configurations, in slot order.
    ///
    /// Each member is an independent campaign — its own device, seed and
    /// pair set — so each decomposes into its own pair tasks
    /// ([`CampaignSession::pending_pairs`]) with no state shared between
    /// members: a scheduler (the queue's worker pool, which runs pair
    /// tasks on threads) may interleave pairs of different members freely
    /// without affecting any result.
    pub fn members(&self) -> &[CampaignConfig] {
        &self.members
    }

    /// Run every member campaign and aggregate per-device results.
    ///
    /// Members run one after another on the calling thread, in slot order,
    /// each through [`CampaignSession::run`] (so its pairs run in canonical
    /// order too). A shared-token cancellation that lands before a member
    /// even starts its phase 1 leaves that member in
    /// [`FleetResult::unstarted`] rather than failing the whole fleet.
    pub fn run(&self) -> CoreResult<FleetResult> {
        let mut devices = Vec::new();
        let mut unstarted = Vec::new();
        for (slot, config) in self.members.iter().enumerate() {
            let mut session =
                CampaignSession::new(config.clone()).with_cancel_token(self.cancel.clone());
            for obs in &self.observers {
                let obs = obs.clone();
                session = session.observe(move |e: &CampaignEvent| obs.event(slot, e));
            }
            match session.run() {
                Ok(r) => devices.push(r),
                Err(CoreError::Cancelled) => unstarted.push(slot),
                Err(e) => return Err(e),
            }
        }
        Ok(FleetResult { devices, unstarted })
    }
}

/// Aggregated result of a fleet run: one [`CampaignResult`] per member that
/// ran, in fleet order.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FleetResult {
    devices: Vec<CampaignResult>,
    unstarted: Vec<usize>,
}

impl FleetResult {
    /// Assemble a result from per-member campaign results already in hand
    /// — archived runs served as a cache hit, say — in slot order.
    pub fn from_devices(devices: Vec<CampaignResult>) -> FleetResult {
        FleetResult {
            devices,
            unstarted: Vec::new(),
        }
    }

    /// Per-device results, in the order devices were added (members that
    /// were cancelled before starting are absent; see
    /// [`FleetResult::unstarted`]).
    pub fn devices(&self) -> &[CampaignResult] {
        &self.devices
    }

    /// Fleet slots whose campaigns were cancelled before phase 1 ran.
    pub fn unstarted(&self) -> &[usize] {
        &self.unstarted
    }

    /// The result for the first device with this name, if any.
    pub fn by_name(&self, name: &str) -> Option<&CampaignResult> {
        self.devices.iter().find(|d| d.device_name == name)
    }

    /// Cross-device summary rows (per device: pair counts and the filtered
    /// best/mean/worst latency over completed pairs) — the input shape of
    /// `latest_report::cross_device_table`.
    pub fn summary_rows(&self) -> Vec<FleetDeviceSummary> {
        use crate::view::{LatencyView, OutcomeKind, PairStat};
        self.devices
            .iter()
            .map(|r| {
                let completed = LatencyView::of(r).outcome(OutcomeKind::Completed);
                let best = completed.stat_range(PairStat::Min);
                let mean = completed.stat_range(PairStat::Mean);
                let worst = completed.stat_range(PairStat::Max);
                FleetDeviceSummary {
                    device_name: r.device_name.clone(),
                    device_index: r.device_index,
                    pairs_total: r.pairs().len(),
                    pairs_completed: completed.count(),
                    best_ms: best.map_or(f64::INFINITY, |(min, _, _)| min),
                    mean_ms: mean.map_or(f64::NAN, |(_, mean, _)| mean),
                    worst_ms: worst.map_or(f64::NEG_INFINITY, |(_, _, max)| max),
                }
            })
            .collect()
    }

    /// Serialise to pretty JSON (the `latest run --json` fleet format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet result serialises")
    }

    /// Parse a fleet result back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Cross-device summary as CSV, with the report heatmaps' CSV
    /// conventions: one row per device, non-finite statistics (a device
    /// with no completed pairs) left as empty cells.
    pub fn summary_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "device_name,device_index,pairs_total,pairs_completed,best_ms,mean_ms,worst_ms\n",
        );
        let cell = |v: f64| {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                String::new()
            }
        };
        for row in self.summary_rows() {
            // Device names contain spaces and parentheses; quote them so
            // the CSV stays one-field-per-column under any reader.
            let _ = writeln!(
                out,
                "\"{}\",{},{},{},{},{},{}",
                row.device_name.replace('"', "\"\""),
                row.device_index,
                row.pairs_total,
                row.pairs_completed,
                cell(row.best_ms),
                cell(row.mean_ms),
                cell(row.worst_ms),
            );
        }
        out
    }
}

/// One device's row in the cross-device summary.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FleetDeviceSummary {
    /// Device name.
    pub device_name: String,
    /// Device index within its campaign config.
    pub device_index: usize,
    /// Ordered pairs scheduled.
    pub pairs_total: usize,
    /// Pairs that completed with measurements.
    pub pairs_completed: usize,
    /// Best (minimum) filtered per-pair latency (ms); `inf` if none.
    pub best_ms: f64,
    /// Mean of the filtered per-pair means (ms); `NaN` if none.
    pub mean_ms: f64,
    /// Worst (maximum) filtered per-pair latency (ms); `-inf` if none.
    pub worst_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_sim_clock::SimDuration;
    use std::sync::Arc;

    fn quick(
        spec: latest_gpu_sim::devices::DeviceSpec,
        freqs: &[u32],
        seed: u64,
    ) -> CampaignConfig {
        let mut spec = spec;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(6),
        });
        CampaignConfig::builder(spec)
            .frequencies_mhz(freqs)
            .measurements(5, 12)
            .simulated_sms(Some(2))
            .seed(seed)
            .build()
    }

    #[test]
    fn fleet_aggregates_per_device_results() {
        let fleet = Fleet::new()
            .add_campaign(quick(devices::a100_sxm4(), &[705, 1410], 1))
            .add_campaign(quick(devices::gh200(), &[705, 1980], 2));
        assert_eq!(fleet.len(), 2);
        let result = fleet.run().unwrap();
        assert_eq!(result.devices().len(), 2);
        assert!(result.by_name("NVIDIA A100-SXM4-40GB").is_some());
        assert!(result.devices().iter().all(|d| d.completed().count() > 0));
        let rows = result.summary_rows();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.best_ms <= row.mean_ms && row.mean_ms <= row.worst_ms);
            assert_eq!(row.pairs_total, 2);
        }
    }

    #[test]
    fn summary_csv_has_one_quoted_row_per_device() {
        let fleet = Fleet::new()
            .add_campaign(quick(devices::a100_sxm4(), &[705, 1410], 1))
            .add_campaign(quick(devices::gh200(), &[705, 1980], 2));
        let csv = fleet.run().unwrap().summary_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("device_name,device_index,pairs_total"));
        assert!(lines[1].starts_with("\"NVIDIA A100-SXM4-40GB\",0,2,"));
        assert!(lines[2].starts_with("\"NVIDIA GH200 (Grace Hopper)\",0,2,"));
        // Every row has exactly 7 columns (the quoted name contains no comma).
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 7, "{line}");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let build = || {
            Fleet::new()
                .add_campaign(quick(devices::a100_sxm4(), &[705, 1410], 7))
                .add_campaign(quick(devices::a100_sxm4_unit(1), &[705, 1410], 8))
        };
        let a = build().run().unwrap();
        let b = build().run().unwrap();
        for (da, db) in a.devices().iter().zip(b.devices()) {
            for (pa, pb) in da.pairs().iter().zip(db.pairs()) {
                assert_eq!(pa.latencies_ms(), pb.latencies_ms());
            }
        }
    }

    #[test]
    fn shared_cancel_token_reaches_every_member() {
        let fleet = Fleet::new()
            .add_campaign(quick(devices::a100_sxm4(), &[705, 1410], 3))
            .add_campaign(quick(devices::gh200(), &[705, 1980], 4));
        let token = fleet.cancel_token();
        let fleet = fleet.observe(move |_slot: usize, e: &CampaignEvent| {
            if matches!(e, CampaignEvent::PairFinished { .. }) {
                token.cancel();
            }
        });
        let result = fleet.run().unwrap();
        // The first pair of the first device completes; the rest of that
        // device is marked cancelled and the second device never starts.
        let completed: usize = result.devices().iter().map(|d| d.completed().count()).sum();
        assert_eq!(completed, 1);
        assert_eq!(result.devices().len(), 1);
        assert!(result.devices()[0].is_partial());
        assert_eq!(result.unstarted(), &[1]);
    }
}
