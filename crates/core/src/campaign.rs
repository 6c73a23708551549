//! Campaign results.
//!
//! [`CampaignResult`] is the serialisable record of one device's campaign:
//! phase-1 characterisation, the probe bound, and every pair's measurements
//! plus Algorithm-3 analysis. It doubles as the *checkpoint* format — a
//! partial result (some pairs [`PairOutcome::Cancelled`]) can be written to
//! JSON and handed back to
//! [`CampaignSession::resume_from`](crate::session::CampaignSession::resume_from),
//! which re-runs exactly the missing pairs and reproduces the uninterrupted
//! campaign bit for bit.

use std::collections::HashMap;

use crate::analysis::PairAnalysis;
use crate::controller::PairOutcome;
use crate::phase1::Phase1Result;
use crate::probe::ProbeResult;
use crate::state::{FreqState, PairKind};

/// One pair's full result: measurements plus analysis.
#[derive(Clone, Debug)]
pub struct PairMeasurement {
    /// Initial frequency state.
    pub init: FreqState,
    /// Target frequency state.
    pub target: FreqState,
    /// How the measurement loop ended.
    pub outcome: PairOutcome,
    /// Algorithm-3 analysis of the latencies (None unless completed).
    pub analysis: Option<PairAnalysis>,
}

impl PairMeasurement {
    /// Initial core frequency (MHz).
    pub fn init_mhz(&self) -> u32 {
        self.init.core.0
    }

    /// Target core frequency (MHz).
    pub fn target_mhz(&self) -> u32 {
        self.target.core.0
    }

    /// Which domain(s) the transition moves (identity pairs, which are
    /// never scheduled, classify as [`PairKind::Core`]).
    pub fn kind(&self) -> PairKind {
        self.init.kind_to(&self.target).unwrap_or(PairKind::Core)
    }

    /// The filtered (outlier-free) summary, when available.
    pub fn filtered_summary(&self) -> Option<latest_stats::Summary> {
        self.analysis.as_ref().map(|a| a.filtered)
    }

    /// Raw latencies (ms) when the pair completed.
    pub fn latencies_ms(&self) -> Option<&[f64]> {
        self.outcome.run().map(|r| r.latencies_ms.as_slice())
    }
}

// Hand-written (de)serialisation: the legacy field names `init_mhz` /
// `target_mhz` are kept so core-only archives stay byte-identical; a
// two-domain state serialises in place as `{"core": .., "mem": ..}`.
impl serde::Serialize for PairMeasurement {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("init_mhz".to_string(), self.init.to_value()),
            ("target_mhz".to_string(), self.target.to_value()),
            ("outcome".to_string(), self.outcome.to_value()),
            ("analysis".to_string(), self.analysis.to_value()),
        ])
    }
}

impl serde::Deserialize for PairMeasurement {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for PairMeasurement, got {value:?}"))
        })?;
        let field = |name: &str| serde::field(entries, name, "PairMeasurement");
        Ok(PairMeasurement {
            init: serde::Deserialize::from_value(field("init_mhz")?)?,
            target: serde::Deserialize::from_value(field("target_mhz")?)?,
            outcome: serde::Deserialize::from_value(field("outcome")?)?,
            analysis: serde::Deserialize::from_value(field("analysis")?)?,
        })
    }
}

/// Result of a whole campaign on one device.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Device name measured.
    pub device_name: String,
    /// Device index.
    pub device_index: usize,
    /// The campaign seed the measurements were produced under. Resume
    /// validation refuses checkpoints taken under a different seed (their
    /// restored pairs would silently mix noise streams with re-run ones).
    pub seed: u64,
    /// Phase-1 characterisation.
    pub phase1: Phase1Result,
    /// Probe-phase result.
    pub probe: ProbeResult,
    /// All pair measurements, in `ordered_state_pairs` order.
    pairs: Vec<PairMeasurement>,
    /// `(init, target) → pairs index`, built once at construction so
    /// [`CampaignResult::pair`] is O(1) instead of a linear scan (heatmap
    /// renderers call it once per cell).
    index: HashMap<(FreqState, FreqState), usize>,
}

impl CampaignResult {
    /// Assemble a result; builds the pair lookup index.
    pub fn new(
        device_name: String,
        device_index: usize,
        seed: u64,
        phase1: Phase1Result,
        probe: ProbeResult,
        pairs: Vec<PairMeasurement>,
    ) -> Self {
        let index = pairs
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.init, p.target), i))
            .collect();
        CampaignResult {
            device_name,
            device_index,
            seed,
            phase1,
            probe,
            pairs,
            index,
        }
    }

    /// All pair measurements.
    pub fn pairs(&self) -> &[PairMeasurement] {
        &self.pairs
    }

    /// Completed pairs only.
    pub fn completed(&self) -> impl Iterator<Item = &PairMeasurement> {
        self.pairs.iter().filter(|p| p.outcome.run().is_some())
    }

    /// Look up one pair in O(1). Accepts bare [`FreqMhz`] (core-only) or
    /// full [`FreqState`] coordinates.
    ///
    /// [`FreqMhz`]: latest_gpu_sim::freq::FreqMhz
    pub fn pair(
        &self,
        init: impl Into<FreqState>,
        target: impl Into<FreqState>,
    ) -> Option<&PairMeasurement> {
        self.index
            .get(&(init.into(), target.into()))
            .map(|&i| &self.pairs[i])
    }

    /// Whether any pair was left unmeasured by a cancellation — i.e. this
    /// result is a resumable checkpoint rather than a finished campaign.
    pub fn is_partial(&self) -> bool {
        self.pairs.iter().any(|p| p.outcome.is_cancelled())
    }

    /// Serialise to pretty JSON (the checkpoint / `--json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign result serialises")
    }

    /// Parse a result back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

// Hand-written (de)serialisation: the lookup index is derived state and
// must not appear in (or be trusted from) the JSON.
impl serde::Serialize for CampaignResult {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("device_name".to_string(), self.device_name.to_value()),
            ("device_index".to_string(), self.device_index.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("phase1".to_string(), self.phase1.to_value()),
            ("probe".to_string(), self.probe.to_value()),
            ("pairs".to_string(), self.pairs.to_value()),
        ])
    }
}

impl serde::Deserialize for CampaignResult {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for CampaignResult, got {value:?}"))
        })?;
        let field = |name: &str| serde::field(entries, name, "CampaignResult");
        Ok(CampaignResult::new(
            serde::Deserialize::from_value(field("device_name")?)?,
            serde::Deserialize::from_value(field("device_index")?)?,
            serde::Deserialize::from_value(field("seed")?)?,
            serde::Deserialize::from_value(field("phase1")?)?,
            serde::Deserialize::from_value(field("probe")?)?,
            serde::Deserialize::from_value(field("pairs")?)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::session::CampaignSession;
    use crate::spec::CampaignSpec;
    use crate::testing::{fixed, resolve_on};
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::FreqMhz;

    fn small_campaign(seed: u64) -> CampaignConfig {
        resolve_on(
            fixed(devices::a100_sxm4(), 9),
            CampaignSpec::builder("fixed")
                .frequencies_mhz(&[705, 1095, 1410])
                .measurements(10, 25)
                .seed(seed),
        )
    }

    #[test]
    fn campaign_covers_all_ordered_pairs() {
        let result = CampaignSession::new(small_campaign(3)).run().unwrap();
        assert_eq!(result.pairs().len(), 6);
        for p in result.completed() {
            let a = p.analysis.as_ref().unwrap();
            // Fixed 9 ms device: every filtered mean must sit near 9 ms
            // (plus driver travel and detection granularity).
            assert!(
                (8.8..11.0).contains(&a.filtered.mean),
                "{}->{}: mean {} ms",
                p.init,
                p.target,
                a.filtered.mean
            );
        }
        assert!(result.pair(FreqMhz(705), FreqMhz(1410)).is_some());
        assert!(result.pair(FreqMhz(705), FreqMhz(705)).is_none());
    }

    #[test]
    fn pair_lookup_agrees_with_linear_scan() {
        let result = CampaignSession::new(small_campaign(5)).run().unwrap();
        for p in result.pairs() {
            let (init, target) = (p.init, p.target);
            let via_index = result.pair(init, target).unwrap();
            let via_scan = result
                .pairs()
                .iter()
                .find(|q| q.init == init && q.target == target)
                .unwrap();
            assert!(std::ptr::eq(via_index, via_scan));
        }
        assert!(result.pair(FreqMhz(1), FreqMhz(2)).is_none());
    }

    #[test]
    fn campaign_is_deterministic_across_runs() {
        let a = CampaignSession::new(small_campaign(11)).run().unwrap();
        let b = CampaignSession::new(small_campaign(11)).run().unwrap();
        for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!(pa.latencies_ms(), pb.latencies_ms());
        }
        // And a different seed gives different noise.
        let c = CampaignSession::new(small_campaign(12)).run().unwrap();
        let same = a
            .pairs()
            .iter()
            .zip(c.pairs())
            .all(|(x, y)| x.latencies_ms() == y.latencies_ms());
        assert!(!same, "different seeds produced identical campaigns");
    }

    #[test]
    fn closed_loop_measured_matches_ground_truth() {
        let result = CampaignSession::new(small_campaign(7)).run().unwrap();
        for p in result.completed() {
            let run = p.outcome.run().unwrap();
            for (&m, &g) in run.latencies_ms.iter().zip(&run.ground_truth_ms) {
                assert!(
                    (m - g).abs() < 0.6,
                    "{}->{}: measured {m} vs truth {g}",
                    p.init,
                    p.target
                );
            }
        }
    }

    #[test]
    fn json_roundtrip_is_bitwise_faithful() {
        let result = CampaignSession::new(small_campaign(13)).run().unwrap();
        let back = CampaignResult::from_json(&result.to_json()).unwrap();
        assert_eq!(back.device_name, result.device_name);
        assert_eq!(back.seed, result.seed);
        assert_eq!(back.pairs().len(), result.pairs().len());
        assert!(!back.is_partial());
        for (a, b) in result.pairs().iter().zip(back.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
            assert_eq!(
                a.filtered_summary().map(|s| s.mean.to_bits()),
                b.filtered_summary().map(|s| s.mean.to_bits())
            );
        }
        // The rebuilt index must serve lookups too.
        assert!(back.pair(FreqMhz(1095), FreqMhz(705)).is_some());
        // Phase-1 state survives: validity drives resume decisions.
        assert_eq!(back.phase1.valid_pairs, result.phase1.valid_pairs);
        assert_eq!(
            back.probe.max_latency_ms.to_bits(),
            result.probe.max_latency_ms.to_bits()
        );
    }
}
