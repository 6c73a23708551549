//! Human-readable progress lines over [`CampaignEvent`] streams, shared
//! verbatim between `latest run --progress` and the queue service's event
//! feed (`queue serve` writes them, `queue watch` replays them).
//!
//! Each line carries the elapsed wall-clock time since the campaign
//! started and — once pair work begins — a `done/total` counter with an
//! ETA extrapolated from the observed pace:
//!
//! ```text
//! [   0.0s] campaign started on NVIDIA A100-SXM4-40GB: 56 pairs
//! [  12.4s] pair 705->1410 MHz finished: n=60, mean 9.874 ms [3/56 pairs, ETA 219s]
//! ```

use latest_core::session::CampaignEvent;
use latest_telemetry::StageClock;

/// Stateful per-campaign formatter: tracks the start instant and the
/// pairs-settled count that the ETA is extrapolated from.
///
/// One formatter per campaign — or per *job*, when fed a whole fleet
/// job's stream: each member's `CampaignStarted` accumulates into the
/// total, so the `done/total` counter and ETA span all members. A caller
/// that already knows the job-wide pair total (the queue's `Planned`
/// event carries it) seeds it via
/// [`ProgressFormatter::seed_totals`] instead. Not thread-safe by
/// itself — wrap in a mutex when events arrive from parallel workers.
#[derive(Debug)]
pub struct ProgressFormatter {
    clock: StageClock,
    start_ns: u64,
    total: usize,
    done: usize,
    seeded: bool,
}

impl Default for ProgressFormatter {
    fn default() -> Self {
        ProgressFormatter::new()
    }
}

impl ProgressFormatter {
    /// A formatter whose (real, monotonic) clock starts now.
    pub fn new() -> Self {
        ProgressFormatter::with_clock(StageClock::monotonic())
    }

    /// A formatter reading elapsed time off `clock` — a
    /// [`StageClock::manual`] makes elapsed/ETA figures exact in tests,
    /// a tick clock makes `queue serve --virtual-clock` feeds
    /// reproducible.
    pub fn with_clock(clock: StageClock) -> Self {
        let start_ns = clock.now_ns();
        ProgressFormatter {
            clock,
            start_ns,
            total: 0,
            done: 0,
            seeded: false,
        }
    }

    /// Fix the pair total up front (e.g. from the queue's `Planned`
    /// event, which counts pairs across every fleet member); subsequent
    /// `CampaignStarted` events no longer accumulate into it.
    pub fn seed_totals(&mut self, pairs: usize) {
        self.total = pairs;
        self.seeded = true;
    }

    /// Pairs settled so far (finished, skipped or restored).
    pub fn done(&self) -> usize {
        self.done
    }

    /// Pairs scheduled (0 until `CampaignStarted` is observed).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fold one event into the counters and render its feed line.
    pub fn line(&mut self, event: &CampaignEvent) -> String {
        match event {
            CampaignEvent::CampaignStarted { n_pairs, .. } if !self.seeded => {
                self.total += *n_pairs;
            }
            CampaignEvent::PairFinished { .. }
            | CampaignEvent::PairSkipped { .. }
            | CampaignEvent::PairRestored { .. } => self.done += 1,
            _ => {}
        }
        let elapsed = self.clock.now_ns().saturating_sub(self.start_ns) as f64 / 1e9;
        format!("[{elapsed:>7.1}s] {event}{}", self.suffix(elapsed))
    }

    /// The ` [done/total pairs, ETA ..s]` suffix, present while pair work
    /// is underway.
    fn suffix(&self, elapsed: f64) -> String {
        if self.total == 0 || self.done == 0 {
            return String::new();
        }
        if self.done >= self.total {
            return format!(" [{}/{} pairs, done]", self.done, self.total);
        }
        let remaining = (self.total - self.done) as f64;
        let eta = elapsed / self.done as f64 * remaining;
        format!(" [{}/{} pairs, ETA {eta:.0}s]", self.done, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::FreqState;

    #[test]
    fn lines_gain_elapsed_and_eta() {
        let mut fmt = ProgressFormatter::new();
        let started = fmt.line(&CampaignEvent::CampaignStarted {
            device_name: "sim".to_string(),
            n_pairs: 4,
        });
        assert!(started.starts_with('['), "{started}");
        assert!(started.contains("s] campaign started"), "{started}");
        assert!(
            !started.contains("ETA"),
            "no ETA before pair work: {started}"
        );
        assert_eq!(fmt.total(), 4);

        let finished = fmt.line(&CampaignEvent::PairFinished {
            index: 0,
            init: FreqState::core_mhz(705),
            target: FreqState::core_mhz(1410),
            measurements: 10,
            mean_ms: 9.5,
        });
        assert!(finished.contains("[1/4 pairs, ETA "), "{finished}");
        assert_eq!(fmt.done(), 1);

        for i in 1..4 {
            let line = fmt.line(&CampaignEvent::PairSkipped {
                index: i,
                init: FreqState::core_mhz(705),
                target: FreqState::core_mhz(1410),
                reason: latest_core::session::SkipReason::Cancelled,
            });
            if i == 3 {
                assert!(line.contains("[4/4 pairs, done]"), "{line}");
            }
        }
    }

    #[test]
    fn fleet_member_totals_accumulate() {
        let mut fmt = ProgressFormatter::new();
        fmt.line(&CampaignEvent::CampaignStarted {
            device_name: "a100".to_string(),
            n_pairs: 6,
        });
        fmt.line(&CampaignEvent::CampaignStarted {
            device_name: "h100".to_string(),
            n_pairs: 2,
        });
        assert_eq!(fmt.total(), 8, "members accumulate");
        let line = fmt.line(&CampaignEvent::PairFinished {
            index: 0,
            init: FreqState::core_mhz(705),
            target: FreqState::core_mhz(1410),
            measurements: 10,
            mean_ms: 9.5,
        });
        assert!(line.contains("[1/8 pairs"), "{line}");
    }

    #[test]
    fn seeded_totals_ignore_campaign_started() {
        let mut fmt = ProgressFormatter::new();
        fmt.seed_totals(12);
        fmt.line(&CampaignEvent::CampaignStarted {
            device_name: "a100".to_string(),
            n_pairs: 6,
        });
        assert_eq!(fmt.total(), 12, "seeded total is authoritative");
    }

    #[test]
    fn manual_clock_makes_elapsed_and_eta_exact() {
        let clock = StageClock::manual();
        let mut fmt = ProgressFormatter::with_clock(clock.clone());
        fmt.seed_totals(4);
        clock.advance(3_000_000_000);
        let line = fmt.line(&CampaignEvent::PairFinished {
            index: 0,
            init: FreqState::core_mhz(705),
            target: FreqState::core_mhz(1410),
            measurements: 10,
            mean_ms: 9.5,
        });
        assert!(line.starts_with("[    3.0s]"), "{line}");
        // 3s elapsed for 1 of 4 pairs: 3 more pairs at 3 s/pair.
        assert!(line.ends_with("[1/4 pairs, ETA 9s]"), "{line}");
    }

    #[test]
    fn restored_pairs_advance_the_counter() {
        let mut fmt = ProgressFormatter::new();
        fmt.line(&CampaignEvent::CampaignStarted {
            device_name: "sim".to_string(),
            n_pairs: 2,
        });
        let line = fmt.line(&CampaignEvent::PairRestored {
            index: 0,
            init: FreqState::core_mhz(705),
            target: FreqState::core_mhz(1410),
        });
        assert!(line.contains("[1/2 pairs"), "{line}");
    }
}
