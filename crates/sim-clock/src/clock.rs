//! The shared global clock and derived (offset/drift/quantised) clock views.
//!
//! One [`SharedClock`] exists per simulated system. Host-side operations
//! (driver calls, `usleep`, kernel synchronisation) advance it; every
//! component reads it. Clock *views* model the fact that the CPU's
//! `CLOCK_MONOTONIC` and the GPU's `%globaltimer` are distinct oscillators:
//! each view applies an offset, a drift (ppm) and a read quantisation to the
//! global timeline. The IEEE 1588 synchroniser in `latest-clock-sync` then has
//! something real to estimate.
//!
//! [`ClockView::project`] runs twice per simulated iteration, so a view
//! stores its drift rate `1 + drift_ppm / 1e6` once at construction and
//! rounds with the libm-free [`round_ns`].

use crate::time::{round_ns, SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// The single source of virtual time for one simulated system.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same timeline.
/// `advance` is monotone: time never goes backwards.
#[derive(Clone)]
pub struct SharedClock {
    inner: Arc<Mutex<u64>>,
}

impl SharedClock {
    /// A new clock at the simulation epoch.
    pub fn new() -> Self {
        SharedClock {
            inner: Arc::new(Mutex::new(0)),
        }
    }

    /// Current global virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(*self.inner.lock())
    }

    /// Advance the timeline by `d` and return the new now.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let mut t = self.inner.lock();
        *t += d.as_nanos();
        SimTime::from_nanos(*t)
    }

    /// Advance the timeline *to* `target` if it is in the future; otherwise
    /// leave it unchanged. Returns the new now. This is how "wait until the
    /// kernel finished" style operations are expressed.
    pub fn advance_to(&self, target: SimTime) -> SimTime {
        let mut t = self.inner.lock();
        if target.as_nanos() > *t {
            *t = target.as_nanos();
        }
        SimTime::from_nanos(*t)
    }
}

impl Default for SharedClock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SharedClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedClock")
            .field("now", &self.now())
            .finish()
    }
}

/// A derived reading of the global timeline: what a particular oscillator
/// (CPU TSC, GPU globaltimer) reports when sampled.
///
/// `reported = quantize_floor((global * (1 + drift_ppm/1e6)) + offset)`
///
/// The offset models power-on skew between devices; drift models oscillator
/// frequency error; quantisation models timer-register refresh granularity
/// (~1 µs for the CUDA globaltimer, per the paper's footnote 1).
#[derive(Clone, Debug)]
pub struct ClockView {
    clock: SharedClock,
    offset_ns: i64,
    drift_ppm: f64,
    /// `1 + drift_ppm / 1e6`, computed once at construction.
    rate: f64,
    resolution: SimDuration,
}

impl ClockView {
    /// An undistorted view (offset 0, no drift, nanosecond resolution):
    /// the host's own clock.
    pub fn identity(clock: SharedClock) -> Self {
        ClockView::skewed(clock, 0, 0.0, SimDuration::from_nanos(1))
    }

    /// A distorted view, e.g. a GPU globaltimer that booted at a different
    /// moment, drifts by a few ppm, and refreshes at ~1 µs.
    pub fn skewed(
        clock: SharedClock,
        offset_ns: i64,
        drift_ppm: f64,
        resolution: SimDuration,
    ) -> Self {
        ClockView {
            clock,
            offset_ns,
            drift_ppm,
            rate: 1.0 + drift_ppm / 1e6,
            resolution,
        }
    }

    /// Sample this oscillator now.
    pub fn now(&self) -> SimTime {
        self.project(self.clock.now())
    }

    /// What this oscillator would report at global time `t`. Used by the
    /// device simulator to stamp iteration records.
    #[inline]
    pub fn project(&self, t: SimTime) -> SimTime {
        // Zero drift stays in integer arithmetic: the f64 path loses ULPs
        // beyond 2^53 ns (~104 days of virtual time).
        let drifted = if self.drift_ppm == 0.0 {
            t
        } else {
            SimTime::from_nanos(round_ns(t.as_nanos() as f64 * self.rate))
        };
        drifted
            .offset_by(self.offset_ns)
            .quantize_floor(self.resolution)
    }

    /// Invert the (un-quantised) view mapping: the global time at which this
    /// oscillator would report `local`. Quantisation cannot be inverted, so
    /// the result carries up to one `resolution` of uncertainty; callers that
    /// care (the PTP synchroniser) account for it in their error bounds.
    pub fn unproject(&self, local: SimTime) -> SimTime {
        let unshifted = local.offset_by(-self.offset_ns);
        if self.drift_ppm == 0.0 {
            return unshifted;
        }
        SimTime::from_nanos(round_ns(unshifted.as_nanos() as f64 / self.rate))
    }

    /// The underlying shared clock.
    pub fn shared(&self) -> &SharedClock {
        &self.clock
    }

    /// The read quantisation of this oscillator.
    pub fn resolution(&self) -> SimDuration {
        self.resolution
    }

    /// The configured constant offset (ground truth, for closed-loop tests).
    pub fn true_offset_ns(&self) -> i64 {
        self.offset_ns
    }

    /// The configured drift in ppm (ground truth, for closed-loop tests).
    pub fn true_drift_ppm(&self) -> f64 {
        self.drift_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_clock_advances_monotonically() {
        let c = SharedClock::new();
        assert_eq!(c.now(), SimTime::EPOCH);
        c.advance(SimDuration::from_micros(3));
        assert_eq!(c.now().as_nanos(), 3_000);
        // advance_to backwards is a no-op
        c.advance_to(SimTime::from_nanos(1_000));
        assert_eq!(c.now().as_nanos(), 3_000);
        c.advance_to(SimTime::from_nanos(10_000));
        assert_eq!(c.now().as_nanos(), 10_000);
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SharedClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(1));
        assert_eq!(b.now().as_nanos(), 1_000_000);
    }

    #[test]
    fn identity_view_reports_global_time() {
        let c = SharedClock::new();
        c.advance(SimDuration::from_nanos(12_345));
        let v = ClockView::identity(c);
        assert_eq!(v.now().as_nanos(), 12_345);
    }

    #[test]
    fn skewed_view_applies_offset_and_quantisation() {
        let c = SharedClock::new();
        c.advance(SimDuration::from_nanos(10_500));
        let v = ClockView::skewed(c, 2_000, 0.0, SimDuration::from_micros(1));
        // 10_500 + 2_000 = 12_500 -> floor to 12_000
        assert_eq!(v.now().as_nanos(), 12_000);
    }

    #[test]
    fn drift_scales_the_timeline() {
        let c = SharedClock::new();
        c.advance(SimDuration::from_secs(1));
        // +100 ppm over one second = +100 us
        let v = ClockView::skewed(c, 0, 100.0, SimDuration::from_nanos(1));
        assert_eq!(v.now().as_nanos(), 1_000_100_000);
    }

    #[test]
    fn unproject_inverts_project_without_quantisation() {
        let c = SharedClock::new();
        let v = ClockView::skewed(c, -5_000, 37.5, SimDuration::from_nanos(1));
        // Times below |offset| saturate at the epoch and are not invertible;
        // start beyond that.
        for ns in [10_000u64, 123_456_789, 5_000_000_000] {
            let t = SimTime::from_nanos(ns);
            let rt = v.unproject(v.project(t));
            let err = rt.signed_delta_ns(t).unsigned_abs();
            assert!(err <= 1, "roundtrip error {err} ns at t={ns}");
        }
    }

    #[test]
    fn negative_offset_saturates_at_epoch() {
        let c = SharedClock::new();
        let v = ClockView::skewed(c, -1_000_000, 0.0, SimDuration::from_nanos(1));
        assert_eq!(v.now(), SimTime::EPOCH);
    }
}
