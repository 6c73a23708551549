//! IEEE 1588-style host↔device timer synchronisation.
//!
//! Phase two of the methodology requires placing the *host-side* timestamp of
//! the frequency-change call onto the *device* timeline ("the CPU and ACC
//! timers are first synchronized using the IEEE 1588 standard" — Sec. V-B,
//! and line 6 of Algorithm 2: `t_s = clock_gettime() - cpu_sync + acc_sync`).
//!
//! The transport primitive is a two-way exchange: read the host clock, obtain
//! one device timestamp somewhere inside the round trip, read the host clock
//! again. Exactly like PTP's offset estimation, the device stamp is assumed
//! to sit at the midpoint of the round trip; the half-width of the round trip
//! bounds the error. Running many exchanges and keeping the narrowest ones
//! (min-filtering, the standard PTP trick) tightens the bound to the
//! best-case transport jitter plus the device timer's ~1 µs quantisation.
//!
//! The module is transport-agnostic: anything implementing [`TimestampProbe`]
//! can be synchronised — the simulated machine's `%globaltimer` round trip
//! (`latest_core::SimPlatform`) in production, synthetic probes in
//! tests (where the true offset is known and the estimate must cover it).

use latest_sim_clock::{SimDuration, SimTime};

/// One two-way timestamp exchange: `(host_before, device_stamp, host_after)`.
pub trait TimestampProbe {
    /// Perform one exchange.
    fn exchange(&mut self) -> (SimTime, SimTime, SimTime);
}

impl<F> TimestampProbe for F
where
    F: FnMut() -> (SimTime, SimTime, SimTime),
{
    fn exchange(&mut self) -> (SimTime, SimTime, SimTime) {
        self()
    }
}

/// Result of a synchronisation run: the affine map from host to device time
/// (offset only — drift over a single benchmark run is sub-microsecond and
/// absorbed by the error bound).
#[derive(Clone, Copy, Debug)]
pub struct SyncResult {
    /// Estimated `device_time - host_time` (ns).
    pub offset_ns: i64,
    /// Half-width of the best exchange plus one device-timer tick: the
    /// worst-case error of `offset_ns`.
    pub uncertainty_ns: u64,
    /// Number of exchanges performed.
    pub rounds: usize,
    /// Round-trip width of the best exchange (ns).
    pub best_round_trip_ns: u64,
}

impl SyncResult {
    /// Map a host timestamp onto the device timeline — the
    /// `clock_gettime() - cpu_sync + acc_sync` of Algorithm 2.
    pub fn host_to_device(&self, host: SimTime) -> SimTime {
        host.offset_by(self.offset_ns)
    }

    /// Map a device timestamp onto the host timeline.
    pub fn device_to_host(&self, device: SimTime) -> SimTime {
        device.offset_by(-self.offset_ns)
    }
}

/// Configuration of a synchronisation run.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Number of exchanges (PTP rounds). More rounds → better chance of a
    /// narrow round trip surviving the min-filter.
    pub rounds: usize,
    /// How many of the narrowest exchanges to average. Averaging a few
    /// near-minimal rounds reduces quantisation bias without readmitting
    /// wide (asymmetric) ones.
    pub keep_best: usize,
    /// The device timer's read quantisation, added to the error bound.
    pub device_resolution: SimDuration,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            rounds: 64,
            keep_best: 4,
            device_resolution: SimDuration::from_micros(1),
        }
    }
}

/// Synchronise over `probe` with the given configuration.
///
/// Panics if `config.rounds == 0`.
pub fn synchronize(probe: &mut dyn TimestampProbe, config: &SyncConfig) -> SyncResult {
    assert!(
        config.rounds > 0,
        "synchronisation needs at least one round"
    );
    let mut exchanges: Vec<(u64, i64)> = Vec::with_capacity(config.rounds);
    for _ in 0..config.rounds {
        let (before, stamp, after) = probe.exchange();
        debug_assert!(after >= before, "host clock went backwards");
        let width = after.saturating_since(before).as_nanos();
        // Midpoint assumption: device stamp corresponds to (before+after)/2.
        let midpoint_ns = (before.as_nanos() + after.as_nanos()) / 2;
        let offset = stamp.as_nanos() as i64 - midpoint_ns as i64;
        exchanges.push((width, offset));
    }
    exchanges.sort_by_key(|&(w, _)| w);
    let keep = config.keep_best.clamp(1, exchanges.len());
    let offset_ns = exchanges[..keep]
        .iter()
        .map(|&(_, o)| o as i128)
        .sum::<i128>()
        / keep as i128;
    let best_round_trip_ns = exchanges[0].0;
    SyncResult {
        offset_ns: offset_ns as i64,
        uncertainty_ns: best_round_trip_ns / 2 + config.device_resolution.as_nanos(),
        rounds: config.rounds,
        best_round_trip_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_sim_clock::{ClockView, SharedClock};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A synthetic probe over a skewed device clock with asymmetric jitter.
    struct FakeProbe {
        clock: SharedClock,
        device: ClockView,
        rng: ChaCha8Rng,
        out_us: (f64, f64),
        back_us: (f64, f64),
    }

    impl TimestampProbe for FakeProbe {
        fn exchange(&mut self) -> (SimTime, SimTime, SimTime) {
            let before = self.clock.now();
            let out: f64 = self.rng.gen_range(self.out_us.0..self.out_us.1);
            let at = self
                .clock
                .advance(SimDuration::from_nanos((out * 1e3) as u64));
            let stamp = self.device.project(at);
            let back: f64 = self.rng.gen_range(self.back_us.0..self.back_us.1);
            let after = self
                .clock
                .advance(SimDuration::from_nanos((back * 1e3) as u64));
            (before, stamp, after)
        }
    }

    fn probe_with_offset(offset_ns: i64, seed: u64) -> FakeProbe {
        let clock = SharedClock::new();
        clock.advance(SimDuration::from_millis(100));
        FakeProbe {
            device: ClockView::skewed(clock.clone(), offset_ns, 0.0, SimDuration::from_micros(1)),
            clock,
            rng: ChaCha8Rng::seed_from_u64(seed),
            out_us: (6.0, 20.0),
            back_us: (4.0, 15.0),
        }
    }

    #[test]
    fn recovers_known_offset_within_bound() {
        for &true_offset in &[0i64, 5_000_000, -3_000_000, 123_456_789] {
            let mut probe = probe_with_offset(true_offset, 11);
            let r = synchronize(&mut probe, &SyncConfig::default());
            let err = (r.offset_ns - true_offset).unsigned_abs();
            assert!(
                err <= r.uncertainty_ns,
                "offset {true_offset}: err {err} > bound {}",
                r.uncertainty_ns
            );
            // With 6-20/4-15 us legs the error must stay in the few-us range.
            assert!(err < 12_000, "err {err} ns too large");
        }
    }

    #[test]
    fn more_rounds_do_not_hurt() {
        let mut errs = Vec::new();
        for &rounds in &[1usize, 8, 64, 256] {
            let mut probe = probe_with_offset(7_777_777, 5);
            let cfg = SyncConfig {
                rounds,
                keep_best: 4.min(rounds),
                ..Default::default()
            };
            let r = synchronize(&mut probe, &cfg);
            errs.push((rounds, (r.offset_ns - 7_777_777).unsigned_abs()));
        }
        // 256 rounds must beat (or match) a single round.
        let e1 = errs[0].1;
        let e256 = errs[3].1;
        assert!(e256 <= e1, "errors: {errs:?}");
    }

    #[test]
    fn host_device_mapping_roundtrips() {
        let mut probe = probe_with_offset(42_000_000, 2);
        let r = synchronize(&mut probe, &SyncConfig::default());
        let host = SimTime::from_millis(500);
        let dev = r.host_to_device(host);
        assert_eq!(r.device_to_host(dev), host);
        let delta = dev.signed_delta_ns(host);
        assert!((delta - 42_000_000).abs() < 15_000, "delta {delta}");
    }

    #[test]
    fn uncertainty_reflects_round_trip() {
        let mut probe = probe_with_offset(0, 3);
        let r = synchronize(&mut probe, &SyncConfig::default());
        // Round trips are 10-35 us; the best should be near 10 us, so the
        // bound should be ~(best/2 + 1 us) < 20 us.
        assert!(r.uncertainty_ns < 20_000, "bound {}", r.uncertainty_ns);
        assert!(r.best_round_trip_ns >= 10_000 - 2_000);
    }

    #[test]
    #[should_panic]
    fn zero_rounds_panics() {
        let mut probe = probe_with_offset(0, 4);
        synchronize(
            &mut probe,
            &SyncConfig {
                rounds: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn closure_probe_works() {
        // The blanket impl for closures: a perfect, jitter-free transport.
        let mut t = 0u64;
        let mut probe = move || {
            t += 10_000;
            let before = SimTime::from_nanos(t);
            let stamp = SimTime::from_nanos(t + 5_000 + 1_000_000); // +1 ms offset
            let after = SimTime::from_nanos(t + 10_000);
            (before, stamp, after)
        };
        let r = synchronize(
            &mut probe,
            &SyncConfig {
                rounds: 8,
                keep_best: 2,
                device_resolution: SimDuration::ZERO,
            },
        );
        assert_eq!(r.offset_ns, 1_000_000);
    }
}
