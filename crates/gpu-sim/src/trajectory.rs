//! Piecewise-constant frequency-vs-time curves with exact cycle integration.
//!
//! The microbenchmark iteration is a fixed budget of arithmetic *cycles*; its
//! wall-clock duration is whatever the instantaneous SM clock makes of it:
//! `∫ f(t) dt = work_cycles`. A transition mid-iteration stretches exactly
//! that iteration — which is precisely the signal the LATEST methodology
//! detects. This module stores the curve and solves that integral both ways.

use latest_sim_clock::{round_ns, SimDuration, SimTime};

/// One breakpoint: from `start` onward the clock runs at `freq_mhz` (until
/// the next breakpoint).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// When this frequency takes effect.
    pub start: SimTime,
    /// Frequency in MHz (f64: ramps may pass through non-ladder values).
    pub freq_mhz: f64,
}

/// A piecewise-constant frequency trajectory, breakpoints sorted by time.
///
/// The curve extends to +inf at the last breakpoint's frequency, and is
/// undefined before the first breakpoint (construction always seeds one at
/// the epoch).
#[derive(Clone, Debug)]
pub struct FreqTrajectory {
    segments: Vec<Segment>,
}

impl FreqTrajectory {
    /// A flat trajectory at `freq_mhz` from the epoch.
    pub fn flat(freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        FreqTrajectory {
            segments: vec![Segment {
                start: SimTime::EPOCH,
                freq_mhz,
            }],
        }
    }

    /// Append a breakpoint: the clock becomes `freq_mhz` at `start`.
    ///
    /// Breakpoints may be appended at or after the last breakpoint only
    /// (time moves forward). An equal-time append replaces the previous
    /// breakpoint — the newest request wins, which models a second locked-
    /// clocks call overriding an unfinished one.
    pub fn push(&mut self, start: SimTime, freq_mhz: f64) {
        assert!(freq_mhz > 0.0, "frequency must be positive");
        let last = self.segments.last().expect("trajectory never empty");
        assert!(
            start >= last.start,
            "breakpoints must be appended in time order ({start:?} < {:?})",
            last.start
        );
        if start == last.start {
            self.segments.last_mut().unwrap().freq_mhz = freq_mhz;
        } else if (freq_mhz - last.freq_mhz).abs() > f64::EPSILON {
            self.segments.push(Segment { start, freq_mhz });
        }
    }

    /// Drop all breakpoints strictly after `t` (a new request overrides the
    /// planned remainder of an in-flight transition, the paper's "actual CPU
    /// core frequency is undefined" situation resolved deterministically in
    /// favour of the newest request).
    pub fn truncate_after(&mut self, t: SimTime) {
        let keep = self.segments.partition_point(|s| s.start <= t);
        self.segments.truncate(keep.max(1));
    }

    /// Frequency at time `t` (the segment active at `t`).
    pub fn freq_at(&self, t: SimTime) -> f64 {
        let idx = self.segments.partition_point(|s| s.start <= t);
        self.segments[idx.saturating_sub(1)].freq_mhz
    }

    /// The breakpoints (read-only).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Cycles elapsed between `t0` and `t1` (exact piecewise integral).
    pub fn cycles_between(&self, t0: SimTime, t1: SimTime) -> f64 {
        assert!(t1 >= t0, "t1 must not precede t0");
        let mut cycles = 0.0;
        let mut cur = t0;
        let mut idx = self
            .segments
            .partition_point(|s| s.start <= t0)
            .saturating_sub(1);
        while cur < t1 {
            let seg_end = self
                .segments
                .get(idx + 1)
                .map(|s| s.start)
                .unwrap_or(t1)
                .min(t1);
            let dt_ns = seg_end.saturating_since(cur).as_nanos() as f64;
            cycles += dt_ns * self.segments[idx].freq_mhz * 1e-3;
            cur = seg_end;
            idx += 1;
            if idx >= self.segments.len() {
                // Last segment extends to +inf.
                let dt_ns = t1.saturating_since(cur).as_nanos() as f64;
                cycles += dt_ns * self.segments[self.segments.len() - 1].freq_mhz * 1e-3;
                break;
            }
        }
        cycles
    }

    /// The time at which `cycles` of work starting at `t0` complete:
    /// the unique `t1` with `cycles_between(t0, t1) = cycles`.
    pub fn advance_cycles(&self, t0: SimTime, cycles: f64) -> SimTime {
        assert!(cycles >= 0.0, "cycles must be non-negative");
        let mut remaining = cycles;
        let mut cur = t0;
        let mut idx = self
            .segments
            .partition_point(|s| s.start <= t0)
            .saturating_sub(1);
        loop {
            let freq = self.segments[idx].freq_mhz;
            let rate = freq * 1e-3; // cycles per ns
            let seg_end = self.segments.get(idx + 1).map(|s| s.start);
            match seg_end {
                Some(end) if end > cur => {
                    let span_ns = (end - cur).as_nanos() as f64;
                    let span_cycles = span_ns * rate;
                    if span_cycles >= remaining {
                        let dt = remaining / rate;
                        return cur + SimDuration::from_nanos(round_ns(dt));
                    }
                    remaining -= span_cycles;
                    cur = end;
                    idx += 1;
                }
                Some(_) => {
                    idx += 1;
                }
                None => {
                    let dt = remaining / rate;
                    return cur + SimDuration::from_nanos(round_ns(dt));
                }
            }
        }
    }

    /// A stateful forward-walking cursor for integrating many consecutive
    /// iterations in O(1) amortised per call instead of O(log n).
    pub fn cursor(&self, t0: SimTime) -> TrajectoryCursor<'_> {
        let idx = self
            .segments
            .partition_point(|s| s.start <= t0)
            .saturating_sub(1);
        TrajectoryCursor {
            traj: self,
            time: t0,
            idx,
        }
    }
}

/// Forward-only cursor over a [`FreqTrajectory`]; see
/// [`FreqTrajectory::cursor`].
#[derive(Clone, Debug)]
pub struct TrajectoryCursor<'a> {
    traj: &'a FreqTrajectory,
    time: SimTime,
    idx: usize,
}

impl<'a> TrajectoryCursor<'a> {
    /// Current position in time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Consume `cycles` of work from the current position; returns the
    /// completion time and advances the cursor to it.
    pub fn advance_cycles(&mut self, cycles: f64) -> SimTime {
        debug_assert!(cycles >= 0.0);
        let segments = &self.traj.segments;
        let mut remaining = cycles;
        loop {
            let freq = segments[self.idx].freq_mhz;
            let rate = freq * 1e-3;
            match segments.get(self.idx + 1) {
                Some(next) if next.start > self.time => {
                    let span_ns = (next.start - self.time).as_nanos() as f64;
                    let span_cycles = span_ns * rate;
                    if span_cycles >= remaining {
                        let dt = remaining / rate;
                        self.time += SimDuration::from_nanos(round_ns(dt));
                        return self.time;
                    }
                    remaining -= span_cycles;
                    self.time = next.start;
                    self.idx += 1;
                }
                Some(_) => self.idx += 1,
                None => {
                    let dt = remaining / rate;
                    self.time += SimDuration::from_nanos(round_ns(dt));
                    return self.time;
                }
            }
        }
    }

    /// Skip forward without consuming work (e.g. fixed iteration overhead).
    pub fn skip(&mut self, d: SimDuration) -> SimTime {
        self.time += d;
        let segments = &self.traj.segments;
        while self
            .segments_next_start()
            .map(|s| s <= self.time)
            .unwrap_or(false)
        {
            self.idx += 1;
        }
        debug_assert!(self.idx < segments.len());
        self.time
    }

    fn segments_next_start(&self) -> Option<SimTime> {
        self.traj.segments.get(self.idx + 1).map(|s| s.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn flat_trajectory_integration() {
        let traj = FreqTrajectory::flat(1000.0); // 1000 MHz = 1 cycle/ns
        assert_eq!(traj.cycles_between(t(0), t(500)), 500.0);
        assert_eq!(traj.advance_cycles(t(100), 250.0), t(350));
        assert_eq!(traj.freq_at(t(12345)), 1000.0);
    }

    #[test]
    fn two_segment_integration() {
        // 1000 MHz until 1000 ns, then 500 MHz.
        let mut traj = FreqTrajectory::flat(1000.0);
        traj.push(t(1000), 500.0);
        // 800 cycles from t=600: 400 ns at 1 c/ns -> 400 cycles, then
        // 400 cycles at 0.5 c/ns -> 800 ns. End = 600+400+800 = 1800.
        assert_eq!(traj.advance_cycles(t(600), 800.0), t(1800));
        // And the inverse:
        assert!((traj.cycles_between(t(600), t(1800)) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn advance_and_cycles_are_inverse() {
        let mut traj = FreqTrajectory::flat(1410.0);
        traj.push(t(5_000), 900.0);
        traj.push(t(9_000), 1200.0);
        traj.push(t(20_000), 210.0);
        for &start_ns in &[0u64, 4_000, 5_000, 7_500, 19_999, 50_000] {
            for &cycles in &[1.0, 100.0, 5_000.0, 100_000.0] {
                let t0 = t(start_ns);
                let t1 = traj.advance_cycles(t0, cycles);
                let back = traj.cycles_between(t0, t1);
                // Rounding to whole ns loses < 1.5 cycles at <= 1.5 GHz.
                assert!(
                    (back - cycles).abs() < 2.0,
                    "start={start_ns} cycles={cycles} got {back}"
                );
            }
        }
    }

    #[test]
    fn freq_at_segment_boundaries() {
        let mut traj = FreqTrajectory::flat(100.0);
        traj.push(t(10), 200.0);
        assert_eq!(traj.freq_at(t(9)), 100.0);
        assert_eq!(traj.freq_at(t(10)), 200.0);
        assert_eq!(traj.freq_at(t(11)), 200.0);
    }

    #[test]
    fn equal_time_push_replaces() {
        let mut traj = FreqTrajectory::flat(100.0);
        traj.push(t(10), 200.0);
        traj.push(t(10), 300.0);
        assert_eq!(traj.segments().len(), 2);
        assert_eq!(traj.freq_at(t(10)), 300.0);
    }

    #[test]
    fn redundant_push_is_coalesced() {
        let mut traj = FreqTrajectory::flat(100.0);
        traj.push(t(10), 100.0);
        assert_eq!(traj.segments().len(), 1);
    }

    #[test]
    fn truncate_after_drops_future_plan() {
        let mut traj = FreqTrajectory::flat(100.0);
        traj.push(t(10), 200.0);
        traj.push(t(20), 300.0);
        traj.push(t(30), 400.0);
        traj.truncate_after(t(20));
        assert_eq!(traj.segments().len(), 3);
        assert_eq!(traj.freq_at(t(1_000)), 300.0);
        // Truncating before the first breakpoint keeps the seed segment.
        let mut traj2 = FreqTrajectory::flat(100.0);
        traj2.truncate_after(SimTime::EPOCH);
        assert_eq!(traj2.segments().len(), 1);
    }

    #[test]
    fn cursor_matches_free_function() {
        let mut traj = FreqTrajectory::flat(1410.0);
        traj.push(t(5_000), 900.0);
        traj.push(t(9_000), 1200.0);
        let mut cursor = traj.cursor(t(0));
        let mut free_t = t(0);
        for i in 0..100 {
            let w = 500.0 + (i % 7) as f64 * 37.0;
            let via_cursor = cursor.advance_cycles(w);
            let via_free = traj.advance_cycles(free_t, w);
            assert_eq!(via_cursor, via_free, "iter {i}");
            free_t = via_free;
        }
    }

    #[test]
    fn cursor_skip_crosses_segments() {
        let mut traj = FreqTrajectory::flat(1000.0);
        traj.push(t(100), 500.0);
        let mut cursor = traj.cursor(t(0));
        cursor.skip(SimDuration::from_nanos(150));
        // After the skip we are in the 500 MHz segment: 50 cycles take 100 ns.
        let end = cursor.advance_cycles(50.0);
        assert_eq!(end, t(250));
    }

    #[test]
    fn slow_clock_long_iteration() {
        // 210 MHz: 0.21 cycles/ns; 1e6 cycles should take ~4.7619 ms.
        let traj = FreqTrajectory::flat(210.0);
        let end = traj.advance_cycles(t(0), 1e6);
        let expect_ns = 1e6 / 0.21;
        assert!((end.as_nanos() as f64 - expect_ns).abs() < 2.0);
    }

    #[test]
    #[should_panic]
    fn push_out_of_order_panics() {
        let mut traj = FreqTrajectory::flat(100.0);
        traj.push(t(10), 200.0);
        traj.push(t(5), 300.0);
    }
}
