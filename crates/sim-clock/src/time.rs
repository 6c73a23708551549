//! Nanosecond-resolution virtual time points and durations.
//!
//! [`SimTime`] is an absolute point on the global virtual timeline (nanoseconds
//! since simulation epoch); [`SimDuration`] is a length of virtual time. Both
//! are thin `u64` newtypes so that time arithmetic is cheap, `Copy`, and
//! impossible to confuse with raw integers in APIs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Round a nanosecond count to the nearest whole nanosecond, ties away from
/// zero; negative values and NaN give 0 and values past `u64::MAX`
/// saturate. This is exactly `x.round() as u64` for every input, without
/// the libm call `f64::round` compiles to on baseline x86-64 (it has no
/// rounding instruction): truncate, then add 1 when the exact fractional
/// part is at least one half.
#[inline]
pub fn round_ns(x: f64) -> u64 {
    // Every double at or above 2^52 is already a whole number.
    const WHOLE: f64 = 4_503_599_627_370_496.0;
    if x >= WHOLE {
        return x as u64;
    }
    let whole = x as i64;
    // `x - whole` is exact: the fractional part of a double is representable.
    let rounded = whole + i64::from(x - whole as f64 >= 0.5);
    rounded.max(0) as u64
}

/// An absolute instant on the global virtual timeline, in nanoseconds since
/// the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from nanoseconds since epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds since epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds since epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since epoch as a float (for statistics/reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since epoch as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference `self - other` in nanoseconds. Needed when comparing
    /// timestamps taken on clocks that may disagree (host vs device).
    #[inline]
    pub fn signed_delta_ns(self, other: SimTime) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Round *down* to a multiple of `resolution` (timer-register refresh
    /// granularity; the CUDA globaltimer refreshes at ~1 µs).
    #[inline]
    pub fn quantize_floor(self, resolution: SimDuration) -> SimTime {
        if resolution.0 <= 1 {
            return self;
        }
        SimTime(self.0 - self.0 % resolution.0)
    }

    /// Apply a signed offset, saturating at the epoch.
    #[inline]
    pub fn offset_by(self, delta_ns: i64) -> SimTime {
        if delta_ns >= 0 {
            SimTime(self.0.saturating_add(delta_ns as u64))
        } else {
            SimTime(self.0.saturating_sub(delta_ns.unsigned_abs()))
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative input clamps to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_ns(s.max(0.0) * 1e9))
    }

    /// Construct from fractional milliseconds. Negative input clamps to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration(round_ns(ms.max(0.0) * 1e6))
    }

    /// Nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration(round_ns(self.0 as f64 * k.max(0.0)))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Human-readable rendering with an auto-selected unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!((d * 3).as_nanos(), 120);
        assert_eq!((d / 4).as_nanos(), 10);
    }

    #[test]
    fn signed_delta() {
        let a = SimTime::from_nanos(50);
        let b = SimTime::from_nanos(80);
        assert_eq!(a.signed_delta_ns(b), -30);
        assert_eq!(b.signed_delta_ns(a), 30);
    }

    #[test]
    fn quantize_floor_rounds_down_to_resolution() {
        let res = SimDuration::from_micros(1);
        assert_eq!(
            SimTime::from_nanos(1_999).quantize_floor(res).as_nanos(),
            1_000
        );
        assert_eq!(
            SimTime::from_nanos(2_000).quantize_floor(res).as_nanos(),
            2_000
        );
        // Resolution <= 1 ns is the identity.
        let t = SimTime::from_nanos(1234);
        assert_eq!(t.quantize_floor(SimDuration::from_nanos(1)), t);
        assert_eq!(t.quantize_floor(SimDuration::ZERO), t);
    }

    #[test]
    fn offset_by_saturates_at_epoch() {
        let t = SimTime::from_nanos(10);
        assert_eq!(t.offset_by(5).as_nanos(), 15);
        assert_eq!(t.offset_by(-5).as_nanos(), 5);
        assert_eq!(t.offset_by(-50), SimTime::EPOCH);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn round_ns_agrees_with_libm_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            (1u64 << 53) as f64,
            18_446_744_073_709_549_568.0, // the last double below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Each tie below 2^20 and its neighbours one ULP away.
        for k in 0..(1u64 << 20) {
            let tie = k as f64 + 0.5;
            xs.extend([tie.next_down(), tie, tie.next_up()]);
        }
        for x in xs {
            assert_eq!(round_ns(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 1500);
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
    }
}
