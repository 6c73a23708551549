//! Property-based tests for virtual time: ordering, arithmetic, clock views
//! (offset/drift projection) and timer quantisation.

use latest_sim_clock::{round_ns, ClockView, SharedClock, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    // --- SimTime / SimDuration arithmetic ------------------------------------

    #[test]
    fn add_then_since_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        let t1 = t0 + dur;
        prop_assert_eq!(t1.saturating_since(t0), dur);
        prop_assert!(t1 >= t0);
    }

    #[test]
    fn saturating_since_never_underflows(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        let d = ta.saturating_since(tb);
        if a <= b {
            prop_assert_eq!(d, SimDuration::ZERO);
        } else {
            prop_assert_eq!(d.as_nanos(), a - b);
        }
    }

    #[test]
    fn signed_delta_is_antisymmetric(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        prop_assert_eq!(ta.signed_delta_ns(tb), -tb.signed_delta_ns(ta));
    }

    #[test]
    fn offset_by_round_trips(t in 1_000_000u64..u64::MAX / 4, delta in -1_000_000i64..1_000_000i64) {
        let t0 = SimTime::from_nanos(t);
        prop_assert_eq!(t0.offset_by(delta).offset_by(-delta), t0);
    }

    #[test]
    fn quantize_floor_is_idempotent_and_lower(t in 0u64..u64::MAX / 4, res in 1u64..1_000_000) {
        let time = SimTime::from_nanos(t);
        let resolution = SimDuration::from_nanos(res);
        let q = time.quantize_floor(resolution);
        prop_assert!(q <= time);
        prop_assert!(time.as_nanos() - q.as_nanos() < res);
        prop_assert_eq!(q.quantize_floor(resolution), q);
    }

    #[test]
    fn duration_conversions_are_consistent(ms in 0u64..10_000_000) {
        let d = SimDuration::from_millis(ms);
        prop_assert_eq!(d.as_nanos(), ms * 1_000_000);
        prop_assert!((d.as_millis_f64() - ms as f64).abs() < 1e-6);
        prop_assert!((d.as_secs_f64() - ms as f64 / 1e3).abs() < 1e-9);
    }

    #[test]
    fn mul_f64_scales_linearly(ns in 0u64..1_000_000_000, k in 0.0..1000.0f64) {
        let d = SimDuration::from_nanos(ns);
        let scaled = d.mul_f64(k);
        let expected = ns as f64 * k;
        prop_assert!((scaled.as_nanos() as f64 - expected).abs() <= 1.0 + expected * 1e-12);
    }

    // --- round_ns (libm-free rounding) ------------------------------------------

    #[test]
    fn round_ns_matches_round_on_random_doubles(x in 0.0..1e12f64, bits in 0u64..u64::MAX) {
        prop_assert_eq!(round_ns(x), x.round() as u64);
        // Any bit pattern: subnormals, huge values, infinities, NaNs.
        let y = f64::from_bits(bits);
        prop_assert_eq!(round_ns(y), y.round() as u64, "y = {:e}", y);
    }

    #[test]
    fn round_ns_breaks_exact_ties_away_from_zero(n in 0u64..(1u64 << 52)) {
        // n + 0.5 is exact below 2^52.
        let tie = n as f64 + 0.5;
        prop_assert_eq!(round_ns(tie), tie.round() as u64);
        prop_assert_eq!(round_ns(tie.next_down()), tie.next_down().round() as u64);
    }

    #[test]
    fn round_ns_passes_whole_doubles_through(n in (1u64 << 52)..(1u64 << 53)) {
        let x = n as f64;
        prop_assert_eq!(round_ns(x), n);
        prop_assert_eq!(round_ns(x), x.round() as u64);
    }

    #[test]
    fn round_ns_maps_negatives_to_zero(x in -1e6..0.0f64) {
        // What `ClockView::{project, unproject}` clamped with `.max(0.0)`.
        prop_assert_eq!(round_ns(x), 0);
        prop_assert_eq!(round_ns(x), x.round().max(0.0) as u64);
        prop_assert_eq!(round_ns(-0.0), 0);
    }

    // --- SharedClock -----------------------------------------------------------

    #[test]
    fn clock_advance_is_monotone(steps in prop::collection::vec(0u64..1_000_000, 1..50)) {
        let clock = SharedClock::new();
        let mut last = clock.now();
        for ns in steps {
            let now = clock.advance(SimDuration::from_nanos(ns));
            prop_assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn advance_to_never_goes_backwards(targets in prop::collection::vec(0u64..1_000_000_000, 1..40)) {
        let clock = SharedClock::new();
        for t in targets {
            let before = clock.now();
            let after = clock.advance_to(SimTime::from_nanos(t));
            prop_assert!(after >= before);
            prop_assert!(after >= SimTime::from_nanos(t).min(after));
        }
    }

    // --- ClockView (device timer projection) -------------------------------------

    #[test]
    fn identity_view_projects_identically(t in 0u64..u64::MAX / 4) {
        let view = ClockView::identity(SharedClock::new());
        let time = SimTime::from_nanos(t);
        prop_assert_eq!(view.project(time), time);
    }

    #[test]
    fn skewed_view_unproject_inverts_project(
        t in 1_000_000_000u64..2_000_000_000,
        offset in -1_000_000i64..1_000_000,
        drift_ppm in -200.0..200.0f64,
    ) {
        let view = ClockView::skewed(
            SharedClock::new(),
            offset,
            drift_ppm,
            SimDuration::from_nanos(1), // no quantisation: exact inversion
        );
        let time = SimTime::from_nanos(t);
        let back = view.unproject(view.project(time));
        // Round trip within 1 ns per applied transform step.
        prop_assert!(back.signed_delta_ns(time).abs() <= 2, "err {}", back.signed_delta_ns(time));
    }

    #[test]
    fn projection_offset_matches_configuration(
        t in 1_000_000_000u64..2_000_000_000,
        offset in -1_000_000i64..1_000_000,
    ) {
        // Zero drift: projection is exactly the configured offset.
        let view = ClockView::skewed(SharedClock::new(), offset, 0.0, SimDuration::from_nanos(1));
        let time = SimTime::from_nanos(t);
        prop_assert_eq!(view.project(time).signed_delta_ns(time), offset);
    }

    #[test]
    fn quantised_projection_is_on_grid(
        t in 0u64..2_000_000_000,
        res in 1u64..10_000,
    ) {
        let view = ClockView::skewed(SharedClock::new(), 12_345, 50.0, SimDuration::from_nanos(res));
        let projected = view.project(SimTime::from_nanos(t));
        prop_assert_eq!(projected.as_nanos() % res, 0);
    }
}
