//! Property-based tests for the GPU simulator: trajectory integration
//! (work conservation, monotonicity), frequency ladders, the thermal RC
//! model and the workload noise machinery.

use latest_gpu_sim::freq::{FreqLadder, FreqMhz};
use latest_gpu_sim::noise::{LatencyMixture, LogNormal, Normal};
use latest_gpu_sim::sm::WorkloadParams;
use latest_gpu_sim::thermal::{ThermalParams, ThermalState};
use latest_gpu_sim::trajectory::FreqTrajectory;
use latest_sim_clock::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random piecewise trajectory: ordered switch times with frequencies.
fn trajectory() -> impl Strategy<Value = FreqTrajectory> {
    (
        200.0..2000.0f64,
        prop::collection::vec((1u64..5_000_000, 200.0..2000.0f64), 0..8),
    )
        .prop_map(|(f0, switches)| {
            let mut traj = FreqTrajectory::flat(f0);
            let mut t = 0u64;
            for (dt, f) in switches {
                t += dt;
                traj.push(SimTime::from_nanos(t), f);
            }
            traj
        })
}

proptest! {
    // --- trajectory integration ------------------------------------------------

    #[test]
    fn work_is_conserved_through_advance_cycles(traj in trajectory(), t0 in 0u64..1_000_000, cycles in 1.0..1.0e7f64) {
        // advance_cycles must land exactly where cycles_between says the
        // requested work is complete.
        let start = SimTime::from_nanos(t0);
        let end = traj.advance_cycles(start, cycles);
        let integrated = traj.cycles_between(start, end);
        // One cycle of slack per segment boundary crossed (rounding to ns).
        let slack = 2.0 * traj.segments().len() as f64 + cycles * 1e-9;
        prop_assert!(
            (integrated - cycles).abs() <= slack + 2.0,
            "asked {cycles}, integrated {integrated}"
        );
    }

    #[test]
    fn advance_cycles_is_monotone_in_work(traj in trajectory(), t0 in 0u64..1_000_000, c in 1.0..1.0e6f64) {
        let start = SimTime::from_nanos(t0);
        let small = traj.advance_cycles(start, c);
        let large = traj.advance_cycles(start, c * 2.0);
        prop_assert!(large >= small);
        prop_assert!(small > start);
    }

    #[test]
    fn cycles_between_is_additive(traj in trajectory(), t0 in 0u64..1_000_000, d1 in 1u64..1_000_000, d2 in 1u64..1_000_000) {
        let a = SimTime::from_nanos(t0);
        let b = SimTime::from_nanos(t0 + d1);
        let c = SimTime::from_nanos(t0 + d1 + d2);
        let whole = traj.cycles_between(a, c);
        let parts = traj.cycles_between(a, b) + traj.cycles_between(b, c);
        prop_assert!((whole - parts).abs() <= 1e-6 * (1.0 + whole));
    }

    #[test]
    fn freq_at_is_piecewise_from_segments(traj in trajectory(), t in 0u64..10_000_000) {
        let time = SimTime::from_nanos(t);
        let f = traj.freq_at(time);
        // The reported frequency must be one of the segment frequencies.
        prop_assert!(traj.segments().iter().any(|s| s.freq_mhz == f));
        prop_assert!(f > 0.0);
    }

    #[test]
    fn cursor_agrees_with_advance_cycles(traj in trajectory(), t0 in 0u64..1_000_000, cycles in 1.0..1.0e6f64) {
        let start = SimTime::from_nanos(t0);
        let direct = traj.advance_cycles(start, cycles);
        let mut cursor = traj.cursor(start);
        let via_cursor = cursor.advance_cycles(cycles);
        prop_assert_eq!(direct, via_cursor);
    }

    #[test]
    fn cursor_chunked_advance_matches_one_shot(
        traj in trajectory(),
        t0 in 0u64..1_000_000,
        chunks in prop::collection::vec(1.0..1.0e5f64, 1..10),
    ) {
        let start = SimTime::from_nanos(t0);
        let total: f64 = chunks.iter().sum();
        let one_shot = traj.advance_cycles(start, total);
        let mut cursor = traj.cursor(start);
        let mut last = start;
        for c in chunks {
            last = cursor.advance_cycles(c);
        }
        // Chunked integration accumulates at most 1 ns rounding per chunk.
        prop_assert!(one_shot.signed_delta_ns(last).unsigned_abs() <= 12);
    }

    // --- frequency ladder --------------------------------------------------------

    #[test]
    fn snap_returns_a_ladder_value_at_minimal_distance(
        min in 100u32..500,
        steps in 1u32..120,
        step in 5u32..50,
        want in 0u32..4000,
    ) {
        let ladder = FreqLadder::arithmetic(min, min + steps * step, step);
        let snapped = ladder.snap(FreqMhz(want));
        prop_assert!(ladder.contains(snapped));
        for &f in ladder.steps() {
            prop_assert!(
                snapped.0.abs_diff(want) <= f.0.abs_diff(want),
                "snap {snapped:?} not nearest to {want} (found {f:?})"
            );
        }
    }

    #[test]
    fn subset_is_sorted_spans_and_deduplicated(n in 2usize..30) {
        let ladder = FreqLadder::arithmetic(210, 1410, 15);
        let subset = ladder.subset(n);
        prop_assert!(subset.len() <= n);
        prop_assert_eq!(subset.first().copied(), Some(ladder.min()));
        prop_assert_eq!(subset.last().copied(), Some(ladder.max()));
        for w in subset.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(ladder.contains(w[0]) && ladder.contains(w[1]));
        }
    }

    #[test]
    fn between_is_exclusive_ordered_path(a in 0usize..80, b in 0usize..80) {
        let ladder = FreqLadder::arithmetic(210, 1410, 15);
        let from = ladder.steps()[a.min(ladder.len() - 1)];
        let to = ladder.steps()[b.min(ladder.len() - 1)];
        let path = ladder.between(from, to);
        // Exclusive of both endpoints, strictly between them, monotone in
        // the traversal direction, all on the ladder.
        let (lo, hi) = (from.min(to), from.max(to));
        let expected = ((hi.0 - lo.0) as usize / 15).saturating_sub(1);
        prop_assert_eq!(path.len(), expected);
        for w in path.windows(2) {
            if from <= to {
                prop_assert!(w[0] < w[1]);
            } else {
                prop_assert!(w[0] > w[1]);
            }
        }
        for f in &path {
            prop_assert!(*f > lo && *f < hi);
            prop_assert!(ladder.contains(*f));
        }
    }

    // --- thermal model --------------------------------------------------------------

    #[test]
    fn temperature_approaches_steady_state_monotonically(
        power in 50.0..500.0f64,
        dts in prop::collection::vec(1u64..10_000_000_000, 1..20),
    ) {
        let params = ThermalParams {
            ambient_c: 30.0,
            r_th: 0.12,
            tau_s: 20.0,
            throttle_temp_c: 90.0,
            release_temp_c: 85.0,
            throttle_cap_mhz: 900.0,
            tdp_w: 400.0,
        };
        let t_ss = params.steady_state_c(power);
        let mut state = ThermalState::equilibrium(&params, SimTime::EPOCH);
        let mut now = SimTime::EPOCH;
        let mut last = state.temp_c;
        for dt in dts {
            now += SimDuration::from_nanos(dt);
            state.advance(&params, now, power);
            // Heating from ambient: monotone rise, never overshooting.
            prop_assert!(state.temp_c >= last - 1e-9);
            prop_assert!(state.temp_c <= t_ss + 1e-9);
            last = state.temp_c;
        }
    }

    #[test]
    fn time_to_reach_is_consistent_with_advance(power in 100.0..500.0f64, frac in 0.1..0.9f64) {
        let params = ThermalParams {
            ambient_c: 30.0,
            r_th: 0.12,
            tau_s: 10.0,
            throttle_temp_c: 90.0,
            release_temp_c: 85.0,
            throttle_cap_mhz: 900.0,
            tdp_w: 400.0,
        };
        let t_ss = params.steady_state_c(power);
        let target = 30.0 + frac * (t_ss - 30.0);
        let state = ThermalState::equilibrium(&params, SimTime::EPOCH);
        if let Some(eta) = state.time_to_reach(&params, target, power) {
            let mut check = state;
            check.advance(&params, SimTime::EPOCH + eta, power);
            prop_assert!((check.temp_c - target).abs() < 0.05, "reached {} vs {target}", check.temp_c);
        } else {
            // Only legitimate when the target is unreachable.
            prop_assert!(target > t_ss || target <= state.temp_c);
        }
    }

    // --- workload & noise ---------------------------------------------------------------

    #[test]
    fn expected_iteration_time_scales_inversely_with_frequency(cycles in 1.0e3..1.0e6f64, f in 200.0..2000.0f64) {
        let w = WorkloadParams { work_cycles: cycles, ..WorkloadParams::default_micro() };
        let at_f = w.expected_iter_ns(f, 1215.0, 1215.0);
        let at_2f = w.expected_iter_ns(2.0 * f, 1215.0, 1215.0);
        prop_assert!((at_f / at_2f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clamped_normal_stays_in_band(mu in -100.0..100.0f64, sigma in 0.01..50.0f64, k in 0.5..4.0f64, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = Normal::new(mu, sigma);
        for _ in 0..64 {
            let x = n.sample_clamped(&mut rng, k);
            prop_assert!(x >= mu - k * sigma - 1e-9 && x <= mu + k * sigma + 1e-9);
        }
    }

    #[test]
    fn log_normal_is_positive_with_requested_median(median in 0.1..1000.0f64, sigma in 0.01..1.0f64, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ln = LogNormal::from_median(median, sigma);
        let mut below = 0usize;
        const N: usize = 400;
        for _ in 0..N {
            let x = ln.sample(&mut rng);
            prop_assert!(x > 0.0);
            if x < median {
                below += 1;
            }
        }
        // The sample median must straddle the configured median.
        prop_assert!((N / 5..4 * N / 5).contains(&below), "below-median count {below}");
    }

    #[test]
    fn mixture_samples_only_from_components(seed in 0u64..500) {
        let mix = LatencyMixture::single(15.0, 0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let ms = mix.sample_ms(&mut rng);
            // Single lognormal component around 15 ms with 5 % sigma: all
            // samples live within a generous factor-2 band.
            prop_assert!((7.5..30.0).contains(&ms), "sample {ms}");
        }
    }

    #[test]
    fn mixture_scaling_scales_samples(seed in 0u64..200, k in 0.1..10.0f64) {
        let base = LatencyMixture::single(20.0, 0.1);
        let scaled = base.scaled(k);
        let mut r1 = ChaCha8Rng::seed_from_u64(seed);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..16 {
            let a = base.sample_ms(&mut r1);
            let b = scaled.sample_ms(&mut r2);
            prop_assert!((b / a - k).abs() < 1e-9 * (1.0 + k));
        }
    }
}
