//! Frequency-to-power model and energy accounting.
//!
//! The governor's objective is energy, so executions need a power model.
//! We use the standard decomposition `P(f) = P_static + P_dyn·(f/f_max)³`
//! (dynamic CMOS power scales with `f·V²` and voltage tracks frequency on
//! the DVFS curve, giving the cubic), scaled by how hard the device's
//! current activity drives the SMs. The absolute watts are nominal per device; the governor
//! comparison only needs the *relative* shape, which the cubic preserves.

use latest_gpu_sim::freq::FreqMhz;
use serde::{Deserialize, Serialize};

/// What the device is doing, as far as its power draw is concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Serving work: the SMs are fully driven.
    Busy,
    /// Nothing to serve: near-static draw.
    Idle,
}

/// Cubic DVFS power model for one device.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static/idle power (W): leakage, HBM refresh, fans.
    pub static_w: f64,
    /// Dynamic power at `f_max` under full compute load (W).
    pub dynamic_max_w: f64,
    /// The frequency the dynamic term is normalised to.
    pub f_max: FreqMhz,
}

impl PowerModel {
    /// A400 W-class SXM accelerator (A100-like nominal numbers).
    pub fn sxm_class(f_max: FreqMhz) -> Self {
        PowerModel {
            static_w: 90.0,
            dynamic_max_w: 310.0,
            f_max,
        }
    }

    /// How hard each activity drives the dynamic part.
    fn activity(kind: PhaseKind) -> f64 {
        match kind {
            PhaseKind::Busy => 1.0,
            PhaseKind::Idle => 0.12,
        }
    }

    /// Power draw (W) at `freq` while the device is `kind`.
    pub fn power_w(&self, freq: FreqMhz, kind: PhaseKind) -> f64 {
        let ratio = freq.as_f64() / self.f_max.as_f64();
        self.static_w + self.dynamic_max_w * Self::activity(kind) * ratio.powi(3)
    }

    /// Energy (J) of `duration_ms` at `freq` while the device is `kind`.
    pub fn energy_j(&self, freq: FreqMhz, kind: PhaseKind, duration_ms: f64) -> f64 {
        self.power_w(freq, kind) * duration_ms / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: FreqMhz = FreqMhz(1410);

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = PowerModel::sxm_class(MAX);
        let mut last = 0.0;
        for mhz in [210u32, 705, 1095, 1410] {
            let p = m.power_w(FreqMhz(mhz), PhaseKind::Busy);
            assert!(p > last, "{mhz} MHz: {p} W");
            last = p;
        }
        // Full load at f_max is static + dynamic.
        assert!((last - 400.0).abs() < 1e-9);
    }

    #[test]
    fn idle_draws_mostly_static_power() {
        let m = PowerModel::sxm_class(MAX);
        let idle = m.power_w(MAX, PhaseKind::Idle);
        let busy = m.power_w(MAX, PhaseKind::Busy);
        assert!(idle < 0.4 * busy, "idle {idle} W vs busy {busy} W");
        assert!(idle > m.static_w);
    }

    #[test]
    fn cubic_scaling_halves_to_an_eighth() {
        let m = PowerModel {
            static_w: 0.0,
            dynamic_max_w: 320.0,
            f_max: MAX,
        };
        let full = m.power_w(MAX, PhaseKind::Busy);
        let half = m.power_w(FreqMhz(705), PhaseKind::Busy);
        assert!((full / half - 8.0).abs() < 0.01, "ratio {}", full / half);
    }

    #[test]
    fn energy_integrates_power_over_time() {
        let m = PowerModel::sxm_class(MAX);
        let e = m.energy_j(MAX, PhaseKind::Busy, 2_000.0);
        assert!((e - 800.0).abs() < 1e-9); // 400 W * 2 s
    }
}
