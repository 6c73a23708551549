//! Device descriptors for the paper's three GPUs (Table I), with transition
//! models calibrated to the *shape* of the published results.
//!
//! | Model | RTX Quadro 6000 | A100-SXM4 | GH200 |
//! |---|---|---|---|
//! | Architecture | Turing | Ampere | Hopper |
//! | SMs | 72 | 108 | 132 |
//! | Mem freq (MHz) | 7001 | 1215 | 2619 |
//! | Max SM freq | 2100 | 1410 | 1980 |
//! | Nominal | 1440 | 1095 | 1980 |
//! | Min SM freq | 300* | 210 | 345 |
//! | Steps | 120 | 81 | 110 |
//!
//! *The Quadro's 120 steps of 15 MHz are modelled as 315–2100 (Table I lists
//! min 300 with 120 steps; 300–2100 at 15 MHz would be 121 — we keep the
//! step count authoritative).
//!
//! Calibration targets (all post-outlier-filter, from Table II / Fig. 3/4):
//!
//! * **A100**: worst-case latencies 7–23 ms, best-case ≈ 4.4–6 ms, tight and
//!   unimodal, decreasing transitions faster than increasing.
//! * **GH200**: baseline 5–6 ms; target columns ≈ 1260 and ≈ 1875 MHz slow
//!   (tens to hundreds of ms) with multi-cluster structure (up to 5
//!   clusters, Fig. 5); rare ≈ 450–480 ms extremes; ~85 % of pairs remain
//!   single-cluster.
//! * **RTX Quadro 6000**: regime decided mostly by the *target* frequency —
//!   a fast ≈ 20 ms family, a broad ≈ 135 ms family, and ≈ 238 ms columns
//!   (targets ≈ 930/990 MHz); highest pair-to-pair variability of the three;
//!   occasional ≈ 350 ms worst case.

use std::sync::Arc;

use latest_sim_clock::SimDuration;

use crate::freq::{ClockDomain, FreqLadder, FreqMhz};
use crate::noise::{LatencyMixture, MixtureComponent};
use crate::thermal::{PowerModel, ThermalParams};
use crate::transition::{
    ArchTransitionModel, MinorityFlip, ModeSelection, RampPolicy, RareSpike, SlowTargetBand,
    TransitionModel,
};

/// GPU microarchitecture family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuArchitecture {
    /// RTX Quadro 6000.
    Turing,
    /// A100.
    Ampere,
    /// GH200 / H100.
    Hopper,
}

impl std::fmt::Display for GpuArchitecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuArchitecture::Turing => write!(f, "Turing"),
            GpuArchitecture::Ampere => write!(f, "Ampere"),
            GpuArchitecture::Hopper => write!(f, "Hopper"),
        }
    }
}

/// Driver-path timing profile of locked-clocks calls: how long the
/// host-side call blocks, how long the request travels to the device, and
/// how often the driver stalls (producing the outlier measurements the
/// DBSCAN stage must filter).
#[derive(Clone, Debug)]
pub struct DriverProfile {
    /// Median host-side blocking time of a control call (µs).
    pub call_blocking_us: f64,
    /// Log-space sigma of the blocking time.
    pub call_blocking_sigma_ln: f64,
    /// Median request travel time host→device (µs): PCIe/NVLink + firmware
    /// ingestion.
    pub request_travel_us: f64,
    /// Log-space sigma of the travel time.
    pub request_travel_sigma_ln: f64,
    /// Probability that a control call hits a driver stall (lock contention,
    /// monitoring interference — the paper's outlier sources).
    pub stall_prob: f64,
    /// Added stall latency (ms).
    pub stall: LatencyMixture,
}

/// Full description of one simulated GPU unit.
#[derive(Clone)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: String,
    /// Architecture family.
    pub architecture: GpuArchitecture,
    /// Streaming-multiprocessor count.
    pub sm_count: u32,
    /// Memory clock (MHz) at the default memory P-state.
    pub mem_freq_mhz: u32,
    /// Reported driver version string.
    pub driver_version: &'static str,
    /// Selectable SM frequencies.
    pub ladder: FreqLadder,
    /// Selectable memory (DRAM) frequencies — the device's memory P-states.
    /// Always contains `mem_freq_mhz` (the default state the driver boots
    /// into and resets to).
    pub mem_ladder: FreqLadder,
    /// The memory-domain DVFS transition model. DRAM clock switches retrain
    /// the memory interface, so their latency dynamics are independent of
    /// (and typically slower than) the SM domain's.
    pub mem_transition: Arc<dyn TransitionModel>,
    /// Nominal (boost-base) SM frequency.
    pub nominal_mhz: FreqMhz,
    /// Idle SM clock the device falls back to without load.
    pub idle_mhz: FreqMhz,
    /// globaltimer read granularity (~1 µs on CUDA GPUs).
    pub timer_resolution: SimDuration,
    /// Device timer offset vs the host clock (ns): power-on skew.
    pub timer_offset_ns: i64,
    /// Device oscillator drift (ppm).
    pub timer_drift_ppm: f64,
    /// The DVFS transition model.
    pub transition: Arc<dyn TransitionModel>,
    /// Board power model.
    pub power: PowerModel,
    /// Thermal/throttle parameters.
    pub thermal: ThermalParams,
    /// Time to climb from idle to the requested clock after an idle period.
    pub wakeup_ramp: SimDuration,
    /// Idle gap beyond which the next kernel pays the wake-up ramp.
    pub wakeup_idle_threshold: SimDuration,
    /// Driver-path timing of locked-clocks calls.
    pub driver: DriverProfile,
}

impl DeviceSpec {
    /// The default memory clock as a [`FreqMhz`] (the P-state the driver
    /// resets to when memory locks are cleared).
    pub fn mem_default(&self) -> FreqMhz {
        FreqMhz(self.mem_freq_mhz)
    }

    /// The selectable frequencies of `domain`.
    pub fn ladder_of(&self, domain: ClockDomain) -> &FreqLadder {
        match domain {
            ClockDomain::Core => &self.ladder,
            ClockDomain::Memory => &self.mem_ladder,
        }
    }
}

impl std::fmt::Debug for DeviceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSpec")
            .field("name", &self.name)
            .field("architecture", &self.architecture)
            .field("sm_count", &self.sm_count)
            .field("freq_range", &(self.ladder.min(), self.ladder.max()))
            .field("steps", &self.ladder.len())
            .field("mem_range", &(self.mem_ladder.min(), self.mem_ladder.max()))
            .finish()
    }
}

/// Memory-domain transition model shared in shape across the three devices:
/// retraining the DRAM interface is a pending-dominated event with a short
/// adaptation ramp and mild pair-to-pair texture.
fn mem_transition_model(
    up_ms: f64,
    down_ms: f64,
    jitter_ln: f64,
    pair_salt: u64,
) -> ArchTransitionModel {
    ArchTransitionModel {
        up: LatencyMixture::single(up_ms, 0.16),
        down: LatencyMixture::single(down_ms, 0.12),
        slow_bands: vec![],
        rare_spike: None,
        pair_jitter_ln: jitter_ln,
        mode_by: ModeSelection::Measurement,
        minority_flip: None,
        ramp: RampPolicy {
            fraction: 0.15,
            max_steps: 2,
        },
        unit_scale: 1.0,
        pair_salt,
    }
}

fn default_driver_profile() -> DriverProfile {
    DriverProfile {
        call_blocking_us: 120.0,
        call_blocking_sigma_ln: 0.25,
        request_travel_us: 40.0,
        request_travel_sigma_ln: 0.30,
        stall_prob: 0.015,
        stall: LatencyMixture::new(vec![
            MixtureComponent {
                weight: 0.7,
                median_ms: 12.0,
                sigma_ln: 0.5,
            },
            MixtureComponent {
                weight: 0.3,
                median_ms: 60.0,
                sigma_ln: 0.4,
            },
        ]),
    }
}

/// NVIDIA A100-SXM4: the best-behaved of the three — tight, fast, unimodal
/// transitions with a clear increase/decrease asymmetry.
pub fn a100_sxm4() -> DeviceSpec {
    let ladder = FreqLadder::arithmetic(210, 1410, 15);
    let transition = ArchTransitionModel {
        up: LatencyMixture::single(13.0, 0.18),
        down: LatencyMixture::single(5.2, 0.10),
        slow_bands: vec![],
        rare_spike: None,
        pair_jitter_ln: 0.08,
        mode_by: ModeSelection::Measurement,
        minority_flip: None,
        ramp: RampPolicy {
            fraction: 0.25,
            max_steps: 3,
        },
        unit_scale: 1.0,
        pair_salt: 0xA100,
    };
    DeviceSpec {
        name: "NVIDIA A100-SXM4-40GB".to_string(),
        architecture: GpuArchitecture::Ampere,
        sm_count: 108,
        mem_freq_mhz: 1215,
        driver_version: "550.54.15",
        ladder,
        // HBM2e P-states: the documented default 1215 MHz plus two reduced
        // states the driver exposes for power capping.
        mem_ladder: FreqLadder::from_steps(vec![FreqMhz(810), FreqMhz(1065), FreqMhz(1215)]),
        mem_transition: Arc::new(mem_transition_model(24.0, 10.0, 0.08, 0x0A10_03E3)),
        nominal_mhz: FreqMhz(1095),
        idle_mhz: FreqMhz(210),
        timer_resolution: SimDuration::from_micros(1),
        timer_offset_ns: 7_340_000,
        timer_drift_ppm: 2.5,
        transition: Arc::new(transition),
        power: PowerModel {
            idle_w: 55.0,
            dynamic_coeff: 210.0,
            v_min: 0.70,
            v_max: 1.05,
            f_min_mhz: 210.0,
            f_max_mhz: 1410.0,
        },
        thermal: ThermalParams {
            ambient_c: 30.0,
            r_th: 0.125,
            tau_s: 25.0,
            throttle_temp_c: 90.0,
            release_temp_c: 83.0,
            throttle_cap_mhz: 930.0,
            tdp_w: 400.0,
        },
        wakeup_ramp: SimDuration::from_millis(35),
        wakeup_idle_threshold: SimDuration::from_millis(10),
        driver: default_driver_profile(),
    }
}

/// One of the four A100 units of the EuroHPC Karolina node (Sec. VII-C).
/// Unit 0 is the nominal [`a100_sxm4`]; others carry small manufacturing
/// deviations in transition speed, pair texture, and timer skew.
pub fn a100_sxm4_unit(unit: usize) -> DeviceSpec {
    let mut spec = a100_sxm4();
    // Scales chosen so the spread of per-pair extremes is a few ms at worst
    // (Fig. 7: ranges of minima mostly < 0.5 ms; Fig. 8: maxima spread up to
    // ~12 ms on isolated pairs).
    let scales = [1.0, 0.965, 1.045, 1.015];
    let scale = scales[unit % scales.len()];
    spec.transition = Arc::new(a100_transition_with(scale, 0xA100 + unit as u64));
    spec.name = format!("NVIDIA A100-SXM4-40GB (unit {unit})");
    spec.timer_offset_ns += unit as i64 * 1_234_567;
    spec.timer_drift_ppm += unit as f64 * 0.7;
    spec
}

fn a100_transition_with(unit_scale: f64, pair_salt: u64) -> ArchTransitionModel {
    ArchTransitionModel {
        up: LatencyMixture::single(13.0, 0.18),
        down: LatencyMixture::single(5.2, 0.10),
        slow_bands: vec![],
        rare_spike: None,
        pair_jitter_ln: 0.08,
        mode_by: ModeSelection::Measurement,
        minority_flip: None,
        ramp: RampPolicy {
            fraction: 0.25,
            max_steps: 3,
        },
        unit_scale,
        pair_salt,
    }
}

/// GH200 (the Hopper GPU of the Grace Hopper superchip): mostly fast
/// (~5–6 ms), but specific target frequencies are slow and multi-modal, with
/// rare ~470 ms extremes (Fig. 3a/3b, Fig. 5).
pub fn gh200() -> DeviceSpec {
    let ladder = FreqLadder::arithmetic(345, 1980, 15);
    let transition = ArchTransitionModel {
        up: LatencyMixture::single(6.1, 0.16),
        down: LatencyMixture::single(5.7, 0.14),
        slow_bands: vec![
            // The ~1260 MHz column: strongly multi-modal when slow
            // (Fig. 5 shows five distinct clusters on 1770 -> 1260).
            SlowTargetBand {
                // Fig. 3b's column is a *band* around ~1260: it spans the
                // neighbouring ladder steps, so coarse sweep subsets (which
                // land on 1245 rather than 1260 exactly) still cross it.
                targets: vec![FreqMhz(1245), FreqMhz(1260), FreqMhz(1275)],
                probability: 0.38,
                // Tight modes (ln-σ 0.03): Fig. 5 shows distinct horizontal
                // bands; wider modes merge under Algorithm 3's
                // eps = 0.15 × quantile-range and the five-cluster
                // structure disappears.
                mixture: LatencyMixture::new(vec![
                    MixtureComponent {
                        weight: 0.30,
                        median_ms: 63.0,
                        sigma_ln: 0.03,
                    },
                    MixtureComponent {
                        weight: 0.25,
                        median_ms: 121.0,
                        sigma_ln: 0.03,
                    },
                    MixtureComponent {
                        weight: 0.20,
                        median_ms: 189.0,
                        sigma_ln: 0.03,
                    },
                    MixtureComponent {
                        weight: 0.25,
                        median_ms: 262.0,
                        sigma_ln: 0.03,
                    },
                ]),
            },
            // The ~1875 MHz column: consistently slow worst cases.
            SlowTargetBand {
                targets: vec![FreqMhz(1875)],
                probability: 0.45,
                mixture: LatencyMixture::new(vec![
                    MixtureComponent {
                        weight: 0.35,
                        median_ms: 55.0,
                        sigma_ln: 0.35,
                    },
                    MixtureComponent {
                        weight: 0.65,
                        median_ms: 272.0,
                        sigma_ln: 0.09,
                    },
                ]),
            },
        ],
        rare_spike: Some(RareSpike {
            probability: 0.004,
            mixture: LatencyMixture::single(440.0, 0.05),
        }),
        pair_jitter_ln: 0.10,
        mode_by: ModeSelection::Measurement,
        minority_flip: None,
        ramp: RampPolicy {
            fraction: 0.20,
            max_steps: 4,
        },
        unit_scale: 1.0,
        pair_salt: 0x61_4200,
    };
    DeviceSpec {
        name: "NVIDIA GH200 (Grace Hopper)".to_string(),
        architecture: GpuArchitecture::Hopper,
        sm_count: 132,
        mem_freq_mhz: 2619,
        driver_version: "545.23.08",
        ladder,
        // HBM3 P-states around the documented 2619 MHz default.
        mem_ladder: FreqLadder::from_steps(vec![FreqMhz(1593), FreqMhz(2106), FreqMhz(2619)]),
        mem_transition: Arc::new(mem_transition_model(14.0, 11.0, 0.10, 0x61_43E3)),
        nominal_mhz: FreqMhz(1980),
        idle_mhz: FreqMhz(345),
        timer_resolution: SimDuration::from_micros(1),
        timer_offset_ns: 11_870_000,
        timer_drift_ppm: -3.1,
        transition: Arc::new(transition),
        power: PowerModel {
            idle_w: 90.0,
            dynamic_coeff: 270.0,
            v_min: 0.68,
            v_max: 1.05,
            f_min_mhz: 345.0,
            f_max_mhz: 1980.0,
        },
        thermal: ThermalParams {
            ambient_c: 28.0,
            r_th: 0.075,
            tau_s: 30.0,
            throttle_temp_c: 90.0,
            release_temp_c: 84.0,
            throttle_cap_mhz: 1200.0,
            tdp_w: 700.0,
        },
        wakeup_ramp: SimDuration::from_millis(45),
        wakeup_idle_threshold: SimDuration::from_millis(10),
        driver: DriverProfile {
            // Grace <-> Hopper over NVLink-C2C: faster control path.
            call_blocking_us: 80.0,
            call_blocking_sigma_ln: 0.22,
            request_travel_us: 18.0,
            request_travel_sigma_ln: 0.25,
            stall_prob: 0.02,
            stall: LatencyMixture::new(vec![
                MixtureComponent {
                    weight: 0.6,
                    median_ms: 15.0,
                    sigma_ln: 0.5,
                },
                MixtureComponent {
                    weight: 0.4,
                    median_ms: 90.0,
                    sigma_ln: 0.5,
                },
            ]),
        },
    }
}

/// RTX Quadro 6000 (Turing): the wild one — the latency regime is decided
/// mostly by the *target* frequency (fast ≈ 20 ms columns, broad ≈ 135 ms
/// columns, ≈ 238 ms columns at ~930/990 MHz), with the highest overall
/// variability and occasional ≈ 350 ms events.
pub fn rtx_quadro_6000() -> DeviceSpec {
    let ladder = FreqLadder::arithmetic(315, 2100, 15);
    let transition = ArchTransitionModel {
        // Baseline regimes, ownership per *target* frequency.
        up: LatencyMixture::new(vec![
            MixtureComponent {
                weight: 0.28,
                median_ms: 20.5,
                sigma_ln: 0.10,
            },
            MixtureComponent {
                weight: 0.52,
                median_ms: 136.0,
                sigma_ln: 0.035,
            },
            MixtureComponent {
                weight: 0.12,
                median_ms: 75.0,
                sigma_ln: 0.30,
            },
            MixtureComponent {
                weight: 0.08,
                median_ms: 155.0,
                sigma_ln: 0.25,
            },
        ]),
        down: LatencyMixture::new(vec![
            MixtureComponent {
                weight: 0.34,
                median_ms: 19.5,
                sigma_ln: 0.10,
            },
            MixtureComponent {
                weight: 0.48,
                median_ms: 135.0,
                sigma_ln: 0.035,
            },
            MixtureComponent {
                weight: 0.10,
                median_ms: 70.0,
                sigma_ln: 0.30,
            },
            MixtureComponent {
                weight: 0.08,
                median_ms: 150.0,
                sigma_ln: 0.25,
            },
        ]),
        slow_bands: vec![SlowTargetBand {
            targets: vec![FreqMhz(930), FreqMhz(990)],
            probability: 0.92,
            mixture: LatencyMixture::new(vec![
                MixtureComponent {
                    weight: 0.85,
                    median_ms: 237.5,
                    sigma_ln: 0.012,
                },
                MixtureComponent {
                    weight: 0.15,
                    median_ms: 300.0,
                    sigma_ln: 0.10,
                },
            ]),
        }],
        rare_spike: Some(RareSpike {
            probability: 0.008,
            mixture: LatencyMixture::single(110.0, 0.45),
        }),
        pair_jitter_ln: 0.14,
        mode_by: ModeSelection::Target,
        // Sec. VII-B: ~30 % of Quadro pairs show a smaller secondary
        // cluster besides the column-owned regime.
        minority_flip: Some(MinorityFlip {
            pair_fraction: 0.30,
            flip_prob: 0.25,
        }),
        ramp: RampPolicy {
            fraction: 0.30,
            max_steps: 5,
        },
        unit_scale: 1.0,
        pair_salt: 0x6000,
    };
    DeviceSpec {
        name: "NVIDIA Quadro RTX 6000".to_string(),
        architecture: GpuArchitecture::Turing,
        sm_count: 72,
        mem_freq_mhz: 7001,
        driver_version: "530.41.03",
        ladder,
        // GDDR6 P-states: deep idle steps plus the high-rate states around
        // the documented 7001 MHz default. GDDR retraining is the slowest
        // memory switch of the three devices.
        mem_ladder: FreqLadder::from_steps(vec![
            FreqMhz(405),
            FreqMhz(810),
            FreqMhz(5001),
            FreqMhz(6251),
            FreqMhz(7001),
        ]),
        mem_transition: Arc::new(mem_transition_model(52.0, 41.0, 0.14, 0x60_3E3)),
        nominal_mhz: FreqMhz(1440),
        idle_mhz: FreqMhz(315),
        timer_resolution: SimDuration::from_micros(1),
        timer_offset_ns: 4_210_000,
        timer_drift_ppm: 5.8,
        transition: Arc::new(transition),
        power: PowerModel {
            idle_w: 25.0,
            dynamic_coeff: 88.0,
            v_min: 0.65,
            v_max: 1.10,
            f_min_mhz: 315.0,
            f_max_mhz: 2100.0,
        },
        thermal: ThermalParams {
            ambient_c: 32.0,
            r_th: 0.19,
            tau_s: 18.0,
            throttle_temp_c: 88.0,
            release_temp_c: 81.0,
            throttle_cap_mhz: 1050.0,
            tdp_w: 260.0,
        },
        wakeup_ramp: SimDuration::from_millis(60),
        wakeup_idle_threshold: SimDuration::from_millis(10),
        driver: DriverProfile {
            call_blocking_us: 180.0,
            call_blocking_sigma_ln: 0.35,
            request_travel_us: 60.0,
            request_travel_sigma_ln: 0.40,
            stall_prob: 0.025,
            stall: LatencyMixture::new(vec![
                MixtureComponent {
                    weight: 0.6,
                    median_ms: 20.0,
                    sigma_ln: 0.6,
                },
                MixtureComponent {
                    weight: 0.4,
                    median_ms: 80.0,
                    sigma_ln: 0.5,
                },
            ]),
        },
    }
}

/// All three paper devices, in Table I order.
pub fn paper_devices() -> Vec<DeviceSpec> {
    DeviceRegistry::builtin()
        .entries()
        .iter()
        .map(|e| e.make(0))
        .collect()
}

/// One named device family in a [`DeviceRegistry`]: a canonical short name
/// (the CLI/scenario key), optional aliases, a human description, and a
/// constructor covering the family's per-unit variants.
#[derive(Clone)]
pub struct DeviceEntry {
    name: String,
    aliases: Vec<String>,
    description: String,
    units: usize,
    make: Arc<dyn Fn(usize) -> DeviceSpec + Send + Sync>,
}

impl DeviceEntry {
    /// A single-unit entry.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        make: impl Fn(usize) -> DeviceSpec + Send + Sync + 'static,
    ) -> Self {
        DeviceEntry {
            name: name.into(),
            aliases: Vec::new(),
            description: description.into(),
            units: 1,
            make: Arc::new(make),
        }
    }

    /// Add lookup aliases (matched case-insensitively, like the name).
    pub fn with_aliases(mut self, aliases: &[&str]) -> Self {
        self.aliases = aliases.iter().map(|a| a.to_string()).collect();
        self
    }

    /// Declare how many per-unit variants the constructor models.
    pub fn with_units(mut self, units: usize) -> Self {
        self.units = units.max(1);
        self
    }

    /// Canonical registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lookup aliases.
    pub fn aliases(&self) -> &[String] {
        &self.aliases
    }

    /// Human description for `list-devices` output.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Number of modelled per-unit variants (1 = single unit).
    pub fn units(&self) -> usize {
        self.units
    }

    /// Construct the spec for one unit (units beyond [`DeviceEntry::units`]
    /// wrap within the modelled variants, mirroring `a100_sxm4_unit`).
    pub fn make(&self, unit: usize) -> DeviceSpec {
        (self.make)(unit)
    }

    fn matches(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
            || self.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Debug for DeviceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceEntry")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("units", &self.units)
            .finish()
    }
}

/// Named lookup over the modelled devices — the one place that maps scenario
/// and CLI device names to [`DeviceSpec`] constructors.
///
/// Replaces the hard-coded `a100 | gh200 | quadro` matches: lookups are by
/// canonical name or alias (case-insensitive), entries are enumerable for
/// error messages and `latest list-devices`, and downstream crates can
/// [`DeviceRegistry::register`] their own families next to the paper's
/// three (Table I order: `quadro`, `a100`, `gh200`).
#[derive(Clone, Debug)]
pub struct DeviceRegistry {
    entries: Vec<DeviceEntry>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        DeviceRegistry {
            entries: Vec::new(),
        }
    }

    /// The paper's three GPUs, in Table I order.
    pub fn builtin() -> Self {
        let mut reg = DeviceRegistry::empty();
        reg.register(
            DeviceEntry::new(
                "quadro",
                "RTX Quadro 6000 (Turing): target-owned latency regimes, slow 930/990 MHz columns",
                |_| rtx_quadro_6000(),
            )
            .with_aliases(&["rtx6000", "quadro-rtx-6000"]),
        );
        reg.register(
            DeviceEntry::new(
                "a100",
                "A100-SXM4 (Ampere): tight unimodal transitions; 4 per-unit variants",
                |unit| {
                    if unit == 0 {
                        a100_sxm4()
                    } else {
                        a100_sxm4_unit(unit)
                    }
                },
            )
            .with_aliases(&["a100-sxm4"])
            .with_units(4),
        );
        reg.register(
            DeviceEntry::new(
                "gh200",
                "GH200 (Hopper): fast baseline, slow multi-modal 1260/1875 MHz target columns",
                |_| gh200(),
            )
            .with_aliases(&["grace-hopper"]),
        );
        reg
    }

    /// Add (or replace, by canonical name) an entry.
    pub fn register(&mut self, entry: DeviceEntry) {
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.name.eq_ignore_ascii_case(&entry.name))
        {
            *existing = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[DeviceEntry] {
        &self.entries
    }

    /// Canonical names, in registration order — the vocabulary quoted by
    /// unknown-device error messages.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Find an entry by canonical name or alias (case-insensitive).
    pub fn find(&self, name: &str) -> Option<&DeviceEntry> {
        self.entries.iter().find(|e| e.matches(name))
    }

    /// Construct the unit-0 spec of a named device.
    pub fn get(&self, name: &str) -> Option<DeviceSpec> {
        self.get_unit(name, 0)
    }

    /// Construct one unit of a named device. Unit selection mirrors the
    /// paper setup: families with per-unit variants (the A100) return the
    /// requested unit, single-unit families ignore the index.
    pub fn get_unit(&self, name: &str, unit: usize) -> Option<DeviceSpec> {
        self.find(name).map(|e| e.make(unit))
    }
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        DeviceRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn table1_parameters() {
        let q = rtx_quadro_6000();
        assert_eq!(q.sm_count, 72);
        assert_eq!(q.ladder.len(), 120);
        assert_eq!(q.ladder.max(), FreqMhz(2100));
        assert_eq!(q.mem_freq_mhz, 7001);
        assert_eq!(q.mem_ladder.max(), FreqMhz(7001));

        let a = a100_sxm4();
        assert_eq!(a.sm_count, 108);
        assert_eq!(a.ladder.len(), 81);
        assert_eq!(a.ladder.min(), FreqMhz(210));
        assert_eq!(a.ladder.max(), FreqMhz(1410));
        assert_eq!(a.nominal_mhz, FreqMhz(1095));

        let g = gh200();
        assert_eq!(g.sm_count, 132);
        assert_eq!(g.ladder.len(), 110);
        assert_eq!(g.ladder.min(), FreqMhz(345));
        assert_eq!(g.ladder.max(), FreqMhz(1980));
        assert_eq!(g.nominal_mhz, FreqMhz(1980));

        assert_eq!(paper_devices().len(), 3);
    }

    #[test]
    fn mem_ladders_contain_documented_defaults() {
        // Table I's memory clocks are real ladder states: the driver boots
        // into (and resets to) the documented default on every device.
        for spec in paper_devices() {
            assert!(
                spec.mem_ladder.contains(spec.mem_default()),
                "{}: default mem clock {} not on the memory ladder",
                spec.name,
                spec.mem_freq_mhz
            );
            assert_eq!(spec.mem_ladder.max(), spec.mem_default());
            assert!(
                spec.mem_ladder.len() >= 3,
                "{}: mem ladder too small",
                spec.name
            );
        }
    }

    #[test]
    fn mem_transitions_slower_than_core_baseline() {
        // DRAM retraining dominates: the memory domain's median switch must
        // not undercut the core domain's fast path on the same device.
        let spec = rtx_quadro_6000();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut xs: Vec<f64> = (0..60)
            .map(|_| {
                spec.mem_transition
                    .sample(FreqMhz(810), FreqMhz(7001), &spec.mem_ladder, &mut rng)
                    .settle_duration()
                    .as_millis_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            median > 20.0,
            "GDDR6 retrain median {median:.1} ms too fast"
        );
    }

    #[test]
    fn no_power_cap_at_max_frequency() {
        // The paper sweeps the full ladder; the nominal TDP must admit the
        // top frequency or the tool would skip every pair involving it.
        for spec in paper_devices() {
            let cap = spec.power.power_cap(&spec.ladder, spec.thermal.tdp_w);
            assert_eq!(
                cap,
                Some(spec.ladder.max()),
                "{} power-caps below max",
                spec.name
            );
        }
    }

    #[test]
    fn no_thermal_throttle_at_steady_max() {
        // Steady-state busy temperature at max clock stays below the
        // throttle threshold (front-row GPUs, per the paper's setup).
        for spec in paper_devices() {
            let p = spec.power.busy_power(spec.ladder.max().as_f64());
            let t_ss = spec.thermal.steady_state_c(p);
            assert!(
                t_ss < spec.thermal.throttle_temp_c,
                "{}: steady {t_ss:.1} C >= throttle",
                spec.name
            );
        }
    }

    #[test]
    fn a100_latency_scale_matches_table2() {
        let spec = a100_sxm4();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut up_max: f64 = 0.0;
        let mut all_max: f64 = 0.0;
        let mut min: f64 = f64::INFINITY;
        for _ in 0..400 {
            let s = spec
                .transition
                .sample(FreqMhz(705), FreqMhz(1200), &spec.ladder, &mut rng)
                .settle_duration()
                .as_millis_f64();
            up_max = up_max.max(s);
            all_max = all_max.max(s);
            let d = spec
                .transition
                .sample(FreqMhz(1200), FreqMhz(705), &spec.ladder, &mut rng)
                .settle_duration()
                .as_millis_f64();
            min = min.min(d);
            all_max = all_max.max(d);
        }
        assert!(all_max < 35.0, "A100 worst case {all_max:.1} ms too large");
        assert!(min > 2.0 && min < 8.0, "A100 best case {min:.2} ms off");
        assert!(up_max > 10.0, "A100 increasing transitions too fast");
    }

    #[test]
    fn gh200_slow_columns_and_fast_baseline() {
        let spec = gh200();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Baseline pair: the bulk of samples well under 100 ms (rare ~440 ms
        // spikes are legitimate and get filtered by DBSCAN downstream, so
        // assert on the 95th percentile rather than the max).
        let mut base: Vec<f64> = (0..200)
            .map(|_| {
                spec.transition
                    .sample(FreqMhz(705), FreqMhz(1500), &spec.ladder, &mut rng)
                    .settle_duration()
                    .as_millis_f64()
            })
            .collect();
        base.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = base[190];
        assert!(p95 < 60.0, "GH200 baseline p95 {p95:.1} ms");
        // Slow column 1260: slow samples must appear.
        let slow_hits = (0..200)
            .filter(|_| {
                spec.transition
                    .sample(FreqMhz(1095), FreqMhz(1260), &spec.ladder, &mut rng)
                    .settle_duration()
                    .as_millis_f64()
                    > 50.0
            })
            .count();
        assert!(
            slow_hits > 30,
            "GH200 1260-column slow path too rare: {slow_hits}"
        );
    }

    #[test]
    fn quadro_column_regimes() {
        let spec = rtx_quadro_6000();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // 930/990 targets: ~238 ms regime.
        let m930: f64 = (0..50)
            .map(|_| {
                spec.transition
                    .sample(FreqMhz(1440), FreqMhz(930), &spec.ladder, &mut rng)
                    .settle_duration()
                    .as_millis_f64()
            })
            .sum::<f64>()
            / 50.0;
        assert!(m930 > 180.0, "930-column mean {m930:.1} ms too low");
        // Column structure: for a fixed target, different inits land in the
        // same latency regime. Compare *medians*: the model deliberately
        // gives ~30 % of pairs a secondary minority cluster (Sec. VII-B)
        // and rare spikes, which shift a 30-sample mean but not the median
        // of the majority regime.
        let regime = |init: u32, target: u32, rng: &mut ChaCha8Rng| -> f64 {
            let mut xs: Vec<f64> = (0..30)
                .map(|_| {
                    spec.transition
                        .sample(FreqMhz(init), FreqMhz(target), &spec.ladder, rng)
                        .settle_duration()
                        .as_millis_f64()
                })
                .collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs[xs.len() / 2]
        };
        for &t in &[750u32, 1170, 1440, 1650] {
            let a = regime(375, t, &mut rng);
            let b = regime(2085, t, &mut rng);
            let ratio = a.max(b) / a.min(b);
            assert!(
                ratio < 2.0,
                "target {t}: init changes regime ({a:.1} vs {b:.1})"
            );
        }
    }

    #[test]
    fn registry_lookup_matches_free_functions() {
        let reg = DeviceRegistry::builtin();
        assert_eq!(reg.names(), vec!["quadro", "a100", "gh200"]);
        assert_eq!(reg.get("a100").unwrap().name, a100_sxm4().name);
        assert_eq!(reg.get("gh200").unwrap().name, gh200().name);
        assert_eq!(reg.get("quadro").unwrap().name, rtx_quadro_6000().name);
        // Aliases and case-insensitivity.
        assert_eq!(reg.get("A100-SXM4").unwrap().name, a100_sxm4().name);
        assert_eq!(reg.get("Grace-Hopper").unwrap().name, gh200().name);
        assert!(reg.get("h100").is_none());
        // Per-unit variants mirror the CLI's historical behaviour: unit 0 is
        // the nominal device, others the perturbed units.
        assert_eq!(reg.get_unit("a100", 0).unwrap().name, a100_sxm4().name);
        assert_eq!(
            reg.get_unit("a100", 2).unwrap().name,
            a100_sxm4_unit(2).name
        );
        // Single-unit families ignore the index.
        assert_eq!(reg.get_unit("gh200", 3).unwrap().name, gh200().name);
        assert_eq!(reg.find("a100").unwrap().units(), 4);
    }

    #[test]
    fn registry_register_replaces_by_name() {
        let mut reg = DeviceRegistry::builtin();
        reg.register(DeviceEntry::new("a100", "custom override", |_| gh200()));
        assert_eq!(reg.entries().len(), 3);
        assert_eq!(reg.get("a100").unwrap().name, gh200().name);
        reg.register(DeviceEntry::new("h100", "new family", |_| gh200()));
        assert_eq!(reg.entries().len(), 4);
        assert!(reg.get("h100").is_some());
    }

    #[test]
    fn paper_devices_come_from_the_registry() {
        let names: Vec<String> = paper_devices().into_iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec![
                "NVIDIA Quadro RTX 6000",
                "NVIDIA A100-SXM4-40GB",
                "NVIDIA GH200 (Grace Hopper)"
            ]
        );
    }

    #[test]
    fn a100_units_differ_but_mildly() {
        let u0 = a100_sxm4_unit(0);
        let u2 = a100_sxm4_unit(2);
        let mean = |spec: &DeviceSpec, seed: u64| -> f64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..300)
                .map(|_| {
                    spec.transition
                        .sample(FreqMhz(705), FreqMhz(1200), &spec.ladder, &mut rng)
                        .settle_duration()
                        .as_millis_f64()
                })
                .sum::<f64>()
                / 300.0
        };
        let m0 = mean(&u0, 9);
        let m2 = mean(&u2, 9);
        let rel = (m0 - m2).abs() / m0;
        assert!(rel > 0.005, "units indistinguishable");
        assert!(rel < 0.15, "units too different: {rel}");
    }
}
