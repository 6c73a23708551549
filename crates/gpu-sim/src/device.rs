//! The simulated GPU device: locked-clock requests, kernel execution,
//! throttling, and ground-truth bookkeeping.
//!
//! # Execution model
//!
//! The device is driven by the host-side façades (`latest-nvml-sim`,
//! `latest-cuda-sim`) in strict call order on the virtual timeline:
//!
//! * [`GpuDevice::apply_locked_clocks`] — a locked-clocks request for one
//!   [`ClockDomain`] (core or memory) *arrives* at the device (the façade
//!   has already paid bus/driver latency). The device samples that
//!   domain's [`TransitionModel`], extends the domain's *requested*
//!   frequency trajectory with the pending/ramp/target breakpoints, and
//!   records a [`TransitionGroundTruth`] in the domain's ledger. Both
//!   domains take this one path; only the ladder, the model and the
//!   randomness stream differ.
//! * [`GpuDevice::enqueue_kernel`] — queues a kernel (single in-order
//!   stream, as LATEST uses).
//! * [`GpuDevice::synchronize`] — *materialises* every queued kernel:
//!   computes its start (after the previous kernel), overlays wake-up ramp,
//!   power cap and thermal throttling onto the requested trajectory, then
//!   integrates every simulated SM to produce iteration records.
//!
//! Materialisation at synchronisation points is exact for the LATEST call
//! pattern (launch → sleep → set-clocks → synchronize): every frequency
//! event affecting a kernel is known by the time the host waits for it.

use latest_sim_clock::{ClockView, SharedClock, SimDuration, SimTime};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::devices::DeviceSpec;
use crate::freq::{ClockDomain, FreqLadder, FreqMhz};
use crate::sm::{self, IterRecord, MemView, WorkloadParams};
use crate::thermal::ThermalState;
use crate::trajectory::FreqTrajectory;
use crate::transition::{TransitionGroundTruth, TransitionModel};

/// Identifier of an enqueued kernel, unique per device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelId(pub u64);

/// Launch-time errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel would request zero iterations.
    EmptyKernel,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::EmptyKernel => write!(f, "kernel must run at least one iteration"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Configuration of one benchmark kernel launch.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Iterations each SM executes.
    pub iters_per_sm: u32,
    /// The microbenchmark workload.
    pub workload: WorkloadParams,
    /// How many SM record streams to simulate and keep. `None` simulates
    /// every SM (hardware-faithful); campaigns reduce this because all SMs
    /// share one clock domain and their records are statistically
    /// interchangeable (documented fidelity trade-off).
    pub simulated_sms: Option<u32>,
}

/// Active clock-throttle reasons, mirroring the NVML reason bitmask LATEST
/// polls every five passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThrottleReasons {
    /// Board power limit clamps the requested clock (`SW_POWER_CAP`).
    pub sw_power_cap: bool,
    /// Junction temperature clamps the clock (`HW_THERMAL_SLOWDOWN`).
    pub hw_thermal_slowdown: bool,
    /// Nothing running; clocks dropped to idle (`GPU_IDLE`).
    pub gpu_idle: bool,
}

impl ThrottleReasons {
    /// Whether any throttle reason is active (idle excluded: LATEST's
    /// workload keeps the device busy, so idle is informational).
    pub fn any_throttling(&self) -> bool {
        self.sw_power_cap || self.hw_thermal_slowdown
    }

    /// NVML-style bitmask (values match `nvmlClocksThrottleReason*`).
    pub fn bits(&self) -> u64 {
        let mut b = 0u64;
        if self.gpu_idle {
            b |= 0x1; // nvmlClocksThrottleReasonGpuIdle
        }
        if self.sw_power_cap {
            b |= 0x4; // nvmlClocksThrottleReasonSwPowerCap
        }
        if self.hw_thermal_slowdown {
            b |= 0x40; // nvmlClocksThrottleReasonHwThermalSlowdown
        }
        b
    }
}

/// Per-kernel state.
#[derive(Debug)]
struct KernelState {
    id: KernelId,
    config: KernelConfig,
    enqueue: SimTime,
    /// Filled at materialisation.
    end: Option<SimTime>,
    records: Option<Vec<Vec<IterRecord>>>,
}

/// One clock domain's locked-clock plan.
struct DomainPlan {
    /// Requested frequency over time, including the pending/ramp segments
    /// of in-flight transitions.
    requested: FreqTrajectory,
    /// Sampled transition ground truths, in request order.
    ledger: Vec<TransitionGroundTruth>,
    /// The domain's own transition-sampling stream: requests in one domain
    /// never consume the other's, so core-only campaigns stay bit-identical.
    rng: ChaCha8Rng,
    /// Bus jitter never reorders requests on the device queue.
    last_arrival: SimTime,
}

impl DomainPlan {
    fn new(flat_mhz: f64, seed: u64) -> Self {
        DomainPlan {
            requested: FreqTrajectory::flat(flat_mhz),
            ledger: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            last_arrival: SimTime::EPOCH,
        }
    }

    /// Extend the plan with one request's pending/ramp/target breakpoints
    /// and record its ground truth. Returns the ladder-snapped target.
    fn request(
        &mut self,
        ladder: &FreqLadder,
        model: &dyn TransitionModel,
        host_call: SimTime,
        arrival: SimTime,
        target: FreqMhz,
    ) -> FreqMhz {
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;

        let target = ladder.snap(target);
        let from_f = self.requested.freq_at(arrival);
        let from = ladder.snap(FreqMhz(from_f.round() as u32));

        // A new request overrides the rest of any in-flight transition.
        self.requested.truncate_after(arrival);

        let shape = model.sample(from, target, ladder, &mut self.rng);
        let ramp_start = arrival + shape.pending;
        let mut t = ramp_start;
        for &(freq, dur) in &shape.ramp {
            self.requested.push(t, freq);
            t += dur;
        }
        self.requested.push(t, target.as_f64());
        self.ledger.push(TransitionGroundTruth {
            from,
            to: target,
            host_call,
            device_arrival: arrival,
            ramp_start,
            settled: t,
        });
        target
    }
}

/// The simulated GPU.
pub struct GpuDevice {
    spec: DeviceSpec,
    timer: ClockView,
    /// The core-clock plan, starting flat at the nominal clock.
    core: DomainPlan,
    /// The memory-clock plan, flat at the default memory P-state until the
    /// first locked-memory-clocks request.
    mem: DomainPlan,
    thermal: ThermalState,
    /// Device is busy (kernel running) until this instant.
    busy_until: SimTime,
    /// True while the thermal governor holds the clock at the cap.
    thermally_throttled: bool,
    kernels: Vec<KernelState>,
    next_kernel: u64,
    seed: u64,
}

impl GpuDevice {
    /// Create a device on the given shared clock. `seed` fixes every
    /// stochastic component of this unit.
    pub fn new(spec: DeviceSpec, seed: u64, clock: SharedClock) -> Self {
        let timer = ClockView::skewed(
            clock,
            spec.timer_offset_ns,
            spec.timer_drift_ppm,
            spec.timer_resolution,
        );
        let core = DomainPlan::new(spec.nominal_mhz.as_f64(), seed ^ 0xD3_5E_55_AA);
        let mem = DomainPlan::new(spec.mem_freq_mhz as f64, seed ^ 0x11E1_0C1C);
        let thermal = ThermalState::equilibrium(&spec.thermal, SimTime::EPOCH);
        GpuDevice {
            spec,
            timer,
            core,
            mem,
            thermal,
            busy_until: SimTime::EPOCH,
            thermally_throttled: false,
            kernels: Vec::new(),
            next_kernel: 0,
            seed,
        }
    }

    /// The device descriptor.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device's globaltimer view.
    pub fn timer(&self) -> &ClockView {
        &self.timer
    }

    fn domain_plan(&self, domain: ClockDomain) -> &DomainPlan {
        match domain {
            ClockDomain::Core => &self.core,
            ClockDomain::Memory => &self.mem,
        }
    }

    /// A locked-clocks request for `domain` arrives. `host_call` is when
    /// the CPU invoked the driver; `arrival` is when the request reached
    /// the device. The domain's transition model shapes the switch on the
    /// domain's own randomness stream. Returns the ladder-snapped target
    /// actually applied.
    pub fn apply_locked_clocks(
        &mut self,
        domain: ClockDomain,
        host_call: SimTime,
        arrival: SimTime,
        target: FreqMhz,
    ) -> FreqMhz {
        let (plan, model) = match domain {
            ClockDomain::Core => (&mut self.core, &self.spec.transition),
            ClockDomain::Memory => (&mut self.mem, &self.spec.mem_transition),
        };
        plan.request(
            self.spec.ladder_of(domain),
            model.as_ref(),
            host_call,
            arrival,
            target,
        )
    }

    /// Ground-truth transitions of `domain` recorded so far, in request
    /// order (closed-loop validation).
    pub fn transitions(&self, domain: ClockDomain) -> &[TransitionGroundTruth] {
        &self.domain_plan(domain).ledger
    }

    /// The effective memory clock at `now` as a driver query would report
    /// (the memory domain has no idle drop: DRAM keeps its P-state).
    pub fn current_mem_clock(&self, now: SimTime) -> FreqMhz {
        let f = self.mem.requested.freq_at(now);
        self.spec.mem_ladder.snap(FreqMhz(f.round() as u32))
    }

    /// Queue a kernel; it will start once the previous kernel (if any)
    /// finishes, or at `enqueue`, whichever is later.
    pub fn enqueue_kernel(
        &mut self,
        enqueue: SimTime,
        config: KernelConfig,
    ) -> Result<KernelId, LaunchError> {
        if config.iters_per_sm == 0 {
            return Err(LaunchError::EmptyKernel);
        }
        let id = KernelId(self.next_kernel);
        self.next_kernel += 1;
        self.kernels.push(KernelState {
            id,
            config,
            enqueue,
            end: None,
            records: None,
        });
        Ok(id)
    }

    /// Wait for all queued kernels: materialise them in order and return the
    /// completion time (>= `now`).
    pub fn synchronize(&mut self, now: SimTime) -> SimTime {
        // Split borrows: take the kernel list, materialise, put back.
        let mut kernels = std::mem::take(&mut self.kernels);
        let mut completion = now;
        for k in kernels.iter_mut().filter(|k| k.end.is_none()) {
            let (records, end) = self.materialize(k.enqueue, &k.config);
            k.records = Some(records);
            k.end = Some(end);
            completion = completion.max(end);
        }
        self.kernels = kernels;
        completion
    }

    /// Fetch (and consume) the records of a finished kernel. `None` if the
    /// kernel is unknown, unfinished, or already taken.
    pub fn take_records(&mut self, id: KernelId) -> Option<Vec<Vec<IterRecord>>> {
        let k = self.kernels.iter_mut().find(|k| k.id == id)?;
        let recs = k.records.take();
        // Garbage-collect fully consumed kernels.
        self.kernels
            .retain(|k| k.records.is_some() || k.end.is_none());
        recs
    }

    /// Number of SM record streams a config will produce on this device.
    pub fn effective_sms(&self, config: &KernelConfig) -> u32 {
        config
            .simulated_sms
            .map(|n| n.min(self.spec.sm_count))
            .unwrap_or(self.spec.sm_count)
            .max(1)
    }

    /// Active throttle reasons at `now` (lazily advances the thermal state
    /// through any idle gap).
    pub fn throttle_reasons(&mut self, now: SimTime) -> ThrottleReasons {
        let idle = now > self.busy_until;
        if idle {
            let from = self.busy_until.max(self.thermal.at);
            if now > from {
                let mut th = self.thermal;
                th.at = th.at.max(from);
                th.advance(&self.spec.thermal, now, self.spec.power.idle_power());
                self.thermal = th;
                if self.thermal.temp_c < self.spec.thermal.release_temp_c {
                    self.thermally_throttled = false;
                }
            }
        }
        let requested_now = self.core.requested.freq_at(now);
        let cap = self
            .spec
            .power
            .power_cap(&self.spec.ladder, self.spec.thermal.tdp_w);
        let sw_power_cap = match cap {
            Some(c) => requested_now > c.as_f64() + 0.5,
            None => true,
        };
        ThrottleReasons {
            sw_power_cap,
            hw_thermal_slowdown: self.thermally_throttled
                || self.thermal.temp_c >= self.spec.thermal.throttle_temp_c,
            gpu_idle: idle,
        }
    }

    /// Junction temperature at `now` (advances idle cooling lazily).
    pub fn temperature(&mut self, now: SimTime) -> f64 {
        let _ = self.throttle_reasons(now);
        self.thermal.temp_c
    }

    /// The effective SM clock at `now` as a driver clock query would report:
    /// idle clock when nothing runs, otherwise the requested clock clamped
    /// by the power cap.
    pub fn current_sm_clock(&self, now: SimTime) -> FreqMhz {
        if now > self.busy_until && self.busy_until != SimTime::EPOCH {
            return self.spec.idle_mhz;
        }
        let f = self.core.requested.freq_at(now);
        let capped = match self
            .spec
            .power
            .power_cap(&self.spec.ladder, self.spec.thermal.tdp_w)
        {
            Some(c) => f.min(c.as_f64()),
            None => self.spec.ladder.min().as_f64(),
        };
        self.spec.ladder.snap(FreqMhz(capped.round() as u32))
    }

    // ----- materialisation internals -------------------------------------

    /// Materialise one kernel: build its effective trajectory and integrate
    /// every simulated SM. Returns (per-SM records, kernel end time).
    fn materialize(
        &mut self,
        enqueue: SimTime,
        config: &KernelConfig,
    ) -> (Vec<Vec<IterRecord>>, SimTime) {
        let start = enqueue.max(self.busy_until);

        // Cool through the idle gap before this kernel.
        let idle_from = self.thermal.at;
        if start > idle_from {
            self.thermal
                .advance(&self.spec.thermal, start, self.spec.power.idle_power());
            if self.thermal.temp_c < self.spec.thermal.release_temp_c {
                self.thermally_throttled = false;
            }
        }

        let was_idle_long = start.saturating_since(self.busy_until)
            >= self.spec.wakeup_idle_threshold
            || self.busy_until == SimTime::EPOCH;

        // The memory plan only matters to workloads with a DRAM stall; the
        // pure-arithmetic path never consults it (bit-for-bit the
        // single-domain engine).
        let mem_ref = self.spec.mem_freq_mhz as f64;
        let mem_draft = if config.workload.mem_stall_ns > 0.0 {
            Some(self.mem.requested.clone())
        } else {
            None
        };

        // Pass 1: effective trajectory without thermal events.
        let draft = self.effective_draft(start, was_idle_long);
        let est_end = sm::estimate_end(
            &draft,
            start,
            config.iters_per_sm,
            &config.workload,
            mem_draft.as_ref().map(|traj| MemView {
                traj,
                reference_mhz: mem_ref,
            }),
        );

        // Pass 2: insert thermal throttle events over a padded window, then
        // re-estimate (throttling only lengthens the run; two passes bound
        // the error well below an iteration).
        let pad = est_end.saturating_since(start).mul_f64(0.25) + SimDuration::from_millis(5);
        let (eff, toggles, final_state, throttled_at_end) =
            self.overlay_thermal(&draft, start, est_end + pad);
        // Thermal coupling into the memory domain: while the governor holds
        // the core at its thermal cap, the DRAM drops to its lowest P-state.
        let mem_eff = mem_draft.as_ref().map(|d| {
            throttle_capped(
                d,
                self.thermally_throttled,
                &toggles,
                self.spec.mem_ladder.min().as_f64(),
            )
        });
        let mem_view = mem_eff.as_ref().map(|traj| MemView {
            traj,
            reference_mhz: mem_ref,
        });
        // When no thermal event changed either trajectory, the second pass
        // would run on the first pass's inputs and repeat it.
        let est_end = if eff.segments() == draft.segments()
            && mem_eff.as_ref().map(FreqTrajectory::segments)
                == mem_draft.as_ref().map(FreqTrajectory::segments)
        {
            est_end
        } else {
            sm::estimate_end(&eff, start, config.iters_per_sm, &config.workload, mem_view)
        };

        // Integrate every simulated SM with its own noise stream.
        let n_sms = self.effective_sms(config);
        let kernel_salt = self.next_kernel.wrapping_mul(0x9E37_79B9);
        let mut records = Vec::with_capacity(n_sms as usize);
        let mut end = est_end;
        for smi in 0..n_sms {
            let mut sm_rng = ChaCha8Rng::seed_from_u64(
                self.seed ^ kernel_salt ^ ((smi as u64) << 40) ^ 0x5A5A_1234,
            );
            let (recs, sm_end) = sm::run_sm(
                &eff,
                start,
                config.iters_per_sm,
                &config.workload,
                &self.timer,
                &mut sm_rng,
                mem_view,
            );
            end = end.max(sm_end);
            records.push(recs);
        }

        self.thermal = final_state;
        self.thermal.at = self.thermal.at.max(end);
        self.thermally_throttled = throttled_at_end;
        self.busy_until = end;
        (records, end)
    }

    /// Requested trajectory clamped by the power cap, with a wake-up ramp if
    /// the device was idle.
    fn effective_draft(&self, start: SimTime, was_idle_long: bool) -> FreqTrajectory {
        let cap = self
            .spec
            .power
            .power_cap(&self.spec.ladder, self.spec.thermal.tdp_w)
            .map(|f| f.as_f64())
            .unwrap_or(self.spec.ladder.min().as_f64());

        // The clamped locked-clock plan as a step function of time.
        let plan_breaks: Vec<(SimTime, f64)> = self
            .core
            .requested
            .segments()
            .iter()
            .map(|s| (s.start, s.freq_mhz.min(cap).max(1.0)))
            .collect();
        let plan_at = |t: SimTime| -> f64 {
            let idx = plan_breaks.partition_point(|&(bt, _)| bt <= t);
            plan_breaks[idx.saturating_sub(1)].1
        };

        // The wake-up governor as a step function: a fraction of the plan,
        // climbing from the idle clock in `steps` equal stages.
        let ramp_active = was_idle_long && self.spec.wakeup_ramp > SimDuration::ZERO;
        let steps = 6u64;
        let step_d = self.spec.wakeup_ramp / steps;
        let ramp_end = start + self.spec.wakeup_ramp;
        let idle_f = self.spec.idle_mhz.as_f64();
        let eff_at = |t: SimTime| -> f64 {
            let plan = plan_at(t);
            if !ramp_active || step_d == SimDuration::ZERO || t >= ramp_end {
                return plan;
            }
            let stage = (t.saturating_since(start).as_nanos() / step_d.as_nanos()).min(steps - 1);
            let a = (stage + 1) as f64 / steps as f64;
            (idle_f + (plan - idle_f) * a).min(plan).max(1.0)
        };

        // Evaluate at the union of plan breakpoints and ramp stage
        // boundaries — between those instants both step functions are flat.
        let mut points: Vec<SimTime> = plan_breaks
            .iter()
            .map(|&(bt, _)| bt)
            .filter(|&bt| bt > start)
            .collect();
        if ramp_active && step_d > SimDuration::ZERO {
            points.extend((1..=steps).map(|i| start + step_d * i));
        }
        points.sort();
        points.dedup();

        let mut eff = FreqTrajectory::flat(eff_at(start));
        for t in points {
            eff.push(t, eff_at(t));
        }
        eff
    }

    /// Walk `draft` over [start, horizon] inserting thermal throttle/release
    /// events. Returns the effective trajectory, the throttle toggle events
    /// (time, new state) for cross-domain coupling, the thermal state at the
    /// horizon, and whether the governor holds the cap at the horizon.
    fn overlay_thermal(
        &self,
        draft: &FreqTrajectory,
        start: SimTime,
        horizon: SimTime,
    ) -> (FreqTrajectory, Vec<(SimTime, bool)>, ThermalState, bool) {
        let params = &self.spec.thermal;
        let cap_f = params.throttle_cap_mhz;
        let mut state = self.thermal;
        state.at = start;
        let mut throttled = self.thermally_throttled;

        let mut out = FreqTrajectory::flat(effective_freq(draft.freq_at(start), throttled, cap_f));
        let mut toggles: Vec<(SimTime, bool)> = Vec::new();
        let mut t = start;
        let mut events = 0usize;
        const MAX_EVENTS: usize = 64;

        while t < horizon && events < MAX_EVENTS * 2 {
            let raw_f = draft.freq_at(t);
            let cur_f = effective_freq(raw_f, throttled, cap_f);
            let power = self.spec.power.busy_power(cur_f);
            let target_temp = if throttled {
                params.release_temp_c
            } else {
                params.throttle_temp_c
            };
            // Next draft breakpoint after t.
            let next_break = draft
                .segments()
                .iter()
                .map(|s| s.start)
                .find(|&s| s > t)
                .unwrap_or(horizon)
                .min(horizon);
            let crossing = state.time_to_reach(params, target_temp, power);
            match crossing {
                Some(dt) if events < MAX_EVENTS && t + dt < next_break => {
                    let ct = t + dt;
                    state.advance(params, ct, power);
                    throttled = !throttled;
                    events += 1;
                    t = ct;
                    toggles.push((t, throttled));
                    out.push(t, effective_freq(draft.freq_at(t), throttled, cap_f));
                }
                _ => {
                    state.advance(params, next_break, power);
                    t = next_break;
                    if t < horizon {
                        out.push(t, effective_freq(draft.freq_at(t), throttled, cap_f));
                    }
                }
            }
        }
        (out, toggles, state, throttled)
    }
}

/// Apply the thermal governor's hold intervals to the memory plan: while the
/// core is held at its thermal cap, the DRAM drops to `cap` (its lowest
/// P-state). `initial` is the throttle state at the first instant; `toggles`
/// are the state changes from [`GpuDevice::overlay_thermal`].
fn throttle_capped(
    plan: &FreqTrajectory,
    initial: bool,
    toggles: &[(SimTime, bool)],
    cap: f64,
) -> FreqTrajectory {
    let throttled_at = |t: SimTime| -> bool {
        let idx = toggles.partition_point(|&(tt, _)| tt <= t);
        if idx == 0 {
            initial
        } else {
            toggles[idx - 1].1
        }
    };
    let f_at = |t: SimTime| -> f64 {
        let f = plan.freq_at(t);
        if throttled_at(t) {
            f.min(cap).max(1.0)
        } else {
            f
        }
    };
    let mut points: Vec<SimTime> = plan.segments().iter().map(|s| s.start).collect();
    points.extend(toggles.iter().map(|&(t, _)| t));
    points.sort();
    points.dedup();
    let first = points.first().copied().unwrap_or(SimTime::EPOCH);
    let mut out = FreqTrajectory::flat(f_at(first));
    for t in points {
        out.push(t, f_at(t));
    }
    out
}

/// Clock after applying the thermal governor.
fn effective_freq(raw: f64, throttled: bool, cap_mhz: f64) -> f64 {
    if throttled {
        raw.min(cap_mhz).max(1.0)
    } else {
        raw.max(1.0)
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("name", &self.spec.name)
            .field("busy_until", &self.busy_until)
            .field("temp_c", &self.thermal.temp_c)
            .field("transitions", &self.core.ledger.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use crate::transition::FixedTransition;
    use std::sync::Arc;

    fn quiet_workload() -> WorkloadParams {
        WorkloadParams {
            work_cycles: 100_000.0,
            inter_iter_overhead_ns: 0,
            noise_rel_sigma: 0.0,
            spike_prob: 0.0,
            spike_scale: 1.0,
            mem_stall_ns: 0.0,
        }
    }

    /// A test device: exact timer, no wake-up, generous thermals, fixed
    /// 10 ms transitions.
    fn test_device(clock: SharedClock) -> GpuDevice {
        let mut spec = devices::a100_sxm4();
        spec.timer_resolution = SimDuration::from_nanos(1);
        spec.timer_offset_ns = 0;
        spec.timer_drift_ppm = 0.0;
        spec.wakeup_ramp = SimDuration::ZERO;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(10),
        });
        GpuDevice::new(spec, 1, clock)
    }

    #[test]
    fn kernel_produces_frequency_consistent_records() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock.clone());
        // Lock 1000 MHz well before launch (arrival at t=0 settles at 10ms).
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1005),
        );
        // 1005 snaps to a ladder value (210 + 15k); 1005 = 210+795 -> yes.
        let t0 = SimTime::from_millis(50);
        let id = dev
            .enqueue_kernel(
                t0,
                KernelConfig {
                    iters_per_sm: 100,
                    workload: quiet_workload(),
                    simulated_sms: Some(2),
                },
            )
            .unwrap();
        let done = dev.synchronize(t0);
        let recs = dev.take_records(id).unwrap();
        assert_eq!(recs.len(), 2);
        for sm in &recs {
            assert_eq!(sm.len(), 100);
            for r in sm {
                // 100_000 cycles at 1005 MHz = 99502.48 ns
                let d = r.duration().as_nanos();
                assert!((d as f64 - 99_502.5).abs() < 2.0, "duration {d}");
            }
        }
        assert!(done > t0);
    }

    #[test]
    fn mid_kernel_transition_visible_in_records() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock.clone());
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let t0 = SimTime::from_millis(50);
        let id = dev
            .enqueue_kernel(
                t0,
                KernelConfig {
                    iters_per_sm: 3_000,
                    workload: quiet_workload(),
                    simulated_sms: Some(1),
                },
            )
            .unwrap();
        // Request 705 MHz mid-kernel: host calls at +60 ms, arrives +60.05 ms,
        // settles 10 ms later.
        let call = SimTime::from_millis(60);
        let arrival = call + SimDuration::from_micros(50);
        dev.apply_locked_clocks(ClockDomain::Core, call, arrival, FreqMhz(705));
        dev.synchronize(t0);
        let recs = dev.take_records(id).unwrap().remove(0);

        let fast_ns = 100_000.0 / 1.410;
        let slow_ns = 100_000.0 / 0.705;
        let settled = dev.transitions(ClockDomain::Core).last().unwrap().settled;
        for r in &recs {
            let d = r.duration().as_nanos() as f64;
            if r.end < arrival {
                assert!((d - fast_ns).abs() < 2.0, "pre-transition {d}");
            } else if r.start > settled {
                assert!((d - slow_ns).abs() < 2.0, "post-transition {d}");
            }
        }
        // There must be post-transition records at all.
        assert!(recs.iter().any(|r| r.start > settled));
    }

    #[test]
    fn ground_truth_switching_latency_is_request_to_settle() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        let call = SimTime::from_millis(5);
        let arrival = call + SimDuration::from_micros(30);
        dev.apply_locked_clocks(ClockDomain::Core, call, arrival, FreqMhz(705));
        let gt = dev.transitions(ClockDomain::Core).last().unwrap();
        assert_eq!(
            gt.switching_latency(),
            SimDuration::from_micros(30) + SimDuration::from_millis(10)
        );
        assert_eq!(gt.transition_latency(), SimDuration::from_millis(10));
        assert_eq!(gt.to, FreqMhz(705));
    }

    #[test]
    fn override_inflight_transition() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        // Second request arrives 2 ms later, well inside the 10 ms pending
        // window of the first: the first target must never materialise.
        let t2 = SimTime::from_millis(2);
        dev.apply_locked_clocks(ClockDomain::Core, t2, t2, FreqMhz(705));
        let settled = dev.transitions(ClockDomain::Core).last().unwrap().settled;
        assert_eq!(
            dev.core
                .requested
                .freq_at(settled + SimDuration::from_millis(1)),
            705.0
        );
        // At t = 10.5 ms (when the first would have settled) the plan must
        // not be 1410.
        assert_ne!(
            dev.core
                .requested
                .freq_at(SimTime::from_millis(10) + SimDuration::from_micros(500)),
            1410.0
        );
    }

    #[test]
    fn in_order_kernel_queueing() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let cfg = KernelConfig {
            iters_per_sm: 1_000,
            workload: quiet_workload(),
            simulated_sms: Some(1),
        };
        let t0 = SimTime::from_millis(50);
        let a = dev.enqueue_kernel(t0, cfg).unwrap();
        let b = dev.enqueue_kernel(t0, cfg).unwrap();
        dev.synchronize(t0);
        let ra = dev.take_records(a).unwrap().remove(0);
        let rb = dev.take_records(b).unwrap().remove(0);
        assert!(rb.first().unwrap().start >= ra.last().unwrap().end);
    }

    #[test]
    fn take_records_consumes() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        let cfg = KernelConfig {
            iters_per_sm: 10,
            workload: quiet_workload(),
            simulated_sms: Some(1),
        };
        let id = dev.enqueue_kernel(SimTime::EPOCH, cfg).unwrap();
        dev.synchronize(SimTime::EPOCH);
        assert!(dev.take_records(id).is_some());
        assert!(dev.take_records(id).is_none());
        assert!(dev.take_records(KernelId(999)).is_none());
    }

    #[test]
    fn empty_kernel_rejected() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        let cfg = KernelConfig {
            iters_per_sm: 0,
            workload: quiet_workload(),
            simulated_sms: Some(1),
        };
        assert_eq!(
            dev.enqueue_kernel(SimTime::EPOCH, cfg).unwrap_err(),
            LaunchError::EmptyKernel
        );
    }

    #[test]
    fn power_cap_clamps_top_frequency() {
        let clock = SharedClock::new();
        let mut spec = devices::a100_sxm4();
        spec.timer_resolution = SimDuration::from_nanos(1);
        spec.wakeup_ramp = SimDuration::ZERO;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_micros(100),
        });
        spec.thermal.tdp_w = spec.power.busy_power(900.0); // cap near 900 MHz
        let mut dev = GpuDevice::new(spec, 1, clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let reasons = dev.throttle_reasons(SimTime::from_millis(1));
        assert!(reasons.sw_power_cap);
        // Records must reflect the capped clock, not 1410.
        let id = dev
            .enqueue_kernel(
                SimTime::from_millis(10),
                KernelConfig {
                    iters_per_sm: 50,
                    workload: quiet_workload(),
                    simulated_sms: Some(1),
                },
            )
            .unwrap();
        dev.synchronize(SimTime::from_millis(10));
        let recs = dev.take_records(id).unwrap().remove(0);
        let d = recs[10].duration().as_nanos() as f64;
        let implied_mhz = 100_000.0 / d * 1000.0;
        assert!(implied_mhz < 950.0, "implied {implied_mhz} MHz");
    }

    #[test]
    fn thermal_throttle_engages_and_reports() {
        let clock = SharedClock::new();
        let mut spec = devices::a100_sxm4();
        spec.timer_resolution = SimDuration::from_nanos(1);
        spec.wakeup_ramp = SimDuration::ZERO;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_micros(100),
        });
        // Aggressive thermals: tiny tau, low threshold -> throttles quickly.
        spec.thermal.tau_s = 0.02;
        spec.thermal.throttle_temp_c = 50.0;
        spec.thermal.release_temp_c = 45.0;
        spec.thermal.r_th = 0.2;
        spec.thermal.throttle_cap_mhz = 600.0;
        let mut dev = GpuDevice::new(spec, 1, clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let id = dev
            .enqueue_kernel(
                SimTime::from_millis(1),
                KernelConfig {
                    iters_per_sm: 3_000,
                    workload: quiet_workload(),
                    simulated_sms: Some(1),
                },
            )
            .unwrap();
        let done = dev.synchronize(SimTime::from_millis(1));
        let recs = dev.take_records(id).unwrap().remove(0);
        // Some late iterations must run at the 600 MHz cap.
        let slow = recs
            .iter()
            .filter(|r| {
                let implied = 100_000.0 / r.duration().as_nanos() as f64 * 1000.0;
                implied < 650.0
            })
            .count();
        assert!(slow > 0, "no thermally capped iterations observed");
        let reasons = dev.throttle_reasons(done);
        assert!(reasons.hw_thermal_slowdown);
    }

    #[test]
    fn idle_device_reports_idle_clock_and_cools() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let cfg = KernelConfig {
            iters_per_sm: 100,
            workload: quiet_workload(),
            simulated_sms: Some(1),
        };
        let id = dev.enqueue_kernel(SimTime::from_millis(20), cfg).unwrap();
        let done = dev.synchronize(SimTime::from_millis(20));
        let _ = dev.take_records(id);
        let later = done + SimDuration::from_secs(1);
        assert_eq!(dev.current_sm_clock(later), dev.spec().idle_mhz);
        let r = dev.throttle_reasons(later);
        assert!(r.gpu_idle);
        assert!(!r.any_throttling());
    }

    #[test]
    fn mid_kernel_memory_transition_visible_in_records() {
        let clock = SharedClock::new();
        let mut dev = test_device(clock.clone());
        // Fixed 10 ms transitions apply to the core model only; swap the
        // memory model too so the settle instant is deterministic.
        // (test_device leaves the A100 mem model in place — fine: we read
        // the ground truth back rather than assuming the latency.)
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let mut wl = quiet_workload();
        wl.mem_stall_ns = 50_000.0; // 50 us of DRAM stall at 1215 MHz
        let t0 = SimTime::from_millis(50);
        let id = dev
            .enqueue_kernel(
                t0,
                KernelConfig {
                    iters_per_sm: 4_000,
                    workload: wl,
                    simulated_sms: Some(1),
                },
            )
            .unwrap();
        // Halve the DRAM clock mid-kernel.
        let call = SimTime::from_millis(90);
        let arrival = call + SimDuration::from_micros(50);
        let applied = dev.apply_locked_clocks(ClockDomain::Memory, call, arrival, FreqMhz(810));
        assert_eq!(applied, FreqMhz(810));
        dev.synchronize(t0);
        let recs = dev.take_records(id).unwrap().remove(0);

        let work_ns = 100_000.0 / 1.410;
        let fast_ns = work_ns + 50_000.0; // mem at the 1215 reference
        let slow_ns = work_ns + 50_000.0 * 1215.0 / 810.0;
        let settled = dev.transitions(ClockDomain::Memory).last().unwrap().settled;
        for r in &recs {
            let d = r.duration().as_nanos() as f64;
            if r.end < arrival {
                assert!((d - fast_ns).abs() < 3.0, "pre-transition {d}");
            } else if r.start > settled {
                assert!((d - slow_ns).abs() < 3.0, "post-transition {d}");
            }
        }
        assert!(recs.iter().any(|r| r.start > settled));
        // The core-domain ground truth is untouched by memory requests.
        assert_eq!(dev.transitions(ClockDomain::Core).len(), 1);
        assert_eq!(dev.transitions(ClockDomain::Memory).len(), 1);
    }

    #[test]
    fn memory_requests_leave_core_only_records_unchanged() {
        // A memory transition must not perturb a pure-arithmetic kernel:
        // separate RNG stream, separate plan.
        let run = |with_mem: bool| {
            let clock = SharedClock::new();
            let mut dev = test_device(clock);
            dev.apply_locked_clocks(
                ClockDomain::Core,
                SimTime::EPOCH,
                SimTime::EPOCH,
                FreqMhz(1200),
            );
            if with_mem {
                let t = SimTime::from_millis(10);
                dev.apply_locked_clocks(ClockDomain::Memory, t, t, FreqMhz(810));
            }
            let mut wl = quiet_workload();
            wl.noise_rel_sigma = 0.01;
            let cfg = KernelConfig {
                iters_per_sm: 300,
                workload: wl,
                simulated_sms: Some(2),
            };
            let id = dev.enqueue_kernel(SimTime::from_millis(30), cfg).unwrap();
            dev.synchronize(SimTime::from_millis(30));
            dev.take_records(id).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn determinism_same_seed_same_records() {
        let run = || {
            let clock = SharedClock::new();
            let mut dev = test_device(clock);
            dev.apply_locked_clocks(
                ClockDomain::Core,
                SimTime::EPOCH,
                SimTime::EPOCH,
                FreqMhz(1200),
            );
            let mut wl = quiet_workload();
            wl.noise_rel_sigma = 0.01;
            let cfg = KernelConfig {
                iters_per_sm: 500,
                workload: wl,
                simulated_sms: Some(3),
            };
            let id = dev.enqueue_kernel(SimTime::from_millis(30), cfg).unwrap();
            dev.synchronize(SimTime::from_millis(30));
            dev.take_records(id).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn wakeup_ramp_slows_first_iterations() {
        let clock = SharedClock::new();
        let mut spec = devices::a100_sxm4();
        spec.timer_resolution = SimDuration::from_nanos(1);
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_micros(100),
        });
        spec.wakeup_ramp = SimDuration::from_millis(20);
        spec.wakeup_idle_threshold = SimDuration::from_millis(1);
        let mut dev = GpuDevice::new(spec, 1, clock);
        dev.apply_locked_clocks(
            ClockDomain::Core,
            SimTime::EPOCH,
            SimTime::EPOCH,
            FreqMhz(1410),
        );
        let cfg = KernelConfig {
            iters_per_sm: 600,
            workload: quiet_workload(),
            simulated_sms: Some(1),
        };
        let id = dev.enqueue_kernel(SimTime::from_millis(100), cfg).unwrap();
        dev.synchronize(SimTime::from_millis(100));
        let recs = dev.take_records(id).unwrap().remove(0);
        let first = recs.first().unwrap().duration().as_nanos();
        let last = recs.last().unwrap().duration().as_nanos();
        assert!(
            first > last * 2,
            "first iteration ({first} ns) should be much slower than settled ({last} ns)"
        );
        // Settled iterations at the locked clock.
        let settled_ns = 100_000.0 / 1.410;
        assert!((last as f64 - settled_ns).abs() < 3.0);
    }
}
