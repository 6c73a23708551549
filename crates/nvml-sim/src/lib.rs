//! An NVML-shaped driver façade over the simulated GPU.
//!
//! The LATEST tool controls the GPU exclusively through NVML: device
//! enumeration, `nvmlDeviceSetGpuLockedClocks`, clock queries and the
//! throttle-reason bitmask. This crate reproduces those call-site semantics
//! on top of `latest-gpu-sim`, including the part the paper is explicitly
//! about (Fig. 2): *the frequency-change call has a different target device
//! from its originator* — the host-side call blocks briefly and returns
//! before the device has applied anything; the request then travels the bus
//! and is processed asynchronously.
//!
//! The memory clock (`nvmlDeviceSetMemoryLockedClocks`) is a second
//! [`ClockDomain`] behind the same façade: both set-clocks calls are thin
//! wrappers over one private call path, which validates the target against
//! the domain's ladder and then pays the same driver timing.
//!
//! Timing model per control call (all sampled from the device's
//! [`DriverProfile`](latest_gpu_sim::devices::DriverProfile), seeded, in
//! this order: blocking, travel, stall check):
//!
//! ```text
//! host:   |--- call blocking (~100 µs) ---| (returns)
//! bus:        |--- request travel (~10-60 µs) ---|
//! device:                                        |-> transition model ...
//! ```
//!
//! A small probability of a *driver stall* (lock contention with monitoring
//! daemons etc.) adds tens of milliseconds to the travel time; these stalls
//! are the dominant source of the outlier measurements the paper's DBSCAN
//! stage removes.

pub mod error;

use std::sync::Arc;

use latest_gpu_sim::devices::DeviceSpec;
use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::noise::LogNormal;
use latest_gpu_sim::{ClockDomain, GpuDevice, ThrottleReasons};
use latest_sim_clock::{SharedClock, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub use error::{NvmlError, NvmlResult};

/// A record of one driver control call, for Fig. 2-style timelines.
#[derive(Clone, Copy, Debug)]
pub struct DriverCallTrace {
    /// What the call was.
    pub kind: DriverCallKind,
    /// Host time at call entry.
    pub call: SimTime,
    /// Host time at call return.
    pub ret: SimTime,
    /// When the request reached the device (clock-setting calls only).
    pub device_arrival: Option<SimTime>,
}

/// Kinds of traced driver calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverCallKind {
    /// `nvmlDeviceSetGpuLockedClocks`.
    SetLockedClocks,
    /// `nvmlDeviceSetMemoryLockedClocks`.
    SetLockedMemClocks,
    /// `nvmlDeviceGetClockInfo`.
    GetClockInfo,
    /// `nvmlDeviceGetClockInfo(NVML_CLOCK_MEM)`.
    GetMemClockInfo,
    /// `nvmlDeviceGetCurrentClocksThrottleReasons`.
    GetThrottleReasons,
    /// `nvmlDeviceGetTemperature`.
    GetTemperature,
}

/// The NVML library handle: owns the device table.
pub struct Nvml {
    clock: SharedClock,
    devices: Vec<Arc<Mutex<GpuDevice>>>,
}

impl Nvml {
    /// `nvmlInit` + device discovery: build the library over already-created
    /// devices sharing `clock`.
    pub fn init(clock: SharedClock, devices: Vec<Arc<Mutex<GpuDevice>>>) -> Self {
        Nvml { clock, devices }
    }

    /// Convenience: create `specs.len()` devices from specs on a fresh clock.
    /// Device `i` is seeded with `base_seed + i`.
    pub fn with_devices(specs: Vec<DeviceSpec>, base_seed: u64) -> (Self, SharedClock) {
        let clock = SharedClock::new();
        let devices = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                Arc::new(Mutex::new(GpuDevice::new(
                    spec,
                    base_seed.wrapping_add(i as u64),
                    clock.clone(),
                )))
            })
            .collect();
        (Nvml::init(clock.clone(), devices), clock)
    }

    /// `nvmlDeviceGetCount`.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// `nvmlDeviceGetHandleByIndex`.
    pub fn device(&self, index: usize) -> NvmlResult<NvmlDevice> {
        let device = self
            .devices
            .get(index)
            .ok_or(NvmlError::InvalidDeviceIndex {
                index,
                count: self.devices.len(),
            })?
            .clone();
        let seed = {
            let d = device.lock();
            d.spec().name.len() as u64 ^ (index as u64) << 8
        };
        Ok(NvmlDevice {
            clock: self.clock.clone(),
            device,
            index,
            rng: ChaCha8Rng::seed_from_u64(0xD215EED ^ seed),
            trace: Vec::new(),
        })
    }

    /// Raw access to a device for composing façades over the same silicon.
    pub fn raw_device(&self, index: usize) -> NvmlResult<Arc<Mutex<GpuDevice>>> {
        self.devices
            .get(index)
            .cloned()
            .ok_or(NvmlError::InvalidDeviceIndex {
                index,
                count: self.devices.len(),
            })
    }
}

/// A device handle (`nvmlDevice_t`).
pub struct NvmlDevice {
    clock: SharedClock,
    device: Arc<Mutex<GpuDevice>>,
    index: usize,
    rng: ChaCha8Rng,
    trace: Vec<DriverCallTrace>,
}

impl NvmlDevice {
    /// Device index within the library.
    pub fn index(&self) -> usize {
        self.index
    }

    /// `nvmlDeviceGetName`.
    pub fn name(&self) -> String {
        self.device.lock().spec().name.clone()
    }

    /// `nvmlSystemGetDriverVersion` (reported per device here).
    pub fn driver_version(&self) -> &'static str {
        self.device.lock().spec().driver_version
    }

    /// The device's frequency ladder
    /// (`nvmlDeviceGetSupportedGraphicsClocks`).
    pub fn supported_graphics_clocks(&self) -> Vec<FreqMhz> {
        self.device.lock().spec().ladder.steps().to_vec()
    }

    /// Memory clock at the default memory P-state.
    pub fn memory_clock_mhz(&self) -> u32 {
        self.device.lock().spec().mem_freq_mhz
    }

    /// The device's memory-clock ladder
    /// (`nvmlDeviceGetSupportedMemoryClocks`).
    pub fn supported_memory_clocks(&self) -> Vec<FreqMhz> {
        self.device.lock().spec().mem_ladder.steps().to_vec()
    }

    /// Number of streaming multiprocessors.
    pub fn sm_count(&self) -> u32 {
        self.device.lock().spec().sm_count
    }

    /// `nvmlDeviceSetGpuLockedClocks(min = max = target)` — the call LATEST
    /// issues for every frequency change. Returns the ladder-snapped target;
    /// rejects clocks outside the ladder range, mirroring
    /// `NVML_ERROR_INVALID_ARGUMENT`.
    pub fn set_gpu_locked_clocks(&mut self, target: FreqMhz) -> NvmlResult<FreqMhz> {
        self.set_locked_clocks(ClockDomain::Core, target)
    }

    /// `nvmlDeviceResetGpuLockedClocks`: return to the nominal clock.
    pub fn reset_gpu_locked_clocks(&mut self) -> NvmlResult<FreqMhz> {
        let nominal = self.device.lock().spec().nominal_mhz;
        self.set_gpu_locked_clocks(nominal)
    }

    /// `nvmlDeviceSetMemoryLockedClocks(min = max = target)`: the same
    /// call path as [`NvmlDevice::set_gpu_locked_clocks`], on the memory
    /// ladder. Returns the ladder-snapped target.
    pub fn set_memory_locked_clocks(&mut self, target: FreqMhz) -> NvmlResult<FreqMhz> {
        self.set_locked_clocks(ClockDomain::Memory, target)
    }

    /// `nvmlDeviceResetMemoryLockedClocks`: return to the default memory
    /// P-state.
    pub fn reset_memory_locked_clocks(&mut self) -> NvmlResult<FreqMhz> {
        let default = self.device.lock().spec().mem_default();
        self.set_memory_locked_clocks(default)
    }

    /// One locked-clocks call in `domain`: the host blocks for the sampled
    /// call time while the request travels the bus (plus a rare driver
    /// stall) and reaches the device asynchronously. The draws come in a
    /// fixed order — blocking, travel, stall check — on the handle's one
    /// stream, whichever the domain.
    fn set_locked_clocks(&mut self, domain: ClockDomain, target: FreqMhz) -> NvmlResult<FreqMhz> {
        let (min, max, profile) = {
            let d = self.device.lock();
            let ladder = d.spec().ladder_of(domain);
            (ladder.min(), ladder.max(), d.spec().driver.clone())
        };
        if target < min || target > max {
            return Err(NvmlError::InvalidClock {
                requested: target.0,
                min: min.0,
                max: max.0,
            });
        }

        let call = self.clock.now();
        let blocking_us =
            LogNormal::from_median(profile.call_blocking_us, profile.call_blocking_sigma_ln)
                .sample(&mut self.rng);
        let mut travel_us =
            LogNormal::from_median(profile.request_travel_us, profile.request_travel_sigma_ln)
                .sample(&mut self.rng);
        if self.rng.gen::<f64>() < profile.stall_prob {
            travel_us += profile.stall.sample_ms(&mut self.rng) * 1e3;
        }
        let arrival = call + SimDuration::from_nanos((travel_us * 1e3).round() as u64);
        let snapped = self
            .device
            .lock()
            .apply_locked_clocks(domain, call, arrival, target);
        let ret = self
            .clock
            .advance(SimDuration::from_nanos((blocking_us * 1e3).round() as u64));
        self.trace.push(DriverCallTrace {
            kind: match domain {
                ClockDomain::Core => DriverCallKind::SetLockedClocks,
                ClockDomain::Memory => DriverCallKind::SetLockedMemClocks,
            },
            call,
            ret,
            device_arrival: Some(arrival),
        });
        Ok(snapped)
    }

    /// `nvmlDeviceGetClockInfo(NVML_CLOCK_MEM)`.
    pub fn mem_clock_info(&mut self) -> FreqMhz {
        self.query(DriverCallKind::GetMemClockInfo, |d, now| {
            d.current_mem_clock(now)
        })
    }

    /// `nvmlDeviceGetClockInfo(NVML_CLOCK_SM)`.
    pub fn clock_info(&mut self) -> FreqMhz {
        self.query(DriverCallKind::GetClockInfo, |d, now| {
            d.current_sm_clock(now)
        })
    }

    /// `nvmlDeviceGetCurrentClocksThrottleReasons`.
    pub fn throttle_reasons(&mut self) -> ThrottleReasons {
        self.query(DriverCallKind::GetThrottleReasons, |d, now| {
            d.throttle_reasons(now)
        })
    }

    /// `nvmlDeviceGetTemperature(NVML_TEMPERATURE_GPU)`.
    pub fn temperature_c(&mut self) -> f64 {
        self.query(DriverCallKind::GetTemperature, |d, now| d.temperature(now))
    }

    /// Drain the driver-call trace (for Fig. 2-style timelines).
    pub fn take_trace(&mut self) -> Vec<DriverCallTrace> {
        std::mem::take(&mut self.trace)
    }

    /// The underlying simulated device (closed-loop tests read ground truth
    /// through this; a real NVML backend has no equivalent).
    pub fn raw(&self) -> Arc<Mutex<GpuDevice>> {
        self.device.clone()
    }

    /// One query call: read the device at call entry, then pay the query
    /// cost (cheap but not free: ~20-60 us) and trace the call.
    fn query<T>(
        &mut self,
        kind: DriverCallKind,
        read: impl FnOnce(&mut GpuDevice, SimTime) -> T,
    ) -> T {
        let call = self.clock.now();
        let value = read(&mut self.device.lock(), call);
        let us: f64 = self.rng.gen_range(20.0..60.0);
        let ret = self
            .clock
            .advance(SimDuration::from_nanos((us * 1e3) as u64));
        self.trace.push(DriverCallTrace {
            kind,
            call,
            ret,
            device_arrival: None,
        });
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;

    fn nvml_one_a100() -> (Nvml, SharedClock) {
        Nvml::with_devices(vec![devices::a100_sxm4()], 42)
    }

    #[test]
    fn enumeration_and_metadata() {
        let (nvml, _) = Nvml::with_devices(devices::paper_devices(), 1);
        assert_eq!(nvml.device_count(), 3);
        let a100 = nvml.device(1).unwrap();
        assert!(a100.name().contains("A100"));
        assert_eq!(a100.sm_count(), 108);
        assert_eq!(a100.memory_clock_mhz(), 1215);
        assert_eq!(a100.driver_version(), "550.54.15");
        assert_eq!(a100.supported_graphics_clocks().len(), 81);
        assert!(matches!(
            nvml.device(3),
            Err(NvmlError::InvalidDeviceIndex { index: 3, count: 3 })
        ));
    }

    #[test]
    fn set_locked_clocks_blocks_host_and_snaps() {
        let (nvml, clock) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        let before = clock.now();
        let snapped = dev.set_gpu_locked_clocks(FreqMhz(1001)).unwrap();
        let after = clock.now();
        // 1001 snaps to 1005 (ladder 210 + 15k).
        assert_eq!(snapped, FreqMhz(1005));
        let blocked = after.saturating_since(before);
        assert!(
            blocked >= SimDuration::from_micros(20) && blocked <= SimDuration::from_millis(5),
            "blocking {blocked}"
        );
    }

    #[test]
    fn request_applies_asynchronously_after_return() {
        let (nvml, _clock) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        dev.set_gpu_locked_clocks(FreqMhz(705)).unwrap();
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 1);
        let t = &trace[0];
        assert_eq!(t.kind, DriverCallKind::SetLockedClocks);
        let arrival = t.device_arrival.unwrap();
        assert!(arrival > t.call, "arrival must be after the call");
        // Ground truth: the device recorded the transition with our call time.
        let raw = dev.raw();
        let gt = raw
            .lock()
            .transitions(ClockDomain::Core)
            .last()
            .cloned()
            .unwrap();
        assert_eq!(gt.host_call, t.call);
        assert_eq!(gt.device_arrival, arrival);
        assert_eq!(gt.to, FreqMhz(705));
        assert!(gt.settled > arrival);
    }

    #[test]
    fn invalid_clock_rejected() {
        let (nvml, _) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        assert!(matches!(
            dev.set_gpu_locked_clocks(FreqMhz(100)),
            Err(NvmlError::InvalidClock {
                requested: 100,
                min: 210,
                max: 1410
            })
        ));
        assert!(dev.set_gpu_locked_clocks(FreqMhz(5000)).is_err());
    }

    #[test]
    fn queries_advance_time_and_trace() {
        let (nvml, clock) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        let t0 = clock.now();
        let _ = dev.clock_info();
        let _ = dev.throttle_reasons();
        let temp = dev.temperature_c();
        assert!(clock.now() > t0);
        assert!(temp > 0.0 && temp < 100.0);
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 3);
        assert!(dev.take_trace().is_empty());
    }

    #[test]
    fn reset_returns_to_nominal() {
        let (nvml, clock) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        dev.set_gpu_locked_clocks(FreqMhz(300)).unwrap();
        let snapped = dev.reset_gpu_locked_clocks().unwrap();
        assert_eq!(snapped, FreqMhz(1095));
        // After the transition settles, the requested plan is nominal.
        clock.advance(SimDuration::from_secs(1));
        let raw = dev.raw();
        let gt = raw
            .lock()
            .transitions(ClockDomain::Core)
            .last()
            .cloned()
            .unwrap();
        assert_eq!(gt.to, FreqMhz(1095));
    }

    #[test]
    fn stall_probability_produces_late_arrivals() {
        // Crank the stall probability and watch arrivals spread out.
        let mut spec = devices::a100_sxm4();
        spec.driver.stall_prob = 1.0;
        let (nvml, _) = Nvml::with_devices(vec![spec], 7);
        let mut dev = nvml.device(0).unwrap();
        dev.set_gpu_locked_clocks(FreqMhz(705)).unwrap();
        let t = dev.take_trace().pop().unwrap();
        let travel = t.device_arrival.unwrap().saturating_since(t.call);
        assert!(
            travel >= SimDuration::from_millis(2),
            "stalled travel only {travel}"
        );
    }

    #[test]
    fn memory_locked_clocks_roundtrip() {
        let (nvml, clock) = nvml_one_a100();
        let mut dev = nvml.device(0).unwrap();
        assert_eq!(dev.supported_memory_clocks().len(), 3);
        // Out-of-ladder memory clocks are rejected like core clocks.
        assert!(matches!(
            dev.set_memory_locked_clocks(FreqMhz(100)),
            Err(NvmlError::InvalidClock {
                requested: 100,
                min: 810,
                max: 1215
            })
        ));
        let snapped = dev.set_memory_locked_clocks(FreqMhz(820)).unwrap();
        assert_eq!(snapped, FreqMhz(810));
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].kind, DriverCallKind::SetLockedMemClocks);
        assert!(trace[0].device_arrival.unwrap() > trace[0].call);
        // Ground truth lands in the memory-domain ledger, not the core one.
        let raw = dev.raw();
        {
            let d = raw.lock();
            assert!(d.transitions(ClockDomain::Core).is_empty());
            let gt = d.transitions(ClockDomain::Memory).last().cloned().unwrap();
            assert_eq!(gt.to, FreqMhz(810));
        }
        // After settling, the reported memory clock is the locked state and
        // reset returns to the documented default.
        clock.advance(SimDuration::from_secs(1));
        assert_eq!(dev.mem_clock_info(), FreqMhz(810));
        assert_eq!(dev.reset_memory_locked_clocks().unwrap(), FreqMhz(1215));
    }

    #[test]
    fn multi_gpu_independent_units() {
        let specs: Vec<_> = (0..4).map(devices::a100_sxm4_unit).collect();
        let (nvml, _) = Nvml::with_devices(specs, 99);
        assert_eq!(nvml.device_count(), 4);
        for i in 0..4 {
            let mut dev = nvml.device(i).unwrap();
            assert_eq!(
                dev.set_gpu_locked_clocks(FreqMhz(1095)).unwrap(),
                FreqMhz(1095)
            );
        }
    }
}
