//! The platform abstraction: what the methodology needs from an accelerator.
//!
//! Phases 1–3, the probe and the RSE controller are
//! defined over *any* accelerator exposing NVML-style control and CUDA-style
//! execution (Secs. V–VI make no simulator assumptions). The [`Platform`]
//! trait captures exactly that contract — clock access, frequency control,
//! kernel launch/collect, timer synchronisation and thermal/power polling —
//! so every phase function is generic over the backend.
//!
//! [`SimPlatform`] is the first implementor: one simulated GPU wired up
//! behind the NVML and CUDA façades, sharing one virtual clock. It
//! additionally implements the optional [`GroundTruth`] capability (the
//! device records the exact moment each transition settled), which is what
//! makes closed-loop validation possible — a real-hardware backend cannot
//! offer it, and everything downstream treats it as optional.
//!
//! [`PlatformFactory`] abstracts platform *construction*: the campaign
//! driver creates a fresh platform per frequency pair (seeded from the
//! pair) so pairs can run in parallel with bitwise-reproducible results.

use std::sync::Arc;

use latest_clock_sync::{synchronize, SyncConfig, SyncResult, TimestampProbe};
use latest_cuda_sim::{CudaContext, TimerData};
use latest_gpu_sim::devices::DeviceSpec;
use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::transition::TransitionGroundTruth;
use latest_gpu_sim::{ClockDomain, GpuDevice, KernelConfig, KernelId, ThrottleReasons};
use latest_nvml_sim::{Nvml, NvmlDevice};
use latest_sim_clock::{SharedClock, SimDuration, SimTime};
use parking_lot::Mutex;

use crate::error::CoreResult;

/// The accelerator contract the LATEST methodology runs against.
///
/// A platform is "the machine": one driver control handle and one execution
/// context sharing a physical device and a host clock. The methodology only
/// ever talks to this trait; backends decide what sits behind it (a
/// simulated GPU here, NVML + CUDA on real hardware).
pub trait Platform: Send {
    // --- clock access ---

    /// Current host time.
    fn now(&self) -> SimTime;

    /// Host-side sleep (`usleep`): the tool sleeps through the delay period
    /// and thermal backoffs.
    fn sleep(&mut self, d: SimDuration);

    // --- frequency control (NVML-style) ---

    /// Lock the SM clock to `target` (`nvmlDeviceSetGpuLockedClocks` with
    /// `min == max`). Returns the ladder-snapped frequency. The call blocks
    /// briefly on the host; the device applies the change asynchronously.
    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz>;

    /// Release the lock and return to the nominal clock.
    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz>;

    /// The instantaneous SM clock (`nvmlDeviceGetClockInfo`).
    fn current_clock(&mut self) -> FreqMhz;

    /// The device's supported frequency ladder.
    fn supported_clocks(&self) -> Vec<FreqMhz>;

    // --- kernel launch / collect (CUDA-style) ---

    /// Asynchronously launch the timing microbenchmark kernel.
    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId>;

    /// Block until every queued kernel finishes; returns the completion time.
    fn synchronize(&mut self) -> SimTime;

    /// Copy a finished kernel's per-SM iteration records to the host.
    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData>;

    // --- timer synchronisation ---

    /// Run an IEEE 1588 host↔device timer synchronisation.
    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult;

    // --- thermal / power polling ---

    /// The current throttle-reason bitmask
    /// (`nvmlDeviceGetCurrentClocksThrottleReasons`).
    fn throttle_reasons(&mut self) -> ThrottleReasons;

    /// The GPU temperature in °C (`nvmlDeviceGetTemperature`).
    fn temperature_c(&mut self) -> f64;

    // --- metadata ---

    /// Human-readable device name.
    fn device_name(&self) -> String;

    // --- capability discovery ---

    /// The closed-loop validation capability, when the backend offers it.
    ///
    /// Only backends that *know* the true transition times (the simulator)
    /// return `Some`; the methodology itself never requires it, and every
    /// ground-truth assertion downstream is gated on this returning `Some`.
    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        None
    }

    /// The memory-clock control capability, when the backend offers it.
    ///
    /// Not every accelerator (or driver) exposes locked memory clocks;
    /// campaigns that sweep the memory dimension require `Some`, core-only
    /// campaigns never call this.
    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        None
    }
}

/// Optional capability: NVML-style memory (DRAM) clock control.
///
/// The second frequency domain. Mirrors the core-clock surface of
/// [`Platform`] one-for-one (`nvmlDeviceSetMemoryLockedClocks` /
/// `nvmlDeviceGetClockInfo(NVML_CLOCK_MEM)`); capability-gated because real
/// parts differ in whether the driver exposes it at all.
pub trait MemoryClocks {
    /// Lock the memory clock to `target`. Returns the ladder-snapped
    /// frequency; blocks briefly on the host while the device applies the
    /// change asynchronously.
    fn set_locked_mem_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz>;

    /// Release the memory lock and return to the default memory clock.
    fn reset_locked_mem_clocks(&mut self) -> CoreResult<FreqMhz>;

    /// The instantaneous memory clock.
    fn current_mem_clock(&mut self) -> FreqMhz;

    /// The device's supported memory-clock ladder.
    fn supported_mem_clocks(&self) -> Vec<FreqMhz>;

    /// The default (unlocked) memory clock.
    fn default_mem_clock(&self) -> FreqMhz;
}

/// Fetch the [`MemoryClocks`] capability or fail with
/// [`CoreError::MemoryClocksUnsupported`](crate::error::CoreError) — the
/// single gate every memory-sweeping phase goes through.
pub fn require_memory_clocks<P: Platform + ?Sized>(
    platform: &mut P,
) -> CoreResult<&mut dyn MemoryClocks> {
    platform
        .as_memory_clocks()
        .ok_or(crate::error::CoreError::MemoryClocksUnsupported)
}

/// Optional capability: the platform records ground-truth transitions.
///
/// Implemented by the simulator only — real hardware cannot know the true
/// switching latency (that is why the paper needs a methodology at all).
///
/// Each [`ClockDomain`] keeps its own ledger: core requests never show up
/// in the memory ledger, nor the other way round.
pub trait GroundTruth {
    /// All ground-truth transitions of `domain` recorded so far, in
    /// request order.
    fn transitions(&self, domain: ClockDomain) -> Vec<TransitionGroundTruth>;

    /// The most recent ground-truth transition of `domain`.
    fn last_transition(&self, domain: ClockDomain) -> Option<TransitionGroundTruth>;
}

/// Builds fresh [`Platform`] instances for campaign workers.
///
/// The campaign schedules work at pair granularity and gives every pair its
/// own platform seeded from `(campaign seed, pair)`; this trait is how it
/// asks the backend for one.
pub trait PlatformFactory: Send + Sync {
    /// The platform type this factory builds.
    type Platform: Platform;

    /// Create a platform seeded with `seed`.
    fn create(&self, seed: u64) -> CoreResult<Self::Platform>;

    /// Name of the device the platforms will run on.
    fn device_name(&self) -> String;
}

/// One simulated machine: clock + device + NVML handle + CUDA context.
pub struct SimPlatform {
    /// The shared virtual clock.
    pub clock: SharedClock,
    /// NVML device handle.
    pub nvml: NvmlDevice,
    /// CUDA context on the same device.
    pub cuda: CudaContext,
    device: Arc<Mutex<GpuDevice>>,
}

impl SimPlatform {
    /// Build a platform over a single device.
    pub fn new(spec: DeviceSpec, seed: u64) -> CoreResult<SimPlatform> {
        let (nvml_lib, clock) = Nvml::with_devices(vec![spec], seed);
        let nvml = nvml_lib.device(0)?;
        let device = nvml_lib.raw_device(0)?;
        let cuda = CudaContext::new(clock.clone(), device.clone(), seed ^ 0xCAFE);
        Ok(SimPlatform {
            clock,
            nvml,
            cuda,
            device,
        })
    }

    /// The device's spec.
    pub fn spec(&self) -> DeviceSpec {
        self.device.lock().spec().clone()
    }
}

impl Platform for SimPlatform {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn sleep(&mut self, d: SimDuration) {
        self.cuda.usleep(d);
    }

    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        Ok(self.nvml.set_gpu_locked_clocks(target)?)
    }

    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz> {
        Ok(self.nvml.reset_gpu_locked_clocks()?)
    }

    fn current_clock(&mut self) -> FreqMhz {
        self.nvml.clock_info()
    }

    fn supported_clocks(&self) -> Vec<FreqMhz> {
        self.nvml.supported_graphics_clocks()
    }

    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId> {
        Ok(self.cuda.launch_benchmark(config)?)
    }

    fn synchronize(&mut self) -> SimTime {
        self.cuda.synchronize()
    }

    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData> {
        Ok(self.cuda.copy_records(id)?)
    }

    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult {
        let mut probe = CudaProbe {
            cuda: &mut self.cuda,
        };
        synchronize(&mut probe, config)
    }

    fn throttle_reasons(&mut self) -> ThrottleReasons {
        self.nvml.throttle_reasons()
    }

    fn temperature_c(&mut self) -> f64 {
        self.nvml.temperature_c()
    }

    fn device_name(&self) -> String {
        self.nvml.name()
    }

    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        Some(self)
    }

    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        Some(self)
    }
}

impl GroundTruth for SimPlatform {
    fn transitions(&self, domain: ClockDomain) -> Vec<TransitionGroundTruth> {
        self.device.lock().transitions(domain).to_vec()
    }

    fn last_transition(&self, domain: ClockDomain) -> Option<TransitionGroundTruth> {
        self.device.lock().transitions(domain).last().copied()
    }
}

impl MemoryClocks for SimPlatform {
    fn set_locked_mem_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        Ok(self.nvml.set_memory_locked_clocks(target)?)
    }

    fn reset_locked_mem_clocks(&mut self) -> CoreResult<FreqMhz> {
        Ok(self.nvml.reset_memory_locked_clocks()?)
    }

    fn current_mem_clock(&mut self) -> FreqMhz {
        self.nvml.mem_clock_info()
    }

    fn supported_mem_clocks(&self) -> Vec<FreqMhz> {
        self.nvml.supported_memory_clocks()
    }

    fn default_mem_clock(&self) -> FreqMhz {
        self.device.lock().spec().mem_default()
    }
}

/// Factory for [`SimPlatform`]s over one device spec.
#[derive(Clone, Debug)]
pub struct SimPlatformFactory {
    spec: DeviceSpec,
}

impl SimPlatformFactory {
    /// Build platforms for `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        SimPlatformFactory { spec }
    }

    /// The device spec platforms are built from.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
}

impl PlatformFactory for SimPlatformFactory {
    type Platform = SimPlatform;

    fn create(&self, seed: u64) -> CoreResult<SimPlatform> {
        SimPlatform::new(self.spec.clone(), seed)
    }

    fn device_name(&self) -> String {
        self.spec.name.clone()
    }
}

/// Adapter: the CUDA globaltimer round trip as a PTP probe.
struct CudaProbe<'a> {
    cuda: &'a mut CudaContext,
}

impl TimestampProbe for CudaProbe<'_> {
    fn exchange(
        &mut self,
    ) -> (
        latest_sim_clock::SimTime,
        latest_sim_clock::SimTime,
        latest_sim_clock::SimTime,
    ) {
        self.cuda.read_globaltimer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;

    #[test]
    fn platform_wires_one_device() {
        let p = SimPlatform::new(devices::a100_sxm4(), 7).unwrap();
        assert!(p.nvml.name().contains("A100"));
        assert_eq!(p.cuda.clock().now(), p.clock.now());
        assert!(p.transitions(ClockDomain::Core).is_empty());
    }

    #[test]
    fn timer_sync_recovers_device_offset() {
        let spec = devices::a100_sxm4();
        let true_offset = spec.timer_offset_ns;
        let mut p = SimPlatform::new(spec, 11).unwrap();
        let sync = p.synchronize_timers(&SyncConfig::default());
        // Drift over the first few ms is negligible; the estimate must land
        // within the reported uncertainty of the configured skew.
        let err = (sync.offset_ns - true_offset).unsigned_abs();
        assert!(
            err <= sync.uncertainty_ns + 2_000,
            "sync err {err} ns vs bound {}",
            sync.uncertainty_ns
        );
    }

    #[test]
    fn ground_truth_appears_after_clock_request() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 3).unwrap();
        p.nvml
            .set_gpu_locked_clocks(latest_gpu_sim::freq::FreqMhz(705))
            .unwrap();
        assert_eq!(p.transitions(ClockDomain::Core).len(), 1);
        assert_eq!(p.last_transition(ClockDomain::Core).unwrap().to.0, 705);
    }

    /// The methodology's contract: every phase sees the simulator only
    /// through the trait, and the ground-truth capability is discoverable.
    #[test]
    fn trait_surface_matches_facades() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 5).unwrap();
        assert!(Platform::device_name(&p).contains("A100"));
        assert_eq!(p.supported_clocks().len(), 81);
        let snapped = p.set_locked_clocks(FreqMhz(1001)).unwrap();
        assert_eq!(snapped, FreqMhz(1005));
        let gt = p.as_ground_truth().expect("simulator offers ground truth");
        assert_eq!(
            gt.last_transition(ClockDomain::Core).unwrap().to,
            FreqMhz(1005)
        );
        let t0 = Platform::now(&p);
        p.sleep(SimDuration::from_micros(250));
        assert_eq!(
            Platform::now(&p).saturating_since(t0),
            SimDuration::from_micros(250)
        );
    }

    /// The memory domain is a discoverable capability, mirrored onto its
    /// own ground-truth ledger — core transitions never leak into it.
    #[test]
    fn memory_clock_capability_is_discoverable_and_separate() {
        let mut p = SimPlatform::new(devices::a100_sxm4(), 13).unwrap();
        let default_mem = {
            let mc = p.as_memory_clocks().expect("simulator offers mem clocks");
            assert_eq!(mc.supported_mem_clocks().len(), 3);
            mc.default_mem_clock()
        };
        assert_eq!(default_mem, FreqMhz(1215));
        {
            let mc = p.as_memory_clocks().unwrap();
            let snapped = mc.set_locked_mem_clocks(FreqMhz(820)).unwrap();
            assert_eq!(snapped, FreqMhz(810));
        }
        p.set_locked_clocks(FreqMhz(705)).unwrap();
        let gt = p.as_ground_truth().unwrap();
        assert_eq!(gt.transitions(ClockDomain::Core).len(), 1);
        assert_eq!(gt.transitions(ClockDomain::Memory).len(), 1);
        assert_eq!(
            gt.last_transition(ClockDomain::Core).unwrap().to,
            FreqMhz(705)
        );
        assert_eq!(
            gt.last_transition(ClockDomain::Memory).unwrap().to,
            FreqMhz(810)
        );
    }

    #[test]
    fn factory_builds_seeded_platforms() {
        let factory = SimPlatformFactory::new(devices::gh200());
        assert!(factory.device_name().contains("GH200"));
        let mut a = factory.create(9).unwrap();
        let mut b = factory.create(9).unwrap();
        // Same seed, same behaviour: the first control call lands at the
        // same virtual instant on both instances.
        a.set_locked_clocks(FreqMhz(1980)).unwrap();
        b.set_locked_clocks(FreqMhz(1980)).unwrap();
        let (ga, gb) = (
            a.last_transition(ClockDomain::Core).unwrap(),
            b.last_transition(ClockDomain::Core).unwrap(),
        );
        assert_eq!(ga.device_arrival, gb.device_arrival);
    }
}
