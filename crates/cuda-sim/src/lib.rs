//! A CUDA-runtime-shaped host façade over the simulated GPU.
//!
//! LATEST's device-side needs are small but precise: launch the
//! microbenchmark kernel asynchronously, sleep while it runs, synchronise,
//! and copy per-SM timer records back to the host. It additionally needs a
//! way to read the device `%globaltimer` for IEEE 1588 synchronisation.
//! This crate models exactly those operations with realistic host-side
//! costs:
//!
//! * [`CudaContext::launch_benchmark`] — ~10 µs asynchronous launch
//!   overhead, single in-order stream semantics;
//! * [`CudaContext::synchronize`] — blocks (advances virtual time) until all
//!   queued kernels complete;
//! * [`CudaContext::copy_records`] — D2H copy paid at PCIe/NVLink-class
//!   bandwidth, proportional to the record volume;
//! * [`CudaContext::read_globaltimer`] — a tiny timestamp kernel round trip
//!   returning `(host_before, device_stamp, host_after)`, the exchange
//!   primitive the PTP synchroniser filters over.

use std::sync::Arc;

use latest_gpu_sim::sm::IterRecord;
use latest_gpu_sim::{GpuDevice, KernelConfig, KernelId, LaunchError};
use latest_sim_clock::{SharedClock, SimDuration, SimTime};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Errors from the CUDA façade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CudaError {
    /// Launch rejected by the device.
    Launch(LaunchError),
    /// The kernel id is unknown, unfinished, or its records were already
    /// consumed.
    NoRecords(KernelId),
}

impl std::fmt::Display for CudaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CudaError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            CudaError::NoRecords(id) => write!(f, "no records available for kernel {id:?}"),
        }
    }
}

impl std::error::Error for CudaError {}

/// Per-SM timer records copied back to the host.
pub type TimerData = Vec<Vec<IterRecord>>;

/// Host-side CUDA context bound to one device.
pub struct CudaContext {
    clock: SharedClock,
    device: Arc<Mutex<GpuDevice>>,
    rng: ChaCha8Rng,
    /// Effective D2H bandwidth for record copies (bytes/s).
    d2h_bandwidth: f64,
    /// Fixed launch overhead distribution bounds (µs).
    launch_overhead_us: (f64, f64),
}

impl CudaContext {
    /// Bind a context to a device sharing `clock`.
    pub fn new(clock: SharedClock, device: Arc<Mutex<GpuDevice>>, seed: u64) -> Self {
        CudaContext {
            clock,
            device,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xC0DA),
            d2h_bandwidth: 20e9, // ~PCIe gen4 x16 effective
            launch_overhead_us: (8.0, 18.0),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Host sleep (`usleep`): advances virtual time. LATEST sleeps between
    /// kernel launch and the frequency-change call to accumulate
    /// initial-frequency iterations.
    pub fn usleep(&self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Asynchronously launch the benchmark kernel (returns after the launch
    /// overhead, *not* after completion).
    pub fn launch_benchmark(&mut self, config: KernelConfig) -> Result<KernelId, CudaError> {
        let overhead_us = self
            .rng
            .gen_range(self.launch_overhead_us.0..self.launch_overhead_us.1);
        let enqueue = self
            .clock
            .advance(SimDuration::from_nanos((overhead_us * 1e3) as u64));
        self.device
            .lock()
            .enqueue_kernel(enqueue, config)
            .map_err(CudaError::Launch)
    }

    /// `cudaDeviceSynchronize`: block until every queued kernel finishes.
    /// Returns the completion time.
    pub fn synchronize(&mut self) -> SimTime {
        let now = self.clock.now();
        let completion = self.device.lock().synchronize(now);
        // Synchronisation itself has a small host-side exit cost.
        let exit_us: f64 = self.rng.gen_range(3.0..10.0);
        self.clock.advance_to(completion);
        self.clock
            .advance(SimDuration::from_nanos((exit_us * 1e3) as u64))
    }

    /// Copy a finished kernel's records to the host (D2H memcpy), paying
    /// bandwidth-proportional time.
    pub fn copy_records(&mut self, id: KernelId) -> Result<TimerData, CudaError> {
        let records = self
            .device
            .lock()
            .take_records(id)
            .ok_or(CudaError::NoRecords(id))?;
        let bytes: usize = records
            .iter()
            .map(|sm| sm.len() * std::mem::size_of::<IterRecord>())
            .sum();
        let secs = bytes as f64 / self.d2h_bandwidth + 5e-6; // + fixed setup
        self.clock.advance(SimDuration::from_secs_f64(secs));
        Ok(records)
    }

    /// One `%globaltimer` read round trip: launches a single-timestamp
    /// kernel and returns `(host_before, device_stamp, host_after)`.
    ///
    /// The device stamp is taken somewhere inside the (asymmetric) round
    /// trip; the PTP layer bounds the offset error by the round-trip width.
    pub fn read_globaltimer(&mut self) -> (SimTime, SimTime, SimTime) {
        let host_before = self.clock.now();
        // Outbound: launch latency until the kernel's timestamp instruction
        // retires on the device.
        let out_us: f64 = self.rng.gen_range(6.0..20.0);
        let stamp_global = self
            .clock
            .advance(SimDuration::from_nanos((out_us * 1e3) as u64));
        let device_stamp = self.device.lock().timer().project(stamp_global);
        // Return path: completion signal + host wakeup.
        let back_us: f64 = self.rng.gen_range(4.0..15.0);
        let host_after = self
            .clock
            .advance(SimDuration::from_nanos((back_us * 1e3) as u64));
        (host_before, device_stamp, host_after)
    }

    /// The underlying device.
    pub fn raw(&self) -> Arc<Mutex<GpuDevice>> {
        self.device.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::{ClockDomain, FreqMhz};
    use latest_gpu_sim::sm::WorkloadParams;
    use latest_gpu_sim::transition::FixedTransition;

    fn make_ctx() -> (CudaContext, SharedClock) {
        let clock = SharedClock::new();
        let mut spec = devices::a100_sxm4();
        spec.wakeup_ramp = SimDuration::ZERO;
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(5),
        });
        let device = Arc::new(Mutex::new(GpuDevice::new(spec, 3, clock.clone())));
        (CudaContext::new(clock.clone(), device, 3), clock)
    }

    fn small_kernel() -> KernelConfig {
        KernelConfig {
            iters_per_sm: 200,
            workload: WorkloadParams::default_micro(),
            simulated_sms: Some(2),
        }
    }

    #[test]
    fn launch_is_asynchronous() {
        let (mut ctx, clock) = make_ctx();
        let t0 = clock.now();
        let _id = ctx.launch_benchmark(small_kernel()).unwrap();
        let launch_cost = clock.now().saturating_since(t0);
        // Launch returns in tens of microseconds, far less than the ~20 ms
        // the kernel itself needs.
        assert!(
            launch_cost < SimDuration::from_micros(100),
            "launch {launch_cost}"
        );
    }

    #[test]
    fn synchronize_advances_to_completion() {
        let (mut ctx, clock) = make_ctx();
        {
            let dev = ctx.raw();
            let mut d = dev.lock();
            d.apply_locked_clocks(
                ClockDomain::Core,
                SimTime::EPOCH,
                SimTime::EPOCH,
                FreqMhz(1005),
            );
        }
        clock.advance(SimDuration::from_millis(100));
        let id = ctx.launch_benchmark(small_kernel()).unwrap();
        let done = ctx.synchronize();
        // 200 iterations of ~100 us at ~1 GHz is ~20 ms.
        let elapsed = done.saturating_since(SimTime::from_millis(100));
        assert!(
            elapsed >= SimDuration::from_millis(15) && elapsed <= SimDuration::from_millis(40),
            "elapsed {elapsed}"
        );
        let records = ctx.copy_records(id).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].len(), 200);
    }

    #[test]
    fn copy_records_pays_bandwidth_and_consumes() {
        let (mut ctx, clock) = make_ctx();
        let id = ctx.launch_benchmark(small_kernel()).unwrap();
        ctx.synchronize();
        let before = clock.now();
        let _ = ctx.copy_records(id).unwrap();
        assert!(clock.now() > before);
        assert_eq!(ctx.copy_records(id), Err(CudaError::NoRecords(id)));
    }

    #[test]
    fn usleep_advances_exactly() {
        let (ctx, clock) = make_ctx();
        let t0 = clock.now();
        ctx.usleep(SimDuration::from_micros(1500));
        assert_eq!(
            clock.now().saturating_since(t0),
            SimDuration::from_micros(1500)
        );
    }

    #[test]
    fn globaltimer_roundtrip_brackets_device_stamp() {
        let (mut ctx, _clock) = make_ctx();
        for _ in 0..20 {
            let (before, stamp, after) = ctx.read_globaltimer();
            assert!(after > before);
            // The device stamp, mapped back to the global timeline, must lie
            // within the round trip.
            let spec_offset = 7_340_000i64; // a100 spec timer offset
            let approx_global = stamp.offset_by(-spec_offset);
            assert!(
                approx_global >= before && approx_global <= after,
                "stamp outside round trip"
            );
            // Quantised to the 1 us globaltimer resolution.
            assert_eq!(stamp.as_nanos() % 1_000, 0);
        }
    }

    #[test]
    fn empty_kernel_launch_fails() {
        let (mut ctx, _) = make_ctx();
        let cfg = KernelConfig {
            iters_per_sm: 0,
            workload: WorkloadParams::default_micro(),
            simulated_sms: Some(1),
        };
        assert!(matches!(
            ctx.launch_benchmark(cfg),
            Err(CudaError::Launch(LaunchError::EmptyKernel))
        ));
    }
}
