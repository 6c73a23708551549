//! A deterministic virtual-time GPU simulator — the hardware substrate for
//! the LATEST methodology reproduction.
//!
//! The paper measures switching latency on physical NVIDIA GPUs through the
//! only observable the methodology needs: *per-SM iteration timestamps whose
//! durations reflect the instantaneous SM frequency*. This crate produces
//! exactly that observable, from first principles:
//!
//! * [`freq`] — frequency ladders (the discrete clock steps NVML exposes)
//!   and the two [`ClockDomain`]s, core (SM) and memory (DRAM);
//! * [`trajectory`] — the device's piecewise-constant frequency-vs-time
//!   curve, with exact integration of `work_cycles = ∫ f(t) dt` to turn a
//!   per-iteration cycle budget into start/end timestamps;
//! * [`transition`] — DVFS transition models: when a locked-clocks request
//!   reaches the device, how long it pends, and through which intermediate
//!   steps the clock ramps (the paper's "adaptation period"). Mixture models
//!   reproduce multi-cluster latency distributions;
//! * [`thermal`] — an RC thermal model plus a leakage-free power model,
//!   giving thermal/power throttling with queryable reasons (Sec. VI:
//!   LATEST checks throttle reasons every five passes);
//! * [`sm`] — the streaming-multiprocessor engine: iterations of a
//!   compute-bound microbenchmark with per-iteration noise and timer
//!   quantisation;
//! * [`device`] — [`device::GpuDevice`]: locked-clock requests (one path
//!   for both clock domains, each with its own plan, ledger and randomness
//!   stream), kernel launches, lazy in-order materialisation at
//!   synchronisation points, ground-truth transition records for
//!   closed-loop validation;
//! * [`devices`] — calibrated descriptors for the paper's three GPUs
//!   (RTX Quadro 6000, A100-SXM4, GH200) and per-unit manufacturing
//!   variation for the four-A100 experiment;
//! * [`noise`] — seeded samplers (normal, log-normal, mixtures) built on
//!   `rand` so every run is reproducible bit-for-bit.

pub mod device;
pub mod devices;
pub mod freq;
pub mod noise;
pub mod sm;
pub mod thermal;
pub mod trajectory;
pub mod transition;

pub use device::{GpuDevice, KernelConfig, KernelId, LaunchError, ThrottleReasons};
pub use devices::{DeviceSpec, GpuArchitecture};
pub use freq::{ClockDomain, FreqLadder, FreqMhz};
pub use trajectory::FreqTrajectory;
pub use transition::{TransitionGroundTruth, TransitionModel, TransitionShape};
