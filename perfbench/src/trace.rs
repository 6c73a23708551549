//! In-memory spans and the timing platform wrapper.
//!
//! Spans are recorded from the benchmark's side of each crate boundary:
//! around public calls, on observer events, and inside [`TracedPlatform`],
//! which wraps the simulator's [`SimPlatform`] behind the same
//! [`Platform`] trait the methodology runs against. Spans of one pair share
//! its canonical index as trace id (`pair-<i>`), spans of one queue job its
//! job id (`job-<id>`). Nothing is written until the run ends.
//!
//! Per-call platform timings are not kept as individual spans (a table2
//! campaign issues tens of thousands of platform calls); each platform
//! accumulates them and hands one [`PlatformCounts`] to the tracer when the
//! campaign drops it, under the trace id of the pair it measured.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use latest::clock_sync::{SyncConfig, SyncResult};
use latest::core::{
    CampaignConfig, CoreResult, GroundTruth, MemoryClocks, Platform, PlatformFactory, SimPlatform,
    SimPlatformFactory,
};
use latest::cuda::TimerData;
use latest::gpu_sim::freq::FreqMhz;
use latest::gpu_sim::{KernelConfig, KernelId, ThrottleReasons};
use latest::sim_clock::{SimDuration, SimTime};

/// One closed span: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name, e.g. `core.pair`.
    pub name: &'static str,
    /// Trace id shared by the spans of one pair, job or run.
    pub trace: String,
    /// Name of the span that caused this one (`None` for top-level spans).
    pub parent: Option<&'static str>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Platform work accumulated by one [`TracedPlatform`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlatformCounts {
    /// Time in kernel launch, `synchronize` and `collect_records` (ns).
    pub kernel_ns: u64,
    /// Kernels launched.
    pub kernels: u64,
    /// Per-SM iteration records collected.
    pub iterations: u64,
    /// Time in NVML-style control and polling calls (ns).
    pub nvml_ns: u64,
    /// NVML-style calls made.
    pub nvml_calls: u64,
    /// Time in IEEE 1588 timer synchronisation (ns).
    pub sync_ns: u64,
    /// Timer synchronisations run: one per phase-2 pass.
    pub sync_calls: u64,
}

impl PlatformCounts {
    /// Field-wise sum.
    pub fn add(&mut self, other: &PlatformCounts) {
        self.kernel_ns += other.kernel_ns;
        self.kernels += other.kernels;
        self.iterations += other.iterations;
        self.nvml_ns += other.nvml_ns;
        self.nvml_calls += other.nvml_calls;
        self.sync_ns += other.sync_ns;
        self.sync_calls += other.sync_calls;
    }

    /// Total platform time (ms).
    pub fn total_ms(&self) -> f64 {
        (self.kernel_ns + self.nvml_ns + self.sync_ns) as f64 / 1e6
    }
}

/// The span sink shared by every thread of a run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    platforms: Mutex<Vec<(String, PlatformCounts)>>,
    open: Mutex<HashMap<String, u64>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            platforms: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `at` on the tracer's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a closed span.
    pub fn record(
        &self,
        name: &'static str,
        trace: impl Into<String>,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let span = Span {
            name,
            trace: trace.into(),
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Mark the start of a span closed later by [`Tracer::close`] from an
    /// event on possibly another thread.
    pub fn open(&self, key: String) {
        let now = self.now_ns();
        self.open
            .lock()
            .expect("open spans poisoned")
            .insert(key, now);
    }

    /// Close a span opened under `key`; a key never opened is ignored.
    pub fn close(&self, key: &str, name: &'static str, parent: Option<&'static str>) {
        let now = self.now_ns();
        let start = self.open.lock().expect("open spans poisoned").remove(key);
        if let Some(start) = start {
            self.record(name, key, parent, start, now);
        }
    }

    /// Hand over one platform's accumulated work.
    pub fn add_platform(&self, trace: String, counts: PlatformCounts) {
        self.platforms
            .lock()
            .expect("platform sink poisoned")
            .push((trace, counts));
    }

    /// Copies of everything recorded so far under trace ids starting with
    /// `prefix`.
    pub fn snapshot(&self, prefix: &str) -> (Vec<Span>, Vec<(String, PlatformCounts)>) {
        let spans = self.spans.lock().expect("span sink poisoned");
        let platforms = self.platforms.lock().expect("platform sink poisoned");
        (
            spans
                .iter()
                .filter(|s| s.trace.starts_with(prefix))
                .cloned()
                .collect(),
            platforms
                .iter()
                .filter(|(t, _)| t.starts_with(prefix))
                .cloned()
                .collect(),
        )
    }

    /// Take everything recorded so far (one iteration's worth).
    pub fn take(&self) -> (Vec<Span>, Vec<(String, PlatformCounts)>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        let platforms =
            std::mem::take(&mut *self.platforms.lock().expect("platform sink poisoned"));
        self.open.lock().expect("open spans poisoned").clear();
        (spans, platforms)
    }
}

/// A [`PlatformFactory`] around [`SimPlatformFactory`] whose platforms time
/// and count every call into the simulator.
pub struct TracedFactory {
    inner: SimPlatformFactory,
    tracer: Arc<Tracer>,
    /// Platform seed → trace id: the campaign seed builds the phase-1 +
    /// probe platform, every pair seed the platform of that pair.
    traces: HashMap<u64, String>,
}

impl TracedFactory {
    /// Wrap the simulator factory for `config`'s device; trace ids start
    /// with `prefix` (`<prefix>prelude`, `<prefix>pair-<i>`).
    pub fn new(config: &CampaignConfig, tracer: Arc<Tracer>, prefix: &str) -> Self {
        let mut traces: HashMap<u64, String> = config
            .ordered_state_pairs()
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (config.state_pair_seed(a, b), format!("{prefix}pair-{i}")))
            .collect();
        traces.insert(config.seed, format!("{prefix}prelude"));
        TracedFactory {
            inner: SimPlatformFactory::new(config.spec.clone()),
            tracer,
            traces,
        }
    }
}

impl PlatformFactory for TracedFactory {
    type Platform = TracedPlatform;

    fn create(&self, seed: u64) -> CoreResult<TracedPlatform> {
        Ok(TracedPlatform {
            inner: self.inner.create(seed)?,
            trace: self
                .traces
                .get(&seed)
                .cloned()
                .unwrap_or_else(|| format!("seed-{seed}")),
            tracer: self.tracer.clone(),
            counts: PlatformCounts::default(),
        })
    }

    fn device_name(&self) -> String {
        self.inner.device_name()
    }
}

/// A [`SimPlatform`] that times every call by layer.
pub struct TracedPlatform {
    inner: SimPlatform,
    trace: String,
    tracer: Arc<Tracer>,
    counts: PlatformCounts,
}

impl TracedPlatform {
    fn timed<T>(ns: &mut u64, calls: &mut u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *ns += start.elapsed().as_nanos() as u64;
        *calls += 1;
        out
    }

    fn nvml<T>(&mut self, f: impl FnOnce(&mut SimPlatform) -> T) -> T {
        let inner = &mut self.inner;
        Self::timed(
            &mut self.counts.nvml_ns,
            &mut self.counts.nvml_calls,
            || f(inner),
        )
    }

    fn kernel<T>(&mut self, f: impl FnOnce(&mut SimPlatform) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.counts.kernel_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl Drop for TracedPlatform {
    fn drop(&mut self) {
        self.tracer
            .add_platform(std::mem::take(&mut self.trace), self.counts);
    }
}

impl Platform for TracedPlatform {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn sleep(&mut self, d: SimDuration) {
        self.inner.sleep(d)
    }

    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        self.nvml(|p| p.set_locked_clocks(target))
    }

    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz> {
        self.nvml(|p| p.reset_locked_clocks())
    }

    fn current_clock(&mut self) -> FreqMhz {
        self.nvml(|p| p.current_clock())
    }

    fn supported_clocks(&self) -> Vec<FreqMhz> {
        self.inner.supported_clocks()
    }

    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId> {
        self.counts.kernels += 1;
        self.kernel(|p| p.launch_benchmark(config))
    }

    fn synchronize(&mut self) -> SimTime {
        self.kernel(|p| p.synchronize())
    }

    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData> {
        let records = self.kernel(|p| p.collect_records(id))?;
        self.counts.iterations += records.iter().map(|sm| sm.len() as u64).sum::<u64>();
        Ok(records)
    }

    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult {
        let inner = &mut self.inner;
        Self::timed(
            &mut self.counts.sync_ns,
            &mut self.counts.sync_calls,
            || inner.synchronize_timers(config),
        )
    }

    fn throttle_reasons(&mut self) -> ThrottleReasons {
        self.nvml(|p| p.throttle_reasons())
    }

    fn temperature_c(&mut self) -> f64 {
        self.nvml(|p| p.temperature_c())
    }

    fn device_name(&self) -> String {
        Platform::device_name(&self.inner)
    }

    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        self.inner.as_ground_truth()
    }

    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        Some(self)
    }
}

impl MemoryClocks for TracedPlatform {
    fn set_locked_mem_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        self.nvml(|p| p.set_locked_mem_clocks(target))
    }

    fn reset_locked_mem_clocks(&mut self) -> CoreResult<FreqMhz> {
        self.nvml(|p| p.reset_locked_mem_clocks())
    }

    fn current_mem_clock(&mut self) -> FreqMhz {
        self.nvml(|p| p.current_mem_clock())
    }

    fn supported_mem_clocks(&self) -> Vec<FreqMhz> {
        self.inner.supported_mem_clocks()
    }

    fn default_mem_clock(&self) -> FreqMhz {
        self.inner.default_mem_clock()
    }
}
