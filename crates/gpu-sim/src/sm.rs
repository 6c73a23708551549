//! The streaming-multiprocessor engine: turning a frequency trajectory into
//! per-iteration timestamp records.
//!
//! The microbenchmark kernel of Sec. V runs "the same arithmetic instruction
//! repeated multiple times in each performed iteration", with timestamp reads
//! as the first and last instruction of every iteration. An SM therefore
//! produces, per iteration, a `(start, end)` pair on the device timer whose
//! spacing is `work_cycles / f(t)` plus noise — plus the ~1 µs globaltimer
//! quantisation. That record stream is the *only* thing the methodology sees.
//!
//! [`run_sm`] is most of a simulated campaign's cost, so its per-iteration
//! path stays free of libm calls: whole nanoseconds come from
//! [`round_ns`](latest_sim_clock::round_ns) (the exact value of
//! `f64::round`, which baseline x86-64 can only reach through libm), and the
//! timer's [`ClockView`] applies a drift rate it computed once.

use latest_sim_clock::{ClockView, SimDuration, SimTime};
use rand::Rng;

use crate::noise::Normal;
use crate::trajectory::FreqTrajectory;

/// One iteration's timestamps as read from the device timer (already
/// quantised to the timer resolution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterRecord {
    /// Device-timer value at the first instruction of the iteration.
    pub start: SimTime,
    /// Device-timer value at the last instruction of the iteration.
    pub end: SimTime,
}

impl IterRecord {
    /// Measured iteration execution time.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Parameters of the microbenchmark workload executed by each SM.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Arithmetic cycles per iteration (sets the measurement granularity:
    /// iteration wall time ≈ `work_cycles / f`).
    pub work_cycles: f64,
    /// Fixed per-iteration overhead outside the timestamped region
    /// (loop bookkeeping between the end read and the next start read), ns.
    pub inter_iter_overhead_ns: u64,
    /// Relative standard deviation of the per-iteration work (instruction
    /// replay, minor contention); typically < 2 %.
    pub noise_rel_sigma: f64,
    /// Probability that an iteration is hit by a device-side disturbance
    /// (ECC scrub, context timeslice) and runs long.
    pub spike_prob: f64,
    /// Work multiplier applied on a spike.
    pub spike_scale: f64,
    /// DRAM stall time inside the timestamped region, expressed in ns *at
    /// the device's reference memory clock* (0 = pure-arithmetic kernel).
    /// The stall is a fixed number of memory cycles, so it stretches when
    /// the memory clock drops — this is what makes a workload memory-bound
    /// in a way the methodology can observe.
    pub mem_stall_ns: f64,
}

/// The memory-clock context of a kernel: the DRAM frequency trajectory plus
/// the reference clock `mem_stall_ns` is calibrated against. `None` in
/// [`run_sm`] means "no memory domain" (stalls are skipped entirely).
#[derive(Clone, Copy, Debug)]
pub struct MemView<'a> {
    /// The effective memory-clock trajectory over the kernel's window.
    pub traj: &'a FreqTrajectory,
    /// The memory clock (MHz) at which `mem_stall_ns` takes its face value.
    pub reference_mhz: f64,
}

impl WorkloadParams {
    /// A well-behaved default: ~100 µs iterations at 1 GHz, 1 % noise.
    pub fn default_micro() -> Self {
        WorkloadParams {
            work_cycles: 100_000.0,
            inter_iter_overhead_ns: 200,
            noise_rel_sigma: 0.01,
            spike_prob: 0.0005,
            spike_scale: 3.0,
            mem_stall_ns: 0.0,
        }
    }

    /// A memory-bound variant: a short arithmetic block plus a large DRAM
    /// stall *inside* the timestamped region. The stall is a fixed number of
    /// memory cycles (45 µs at the reference memory clock), so the measured
    /// iteration duration stretches when the DRAM clock drops — the kernel
    /// time is dominated by the memory domain, not the core clock.
    pub fn memory_bound() -> Self {
        WorkloadParams {
            work_cycles: 55_000.0,
            inter_iter_overhead_ns: 200,
            noise_rel_sigma: 0.015,
            spike_prob: 0.001,
            spike_scale: 3.0,
            mem_stall_ns: 45_000.0,
        }
    }

    /// A bursty variant: noisier iterations with frequent long disturbance
    /// spikes (ECC scrubs, co-tenant timeslices) — stress input for the
    /// detection walk-back and the DBSCAN outlier filter.
    pub fn bursty() -> Self {
        WorkloadParams {
            work_cycles: 100_000.0,
            inter_iter_overhead_ns: 200,
            noise_rel_sigma: 0.015,
            spike_prob: 0.008,
            spike_scale: 5.0,
            mem_stall_ns: 0.0,
        }
    }

    /// Expected iteration duration (noise-free), ns: the arithmetic block
    /// scales with the core clock `freq_mhz`, the stall with
    /// `reference_mhz / mem_mhz` (a fixed count of memory cycles). With the
    /// memory clock at its reference (`mem_mhz == reference_mhz`) the stall
    /// takes its face value exactly.
    pub fn expected_iter_ns(&self, freq_mhz: f64, mem_mhz: f64, reference_mhz: f64) -> f64 {
        self.work_cycles / (freq_mhz * 1e-3) + self.mem_stall_ns * (reference_mhz / mem_mhz)
    }
}

/// One named workload preset in a [`WorkloadRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadEntry {
    name: String,
    description: String,
    params: WorkloadParams,
}

impl WorkloadEntry {
    /// Registry key (the scenario/CLI workload name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human description for `list-workloads` output.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The preset parameters.
    pub fn params(&self) -> WorkloadParams {
        self.params
    }
}

/// Named lookup over microbenchmark workload presets, mirroring
/// [`crate::devices::DeviceRegistry`]: scenario files and the CLI select
/// workloads by name, error messages enumerate the vocabulary, and callers
/// can register their own presets.
#[derive(Clone, Debug)]
pub struct WorkloadRegistry {
    entries: Vec<WorkloadEntry>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        WorkloadRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in presets: `paper-default`, `memory-bound`, `bursty`.
    pub fn builtin() -> Self {
        let mut reg = WorkloadRegistry::empty();
        reg.register(
            "paper-default",
            "the paper's arithmetic microbenchmark (~100 us iterations at 1 GHz, 1 % noise)",
            WorkloadParams::default_micro(),
        );
        reg.register(
            "memory-bound",
            "short arithmetic block + 45 us DRAM stall (in memory cycles) per iteration",
            WorkloadParams::memory_bound(),
        );
        reg.register(
            "bursty",
            "noisy iterations with frequent 5x disturbance spikes",
            WorkloadParams::bursty(),
        );
        reg
    }

    /// Add (or replace, by name) a preset.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        params: WorkloadParams,
    ) {
        let entry = WorkloadEntry {
            name: name.into(),
            description: description.into(),
            params,
        };
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
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Preset names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Look up a preset by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<WorkloadParams> {
        self.entries
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
            .map(|e| e.params)
    }
}

impl Default for WorkloadRegistry {
    fn default() -> Self {
        WorkloadRegistry::builtin()
    }
}

/// Execute `n_iters` iterations on one SM over `traj`, starting at global
/// time `start`. Returns the device-timer records and the global end time.
///
/// `timer` is the device clock view used to stamp records (projection +
/// quantisation); the returned end time stays on the global timeline for the
/// device's internal bookkeeping. `mem` supplies the memory-clock trajectory
/// for workloads with a DRAM stall; `None` (or `mem_stall_ns == 0`) runs the
/// historical pure-arithmetic path bit-for-bit.
pub fn run_sm<R: Rng + ?Sized>(
    traj: &FreqTrajectory,
    start: SimTime,
    n_iters: u32,
    params: &WorkloadParams,
    timer: &ClockView,
    rng: &mut R,
    mem: Option<MemView<'_>>,
) -> (Vec<IterRecord>, SimTime) {
    let noise = Normal::new(1.0, params.noise_rel_sigma);
    let mut cursor = traj.cursor(start);
    let mut records = Vec::with_capacity(n_iters as usize);
    for _ in 0..n_iters {
        let t0 = cursor.time();
        let factor = noise.sample_clamped(rng, 4.0).max(0.01);
        let mut work = params.work_cycles * factor;
        let mut stall_factor = factor;
        if params.spike_prob > 0.0 && rng.gen::<f64>() < params.spike_prob {
            work *= params.spike_scale;
            stall_factor *= params.spike_scale;
        }
        let mut t1 = cursor.advance_cycles(work);
        if params.mem_stall_ns > 0.0 {
            if let Some(m) = mem {
                // The stall is a fixed cycle count on the *memory* clock; it
                // shares the iteration's noise/spike factor (one draw per
                // iteration keeps the RNG stream identical to the
                // single-domain engine).
                let mem_cycles = params.mem_stall_ns * m.reference_mhz * 1e-3 * stall_factor;
                let stall_end = m.traj.advance_cycles(t1, mem_cycles);
                cursor.skip(stall_end.saturating_since(t1));
                t1 = cursor.time();
            }
        }
        records.push(IterRecord {
            start: timer.project(t0),
            end: timer.project(t1),
        });
        if params.inter_iter_overhead_ns > 0 {
            cursor.skip(SimDuration::from_nanos(params.inter_iter_overhead_ns));
        }
    }
    (records, cursor.time())
}

/// Noise-free end-time estimate for `n_iters` iterations starting at `start`
/// — used by the device to bound a kernel's busy window before simulating
/// every SM.
pub fn estimate_end(
    traj: &FreqTrajectory,
    start: SimTime,
    n_iters: u32,
    params: &WorkloadParams,
    mem: Option<MemView<'_>>,
) -> SimTime {
    let mut cursor = traj.cursor(start);
    for _ in 0..n_iters {
        let t1 = cursor.advance_cycles(params.work_cycles);
        if params.mem_stall_ns > 0.0 {
            if let Some(m) = mem {
                let mem_cycles = params.mem_stall_ns * m.reference_mhz * 1e-3;
                let stall_end = m.traj.advance_cycles(t1, mem_cycles);
                cursor.skip(stall_end.saturating_since(t1));
            }
        }
        if params.inter_iter_overhead_ns > 0 {
            cursor.skip(SimDuration::from_nanos(params.inter_iter_overhead_ns));
        }
    }
    cursor.time()
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_sim_clock::SharedClock;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn timer_1us() -> ClockView {
        ClockView::skewed(SharedClock::new(), 0, 0.0, SimDuration::from_micros(1))
    }

    fn timer_exact() -> ClockView {
        ClockView::identity(SharedClock::new())
    }

    fn quiet_params() -> WorkloadParams {
        WorkloadParams {
            work_cycles: 100_000.0,
            inter_iter_overhead_ns: 0,
            noise_rel_sigma: 0.0,
            spike_prob: 0.0,
            spike_scale: 1.0,
            mem_stall_ns: 0.0,
        }
    }

    #[test]
    fn iteration_duration_tracks_frequency_exactly() {
        let traj = FreqTrajectory::flat(1000.0); // 1 cycle/ns
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (recs, end) = run_sm(
            &traj,
            SimTime::EPOCH,
            10,
            &quiet_params(),
            &timer_exact(),
            &mut rng,
            None,
        );
        assert_eq!(recs.len(), 10);
        for r in &recs {
            assert_eq!(r.duration().as_nanos(), 100_000);
        }
        assert_eq!(end.as_nanos(), 1_000_000);
    }

    #[test]
    fn slower_clock_means_longer_iterations() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let slow = FreqTrajectory::flat(500.0);
        let (recs, _) = run_sm(
            &slow,
            SimTime::EPOCH,
            5,
            &quiet_params(),
            &timer_exact(),
            &mut rng,
            None,
        );
        for r in &recs {
            assert_eq!(r.duration().as_nanos(), 200_000);
        }
    }

    #[test]
    fn transition_stretches_exactly_one_iteration() {
        // 1000 MHz until 250 us, then 500 MHz: the iteration spanning the
        // breakpoint is stretched, later ones settle at 200 us.
        let mut traj = FreqTrajectory::flat(1000.0);
        traj.push(SimTime::from_micros(250), 500.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (recs, _) = run_sm(
            &traj,
            SimTime::EPOCH,
            6,
            &quiet_params(),
            &timer_exact(),
            &mut rng,
            None,
        );
        let durs: Vec<u64> = recs.iter().map(|r| r.duration().as_nanos()).collect();
        assert_eq!(durs[0], 100_000);
        assert_eq!(durs[1], 100_000);
        // Third iteration starts at 200 us, crosses the 250 us breakpoint:
        // 50 us at 1 c/ns = 50k cycles, remaining 50k at 0.5 c/ns = 100 us.
        assert_eq!(durs[2], 150_000);
        assert_eq!(durs[3], 200_000);
        assert_eq!(durs[4], 200_000);
    }

    #[test]
    fn quantisation_buckets_timestamps() {
        let traj = FreqTrajectory::flat(1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut p = quiet_params();
        p.work_cycles = 12_345.0; // 12.345 us per iteration
        let (recs, _) = run_sm(&traj, SimTime::EPOCH, 50, &p, &timer_1us(), &mut rng, None);
        for r in &recs {
            assert_eq!(r.start.as_nanos() % 1_000, 0);
            assert_eq!(r.end.as_nanos() % 1_000, 0);
        }
        // Quantised duration can only be a whole number of microseconds and
        // within 1 us of the true 12.345 us.
        for r in &recs {
            let d = r.duration().as_nanos();
            assert!(d == 12_000 || d == 13_000, "duration {d}");
        }
    }

    #[test]
    fn noise_spreads_durations_but_preserves_mean() {
        let traj = FreqTrajectory::flat(1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut p = quiet_params();
        p.noise_rel_sigma = 0.01;
        let (recs, _) = run_sm(
            &traj,
            SimTime::EPOCH,
            4000,
            &p,
            &timer_exact(),
            &mut rng,
            None,
        );
        let durs: Vec<f64> = recs
            .iter()
            .map(|r| r.duration().as_nanos() as f64)
            .collect();
        let mean = durs.iter().sum::<f64>() / durs.len() as f64;
        assert!((mean - 100_000.0).abs() < 200.0, "mean = {mean}");
        let var = durs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / durs.len() as f64;
        let rel = var.sqrt() / mean;
        assert!((rel - 0.01).abs() < 0.002, "rel sigma = {rel}");
    }

    #[test]
    fn spikes_produce_long_iterations() {
        let traj = FreqTrajectory::flat(1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut p = quiet_params();
        p.spike_prob = 0.02;
        p.spike_scale = 5.0;
        let (recs, _) = run_sm(
            &traj,
            SimTime::EPOCH,
            5000,
            &p,
            &timer_exact(),
            &mut rng,
            None,
        );
        let long = recs
            .iter()
            .filter(|r| r.duration().as_nanos() > 400_000)
            .count();
        let frac = long as f64 / recs.len() as f64;
        assert!((frac - 0.02).abs() < 0.01, "spike frac = {frac}");
    }

    #[test]
    fn overhead_gaps_between_iterations() {
        let traj = FreqTrajectory::flat(1000.0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut p = quiet_params();
        p.inter_iter_overhead_ns = 500;
        let (recs, _) = run_sm(&traj, SimTime::EPOCH, 3, &p, &timer_exact(), &mut rng, None);
        assert_eq!(recs[1].start.as_nanos() - recs[0].end.as_nanos(), 500);
        // Duration itself excludes the overhead.
        assert_eq!(recs[0].duration().as_nanos(), 100_000);
    }

    #[test]
    fn workload_registry_serves_presets() {
        let reg = WorkloadRegistry::builtin();
        assert_eq!(reg.names(), vec!["paper-default", "memory-bound", "bursty"]);
        assert_eq!(
            reg.get("paper-default").unwrap(),
            WorkloadParams::default_micro()
        );
        assert_eq!(
            reg.get("Memory-Bound").unwrap(),
            WorkloadParams::memory_bound()
        );
        assert_eq!(reg.get("bursty").unwrap(), WorkloadParams::bursty());
        assert!(reg.get("compute-heavy").is_none());

        let mut reg = reg;
        let custom = WorkloadParams {
            work_cycles: 5_000.0,
            ..WorkloadParams::default_micro()
        };
        reg.register("bursty", "override", custom);
        assert_eq!(reg.entries().len(), 3);
        assert_eq!(reg.get("bursty").unwrap(), custom);
    }

    #[test]
    fn presets_remain_frequency_sensitive() {
        // Phase 1 relies on iteration durations separating frequencies;
        // every preset must keep the timestamped block on the core clock.
        // Pure-arithmetic presets track 1/f exactly; the memory-bound preset
        // keeps a weaker (but still detectable) core sensitivity because
        // most of its iteration is DRAM stall.
        for params in [WorkloadParams::default_micro(), WorkloadParams::bursty()] {
            let slow = params.expected_iter_ns(705.0, 1215.0, 1215.0);
            let fast = params.expected_iter_ns(1410.0, 1215.0, 1215.0);
            assert!(slow > 1.9 * fast, "iteration time must track 1/f");
        }
        let mb = WorkloadParams::memory_bound();
        let slow = mb.expected_iter_ns(705.0, 1215.0, 1215.0);
        let fast = mb.expected_iter_ns(1410.0, 1215.0, 1215.0);
        assert!(
            slow > 1.3 * fast,
            "memory-bound core sensitivity too weak: {slow} vs {fast}"
        );
    }

    #[test]
    fn memory_bound_tracks_memory_clock_paper_default_does_not() {
        // The satellite contract: halving the DRAM clock stretches the
        // memory-bound iteration substantially (the 45 µs stall is a fixed
        // count of memory cycles) while paper-default is bit-for-bit
        // insensitive to the memory domain.
        let core = FreqTrajectory::flat(1410.0);
        let run_at = |params: &WorkloadParams, mem_mhz: f64| -> f64 {
            let mem_traj = FreqTrajectory::flat(mem_mhz);
            let mem = MemView {
                traj: &mem_traj,
                reference_mhz: 1215.0,
            };
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let (recs, _) = run_sm(
                &core,
                SimTime::EPOCH,
                200,
                params,
                &timer_exact(),
                &mut rng,
                Some(mem),
            );
            recs.iter()
                .map(|r| r.duration().as_nanos() as f64)
                .sum::<f64>()
                / recs.len() as f64
        };

        let mb = WorkloadParams::memory_bound();
        let full = run_at(&mb, 1215.0);
        let half = run_at(&mb, 607.5);
        assert!(
            half > 1.4 * full,
            "memory-bound must slow down at half DRAM clock: {half} vs {full}"
        );
        // Analytic expectation agrees with the engine.
        let exp_ratio = mb.expected_iter_ns(1410.0, 607.5, 1215.0)
            / mb.expected_iter_ns(1410.0, 1215.0, 1215.0);
        assert!((half / full - exp_ratio).abs() < 0.05 * exp_ratio);

        let pd = WorkloadParams::default_micro();
        let full = run_at(&pd, 1215.0);
        let half = run_at(&pd, 607.5);
        assert_eq!(full, half, "paper-default must ignore the memory clock");
    }

    #[test]
    fn estimate_matches_noise_free_run() {
        let mut traj = FreqTrajectory::flat(1410.0);
        traj.push(SimTime::from_micros(700), 705.0);
        let p = quiet_params();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (_, end) = run_sm(
            &traj,
            SimTime::EPOCH,
            42,
            &p,
            &timer_exact(),
            &mut rng,
            None,
        );
        let est = estimate_end(&traj, SimTime::EPOCH, 42, &p, None);
        assert_eq!(end, est);
    }

    /// FNV-1a over 64-bit words: a checksum that moves with any changed word.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn keystream_matches_pinned_values() {
        // 200 words span more than three four-block refills of the vendored
        // ChaCha8. Values captured before the four-block refill existed.
        let mut rng = ChaCha8Rng::seed_from_u64(31403);
        let words: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words[..4],
            [
                0x0127_3842_1126_b01a,
                0x584c_8830_ddba_f420,
                0x208e_d569_c989_220d,
                0x61de_7901_d247_6b6b,
            ]
        );
        assert_eq!(fnv(words), 0xee90_95e0_de6b_3f5f);
    }

    #[test]
    fn records_match_pinned_checksums() {
        // A transition mid-kernel on the core clock (and on the memory clock
        // for the memory-bound preset), stamped by a drifting timer at the
        // globaltimer's 1 µs and at 1 ns: a slip in the keystream, in the
        // cursor's or the projection's rounding moves a checksum.
        let mut traj = FreqTrajectory::flat(1410.0);
        traj.push(SimTime::from_micros(3_000), 705.0);
        let mut mem_traj = FreqTrajectory::flat(1215.0);
        mem_traj.push(SimTime::from_micros(2_000), 405.0);
        let mem = MemView {
            traj: &mem_traj,
            reference_mhz: 1215.0,
        };
        let cases = [
            (
                WorkloadParams::default_micro(),
                None,
                16_511_054,
                [0x1961_e098_cadf_6e99, 0xf0ae_3d07_43c7_a401],
            ),
            (
                WorkloadParams::bursty(),
                None,
                17_077_646,
                [0x1e0a_0ff9_72b1_2f71, 0xd2e8_1d32_28e9_4101],
            ),
            (
                WorkloadParams::memory_bound(),
                Some(mem),
                25_423_611,
                [0xb8d3_a866_cea6_dbc2, 0xb7ab_99e3_cae2_2629],
            ),
        ];
        for (params, mem, end_ns, sums) in cases {
            for (res, sum) in [SimDuration::from_micros(1), SimDuration::from_nanos(1)]
                .into_iter()
                .zip(sums)
            {
                let timer = ClockView::skewed(SharedClock::new(), 12_345, 37.5, res);
                let mut rng = ChaCha8Rng::seed_from_u64(31403);
                let start = SimTime::from_nanos(1_234_567);
                let (recs, end) = run_sm(&traj, start, 120, &params, &timer, &mut rng, mem);
                assert_eq!(end.as_nanos(), end_ns, "{params:?}");
                let stamps = recs
                    .iter()
                    .flat_map(|r| [r.start.as_nanos(), r.end.as_nanos()]);
                assert_eq!(fnv(stamps.chain([end_ns])), sum, "{params:?} at {res}");
            }
        }
    }
}
