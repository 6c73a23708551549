//! Host speed, measured by a fixed loop of the benchmark's own.
//!
//! The benchmark runs on a shared host whose speed changes under it: for
//! fractions of a second up to tens of seconds the same work takes up to
//! 1.6 times as long, with the process's own CPU time growing just as much
//! (so it is not time spent waiting for a core). A median over one run
//! cannot hide a slow period that covers most of the run. So the measuring
//! thread itself times the loop below between the operations it times,
//! and every timing is reported at the reference speed: as the time the
//! interval would have taken had the loop run in [`REFERENCE_S`] all
//! through it. Where the loop ran slower, the interval counts for less.
//!
//! The loop is the benchmark's own code, so a change to the program
//! cannot move it. It mixes integer hashing, a sort over a working set
//! larger than L1, and floating-point math; on the benchmark's host a
//! JSON parse slows down with it to within a few per cent.
//!
//! A scaled interval leaves out the time spent in the loop, so the loop
//! can run inside a timed interval without lengthening it.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::rng::Rng;

/// Values the loop generates, sorts and folds.
const N: usize = 16_384;

/// Loop runs per sample: their median is robust to an interrupt landing
/// in one of them.
const RUNS: usize = 3;

/// [`Meter::tick`] times the loop when this much time has passed since the
/// last sample.
const PERIOD: Duration = Duration::from_millis(20);

/// The loop's time on a quiet core of the host the bounds were set on (a
/// 2-core Intel Xeon virtual machine), in seconds. Scaled timings read as
/// seconds on that host when it is quiet.
pub const REFERENCE_S: f64 = 0.6e-3;

/// One run of the loop (s).
fn spin() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(black_box(0x5eed_ca11));
    let mut values: Vec<f64> = (0..N).map(|_| rng.uniform()).collect();
    values.sort_unstable_by(f64::total_cmp);
    let acc: f64 = values
        .iter()
        .enumerate()
        .map(|(i, x)| (x + 1.0).ln() * (i as f64).sqrt())
        .sum();
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The loop's samples, and the clock they are left out of.
pub struct Meter {
    origin: Instant,
    samples: Mutex<Vec<Sample>>,
}

/// One sample of the loop.
#[derive(Clone, Copy)]
struct Sample {
    start: Instant,
    end: Instant,
    took: f64,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            origin: Instant::now(),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Time the loop [`RUNS`] times on the measuring thread; the sample is
    /// their median.
    pub fn sample(&self) {
        let start = Instant::now();
        let mut took: Vec<f64> = (0..RUNS).map(|_| spin()).collect();
        took.sort_by(f64::total_cmp);
        let end = Instant::now();
        let mut samples = self.samples.lock().expect("meter poisoned");
        samples.push(Sample {
            start,
            end,
            took: took[RUNS / 2],
        });
    }

    /// Take a sample if [`PERIOD`] has passed since the last one began.
    pub fn tick(&self) {
        let last = self
            .samples
            .lock()
            .expect("meter poisoned")
            .last()
            .map(|s| s.start);
        if last.is_none_or(|at| at.elapsed() >= PERIOD) {
            self.sample();
        }
    }

    /// The samples so far, to scale intervals that ended before this call.
    /// Take a sample after an interval ends before asking, so that its end
    /// has a near neighbour.
    pub fn scale(&self) -> Scale {
        let mut samples = self.samples.lock().expect("meter poisoned").clone();
        samples.sort_by_key(|s| s.start);
        let mut spent = vec![0.0];
        for s in &samples {
            spent.push(spent[spent.len() - 1] + (s.end - s.start).as_secs_f64());
        }
        let mut scale = Scale {
            origin: self.origin,
            samples,
            spent,
            at: Vec::new(),
        };
        scale.at = scale.samples.iter().map(|s| scale.clock(s.start)).collect();
        scale
    }

    /// Every loop time taken (s).
    pub fn loop_times(&self) -> Vec<f64> {
        let samples = self.samples.lock().expect("meter poisoned");
        samples.iter().map(|s| s.took).collect()
    }
}

/// A snapshot of a [`Meter`]'s samples.
pub struct Scale {
    origin: Instant,
    /// Samples by start time.
    samples: Vec<Sample>,
    /// `spent[i]`: seconds spent in the loop before sample `i` began.
    spent: Vec<f64>,
    /// Each sample's start on [`Scale::clock`].
    at: Vec<f64>,
}

impl Scale {
    /// Seconds from the meter's start to `at`, not counting the loop's
    /// runs.
    fn clock(&self, at: Instant) -> f64 {
        let k = self.samples.partition_point(|s| s.start < at);
        // A sample still running at `at` counts only up to it.
        let running = k.checked_sub(1).map_or(0.0, |i| {
            self.samples[i]
                .end
                .saturating_duration_since(at)
                .as_secs_f64()
        });
        (at - self.origin).as_secs_f64() - self.spent[k] + running
    }

    /// The interval `from..to` at the reference speed (s), leaving out the
    /// loop's own runs: each instant counts `REFERENCE_S / loop time` of
    /// the sample nearest to it.
    pub fn of(&self, from: Instant, to: Instant) -> f64 {
        let (from, to) = (self.clock(from), self.clock(to));
        if self.samples.is_empty() {
            return to - from;
        }
        let mut total = 0.0;
        let mut lo = f64::NEG_INFINITY;
        for (i, sample) in self.samples.iter().enumerate() {
            // This sample is the nearest one from `lo` to `hi`.
            let hi = self
                .at
                .get(i + 1)
                .map_or(f64::INFINITY, |next| (self.at[i] + next) / 2.0);
            let overlap = hi.min(to) - lo.max(from);
            if overlap > 0.0 {
                total += overlap * REFERENCE_S / sample.took;
            }
            lo = hi;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meter whose samples are `(start s, length s, loop time s)` after
    /// its origin.
    fn meter(samples: &[(f64, f64, f64)]) -> (Meter, Instant) {
        let origin = Instant::now();
        let at = |s: f64| origin + Duration::from_secs_f64(s);
        let samples = samples
            .iter()
            .map(|&(start, length, took)| Sample {
                start: at(start),
                end: at(start + length),
                took,
            })
            .collect();
        (
            Meter {
                origin,
                samples: Mutex::new(samples),
            },
            origin,
        )
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn an_interval_counts_the_nearest_sample_and_leaves_the_loop_out() {
        // A quiet sample, then one at half speed a second of work later.
        let (m, t0) = meter(&[(0.0, 0.01, REFERENCE_S), (1.01, 0.01, 2.0 * REFERENCE_S)]);
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let scale = m.scale();
        // The second of work between the samples: its first half is
        // nearer the quiet sample, its second half counts half.
        assert!(close(scale.of(at(0.01), at(1.01)), 0.75));
        // An interval spanning a sample leaves the sample's run out.
        assert!(close(scale.of(at(0.0), at(0.51)), 0.5));
        // Past the last sample, its speed holds.
        assert!(close(scale.of(at(1.02), at(3.02)), 1.0));
    }

    #[test]
    fn a_quiet_host_leaves_timings_unchanged() {
        let (m, t0) = meter(&[(0.0, 0.001, REFERENCE_S), (0.5, 0.001, REFERENCE_S)]);
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        assert!(close(m.scale().of(at(0.001), at(0.5)), 0.499));
    }
}
