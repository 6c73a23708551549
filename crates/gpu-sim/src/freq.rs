//! Frequency ladders — the discrete SM clock steps a GPU exposes.
//!
//! Table I of the paper reports, per GPU, the minimum/nominal/maximum SM
//! frequency and the number of selectable steps (e.g. A100: 210–1410 MHz in
//! 81 steps of 15 MHz). NVML only accepts ladder values, so the simulated
//! driver snaps requests the same way.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An SM frequency in MHz. Ladder values are whole MHz on all three paper
/// GPUs, so `u32` is exact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FreqMhz(pub u32);

impl FreqMhz {
    /// The frequency in MHz as a float (for trajectory math).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

/// A clock domain of the device: the SM (graphics) clock or the memory
/// (DRAM) clock. Each domain has its own ladder, transition model and
/// randomness stream; a clock request takes the same path in both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// The SM / graphics clock.
    Core,
    /// The memory (DRAM) clock.
    Memory,
}

impl fmt::Debug for FreqMhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

impl fmt::Display for FreqMhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for FreqMhz {
    fn from(mhz: u32) -> Self {
        FreqMhz(mhz)
    }
}

/// The ordered set of selectable SM frequencies of one device.
#[derive(Clone, Debug)]
pub struct FreqLadder {
    steps: Vec<FreqMhz>,
}

impl FreqLadder {
    /// Build from explicit steps; sorts and deduplicates.
    ///
    /// Panics on an empty ladder.
    pub fn from_steps(mut steps: Vec<FreqMhz>) -> Self {
        assert!(!steps.is_empty(), "frequency ladder cannot be empty");
        steps.sort();
        steps.dedup();
        FreqLadder { steps }
    }

    /// Build an arithmetic ladder: `min, min+step, ..., <= max` (the way all
    /// three paper GPUs lay out their SM clocks).
    pub fn arithmetic(min_mhz: u32, max_mhz: u32, step_mhz: u32) -> Self {
        assert!(step_mhz > 0, "step must be positive");
        assert!(min_mhz <= max_mhz, "min must not exceed max");
        let steps = (min_mhz..=max_mhz)
            .step_by(step_mhz as usize)
            .map(FreqMhz)
            .collect();
        FreqLadder::from_steps(steps)
    }

    /// Number of selectable steps (Table I's "SM frequency steps").
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the ladder is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Lowest selectable frequency.
    pub fn min(&self) -> FreqMhz {
        self.steps[0]
    }

    /// Highest selectable frequency.
    pub fn max(&self) -> FreqMhz {
        *self.steps.last().unwrap()
    }

    /// All steps, ascending.
    pub fn steps(&self) -> &[FreqMhz] {
        &self.steps
    }

    /// Whether `f` is exactly a ladder value.
    pub fn contains(&self, f: FreqMhz) -> bool {
        self.steps.binary_search(&f).is_ok()
    }

    /// Snap an arbitrary request to the nearest ladder value (ties resolve
    /// downward, matching the conservative driver behaviour).
    pub fn snap(&self, f: FreqMhz) -> FreqMhz {
        match self.steps.binary_search(&f) {
            Ok(i) => self.steps[i],
            Err(0) => self.steps[0],
            Err(i) if i == self.steps.len() => self.max(),
            Err(i) => {
                let below = self.steps[i - 1];
                let above = self.steps[i];
                if f.0 - below.0 <= above.0 - f.0 {
                    below
                } else {
                    above
                }
            }
        }
    }

    /// The highest ladder value `<= f`, if any (used by power capping).
    pub fn floor(&self, f: FreqMhz) -> Option<FreqMhz> {
        match self.steps.binary_search(&f) {
            Ok(i) => Some(self.steps[i]),
            Err(0) => None,
            Err(i) => Some(self.steps[i - 1]),
        }
    }

    /// Ladder values between two frequencies, exclusive of both endpoints,
    /// ordered in traversal direction — the intermediate steps a ramped
    /// transition passes through.
    pub fn between(&self, from: FreqMhz, to: FreqMhz) -> Vec<FreqMhz> {
        if from == to {
            return Vec::new();
        }
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let mut mids: Vec<FreqMhz> = self
            .steps
            .iter()
            .copied()
            .filter(|&s| s > lo && s < hi)
            .collect();
        if from > to {
            mids.reverse();
        }
        mids
    }

    /// Evenly spaced subset of `n` ladder values spanning the full range
    /// (used to pick heatmap frequency subsets like the paper's 18×18 grid).
    pub fn subset(&self, n: usize) -> Vec<FreqMhz> {
        assert!(n >= 1);
        if n >= self.steps.len() {
            return self.steps.clone();
        }
        if n == 1 {
            return vec![self.max()];
        }
        (0..n)
            .map(|i| {
                let idx = i * (self.steps.len() - 1) / (n - 1);
                self.steps[idx]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ladder_matches_table1_counts() {
        // A100: 210..=1410 step 15 -> 81 steps.
        let a100 = FreqLadder::arithmetic(210, 1410, 15);
        assert_eq!(a100.len(), 81);
        assert_eq!(a100.min(), FreqMhz(210));
        assert_eq!(a100.max(), FreqMhz(1410));
        // GH200: 345..=1980 step 15 -> 110 steps.
        let gh200 = FreqLadder::arithmetic(345, 1980, 15);
        assert_eq!(gh200.len(), 110);
        // RTX Quadro 6000: 300..=2100 — 120 steps of 15 gives 121; the card
        // exposes 120, modelled as 315..=2100.
        let quadro = FreqLadder::arithmetic(315, 2100, 15);
        assert_eq!(quadro.len(), 120);
    }

    #[test]
    fn snap_to_nearest() {
        let l = FreqLadder::arithmetic(300, 600, 100);
        assert_eq!(l.snap(FreqMhz(300)), FreqMhz(300));
        assert_eq!(l.snap(FreqMhz(349)), FreqMhz(300));
        assert_eq!(l.snap(FreqMhz(350)), FreqMhz(300)); // tie -> down
        assert_eq!(l.snap(FreqMhz(351)), FreqMhz(400));
        assert_eq!(l.snap(FreqMhz(10)), FreqMhz(300));
        assert_eq!(l.snap(FreqMhz(9_999)), FreqMhz(600));
    }

    #[test]
    fn floor_semantics() {
        let l = FreqLadder::arithmetic(300, 600, 100);
        assert_eq!(l.floor(FreqMhz(450)), Some(FreqMhz(400)));
        assert_eq!(l.floor(FreqMhz(400)), Some(FreqMhz(400)));
        assert_eq!(l.floor(FreqMhz(299)), None);
        assert_eq!(l.floor(FreqMhz(9_999)), Some(FreqMhz(600)));
    }

    #[test]
    fn between_is_directional_and_exclusive() {
        let l = FreqLadder::arithmetic(100, 500, 100);
        assert_eq!(
            l.between(FreqMhz(100), FreqMhz(400)),
            vec![FreqMhz(200), FreqMhz(300)]
        );
        assert_eq!(
            l.between(FreqMhz(400), FreqMhz(100)),
            vec![FreqMhz(300), FreqMhz(200)]
        );
        assert!(l.between(FreqMhz(200), FreqMhz(300)).is_empty());
        assert!(l.between(FreqMhz(200), FreqMhz(200)).is_empty());
    }

    #[test]
    fn subset_spans_range() {
        let l = FreqLadder::arithmetic(210, 1410, 15);
        let s = l.subset(18);
        assert_eq!(s.len(), 18);
        assert_eq!(s[0], FreqMhz(210));
        assert_eq!(*s.last().unwrap(), FreqMhz(1410));
        // strictly increasing
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        // subset larger than the ladder returns the whole ladder
        let tiny = FreqLadder::arithmetic(100, 200, 100);
        assert_eq!(tiny.subset(10).len(), 2);
    }

    #[test]
    fn from_steps_sorts_and_dedups() {
        let l = FreqLadder::from_steps(vec![FreqMhz(500), FreqMhz(100), FreqMhz(500)]);
        assert_eq!(l.steps(), &[FreqMhz(100), FreqMhz(500)]);
    }

    #[test]
    #[should_panic]
    fn empty_ladder_panics() {
        FreqLadder::from_steps(vec![]);
    }
}
