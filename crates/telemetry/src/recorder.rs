//! Per-worker recorder slots and the registry that merges them.
//!
//! Each worker thread owns exactly one [`StageRecorder`] slot for the
//! lifetime of a drain and is the only writer to it; everything on the
//! record path is a relaxed atomic load+store into preallocated bucket
//! arrays — no locks, no allocation, no contended `fetch_add`. Readers
//! ([`Registry::snapshot`]) run at drain end, after the worker scope has
//! joined, so single-writer relaxed stores are sufficient: the thread
//! join provides the happens-before edge.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::Histogram;
use crate::snapshot::TelemetrySnapshot;
use crate::stage::Stage;

/// A histogram whose counters are atomics so concurrent snapshotting is
/// defined behaviour. Written by exactly one thread (see module docs),
/// which is why `record` can use load+store instead of RMW atomics.
struct AtomicHist {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl AtomicHist {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(Histogram::NUM_BUCKETS);
        buckets.resize_with(Histogram::NUM_BUCKETS, || AtomicU64::new(0));
        AtomicHist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: buckets.into_boxed_slice(),
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        // Single-writer: plain load+store beats fetch_add (no lock prefix
        // needed on the owning thread's cache line).
        let idx = crate::hist::bucket_index(value);
        let b = &self.buckets[idx];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum.store(
            self.sum.load(Ordering::Relaxed).saturating_add(value),
            Ordering::Relaxed,
        );
        if value < self.min.load(Ordering::Relaxed) {
            self.min.store(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Histogram {
        let sparse: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        Histogram::from_parts(
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
            &sparse,
        )
        .expect("indices from a fixed-size bucket array are always in range")
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// One worker's private recorder slot: a histogram per [`Stage`].
/// Cache-line aligned so neighbouring slots never false-share.
#[repr(align(64))]
pub struct StageRecorder {
    stages: [AtomicHist; Stage::COUNT],
}

impl StageRecorder {
    fn new() -> Self {
        StageRecorder {
            stages: [
                AtomicHist::new(),
                AtomicHist::new(),
                AtomicHist::new(),
                AtomicHist::new(),
                AtomicHist::new(),
                AtomicHist::new(),
            ],
        }
    }

    /// Record a latency sample for `stage`. Lock-free and allocation-free;
    /// must only be called from the thread that owns this slot.
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    /// A plain-histogram copy of one stage's distribution.
    pub fn snapshot(&self, stage: Stage) -> Histogram {
        self.stages[stage.index()].snapshot()
    }

    /// Zero every counter in the slot.
    pub fn reset(&self) {
        for h in &self.stages {
            h.reset();
        }
    }
}

/// A fixed-size set of [`StageRecorder`] slots, one per worker (plus,
/// conventionally, one trailing slot for the service/main thread), with
/// snapshot-by-merge at drain end.
pub struct Registry {
    slots: Box<[StageRecorder]>,
}

impl Registry {
    /// Allocate `slots` recorder slots (at least one).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, StageRecorder::new);
        Registry {
            slots: v.into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The recorder for slot `index`; clamps to the last (service) slot
    /// so an unregistered thread still has somewhere safe to record.
    pub fn recorder(&self, index: usize) -> &StageRecorder {
        let i = index.min(self.slots.len() - 1);
        &self.slots[i]
    }

    /// Merge every slot, in slot order, into one snapshot. Deterministic:
    /// the merge is associative and slot order is fixed, so identical
    /// per-slot contents always produce an identical snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for slot in self.slots.iter() {
            for stage in Stage::ALL {
                snap.stages[stage.index()].merge(&slot.snapshot(stage));
            }
        }
        snap
    }

    /// Zero every slot, ready for the next drain.
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_tag_records_into_its_own_histogram() {
        let rec = StageRecorder::new();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            rec.record(stage, (i as u64 + 1) * 1_000);
        }
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let h = rec.snapshot(stage);
            assert_eq!(h.count(), 1, "stage {stage}");
            assert_eq!(h.min(), Some((i as u64 + 1) * 1_000), "stage {stage}");
            assert_eq!(h.max(), Some((i as u64 + 1) * 1_000), "stage {stage}");
        }
    }

    #[test]
    fn registry_snapshot_merges_all_slots() {
        let reg = Registry::new(3);
        reg.recorder(0).record(Stage::ShardExec, 100);
        reg.recorder(1).record(Stage::ShardExec, 200);
        reg.recorder(2).record(Stage::QueueWait, 50);
        let snap = reg.snapshot();
        assert_eq!(snap.stage(Stage::ShardExec).count(), 2);
        assert_eq!(snap.stage(Stage::ShardExec).min(), Some(100));
        assert_eq!(snap.stage(Stage::ShardExec).max(), Some(200));
        assert_eq!(snap.stage(Stage::QueueWait).count(), 1);
        assert_eq!(snap.stage(Stage::SettleLatency).count(), 0);
    }

    #[test]
    fn out_of_range_slot_clamps_to_service_slot() {
        let reg = Registry::new(2);
        reg.recorder(usize::MAX).record(Stage::EventFanIn, 7);
        assert_eq!(reg.recorder(1).snapshot(Stage::EventFanIn).count(), 1);
    }

    #[test]
    fn registry_reset_clears_every_slot() {
        let reg = Registry::new(2);
        reg.recorder(0).record(Stage::ShardExec, 10);
        reg.recorder(1).record(Stage::QueueWait, 20);
        reg.reset();
        assert_eq!(reg.snapshot().records_total(), 0);
    }

    #[test]
    fn concurrent_per_slot_recording_is_exact() {
        let reg = std::sync::Arc::new(Registry::new(4));
        std::thread::scope(|scope| {
            for slot in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    for v in 0..10_000u64 {
                        reg.recorder(slot).record(Stage::ShardExec, v);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.stage(Stage::ShardExec).count(), 40_000);
        assert_eq!(snap.stage(Stage::ShardExec).min(), Some(0));
        assert_eq!(snap.stage(Stage::ShardExec).max(), Some(9_999));
    }

    /// Synthetic nanosecond latencies spread across octaves (SplitMix-style
    /// scramble, magnitude varied by a shifting window) so the record path
    /// touches many buckets instead of hammering one cache line.
    fn synth(i: u64) -> u64 {
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x >> (x % 48)
    }

    fn stage_of(i: u64) -> Stage {
        Stage::ALL[(i % Stage::COUNT as u64) as usize]
    }

    /// The firehose floor: one recorder sustains at least 1M records/sec
    /// single-threaded, even in an unoptimised test build. The record path
    /// runs about 20 times faster than that unoptimised; the floor is a
    /// safety net against it slowing by an order of magnitude, not a
    /// target.
    #[test]
    fn record_path_sustains_a_million_records_per_second() {
        const N: u64 = 4_000_000;
        let reg = Registry::new(1);
        let rec = reg.recorder(0);
        let start = std::time::Instant::now();
        for i in 0..N {
            rec.record(stage_of(i), synth(i));
        }
        let rps = N as f64 / start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(reg.snapshot().records_total(), N);
        assert!(
            rps >= 1_000_000.0,
            "record path too slow: {rps:.0} rec/s < 1M"
        );
    }
}
