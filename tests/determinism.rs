//! Reproducibility: identical seeds must give bitwise-identical campaigns,
//! regardless of how many campaigns run at once on threads, of how the
//! pairs are split across threads, or of a checkpoint/resume round-trip
//! — and different seeds must differ.

use std::sync::{Mutex, OnceLock};

use latest::core::session::settle;
use latest::core::{CampaignConfig, CampaignEvent, CampaignResult, CampaignSession};
use latest::gpu_sim::devices;
use latest::gpu_sim::freq::FreqMhz;
use proptest::prelude::*;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder(devices::a100_sxm4())
        .frequencies_mhz(&[705, 1095, 1410])
        .measurements(10, 25)
        .simulated_sms(Some(4))
        .seed(seed)
        .build()
}

fn run(seed: u64) -> CampaignResult {
    CampaignSession::new(config(seed)).run().expect("campaign")
}

fn all_latencies(result: &CampaignResult) -> Vec<(u32, u32, Vec<u64>)> {
    result
        .pairs()
        .iter()
        .map(|p| {
            let bits = p
                .latencies_ms()
                .unwrap_or(&[])
                .iter()
                .map(|f| f.to_bits())
                .collect();
            (p.init_mhz(), p.target_mhz(), bits)
        })
        .collect()
}

#[test]
fn identical_seeds_are_bitwise_identical() {
    let a = run(77);
    let b = run(77);
    assert_eq!(all_latencies(&a), all_latencies(&b));
}

#[test]
fn scheduling_does_not_affect_results() {
    // Four copies of one campaign run at once on real threads: every
    // platform is seeded from (campaign seed, pair) and shares nothing
    // with the other copies, so each must match a run on this thread.
    let reference = run(78).to_json();
    let start = std::sync::Barrier::new(4);
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    run(78).to_json()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign thread"))
            .collect()
    });
    for (i, json) in concurrent.iter().enumerate() {
        assert_eq!(&reference, json, "thread {i}");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(79);
    let b = run(80);
    assert_ne!(all_latencies(&a), all_latencies(&b));
}

#[test]
fn filtered_summaries_are_identical_for_identical_seeds() {
    // Smoke test for the rand_chacha seeding path end to end: not just the
    // raw latencies but the post-analysis (DBSCAN-filtered) summaries must
    // be bitwise identical between two campaigns with the same seed.
    let a = run(82);
    let b = run(82);
    let summaries = |r: &CampaignResult| -> Vec<(u32, u32, u64, u64, u64, u64)> {
        r.pairs()
            .iter()
            .filter_map(|p| {
                p.filtered_summary().map(|s| {
                    (
                        p.init_mhz(),
                        p.target_mhz(),
                        s.mean.to_bits(),
                        s.stdev.to_bits(),
                        s.min.to_bits(),
                        s.max.to_bits(),
                    )
                })
            })
            .collect()
    };
    let (sa, sb) = (summaries(&a), summaries(&b));
    assert!(!sa.is_empty(), "campaign produced no filtered summaries");
    assert_eq!(sa, sb);
}

#[test]
fn phase1_characterisation_is_reproducible() {
    let a = run(81);
    let b = run(81);
    for (fa, fb) in a.phase1.freqs.values().zip(b.phase1.freqs.values()) {
        assert_eq!(fa.iter_ns.mean.to_bits(), fb.iter_ns.mean.to_bits());
        assert_eq!(fa.iter_ns.stdev.to_bits(), fb.iter_ns.stdev.to_bits());
    }
    assert_eq!(a.phase1.valid_pairs, b.phase1.valid_pairs);
}

// --- the session engine -----------------------------------------------------

#[test]
fn checkpoint_resume_roundtrip_is_bitwise_identical() {
    let uninterrupted = CampaignSession::new(config(84)).run().unwrap();

    // Cancel after the third pair completes, checkpoint through JSON (as a
    // process restart would), then resume the remaining pairs.
    let session = CampaignSession::new(config(84));
    let token = session.cancel_token();
    let seen = std::sync::atomic::AtomicUsize::new(0);
    let session = session.observe(move |e: &CampaignEvent| {
        if matches!(e, CampaignEvent::PairFinished { .. })
            && seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == 3
        {
            token.cancel();
        }
    });
    let partial = session.run().unwrap();
    assert!(
        partial.is_partial(),
        "cancellation must leave pairs unmeasured"
    );
    let measured_before = partial.completed().count();
    assert!(measured_before < uninterrupted.completed().count());

    let checkpoint = CampaignResult::from_json(&partial.to_json()).expect("checkpoint parses");
    let resumed = CampaignSession::new(config(84))
        .resume_from(checkpoint)
        .run()
        .unwrap();
    assert!(!resumed.is_partial());
    assert_eq!(all_latencies(&uninterrupted), all_latencies(&resumed));
}

// --- pair tasks on threads --------------------------------------------------

/// Measure `session`'s pending pairs on `n_threads` scoped threads (at
/// most one per pair), each owning a contiguous run of the pairs, spawned
/// in reverse order, every measurement settled into shared
/// canonical-order slots as it finishes, then assembled.
fn run_on_threads(session: &CampaignSession, n_threads: usize) -> CampaignResult {
    let prelude = session.prelude().expect("prelude");
    let pending = session.pending_pairs();
    let chunk = pending.len().div_ceil(n_threads.clamp(1, pending.len()));
    let slots = Mutex::new(vec![None; session.config().ordered_state_pairs().len()]);
    std::thread::scope(|scope| {
        for tasks in pending.chunks(chunk).rev() {
            let (prelude, slots) = (&prelude, &slots);
            scope.spawn(move || {
                for task in tasks {
                    let meas = session.measure(prelude, task).expect("pair");
                    settle(&mut slots.lock().unwrap(), task.index, meas, 1);
                }
            });
        }
    });
    session.assemble(&prelude, &slots.into_inner().unwrap())
}

#[test]
fn sharded_schedules_are_bitwise_identical_to_sequential() {
    // The PairTask determinism contract: measuring the pairs on any
    // number of threads must be invisible in the results — each pair's
    // platform is seeded from (campaign seed, pair) alone.
    let reference = CampaignSession::new(config(85)).run().unwrap();
    for n_threads in [1, 2, 5, usize::MAX] {
        let sharded = run_on_threads(&CampaignSession::new(config(85)), n_threads);
        assert_eq!(
            all_latencies(&reference),
            all_latencies(&sharded),
            "n_threads={n_threads}"
        );
        assert_eq!(
            reference.to_json(),
            sharded.to_json(),
            "n_threads={n_threads}"
        );
    }
}

proptest! {
    /// Settling measurements into the canonical slots and assembling must
    /// reassemble the canonical result from ANY partition of the pairs
    /// between workers, settled in any order.
    #[test]
    fn merge_reassembles_any_partition(
        assignment in proptest::collection::vec(0usize..4, 6),
    ) {
        static REFERENCE: OnceLock<CampaignResult> = OnceLock::new();
        let reference = REFERENCE.get_or_init(|| CampaignSession::new(config(86)).run().unwrap());
        let session = CampaignSession::new(config(86));
        let ordered = session.config().ordered_state_pairs();
        prop_assert_eq!(assignment.len(), ordered.len());

        // Partition the measured pairs by the random worker assignment,
        // then settle the partitions in reverse order.
        let mut shards = vec![Vec::new(); 4];
        for (index, pair) in reference.pairs().iter().enumerate() {
            shards[assignment[index]].push((index, pair.clone()));
        }
        let mut slots = vec![None; ordered.len()];
        for shard in shards.into_iter().rev() {
            for (index, meas) in shard {
                settle(&mut slots, index, meas, 1);
            }
        }
        let merged = session.assemble(&session.prelude().unwrap(), &slots);
        prop_assert_eq!(reference.to_json(), merged.to_json());
    }
}

// --- the memory-clock plane -------------------------------------------------

fn mem_plane_config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder(devices::a100_sxm4())
        .frequencies_mhz(&[705, 1410])
        .mem_frequencies_mhz(&[810, 1215])
        .measurements(6, 12)
        .simulated_sms(Some(2))
        .seed(seed)
        .build()
}

#[test]
fn mem_plane_sharded_schedules_are_bitwise_identical_to_sequential() {
    // The 2-D (core × memory) sweep inherits the PairTask determinism
    // contract unchanged: 4 states → 12 ordered state pairs, and any
    // split of them across threads reproduces `run()` bit for bit.
    let reference = CampaignSession::new(mem_plane_config(90)).run().unwrap();
    assert_eq!(reference.pairs().len(), 12);
    for n_threads in [1, 2, 5, usize::MAX] {
        let sharded = run_on_threads(&CampaignSession::new(mem_plane_config(90)), n_threads);
        assert_eq!(
            reference.to_json(),
            sharded.to_json(),
            "n_threads={n_threads}"
        );
    }
    // And two independent runs agree bitwise too.
    let again = CampaignSession::new(mem_plane_config(90)).run().unwrap();
    assert_eq!(reference.to_json(), again.to_json());
}

// --- pair seeding -----------------------------------------------------------

proptest! {
    /// `state_pair_seed` must be collision-free across all ordered core-only
    /// pairs of a realistic frequency ladder: two pairs sharing a seed would run
    /// identical simulations, silently correlating their noise.
    #[test]
    fn pair_seed_is_collision_free_over_a_ladder(
        base in 200u32..1200,
        step in 15u32..120,
        n in 2usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let c = CampaignConfig::builder(devices::a100_sxm4()).seed(seed).build();
        let freqs: Vec<FreqMhz> = (0..n).map(|i| FreqMhz(base + step * i as u32)).collect();
        let mut seeds = std::collections::HashSet::new();
        for &init in &freqs {
            for &target in &freqs {
                if init != target {
                    prop_assert!(
                        seeds.insert(c.state_pair_seed(init.into(), target.into())),
                        "seed collision at {init}->{target} MHz"
                    );
                }
            }
        }
        prop_assert_eq!(seeds.len(), n * (n - 1));
    }

    /// `state_pair_seed` must stay collision-free when the state space
    /// grows a memory dimension: over the full cross product of a core
    /// ladder with {no memory pin} ∪ {memory ladder}, every ordered state
    /// pair must get a distinct platform seed — including against the
    /// legacy core-only seeds, which the formula reduces to verbatim.
    #[test]
    fn state_pair_seed_is_collision_free_over_a_2d_plane(
        base in 200u32..1200,
        step in 15u32..120,
        n in 2usize..8,
        mem_base in 400u32..2000,
        mem_step in 50u32..400,
        m in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        use latest::core::FreqState;
        let c = CampaignConfig::builder(devices::a100_sxm4()).seed(seed).build();
        let cores: Vec<FreqMhz> = (0..n).map(|i| FreqMhz(base + step * i as u32)).collect();
        let mut mems: Vec<Option<FreqMhz>> = vec![None];
        mems.extend((0..m).map(|i| Some(FreqMhz(mem_base + mem_step * i as u32))));
        let states: Vec<FreqState> = cores
            .iter()
            .flat_map(|&core| mems.iter().map(move |&mem| FreqState { core, mem }))
            .collect();
        let mut seeds = std::collections::HashSet::new();
        for &init in &states {
            for &target in &states {
                if init != target {
                    prop_assert!(
                        seeds.insert(c.state_pair_seed(init, target)),
                        "seed collision at {init}->{target}"
                    );
                }
            }
        }
        let k = states.len();
        prop_assert_eq!(seeds.len(), k * (k - 1));
    }
}
