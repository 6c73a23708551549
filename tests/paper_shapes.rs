//! Qualitative-shape assertions from Sec. VII, run as tests: the simulated
//! architectures must reproduce who-is-slow / where-the-spikes-are, and the
//! methodology must surface them the way the paper reports.
//!
//! These use reduced sweeps (fewer frequencies/measurements than the repro
//! binaries) to stay fast under `cargo test`; the full-scale regenerations
//! live in `crates/bench/src/bin/repro_*`.

use latest::core::{CampaignResult, CampaignSpec};

fn sweep(device: &str, n: usize, seed: u64) -> CampaignResult {
    CampaignSpec::builder(device)
        .frequency_subset(n)
        .measurements(20, 40)
        .simulated_sms(Some(4))
        .seed(seed)
        .build_unchecked()
        .into_session()
        .expect("valid spec")
        .run()
        .expect("sweep")
}

fn worst_cases(result: &CampaignResult) -> Vec<(u32, u32, f64)> {
    result
        .completed()
        .filter_map(|p| {
            p.analysis
                .as_ref()
                .filter(|a| !a.inliers_ms.is_empty())
                .map(|a| (p.init_mhz(), p.target_mhz(), a.filtered.max))
        })
        .collect()
}

#[test]
fn a100_worst_cases_stay_below_25ms() {
    let result = sweep("a100", 8, 101);
    let cells = worst_cases(&result);
    assert!(cells.len() >= 40);
    for (i, t, v) in &cells {
        assert!(*v < 25.0, "{i}->{t}: {v} ms breaks the paper's A100 bound");
    }
}

#[test]
fn a100_decreases_are_faster_and_tighter_than_increases() {
    // Fig. 4b: clear asymmetry between frequency decreasing and increasing.
    let result = sweep("a100", 8, 102);
    let (mut down, mut up) = (Vec::new(), Vec::new());
    for p in result.completed() {
        if let Some(a) = &p.analysis {
            let side = if p.target_mhz() < p.init_mhz() {
                &mut down
            } else {
                &mut up
            };
            side.extend_from_slice(&a.inliers_ms);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sd = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };
    assert!(
        mean(&down) < 0.6 * mean(&up),
        "down {:.2} ms vs up {:.2} ms: asymmetry missing",
        mean(&down),
        mean(&up)
    );
    assert!(sd(&down) < sd(&up), "decreases should also be tighter");
}

#[test]
fn gh200_has_slow_target_columns() {
    // Fig. 3b: specific *target* frequencies spike into hundreds of ms while
    // the bulk stays low — and the spike is a column (target) property.
    let result = sweep("gh200", 10, 103);
    let cells = worst_cases(&result);
    let slow: Vec<_> = cells.iter().filter(|(_, _, v)| *v > 100.0).collect();
    let fast = cells.iter().filter(|(_, _, v)| *v < 30.0).count();
    assert!(!slow.is_empty(), "no slow cells on GH200");
    assert!(fast > cells.len() / 2, "most GH200 cells should stay fast");
    // Slow cells concentrate on few target columns.
    let mut slow_targets: Vec<u32> = slow.iter().map(|(_, t, _)| *t).collect();
    slow_targets.sort_unstable();
    slow_targets.dedup();
    assert!(
        slow_targets.len() <= 3,
        "slow cells spread over {} targets: {:?}",
        slow_targets.len(),
        slow_targets
    );
}

#[test]
fn gh200_best_cases_are_predictable() {
    // Fig. 3a: "minimum values are way more stable" — best cases sit in a
    // narrow 4-9 ms band off the slow columns.
    let result = sweep("gh200", 8, 104);
    let mut in_band = 0usize;
    let mut total = 0usize;
    for p in result.completed() {
        if let Some(a) = &p.analysis {
            if !a.inliers_ms.is_empty() {
                total += 1;
                if (4.0..9.0).contains(&a.filtered.min) {
                    in_band += 1;
                }
            }
        }
    }
    assert!(
        in_band as f64 >= 0.7 * total as f64,
        "only {in_band}/{total} best cases in the 4-9 ms band"
    );
}

#[test]
fn quadro_is_most_variable_and_slowest_on_average() {
    let quadro = sweep("quadro", 8, 105);
    let a100 = sweep("a100", 8, 105);
    let mean_of = |r: &CampaignResult| {
        let cells = worst_cases(r);
        cells.iter().map(|c| c.2).sum::<f64>() / cells.len() as f64
    };
    let q = mean_of(&quadro);
    let a = mean_of(&a100);
    // Table II: Quadro worst-case mean 81.9 ms vs A100 15.6 ms (~5x). The
    // reduced sweep must preserve at least a 2x gap.
    assert!(q > 2.0 * a, "Quadro mean {q:.1} ms vs A100 {a:.1} ms");
}

#[test]
fn target_frequency_dominates_the_latency() {
    // Sec. VII: "the target frequency has a much higher impact (visible row
    // pattern in the heatmaps)". Group worst cases by target vs by initial:
    // the between-group spread must be larger for targets.
    let result = sweep("quadro", 8, 106);
    let cells = worst_cases(&result);
    let group_spread = |key: fn(&(u32, u32, f64)) -> u32| {
        let mut groups: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for c in &cells {
            groups.entry(key(c)).or_default().push(c.2);
        }
        let means: Vec<f64> = groups
            .values()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        let m = means.iter().sum::<f64>() / means.len() as f64;
        (means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / means.len() as f64).sqrt()
    };
    let by_target = group_spread(|c| c.1);
    let by_initial = group_spread(|c| c.0);
    assert!(
        by_target > 3.0 * by_initial,
        "target spread {by_target:.1} vs initial spread {by_initial:.1}"
    );
}

#[test]
fn outliers_are_a_small_fraction_with_deviant_values() {
    // Sec. V-C: outliers "never exceed a low percentage of the measurements"
    // and deviate significantly from the pattern.
    let result = sweep("gh200", 8, 107);
    for p in result.completed() {
        let a = p.analysis.as_ref().unwrap();
        assert!(
            a.outlier_ratio() <= 0.15,
            "{}->{}: outlier ratio {:.2}",
            p.init_mhz(),
            p.target_mhz(),
            a.outlier_ratio()
        );
    }
}

#[test]
fn multi_cluster_pairs_score_decent_silhouettes() {
    // Sec. VII-B: where 2+ clusters exist, silhouette > 0.4.
    let result = sweep("gh200", 8, 108);
    let mut multi = 0;
    for p in result.completed() {
        let a = p.analysis.as_ref().unwrap();
        if a.n_clusters >= 2 {
            multi += 1;
            let s = a.silhouette.expect("silhouette defined for 2+ clusters");
            assert!(
                s > 0.4,
                "{}->{}: silhouette {s:.2}",
                p.init_mhz(),
                p.target_mhz()
            );
        }
    }
    assert!(multi >= 1, "no multi-cluster pair found on GH200");
}
