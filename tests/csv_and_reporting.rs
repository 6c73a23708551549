//! Campaign → CSV files → reload → report: the external data path a user of
//! the tool actually exercises (Sec. VI's naming convention included).

mod common;

use std::fs;
use std::sync::Arc;

use latest::core::controller::PairRun;
use latest::core::output::{csv_filename, parse_csv_filename, read_pair_csv, write_pair_csv};
use latest::core::{CampaignSession, CampaignSpec};
use latest::gpu_sim::devices;
use latest::gpu_sim::freq::FreqMhz;
use latest::gpu_sim::transition::FixedTransition;
use latest::report::{Artifact, Format, Heatmap};
use latest::sim_clock::SimDuration;
use proptest::prelude::*;

#[test]
fn campaign_to_csv_to_heatmap_round_trip() {
    let mut device = devices::a100_sxm4();
    device.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(7),
    });
    let config = common::resolve_on(
        device,
        CampaignSpec::builder("fixed")
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(8, 15)
            .simulated_sms(Some(3))
            .hostname("testnode")
            .seed(20),
    );
    let freqs: Vec<u32> = config.frequencies.iter().map(|f| f.0).collect();
    let result = CampaignSession::new(config).run().unwrap();

    // Write every completed pair to the standardised files.
    let dir = std::env::temp_dir().join(format!("latest_rs_it_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let mut written = 0;
    for p in result.completed() {
        let run = p.outcome.run().unwrap();
        let path = write_pair_csv(&dir, run, "testnode", 0).unwrap();
        assert!(path.exists());
        written += 1;
    }
    assert_eq!(written, 6);

    // Re-discover the files purely from their names and rebuild a heatmap.
    let mut hm = Heatmap::build(&freqs, &freqs, |_, _| None);
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let (init, target, host, gpu) = parse_csv_filename(&name).expect("standardised name");
        assert_eq!(host, "testnode");
        assert_eq!(gpu, 0);
        let latencies = read_pair_csv(&dir.join(&name)).unwrap();
        assert!(!latencies.is_empty());
        let row = freqs.iter().position(|&f| f == init.core.0).unwrap();
        let col = freqs.iter().position(|&f| f == target.core.0).unwrap();
        let max = latencies.iter().cloned().fold(f64::MIN, f64::max);
        hm.set(row, col, Some(max));
    }
    fs::remove_dir_all(&dir).ok();

    // The reloaded heatmap must agree with the in-memory campaign.
    for p in result.completed() {
        let row = freqs.iter().position(|&f| f == p.init_mhz()).unwrap();
        let col = freqs.iter().position(|&f| f == p.target_mhz()).unwrap();
        let from_csv = hm.get(row, col).expect("cell filled");
        let run = p.outcome.run().unwrap();
        let in_memory = run.latencies_ms.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (from_csv - in_memory).abs() < 1e-5,
            "{}->{}: csv {from_csv} vs memory {in_memory}",
            p.init_mhz(),
            p.target_mhz()
        );
    }
}

#[test]
fn filename_convention_matches_paper_format() {
    // "the .csv filename contains the initial, the target frequency, the
    // hostname, and the index of the benchmarked GPU"
    let name = csv_filename(FreqMhz(1095), FreqMhz(705), "karolina-acn12", 3);
    assert_eq!(name, "latest_1095MHz_705MHz_karolina-acn12_gpu3.csv");
    let (i, t, h, g) = parse_csv_filename(&name).unwrap();
    assert_eq!(
        (i.core.0, t.core.0, h.as_str(), g),
        (1095, 705, "karolina-acn12", 3)
    );
}

proptest! {
    /// Sec. VI filenames must round-trip for hostile hostnames: underscores
    /// (the separator character), literal `MHz` substrings, `gpu`-shaped
    /// segments, and large GPU indices.
    #[test]
    fn csv_filename_round_trips_hostile_hostnames(
        head in "[a-z0-9][a-z0-9_-]{0,10}",
        tail in "[a-z0-9_-]{0,10}",
        decoration in 0usize..4,
        init in 1u32..4000,
        target in 1u32..4000,
        gpu_index in 0usize..1_000_000_000,
    ) {
        let hostname = match decoration {
            0 => head.clone(),
            1 => format!("{head}_MHz_{tail}"),
            2 => format!("{head}_gpu{tail}"),
            _ => format!("{head}_705MHz_{tail}"),
        };
        let name = csv_filename(FreqMhz(init), FreqMhz(target), &hostname, gpu_index);
        let (i, t, h, g) = parse_csv_filename(&name)
            .unwrap_or_else(|| panic!("unparseable filename {name:?}"));
        prop_assert_eq!(i, FreqMhz(init).into());
        prop_assert_eq!(t, FreqMhz(target).into());
        prop_assert_eq!(h, hostname);
        prop_assert_eq!(g, gpu_index);
    }

    /// Pair CSVs round-trip every latency bit for bit (shortest-round-trip
    /// float formatting; a fixed precision would silently truncate).
    #[test]
    fn pair_csv_round_trips_bit_exact(
        latencies in proptest::collection::vec(1e-4f64..1e4, 1..40),
        seed in 0u64..1000,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("latest_csv_prop_{}_{seed}", std::process::id()));
        let run = PairRun {
            init: FreqMhz(1095).into(),
            target: FreqMhz(705).into(),
            ground_truth_ms: latencies.clone(),
            latencies_ms: latencies,
            retries: 0,
            thermal_events: 0,
            final_rse: 0.02,
            final_bound_ms: 20.0,
        };
        let path = write_pair_csv(&dir, &run, "prophost", 0).unwrap();
        let back = read_pair_csv(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back.len(), run.latencies_ms.len());
        for (a, b) in back.iter().zip(&run.latencies_ms) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn heatmap_csv_export_is_parseable() {
    let freqs = [705u32, 1095];
    let hm = Heatmap::build(&freqs, &freqs, |a, b| {
        if a == b {
            None
        } else {
            Some((a + b) as f64 / 100.0)
        }
    });
    let csv = hm.render(Format::Csv);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    assert!(header.contains("705") && header.contains("1095"));
    // One row per initial frequency, diagonal blank.
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 2);
    assert!(rows[0].starts_with("705,,"));
}
