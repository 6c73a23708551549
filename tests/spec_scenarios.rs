//! The declarative spec layer, end to end: every `SpecError` variant is
//! reachable, builder-accepted specs survive a JSON round-trip unchanged
//! (property-tested), a spec runs bitwise identically from its JSON and as
//! an object, and every checked-in `scenarios/*.json` file parses,
//! validates and resolves.

use latest::core::spec::{
    CampaignSpec, FleetSpec, FreqSelection, ScenarioSpec, SpecCheckpoint, SpecError, SpecErrors,
};
use latest::core::CampaignResult;
use latest::gpu_sim::devices::DeviceRegistry;
use latest::traffic::{TrafficRegistry, TrafficSpec};
use proptest::prelude::*;

// --- one test per SpecError variant ----------------------------------------

fn the_error(result: Result<CampaignSpec, SpecErrors>) -> Vec<SpecError> {
    result.expect_err("spec must be rejected").errors().to_vec()
}

#[test]
fn unknown_device_lists_the_vocabulary() {
    let errs = the_error(
        CampaignSpec::builder("h100")
            .frequencies_mhz(&[705, 1410])
            .build(),
    );
    assert_eq!(errs.len(), 1);
    let SpecError::UnknownDevice { name, known } = &errs[0] else {
        panic!("wrong variant: {errs:?}");
    };
    assert_eq!(name, "h100");
    assert_eq!(known, &["quadro", "a100", "gh200"]);
    // The rendered message carries the vocabulary — the CLI shows it verbatim.
    let msg = errs[0].to_string();
    assert!(msg.contains("quadro") && msg.contains("a100") && msg.contains("gh200"));
}

#[test]
fn unknown_workload_lists_the_vocabulary() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .workload("compute-heavy")
            .build(),
    );
    assert!(
        matches!(&errs[..], [SpecError::UnknownWorkload { name, known }]
            if name == "compute-heavy" && known.contains(&"paper-default".to_string()))
    );
}

#[test]
fn too_few_frequencies_is_rejected() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705])
            .build(),
    );
    assert!(matches!(
        &errs[..],
        [SpecError::TooFewFrequencies { got: 1 }]
    ));
    // The default (empty) selection is equally invalid.
    let errs = the_error(CampaignSpec::builder("a100").build());
    assert!(matches!(
        &errs[..],
        [SpecError::TooFewFrequencies { got: 0 }]
    ));
}

#[test]
fn duplicate_frequency_is_rejected_once_per_value() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410, 705, 705])
            .build(),
    );
    assert!(matches!(
        &errs[..],
        [SpecError::DuplicateFrequency { mhz: 705 }]
    ));
}

#[test]
fn off_ladder_frequency_names_the_device() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1411])
            .build(),
    );
    assert!(
        matches!(&errs[..], [SpecError::OffLadderFrequency { mhz: 1411, device }]
        if device == "NVIDIA A100-SXM4-40GB")
    );
}

#[test]
fn subset_too_small_is_rejected() {
    let errs = the_error(CampaignSpec::builder("gh200").frequency_subset(1).build());
    assert!(matches!(&errs[..], [SpecError::SubsetTooSmall { n: 1 }]));
}

#[test]
fn subset_exceeding_the_ladder_is_rejected() {
    // ladder.subset(n) silently clamps to the whole ladder; the spec layer
    // must reject the typo instead of quietly benchmarking fewer values.
    let errs = the_error(CampaignSpec::builder("a100").frequency_subset(500).build());
    assert!(matches!(
        &errs[..],
        [SpecError::SubsetExceedsLadder { n: 500, steps: 81 }]
    ));
    // The exact ladder size is the boundary case and stays valid.
    assert!(CampaignSpec::builder("a100")
        .frequency_subset(81)
        .build()
        .is_ok());
}

#[test]
fn rse_threshold_out_of_range_is_rejected() {
    for bad in [0.0, 1.0, -0.3, 2.5] {
        let errs = the_error(
            CampaignSpec::builder("a100")
                .frequencies_mhz(&[705, 1410])
                .rse_threshold(bad)
                .build(),
        );
        assert!(
            matches!(&errs[..], [SpecError::RseThresholdOutOfRange { value }] if *value == bad)
        );
    }
}

#[test]
fn zero_min_measurements_is_rejected() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .measurements(0, 50)
            .build(),
    );
    assert!(matches!(&errs[..], [SpecError::ZeroMinMeasurements]));
}

#[test]
fn inverted_measurement_bounds_are_rejected() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .measurements(100, 10)
            .build(),
    );
    assert!(matches!(
        &errs[..],
        [SpecError::MeasurementBoundsInverted { min: 100, max: 10 }]
    ));
}

#[test]
fn zero_simulated_sms_is_rejected() {
    let errs = the_error(
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .simulated_sms(Some(0))
            .build(),
    );
    assert!(matches!(&errs[..], [SpecError::ZeroSimulatedSms]));
    // `None` (all SMs) stays valid.
    assert!(CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .simulated_sms(None)
        .build()
        .is_ok());
}

#[test]
fn empty_fleet_is_rejected() {
    let errs = FleetSpec::new().validate().unwrap_err();
    assert!(matches!(errs.errors(), [SpecError::EmptyFleet]));
}

#[test]
fn fleet_member_violations_carry_the_member_index() {
    let fleet = FleetSpec::new()
        .member(
            CampaignSpec::builder("a100")
                .frequencies_mhz(&[705, 1410])
                .build()
                .unwrap(),
        )
        .member(CampaignSpec::builder("unknown-gpu").build_unchecked());
    let errs = fleet.validate().unwrap_err();
    assert_eq!(errs.errors().len(), 2, "{errs}");
    for e in errs.errors() {
        let SpecError::InMember { index: 1, inner } = e else {
            panic!("wrong variant: {e:?}");
        };
        assert!(matches!(
            **inner,
            SpecError::UnknownDevice { .. } | SpecError::TooFewFrequencies { .. }
        ));
    }
}

// --- property: builder-accepted specs round-trip through JSON ---------------

proptest! {
    /// Any spec the builder accepts must survive JSON serialisation
    /// unchanged — scenario files written by `print-spec` are lossless.
    #[test]
    fn builder_accepted_specs_round_trip_json(
        device_i in 0usize..3,
        selection_kind in 0usize..3,
        n in 2usize..12,
        seed in 0u64..u64::MAX,
        rse in 0.001f64..0.95,
        knobs in (1usize..60, 0usize..100, 0u32..16, 0usize..3),
    ) {
        let (min, extra, sms, workload_i) = knobs;
        let registry = DeviceRegistry::builtin();
        let device = registry.names()[device_i].clone();
        let workload = ["paper-default", "memory-bound", "bursty"][workload_i];

        let mut builder = CampaignSpec::builder(&device)
            .description("prop")
            .seed(seed)
            .rse_threshold(rse)
            .measurements(min, min + extra)
            .simulated_sms(if sms == 0 { None } else { Some(sms) })
            .workload(workload);
        builder = match selection_kind {
            0 => {
                // An on-ladder list: take it from the device's own ladder.
                let ladder = registry.get(&device).unwrap().ladder;
                let mhz: Vec<u32> = ladder.subset(n).iter().map(|f| f.0).collect();
                builder.frequencies_mhz(&mhz)
            }
            1 => builder.frequency_subset(n),
            _ => builder.full_ladder(),
        };
        let spec = builder.build().expect("constructed to be valid");

        let back = CampaignSpec::from_json(&spec.to_json()).expect("round-trip parses");
        prop_assert_eq!(&back, &spec);
        // And the round-tripped spec still validates and resolves.
        prop_assert!(back.validate().is_ok());
        prop_assert!(back.resolve().is_ok());
    }
}

// --- determinism: JSON path == object path ---------------------------------

fn all_latency_bits(result: &CampaignResult) -> Vec<(u32, u32, Vec<u64>)> {
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
fn spec_run_is_bitwise_identical_from_json_and_object() {
    let spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .measurements(6, 12)
        .simulated_sms(Some(2))
        .seed(99)
        .build()
        .unwrap();

    // Path 1: JSON -> spec -> session -> result (the scenario-file path).
    let via_json = CampaignSpec::from_json(&spec.to_json())
        .unwrap()
        .into_session()
        .unwrap()
        .run()
        .unwrap();

    // Path 2: the spec object directly.
    let via_spec = spec.into_session().unwrap().run().unwrap();

    assert_eq!(all_latency_bits(&via_json), all_latency_bits(&via_spec));
    // Post-analysis state must agree too, not just raw latencies.
    for (a, b) in via_json.pairs().iter().zip(via_spec.pairs()) {
        assert_eq!(
            a.filtered_summary().map(|s| s.mean.to_bits()),
            b.filtered_summary().map(|s| s.mean.to_bits())
        );
    }
    assert_eq!(via_json.to_json(), via_spec.to_json());
}

// --- the checked-in scenario catalog ----------------------------------------

fn scenario_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_scenario_parses_validates_and_resolves() {
    let files = scenario_files();
    assert!(files.len() >= 3, "scenario catalog went missing: {files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario =
            ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Serialising the parsed scenario and parsing it back is lossless.
        assert_eq!(
            ScenarioSpec::from_json(&scenario.to_json()).unwrap(),
            scenario,
            "{} round-trip",
            path.display()
        );
        match scenario {
            ScenarioSpec::Campaign(c) => {
                c.resolve()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
            ScenarioSpec::Fleet(f) => {
                f.into_fleet()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
        }
    }
}

// --- the checked-in traffic catalog -----------------------------------------

fn traffic_scenario_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("traffic");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/traffic/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_traffic_scenario_parses_validates_and_generates() {
    let files = traffic_scenario_files();
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    // The govern CLI's examples reference at least these two shapes.
    for required in ["bursty", "deadline"] {
        assert!(
            names.iter().any(|n| n == required),
            "scenarios/traffic/{required}.json is missing: {names:?}"
        );
    }
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            TrafficSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Round-trip is lossless and generation is deterministic per seed.
        assert_eq!(
            TrafficSpec::from_json(&spec.to_json()).unwrap(),
            spec,
            "{} round-trip",
            path.display()
        );
        let trace = spec.generate().unwrap();
        assert!(
            !trace.is_empty(),
            "{} generates no requests",
            path.display()
        );
        let again = spec.generate().unwrap();
        assert_eq!(trace.requests, again.requests, "{}", path.display());
    }
}

#[test]
fn traffic_scenario_files_match_the_builtin_registry() {
    // The files are the registry's builtin specs serialised; keep them in
    // lock-step so `govern run bursty` and `govern run
    // scenarios/traffic/bursty.json` score the same workload.
    let registry = TrafficRegistry::builtin();
    let files = traffic_scenario_files();
    assert_eq!(files.len(), registry.names().len(), "catalog drifted");
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let from_file = TrafficSpec::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let builtin = registry
            .get(&name)
            .unwrap_or_else(|| panic!("{name} is not a builtin traffic spec"));
        assert_eq!(&from_file, builtin, "{} drifted from the builtin", name);
    }
}

#[test]
fn unknown_keys_inside_frequency_maps_are_rejected() {
    let err = CampaignSpec::from_json(
        r#"{"device": "a100", "frequencies": {"subset": 5, "susbet": 18}}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("susbet"), "{err}");
}

#[test]
fn spec_checkpoint_round_trips_spec_and_result() {
    let spec = CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .measurements(4, 8)
        .simulated_sms(Some(2))
        .seed(5)
        .build()
        .unwrap();
    let result = spec.clone().into_session().unwrap().run().unwrap();
    let doc = SpecCheckpoint {
        spec: spec.clone(),
        result,
    };
    let back = SpecCheckpoint::from_json(&doc.to_json()).unwrap();
    // The stored spec is byte-comparable against the effective spec of a
    // rerun — the CLI uses this to refuse mixed-configuration resumes.
    assert_eq!(back.spec, spec);
    assert_ne!(
        back.spec,
        CampaignSpec {
            max_measurements: 150,
            ..spec.clone()
        }
    );
    assert_eq!(back.result.to_json(), doc.result.to_json());
}

#[test]
fn fleet_spec_runs_and_exports_summary_csv() {
    let member = |device: &str, freqs: &[u32], seed: u64| {
        CampaignSpec::builder(device)
            .frequencies_mhz(freqs)
            .measurements(4, 8)
            .simulated_sms(Some(2))
            .seed(seed)
            .build()
            .unwrap()
    };
    let fleet = FleetSpec::new()
        .description("two-device smoke")
        .member(member("a100", &[705, 1410], 11))
        .member(member("gh200", &[705, 1980], 12));

    // The fleet spec round-trips through JSON like campaign specs do.
    let back = FleetSpec::from_json(&fleet.to_json()).unwrap();
    assert_eq!(back, fleet);

    let result = back.into_fleet().unwrap().run().unwrap();
    assert_eq!(result.devices().len(), 2);
    let csv = result.summary_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].starts_with("device_name,"));
    assert!(lines[1].contains("A100"));
    assert!(lines[2].contains("GH200"));
}

#[test]
fn frequency_selections_resolve_against_the_device_ladder() {
    let subset = CampaignSpec::builder("gh200")
        .frequency_subset(6)
        .build()
        .unwrap()
        .resolve()
        .unwrap();
    assert_eq!(subset.frequencies.len(), 6);
    assert!(subset
        .frequencies
        .iter()
        .all(|f| subset.spec.ladder.contains(*f)));

    let ladder = CampaignSpec::builder("a100")
        .full_ladder()
        .build()
        .unwrap()
        .resolve()
        .unwrap();
    assert_eq!(ladder.frequencies.len(), 81);

    // Serialised forms of the three selections.
    assert_eq!(
        CampaignSpec::from_json(r#"{"frequencies": {"subset": 6}}"#)
            .unwrap()
            .frequencies,
        FreqSelection::Subset(6)
    );
    assert_eq!(
        CampaignSpec::from_json(r#"{"frequencies": "ladder"}"#)
            .unwrap()
            .frequencies,
        FreqSelection::Ladder
    );
    assert_eq!(
        CampaignSpec::from_json(r#"{"frequencies": [705, 1410]}"#)
            .unwrap()
            .frequencies,
        FreqSelection::List(vec![705, 1410])
    );
}
