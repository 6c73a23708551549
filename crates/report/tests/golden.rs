//! Golden-file tests: a fixed seeded campaign rendered in every format
//! must reproduce the committed artefacts byte for byte.
//!
//! The whole paper-artefact bundle of that campaign is pinned under
//! `tests/golden/bundle/`: every figure in all four formats, plus
//! `EXPERIMENTS.md` and `summary.json`.
//!
//! These pin two properties at once: the simulator + methodology are
//! deterministic under a fixed seed, and the rendering pipeline is
//! deterministic given a result. If an intentional change moves the output
//! (new noise model, new figure layout), regenerate with
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p latest-report --test golden
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use latest_core::{CampaignResult, CampaignSpec};
use latest_report::{campaign_summary_table, Artifact, Bundle, Format};

fn fixed_campaign() -> CampaignResult {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .measurements(4, 6)
        .simulated_sms(Some(2))
        .seed(0xC0FFEE)
        .build()
        .unwrap()
        .into_session()
        .unwrap()
        .run()
        .unwrap()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with GOLDEN_UPDATE=1", name));
    assert!(
        rendered == expected,
        "{name} drifted from its golden file; if intentional, regenerate \
         with GOLDEN_UPDATE=1 and review the diff"
    );
}

#[test]
fn fixed_campaign_renders_golden_artifacts_through_every_sink() {
    let result = fixed_campaign();
    let view = latest_core::LatencyView::of(&result).completed();
    let freqs = latest_core::LatencyView::of(&result).frequencies_mhz();
    let heatmap = latest_report::Heatmap::from_view(&view, &freqs, latest_core::PairStat::Max)
        .with_title("golden: worst-case switching latencies [ms]");

    // One golden per format for the heatmap figure...
    for format in Format::ALL {
        let rendered = heatmap.render(format);
        check(&format!("heatmap_max.{}", format.extension()), &rendered);
    }
    // ...and the summary table in the text and CSV formats (the CLI's
    // stdout shape and its machine export).
    let table = campaign_summary_table(&result);
    check("summary_table.txt", &table.render(Format::Text));
    check("summary_table.csv", &table.render(Format::Csv));
}

#[test]
fn fixed_campaign_bundle_matches_its_golden_directory() {
    let files = Bundle::for_campaign(&fixed_campaign()).render_all();
    for (name, content) in &files {
        check(&format!("bundle/{name}"), content);
    }
    // The pinned set is exactly the rendered set: a figure the bundle
    // stops emitting must not linger as a passing golden file.
    let mut rendered: Vec<String> = files.into_iter().map(|(name, _)| name).collect();
    let mut pinned: Vec<String> = std::fs::read_dir(golden_dir().join("bundle"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    rendered.sort();
    pinned.sort();
    assert_eq!(rendered, pinned);
}

#[test]
fn golden_render_is_stable_within_a_process() {
    // The cheap half of the determinism story, independent of the files:
    // two renders of two identically-seeded campaigns agree bitwise.
    let (a, b) = (fixed_campaign(), fixed_campaign());
    let ta = campaign_summary_table(&a);
    let tb = campaign_summary_table(&b);
    for format in Format::ALL {
        assert_eq!(ta.render(format), tb.render(format));
    }
}
