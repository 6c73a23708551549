//! Regenerates **Table II** — summary of switching latencies across GPUs:
//! min/mean/max of the worst-case (per-pair maximum) and best-case
//! (per-pair minimum) latencies, with the frequency pairs achieving the
//! extremes, after outlier removal.

use bench_support::{repro_spec, table2_row, CellStat, Table2Row};
use latest_core::FreqState;
use latest_report::{Artifact, ExperimentRecord, Format, TextTable};

fn fmt_pair(v: (f64, FreqState, FreqState)) -> String {
    format!("{:.3} ({}->{})", v.0, v.1, v.2)
}

fn main() {
    // The paper's three-device sweep, declaratively: device registry names
    // instead of hand-built configs (scenarios/table2.json is the
    // single-device scenario-file counterpart).
    let sweeps = [
        ("quadro", 14usize, 0x7AB2Au64),
        ("a100", 18, 0x7AB2B),
        ("gh200", 18, 0x7AB2C),
    ];

    let mut worst: Vec<Table2Row> = Vec::new();
    let mut best: Vec<Table2Row> = Vec::new();
    for (device, n, seed) in sweeps {
        let result = repro_spec(device, n, seed)
            .into_session()
            .expect("repro spec resolves")
            .run()
            .expect("sweep");
        worst.push(table2_row(&result, CellStat::Max).expect("worst row"));
        best.push(table2_row(&result, CellStat::Min).expect("best row"));
    }

    println!("TABLE II: Summary of switching latencies across GPUs [ms]\n");
    for (title, rows) in [
        ("The worst-case latencies", &worst),
        ("The best-case latencies", &best),
    ] {
        println!("{title}:");
        let mut t = TextTable::with_header(&["Metric", "RTX Quadro 6000", "A100 SXM-4", "GH200"]);
        t.row(&[
            "Min [ms] (pair)".to_string(),
            fmt_pair(rows[0].min),
            fmt_pair(rows[1].min),
            fmt_pair(rows[2].min),
        ]);
        t.row(&[
            "Mean [ms]".to_string(),
            format!("{:.3}", rows[0].mean),
            format!("{:.3}", rows[1].mean),
            format!("{:.3}", rows[2].mean),
        ]);
        t.row(&[
            "Max [ms] (pair)".to_string(),
            fmt_pair(rows[0].max),
            fmt_pair(rows[1].max),
            fmt_pair(rows[2].max),
        ]);
        println!("{}", t.render(Format::Text));
    }

    // Machine-readable paper-vs-measured record.
    let mut rec = ExperimentRecord::new(
        "table2",
        "Summary of switching latencies across GPUs",
        "worst = per-pair max, best = per-pair min, outliers removed (Alg. 3); \
         14/18/18-frequency subsets, RSE 5 %, 25-60 measurements per pair",
    );
    rec.compare(
        "A100 worst-case max [ms]",
        "22.716",
        format!("{:.1}", worst[1].max.0),
        worst[1].max.0 < 40.0,
        "paper: every A100 worst case < 25 ms",
    );
    rec.compare(
        "A100 best-case mean [ms]",
        "5.007",
        format!("{:.2}", best[1].mean),
        (3.0..9.0).contains(&best[1].mean),
        "~5 ms fast path",
    );
    rec.compare(
        "GH200 worst-case max [ms]",
        "477.318",
        format!("{:.0}", worst[2].max.0),
        worst[2].max.0 > 150.0,
        "rare extreme events on slow target columns",
    );
    rec.compare(
        "GH200 best-case min [ms]",
        "4.914",
        format!("{:.2}", best[2].min.0),
        (3.0..8.0).contains(&best[2].min.0),
        "~5-6 ms baseline",
    );
    rec.compare(
        "Quadro worst-case max [ms]",
        "350.436",
        format!("{:.0}", worst[0].max.0),
        worst[0].max.0 > 150.0,
        "slow 930/990 MHz target columns",
    );
    rec.compare(
        "Quadro vs A100 worst mean ratio",
        format!("{:.1}", 81.891 / 15.637),
        format!("{:.1}", worst[0].mean / worst[1].mean),
        worst[0].mean > 2.0 * worst[1].mean,
        "Quadro an order of magnitude slower on average",
    );
    println!("{}", rec.render(Format::Text));
    if !rec.all_shapes_hold() {
        eprintln!("WARNING: some qualitative shapes did NOT hold — inspect above");
        std::process::exit(1);
    }
}
