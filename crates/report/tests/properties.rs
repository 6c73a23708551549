//! Property-based tests for the reporting layer: five-number summaries,
//! heatmap aggregation, violin densities and table rendering.

use latest_report::{Artifact, BoxStats, Format, Heatmap, TextTable, ViolinSummary};
use proptest::prelude::*;

fn samples(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0e4f64, min_len..200)
}

proptest! {
    // --- boxplot ----------------------------------------------------------------

    #[test]
    fn five_number_summary_is_ordered(xs in samples(1)) {
        let b = BoxStats::of(&xs).expect("non-empty");
        // Quartiles are ordered; whiskers are observations inside the
        // 1.5·IQR fences (the lowest such observation may exceed q1 when
        // the data below the box is sparse, so only fence bounds hold).
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.whisker_lo <= b.whisker_hi + 1e-12);
        let iqr = b.q3 - b.q1;
        prop_assert!(b.whisker_lo >= b.q1 - 1.5 * iqr - 1e-9);
        prop_assert!(b.whisker_hi <= b.q3 + 1.5 * iqr + 1e-9);
    }

    #[test]
    fn fliers_lie_outside_the_whiskers(xs in samples(4)) {
        let b = BoxStats::of(&xs).expect("non-empty");
        for f in &b.fliers {
            prop_assert!(*f < b.whisker_lo || *f > b.whisker_hi);
        }
        // Whiskers stay within the data range.
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(b.whisker_lo >= min - 1e-12 && b.whisker_hi <= max + 1e-12);
    }

    #[test]
    fn flier_count_plus_inliers_is_total(xs in samples(4)) {
        let b = BoxStats::of(&xs).expect("non-empty");
        let inside = xs
            .iter()
            .filter(|x| **x >= b.whisker_lo && **x <= b.whisker_hi)
            .count();
        prop_assert_eq!(inside + b.fliers.len(), xs.len());
    }

    // --- heatmap -----------------------------------------------------------------

    #[test]
    fn heatmap_extremes_bound_every_cell(
        rows in 2usize..10,
        cols in 2usize..10,
        seed in 0u64..1000,
    ) {
        let row_labels: Vec<u32> = (0..rows as u32).collect();
        let col_labels: Vec<u32> = (0..cols as u32).collect();
        let hm = Heatmap::build(&row_labels, &col_labels, |r, c| {
            if (r + c) % 5 == (seed % 5) as u32 {
                None // blanks allowed anywhere
            } else {
                Some(((r * 31 + c * 17 + seed as u32 % 13) % 100) as f64)
            }
        });
        if let (Some((_, _, lo)), Some((_, _, hi))) = (hm.min_cell(), hm.max_cell()) {
            prop_assert!(lo <= hi);
            for (_, _, v) in hm.iter_cells() {
                prop_assert!(v >= lo && v <= hi);
            }
            let mean = hm.mean().expect("cells exist");
            prop_assert!(mean >= lo - 1e-12 && mean <= hi + 1e-12);
        }
    }

    #[test]
    fn combine_subtract_of_self_is_zero(rows in 2usize..8, cols in 2usize..8) {
        let row_labels: Vec<u32> = (0..rows as u32).collect();
        let col_labels: Vec<u32> = (0..cols as u32).collect();
        let hm = Heatmap::build(&row_labels, &col_labels, |r, c| Some((r * cols as u32 + c) as f64));
        let diff = hm.combine(&hm, |a, b| a - b);
        for (_, _, v) in diff.iter_cells() {
            prop_assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn csv_has_one_line_per_row_plus_header(rows in 1usize..12, cols in 1usize..12) {
        let row_labels: Vec<u32> = (0..rows as u32).collect();
        let col_labels: Vec<u32> = (0..cols as u32).collect();
        let hm = Heatmap::build(&row_labels, &col_labels, |_, _| Some(1.0));
        let csv = hm.render(Format::Csv);
        prop_assert_eq!(csv.lines().count(), rows + 1);
        for line in csv.lines().skip(1) {
            prop_assert_eq!(line.split(',').count(), cols + 1);
        }
    }

    // --- violin -------------------------------------------------------------------

    #[test]
    fn violin_density_is_normalised_and_nonnegative(xs in samples(5), bins in 4usize..64) {
        if let Some(v) = ViolinSummary::build("prop", &xs, bins) {
            prop_assert!(!v.density.is_empty());
            prop_assert_eq!(v.density.len(), v.grid.len());
            // Densities are normalised to a unit maximum.
            let max = v.density.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!((max - 1.0).abs() < 1e-9, "density max {max}");
            for d in &v.density {
                prop_assert!(*d >= 0.0 && *d <= 1.0 + 1e-12);
            }
            for w in v.grid.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert!(v.q1 <= v.median && v.median <= v.q3);
        }
    }

    #[test]
    fn violin_mode_count_is_monotone_in_threshold(xs in samples(10)) {
        if let Some(v) = ViolinSummary::build("prop", &xs, 32) {
            let strict = v.mode_count(0.8);
            let loose = v.mode_count(0.1);
            prop_assert!(loose >= strict);
        }
    }

    // --- text table ------------------------------------------------------------------

    #[test]
    fn render_contains_every_cell(cells in prop::collection::vec("[a-z]{1,8}", 1..20)) {
        let mut t = TextTable::with_header(&["col"]);
        for c in &cells {
            t.row(std::slice::from_ref(c));
        }
        let rendered = t.render(Format::Text);
        for c in &cells {
            prop_assert!(rendered.contains(c.as_str()), "missing {c}");
        }
        prop_assert_eq!(t.n_rows(), cells.len());
    }
}
