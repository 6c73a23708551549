//! SVG documents behind the figure types' [`Format::Svg`] arms — heatmaps,
//! violins, scatter plots, boxplot groups and monospace text — with no
//! external dependencies.
//!
//! Every document is deterministic (same input → byte-identical output) so
//! figure files can be committed and diffed.
//!
//! [`Format::Svg`]: crate::Format::Svg

use std::fmt::Write as _;

use crate::boxplot::BoxStats;
use crate::heatmap::Heatmap;
use crate::scatter::Scatter;
use crate::violin::{ViolinPair, ViolinSummary};

/// Canvas width in px.
const WIDTH: f64 = 760.0;
/// Canvas height in px.
const HEIGHT: f64 = 560.0;
/// Margin around the plot area in px.
const MARGIN: f64 = 70.0;
/// Label font size in px.
const FONT_PX: f64 = 11.0;
/// Plot-area width in px.
const PLOT_W: f64 = WIDTH - 2.0 * MARGIN;
/// Plot-area height in px.
const PLOT_H: f64 = HEIGHT - 2.0 * MARGIN;
/// Series colours, cycled by violin / cluster index.
const PALETTE: [&str; 6] = [
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
];

/// One complete document: the canvas and bold title, whatever `draw`
/// appends, and the closing tag.
fn document(title: &str, draw: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0}" height="{HEIGHT:.0}" viewBox="0 0 {WIDTH:.0} {HEIGHT:.0}" font-family="sans-serif">"#
    );
    let _ = writeln!(
        out,
        r#"<text x="{MARGIN:.1}" y="{:.1}" font-size="{:.1}" font-weight="bold">{}</text>"#,
        MARGIN * 0.45,
        FONT_PX * 1.3,
        escape(title)
    );
    draw(&mut out);
    out.push_str("</svg>\n");
    out
}

/// Escape the XML structural characters of a text node.
pub(crate) fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Green→yellow→red colour scale over `[0, 1]`, matching the heatmap
/// convention of Fig. 3 (green = fastest, red = slowest).
fn heat_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    let (r, g) = if t < 0.5 {
        // green (0,200,0) -> yellow (255,220,0)
        (255.0 * (t * 2.0), 200.0 + 20.0 * (t * 2.0))
    } else {
        // yellow -> red (220,0,0)
        (
            255.0 - 35.0 * ((t - 0.5) * 2.0),
            220.0 * (1.0 - (t - 0.5) * 2.0),
        )
    };
    format!("rgb({},{},0)", r.round() as u8, g.round() as u8)
}

/// Six right-aligned y-axis tick labels from `lo` to `lo + span`, at the
/// heights `y_of(i)` gives for tick `i`.
fn y_ticks(out: &mut String, lo: f64, span: f64, decimals: usize, y_of: impl Fn(usize) -> f64) {
    for i in 0..=5 {
        let v = lo + span * i as f64 / 5.0;
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="{FONT_PX:.1}" text-anchor="end">{v:.decimals$}</text>"#,
            MARGIN - 6.0,
            y_of(i) + FONT_PX * 0.35,
        );
    }
}

/// A centred axis label under the plot area.
fn x_label(out: &mut String, cx: f64, label: &str) {
    let _ = writeln!(
        out,
        r#"<text x="{cx:.1}" y="{:.1}" font-size="{FONT_PX:.1}" text-anchor="middle">{}</text>"#,
        HEIGHT - MARGIN * 0.4,
        escape(label)
    );
}

/// A [`Heatmap`] (initial frequency in rows, target in columns) under its
/// own title. Blank cells (the diagonal) are left white. Values are
/// colour-scaled on a log axis when the dynamic range exceeds 20×, as the
/// paper's wide-range heatmaps effectively are.
pub(crate) fn heatmap_svg(hm: &Heatmap) -> String {
    document(hm.title(), |out| {
        let (n_rows, n_cols) = (hm.n_rows(), hm.n_cols());
        if n_rows == 0 || n_cols == 0 {
            return;
        }
        let cell_w = PLOT_W / n_cols as f64;
        let cell_h = PLOT_H / n_rows as f64;

        let lo = hm.min_cell().map(|c| c.2).unwrap_or(0.0);
        let hi = hm.max_cell().map(|c| c.2).unwrap_or(1.0);
        let log_scale = lo > 0.0 && hi / lo > 20.0;
        let norm = |v: f64| -> f64 {
            if hi <= lo {
                0.5
            } else if log_scale {
                (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
            } else {
                (v - lo) / (hi - lo)
            }
        };

        for row in 0..n_rows {
            for col in 0..n_cols {
                let x = MARGIN + col as f64 * cell_w;
                let y = MARGIN + row as f64 * cell_h;
                let Some(v) = hm.get(row, col) else {
                    let _ = writeln!(
                        out,
                        r##"<rect x="{x:.1}" y="{y:.1}" width="{cell_w:.1}" height="{cell_h:.1}" fill="white" stroke="#ddd" stroke-width="0.5"/>"##
                    );
                    continue;
                };
                let _ = writeln!(
                    out,
                    r#"<rect x="{x:.1}" y="{y:.1}" width="{cell_w:.1}" height="{cell_h:.1}" fill="{}" stroke="white" stroke-width="0.5"><title>{} -&gt; {}: {v:.3}</title></rect>"#,
                    heat_color(norm(v)),
                    escape(&hm.row_labels[row]),
                    escape(&hm.col_labels[col]),
                );
                // Cell value, shown when cells are big enough to read.
                if cell_w > 30.0 && cell_h > 12.0 {
                    let _ = writeln!(
                        out,
                        r#"<text x="{:.1}" y="{:.1}" font-size="{:.1}" text-anchor="middle">{}</text>"#,
                        x + cell_w / 2.0,
                        y + cell_h / 2.0 + FONT_PX * 0.35,
                        FONT_PX * 0.85,
                        format_value(v)
                    );
                }
            }
        }

        // Axis labels: row labels on the left, column labels on top.
        for (row, label) in hm.row_labels.iter().enumerate() {
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-size="{FONT_PX:.1}" text-anchor="end">{}</text>"#,
                MARGIN - 6.0,
                MARGIN + (row as f64 + 0.5) * cell_h + FONT_PX * 0.35,
                escape(label)
            );
        }
        for (col, label) in hm.col_labels.iter().enumerate() {
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-size="{FONT_PX:.1}" text-anchor="middle">{}</text>"#,
                MARGIN + (col as f64 + 0.5) * cell_w,
                MARGIN - 8.0,
                escape(label)
            );
        }
    })
}

fn format_value(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Pre-formatted monospace text (a table, a boxplot line, a record) as a
/// document — the vector fallback that lets every text-shaped
/// [`Artifact`](crate::Artifact) honour the SVG format. One `<text>`
/// element per non-empty line.
pub(crate) fn text_svg(title: &str, body: &str) -> String {
    document(title, |out| {
        let line_h = FONT_PX * 1.45;
        for (i, line) in body.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                r#"<text x="{MARGIN:.1}" y="{:.1}" font-family="monospace" font-size="{FONT_PX:.1}" xml:space="preserve">{}</text>"#,
                MARGIN + line_h * (i as f64 + 1.0),
                escape(line)
            );
        }
    })
}

/// One violin centred at `cx`: the mirrored density polygon, its median
/// line and its label.
fn draw_violin(
    out: &mut String,
    v: &ViolinSummary,
    cx: f64,
    half_w: f64,
    color: &str,
    y_of: impl Fn(f64) -> f64,
) {
    let right = v
        .grid
        .iter()
        .zip(&v.density)
        .map(|(g, d)| (cx + d * half_w, y_of(*g)));
    let left = v
        .grid
        .iter()
        .zip(&v.density)
        .rev()
        .map(|(g, d)| (cx - d * half_w, y_of(*g)));
    let path: Vec<String> = right
        .chain(left)
        .enumerate()
        .map(|(j, (x, y))| format!("{}{x:.1},{y:.1}", if j == 0 { "M" } else { "L" }))
        .collect();
    let _ = writeln!(
        out,
        r#"<path d="{} Z" fill="{color}" fill-opacity="0.6" stroke="{color}"/>"#,
        path.join(" ")
    );
    let my = y_of(v.median);
    let _ = writeln!(
        out,
        r#"<line x1="{:.1}" y1="{my:.1}" x2="{:.1}" y2="{my:.1}" stroke="black" stroke-width="1.5"/>"#,
        cx - half_w * 0.5,
        cx + half_w * 0.5
    );
    x_label(out, cx, &v.label);
}

/// One violin under its label, filling the plot area.
pub(crate) fn violin_svg(v: &ViolinSummary) -> String {
    document(&v.label, |out| {
        let (Some(&lo), Some(&hi)) = (v.grid.first(), v.grid.last()) else {
            return;
        };
        let y_of = |x: f64| MARGIN + PLOT_H * (1.0 - (x - lo) / (hi - lo).max(1e-12));
        draw_violin(
            out,
            v,
            MARGIN + PLOT_W * 0.5,
            (PLOT_W / 2.2).max(1.0),
            PALETTE[0],
            y_of,
        );
        y_ticks(out, lo, hi - lo, 0, |i| {
            y_of(lo + (hi - lo) * i as f64 / 5.0)
        });
    })
}

/// The Fig. 4 pair (increasing vs decreasing) side by side on a shared
/// latency axis, with horizontal grid lines.
pub(crate) fn violin_pair_svg(pair: &ViolinPair) -> String {
    let (left, right) = (&pair.left, &pair.right);
    document(&pair.title, |out| {
        let first = |v: &ViolinSummary| v.grid.first().copied().unwrap_or(0.0);
        let last = |v: &ViolinSummary| v.grid.last().copied().unwrap_or(1.0);
        let lo = first(left).min(first(right));
        let hi = last(left).max(last(right));
        let y_of = |v: f64| MARGIN + PLOT_H * (1.0 - (v - lo) / (hi - lo).max(1e-12));
        let half_w = PLOT_W / 4.5;
        for (v, center_frac, color) in [(left, 0.3, PALETTE[0]), (right, 0.7, PALETTE[1])] {
            draw_violin(out, v, MARGIN + PLOT_W * center_frac, half_w, color, y_of);
        }
        for i in 0..=5 {
            let v = lo + (hi - lo) * i as f64 / 5.0;
            let y = y_of(v);
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" font-size="{FONT_PX:.1}" text-anchor="end">{v:.0}</text>"#,
                MARGIN - 6.0,
                y + FONT_PX * 0.35,
            );
            let _ = writeln!(
                out,
                r##"<line x1="{MARGIN:.1}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eee"/>"##,
                WIDTH - MARGIN
            );
        }
    })
}

/// A latency scatter (measurement index vs latency, Figs. 5/6) with
/// per-point cluster colours; noise points are drawn as open circles.
pub(crate) fn scatter_svg(s: &Scatter) -> String {
    document(&s.title, |out| {
        let latencies = &s.latencies_ms;
        if latencies.is_empty() {
            return;
        }
        let lo = latencies.iter().cloned().fold(f64::MAX, f64::min);
        let hi = latencies.iter().cloned().fold(f64::MIN, f64::max);
        let span = (hi - lo).max(1e-12);
        for (i, &v) in latencies.iter().enumerate() {
            let x = MARGIN + PLOT_W * i as f64 / latencies.len() as f64;
            let y = MARGIN + PLOT_H * (1.0 - (v - lo) / span);
            match s.cluster_of.get(i).copied().flatten() {
                Some(c) => {
                    let _ = writeln!(
                        out,
                        r#"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="{}"><title>#{i}: {v:.3} ms (cluster {c})</title></circle>"#,
                        PALETTE[c % PALETTE.len()]
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        r##"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="none" stroke="#888"><title>#{i}: {v:.3} ms (outlier)</title></circle>"##
                    );
                }
            }
        }
        y_ticks(out, lo, span, 1, |i| {
            MARGIN + PLOT_H * (1.0 - i as f64 / 5.0)
        });
    })
}

/// Grouped boxplots (Fig. 9: one box per device unit per pair); `groups`
/// is `(label, box)`.
pub(crate) fn boxplot_svg(groups: &[(String, BoxStats)], title: &str) -> String {
    document(title, |out| {
        if groups.is_empty() {
            return;
        }
        let lo = groups
            .iter()
            .map(|(_, b)| b.fliers.iter().cloned().fold(b.whisker_lo, f64::min))
            .fold(f64::MAX, f64::min);
        let hi = groups
            .iter()
            .map(|(_, b)| b.fliers.iter().cloned().fold(b.whisker_hi, f64::max))
            .fold(f64::MIN, f64::max);
        let span = (hi - lo).max(1e-12);
        let y_of = |v: f64| MARGIN + PLOT_H * (1.0 - (v - lo) / span);
        let slot_w = PLOT_W / groups.len() as f64;
        let box_w = slot_w * 0.5;

        for (i, (label, b)) in groups.iter().enumerate() {
            let cx = MARGIN + (i as f64 + 0.5) * slot_w;
            // Whiskers.
            let _ = writeln!(
                out,
                r#"<line x1="{cx:.1}" y1="{:.1}" x2="{cx:.1}" y2="{:.1}" stroke="black"/>"#,
                y_of(b.whisker_lo),
                y_of(b.whisker_hi)
            );
            // Box.
            let _ = writeln!(
                out,
                r##"<rect x="{:.1}" y="{:.1}" width="{box_w:.1}" height="{:.1}" fill="#a6c8ff" stroke="black"/>"##,
                cx - box_w / 2.0,
                y_of(b.q3),
                (y_of(b.q1) - y_of(b.q3)).max(0.5)
            );
            // Median.
            let _ = writeln!(
                out,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black" stroke-width="2"/>"#,
                cx - box_w / 2.0,
                y_of(b.median),
                cx + box_w / 2.0,
                y_of(b.median)
            );
            // Fliers.
            for f in &b.fliers {
                let _ = writeln!(
                    out,
                    r##"<circle cx="{cx:.1}" cy="{:.1}" r="2.5" fill="none" stroke="#666"/>"##,
                    y_of(*f)
                );
            }
            x_label(out, cx, label);
        }
        y_ticks(out, lo, span, 1, |i| y_of(lo + span * i as f64 / 5.0));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Artifact, Format};
    use crate::boxplot::BoxplotGroup;

    fn sample_heatmap() -> Heatmap {
        Heatmap::build(&[705u32, 1095, 1410], &[705u32, 1095, 1410], |r, c| {
            if r == c {
                None
            } else {
                Some((r + c) as f64 / 100.0)
            }
        })
    }

    #[test]
    fn heatmap_svg_is_wellformed_and_complete() {
        let svg = sample_heatmap()
            .with_title("test <map>")
            .render(Format::Svg);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        // 6 filled cells + 3 blank diagonal cells.
        assert_eq!(svg.matches("<rect ").count(), 9);
        // Title is escaped.
        assert!(svg.contains("test &lt;map&gt;"));
        assert!(!svg.contains("<map>"));
    }

    #[test]
    fn heatmap_svg_is_deterministic() {
        let a = sample_heatmap().render(Format::Svg);
        let b = sample_heatmap().render(Format::Svg);
        assert_eq!(a, b);
    }

    #[test]
    fn heat_color_endpoints() {
        assert_eq!(heat_color(0.0), "rgb(0,200,0)");
        assert_eq!(heat_color(1.0), "rgb(220,0,0)");
        // Midpoint is yellow-ish.
        assert_eq!(heat_color(0.5), "rgb(255,220,0)");
    }

    #[test]
    fn violin_pair_svg_draws_two_violins() {
        let up: Vec<f64> = (0..100).map(|i| 10.0 + (i % 10) as f64).collect();
        let down: Vec<f64> = (0..100).map(|i| 5.0 + (i % 5) as f64 * 0.1).collect();
        let l = ViolinSummary::build("increasing", &up, 24).unwrap();
        let r = ViolinSummary::build("decreasing", &down, 24).unwrap();
        let svg = ViolinPair::new("Fig4", l, r).render(Format::Svg);
        assert_eq!(svg.matches("<path ").count(), 2);
        assert!(svg.contains("increasing") && svg.contains("decreasing"));
    }

    #[test]
    fn scatter_svg_marks_outliers_differently() {
        let xs = vec![5.0, 5.1, 4.9, 300.0];
        let clusters = vec![Some(0), Some(0), Some(0), None];
        let svg = Scatter::new("Fig5", xs, clusters).render(Format::Svg);
        assert_eq!(svg.matches("<circle ").count(), 4);
        assert_eq!(svg.matches(r##"fill="none" stroke="#888""##).count(), 1);
    }

    #[test]
    fn boxplot_svg_one_box_per_group() {
        let xs: Vec<f64> = (0..50).map(|i| 5.0 + (i % 7) as f64 * 0.3).collect();
        let mut group = BoxplotGroup::new("Fig9");
        for u in 0..4 {
            group.add(format!("unit {u}"), &xs);
        }
        let svg = group.render(Format::Svg);
        assert_eq!(svg.matches(r##"fill="#a6c8ff""##).count(), 4);
        assert!(svg.contains("unit 3"));
    }

    #[test]
    fn empty_inputs_produce_valid_documents() {
        let documents = [
            Heatmap::new(vec![], vec![]).render(Format::Svg),
            Scatter::new("empty", vec![], vec![]).render(Format::Svg),
            BoxplotGroup::new("empty").render(Format::Svg),
        ];
        for svg in documents {
            assert!(svg.trim_end().ends_with("</svg>"));
        }
    }
}
