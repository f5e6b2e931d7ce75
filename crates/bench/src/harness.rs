//! Printing and shape-checking for the experiment series: render every
//! figure as the paper's rows (TSV) and verify the qualitative "who wins,
//! which direction" claims the reproduction is held to (see DESIGN.md).

use std::fmt::Write as _;

use crate::series::{Figure, APPROACHES};

/// Render a figure as a TSV table: `x  <alg>_size  <alg>_us ...`.
pub fn render(figure: &Figure) -> String {
    let mut out = String::new();
    let _ = write!(out, "# {} — x axis: {}\n{}", figure.name, figure.x_axis, figure.x_axis);
    for alg in APPROACHES {
        let _ = write!(out, "\t{}_size\t{}_us", alg.label(), alg.label());
    }
    out.push('\n');
    for row in &figure.rows {
        let _ = write!(out, "{}", row.x);
        for p in &row.points {
            let _ = write!(out, "\t{:.2}\t{:.1}", p.mean_size, p.mean_micros);
        }
        out.push('\n');
    }
    out
}

/// Outcome of checking one figure's qualitative claims: the failures plus
/// an account of how many rows actually carried data. Skipped rows are
/// reported, not silently dropped, so a figure whose every point failed
/// to produce a ring cannot pass the shape check vacuously.
#[derive(Debug, Clone, Default)]
pub struct ShapeReport {
    /// Failed claims, as human-readable text.
    pub violations: Vec<String>,
    /// Rows whose size columns were all present (Claim 1 evaluated).
    pub rows_checked: usize,
    /// Rows skipped because some algorithm had no successes (NaN size).
    pub rows_skipped: usize,
}

/// Check the qualitative claims a measured figure must satisfy (one per
/// figure; see DESIGN.md's shape table), with the row accounting exposed
/// so callers can print how much of the figure was actually checked.
pub fn shape_report(figure: &Figure) -> ShapeReport {
    let mut report = ShapeReport::default();
    let issues = &mut report.violations;
    // Claim 1 (all figures): TM_G <= TM_P < TM_S and TM_R on mean size,
    // checked row-wise with a small tolerance for sampling noise.
    for row in &figure.rows {
        let size = |i: usize| row.points[i].mean_size;
        // indices in APPROACHES: 0 = TM_S, 1 = TM_R, 2 = TM_P, 3 = TM_G
        let (s, r, p, g) = (size(0), size(1), size(2), size(3));
        if [s, r, p, g].iter().any(|v| v.is_nan()) {
            // All-failure points carry no size information — but they are
            // counted, and an all-skipped figure fails below.
            report.rows_skipped += 1;
            continue;
        }
        report.rows_checked += 1;
        let tol = 1.05;
        if g > p * tol {
            issues.push(format!(
                "{} x={}: TM_G ({g:.1}) larger than TM_P ({p:.1})",
                figure.name, row.x
            ));
        }
        if p > s * tol || p > r * tol {
            issues.push(format!(
                "{} x={}: TM_P ({p:.1}) not below baselines (TM_S {s:.1}, TM_R {r:.1})",
                figure.name, row.x
            ));
        }
    }
    // Vacuity guard: a non-empty figure where every row was skipped has
    // demonstrated nothing — surface that as a violation instead of an
    // accidental pass.
    if !figure.rows.is_empty() && report.rows_checked == 0 {
        issues.push(format!(
            "{}: all {} rows skipped (every point has a NaN size) — shape claims vacuous",
            figure.name, report.rows_skipped
        ));
    }
    // Claim 2 (monotone direction of the proposed algorithms' size curve).
    let dir = match figure.name {
        "fig5" | "fig7" => Some(Direction::Decreasing),
        "fig6" => Some(Direction::Increasing),
        "fig8" | "fig10" => Some(Direction::Decreasing),
        "fig9" => Some(Direction::Increasing),
        _ => None,
    };
    if let Some(dir) = dir {
        for (ai, alg) in APPROACHES.iter().enumerate() {
            // TM_R is exempt where the paper says it stays flat.
            if alg.label() == "TM_R" && matches!(figure.name, "fig8" | "fig10") {
                continue;
            }
            let sizes: Vec<f64> = figure
                .rows
                .iter()
                .map(|r| r.points[ai].mean_size)
                .filter(|v| !v.is_nan())
                .collect();
            if sizes.len() < 2 {
                continue;
            }
            let first = sizes.first().copied().expect("len checked");
            let last = sizes.last().copied().expect("len checked");
            let ok = match dir {
                Direction::Decreasing => last <= first * 1.02,
                Direction::Increasing => last >= first * 0.98,
            };
            if !ok {
                issues.push(format!(
                    "{} {}: size curve direction wrong (first {first:.1}, last {last:.1}, expected {dir:?})",
                    figure.name,
                    alg.label()
                ));
            }
        }
    }
    report
}

#[derive(Debug, Clone, Copy)]
enum Direction {
    Increasing,
    Decreasing,
}

/// Render the Figure 4 sequence.
pub fn render_fig4(points: &[crate::series::Fig4Point]) -> String {
    let mut out = String::from("# fig4 — TM_B per-RS generation time\nrs_index\tmicros\tring_size\n");
    for p in points {
        let _ = writeln!(
            out,
            "{}\t{:.1}\t{}",
            p.rs_index,
            p.micros,
            p.ring_size.map_or("-".to_string(), |s| s.to_string())
        );
    }
    out
}

/// Render Figure 3.
pub fn render_fig3(hist: &[(usize, usize)]) -> String {
    let mut out = String::from("# fig3 — outputs per transaction (simulated Monero snapshot)\noutputs\ttransactions\n");
    for (o, n) in hist {
        let _ = writeln!(out, "{o}\t{n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{fig8, FigureRow, MeasuredPoint};

    fn point(size: f64) -> MeasuredPoint {
        MeasuredPoint {
            mean_size: size,
            mean_micros: 1.0,
            successes: 1,
            failures: 0,
        }
    }

    #[test]
    fn render_contains_headers_and_rows() {
        let fig = Figure {
            name: "fig5",
            x_axis: "c",
            rows: vec![FigureRow {
                x: "0.2".into(),
                points: vec![point(10.0), point(11.0), point(8.0), point(7.0)],
            }],
        };
        let s = render(&fig);
        assert!(s.contains("TM_S_size"));
        assert!(s.contains("TM_G_us"));
        assert!(s.contains("0.2\t10.00"));
    }

    #[test]
    fn shape_checker_flags_inversions() {
        let fig = Figure {
            name: "fig5",
            x_axis: "c",
            rows: vec![FigureRow {
                x: "0.2".into(),
                // TM_G larger than TM_P → violation
                points: vec![point(10.0), point(11.0), point(8.0), point(9.5)],
            }],
        };
        assert!(!shape_report(&fig).violations.is_empty());
    }

    #[test]
    fn shape_checker_accepts_expected_order() {
        let fig = Figure {
            name: "fig5",
            x_axis: "c",
            rows: vec![FigureRow {
                x: "0.2".into(),
                points: vec![point(12.0), point(13.0), point(9.0), point(8.0)],
            }],
        };
        assert!(shape_report(&fig).violations.is_empty());
    }

    fn nan_point() -> MeasuredPoint {
        MeasuredPoint {
            mean_size: f64::NAN,
            mean_micros: f64::NAN,
            successes: 0,
            failures: 1,
        }
    }

    #[test]
    fn all_nan_figure_cannot_pass_vacuously() {
        let fig = Figure {
            name: "fig5",
            x_axis: "c",
            rows: vec![
                FigureRow {
                    x: "0.2".into(),
                    points: vec![nan_point(), nan_point(), nan_point(), nan_point()],
                },
                FigureRow {
                    x: "0.4".into(),
                    points: vec![point(10.0), point(11.0), nan_point(), point(7.0)],
                },
            ],
        };
        let report = shape_report(&fig);
        assert_eq!(report.rows_checked, 0);
        assert_eq!(report.rows_skipped, 2);
        assert!(
            report.violations.iter().any(|v| v.contains("vacuous")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn partially_nan_figure_counts_skips_without_failing() {
        let fig = Figure {
            name: "fig5",
            x_axis: "c",
            rows: vec![
                FigureRow {
                    x: "0.2".into(),
                    points: vec![nan_point(), nan_point(), nan_point(), nan_point()],
                },
                FigureRow {
                    x: "0.4".into(),
                    points: vec![point(12.0), point(13.0), point(9.0), point(8.0)],
                },
            ],
        };
        let report = shape_report(&fig);
        assert_eq!(report.rows_checked, 1);
        assert_eq!(report.rows_skipped, 1);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    #[ignore = "slow: runs a real two-sample sweep"]
    fn real_sweep_renders() {
        let fig = fig8(2);
        let s = render(&fig);
        assert!(s.lines().count() >= 6);
    }
}
