//! CLI regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run -p dams-bench --release --bin paper-experiments -- all --samples 200
//! cargo run -p dams-bench --release --bin paper-experiments -- fig5 fig6
//! cargo run -p dams-bench --release --bin paper-experiments -- fig4 --max-rs 6
//! ```
//!
//! Output is TSV on stdout, one block per figure, in the same row/series
//! structure the paper reports.

use std::collections::BTreeSet;

use dams_bench::harness::{render, render_fig3, render_fig4, shape_report};
use dams_bench::series;
use dams_core::BfsBudget;

/// Every experiment name the CLI accepts; any other name exits 2.
const NAMES: [&str; 13] = [
    "all", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "eta", "related",
];

struct Args {
    what: BTreeSet<String>,
    samples: usize,
    max_rs: usize,
    check_shapes: bool,
}

fn parse_args() -> Args {
    let mut what = BTreeSet::new();
    let mut samples = 200usize;
    let mut max_rs = 6usize;
    let mut check_shapes = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--samples needs a positive integer"));
            }
            "--max-rs" => {
                max_rs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-rs needs a positive integer"));
            }
            "--check-shapes" => check_shapes = true,
            "--help" | "-h" => {
                println!(
                    "usage: paper-experiments [{}]... [--samples N] [--max-rs N] [--check-shapes]",
                    NAMES.join("|")
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other if NAMES.contains(&other) => {
                what.insert(other.to_string());
            }
            other => die(&format!(
                "unknown experiment {other} (want one of {})",
                NAMES.join(", ")
            )),
        }
    }
    if what.is_empty() {
        what.insert("all".to_string());
    }
    Args {
        what,
        samples,
        max_rs,
        check_shapes,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let all = args.what.contains("all");
    let want = |k: &str| all || args.what.contains(k);
    let mut violations: Vec<String> = Vec::new();

    if want("table2") {
        println!("# table2 — real-data parameter grid (defaults in brackets)");
        println!("c\t0.2 0.4 [0.6] 0.8 1.0");
        println!("l\t20 30 [40] 50 60\n");
    }
    if want("table3") {
        println!("# table3 — synthetic parameter grid (defaults in brackets)");
        println!("|s_i|\t[1,10] [5,15] [[10,20]] [15,25] [20,30]");
        println!("|S|\t10 30 [50] 70 90");
        println!("|F|\t0 5 [10] 15 20");
        println!("sigma\t8 10 [12] 14 16\n");
    }
    if want("fig3") {
        print!("{}", render_fig3(&series::fig3()));
        println!();
    }
    if want("fig4") {
        let pts = series::fig4(args.max_rs, BfsBudget::default(), 42);
        print!("{}", render_fig4(&pts));
        println!();
    }
    if want("related") {
        println!("# related-set growth — global mixin selection vs TokenMagic batching (lambda = 64)");
        println!("rings\tglobal\tbatched");
        for r in series::related_growth(400, 3) {
            println!("{}\t{:.0}\t{:.0}", r.rings, r.global_mean, r.batched_mean);
        }
        println!();
    }
    if want("eta") {
        println!("# eta ablation — feasibility-guard trade-off (60-token batch, 40 spends)");
        println!("eta\tcommitted\tguard_refusals\tfailures\tresolved");
        for r in series::eta_ablation(40, 7) {
            println!(
                "{}\t{}\t{}\t{}\t{}",
                r.eta, r.committed, r.guard_refusals, r.failures, r.resolved_at_end
            );
        }
        println!();
    }
    type FigureRun = (&'static str, fn(usize) -> series::Figure);
    let figure_runs: [FigureRun; 6] = [
        ("fig5", series::fig5),
        ("fig6", series::fig6),
        ("fig7", series::fig7),
        ("fig8", series::fig8),
        ("fig9", series::fig9),
        ("fig10", series::fig10),
    ];
    for (name, run) in figure_runs {
        if want(name) {
            eprintln!("running {name} ({} samples per point)...", args.samples);
            let fig = run(args.samples);
            print!("{}", render(&fig));
            println!();
            if args.check_shapes {
                let report = shape_report(&fig);
                if report.rows_skipped > 0 {
                    eprintln!(
                        "{name}: skipped {} of {} rows (all-failure points)",
                        report.rows_skipped,
                        report.rows_skipped + report.rows_checked
                    );
                }
                violations.extend(report.violations);
            }
        }
    }
    if args.check_shapes {
        if violations.is_empty() {
            eprintln!("shape check: all qualitative claims hold");
        } else {
            eprintln!("shape check: {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
