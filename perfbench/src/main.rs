//! One spend, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <spend-long|spend-wide|select-exact>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload is generated from the seed
//! before timing starts, measured for `--seconds` (and at least
//! [`MIN_OPS`] ops), and its outputs are checked afterwards. Standard
//! output carries, one JSON object per line: the machine fingerprint, the
//! signature-size row, the deterministic digest, run notes, and last the
//! result. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same calls with spans around every layer call and reports the
//! per-layer metrics. The exit code is non-zero when any output check
//! fails.

mod layers;
mod machine;
mod report;
mod select;
mod spend;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{result_line, Metrics};

/// Every run completes at least this many ops, so a p99 has ten samples
/// beyond it.
pub const MIN_OPS: usize = 1_000;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Ring sizes of the signature-size row.
const SIZE_ROW: (usize, usize) = (2, 32);

pub const WORKLOADS: [&str; 3] = ["spend-long", "spend-wide", "select-exact"];

/// The parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub digest: String,
    pub notes: Vec<String>,
    pub op_us: Vec<f64>,
}

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(RunArgs {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    println!("{}", machine::fingerprint(&root));
    let sizes = select::SizeTable::build(64);
    println!("{}", sizes.row(SIZE_ROW.0, SIZE_ROW.1));

    let outcome = match args.workload.as_str() {
        "spend-long" => spend::run(&spend::SPEND_LONG, &args),
        "spend-wide" => spend::run(&spend::SPEND_WIDE, &args),
        _ => select::run_exact(&args, &sizes),
    };

    println!(
        "{{\"digest\": {{\"workload\": \"{}\", \"seed\": {}, \"value\": {}}}}}",
        args.workload, args.seed, outcome.digest
    );
    println!("{{\"notes\": {{{}}}}}", outcome.notes.join(", "));
    let op = stats::Summary::of(&outcome.op_us);
    eprintln!(
        "{} seed {} trace {}: {} ops attempted, {} failed; op µs {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        op.describe()
    );
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse(&args(&[
            "--workload",
            "spend-long",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("spend-long", 7, 3, true)
        );
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "select-exact", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--seed", "1"])).is_err());
    }
}
