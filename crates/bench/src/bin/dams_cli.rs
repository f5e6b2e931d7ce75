//! `dams-cli` — a demonstration command line for the DA-MS stack.
//!
//! ```text
//! dams-cli select  --algorithm tm_g --c 0.6 --l 20 --target 5 [--seed N]
//! dams-cli attack  --rings "1,2;1,2;2,3"
//! dams-cli audit   --spends 5 [--seed N]
//! dams-cli hardness --rings "1,2;1,2;2,3,4"
//! dams-cli bench   [--out BENCH_baseline.json] [--selection-out BENCH_selection.json] [--seed N]
//! dams-cli bench --anonymity [--seed N] [--out BENCH_anonymity.json] [--report ANON_report.txt]
//! dams-cli run     --store-dir DIR [--blocks N] [--seed N] [--crash-after-appends N]
//! dams-cli recover --store-dir DIR
//! dams-cli serve-sim [--seed N] [--workers N] [--requests N] [--loads "1,2,4"] [--out BENCH_overload.json]
//! dams-cli serve-sim --soak [--seed N] [--tokens N] [--requests N] [--out BENCH_soak.json]
//! dams-cli serve --real [--seed N] [--workers N] [--requests N] [--loads "1,2,4"] [--transport duplex|tcp]
//!                [--tenants N] [--out BENCH_runtime.json] [--diff-report DIFF_report.txt] [--trace-out FILE]
//! dams-cli cluster-sim [--seed N] [--node-counts "1,3,5"] [--out BENCH_cluster.json] [--report CLUSTER_report.txt]
//! dams-cli cluster-sim --byzantine [--seed N] [--honest N] [--max-f N] [--out BENCH_byzantine.json] [--report BYZ_report.txt]
//! ```
//!
//! * `select` — generate a synthetic batch (Table 3 defaults) and run one
//!   mixin selection, printing the ring, its HT histogram, and work stats.
//! * `attack` — run chain-reaction analysis on literal rings ("t,t;t,t"
//!   syntax) and print per-ring candidates.
//! * `audit` — simulate sequential spends on a batch and print the final
//!   anonymity report.
//! * `hardness` — count the token–RS combinations (possible worlds) of
//!   literal rings via the Theorem 3.1 reduction.
//! * `bench` — run a representative workload across every selection
//!   algorithm, the degrade ladder, and the five-node cluster scenario,
//!   then write the full metrics snapshot to a JSON baseline file. Also
//!   runs the selection perf figure (optimized engines vs. seed
//!   references) and writes its rows to `--selection-out`. With
//!   `--anonymity` it instead replays the seeded adversary suite (cascade
//!   taint, guess-newest, closed-set graph matching) over realistic chains at
//!   each degrade-ladder tier's measured ring size, under both baseline
//!   and attack-aware sampling, at adversary strengths `f = 0..=3`;
//!   then runs the 64-seed floor-gated admission sweep (frontend +
//!   overloaded service). Writes the per-cell rows and tier score
//!   calibration to `--out` and the grep-able per-cell report (ends in
//!   a `verdict:` line) to `--report`; exits non-zero unless every
//!   declared `Tier::anonymity_score` is backed by measurement,
//!   attack-aware sampling never loses to baseline at equal
//!   (tier, strength), and no floored request was answered below its
//!   floor (violations shed as the typed `ShedReason::AnonymityFloor`).
//! * `run` — mine coinbase blocks up to height `--blocks` into a durable
//!   on-disk store
//!   (`wal.bin` + `checkpoint.bin` under `--store-dir`): each block is
//!   WAL-appended and fsynced before the next is mined, with periodic
//!   checksummed checkpoints. Re-running resumes from the recovered
//!   state and mines only the missing heights. Block contents are derived from `--seed` and the block
//!   height alone, so any two runs with one seed build byte-identical
//!   WAL prefixes — the property the crash-recovery gate diffs.
//!   `--crash-after-appends N` simulates power loss: the process aborts
//!   midway through the (N+1)-th WAL write, leaving a torn record.
//! * `recover` — open the store under `--store-dir`, replay
//!   `checkpoint + WAL tail`, and print the recovery report. Exits 0
//!   only when recovery is clean (no corruption, every recovered ring
//!   signature still satisfies its claimed diversity); torn tails from
//!   crashes are truncated and reported, corruption exits non-zero.
//! * `serve-sim` — replay the seeded overload harness (`dams-svc`): a
//!   deterministic multi-worker selection service with admission control,
//!   deadline propagation, and circuit breaking, driven by a bursty
//!   open-loop arrival ramp at each `--loads` multiple of calibrated
//!   capacity (with injected worker stalls), then write the per-load rows
//!   (goodput, typed sheds, latency quantiles) to `--out`. With `--soak`
//!   it instead runs the streaming soak: grow a chain decade by decade to
//!   `--tokens` through the incremental diversity index while serving
//!   `--requests` selections per decade through one frontend, write the
//!   per-phase rows to `--out` (default `BENCH_soak.json`), and exit
//!   non-zero unless p99 work and per-block maintenance stay flat.
//!   `--tokens` accepts only the published decade sizes and errors on
//!   anything else — a silently clamped size would mislabel the
//!   measurement.
//! * `serve --real` — run the *real* concurrent runtime front end: the
//!   same seeded trace a `serve-sim` scenario would replay is exported
//!   to the wire (length-prefixed self-authenticating frames over an
//!   in-process duplex pipe or loopback TCP), decoded and served by the
//!   virtual-tick `Service` behind the wire on the same work-tick clock,
//!   and diffed against the `Service` model at each `--loads` multiple.
//!   Writes the grep-able differential report (`--diff-report`, ends
//!   `verdict: MATCH` or `verdict: DIVERGED`) and the sim-vs-real ramp
//!   rows (`--out`); exits non-zero unless every load point matches.
//! * `cluster-sim` — run the partition-tolerant replication scenario
//!   (`dams-node`) at each `--node-counts` size (positive sizes only):
//!   gossip dissemination under the default fault model, a minority
//!   partition healed mid-run, a crash/restart recovered from the
//!   replica's own store plus a peer WAL-tail stream, and a late joiner
//!   bootstrapped from a checkpoint bundle (O(tail) verification). Writes
//!   per-size rows (convergence ticks, height, catch-up split, blocks
//!   served) to `--out` and the full per-size convergence reports to
//!   `--report`; exits non-zero unless every size converges.
//!   One `--seed` and size always reproduce the same run.
//!   With `--byzantine` it instead runs the adversarial-peer gauntlet:
//!   at each strength `f = 0..=--max-f`, the standard adversary mix
//!   (equivocator, spammer, withholder, ring-poisoner) joins `--honest`
//!   honest replicas on a lossless transport; the run must converge at
//!   the adversary-free height with every Byzantine peer banned, no
//!   poisoned ring adopted, and selection verdicts byte-identical to the
//!   same-seed adversary-free run. Writes per-strength rows (goodput vs.
//!   baseline, offense tallies, bans) to `--out` and the concatenated
//!   Byzantine reports (each ending in a grep-able `verdict:` line) to
//!   `--report`; exits non-zero unless every strength is defended.
//! * `--metrics text|json` — after any command, print the process-wide
//!   metrics snapshot in deterministic mode (timers show only counts), so
//!   two runs with the same seed emit byte-identical output.
//!
//! Each command reads the flags listed above for it plus `--seed` and
//! `--metrics`. Any other `--` argument exits 2 with an error naming it,
//! as a malformed value of a known flag does.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{
    select_with_ladder_exec, BfsBudget, CoreMetrics, Instance, LadderExec, PracticalAlgorithm,
    SelectionPolicy, Tier, TokenMagic,
};
use dams_diversity::{
    analyze, matching::reduction_graph, DiversityRequirement, HtHistogram, HtId, RingIndex,
    RingSet, TokenId, TokenUniverse,
};
use dams_obs::json::{Document, Object, Value};
use dams_obs::Mode;
use dams_workload::{simulate_batch, SimulationConfig, SyntheticConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
    };
    let get = |name: &str| flag::<String>(&args, name);
    let seed: u64 = flag(&args, "--seed").unwrap_or(42);
    let metrics_format = parse_metrics_flag(&args);

    match cmd.as_str() {
        "select" => {
            accept_flags(&args, &["--algorithm", "--c", "--l", "--target"], &[]);
            let algorithm = match get("--algorithm").as_deref() {
                Some("tm_s") => PracticalAlgorithm::Smallest,
                Some("tm_r") => PracticalAlgorithm::Random,
                Some("tm_p") | None => PracticalAlgorithm::Progressive,
                Some("tm_g") => PracticalAlgorithm::GameTheoretic,
                Some(other) => die(&format!("unknown algorithm {other}")),
            };
            let c: f64 = flag(&args, "--c").unwrap_or(0.6);
            let l: usize = flag(&args, "--l").unwrap_or(20);
            let Some(req) = dams_store::claimed_requirement(c, l) else {
                die(&format!(
                    "select needs --c > 0 and --l >= 1, got --c {c} --l {l}"
                ));
            };
            let target: u32 = flag(&args, "--target").unwrap_or(0);
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = SyntheticConfig::default().generate(&mut rng);
            println!(
                "batch: {} tokens, {} super RSs, {} fresh, {} HTs",
                instance.universe.len(),
                instance.super_count(),
                instance.fresh_count(),
                instance.universe.distinct_hts()
            );
            let tm = TokenMagic::new(algorithm, SelectionPolicy::new(req));
            match tm.select_for(&instance, TokenId(target), &mut rng) {
                Ok(sel) => {
                    let hist = HtHistogram::from_ring(&sel.ring, &instance.universe);
                    println!(
                        "{}: ring of {} tokens over {} HTs (q = {:?})",
                        tm.algorithm.label(),
                        sel.size(),
                        hist.theta(),
                        &hist.frequencies()[..hist.theta().min(8)]
                    );
                    println!(
                        "work: {} diversity checks, {} iterations",
                        sel.stats.diversity_checks, sel.stats.iterations
                    );
                }
                Err(e) => println!("selection failed: {e}"),
            }
        }
        "attack" => {
            accept_flags(&args, &["--rings"], &[]);
            let rings = parse_rings(&get("--rings").unwrap_or_else(|| die("--rings required")));
            let idx = RingIndex::from_rings(rings);
            let analysis = analyze(&idx, &[]);
            for (rs, candidates) in &analysis.candidates {
                let status = if candidates.len() == 1 {
                    " ← RESOLVED"
                } else {
                    ""
                };
                println!(
                    "r{}: candidates {:?}{status}",
                    rs.0,
                    candidates.iter().map(|t| t.0).collect::<Vec<_>>()
                );
            }
            println!(
                "provably consumed somewhere: {:?}",
                analysis
                    .consumed_somewhere
                    .iter()
                    .map(|t| t.0)
                    .collect::<Vec<_>>()
            );
        }
        "audit" => {
            accept_flags(&args, &["--spends"], &[]);
            let spends: usize = flag(&args, "--spends").unwrap_or(5);
            let universe = dams_diversity::TokenUniverse::new(
                (0..60u32).map(|i| dams_diversity::HtId(i / 3)).collect(),
            );
            let out = simulate_batch(
                &universe,
                SimulationConfig {
                    algorithm: PracticalAlgorithm::Progressive,
                    policy: SelectionPolicy::new(DiversityRequirement::new(1.0, 5)),
                    eta: 0.0,
                    spends,
                    seed,
                },
            );
            println!(
                "committed {} of {spends} spends (mean ring {:.1}); {} linkable",
                out.committed, out.mean_ring_size, out.resolved_at_end
            );
        }
        "hardness" => {
            accept_flags(&args, &["--rings"], &[]);
            let rings = parse_rings(&get("--rings").unwrap_or_else(|| die("--rings required")));
            let idx = RingIndex::from_rings(rings);
            let ids: Vec<_> = idx.ids().collect();
            let (graph, tokens) = reduction_graph(&idx, &ids);
            let worlds = graph.enumerate_matchings().len();
            println!(
                "{} rings over {} tokens → {} possible worlds (token-RS combinations)",
                ids.len(),
                tokens.len(),
                worlds
            );
            println!("counting these is the #P-complete EPMBG problem of Theorem 3.1");
        }
        "run" => {
            accept_flags(
                &args,
                &["--store-dir", "--blocks", "--crash-after-appends"],
                &[],
            );
            let dir = get("--store-dir").unwrap_or_else(|| die("--store-dir required"));
            let blocks: u64 = flag(&args, "--blocks").unwrap_or(8);
            let crash_after: Option<u64> = flag(&args, "--crash-after-appends");
            run_durable(&dir, blocks, seed, crash_after);
        }
        "recover" => {
            accept_flags(&args, &["--store-dir"], &[]);
            let dir = get("--store-dir").unwrap_or_else(|| die("--store-dir required"));
            let clean = recover_report(&dir);
            print_metrics(metrics_format);
            if !clean {
                std::process::exit(1);
            }
            return;
        }
        "serve-sim" if args.iter().any(|a| a == "--soak") => {
            accept_flags(&args, &["--out", "--requests", "--tokens"], &["--soak"]);
            let out = get("--out").unwrap_or_else(|| "BENCH_soak.json".into());
            let requests: usize = flag(&args, "--requests").unwrap_or(200);
            let max_tokens = supported_tokens(flag(&args, "--tokens"));
            let phases: Vec<u64> = SUPPORTED_TOKEN_SIZES
                .iter()
                .copied()
                .filter(|&n| n <= max_tokens)
                .collect();
            let cfg = dams_svc::SoakConfig {
                seed,
                phases,
                requests_per_phase: requests,
                ..dams_svc::SoakConfig::default()
            };
            let report = dams_svc::run_soak(&cfg);
            for p in &report.phases {
                println!(
                    "{} tokens ({} blocks, {} batches): {} served / {} shed | \
                     maintenance ops max {} mean {:.1} | work p50 {} p99 {}",
                    p.tokens,
                    p.blocks,
                    p.batches,
                    p.completed,
                    p.shed,
                    p.max_block_ops,
                    p.mean_block_ops,
                    p.p50_work,
                    p.p99_work,
                );
            }
            let p99_flat = report.p99_flat(dams_svc::P99_TOLERANCE);
            let maintenance_flat = report.maintenance_flat(dams_svc::MAINTENANCE_TOLERANCE);
            let json = dams_svc::render_soak_json(&cfg, &report);
            if let Err(e) = std::fs::write(&out, &json) {
                die(&format!("cannot write {out}: {e}"));
            }
            println!(
                "wrote {out} ({} phases) — p99 flat: {p99_flat}, maintenance flat: \
                 {maintenance_flat}",
                report.phases.len()
            );
            print_metrics(metrics_format);
            if !(p99_flat && maintenance_flat) {
                std::process::exit(1);
            }
            return;
        }
        "serve-sim" => {
            accept_flags(&args, &["--out", "--workers", "--requests", "--loads"], &[]);
            let out = get("--out").unwrap_or_else(|| "BENCH_overload.json".into());
            let workers: usize = flag(&args, "--workers").unwrap_or(2);
            let requests: u64 = flag(&args, "--requests").unwrap_or(96);
            let loads: Vec<f64> = get("--loads")
                .unwrap_or_else(|| "0.5,1,2,4".into())
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad load multiple {v}")))
                })
                .collect();
            if loads.is_empty() {
                die("--loads needs at least one multiple");
            }
            let base = dams_svc::OverloadConfig {
                seed,
                workers,
                requests,
                ..dams_svc::OverloadConfig::default()
            };
            let rows = dams_svc::run_ramp(&base, &loads);
            for (load, r) in &rows {
                println!(
                    "load {load:.2}x: offered {} completed {} (goodput {:.2}) shed \
                     {}+{}+{} (queue/deadline/circuit) p99 latency {} ticks",
                    r.offered,
                    r.completed,
                    r.goodput(),
                    r.shed_queue_full,
                    r.shed_deadline_infeasible,
                    r.shed_circuit_open,
                    r.p99_latency_ticks
                );
            }
            let json = dams_svc::render_bench_json(&base, &rows);
            if let Err(e) = std::fs::write(&out, &json) {
                die(&format!("cannot write {out}: {e}"));
            }
            println!("wrote {out} ({} load points)", rows.len());
        }
        "serve" => {
            let values = [
                "--out",
                "--diff-report",
                "--workers",
                "--requests",
                "--tenants",
                "--transport",
                "--loads",
                "--trace-out",
            ];
            accept_flags(&args, &values, &["--real"]);
            if !args.iter().any(|a| a == "--real") {
                die("serve requires --real (the model-only replay is `serve-sim`)");
            }
            let out = get("--out").unwrap_or_else(|| "BENCH_runtime.json".into());
            let report_out = get("--diff-report").unwrap_or_else(|| "DIFF_report.txt".into());
            let workers: usize = flag(&args, "--workers").unwrap_or(2);
            let requests: u64 = flag(&args, "--requests").unwrap_or(96);
            let tenants: u64 = flag(&args, "--tenants").unwrap_or(3);
            let transport = match get("--transport").as_deref() {
                Some("tcp") => dams_svc::Transport::Tcp,
                Some("duplex") | None => dams_svc::Transport::Duplex,
                Some(other) => die(&format!("unknown transport {other} (want duplex|tcp)")),
            };
            let loads: Vec<f64> = get("--loads")
                .unwrap_or_else(|| "1,2,4".into())
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad load multiple {v}")))
                })
                .collect();
            if loads.is_empty() {
                die("--loads needs at least one multiple");
            }
            let base = dams_svc::OverloadConfig {
                seed,
                workers,
                requests,
                ..dams_svc::OverloadConfig::default()
            };
            let mut rows: Vec<(f64, dams_svc::DiffOutcome)> = Vec::new();
            for &load in &loads {
                let cfg = dams_svc::DiffConfig {
                    overload: dams_svc::OverloadConfig { load, ..base },
                    transport,
                    tenants,
                };
                let o = dams_svc::run_differential(&cfg)
                    .unwrap_or_else(|e| die(&format!("runtime at load {load}x failed: {e}")));
                println!(
                    "load {load:.2}x [{transport}]: sim goodput {:.2} vs real {:.2} | \
                     offered {} | real completed {} shed {} | wire {} frames, {} responses \
                     ({} dup) | {}",
                    o.sim.goodput(),
                    o.real.svc.goodput(),
                    o.real.svc.offered,
                    o.real.svc.completed,
                    o.real.svc.shed_total(),
                    o.real.frames_received,
                    o.real.client.responses,
                    o.real.client.duplicates,
                    if o.report.matched() {
                        "MATCH"
                    } else {
                        "DIVERGED"
                    },
                );
                rows.push((load, o));
            }
            if let Some(trace_out) = get("--trace-out") {
                // The first load point's wire trace, replayable as-is.
                if let Err(e) = std::fs::write(&trace_out, &rows[0].1.trace_text) {
                    die(&format!("cannot write {trace_out}: {e}"));
                }
                println!("wrote {trace_out}");
            }
            let reports: Vec<dams_svc::DiffReport> =
                rows.iter().map(|(_, o)| o.report.clone()).collect();
            let report_text = dams_svc::render_multi(&reports);
            if let Err(e) = std::fs::write(&report_out, &report_text) {
                die(&format!("cannot write {report_out}: {e}"));
            }
            let json = dams_svc::render_runtime_bench_json(&base, &rows);
            if let Err(e) = std::fs::write(&out, &json) {
                die(&format!("cannot write {out}: {e}"));
            }
            let all_match = reports.iter().all(dams_svc::DiffReport::matched);
            println!(
                "wrote {out} ({} load points) and {report_out} — overall verdict: {}",
                rows.len(),
                if all_match { "MATCH" } else { "DIVERGED" },
            );
            print_metrics(metrics_format);
            if !all_match {
                std::process::exit(1);
            }
            return;
        }
        "cluster-sim" if args.iter().any(|a| a == "--byzantine") => {
            let values = ["--out", "--report", "--honest", "--max-f"];
            accept_flags(&args, &values, &["--byzantine"]);
            let out = get("--out").unwrap_or_else(|| "BENCH_byzantine.json".into());
            let report_out = get("--report").unwrap_or_else(|| "BYZ_report.txt".into());
            let honest: usize = flag(&args, "--honest").unwrap_or(4);
            let max_f: usize = flag(&args, "--max-f").unwrap_or(3);
            if honest <= max_f {
                die("--honest must exceed --max-f (the defense assumes an honest majority)");
            }
            let ok = run_byzantine_sim(seed, honest, max_f, &out, &report_out);
            print_metrics(metrics_format);
            if !ok {
                std::process::exit(1);
            }
            return;
        }
        "cluster-sim" => {
            accept_flags(&args, &["--out", "--report", "--node-counts"], &[]);
            let out = get("--out").unwrap_or_else(|| "BENCH_cluster.json".into());
            let report_out = get("--report").unwrap_or_else(|| "CLUSTER_report.txt".into());
            let node_counts: Vec<usize> = get("--node-counts")
                .unwrap_or_else(|| "1,3,5".into())
                .split(',')
                .map(|v| match v.trim().parse() {
                    Ok(n) if n > 0 => n,
                    _ => die(&format!("--node-counts needs positive sizes, got {v}")),
                })
                .collect();
            if node_counts.is_empty() {
                die("--node-counts needs at least one size");
            }
            let ok = run_cluster_sim(seed, &node_counts, &out, &report_out);
            print_metrics(metrics_format);
            if !ok {
                std::process::exit(1);
            }
            return;
        }
        "bench" if args.iter().any(|a| a == "--anonymity") => {
            accept_flags(&args, &["--out", "--report"], &["--anonymity"]);
            let out = get("--out").unwrap_or_else(|| "BENCH_anonymity.json".into());
            let report_out = get("--report").unwrap_or_else(|| "ANON_report.txt".into());
            let ok = run_anonymity_bench(seed, &out, &report_out);
            print_metrics(metrics_format);
            if !ok {
                std::process::exit(1);
            }
            return;
        }
        "bench" => {
            accept_flags(&args, &["--out", "--selection-out"], &[]);
            let out = get("--out").unwrap_or_else(|| "BENCH_baseline.json".into());
            let selection_out =
                get("--selection-out").unwrap_or_else(|| "BENCH_selection.json".into());
            run_bench_workload(seed);
            // The selection figure runs before the snapshot is written so
            // its cache traffic (core.cache.*) lands in the baseline too.
            let figure = dams_bench::selection_figure(seed);
            if let Err(e) = std::fs::write(&selection_out, figure.render_json()) {
                die(&format!("cannot write {selection_out}: {e}"));
            }
            println!(
                "wrote {selection_out} (exact_bfs {:.2}x, tm_g {:.2}x)",
                figure.exact_bfs.speedup(),
                figure.tm_g.speedup(),
            );
            let snapshot = dams_obs::global().snapshot();
            let json = snapshot.render_json(Mode::Full);
            if let Err(e) = std::fs::write(&out, &json) {
                die(&format!("cannot write {out}: {e}"));
            }
            println!("wrote {out} ({} metrics)", snapshot.entries.len());
        }
        _ => usage(),
    }
    print_metrics(metrics_format);
}

/// Chain sizes (tokens) the soak phases are published at. Other sizes
/// are refused, never clamped: a silently clamped `--tokens 500000` would
/// label a 10⁵ measurement as 5·10⁵.
const SUPPORTED_TOKEN_SIZES: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Check `--tokens`; absent means the full 10⁶ sweep. Unsupported sizes
/// are an error listing the supported ones.
fn supported_tokens(tokens: Option<u64>) -> u64 {
    let Some(n) = tokens else {
        return *SUPPORTED_TOKEN_SIZES.last().expect("non-empty");
    };
    if !SUPPORTED_TOKEN_SIZES.contains(&n) {
        die(&format!(
            "--tokens {n} is not a supported chain size (supported: {}); refusing to clamp",
            SUPPORTED_TOKEN_SIZES
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    n
}

/// The value after `name`, parsed as `T`; `None` when the flag is absent.
/// A flag given last with no value, or a value that does not parse, exits
/// 2 naming the flag instead of silently running the default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let Some(raw) = args.get(i + 1) else {
        die(&format!("{name} needs a value"));
    };
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => die(&format!("bad {name} value {raw:?}")),
    }
}

/// Refuse every argument the command does not read: `values` are its
/// flags that take a value, `switches` those that do not, and `--seed` and
/// `--metrics` are read by every command. An unknown flag, or a word that
/// is no flag's value, exits 2 naming it, so a typo, a removed flag or a
/// stray word never runs the defaults.
fn accept_flags(args: &[String], values: &[&str], switches: &[&str]) {
    let mut rest = args.iter().skip(1).peekable();
    while let Some(arg) = rest.next() {
        let name = arg.as_str();
        if switches.contains(&name) {
            continue;
        }
        if name == "--seed" || values.contains(&name) {
            rest.next();
        } else if name == "--metrics" {
            // Its value is optional (see `parse_metrics_flag`).
            rest.next_if(|v| !v.starts_with("--"));
        } else if name.starts_with("--") {
            die(&format!("unknown flag {name} for {}", args[0]));
        } else {
            die(&format!("unexpected argument {name} for {}", args[0]));
        }
    }
}

/// The `--metrics` flag: `text`, `json`, or (with no / a flag-like value)
/// the text default. Works from any argument position.
fn parse_metrics_flag(args: &[String]) -> Option<MetricsFormat> {
    let i = args.iter().position(|a| a == "--metrics")?;
    match args.get(i + 1).map(String::as_str) {
        Some("json") => Some(MetricsFormat::Json),
        Some("text") | None => Some(MetricsFormat::Text),
        Some(other) if other.starts_with("--") => Some(MetricsFormat::Text),
        Some(other) => die(&format!("unknown metrics format {other} (want text|json)")),
    }
}

#[derive(Clone, Copy)]
enum MetricsFormat {
    Text,
    Json,
}

/// Print the global registry snapshot in deterministic mode (timers show
/// observation counts only), so fixed-seed runs emit identical bytes.
fn print_metrics(format: Option<MetricsFormat>) {
    let Some(format) = format else { return };
    let snapshot = dams_obs::global().snapshot();
    match format {
        MetricsFormat::Text => print!("{}", snapshot.render_text(Mode::Deterministic)),
        MetricsFormat::Json => print!("{}", snapshot.render_json(Mode::Deterministic)),
    }
}

/// Exercise every instrumented layer so the baseline snapshot covers the
/// BFS, Progressive, and Game-theoretic selectors, the degrade ladder, and
/// the blockchain/node counters — all from one seed.
fn run_bench_workload(seed: u64) {
    // Degrade ladder on a small fresh instance: a generous budget answers
    // at the exact tier; a starved one falls through to Progressive; an
    // explicit rung exercises the Game-theoretic tier.
    let universe = TokenUniverse::new((0..8u32).map(HtId).collect());
    let inst = Instance::fresh(universe);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let ladder = |target: u32, budget: BfsBudget, tiers: &[Tier]| {
        let (metrics, exec) = (CoreMetrics::global(), &LadderExec::default());
        select_with_ladder_exec(&inst, TokenId(target), policy, budget, tiers, metrics, exec)
    };
    let _ = ladder(0, BfsBudget::default(), &Tier::DEFAULT_LADDER);
    let starved = BfsBudget {
        max_candidates: 0,
        max_worlds: 4,
        deadline: None,
    };
    let _ = ladder(1, starved, &Tier::DEFAULT_LADDER);
    let _ = ladder(2, BfsBudget::default(), &[Tier::GameTheoretic]);

    // One TokenMagic selection per practical algorithm on a synthetic
    // batch (Table 3 defaults).
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = SyntheticConfig::default().generate(&mut rng);
    for algorithm in [
        PracticalAlgorithm::Progressive,
        PracticalAlgorithm::GameTheoretic,
        PracticalAlgorithm::Smallest,
        PracticalAlgorithm::Random,
    ] {
        let tm = TokenMagic::new(
            algorithm,
            SelectionPolicy::new(DiversityRequirement::new(0.6, 20)),
        );
        let _ = tm.select_for(&instance, TokenId(0), &mut rng);
    }

    // The five-node cluster scenario populates the chain.* and node.*
    // families (blocks sealed/adopted, verify latency, bus faults).
    let _ = dams_node::run_cluster_scenario(seed, 5);
}

/// Run the replication scenario at each cluster size, write
/// `BENCH_cluster.json` + the convergence report file, and return
/// whether every size converged.
fn run_cluster_sim(seed: u64, node_counts: &[usize], out: &str, report_out: &str) -> bool {
    let mut rows = Vec::new();
    let mut report_text = String::new();
    let mut all_ok = true;
    for &nodes in node_counts {
        let scenario = match dams_node::run_cluster_scenario(seed, nodes) {
            Ok(r) => r,
            Err(e) => die(&format!("cluster scenario ({nodes} nodes) failed: {e}")),
        };
        println!(
            "{nodes} nodes: {} | height {} | catch-up {}+{} blocks (prefix+tail)",
            if scenario.ok() {
                "CONVERGED"
            } else {
                "DIVERGED"
            },
            scenario.height,
            scenario.joiner.map_or(0, |j| j.prefix_adopted),
            scenario.joiner.map_or(0, |j| j.tail_verified),
        );
        report_text.push_str(&format!("=== {nodes} nodes (seed {seed}) ===\n"));
        report_text.push_str(&scenario.render());
        report_text.push('\n');
        all_ok &= scenario.ok();
        rows.push((nodes, scenario));
    }

    let json_rows = rows.iter().map(|(nodes, scenario)| {
        Object::new()
            .field("nodes", *nodes)
            .field("convergence_ticks", scenario.ticks)
            .field("height", scenario.height)
            .field(
                "catchup_prefix_blocks",
                scenario.joiner.map_or(0, |j| j.prefix_adopted),
            )
            .field(
                "catchup_tail_blocks",
                scenario.joiner.map_or(0, |j| j.tail_verified),
            )
            .field(
                "restart_tail_blocks",
                scenario.restart.map_or(0, |(_, applied)| applied),
            )
            .field("blocks_served", scenario.blocks_served)
            .field("converged", scenario.ok())
    });
    let json = Document::new()
        .field("bench", "cluster")
        .field("seed", seed)
        .rows("rows", json_rows)
        .render();
    if let Err(e) = std::fs::write(out, &json) {
        die(&format!("cannot write {out}: {e}"));
    }
    if let Err(e) = std::fs::write(report_out, &report_text) {
        die(&format!("cannot write {report_out}: {e}"));
    }
    println!(
        "wrote {out} ({} cluster sizes) and {report_out}",
        rows.len()
    );
    all_ok
}

/// Run the Byzantine gauntlet at every adversary strength `f = 0..=max_f`
/// against a fixed honest majority, write `BENCH_byzantine.json` plus the
/// per-strength report file, and return whether every strength reached
/// the fully defended state (converged, all adversaries banned, selection
/// verdicts byte-identical to the adversary-free run).
fn run_byzantine_sim(seed: u64, honest: usize, max_f: usize, out: &str, report_out: &str) -> bool {
    let mut rows = Vec::new();
    let mut report_text = String::new();
    let mut all_ok = true;
    for f in 0..=max_f {
        let actors = dams_node::ActorKind::mix(f);
        let report = match dams_node::run_byzantine_scenario(seed, honest, &actors) {
            Ok(r) => r,
            Err(e) => die(&format!("byzantine scenario (f={f}) failed: {e}")),
        };
        let offense_total: u64 = report.offenses.iter().map(|(_, n)| n).sum();
        println!(
            "f={f} vs {honest} honest: {} | goodput {:.3} (baseline {:.3}) | height {} | \
             {} offense records | banned {}",
            if report.ok() {
                "CONVERGED"
            } else {
                "COMPROMISED"
            },
            report.goodput,
            report.baseline_goodput,
            report.height,
            offense_total,
            if report.all_banned {
                "all"
            } else {
                "INCOMPLETE"
            },
        );
        report_text.push_str(&format!(
            "=== f={f} byzantine vs {honest} honest (seed {seed}) ===\n"
        ));
        report_text.push_str(&report.render());
        report_text.push('\n');
        all_ok &= report.ok();
        rows.push((f, report));
    }

    // The goodput gate: the defense must not tax the honest majority. At
    // f=1 the honest replicas' block adoptions per tick stay within 10%
    // of the adversary-free run.
    let f0_goodput = rows[0].1.goodput;
    let f1_ratio = rows.get(1).map(|(_, r)| {
        if f0_goodput > 0.0 {
            r.goodput / f0_goodput
        } else {
            0.0
        }
    });

    let json_rows = rows.iter().map(|(f, report)| {
        let actors: Vec<&str> = report.actors.iter().map(|a| a.label()).collect();
        let offenses = report
            .offenses
            .iter()
            .fold(Object::new(), |o, (label, n)| o.field(label.clone(), *n));
        Object::new()
            .field("f", *f)
            .field("actors", actors)
            .field("goodput", Value::Fixed(report.goodput, 4))
            .field("baseline_goodput", Value::Fixed(report.baseline_goodput, 4))
            .field("convergence_ticks", report.ticks)
            .field("height", report.height)
            .field("all_banned", report.all_banned)
            .field("no_poison", report.no_poison)
            .field("snapshot_match", report.snapshot_match)
            .field("honest_accusations", report.honest_accusations)
            .field("offenses", offenses)
            .field("converged", report.ok())
    });
    let goodput_gate = Object::new()
        .field("max_deviation", Value::Fixed(0.10, 2))
        .field("f1_over_f0", f1_ratio.map(|r| Value::Fixed(r, 4)));
    let json = Document::new()
        .field("bench", "byzantine")
        .field("seed", seed)
        .field("honest", honest)
        .block("goodput_gate", goodput_gate)
        .rows("rows", json_rows)
        .render();
    if let Err(e) = std::fs::write(out, &json) {
        die(&format!("cannot write {out}: {e}"));
    }
    if let Err(e) = std::fs::write(report_out, &report_text) {
        die(&format!("cannot write {report_out}: {e}"));
    }
    println!(
        "wrote {out} ({} adversary strengths) and {report_out}",
        rows.len()
    );
    all_ok
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Open the on-disk store under `dir`, recovering whatever it holds.
fn open_file_store(
    dir: &str,
    crash_after: Option<u64>,
) -> Result<dams_store::Recovered, dams_store::StoreError> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    let mut wal = dams_store::FileBackend::open(dir.join("wal.bin"))?;
    if let Some(n) = crash_after {
        wal = wal.crash_after_appends(n);
    }
    let cp = dams_store::FileBackend::open(dir.join("checkpoint.bin"))?;
    dams_store::Store::open(
        Box::new(wal),
        Box::new(cp),
        dams_crypto::SchnorrGroup::default(),
        dams_store::StoreConfig::default(),
    )
}

/// Mine `blocks` more coinbase blocks into the durable store, WAL-first.
/// Each block's key material is seeded from `(seed, height)` alone, so a
/// resumed run continues exactly the chain an uninterrupted run builds.
fn run_durable(dir: &str, blocks: u64, seed: u64, crash_after: Option<u64>) {
    use dams_blockchain::{Amount, TokenOutput};
    let group = dams_crypto::SchnorrGroup::default();
    let recovered = match open_file_store(dir, crash_after) {
        Ok(r) => r,
        Err(e) => die(&format!("cannot open store in {dir}: {e}")),
    };
    let dams_store::Recovered {
        mut store,
        mut chain,
        report,
    } = recovered;
    if !report.fresh {
        println!(
            "resumed from height {} (tip {})",
            report.height,
            hex(&report.tip)
        );
    }
    let start = report.height;
    if start >= blocks {
        println!("store already at height {start} >= target {blocks}; nothing to mine");
    }
    for height in start + 1..=blocks {
        let mut rng = StdRng::seed_from_u64(seed ^ height.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let outs: Vec<TokenOutput> = (0..2)
            .map(|_| TokenOutput {
                owner: dams_crypto::KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            })
            .collect();
        chain.submit_coinbase(outs);
        if let Err(e) = chain.seal_block() {
            die(&format!("seal at height {height} failed: {e}"));
        }
        let block = match chain.tip() {
            Ok(b) => b.clone(),
            Err(e) => die(&format!("no tip after seal: {e}")),
        };
        if let Err(e) = store.append_block(&block) {
            die(&format!("WAL append at height {height} failed: {e}"));
        }
        if let Err(e) = store.maybe_checkpoint(&chain) {
            die(&format!("checkpoint at height {height} failed: {e}"));
        }
    }
    match chain.tip() {
        Ok(tip) => println!(
            "reached target height {blocks}: height {} tip {} (wal {} bytes, checkpoint at {})",
            tip.header.height.0,
            hex(&tip.hash()),
            store.wal_len(),
            store.checkpoint_height()
        ),
        Err(e) => die(&format!("no tip: {e}")),
    }
}

/// Recover the store under `dir` and print the report. Returns whether
/// recovery was clean.
fn recover_report(dir: &str) -> bool {
    match open_file_store(dir, None) {
        Ok(recovered) => {
            print!("{}", recovered.report.render());
            recovered.report.clean()
        }
        Err(e) => {
            eprintln!("recovery failed: {e}");
            false
        }
    }
}

/// Parse "1,2;1,2;2,3" into rings.
fn parse_rings(s: &str) -> Vec<RingSet> {
    s.split(';')
        .map(|ring| {
            RingSet::new(ring.split(',').map(|t| {
                TokenId(
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad token id {t}"))),
                )
            }))
        })
        .collect()
}

/// Replay the seeded adversary suite over every degrade-ladder tier plus
/// the 64-seed floor-gated admission sweep, write `BENCH_anonymity.json`
/// and the per-cell report, and return whether the figure passes its own
/// gate (declared tier scores backed by measurement, attack-aware
/// sampling never worse than baseline, no answered request below its
/// declared floor).
fn run_anonymity_bench(seed: u64, out: &str, report_out: &str) -> bool {
    let fig = dams_bench::anonymity_figure(seed);
    print!("{}", fig.render_report());
    if let Err(e) = std::fs::write(out, fig.render_json()) {
        die(&format!("cannot write {out}: {e}"));
    }
    if let Err(e) = std::fs::write(report_out, fig.render_report()) {
        die(&format!("cannot write {report_out}: {e}"));
    }
    println!("wrote {out} and {report_out}");
    fig.ok()
}

fn usage() -> ! {
    eprintln!(
        "usage: dams-cli <select|attack|audit|hardness|bench> [--algorithm tm_s|tm_r|tm_p|tm_g] \
         [--c F] [--l N] [--target N] [--rings \"1,2;2,3\"] [--spends N] [--seed N] \
         [--out FILE] [--selection-out FILE] [--metrics text|json]\n\
         \x20      dams-cli run --store-dir DIR [--blocks N] [--seed N] [--crash-after-appends N]\n\
         \x20      dams-cli recover --store-dir DIR   replay checkpoint + WAL, print recovery report\n\
         \x20      dams-cli serve-sim [--seed N] [--workers N] [--requests N] [--loads \"1,2,4\"] [--out FILE]\n\
         \x20      dams-cli serve-sim --soak [--seed N] [--tokens 1000|10000|100000|1000000] [--requests N] [--out FILE]\n\
         \x20      dams-cli serve --real [--seed N] [--workers N] [--requests N] [--loads \"1,2,4\"]\n\
         \x20                    [--transport duplex|tcp] [--tenants N] [--out FILE] [--diff-report FILE] [--trace-out FILE]\n\
         \x20      dams-cli cluster-sim [--seed N] [--node-counts \"1,3,5\"] [--out FILE] [--report FILE]\n\
         \x20      dams-cli cluster-sim --byzantine [--seed N] [--honest N] [--max-f N] [--out FILE] [--report FILE]\n\
         \x20      dams-cli bench --anonymity [--seed N] [--out FILE] [--report FILE]"
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
