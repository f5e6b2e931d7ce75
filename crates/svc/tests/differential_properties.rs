//! The sim-vs-real differential acceptance gate: a 64-seed sweep
//! replaying the same seeded open-loop trace through the virtual-tick
//! `Service` (the model) and the real concurrent runtime (a worker
//! thread, wire frames, the client tally) and demanding their accounting
//! is equal.
//!
//! The seed index also walks the scenario matrix — offered load ramps
//! 1× / 2× / 4× and worker counts {1, 2, 4} — so the 64 runs cover every
//! (load, workers) cell several times rather than one corner 64 times.
//!
//! Per seed:
//!
//! * the real runtime's terminal accounting closes exactly
//!   (`completed + failed + shed == offered`);
//! * the differential verdict is MATCH: every `SvcReport` field and every
//!   deterministic `svc.*`/`core.*` snapshot line is equal, and the wire
//!   cross-checks (client tally == server report, one response per id,
//!   zero duplicates) hold;
//! * the rendered report is grep-able and ends with `verdict: MATCH`.
//!
//! Plus: byte-identical reports on back-to-back runs (the in-test twin
//! of CI's 3× flake guard), and TCP-vs-duplex transport equivalence on a
//! seed subsample.

use dams_svc::{run_differential, DiffConfig, OverloadConfig, SvcReport, Transport};

const SEEDS: u64 = 64;

fn scenario(seed: u64) -> DiffConfig {
    let loads = [1.0, 2.0, 4.0];
    let workers = [1usize, 2, 4];
    DiffConfig {
        overload: OverloadConfig {
            seed,
            workers: workers[(seed / 3) as usize % 3],
            requests: 48,
            load: loads[seed as usize % 3],
            universe: 10,
            burst: true,
            stalls: true,
        },
        transport: Transport::Duplex,
        tenants: 3,
    }
}

#[test]
fn sweep_real_runtime_accounting_closes_exactly() {
    for seed in 0..SEEDS {
        let cfg = scenario(seed);
        let out = run_differential(&cfg).expect("runtime runs");
        let r = &out.real.svc;
        assert_eq!(
            r.completed + r.failed + r.shed_total(),
            r.offered,
            "seed {seed}: real-runtime accounting leak: {r:?}"
        );
        assert_eq!(
            r.offered, cfg.overload.requests,
            "seed {seed}: offered != requests"
        );
        assert_eq!(
            out.real.client.responses, r.offered,
            "seed {seed}: wire responses != offered"
        );
        assert_eq!(out.real.client.duplicates, 0, "seed {seed}: duplicate responses");
    }
}

/// `report` with the runtime-only `svc.runtime.*` snapshot lines removed.
fn without_runtime_lines(report: &SvcReport) -> SvcReport {
    let snapshot = report
        .snapshot
        .lines()
        .filter(|l| !l.starts_with("svc.runtime."))
        .map(|l| format!("{l}\n"))
        .collect();
    SvcReport {
        snapshot,
        ..report.clone()
    }
}

#[test]
fn sweep_sim_and_real_runtime_agree_exactly() {
    for seed in 0..SEEDS {
        let out = run_differential(&scenario(seed)).expect("runtime runs");
        let text = out.report.render();
        assert!(
            out.report.matched(),
            "seed {seed}: sim and real runtime diverged:\n{text}"
        );
        assert!(
            text.ends_with("verdict: MATCH\n"),
            "seed {seed}: report does not end with the verdict line:\n{text}"
        );
        // The verdict, restated without the oracle's own code: all 13
        // report fields are equal, the snapshot line for line.
        assert_eq!(
            without_runtime_lines(&out.sim),
            without_runtime_lines(&out.real.svc),
            "seed {seed}: sim and real runtime reports differ"
        );
    }
}

#[test]
fn sweep_matrix_covers_ramps_and_worker_counts() {
    // Self-check on the scenario walk: all 9 (load, workers) cells appear.
    let mut cells = std::collections::BTreeSet::new();
    for seed in 0..SEEDS {
        let cfg = scenario(seed);
        cells.insert((cfg.overload.load as u64, cfg.overload.workers));
    }
    assert_eq!(cells.len(), 9, "scenario matrix incomplete: {cells:?}");
}

#[test]
fn back_to_back_runs_are_byte_identical() {
    // The in-test twin of CI's flake guard: the runtime runs on work
    // ticks, so re-running a scenario must reproduce the exact report
    // text, snapshot, and per-bucket counts despite its real worker
    // thread and wire.
    for seed in [0, 17, 42] {
        let cfg = scenario(seed);
        let a = run_differential(&cfg).expect("first run");
        let b = run_differential(&cfg).expect("second run");
        assert_eq!(
            a.report.render(),
            b.report.render(),
            "seed {seed}: differential report not reproducible"
        );
        assert_eq!(
            a.real.svc, b.real.svc,
            "seed {seed}: runtime report not reproducible"
        );
        assert_eq!(
            a.real.svc.snapshot, b.real.svc.snapshot,
            "seed {seed}: runtime metric snapshot not reproducible"
        );
        assert_eq!(a.trace_text, b.trace_text, "seed {seed}: trace text drifted");
    }
}

#[test]
fn tcp_transport_matches_duplex_accounting() {
    // The wire protocol is transport-agnostic: the same trace over a
    // real loopback TCP connection must produce the same deterministic
    // accounting as the in-process duplex pipe.
    for seed in [5, 23] {
        let duplex = run_differential(&scenario(seed)).expect("duplex runs");
        let tcp_cfg = DiffConfig {
            transport: Transport::Tcp,
            ..scenario(seed)
        };
        let tcp = run_differential(&tcp_cfg).expect("tcp runs");
        assert!(tcp.report.matched(), "seed {seed}: tcp run diverged from sim");
        assert_eq!(
            duplex.real.svc, tcp.real.svc,
            "seed {seed}: transport changed the accounting"
        );
        assert_eq!(
            duplex.real.frames_received, tcp.real.frames_received,
            "seed {seed}: transport changed frame counts"
        );
    }
}

#[test]
fn single_worker_runtime_reproduces_the_sim_exactly() {
    // The smallest pool: every printed row, one worker slot, equal to
    // the sim's.
    for seed in [2, 9, 31] {
        let cfg = DiffConfig {
            overload: OverloadConfig {
                workers: 1,
                ..scenario(seed).overload
            },
            ..scenario(seed)
        };
        let out = run_differential(&cfg).expect("runtime runs");
        for row in &out.report.rows {
            assert_eq!(
                row.sim, row.real,
                "seed {seed}: single-worker row {} drifted (sim={} real={})",
                row.metric, row.sim, row.real
            );
        }
    }
}
