//! Hedged re-submission on the *real* runtime: terminal-outcome dedup
//! under racing completions.
//!
//! The virtual-tick sim only ever exercises the sequential interleaving
//! of a hedge pair — it settles at dispatch, so the losing twin is
//! always caught before it runs. The real runtime can have both twins
//! genuinely in flight on different worker threads at once, racing to
//! settle. These tests pin the dedup contract on that path:
//!
//! * the [`TerminalLedger`] admits exactly one settlement per id under
//!   arbitrary thread interleavings;
//! * a hedge-heavy wall-pace run (tiny queue, batch traffic, real
//!   worker threads, racing inline settlement) still closes its
//!   accounting exactly and answers every id exactly once on the wire;
//! * the deterministic virtual-pace runtime spawns hedges and stays
//!   byte-reproducible while deduplicating them.

use dams_svc::{
    run_runtime, Pace, RetryPolicy, RuntimeConfig, SvcConfig, TerminalFate, TerminalLedger,
    Transport,
};
use dams_core::{Instance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
use dams_workload::ArrivalEvent;

fn instance(n: u32) -> Instance {
    Instance::fresh(TokenUniverse::new((0..n).map(HtId).collect()))
}

fn policy() -> SelectionPolicy {
    SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
}

#[test]
fn ledger_admits_exactly_one_settlement_per_id_under_races() {
    const THREADS: usize = 8;
    const IDS: u64 = 200;
    let ledger = TerminalLedger::new();
    let wins: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ledger = &ledger;
                s.spawn(move || {
                    let mut won = 0u64;
                    for id in 0..IDS {
                        // Each thread claims a distinct fate so a double
                        // settlement would be observable, not benign.
                        let fate = TerminalFate::Completed {
                            met: t % 2 == 0,
                            degraded: t % 3 == 0,
                        };
                        if ledger.settle(id, fate) {
                            won += 1;
                        }
                    }
                    won
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(wins.iter().sum::<u64>(), IDS, "settlement wins must sum to ids");
    assert_eq!(ledger.len() as u64, IDS);
    for id in 0..IDS {
        assert!(ledger.get(id).is_some(), "id {id} never settled");
    }
}

/// A hedge-heavy scenario: all-batch traffic into a one-slot queue, so
/// sheds (and therefore retries + hedges) are guaranteed, with enough
/// budget that re-submissions usually complete.
fn hedge_heavy_trace(requests: u64) -> (SvcConfig, Vec<ArrivalEvent>) {
    let svc = SvcConfig {
        workers: 2,
        queue_capacity: 1,
        ticks_per_candidate: 4,
        reserve_ticks: 8,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: 4,
            max_backoff: 16,
        },
        hedge_batch: true,
        stall_every: 0,
        stall_ticks: 0,
        seed: 99,
        ..SvcConfig::default()
    };
    let trace = (0..requests)
        .map(|i| ArrivalEvent {
            tick: i / 4, // 4 arrivals per tick swamps the 1-slot queues
            id: i,
            tenant: i % 3,
            target: (i % 8) as u32,
            interactive: false, // batch class is the hedged one
            budget: 400,
            require_exact: false,
        })
        .collect();
    (svc, trace)
}

#[test]
fn wall_pace_racing_hedges_settle_exactly_once() {
    let inst = instance(8);
    let (svc, trace) = hedge_heavy_trace(64);
    let cfg = RuntimeConfig {
        svc,
        // A fast wall clock: ticks fly by, so retries/hedges fire while
        // primaries are still on worker threads — real settlement races.
        pace: Pace::Wall { ns_per_tick: 200 },
        transport: Transport::Duplex,
        tenants: 3,
    };
    let report = run_runtime(&inst, policy(), &cfg, &trace).expect("wall runtime runs");
    let r = &report.svc;
    assert_eq!(r.offered, 64);
    assert_eq!(
        r.completed + r.failed + r.shed_total(),
        r.offered,
        "wall-pace accounting leak under racing hedges: {r:?}"
    );
    assert_eq!(
        report.client.responses, r.offered,
        "every id must be answered exactly once on the wire"
    );
    assert_eq!(report.client.duplicates, 0, "duplicate terminal responses");
    assert_eq!(report.client.completed, r.completed);
    assert_eq!(
        report.client.shed,
        r.shed_total(),
        "client shed tally != server shed accounting"
    );
    // The wall sidecar actually measured something.
    assert!(
        report.wall_snapshot.contains("svc.runtime.wall.service_ns"),
        "wall snapshot missing the service timer:\n{}",
        report.wall_snapshot
    );
}

#[test]
fn virtual_pace_spawns_and_dedups_hedges_reproducibly() {
    let inst = instance(8);
    let (svc, trace) = hedge_heavy_trace(64);
    let cfg = RuntimeConfig {
        svc,
        pace: Pace::Virtual,
        transport: Transport::Duplex,
        tenants: 3,
    };
    let a = run_runtime(&inst, policy(), &cfg, &trace).expect("first run");
    let b = run_runtime(&inst, policy(), &cfg, &trace).expect("second run");
    assert_eq!(a.svc, b.svc, "virtual-pace runtime must be deterministic");
    assert_eq!(a.client, b.client, "client tallies must be deterministic");

    let counter = |name: &str| -> u64 {
        a.svc
            .snapshot
            .lines()
            .find_map(|l| {
                let mut parts = l.split('\t');
                (parts.next() == Some(name) && parts.next() == Some("counter"))
                    .then(|| parts.next().and_then(|v| v.parse().ok()))
                    .flatten()
            })
            .unwrap_or(0)
    };
    assert!(
        counter("svc.hedge.spawned_total") > 0,
        "scenario never hedged — the dedup property is vacuous:\n{}",
        a.svc.snapshot
    );
    assert_eq!(
        a.svc.completed + a.svc.failed + a.svc.shed_total(),
        a.svc.offered,
        "hedges leaked into terminal accounting: {:?}",
        a.svc
    );
    assert_eq!(a.client.responses, a.svc.offered);
    assert_eq!(a.client.duplicates, 0);
}
