//! Hedged re-submission on the *real* runtime: terminal-outcome dedup
//! over the wire.
//!
//! A hedge-heavy trace (tiny queue, batch traffic, retries with hedged
//! twins) runs through the runtime's wire protocol.
//! The runtime spawns hedges, deduplicates them through the engine's
//! terminal ledger, answers every id exactly once on the wire, and
//! replays byte-identically.

use dams_core::{Instance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
use dams_svc::{run_runtime, RetryPolicy, RuntimeConfig, SvcConfig, Transport};
use dams_workload::ArrivalEvent;

fn instance(n: u32) -> Instance {
    Instance::fresh(TokenUniverse::new((0..n).map(HtId).collect()))
}

fn policy() -> SelectionPolicy {
    SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
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
fn runtime_spawns_and_dedups_hedges_reproducibly() {
    let inst = instance(8);
    let (svc, trace) = hedge_heavy_trace(64);
    let cfg = RuntimeConfig {
        svc,
        transport: Transport::Duplex,
        tenants: 3,
    };
    let a = run_runtime(&inst, policy(), &cfg, &trace).expect("first run");
    let b = run_runtime(&inst, policy(), &cfg, &trace).expect("second run");
    assert_eq!(a.svc, b.svc, "runtime must be deterministic");
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
