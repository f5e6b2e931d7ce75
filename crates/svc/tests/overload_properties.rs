//! The overload acceptance gate: a 64-seed sweep of the seeded chaos
//! harness proving the service degrades monotonically instead of
//! collapsing.
//!
//! Per seed, at 4× calibrated capacity with bursty open-loop arrivals
//! and injected worker stalls:
//!
//! * nothing panics and every offered request reaches exactly one
//!   terminal outcome (completed / failed / typed shed) — the shed
//!   accounting sums to the offered load;
//! * overload is actually shed (typed), yet goodput survives;
//! * goodput degrades monotonically as offered load ramps 1× → 2× → 4×;
//! * without stall injection, every admitted-and-completed request meets
//!   its propagated deadline ≥ 99% (the reserve arithmetic makes this
//!   100% by construction — the assertion is the regression tripwire);
//! * the deterministic metric snapshot replays byte-identically from its
//!   seed;
//! * circuit-breaker transitions are observable in metrics somewhere in
//!   the sweep.

use dams_svc::{run_overload, run_ramp, OverloadConfig};

const SEEDS: u64 = 64;

fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| {
            let mut parts = l.split('\t');
            (parts.next() == Some(name) && parts.next() == Some("counter"))
                .then(|| parts.next().and_then(|v| v.parse().ok()))
                .flatten()
        })
        .unwrap_or(0)
}

fn base(seed: u64) -> OverloadConfig {
    OverloadConfig {
        seed,
        workers: 2,
        requests: 96,
        load: 4.0,
        universe: 10,
        burst: true,
        stalls: true,
    }
}

#[test]
fn sweep_accounting_sums_to_offered_load() {
    for seed in 0..SEEDS {
        let r = run_overload(&base(seed));
        assert_eq!(
            r.completed + r.failed + r.shed_total(),
            r.offered,
            "seed {seed}: accounting leak in {r:?}"
        );
        assert_eq!(r.offered, 96, "seed {seed}: offered != requests");
        assert_eq!(r.failed, 0, "seed {seed}: unexpected selection failures");
    }
}

#[test]
fn sweep_sheds_typed_but_preserves_goodput_at_4x() {
    let mut total_shed = 0;
    for seed in 0..SEEDS {
        let r = run_overload(&base(seed));
        assert!(
            r.shed_total() > 0,
            "seed {seed}: 4x overload produced no sheds: {r:?}"
        );
        assert!(
            r.completed > 0,
            "seed {seed}: goodput collapsed to zero: {r:?}"
        );
        total_shed += r.shed_total();
    }
    assert!(total_shed > SEEDS, "sweep barely shed anything");
}

#[test]
fn sweep_goodput_degrades_monotonically_with_load() {
    // Averaged over seeds (individual seeds can wobble by a request or
    // two); a small per-seed slack still catches inversions.
    let loads = [1.0, 2.0, 4.0];
    let mut sums = [0.0f64; 3];
    for seed in 0..SEEDS {
        let rows = run_ramp(&base(seed), &loads);
        for (i, (_, r)) in rows.iter().enumerate() {
            sums[i] += r.goodput();
        }
        assert!(
            rows[0].1.goodput() + 0.11 >= rows[2].1.goodput(),
            "seed {seed}: goodput at 1x below 4x: {rows:?}"
        );
    }
    let mean: Vec<f64> = sums.iter().map(|s| s / SEEDS as f64).collect();
    assert!(
        mean[0] >= mean[1] - 0.02 && mean[1] >= mean[2] - 0.02,
        "mean goodput not monotone over load ramp: {mean:?}"
    );
    assert!(
        mean[0] > mean[2] + 0.05,
        "ramp shows no degradation at all: {mean:?}"
    );
}

#[test]
fn sweep_admitted_requests_meet_propagated_deadlines() {
    // Stall injection deliberately breaks the latency bound (that is the
    // chaos), so the deadline guarantee is asserted with stalls off.
    for seed in 0..SEEDS {
        let r = run_overload(&OverloadConfig {
            stalls: false,
            ..base(seed)
        });
        assert!(
            r.deadline_met_rate() >= 0.99,
            "seed {seed}: deadline-met rate {} < 0.99: {r:?}",
            r.deadline_met_rate()
        );
    }
}

#[test]
fn sweep_snapshots_replay_identically_per_seed() {
    // The full 64-seed sweep is wasteful; 16 seeds run twice already
    // distinguish any ordering nondeterminism.
    for seed in 0..16 {
        let first = run_overload(&base(seed));
        let second = run_overload(&base(seed));
        assert_eq!(
            first.snapshot, second.snapshot,
            "seed {seed}: snapshot differs between two runs"
        );
        assert_eq!(
            first, second,
            "seed {seed}: report differs between two runs"
        );
    }
}

#[test]
fn sweep_circuit_transitions_are_observable() {
    let mut opened_anywhere = 0u64;
    let mut state_line_everywhere = true;
    for seed in 0..SEEDS {
        let r = run_overload(&base(seed));
        opened_anywhere += counter(&r.snapshot, "svc.circuit.opened_total");
        state_line_everywhere &= r
            .snapshot
            .lines()
            .any(|l| l.starts_with("svc.circuit.state\t"));
    }
    assert!(
        opened_anywhere > 0,
        "no seed in the sweep ever opened the circuit"
    );
    assert!(
        state_line_everywhere,
        "svc.circuit.state gauge missing from snapshots"
    );
}

#[test]
fn sweep_queue_growth_is_bounded() {
    // queue_capacity is 4 per worker per class; the peak-depth gauge must
    // respect it (2 classes × workers × 4).
    for seed in 0..SEEDS {
        let r = run_overload(&base(seed));
        let peak = r
            .snapshot
            .lines()
            .find_map(|l| {
                l.strip_prefix("svc.queue.depth_peak\tgauge\t")
                    .and_then(|v| v.parse::<i64>().ok())
            })
            .unwrap_or(0);
        assert!(
            peak <= 2 * 2 * 4,
            "seed {seed}: queue peak {peak} exceeds bound"
        );
    }
}
