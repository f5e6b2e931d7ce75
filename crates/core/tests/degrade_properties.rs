//! Property tests for the degrading selector, asserted through
//! deterministic metrics snapshots.
//!
//! Each property sweeps 64 seeds of small random instances (the scale
//! where the exact BFS is affordable) and records every run into a fresh
//! [`dams_obs::Registry`], so the snapshot counters double as the test
//! oracle: "the exact tier answered every time" is
//! `core.degrade.answered.exact_bfs_total == runs`, not an inference from
//! return values alone. The registry-per-test pattern is what keeps the
//! counters exact under the parallel test runner.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    bfs, select_with_ladder_exec, BfsBudget, CoreMetrics, LadderExec, SelectError, SelectionPolicy,
    Tier,
};
use dams_diversity::{DiversityRequirement, HtHistogram, HtId, TokenId, TokenUniverse};
use dams_obs::{Mode, Registry};

const SEEDS: u64 = 64;

/// A generous budget: no deadline, default (huge) counter limits.
fn generous() -> BfsBudget {
    BfsBudget::default()
}

/// A starved exact budget: the BFS exhausts before examining anything.
fn starved() -> BfsBudget {
    BfsBudget {
        max_candidates: 0,
        max_worlds: 4,
        deadline: None,
    }
}

/// A small random fresh instance plus a policy and an in-universe target.
fn random_case(seed: u64) -> (dams_core::Instance, SelectionPolicy, TokenId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: u32 = rng.gen_range(4u32..=8);
    let hts: u32 = rng.gen_range(2u32..=4);
    let universe = TokenUniverse::new((0..n).map(|_| HtId(rng.gen_range(0..hts))).collect());
    let instance = dams_core::Instance::fresh(universe);
    let c = [1.0, 1.5, 2.0][rng.gen_range(0..3usize)];
    let l = rng.gen_range(1..=3usize);
    let policy = SelectionPolicy::new(DiversityRequirement::new(c, l));
    let target = TokenId(rng.gen_range(0..n));
    (instance, policy, target)
}

/// Run the default ladder for one seed into `metrics`.
fn run_ladder(
    seed: u64,
    budget: BfsBudget,
    metrics: &CoreMetrics,
) -> Result<dams_core::DegradedSelection, SelectError> {
    let (instance, policy, target) = random_case(seed);
    select_with_ladder_exec(
        &instance,
        target,
        policy,
        budget,
        &Tier::DEFAULT_LADDER,
        metrics,
        &LadderExec::default(),
    )
}

/// Whatever tier answers, its guarantee must be consistent with the exact
/// optimum: `|ring| <= bound * |optimal ring|`, and the ring must satisfy
/// the (c, l) requirement. Checked against an independently computed BFS
/// answer on instances small enough that the exact search always finishes.
#[test]
fn tier_guarantee_is_consistent_with_exact_answer() {
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let mut answered = 0u64;
    for seed in 0..SEEDS {
        let (instance, policy, target) = random_case(seed);
        let exact = bfs(&instance, target, policy.effective(), BfsBudget::default());
        let got = select_with_ladder_exec(
            &instance,
            target,
            policy,
            generous(),
            &Tier::DEFAULT_LADDER,
            &metrics,
            &LadderExec::default(),
        );
        match (exact, got) {
            (Ok(optimal), Ok(sel)) => {
                answered += 1;
                let hist = HtHistogram::from_ring(&sel.selection.ring, &instance.universe);
                assert!(
                    policy.effective().satisfied_by(&hist),
                    "seed {seed}: degraded ring violates the requirement"
                );
                assert!(
                    sel.selection.ring.contains(target),
                    "seed {seed}: ring omits the target"
                );
                let bound = sel.guarantee.ratio_bound();
                assert!(
                    sel.selection.size() as f64 <= bound * optimal.size() as f64 + 1e-9,
                    "seed {seed}: ring {} exceeds {bound:.3}x of optimal {}",
                    sel.selection.size(),
                    optimal.size()
                );
            }
            (Err(_), Err(_)) => {} // consistently infeasible
            (Ok(optimal), Err(e)) => {
                panic!("seed {seed}: exact found a {}-ring but ladder failed: {e}", optimal.size())
            }
            (Err(e), Ok(sel)) => panic!(
                "seed {seed}: exact failed ({e}) but ladder answered at {:?}",
                sel.tier
            ),
        }
    }
    // Snapshot oracle: every answer was recorded, sizes included.
    let snap = registry.snapshot();
    let by_tier = snap
        .counter("core.degrade.answered.exact_bfs_total")
        .unwrap()
        + snap
            .counter("core.degrade.answered.progressive_total")
            .unwrap()
        + snap
            .counter("core.degrade.answered.game_theoretic_total")
            .unwrap();
    assert_eq!(by_tier, answered);
    assert_eq!(snap.histogram_count("core.degrade.ring_size"), Some(answered));
    assert!(answered > 0, "sweep produced no feasible instances at all");
}

/// With a generous deadline the exact tier answers every feasible case:
/// no fallbacks, every answer optimal — asserted from the snapshot.
#[test]
fn generous_deadline_always_answers_exact() {
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let mut ok = 0u64;
    for seed in 0..SEEDS {
        if let Ok(sel) = run_ladder(seed, generous(), &metrics) {
            ok += 1;
            assert_eq!(sel.tier, Tier::ExactBfs, "seed {seed} degraded: {sel:?}");
            assert_eq!(sel.guarantee, dams_core::Guarantee::Exact);
            assert!(!sel.degraded());
        }
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("core.degrade.answered.exact_bfs_total"),
        Some(ok)
    );
    assert_eq!(
        snap.counter("core.degrade.answered.progressive_total"),
        Some(0)
    );
    assert_eq!(
        snap.counter("core.degrade.answered.game_theoretic_total"),
        Some(0)
    );
    assert_eq!(snap.counter("core.degrade.fallbacks_total"), Some(0));
}

/// A starved exact budget falls through: nothing is answered by the exact
/// tier, and the fallback counter matches the attempts the selector
/// itself reported.
#[test]
fn starved_budget_falls_back_and_counts_fallbacks() {
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let mut expected_fallbacks = 0u64;
    let mut ok = 0u64;
    for seed in 0..SEEDS {
        if let Ok(sel) = run_ladder(seed, starved(), &metrics) {
            ok += 1;
            assert_ne!(sel.tier, Tier::ExactBfs, "seed {seed}: starved BFS answered");
            assert!(sel.degraded());
            expected_fallbacks += sel.attempts.len() as u64;
        }
    }
    assert!(ok > 0, "sweep produced no feasible instances at all");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("core.degrade.answered.exact_bfs_total"), Some(0));
    assert_eq!(
        snap.counter("core.degrade.fallbacks_total"),
        Some(expected_fallbacks)
    );
}

/// The same seeded sweep recorded into two fresh registries renders
/// byte-identical deterministic snapshots — the contract `dams-cli
/// --metrics` relies on. Timers still count observations in both.
#[test]
fn deterministic_snapshots_are_byte_identical() {
    let sweep = |registry: &Registry| {
        let metrics = CoreMetrics::in_registry(registry);
        for seed in 0..SEEDS {
            let _ = run_ladder(seed, generous(), &metrics);
            let _ = run_ladder(seed, starved(), &metrics);
        }
        registry.snapshot()
    };
    let (a, b) = (sweep(&Registry::new()), sweep(&Registry::new()));
    assert_eq!(
        a.render_text(Mode::Deterministic),
        b.render_text(Mode::Deterministic)
    );
    assert_eq!(
        a.render_json(Mode::Deterministic),
        b.render_json(Mode::Deterministic)
    );
    // Timer counts are part of the deterministic surface.
    assert!(a
        .render_text(Mode::Deterministic)
        .contains("core.degrade.tier.exact_bfs_ns\ttimer\tcount="));
}
