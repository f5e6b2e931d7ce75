//! TokenMagic framework integration: the η guard, the Example-1 dead-end,
//! and framework-level target hiding.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{
    commit_ring, Instance, ModularInstance, PracticalAlgorithm, SelectError, SelectionPolicy,
    TokenMagic,
};
use dams_diversity::{
    analyze, DiversityRequirement, EtaGuard, HtId, NeighborTracker, RingIndex, RingSet, TokenId,
    TokenUniverse,
};
use dams_workload::SyntheticConfig;

/// §4's dead-end: after r1={t1,t3}, r2={t1,t2}... the paper's narrative is
/// that greedily exhausting a batch can strand the last token. Reconstruct
/// it with three rings over {t1..t4} that provably consume t1, t2, t3.
#[test]
fn example1_dead_end_without_eta_guard() {
    // r1={0,2}, r2={0,1}, r3={0,1,2} over a 4-token universe: the three
    // rings' union {0,1,2} has exactly 3 tokens → Theorem 4.1 proves all
    // three consumed, so a new ring for token 3 has every mixin eliminable.
    let idx = RingIndex::from_rings([
        RingSet::new([TokenId(0), TokenId(2)]),
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(0), TokenId(1), TokenId(2)]),
    ]);
    let a = analyze(&idx, &[]);
    for t in [0u32, 1, 2] {
        assert!(a.consumed_somewhere.contains(&TokenId(t)));
    }
    // The stranded spend: any ring for token 3 is fully resolvable.
    let mut idx2 = idx.clone();
    let id = idx2.push(RingSet::new([TokenId(0), TokenId(3)]));
    let a2 = analyze(&idx2, &[]);
    assert_eq!(a2.resolved(id), Some(TokenId(3)), "token 3 is stranded");
}

#[test]
fn eta_guard_would_have_blocked_the_third_ring() {
    // Replay the same history through the tracker: before the third ring,
    // i = 2, μ = 0; pushing r3 makes i = 3, μ = 3, |T| = 4 →
    // 0 ≥ η · 1 fails for any η > 0.
    let mut tracker = NeighborTracker::new();
    tracker.push(RingSet::new([TokenId(0), TokenId(2)]));
    tracker.push(RingSet::new([TokenId(0), TokenId(1)]));
    let guard = EtaGuard::new(0.5);
    let r3 = RingSet::new([TokenId(0), TokenId(1), TokenId(2)]);
    assert!(!guard.admits_push(&tracker, &r3, 4));
    // A gentler third ring passes.
    let r3_alt = RingSet::new([TokenId(1), TokenId(3)]);
    assert!(guard.admits_push(&tracker, &r3_alt, 4));
}

#[test]
fn framework_generates_for_every_feasible_token() {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = SyntheticConfig {
        num_super: 6,
        super_size: (3, 5),
        num_fresh: 4,
        sigma: 4.0,
        ht_model: None,
    };
    let inst = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 3);
    let tm = TokenMagic::new(PracticalAlgorithm::Smallest, SelectionPolicy::new(req));
    let tracker = NeighborTracker::new();
    let mut generated = 0;
    for t in inst.universe.tokens() {
        if let Ok(sel) = tm.generate(&inst, t, &tracker, &mut rng) {
            assert!(sel.ring.contains(t));
            generated += 1;
        }
    }
    assert!(generated > 0);
}

#[test]
fn framework_candidates_hide_the_target() {
    // The returned ring must be one that could have been produced for
    // several different tokens — operationally: rerunning generate with
    // different seeds yields differing rings containing the target.
    let mut seen = std::collections::HashSet::new();
    let cfg = SyntheticConfig {
        num_super: 8,
        super_size: (2, 4),
        num_fresh: 6,
        sigma: 4.0,
        ht_model: None,
    };
    let inst = cfg.generate(&mut StdRng::seed_from_u64(5));
    let req = DiversityRequirement::new(1.0, 3);
    let tm = TokenMagic::new(PracticalAlgorithm::Random, SelectionPolicy::new(req));
    let tracker = NeighborTracker::new();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(sel) = tm.generate(&inst, TokenId(0), &tracker, &mut rng) {
            seen.insert(sel.ring.tokens().to_vec());
        }
    }
    assert!(
        seen.len() > 1,
        "random procedure must not be a deterministic function of the target"
    );
}

#[test]
fn commit_ring_feeds_the_guard() {
    let mut tracker = NeighborTracker::new();
    commit_ring(&mut tracker, RingSet::new([TokenId(0), TokenId(1)]));
    commit_ring(&mut tracker, RingSet::new([TokenId(0), TokenId(1)]));
    assert_eq!(tracker.ring_count(), 2);
    assert_eq!(tracker.consumed_count(), 2, "tight family detected");
}

#[test]
fn relaxing_requirement_recovers_feasibility() {
    // §4: "if the framework cannot return an eligible RS, they can relax
    // the diversity requirement by increasing c or decreasing ℓ."
    let universe = TokenUniverse::new(vec![HtId(0), HtId(0), HtId(1), HtId(1), HtId(2)]);
    let inst = Instance::fresh(universe);
    let modular = ModularInstance::decompose(&inst).unwrap();
    let strict = SelectionPolicy::new(DiversityRequirement::new(0.4, 3));
    let relaxed_c = SelectionPolicy::new(DiversityRequirement::new(2.0, 3));
    let relaxed_l = SelectionPolicy::new(DiversityRequirement::new(0.4, 1));

    let strict_result = dams_core::progressive(&modular, TokenId(0), strict);
    assert_eq!(strict_result.unwrap_err(), SelectError::Infeasible);
    assert!(dams_core::progressive(&modular, TokenId(0), relaxed_c).is_ok());
    assert!(dams_core::progressive(&modular, TokenId(0), relaxed_l).is_ok());
}
