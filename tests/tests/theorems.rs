//! Property-based validation of the paper's theorems across random
//! instances: Theorem 3.1's reduction object, Theorem 4.1, Theorem 6.1,
//! Theorem 6.2, Theorem 6.3, Theorem 6.4, and the ratio bounds of
//! Theorems 6.5 / 6.7.

use proptest::prelude::*;

use dams_core::{
    dtrs_token_sets_fast, game_theoretic, optimal_modular, progressive, psi, RatioParams,
    SelectionPolicy,
};
use dams_diversity::{
    analyze, analyze_exact, enumerate_combinations, enumerate_dtrs, matching::reduction_graph,
    DiversityRequirement, HtHistogram, HtId, RingIndex, RingSet, RsId, TokenId, TokenUniverse,
};

/// Strategy: a small random ring set over `n` tokens.
fn small_rings(n: u32, max_rings: usize) -> impl Strategy<Value = Vec<RingSet>> {
    prop::collection::vec(
        prop::collection::btree_set(0..n, 1..=(n.min(4)) as usize),
        1..=max_rings,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .map(|s| RingSet::new(s.into_iter().map(TokenId)))
            .collect()
    })
}

/// Strategy: a universe of `n` tokens over up to `h` HTs.
fn universe(n: usize, h: u32) -> impl Strategy<Value = TokenUniverse> {
    prop::collection::vec(0..h, n)
        .prop_map(|v| TokenUniverse::new(v.into_iter().map(HtId).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.1's reduction object: token–RS combinations are exactly
    /// the left-perfect matchings of the ring/token incidence graph.
    #[test]
    fn combinations_equal_matchings(rings in small_rings(6, 4)) {
        let idx = RingIndex::from_rings(rings);
        let ids: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &ids);
        let (graph, _) = reduction_graph(&idx, &ids);
        prop_assert_eq!(combos.len(), graph.enumerate_matchings().len());
    }

    /// Theorem 4.1: when a family of rings covers exactly as many tokens
    /// as rings, the exact adversary confirms all those tokens consumed.
    #[test]
    fn tight_families_are_consumed(rings in small_rings(5, 4)) {
        let idx = RingIndex::from_rings(rings);
        let ids: Vec<RsId> = idx.ids().collect();
        let union: std::collections::BTreeSet<TokenId> = ids
            .iter()
            .flat_map(|&r| idx.ring(r).tokens().iter().copied())
            .collect();
        prop_assume!(union.len() == ids.len());
        let exact = analyze_exact(&idx, &[]);
        prop_assume!(exact.contradictions.is_empty());
        for t in union {
            prop_assert!(exact.consumed_somewhere.contains(&t));
        }
    }

    /// The fast chain-reaction adversary is sound relative to the exact
    /// one: it never claims a pair or consumption the exact adversary
    /// would not.
    #[test]
    fn fast_adversary_is_sound(rings in small_rings(6, 4)) {
        let idx = RingIndex::from_rings(rings);
        let exact = analyze_exact(&idx, &[]);
        prop_assume!(exact.contradictions.is_empty());
        let fast = analyze(&idx, &[]);
        for p in &fast.proven {
            prop_assert!(exact.proven.contains(p));
        }
        for t in &fast.consumed_somewhere {
            prop_assert!(exact.consumed_somewhere.contains(t));
        }
    }

    /// Theorem 6.4: if a ring satisfies (c, ℓ+1), every ψ token set (drop
    /// one whole HT) satisfies (c, ℓ).
    #[test]
    fn margin_protects_every_psi(
        uni in universe(8, 4),
        tokens in prop::collection::btree_set(0u32..8, 2..=8),
        c in 0.2f64..3.0,
        l in 1usize..4,
    ) {
        let ring = RingSet::new(tokens.into_iter().map(TokenId));
        let req = DiversityRequirement::new(c, l);
        let margin = req.with_margin();
        prop_assume!(margin.satisfied_by(&HtHistogram::from_ring(&ring, &uni)));
        let mut hts: Vec<HtId> = ring.tokens().iter().map(|t| uni.ht(*t)).collect();
        hts.sort_unstable();
        hts.dedup();
        for h in hts {
            let d = psi(&ring, &uni, h);
            prop_assert!(
                req.satisfied_by(&HtHistogram::from_ring(&d, &uni)),
                "psi for {:?} violated (c, l)", h
            );
        }
    }

    /// Theorem 6.2 (empirical form): with fewer than |r| − q_M revealed
    /// pairs about *other* rings, the exact adversary cannot reduce an
    /// isolated diverse ring's candidate HTs to one.
    #[test]
    fn side_info_threshold_protects_ht(
        uni in universe(6, 5),
        tokens in prop::collection::btree_set(0u32..6, 2..=4),
    ) {
        let ring = RingSet::new(tokens.into_iter().map(TokenId));
        let hist = HtHistogram::from_ring(&ring, &uni);
        let threshold = ring.len() - hist.q1();
        prop_assume!(threshold >= 1);
        // Isolated ring: no other rings, no side info below threshold is
        // even expressible — the candidates are the whole ring.
        let idx = RingIndex::from_rings([ring.clone()]);
        let exact = analyze_exact(&idx, &[]);
        let cands = &exact.candidates[&RsId(0)];
        let hts: std::collections::BTreeSet<HtId> =
            cands.iter().map(|t| uni.ht(*t)).collect();
        // q1 < |r| means at least two HTs remain.
        prop_assert!(hts.len() > 1);
    }

    /// Approximation guarantees: on feasible small instances, Progressive
    /// and Game-theoretic results stay within the theorem bounds of the
    /// module-level optimum, and are never smaller than it.
    #[test]
    fn ratio_bounds_hold(
        seed in 0u64..500,
        l in 2usize..5,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = dams_workload::SyntheticConfig {
            num_super: 5,
            super_size: (2, 4),
            num_fresh: 3,
            sigma: 3.0,
            ht_model: None,
        };
        let inst = cfg.generate(&mut rng);
        let c = 1.0;
        let req = DiversityRequirement::new(c, l);
        let policy = SelectionPolicy::new(req);
        let target = TokenId(0);
        let opt = optimal_modular(&inst, target, policy);
        let prog = progressive(&inst, target, policy);
        let game = game_theoretic(&inst, target, policy);
        match opt {
            Ok(opt_sel) => {
                let opt_size = inst.size_of(&opt_sel) as f64;
                let params = RatioParams::of(&inst);
                if let Ok(p) = prog {
                    prop_assert!(p.size() as f64 >= opt_size);
                    prop_assert!(
                        p.size() as f64 / opt_size <= params.progressive_bound(c, l) + 1e-9
                    );
                }
                if let Ok(g) = game {
                    prop_assert!(g.size() as f64 >= opt_size);
                    prop_assert!(g.size() as f64 / opt_size <= params.poa_bound(c, l) + 1e-9);
                }
            }
            Err(_) => {
                prop_assert!(prog.is_err());
                prop_assert!(game.is_err());
            }
        }
    }
}

/// Theorem 6.1 cross-validation on the laminar motif: the fast DTRS test
/// is a sound over-approximation — every HT the exact enumerator proves
/// determinable is also reported by the fast path (the converse can fail
/// because the theorem's ψ sets need not be realizable as token–RS pairs
/// in small histories; over-reporting is the safe direction for privacy).
#[test]
fn theorem_6_1_fast_vs_exact_on_nested_history() {
    // History: r0 ⊂ r1 ⊂ r2 with hand-picked HTs.
    let uni = TokenUniverse::new(vec![HtId(0), HtId(0), HtId(1), HtId(2), HtId(3)]);
    let rings: Vec<RingSet> = vec![
        RingSet::new([TokenId(0), TokenId(1)]),
        RingSet::new([TokenId(0), TokenId(1), TokenId(2)]),
        RingSet::new([TokenId(0), TokenId(1), TokenId(2), TokenId(3)]),
    ];
    let idx = RingIndex::from_rings(rings);
    let ids: Vec<RsId> = idx.ids().collect();
    let combos = enumerate_combinations(&idx, &ids);

    // Super ring is r2 (id 2) with subset count v = 3.
    let target_slot = 2;
    let exact = enumerate_dtrs(&combos, &ids, target_slot, &uni);
    let fast = dtrs_token_sets_fast(idx.ring(RsId(2)), &uni, 3);

    let exact_hts: std::collections::BTreeSet<HtId> =
        exact.iter().map(|d| d.determined_ht).collect();
    let fast_hts: std::collections::BTreeSet<HtId> = fast.iter().map(|(h, _)| *h).collect();
    assert!(
        exact_hts.is_subset(&fast_hts),
        "fast path missed an exact DTRS: exact {exact:?} vs fast {fast:?}"
    );
    assert!(!fast_hts.is_empty(), "v = 3 saturates the nested ring");
}

/// Theorem 6.3: committing a ring that is disjoint from an existing ring
/// leaves the existing ring's exact candidate set unchanged.
#[test]
fn theorem_6_3_disjoint_ring_changes_nothing() {
    let r_old = RingSet::new([TokenId(0), TokenId(1), TokenId(2)]);
    let before = analyze_exact(&RingIndex::from_rings([r_old.clone()]), &[]);
    let r_new = RingSet::new([TokenId(3), TokenId(4)]);
    let after = analyze_exact(&RingIndex::from_rings([r_old, r_new]), &[]);
    assert_eq!(before.candidates[&RsId(0)], after.candidates[&RsId(0)]);
}

/// Theorem 6.3, superset case: a superset ring cannot *resolve* the token
/// of the contained ring.
#[test]
fn theorem_6_3_superset_ring_keeps_ambiguity() {
    let r_old = RingSet::new([TokenId(0), TokenId(1)]);
    let r_new = RingSet::new([TokenId(0), TokenId(1), TokenId(2), TokenId(3)]);
    let after = analyze_exact(&RingIndex::from_rings([r_old, r_new]), &[]);
    assert!(after.candidates[&RsId(0)].len() > 1);
    assert!(after.candidates[&RsId(1)].len() > 1);
}
