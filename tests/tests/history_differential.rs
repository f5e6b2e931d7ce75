//! Differential testing: the incremental `ModularHistory` must agree with
//! full re-decomposition after every commit, across random spend sequences
//! and universes — the invariant that lets wallets skip the O(n²) rebuild.

use proptest::prelude::*;
use rand::rngs::StdRng;

use dams_core::{progressive, Instance, ModularHistory, ModularInstance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_equals_full_decomposition(
        ht_groups in 4usize..10,
        group_size in 2usize..4,
        spends in prop::collection::vec(0u32..24, 1..6),
        l in 2usize..4,
        seed in 0u64..100,
    ) {
        let n = ht_groups * group_size;
        let universe = TokenUniverse::new(
            (0..n as u32).map(|i| HtId(i / group_size as u32)).collect(),
        );
        let req = DiversityRequirement::new(1.0, l);
        let policy = SelectionPolicy::new(req);
        let mut history = ModularHistory::fresh(universe.clone());
        let _rng = StdRng::seed_from_u64(seed);

        for &s in &spends {
            let target = TokenId(s % n as u32);
            let Ok(sel) = progressive(history.instance(), target, policy) else {
                continue; // infeasible draws are fine; invariant is per-commit
            };
            history.commit(&sel, req);

            // Full re-decomposition from the committed ring history.
            let raw = Instance::new(
                universe.clone(),
                history.rings().clone(),
                history.claims().to_vec(),
            );
            let full = ModularInstance::decompose(&raw).expect("laminar by construction");

            // The partitions must be identical (as sets of token sets).
            let canon = |inst: &ModularInstance| {
                let mut v: Vec<Vec<u32>> = inst
                    .modules()
                    .iter()
                    .map(|m| m.tokens.tokens().iter().map(|t| t.0).collect())
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(canon(&full), canon(history.instance()));
            prop_assert_eq!(full.super_count(), history.instance().super_count());

            // And the subset counts (Theorem 6.1's v) must agree per module.
            for m in history.instance().modules() {
                let full_mod = full
                    .modules()
                    .iter()
                    .find(|fm| fm.tokens == m.tokens)
                    .expect("same partition");
                prop_assert_eq!(
                    full.subset_count(full_mod.id),
                    history.subset_count(m.id),
                    "v mismatch for module {:?}", m.id
                );
            }
        }
    }
}
