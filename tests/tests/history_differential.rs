//! Differential testing: folding each committed ring into the module
//! partition in place (`ModularInstance::fold_ring`) must leave exactly
//! what a full re-decomposition returns after every commit — the same
//! modules in the same order, with the same kinds, tokens and subset
//! counts — across random spend sequences and universes. That is the
//! invariant that lets the index and the η simulation skip the O(n²)
//! rebuild.

use proptest::prelude::*;

use dams_core::{progressive, Instance, ModularInstance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_equals_full_decomposition(
        ht_groups in 4usize..10,
        group_size in 2usize..4,
        spends in prop::collection::vec(0u32..24, 1..6),
        l in 2usize..4,
    ) {
        let n = ht_groups * group_size;
        let universe = TokenUniverse::new(
            (0..n as u32).map(|i| HtId(i / group_size as u32)).collect(),
        );
        let req = DiversityRequirement::new(1.0, l);
        let policy = SelectionPolicy::new(req);
        let mut instance = Instance::fresh(universe.clone());
        let mut modular = ModularInstance::fresh(universe);

        for &s in &spends {
            let target = TokenId(s % n as u32);
            let Ok(sel) = progressive(&modular, target, policy) else {
                continue; // infeasible draws are fine; invariant is per-commit
            };
            let rs = instance.rings.push(sel.ring);
            instance.claims.push(req);
            prop_assert!(modular.fold_ring(rs, instance.rings.ring(rs)).is_some());

            // Full re-decomposition from the committed ring history.
            let full = ModularInstance::decompose(&instance).expect("laminar by construction");
            let shape = |m: &ModularInstance| -> Vec<_> {
                m.modules()
                    .iter()
                    .map(|x| (x.id, x.kind, x.tokens.clone(), m.subset_count(x.id)))
                    .collect()
            };
            prop_assert_eq!(shape(&modular), shape(&full));
            for t in instance.universe.tokens() {
                prop_assert_eq!(modular.module_of(t), full.module_of(t));
            }
        }
    }
}
