//! Incremental modular-history maintenance.
//!
//! Under the first practical configuration, every committed ring is a
//! union of whole modules, so committing merges those modules into one new
//! super RS. Rebuilding the view from scratch
//! ([`crate::ModularInstance::decompose`]) costs O(n²) per commit; this
//! incremental structure applies the merge directly in O(n) — what a
//! simulated batch keeps between spends.

use dams_diversity::{DiversityRequirement, RingIndex, RingSet, RsId, TokenUniverse};

use crate::instance::{ModularInstance, Module, ModuleId, ModuleKind};
use crate::selection::Selection;

/// A batch's evolving modular view plus its committed-ring history.
#[derive(Debug, Clone)]
pub struct ModularHistory {
    instance: ModularInstance,
    rings: RingIndex,
    claims: Vec<DiversityRequirement>,
    /// Per current module: how many committed rings it contains (its `v`).
    subset_counts: Vec<usize>,
}

impl ModularHistory {
    /// A fresh batch: every token is a fresh-token module.
    pub fn fresh(universe: TokenUniverse) -> Self {
        let modules: Vec<Module> = universe
            .tokens()
            .enumerate()
            .map(|(i, t)| Module {
                id: ModuleId(i),
                kind: ModuleKind::FreshToken,
                tokens: RingSet::new([t]),
            })
            .collect();
        let n = modules.len();
        ModularHistory {
            instance: ModularInstance::from_modules(universe, modules),
            rings: RingIndex::new(),
            claims: Vec::new(),
            subset_counts: vec![0; n],
        }
    }

    /// The current modular view (what the selection algorithms take).
    pub fn instance(&self) -> &ModularInstance {
        &self.instance
    }

    /// The committed rings so far.
    pub fn rings(&self) -> &RingIndex {
        &self.rings
    }

    /// The committed rings' claims, aligned with [`Self::rings`].
    pub fn claims(&self) -> &[DiversityRequirement] {
        &self.claims
    }

    /// Commit a selection produced against the *current* instance: the
    /// selected modules merge into one super RS. O(n) in the module count.
    ///
    /// Panics when the selection's modules are stale (not ids of the
    /// current view) — commit selections in the order they were produced.
    pub fn commit(&mut self, selection: &Selection, claim: DiversityRequirement) {
        let merged: std::collections::BTreeSet<ModuleId> =
            selection.modules.iter().copied().collect();
        assert!(
            !merged.is_empty(),
            "selection carries no module decomposition (BFS results need the modular path)"
        );
        for id in &merged {
            assert!(
                id.0 < self.instance.modules().len(),
                "stale module id {id:?}"
            );
        }
        let rs_id = RsId(self.rings.len() as u32);
        self.rings.push(selection.ring.clone());
        self.claims.push(claim);

        // Rebuild the module list with the merged module appended last.
        let mut new_modules: Vec<Module> =
            Vec::with_capacity(self.instance.modules().len() + 1 - merged.len());
        let mut new_counts: Vec<usize> = Vec::with_capacity(new_modules.capacity());
        let mut merged_v = 1usize; // the new ring itself
        for m in self.instance.modules() {
            if merged.contains(&m.id) {
                merged_v += self.subset_counts[m.id.0];
            } else {
                let id = ModuleId(new_modules.len());
                new_counts.push(self.subset_counts[m.id.0]);
                new_modules.push(Module {
                    id,
                    kind: m.kind,
                    tokens: m.tokens.clone(),
                });
            }
        }
        new_counts.push(merged_v);
        new_modules.push(Module {
            id: ModuleId(new_modules.len()),
            kind: ModuleKind::SuperRs(rs_id),
            tokens: selection.ring.clone(),
        });
        self.instance = ModularInstance::from_modules(self.instance.universe.clone(), new_modules);
        self.subset_counts = new_counts;
    }

    /// The subset count `v` of a current module (Theorem 6.1's input).
    pub fn subset_count(&self, id: ModuleId) -> usize {
        self.subset_counts[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionPolicy;
    use crate::instance::Instance;
    use crate::progressive::progressive;
    use dams_diversity::{HtId, TokenId};

    fn universe() -> TokenUniverse {
        TokenUniverse::new((0..24u32).map(|i| HtId(i / 3)).collect())
    }

    #[test]
    fn fresh_history_is_all_fresh_tokens() {
        let h = ModularHistory::fresh(universe());
        assert_eq!(h.instance().fresh_count(), 24);
        assert_eq!(h.instance().super_count(), 0);
        assert_eq!(h.rings().len(), 0);
    }

    #[test]
    fn commit_merges_modules() {
        let req = DiversityRequirement::new(1.0, 3);
        let mut h = ModularHistory::fresh(universe());
        let sel = progressive(h.instance(), TokenId(0), SelectionPolicy::new(req)).unwrap();
        let picked = sel.modules.len();
        h.commit(&sel, req);
        assert_eq!(h.rings().len(), 1);
        assert_eq!(h.instance().super_count(), 1);
        assert_eq!(h.instance().fresh_count(), 24 - picked);
        // the merged module's v counts the new ring only (fresh had v=0)
        let merged_id = ModuleId(h.instance().modules().len() - 1);
        assert_eq!(h.subset_count(merged_id), 1);
    }

    #[test]
    fn incremental_matches_full_decomposition() {
        // After several commits, the incremental view and the from-scratch
        // decomposition agree on the module partition.
        let req = DiversityRequirement::new(1.0, 3);
        let mut h = ModularHistory::fresh(universe());
        for t in [0u32, 9, 15] {
            let sel = progressive(h.instance(), TokenId(t), SelectionPolicy::new(req)).unwrap();
            h.commit(&sel, req);
        }
        let raw = Instance::new(universe(), h.rings().clone(), h.claims().to_vec());
        let full = ModularInstance::decompose(&raw).unwrap();
        assert_eq!(full.super_count(), h.instance().super_count());
        assert_eq!(full.fresh_count(), h.instance().fresh_count());
        // Same partition: compare the sorted token sets of all modules.
        let canon = |inst: &ModularInstance| {
            let mut v: Vec<Vec<u32>> = inst
                .modules()
                .iter()
                .map(|m| m.tokens.tokens().iter().map(|t| t.0).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&full), canon(h.instance()));
    }

    #[test]
    fn nested_commits_accumulate_subset_counts() {
        // Commit ring A, then a superset ring B containing A's module:
        // B's v must count both.
        let req = DiversityRequirement::new(2.0, 2);
        let mut h = ModularHistory::fresh(universe());
        let a = progressive(h.instance(), TokenId(0), SelectionPolicy::new(req)).unwrap();
        h.commit(&a, req);
        // Target a token inside A's merged module: the next selection
        // must include the whole module.
        let inside = a.ring.tokens()[0];
        let b = progressive(h.instance(), inside, SelectionPolicy::new(req)).unwrap();
        let grew = b.ring.len() > a.ring.len();
        h.commit(&b, req);
        let merged_id = ModuleId(h.instance().modules().len() - 1);
        if grew {
            assert!(h.subset_count(merged_id) >= 2, "B contains A and itself");
        } else {
            assert_eq!(h.subset_count(merged_id), 2);
        }
    }

    #[test]
    #[should_panic(expected = "stale module id")]
    fn stale_selection_rejected() {
        let req = DiversityRequirement::new(1.0, 3);
        let mut h = ModularHistory::fresh(universe());
        let sel = progressive(h.instance(), TokenId(0), SelectionPolicy::new(req)).unwrap();
        h.commit(&sel, req);
        // Forge a selection with an out-of-range module id.
        let mut stale = sel.clone();
        stale.modules = vec![ModuleId(9999)];
        h.commit(&stale, req);
    }
}
