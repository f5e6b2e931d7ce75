//! The Progressive Algorithm (Algorithm 4, §6.2).
//!
//! A two-phase greedy over modules (super RSs and fresh tokens):
//!
//! 1. **Coverage phase** — while the selection spans fewer than ℓ distinct
//!    HTs, add the module with minimal
//!    `α_i = |x_i| / min(ℓ − |H|, |H_i \ H|)` (cheapest new-HT coverage —
//!    the classic partial-cover greedy, giving the `Σ 1/i` term of the
//!    Theorem 6.5 approximation ratio).
//! 2. **Diversity phase** — while the recursive (c, ℓ) condition fails,
//!    add the module with maximal `β_i = (δ − δ_i) / |x_i|` where
//!    `δ = q_1 − c·(q_ℓ + … + q_θ)` is the current slack (best slack
//!    reduction per token).
//!
//! Both phases run on one [`DeltaHistogram`] of the selection, the
//! running HT counts. The coverage phase reads a module's new HTs off it
//! (`NewHts`); the diversity phase adds a probed module's tokens and
//! removes them again. An iteration therefore costs O(Σ module sizes)
//! and no probe allocates; the slack comes from the same integers
//! through [`DiversityRequirement::slack_parts`], so every choice,
//! tie-break and counter is what rebuilding the union's
//! [`dams_diversity::HtHistogram`] per probe gave.

use dams_diversity::{DeltaHistogram, DiversityRequirement, TokenId, TokenUniverse};

use crate::config::SelectionPolicy;
use crate::instance::{ModularInstance, ModuleId};
use crate::selection::{Algorithm, SelectError, Selection, SelectionStats};

/// Run the Progressive Algorithm for `target` under `policy`.
pub fn progressive(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
) -> Result<Selection, SelectError> {
    if (target.0 as usize) >= instance.universe.len() {
        return Err(SelectError::UnknownToken);
    }
    let req = policy.effective();
    let mut stats = SelectionStats::default();

    let x_tau = instance.module_of(target);
    let mut selected: Vec<ModuleId> = vec![x_tau];
    let mut remaining: Vec<ModuleId> = instance
        .modules()
        .iter()
        .map(|m| m.id)
        .filter(|&id| id != x_tau)
        .collect();

    let mut hist = DeltaHistogram::for_universe(&instance.universe);
    add_module(&mut hist, instance, x_tau);
    let mut novelty = NewHts::new(&instance.universe);

    // Phase 1: reach ℓ distinct HTs.
    while hist.theta() < req.l {
        stats.iterations += 1;
        let mut best: Option<(f64, usize)> = None; // (alpha, idx into remaining)
        for (idx, &id) in remaining.iter().enumerate() {
            let new_hts = novelty.count(&hist, instance, id);
            if new_hts == 0 {
                continue;
            }
            let need = req.l - hist.theta();
            let denom = need.min(new_hts) as f64;
            let alpha = instance.module(id).len() as f64 / denom;
            stats.candidates_examined += 1;
            let better = match best {
                None => true,
                Some((b, bidx)) => {
                    alpha < b
                        || (alpha == b
                            && instance.module(id).len() < instance.module(remaining[bidx]).len())
                }
            };
            if better {
                best = Some((alpha, idx));
            }
        }
        let Some((_, idx)) = best else {
            // No module adds a new HT: the batch lacks ℓ distinct HTs.
            return Err(SelectError::Infeasible);
        };
        let id = remaining.swap_remove(idx);
        add_module(&mut hist, instance, id);
        selected.push(id);
    }

    // Phase 2: satisfy the recursive (c, ℓ) condition.
    loop {
        stats.diversity_checks += 1;
        let delta = hist.slack(&req);
        if delta < 0.0 {
            break;
        }
        stats.iterations += 1;
        let mut best: Option<(f64, usize)> = None; // (beta, idx)
        for (idx, &id) in remaining.iter().enumerate() {
            let delta_i = slack_with(&mut hist, instance, &[id], &req);
            stats.diversity_checks += 1;
            stats.candidates_examined += 1;
            let beta = (delta - delta_i) / instance.module(id).len() as f64;
            let better = match best {
                None => true,
                Some((b, bidx)) => {
                    beta > b
                        || (beta == b
                            && instance.module(id).len() < instance.module(remaining[bidx]).len())
                }
            };
            if better {
                best = Some((beta, idx));
            }
        }
        let Some((beta, idx)) = best else {
            return Err(SelectError::Infeasible);
        };
        if beta <= 0.0 {
            // No module reduces the slack: with every remaining module the
            // condition cannot be met — adding them all is the only
            // remaining option and it has non-positive gain per token. Try
            // the full union once before declaring infeasibility.
            stats.diversity_checks += 1;
            if slack_with(&mut hist, instance, &remaining, &req) < 0.0 {
                // Fall through: keep greedy-adding; β ordering still picks
                // the best direction.
            } else {
                return Err(SelectError::Infeasible);
            }
        }
        let id = remaining.swap_remove(idx);
        add_module(&mut hist, instance, id);
        selected.push(id);
    }

    selected.sort_unstable();
    Ok(Selection {
        ring: instance.ring_of(&selected),
        modules: selected,
        algorithm: Algorithm::Progressive,
        stats,
    })
}

pub(crate) fn add_module(hist: &mut DeltaHistogram, instance: &ModularInstance, id: ModuleId) {
    for &t in instance.module(id).tokens.tokens() {
        hist.add_token(&instance.universe, t);
    }
}

/// The slack of the selection in `hist` plus `probe`, leaving `hist` as
/// it was.
fn slack_with(
    hist: &mut DeltaHistogram,
    instance: &ModularInstance,
    probe: &[ModuleId],
    req: &DiversityRequirement,
) -> f64 {
    for &id in probe {
        add_module(hist, instance, id);
    }
    let slack = hist.slack(req);
    for &id in probe {
        for &t in instance.module(id).tokens.tokens() {
            hist.remove_token(&instance.universe, t);
        }
    }
    slack
}

/// Counts the distinct HTs a module would add to a selection's
/// histogram. Each label it meets is stamped with the probe's number
/// instead of being collected into a set, so a probe allocates nothing.
/// The coverage phases of Progressive and of the game share it.
pub(crate) struct NewHts {
    /// `stamp[h]` — the last probe that counted label `h`.
    stamp: Vec<usize>,
    probe: usize,
}

impl NewHts {
    /// Stamps for every HT label of `universe`.
    pub(crate) fn new(universe: &TokenUniverse) -> Self {
        NewHts {
            stamp: vec![0; universe.labels()],
            probe: 0,
        }
    }

    /// `|H_i \ H|` — the distinct HTs of module `id` absent from `hist`.
    pub(crate) fn count(
        &mut self,
        hist: &DeltaHistogram,
        instance: &ModularInstance,
        id: ModuleId,
    ) -> usize {
        self.probe += 1;
        let mut new = 0;
        for &t in instance.module(id).tokens.tokens() {
            let h = instance.universe.ht(t);
            if hist.count(h) == 0 && self.stamp[h.0 as usize] != self.probe {
                self.stamp[h.0 as usize] = self.probe;
                new += 1;
            }
        }
        new
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::{Module, ModuleKind};
    use dams_diversity::{ring, HtId, RsId};

    /// Example 3 of §6.2, exactly the paper's instance: four super RSs,
    /// no fresh tokens. Paper token t_k is id k−1.
    /// h1: t1,t2,t7,t8; h2: t3,t4,t9; h3: t5,t13,t14; h6: t6,t10;
    /// h4: t11,t15; h5: t12.
    pub(crate) fn example3() -> ModularInstance {
        let hts = vec![
            1, 1, 2, 2, 3, 6, // t1..t6  = ids 0..5
            1, 1, 2, 6, // t7..t10 = ids 6..9
            4, 5, // t11, t12 = ids 10, 11
            3, 3, 4, // t13..t15 = ids 12..14
        ];
        let universe = TokenUniverse::new(hts.into_iter().map(HtId).collect());
        let modules = vec![
            Module {
                id: ModuleId(0),
                kind: ModuleKind::SuperRs(RsId(0)),
                tokens: ring(&[0, 1, 2, 3, 4, 5]),
            },
            Module {
                id: ModuleId(1),
                kind: ModuleKind::SuperRs(RsId(1)),
                tokens: ring(&[6, 7, 8, 9]),
            },
            Module {
                id: ModuleId(2),
                kind: ModuleKind::SuperRs(RsId(2)),
                tokens: ring(&[10, 11]),
            },
            Module {
                id: ModuleId(3),
                kind: ModuleKind::SuperRs(RsId(3)),
                tokens: ring(&[12, 13, 14]),
            },
        ];
        ModularInstance::from_modules(universe, modules)
    }

    /// The paper's target in Example 3: t11 = id 10.
    pub(crate) const T11: TokenId = TokenId(10);

    #[test]
    fn example3_first_phase_picks_s2() {
        // Consuming t11 with (1, 4): x_τ = s3 ({t11,t12}: HTs {4,5}).
        // Phase 1 needs 2 more HTs. α(s1) = 6/2, α(s2) = 4/2, α(s4) = 3/1
        // (s4 adds only h3). min α = s2 → "In the first iteration of the
        // first while-loop, we get r_τ = s3 ∪ s2".
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
        let sel = progressive(&inst, T11, policy).unwrap();
        assert!(sel.modules.contains(&ModuleId(2)), "{sel:?}");
        assert!(sel.modules.contains(&ModuleId(1)), "phase 1 adds s2");
    }

    #[test]
    fn example3_second_phase_adds_s4() {
        // After s3 ∪ s2 the multiset is {h4,h5,h1,h1,h2,h6}: q = [2,1,1,1,1],
        // θ = 5; (1,4): δ = 2 − (q4+q5) = 0 → violated. The paper: "In the
        // first iteration of the second while-loop, we add s4 to r_τ, since
        // β4 = 1/3 and β1 = −1/6." Result: s2 ∪ s3 ∪ s4, size 9.
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
        let sel = progressive(&inst, T11, policy).unwrap();
        assert!(
            sel.modules.contains(&ModuleId(3)),
            "phase 2 adds s4: {sel:?}"
        );
        assert_eq!(sel.size(), 9, "s2 + s3 + s4 = 4 + 2 + 3: {sel:?}");
    }

    #[test]
    fn result_satisfies_requirement() {
        let inst = example3();
        for l in 1..=5 {
            let req = DiversityRequirement::new(1.0, l);
            let policy = SelectionPolicy::new(req);
            if let Ok(sel) = progressive(&inst, T11, policy) {
                assert!(
                    req.satisfied_by(&inst.histogram_of(&sel.modules)),
                    "l={l}: {sel:?}"
                );
                assert!(sel.ring.contains(T11));
            }
        }
    }

    #[test]
    fn infeasible_when_l_exceeds_distinct_hts() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 10));
        assert_eq!(
            progressive(&inst, T11, policy).unwrap_err(),
            SelectError::Infeasible
        );
    }

    #[test]
    fn unknown_token_rejected() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        assert_eq!(
            progressive(&inst, TokenId(999), policy).unwrap_err(),
            SelectError::UnknownToken
        );
    }

    #[test]
    fn target_module_always_included() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(2.0, 2));
        for t in [0u32, 6, 10, 12, 14] {
            if let Ok(sel) = progressive(&inst, TokenId(t), policy) {
                assert!(sel.modules.contains(&inst.module_of(TokenId(t))));
            }
        }
    }

    #[test]
    fn margin_policy_yields_larger_or_equal_rings() {
        let inst = example3();
        let req = DiversityRequirement::new(1.0, 3);
        let plain = progressive(&inst, T11, SelectionPolicy::new(req)).unwrap();
        let margin = progressive(&inst, T11, SelectionPolicy::with_margin(req)).unwrap();
        assert!(margin.size() >= plain.size());
    }
}
