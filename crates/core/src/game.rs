//! The Game-theoretic Algorithm (Algorithm 5, §6.3).
//!
//! Modules are *players* with two strategies — selected (φ) or not (φ̄).
//! After the same coverage phase as the Progressive Algorithm, each player
//! repeatedly best-responds to the others: its cost is `|r̃|/|A|` when the
//! resulting ring satisfies the recursive (c, ℓ) condition and ∞ otherwise
//! (ties resolve to φ, per line 7 of the pseudocode). The cost differences
//! equal the differences of a potential function, so the dynamics converge
//! to a Nash equilibrium in polynomial time (Theorem 6.6) with
//! price-of-stability 1 and a bounded price of anarchy (Theorem 6.7).

use std::collections::BTreeSet;

use dams_diversity::{DeltaHistogram, DiversityRequirement, HtId, TokenId};

use crate::config::SelectionPolicy;
use crate::instance::{ModularInstance, ModuleId};
use crate::selection::{Algorithm, SelectError, Selection, SelectionStats};

/// Run the Game-theoretic Algorithm for `target` under `policy`.
pub fn game_theoretic(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
) -> Result<Selection, SelectError> {
    game_theoretic_from(instance, target, policy, InitStrategy::CoverageGreedy)
}

/// A profile evaluated incrementally: the [`DeltaHistogram`] and ring size
/// are flipped by one *module* at a time instead of rebuilding an
/// [`dams_diversity::HtHistogram`] over every selected token per cost
/// evaluation. Verdicts route through
/// [`DiversityRequirement::satisfied_by_parts`] and sizes are the same
/// integers `ModularInstance::size_of` sums, so decisions are identical to
/// the reference path.
struct ProfileEval<'a> {
    instance: &'a ModularInstance,
    req: DiversityRequirement,
    hist: DeltaHistogram,
    size: usize,
    selected: Vec<bool>,
}

impl<'a> ProfileEval<'a> {
    fn new(instance: &'a ModularInstance, req: DiversityRequirement, selected: &[bool]) -> Self {
        let mut eval = ProfileEval {
            instance,
            req,
            hist: DeltaHistogram::for_universe(&instance.universe),
            size: 0,
            selected: vec![false; selected.len()],
        };
        for (i, &on) in selected.iter().enumerate() {
            if on {
                eval.set(ModuleId(i), true);
            }
        }
        eval
    }

    /// Flip one player's strategy (no-op when already there).
    fn set(&mut self, m: ModuleId, v: bool) {
        if self.selected[m.0] == v {
            return;
        }
        self.selected[m.0] = v;
        let module = self.instance.module(m);
        for &t in module.tokens.tokens() {
            if v {
                self.hist.add_token(&self.instance.universe, t);
            } else {
                self.hist.remove_token(&self.instance.universe, t);
            }
        }
        if v {
            self.size += module.len();
        } else {
            self.size -= module.len();
        }
    }

    /// Evaluate the current profile: (diverse?, ring size). Counts one
    /// diversity check — exactly like the reference `profile_cost`.
    fn eval(&self, stats: &mut SelectionStats) -> (bool, usize) {
        stats.diversity_checks += 1;
        (self.hist.satisfies(&self.req), self.size)
    }

    /// Uncounted verdict on the current profile.
    fn satisfied(&self) -> bool {
        self.hist.satisfies(&self.req)
    }
}

/// How the best-response dynamics are initialised. Every selector starts
/// from `CoverageGreedy`; the equivalence and convergence tests also start
/// from `AllSelected` to check the dynamics do not depend on the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Algorithm 5's phase 1: greedy coverage to ℓ distinct HTs.
    CoverageGreedy,
    /// Start from *all* modules selected (always diversity-feasible when
    /// the instance is feasible at all).
    AllSelected,
}

/// Run with an explicit initialisation strategy.
pub fn game_theoretic_from(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
    init: InitStrategy,
) -> Result<Selection, SelectError> {
    if (target.0 as usize) >= instance.universe.len() {
        return Err(SelectError::UnknownToken);
    }
    let req = policy.effective();
    let mut stats = SelectionStats::default();

    let x_tau = instance.module_of(target);
    let n_modules = instance.modules().len();
    let mut selected = vec![false; n_modules];
    selected[x_tau.0] = true;

    match init {
        InitStrategy::AllSelected => {
            selected.iter_mut().for_each(|s| *s = true);
        }
        InitStrategy::CoverageGreedy => {
            // Phase 1 (identical shape to Progressive's): γ_i = α_i.
            let mut covered: BTreeSet<HtId> = module_hts(instance, x_tau);
            while covered.len() < req.l {
                stats.iterations += 1;
                let mut best: Option<(f64, ModuleId)> = None;
                for m in instance.modules() {
                    if selected[m.id.0] {
                        continue;
                    }
                    let hts = module_hts(instance, m.id);
                    let new_hts = hts.difference(&covered).count();
                    if new_hts == 0 {
                        continue;
                    }
                    let need = req.l - covered.len();
                    let gamma = m.len() as f64 / need.min(new_hts) as f64;
                    stats.candidates_examined += 1;
                    let better = match best {
                        None => true,
                        Some((b, bid)) => {
                            gamma < b || (gamma == b && m.len() < instance.module(bid).len())
                        }
                    };
                    if better {
                        best = Some((gamma, m.id));
                    }
                }
                let Some((_, id)) = best else {
                    return Err(SelectError::Infeasible);
                };
                selected[id.0] = true;
                covered.extend(module_hts(instance, id));
            }
        }
    }

    // Best-response dynamics. The potential decreases by >= 1/|A| per
    // strategy change while finite, so changes are bounded; the caps are
    // defensive backstops, not expected exits.
    //
    // Equilibrium selection: the paper leaves "foreach player a_i ∈ A"
    // unordered, and different response orders converge to different Nash
    // equilibria (all within the Theorem 6.7 PoA bound). Index order
    // matches the paper's Example 3 walkthrough; smallest-module-first
    // lets fresh tokens pre-empt large super RSs when the profile is
    // infeasible (without it, a TM_G > TM_P inversion appears in the
    // Figure 10 sweep). We run both orders and keep the smaller ring —
    // each result is a genuine equilibrium, so this is pure equilibrium
    // selection, not a change to the game.
    let index_order: Vec<ModuleId> = instance.modules().iter().map(|m| m.id).collect();
    let mut size_order = index_order.clone();
    size_order.sort_by_key(|&id| (instance.module(id).len(), id));

    let mut best: Option<Vec<bool>> = None;
    for order in [&index_order, &size_order] {
        let mut profile = selected.clone();
        if !best_response(instance, order, x_tau, req, &mut profile, &mut stats) {
            continue;
        }
        let size: usize = (0..n_modules)
            .filter(|&i| profile[i])
            .map(|i| instance.module(ModuleId(i)).len())
            .sum();
        let better = match &best {
            None => true,
            Some(b) => {
                let b_size: usize = (0..n_modules)
                    .filter(|&i| b[i])
                    .map(|i| instance.module(ModuleId(i)).len())
                    .sum();
                size < b_size
            }
        };
        if better {
            best = Some(profile);
        }
    }
    let Some(selected) = best else {
        return Err(SelectError::Infeasible);
    };

    let modules: Vec<ModuleId> = (0..n_modules)
        .filter(|&i| selected[i])
        .map(ModuleId)
        .collect();
    stats.diversity_checks += 1;
    if !req.satisfied_by(&instance.histogram_of(&modules)) {
        return Err(SelectError::Infeasible);
    }
    Ok(Selection {
        ring: instance.ring_of(&modules),
        modules,
        algorithm: Algorithm::GameTheoretic,
        stats,
    })
}

/// Run sequential best-response to a Nash equilibrium under the given
/// player order; returns whether the final profile satisfies `req`.
///
/// Costs are evaluated incrementally through [`ProfileEval`]: flipping one
/// player touches only that module's tokens instead of rebuilding the
/// whole ring histogram. Decisions are identical to the reference
/// `profile_cost` formulation — the verdict comes from the same integers
/// via [`DiversityRequirement::satisfied_by_parts`], and comparing integer
/// sizes equals comparing `size / |A|` as `f64` (division by a positive
/// constant is monotone and the sizes are far below 2^53, with `∞` for
/// non-diverse profiles and ties resolving to φ).
fn best_response(
    instance: &ModularInstance,
    order: &[ModuleId],
    x_tau: ModuleId,
    req: DiversityRequirement,
    selected: &mut [bool],
    stats: &mut SelectionStats,
) -> bool {
    let mut eval = ProfileEval::new(instance, req, selected);
    let max_passes = 4 * order.len() + 16;
    let mut converged = false;
    for _pass in 0..max_passes {
        let mut changed = false;
        for &mid in order {
            if mid == x_tau {
                continue; // a_τ is fixed to φ
            }
            stats.iterations += 1;
            eval.set(mid, true);
            let (ok_selected, size_selected) = eval.eval(stats);
            eval.set(mid, false);
            let (ok_unselected, size_unselected) = eval.eval(stats);
            // Choose the cheaper strategy; ties resolve to φ (selected).
            let want = if ok_selected {
                !ok_unselected || size_selected <= size_unselected
            } else {
                !ok_unselected
            };
            eval.set(mid, want);
            if selected[mid.0] != want {
                selected[mid.0] = want;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    debug_assert!(converged, "best response exceeded its potential bound");
    stats.diversity_checks += 1;
    eval.satisfied()
}

/// The seed implementation, kept verbatim: equivalence oracle for the
/// incremental engine and the baseline side of the selection bench figure.
/// Every cost evaluation rebuilds the module list and the full ring
/// histogram from scratch.
pub fn game_theoretic_reference(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
    init: InitStrategy,
) -> Result<Selection, SelectError> {
    if (target.0 as usize) >= instance.universe.len() {
        return Err(SelectError::UnknownToken);
    }
    let req = policy.effective();
    let mut stats = SelectionStats::default();

    let x_tau = instance.module_of(target);
    let n_modules = instance.modules().len();
    let mut selected = vec![false; n_modules];
    selected[x_tau.0] = true;

    match init {
        InitStrategy::AllSelected => {
            selected.iter_mut().for_each(|s| *s = true);
        }
        InitStrategy::CoverageGreedy => {
            let mut covered: BTreeSet<HtId> = module_hts(instance, x_tau);
            while covered.len() < req.l {
                stats.iterations += 1;
                let mut best: Option<(f64, ModuleId)> = None;
                for m in instance.modules() {
                    if selected[m.id.0] {
                        continue;
                    }
                    let hts = module_hts(instance, m.id);
                    let new_hts = hts.difference(&covered).count();
                    if new_hts == 0 {
                        continue;
                    }
                    let need = req.l - covered.len();
                    let gamma = m.len() as f64 / need.min(new_hts) as f64;
                    stats.candidates_examined += 1;
                    let better = match best {
                        None => true,
                        Some((b, bid)) => {
                            gamma < b || (gamma == b && m.len() < instance.module(bid).len())
                        }
                    };
                    if better {
                        best = Some((gamma, m.id));
                    }
                }
                let Some((_, id)) = best else {
                    return Err(SelectError::Infeasible);
                };
                selected[id.0] = true;
                covered.extend(module_hts(instance, id));
            }
        }
    }

    let index_order: Vec<ModuleId> = instance.modules().iter().map(|m| m.id).collect();
    let mut size_order = index_order.clone();
    size_order.sort_by_key(|&id| (instance.module(id).len(), id));

    let mut best: Option<Vec<bool>> = None;
    for order in [&index_order, &size_order] {
        let mut profile = selected.clone();
        if !best_response_reference(instance, order, x_tau, req, &mut profile, &mut stats) {
            continue;
        }
        let size: usize = (0..n_modules)
            .filter(|&i| profile[i])
            .map(|i| instance.module(ModuleId(i)).len())
            .sum();
        let better = match &best {
            None => true,
            Some(b) => {
                let b_size: usize = (0..n_modules)
                    .filter(|&i| b[i])
                    .map(|i| instance.module(ModuleId(i)).len())
                    .sum();
                size < b_size
            }
        };
        if better {
            best = Some(profile);
        }
    }
    let Some(selected) = best else {
        return Err(SelectError::Infeasible);
    };

    let modules: Vec<ModuleId> = (0..n_modules)
        .filter(|&i| selected[i])
        .map(ModuleId)
        .collect();
    stats.diversity_checks += 1;
    if !req.satisfied_by(&instance.histogram_of(&modules)) {
        return Err(SelectError::Infeasible);
    }
    Ok(Selection {
        ring: instance.ring_of(&modules),
        modules,
        algorithm: Algorithm::GameTheoretic,
        stats,
    })
}

/// Reference best-response: full histogram rebuild per cost evaluation.
fn best_response_reference(
    instance: &ModularInstance,
    order: &[ModuleId],
    x_tau: ModuleId,
    req: DiversityRequirement,
    selected: &mut [bool],
    stats: &mut SelectionStats,
) -> bool {
    let max_passes = 4 * order.len() + 16;
    let mut converged = false;
    for _pass in 0..max_passes {
        let mut changed = false;
        for &mid in order {
            if mid == x_tau {
                continue; // a_τ is fixed to φ
            }
            stats.iterations += 1;
            let cost_selected = profile_cost(instance, selected, mid, true, req, stats);
            let cost_unselected = profile_cost(instance, selected, mid, false, req, stats);
            // Choose the cheaper strategy; ties resolve to φ (selected).
            let want = cost_selected <= cost_unselected;
            if selected[mid.0] != want {
                selected[mid.0] = want;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    debug_assert!(converged, "best response exceeded its potential bound");
    let modules: Vec<ModuleId> = (0..selected.len())
        .filter(|&i| selected[i])
        .map(ModuleId)
        .collect();
    stats.diversity_checks += 1;
    req.satisfied_by(&instance.histogram_of(&modules))
}

/// The cost of player `player` playing `strategy` given the other players'
/// current strategies: `|r̃| / |A|` when diverse, ∞ otherwise.
fn profile_cost(
    instance: &ModularInstance,
    selected: &[bool],
    player: ModuleId,
    strategy: bool,
    req: dams_diversity::DiversityRequirement,
    stats: &mut SelectionStats,
) -> f64 {
    let modules: Vec<ModuleId> = (0..selected.len())
        .filter(|&i| if i == player.0 { strategy } else { selected[i] })
        .map(ModuleId)
        .collect();
    stats.diversity_checks += 1;
    let hist = instance.histogram_of(&modules);
    if req.satisfied_by(&hist) {
        instance.size_of(&modules) as f64 / selected.len() as f64
    } else {
        f64::INFINITY
    }
}

fn module_hts(instance: &ModularInstance, id: ModuleId) -> BTreeSet<HtId> {
    instance
        .module(id)
        .tokens
        .tokens()
        .iter()
        .map(|t| instance.universe.ht(*t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::progressive;
    use crate::progressive::tests::example3;
    use dams_diversity::DiversityRequirement;

    #[test]
    fn example3_converges_to_s1_s3() {
        // §6.3 walks Example 3 to r_τ = s1 ∪ s3 of size 8: after phase 1
        // (s3 ∪ s2), s1 must join (both strategies cost ∞ → φ), then s2
        // leaves (finite < ∞).
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
        let sel = game_theoretic(&inst, TokenId(10), policy).unwrap();
        assert!(sel.modules.contains(&ModuleId(0)), "s1 selected: {sel:?}");
        assert!(sel.modules.contains(&ModuleId(2)), "s3 (x_τ) selected");
        assert_eq!(sel.size(), 8, "paper's r_τ = s1 ∪ s3: {sel:?}");
    }

    #[test]
    fn game_never_larger_than_progressive_on_example3() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
        let g = game_theoretic(&inst, TokenId(10), policy).unwrap();
        let p = progressive(&inst, TokenId(10), policy).unwrap();
        assert!(g.size() <= p.size(), "game {g:?} vs progressive {p:?}");
    }

    #[test]
    fn result_satisfies_requirement_and_contains_target() {
        let inst = example3();
        for l in 1..=5 {
            let req = DiversityRequirement::new(1.0, l);
            if let Ok(sel) = game_theoretic(&inst, TokenId(6), SelectionPolicy::new(req)) {
                assert!(req.satisfied_by(&inst.histogram_of(&sel.modules)));
                assert!(sel.ring.contains(TokenId(6)));
            }
        }
    }

    #[test]
    fn all_selected_init_reaches_equilibrium_too() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
        let sel =
            game_theoretic_from(&inst, TokenId(10), policy, InitStrategy::AllSelected).unwrap();
        let req = policy.effective();
        assert!(req.satisfied_by(&inst.histogram_of(&sel.modules)));
    }

    #[test]
    fn infeasible_requirement_reported() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 10));
        assert_eq!(
            game_theoretic(&inst, TokenId(10), policy).unwrap_err(),
            SelectError::Infeasible
        );
    }

    #[test]
    fn unknown_token_rejected() {
        let inst = example3();
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        assert_eq!(
            game_theoretic(&inst, TokenId(999), policy).unwrap_err(),
            SelectError::UnknownToken
        );
    }

    #[test]
    fn incremental_engine_matches_reference_on_example3() {
        let inst = example3();
        for l in 1..=5 {
            let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, l));
            for target in [TokenId(0), TokenId(6), TokenId(10)] {
                for init in [InitStrategy::CoverageGreedy, InitStrategy::AllSelected] {
                    let reference = game_theoretic_reference(&inst, target, policy, init);
                    let optimized = game_theoretic_from(&inst, target, policy, init);
                    assert_eq!(
                        reference, optimized,
                        "l={l} target={target:?} init={init:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equilibrium_is_stable() {
        // No single player can improve: flipping any module's membership
        // either breaks diversity or increases |r|.
        let inst = example3();
        let req = DiversityRequirement::new(1.0, 4);
        let sel = game_theoretic(&inst, TokenId(10), SelectionPolicy::new(req)).unwrap();
        let in_sel: Vec<bool> = (0..inst.modules().len())
            .map(|i| sel.modules.contains(&ModuleId(i)))
            .collect();
        let x_tau = inst.module_of(TokenId(10));
        for m in inst.modules() {
            if m.id == x_tau {
                continue;
            }
            let mut flipped: Vec<ModuleId> = sel.modules.clone();
            if in_sel[m.id.0] {
                flipped.retain(|&id| id != m.id);
            } else {
                flipped.push(m.id);
            }
            let flipped_ok = req.satisfied_by(&inst.histogram_of(&flipped));
            let current_ok = req.satisfied_by(&inst.histogram_of(&sel.modules));
            assert!(current_ok);
            if flipped_ok {
                assert!(
                    inst.size_of(&flipped) >= sel.size(),
                    "player {:?} could improve: {} < {}",
                    m.id,
                    inst.size_of(&flipped),
                    sel.size()
                );
            }
        }
    }
}
