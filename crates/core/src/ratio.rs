//! Approximation-ratio bookkeeping (Theorems 6.5 and 6.7) and a
//! module-level exact optimum for validating them on small instances.

use dams_diversity::TokenId;

use crate::config::SelectionPolicy;
use crate::instance::{ModularInstance, ModuleId};
use crate::selection::SelectError;

/// The instance parameters entering both ratio bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioParams {
    /// `q_M` — count of the most frequent HT in the universe.
    pub q_max: usize,
    /// `z_M` — the largest module size.
    pub z_max: usize,
    /// `q_min` — count of the least frequent HT in the universe.
    pub q_min: usize,
}

impl RatioParams {
    /// The parameters of `instance`, from its per-HT token counts.
    pub fn of(instance: &ModularInstance) -> Self {
        let counts = instance.universe.ht_counts();
        RatioParams {
            q_max: counts.iter().copied().max().unwrap_or(0),
            z_max: instance.z_max(),
            q_min: counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(0),
        }
    }

    /// The harmonic number `ε = Σ_{i=1..ℓ} 1/i` of Theorem 6.5.
    pub fn harmonic(l: usize) -> f64 {
        (1..=l).map(|i| 1.0 / i as f64).sum()
    }

    /// Theorem 6.5's Progressive ratio bound `ε + q_M · z_M / 10^{−γ}` with
    /// γ the smallest integer making `10^γ · c` integral (γ = 0 for
    /// integral c). The bound is loose by design; tests only verify it is
    /// an upper bound.
    pub fn progressive_bound(&self, c: f64, l: usize) -> f64 {
        let gamma = smallest_gamma(c);
        Self::harmonic(l) + (self.q_max * self.z_max) as f64 * 10f64.powi(gamma as i32)
    }

    /// Theorem 6.7's price-of-anarchy bound
    /// `q_M · (1 + 1/(c·ℓ)) + z_M / ℓ` for the Game-theoretic algorithm.
    pub fn poa_bound(&self, c: f64, l: usize) -> f64 {
        self.q_max as f64 * (1.0 + 1.0 / (c * l as f64)) + self.z_max as f64 / l as f64
    }
}

/// The smallest γ ≥ 0 such that `10^γ · c` is an integer (capped at 9 for
/// irrational-ish floats).
fn smallest_gamma(c: f64) -> u32 {
    for gamma in 0..=9u32 {
        let scaled = c * 10f64.powi(gamma as i32);
        if (scaled - scaled.round()).abs() < 1e-9 {
            return gamma;
        }
    }
    9
}

/// Exact module-level optimum: the smallest module union containing the
/// target's module that satisfies the policy. Exponential in the module
/// count — validation only.
pub fn optimal_modular(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
) -> Result<Vec<ModuleId>, SelectError> {
    if (target.0 as usize) >= instance.universe.len() {
        return Err(SelectError::UnknownToken);
    }
    let x_tau = instance.module_of(target);
    let others: Vec<ModuleId> = instance
        .modules()
        .iter()
        .map(|m| m.id)
        .filter(|&id| id != x_tau)
        .collect();
    assert!(others.len() <= 24, "optimal_modular is for small instances");

    let mut best: Option<(usize, Vec<ModuleId>)> = None;
    for mask in 0u32..(1u32 << others.len()) {
        let mut sel = vec![x_tau];
        for (i, &id) in others.iter().enumerate() {
            if mask & (1 << i) != 0 {
                sel.push(id);
            }
        }
        let size = instance.size_of(&sel);
        if let Some((b, _)) = best {
            if size >= b {
                continue;
            }
        }
        if policy.admits(instance, &sel) {
            sel.sort_unstable();
            best = Some((size, sel));
        }
    }
    best.map(|(_, sel)| sel).ok_or(SelectError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::game_theoretic;
    use crate::progressive::{progressive, tests::example3};
    use dams_diversity::DiversityRequirement;

    #[test]
    fn harmonic_numbers() {
        assert!((RatioParams::harmonic(1) - 1.0).abs() < 1e-12);
        assert!((RatioParams::harmonic(2) - 1.5).abs() < 1e-12);
        assert!((RatioParams::harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn gamma_detection() {
        assert_eq!(smallest_gamma(1.0), 0);
        assert_eq!(smallest_gamma(2.0), 0);
        assert_eq!(smallest_gamma(0.6), 1);
        assert_eq!(smallest_gamma(0.25), 2);
    }

    #[test]
    fn params_of_example3() {
        let inst = example3();
        let p = RatioParams::of(&inst);
        assert_eq!(p.q_max, 4, "h1 appears 4 times");
        assert_eq!(p.z_max, 6, "s1 has 6 tokens");
        assert_eq!(p.q_min, 1);
    }

    #[test]
    fn optimal_is_lower_bound_for_all_algorithms() {
        let inst = example3();
        for l in 1..=5 {
            for c in [0.5, 1.0, 2.0] {
                let req = DiversityRequirement::new(c, l);
                let policy = SelectionPolicy::new(req);
                let opt = optimal_modular(&inst, TokenId(10), policy);
                let prog = progressive(&inst, TokenId(10), policy);
                let game = game_theoretic(&inst, TokenId(10), policy);
                match opt {
                    Ok(opt_sel) => {
                        let opt_size = inst.size_of(&opt_sel);
                        if let Ok(p) = &prog {
                            assert!(p.size() >= opt_size, "c={c} l={l}");
                        }
                        if let Ok(g) = &game {
                            assert!(g.size() >= opt_size, "c={c} l={l}");
                        }
                    }
                    Err(_) => {
                        assert!(prog.is_err(), "c={c} l={l}: prog found {prog:?}");
                        assert!(game.is_err(), "c={c} l={l}: game found {game:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_hold_on_example3() {
        let inst = example3();
        let p = RatioParams::of(&inst);
        for l in [3usize, 4] {
            let c = 1.0;
            let req = DiversityRequirement::new(c, l);
            let policy = SelectionPolicy::new(req);
            let Ok(opt_sel) = optimal_modular(&inst, TokenId(10), policy) else {
                continue;
            };
            let opt = inst.size_of(&opt_sel) as f64;
            if let Ok(g) = game_theoretic(&inst, TokenId(10), policy) {
                assert!(
                    g.size() as f64 / opt <= p.poa_bound(c, l) + 1e-9,
                    "PoA violated at l={l}"
                );
            }
            if let Ok(pr) = progressive(&inst, TokenId(10), policy) {
                assert!(
                    pr.size() as f64 / opt <= p.progressive_bound(c, l) + 1e-9,
                    "Progressive ratio violated at l={l}"
                );
            }
        }
    }

    #[test]
    fn game_theoretic_example3_matches_optimum() {
        // PoS = 1: on Example 3 the converged equilibrium is the optimum.
        let inst = example3();
        let req = DiversityRequirement::new(1.0, 4);
        let policy = SelectionPolicy::new(req);
        let opt = optimal_modular(&inst, TokenId(10), policy).unwrap();
        let g = game_theoretic(&inst, TokenId(10), policy).unwrap();
        assert_eq!(inst.size_of(&opt), g.size());
    }
}
