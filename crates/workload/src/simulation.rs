//! Multi-user batch simulation: drives a whole batch's lifetime to
//! measure how selection policy and the η feasibility guard (§4) affect
//! how many users can eventually spend.
//!
//! The paper's motivating dead-end: greedy early spenders can exhaust a
//! batch so that a later user "cannot find a RS satisfying \[the\]
//! non-eliminated constraint". The simulation spends tokens one at a time
//! under a given algorithm and guard, folding each committed ring into the
//! batch's module partition, and reports how far the batch got before
//! stranding.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dams_core::{Instance, ModularInstance, PracticalAlgorithm, SelectionPolicy, TokenMagic};
use dams_diversity::{analyze, NeighborTracker, TokenId, TokenUniverse};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimulationConfig {
    pub algorithm: PracticalAlgorithm,
    pub policy: SelectionPolicy,
    /// η of the feasibility guard (0 disables).
    pub eta: f64,
    /// How many spends to attempt (each picks a random unspent token).
    pub spends: usize,
    pub seed: u64,
}

/// Outcome of one simulated batch lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Spends that committed successfully.
    pub committed: usize,
    /// Spends refused by the η guard.
    pub guard_refusals: usize,
    /// Spends that failed for other reasons (infeasible selection).
    pub failures: usize,
    /// Mean committed ring size.
    pub mean_ring_size: f64,
    /// Rings resolvable by chain-reaction analysis at the end.
    pub resolved_at_end: usize,
}

/// Run the simulation over `universe`.
pub fn simulate_batch(universe: &TokenUniverse, cfg: SimulationConfig) -> SimulationOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Each commit folds the ring into the partition in place instead of
    // re-decomposing the whole batch.
    let mut instance = Instance::fresh(universe.clone());
    let mut modular = ModularInstance::fresh(universe.clone());
    let mut tracker = NeighborTracker::new();
    let tm = TokenMagic::new(cfg.algorithm, cfg.policy).with_eta(cfg.eta);

    // Spend order: random permutation of tokens.
    let mut order: Vec<u32> = (0..universe.len() as u32).collect();
    order.shuffle(&mut rng);

    let mut committed = 0usize;
    let mut guard_refusals = 0usize;
    let mut failures = 0usize;
    let mut total_ring = 0usize;

    for &token in order.iter().take(cfg.spends) {
        match tm.generate(&modular, TokenId(token), &tracker, &mut rng) {
            Ok(sel) => {
                total_ring += sel.size();
                tracker.push(sel.ring.clone());
                let rs = instance.rings.push(sel.ring);
                instance.claims.push(cfg.policy.requirement);
                modular
                    .fold_ring(rs, instance.rings.ring(rs))
                    .expect("a TokenMagic answer is a union of whole modules");
                committed += 1;
            }
            Err(dams_core::SelectError::EtaGuardViolated) => guard_refusals += 1,
            Err(_) => failures += 1,
        }
    }

    let analysis = analyze(&instance.rings, &[]);
    SimulationOutcome {
        committed,
        guard_refusals,
        failures,
        mean_ring_size: if committed > 0 {
            total_ring as f64 / committed as f64
        } else {
            0.0
        },
        resolved_at_end: analysis.resolved_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{DiversityRequirement, HtId};

    fn universe() -> TokenUniverse {
        // 36 tokens over 12 HTs of 3.
        TokenUniverse::new((0..36u32).map(|i| HtId(i / 3)).collect())
    }

    fn cfg(eta: f64, spends: usize) -> SimulationConfig {
        SimulationConfig {
            algorithm: PracticalAlgorithm::Progressive,
            policy: SelectionPolicy::new(DiversityRequirement::new(1.0, 4)),
            eta,
            spends,
            seed: 5,
        }
    }

    #[test]
    fn simulation_commits_spends() {
        let out = simulate_batch(&universe(), cfg(0.0, 6));
        assert!(out.committed >= 1, "{out:?}");
        assert!(out.mean_ring_size >= 4.0, "{out:?}");
    }

    #[test]
    fn no_spend_is_linkable() {
        let out = simulate_batch(&universe(), cfg(0.0, 8));
        assert_eq!(out.resolved_at_end, 0, "{out:?}");
    }

    #[test]
    fn guard_only_ever_refuses_with_positive_eta() {
        let out = simulate_batch(&universe(), cfg(0.0, 10));
        assert_eq!(out.guard_refusals, 0);
    }

    #[test]
    fn harsh_guard_refuses_everything() {
        // η = 1000 demands far more slack than any batch can offer.
        let out = simulate_batch(&universe(), cfg(1000.0, 5));
        assert_eq!(out.committed, 0, "{out:?}");
        assert!(out.guard_refusals > 0, "{out:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate_batch(&universe(), cfg(0.2, 6));
        let b = simulate_batch(&universe(), cfg(0.2, 6));
        assert_eq!(a, b);
    }
}
