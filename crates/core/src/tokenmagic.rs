//! The TokenMagic framework (Algorithm 1, §4).
//!
//! Ties everything together for one batch: for a consuming token `t_τ`, run
//! the chosen selection algorithm for *every* token of the universe,
//! collect the candidate rings that happen to contain `t_τ`, and return one
//! uniformly at random. Because the random draw happens client-side, an
//! observer cannot invert the framework to learn which token was the real
//! target (§4's anonymity argument). The η feasibility guard is applied
//! before a ring is accepted.

use rand::Rng;

use dams_diversity::{EtaGuard, NeighborTracker, RingSet, TokenId};

use crate::baselines::{random as random_alg, smallest};
use crate::config::SelectionPolicy;
use crate::game::game_theoretic;
use crate::instance::ModularInstance;
use crate::progressive::progressive;
use crate::selection::{Algorithm, SelectError, Selection};

/// Which practical algorithm TokenMagic drives (BFS is driven separately
/// through the raw [`crate::instance::Instance`] because it does not use
/// the modular view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PracticalAlgorithm {
    Progressive,
    GameTheoretic,
    Smallest,
    Random,
}

impl PracticalAlgorithm {
    pub fn label(self) -> &'static str {
        match self {
            PracticalAlgorithm::Progressive => Algorithm::Progressive.label(),
            PracticalAlgorithm::GameTheoretic => Algorithm::GameTheoretic.label(),
            PracticalAlgorithm::Smallest => Algorithm::Smallest.label(),
            PracticalAlgorithm::Random => Algorithm::Random.label(),
        }
    }
}

/// TokenMagic configuration for one batch.
#[derive(Debug, Clone, Copy)]
pub struct TokenMagic {
    pub algorithm: PracticalAlgorithm,
    pub policy: SelectionPolicy,
    /// η of the feasibility guard; 0 disables it.
    pub eta: f64,
}

impl TokenMagic {
    pub fn new(algorithm: PracticalAlgorithm, policy: SelectionPolicy) -> Self {
        TokenMagic {
            algorithm,
            policy,
            eta: 0.0,
        }
    }

    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Run the underlying algorithm once for a specific token.
    pub fn select_for<R: Rng + ?Sized>(
        &self,
        instance: &ModularInstance,
        token: TokenId,
        rng: &mut R,
    ) -> Result<Selection, SelectError> {
        let metrics = crate::obs::CoreMetrics::global();
        let algorithm = match self.algorithm {
            PracticalAlgorithm::Progressive => Algorithm::Progressive,
            PracticalAlgorithm::GameTheoretic => Algorithm::GameTheoretic,
            PracticalAlgorithm::Smallest => Algorithm::Smallest,
            PracticalAlgorithm::Random => Algorithm::Random,
        };
        let _span = metrics.select_span(algorithm);
        let outcome = match self.algorithm {
            PracticalAlgorithm::Progressive => progressive(instance, token, self.policy),
            PracticalAlgorithm::GameTheoretic => game_theoretic(instance, token, self.policy),
            PracticalAlgorithm::Smallest => smallest(instance, token, self.policy),
            PracticalAlgorithm::Random => random_alg(instance, token, self.policy, rng),
        };
        if let Ok(selection) = &outcome {
            metrics.record_selection(algorithm, selection);
        }
        outcome
    }

    /// Algorithm 1: generate a ring for `target`, hiding the target among
    /// the candidate rings of every token in the batch.
    ///
    /// `tracker` holds the rings already committed in this batch (for the η
    /// guard); pass a fresh tracker when the guard is disabled.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        instance: &ModularInstance,
        target: TokenId,
        tracker: &NeighborTracker,
        rng: &mut R,
    ) -> Result<Selection, SelectError> {
        if (target.0 as usize) >= instance.universe.len() {
            return Err(SelectError::UnknownToken);
        }
        // Lines 2-6: candidate rings per token; Cand_τ collects the rings
        // containing the target.
        let mut cand_tau: Vec<Selection> = Vec::new();
        for token in instance.universe.tokens() {
            let Ok(sel) = self.select_for(instance, token, rng) else {
                continue;
            };
            if sel.ring.contains(target) {
                cand_tau.push(sel);
            }
        }
        if cand_tau.is_empty() {
            return Err(SelectError::Infeasible);
        }
        // η guard: drop candidates whose commitment would exhaust the batch.
        let guard = EtaGuard::new(self.eta);
        let admissible: Vec<Selection> = cand_tau
            .into_iter()
            .filter(|s| {
                self.eta == 0.0 || guard.admits_push(tracker, &s.ring, instance.universe.len())
            })
            .collect();
        if admissible.is_empty() {
            return Err(SelectError::EtaGuardViolated);
        }
        // Line 7: uniform random pick.
        let pick = rng.gen_range(0..admissible.len());
        admissible
            .into_iter()
            .nth(pick)
            .ok_or(SelectError::Infeasible)
    }
}

/// Convenience: commit a generated ring into a tracker (the caller's batch
/// state) and return it.
pub fn commit_ring(tracker: &mut NeighborTracker, ring: RingSet) {
    tracker.push(ring);
}

/// §4's relaxation loop: "if the framework cannot return an eligible RS,
/// they can relax the diversity requirement by increasing c or decreasing
/// ℓ." Retries the framework with progressively relaxed requirements
/// (halving ℓ, then doubling c) up to `max_steps` times; returns the first
/// success together with the requirement that produced it.
pub fn generate_with_relaxation<R: Rng + ?Sized>(
    tm: &TokenMagic,
    instance: &ModularInstance,
    target: TokenId,
    tracker: &NeighborTracker,
    max_steps: usize,
    rng: &mut R,
) -> Result<(Selection, crate::config::SelectionPolicy), SelectError> {
    let mut policy = tm.policy;
    let mut last_err = SelectError::Infeasible;
    for _ in 0..=max_steps {
        let attempt = TokenMagic { policy, ..*tm };
        match attempt.generate(instance, target, tracker, rng) {
            Ok(sel) => return Ok((sel, policy)),
            Err(e @ SelectError::UnknownToken) => return Err(e),
            Err(e) => last_err = e,
        }
        // Relax: first shrink ℓ toward 1, then grow c.
        let req = policy.requirement;
        let relaxed = if req.l > 1 {
            dams_diversity::DiversityRequirement::new(req.c, req.l.div_ceil(2))
        } else {
            dams_diversity::DiversityRequirement::new(req.c * 2.0, 1)
        };
        policy = if policy.dtrs_margin {
            crate::config::SelectionPolicy::with_margin(relaxed)
        } else {
            crate::config::SelectionPolicy::new(relaxed)
        };
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::tests::example3;
    use dams_diversity::DiversityRequirement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(l: usize) -> SelectionPolicy {
        SelectionPolicy::new(DiversityRequirement::new(1.0, l))
    }

    #[test]
    fn generated_ring_contains_target() {
        let inst = example3();
        let mut rng = StdRng::seed_from_u64(1);
        let tracker = NeighborTracker::new();
        for alg in [
            PracticalAlgorithm::Progressive,
            PracticalAlgorithm::GameTheoretic,
            PracticalAlgorithm::Smallest,
            PracticalAlgorithm::Random,
        ] {
            let tm = TokenMagic::new(alg, policy(3));
            let sel = tm.generate(&inst, TokenId(10), &tracker, &mut rng).unwrap();
            assert!(sel.ring.contains(TokenId(10)), "{alg:?}");
        }
    }

    #[test]
    fn generated_ring_is_diverse() {
        let inst = example3();
        let mut rng = StdRng::seed_from_u64(2);
        let tracker = NeighborTracker::new();
        let tm = TokenMagic::new(PracticalAlgorithm::Progressive, policy(4));
        let sel = tm.generate(&inst, TokenId(6), &tracker, &mut rng).unwrap();
        assert!(policy(4)
            .effective()
            .satisfied_by(&inst.histogram_of(&sel.modules)));
    }

    #[test]
    fn infeasible_requirement_propagates() {
        let inst = example3();
        let mut rng = StdRng::seed_from_u64(3);
        let tracker = NeighborTracker::new();
        let tm = TokenMagic::new(PracticalAlgorithm::Smallest, policy(10));
        assert_eq!(
            tm.generate(&inst, TokenId(10), &tracker, &mut rng)
                .unwrap_err(),
            SelectError::Infeasible
        );
    }

    #[test]
    fn eta_guard_rejects_batch_exhaustion() {
        // A tiny 2-token universe where committing any ring would violate a
        // harsh η: with i = 1 ring and μ likely 0, need 1 − μ ≥ η (2 − 1).
        use crate::instance::{Module, ModuleId, ModuleKind};
        use dams_diversity::{ring, HtId, TokenUniverse};
        let inst = ModularInstance::from_modules(
            TokenUniverse::new(vec![HtId(0), HtId(1)]),
            vec![
                Module {
                    id: ModuleId(0),
                    kind: ModuleKind::FreshToken,
                    tokens: ring(&[0]),
                },
                Module {
                    id: ModuleId(1),
                    kind: ModuleKind::FreshToken,
                    tokens: ring(&[1]),
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let tracker = NeighborTracker::new();
        // (2.0, 1): any ring with >= 1 token where q1 < 2*total — a single
        // 2-token ring {0,1} qualifies on diversity.
        let tm = TokenMagic::new(
            PracticalAlgorithm::Smallest,
            SelectionPolicy::new(DiversityRequirement::new(2.0, 1)),
        )
        .with_eta(10.0);
        // Committing {0,1} makes μ = 2 eventually... the guard computes
        // i=1, μ=0 (no tight family yet for a 2-token ring), |T|−i = 1:
        // 1 − 0 ≥ 10 → false → rejected.
        assert_eq!(
            tm.generate(&inst, TokenId(0), &tracker, &mut rng)
                .unwrap_err(),
            SelectError::EtaGuardViolated
        );
    }

    #[test]
    fn relaxation_recovers_from_infeasible_l() {
        let inst = example3();
        let mut rng = StdRng::seed_from_u64(5);
        let tracker = NeighborTracker::new();
        // ℓ = 10 is infeasible (only 7 HTs); relaxation halves ℓ until the
        // batch can serve it.
        let tm = TokenMagic::new(PracticalAlgorithm::Smallest, policy(10));
        let (sel, used) =
            super::generate_with_relaxation(&tm, &inst, TokenId(10), &tracker, 5, &mut rng)
                .unwrap();
        assert!(sel.ring.contains(TokenId(10)));
        assert!(used.requirement.l < 10);
    }

    #[test]
    fn relaxation_gives_up_after_budget() {
        use crate::instance::{Module, ModuleId, ModuleKind};
        use dams_diversity::{ring, HtId, TokenUniverse};
        // Single-token universe: nothing can ever satisfy q1 < c * tail.
        let inst = ModularInstance::from_modules(
            TokenUniverse::new(vec![HtId(0)]),
            vec![Module {
                id: ModuleId(0),
                kind: ModuleKind::FreshToken,
                tokens: ring(&[0]),
            }],
        );
        let mut rng = StdRng::seed_from_u64(6);
        let tracker = NeighborTracker::new();
        let tm = TokenMagic::new(
            PracticalAlgorithm::Smallest,
            SelectionPolicy::new(DiversityRequirement::new(0.5, 4)),
        );
        assert!(
            super::generate_with_relaxation(&tm, &inst, TokenId(0), &tracker, 2, &mut rng).is_err()
        );
    }

    #[test]
    fn random_pick_varies_with_seed() {
        let inst = example3();
        let tracker = NeighborTracker::new();
        let tm = TokenMagic::new(PracticalAlgorithm::Random, policy(2));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(sel) = tm.generate(&inst, TokenId(1), &tracker, &mut rng) {
                seen.insert(sel.ring.tokens().to_vec());
            }
        }
        assert!(!seen.is_empty());
    }
}
