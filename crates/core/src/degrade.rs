//! Graceful degradation for mixin selection under a deadline.
//!
//! The exact BFS (Algorithm 2) is exponential by Theorem 3.1, so a node
//! serving live traffic cannot always afford it. This module wraps the
//! three selection algorithms in a **tiered fallback chain**:
//!
//! 1. [`Tier::ExactBfs`] — the exact search, bounded by candidate/world
//!    counters and an optional work-tick deadline ([`BfsBudget`]);
//! 2. [`Tier::Progressive`] — the O(n²) greedy (Algorithm 4), with the
//!    Theorem 6.5 approximation ratio;
//! 3. [`Tier::GameTheoretic`] — the O(n³) potential game (Algorithm 5),
//!    with the Theorem 6.7 price-of-anarchy bound.
//!
//! When a tier exhausts its budget the next one answers; the result
//! records **which tier produced the ring and what guarantee it carries**,
//! so callers can report degraded service instead of stalling or lying
//! about optimality. Errors that fallback cannot fix — an unknown target,
//! or the exact search *proving* infeasibility — propagate immediately:
//! an approximation can never find a ring where the exact search showed
//! none exists.

use dams_diversity::TokenId;

use crate::bfs::{bfs_with, BfsBudget};
use crate::cache::EvalCache;
use crate::config::SelectionPolicy;
use crate::game::game_theoretic;
use crate::instance::{Instance, ModularInstance};
use crate::obs::CoreMetrics;
use crate::progressive::progressive;
use crate::ratio::RatioParams;
use crate::selection::{Algorithm, SelectError, Selection};

/// One rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The exact breadth-first search (Algorithm 2).
    ExactBfs,
    /// The Progressive approximation (Algorithm 4).
    Progressive,
    /// The Game-theoretic approximation (Algorithm 5).
    GameTheoretic,
}

impl Tier {
    /// The default ladder, best guarantee first.
    pub const DEFAULT_LADDER: [Tier; 3] = [Tier::ExactBfs, Tier::Progressive, Tier::GameTheoretic];

    /// The selection algorithm backing this tier (for metric attribution).
    fn algorithm(self) -> Algorithm {
        match self {
            Tier::ExactBfs => Algorithm::Bfs,
            Tier::Progressive => Algorithm::Progressive,
            Tier::GameTheoretic => Algorithm::GameTheoretic,
        }
    }

    /// Measured effective-anonymity score of the rings this tier produces:
    /// the mean surviving candidate count under the strength-1 reference
    /// adversary of `dams_diversity::attacks` (cascade taint + graph
    /// matching + guess-newest over an attack-aware-sampled trace),
    /// rounded *down* so every score is a conservative floor.
    ///
    /// The numbers come from `dams-cli bench --anonymity`
    /// (`BENCH_anonymity.json`, gated in CI to stay consistent with
    /// these constants): the exact search minimises ring size — fee- and
    /// verification-optimal, but the *smallest* anonymity set — while the
    /// approximations over-provision mixins and land higher. Requests
    /// declare a floor against this scale; the admission path sheds
    /// (`ShedReason::AnonymityFloor`) rather than answering below it.
    pub fn anonymity_score(self) -> u32 {
        match self {
            Tier::ExactBfs => 2,
            Tier::Progressive => 4,
            Tier::GameTheoretic => 3,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::ExactBfs => write!(f, "exact-bfs"),
            Tier::Progressive => write!(f, "progressive"),
            Tier::GameTheoretic => write!(f, "game-theoretic"),
        }
    }
}

/// The quality guarantee attached to a degraded answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// Minimum ring size (the Definition 5 optimum).
    Exact,
    /// Ring size within the Theorem 6.5 Progressive ratio of optimal.
    ProgressiveRatio(f64),
    /// Ring size within the Theorem 6.7 price-of-anarchy bound of optimal.
    PriceOfAnarchy(f64),
}

impl Guarantee {
    /// The multiplicative bound on `|ring| / |optimal ring|` (1.0 when
    /// exact).
    pub fn ratio_bound(&self) -> f64 {
        match self {
            Guarantee::Exact => 1.0,
            Guarantee::ProgressiveRatio(b) | Guarantee::PriceOfAnarchy(b) => *b,
        }
    }
}

impl std::fmt::Display for Guarantee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Guarantee::Exact => write!(f, "exact optimum"),
            Guarantee::ProgressiveRatio(b) => write!(f, "within {b:.3}x of optimal (Thm 6.5)"),
            Guarantee::PriceOfAnarchy(b) => write!(f, "within {b:.3}x of optimal (Thm 6.7 PoA)"),
        }
    }
}

/// A selection annotated with the tier that produced it, its guarantee,
/// and the budget failures that forced the degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSelection {
    pub selection: Selection,
    /// The tier that answered.
    pub tier: Tier,
    /// The approximation guarantee the answer carries.
    pub guarantee: Guarantee,
    /// Tiers tried before the answering one, with why each gave up.
    pub attempts: Vec<(Tier, SelectError)>,
}

impl DegradedSelection {
    /// Whether any fallback happened (i.e. the answer is not exact).
    pub fn degraded(&self) -> bool {
        !self.attempts.is_empty()
    }
}

/// Execution knobs for the ladder that do not change *what* is selected,
/// only how it is computed: an optional shared evaluation cache for the
/// exact tier and an optional precomputed modular view for the
/// approximation tiers.
#[derive(Clone, Copy, Default)]
pub struct LadderExec<'a> {
    /// Unused: the exact search runs on one thread. Kept only because
    /// existing callers still name it in struct literals; no code reads
    /// it.
    pub workers: usize,
    /// Shared candidate-outcome cache consulted by the exact tier.
    pub cache: Option<&'a EvalCache>,
    /// A precomputed modular view of the instance being served. When set,
    /// the approximation tiers use it directly instead of running the
    /// O(n²) [`ModularInstance::decompose`] per call. The caller promises
    /// it equals `ModularInstance::decompose(instance)` — the streaming
    /// index maintains exactly that invariant (checked by its
    /// recompute-equivalence oracle), so verdicts stay bit-identical.
    pub modular: Option<&'a ModularInstance>,
}

/// Run a ladder of tiers in order ([`Tier::DEFAULT_LADDER`] is exact BFS,
/// then Progressive, then Game-theoretic), recording into `metrics`.
///
/// A tier failing with [`SelectError::BudgetExhausted`] hands over to the
/// next; [`SelectError::UnknownToken`] always propagates; any other error
/// from the **exact** tier propagates too (a proof of infeasibility is
/// final), while approximation-tier failures hand over — greedy and
/// best-response dynamics can dead-end on instances another heuristic
/// still solves. When every tier fails, the last error propagates.
///
/// Pass [`CoreMetrics::global`] to record into the process-wide registry.
/// Tests instead bind [`CoreMetrics::in_registry`] to a fresh
/// `dams_obs::Registry` and assert exact tier counts from its snapshot
/// ("fell back to Progressive exactly k times") without interference from
/// other test threads.
///
/// Deadline semantics: `budget` bounds only the exact tier — the
/// approximation tiers are polynomial and always run to completion. The
/// selection service propagates its remaining work-tick budget in
/// `budget.deadline`. A deadline that is **already elapsed** skips the
/// exact tier without burning a BFS probe: the attempt is recorded as
/// [`SelectError::DeadlineInfeasible`] (counted in
/// `core.degrade.deadline_infeasible_total`) and the ladder moves straight
/// to the cheapest tier that can still answer.
#[allow(clippy::too_many_arguments)]
pub fn select_with_ladder_exec(
    instance: &Instance,
    target: TokenId,
    policy: SelectionPolicy,
    budget: BfsBudget,
    ladder: &[Tier],
    metrics: &CoreMetrics,
    exec: &LadderExec<'_>,
) -> Result<DegradedSelection, SelectError> {
    assert!(!ladder.is_empty(), "empty tier ladder");

    // The approximation tiers need the modular view; decompose lazily so a
    // non-laminar history can still be served by the exact tier.
    let mut modular: Option<Result<ModularInstance, SelectError>> = None;
    let mut attempts: Vec<(Tier, SelectError)> = Vec::new();

    for (rung, &tier) in ladder.iter().enumerate() {
        let last = rung == ladder.len() - 1;
        let (answered, tier_timer) = metrics.tier(tier);
        let _attempt_span = tier_timer.start_span();
        let outcome = match tier {
            Tier::ExactBfs => {
                if budget.deadline.is_some_and(|d| d.already_elapsed()) {
                    // No budget left at all: skip the probe entirely so an
                    // overloaded caller pays nothing for the exact rung.
                    metrics.degrade_deadline_infeasible.inc();
                    Err(SelectError::DeadlineInfeasible)
                } else {
                    bfs_with(instance, target, policy.effective(), budget, exec.cache)
                        .map(|selection| (selection, Guarantee::Exact))
                }
            }
            Tier::Progressive | Tier::GameTheoretic => {
                let mi: Result<&ModularInstance, SelectError> = match exec.modular {
                    Some(prepared) => Ok(prepared),
                    None => modular
                        .get_or_insert_with(|| {
                            ModularInstance::decompose(instance)
                                // A non-laminar history violates the first
                                // practical configuration, so no modular ring
                                // can be built for it: infeasible at this tier.
                                .map_err(|_| SelectError::Infeasible)
                        })
                        .as_ref()
                        .map_err(Clone::clone),
                };
                match mi {
                    Err(e) => Err(e),
                    Ok(mi) => {
                        let params = RatioParams::of(mi);
                        let req = policy.effective();
                        if tier == Tier::Progressive {
                            progressive(mi, target, policy).map(|selection| {
                                (
                                    selection,
                                    Guarantee::ProgressiveRatio(
                                        params.progressive_bound(req.c, req.l),
                                    ),
                                )
                            })
                        } else {
                            game_theoretic(mi, target, policy).map(|selection| {
                                (
                                    selection,
                                    Guarantee::PriceOfAnarchy(params.poa_bound(req.c, req.l)),
                                )
                            })
                        }
                    }
                }
            }
        };

        match outcome {
            Ok((selection, guarantee)) => {
                answered.inc();
                metrics.degrade_fallbacks.add(attempts.len() as u64);
                metrics.degrade_ring_size.record(selection.size() as u64);
                metrics.record_stats(tier.algorithm(), &selection.stats);
                return Ok(DegradedSelection {
                    selection,
                    tier,
                    guarantee,
                    attempts,
                });
            }
            Err(SelectError::UnknownToken) => return Err(SelectError::UnknownToken),
            Err(e) => {
                let hand_over = match tier {
                    // The exact tier only hands over when it ran out of
                    // budget (or never had any); its Infeasible is a proof.
                    Tier::ExactBfs => matches!(
                        e,
                        SelectError::BudgetExhausted | SelectError::DeadlineInfeasible
                    ),
                    Tier::Progressive | Tier::GameTheoretic => true,
                };
                if last || !hand_over {
                    return Err(e);
                }
                attempts.push((tier, e));
            }
        }
    }
    unreachable!("loop returns on the last rung");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{DiversityRequirement, HtHistogram, HtId, TokenUniverse};

    /// A fresh universe big enough that a starved BFS budget exhausts
    /// before finding the (easy) answer.
    fn fresh_instance(n: usize) -> Instance {
        let universe = TokenUniverse::new((0..n as u32).map(HtId).collect());
        Instance::fresh(universe)
    }

    /// The ladder with default execution knobs, recording into the
    /// process-wide registry.
    fn select(
        inst: &Instance,
        target: TokenId,
        policy: SelectionPolicy,
        budget: BfsBudget,
        ladder: &[Tier],
    ) -> Result<DegradedSelection, SelectError> {
        let (metrics, exec) = (CoreMetrics::global(), &LadderExec::default());
        select_with_ladder_exec(inst, target, policy, budget, ladder, metrics, exec)
    }

    fn starved() -> BfsBudget {
        BfsBudget {
            max_candidates: 0,
            max_worlds: 4,
            deadline: None,
        }
    }

    #[test]
    fn exact_tier_answers_within_budget() {
        let inst = fresh_instance(6);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        let budget = BfsBudget::default();
        let sel = select(&inst, TokenId(0), policy, budget, &Tier::DEFAULT_LADDER).unwrap();
        assert_eq!(sel.tier, Tier::ExactBfs);
        assert_eq!(sel.guarantee, Guarantee::Exact);
        assert!(!sel.degraded());
        assert_eq!(sel.guarantee.ratio_bound(), 1.0);
    }

    #[test]
    fn starved_bfs_degrades_to_progressive_with_valid_ring() {
        let inst = fresh_instance(8);
        let req = DiversityRequirement::new(1.0, 3);
        let policy = SelectionPolicy::new(req);
        let sel = select(&inst, TokenId(0), policy, starved(), &Tier::DEFAULT_LADDER).unwrap();
        assert_eq!(sel.tier, Tier::Progressive);
        assert_eq!(
            sel.attempts,
            vec![(Tier::ExactBfs, SelectError::BudgetExhausted)]
        );
        assert!(sel.degraded());
        // The degraded answer still satisfies the (c, ℓ) requirement.
        assert!(sel.selection.ring.contains(TokenId(0)));
        let hist = HtHistogram::from_ring(&sel.selection.ring, &inst.universe);
        assert!(req.satisfied_by(&hist));
        // And carries a finite, ≥1 approximation bound.
        match sel.guarantee {
            Guarantee::ProgressiveRatio(b) => assert!(b.is_finite() && b >= 1.0, "{b}"),
            g => panic!("wrong guarantee {g:?}"),
        }
    }

    #[test]
    fn game_tier_reports_poa_guarantee() {
        let inst = fresh_instance(6);
        let req = DiversityRequirement::new(1.0, 2);
        let policy = SelectionPolicy::new(req);
        let sel = select(
            &inst,
            TokenId(0),
            policy,
            BfsBudget::default(),
            &[Tier::GameTheoretic],
        )
        .unwrap();
        assert_eq!(sel.tier, Tier::GameTheoretic);
        match sel.guarantee {
            Guarantee::PriceOfAnarchy(b) => assert!(b.is_finite() && b >= 1.0),
            g => panic!("wrong guarantee {g:?}"),
        }
        let hist = HtHistogram::from_ring(&sel.selection.ring, &inst.universe);
        assert!(req.satisfied_by(&hist));
    }

    #[test]
    fn unknown_token_propagates_without_fallback() {
        let inst = fresh_instance(4);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 1));
        assert_eq!(
            select(&inst, TokenId(99), policy, starved(), &Tier::DEFAULT_LADDER).unwrap_err(),
            SelectError::UnknownToken
        );
    }

    #[test]
    fn exact_infeasibility_proof_is_final() {
        // All tokens share one HT: ℓ = 2 is impossible; the exact tier
        // proves it and no approximation is consulted.
        let universe = TokenUniverse::new(vec![HtId(0); 4]);
        let inst = Instance::fresh(universe);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        let budget = BfsBudget::default();
        assert_eq!(
            select(&inst, TokenId(0), policy, budget, &Tier::DEFAULT_LADDER).unwrap_err(),
            SelectError::Infeasible
        );
    }

    #[test]
    fn every_tier_exhausted_returns_last_error() {
        // Infeasible instance with a starved exact budget: BFS exhausts,
        // both approximations report infeasibility, the last error wins.
        let universe = TokenUniverse::new(vec![HtId(0); 8]);
        let inst = Instance::fresh(universe);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        let err = select(&inst, TokenId(0), policy, starved(), &Tier::DEFAULT_LADDER).unwrap_err();
        assert_eq!(err, SelectError::Infeasible);
    }

    #[test]
    fn zero_tick_deadline_skips_exact_without_a_probe() {
        // Regression for BfsBudget.deadline == Some(Deadline::Ticks(0)):
        // the exact rung must be skipped deterministically — no BFS
        // candidate is expanded — and the cheapest tier answers with a
        // DeadlineInfeasible accounting entry.
        let inst = fresh_instance(8);
        let req = DiversityRequirement::new(1.0, 3);
        let policy = SelectionPolicy::new(req);
        let budget = BfsBudget {
            deadline: Some(dams_diversity::Deadline::Ticks(0)),
            ..BfsBudget::default()
        };
        let registry = dams_obs::Registry::new();
        let metrics = CoreMetrics::in_registry(&registry);
        let sel = select_with_ladder_exec(
            &inst,
            TokenId(0),
            policy,
            budget,
            &Tier::DEFAULT_LADDER,
            &metrics,
            &LadderExec::default(),
        )
        .unwrap();
        assert_eq!(sel.tier, Tier::Progressive);
        assert_eq!(
            sel.attempts,
            vec![(Tier::ExactBfs, SelectError::DeadlineInfeasible)]
        );
        let hist = HtHistogram::from_ring(&sel.selection.ring, &inst.universe);
        assert!(req.satisfied_by(&hist));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.bfs.candidates_total"), Some(0));
        assert_eq!(
            snap.counter("core.degrade.deadline_infeasible_total"),
            Some(1)
        );
    }

    #[test]
    fn elapsed_deadline_on_exact_only_ladder_is_an_error() {
        let inst = fresh_instance(6);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
        let budget = BfsBudget {
            deadline: Some(dams_diversity::Deadline::Ticks(0)),
            ..BfsBudget::default()
        };
        assert_eq!(
            select(&inst, TokenId(0), policy, budget, &[Tier::ExactBfs]).unwrap_err(),
            SelectError::DeadlineInfeasible
        );
    }

    #[test]
    fn tick_budget_steers_the_ladder_deterministically() {
        // A generous tick budget lets the exact tier answer; a starved one
        // degrades — and both outcomes replay identically.
        let inst = fresh_instance(8);
        let req = DiversityRequirement::new(1.0, 3);
        let policy = SelectionPolicy::new(req);
        for (ticks, expect_exact) in [(1u64 << 30, true), (2, false)] {
            let budget = BfsBudget {
                deadline: Some(dams_diversity::Deadline::Ticks(ticks)),
                ..BfsBudget::default()
            };
            let mut answers = Vec::new();
            for _ in 0..3 {
                let registry = dams_obs::Registry::new();
                let metrics = CoreMetrics::in_registry(&registry);
                let sel = select_with_ladder_exec(
                    &inst,
                    TokenId(0),
                    policy,
                    budget,
                    &Tier::DEFAULT_LADDER,
                    &metrics,
                    &LadderExec::default(),
                )
                .unwrap();
                assert_eq!(sel.tier == Tier::ExactBfs, expect_exact, "ticks={ticks}");
                answers.push((sel.tier, sel.selection.ring.clone()));
            }
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "replay changed the answer: {answers:?}"
            );
        }
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(Tier::ExactBfs.to_string(), "exact-bfs");
        assert!(Guarantee::Exact.to_string().contains("exact"));
        assert!(Guarantee::ProgressiveRatio(2.5)
            .to_string()
            .contains("2.500"));
        assert!(Guarantee::PriceOfAnarchy(3.0).to_string().contains("PoA"));
    }
}
