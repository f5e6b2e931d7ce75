//! The admission arithmetic: pure functions of one request's state.
//!
//! The crate's admission engine, which the virtual-tick
//! [`Service`](crate::service::Service), the queueless
//! [`Frontend`](crate::frontend::Frontend), and the real
//! [`runtime`](crate::runtime) all run, makes its decisions with these
//! helpers:
//!
//! * the reserve/grant split (`grant = (remaining − reserve) / tpc`);
//! * the ladder choice while the breaker denies exact budgets;
//! * the degrade budget handed to the solver ([`grant_budget`], defined
//!   in dams-core and shared with `Wallet::spend`);
//! * the tick price of a finished outcome;
//! * the breaker feedback classification (deadline-driven fallback vs
//!   exact success).

pub use dams_core::grant_budget;
use dams_core::{DegradedSelection, SelectError, Tier};

/// The tier ladder a request runs: full while exact budgets are granted,
/// cheap-only while the circuit is open.
pub fn ladder_for(exact_ok: bool) -> &'static [Tier] {
    if exact_ok {
        &Tier::DEFAULT_LADDER
    } else {
        &[Tier::Progressive, Tier::GameTheoretic]
    }
}

/// The ladder a request with an anonymity floor runs: [`ladder_for`]
/// filtered to tiers whose measured [`Tier::anonymity_score`] meets the
/// floor. An empty result means no tier can serve the request without
/// degrading privacy below its declared floor — the caller must shed it
/// as `ShedReason::AnonymityFloor` rather than answer. Under overload
/// the system degrades latency, never privacy.
pub fn floored_ladder(exact_ok: bool, floor: u32) -> Vec<Tier> {
    ladder_for(exact_ok)
        .iter()
        .copied()
        .filter(|t| t.anonymity_score() >= floor)
        .collect()
}

/// The exact-tier candidate grant for a request with `remaining` ticks of
/// budget. The caller must already have checked `remaining ≥ reserve`.
pub fn exact_grant(
    remaining: u64,
    reserve_ticks: u64,
    ticks_per_candidate: u64,
    exact_ok: bool,
) -> u64 {
    if !exact_ok {
        return 0;
    }
    remaining.saturating_sub(reserve_ticks) / ticks_per_candidate.max(1)
}

/// Price a finished selection in ticks.
///
/// Exact answers cost the candidates they examined (≤ grant by the
/// `Ticks` deadline); a burned exact probe costs its full grant; the
/// answering cheap tier adds its own work, which the calibrated reserve
/// covers. Terminal errors are priced at one tick.
pub fn price_outcome(
    outcome: &Result<DegradedSelection, SelectError>,
    exact_ok: bool,
    grant_candidates: u64,
    ticks_per_candidate: u64,
) -> u64 {
    let tpc = ticks_per_candidate.max(1);
    let cost = match outcome {
        Ok(sel) => {
            let exact_part = if sel.tier == Tier::ExactBfs {
                sel.selection.stats.candidates_examined.saturating_mul(tpc)
            } else if exact_ok && burned_exact_probe(sel) {
                grant_candidates.saturating_mul(tpc)
            } else {
                0
            };
            let cheap_part = if sel.tier == Tier::ExactBfs {
                0
            } else {
                1 + sel.selection.stats.diversity_checks
            };
            exact_part + cheap_part
        }
        Err(_) => 1,
    };
    cost.max(1)
}

/// Whether a degraded answer actually spent (and exhausted) an exact
/// probe before falling back.
fn burned_exact_probe(sel: &DegradedSelection) -> bool {
    sel.attempts
        .iter()
        .any(|(t, e)| *t == Tier::ExactBfs && *e == SelectError::BudgetExhausted)
}

/// Breaker feedback for an outcome that was granted an exact budget:
/// `Some(true)` strikes (deadline-driven fallback), `Some(false)` heals
/// (exact answer), `None` is neutral.
pub fn breaker_feedback(
    outcome: &Result<DegradedSelection, SelectError>,
    exact_ok: bool,
) -> Option<bool> {
    if !exact_ok {
        return None;
    }
    match outcome {
        Ok(sel) if sel.tier == Tier::ExactBfs => Some(false),
        Ok(_) => Some(true),
        Err(SelectError::DeadlineInfeasible) => Some(true),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_core::{BfsBudget, Deadline};

    #[test]
    fn grant_arithmetic_honours_reserve_and_breaker() {
        assert_eq!(exact_grant(100, 20, 4, true), 20);
        assert_eq!(exact_grant(100, 20, 4, false), 0);
        assert_eq!(exact_grant(19, 20, 4, true), 0, "saturates below reserve");
        assert_eq!(exact_grant(100, 20, 0, true), 80, "tpc clamps to 1");
    }

    #[test]
    fn ladder_drops_exact_tier_when_denied() {
        assert_eq!(ladder_for(true), &Tier::DEFAULT_LADDER);
        assert_eq!(ladder_for(false), &[Tier::Progressive, Tier::GameTheoretic]);
    }

    #[test]
    fn floored_ladder_filters_by_anonymity_score() {
        assert_eq!(floored_ladder(true, 0), Tier::DEFAULT_LADDER.to_vec());
        // A floor above the exact tier's score drops it but keeps the
        // (higher-anonymity) approximate tiers.
        let floor = Tier::ExactBfs.anonymity_score() + 1;
        let ladder = floored_ladder(true, floor);
        assert!(!ladder.contains(&Tier::ExactBfs));
        assert!(ladder.iter().all(|t| t.anonymity_score() >= floor));
        // An unsatisfiable floor empties the ladder entirely.
        assert!(floored_ladder(true, u32::MAX).is_empty());
        assert!(floored_ladder(false, u32::MAX).is_empty());
    }

    #[test]
    fn grant_budget_carries_a_tick_deadline() {
        assert_eq!(
            grant_budget(17),
            BfsBudget {
                deadline: Some(Deadline::Ticks(17)),
                ..BfsBudget::default()
            }
        );
    }

    #[test]
    fn errors_price_at_one_tick() {
        let err: Result<DegradedSelection, SelectError> = Err(SelectError::Infeasible);
        assert_eq!(price_outcome(&err, true, 50, 4), 1);
        assert_eq!(breaker_feedback(&err, true), None);
    }

    #[test]
    fn deadline_infeasible_strikes_only_with_a_grant() {
        let err: Result<DegradedSelection, SelectError> = Err(SelectError::DeadlineInfeasible);
        assert_eq!(breaker_feedback(&err, true), Some(true));
        assert_eq!(breaker_feedback(&err, false), None);
    }
}
