//! Selection results and errors shared by all DA-MS algorithms.

use dams_diversity::RingSet;

use crate::instance::ModuleId;

/// Which algorithm produced a selection (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact breadth-first search (Algorithm 2).
    Bfs,
    /// The Progressive approximation (Algorithm 4).
    Progressive,
    /// The Game-theoretic approximation (Algorithm 5).
    GameTheoretic,
    /// Baseline: repeatedly add the smallest module.
    Smallest,
    /// Baseline: repeatedly add a random module.
    Random,
}

impl Algorithm {
    /// The paper's label for the TokenMagic variant using this algorithm.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Bfs => "TM_B",
            Algorithm::Progressive => "TM_P",
            Algorithm::GameTheoretic => "TM_G",
            Algorithm::Smallest => "TM_S",
            Algorithm::Random => "TM_R",
        }
    }
}

/// A successful mixin selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The produced ring (consuming token + mixins).
    pub ring: RingSet,
    /// The modules composing it (empty for the BFS path, which does not use
    /// the modular view).
    pub modules: Vec<ModuleId>,
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// Work counters for complexity-shape experiments.
    pub stats: SelectionStats,
}

impl Selection {
    /// Ring size |r_τ| — the optimisation objective of Definition 5.
    pub fn size(&self) -> usize {
        self.ring.len()
    }
}

/// Cheap work counters recorded by every algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidate rings / strategy profiles examined.
    pub candidates_examined: u64,
    /// Diversity-histogram evaluations performed.
    pub diversity_checks: u64,
    /// Best-response or greedy iterations executed.
    pub iterations: u64,
    /// Candidates rejected before world enumeration (the BFS's cheap
    /// diversity pre-check; approximation algorithms leave this at 0).
    pub pruned: u64,
}

/// Why a selection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The target token is not in the instance universe.
    UnknownToken,
    /// No module subset satisfies the requirement (e.g. too few distinct
    /// HTs in the batch for the requested ℓ).
    Infeasible,
    /// The exact search exceeded its configured budget.
    BudgetExhausted,
    /// The request's deadline was already elapsed before any search work
    /// could start, so the attempt was skipped rather than probed. Emitted
    /// by the degrade ladder (and surfaced by the selection service as a
    /// typed shed) when a request arrives with zero remaining budget.
    DeadlineInfeasible,
    /// Appending the ring would violate the η feasibility guard (§4).
    EtaGuardViolated,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::UnknownToken => write!(f, "target token outside the mixin universe"),
            SelectError::Infeasible => {
                write!(
                    f,
                    "no eligible ring exists; relax the diversity requirement"
                )
            }
            SelectError::BudgetExhausted => write!(f, "exact search budget exhausted"),
            SelectError::DeadlineInfeasible => {
                write!(f, "deadline already elapsed before selection could start")
            }
            SelectError::EtaGuardViolated => {
                write!(f, "ring would exhaust the batch (η feasibility guard)")
            }
        }
    }
}

impl std::error::Error for SelectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Algorithm::Bfs.label(), "TM_B");
        assert_eq!(Algorithm::Progressive.label(), "TM_P");
        assert_eq!(Algorithm::GameTheoretic.label(), "TM_G");
        assert_eq!(Algorithm::Smallest.label(), "TM_S");
        assert_eq!(Algorithm::Random.label(), "TM_R");
    }

    #[test]
    fn selection_size_is_ring_len() {
        let s = Selection {
            ring: dams_diversity::ring(&[1, 2, 3]),
            modules: vec![],
            algorithm: Algorithm::Bfs,
            stats: SelectionStats::default(),
        };
        assert_eq!(s.size(), 3);
    }

    #[test]
    fn errors_display() {
        for e in [
            SelectError::UnknownToken,
            SelectError::Infeasible,
            SelectError::BudgetExhausted,
            SelectError::DeadlineInfeasible,
            SelectError::EtaGuardViolated,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
