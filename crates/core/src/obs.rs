//! Observability handles for the selection hot paths.
//!
//! [`CoreMetrics`] bundles every `core.*` metric the crate records:
//! exact-search work counters (candidates expanded, prunes, DTRS
//! evaluations), per-algorithm selection counts/sizes/latency, and the
//! degrading selector's per-tier answered counts, fallbacks, and wall
//! time. Instrumented entry points default to the process-wide registry
//! ([`CoreMetrics::global`]); tests that assert exact values build a
//! fresh [`Registry`] and use [`CoreMetrics::in_registry`] so parallel
//! test threads cannot interfere.
//!
//! Naming follows the workspace scheme (see `dams-obs`):
//!
//! * `core.bfs.candidates_total` / `core.bfs.pruned_total` — rings the
//!   exact search expanded / rejected before world enumeration;
//! * `core.dtrs.evaluations_total` — diversity-histogram evaluations
//!   (the DTRS checks dominating every algorithm's inner loop);
//! * `core.cache.hits_total` / `core.cache.misses_total` /
//!   `core.cache.evictions_total` — evaluation-cache accounting (see
//!   [`crate::cache`]);
//! * `core.select.<alg>.rings_total`, `core.select.<alg>.ring_size`,
//!   `core.select.<alg>.time_ns` — per-algorithm selection outcomes;
//! * `core.degrade.answered.<tier>_total`, `core.degrade.fallbacks_total`,
//!   `core.degrade.tier.<tier>_ns`, `core.degrade.ring_size` — the
//!   fallback ladder's behaviour.

use std::sync::OnceLock;

use dams_obs::{Counter, Histogram, Registry, Unit};

use crate::degrade::Tier;
use crate::selection::Algorithm;

/// All five algorithm labels, index-aligned with [`algo_index`].
const ALGOS: [Algorithm; 5] = [
    Algorithm::Bfs,
    Algorithm::Progressive,
    Algorithm::GameTheoretic,
    Algorithm::Smallest,
    Algorithm::Random,
];

/// Stable index of an algorithm into the per-algorithm metric arrays
/// (total by construction — must stay index-aligned with [`ALGOS`]).
fn algo_index(algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::Bfs => 0,
        Algorithm::Progressive => 1,
        Algorithm::GameTheoretic => 2,
        Algorithm::Smallest => 3,
        Algorithm::Random => 4,
    }
}

/// Stable index of a tier into the per-tier metric arrays.
fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::ExactBfs => 0,
        Tier::Progressive => 1,
        Tier::GameTheoretic => 2,
    }
}

/// Metric segment for an algorithm (lower-cased paper label).
fn algo_segment(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Bfs => "tm_b",
        Algorithm::Progressive => "tm_p",
        Algorithm::GameTheoretic => "tm_g",
        Algorithm::Smallest => "tm_s",
        Algorithm::Random => "tm_r",
    }
}

/// Metric segment for a tier.
fn tier_segment(index: usize) -> &'static str {
    match index {
        0 => "exact_bfs",
        1 => "progressive",
        _ => "game_theoretic",
    }
}

/// Handles onto every `core.*` metric (see the module docs).
#[derive(Debug, Clone)]
pub struct CoreMetrics {
    /// Candidate rings the exact BFS expanded.
    pub bfs_candidates: Counter,
    /// Candidates the BFS rejected before world enumeration.
    pub bfs_pruned: Counter,
    /// Diversity-histogram (DTRS) evaluations across all algorithms.
    pub dtrs_evaluations: Counter,
    /// Evaluation-cache lookups that found a stored outcome.
    pub cache_hits: Counter,
    /// Evaluation-cache lookups that missed (outcome computed fresh).
    pub cache_misses: Counter,
    /// Entries dropped from a full evaluation cache (FIFO order).
    pub cache_evictions: Counter,
    /// Successful selections per algorithm (`ALGOS` order).
    pub select_total: [Counter; 5],
    /// Ring-size distribution per algorithm.
    pub select_size: [Histogram; 5],
    /// Selection wall time per algorithm (nanoseconds).
    pub select_time: [Histogram; 5],
    /// Answers per tier of the degrading selector.
    pub degrade_answered: [Counter; 3],
    /// Tier hand-overs (budget exhaustions and approximation dead-ends).
    pub degrade_fallbacks: Counter,
    /// Exact-tier attempts skipped because the deadline was already
    /// elapsed on entry (no BFS probe was burned).
    pub degrade_deadline_infeasible: Counter,
    /// Per-tier attempt wall time (nanoseconds), success or not.
    pub degrade_tier_time: [Histogram; 3],
    /// Ring sizes the degrading selector returned.
    pub degrade_ring_size: Histogram,
}

impl CoreMetrics {
    /// Register (or re-acquire) every core metric in `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        CoreMetrics {
            bfs_candidates: registry.counter("core.bfs.candidates_total"),
            bfs_pruned: registry.counter("core.bfs.pruned_total"),
            dtrs_evaluations: registry.counter("core.dtrs.evaluations_total"),
            cache_hits: registry.counter("core.cache.hits_total"),
            cache_misses: registry.counter("core.cache.misses_total"),
            cache_evictions: registry.counter("core.cache.evictions_total"),
            select_total: ALGOS
                .map(|a| registry.counter(&format!("core.select.{}.rings_total", algo_segment(a)))),
            select_size: ALGOS.map(|a| {
                registry.histogram(
                    &format!("core.select.{}.ring_size", algo_segment(a)),
                    Unit::Count,
                )
            }),
            select_time: ALGOS.map(|a| {
                registry.histogram(
                    &format!("core.select.{}.time_ns", algo_segment(a)),
                    Unit::Nanos,
                )
            }),
            degrade_answered: std::array::from_fn(|i| {
                registry.counter(&format!("core.degrade.answered.{}_total", tier_segment(i)))
            }),
            degrade_fallbacks: registry.counter("core.degrade.fallbacks_total"),
            degrade_deadline_infeasible: registry.counter("core.degrade.deadline_infeasible_total"),
            degrade_tier_time: std::array::from_fn(|i| {
                registry.histogram(
                    &format!("core.degrade.tier.{}_ns", tier_segment(i)),
                    Unit::Nanos,
                )
            }),
            degrade_ring_size: registry.histogram("core.degrade.ring_size", Unit::Count),
        }
    }

    /// The handles bound to the process-wide registry — what the default
    /// entry points record into.
    pub fn global() -> &'static CoreMetrics {
        static GLOBAL: OnceLock<CoreMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| CoreMetrics::in_registry(dams_obs::global()))
    }

    /// Record one successful selection by `algorithm`: its count, ring
    /// size, and the work counters carried in [`crate::SelectionStats`].
    pub fn record_selection(&self, algorithm: Algorithm, selection: &crate::Selection) {
        let i = algo_index(algorithm);
        self.select_total[i].inc();
        self.select_size[i].record(selection.size() as u64);
        self.record_stats(algorithm, &selection.stats);
    }

    /// Fold a run's work counters into the registry (also called on the
    /// success path by [`Self::record_selection`]).
    pub fn record_stats(&self, algorithm: Algorithm, stats: &crate::SelectionStats) {
        self.dtrs_evaluations.add(stats.diversity_checks);
        if algorithm == Algorithm::Bfs {
            self.bfs_candidates.add(stats.candidates_examined);
            self.bfs_pruned.add(stats.pruned);
        }
    }

    /// The counter handles for a tier (answered count, attempt timer).
    pub(crate) fn tier(&self, tier: Tier) -> (&Counter, &Histogram) {
        let i = tier_index(tier);
        (&self.degrade_answered[i], &self.degrade_tier_time[i])
    }

    /// Span timer for one `algorithm` selection call.
    pub fn select_span(&self, algorithm: Algorithm) -> dams_obs::Span {
        self.select_time[algo_index(algorithm)].start_span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_indices_cover_all_variants() {
        for (i, a) in ALGOS.iter().enumerate() {
            assert_eq!(algo_index(*a), i);
        }
    }

    #[test]
    fn in_registry_registers_expected_names() {
        let registry = Registry::new();
        let m = CoreMetrics::in_registry(&registry);
        m.bfs_candidates.add(3);
        m.degrade_answered[0].inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.bfs.candidates_total"), Some(3));
        assert_eq!(
            snap.counter("core.degrade.answered.exact_bfs_total"),
            Some(1)
        );
        assert_eq!(snap.counter("core.select.tm_p.rings_total"), Some(0));
    }

    #[test]
    fn reacquiring_shares_the_atomics() {
        let registry = Registry::new();
        let a = CoreMetrics::in_registry(&registry);
        let b = CoreMetrics::in_registry(&registry);
        a.dtrs_evaluations.add(2);
        b.dtrs_evaluations.add(5);
        assert_eq!(
            registry.snapshot().counter("core.dtrs.evaluations_total"),
            Some(7)
        );
    }
}
