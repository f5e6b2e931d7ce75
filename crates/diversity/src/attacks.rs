//! Seeded, replayable adversaries over full chain traces — the attack
//! harness behind `dams-cli bench --anonymity`.
//!
//! The static recursive (c, ℓ)-diversity predicate says nothing about how
//! much *effective* anonymity survives a realistic adversary. This module
//! measures it: given a [`ChainTrace`] (rings with ground-truth spends and
//! block heights), three empirically-grounded attackers run against the
//! public rings and report effective anonymity-set size instead of a
//! pass/fail verdict:
//!
//! * **zero-mixin cascade taint** ([`cascade_taint`]) — Möser et al.'s
//!   iterative elimination: a ring with exactly one unconsumed candidate
//!   collapses, its candidate becomes known-spent, repeat. The cascade
//!   depth (elimination round of the last collapse) measures how far one
//!   careless spend propagates.
//! * **guess-newest age heuristic** ([`guess_newest`]) — guess the
//!   youngest ring member (Monero's empirically dominant spending
//!   pattern). A best-effort guess, not a proof; reported separately but
//!   counted into the deanonymized fraction because a heuristic this
//!   accurate is a working deanonymization in practice.
//! * **closed-set graph matching** ([`graph_matching`]) — the
//!   Dulmage–Mendelsohn allowed-edge adversary of
//!   [`crate::chain_reaction::analyze`], whose per-ring candidate sets
//!   are the adversary's posterior; side information scales with the
//!   configured adversary strength.
//!
//! Every adversary is deterministic given an [`AttackConfig`]: the same
//! `(seed, strength)` replays byte-identical reports (the property sweeps
//! pin this down), and wall time is recorded only into `Unit::Nanos`
//! histograms so deterministic snapshots stay reproducible.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain_reaction::analyze;
use crate::metrics::batch_anonymity;
use crate::obs::AttackMetrics;
use crate::related::RingIndex;
use crate::types::{RingSet, RsId, TokenId, TokenRsPair, TokenUniverse};

/// A fully materialised chain history: the public rings plus the ground
/// truth the adversary is scored against.
///
/// Rings are stored in spend order (`rings[i]` was committed at
/// `spend_height[i]`, consuming `truth[i]`); `birth_height[t]` is the
/// block height at which token `t` was minted. The workload crate's
/// trace generator produces these; tests build them by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainTrace {
    /// Token → HT assignment for every minted token.
    pub universe: TokenUniverse,
    /// The public ring signatures, in commit order.
    pub rings: Vec<RingSet>,
    /// Ground truth: `truth[i]` is the token `rings[i]` consumed.
    pub truth: Vec<TokenId>,
    /// Mint height of every token in the universe.
    pub birth_height: Vec<u64>,
    /// Commit height of every ring.
    pub spend_height: Vec<u64>,
}

impl ChainTrace {
    /// Number of rings in the trace.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// The ring index an adversary observes (the public data only).
    pub fn index(&self) -> RingIndex {
        RingIndex::from_rings(self.rings.iter().cloned())
    }

    /// The first `k` rings as a standalone trace (the chain as it stood
    /// when ring `k` was about to be committed) — the timeline axis.
    pub fn prefix(&self, k: usize) -> ChainTrace {
        let k = k.min(self.rings.len());
        ChainTrace {
            universe: self.universe.clone(),
            rings: self.rings[..k].to_vec(),
            truth: self.truth[..k].to_vec(),
            birth_height: self.birth_height.clone(),
            spend_height: self.spend_height[..k].to_vec(),
        }
    }
}

/// A seeded adversary configuration.
///
/// `strength` scales the side information: a strength-`f` adversary has
/// directly observed the true pair of `f/8` of all rings (`f = 0` is the
/// outside observer, `f = 3` has compromised more than a third of the
/// wallets). The leak choice is drawn from `seed`, so a configuration
/// replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackConfig {
    /// Adversary strength `f` (0..=3 in the bench sweep).
    pub strength: u32,
    /// Replay seed for the side-information leak.
    pub seed: u64,
}

impl AttackConfig {
    /// The side information this adversary holds against `trace`: the
    /// true pairs of a seeded choice of `strength/8` of the rings.
    pub fn leaked_pairs(&self, trace: &ChainTrace) -> Vec<TokenRsPair> {
        let n = trace.len();
        let want = n * self.strength as usize / 8;
        if want == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ (u64::from(self.strength) << 32));
        let mut slots: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first `want` slots are the leak.
        for i in 0..want.min(n) {
            let j = rng.gen_range(i..n);
            slots.swap(i, j);
        }
        let mut chosen: Vec<usize> = slots[..want.min(n)].to_vec();
        chosen.sort_unstable();
        chosen
            .into_iter()
            .map(|i| TokenRsPair::new(trace.truth[i], RsId(i as u32)))
            .collect()
    }
}

/// Outcome of the zero-mixin cascade-taint attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeOutcome {
    /// Rings collapsed to a single candidate (leaked pins included).
    pub resolved: usize,
    /// Collapsed rings whose surviving candidate is the true spend.
    pub correct: usize,
    /// Elimination round of the last collapse (0 when only the leaked
    /// pins resolved anything).
    pub max_depth: u64,
}

/// Möser-style iterative elimination. Returns the outcome plus the
/// per-ring resolution (`Some(token)` where the cascade collapsed ring
/// `i` to one candidate).
pub fn cascade_taint(
    trace: &ChainTrace,
    leaked: &[TokenRsPair],
) -> (CascadeOutcome, Vec<Option<TokenId>>) {
    let n = trace.len();
    let mut resolved: Vec<Option<TokenId>> = vec![None; n];
    let mut known_spent: BTreeSet<TokenId> = BTreeSet::new();
    for p in leaked {
        let slot = p.rs.0 as usize;
        if slot < n && trace.rings[slot].contains(p.token) {
            resolved[slot] = Some(p.token);
            known_spent.insert(p.token);
        }
    }

    // Waves: each round eliminates with only the knowledge from the start
    // of the round, so `max_depth` counts true cascade hops (a singleton
    // collapsing a neighbour which collapses *its* neighbour is depth 3).
    let mut max_depth = 0u64;
    let mut round = 0u64;
    loop {
        round += 1;
        let mut wave: Vec<(usize, TokenId)> = Vec::new();
        for (i, ring) in trace.rings.iter().enumerate() {
            if resolved[i].is_some() {
                continue;
            }
            let mut survivor: Option<TokenId> = None;
            let mut count = 0usize;
            for &t in ring.tokens() {
                if !known_spent.contains(&t) {
                    survivor = Some(t);
                    count += 1;
                    if count > 1 {
                        break;
                    }
                }
            }
            if count == 1 {
                if let Some(t) = survivor {
                    wave.push((i, t));
                }
            }
        }
        if wave.is_empty() {
            break;
        }
        for (i, t) in wave {
            resolved[i] = Some(t);
            known_spent.insert(t);
        }
        max_depth = round;
    }

    let resolved_count = resolved.iter().filter(|r| r.is_some()).count();
    let correct = resolved
        .iter()
        .zip(&trace.truth)
        .filter(|(r, t)| **r == Some(**t))
        .count();
    (
        CascadeOutcome {
            resolved: resolved_count,
            correct,
            max_depth,
        },
        resolved,
    )
}

/// Outcome of the guess-newest age heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewestOutcome {
    /// Rings the heuristic guessed on (everything the cascade left open).
    pub guesses: usize,
    /// Guesses that named the true spend.
    pub correct: usize,
}

impl NewestOutcome {
    /// Empirical guess accuracy (0 when nothing was guessed).
    pub fn accuracy(&self) -> f64 {
        if self.guesses == 0 {
            0.0
        } else {
            self.correct as f64 / self.guesses as f64
        }
    }
}

/// Guess the youngest member of every ring the cascade left unresolved.
/// Ties break toward the larger token id (the later mint in a block).
pub fn guess_newest(trace: &ChainTrace, resolved: &[Option<TokenId>]) -> NewestOutcome {
    let mut guesses = 0usize;
    let mut correct = 0usize;
    for (i, ring) in trace.rings.iter().enumerate() {
        if resolved.get(i).copied().flatten().is_some() {
            continue;
        }
        let newest = ring.tokens().iter().copied().max_by_key(|t| {
            (
                trace.birth_height.get(t.0 as usize).copied().unwrap_or(0),
                t.0,
            )
        });
        if let Some(g) = newest {
            guesses += 1;
            if g == trace.truth[i] {
                correct += 1;
            }
        }
    }
    NewestOutcome { guesses, correct }
}

/// Outcome of the closed-set graph-matching adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingOutcome {
    /// Rings whose allowed-edge candidate set collapsed to one token.
    pub resolved: usize,
    /// Resolved rings whose candidate is the true spend.
    pub correct: usize,
    /// Mean surviving candidate count — the effective anonymity-set size.
    pub mean_candidates: f64,
    /// Smallest surviving candidate set across rings.
    pub min_candidates: usize,
    /// Mean Shannon entropy (bits) of the candidates' HT distribution.
    pub mean_ht_entropy_bits: f64,
}

/// Run the Dulmage–Mendelsohn allowed-edge adversary with the given side
/// information and summarise the per-ring posterior.
pub fn graph_matching(trace: &ChainTrace, leaked: &[TokenRsPair]) -> MatchingOutcome {
    let index = trace.index();
    let analysis = analyze(&index, leaked);
    let batch = batch_anonymity(&analysis, &trace.universe);
    let correct = (0..trace.len())
        .filter(|&i| analysis.resolved(RsId(i as u32)) == Some(trace.truth[i]))
        .count();
    MatchingOutcome {
        resolved: analysis.resolved_count(),
        correct,
        mean_candidates: batch.mean_candidates,
        min_candidates: batch.min_candidates,
        mean_ht_entropy_bits: batch.mean_ht_entropy_bits,
    }
}

/// One point of the anonymity-over-time trajectory: the combined attack
/// evaluated on the chain prefix ending at `height`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Commit height of the last ring in the prefix.
    pub height: u64,
    /// Rings in the prefix.
    pub rings: usize,
    /// Deanonymized fraction at this point.
    pub deanonymized_fraction: f64,
    /// Mean effective anonymity-set size at this point.
    pub mean_candidates: f64,
}

/// The combined report of one adversary run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// The configuration that produced this report.
    pub config: AttackConfig,
    /// Rings attacked (the whole trace).
    pub rings_attacked: usize,
    /// Side-information pairs the adversary held.
    pub leaked_pairs: usize,
    pub cascade: CascadeOutcome,
    pub newest: NewestOutcome,
    pub matching: MatchingOutcome,
    /// Rings whose true spend the adversary identified by *any* of the
    /// three attacks (certain collapses and correct newest guesses).
    pub deanonymized: usize,
    /// `deanonymized / rings_attacked` (0 on an empty trace).
    pub deanonymized_fraction: f64,
    /// Effective anonymity over chain prefixes (quartile checkpoints).
    pub timeline: Vec<TimelinePoint>,
}

/// Count the rings deanonymized by the union of the three attacks.
fn deanonymized_count(
    trace: &ChainTrace,
    cascade_resolved: &[Option<TokenId>],
    leaked: &[TokenRsPair],
) -> usize {
    let index = trace.index();
    let analysis = analyze(&index, leaked);
    let mut hit = 0usize;
    for (i, ring) in trace.rings.iter().enumerate() {
        let truth = trace.truth[i];
        let by_cascade = cascade_resolved.get(i).copied().flatten() == Some(truth);
        let by_matching = analysis.resolved(RsId(i as u32)) == Some(truth);
        let by_newest = !by_cascade
            && !by_matching
            && ring.tokens().iter().copied().max_by_key(|t| {
                (
                    trace.birth_height.get(t.0 as usize).copied().unwrap_or(0),
                    t.0,
                )
            }) == Some(truth);
        if by_cascade || by_matching || by_newest {
            hit += 1;
        }
    }
    hit
}

/// Run all three adversaries against `trace`, recording into the
/// process-wide registry.
pub fn run_attack(trace: &ChainTrace, config: AttackConfig) -> AttackReport {
    run_attack_observed(trace, config, AttackMetrics::global())
}

/// [`run_attack`] against explicit metric handles (tests use a fresh
/// registry so parallel test threads cannot interfere).
pub fn run_attack_observed(
    trace: &ChainTrace,
    config: AttackConfig,
    metrics: &AttackMetrics,
) -> AttackReport {
    let span = metrics.attack_time.start_span();
    let leaked = config.leaked_pairs(trace);
    let (cascade, resolved) = cascade_taint(trace, &leaked);
    let newest = guess_newest(trace, &resolved);
    let matching = graph_matching(trace, &leaked);
    let deanonymized = deanonymized_count(trace, &resolved, &leaked);
    let rings = trace.len();
    let fraction = if rings == 0 {
        0.0
    } else {
        deanonymized as f64 / rings as f64
    };

    // Quartile checkpoints of the commit order: how anonymity erodes as
    // the chain (and the taint) grows.
    let mut timeline = Vec::new();
    for q in 1..=4usize {
        let k = rings * q / 4;
        if k == 0 {
            continue;
        }
        let prefix = trace.prefix(k);
        let pre_leaked: Vec<TokenRsPair> = leaked
            .iter()
            .copied()
            .filter(|p| (p.rs.0 as usize) < k)
            .collect();
        let (_, pre_resolved) = cascade_taint(&prefix, &pre_leaked);
        let pre_hit = deanonymized_count(&prefix, &pre_resolved, &pre_leaked);
        let pre_matching = graph_matching(&prefix, &pre_leaked);
        timeline.push(TimelinePoint {
            height: prefix.spend_height.last().copied().unwrap_or(0),
            rings: k,
            deanonymized_fraction: pre_hit as f64 / k as f64,
            mean_candidates: pre_matching.mean_candidates,
        });
    }

    metrics.rings_attacked.add(rings as u64);
    metrics.rings_deanonymized.add(deanonymized as u64);
    metrics.cascade_depth.record(cascade.max_depth);
    drop(span);

    AttackReport {
        config,
        rings_attacked: rings,
        leaked_pairs: leaked.len(),
        cascade,
        newest,
        matching,
        deanonymized,
        deanonymized_fraction: fraction,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ring, HtId};
    use dams_obs::Registry;

    /// A hand-built trace: 4 tokens minted at heights 0..4, three rings.
    /// Ring 0 is a careless singleton, ring 1 gets tainted by it, ring 2
    /// is diverse and isolated.
    fn toy_trace() -> ChainTrace {
        ChainTrace {
            universe: TokenUniverse::new(vec![HtId(0), HtId(1), HtId(2), HtId(3), HtId(4)]),
            rings: vec![ring(&[0]), ring(&[0, 1]), ring(&[3, 4])],
            truth: vec![TokenId(0), TokenId(1), TokenId(4)],
            birth_height: vec![0, 1, 2, 3, 4],
            spend_height: vec![5, 6, 7],
        }
    }

    #[test]
    fn cascade_collapses_singleton_then_neighbour() {
        let t = toy_trace();
        let (out, resolved) = cascade_taint(&t, &[]);
        // Round 1: ring 0 collapses to {0}; round 2: ring 1 loses token 0
        // and collapses to {1}.
        assert_eq!(out.resolved, 2);
        assert_eq!(out.correct, 2);
        assert_eq!(out.max_depth, 2);
        assert_eq!(resolved[0], Some(TokenId(0)));
        assert_eq!(resolved[1], Some(TokenId(1)));
        assert_eq!(resolved[2], None);
    }

    #[test]
    fn newest_guesses_only_open_rings() {
        let t = toy_trace();
        let (_, resolved) = cascade_taint(&t, &[]);
        let g = guess_newest(&t, &resolved);
        // Only ring 2 is open; its newest member (token 4) is the truth.
        assert_eq!(g.guesses, 1);
        assert_eq!(g.correct, 1);
        assert_eq!(g.accuracy(), 1.0);
    }

    #[test]
    fn matching_posterior_matches_cascade_on_toy() {
        let t = toy_trace();
        let m = graph_matching(&t, &[]);
        assert_eq!(m.resolved, 2);
        assert_eq!(m.correct, 2);
        assert_eq!(m.min_candidates, 1);
    }

    #[test]
    fn strength_zero_leaks_nothing() {
        let cfg = AttackConfig {
            strength: 0,
            seed: 7,
        };
        assert!(cfg.leaked_pairs(&toy_trace()).is_empty());
    }

    #[test]
    fn stronger_adversaries_leak_more() {
        let t = ChainTrace {
            universe: TokenUniverse::new((0..32).map(HtId).collect()),
            rings: (0..32u32).map(|i| ring(&[i])).collect(),
            truth: (0..32).map(TokenId).collect(),
            birth_height: (0..32).collect(),
            spend_height: (32..64).collect(),
        };
        let leak = |f| {
            AttackConfig {
                strength: f,
                seed: 3,
            }
            .leaked_pairs(&t)
            .len()
        };
        assert_eq!(leak(0), 0);
        assert_eq!(leak(1), 4);
        assert_eq!(leak(2), 8);
        assert_eq!(leak(3), 12);
    }

    #[test]
    fn reports_replay_byte_identical() {
        let t = toy_trace();
        let cfg = AttackConfig {
            strength: 2,
            seed: 42,
        };
        let registry = Registry::new();
        let m = AttackMetrics::in_registry(&registry);
        let a = run_attack_observed(&t, cfg, &m);
        let b = run_attack_observed(&t, cfg, &m);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn run_attack_records_metrics() {
        let t = toy_trace();
        let registry = Registry::new();
        let m = AttackMetrics::in_registry(&registry);
        let r = run_attack_observed(
            &t,
            AttackConfig {
                strength: 0,
                seed: 1,
            },
            &m,
        );
        assert_eq!(r.rings_attacked, 3);
        // All three rings fall: two to the cascade, one to guess-newest.
        assert_eq!(r.deanonymized, 3);
        assert!((r.deanonymized_fraction - 1.0).abs() < 1e-12);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("diversity.attack.rings_total"), Some(3));
        assert_eq!(snap.counter("diversity.attack.deanonymized_total"), Some(3));
    }

    #[test]
    fn timeline_is_monotone_in_rings() {
        let t = toy_trace();
        let r = run_attack(
            &t,
            AttackConfig {
                strength: 0,
                seed: 1,
            },
        );
        assert!(!r.timeline.is_empty());
        let mut prev = 0usize;
        for p in &r.timeline {
            assert!(p.rings >= prev);
            prev = p.rings;
        }
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = ChainTrace {
            universe: TokenUniverse::new(vec![]),
            rings: vec![],
            truth: vec![],
            birth_height: vec![],
            spend_height: vec![],
        };
        let r = run_attack(
            &t,
            AttackConfig {
                strength: 3,
                seed: 9,
            },
        );
        assert_eq!(r.rings_attacked, 0);
        assert_eq!(r.deanonymized_fraction, 0.0);
        assert!(r.timeline.is_empty());
    }
}
