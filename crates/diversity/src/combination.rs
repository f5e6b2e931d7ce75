//! Token–RS combinations (Definition 6 of the paper).
//!
//! A token–RS combination of a ring set `R` assigns to every ring one
//! consumed token from that ring such that no token is assigned twice —
//! exactly a perfect matching of the rings into the tokens. Because each
//! token can be consumed at most once, the set of combinations is the set
//! of *possible worlds* an adversary must distinguish between; this is the
//! object behind the #P-hardness reduction (Theorem 3.1).
//!
//! Enumeration is exponential in general (the reduction says it must be) —
//! it is used by the exact BFS algorithm and by exact DTRS computation on
//! small instances only.

use crate::deadline::Deadline;
use crate::related::RingIndex;
use crate::types::{RingSet, RsId, TokenId};

/// One combination: `assigned[i]` is the token consumed by the i-th ring of
/// the input slice (same order as passed to [`enumerate_combinations`]).
pub type Combination = Vec<TokenId>;

/// The deadline of [`WorldOptions`] expired mid-enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldsExpired;

/// Options for [`enumerate_worlds`].
#[derive(Default)]
pub struct WorldOptions<'a> {
    /// Stop after this many combinations (0 is treated as unlimited by
    /// callers passing `usize::MAX`; the enumeration itself just compares).
    pub limit: usize,
    /// A candidate ring that is *not* in the index, addressed by a phantom
    /// id (callers use `RsId(index.len())`, matching what a push would have
    /// assigned). This lets the exact BFS evaluate a prospective ring
    /// without cloning the entire [`RingIndex`] per candidate.
    pub extra: Option<(RsId, &'a RingSet)>,
    /// Deadline, checked *inside* the recursion so one candidate with a
    /// huge possible-world set cannot blow far past the budget (see
    /// `BfsBudget.deadline`). It is charged one unit per recursion step,
    /// so expiry is deterministic.
    pub deadline: Option<Deadline>,
}

struct WorldEnum<'a> {
    index: &'a RingIndex,
    rings: &'a [RsId],
    extra: Option<(RsId, &'a RingSet)>,
    limit: usize,
    deadline: Option<Deadline>,
    steps: u64,
    expired: bool,
    out: Vec<Combination>,
    chosen: Vec<TokenId>,
    used: std::collections::HashSet<TokenId>,
}

impl<'a> WorldEnum<'a> {
    fn ring_at(&self, id: RsId) -> &'a RingSet {
        match self.extra {
            Some((eid, r)) if eid == id => r,
            _ => self.index.ring(id),
        }
    }

    fn recurse(&mut self, order: &[usize], depth: usize) {
        if self.out.len() >= self.limit || self.expired {
            return;
        }
        self.steps += 1;
        // One work unit per step, checked every step, so a zero budget
        // aborts before any work.
        if self.deadline.is_some_and(|d| d.expired(self.steps - 1)) {
            self.expired = true;
            return;
        }
        if depth == order.len() {
            // Permute back to the caller's ring order.
            let mut combo = vec![TokenId(u32::MAX); self.rings.len()];
            for (d, &slot) in order.iter().enumerate() {
                combo[slot] = self.chosen[d];
            }
            self.out.push(combo);
            return;
        }
        let ring = self.ring_at(self.rings[order[depth]]);
        for &t in ring.tokens() {
            if self.used.insert(t) {
                self.chosen.push(t);
                self.recurse(order, depth + 1);
                self.chosen.pop();
                self.used.remove(&t);
                if self.out.len() >= self.limit || self.expired {
                    return;
                }
            }
        }
    }
}

/// Enumerate all token–RS combinations of the given rings.
///
/// `rings` are ids into `index`. Rings are processed smallest-first
/// internally (strong pruning); results are permuted back to input order.
/// Returns an empty vec when no combination exists (some ring cannot be
/// assigned a distinct token).
pub fn enumerate_combinations(index: &RingIndex, rings: &[RsId]) -> Vec<Combination> {
    enumerate_with_limit(index, rings, usize::MAX)
}

/// Like [`enumerate_combinations`] but stops after `limit` results.
///
/// The exact algorithms only ever ask "is the set of combinations empty?"
/// or "do all combinations agree?"; a limit lets callers bail out early on
/// pathological instances.
pub fn enumerate_with_limit(index: &RingIndex, rings: &[RsId], limit: usize) -> Vec<Combination> {
    // No deadline is configured, so the enumeration cannot expire; an
    // (impossible) `WorldsExpired` degrades to the empty world set rather
    // than panicking a library path.
    enumerate_worlds(
        index,
        rings,
        &WorldOptions {
            limit,
            extra: None,
            deadline: None,
        },
    )
    .unwrap_or_default()
}

/// The general possible-world enumerator: [`enumerate_with_limit`] plus an
/// optional out-of-index candidate ring and an optional [`Deadline`].
///
/// The recursion — and therefore the *order* of the produced combinations —
/// is identical to [`enumerate_with_limit`] over an index with the extra
/// ring pushed: the size ordering is a stable sort over the same lengths and
/// each slot iterates its (sorted) ring tokens the same way. The exact BFS
/// relies on this to stay byte-identical to the clone-based reference path.
pub fn enumerate_worlds(
    index: &RingIndex,
    rings: &[RsId],
    opts: &WorldOptions<'_>,
) -> Result<Vec<Combination>, WorldsExpired> {
    if rings.is_empty() {
        // The empty combination assigns nothing and is vacuously valid.
        return Ok(vec![Vec::new()]);
    }
    let mut en = WorldEnum {
        index,
        rings,
        extra: opts.extra,
        limit: opts.limit,
        deadline: opts.deadline,
        steps: 0,
        expired: false,
        out: Vec::new(),
        chosen: Vec::with_capacity(rings.len()),
        used: std::collections::HashSet::new(),
    };
    // Order rings by ascending size: fail fast on the most constrained.
    let mut order: Vec<usize> = (0..rings.len()).collect();
    order.sort_by_key(|&i| en.ring_at(rings[i]).len());

    en.recurse(&order, 0);
    if en.expired {
        Err(WorldsExpired)
    } else {
        Ok(en.out)
    }
}

/// Count combinations without materialising them (same recursion).
pub fn count_combinations(index: &RingIndex, rings: &[RsId]) -> u64 {
    if rings.is_empty() {
        return 1;
    }
    let mut order: Vec<usize> = (0..rings.len()).collect();
    order.sort_by_key(|&i| index.ring(rings[i]).len());

    fn recurse(
        index: &RingIndex,
        rings: &[RsId],
        order: &[usize],
        depth: usize,
        used: &mut std::collections::HashSet<TokenId>,
    ) -> u64 {
        if depth == order.len() {
            return 1;
        }
        let ring = index.ring(rings[order[depth]]);
        let mut n = 0;
        for &t in ring.tokens() {
            if used.insert(t) {
                n += recurse(index, rings, order, depth + 1, used);
                used.remove(&t);
            }
        }
        n
    }

    recurse(
        index,
        rings,
        &order,
        0,
        &mut std::collections::HashSet::new(),
    )
}

/// The set of tokens that some combination assigns to `rings[slot]`.
///
/// This is the "ST" set of Algorithm 2 lines 10–16: the non-eliminated
/// constraint requires it to equal the full ring (every token must remain a
/// possible consumed token).
pub fn possible_consumed(combos: &[Combination], slot: usize) -> Vec<TokenId> {
    let mut set: std::collections::BTreeSet<TokenId> = std::collections::BTreeSet::new();
    for c in combos {
        set.insert(c[slot]);
    }
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ring;

    #[test]
    fn two_disjoint_rings() {
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[3, 4])]);
        let combos = enumerate_combinations(&idx, &[RsId(0), RsId(1)]);
        assert_eq!(combos.len(), 4);
    }

    #[test]
    fn identical_rings_constrain_each_other() {
        // r1 = r2 = {1, 2}: exactly 2 combinations (1↔2 swapped).
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2])]);
        let combos = enumerate_combinations(&idx, &[RsId(0), RsId(1)]);
        assert_eq!(combos.len(), 2);
        for c in &combos {
            assert_ne!(c[0], c[1]);
        }
    }

    #[test]
    fn paper_example_1_chain_reaction_world() {
        // r1 = r2 = {t1, t2}, r3 = {t2, t3}: t1,t2 pinned to r1/r2 in some
        // order, so r3 must consume t3 in every combination.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[2, 3])]);
        let all = [RsId(0), RsId(1), RsId(2)];
        let combos = enumerate_combinations(&idx, &all);
        assert_eq!(combos.len(), 2);
        let st = possible_consumed(&combos, 2);
        assert_eq!(st, vec![TokenId(3)], "r3's consumed token is determined");
    }

    #[test]
    fn infeasible_set_yields_no_combination() {
        // three rings over two tokens: pigeonhole.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[1, 2])]);
        let combos = enumerate_combinations(&idx, &[RsId(0), RsId(1), RsId(2)]);
        assert!(combos.is_empty());
        assert_eq!(count_combinations(&idx, &[RsId(0), RsId(1), RsId(2)]), 0);
    }

    #[test]
    fn empty_ring_list() {
        let idx = RingIndex::new();
        let combos = enumerate_combinations(&idx, &[]);
        assert_eq!(combos, vec![Vec::<TokenId>::new()]);
        assert_eq!(count_combinations(&idx, &[]), 1);
    }

    #[test]
    fn count_matches_enumeration() {
        let idx = RingIndex::from_rings([
            ring(&[1, 2, 3]),
            ring(&[2, 3, 4]),
            ring(&[1, 4]),
            ring(&[5, 1]),
        ]);
        let all: Vec<RsId> = idx.ids().collect();
        assert_eq!(
            count_combinations(&idx, &all),
            enumerate_combinations(&idx, &all).len() as u64
        );
    }

    #[test]
    fn limit_short_circuits() {
        let idx = RingIndex::from_rings([ring(&[1, 2, 3, 4, 5]), ring(&[1, 2, 3, 4, 5])]);
        let combos = enumerate_with_limit(&idx, &[RsId(0), RsId(1)], 3);
        assert_eq!(combos.len(), 3);
    }

    #[test]
    fn extra_ring_matches_pushed_index_enumeration() {
        // Enumerating with an out-of-index extra ring must produce the same
        // combinations, in the same order, as cloning the index and pushing
        // the ring (the exact-BFS equivalence relies on this).
        let idx = RingIndex::from_rings([ring(&[1, 2, 3]), ring(&[2, 4]), ring(&[1, 5])]);
        let candidate = ring(&[3, 4, 5, 6]);

        let mut pushed = idx.clone();
        let extra_id = pushed.push(candidate.clone());
        let mut ids: Vec<RsId> = idx.ids().collect();
        ids.push(extra_id);

        let reference = enumerate_combinations(&pushed, &ids);
        let overlay = enumerate_worlds(
            &idx,
            &ids,
            &WorldOptions {
                limit: usize::MAX,
                extra: Some((extra_id, &candidate)),
                deadline: None,
            },
        )
        .unwrap();
        assert_eq!(reference, overlay);
    }

    #[test]
    fn zero_tick_deadline_aborts_before_any_work() {
        // A virtual budget of 0 work units must expire before the first
        // recursion step — the `Deadline::Ticks(0)` contract the degrade
        // ladder and the selection service rely on.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2])]);
        let res = enumerate_worlds(
            &idx,
            &[RsId(0), RsId(1)],
            &WorldOptions {
                limit: usize::MAX,
                extra: None,
                deadline: Some(Deadline::Ticks(0)),
            },
        );
        assert_eq!(res, Err(WorldsExpired));
    }

    #[test]
    fn tick_deadlines_are_deterministic_and_generous_ones_complete() {
        let big: Vec<u32> = (1..=10).collect();
        let idx = RingIndex::from_rings([ring(&big), ring(&big)]);
        let opts = |ticks| WorldOptions {
            limit: usize::MAX,
            extra: None,
            deadline: Some(Deadline::Ticks(ticks)),
        };
        // A starved budget expires identically on every run.
        for _ in 0..3 {
            assert_eq!(
                enumerate_worlds(&idx, &[RsId(0), RsId(1)], &opts(5)),
                Err(WorldsExpired)
            );
        }
        // A generous budget completes and matches the unbudgeted result.
        let unbudgeted = enumerate_combinations(&idx, &[RsId(0), RsId(1)]);
        let budgeted = enumerate_worlds(&idx, &[RsId(0), RsId(1)], &opts(1 << 20)).unwrap();
        assert_eq!(budgeted, unbudgeted);
    }

    #[test]
    fn combination_order_matches_input_order() {
        // Larger ring first in the input: outputs must still be input-ordered.
        let idx = RingIndex::from_rings([ring(&[1, 2, 3]), ring(&[4])]);
        let combos = enumerate_combinations(&idx, &[RsId(0), RsId(1)]);
        for c in &combos {
            assert!(idx.ring(RsId(0)).contains(c[0]));
            assert_eq!(c[1], TokenId(4));
        }
    }
}
