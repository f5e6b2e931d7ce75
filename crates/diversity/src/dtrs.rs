//! Exact DTRS (definite token–RS pair set) computation — Definition 2 and
//! Algorithm 3 (`GetDTRSs`) of the paper.
//!
//! A DTRS of a ring `r_k` is a *minimal* set of token–RS pairs which, if
//! revealed to the adversary, pins down the historical transaction of the
//! token consumed in `r_k`. Operationally: conditioning the possible worlds
//! (token–RS combinations) on the pairs leaves only worlds where `r_k`'s
//! consumed token comes from one single HT.
//!
//! The computation enumerates sub-multisets of combinations and is
//! exponential — exactly as the hardness result demands. It is used by the
//! exact BFS algorithm and by tests that validate the polynomial path of
//! Theorem 6.1.
//!
//! # Two implementations, one answer
//!
//! * [`enumerate_dtrs`] — the bitset kernel the exact BFS runs. Once per
//!   call it indexes its input. The distinct non-target token–RS pairs
//!   occurring in the combinations are numbered in [`TokenRsPair`] order,
//!   so a pair set is a bitset over those numbers. Each pair gets the
//!   bitset of the combinations consistent with it, its ring resolved to
//!   the first slot holding that ring, as the reference resolves it. Each
//!   HT the target slot takes gets the bitset of the combinations in which
//!   it does. A pair set then determines the target's HT exactly when the
//!   AND of its pairs' bitsets is non-empty and lies inside one HT's
//!   bitset.
//! * [`enumerate_dtrs_reference`] — the seed implementation, kept verbatim
//!   as the equivalence oracle and as the GetDTRSs of
//!   `dams_core::bfs_reference`. It rescans every combination per
//!   candidate set and dedups through a `HashSet` of pair vectors and one
//!   `BTreeSet` per subset.
//!
//! Only the representation differs, so the kernel's output is
//! byte-identical to the reference's:
//!
//! * **Enumeration order.** Both run sizes 1..n−1 and, within a size, visit
//!   the combinations in input order and every size-k subset of each
//!   combination's sorted pool of pairs in lexicographic order. Pair
//!   numbers follow `TokenRsPair` order, so a sorted pool of numbers is the
//!   sorted pool of pairs. The kernel drops a repeated pair from a pool
//!   (only a hand-built combination that gives two slots of one ring the
//!   same token has one): every set such a pool yields at a larger size,
//!   it also yields at its own size, where both implementations decide it
//!   the same way.
//! * **Minimality.** A candidate is skipped when it was seen before or when
//!   a DTRS of a smaller size is a subset of it — the same two tests on
//!   the same sets, here `f & !s == 0` word by word. Whether a set
//!   determines the HT depends on the set alone, so each distinct set gets
//!   the same verdict in both.
//! * **Output order.** Both sort the DTRSs by their sorted pair lists; a
//!   bitset read from its lowest bit up gives that list.

use std::collections::{BTreeSet, HashSet};

use crate::combination::Combination;

use crate::types::{HtId, RsId, TokenRsPair, TokenUniverse};

/// One definite token–RS pair set together with the HT it determines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtrs {
    /// The revealed pairs (sorted, for canonical comparison).
    pub pairs: Vec<TokenRsPair>,
    /// The HT of `r_k`'s consumed token once the pairs are known.
    pub determined_ht: HtId,
}

impl Dtrs {
    fn new(mut pairs: Vec<TokenRsPair>, determined_ht: HtId) -> Self {
        pairs.sort_unstable();
        Dtrs {
            pairs,
            determined_ht,
        }
    }

    /// The tokens of the pair set (the "token set of a DTRS", Theorem 6.1).
    pub fn tokens(&self) -> Vec<crate::types::TokenId> {
        self.pairs.iter().map(|p| p.token).collect()
    }
}

/// The per-call index of [`enumerate_dtrs`] (see the module docs).
struct PairIndex {
    /// The distinct non-target pairs of the combinations, sorted. A pair
    /// set is a bitset over positions in this list.
    pairs: Vec<TokenRsPair>,
    /// Per combination, the sorted positions of its non-target pairs:
    /// Algorithm 3's pool.
    pools: Vec<Vec<u32>>,
    /// Words per combination bitset.
    combo_words: usize,
    /// `combo_words` words per pair: the combinations consistent with it.
    consistent: Vec<u64>,
    /// The HTs the target slot takes, in order of first appearance.
    hts: Vec<HtId>,
    /// `combo_words` words per entry of `hts`: the combinations whose
    /// target token comes from that HT.
    ht_combos: Vec<u64>,
    /// Per combination, the position of its target HT in `hts`.
    combo_ht: Vec<usize>,
}

impl PairIndex {
    fn new(
        combos: &[Combination],
        rings: &[RsId],
        target_slot: usize,
        universe: &TokenUniverse,
    ) -> Self {
        let slots: Vec<usize> = (0..rings.len()).filter(|&i| i != target_slot).collect();
        let mut pairs: Vec<TokenRsPair> = combos
            .iter()
            .flat_map(|c| slots.iter().map(|&i| TokenRsPair::new(c[i], rings[i])))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let position = |pair: TokenRsPair| pairs.binary_search(&pair).ok();
        let pools = combos
            .iter()
            .map(|c| {
                let mut pool: Vec<u32> = slots
                    .iter()
                    .map(|&i| {
                        let pair = TokenRsPair::new(c[i], rings[i]);
                        position(pair).expect("every pool pair is indexed") as u32
                    })
                    .collect();
                pool.sort_unstable();
                pool.dedup();
                pool
            })
            .collect();

        // A combination is consistent with exactly one pair per ring: the
        // token it assigns at the first slot holding that ring.
        let mut first_slots: Vec<(RsId, usize)> = Vec::new();
        for &i in &slots {
            if !first_slots.iter().any(|&(rs, _)| rs == rings[i]) {
                let first = rings.iter().position(|&r| r == rings[i]);
                first_slots.push((rings[i], first.expect("rings[i] is in rings")));
            }
        }
        let combo_words = combos.len().div_ceil(64);
        let mut consistent = vec![0u64; pairs.len() * combo_words];
        let mut hts: Vec<HtId> = Vec::new();
        let mut ht_combos: Vec<u64> = Vec::new();
        let mut combo_ht = Vec::with_capacity(combos.len());
        for (k, c) in combos.iter().enumerate() {
            let (word, bit) = (k / 64, 1u64 << (k % 64));
            for &(rs, slot) in &first_slots {
                if let Some(p) = position(TokenRsPair::new(c[slot], rs)) {
                    consistent[p * combo_words + word] |= bit;
                }
            }
            let ht = universe.ht(c[target_slot]);
            let h = match hts.iter().position(|&x| x == ht) {
                Some(h) => h,
                None => {
                    hts.push(ht);
                    ht_combos.resize(hts.len() * combo_words, 0);
                    hts.len() - 1
                }
            };
            ht_combos[h * combo_words + word] |= bit;
            combo_ht.push(h);
        }
        PairIndex {
            pairs,
            pools,
            combo_words,
            consistent,
            hts,
            ht_combos,
            combo_ht,
        }
    }

    /// The HT that the non-empty pair set `set` determines, if any.
    /// `and` is scratch space of `combo_words` words.
    fn determined_ht(&self, set: &[u64], and: &mut [u64]) -> Option<HtId> {
        let w = self.combo_words;
        and.fill(!0);
        for p in ones(set) {
            for (a, c) in and.iter_mut().zip(&self.consistent[p * w..(p + 1) * w]) {
                *a &= c;
            }
        }
        let first = and.iter().position(|&x| x != 0)?;
        let h = self.combo_ht[first * 64 + and[first].trailing_zeros() as usize];
        let ht_combos = &self.ht_combos[h * w..(h + 1) * w];
        and.iter()
            .zip(ht_combos)
            .all(|(a, b)| a & !b == 0)
            .then_some(self.hts[h])
    }
}

/// Positions of the set bits of `words`, lowest first.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Enumerate all DTRSs of `rings[target_slot]` given the full combination
/// list `combos` over `rings` (as produced by
/// [`crate::combination::enumerate_combinations`]).
///
/// Returns the minimal determining pair sets. When the HT is already
/// determined with *no* side information (all combinations agree), the
/// result is a single empty DTRS — the ring has no anonymity at the HT
/// level and any diversity requirement with ℓ ≥ 1 should treat it as failed.
///
/// This is Algorithm 3 on bitsets; its output equals
/// [`enumerate_dtrs_reference`]'s byte for byte (see the module docs).
pub fn enumerate_dtrs(
    combos: &[Combination],
    rings: &[RsId],
    target_slot: usize,
    universe: &TokenUniverse,
) -> Vec<Dtrs> {
    assert!(target_slot < rings.len());
    if combos.is_empty() {
        return Vec::new();
    }
    let index = PairIndex::new(combos, rings, target_slot, universe);

    // Size 0: already determined?
    if let [ht] = index.hts[..] {
        return vec![Dtrs::new(Vec::new(), ht)];
    }

    // Pair sets are `words` words each (at least one, so the flat lists
    // below chunk cleanly even when there are no pairs).
    let words = index.pairs.len().div_ceil(64).max(1);
    let mut found: Vec<u64> = Vec::new();
    let mut found_hts: Vec<HtId> = Vec::new();
    let mut seen: HashSet<Box<[u64]>> = HashSet::new();
    let mut set = vec![0u64; words];
    let mut and = vec![0u64; index.combo_words];
    for size in 1..rings.len() {
        let mut this_size: Vec<u64> = Vec::new();
        for pool in &index.pools {
            subsets(pool, size, &mut |subset| {
                set.fill(0);
                for &p in subset {
                    set[p as usize / 64] |= 1 << (p % 64);
                }
                if seen.contains(&set[..]) {
                    return;
                }
                seen.insert(set.clone().into_boxed_slice());
                // Minimality: skip supersets of already-found DTRSs.
                let within = |f: &[u64]| f.iter().zip(&set).all(|(f, s)| f & !s == 0);
                if found.chunks_exact(words).any(within) {
                    return;
                }
                this_size.extend_from_slice(&set);
            });
        }
        for set in this_size.chunks_exact(words) {
            if let Some(ht) = index.determined_ht(set, &mut and) {
                found.extend_from_slice(set);
                found_hts.push(ht);
            }
        }
    }
    let mut out: Vec<Dtrs> = found
        .chunks_exact(words)
        .zip(found_hts)
        .map(|(set, ht)| Dtrs {
            pairs: ones(set).map(|p| index.pairs[p]).collect(),
            determined_ht: ht,
        })
        .collect();
    out.sort_by(|a, b| a.pairs.cmp(&b.pairs));
    out
}

/// Whether every combination consistent with `pairs` assigns the target ring
/// a token of the same HT; returns that HT if so.
fn determined_ht(
    combos: &[Combination],
    rings: &[RsId],
    target_slot: usize,
    pairs: &BTreeSet<TokenRsPair>,
    universe: &TokenUniverse,
) -> Option<HtId> {
    let mut ht: Option<HtId> = None;
    let mut any = false;
    'combo: for c in combos {
        // Does this combination contain all the revealed pairs? A pair
        // referencing a ring outside the analysis set cannot constrain
        // these combinations and is skipped as noise (the same treatment
        // `analyze` gives invalid pins).
        for p in pairs {
            let Some(slot) = rings.iter().position(|&r| r == p.rs) else {
                continue;
            };
            if c[slot] != p.token {
                continue 'combo;
            }
        }
        any = true;
        let h = universe.ht(c[target_slot]);
        match ht {
            None => ht = Some(h),
            Some(prev) if prev != h => return None,
            _ => {}
        }
    }
    if any {
        ht
    } else {
        None
    }
}

/// The seed implementation of [`enumerate_dtrs`], kept verbatim: the
/// oracle its output is checked against and the GetDTRSs of the seed exact
/// BFS. Per candidate pair set it rescans every combination.
pub fn enumerate_dtrs_reference(
    combos: &[Combination],
    rings: &[RsId],
    target_slot: usize,
    universe: &TokenUniverse,
) -> Vec<Dtrs> {
    assert!(target_slot < rings.len());
    if combos.is_empty() {
        return Vec::new();
    }

    // Size 0: already determined?
    let empty = BTreeSet::new();
    if let Some(ht) = determined_ht(combos, rings, target_slot, &empty, universe) {
        return vec![Dtrs::new(Vec::new(), ht)];
    }

    let n = rings.len();
    let mut found: Vec<Dtrs> = Vec::new();
    let mut found_sets: Vec<BTreeSet<TokenRsPair>> = Vec::new();

    // Candidate pair sets must be simultaneously satisfiable, i.e. subsets
    // of some combination (restricted to non-target slots) — Algorithm 3
    // enumerates them per combination; we dedupe across combinations with a
    // hashed canonical-key set. Sorting each *pool* once makes every emitted
    // subset canonical already, so keys are built sorted and inserted by
    // move — no per-subset sort, no clone.
    let mut seen: HashSet<Vec<TokenRsPair>> = HashSet::new();
    for size in 1..n {
        let mut this_size: Vec<BTreeSet<TokenRsPair>> = Vec::new();
        for c in combos {
            let mut pool: Vec<TokenRsPair> = (0..n)
                .filter(|&i| i != target_slot)
                .map(|i| TokenRsPair::new(c[i], rings[i]))
                .collect();
            pool.sort_unstable();
            // all `size`-subsets of pool (already in canonical order)
            subsets(&pool, size, &mut |subset| {
                if seen.contains(subset) {
                    return;
                }
                let set: BTreeSet<TokenRsPair> = subset.iter().copied().collect();
                seen.insert(subset.to_vec());
                // Minimality: skip supersets of already-found DTRSs.
                if found_sets.iter().any(|f| f.is_subset(&set)) {
                    return;
                }
                this_size.push(set);
            });
        }
        for set in this_size {
            if let Some(ht) = determined_ht(combos, rings, target_slot, &set, universe) {
                found.push(Dtrs::new(set.iter().copied().collect(), ht));
                found_sets.push(set);
            }
        }
    }
    found.sort_by(|a, b| a.pairs.cmp(&b.pairs));
    found
}

/// Visit all `k`-subsets of `pool`.
fn subsets<T: Copy, F: FnMut(&[T])>(pool: &[T], k: usize, f: &mut F) {
    fn rec<T: Copy, F: FnMut(&[T])>(
        pool: &[T],
        k: usize,
        start: usize,
        acc: &mut Vec<T>,
        f: &mut F,
    ) {
        if acc.len() == k {
            f(acc);
            return;
        }
        let need = k - acc.len();
        for i in start..=pool.len().saturating_sub(need) {
            acc.push(pool[i]);
            rec(pool, k, i + 1, acc, f);
            acc.pop();
        }
    }
    if k <= pool.len() {
        rec(pool, k, 0, &mut Vec::with_capacity(k), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::enumerate_combinations;
    use crate::related::RingIndex;
    use crate::types::{ring, TokenId};

    /// Example 2 of the paper: five rings; t5, t6 share HT h1; all other
    /// tokens have distinct HTs.
    fn example2() -> (RingIndex, TokenUniverse) {
        // token ids 1..=6 (0 is unused filler)
        let idx = RingIndex::from_rings([
            ring(&[1, 2, 5]), // r1 = id 0
            ring(&[1, 3]),    // r2 = id 1
            ring(&[1, 3]),    // r3 = id 2
            ring(&[2, 4]),    // r4 = id 3
            ring(&[4, 5, 6]), // r5 = id 4
        ]);
        // HTs: t1..t4 distinct (h2..h5), t5 and t6 both h1.
        let uni = TokenUniverse::new(vec![
            HtId(99), // t0 filler
            HtId(2),
            HtId(3),
            HtId(4),
            HtId(5),
            HtId(1),
            HtId(1),
        ]);
        (idx, uni)
    }

    #[test]
    fn example2_t2_r1_is_dtrs_of_r5() {
        // §2.3: {<t2, r1>} is a DTRS of r5 — it forces r4 to consume t4 and
        // hence r5 to consume t5 or t6, both from h1.
        let (idx, uni) = example2();
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let dtrs = enumerate_dtrs(&combos, &rings, 4, &uni);
        let target = Dtrs::new(vec![TokenRsPair::new(TokenId(2), RsId(0))], HtId(1));
        assert!(
            dtrs.contains(&target),
            "expected {{<t2,r1>}} among {dtrs:?}"
        );
    }

    #[test]
    fn example2_r4_has_three_singleton_dtrs() {
        // §2.4: DTRSs of r4 are {<t4,r5>}, {<t5,r5>}, {<t2,r1>}.
        let (idx, uni) = example2();
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let dtrs = enumerate_dtrs(&combos, &rings, 3, &uni);
        let singletons: Vec<&Dtrs> = dtrs.iter().filter(|d| d.pairs.len() == 1).collect();
        let expect = [
            (TokenId(4), RsId(4)),
            (TokenId(5), RsId(4)),
            (TokenId(2), RsId(0)),
        ];
        for (t, r) in expect {
            assert!(
                singletons
                    .iter()
                    .any(|d| d.pairs[0] == TokenRsPair::new(t, r)),
                "missing singleton DTRS <{t:?},{r:?}> in {singletons:?}"
            );
        }
    }

    #[test]
    fn determined_without_side_info_gives_empty_dtrs() {
        // r1 = r2 = {1,2}, target r3 = {2,3}: every world has r3 → t3.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[2, 3])]);
        let uni = TokenUniverse::new(vec![HtId(0), HtId(1), HtId(2), HtId(3)]);
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let dtrs = enumerate_dtrs(&combos, &rings, 2, &uni);
        assert_eq!(dtrs.len(), 1);
        assert!(dtrs[0].pairs.is_empty());
        assert_eq!(dtrs[0].determined_ht, HtId(3));
    }

    #[test]
    fn homogeneous_ring_is_determined_by_ht_not_token() {
        // target {1, 2} with both tokens from the same HT: empty DTRS —
        // the homogeneity attack needs no side information at all.
        let idx = RingIndex::from_rings([ring(&[1, 2])]);
        let uni = TokenUniverse::new(vec![HtId(9), HtId(5), HtId(5)]);
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let dtrs = enumerate_dtrs(&combos, &rings, 0, &uni);
        assert_eq!(dtrs.len(), 1);
        assert!(dtrs[0].pairs.is_empty());
        assert_eq!(dtrs[0].determined_ht, HtId(5));
    }

    #[test]
    fn minimality_no_dtrs_contains_another() {
        let (idx, uni) = example2();
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        for slot in 0..rings.len() {
            let dtrs = enumerate_dtrs(&combos, &rings, slot, &uni);
            for a in &dtrs {
                for b in &dtrs {
                    if a != b {
                        let sa: BTreeSet<_> = a.pairs.iter().collect();
                        let sb: BTreeSet<_> = b.pairs.iter().collect();
                        assert!(!sa.is_subset(&sb), "{a:?} ⊆ {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_diverse_ring_has_no_dtrs_from_unrelated_pairs() {
        // Two disjoint rings with diverse HTs: pairs of the other ring never
        // determine the target's HT.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[3, 4])]);
        let uni = TokenUniverse::new(vec![HtId(9), HtId(0), HtId(1), HtId(2), HtId(3)]);
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let dtrs = enumerate_dtrs(&combos, &rings, 0, &uni);
        assert!(dtrs.is_empty(), "got {dtrs:?}");
    }

    #[test]
    fn revealing_other_token_of_target_ring_not_allowed() {
        // Pairs about the *target itself* are excluded from DTRSs (a DTRS
        // reveals other rings' spends, not the target's own spend).
        let (idx, uni) = example2();
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        for slot in 0..rings.len() {
            for d in enumerate_dtrs(&combos, &rings, slot, &uni) {
                for p in &d.pairs {
                    assert_ne!(p.rs, rings[slot]);
                }
            }
        }
    }
}
