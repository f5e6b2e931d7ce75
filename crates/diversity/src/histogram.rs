//! HT frequency histograms over token sets.
//!
//! The recursive (c, ℓ)-diversity condition is evaluated over the sorted
//! frequency vector `q_1 >= q_2 >= ... >= q_θ` of the historical
//! transactions (HTs) that produced the tokens of a set. This module builds
//! that vector.

use std::collections::HashMap;

use crate::recursive::DiversityRequirement;
use crate::types::{HtId, RingSet, TokenId, TokenUniverse};

/// A sorted (descending) frequency vector of HT occurrence counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtHistogram {
    /// `q[0] = q_1` — the count of the most frequent HT, and so on.
    q: Vec<usize>,
    /// Number of distinct HTs (`θ`).
    theta: usize,
}

impl HtHistogram {
    /// Histogram over an explicit list of HT values.
    pub fn from_hts<I: IntoIterator<Item = HtId>>(hts: I) -> Self {
        let mut counts: HashMap<HtId, usize> = HashMap::new();
        for h in hts {
            *counts.entry(h).or_insert(0) += 1;
        }
        let mut q: Vec<usize> = counts.into_values().collect();
        q.sort_unstable_by(|a, b| b.cmp(a));
        let theta = q.len();
        HtHistogram { q, theta }
    }

    /// Histogram over the tokens of a ring, resolving HTs via the universe.
    pub fn from_ring(ring: &RingSet, universe: &TokenUniverse) -> Self {
        Self::from_hts(ring.tokens().iter().map(|t| universe.ht(*t)))
    }

    /// Histogram over an arbitrary token slice.
    pub fn from_tokens(tokens: &[TokenId], universe: &TokenUniverse) -> Self {
        Self::from_hts(tokens.iter().map(|t| universe.ht(*t)))
    }

    /// `q_1` — count of the most frequent HT (0 for an empty set).
    pub fn q1(&self) -> usize {
        self.q.first().copied().unwrap_or(0)
    }

    /// `q_i` with the paper's 1-based indexing; 0 beyond `θ`.
    pub fn q(&self, i: usize) -> usize {
        debug_assert!(i >= 1, "q is 1-indexed in the paper");
        self.q.get(i - 1).copied().unwrap_or(0)
    }

    /// Number of distinct HTs (`θ`).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Total number of tokens counted.
    pub fn total(&self) -> usize {
        self.q.iter().sum()
    }

    /// `q_ℓ + q_{ℓ+1} + ... + q_θ` — the diversity tail sum (0 when ℓ > θ).
    pub fn tail_sum(&self, l: usize) -> usize {
        if l == 0 || l > self.theta {
            return if l == 0 { self.total() } else { 0 };
        }
        self.q[l - 1..].iter().sum()
    }

    /// The sorted frequency vector.
    pub fn frequencies(&self) -> &[usize] {
        &self.q
    }
}

/// An HT histogram maintained *incrementally* under single-token insertions
/// and removals.
///
/// [`HtHistogram`] rebuilds a `HashMap` and sorts the frequency vector on
/// every construction — fine for one-off checks, wasteful inside the exact
/// BFS subset enumerator, which visits candidates in lexicographic order and
/// therefore changes the underlying token set by exactly one token per step.
/// `DeltaHistogram` keeps per-HT counts plus a count-of-counts occupancy
/// table, giving O(1) `add`/`remove` and O(q1) `tail_sum`.
///
/// **Invariant** (relied upon by the BFS equivalence tests): for any multiset
/// of HTs, `q1()`, `theta()`, `total()` and `tail_sum(l)` return exactly the
/// values the equivalent [`HtHistogram`] would, so routing both through
/// [`DiversityRequirement::satisfied_by_parts`] yields bit-identical
/// diversity verdicts.
#[derive(Debug, Clone)]
pub struct DeltaHistogram {
    /// `counts[h]` — occurrences of `HtId(h)` in the current multiset.
    counts: Vec<usize>,
    /// `occupancy[c]` — number of distinct HTs occurring exactly `c` times
    /// (index 0 unused).
    occupancy: Vec<usize>,
    /// Largest per-HT count, i.e. `q_1` (0 when empty).
    max_count: usize,
    /// Total tokens counted.
    total: usize,
    /// Number of distinct HTs present (`θ`).
    theta: usize,
}

impl DeltaHistogram {
    /// An empty histogram able to count every HT appearing in `universe`.
    pub fn for_universe(universe: &TokenUniverse) -> Self {
        DeltaHistogram {
            counts: vec![0; universe.labels()],
            occupancy: vec![0; 2],
            max_count: 0,
            total: 0,
            theta: 0,
        }
    }

    /// Add one occurrence of `h`.
    pub fn add_ht(&mut self, h: HtId) {
        let idx = h.0 as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        let old = self.counts[idx];
        let new = old + 1;
        self.counts[idx] = new;
        if old == 0 {
            self.theta += 1;
        } else {
            self.occupancy[old] -= 1;
        }
        if new >= self.occupancy.len() {
            self.occupancy.resize(new + 1, 0);
        }
        self.occupancy[new] += 1;
        if new > self.max_count {
            self.max_count = new;
        }
        self.total += 1;
    }

    /// Remove one occurrence of `h`. Panics (debug) if `h` is not present.
    pub fn remove_ht(&mut self, h: HtId) {
        let idx = h.0 as usize;
        debug_assert!(
            idx < self.counts.len() && self.counts[idx] > 0,
            "removing HT {h:?} that was never added"
        );
        let old = self.counts[idx];
        let new = old - 1;
        self.counts[idx] = new;
        self.occupancy[old] -= 1;
        if new == 0 {
            self.theta -= 1;
        } else {
            self.occupancy[new] += 1;
        }
        if old == self.max_count && self.occupancy[old] == 0 {
            while self.max_count > 0 && self.occupancy[self.max_count] == 0 {
                self.max_count -= 1;
            }
        }
        self.total -= 1;
    }

    /// Add the HT of `token` (resolved through `universe`).
    pub fn add_token(&mut self, universe: &TokenUniverse, token: TokenId) {
        self.add_ht(universe.ht(token));
    }

    /// Remove the HT of `token`.
    pub fn remove_token(&mut self, universe: &TokenUniverse, token: TokenId) {
        self.remove_ht(universe.ht(token));
    }

    /// Occurrences of `h` in the multiset.
    pub fn count(&self, h: HtId) -> usize {
        self.counts.get(h.0 as usize).copied().unwrap_or(0)
    }

    /// `q_1` — count of the most frequent HT (0 for an empty set).
    pub fn q1(&self) -> usize {
        self.max_count
    }

    /// Number of distinct HTs (`θ`).
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// Total number of tokens counted.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `q_ℓ + ... + q_θ`, matching [`HtHistogram::tail_sum`] exactly.
    ///
    /// Computed as `total - (sum of the ℓ-1 largest counts)` by scanning the
    /// occupancy table downward from `q_1`; which HTs are "the largest" is
    /// ambiguous under ties but the *sum* is not, so this agrees with the
    /// sorted-vector formulation for every `l`.
    pub fn tail_sum(&self, l: usize) -> usize {
        if l == 0 {
            return self.total;
        }
        if l > self.theta {
            return 0;
        }
        let mut head = 0usize;
        let mut remaining = l - 1;
        let mut c = self.max_count;
        while remaining > 0 && c > 0 {
            let k = self.occupancy[c].min(remaining);
            head += k * c;
            remaining -= k;
            c -= 1;
        }
        self.total - head
    }

    /// Evaluate a diversity requirement; bit-identical to
    /// `req.satisfied_by(&HtHistogram ...)` over the same multiset.
    pub fn satisfies(&self, req: &DiversityRequirement) -> bool {
        req.satisfied_by_parts(self.q1(), self.tail_sum(req.l))
    }

    /// The slack `δ = q_1 - c * tail`, matching
    /// [`DiversityRequirement::slack`] bit-for-bit.
    pub fn slack(&self, req: &DiversityRequirement) -> f64 {
        req.slack_parts(self.q1(), self.tail_sum(req.l))
    }

    /// Materialize the sorted frequency vector (diagnostics and tests).
    pub fn frequencies_sorted(&self) -> Vec<usize> {
        let mut q: Vec<usize> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        q.sort_unstable_by(|a, b| b.cmp(a));
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ring;

    fn uni() -> TokenUniverse {
        // tokens 0..6 with HTs: h0,h0,h0,h1,h1,h2
        TokenUniverse::new(vec![HtId(0), HtId(0), HtId(0), HtId(1), HtId(1), HtId(2)])
    }

    #[test]
    fn sorted_descending() {
        let h = HtHistogram::from_ring(&ring(&[0, 1, 2, 3, 4, 5]), &uni());
        assert_eq!(h.frequencies(), &[3, 2, 1]);
        assert_eq!(h.theta(), 3);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn q_indexing_is_one_based() {
        let h = HtHistogram::from_ring(&ring(&[0, 1, 3, 5]), &uni());
        assert_eq!(h.q(1), 2);
        assert_eq!(h.q(2), 1);
        assert_eq!(h.q(3), 1);
        assert_eq!(h.q(4), 0);
    }

    #[test]
    fn tail_sum_examples() {
        let h = HtHistogram::from_ring(&ring(&[0, 1, 2, 3, 4, 5]), &uni());
        assert_eq!(h.tail_sum(1), 6);
        assert_eq!(h.tail_sum(2), 3);
        assert_eq!(h.tail_sum(3), 1);
        assert_eq!(h.tail_sum(4), 0);
    }

    #[test]
    fn empty_histogram() {
        let h = HtHistogram::from_ring(&ring(&[]), &uni());
        assert_eq!(h.q1(), 0);
        assert_eq!(h.theta(), 0);
        assert_eq!(h.tail_sum(1), 0);
    }

    /// Tiny xorshift so the randomized agreement test needs no dev-deps.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn delta_histogram_matches_batch_histogram_under_random_edits() {
        use crate::recursive::DiversityRequirement;

        let universe = TokenUniverse::new((0..40).map(|i| HtId(i % 7)).collect());
        let reqs = [
            DiversityRequirement::new(0.5, 1),
            DiversityRequirement::new(1.0, 2),
            DiversityRequirement::new(2.0, 3),
            DiversityRequirement::new(0.3, 8),
        ];
        for seed in 1..=16u64 {
            let mut state = seed;
            let mut delta = DeltaHistogram::for_universe(&universe);
            let mut multiset: Vec<TokenId> = Vec::new();
            for _ in 0..200 {
                let add = multiset.is_empty() || !xorshift(&mut state).is_multiple_of(3);
                if add {
                    let t = TokenId((xorshift(&mut state) % 40) as u32);
                    multiset.push(t);
                    delta.add_token(&universe, t);
                } else {
                    let i = (xorshift(&mut state) as usize) % multiset.len();
                    let t = multiset.swap_remove(i);
                    delta.remove_token(&universe, t);
                }
                let batch = HtHistogram::from_tokens(&multiset, &universe);
                assert_eq!(delta.q1(), batch.q1());
                assert_eq!(delta.theta(), batch.theta());
                assert_eq!(delta.total(), batch.total());
                assert_eq!(delta.frequencies_sorted(), batch.frequencies());
                for l in 0..=batch.theta() + 2 {
                    assert_eq!(delta.tail_sum(l), batch.tail_sum(l), "l={l}");
                }
                for req in &reqs {
                    assert_eq!(delta.satisfies(req), req.satisfied_by(&batch));
                    assert_eq!(delta.slack(req).to_bits(), req.slack(&batch).to_bits());
                }
            }
        }
    }

    #[test]
    fn delta_histogram_empty_after_removals() {
        let universe = TokenUniverse::new(vec![HtId(3), HtId(3), HtId(5)]);
        let mut d = DeltaHistogram::for_universe(&universe);
        for t in [0, 1, 2] {
            d.add_token(&universe, TokenId(t));
        }
        assert_eq!((d.q1(), d.theta(), d.total()), (2, 2, 3));
        for t in [0, 1, 2] {
            d.remove_token(&universe, TokenId(t));
        }
        assert_eq!((d.q1(), d.theta(), d.total()), (0, 0, 0));
        assert_eq!(d.tail_sum(1), 0);
    }

    #[test]
    fn paper_section_2_5_example() {
        // r3 = {t1, t3, t4}; t1, t3 from h1; t4 from h2 → q = [2, 1].
        let u = TokenUniverse::new(vec![
            HtId(9), // t0 unused filler
            HtId(1), // t1
            HtId(9), // t2 filler
            HtId(1), // t3
            HtId(2), // t4
        ]);
        let h = HtHistogram::from_ring(&ring(&[1, 3, 4]), &u);
        assert_eq!(h.frequencies(), &[2, 1]);
    }
}
