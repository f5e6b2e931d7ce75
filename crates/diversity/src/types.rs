//! Shared algorithmic types: tokens, historical transactions, ring
//! signatures as token sets.
//!
//! §2.1 of the paper closes with: "In the rest of this paper, we simply
//! consider a RS as a set of tokens consisting of a consuming token and its
//! mixins." This module is that abstraction layer — the cryptographic
//! realisation lives in `dams-crypto`/`dams-blockchain`.

/// A token identifier (an unspent transaction output at this layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

/// A historical transaction (HT) identifier — the transaction that produced
/// a token. The HT is the *sensitive value* of the diversity model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HtId(pub u32);

/// A ring-signature identifier within an analysis instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RsId(pub u32);

/// A token–RS pair `<t, r>`: "token `t` is consumed in RS `r`" (Def. 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenRsPair {
    pub token: TokenId,
    pub rs: RsId,
}

impl TokenRsPair {
    pub fn new(token: TokenId, rs: RsId) -> Self {
        TokenRsPair { token, rs }
    }
}

/// The token→HT assignment for a universe of tokens.
///
/// Tokens are dense `u32` indices into `ht_of`; this keeps hot loops
/// allocation-free and branch-light.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenUniverse {
    ht_of: Vec<HtId>,
}

impl TokenUniverse {
    /// Build a universe from a dense token→HT table.
    pub fn new(ht_of: Vec<HtId>) -> Self {
        TokenUniverse { ht_of }
    }

    /// Append one token output by `ht`; returns its id (the next dense
    /// index).
    pub fn push(&mut self, ht: HtId) -> TokenId {
        self.ht_of.push(ht);
        TokenId(self.ht_of.len() as u32 - 1)
    }

    /// Number of tokens in the universe (`|T|`).
    pub fn len(&self) -> usize {
        self.ht_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ht_of.is_empty()
    }

    /// The HT that output `token`.
    ///
    /// Panics if the token is outside the universe — instances are
    /// constructed so that every referenced token is in range.
    pub fn ht(&self, token: TokenId) -> HtId {
        self.ht_of[token.0 as usize]
    }

    /// Iterate all tokens in the universe.
    pub fn tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        (0..self.ht_of.len() as u32).map(TokenId)
    }

    /// The number of distinct HTs in the universe.
    pub fn distinct_hts(&self) -> usize {
        self.ht_counts().iter().filter(|&&c| c > 0).count()
    }

    /// One more than the largest `HtId` present (0 when empty): the
    /// length of a table indexed by HT label.
    pub fn labels(&self) -> usize {
        self.ht_of
            .iter()
            .map(|h| h.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Tokens per HT, indexed by `HtId` up to the largest one present.
    pub fn ht_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.labels()];
        for h in &self.ht_of {
            counts[h.0 as usize] += 1;
        }
        counts
    }
}

/// A ring signature at the token-set level: an ordered set of tokens.
///
/// Invariant: `tokens` is sorted and duplicate-free (a flat set, for
/// cache-friendly scans).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RingSet {
    tokens: Vec<TokenId>,
}

impl RingSet {
    /// Build a ring from any iterator of tokens; sorts and dedups.
    pub fn new<I: IntoIterator<Item = TokenId>>(tokens: I) -> Self {
        let mut tokens: Vec<TokenId> = tokens.into_iter().collect();
        tokens.sort_unstable();
        tokens.dedup();
        RingSet { tokens }
    }

    /// The ring size `|r|` (consuming token + mixins).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Sorted token slice.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Membership test (binary search over the sorted slice).
    pub fn contains(&self, t: TokenId) -> bool {
        self.tokens.binary_search(&t).is_ok()
    }

    /// Whether the rings share at least one token.
    pub fn intersects(&self, other: &RingSet) -> bool {
        // Merge-scan over two sorted slices.
        let (mut i, mut j) = (0, 0);
        while i < self.tokens.len() && j < other.tokens.len() {
            match self.tokens[i].cmp(&other.tokens[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Whether `self` is a superset of `other`.
    pub fn is_superset(&self, other: &RingSet) -> bool {
        if other.tokens.len() > self.tokens.len() {
            return false;
        }
        other.tokens.iter().all(|t| self.contains(*t))
    }

    /// Tokens of `self` not in `other` (`self \ other`), preserving order.
    pub fn difference(&self, other: &RingSet) -> RingSet {
        RingSet {
            tokens: self
                .tokens
                .iter()
                .copied()
                .filter(|t| !other.contains(*t))
                .collect(),
        }
    }

    /// Union of the two rings.
    pub fn union(&self, other: &RingSet) -> RingSet {
        let mut v = Vec::with_capacity(self.tokens.len() + other.tokens.len());
        let (mut i, mut j) = (0, 0);
        while i < self.tokens.len() && j < other.tokens.len() {
            match self.tokens[i].cmp(&other.tokens[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.tokens[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.tokens[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.tokens[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.tokens[i..]);
        v.extend_from_slice(&other.tokens[j..]);
        RingSet { tokens: v }
    }

    /// Insert a token; returns whether it was new.
    pub fn insert(&mut self, t: TokenId) -> bool {
        match self.tokens.binary_search(&t) {
            Ok(_) => false,
            Err(pos) => {
                self.tokens.insert(pos, t);
                true
            }
        }
    }
}

impl FromIterator<TokenId> for RingSet {
    fn from_iter<I: IntoIterator<Item = TokenId>>(iter: I) -> Self {
        RingSet::new(iter)
    }
}

/// Convenience constructor used pervasively in tests: `ring(&[1, 2, 3])`.
pub fn ring(ids: &[u32]) -> RingSet {
    RingSet::new(ids.iter().copied().map(TokenId))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sorts_and_dedups() {
        let r = ring(&[3, 1, 2, 3, 1]);
        assert_eq!(r.tokens(), &[TokenId(1), TokenId(2), TokenId(3)]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn membership_and_intersection() {
        let a = ring(&[1, 3, 5]);
        let b = ring(&[2, 4, 5]);
        let c = ring(&[6, 7]);
        assert!(a.contains(TokenId(3)));
        assert!(!a.contains(TokenId(2)));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn superset_and_difference() {
        let big = ring(&[1, 2, 3, 4]);
        let small = ring(&[2, 4]);
        assert!(big.is_superset(&small));
        assert!(!small.is_superset(&big));
        assert!(big.is_superset(&big));
        assert_eq!(big.difference(&small), ring(&[1, 3]));
        assert_eq!(small.difference(&big), ring(&[]));
    }

    #[test]
    fn union_merges_sorted() {
        assert_eq!(ring(&[1, 3]).union(&ring(&[2, 3, 4])), ring(&[1, 2, 3, 4]));
        assert_eq!(ring(&[]).union(&ring(&[7])), ring(&[7]));
    }

    #[test]
    fn insert_keeps_invariant() {
        let mut r = ring(&[1, 5]);
        assert!(r.insert(TokenId(3)));
        assert!(!r.insert(TokenId(3)));
        assert_eq!(r.tokens(), &[TokenId(1), TokenId(3), TokenId(5)]);
    }

    #[test]
    fn universe_lookup_and_distinct() {
        let u = TokenUniverse::new(vec![HtId(0), HtId(1), HtId(0), HtId(2)]);
        assert_eq!(u.len(), 4);
        assert_eq!(u.ht(TokenId(2)), HtId(0));
        assert_eq!(u.distinct_hts(), 3);
        assert_eq!(u.tokens().count(), 4);
        let sparse = TokenUniverse::new(vec![HtId(5), HtId(1), HtId(5)]);
        assert_eq!(sparse.labels(), 6);
        assert_eq!(sparse.ht_counts(), vec![0, 1, 0, 0, 0, 2]);
        assert_eq!(sparse.distinct_hts(), 2);
        assert_eq!(TokenUniverse::new(Vec::new()).labels(), 0);
    }
}
