//! The adversary's side information (Definition 3) and its closure.
//!
//! `SI = SI# ∪ SI*`: the directly-known pairs and the pairs inferable from
//! them through chain-reaction analysis. Theorem 6.2 bounds how much side
//! information an adversary needs before a ring's HT is compromised:
//! strictly fewer than `|r| − q_M` known pairs (with `q_M` the count of the
//! ring's most frequent HT) cannot confirm the HT.

use crate::chain_reaction::{analyze, Analysis};
use crate::histogram::HtHistogram;
use crate::related::RingIndex;
use crate::types::{RingSet, TokenRsPair, TokenUniverse};

/// An adversary's side information: the directly revealed pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SideInformation {
    direct: Vec<TokenRsPair>,
}

impl SideInformation {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_pairs<I: IntoIterator<Item = TokenRsPair>>(pairs: I) -> Self {
        SideInformation {
            direct: pairs.into_iter().collect(),
        }
    }

    /// `SI#` — pairs the adversary knows directly (e.g. rings she created).
    pub fn direct(&self) -> &[TokenRsPair] {
        &self.direct
    }

    /// `|SI|` of the direct part (the quantity bounded by Theorem 6.2).
    pub fn cardinality(&self) -> usize {
        self.direct.len()
    }

    pub fn add(&mut self, pair: TokenRsPair) {
        if !self.direct.contains(&pair) {
            self.direct.push(pair);
        }
    }

    /// Compute the closure `SI* = proven \ SI#` via chain-reaction analysis.
    pub fn closure(&self, index: &RingIndex) -> Analysis {
        analyze(index, &self.direct)
    }

    /// The inferred-only pairs (`SI*`).
    pub fn inferred(&self, index: &RingIndex) -> Vec<TokenRsPair> {
        self.closure(index)
            .proven
            .into_iter()
            .filter(|p| !self.direct.contains(p))
            .collect()
    }
}

/// Theorem 6.2's threshold for a ring: an adversary with side information
/// of cardinality `< |r| − q_M` cannot confirm the HT of the consumed token.
pub fn side_info_threshold(ring: &RingSet, universe: &TokenUniverse) -> usize {
    let hist = HtHistogram::from_ring(ring, universe);
    ring.len().saturating_sub(hist.q1())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ring, HtId, RsId, TokenId};

    #[test]
    fn closure_separates_direct_and_inferred() {
        // r0 = {1,2}, r1 = {2,3}; revealing <2, r0> forces r1 → t3.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[2, 3])]);
        let si = SideInformation::from_pairs([TokenRsPair::new(TokenId(2), RsId(0))]);
        let inferred = si.inferred(&idx);
        assert!(inferred.contains(&TokenRsPair::new(TokenId(3), RsId(1))));
        assert!(!inferred.contains(&TokenRsPair::new(TokenId(2), RsId(0))));
    }

    #[test]
    fn add_deduplicates() {
        let mut si = SideInformation::new();
        let p = TokenRsPair::new(TokenId(1), RsId(0));
        si.add(p);
        si.add(p);
        assert_eq!(si.cardinality(), 1);
    }

    #[test]
    fn threshold_matches_theorem() {
        // ring of 5 tokens, most-frequent HT appears twice → threshold 3.
        let uni = TokenUniverse::new(vec![HtId(0), HtId(0), HtId(1), HtId(2), HtId(3)]);
        let r = ring(&[0, 1, 2, 3, 4]);
        assert_eq!(side_info_threshold(&r, &uni), 3);
    }

    #[test]
    fn theorem_6_2_bound_holds_empirically() {
        // Build a diverse isolated ring; reveal fewer than |r| - q_M pairs
        // of *other* rings and verify the exact adversary cannot pin the
        // target's HT down to one value.
        use crate::chain_reaction::analyze_exact;
        // target r0 = {1,2,3,4}: HTs h0,h0,h1,h2 → q_M = 2, threshold = 2.
        // Other rings share tokens 3, 4.
        let idx = RingIndex::from_rings([ring(&[1, 2, 3, 4]), ring(&[3, 5]), ring(&[4, 6])]);
        let uni = TokenUniverse::new(vec![
            HtId(9), // t0 filler
            HtId(0),
            HtId(0),
            HtId(1),
            HtId(2),
            HtId(3),
            HtId(4),
        ]);
        let r0 = idx.ring(RsId(0)).clone();
        assert_eq!(side_info_threshold(&r0, &uni), 2);
        // Reveal 1 pair (< threshold): adversary must not learn r0's HT.
        let a = analyze_exact(&idx, &[TokenRsPair::new(TokenId(3), RsId(1))]);
        let cands = &a.candidates[&RsId(0)];
        let hts: std::collections::BTreeSet<HtId> = cands.iter().map(|t| uni.ht(*t)).collect();
        assert!(hts.len() > 1, "HT leaked with sub-threshold side info");
    }
}
