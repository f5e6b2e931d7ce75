//! Related RS sets (Definition 1 of the paper).
//!
//! For a ring `r_k` at timestamp `π`, the related set `R_π^{r_k}` is the
//! transitive closure of "shares a token with" over the rings proposed
//! before `π`: layer 0 holds every ring intersecting `r_k`, layer `i` every
//! ring intersecting something in layer `i-1`.

use std::collections::HashMap;

use crate::types::{RingSet, RsId, TokenId};

/// An indexed collection of existing ring signatures.
///
/// Rings are identified by dense `RsId`s in insertion (timestamp) order; a
/// token→rings inverted index accelerates closure computation.
#[derive(Debug, Clone, Default)]
pub struct RingIndex {
    rings: Vec<RingSet>,
    by_token: HashMap<TokenId, Vec<RsId>>,
}

impl RingIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an ordered list of rings (earlier = older).
    pub fn from_rings<I: IntoIterator<Item = RingSet>>(rings: I) -> Self {
        let mut idx = Self::new();
        for r in rings {
            idx.push(r);
        }
        idx
    }

    /// Append a ring (it receives the next `RsId`). Returns its id.
    pub fn push(&mut self, ring: RingSet) -> RsId {
        let id = RsId(self.rings.len() as u32);
        for &t in ring.tokens() {
            self.by_token.entry(t).or_default().push(id);
        }
        self.rings.push(ring);
        id
    }

    /// Number of rings.
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// Look up a ring by id. Panics on out-of-range ids (ids are only minted
    /// by this index).
    pub fn ring(&self, id: RsId) -> &RingSet {
        &self.rings[id.0 as usize]
    }

    /// All ring ids in timestamp order.
    pub fn ids(&self) -> impl Iterator<Item = RsId> + '_ {
        (0..self.rings.len() as u32).map(RsId)
    }

    /// Iterate `(id, ring)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RsId, &RingSet)> + '_ {
        self.rings
            .iter()
            .enumerate()
            .map(|(i, r)| (RsId(i as u32), r))
    }

    /// Rings containing a given token.
    pub fn rings_with_token(&self, t: TokenId) -> &[RsId] {
        self.by_token.get(&t).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The related RS set `R_π^{r}` of a (possibly not yet committed) ring
    /// `r`: BFS over the share-a-token adjacency. The result is sorted by id
    /// and excludes `exclude` (pass the ring's own id when it is already in
    /// the index, or `None` for a candidate ring).
    pub fn related_set(&self, r: &RingSet, exclude: Option<RsId>) -> Vec<RsId> {
        let mut visited = vec![false; self.rings.len()];
        if let Some(RsId(i)) = exclude {
            visited[i as usize] = true;
        }
        let mut frontier: Vec<RsId> = Vec::new();
        for &t in r.tokens() {
            for &id in self.rings_with_token(t) {
                if !visited[id.0 as usize] {
                    visited[id.0 as usize] = true;
                    frontier.push(id);
                }
            }
        }
        let mut out: Vec<RsId> = Vec::new();
        while let Some(id) = frontier.pop() {
            out.push(id);
            for &t in self.ring(id).tokens() {
                for &next in self.rings_with_token(t) {
                    if !visited[next.0 as usize] {
                        visited[next.0 as usize] = true;
                        frontier.push(next);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ring;

    #[test]
    fn paper_example_2_related_set() {
        // r1={t1,t2,t5}, r2={t1,t3}, r3={t1,t3}, r4={t2,t4}, r5={t4,t5,t6}
        let idx = RingIndex::from_rings([
            ring(&[1, 2, 5]),
            ring(&[1, 3]),
            ring(&[1, 3]),
            ring(&[2, 4]),
            ring(&[4, 5, 6]),
        ]);
        // R^{r4} = {r1, r2, r3, r5} (ids 0,1,2,4), excluding r4 itself (id 3).
        let rel = idx.related_set(idx.ring(RsId(3)), Some(RsId(3)));
        assert_eq!(rel, vec![RsId(0), RsId(1), RsId(2), RsId(4)]);
    }

    #[test]
    fn disjoint_rings_have_empty_related_set() {
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[3, 4])]);
        let rel = idx.related_set(&ring(&[5, 6]), None);
        assert!(rel.is_empty());
    }

    #[test]
    fn candidate_ring_pulls_in_transitive_layers() {
        // chain: candidate {1} — r0 {1,2} — r1 {2,3} — r2 {3,4}; r3 {9} isolated
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[2, 3]), ring(&[3, 4]), ring(&[9])]);
        let rel = idx.related_set(&ring(&[1]), None);
        assert_eq!(rel, vec![RsId(0), RsId(1), RsId(2)]);
    }

    #[test]
    fn inverted_index_is_consistent() {
        let mut idx = RingIndex::new();
        let a = idx.push(ring(&[1, 2]));
        let b = idx.push(ring(&[2, 3]));
        assert_eq!(idx.rings_with_token(TokenId(2)), &[a, b]);
        assert_eq!(idx.rings_with_token(TokenId(1)), &[a]);
        assert!(idx.rings_with_token(TokenId(99)).is_empty());
    }

    #[test]
    fn exclude_self_when_committed() {
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[2, 3])]);
        let rel = idx.related_set(idx.ring(RsId(0)), Some(RsId(0)));
        assert_eq!(rel, vec![RsId(1)]);
    }
}
