//! The chain-reaction analysis engine — the adversary of §2.4.
//!
//! Given the public ring signatures and optional side information (revealed
//! token–RS pairs), the analyzer infers which tokens must have been
//! consumed and, where possible, *which* ring consumed them.
//!
//! * [`analyze`] — the production adversary. Possible worlds are the
//!   ring-saturating matchings of the ring/token incidence graph
//!   (Definition 6 / Theorem 3.1), and per-ring candidate sets are the
//!   *allowed edges* of that graph: token `t` remains a candidate for ring
//!   `r` iff some ring-saturating matching assigns `r → t`. Allowed edges
//!   are computable in polynomial time from one maximum matching via the
//!   classic alternating-cycle/free-path characterisation (Dulmage–
//!   Mendelsohn), so this adversary is **exact at the per-edge level**
//!   while avoiding the #P world enumeration. (Counting or correlating
//!   worlds — e.g. joint DTRS structure — is what stays exponential.)
//! * [`eliminates_any`] — `analyze`'s yes or no, with no side
//!   information: does any ring lose a candidate? `validate_ring`
//!   (dams-core) asks it of a candidate and its related rings, read in
//!   place.
//! * [`analyze_exact`] — the brute-force enumeration adversary, used by
//!   tests to validate `analyze` on small instances.
//!
//! Both polynomial entry points share one core on flat vectors: tokens
//! numbered densely by sorting, each ring's edges in one adjacency array,
//! Kuhn's matching with one visited-stamp array, and the alternating graph
//! in compressed rows for the free-token reachability and Tarjan's SCCs.

use std::collections::{BTreeMap, BTreeSet};

use crate::combination::{enumerate_combinations, possible_consumed};
use crate::related::RingIndex;
use crate::types::{RingSet, RsId, TokenId, TokenRsPair};

/// Result of a chain-reaction analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Per ring: the tokens that may still be its consumed token.
    pub candidates: BTreeMap<RsId, BTreeSet<TokenId>>,
    /// Token–RS pairs the adversary has proven (side information plus the
    /// inferred closure `SI*`).
    pub proven: BTreeSet<TokenRsPair>,
    /// Tokens proven consumed *somewhere* even when the consuming ring is
    /// unknown (Theorem 4.1 and its generalisation: the token is covered
    /// by every ring-saturating matching).
    pub consumed_somewhere: BTreeSet<TokenId>,
    /// Rings rendered impossible by the observations (no candidate left) —
    /// indicates contradictory input.
    pub contradictions: Vec<RsId>,
}

impl Analysis {
    /// Whether the adversary pinned the consumed token of `rs`.
    pub fn resolved(&self, rs: RsId) -> Option<TokenId> {
        let c = self.candidates.get(&rs)?;
        if c.len() == 1 {
            c.iter().next().copied()
        } else {
            None
        }
    }

    /// Number of rings fully resolved.
    pub fn resolved_count(&self) -> usize {
        self.candidates.values().filter(|c| c.len() == 1).count()
    }
}

/// The polynomial chain-reaction adversary (see module docs).
pub fn analyze(index: &RingIndex, side_info: &[TokenRsPair]) -> Analysis {
    let n_rings = index.len();
    let mut out = Analysis::default();
    if n_rings == 0 {
        return out;
    }

    // Apply side information: pinned rings take exactly their token; the
    // token disappears from every other ring. Invalid pins (token not in
    // ring) are ignored as noise.
    let mut pinned: Vec<Option<TokenId>> = vec![None; n_rings];
    for p in side_info {
        let slot = p.rs.0 as usize;
        if slot < n_rings && index.ring(p.rs).contains(p.token) {
            pinned[slot] = Some(p.token);
            out.proven.insert(*p);
        }
    }
    let rings: Vec<&RingSet> = index.iter().map(|(_, ring)| ring).collect();
    let g = Matching::solve(&rings, &pinned);

    if !g.saturated() {
        // The observations are jointly impossible; report the unmatched
        // rings as contradictions and the rest conservatively (full rings).
        for (rs, ring) in index.iter() {
            let slot = rs.0 as usize;
            if g.match_of_ring[slot] == NONE {
                out.contradictions.push(rs);
                out.candidates.insert(rs, BTreeSet::new());
            } else if let Some(t) = pinned[slot] {
                out.candidates.insert(rs, BTreeSet::from([t]));
            } else {
                out.candidates
                    .insert(rs, ring.tokens().iter().copied().collect());
            }
        }
        return out;
    }

    let a = g.allowed_edges();
    for (rs, _) in index.iter() {
        let slot = rs.0 as usize;
        let cands: BTreeSet<TokenId> =
            a.g.edges(slot)
                .filter(|&t| a.allowed(slot, t))
                .map(|t| a.g.tokens[t])
                .collect();
        if cands.len() == 1 {
            if let Some(&t) = cands.iter().next() {
                out.proven.insert(TokenRsPair::new(t, rs));
            }
        }
        out.candidates.insert(rs, cands);
    }

    // Consumed-somewhere: token covered by every ring-saturating matching
    // ⟺ matched and not reachable from a free token.
    for (t, &token) in a.g.tokens.iter().enumerate() {
        if a.g.match_of_token[t] != NONE && !a.free_reach[n_rings + t] {
            out.consumed_somewhere.insert(token);
        }
    }
    out.consumed_somewhere
        .extend(pinned.iter().flatten().copied());
    out
}

/// Whether the adversary, with no side information, eliminates a token of
/// any of `rings`: whether [`analyze`] over a [`RingIndex`] holding them
/// in this order leaves some ring fewer candidates than members. It runs
/// `analyze`'s matching and allowed-edge test without building its maps,
/// for a validator that only needs the yes or no.
pub fn eliminates_any(rings: &[&RingSet]) -> bool {
    let g = Matching::solve(rings, &[]);
    if !g.saturated() {
        // An unmatched ring keeps no candidate; only an empty one keeps
        // all of its (zero) members.
        return rings
            .iter()
            .enumerate()
            .any(|(r, ring)| g.match_of_ring[r] == NONE && !ring.is_empty());
    }
    let a = g.allowed_edges();
    (0..rings.len()).any(|r| a.g.edges(r).any(|t| !a.allowed(r, t)))
}

/// No match, in [`Matching`]'s flat tables.
const NONE: usize = usize::MAX;

/// The ring/token incidence graph with one maximum matching, kept in flat
/// vectors: tokens are numbered densely in ascending order, and ring `r`'s
/// edges are `adj[start[r]..start[r + 1]]` in ring order.
struct Matching {
    /// Dense token number → token.
    tokens: Vec<TokenId>,
    start: Vec<usize>,
    adj: Vec<usize>,
    match_of_ring: Vec<usize>,
    match_of_token: Vec<usize>,
}

/// A ring-saturating [`Matching`] with its allowed-edge tables. Vertices
/// are rings `0..n` and tokens `n..`.
struct AllowedEdges {
    g: Matching,
    /// Per vertex: reachable from a free token along alternating paths.
    free_reach: Vec<bool>,
    /// Per vertex: its strongly connected component.
    scc: Vec<usize>,
}

impl Matching {
    /// Number the tokens and find a maximum matching (Kuhn's algorithm,
    /// ring side to token side, rings in order). A pinned ring's only edge
    /// is its pinned token, which leaves every other ring.
    fn solve(rings: &[&RingSet], pinned: &[Option<TokenId>]) -> Self {
        let mut pinned_tokens: Vec<TokenId> = pinned.iter().flatten().copied().collect();
        pinned_tokens.sort_unstable();
        let mut start = Vec::with_capacity(rings.len() + 1);
        let mut members: Vec<TokenId> = Vec::new();
        for (r, ring) in rings.iter().enumerate() {
            start.push(members.len());
            match pinned.get(r).copied().flatten() {
                Some(t) => members.push(t),
                None => members.extend(
                    ring.tokens()
                        .iter()
                        .filter(|t| pinned_tokens.binary_search(t).is_err()),
                ),
            }
        }
        start.push(members.len());
        let mut tokens = members.clone();
        tokens.sort_unstable();
        tokens.dedup();
        let adj: Vec<usize> = members
            .iter()
            .map(|t| tokens.binary_search(t).expect("every member is numbered"))
            .collect();

        let mut g = Matching {
            match_of_ring: vec![NONE; rings.len()],
            match_of_token: vec![NONE; tokens.len()],
            tokens,
            start,
            adj,
        };
        let mut visited = vec![NONE; g.tokens.len()];
        for r in 0..rings.len() {
            g.augment(r, r, &mut visited);
        }
        g
    }

    /// Ring `r`'s dense tokens.
    fn edges(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[self.start[r]..self.start[r + 1]].iter().copied()
    }

    fn saturated(&self) -> bool {
        self.match_of_ring.iter().all(|&t| t != NONE)
    }

    /// One Kuhn augmenting-path search from ring `r`; `visited[t] == round`
    /// marks the tokens this round has tried.
    fn augment(&mut self, r: usize, round: usize, visited: &mut [usize]) -> bool {
        for k in self.start[r]..self.start[r + 1] {
            let t = self.adj[k];
            if visited[t] != round {
                visited[t] = round;
                let other = self.match_of_token[t];
                if other == NONE || self.augment(other, round, visited) {
                    self.match_of_ring[r] = t;
                    self.match_of_token[t] = r;
                    return true;
                }
            }
        }
        false
    }

    /// The allowed-edge tables of a ring-saturating matching. Orientation:
    /// token → ring for non-matching edges, ring → token for matching
    /// edges. A non-matching edge (r, t) is allowed iff r and t share an
    /// SCC (alternating cycle) or t is reachable from a free token
    /// (alternating path from a free token).
    fn allowed_edges(self) -> AllowedEdges {
        let n_rings = self.match_of_ring.len();
        let total = n_rings + self.tokens.len();
        let arc = |r: usize, t: usize| {
            if self.match_of_ring[r] == t {
                (r, n_rings + t)
            } else {
                (n_rings + t, r)
            }
        };
        // The directed graph in compressed rows: `out[first[v]..first[v + 1]]`.
        let mut first = vec![0usize; total + 1];
        for r in 0..n_rings {
            for t in self.edges(r) {
                first[arc(r, t).0 + 1] += 1;
            }
        }
        for v in 0..total {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut out = vec![0usize; self.adj.len()];
        for r in 0..n_rings {
            for t in self.edges(r) {
                let (from, to) = arc(r, t);
                out[fill[from]] = to;
                fill[from] += 1;
            }
        }

        // Multi-source reachability from free tokens.
        let mut free_reach = vec![false; total];
        let mut stack: Vec<usize> = (0..self.tokens.len())
            .filter(|&t| self.match_of_token[t] == NONE)
            .map(|t| n_rings + t)
            .collect();
        for &s in &stack {
            free_reach[s] = true;
        }
        while let Some(v) = stack.pop() {
            for &w in &out[first[v]..first[v + 1]] {
                if !free_reach[w] {
                    free_reach[w] = true;
                    stack.push(w);
                }
            }
        }

        AllowedEdges {
            scc: tarjan_scc(&first, &out),
            g: self,
            free_reach,
        }
    }
}

impl AllowedEdges {
    /// Whether some ring-saturating matching assigns ring `r` its edge to
    /// dense token `t`.
    fn allowed(&self, r: usize, t: usize) -> bool {
        let v = self.g.match_of_ring.len() + t;
        self.g.match_of_ring[r] == t || self.free_reach[v] || self.scc[r] == self.scc[v]
    }
}

/// Iterative Tarjan SCC over a graph in compressed rows (`v`'s successors
/// are `out[first[v]..first[v + 1]]`); returns the component id of every
/// vertex.
fn tarjan_scc(first: &[usize], out: &[usize]) -> Vec<usize> {
    let n = first.len() - 1;
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // explicit DFS stack: (vertex, next successor position)
    let mut call: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, first[start]));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < first[v + 1] {
                let w = out[frame.1];
                frame.1 += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, first[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// The exact (possible-worlds) adversary. Exponential; small instances only.
pub fn analyze_exact(index: &RingIndex, side_info: &[TokenRsPair]) -> Analysis {
    let rings: Vec<RsId> = index.ids().collect();
    let combos = enumerate_combinations(index, &rings);
    // Filter worlds consistent with side information.
    let combos: Vec<_> = combos
        .into_iter()
        .filter(|c| {
            side_info.iter().all(|p| {
                let slot = p.rs.0 as usize;
                slot < c.len() && c[slot] == p.token
            })
        })
        .collect();

    let mut out = Analysis::default();
    for (slot, &id) in rings.iter().enumerate() {
        let cands: BTreeSet<TokenId> = if combos.is_empty() {
            BTreeSet::new()
        } else {
            possible_consumed(&combos, slot).into_iter().collect()
        };
        if cands.is_empty() {
            out.contradictions.push(id);
        }
        if cands.len() == 1 {
            if let Some(&t) = cands.iter().next() {
                out.proven.insert(TokenRsPair::new(t, id));
                out.consumed_somewhere.insert(t);
            }
        }
        out.candidates.insert(id, cands);
    }
    // A token consumed in every world (by any ring) is consumed somewhere.
    if !combos.is_empty() {
        let mut always: BTreeSet<TokenId> = combos[0].iter().copied().collect();
        for c in &combos[1..] {
            let this: BTreeSet<TokenId> = c.iter().copied().collect();
            always = always.intersection(&this).copied().collect();
        }
        out.consumed_somewhere.extend(always);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ring;

    #[test]
    fn example1_second_solution_fails() {
        // r1 = r2 = {t1, t2}; new r3 = {t2, t3}. Adversary concludes r3
        // consumed t3.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[2, 3])]);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved(RsId(2)), Some(TokenId(3)));
        assert!(a.consumed_somewhere.contains(&TokenId(1)));
        assert!(a.consumed_somewhere.contains(&TokenId(2)));
    }

    #[test]
    fn example1_good_solution_resists() {
        // r1 = r2 = {t1, t2}; r3 = {t3, t4}: nothing about r3 leaks.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[3, 4])]);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved(RsId(2)), None);
        assert_eq!(a.candidates[&RsId(2)].len(), 2);
    }

    #[test]
    fn side_information_cascades() {
        // Example 2 rings; revealing <t5, r5> removes t5 from r1; r2 = r3
        // pin {t1, t3}; r1 → t2; r4 → t4.
        let idx = RingIndex::from_rings([
            ring(&[1, 2, 5]),
            ring(&[1, 3]),
            ring(&[1, 3]),
            ring(&[2, 4]),
            ring(&[4, 5, 6]),
        ]);
        let a = analyze(&idx, &[TokenRsPair::new(TokenId(5), RsId(4))]);
        assert_eq!(a.resolved(RsId(3)), Some(TokenId(4)), "{a:?}");
        assert_eq!(a.resolved(RsId(0)), Some(TokenId(2)));
    }

    #[test]
    fn matching_adversary_matches_exact() {
        // On small instances the per-edge analysis is exactly the
        // brute-force candidate computation.
        let cases: Vec<Vec<crate::types::RingSet>> = vec![
            vec![ring(&[1, 2]), ring(&[1, 2]), ring(&[2, 3])],
            vec![
                ring(&[1, 2, 5]),
                ring(&[1, 3]),
                ring(&[1, 3]),
                ring(&[2, 4]),
                ring(&[4, 5, 6]),
            ],
            vec![
                ring(&[1, 2, 3]),
                ring(&[2, 3]),
                ring(&[3, 4]),
                ring(&[1, 4]),
            ],
            vec![ring(&[1]), ring(&[2, 3])],
            vec![
                ring(&[0, 2]),
                ring(&[0, 1]),
                ring(&[0, 1, 2]),
                ring(&[0, 3]),
            ],
        ];
        for rings in cases {
            let idx = RingIndex::from_rings(rings);
            let fast = analyze(&idx, &[]);
            let exact = analyze_exact(&idx, &[]);
            assert_eq!(fast.candidates, exact.candidates, "{idx:?}");
            assert_eq!(fast.consumed_somewhere, exact.consumed_somewhere);
            assert_eq!(fast.proven, exact.proven);
        }
    }

    #[test]
    fn stranded_token_detected() {
        // §4's dead-end: r1={0,2}, r2={0,1}, r3={0,1,2} provably consume
        // {0,1,2}; a fourth ring {0,3} is resolved to 3.
        let idx = RingIndex::from_rings([
            ring(&[0, 2]),
            ring(&[0, 1]),
            ring(&[0, 1, 2]),
            ring(&[0, 3]),
        ]);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved(RsId(3)), Some(TokenId(3)));
    }

    #[test]
    fn singleton_ring_resolves_immediately() {
        let idx = RingIndex::from_rings([ring(&[7]), ring(&[7, 8])]);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved(RsId(0)), Some(TokenId(7)));
        assert_eq!(a.resolved(RsId(1)), Some(TokenId(8)));
    }

    #[test]
    fn contradiction_reported_by_both() {
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[1, 2])]);
        // Three rings over two tokens is already impossible.
        let e = analyze_exact(&idx, &[]);
        assert_eq!(e.contradictions.len(), 3);
        let f = analyze(&idx, &[]);
        assert!(!f.contradictions.is_empty());
    }

    #[test]
    fn theorem_4_1_detection() {
        // r1={1,2}, r2={1,2}: |union| = 2 = #rings → both consumed, but
        // neither ring resolved.
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2])]);
        let a = analyze(&idx, &[]);
        assert!(a.consumed_somewhere.contains(&TokenId(1)));
        assert!(a.consumed_somewhere.contains(&TokenId(2)));
        assert_eq!(a.resolved(RsId(0)), None);
        assert_eq!(a.resolved(RsId(1)), None);
    }

    #[test]
    fn empty_index() {
        let idx = RingIndex::new();
        let a = analyze(&idx, &[]);
        assert!(a.candidates.is_empty());
        assert!(a.proven.is_empty());
    }

    #[test]
    fn exact_respects_side_info() {
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[2, 3])]);
        let e = analyze_exact(&idx, &[TokenRsPair::new(TokenId(2), RsId(0))]);
        assert_eq!(e.candidates[&RsId(1)], BTreeSet::from([TokenId(3)]));
    }

    #[test]
    fn invalid_side_info_is_ignored() {
        let idx = RingIndex::from_rings([ring(&[1, 2])]);
        // Token 9 is not in ring 0: the pin is noise.
        let a = analyze(&idx, &[TokenRsPair::new(TokenId(9), RsId(0))]);
        assert_eq!(a.candidates[&RsId(0)].len(), 2);
    }

    #[test]
    fn large_benign_instance_stays_fast() {
        // 200 disjoint 11-token rings: the matching analysis is linear-ish
        // and must leave everything unresolved.
        let rings: Vec<crate::types::RingSet> = (0..200u32)
            .map(|i| crate::types::RingSet::new((0..11).map(|k| TokenId(i * 11 + k))))
            .collect();
        let idx = RingIndex::from_rings(rings);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved_count(), 0);
        assert!(a.consumed_somewhere.is_empty());
    }
}
