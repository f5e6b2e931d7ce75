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
//! * [`analyze_exact`] — the brute-force enumeration adversary, used by
//!   tests to validate `analyze` on small instances.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::combination::{enumerate_combinations, possible_consumed};
use crate::related::RingIndex;
use crate::types::{RsId, TokenId, TokenRsPair};

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
    let mut pinned: HashMap<usize, TokenId> = HashMap::new();
    for p in side_info {
        let slot = p.rs.0 as usize;
        if slot < n_rings && index.ring(p.rs).contains(p.token) {
            pinned.insert(slot, p.token);
            out.proven.insert(*p);
        }
    }
    let pinned_tokens: BTreeSet<TokenId> = pinned.values().copied().collect();

    // Dense token indexing over the tokens that appear in any ring.
    let mut token_ids: Vec<TokenId> = Vec::new();
    let mut token_pos: HashMap<TokenId, usize> = HashMap::new();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_rings]; // ring -> tokens
    for (rs, ring) in index.iter() {
        let slot = rs.0 as usize;
        if let Some(&t) = pinned.get(&slot) {
            let pos = *token_pos.entry(t).or_insert_with(|| {
                token_ids.push(t);
                token_ids.len() - 1
            });
            adj[slot].push(pos);
            continue;
        }
        for &t in ring.tokens() {
            if pinned_tokens.contains(&t) {
                continue;
            }
            let pos = *token_pos.entry(t).or_insert_with(|| {
                token_ids.push(t);
                token_ids.len() - 1
            });
            adj[slot].push(pos);
        }
    }
    let n_tokens = token_ids.len();

    // Maximum matching (Kuhn's algorithm), ring side to token side.
    let mut match_of_ring: Vec<Option<usize>> = vec![None; n_rings];
    let mut match_of_token: Vec<Option<usize>> = vec![None; n_tokens];
    for r in 0..n_rings {
        let mut visited = vec![false; n_tokens];
        let _ = try_kuhn(
            r,
            &adj,
            &mut visited,
            &mut match_of_ring,
            &mut match_of_token,
        );
    }

    let saturated = match_of_ring.iter().all(Option::is_some);
    if !saturated {
        // The observations are jointly impossible; report the unmatched
        // rings as contradictions and the rest conservatively (full rings).
        for (rs, ring) in index.iter() {
            let slot = rs.0 as usize;
            if match_of_ring[slot].is_none() {
                out.contradictions.push(rs);
                out.candidates.insert(rs, BTreeSet::new());
            } else if let Some(&t) = pinned.get(&slot) {
                out.candidates.insert(rs, BTreeSet::from([t]));
            } else {
                out.candidates
                    .insert(rs, ring.tokens().iter().copied().collect());
            }
        }
        return out;
    }

    // Allowed-edge analysis. Orientation: token → ring for non-matching
    // edges, ring → token for matching edges. A non-matching edge (r, t)
    // is allowed iff r and t share an SCC (alternating cycle) or t is
    // reachable from a free token (alternating path from a free token).
    let total = n_rings + n_tokens; // rings 0.., tokens n_rings..
    let mut darc: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (r, tokens) in adj.iter().enumerate() {
        for &t in tokens {
            if match_of_ring[r] == Some(t) {
                darc[r].push(n_rings + t);
            } else {
                darc[n_rings + t].push(r);
            }
        }
    }

    // Multi-source reachability from free tokens.
    let mut free_reach = vec![false; total];
    let mut stack: Vec<usize> = (0..n_tokens)
        .filter(|&t| match_of_token[t].is_none())
        .map(|t| n_rings + t)
        .collect();
    for &s in &stack {
        free_reach[s] = true;
    }
    while let Some(v) = stack.pop() {
        for &w in &darc[v] {
            if !free_reach[w] {
                free_reach[w] = true;
                stack.push(w);
            }
        }
    }

    let scc = tarjan_scc(&darc);

    // Candidate sets: matched edge always allowed; non-matching edge (r,t)
    // allowed iff same SCC or free-reachable token.
    for (rs, _) in index.iter() {
        let slot = rs.0 as usize;
        let mut cands: BTreeSet<TokenId> = BTreeSet::new();
        for &t in &adj[slot] {
            let allowed = match_of_ring[slot] == Some(t)
                || scc[slot] == scc[n_rings + t]
                || free_reach[n_rings + t];
            if allowed {
                cands.insert(token_ids[t]);
            }
        }
        if cands.len() == 1 {
            if let Some(&t) = cands.iter().next() {
                out.proven.insert(TokenRsPair::new(t, rs));
            }
        }
        out.candidates.insert(rs, cands);
    }

    // Consumed-somewhere: token covered by every ring-saturating matching
    // ⟺ matched and not reachable from a free token.
    for t in 0..n_tokens {
        if match_of_token[t].is_some() && !free_reach[n_rings + t] {
            out.consumed_somewhere.insert(token_ids[t]);
        }
    }
    out.consumed_somewhere.extend(pinned_tokens.iter().copied());
    out
}

fn try_kuhn(
    r: usize,
    adj: &[Vec<usize>],
    visited: &mut [bool],
    match_of_ring: &mut [Option<usize>],
    match_of_token: &mut [Option<usize>],
) -> bool {
    for &t in &adj[r] {
        if !visited[t] {
            visited[t] = true;
            let free = match match_of_token[t] {
                None => true,
                Some(other) => try_kuhn(other, adj, visited, match_of_ring, match_of_token),
            };
            if free {
                match_of_ring[r] = Some(t);
                match_of_token[t] = Some(r);
                return true;
            }
        }
    }
    false
}

/// Iterative Tarjan SCC; returns the component id of every vertex.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // explicit DFS stack: (vertex, next child position)
    let mut call: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.0;
            if frame.1 < adj[v].len() {
                let w = adj[v][frame.1];
                frame.1 += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
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
