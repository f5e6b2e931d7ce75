//! Bipartite perfect-matching enumeration — the combinatorial object of the
//! paper's hardness proof (Theorem 3.1 reduces counting perfect matchings,
//! Valiant's #P-complete EPMBG problem, to deciding DA-MS).
//!
//! Provided both as a standalone graph algorithm (used by tests to validate
//! the reduction: combinations of a ring set == perfect matchings of the
//! ring/token incidence graph) and as a permanent computation for counting.

use crate::related::RingIndex;
use crate::types::{RsId, TokenId};

/// A bipartite graph with `left` row vertices and `right` column vertices;
/// `adj[i]` lists the right-vertices adjacent to left-vertex `i`.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    right: usize,
    adj: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Build from adjacency lists; `right` is the number of right vertices.
    ///
    /// Panics when an edge references a right vertex out of range.
    pub fn new(right: usize, adj: Vec<Vec<usize>>) -> Self {
        for (i, row) in adj.iter().enumerate() {
            for &j in row {
                assert!(j < right, "edge ({i},{j}) exceeds right size {right}");
            }
        }
        BipartiteGraph { right, adj }
    }

    /// Enumerate all perfect matchings (every *left* vertex matched to a
    /// distinct right vertex; for square graphs this is the classic perfect
    /// matching). Each matching maps left index → right index.
    pub fn enumerate_matchings(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut assignment = vec![usize::MAX; self.adj.len()];
        let mut used = vec![false; self.right];
        self.recurse(0, &mut assignment, &mut used, &mut out);
        out
    }

    fn recurse(
        &self,
        i: usize,
        assignment: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if i == self.adj.len() {
            out.push(assignment.clone());
            return;
        }
        for &j in &self.adj[i] {
            if !used[j] {
                used[j] = true;
                assignment[i] = j;
                self.recurse(i + 1, assignment, used, out);
                assignment[i] = usize::MAX;
                used[j] = false;
            }
        }
    }

    /// Count perfect matchings of a square bipartite graph via the Ryser
    /// permanent formula, O(2^n · n) — much faster than enumeration for
    /// counting-only callers.
    ///
    /// Panics when the graph is not square or has more than 63 vertices per
    /// side (the subset mask is a `u64`).
    pub fn count_matchings_permanent(&self) -> u64 {
        let n = self.adj.len();
        assert_eq!(n, self.right, "permanent needs a square graph");
        assert!(n <= 63, "permanent limited to 63x63");
        if n == 0 {
            return 1;
        }
        // Row bitmasks.
        let rows: Vec<u64> = self
            .adj
            .iter()
            .map(|r| r.iter().fold(0u64, |m, &j| m | (1 << j)))
            .collect();
        // Ryser: perm = (-1)^n * sum_{S ⊆ cols} (-1)^{|S|} prod_i |row_i ∩ S|
        let mut total: i128 = 0;
        for s in 0u64..(1u64 << n) {
            let mut prod: i128 = 1;
            for &row in &rows {
                prod *= (row & s).count_ones() as i128;
                if prod == 0 {
                    break;
                }
            }
            let sign = if (n as u32 - s.count_ones()).is_multiple_of(2) {
                1
            } else {
                -1
            };
            total += sign * prod;
        }
        // The permanent of a 0/1 matrix is non-negative; saturate on the
        // (unreachable for n <= 63) overflow instead of panicking.
        u64::try_from(total.max(0)).unwrap_or(u64::MAX)
    }
}

/// Build the reduction graph of Theorem 3.1: left vertices are the rings,
/// right vertices the distinct tokens they mention. Returns the graph and
/// the right-index → token mapping.
pub fn reduction_graph(index: &RingIndex, rings: &[RsId]) -> (BipartiteGraph, Vec<TokenId>) {
    let mut tokens: Vec<TokenId> = Vec::new();
    let mut pos: std::collections::HashMap<TokenId, usize> = std::collections::HashMap::new();
    for &r in rings {
        for &t in index.ring(r).tokens() {
            pos.entry(t).or_insert_with(|| {
                tokens.push(t);
                tokens.len() - 1
            });
        }
    }
    let adj: Vec<Vec<usize>> = rings
        .iter()
        .map(|&r| index.ring(r).tokens().iter().map(|t| pos[t]).collect())
        .collect();
    (BipartiteGraph::new(tokens.len(), adj), tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::enumerate_combinations;
    use crate::types::ring;

    #[test]
    fn complete_k3_has_six_matchings() {
        let g = BipartiteGraph::new(3, vec![vec![0, 1, 2]; 3]);
        assert_eq!(g.enumerate_matchings().len(), 6);
        assert_eq!(g.count_matchings_permanent(), 6);
    }

    #[test]
    fn path_graph_has_one_matching() {
        // left0-{0}, left1-{0,1}: forced matching (0→0, 1→1).
        let g = BipartiteGraph::new(2, vec![vec![0], vec![0, 1]]);
        let ms = g.enumerate_matchings();
        assert_eq!(ms, vec![vec![0, 1]]);
        assert_eq!(g.count_matchings_permanent(), 1);
    }

    #[test]
    fn no_matching_when_pigeonholed() {
        let g = BipartiteGraph::new(2, vec![vec![0], vec![0], vec![0, 1]]);
        assert!(g.enumerate_matchings().is_empty());
    }

    #[test]
    fn empty_graph_has_one_trivial_matching() {
        let g = BipartiteGraph::new(0, vec![]);
        assert_eq!(g.enumerate_matchings().len(), 1);
        assert_eq!(g.count_matchings_permanent(), 1);
    }

    #[test]
    fn permanent_matches_enumeration_random() {
        // deterministic pseudo-random 5x5 graphs
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..20 {
            let mut adj = vec![Vec::new(); 5];
            for (i, row) in adj.iter_mut().enumerate() {
                for j in 0..5 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if seed >> 62 != 0 {
                        row.push(j);
                    }
                }
                if row.is_empty() {
                    row.push(i); // keep a chance of matchings
                }
            }
            let g = BipartiteGraph::new(5, adj);
            assert_eq!(
                g.count_matchings_permanent(),
                g.enumerate_matchings().len() as u64
            );
        }
    }

    #[test]
    fn reduction_equates_combinations_and_matchings() {
        // The heart of Theorem 3.1: token-RS combinations of a ring set are
        // exactly the left-perfect matchings of the incidence graph.
        let idx = RingIndex::from_rings([
            ring(&[1, 2]),
            ring(&[1, 2]),
            ring(&[2, 3, 4]),
            ring(&[3, 5]),
        ]);
        let rs: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rs);
        let (g, _tokens) = reduction_graph(&idx, &rs);
        assert_eq!(combos.len(), g.enumerate_matchings().len());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn permanent_rejects_non_square() {
        BipartiteGraph::new(3, vec![vec![0], vec![1]]).count_matchings_permanent();
    }

    #[test]
    #[should_panic(expected = "exceeds right size")]
    fn constructor_validates_edges() {
        BipartiteGraph::new(1, vec![vec![1]]);
    }
}
