//! Anonymity metrics over chain-reaction analyses.
//!
//! The paper argues informally that "the more tokens of a RS and its
//! possible DTRSs are from different HTs, the better anonymity of a RS
//! would be" (§2.4). This module quantifies that claim so experiments and
//! audits can report numbers:
//!
//! * **effective anonymity set** — surviving candidate count per ring;
//! * **HT anonymity set** — distinct HTs among surviving candidates (what
//!   the homogeneity attack reduces);
//! * **guess probability** — an adversary's best single-guess success
//!   chance assuming uniform posterior over candidates;
//! * **HT entropy** — Shannon entropy of the candidate HT distribution.

use crate::chain_reaction::Analysis;
use crate::types::{HtId, RsId, TokenUniverse};

/// Metrics for one ring under a given analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RingAnonymity {
    pub rs: RsId,
    /// Number of candidate consumed tokens surviving analysis.
    pub candidate_count: usize,
    /// Number of distinct HTs among the candidates.
    pub ht_count: usize,
    /// Best-guess probability of naming the consumed token (1/candidates).
    pub token_guess_probability: f64,
    /// Best-guess probability of naming the HT (max HT share).
    pub ht_guess_probability: f64,
    /// Shannon entropy (bits) of the candidate HT distribution.
    pub ht_entropy_bits: f64,
}

/// Compute per-ring anonymity metrics from an analysis.
pub fn ring_anonymity(
    analysis: &Analysis,
    rs: RsId,
    universe: &TokenUniverse,
) -> Option<RingAnonymity> {
    let cands = analysis.candidates.get(&rs)?;
    let n = cands.len();
    if n == 0 {
        return Some(RingAnonymity {
            rs,
            candidate_count: 0,
            ht_count: 0,
            token_guess_probability: 1.0,
            ht_guess_probability: 1.0,
            ht_entropy_bits: 0.0,
        });
    }
    let mut counts: std::collections::BTreeMap<HtId, usize> = std::collections::BTreeMap::new();
    for &t in cands {
        *counts.entry(universe.ht(t)).or_insert(0) += 1;
    }
    let max_share = counts.values().copied().max().unwrap_or(0) as f64 / n as f64;
    let entropy = counts
        .values()
        .map(|&c| {
            let p = c as f64 / n as f64;
            -p * p.log2()
        })
        .sum::<f64>();
    Some(RingAnonymity {
        rs,
        candidate_count: n,
        ht_count: counts.len(),
        token_guess_probability: 1.0 / n as f64,
        ht_guess_probability: max_share,
        ht_entropy_bits: entropy,
    })
}

/// Aggregate metrics over every ring of an analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnonymity {
    pub rings: usize,
    pub resolved: usize,
    pub mean_candidates: f64,
    pub min_candidates: usize,
    pub mean_ht_entropy_bits: f64,
    /// Worst (highest) HT guess probability across rings.
    pub worst_ht_guess: f64,
}

/// Summarise a whole batch.
pub fn batch_anonymity(analysis: &Analysis, universe: &TokenUniverse) -> BatchAnonymity {
    let per_ring: Vec<RingAnonymity> = analysis
        .candidates
        .keys()
        .filter_map(|&rs| ring_anonymity(analysis, rs, universe))
        .collect();
    let rings = per_ring.len();
    if rings == 0 {
        return BatchAnonymity {
            rings: 0,
            resolved: 0,
            mean_candidates: 0.0,
            min_candidates: 0,
            mean_ht_entropy_bits: 0.0,
            worst_ht_guess: 0.0,
        };
    }
    BatchAnonymity {
        rings,
        resolved: per_ring.iter().filter(|m| m.candidate_count <= 1).count(),
        mean_candidates: per_ring
            .iter()
            .map(|m| m.candidate_count as f64)
            .sum::<f64>()
            / rings as f64,
        min_candidates: per_ring
            .iter()
            .map(|m| m.candidate_count)
            .min()
            .unwrap_or(0),
        mean_ht_entropy_bits: per_ring.iter().map(|m| m.ht_entropy_bits).sum::<f64>()
            / rings as f64,
        worst_ht_guess: per_ring
            .iter()
            .map(|m| m.ht_guess_probability)
            .fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_reaction::analyze;
    use crate::related::RingIndex;
    use crate::types::ring;

    fn uni(hts: &[u32]) -> TokenUniverse {
        TokenUniverse::new(hts.iter().map(|&h| HtId(h)).collect())
    }

    #[test]
    fn diverse_isolated_ring_has_full_anonymity() {
        let u = uni(&[0, 1, 2, 3]);
        let idx = RingIndex::from_rings([ring(&[0, 1, 2, 3])]);
        let a = analyze(&idx, &[]);
        let m = ring_anonymity(&a, RsId(0), &u).unwrap();
        assert_eq!(m.candidate_count, 4);
        assert_eq!(m.ht_count, 4);
        assert!((m.token_guess_probability - 0.25).abs() < 1e-12);
        assert!((m.ht_entropy_bits - 2.0).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_ring_entropy_is_zero() {
        let u = uni(&[5, 5, 5]);
        let idx = RingIndex::from_rings([ring(&[0, 1, 2])]);
        let a = analyze(&idx, &[]);
        let m = ring_anonymity(&a, RsId(0), &u).unwrap();
        assert_eq!(m.candidate_count, 3);
        assert_eq!(m.ht_count, 1);
        assert_eq!(m.ht_guess_probability, 1.0);
        assert_eq!(m.ht_entropy_bits, 0.0);
    }

    #[test]
    fn resolution_collapses_anonymity() {
        // r1 = r2 = {0,1}, r3 = {1,2}: r3 resolved → candidates 1.
        let u = uni(&[0, 1, 2]);
        let idx = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1]), ring(&[1, 2])]);
        let a = analyze(&idx, &[]);
        let m = ring_anonymity(&a, RsId(2), &u).unwrap();
        assert_eq!(m.candidate_count, 1);
        assert_eq!(m.token_guess_probability, 1.0);
    }

    #[test]
    fn batch_summary_counts_resolved() {
        let u = uni(&[0, 1, 2]);
        let idx = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1]), ring(&[1, 2])]);
        let a = analyze(&idx, &[]);
        let b = batch_anonymity(&a, &u);
        assert_eq!(b.rings, 3);
        assert_eq!(b.resolved, 1);
        assert!(b.min_candidates <= 1);
        assert!(b.worst_ht_guess >= 0.5);
    }

    #[test]
    fn empty_analysis() {
        let u = uni(&[]);
        let a = Analysis::default();
        let b = batch_anonymity(&a, &u);
        assert_eq!(b.rings, 0);
        assert!(ring_anonymity(&a, RsId(0), &u).is_none());
    }

    #[test]
    fn skewed_ht_distribution_reduces_entropy() {
        // Candidates with HTs [0,0,0,1]: entropy < 1 bit, guess 0.75.
        let u = uni(&[0, 0, 0, 1]);
        let idx = RingIndex::from_rings([ring(&[0, 1, 2, 3])]);
        let a = analyze(&idx, &[]);
        let m = ring_anonymity(&a, RsId(0), &u).unwrap();
        assert!((m.ht_guess_probability - 0.75).abs() < 1e-12);
        assert!(m.ht_entropy_bits < 1.0);
        assert!(m.ht_entropy_bits > 0.0);
    }
}
