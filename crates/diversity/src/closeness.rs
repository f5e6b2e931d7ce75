//! t-closeness over HT distributions.
//!
//! The paper cites the t-closeness principle (Li et al.) when introducing
//! the homogeneity attack: diversity alone does not stop an adversary who
//! compares a ring's HT *distribution* against the global one — a ring
//! whose HT mix deviates far from the batch-wide mix leaks information
//! about the spender's token source even when every HT is "diverse
//! enough". This module measures that deviation so audits can report it
//! alongside recursive (c, ℓ)-diversity.
//!
//! Distance: total variation (for unordered categorical HTs) and the
//! 1-D earth-mover distance over HT ids (for callers that give HT ids a
//! meaningful order, e.g. block height).

use std::collections::BTreeMap;

use crate::types::{HtId, RingSet, TokenUniverse};

/// Normalised HT distribution of a token multiset.
fn distribution<I: IntoIterator<Item = HtId>>(hts: I) -> BTreeMap<HtId, f64> {
    let mut counts: BTreeMap<HtId, usize> = BTreeMap::new();
    let mut total = 0usize;
    for h in hts {
        *counts.entry(h).or_insert(0) += 1;
        total += 1;
    }
    counts
        .into_iter()
        .map(|(h, c)| (h, c as f64 / total.max(1) as f64))
        .collect()
}

/// Total-variation distance between a ring's HT distribution and the
/// whole universe's: `½ Σ_h |P_ring(h) − P_universe(h)|` ∈ [0, 1].
pub fn total_variation(ring: &RingSet, universe: &TokenUniverse) -> f64 {
    let p = distribution(ring.tokens().iter().map(|t| universe.ht(*t)));
    let q = distribution(universe.tokens().map(|t| universe.ht(t)));
    let keys: std::collections::BTreeSet<HtId> = p.keys().chain(q.keys()).copied().collect();
    0.5 * keys
        .into_iter()
        .map(|h| (p.get(&h).unwrap_or(&0.0) - q.get(&h).unwrap_or(&0.0)).abs())
        .sum::<f64>()
}

/// 1-D earth-mover distance between the ring's and the universe's HT
/// distributions, treating HT ids as positions on a line (suitable when
/// ids are chronological). Normalised by the id span, so ∈ [0, 1].
pub fn emd_over_ids(ring: &RingSet, universe: &TokenUniverse) -> f64 {
    let p = distribution(ring.tokens().iter().map(|t| universe.ht(*t)));
    let q = distribution(universe.tokens().map(|t| universe.ht(t)));
    let keys: Vec<HtId> = {
        let set: std::collections::BTreeSet<HtId> = p.keys().chain(q.keys()).copied().collect();
        set.into_iter().collect()
    };
    let (Some(first), Some(last)) = (keys.first(), keys.last()) else {
        return 0.0;
    };
    if keys.len() <= 1 {
        return 0.0;
    }
    let span = (last.0 - first.0) as f64;
    if span == 0.0 {
        return 0.0;
    }
    // Classic prefix-flow EMD on a line, weighting each hop by the id gap.
    let mut carried = 0.0f64;
    let mut cost = 0.0f64;
    for w in keys.windows(2) {
        let h = w[0];
        carried += p.get(&h).unwrap_or(&0.0) - q.get(&h).unwrap_or(&0.0);
        cost += carried.abs() * (w[1].0 - w[0].0) as f64;
    }
    cost / span
}

/// Whether a ring is t-close to the universe under total variation.
pub fn is_t_close(ring: &RingSet, universe: &TokenUniverse, t: f64) -> bool {
    total_variation(ring, universe) <= t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ring;

    fn uni(hts: &[u32]) -> TokenUniverse {
        TokenUniverse::new(hts.iter().map(|&h| HtId(h)).collect())
    }

    #[test]
    fn full_universe_ring_has_zero_distance() {
        let u = uni(&[0, 0, 1, 2]);
        let r = ring(&[0, 1, 2, 3]);
        assert!(total_variation(&r, &u) < 1e-12);
        assert!(emd_over_ids(&r, &u) < 1e-12);
        assert!(is_t_close(&r, &u, 0.0));
    }

    #[test]
    fn skewed_ring_is_far() {
        // Universe: 4 HTs uniform; ring all from one HT.
        let u = uni(&[0, 0, 1, 1, 2, 2, 3, 3]);
        let r = ring(&[0, 1]); // both HT 0
        let tv = total_variation(&r, &u);
        assert!((tv - 0.75).abs() < 1e-12, "tv = {tv}");
        assert!(!is_t_close(&r, &u, 0.5));
    }

    #[test]
    fn tv_is_bounded() {
        let u = uni(&[0, 1, 2, 3, 4, 5]);
        for ids in [&[0u32][..], &[0, 1], &[0, 1, 2, 3, 4, 5]] {
            let tv = total_variation(&ring(ids), &u);
            assert!((0.0..=1.0).contains(&tv), "{ids:?}: {tv}");
        }
    }

    #[test]
    fn emd_grows_with_chronological_skew() {
        // Universe spans HTs 0..9 uniformly; a ring concentrated at one
        // end has larger EMD than a centred one.
        let hts: Vec<u32> = (0..10).collect();
        let u = uni(&hts);
        let edge = emd_over_ids(&ring(&[0, 1]), &u);
        let centre = emd_over_ids(&ring(&[4, 5]), &u);
        assert!(edge > centre, "edge {edge} vs centre {centre}");
    }

    #[test]
    fn degenerate_universes() {
        let u = uni(&[7]);
        let r = ring(&[0]);
        assert_eq!(total_variation(&r, &u), 0.0);
        assert_eq!(emd_over_ids(&r, &u), 0.0);
    }

    #[test]
    fn diverse_but_skewed_ring_detected() {
        // The t-closeness motivation: a ring can satisfy recursive
        // diversity yet sit far from the global mix.
        use crate::recursive::DiversityRequirement;
        let mut hts = vec![0u32; 50];
        hts.extend([1, 2, 3, 4]);
        let u = uni(&hts); // heavily skewed toward HT 0
        let r = ring(&[50, 51, 52, 53]); // the four rare HTs
        let req = DiversityRequirement::new(1.0, 2);
        assert!(req.satisfied_by_ring(&r, &u), "diverse by (c,l)");
        assert!(!is_t_close(&r, &u, 0.5), "but far from the global mix");
    }
}
