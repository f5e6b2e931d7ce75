//! The practical configurations of §6.1 and their theorem-backed checks.
//!
//! * **First configuration:** every new RS must be the union of whole
//!   modules (super RSs + fresh tokens) — i.e. a superset of each ring it
//!   intersects. With it, Theorem 6.1 gives a polynomial-time DTRS test.
//! * **Second configuration:** to guarantee all DTRSs satisfy `(c, ℓ)`, the
//!   ring itself must satisfy `(c, ℓ+1)` (Theorem 6.4).

use dams_diversity::{DiversityRequirement, HtHistogram, HtId, RingIndex, RingSet, TokenUniverse};

use crate::instance::{ModularInstance, ModuleId};

/// Check the first practical configuration for a candidate ring against a
/// history: the ring must be a superset of every existing ring it
/// intersects.
pub fn satisfies_first_configuration(candidate: &RingSet, history: &RingIndex) -> bool {
    history
        .iter()
        .all(|(_, r)| !candidate.intersects(r) || candidate.is_superset(r))
}

/// The token set `ψ_{i,j} = r_i \ T̃_{i,j}` of Theorem 6.1: the tokens of
/// ring `r` whose HT is **not** `h`.
pub fn psi(ring: &RingSet, universe: &TokenUniverse, h: HtId) -> RingSet {
    RingSet::new(
        ring.tokens()
            .iter()
            .copied()
            .filter(|t| universe.ht(*t) != h),
    )
}

/// Theorem 6.1 DTRS existence test: given ring `r` whose super RS has
/// subset count `v`, a DTRS pinning HT `h` exists iff
/// `v >= |r| - |T̃_{r,h}| + 1`; its token set is then `ψ_{r,h}`.
///
/// Returns the DTRS token sets (one per determinable HT) — the polynomial
/// replacement for exact DTRS enumeration under the first configuration.
pub fn dtrs_token_sets_fast(
    ring: &RingSet,
    universe: &TokenUniverse,
    subset_count: usize,
) -> Vec<(HtId, RingSet)> {
    let mut hts: Vec<HtId> = ring.tokens().iter().map(|t| universe.ht(*t)).collect();
    hts.sort_unstable();
    hts.dedup();
    let mut out = Vec::new();
    for h in hts {
        let same_ht = ring
            .tokens()
            .iter()
            .filter(|t| universe.ht(**t) == h)
            .count();
        // v_{i*} >= |r_i| - |T̃_{i,j}| + 1 ⇔ a DTRS for h exists.
        if subset_count > ring.len() - same_ht {
            out.push((h, psi(ring, universe, h)));
        }
    }
    out
}

/// Verify, in polynomial time, that every DTRS of `ring` satisfies `req`
/// (the first-configuration fast path replacing Algorithm 3).
pub fn dtrs_diverse_fast(
    ring: &RingSet,
    universe: &TokenUniverse,
    subset_count: usize,
    req: DiversityRequirement,
) -> bool {
    dtrs_diverse_on(&HtHistogram::from_ring(ring, universe), subset_count, req)
}

/// [`dtrs_diverse_fast`] on the ring's histogram `hist`. A DTRS of
/// Theorem 6.1 drops every token of one HT, so its histogram is `hist`
/// without that HT's entry: each verdict reads `q_1` and the tail sum off
/// the frequency vector instead of building `ψ` and its histogram as
/// [`dtrs_token_sets_fast`] does.
pub(crate) fn dtrs_diverse_on(
    hist: &HtHistogram,
    subset_count: usize,
    req: DiversityRequirement,
) -> bool {
    let (q, len) = (hist.frequencies(), hist.total());
    (0..q.len()).all(|j| {
        // v_{i*} >= |r_i| - |T̃_{i,j}| + 1 ⇔ a DTRS for the HT exists.
        if subset_count <= len - q[j] {
            return true;
        }
        let rest = q
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != j)
            .map(|(_, &c)| c);
        let q1 = rest.clone().next().unwrap_or(0);
        req.satisfied_by_parts(q1, rest.skip(req.l.saturating_sub(1)).sum())
    })
}

/// How a candidate module selection is validated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionPolicy {
    /// The user's requirement `(c_τ, ℓ_τ)`.
    pub requirement: DiversityRequirement,
    /// Apply the second practical configuration: target `(c, ℓ+1)` so every
    /// DTRS is guaranteed `(c, ℓ)`-diverse (Theorem 6.4).
    pub dtrs_margin: bool,
}

impl SelectionPolicy {
    pub fn new(requirement: DiversityRequirement) -> Self {
        SelectionPolicy {
            requirement,
            dtrs_margin: false,
        }
    }

    pub fn with_margin(requirement: DiversityRequirement) -> Self {
        SelectionPolicy {
            requirement,
            dtrs_margin: true,
        }
    }

    /// The requirement the *selection target* must meet (with or without
    /// the ℓ+1 margin).
    pub fn effective(&self) -> DiversityRequirement {
        if self.dtrs_margin {
            self.requirement.with_margin()
        } else {
            self.requirement
        }
    }

    /// Whether a module selection meets the effective requirement.
    pub fn admits(&self, instance: &ModularInstance, selection: &[ModuleId]) -> bool {
        self.effective()
            .satisfied_by(&instance.histogram_of(selection))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::ring;

    fn uni(hts: &[u32]) -> TokenUniverse {
        TokenUniverse::new(hts.iter().map(|&h| HtId(h)).collect())
    }

    #[test]
    fn first_configuration_accepts_superset_or_disjoint() {
        let history = RingIndex::from_rings([ring(&[1, 2]), ring(&[5, 6])]);
        assert!(satisfies_first_configuration(&ring(&[1, 2, 3]), &history));
        assert!(satisfies_first_configuration(&ring(&[7, 8]), &history));
        assert!(satisfies_first_configuration(
            &ring(&[1, 2, 5, 6, 9]),
            &history
        ));
        assert!(!satisfies_first_configuration(&ring(&[2, 3]), &history));
        assert!(!satisfies_first_configuration(&ring(&[1, 5]), &history));
    }

    #[test]
    fn psi_removes_one_ht() {
        let u = uni(&[0, 0, 1, 2]);
        let r = ring(&[0, 1, 2, 3]);
        assert_eq!(psi(&r, &u, HtId(0)), ring(&[2, 3]));
        assert_eq!(psi(&r, &u, HtId(2)), ring(&[0, 1, 2]));
        assert_eq!(psi(&r, &u, HtId(9)), r);
    }

    #[test]
    fn theorem_6_1_threshold() {
        // r = {0,1,2,3}, HTs [0,0,1,2]. For h=0: |T̃| = 2, need v >= 3.
        let u = uni(&[0, 0, 1, 2]);
        let r = ring(&[0, 1, 2, 3]);
        let none = dtrs_token_sets_fast(&r, &u, 2);
        assert!(none.iter().all(|(h, _)| *h != HtId(0)));
        let some = dtrs_token_sets_fast(&r, &u, 3);
        let d0 = some.iter().find(|(h, _)| *h == HtId(0)).unwrap();
        assert_eq!(d0.1, ring(&[2, 3]));
    }

    #[test]
    fn theorem_6_1_is_conservative_vs_exact_dtrs() {
        // Cross-validate the fast path against exact enumeration on the
        // nested-ring motif: r0={1,2} (earlier), super ring r1={1,2,3}.
        // v(r1) = 2. HTs: t1,t2 from h1; t3 from h2.
        //
        // Fast path: for h1, |T̃| = 2, v >= |r| - |T̃| + 1 = 2 → claims the
        // DTRS ψ = {t3} exists. The *exact* enumerator knows more: t3
        // appears in no other ring, so no realizable token-RS pair set can
        // reveal "t3 spent elsewhere" — h1 is not actually determinable
        // here. Theorem 6.1's test is therefore a sound over-approximation
        // (it never misses a DTRS; it may report unrealizable ones), which
        // is the safe direction for a privacy check.
        use dams_diversity::{enumerate_combinations, enumerate_dtrs, RsId};
        let u = uni(&[9, 1, 1, 2]);
        let idx = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2, 3])]);
        let rings: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &rings);
        let exact = enumerate_dtrs(&combos, &rings, 1, &u);
        let fast = dtrs_token_sets_fast(idx.ring(RsId(1)), &u, 2);
        let fast_hts: std::collections::BTreeSet<HtId> = fast.iter().map(|(h, _)| *h).collect();
        let exact_hts: std::collections::BTreeSet<HtId> =
            exact.iter().map(|d| d.determined_ht).collect();
        assert!(
            exact_hts.is_subset(&fast_hts),
            "fast must cover every exact DTRS HT: exact {exact_hts:?} fast {fast_hts:?}"
        );
        assert_eq!(fast_hts, std::collections::BTreeSet::from([HtId(1)]));
    }

    #[test]
    fn theorem_6_4_margin_protects_dtrs() {
        // If a ring satisfies (c, ℓ+1), every ψ (drop one HT entirely)
        // satisfies (c, ℓ). Spot-check on a concrete histogram.
        let u = uni(&[0, 0, 1, 2, 3, 4]);
        let r = ring(&[0, 1, 2, 3, 4, 5]); // q = [2,1,1,1,1]
        let req = DiversityRequirement::new(1.0, 2);
        let margin = req.with_margin(); // (1, 3)
        assert!(margin.satisfied_by(&HtHistogram::from_ring(&r, &u))); // 2 < 3
        for (_, d) in dtrs_token_sets_fast(&r, &u, r.len()) {
            assert!(
                req.satisfied_by(&HtHistogram::from_ring(&d, &u)),
                "DTRS {d:?} violated (c, l)"
            );
        }
    }

    #[test]
    fn policy_margin_toggles_effective_l() {
        let req = DiversityRequirement::new(0.6, 4);
        assert_eq!(SelectionPolicy::new(req).effective().l, 4);
        assert_eq!(SelectionPolicy::with_margin(req).effective().l, 5);
    }
}
