//! The Definition-5 validator for a proposed ring against a batch state:
//! diversity, the first practical configuration, non-elimination (via the
//! matching adversary), the new ring's DTRSs and immutability (via the
//! Theorem 6.1 fast DTRS path under the first practical configuration).
//!
//! `Wallet::spend` (dams-node) runs [`validate_ring`] on the ladder's
//! answer against the spent token's batch snapshot before it signs; a
//! refused ring is never signed. It is polynomial, unlike the
//! BFS-internal exact checks.
//!
//! # Only the related set
//!
//! A ring that meets the first configuration contains or is disjoint from
//! every committed ring (Theorem 6.3), and the ring–token graph splits
//! into one component per super RS. So committing the candidate can
//! change only its related RS set (Definition 1): the committed rings it
//! reaches through shared tokens. [`validate_ring`] reads those rings and
//! no others, so its cost is proportional to the related set (a few rings
//! on the spend workloads), not to the batch:
//!
//! * the configuration check refuses a related ring that is not a subset
//!   of the candidate, which gives the answer
//!   [`satisfies_first_configuration`] gives over the whole history;
//! * the matching adversary runs on the related rings plus the candidate;
//! * the candidate's DTRS check uses v = 1 + the related set's size;
//! * immutability re-checks each related ring against its own claim; an
//!   unrelated ring's subset count does not change.
//!
//! [`validate_ring_reference`] is the whole-batch check it replaced, kept
//! as its test oracle. The two verdicts differ only when a ring outside
//! the related set is already broken (a claim its DTRSs fail, or a token
//! the adversary pins, as a zero-mixin ring does): the reference refuses
//! every otherwise eligible candidate of that batch, the related-set
//! check only the candidates that take the broken ring's component.

use crate::config::{dtrs_diverse_fast, dtrs_diverse_on, satisfies_first_configuration};
use dams_diversity::{
    analyze, eliminates_any, DiversityRequirement, HtHistogram, RingIndex, RingSet, TokenUniverse,
};

/// The validator's verdict: either eligible or the first failed constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Eligible,
    /// The ring's own HT multiset misses the requirement.
    DiversityViolated,
    /// The first practical configuration is violated (partial overlap).
    ConfigurationViolated,
    /// Committing the ring lets chain-reaction analysis eliminate a token
    /// of some ring (possibly this one).
    EliminationPossible,
    /// A DTRS of the new ring would violate the requirement.
    DtrsViolated,
    /// A previously committed ring would lose its claimed diversity.
    ImmutabilityViolated,
    /// The caller supplied fewer claims than committed rings, so
    /// immutability cannot be checked — reject rather than panic.
    ClaimsMissing,
}

/// Validate `candidate` (which will claim `req`) against the committed
/// `history` with claims `claims`, over `universe`, reading only the
/// candidate's related set (see the module docs). The checks run in
/// [`validate_ring_reference`]'s order, and `ClaimsMissing` is returned
/// whenever `claims.len() < history.len()` and no earlier check failed.
pub fn validate_ring(
    candidate: &RingSet,
    req: DiversityRequirement,
    history: &RingIndex,
    claims: &[DiversityRequirement],
    universe: &TokenUniverse,
) -> Verdict {
    // Diversity of the ring itself (Definition 4, condition 1).
    let hist = HtHistogram::from_ring(candidate, universe);
    if !req.satisfied_by(&hist) {
        return Verdict::DiversityViolated;
    }
    // First practical configuration. A related ring outside the candidate
    // has a partially overlapping ring on its path to the candidate.
    let related = history.related_set(candidate, None);
    if related
        .iter()
        .any(|&rs| !candidate.is_superset(history.ring(rs)))
    {
        return Verdict::ConfigurationViolated;
    }
    // Non-elimination on the candidate's component: the related rings
    // plus the candidate, read in place.
    let mut component: Vec<&RingSet> = related.iter().map(|&rs| history.ring(rs)).collect();
    component.push(candidate);
    if eliminates_any(&component) {
        return Verdict::EliminationPossible;
    }
    // DTRS diversity of the new ring (Definition 4, condition 2) via
    // Theorem 6.1: the candidate becomes a super RS containing every
    // related ring.
    if !dtrs_diverse_on(&hist, 1 + related.len(), req) {
        return Verdict::DtrsViolated;
    }
    // Immutability: each related ring's subset count grows by one. Every
    // superset of a related ring shares its tokens, so is related too.
    for &rs in &related {
        let Some(&claim) = claims.get(rs.0 as usize) else {
            return Verdict::ClaimsMissing;
        };
        let ring = history.ring(rs);
        let v_old = related
            .iter()
            .filter(|&&other| other != rs && history.ring(other).is_superset(ring))
            .count()
            + 1;
        if !dtrs_diverse_fast(ring, universe, v_old + 1, claim) {
            return Verdict::ImmutabilityViolated;
        }
    }
    if claims.len() < history.len() {
        return Verdict::ClaimsMissing;
    }
    Verdict::Eligible
}

/// The whole-batch validator [`validate_ring`] replaced, kept verbatim as
/// its test oracle: it clones the history to append the candidate, runs
/// the matching adversary over every ring and re-checks every committed
/// claim, so one already-broken ring refuses every candidate of its batch.
pub fn validate_ring_reference(
    candidate: &RingSet,
    req: DiversityRequirement,
    history: &RingIndex,
    claims: &[DiversityRequirement],
    universe: &TokenUniverse,
) -> Verdict {
    // Diversity of the ring itself (Definition 4, condition 1).
    if !req.satisfied_by(&HtHistogram::from_ring(candidate, universe)) {
        return Verdict::DiversityViolated;
    }
    // First practical configuration.
    if !satisfies_first_configuration(candidate, history) {
        return Verdict::ConfigurationViolated;
    }
    // Non-eliminated: append the candidate and ask the matching adversary
    // whether any ring's candidate set shrank below its full ring.
    let mut appended = history.clone();
    let new_id = appended.push(candidate.clone());
    let analysis = analyze(&appended, &[]);
    for (rs, ring) in appended.iter() {
        // A ring without a candidate entry is fully resolved — the
        // strongest form of elimination.
        let eliminated = analysis
            .candidates
            .get(&rs)
            .is_none_or(|cands| cands.len() != ring.len());
        if eliminated {
            let _ = new_id;
            return Verdict::EliminationPossible;
        }
    }
    // DTRS diversity of the new ring (Definition 4, condition 2) via
    // Theorem 6.1. Under the first configuration the candidate becomes a
    // super RS; its subset count is 1 + #history rings it contains.
    let v = 1 + history
        .iter()
        .filter(|(_, r)| candidate.is_superset(r))
        .count();
    if !dtrs_diverse_fast(candidate, universe, v, req) {
        return Verdict::DtrsViolated;
    }
    // Immutability: every committed ring keeps its claimed diversity.
    // Under the first configuration the candidate either contains or is
    // disjoint from each committed ring (Theorem 6.3); the contained
    // rings' subset counts grow by one, so re-check their DTRS diversity.
    for (rs, ring) in history.iter() {
        let Some(&claim) = claims.get(rs.0 as usize) else {
            return Verdict::ClaimsMissing;
        };
        let v_old = history
            .iter()
            .filter(|(other, r)| *other != rs && r.is_superset(ring))
            .count()
            + 1;
        let v_new = v_old + usize::from(candidate.is_superset(ring));
        if !dtrs_diverse_fast(ring, universe, v_new, claim) {
            return Verdict::ImmutabilityViolated;
        }
    }
    Verdict::Eligible
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{ring, HtId};

    fn uni(hts: &[u32]) -> TokenUniverse {
        TokenUniverse::new(hts.iter().map(|&h| HtId(h)).collect())
    }

    #[test]
    fn example1_good_solution_is_eligible() {
        // t1..t4 = ids 0..3; HTs h1,h2,h1,h3; history r1 = r2 = {0,1}.
        let universe = uni(&[1, 2, 1, 3]);
        let history = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1])]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 2];
        let verdict = validate_ring(
            &ring(&[2, 3]),
            DiversityRequirement::new(2.0, 1),
            &history,
            &claims,
            &universe,
        );
        assert_eq!(verdict, Verdict::Eligible);
        // The first practical configuration admits a ring that contains a
        // committed ring as well as one disjoint from it: over one ring
        // {0, 1} on distinct HTs both are eligible.
        let universe = uni(&[1, 2, 3, 4, 5, 6]);
        let history = RingIndex::from_rings([ring(&[0, 1])]);
        let claims = [DiversityRequirement::new(2.0, 1)];
        for candidate in [ring(&[0, 1, 2, 3]), ring(&[4, 5])] {
            let verdict = validate_ring(
                &candidate,
                DiversityRequirement::new(2.0, 1),
                &history,
                &claims,
                &universe,
            );
            assert_eq!(verdict, Verdict::Eligible, "{candidate:?}");
        }
    }

    #[test]
    fn example1_solution_two_is_eliminable() {
        let universe = uni(&[1, 2, 1, 3]);
        let history = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1])]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 2];
        // {t2, t3} = {1, 2}: overlap without containment → config violated
        // before the elimination check even runs.
        let verdict = validate_ring(
            &ring(&[1, 2]),
            DiversityRequirement::new(2.0, 1),
            &history,
            &claims,
            &universe,
        );
        assert_eq!(verdict, Verdict::ConfigurationViolated);
    }

    #[test]
    fn homogeneous_ring_fails_dtrs() {
        // Disjoint from history, diverse enough for (5,1) on its own HT
        // multiset? {0, 2} both h1 → q=[2]: 2 < 5·2 ✓ diversity passes,
        // but the empty-side-information DTRS argument shows the HT leaks:
        // Theorem 6.1 with v = 1... ψ exists only if v >= |r| - |T̃| + 1 =
        // 2 - 2 + 1 = 1 ✓ → ψ = {} with q = [] violating any (c, l>=1)?
        // Empty histograms never satisfy, so DTRS check fails. Exactly the
        // homogeneity attack caught through the DTRS lens.
        let universe = uni(&[1, 2, 1, 3]);
        let history = RingIndex::new();
        let verdict = validate_ring(
            &ring(&[0, 2]),
            DiversityRequirement::new(5.0, 1),
            &history,
            &[],
            &universe,
        );
        assert_eq!(verdict, Verdict::DtrsViolated);
    }

    #[test]
    fn diversity_violation_detected_first() {
        let universe = uni(&[1, 1, 1, 1]);
        let verdict = validate_ring(
            &ring(&[0, 1, 2]),
            DiversityRequirement::new(0.5, 1),
            &RingIndex::new(),
            &[],
            &universe,
        );
        assert_eq!(verdict, Verdict::DiversityViolated);
    }

    #[test]
    fn stranding_ring_is_eliminable() {
        // History r1={0,2}, r2={0,1}: candidate {0,1,2} (superset of both)
        // would prove all three tokens consumed and pin a later {x,3} ring;
        // more immediately, committing it lets the adversary eliminate:
        // after the commit, candidates of each ring shrink? The union of
        // the 3 rings is {0,1,2} with 3 rings → every saturating matching
        // covers all three; each ring's candidate set stays full though.
        // The elimination shows up for the *next* ring; the η guard is the
        // paper's answer there. Here we check a direct elimination case:
        // candidate {1,2} against r1={1,2}, r2={1,2} triplicates the pair.
        let universe = uni(&[1, 2, 3, 4]);
        let history = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2])]);
        let claims = vec![DiversityRequirement::new(9.0, 1); 2];
        let verdict = validate_ring(
            &ring(&[1, 2, 3]),
            DiversityRequirement::new(9.0, 1),
            &history,
            &claims,
            &universe,
        );
        // {1,2} both consumed in history → candidate's own spend is pinned
        // to 3: elimination possible.
        assert_eq!(verdict, Verdict::EliminationPossible);
    }

    #[test]
    fn immutability_guarded_by_claims() {
        // History ring {0,1} with both tokens from h1 claims (3, 1):
        // its own DTRS (empty set, HT determined) violates (3,1) as soon
        // as v reaches |r| — which the superset candidate causes.
        let universe = uni(&[1, 1, 2, 3, 4]);
        let history = RingIndex::from_rings([ring(&[0, 1])]);
        let claims = vec![DiversityRequirement::new(3.0, 1)];
        let verdict = validate_ring(
            &ring(&[0, 1, 2, 3]),
            DiversityRequirement::new(3.0, 1),
            &history,
            &claims,
            &universe,
        );
        assert_eq!(verdict, Verdict::ImmutabilityViolated);
    }

    /// Both validators' verdicts on one candidate: (related-set, reference).
    fn verdicts(
        candidate: &RingSet,
        req: DiversityRequirement,
        history: &RingIndex,
        claims: &[DiversityRequirement],
        universe: &TokenUniverse,
    ) -> (Verdict, Verdict) {
        (
            validate_ring(candidate, req, history, claims, universe),
            validate_ring_reference(candidate, req, history, claims, universe),
        )
    }

    #[test]
    fn broken_claim_blocks_only_its_own_component() {
        // The one ring {0, 1} has both tokens from h1 and claims (3, 1).
        // Its one DTRS, the empty set, already fails that claim, though its
        // own histogram satisfies it. The whole-batch reference refuses a
        // disjoint candidate for it; the related-set check does not.
        let universe = uni(&[1, 1, 2, 3, 4]);
        let history = RingIndex::from_rings([ring(&[0, 1])]);
        let claims = [DiversityRequirement::new(3.0, 1)];
        let req = DiversityRequirement::new(3.0, 1);
        assert_eq!(
            verdicts(&ring(&[2, 3, 4]), req, &history, &claims, &universe),
            (Verdict::Eligible, Verdict::ImmutabilityViolated)
        );
        // A candidate that contains the broken ring is still refused.
        assert_eq!(
            verdicts(&ring(&[0, 1, 2, 3]), req, &history, &claims, &universe),
            (Verdict::ImmutabilityViolated, Verdict::ImmutabilityViolated)
        );
    }

    #[test]
    fn pinned_token_blocks_only_its_own_component() {
        // A zero-mixin ring {1} pins token 1, so the adversary eliminates
        // it from the neighbouring ring {0, 1}, whose signer is then known.
        let universe = uni(&[1, 2, 3, 4, 5]);
        let history = RingIndex::from_rings([ring(&[0, 1]), ring(&[1])]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 2];
        let req = DiversityRequirement::new(2.0, 1);
        assert_eq!(
            verdicts(&ring(&[2, 3, 4]), req, &history, &claims, &universe),
            (Verdict::Eligible, Verdict::EliminationPossible)
        );
        // A candidate that takes the component is still refused.
        assert_eq!(
            verdicts(&ring(&[0, 1, 2, 3]), req, &history, &claims, &universe),
            (Verdict::EliminationPossible, Verdict::EliminationPossible)
        );
    }

    #[test]
    fn missing_claims_are_refused_even_outside_the_related_set() {
        // The candidate is disjoint from both rings, so every related ring
        // (none) has a claim; the second ring's claim is still missing.
        let universe = uni(&[1, 2, 3, 4, 5, 6]);
        let history = RingIndex::from_rings([ring(&[0, 1]), ring(&[2, 3])]);
        let claims = [DiversityRequirement::new(2.0, 1)];
        let req = DiversityRequirement::new(2.0, 1);
        for candidate in [ring(&[4, 5]), ring(&[0, 1, 4])] {
            assert_eq!(
                verdicts(&candidate, req, &history, &claims, &universe),
                (Verdict::ClaimsMissing, Verdict::ClaimsMissing),
                "{candidate:?}"
            );
        }
    }
}
