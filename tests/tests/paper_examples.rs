//! Every worked example in the paper, encoded as a test. Token t_k of the
//! paper is id k−1 unless noted.

use dams_core::{bfs, BfsBudget, Instance, SelectError};
use dams_diversity::{
    analyze, analyze_exact, enumerate_combinations, enumerate_dtrs, homogeneity::probe_ring,
    DiversityRequirement, HtHistogram, HtId, RingIndex, RingSet, RsId, TokenId, TokenRsPair,
    TokenUniverse,
};

fn ids(v: &[u32]) -> RingSet {
    RingSet::new(v.iter().copied().map(TokenId))
}

/// §1, Example 1: four tokens, r1 = r2 = {t1, t2}; spend t3.
/// HTs: t1, t3 ← h1; t2 ← h2; t4 ← h3.
mod example_1 {
    use super::*;

    fn universe() -> TokenUniverse {
        TokenUniverse::new(vec![HtId(1), HtId(2), HtId(1), HtId(3)])
    }

    #[test]
    fn solution_1_homogeneity() {
        // r3 = {t1, t3}: "adversaries ... directly know the consumed token
        // of r3 is from h1".
        let rep = probe_ring(&ids(&[0, 2]), &universe());
        assert_eq!(rep.revealed_ht, Some(HtId(1)));
    }

    #[test]
    fn solution_2_chain_reaction() {
        // r3 = {t2, t3}: "the consumed token in r3 must be t3".
        let idx = RingIndex::from_rings([ids(&[0, 1]), ids(&[0, 1]), ids(&[1, 2])]);
        assert_eq!(analyze(&idx, &[]).resolved(RsId(2)), Some(TokenId(2)));
    }

    #[test]
    fn solution_3_safe_but_large() {
        // r3 = {t1..t4}: consumed tokens of r1, r2, r3 cannot be inferred,
        // but |r3| = 4.
        let idx = RingIndex::from_rings([ids(&[0, 1]), ids(&[0, 1]), ids(&[0, 1, 2, 3])]);
        let a = analyze(&idx, &[]);
        assert_eq!(a.resolved(RsId(2)), None);
        assert_eq!(idx.ring(RsId(2)).len(), 4);
    }

    #[test]
    fn good_solution_small_and_safe() {
        // r3 = {t3, t4}: safe and only 2 tokens — and the exact BFS finds
        // exactly it.
        let inst = Instance::new(
            universe(),
            RingIndex::from_rings([ids(&[0, 1]), ids(&[0, 1])]),
            vec![DiversityRequirement::new(2.0, 1); 2],
        );
        let sel = bfs(
            &inst,
            TokenId(2),
            DiversityRequirement::new(2.0, 1),
            BfsBudget::default(),
        )
        .unwrap();
        assert_eq!(sel.ring, ids(&[2, 3]));
    }
}

/// §2.2–2.4, Example 2: five rings; t5, t6 share h1.
mod example_2 {
    use super::*;

    fn rings() -> RingIndex {
        RingIndex::from_rings([
            ids(&[1, 2, 5]), // r1
            ids(&[1, 3]),    // r2
            ids(&[1, 3]),    // r3
            ids(&[2, 4]),    // r4
            ids(&[4, 5, 6]), // r5
        ])
    }

    fn universe() -> TokenUniverse {
        // ids: 0 filler; t1..t4 distinct HTs; t5, t6 ← h1
        TokenUniverse::new(vec![
            HtId(99),
            HtId(2),
            HtId(3),
            HtId(4),
            HtId(5),
            HtId(1),
            HtId(1),
        ])
    }

    #[test]
    fn related_set_of_r4() {
        // "R_π^{r4} = {r1, r2, r3, r5}".
        let idx = rings();
        assert_eq!(
            idx.related_set(idx.ring(RsId(3)), Some(RsId(3))),
            vec![RsId(0), RsId(1), RsId(2), RsId(4)]
        );
    }

    #[test]
    fn dtrs_of_r5_is_t2_r1() {
        // "{⟨t2, r1⟩} is a DTRS of r5 ... the consumed token in r5 must be
        // t5 or t6, who are from HT h1."
        let idx = rings();
        let all: Vec<RsId> = idx.ids().collect();
        let combos = enumerate_combinations(&idx, &all);
        let dtrs = enumerate_dtrs(&combos, &all, 4, &universe());
        assert!(dtrs.iter().any(|d| {
            d.pairs == vec![TokenRsPair::new(TokenId(2), RsId(0))] && d.determined_ht == HtId(1)
        }));
    }

    #[test]
    fn side_information_eliminates_dtrs() {
        // §2.4: "If adversaries know t5 is consumed in r5 ... conclude that
        // t4 is the consumed token of r4."
        let idx = rings();
        let a = analyze(&idx, &[TokenRsPair::new(TokenId(5), RsId(4))]);
        assert_eq!(a.resolved(RsId(3)), Some(TokenId(4)));
    }

    #[test]
    fn section_3_1_cascade() {
        // §3.1: "if a new RS r6 = {t2, t4} is proposed, adversaries can
        // infer that the consumed token of r1 is t5 and the consumed token
        // of r5 is t6."
        let mut idx = rings();
        idx.push(ids(&[2, 4])); // r6
        let a = analyze_exact(&idx, &[]);
        assert_eq!(a.resolved(RsId(0)), Some(TokenId(5)), "{a:?}");
        assert_eq!(a.resolved(RsId(4)), Some(TokenId(6)));
    }
}

/// §2.5's recursive-diversity walkthrough: r3 = {t1, t3, t4} with t1, t3
/// from h1 and t4 from h2; r1 = {t1, t2}, r2 = {t2, t3}.
mod section_2_5 {
    use super::*;

    #[test]
    fn requirement_2_1_satisfied_3_2_not() {
        // q = [2, 1]: (2,1) holds both conditions; (3,2) holds the first,
        // violates the second (the DTRS has q = [2] and an empty tail).
        let ring_hist = HtHistogram::from_hts([HtId(1), HtId(1), HtId(2)]);
        let dtrs_hist = HtHistogram::from_hts([HtId(1), HtId(1)]);
        let r21 = DiversityRequirement::new(2.0, 1);
        assert!(r21.satisfied_by(&ring_hist));
        assert!(r21.satisfied_by(&dtrs_hist));
        let r32 = DiversityRequirement::new(3.0, 2);
        assert!(r32.satisfied_by(&ring_hist));
        assert!(!r32.satisfied_by(&dtrs_hist));
    }
}

/// §6's opening example: four tokens from four HTs; three users commit
/// overlapping rings with escalating claims, stranding the fourth user —
/// the motivation for the practical configurations.
mod section_6_dead_end {
    use super::*;

    #[test]
    fn fourth_user_cannot_spend_t2() {
        // T = {t1..t4} (ids 0..3), four distinct HTs.
        // r1 = {t1,t2,t3} claims (1,2); r2 = {t1,t2,t4} claims (2,3);
        // r3 = {t1,t2,t3,t4} claims (1,3). The fourth user wants t2.
        let universe = TokenUniverse::new(vec![HtId(0), HtId(1), HtId(2), HtId(3)]);
        let rings = RingIndex::from_rings([ids(&[0, 1, 2]), ids(&[0, 1, 3]), ids(&[0, 1, 2, 3])]);
        let claims = vec![
            DiversityRequirement::new(1.0, 2),
            DiversityRequirement::new(2.0, 3),
            DiversityRequirement::new(1.0, 3),
        ];
        let inst = Instance::new(universe, rings, claims);
        // Any requirement for the new ring: the committed structure leaves
        // no eligible ring for t2 (id 1) — every candidate breaks some
        // committed claim or the non-eliminated constraint.
        let result = bfs(
            &inst,
            TokenId(1),
            DiversityRequirement::new(2.0, 1),
            BfsBudget::default(),
        );
        assert_eq!(result.unwrap_err(), SelectError::Infeasible);
    }
}

/// §6.1's super-RS walkthrough: r1 = {t1,t2} then r2 = {t1,t2,t3} then
/// r3 = {t4,t5}; T = {t1..t6}. Super RSs are r2 (v = 2) and r3; t6 fresh.
mod section_6_1_supers {
    use super::*;
    use dams_core::{ModularInstance, ModuleKind};

    #[test]
    fn decomposition_matches_paper() {
        let universe = TokenUniverse::new((0..6).map(HtId).collect());
        let rings = RingIndex::from_rings([ids(&[0, 1]), ids(&[0, 1, 2]), ids(&[3, 4])]);
        let claims = vec![DiversityRequirement::new(1.0, 1); 3];
        let inst = Instance::new(universe, rings, claims);
        let m = ModularInstance::decompose(&inst).unwrap();
        assert_eq!(m.super_count(), 2);
        let r2_module = m
            .modules()
            .iter()
            .find(|x| x.kind == ModuleKind::SuperRs(RsId(1)))
            .expect("r2 is super");
        assert_eq!(m.subset_count(r2_module.id), 2, "r1 and r2 ⊆ r2");
        assert!(m
            .modules()
            .iter()
            .any(|x| x.kind == ModuleKind::FreshToken && x.tokens.contains(TokenId(5))));
    }
}
