//! The bitset GetDTRSs kernel against the seed implementation it
//! replaced: `enumerate_dtrs` must return `enumerate_dtrs_reference`'s
//! output byte for byte, for every target slot.
//!
//! A 256-seed sweep covers random small instances — possible worlds from
//! the world enumerator, analysis sets that repeat a ring, and arbitrary
//! hand-built combinations that need not be matchings. Fixed cases cover
//! multi-word bitsets (many pairs, many worlds), the empty DTRS, the empty
//! world set and a repeated ring on its own.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_diversity::{
    enumerate_combinations, enumerate_dtrs, enumerate_dtrs_reference, ring, Combination, HtId,
    RingIndex, RingSet, RsId, TokenId, TokenUniverse,
};

const SEEDS: u64 = 256;

/// Compare the kernel with the reference on every target slot; returns
/// how many DTRSs the reference found in total.
fn assert_same(
    combos: &[Combination],
    rings: &[RsId],
    universe: &TokenUniverse,
    what: &str,
) -> usize {
    let mut total = 0;
    for slot in 0..rings.len() {
        let reference = enumerate_dtrs_reference(combos, rings, slot, universe);
        let kernel = enumerate_dtrs(combos, rings, slot, universe);
        assert_eq!(kernel, reference, "{what}: target slot {slot}");
        total += reference.len();
    }
    total
}

/// ≤ 8 tokens over 1–4 HTs and 1–4 rings of 1–3 tokens.
fn random_instance(rng: &mut StdRng) -> (RingIndex, TokenUniverse) {
    let n_tokens = rng.gen_range(3..=8u32);
    let n_hts = rng.gen_range(1..=4u32);
    let universe = TokenUniverse::new(
        (0..n_tokens)
            .map(|_| HtId(rng.gen_range(0..n_hts)))
            .collect(),
    );
    let mut index = RingIndex::new();
    for _ in 0..rng.gen_range(1..=4) {
        let len = rng.gen_range(1..=3);
        index.push(RingSet::new(
            (0..len).map(|_| TokenId(rng.gen_range(0..n_tokens))),
        ));
    }
    (index, universe)
}

#[test]
fn kernel_matches_reference_across_256_seeds() {
    let mut dtrs_seen = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (index, universe) = random_instance(&mut rng);

        // The possible worlds of every ring, as the exact BFS builds them.
        let mut rings: Vec<RsId> = index.ids().collect();
        let combos = enumerate_combinations(&index, &rings);
        dtrs_seen += assert_same(
            &combos,
            &rings,
            &universe,
            &format!("seed {seed}: all rings"),
        );

        // The same instance with one ring named twice.
        rings.push(rings[rng.gen_range(0..rings.len())]);
        let combos = enumerate_combinations(&index, &rings);
        assert_same(
            &combos,
            &rings,
            &universe,
            &format!("seed {seed}: repeated ring"),
        );

        // Hand-built combinations: any token in any slot, repeats allowed.
        let n_tokens = universe.len() as u32;
        let combos: Vec<Combination> = (0..rng.gen_range(1..=12))
            .map(|_| {
                (0..rings.len())
                    .map(|_| TokenId(rng.gen_range(0..n_tokens)))
                    .collect()
            })
            .collect();
        assert_same(
            &combos,
            &rings,
            &universe,
            &format!("seed {seed}: hand-built"),
        );
    }
    assert!(
        dtrs_seen > SEEDS as usize,
        "the sweep must reach non-trivial DTRSs ({dtrs_seen})"
    );
}

#[test]
fn multi_word_bitsets_match_the_reference() {
    // Two copies of a 41-token ring and a 2-token target sharing token 40:
    // 82 distinct non-target pairs and 3,240 worlds, so both the pair sets
    // and the combination sets span several words, and the target's
    // DTRSs name the two highest-numbered pairs, in the second word.
    let wide: Vec<u32> = (0..41).collect();
    let index = RingIndex::from_rings([ring(&wide), ring(&wide), ring(&[40, 41])]);
    let universe = TokenUniverse::new((0..42).map(|t| HtId(t % 7)).collect());
    let rings: Vec<RsId> = index.ids().collect();
    let combos = enumerate_combinations(&index, &rings);
    assert!(combos.len() > 64, "{} worlds", combos.len());
    let slots: std::collections::BTreeSet<_> =
        combos.iter().flat_map(|c| [(c[0], 0), (c[1], 1)]).collect();
    assert!(slots.len() > 64, "{} pairs", slots.len());
    assert!(assert_same(&combos, &rings, &universe, "multi-word") > 0);

    // The target's DTRSs: revealing that token 40 went to either wide ring.
    let dtrs = enumerate_dtrs(&combos, &rings, 2, &universe);
    let singletons: Vec<_> = dtrs
        .iter()
        .map(|d| (d.pairs[0].token, d.pairs[0].rs))
        .collect();
    assert_eq!(
        singletons,
        vec![(TokenId(40), RsId(0)), (TokenId(40), RsId(1))]
    );
    assert!(dtrs
        .iter()
        .all(|d| d.pairs.len() == 1 && d.determined_ht == HtId(41 % 7)));
}

#[test]
fn hand_built_worlds_spanning_three_words_match_the_reference() {
    // 150 random worlds over three rings of nine tokens in three HTs: the
    // world bitsets span three words, and many DTRSs are decided by worlds
    // outside the first word.
    let mut rng = StdRng::seed_from_u64(150);
    let universe = TokenUniverse::new((0..9).map(|t| HtId(t % 3)).collect());
    let rings = [RsId(0), RsId(1), RsId(2)];
    let combos: Vec<Combination> = (0..150)
        .map(|_| (0..3).map(|_| TokenId(rng.gen_range(0..9u32))).collect())
        .collect();
    assert!(assert_same(&combos, &rings, &universe, "three words") > 64);
}

#[test]
fn agreeing_worlds_give_one_empty_dtrs() {
    // Every world has the target consume token 3.
    let index = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2]), ring(&[2, 3])]);
    let universe = TokenUniverse::new(vec![HtId(0), HtId(1), HtId(2), HtId(3)]);
    let rings: Vec<RsId> = index.ids().collect();
    let combos = enumerate_combinations(&index, &rings);
    assert_same(&combos, &rings, &universe, "agreeing");
    let dtrs = enumerate_dtrs(&combos, &rings, 2, &universe);
    assert_eq!(dtrs.len(), 1);
    assert!(dtrs[0].pairs.is_empty());
    assert_eq!(dtrs[0].determined_ht, HtId(3));
}

#[test]
fn empty_world_set_has_no_dtrs() {
    // Two rings over one token have no matching at all.
    let index = RingIndex::from_rings([ring(&[1]), ring(&[1])]);
    let universe = TokenUniverse::new(vec![HtId(0), HtId(1)]);
    let rings: Vec<RsId> = index.ids().collect();
    let combos = enumerate_combinations(&index, &rings);
    assert!(combos.is_empty());
    assert_eq!(assert_same(&combos, &rings, &universe, "no worlds"), 0);
    assert!(enumerate_dtrs(&[], &rings, 0, &universe).is_empty());
}

#[test]
fn analysis_set_naming_one_ring_twice() {
    // Ring 0 fills two slots, so its pairs resolve to its first slot in
    // both implementations.
    let index = RingIndex::from_rings([ring(&[1, 2, 3]), ring(&[3, 4])]);
    let universe = TokenUniverse::new(vec![HtId(9), HtId(1), HtId(2), HtId(3), HtId(4)]);
    let rings = [RsId(0), RsId(0), RsId(1)];
    let combos = enumerate_combinations(&index, &rings);
    assert!(!combos.is_empty());
    assert!(assert_same(&combos, &rings, &universe, "repeated ring") > 0);
}
