//! 64-seed property sweeps over the adversary suite (`attacks.rs`),
//! side-information monotonicity (`side_info.rs`), and homogeneity-probe
//! invariance (`homogeneity.rs`).
//!
//! The traces are built by a small in-test generator rather than the
//! workload crate's (`dams-workload` depends on this crate, so the real
//! generator cannot be a dev-dependency here). The shape matches:
//! block-structured mints, exponentially aged spends, a fixed ring size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_diversity::homogeneity::probe_ring;
use dams_diversity::{
    graph_matching, run_attack_observed, AttackConfig, AttackMetrics, ChainTrace, HtId, RingSet,
    TokenId, TokenRsPair, TokenUniverse,
};
use dams_obs::Registry;

const SEEDS: u64 = 64;

/// A compact seeded chain: `tokens` mints across `tokens / 4` blocks,
/// one ring per block from height 2 on, ring size 4.
fn toy_trace(seed: u64) -> ChainTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let tokens = 48u32;
    let ht_of: Vec<HtId> = (0..tokens).map(|_| HtId(rng.gen_range(0..6u32))).collect();
    let universe = TokenUniverse::new(ht_of.clone());
    let birth_height: Vec<u64> = (0..tokens).map(|t| u64::from(t) / 4).collect();

    let mut spent = vec![false; tokens as usize];
    let mut rings = Vec::new();
    let mut truth = Vec::new();
    let mut spend_height = Vec::new();
    for height in 2..(u64::from(tokens) / 4) {
        let minted = ((height + 1) * 4) as u32;
        // True spend: a young unspent token.
        let truth_tok = (0..minted)
            .rev()
            .find(|&t| !spent[t as usize] && birth_height[t as usize] < height)
            .expect("young unspent token exists");
        spent[truth_tok as usize] = true;
        let mut members = vec![TokenId(truth_tok)];
        while members.len() < 4 {
            let t = TokenId(rng.gen_range(0..minted));
            if birth_height[t.0 as usize] < height && !members.contains(&t) {
                members.push(t);
            }
        }
        rings.push(RingSet::new(members));
        truth.push(TokenId(truth_tok));
        spend_height.push(height);
    }
    ChainTrace {
        universe,
        rings,
        truth,
        birth_height,
        spend_height,
    }
}

/// Replay determinism: one (trace, config) pair always produces a
/// byte-identical report, across all 64 seeds and every strength.
#[test]
fn attack_replay_is_byte_identical_across_64_seeds() {
    let registry = Registry::new();
    let metrics = AttackMetrics::in_registry(&registry);
    for seed in 0..SEEDS {
        let trace = toy_trace(seed);
        for strength in 0..=3u32 {
            let config = AttackConfig { strength, seed };
            let a = run_attack_observed(&trace, config, &metrics);
            let b = run_attack_observed(&trace, config, &metrics);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "seed {seed} f={strength} diverged on replay"
            );
        }
    }
}

/// Side-information monotonicity (Theorem 6.2's direction): feeding the
/// graph-matching adversary a *superset* of leaked pairs never increases
/// the mean effective anonymity-set size, and never decreases the number
/// of resolved rings.
#[test]
fn more_side_information_never_helps_the_defender() {
    for seed in 0..SEEDS {
        let trace = toy_trace(seed);
        let full = AttackConfig { strength: 3, seed }.leaked_pairs(&trace);
        let mut prev = graph_matching(&trace, &[]);
        for k in 1..=full.len() {
            let cur = graph_matching(&trace, &full[..k]);
            assert!(
                cur.mean_candidates <= prev.mean_candidates + 1e-9,
                "seed {seed}: anonymity grew from {} to {} at {k} leaked pairs",
                prev.mean_candidates,
                cur.mean_candidates
            );
            assert!(
                cur.resolved >= prev.resolved,
                "seed {seed}: resolutions dropped from {} to {} at {k} leaked pairs",
                prev.resolved,
                cur.resolved
            );
            prev = cur;
        }
    }
}

/// Stronger configured adversaries hold at least as many leaked pairs,
/// and a strength-0 adversary holds none.
#[test]
fn leak_cardinality_scales_with_strength() {
    for seed in 0..SEEDS {
        let trace = toy_trace(seed);
        let mut prev = 0usize;
        for strength in 0..=3u32 {
            let n = AttackConfig { strength, seed }.leaked_pairs(&trace).len();
            if strength == 0 {
                assert_eq!(n, 0, "seed {seed}: outside observer leaked {n} pairs");
            }
            assert!(
                n >= prev,
                "seed {seed}: strength {strength} leaked {n} < {prev}"
            );
            prev = n;
        }
    }
}

/// The homogeneity probe is a function of the ring's token *set*: any
/// permutation of the member order yields an identical report.
#[test]
fn homogeneity_verdict_is_stable_under_ring_permutation() {
    for seed in 0..SEEDS {
        let trace = toy_trace(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for ring in &trace.rings {
            let base = probe_ring(ring, &trace.universe);
            let mut tokens: Vec<TokenId> = ring.tokens().to_vec();
            for _ in 0..4 {
                // Fisher–Yates reshuffle of the member order.
                for i in (1..tokens.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    tokens.swap(i, j);
                }
                let shuffled = probe_ring(&RingSet::new(tokens.clone()), &trace.universe);
                assert_eq!(
                    base, shuffled,
                    "seed {seed}: homogeneity verdict depended on member order"
                );
            }
        }
    }
}

/// Ground-truth sanity on the in-test generator itself: every ring
/// contains its true spend, and no token is spent twice.
#[test]
fn toy_traces_are_well_formed() {
    for seed in 0..SEEDS {
        let trace = toy_trace(seed);
        assert!(!trace.is_empty());
        let mut seen: Vec<TokenId> = Vec::new();
        for (i, ring) in trace.rings.iter().enumerate() {
            let t = trace.truth[i];
            assert!(
                ring.tokens().contains(&t),
                "seed {seed}: ring {i} lacks truth"
            );
            assert!(!seen.contains(&t), "seed {seed}: double spend of {t:?}");
            seen.push(t);
        }
        // The leak really is the ground truth.
        for p in (AttackConfig { strength: 3, seed }).leaked_pairs(&trace) {
            assert_eq!(
                p,
                TokenRsPair::new(trace.truth[p.rs.0 as usize], p.rs),
                "seed {seed}: leaked pair is not ground truth"
            );
        }
    }
}
