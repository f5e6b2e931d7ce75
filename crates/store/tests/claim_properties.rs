//! The ledger claim check, [`claim_violations`], against an oracle built
//! from the definitions. Over 64 seeded random ledgers that mix honest,
//! lying and junk claims, the flagged ring inputs are exactly those whose
//! claim `claimed_requirement` accepts, whose ring names only tokens the
//! universe knows, and whose ring's origin histogram fails the claim.
//! The oracle builds that histogram straight from the token records'
//! `origin`, not from `chain_universe`.

use std::collections::{HashMap, HashSet};

use dams_blockchain::{Amount, Chain, NoConfiguration, TokenId, TokenOutput, Transaction};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::{HtHistogram, HtId, TokenUniverse};
use dams_store::{chain_universe, claim_violations, claimed_requirement, recheck_immutability};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

/// Claims no honest wallet makes. NaN, 0, −1 and ℓ = 0 assert nothing;
/// ∞ and an ℓ above every ring size the ledgers draw are accepted and
/// left to the histogram.
const JUNK: [(f64, usize); 6] = [
    (f64::NAN, 2),
    (0.0, 1),
    (-1.0, 2),
    (f64::INFINITY, 1),
    (1.0, 0),
    (1.0, 9),
];

/// The HT histogram of `ring`, one HT per origin transaction.
fn origin_histogram(chain: &Chain, ring: &[TokenId]) -> HtHistogram {
    HtHistogram::from_hts(
        ring.iter()
            .map(|&t| HtId(chain.token(t).expect("ring names a minted token").origin.0 as u32)),
    )
}

/// A claim for `ring`: honest (holds on its origin histogram), lying
/// (fails it), junk, or drawn at random, in equal shares.
fn draw_claim(chain: &Chain, ring: &[TokenId], rng: &mut StdRng) -> (f64, usize) {
    let hist = origin_histogram(chain, ring);
    match rng.gen_range(0..4) {
        // q1 < (q1 + 1) · q_θ, since q_θ ≥ 1.
        0 => ((hist.q1() + 1) as f64, hist.theta()),
        // Past θ the tail is empty, so no c can hold.
        1 => (1.0, hist.theta() + 1),
        2 => JUNK[rng.gen_range(0..JUNK.len())],
        _ => (
            [0.5, 1.0, 2.0][rng.gen_range(0..3usize)],
            rng.gen_range(1..=3usize),
        ),
    }
}

/// One output to a fresh key, so every token has its own key image.
fn fresh_output(chain: &Chain, keys: &mut HashMap<u64, KeyPair>, rng: &mut StdRng) -> TokenOutput {
    let key = KeyPair::generate(chain.group(), rng);
    let owner = key.public;
    keys.insert(owner.value(), key);
    TokenOutput {
        owner,
        amount: Amount(1),
    }
}

/// A random ledger of eight blocks: coinbases of 1–3 tokens interleaved
/// with spend blocks of 1–2 transactions, each of 1–2 ring inputs over
/// 1–4 members that carry a [`draw_claim`]. Also returns the universe of
/// the ledger at a random earlier height: the ledger of a receiver that is
/// behind, judging the later blocks at gossip intake.
fn random_ledger(seed: u64) -> (Chain, TokenUniverse) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chain = Chain::new(SchnorrGroup::default());
    let mut keys = HashMap::new();
    let mut spent: HashSet<TokenId> = HashSet::new();
    let rounds = 8;
    let behind_at = rng.gen_range(1..rounds);
    let mut behind = None;
    for round in 0..rounds {
        if round == behind_at {
            behind = Some(chain_universe(&chain));
        }
        if round == 0 || spent.len() == chain.token_count() || rng.gen_bool(0.4) {
            let outs = (0..rng.gen_range(1..=3))
                .map(|_| fresh_output(&chain, &mut keys, &mut rng))
                .collect();
            chain.submit_coinbase(outs);
            chain.seal_block().expect("coinbase seals");
            continue;
        }
        for _ in 0..rng.gen_range(1..=2) {
            let mut tx = Transaction {
                inputs: vec![],
                outputs: vec![fresh_output(&chain, &mut keys, &mut rng)],
                memo: vec![],
            };
            // The signing payload covers outputs and memo only, so inputs
            // signed one at a time all verify.
            for _ in 0..rng.gen_range(1..=2) {
                let unspent: Vec<TokenId> = (0..chain.token_count() as u64)
                    .map(TokenId)
                    .filter(|t| !spent.contains(t))
                    .collect();
                if unspent.is_empty() {
                    break;
                }
                let signer = unspent[rng.gen_range(0..unspent.len())];
                let mut ring = vec![signer];
                for _ in 0..rng.gen_range(0..=3) {
                    let t = TokenId(rng.gen_range(0..chain.token_count() as u64));
                    if !ring.contains(&t) {
                        ring.push(t);
                    }
                }
                let key = &keys[&chain.token(signer).unwrap().owner.value()];
                let claim = draw_claim(&chain, &ring, &mut rng);
                let input = chain
                    .sign_ring_input(&tx, &ring, key, claim, &mut rng)
                    .expect("signable ring");
                tx.inputs.push(input);
                spent.insert(signer);
            }
            if !tx.inputs.is_empty() {
                chain.submit(tx, &NoConfiguration).expect("chain accepts");
            }
        }
        chain.seal_block().expect("spend block seals");
    }
    (chain, behind.expect("an earlier height was recorded"))
}

/// What the oracle saw, summed over the sweep, so the sweep can show it
/// reached every branch of the rule.
#[derive(Default)]
struct Coverage {
    flagged: usize,
    held: usize,
    junk_skipped: usize,
    unknown_skipped: usize,
}

/// The oracle: every ring input of `chain` as `(block height,
/// commit-order index)` whose claim asserts something, whose ring names
/// only tokens below `known`, and whose origin histogram fails the claim.
fn expected_violations(chain: &Chain, known: usize, cov: &mut Coverage) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut index = 0u64;
    for block in chain.blocks() {
        for input in block.transactions.iter().flat_map(|ct| &ct.tx.inputs) {
            let here = index;
            index += 1;
            let Some(req) = claimed_requirement(input.claimed_c, input.claimed_l) else {
                cov.junk_skipped += 1;
                continue;
            };
            if input.ring.iter().any(|t| t.0 as usize >= known) {
                cov.unknown_skipped += 1;
                continue;
            }
            if req.satisfied_by(&origin_histogram(chain, &input.ring)) {
                cov.held += 1;
            } else {
                cov.flagged += 1;
                out.push((block.header.height.0, here));
            }
        }
    }
    out
}

#[test]
fn claim_violations_match_the_definition_oracle() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        let (chain, behind) = random_ledger(seed);

        // The whole ledger, as `Store::open` and the auditor judge it.
        let universe = chain_universe(&chain);
        let got: Vec<(u64, u64)> = claim_violations(chain.blocks(), &universe).collect();
        let want = expected_violations(&chain, chain.token_count(), &mut cov);
        assert_eq!(got, want, "seed {seed}: whole ledger");
        let check = recheck_immutability(&chain);
        assert_eq!(check.violations, want, "seed {seed}: recheck");
        let inputs: usize = chain
            .blocks()
            .iter()
            .flat_map(|b| &b.transactions)
            .map(|ct| ct.tx.inputs.len())
            .sum();
        assert_eq!(check.rings_checked, inputs as u64, "seed {seed}");

        // Every block judged on the ledger of a receiver that is behind,
        // as gossip intake judges a peer's blocks: a ring naming a token
        // the receiver has not seen is skipped.
        let got: Vec<(u64, u64)> = claim_violations(chain.blocks(), &behind).collect();
        let want = expected_violations(&chain, behind.len(), &mut cov);
        assert_eq!(got, want, "seed {seed}: receiver behind");
    }
    assert!(cov.flagged > 0, "no lying claim was drawn");
    assert!(cov.held > 0, "no honest claim was drawn");
    assert!(cov.junk_skipped > 0, "no junk claim was drawn");
    assert!(cov.unknown_skipped > 0, "no ring named an unseen token");
}

/// A one-block ledger of two same-origin tokens, then a block whose one
/// spend rings both of them and claims `(c, 2)`.
fn chain_with_claim(c: f64) -> Chain {
    let mut rng = StdRng::seed_from_u64(5);
    let mut chain = Chain::new(SchnorrGroup::default());
    let keys: Vec<KeyPair> = (0..2)
        .map(|_| KeyPair::generate(chain.group(), &mut rng))
        .collect();
    chain.submit_coinbase(
        keys.iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(1),
            })
            .collect(),
    );
    chain.seal_block().unwrap();
    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![],
        memo: b"claim".to_vec(),
    };
    let input = chain
        .sign_ring_input(&tx, &[TokenId(0), TokenId(1)], &keys[0], (c, 2), &mut rng)
        .unwrap();
    tx.inputs.push(input);
    chain.submit(tx, &NoConfiguration).unwrap();
    chain.seal_block().unwrap();
    chain
}

#[test]
fn nan_claim_asserts_nothing_on_adoption() {
    // The ring signature does not cover the claim, so a peer can send any
    // f64; NaN must be skipped like any claim that is not > 0.
    let chain = chain_with_claim(f64::NAN);
    let universe = chain_universe(&chain);
    let block = chain.blocks().last().unwrap();
    assert_eq!(
        claim_violations(std::slice::from_ref(block), &universe).next(),
        None
    );
    // The same ring with a real claim is a violation (one HT, ℓ = 2).
    let chain = chain_with_claim(1.0);
    let universe = chain_universe(&chain);
    let block = chain.blocks().last().unwrap();
    assert_eq!(
        claim_violations(std::slice::from_ref(block), &universe).next(),
        Some((2, 0))
    );
}
