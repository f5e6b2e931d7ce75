//! `Wallet::spend` is the spend the benchmark measures: on every seed and
//! target it must equal, stage for stage, the path assembled by hand from
//! the crates' public parts —
//!
//! index snapshot → `select_with_ladder_exec` with a 16-candidate exact
//! grant → `validate_ring` → `sign` → `Chain::submit` → seal →
//! `Store::append_block` → `Store::maybe_checkpoint` →
//! `DiversityIndex::apply_block`
//!
//! — with refusals included: a ring the hand path refuses, the wallet
//! refuses with the same verdict, and neither side changes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_blockchain::{
    block_to_bytes, Amount, Block, Chain, NoConfiguration, RingInput, TokenId, TokenOutput,
    Transaction,
};
use dams_core::{
    grant_budget, select_with_ladder_exec, validate_ring, CoreMetrics, DegradedSelection,
    DiversityIndex, LadderExec, SelectionPolicy, Tier, Verdict,
};
use dams_crypto::{sign, KeyPair, SchnorrGroup};
use dams_diversity::DiversityRequirement;
use dams_node::{block_delta, index_of_chain, SimNode, Wallet, WalletError};
use dams_obs::Registry;
use dams_store::{MemBackend, Store, StoreConfig};

const SEEDS: u64 = 16;
/// Spends tried per seed, each on a fresh target.
const TARGETS: usize = 8;

/// The hand-assembled replica: chain, store and index, as the benchmark
/// holds them.
struct Replica {
    chain: Chain,
    store: Store,
    index: DiversityIndex,
}

fn fresh_store(group: SchnorrGroup) -> dams_store::Recovered {
    Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .unwrap()
}

/// Seal the replica's mempool in `SimNode::seal_block`'s order.
fn seal_by_hand(r: &mut Replica) -> Block {
    r.chain.seal_block().unwrap();
    let block = r.chain.tip().unwrap().clone();
    r.store.append_block(&block).unwrap();
    r.store.maybe_checkpoint(&r.chain).unwrap();
    r.index.apply_block(&block_delta(&block)).unwrap();
    block
}

/// The hand-assembled spend of `target`. An `Err` renders the wallet
/// error the spend must fail with: a ladder error or a refusal.
fn spend_by_hand(
    r: &mut Replica,
    req: DiversityRequirement,
    signer: &KeyPair,
    target: u64,
    mut tx: Transaction,
    sign_seed: u64,
) -> Result<(DegradedSelection, Block), String> {
    let snap = r.index.snapshot(r.index.batch_of(target).unwrap()).unwrap();
    let local = snap.tokens.binary_search(&target).unwrap();
    let answer = select_with_ladder_exec(
        &snap.instance,
        dams_diversity::TokenId(local as u32),
        SelectionPolicy::new(req),
        grant_budget(16),
        &Tier::DEFAULT_LADDER,
        &CoreMetrics::in_registry(&Registry::new()),
        &LadderExec {
            workers: 1,
            cache: None,
            modular: snap.modular.as_ref(),
        },
    )
    .map_err(|e| format!("{:?}", WalletError::Selection(e)))?;
    let verdict = validate_ring(
        &answer.selection.ring,
        req,
        &snap.instance.rings,
        &snap.instance.claims,
        &snap.instance.universe,
    );
    if verdict != Verdict::Eligible {
        return Err(format!("{:?}", WalletError::Validation(verdict)));
    }
    let ring: Vec<TokenId> = answer
        .selection
        .ring
        .tokens()
        .iter()
        .map(|t| TokenId(snap.tokens[t.0 as usize]))
        .collect();
    let ring_keys: Vec<_> = ring
        .iter()
        .map(|&t| r.chain.token(t).unwrap().owner)
        .collect();
    let mut rng = StdRng::seed_from_u64(sign_seed);
    let payload = tx.signing_payload();
    let signature = sign(r.chain.group(), &payload, &ring_keys, signer, &mut rng).unwrap();
    tx.inputs.push(RingInput {
        ring,
        signature,
        claimed_c: req.c,
        claimed_l: req.l,
    });
    r.chain.submit(tx, &NoConfiguration).unwrap();
    Ok((answer, seal_by_hand(r)))
}

fn fingerprints(index: &DiversityIndex) -> Vec<u64> {
    (0..index.batch_count())
        .map(|b| index.batch_fingerprint(b))
        .collect()
}

/// One seed: both sides seal the same coinbases (two 2-token
/// transactions per block, so distinct HTs), then try the same targets in
/// the same order. Returns (committed, refused).
fn run_seed(seed: u64) -> (usize, usize) {
    let group = SchnorrGroup::default();
    let lambda = [6, 8, 12][seed as usize % 3];
    let req = DiversityRequirement::new(1.0, 2);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut node = SimNode::new(0, group);
    node.attach_store(fresh_store(group)).unwrap();
    node.enable_index(lambda).unwrap();
    let mut wallet = Wallet::new(SelectionPolicy::new(req));
    let recovered = fresh_store(group);
    let index = index_of_chain(&recovered.chain, lambda).unwrap();
    let mut replica = Replica {
        chain: recovered.chain,
        store: recovered.store,
        index,
    };

    let keys: Vec<KeyPair> = (0..16)
        .map(|_| KeyPair::generate(&group, &mut rng))
        .collect();
    for block in keys.chunks(4) {
        for tx in block.chunks(2) {
            let outputs: Vec<TokenOutput> = tx
                .iter()
                .map(|kp| TokenOutput {
                    owner: kp.public,
                    amount: Amount(1),
                })
                .collect();
            node.chain_mut().submit_coinbase(outputs.clone());
            replica.chain.submit_coinbase(outputs);
        }
        assert_eq!(node.seal_block().unwrap(), seal_by_hand(&mut replica));
    }
    keys.iter().for_each(|&kp| wallet.import(kp));

    let mut targets: Vec<u64> = (0..keys.len() as u64).collect();
    let (mut committed, mut refused) = (0, 0);
    for _ in 0..TARGETS {
        let target = targets.swap_remove(rng.gen_range(0..targets.len()));
        let outputs: Vec<TokenOutput> = (0..2)
            .map(|_| TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            })
            .collect();
        let memo = target.to_le_bytes().to_vec();
        let sign_seed: u64 = rng.gen();
        let tx = Transaction {
            inputs: vec![],
            outputs: outputs.clone(),
            memo: memo.clone(),
        };
        let signer = &keys[target as usize];
        let by_hand = spend_by_hand(&mut replica, req, signer, target, tx, sign_seed);
        let by_wallet = wallet.spend(
            &mut node,
            TokenId(target),
            outputs,
            memo,
            &mut StdRng::seed_from_u64(sign_seed),
        );
        match (by_hand, by_wallet) {
            (Ok((answer, block)), Ok(spend)) => {
                committed += 1;
                assert_eq!(
                    spend.selection.degraded, answer,
                    "seed {seed} target {target}"
                );
                assert_eq!(
                    block_to_bytes(&spend.block),
                    block_to_bytes(&block),
                    "seed {seed} target {target}: sealed blocks differ"
                );
                let ring: Vec<u64> = block.transactions[0].tx.inputs[0]
                    .ring
                    .iter()
                    .map(|t| t.0)
                    .collect();
                assert_eq!(spend.selection.ring, ring);
            }
            (Err(why), Err(e)) => {
                refused += usize::from(matches!(e, WalletError::Validation(_)));
                assert_eq!(why, format!("{e:?}"), "seed {seed} target {target}");
            }
            (hand, wallet) => panic!(
                "seed {seed} target {target}: by hand {:?}, wallet {:?}",
                hand.map(|(a, _)| a.tier),
                wallet.map(|s| s.selection.ring)
            ),
        }
        assert_eq!(
            node.store_mut().unwrap().wal_len(),
            replica.store.wal_len(),
            "seed {seed} target {target}: WAL lengths differ"
        );
        assert_eq!(
            fingerprints(node.index().unwrap()),
            fingerprints(&replica.index),
            "seed {seed} target {target}: index fingerprints differ"
        );
    }
    assert_eq!(
        node.tip_hash().unwrap(),
        replica.chain.tip().unwrap().hash()
    );
    (committed, refused)
}

#[test]
fn wallet_spend_is_the_hand_assembled_path() {
    let (mut committed, mut refused) = (0, 0);
    for seed in 0..SEEDS {
        let (c, r) = run_seed(seed);
        committed += c;
        refused += r;
    }
    // Both outcomes must occur, or the comparison proves nothing about
    // the check that tells them apart.
    assert!(committed >= SEEDS as usize, "{committed} spends committed");
    assert!(refused >= SEEDS as usize, "{refused} spends refused");
}
