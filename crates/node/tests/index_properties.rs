//! The 64-seed index-equivalence sweep: a node's incrementally maintained
//! diversity index must produce **bit-identical** selection verdicts to a
//! from-scratch snapshot recompute at every point of a chain's life —
//! gossip adoption and crash + recovery through a checkpoint — while
//! paying only O(Δ) maintenance per adopted block.
//!
//! The producer is an indexed [`SimNode`] that commits two kinds of ring
//! in every seed:
//!
//! * three wallet rings, each from [`Wallet::spend`] and so inside the
//!   spent token's batch: they drive the index's module-partition
//!   maintenance (super-RS merges and subset counts);
//! * one hand-signed ring spanning two batches: it drives the cross-batch
//!   frontier, which the index sets aside from every batch.
//!
//! Two oracles run at every checkpoint:
//!
//! 1. [`recompute_equivalence`] — structural: replay the chain's deltas
//!    through an independent snapshot pipeline and demand agreement on
//!    every observable (batch boundaries, histograms, rings, module
//!    partitions with subset counts).
//! 2. Verdict bit-identity — behavioural: run the degrade ladder for a
//!    sample of targets through the live index *and* through a fresh
//!    [`index_of_chain`] rebuild, under the same deterministic counter
//!    budget, and `assert_eq!` the full
//!    [`dams_core::IndexedSelection`] including tier, ring, and stats.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{Amount, Block, Chain, NoConfiguration, TokenId, TokenOutput, Transaction};
use dams_core::{
    recompute_equivalence, BfsBudget, CoreMetrics, DiversityIndex, SelectionPolicy, Tier,
};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::DiversityRequirement;
use dams_node::{block_delta, index_of_chain, NodeLimits, SimNode, Wallet, WalletError};
use dams_obs::Registry;
use dams_store::{MemBackend, Store, StoreConfig};

const SEEDS: u64 = 64;
const LAMBDA: usize = 6;
const SWEEP_DOMAIN: u64 = 0x01dc_5eed_ca11_ab1e;

/// A fresh in-memory store, checkpointing as every replica does.
fn mem_store(group: SchnorrGroup) -> dams_store::Recovered {
    Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .expect("fresh store opens")
}

/// Counter-only budget: enough exact search for λ-sized batches.
fn deterministic_budget() -> BfsBudget {
    BfsBudget {
        max_candidates: 400,
        max_worlds: 64,
        deadline: None,
    }
}

/// Deliver `block` to the node's inbox and pump it through adoption.
fn adopt(node: &mut SimNode, block: Block) {
    node.deliver(block).expect("inbox has room");
    assert_eq!(node.process_inbox(), 1, "block must adopt immediately");
}

/// Deliver every producer block the node does not have yet. Returns how
/// many were delivered.
fn catch_up(node: &mut SimNode, chain: &Chain) -> usize {
    let have = node.chain().height();
    let missing = &chain.blocks()[have..];
    for block in missing {
        adopt(node, block.clone());
    }
    missing.len()
}

/// Both oracles against `chain` (which must equal the index's chain).
fn assert_equivalent(index: &DiversityIndex, chain: &Chain, seed: u64) {
    // Structural: independent replay of the chain's deltas.
    let deltas: Vec<_> = chain.blocks().iter().map(block_delta).collect();
    recompute_equivalence(index, &deltas)
        .unwrap_or_else(|d| panic!("seed {seed}: index diverged from recompute: {d}"));

    // Behavioural: bit-identical ladder verdicts vs a fresh rebuild.
    let rebuilt = index_of_chain(chain, index.lambda())
        .unwrap_or_else(|e| panic!("seed {seed}: rebuild failed: {e}"));
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let ladder = [Tier::ExactBfs, Tier::Progressive, Tier::GameTheoretic];
    for target in (0..index.token_count()).step_by(3) {
        let live = index
            .select(target, policy, deterministic_budget(), &ladder, &metrics)
            .map(|(selection, _)| selection);
        let fresh = rebuilt
            .select(target, policy, deterministic_budget(), &ladder, &metrics)
            .map(|(selection, _)| selection);
        assert_eq!(
            live, fresh,
            "seed {seed}: verdict for token {target} diverged from recompute"
        );
    }
}

/// Spend the first of the wallet's coins whose ring the wallet does not
/// refuse, as a wallet retries another coin. Returns whether one spend
/// committed.
fn spend_some_coin(producer: &mut SimNode, wallet: &mut Wallet, rng: &mut StdRng) -> bool {
    for token in wallet.spendable(producer.chain()) {
        let outputs = vec![TokenOutput {
            owner: wallet.new_address(producer.chain(), rng),
            amount: Amount(5),
        }];
        match wallet.spend(producer, token, outputs, vec![], rng) {
            Ok(_) => return true,
            Err(WalletError::Validation(_) | WalletError::Selection(_)) => continue,
            Err(e) => panic!("spend of token {} failed: {e}", token.0),
        }
    }
    false
}

/// Commit one ring spanning the batches of `coin`'s token and the newest
/// token, signed by hand through the ledger signer: the wallet never
/// builds one, so only this ring reaches the cross-batch frontier.
fn commit_cross_batch_ring(producer: &mut SimNode, coin: &KeyPair) {
    let chain = producer.chain();
    let spent = chain.tokens_of(coin.public)[0];
    let newest = TokenId(chain.token_count() as u64 - 1);
    let index = producer.index().expect("producer indexed");
    assert_ne!(index.batch_of(spent.0), index.batch_of(newest.0));
    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![],
        memo: b"cross-batch".to_vec(),
    };
    let input = chain
        .sign_ring_input(
            &tx,
            &[spent, newest],
            coin,
            (1.0, 1),
            &mut StdRng::seed_from_u64(0),
        )
        .expect("coin signs its own ring");
    tx.inputs.push(input);
    producer
        .chain_mut()
        .submit(tx, &NoConfiguration)
        .expect("cross-batch ring verifies");
    producer.seal_block().expect("producer seals");
}

/// One seeded life-cycle: fund → interleaved spends/mints → a coinbase
/// tail → crash + recovery, checking both oracles at each stage.
/// Returns how many wallet rings and cross-batch rings were committed.
fn run_seed(seed: u64) -> (u64, u64) {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(seed ^ SWEEP_DOMAIN);

    // Producer side: a wallet spending on its own indexed node.
    let mut producer = SimNode::new(1, group);
    producer
        .enable_index(LAMBDA)
        .expect("index on genesis-only chain");
    let wallet_policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let mut wallet = Wallet::new(wallet_policy);

    // Observer side: the indexed, durable node, fed only by gossip.
    let mut node = SimNode::new(0, group);
    node.attach_store(mem_store(group))
        .expect("attach fresh store");
    node.enable_index(LAMBDA)
        .expect("index on genesis-only chain");
    let mut adoptions = 0usize;

    // Fund: 3 coinbase blocks, 2 txs × 2 tokens each (distinct txs give
    // the batches distinct HT labels, keeping selection feasible). The
    // first coin goes to a key outside the wallet, kept for the
    // cross-batch ring.
    let cross_coin = KeyPair::generate(&group, &mut rng);
    for block in 0..3 {
        for tx in 0..2 {
            let outs: Vec<TokenOutput> = (0..2)
                .map(|i| TokenOutput {
                    owner: match (block, tx, i) {
                        (0, 0, 0) => cross_coin.public,
                        _ => wallet.new_address(producer.chain(), &mut rng),
                    },
                    amount: Amount(5),
                })
                .collect();
            producer.chain_mut().submit_coinbase(outs);
        }
        producer.seal_block().expect("coinbase seals");
        adoptions += catch_up(&mut node, producer.chain());
    }

    // Interleave wallet spends (ring-carrying blocks) with further mints.
    let mut rings = 0u64;
    for step in 0..6 {
        if step % 2 == 0 {
            rings += u64::from(spend_some_coin(&mut producer, &mut wallet, &mut rng));
        } else {
            let outs = vec![TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            }];
            producer.chain_mut().submit_coinbase(outs);
            producer.seal_block().expect("coinbase seals");
        }
        adoptions += catch_up(&mut node, producer.chain());
    }
    commit_cross_batch_ring(&mut producer, &cross_coin);
    adoptions += catch_up(&mut node, producer.chain());
    let cross = node.index().expect("enabled").cross_batch_rings();
    assert_equivalent(node.index().expect("enabled"), node.chain(), seed);

    // A coinbase-only tail past the last ring.
    for _ in 0..3 {
        let outs = vec![TokenOutput {
            owner: KeyPair::generate(&group, &mut rng).public,
            amount: Amount(1),
        }];
        producer.chain_mut().submit_coinbase(outs);
        producer.seal_block().expect("coinbase seals");
        adoptions += catch_up(&mut node, producer.chain());
    }
    assert_eq!(
        node.tip_hash().expect("tip"),
        producer.chain().tip().expect("tip").hash(),
        "seed {seed}: node must converge on the producer chain"
    );
    let index = node.index().expect("enabled");
    // O(Δ) accounting: every adoption (plus the genesis replay at enable
    // time) went through the incremental path — the apply counter
    // explains the chain exactly, leaving no room for hidden rebuilds.
    assert_eq!(
        index.stats().blocks_applied as usize,
        1 + adoptions,
        "seed {seed}: adoption must be incremental"
    );
    // O(Δ) cost: the priciest single block is bounded by its own content
    // (a few txs and one ring), never by chain length.
    assert!(
        index.stats().max_block_ops <= 512,
        "seed {seed}: per-block maintenance exploded: {:?}",
        index.stats()
    );
    assert_equivalent(index, node.chain(), seed);

    // Crash: drop the node, reopen its store, recover, re-enable.
    let mut store = node.take_store().expect("store attached");
    store.crash();
    let (wal, cp) = store.into_backends();
    drop(node);
    let (mut revived, report) = SimNode::restore_from_store(
        1,
        group,
        NodeLimits::default(),
        wal,
        cp,
        StoreConfig::default(),
    )
    .expect("recovery from own WAL");
    assert!(report.clean(), "seed {seed}: recovery flagged: {report:?}");
    assert!(
        report.checkpoint_loaded,
        "seed {seed}: recovery skipped the checkpoint: {report:?}"
    );
    assert_eq!(
        revived.tip_hash().expect("tip"),
        producer.chain().tip().expect("tip").hash(),
        "seed {seed}: recovered node lost blocks"
    );
    revived
        .enable_index(LAMBDA)
        .expect("index over recovered chain");
    assert_equivalent(revived.index().expect("enabled"), revived.chain(), seed);

    (rings, cross)
}

#[test]
fn index_verdicts_match_recompute_across_64_seeds() {
    for seed in 0..SEEDS {
        // Every seed must exercise both ring paths, not just coinbase
        // mints: otherwise the module-partition maintenance or the
        // cross-batch frontier never runs.
        let (rings, cross) = run_seed(seed);
        assert_eq!(rings, 3, "seed {seed}: in-batch wallet rings");
        assert_eq!(cross, 1, "seed {seed}: cross-batch rings");
    }
}
