//! The 64-seed index-equivalence sweep: a node's incrementally maintained
//! diversity index must produce **bit-identical** selection verdicts to a
//! from-scratch snapshot recompute at every point of a chain's life —
//! gossip adoption, reorg rollback + redelivery, and crash + recovery —
//! while paying only O(Δ) maintenance per adopted block.
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
//!    budget (no wall-clock timeouts — those would make "identical"
//!    unfalsifiable), and `assert_eq!` the full
//!    [`dams_core::IndexedSelection`] including tier, ring, and stats.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{Amount, Block, Chain, NoConfiguration, TokenOutput};
use dams_core::{
    recompute_equivalence, BfsBudget, CoreMetrics, DegradeBudget, DiversityIndex, LadderExec,
    PracticalAlgorithm, SelectionPolicy, Tier,
};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::DiversityRequirement;
use dams_node::{block_delta, index_of_chain, BlockAnnouncement, NodeLimits, SimNode, Wallet};
use dams_obs::Registry;
use dams_store::{MemBackend, Store, StoreConfig};

const SEEDS: u64 = 64;
const LAMBDA: usize = 6;
const SWEEP_DOMAIN: u64 = 0x01dc_5eed_ca11_ab1e;

/// A fresh in-memory store with checkpointing disabled, so the sweep may
/// roll back to any height the RS-immutability rule allows.
fn mem_store(group: SchnorrGroup) -> dams_store::Recovered {
    Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig {
            checkpoint_interval: 0,
        },
    )
    .expect("fresh store opens")
}

/// Counter-only budget: enough exact search for λ-sized batches, zero
/// wall-clock nondeterminism.
fn deterministic_budget() -> DegradeBudget {
    DegradeBudget {
        exact_timeout: None,
        bfs: BfsBudget {
            max_candidates: 400,
            max_worlds: 64,
            deadline: None,
        },
    }
}

/// Deliver `block` to the node's inbox and pump it through adoption.
fn adopt(node: &mut SimNode, block: Block) {
    node.deliver(BlockAnnouncement { block }).expect("inbox has room");
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
    let exec = LadderExec::default();
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let ladder = [Tier::ExactBfs, Tier::Progressive, Tier::GameTheoretic];
    for target in (0..index.token_count()).step_by(3) {
        let live = index.select(
            target,
            policy,
            deterministic_budget(),
            &ladder,
            &metrics,
            &exec,
        );
        let fresh = rebuilt.select(
            target,
            policy,
            deterministic_budget(),
            &ladder,
            &metrics,
            &exec,
        );
        assert_eq!(
            live, fresh,
            "seed {seed}: verdict for token {target} diverged from recompute"
        );
    }
}

/// One seeded life-cycle: fund → interleaved spends/mints → reorg →
/// redelivery → crash + recovery, checking both oracles at each stage.
/// Returns how many ring signatures the wallet committed.
fn run_seed(seed: u64) -> u64 {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(seed ^ SWEEP_DOMAIN);

    // Producer side: a wallet driving its own chain.
    let mut chain = Chain::new(group);
    let wallet_policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let mut wallet = Wallet::new(wallet_policy, PracticalAlgorithm::Progressive);

    // Observer side: the indexed, durable node, fed only by gossip.
    let mut node = SimNode::new(0, group);
    node.attach_store(mem_store(group)).expect("attach fresh store");
    node.enable_index(LAMBDA).expect("index on genesis-only chain");
    let mut adoptions = 0usize;

    // Fund: 3 coinbase blocks, 2 txs × 2 tokens each (distinct txs give
    // the batches distinct HT labels, keeping selection feasible).
    for _ in 0..3 {
        for _ in 0..2 {
            let outs: Vec<TokenOutput> = (0..2)
                .map(|_| TokenOutput {
                    owner: wallet.new_address(&chain, &mut rng),
                    amount: Amount(5),
                })
                .collect();
            chain.submit_coinbase(outs);
        }
        chain.seal_block().expect("coinbase seals");
        adoptions += catch_up(&mut node, &chain);
    }

    // Interleave wallet spends (ring-carrying blocks) with further mints.
    let mut rings = 0u64;
    for step in 0..6 {
        if step % 2 == 0 {
            if let Some(&token) = wallet.spendable(&chain).first() {
                let receiver = wallet.new_address(&chain, &mut rng);
                if wallet
                    .spend(&mut chain, token, receiver, &NoConfiguration, &mut rng)
                    .is_ok()
                {
                    rings += 1;
                }
            }
        } else {
            let outs = vec![TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            }];
            chain.submit_coinbase(outs);
            chain.seal_block().expect("coinbase seals");
        }
        adoptions += catch_up(&mut node, &chain);
    }
    assert_equivalent(node.index().expect("enabled"), node.chain(), seed);

    // A coinbase-only tail the store will let us reorg away (committed
    // ring signatures are immutable — the store refuses to unwind them).
    for _ in 0..3 {
        let outs = vec![TokenOutput {
            owner: KeyPair::generate(&group, &mut rng).public,
            amount: Amount(1),
        }];
        chain.submit_coinbase(outs);
        chain.seal_block().expect("coinbase seals");
        adoptions += catch_up(&mut node, &chain);
    }

    // Reorg: roll chain + store + index back 3 blocks together.
    let target = node.chain().height() as u64 - 1 - 3;
    let undone = node.rollback_to(target).expect("coinbase tail unwinds");
    assert_eq!(undone, 3, "seed {seed}");
    let index = node.index().expect("index survives rollback");
    assert_eq!(index.stats().blocks_rolled_back, 3, "journaled undo, not rebuild");
    assert_equivalent(index, node.chain(), seed);

    // Redeliver the reorged-away tail: adoption is idempotent re-entry.
    adoptions += catch_up(&mut node, &chain);
    assert_eq!(
        node.tip_hash().expect("tip"),
        chain.tip().expect("tip").hash(),
        "seed {seed}: node must re-converge on the producer chain"
    );
    let index = node.index().expect("enabled");
    // O(Δ) accounting: every adoption (plus the genesis replay at enable
    // time and the 3 re-applied blocks' first pass) went through the
    // incremental path — the apply counter explains the chain exactly,
    // leaving no room for hidden rebuilds.
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
        StoreConfig {
            checkpoint_interval: 0,
        },
    )
    .expect("recovery from own WAL");
    assert!(report.clean(), "seed {seed}: recovery flagged: {report:?}");
    assert_eq!(
        revived.tip_hash().expect("tip"),
        chain.tip().expect("tip").hash(),
        "seed {seed}: recovered node lost blocks"
    );
    revived.enable_index(LAMBDA).expect("index over recovered chain");
    assert_equivalent(revived.index().expect("enabled"), revived.chain(), seed);

    rings
}

#[test]
fn index_verdicts_match_recompute_across_64_seeds() {
    let mut total_rings = 0u64;
    for seed in 0..SEEDS {
        total_rings += run_seed(seed);
    }
    // The sweep must actually exercise ring-carrying history, not just
    // coinbase mints — otherwise the module-partition maintenance and the
    // cross-batch frontier never run.
    assert!(
        total_rings >= SEEDS,
        "only {total_rings} rings committed across {SEEDS} seeds"
    );
}
