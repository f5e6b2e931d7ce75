//! Property tests for the replica layer: consensus must hold under every
//! delivery order and any gossip interleaving.

use proptest::prelude::*;

use dams_blockchain::{Amount, BatchList, Block, TokenOutput};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_node::SimNode;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mine `blocks` coinbase blocks on `miner`, collecting them.
fn mine(miner: &mut SimNode, blocks: usize, seed: u64) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = *miner.chain().group();
    (0..blocks)
        .map(|_| {
            let outs = (0..2)
                .map(|_| TokenOutput {
                    owner: KeyPair::generate(&group, &mut rng).public,
                    amount: Amount(1),
                })
                .collect();
            miner.chain_mut().submit_coinbase(outs);
            miner.seal_block().unwrap()
        })
        .collect()
}

/// Process the followers' inboxes until nothing moves, answering each
/// follower with the miner's range from the follower's height, as range
/// repair does.
fn settle(miner: &SimNode, followers: &mut [SimNode]) {
    let tip = miner.chain().height();
    loop {
        let mut progressed = false;
        for node in followers.iter_mut() {
            progressed |= node.process_inbox() > 0;
            for block in miner.serve_range(node.chain().height(), tip, tip).unwrap() {
                let _ = node.deliver(block);
            }
            progressed |= node.process_inbox() > 0;
        }
        if !progressed {
            return;
        }
    }
}

/// Whether every follower holds the miner's tip and batch list at λ.
fn in_sync(miner: &SimNode, followers: &[SimNode], lambda: usize) -> bool {
    let batches = BatchList::build(miner.chain(), lambda);
    followers.iter().all(|n| {
        n.tip_hash() == miner.tip_hash()
            && BatchList::build(n.chain(), lambda).batches() == batches.batches()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation of block delivery converges to the miner's chain.
    #[test]
    fn convergence_under_any_delivery_order(
        perm in prop::collection::vec(0usize..1000, 5..=5),
        seed in 0u64..100,
    ) {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group), SimNode::new(2, group)];
        let blocks = mine(&mut miner, 5, seed);
        // Deliver to nodes 1 and 2 in the permuted order.
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by_key(|&i| perm[i]);
        for &i in &order {
            followers[0].deliver(blocks[i].clone()).unwrap();
        }
        for &i in order.iter().rev() {
            followers[1].deliver(blocks[i].clone()).unwrap();
        }
        settle(&miner, &mut followers);
        prop_assert!(in_sync(&miner, &followers, 4));
    }

    /// A dropped block never stalls convergence: later blocks park as
    /// orphans, and the range from the follower's height backfills the
    /// gap. A dropped *tip* (nothing after it to orphan) heals the same
    /// way.
    #[test]
    fn missing_block_heals_via_range_repair(drop_idx in 0usize..4, seed in 0u64..50) {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group)];
        let blocks = mine(&mut miner, 4, seed);
        for (i, b) in blocks.iter().enumerate() {
            if i != drop_idx {
                followers[0].deliver(b.clone()).unwrap();
            }
        }
        settle(&miner, &mut followers);
        prop_assert!(in_sync(&miner, &followers, 4), "range repair should heal gap {drop_idx}");
        // Redelivering the dropped block is idempotent.
        followers[0].deliver(blocks[drop_idx].clone()).unwrap();
        settle(&miner, &mut followers);
        prop_assert!(in_sync(&miner, &followers, 4));
    }
}
