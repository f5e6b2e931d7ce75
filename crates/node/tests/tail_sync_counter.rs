//! `node.sync.tail_blocks_total` counts every block a WAL-tail stream
//! adopts, including those adopted before a record the sync refuses.
//!
//! The counter is process-wide and other tests stream tails too, so this
//! check runs alone in a test binary of its own.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{Amount, NoConfiguration, TokenOutput, Transaction};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_node::{catch_up_tail, NodeError, NodeMetrics, SimNode};
use dams_store::{MemBackend, Store, StoreConfig};

/// A node on a fresh in-memory store.
fn durable_node(id: usize, group: SchnorrGroup) -> SimNode {
    let mut node = SimNode::new(id, group);
    let store = Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .unwrap();
    node.attach_store(store).unwrap();
    node
}

/// Seal one coinbase paying `outputs` tokens to `owner` on `miner`.
fn mint(miner: &mut SimNode, owner: &KeyPair, outputs: usize) {
    let out = TokenOutput {
        owner: owner.public,
        amount: Amount(1),
    };
    miner.chain_mut().submit_coinbase(vec![out; outputs]);
    miner.seal_block().unwrap();
}

#[test]
fn blocks_adopted_before_a_refused_record_are_counted() {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut serving = durable_node(0, group);
    let mut lagging = durable_node(1, group);
    mint(&mut serving, &KeyPair::generate(&group, &mut rng), 2);
    lagging
        .deliver(serving.chain().tip().unwrap().clone())
        .unwrap();
    assert_eq!(lagging.process_inbox(), 1);

    // The stream the lagging replica misses: an honest coinbase of two
    // tokens with one origin, then a ring of both claiming two origins.
    let owner = KeyPair::generate(&group, &mut rng);
    mint(&mut serving, &owner, 2);
    let ring = serving.chain().tokens_of(owner.public).to_vec();
    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![],
        memo: vec![],
    };
    let input = serving
        .chain()
        .sign_ring_input(&tx, &ring, &owner, (1.0, 2), &mut rng)
        .unwrap();
    tx.inputs.push(input);
    serving.chain_mut().submit(tx, &NoConfiguration).unwrap();
    serving.seal_block().unwrap();

    let counter = &NodeMetrics::global().sync_tail_blocks;
    let before = counter.get();
    let height = lagging.chain().height();
    let err = catch_up_tail(&mut lagging, &mut serving).unwrap_err();
    assert!(matches!(err, NodeError::SyncRejected { .. }), "{err:?}");
    assert_eq!(lagging.chain().height(), height + 1, "coinbase only");
    assert_eq!(counter.get() - before, 1, "the adopted coinbase counts");
}
