//! Wire-level gossip: blocks travel between nodes as bytes through the
//! codec, get validated on decode, and still converge — the full
//! serialize → network → deserialize → adopt path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{block_to_bytes, decode_block, Amount, BatchList, CodecError, TokenOutput};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_node::SimNode;

/// Process the followers' inboxes until nothing moves, answering each
/// follower with the miner's range from the follower's height, shipped as
/// bytes like any gossiped block.
fn settle(miner: &SimNode, followers: &mut [SimNode]) {
    let group = *miner.chain().group();
    let tip = miner.chain().height();
    loop {
        let mut progressed = false;
        for node in followers.iter_mut() {
            progressed |= node.process_inbox() > 0;
            for block in miner.serve_range(node.chain().height(), tip, tip).unwrap() {
                let bytes = block_to_bytes(&block);
                let _ = node.deliver(decode_block(&group, &bytes).expect("served block decodes"));
            }
            progressed |= node.process_inbox() > 0;
        }
        if !progressed {
            return;
        }
    }
}

#[test]
fn byte_gossip_converges() {
    let group = SchnorrGroup::default();
    let mut miner = SimNode::new(0, group);
    let mut followers = [SimNode::new(1, group), SimNode::new(2, group)];
    let mut rng = StdRng::seed_from_u64(1);

    // Node 0 mines 4 blocks; each is shipped as bytes.
    let mut wire: Vec<Vec<u8>> = Vec::new();
    for _ in 0..4 {
        let outs: Vec<TokenOutput> = (0..3)
            .map(|_| TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            })
            .collect();
        miner.chain_mut().submit_coinbase(outs);
        wire.push(block_to_bytes(&miner.seal_block().unwrap()));
    }

    // Peers decode from bytes (validating group membership en route).
    for bytes in &wire {
        let block = decode_block(&group, bytes).expect("well-formed wire block");
        followers[0].deliver(block.clone()).unwrap();
        followers[1].deliver(block).unwrap();
    }
    settle(&miner, &mut followers);
    let batches = BatchList::build(miner.chain(), 5);
    for n in &followers {
        assert_eq!(n.tip_hash(), miner.tip_hash());
        assert_eq!(BatchList::build(n.chain(), 5).batches(), batches.batches());
        assert!(n.chain().audit());
        assert_eq!(n.chain().token_count(), 12);
    }
}

#[test]
fn corrupted_wire_block_never_reaches_the_chain() {
    let group = SchnorrGroup::default();
    let mut miner = SimNode::new(0, group);
    let mut follower = SimNode::new(1, group);
    let mut rng = StdRng::seed_from_u64(2);
    let outs = vec![TokenOutput {
        owner: KeyPair::generate(&group, &mut rng).public,
        amount: Amount(1),
    }];
    miner.chain_mut().submit_coinbase(outs);
    let mut bytes = block_to_bytes(&miner.seal_block().unwrap());

    // Flip bits across the block: corruption in the transaction payload
    // fails decode or the content hash; corruption in the header breaks
    // the prev_hash linkage or height continuity. (A timestamp flip is
    // the one field that yields a *different but structurally valid*
    // block; a real chain prevents that with header authentication —
    // PoW or signatures — which this simulation does not model, so we
    // skip the 8 timestamp bytes at offset 72.)
    let mut decode_failures = 0;
    let mut adoption_discards = 0;
    for pos in (0..bytes.len())
        .step_by(7)
        .filter(|p| !(72..80).contains(p))
    {
        bytes[pos] ^= 0x55;
        match decode_block(&group, &bytes) {
            Err(CodecError::Truncated)
            | Err(CodecError::LengthOutOfBounds(_))
            | Err(CodecError::TrailingBytes(_))
            | Err(CodecError::InvalidElement(_))
            | Err(CodecError::NonCanonicalScalar(_)) => decode_failures += 1,
            Ok(block) => {
                let before = follower.chain().height();
                follower.deliver(block).unwrap();
                follower.process_inbox();
                // Either the prev_hash no longer links (orphan forever) or
                // the content hash mismatch discards it.
                if follower.chain().height() == before {
                    adoption_discards += 1;
                }
            }
        }
        bytes[pos] ^= 0x55; // restore
    }
    assert!(decode_failures + adoption_discards > 0);
    assert_eq!(
        follower.chain().height(),
        1,
        "no corrupted block may be adopted"
    );
}
