//! Checkpoint-based catch-up: how a late joiner or crash-restarted
//! replica reaches the cluster tip **without** fully re-verifying the
//! whole chain.
//!
//! Two paths, both peer-served from the PR-4 durable store:
//!
//! * **Bundle bootstrap** ([`serve_bundle`] → [`bootstrap_from_bundle`])
//!   — a peer exports its newest checkpoint plus its full WAL as one
//!   authenticated frame. The joiner replays it through
//!   [`dams_store::Store::open`]:
//!   the checkpoint-attested prefix is adopted *structurally* (its
//!   attestation — tip hash, key-image set, ring fingerprints — is
//!   cross-checked instead), and only the blocks past the checkpoint are
//!   fully re-verified. With checkpoints every `checkpoint_interval`
//!   adoptions, that bounds full verification at O(tail), not O(chain).
//! * **Tail streaming** ([`catch_up_tail`]) — a crash-restarted replica
//!   already recovered its own durable prefix; replicas append identical
//!   bytes for identical adoptions, so its local WAL length names the
//!   exact byte where a peer's WAL continues. The peer streams the
//!   missing framed records and the node claim-checks each block, then
//!   applies it through its normal verify → WAL-append → adopt path.
//!
//! Bundle bootstrap opens the store, so the joiner's *entire* chain
//! passes [`dams_store::recheck_immutability`] (the ledger claim check,
//! [`dams_store::claim_violations`], over the whole chain) before it
//! serves traffic: the paper's (c, ℓ)-diversity evidence is re-verified
//! across the hand-off, so a peer cannot launder a violated claim through
//! a checkpoint. A crash-restarted replica passed the same recheck when
//! it reopened its own store, and every tail block it then adopts passes
//! the claim check gossip intake runs, on the replica's own ledger.
//!
//! A bundle frame is authenticated the way gossip frames are: a sha256
//! of the payload travels with it, and any mismatch is a typed
//! [`NodeError::SyncRejected`] before anything is applied. A tail stream
//! is crc-framed and refused whole when it does not scan clean; a record
//! refused later (a non-block tag, a failed decode, a broken claim)
//! stops the sync there, and the blocks before it stay adopted.

use dams_blockchain::decode_block;
use dams_crypto::sha256::sha256;
use dams_store::wal::{self, TailStatus, TAG_BLOCK};
use dams_store::{group_fingerprint, CatchUpBundle, MemBackend, StoreConfig};

use crate::error::NodeError;
use crate::gossip::first_claim_violation;
use crate::network::{NodeLimits, SimNode};
use crate::obs::NodeMetrics;

/// What a catch-up did: how much was adopted cheaply (checkpoint-attested
/// prefix), how much was fully verified (the tail), and whether the
/// result is clean. The O(tail) assertion of the cluster sweeps is
/// `tail_verified <= checkpoint_interval`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Recovered tip height (genesis = 0).
    pub height: u64,
    /// Checkpoint-attested blocks adopted structurally.
    pub prefix_adopted: u64,
    /// Blocks past the checkpoint re-verified in full.
    pub tail_verified: u64,
    /// Committed RSs whose claimed (c, ℓ)-diversity was re-checked.
    pub rings_rechecked: u64,
    /// The underlying recovery found no corruption and no immutability
    /// violations.
    pub clean: bool,
}

/// Wire layout: `sha256(payload) ‖ payload` with
/// `payload = cp_len u64le ‖ checkpoint ‖ wal`.
fn encode_bundle(bundle: &CatchUpBundle) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + bundle.checkpoint.len() + bundle.wal.len());
    payload.extend_from_slice(&(bundle.checkpoint.len() as u64).to_le_bytes());
    payload.extend_from_slice(&bundle.checkpoint);
    payload.extend_from_slice(&bundle.wal);
    let mut out = Vec::with_capacity(32 + payload.len());
    out.extend_from_slice(&sha256(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Authenticate and split a bundle frame into `(checkpoint, wal)` images.
fn decode_bundle(frame: &[u8]) -> Result<(Vec<u8>, Vec<u8>), NodeError> {
    let reject = |reason| {
        NodeMetrics::global().sync_rejected.inc();
        Err(NodeError::SyncRejected { reason })
    };
    if frame.len() < 40 {
        return reject("bundle frame shorter than digest + length prefix");
    }
    let (digest, payload) = frame.split_at(32);
    if sha256(payload).as_slice() != digest {
        return reject("bundle digest mismatch");
    }
    let Some(len_bytes) = payload.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok()) else {
        return reject("bundle length prefix truncated");
    };
    let cp_len = u64::from_le_bytes(len_bytes) as usize;
    let rest = &payload[8..];
    if cp_len > rest.len() {
        return reject("bundle checkpoint length exceeds payload");
    }
    let (cp, wal) = rest.split_at(cp_len);
    Ok((cp.to_vec(), wal.to_vec()))
}

/// Export `peer`'s durable state as one authenticated catch-up frame.
/// Requires a durable store (there is nothing attested to serve without
/// one). Counts the contained blocks as served on the peer's store.
pub fn serve_bundle(peer: &mut SimNode) -> Result<Vec<u8>, NodeError> {
    let store = peer.store_mut().ok_or(NodeError::SyncRejected {
        reason: "serving peer has no durable store",
    })?;
    let bundle = store.serve_catchup()?;
    NodeMetrics::global().sync_bundles_served.inc();
    Ok(encode_bundle(&bundle))
}

/// Bootstrap a fresh replica from a peer-served bundle frame: verify the
/// frame, recover through [`dams_store::Store::open`] (structural prefix + fully
/// verified tail + whole-chain immutability recheck), and report the
/// split. An immutability violation in the served state is a typed error
/// — a joiner never goes live on laundered evidence.
pub fn bootstrap_from_bundle(
    id: usize,
    group: dams_crypto::SchnorrGroup,
    limits: NodeLimits,
    frame: &[u8],
) -> Result<(SimNode, SyncReport), NodeError> {
    let metrics = NodeMetrics::global();
    let (cp, wal_image) = decode_bundle(frame)?;
    let (node, recovery) = SimNode::restore_from_store(
        id,
        group,
        limits,
        Box::new(MemBackend::from_durable(wal_image)),
        Box::new(MemBackend::from_durable(cp)),
        StoreConfig::default(),
    )?;
    let prefix = recovery.checkpoint_height.min(recovery.records_replayed);
    let report = SyncReport {
        height: recovery.height,
        prefix_adopted: prefix,
        tail_verified: recovery.records_replayed - prefix,
        rings_rechecked: recovery.rings_checked,
        clean: recovery.clean(),
    };
    metrics.sync_bootstraps.inc();
    metrics.sync_prefix_adopted.add(report.prefix_adopted);
    metrics.sync_tail_verified.add(report.tail_verified);
    Ok((node, report))
}

/// Stream the WAL records `node` is missing from `peer` and apply them:
/// each block passes the ledger claim check on the node's ledger, then
/// the node's normal verify → WAL-append → adopt path. Both replicas
/// need durable stores; identical adoptions write identical WAL bytes,
/// so the node's own WAL length names the peer-side resume point.
///
/// Returns how many blocks were applied. A tail stream that fails crc
/// framing is rejected whole. A non-block record, a block that fails to
/// decode, or a block whose ring breaks its claimed (c, ℓ)-diversity is
/// [`NodeError::SyncRejected`] and ends the sync: nothing after it is
/// delivered, and the blocks before it stay adopted.
pub fn catch_up_tail(node: &mut SimNode, peer: &mut SimNode) -> Result<u64, NodeError> {
    let from = node
        .store()
        .ok_or(NodeError::SyncRejected {
            reason: "catching-up node has no durable store",
        })?
        .wal_len();
    let peer_store = peer.store_mut().ok_or(NodeError::SyncRejected {
        reason: "serving peer has no durable store",
    })?;
    let tail = peer_store.wal_tail(from)?;
    apply_tail(node, &tail)
}

/// The node side of [`catch_up_tail`]: scan, decode, claim-check and
/// adopt the framed records of `tail`.
fn apply_tail(node: &mut SimNode, tail: &[u8]) -> Result<u64, NodeError> {
    let metrics = NodeMetrics::global();
    if tail.is_empty() {
        return Ok(0);
    }
    let reject = |reason| {
        metrics.sync_rejected.inc();
        Err(NodeError::SyncRejected { reason })
    };
    // Re-frame the stream as a well-formed WAL image so the store's
    // scanner performs the length + crc gauntlet for us.
    let group = *node.chain().group();
    let mut image = wal::encode_header(group_fingerprint(&group));
    image.extend_from_slice(tail);
    let Ok(outcome) = wal::scan(&image) else {
        return reject("tail stream failed crc framing");
    };
    if !matches!(outcome.tail, TailStatus::Clean) {
        return reject("tail stream ends in a torn or corrupt record");
    }
    let mut applied = 0u64;
    for span in &outcome.records {
        let payload = &image[span.payload_start..span.payload_end];
        if payload.first() != Some(&TAG_BLOCK) {
            return reject("tail stream carries a non-block record");
        }
        let Ok(block) = decode_block(&group, &payload[1..]) else {
            return reject("tail stream block failed to decode");
        };
        if first_claim_violation(node.chain(), &block).is_some() {
            return reject("tail stream block breaks a ring's claimed diversity");
        }
        node.deliver(block)?;
        applied += node.process_inbox() as u64;
    }
    applied += node.process_inbox() as u64;
    metrics.sync_tail_blocks.add(applied);
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::mine_one;
    use dams_blockchain::{Amount, NoConfiguration, TokenOutput, Transaction};
    use dams_crypto::{KeyPair, SchnorrGroup};
    use dams_store::{recheck_immutability, Store};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A durable miner and follower that both adopted `blocks` blocks
    /// mined on the miner, plus the key stream to mine more.
    fn mined_pair(blocks: usize, seed: u64) -> (SimNode, SimNode, StdRng) {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let [mut miner, mut follower] = [0, 1].map(|id| {
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
        });
        for _ in 0..blocks {
            let block = mine_one(&mut miner, 2, &mut rng);
            follower.deliver(block).unwrap();
            assert_eq!(follower.process_inbox(), 1);
        }
        (miner, follower, rng)
    }

    #[test]
    fn bundle_bootstrap_splits_prefix_and_tail() {
        let (mut miner, ..) = mined_pair(6, 3);
        let frame = serve_bundle(&mut miner).unwrap();
        let (joiner, report) =
            bootstrap_from_bundle(9, *miner.chain().group(), NodeLimits::default(), &frame)
                .unwrap();
        assert!(report.clean, "{report:?}");
        assert_eq!(report.height, 6);
        assert_eq!(
            report.prefix_adopted + report.tail_verified,
            6,
            "{report:?}"
        );
        // checkpoint_interval = 4 and checkpoints fire on every adoption
        // check, so the unverified tail never exceeds the interval.
        assert!(
            report.tail_verified <= StoreConfig::default().checkpoint_interval,
            "tail not O(interval): {report:?}"
        );
        assert!(report.prefix_adopted >= 4, "checkpoint unused: {report:?}");
        assert_eq!(joiner.tip_hash().unwrap(), miner.tip_hash().unwrap());
        assert!(joiner.has_store(), "joiner must come up durable");
    }

    #[test]
    fn tampered_bundle_is_rejected_whole() {
        let (mut miner, ..) = mined_pair(3, 4);
        let group = *miner.chain().group();
        let limits = NodeLimits::default();
        let mut frame = serve_bundle(&mut miner).unwrap();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let err = bootstrap_from_bundle(9, group, limits, &frame)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, NodeError::SyncRejected { .. }),
            "tamper must be caught at the frame: {err:?}"
        );
        // Truncated frames are equally typed.
        let err = bootstrap_from_bundle(9, group, limits, &frame[..20])
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, NodeError::SyncRejected { .. }), "{err:?}");
    }

    #[test]
    fn tail_stream_catches_a_lagging_replica_up() {
        let (mut serving, mut lagging, mut rng) = mined_pair(3, 5);
        // Node 1 stops hearing gossip; node 0 mines on.
        for _ in 0..3 {
            mine_one(&mut serving, 1, &mut rng);
        }
        assert_eq!(lagging.chain().height(), 4);
        let applied = catch_up_tail(&mut lagging, &mut serving).unwrap();
        assert_eq!(applied, 3, "exactly the missing blocks stream");
        assert_eq!(lagging.tip_hash().unwrap(), serving.tip_hash().unwrap());
        assert_eq!(
            serving.store().unwrap().blocks_served(),
            3,
            "served blocks must be counted on the peer"
        );
        // A second catch-up is a no-op, not a duplicate application.
        assert_eq!(catch_up_tail(&mut lagging, &mut serving).unwrap(), 0);
        assert_eq!(lagging.chain().height(), 7);
    }

    #[test]
    fn corrupted_tail_stream_is_rejected_whole() {
        let (mut serving, mut lagging, mut rng) = mined_pair(2, 6);
        mine_one(&mut serving, 1, &mut rng);
        let height = lagging.chain().height();
        let wal_len = lagging.store().unwrap().wal_len();
        let mut tail = serving.store_mut().unwrap().wal_tail(wal_len).unwrap();
        assert!(!tail.is_empty());
        let mid = tail.len() / 2;
        tail[mid] ^= 0x10;
        let err = apply_tail(&mut lagging, &tail).unwrap_err();
        assert!(matches!(err, NodeError::SyncRejected { .. }), "{err:?}");
        assert_eq!(lagging.chain().height(), height, "nothing applied");
        assert_eq!(lagging.store().unwrap().wal_len(), wal_len);
    }

    #[test]
    fn tail_block_breaking_its_claim_is_refused() {
        let (mut serving, mut lagging, mut rng) = mined_pair(2, 7);
        let group = *serving.chain().group();
        // A coinbase minting two tokens in one transaction: both share
        // one origin, so a ring of the two has a single history tree.
        let owner = KeyPair::generate(&group, &mut rng);
        serving.chain_mut().submit_coinbase(vec![
            TokenOutput {
                owner: owner.public,
                amount: Amount(1),
            };
            2
        ]);
        serving.seal_block().unwrap();
        let ring = serving.chain().tokens_of(owner.public);
        assert_eq!(ring.len(), 2);
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![],
            memo: vec![],
        };
        let input = serving
            .chain()
            .sign_ring_input(&tx, ring, &owner, (1.0, 2), &mut rng)
            .unwrap();
        tx.inputs.push(input);
        serving.chain_mut().submit(tx, &NoConfiguration).unwrap();
        serving.seal_block().unwrap();
        assert_eq!(
            recheck_immutability(serving.chain()).violations.len(),
            1,
            "the serving ledger carries the lying ring"
        );

        let height = lagging.chain().height();
        let err = catch_up_tail(&mut lagging, &mut serving).unwrap_err();
        assert!(matches!(err, NodeError::SyncRejected { .. }), "{err:?}");
        assert_eq!(lagging.chain().height(), height + 1, "coinbase only");
        assert!(recheck_immutability(lagging.chain()).violations.is_empty());
    }
}
