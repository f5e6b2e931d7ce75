//! Checkpoint-bundle bootstrap: how a late joiner reaches the cluster
//! tip **without** fully re-verifying the whole chain.
//!
//! A peer exports its newest checkpoint plus its full WAL as one
//! authenticated frame ([`serve_bundle`]); the joiner replays it through
//! [`dams_store::Store::open`] ([`bootstrap_from_bundle`]). The
//! checkpoint-attested prefix is adopted *structurally* (its attestation
//! — tip hash, key-image set, ring fingerprints — is cross-checked
//! instead), and only the blocks past the checkpoint are fully
//! re-verified. With checkpoints every `checkpoint_interval` adoptions,
//! that bounds full verification at O(tail), not O(chain). It is the only
//! path that adopts a prefix structurally. A live replica that is merely
//! behind, a crash-restarted one included, fetches blocks by range repair
//! in [`crate::gossip`], through the faulty channel and the peer defenses.
//!
//! Opening the store runs [`dams_store::recheck_immutability`] (the
//! ledger claim check, [`dams_store::claim_violations`], over the whole
//! chain), so the joiner's *entire* chain passes it before the joiner
//! serves traffic: the paper's (c, ℓ)-diversity evidence is re-verified
//! across the hand-off, and a peer cannot launder a violated claim
//! through a checkpoint.
//!
//! A bundle frame is authenticated the way gossip frames are: a sha256
//! of the payload travels with it, and any mismatch is a typed
//! [`NodeError::SyncRejected`] before anything is applied.

use dams_crypto::sha256::sha256;
use dams_store::{CatchUpBundle, MemBackend, StoreConfig};

use crate::error::NodeError;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::mine_one;
    use dams_crypto::SchnorrGroup;
    use dams_store::Store;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A durable miner that mined `blocks` blocks.
    fn durable_miner(blocks: usize, seed: u64) -> SimNode {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut miner = SimNode::new(0, group);
        let store = Store::open(
            Box::new(MemBackend::new()),
            Box::new(MemBackend::new()),
            group,
            StoreConfig::default(),
        )
        .unwrap();
        miner.attach_store(store).unwrap();
        for _ in 0..blocks {
            mine_one(&mut miner, 2, &mut rng);
        }
        miner
    }

    #[test]
    fn bundle_bootstrap_splits_prefix_and_tail() {
        let mut miner = durable_miner(6, 3);
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
        assert!(joiner.store().is_some(), "joiner must come up durable");
    }

    #[test]
    fn tampered_bundle_is_rejected_whole() {
        let mut miner = durable_miner(3, 4);
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
}
