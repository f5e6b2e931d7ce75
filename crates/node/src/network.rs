//! The simulated replica: a chain plus a bounded inbox and orphan pool.
//! Replicas that see the same blocks, in any order, converge on identical
//! chain state and TokenMagic batch lists — §4's consensus argument
//! ("users have a consensus about the block list ... users can have a
//! consensus about the batch list too") as an executable property.
//!
//! The node layer is panic-free and resource-bounded: the inbox and the
//! orphan pool have hard capacities with TTL eviction, and every failure
//! surfaces as a typed [`NodeError`] instead of crashing the replica. A
//! replica never asks for a missing parent by hash: the pool only
//! reassembles blocks that push gossip delivered out of order, and a
//! replica that is behind fetches what it lacks by range
//! ([`SimNode::serve_range`] on the peer's side). The network these
//! replicas talk over is [`crate::gossip::Cluster`], which runs the
//! seeded fault model of [`crate::faults`].

use std::collections::VecDeque;

use dams_blockchain::{Block, Chain, NoConfiguration};
use dams_core::DiversityIndex;
use dams_crypto::sha256::Digest;
use dams_crypto::SchnorrGroup;
use dams_store::{Backend, Recovered, RecoveryReport, Store, StoreConfig, StoreError};

use crate::error::NodeError;
use crate::indexing::{block_delta, index_of_chain};
use crate::obs::NodeMetrics;

/// Resource bounds of a node: how much out-of-order traffic it buffers
/// before applying back-pressure, and how long an orphan waits for its
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimits {
    /// Maximum queued blocks; beyond this, `deliver` rejects.
    pub inbox_capacity: usize,
    /// Maximum parked orphan blocks; beyond this, the oldest is evicted.
    pub orphan_capacity: usize,
    /// Ticks (inbox-processing rounds) an orphan may wait for its parent
    /// before being evicted.
    pub orphan_ttl: u64,
}

impl Default for NodeLimits {
    fn default() -> Self {
        NodeLimits {
            inbox_capacity: 256,
            orphan_capacity: 64,
            orphan_ttl: 64,
        }
    }
}

/// Counters a node keeps about its own degradation decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Announcements rejected because the inbox was full.
    pub inbox_rejected: u64,
    /// Orphans evicted by TTL expiry or pool overflow.
    pub orphans_evicted: u64,
    /// Blocks discarded after failing full validation.
    pub blocks_discarded: u64,
    /// Duplicate or stale announcements dropped on arrival.
    pub duplicates_dropped: u64,
}

/// A parked out-of-order block waiting for its parent.
#[derive(Debug, Clone)]
struct Orphan {
    block: Block,
    /// Tick the orphan entered the pool (TTL reference point).
    parked_at: u64,
}

/// A simulated node: a chain replica plus bounded inbox and orphan pool.
pub struct SimNode {
    pub id: usize,
    chain: Chain,
    inbox: VecDeque<Block>,
    orphans: Vec<Orphan>,
    limits: NodeLimits,
    /// Logical clock: one tick per `process_inbox` call.
    tick: u64,
    stats: NodeStats,
    /// Optional durable store. When attached, every adoption is atomic
    /// across crashes: WAL-append → fsync → apply.
    store: Option<Store>,
    /// Optional incremental diversity index, kept in lock-step with the
    /// chain: O(Δ) maintenance on every adoption, full rebuild only on
    /// enable / store attach.
    index: Option<DiversityIndex>,
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNode")
            .field("id", &self.id)
            .field("height", &self.chain.height())
            .field("inbox", &self.inbox.len())
            .field("orphans", &self.orphans.len())
            .field("tick", &self.tick)
            .field("stats", &self.stats)
            .field("durable", &self.store.is_some())
            .field("indexed", &self.index.is_some())
            .finish()
    }
}

impl SimNode {
    pub fn new(id: usize, group: SchnorrGroup) -> Self {
        Self::with_limits(id, group, NodeLimits::default())
    }

    pub fn with_limits(id: usize, group: SchnorrGroup, limits: NodeLimits) -> Self {
        SimNode {
            id,
            chain: Chain::new(group),
            inbox: VecDeque::new(),
            orphans: Vec::new(),
            limits,
            tick: 0,
            stats: NodeStats::default(),
            store: None,
            index: None,
        }
    }

    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable chain access for the mining node of a simulation.
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    pub fn tip_hash(&self) -> Result<Digest, NodeError> {
        Ok(self.chain.tip()?.hash())
    }

    /// The attached store (for fault injection and inspection in tests).
    pub fn store_mut(&mut self) -> Option<&mut Store> {
        self.store.as_mut()
    }

    /// Detach and return the store (e.g. to crash it and re-open).
    pub fn take_store(&mut self) -> Option<Store> {
        self.store.take()
    }

    /// Enable the incremental diversity index at batch parameter λ,
    /// cold-starting it over the current chain (O(chain), once). Every
    /// later adoption maintains it O(Δ). Re-enabling replaces any
    /// existing index.
    pub fn enable_index(&mut self, lambda: usize) -> Result<(), NodeError> {
        NodeMetrics::global().index_rebuilds.inc();
        self.index = Some(index_of_chain(&self.chain, lambda)?);
        Ok(())
    }

    /// The incremental diversity index, if enabled.
    pub fn index(&self) -> Option<&DiversityIndex> {
        self.index.as_ref()
    }

    /// Fold an adopted block into the index. A rejected delta means chain
    /// and index disagree — defensively rebuild from the chain (the chain
    /// is authoritative); if even the rebuild fails, drop the index rather
    /// than serve verdicts from a diverged replica.
    fn index_adopted(&mut self, delta: &dams_core::BlockDelta) {
        let Some(index) = &mut self.index else { return };
        let metrics = NodeMetrics::global();
        match index.apply_block(delta) {
            Ok(()) => metrics.index_blocks_applied.inc(),
            Err(_) => {
                metrics.index_rebuilds.inc();
                let lambda = index.lambda();
                self.index = index_of_chain(&self.chain, lambda).ok();
            }
        }
    }

    /// Attach a freshly opened store. The recovered chain must be a
    /// prefix of (or extend) this node's chain: whichever side is longer
    /// wins, and the shorter side is persisted/adopted to match, so node
    /// and store agree exactly afterwards.
    pub fn attach_store(&mut self, recovered: Recovered) -> Result<(), NodeError> {
        let Recovered {
            mut store,
            chain: stored,
            ..
        } = recovered;
        let common = stored.height().min(self.chain.height());
        if self.chain.blocks()[common - 1].hash() != stored.blocks()[common - 1].hash() {
            return Err(NodeError::Store(StoreError::CheckpointStateMismatch {
                height: common as u64 - 1,
                field: "store chain diverges from node chain",
            }));
        }
        if stored.height() > self.chain.height() {
            self.chain = stored;
            // The store's chain superseded ours: any incremental index is
            // anchored to the old tip, so re-anchor it over the winner.
            if let Some(index) = &self.index {
                NodeMetrics::global().index_rebuilds.inc();
                let lambda = index.lambda();
                self.index = index_of_chain(&self.chain, lambda).ok();
            }
        } else {
            for block in &self.chain.blocks()[stored.height()..] {
                store.append_block(block)?;
            }
            store.maybe_checkpoint(&self.chain)?;
        }
        self.store = Some(store);
        Ok(())
    }

    /// WAL-append + fsync `block` if a store is attached — the durability
    /// barrier that must precede applying the block to chain state.
    fn persist_block(&mut self, block: &Block) -> Result<(), NodeError> {
        if let Some(store) = &mut self.store {
            store.append_block(block)?;
        }
        Ok(())
    }

    /// Checkpoint opportunistically after an adoption. A checkpoint
    /// failure never loses data (the WAL has every block) so it degrades
    /// the node's recovery speed, not its correctness.
    fn after_adopt(&mut self) {
        if let Some(store) = &mut self.store {
            let _ = store.maybe_checkpoint(&self.chain);
        }
    }

    /// Seal the chain's mempool into a block and persist it: the mining
    /// path's counterpart to the gossip path's WAL-append → apply.
    /// (Sealing applies first by construction — the block does not exist
    /// until sealed — so a crash between seal and append costs the miner
    /// only its own newest block, never a committed prefix.)
    pub fn seal_block(&mut self) -> Result<Block, NodeError> {
        self.chain.seal_block()?;
        let block = self.chain.tip()?.clone();
        self.persist_block(&block)?;
        self.after_adopt();
        self.index_adopted(&block_delta(&block));
        Ok(block)
    }

    /// Rebuild a replica by opening its durable store: replay
    /// `checkpoint + WAL tail`, truncate torn tails, re-verify every
    /// recovered RS's claimed diversity. An immutability violation is a
    /// typed error — a node must not serve state whose evidence no longer
    /// holds. A flagged-but-recoverable report (corrupt tail truncated)
    /// yields a working node plus the report for the caller to act on.
    pub fn restore_from_store(
        id: usize,
        group: SchnorrGroup,
        limits: NodeLimits,
        wal: Box<dyn Backend>,
        cp: Box<dyn Backend>,
        cfg: StoreConfig,
    ) -> Result<(Self, RecoveryReport), NodeError> {
        let metrics = NodeMetrics::global();
        metrics.store_restores.inc();
        let recovered = Store::open(wal, cp, group, cfg)?;
        let report = recovered.report.clone();
        if !report.clean() {
            metrics.store_restore_flagged.inc();
        }
        if let Some(&(height, ring_index)) = report.immutability_violations.first() {
            return Err(NodeError::Store(StoreError::ImmutabilityViolated {
                height,
                ring_index,
            }));
        }
        let mut node = SimNode::with_limits(id, group, limits);
        node.chain = recovered.chain;
        node.store = Some(recovered.store);
        Ok((node, report))
    }

    /// Deliver a block to this node's inbox. Rejects (typed, not
    /// panicking, not allocating) when the inbox is at capacity — the
    /// gossip layer treats that like a dropped packet and retries later.
    pub fn deliver(&mut self, block: Block) -> Result<(), NodeError> {
        if self.inbox.len() >= self.limits.inbox_capacity {
            self.stats.inbox_rejected += 1;
            NodeMetrics::global().inbox_rejected.inc();
            return Err(NodeError::InboxFull {
                capacity: self.limits.inbox_capacity,
            });
        }
        self.inbox.push_back(block);
        NodeMetrics::global()
            .inbox_high_watermark
            .set_max(self.inbox.len() as i64);
        Ok(())
    }

    /// Whether the chain already contains a block with this hash at its
    /// recorded height (cheap: height indexes the block list directly).
    fn already_have(&self, block: &Block) -> bool {
        self.chain
            .blocks()
            .get(block.header.height.0 as usize)
            .is_some_and(|own| own.hash() == block.hash())
    }

    /// Process the inbox: append blocks whose parent is our tip; park the
    /// rest as orphans (bounded, TTL-limited) and retry them after every
    /// successful append. Advances the node's logical clock.
    ///
    /// Returns how many blocks were appended.
    pub fn process_inbox(&mut self) -> usize {
        self.tick += 1;
        while let Some(block) = self.inbox.pop_front() {
            self.park_orphan(block);
        }
        let appended = self.drain_orphans();
        self.evict_expired_orphans();
        appended
    }

    /// Park a block in the orphan pool, deduplicating against the chain
    /// and the pool, and evicting the oldest entry on overflow.
    fn park_orphan(&mut self, block: Block) {
        if self.already_have(&block) {
            self.stats.duplicates_dropped += 1;
            NodeMetrics::global().duplicates_dropped.inc();
            return;
        }
        let hash = block.hash();
        if self.orphans.iter().any(|o| o.block.hash() == hash) {
            self.stats.duplicates_dropped += 1;
            NodeMetrics::global().duplicates_dropped.inc();
            return;
        }
        if self.orphans.len() >= self.limits.orphan_capacity {
            // Evict the longest-waiting orphan: its parent has had the
            // longest to arrive, so dropping it loses the least progress.
            if let Some(oldest) = self
                .orphans
                .iter()
                .enumerate()
                .min_by_key(|(_, o)| o.parked_at)
                .map(|(i, _)| i)
            {
                self.orphans.swap_remove(oldest);
                self.stats.orphans_evicted += 1;
                NodeMetrics::global().orphans_evicted.inc();
            }
        }
        self.orphans.push(Orphan {
            block,
            parked_at: self.tick,
        });
        NodeMetrics::global()
            .orphans_high_watermark
            .set_max(self.orphans.len() as i64);
    }

    fn drain_orphans(&mut self) -> usize {
        let mut appended = 0;
        // `tip_hash` failing means corrupted local state: stop consuming,
        // keep orphans.
        while let Ok(tip) = self.tip_hash() {
            let Some(pos) = self
                .orphans
                .iter()
                .position(|o| o.block.header.prev_hash == tip)
            else {
                break;
            };
            let orphan = self.orphans.swap_remove(pos);
            // Adoption consumes the block, so project its index delta
            // first (only when an index is enabled — the projection is
            // O(Δ) but not free).
            let delta = self.index.is_some().then(|| block_delta(&orphan.block));
            // Full validation: structure, signatures, key images. Invalid
            // or non-adoptable blocks are discarded, never fatal. A
            // verified block is WAL-persisted *before* it is applied, so
            // adoption is atomic across crashes.
            let adopted = self
                .chain
                .verify_block(&orphan.block, &NoConfiguration)
                .map_err(NodeError::from)
                .and_then(|()| self.persist_block(&orphan.block))
                .and_then(|()| {
                    self.chain
                        .adopt_block(orphan.block)
                        .map_err(NodeError::from)
                });
            if adopted.is_err() {
                self.stats.blocks_discarded += 1;
                NodeMetrics::global().blocks_discarded.inc();
                continue;
            }
            self.after_adopt();
            if let Some(delta) = delta {
                self.index_adopted(&delta);
            }
            appended += 1;
        }
        appended
    }

    fn evict_expired_orphans(&mut self) {
        let ttl = self.limits.orphan_ttl;
        let tick = self.tick;
        let before = self.orphans.len();
        // An expired orphan whose parent is itself pooled is *live*: its
        // ancestry arrived (possibly on the exact expiry tick) and is
        // still being assembled, so evicting it would discard progress the
        // pool just made. TTL only fires on orphans whose parent is
        // nowhere in sight. Cycles cannot pin entries (block hashes form a
        // DAG), and a truly dead chain of orphans still drains: its root's
        // parent never appears, so the root expires, then its child, one
        // per tick.
        let pooled: Vec<Digest> = self.orphans.iter().map(|o| o.block.hash()).collect();
        self.orphans.retain(|o| {
            tick.saturating_sub(o.parked_at) <= ttl || pooled.contains(&o.block.header.prev_hash)
        });
        let expired = (before - self.orphans.len()) as u64;
        self.stats.orphans_evicted += expired;
        NodeMetrics::global().orphans_evicted.add(expired);
    }

    /// Serve the contiguous height range `[from, to)` — the pull half of
    /// anti-entropy range repair. A request for more than `cap` blocks is
    /// a typed [`NodeError::RangeRefused`], refused whole rather than
    /// silently truncated: the gossip layer answers it with a refusal
    /// frame and attributes the oversized ask to the requester. Heights
    /// past the local tip are silently clipped.
    pub fn serve_range(&self, from: usize, to: usize, cap: usize) -> Result<Vec<Block>, NodeError> {
        let requested = to.saturating_sub(from);
        if requested > cap {
            return Err(NodeError::RangeRefused {
                requested: requested as u64,
                cap: cap as u64,
            });
        }
        let hi = to.min(self.chain.height());
        Ok(self
            .chain
            .blocks()
            .get(from..hi)
            .unwrap_or_default()
            .to_vec())
    }

    /// Read access to the attached store (checkpoint/tail serving).
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Number of currently parked orphans (for tests and monitoring).
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dams_blockchain::{Amount, BatchList, TokenOutput};
    use dams_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mine one coinbase block of `outputs` fresh tokens on `miner`.
    pub(crate) fn mine_one(miner: &mut SimNode, outputs: usize, rng: &mut StdRng) -> Block {
        let group = *miner.chain().group();
        let outs = (0..outputs)
            .map(|_| TokenOutput {
                owner: KeyPair::generate(&group, rng).public,
                amount: Amount(1),
            })
            .collect();
        miner.chain_mut().submit_coinbase(outs);
        miner.seal_block().unwrap()
    }

    /// Process the followers' inboxes until nothing moves, answering
    /// each follower with the miner's range from the follower's height,
    /// as range repair does.
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

    #[test]
    fn nodes_converge_on_chain_and_batches() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut miner = SimNode::new(0, group);
        let mut followers: Vec<SimNode> = (1..4).map(|i| SimNode::new(i, group)).collect();
        for _ in 0..6 {
            let block = mine_one(&mut miner, 3, &mut rng);
            for node in &mut followers {
                node.deliver(block.clone()).unwrap();
            }
        }
        settle(&miner, &mut followers);
        assert!(
            in_sync(&miner, &followers, 7),
            "tips or batch lists diverged"
        );
        for n in &followers {
            assert!(n.chain().audit());
            assert_eq!(n.chain().token_count(), 18);
        }
    }

    #[test]
    fn out_of_order_delivery_heals() {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group)];
        // Mine 3 blocks but deliver to node 1 in reverse order: the orphan
        // pool must reassemble them.
        let mut rng = StdRng::seed_from_u64(2);
        let blocks: Vec<Block> = (0..3).map(|_| mine_one(&mut miner, 1, &mut rng)).collect();
        for b in blocks.into_iter().rev() {
            followers[0].deliver(b).unwrap();
        }
        settle(&miner, &mut followers);
        assert!(in_sync(&miner, &followers, 1));
    }

    #[test]
    fn tampered_block_discarded() {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group)];
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = mine_one(&mut miner, 1, &mut rng);
        // Tamper with the content after sealing.
        block.transactions.clear();
        followers[0].deliver(block).unwrap();
        assert_eq!(followers[0].process_inbox(), 0);
        // Node 1 keeps only genesis; no convergence with poisoned data.
        assert_eq!(followers[0].chain().height(), 1);
        assert_eq!(followers[0].stats().blocks_discarded, 1);
        // Range repair then brings the genuine block.
        settle(&miner, &mut followers);
        assert!(in_sync(&miner, &followers, 1));
    }

    #[test]
    fn inbox_applies_back_pressure() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            inbox_capacity: 2,
            ..NodeLimits::default()
        };
        let mut node = SimNode::with_limits(0, group, limits);
        let mut miner = SimNode::new(1, group);
        let mut rng = StdRng::seed_from_u64(4);
        let block = mine_one(&mut miner, 1, &mut rng);
        assert!(node.deliver(block.clone()).is_ok());
        assert!(node.deliver(block.clone()).is_ok());
        let err = node.deliver(block).unwrap_err();
        assert_eq!(err, NodeError::InboxFull { capacity: 2 });
        assert_eq!(node.stats().inbox_rejected, 1);
    }

    #[test]
    fn orphan_pool_is_bounded_and_ttl_evicts() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            orphan_capacity: 3,
            orphan_ttl: 2,
            ..NodeLimits::default()
        };
        let mut miner = SimNode::new(0, group);
        let mut rng = StdRng::seed_from_u64(5);
        // Mine 5 distinct blocks; withhold their common ancestry from the
        // victim so every one is an orphan there.
        let blocks: Vec<Block> = (0..5).map(|_| mine_one(&mut miner, 1, &mut rng)).collect();
        let mut node = SimNode::with_limits(9, group, limits);
        for b in blocks.into_iter().skip(1) {
            node.deliver(b).unwrap();
        }
        node.process_inbox();
        assert!(node.orphan_count() <= 3, "pool exceeded capacity");
        assert!(node.stats().orphans_evicted >= 1, "overflow must evict");
        // Nothing ever parents these orphans: TTL clears the pool. The
        // drain cascades from the ancestry root (whose parent never
        // appears) one orphan per tick — children with a pooled parent
        // are exempt from TTL until that parent expires first.
        for _ in 0..8 {
            node.process_inbox();
        }
        assert_eq!(node.orphan_count(), 0, "TTL eviction failed");
    }

    #[test]
    fn orphan_with_parent_arriving_at_expiry_tick_is_adopted() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            orphan_ttl: 3,
            ..NodeLimits::default()
        };
        let mut miner = SimNode::new(0, group);
        let mut rng = StdRng::seed_from_u64(11);
        let b1 = mine_one(&mut miner, 1, &mut rng);
        let b2 = mine_one(&mut miner, 1, &mut rng);
        let b3 = mine_one(&mut miner, 1, &mut rng);
        let mut node = SimNode::with_limits(9, group, limits);
        // b3 parks at tick 1; with ttl=3 it survives through tick 4 and
        // expires on tick 5.
        node.deliver(b3).unwrap();
        for _ in 0..4 {
            node.process_inbox();
        }
        assert_eq!(node.orphan_count(), 1, "b3 evicted before expiry");
        // b2 (b3's parent) arrives on the exact tick b3 expires. b2's own
        // parent b1 is still missing, so neither can be adopted yet — but
        // b3's ancestry is now assembling and must not be TTL-evicted.
        node.deliver(b2).unwrap();
        node.process_inbox();
        assert_eq!(node.orphan_count(), 2, "b3 evicted at the boundary tick");
        // Completing the ancestry adopts all three blocks.
        node.deliver(b1).unwrap();
        node.process_inbox();
        assert_eq!(node.chain().height(), 4, "orphan chain not adopted");
        assert_eq!(node.orphan_count(), 0);
    }

    #[test]
    fn serve_range_clips_to_tip_and_cap() {
        let group = SchnorrGroup::default();
        let mut node = SimNode::new(0, group);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..5 {
            mine_one(&mut node, 1, &mut rng);
        }
        // Height 6: genesis + 5 mined blocks.
        let all = node.serve_range(1, 6, 100).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].header.height.0, 1);
        assert_eq!(
            node.serve_range(1, 6, 2).unwrap_err(),
            NodeError::RangeRefused {
                requested: 5,
                cap: 2
            },
            "an oversized request is refused whole, not truncated"
        );
        assert_eq!(node.serve_range(1, 3, 2).unwrap().len(), 2);
        let clipped = node.serve_range(4, 50, 100).unwrap();
        assert_eq!(clipped.len(), 2, "past-tip heights must clip");
        assert!(node.serve_range(9, 12, 8).unwrap().is_empty());
        assert!(node.serve_range(3, 3, 8).unwrap().is_empty());
        assert!(node.serve_range(5, 2, 8).unwrap().is_empty());
    }

    #[test]
    fn duplicate_announcements_are_dropped_not_pooled() {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut rng = StdRng::seed_from_u64(6);
        let b1 = mine_one(&mut miner, 1, &mut rng);
        let b2 = mine_one(&mut miner, 1, &mut rng);
        let mut node = SimNode::new(9, group);
        for _ in 0..3 {
            node.deliver(b2.clone()).unwrap();
        }
        node.process_inbox();
        assert_eq!(node.orphan_count(), 1, "duplicates must collapse");
        node.deliver(b1.clone()).unwrap();
        node.deliver(b1).unwrap();
        node.process_inbox();
        assert_eq!(node.chain().height(), 3, "both blocks adopted once");
        assert!(node.stats().duplicates_dropped >= 3);
    }

    #[test]
    fn range_repair_backfills_a_gap() {
        let group = SchnorrGroup::default();
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group)];
        let mut rng = StdRng::seed_from_u64(7);
        // Node 0 mines 4 blocks; node 1 only hears about the last one,
        // which waits in the orphan pool for its ancestry.
        let blocks: Vec<Block> = (0..4).map(|_| mine_one(&mut miner, 1, &mut rng)).collect();
        let last = blocks.last().unwrap().clone();
        followers[0].deliver(last).unwrap();
        assert_eq!(followers[0].process_inbox(), 0);
        assert_eq!(followers[0].orphan_count(), 1);
        settle(&miner, &mut followers);
        assert!(
            in_sync(&miner, &followers, 1),
            "the range from node 1's height should fill the gap"
        );
        assert_eq!(followers[0].orphan_count(), 0);
        assert_eq!(
            followers[0].stats().duplicates_dropped,
            1,
            "the pooled tip arrives again in the range and collapses"
        );
    }

    /// Fingerprint vector of every batch — equal fingerprints mean the
    /// incremental index and a from-scratch rebuild agree exactly.
    fn index_fingerprints(index: &dams_core::DiversityIndex) -> Vec<u64> {
        (0..index.batch_count())
            .map(|b| index.batch_fingerprint(b))
            .collect()
    }

    #[test]
    fn index_tracks_gossip_adoption_in_lock_step() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(21);
        let mut miner = SimNode::new(0, group);
        let mut followers = [SimNode::new(1, group)];
        followers[0].enable_index(5).unwrap();
        for _ in 0..6 {
            let block = mine_one(&mut miner, 3, &mut rng);
            followers[0].deliver(block).unwrap();
        }
        settle(&miner, &mut followers);
        assert!(in_sync(&miner, &followers, 5));
        let node = &followers[0];
        let index = node.index().expect("index enabled");
        assert_eq!(index.token_count(), node.chain().token_count() as u64);
        assert_eq!(
            index.last_height(),
            Some(node.chain().height() as u64 - 1),
            "index must sit exactly at the adopted tip"
        );
        let rebuilt = crate::indexing::index_of_chain(node.chain(), 5).unwrap();
        assert_eq!(index_fingerprints(index), index_fingerprints(&rebuilt));
        // Genesis replayed at enable time + 6 gossiped blocks, all O(Δ).
        assert_eq!(index.stats().blocks_applied, 7, "O(Δ) path, not rebuilds");
    }

    #[test]
    fn sealing_maintains_the_miners_index() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(22);
        let mut node = SimNode::new(0, group);
        node.enable_index(4).unwrap();
        for _ in 0..5 {
            mine_one(&mut node, 1, &mut rng);
        }
        let index = node.index().unwrap();
        assert_eq!(index.token_count(), 5);
        let rebuilt = crate::indexing::index_of_chain(node.chain(), 4).unwrap();
        assert_eq!(index_fingerprints(index), index_fingerprints(&rebuilt));
    }

    #[test]
    fn sibling_of_the_tip_is_never_adopted() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(23);
        let limits = NodeLimits {
            orphan_ttl: 3,
            ..NodeLimits::default()
        };
        let mut node = SimNode::with_limits(0, group, limits);
        let store = dams_store::Store::open(
            Box::new(dams_store::MemBackend::new()),
            Box::new(dams_store::MemBackend::new()),
            group,
            StoreConfig::default(),
        )
        .unwrap();
        node.attach_store(store).unwrap();
        node.enable_index(2).unwrap();
        let blocks: Vec<Block> = (0..3).map(|_| mine_one(&mut node, 1, &mut rng)).collect();
        // A rival mines its own block 3 on block 2: valid, but a sibling
        // of the node's tip.
        let mut rival = SimNode::new(1, group);
        for block in &blocks[..2] {
            rival.deliver(block.clone()).unwrap();
        }
        assert_eq!(rival.process_inbox(), 2);
        let sibling = mine_one(&mut rival, 1, &mut rng);
        assert_eq!(sibling.header.height, blocks[2].header.height);
        assert_eq!(sibling.header.prev_hash, blocks[1].hash());
        assert_ne!(sibling.hash(), blocks[2].hash());

        let tip = node.tip_hash().unwrap();
        let wal_len = node.store().unwrap().wal_len();
        let index = node.index().unwrap();
        let (fingerprints, applied) = (index_fingerprints(index), index.stats().blocks_applied);
        let evicted = node.stats().orphans_evicted;
        node.deliver(sibling).unwrap();
        assert_eq!(node.process_inbox(), 0, "a sibling of the tip was adopted");
        // It waits out its TTL as an orphan whose parent never comes,
        // then is evicted.
        for _ in 0..limits.orphan_ttl {
            node.process_inbox();
        }
        assert_eq!(node.orphan_count(), 1, "evicted before its TTL ran out");
        node.process_inbox();
        assert_eq!(node.orphan_count(), 0, "outlived its TTL");
        assert_eq!(node.stats().orphans_evicted, evicted + 1);

        assert_eq!(node.tip_hash().unwrap(), tip);
        assert_eq!(node.store().unwrap().wal_len(), wal_len);
        let index = node.index().unwrap();
        assert_eq!(index_fingerprints(index), fingerprints);
        assert_eq!(index.stats().blocks_applied, applied);
    }
}
