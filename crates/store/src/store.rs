//! The durable store: WAL-append → fsync → apply, and the recovery path
//! that replays `checkpoint + WAL tail` back into a verified [`Chain`].
//!
//! Invariants the store maintains:
//!
//! 1. **Write-ahead**: a block reaches the WAL *and is fsynced* before
//!    the caller applies it to chain state, so a crash at any instant
//!    leaves the WAL at least as new as the in-memory chain.
//! 2. **Detect, never guess**: recovery truncates at the first torn or
//!    corrupt record; a corrupt record with valid data *after* it is a
//!    hard error (truncating would silently drop committed state).
//! 3. **Evidence re-verified**: before a recovered chain is handed back,
//!    every recovered RS's claimed (c, ℓ)-diversity is re-checked — the
//!    paper's immutability condition holds *across* crashes, not just
//!    between them.
//! 4. **Reorg-safe**: [`Store::rollback_to`] refuses to remove any block
//!    carrying committed ring signatures — their claimed diversity is
//!    forever, so the ledger may only lose blocks that committed nothing.

use std::collections::HashMap;

use dams_blockchain::{Chain, ChainError, NoConfiguration, RingInput, TxId};
use dams_crypto::sha256::sha256_parts;
use dams_crypto::SchnorrGroup;
use dams_diversity::{DiversityRequirement, HtId, RingSet, TokenUniverse};

use crate::backend::Backend;
use crate::checkpoint::{self, Checkpoint, CheckpointLoad};
use crate::error::StoreError;
use crate::obs::StoreMetrics;
use crate::wal::{self, TAG_BLOCK, WAL_HEADER_LEN};

/// Tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Blocks between checkpoints; `0` disables checkpointing.
    pub checkpoint_interval: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_interval: 4,
        }
    }
}

/// A stable 64-bit fingerprint of the group parameters, stamped into the
/// WAL header and every checkpoint so bytes written under one group are
/// never replayed under another.
pub fn group_fingerprint(group: &SchnorrGroup) -> u64 {
    let digest = sha256_parts(&[
        &group.modulus().to_le_bytes(),
        &group.order().to_le_bytes(),
        &group.generator().value().to_le_bytes(),
    ]);
    u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// What recovery did and found. Every field is deterministic for a fixed
/// input image, so reports diff cleanly across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The WAL held no records at all (fresh store).
    pub fresh: bool,
    /// Records replayed into the chain (duplicates excluded).
    pub records_replayed: u64,
    /// Torn/corrupt tail records dropped.
    pub records_truncated: u64,
    /// Bytes removed by the tail truncation.
    pub bytes_truncated: u64,
    /// Byte-duplicate records recognised and skipped.
    pub duplicates_skipped: u64,
    /// A checkpoint was loaded and its attestation verified.
    pub checkpoint_loaded: bool,
    /// Height the loaded checkpoint attested (0 when none).
    pub checkpoint_height: u64,
    /// A checkpoint existed but failed its crc gauntlet (recovery fell
    /// back to full re-verification).
    pub checkpoint_rejected: bool,
    /// At least one corrupt — not merely torn — artifact was found.
    pub corruption_detected: bool,
    /// Committed RSs whose claimed diversity was re-verified.
    pub rings_checked: u64,
    /// `(block height, commit-order ring index)` of every recovered RS
    /// that no longer satisfies its claimed (c, ℓ).
    pub immutability_violations: Vec<(u64, u64)>,
    /// Recovered tip height (genesis = 0).
    pub height: u64,
    /// Recovered tip hash.
    pub tip: [u8; 32],
    /// Blocks this store served to peers through catch-up bundles and
    /// WAL-tail streams (a runtime counter, stamped into the report by
    /// the replication layer; 0 for a store that never served sync
    /// traffic).
    pub blocks_served_to_peers: u64,
}

impl RecoveryReport {
    /// Whether the node may accept traffic on this state: no corruption
    /// and every recovered RS kept its claimed diversity.
    pub fn clean(&self) -> bool {
        !self.corruption_detected && self.immutability_violations.is_empty()
    }

    /// Deterministic multi-line rendering for `dams-cli recover`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("recovery report:\n");
        out.push_str(&format!(
            "  records: {} replayed, {} truncated ({} bytes), {} duplicates skipped\n",
            self.records_replayed,
            self.records_truncated,
            self.bytes_truncated,
            self.duplicates_skipped
        ));
        out.push_str(&format!(
            "  checkpoint: {}\n",
            if self.checkpoint_loaded {
                format!("loaded and verified at height {}", self.checkpoint_height)
            } else if self.checkpoint_rejected {
                "REJECTED (crc), fell back to full re-verification".into()
            } else {
                "absent".into()
            }
        ));
        out.push_str(&format!(
            "  corruption detected: {}\n",
            if self.corruption_detected { "YES" } else { "no" }
        ));
        out.push_str(&format!(
            "  immutability: {} RSs re-checked, {}\n",
            self.rings_checked,
            if self.immutability_violations.is_empty() {
                "all keep their claimed (c, l)-diversity".into()
            } else {
                format!("{} VIOLATIONS {:?}", self.immutability_violations.len(), self.immutability_violations)
            }
        ));
        out.push_str(&format!(
            "  served to peers: {} blocks\n",
            self.blocks_served_to_peers
        ));
        out.push_str(&format!(
            "  recovered: height {}, tip {}\n  verdict: {}\n",
            self.height,
            hex(&self.tip),
            if self.clean() { "CLEAN" } else { "CORRUPT" }
        ));
        out
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A successfully opened (possibly just-recovered) store.
pub struct Recovered {
    pub store: Store,
    pub chain: Chain,
    pub report: RecoveryReport,
}

/// The durable store handle. All mutation goes through [`Store::append_block`]
/// (WAL-append → fsync) before the caller applies the block to its chain.
pub struct Store {
    wal: Box<dyn Backend>,
    cp: Box<dyn Backend>,
    group_fp: u64,
    cfg: StoreConfig,
    /// WAL byte length after the last framed record.
    wal_len: u64,
    /// `block_offsets[h - 1]` = WAL offset of the record committing block
    /// height `h` (its first occurrence, for duplicate-bearing logs).
    block_offsets: Vec<u64>,
    /// Height the newest durable checkpoint attests (0 = none).
    last_checkpoint_height: u64,
    /// Blocks served to peers through catch-up bundles / tail streams.
    blocks_served: u64,
}

/// The durable images a peer hands a late joiner: its newest checkpoint
/// plus its full WAL. The joiner replays them through [`Store::open`],
/// which adopts the checkpoint-attested prefix *structurally* (those
/// blocks were verified before being checkpointed and the attestation is
/// cross-checked) and fully re-verifies only the tail past the
/// checkpoint — bounded by the checkpoint interval, so catch-up
/// verification is O(tail), not O(chain). Every recovered RS's claimed
/// (c, ℓ)-diversity is still re-checked over the whole chain before the
/// joiner serves traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatchUpBundle {
    /// Raw checkpoint-device image (crc-framed; empty when the server
    /// never checkpointed).
    pub checkpoint: Vec<u8>,
    /// Raw WAL image: header plus every framed block record.
    pub wal: Vec<u8>,
    /// Block records contained in `wal`.
    pub blocks: u64,
    /// Height the checkpoint attests (0 = none) — everything past it is
    /// the tail the joiner must fully verify.
    pub checkpoint_height: u64,
}

impl Store {
    /// Open a store: recover whatever the backends hold, verify it, and
    /// return the handle plus the recovered chain and the recovery report.
    ///
    /// Hard-errors on interior corruption, group mismatch, replay
    /// failure, or checkpoint/WAL disagreement. Tail anomalies (torn or
    /// corrupt final record) are truncated and *reported*, not fatal —
    /// the caller decides whether a flagged recovery may serve traffic
    /// ([`RecoveryReport::clean`]).
    pub fn open(
        mut wal: Box<dyn Backend>,
        mut cp: Box<dyn Backend>,
        group: SchnorrGroup,
        cfg: StoreConfig,
    ) -> Result<Recovered, StoreError> {
        let metrics = StoreMetrics::global();
        metrics.recovery_runs.inc();
        let _timer = metrics.recovery_wall.start_span();
        let group_fp = group_fingerprint(&group);
        let mut report = RecoveryReport::default();

        // Checkpoint first: it decides how much of the WAL must be fully
        // re-verified.
        let cp_bytes = cp.read_all()?;
        let loaded_cp = match checkpoint::decode(&cp_bytes) {
            CheckpointLoad::Absent => None,
            CheckpointLoad::Rejected => {
                metrics.checkpoint_crc_rejects.inc();
                report.checkpoint_rejected = true;
                None
            }
            CheckpointLoad::Loaded(c) => {
                if c.group_fp != group_fp {
                    return Err(StoreError::GroupMismatch {
                        expected: group_fp,
                        got: c.group_fp,
                    });
                }
                metrics.checkpoint_loaded.inc();
                Some(c)
            }
        };

        let wal_bytes = wal.read_all()?;
        if wal_bytes.is_empty() {
            if let Some(c) = &loaded_cp {
                // The checkpoint attests records the WAL no longer has.
                return Err(StoreError::CheckpointAheadOfWal {
                    height: c.height,
                    wal_height: 0,
                });
            }
            wal.append(&wal::encode_header(group_fp))?;
            wal.sync()?;
            report.fresh = true;
            let chain = Chain::new(group);
            report.height = 0;
            report.tip = chain.tip().map_err(replay_err(0, 0))?.hash();
            return Ok(Recovered {
                store: Store {
                    wal,
                    cp,
                    group_fp,
                    cfg,
                    wal_len: WAL_HEADER_LEN,
                    block_offsets: Vec::new(),
                    last_checkpoint_height: 0,
                    blocks_served: 0,
                },
                chain,
                report,
            });
        }

        let stored_fp = wal::decode_header(&wal_bytes)?;
        if stored_fp != group_fp {
            return Err(StoreError::GroupMismatch {
                expected: group_fp,
                got: stored_fp,
            });
        }
        if let Some(c) = &loaded_cp {
            if c.wal_len > wal_bytes.len() as u64 {
                // Attested bytes are gone: a lost fsync (or external
                // truncation) swallowed synced records.
                return Err(StoreError::CheckpointAheadOfWal {
                    height: c.height,
                    wal_height: wal_bytes.len() as u64,
                });
            }
        }

        // Scan: interior corruption is fatal, tail anomalies are recorded.
        let outcome = wal::scan(&wal_bytes)?;
        if let Some(cut) = outcome.tail.truncate_at() {
            report.records_truncated = 1;
            report.bytes_truncated = wal_bytes.len() as u64 - cut;
            metrics.wal_truncated_records.inc();
            if outcome.tail.is_corruption() {
                report.corruption_detected = true;
                metrics.recovery_corruption.inc();
            }
            if let Some(c) = &loaded_cp {
                if c.wal_len > cut {
                    // The anomaly ate into checkpoint-attested bytes.
                    return Err(StoreError::CheckpointAheadOfWal {
                        height: c.height,
                        wal_height: cut,
                    });
                }
            }
        }

        // Replay.
        let mut chain = Chain::new(group);
        let mut block_offsets = Vec::with_capacity(outcome.records.len());
        let trusted_height = loaded_cp.as_ref().map_or(0, |c| c.height);
        for span in &outcome.records {
            let payload = &wal_bytes[span.payload_start..span.payload_end];
            let tag = payload[0];
            if tag != TAG_BLOCK {
                return Err(StoreError::UnknownTag {
                    offset: span.offset,
                    tag,
                });
            }
            let block = dams_blockchain::decode_block(&group, &payload[1..]).map_err(|cause| {
                StoreError::Undecodable {
                    offset: span.offset,
                    cause,
                }
            })?;
            let height = block.header.height.0;
            let tip = chain.tip().map_err(replay_err(span.offset, height))?;
            if block.hash() == tip.hash() {
                // Byte-duplicate of the record that produced our tip.
                report.duplicates_skipped += 1;
                metrics.wal_duplicates_skipped.inc();
                continue;
            }
            // Blocks the checkpoint attests were verified before being
            // checkpointed: structural adoption suffices. Everything in
            // the tail is re-verified in full (signatures, key images).
            let result = if height <= trusted_height {
                chain.adopt_block(block)
            } else {
                chain
                    .verify_block(&block, &NoConfiguration)
                    .and_then(|()| chain.adopt_block(block))
            };
            result.map_err(|cause| StoreError::ReplayFailed {
                offset: span.offset,
                height,
                cause,
            })?;
            block_offsets.push(span.offset);
            report.records_replayed += 1;
            metrics.wal_replayed.inc();
        }

        // Cross-check the checkpoint's attestation against what replay
        // actually rebuilt.
        if let Some(c) = &loaded_cp {
            report.checkpoint_loaded = true;
            report.checkpoint_height = c.height;
            verify_checkpoint_attestation(&chain, c)?;
        }

        // Physically drop the bad tail so future appends are well-framed.
        let wal_len = match outcome.tail.truncate_at() {
            Some(cut) => {
                wal.truncate(cut)?;
                cut
            }
            None => wal_bytes.len() as u64,
        };

        // Immutability: every recovered RS must still satisfy its claim.
        let check = recheck_immutability(&chain);
        report.rings_checked = check.rings_checked;
        report.immutability_violations = check.violations;

        let tip = chain.tip().map_err(replay_err(0, 0))?;
        report.height = tip.header.height.0;
        report.tip = tip.hash();
        Ok(Recovered {
            store: Store {
                wal,
                cp,
                group_fp,
                cfg,
                wal_len,
                block_offsets,
                last_checkpoint_height: loaded_cp.map_or(0, |c| c.height),
                blocks_served: 0,
            },
            chain,
            report,
        })
    }

    /// WAL-append one block and fsync it. Call *before* applying the
    /// block to chain state — that ordering is what makes adoption atomic
    /// across crashes.
    pub fn append_block(&mut self, block: &dams_blockchain::Block) -> Result<(), StoreError> {
        let metrics = StoreMetrics::global();
        let bytes = wal::frame_block(block);
        self.wal.append(&bytes)?;
        self.wal.sync()?;
        metrics.wal_appends.inc();
        metrics.wal_fsyncs.inc();
        self.block_offsets.push(self.wal_len);
        self.wal_len += bytes.len() as u64;
        Ok(())
    }

    /// Write a checkpoint if the chain has advanced `checkpoint_interval`
    /// blocks past the last one. Returns whether one was written.
    pub fn maybe_checkpoint(&mut self, chain: &Chain) -> Result<bool, StoreError> {
        if self.cfg.checkpoint_interval == 0 {
            return Ok(false);
        }
        let height = chain
            .tip()
            .map_err(replay_err(0, 0))?
            .header
            .height
            .0;
        if height < self.last_checkpoint_height + self.cfg.checkpoint_interval {
            return Ok(false);
        }
        self.write_checkpoint(chain)
    }

    /// Unconditionally checkpoint the current chain state.
    pub fn write_checkpoint(&mut self, chain: &Chain) -> Result<bool, StoreError> {
        let cp = Checkpoint::of_chain(chain, self.group_fp, self.wal_len)?;
        let height = cp.height;
        let bytes = cp.encode();
        self.cp.truncate(0)?;
        self.cp.append(&bytes)?;
        self.cp.sync()?;
        StoreMetrics::global().checkpoint_written.inc();
        self.last_checkpoint_height = height;
        Ok(true)
    }

    /// Reorg-safe rollback: rebuild the chain at `target` height and cut
    /// the WAL to match — **refusing** if any removed block carries a
    /// committed RS (claimed diversity is forever) or the target undercuts
    /// the durable checkpoint.
    pub fn rollback_to(&mut self, chain: &Chain, target: u64) -> Result<Chain, StoreError> {
        let current = chain
            .tip()
            .map_err(replay_err(0, 0))?
            .header
            .height
            .0;
        if target >= current {
            // Nothing to remove; hand back an equivalent chain.
            return rebuild_prefix(chain, current);
        }
        if target < self.last_checkpoint_height {
            return Err(StoreError::RollbackBelowCheckpoint {
                target,
                checkpoint: self.last_checkpoint_height,
            });
        }
        for block in &chain.blocks()[(target + 1) as usize..] {
            let has_rs = block
                .transactions
                .iter()
                .any(|ct| !ct.tx.inputs.is_empty());
            if has_rs {
                return Err(StoreError::RollbackForbidden {
                    target,
                    rs_height: block.header.height.0,
                });
            }
        }
        let cut = self
            .block_offsets
            .get(target as usize)
            .copied()
            .unwrap_or(self.wal_len);
        self.wal.truncate(cut)?;
        self.wal.sync()?;
        self.wal_len = cut;
        self.block_offsets.truncate(target as usize);
        rebuild_prefix(chain, target)
    }

    /// Simulate power loss: both devices drop everything not yet synced.
    /// The handle's bookkeeping is stale afterwards — recover via
    /// [`Store::into_backends`] + [`Store::open`].
    pub fn crash(&mut self) {
        self.wal.crash();
        self.cp.crash();
    }

    /// Surrender the backends (for re-opening after a simulated crash, or
    /// for injecting storage faults between crash and recovery).
    pub fn into_backends(self) -> (Box<dyn Backend>, Box<dyn Backend>) {
        (self.wal, self.cp)
    }

    /// Inject a storage fault into the WAL's durable bytes.
    pub fn inject_wal_fault(&mut self, fault: &crate::faults::StorageFault) -> Result<(), StoreError> {
        self.wal.inject(fault)
    }

    /// Current WAL length in bytes (header + framed records).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Height attested by the newest durable checkpoint (0 = none).
    pub fn checkpoint_height(&self) -> u64 {
        self.last_checkpoint_height
    }

    /// Export the durable images a late joiner bootstraps from: newest
    /// checkpoint + full WAL (clipped to the last well-framed record).
    /// Counts every contained block as served.
    pub fn serve_catchup(&mut self) -> Result<CatchUpBundle, StoreError> {
        let mut wal = self.wal.read_all()?;
        wal.truncate(self.wal_len as usize);
        let checkpoint = self.cp.read_all()?;
        let blocks = self.block_offsets.len() as u64;
        self.note_served(blocks);
        Ok(CatchUpBundle {
            checkpoint,
            wal,
            blocks,
            checkpoint_height: self.last_checkpoint_height,
        })
    }

    /// Stream the framed WAL records past byte offset `from_len` — the
    /// tail a crash-restarted peer (which already holds a WAL prefix of
    /// that length) is missing. Offsets that don't fall on a record
    /// boundary of *this* WAL yield an empty stream rather than torn
    /// frames. Counts every streamed block as served.
    pub fn wal_tail(&mut self, from_len: u64) -> Result<Vec<u8>, StoreError> {
        let valid = from_len == self.wal_len
            || from_len == WAL_HEADER_LEN
            || self.block_offsets.contains(&from_len);
        if !valid || from_len >= self.wal_len {
            return Ok(Vec::new());
        }
        let mut wal = self.wal.read_all()?;
        wal.truncate(self.wal_len as usize);
        let tail = wal.split_off(from_len as usize);
        let blocks = self
            .block_offsets
            .iter()
            .filter(|&&off| off >= from_len)
            .count() as u64;
        self.note_served(blocks);
        Ok(tail)
    }

    /// Blocks this store has served to peers (bundles + tail streams).
    pub fn blocks_served(&self) -> u64 {
        self.blocks_served
    }

    fn note_served(&mut self, blocks: u64) {
        self.blocks_served += blocks;
        StoreMetrics::global().checkpoint_served.add(blocks);
    }
}

/// Re-adopt `chain`'s blocks up to `target` into a fresh chain (blocks
/// were verified when first applied, so structural adoption suffices).
fn rebuild_prefix(chain: &Chain, target: u64) -> Result<Chain, StoreError> {
    let mut rebuilt = Chain::new(*chain.group());
    for block in &chain.blocks()[1..=target as usize] {
        let height = block.header.height.0;
        rebuilt
            .adopt_block(block.clone())
            .map_err(|cause| StoreError::ReplayFailed {
                offset: 0,
                height,
                cause,
            })?;
    }
    Ok(rebuilt)
}

fn replay_err(offset: u64, height: u64) -> impl Fn(ChainError) -> StoreError {
    move |cause| StoreError::ReplayFailed {
        offset,
        height,
        cause,
    }
}

/// Check the replayed prefix against a checkpoint's attestation: tip hash
/// at its height, key-image set, and committed-ring fingerprints.
fn verify_checkpoint_attestation(chain: &Chain, cp: &Checkpoint) -> Result<(), StoreError> {
    let attested = chain
        .blocks()
        .get(cp.height as usize)
        .ok_or(StoreError::CheckpointAheadOfWal {
            height: cp.height,
            wal_height: chain.blocks().len().saturating_sub(1) as u64,
        })?;
    if attested.hash() != cp.tip {
        return Err(StoreError::CheckpointStateMismatch {
            height: cp.height,
            field: "tip hash",
        });
    }
    let mut images: Vec<u64> = chain.blocks()[..=cp.height as usize]
        .iter()
        .flat_map(|b| &b.transactions)
        .flat_map(|ct| &ct.tx.inputs)
        .map(|i| i.key_image().value())
        .collect();
    images.sort_unstable();
    if images != cp.images {
        return Err(StoreError::CheckpointStateMismatch {
            height: cp.height,
            field: "key-image set",
        });
    }
    let fps: Vec<[u8; 32]> = chain.blocks()[..=cp.height as usize]
        .iter()
        .flat_map(|b| &b.transactions)
        .flat_map(|ct| &ct.tx.inputs)
        .map(checkpoint::ring_fingerprint)
        .collect();
    if fps != cp.ring_fps[..] {
        return Err(StoreError::CheckpointStateMismatch {
            height: cp.height,
            field: "ring fingerprints",
        });
    }
    Ok(())
}

/// Result of re-verifying the immutability evidence of a recovered chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImmutabilityCheck {
    pub rings_checked: u64,
    /// `(block height, commit-order ring index)` of each violating RS.
    pub violations: Vec<(u64, u64)>,
}

/// The (c, ℓ) requirement `input` claims, or `None` when its claim asserts
/// nothing: `ℓ < 1`, or a `c` that is not `> 0` (NaN included), the rule
/// of the audit path. A ring signature does not cover its claim, so this
/// must never panic on a value a peer sent.
pub fn claimed_requirement(input: &RingInput) -> Option<DiversityRequirement> {
    (input.claimed_l >= 1 && input.claimed_c > 0.0)
        .then(|| DiversityRequirement::new(input.claimed_c, input.claimed_l))
}

/// Re-verify every committed RS's claimed (c, ℓ)-diversity against the
/// recovered ledger (HT of a token = its origin transaction, exactly the
/// auditor's reconstruction). Claims that assert nothing (see
/// [`claimed_requirement`]) are skipped.
pub fn recheck_immutability(chain: &Chain) -> ImmutabilityCheck {
    let mut ht_ids: HashMap<TxId, u32> = HashMap::new();
    let mut ht_of = Vec::with_capacity(chain.token_count());
    for i in 0..chain.token_count() as u64 {
        let next = ht_ids.len() as u32;
        let id = match chain.token(dams_blockchain::TokenId(i)) {
            Some(rec) => *ht_ids.entry(rec.origin).or_insert(next),
            None => next,
        };
        ht_of.push(HtId(id));
    }
    let universe = TokenUniverse::new(ht_of);

    let mut check = ImmutabilityCheck::default();
    let mut ring_index = 0u64;
    for block in chain.blocks() {
        for ct in &block.transactions {
            for input in &ct.tx.inputs {
                check.rings_checked += 1;
                let idx = ring_index;
                ring_index += 1;
                let Some(req) = claimed_requirement(input) else {
                    continue;
                };
                let ring = RingSet::new(
                    input
                        .ring
                        .iter()
                        .map(|t| dams_diversity::TokenId(t.0 as u32)),
                );
                if !req.satisfied_by_ring(&ring, &universe) {
                    check.violations.push((block.header.height.0, idx));
                }
            }
        }
    }
    check
}
