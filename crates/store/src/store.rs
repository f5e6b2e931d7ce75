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

use std::collections::HashMap;

use dams_blockchain::{Block, Chain, ChainError, NoConfiguration, TxId};
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
    /// Blocks between checkpoints.
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
            if self.corruption_detected {
                "YES"
            } else {
                "no"
            }
        ));
        out.push_str(&format!(
            "  immutability: {} RSs re-checked, {}\n",
            self.rings_checked,
            if self.immutability_violations.is_empty() {
                "all keep their claimed (c, l)-diversity".into()
            } else {
                format!(
                    "{} VIOLATIONS {:?}",
                    self.immutability_violations.len(),
                    self.immutability_violations
                )
            }
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
    /// Block records in the WAL, counting a duplicate-bearing log's
    /// duplicates once.
    blocks: u64,
    /// Height the newest durable checkpoint attests (0 = none).
    last_checkpoint_height: u64,
    /// Blocks served to peers through catch-up bundles.
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
                    blocks: 0,
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
                blocks: report.records_replayed,
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
        self.blocks += 1;
        self.wal_len += bytes.len() as u64;
        Ok(())
    }

    /// Write a checkpoint if the chain has advanced `checkpoint_interval`
    /// blocks past the last one. Returns whether one was written.
    pub fn maybe_checkpoint(&mut self, chain: &Chain) -> Result<bool, StoreError> {
        let height = chain.tip().map_err(replay_err(0, 0))?.header.height.0;
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
        self.blocks_served += self.blocks;
        StoreMetrics::global().checkpoint_served.add(self.blocks);
        Ok(CatchUpBundle {
            checkpoint,
            wal,
            blocks: self.blocks,
            checkpoint_height: self.last_checkpoint_height,
        })
    }

    /// Blocks this store has served to peers through catch-up bundles.
    pub fn blocks_served(&self) -> u64 {
        self.blocks_served
    }
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
    let attested =
        chain
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

/// The (c, ℓ) requirement a claim of `(c, l)` asserts, or `None` when it
/// asserts nothing: `ℓ < 1`, or a `c` that is not `> 0` (NaN included).
/// A ring signature does not cover its claim, so this must never panic on
/// a value a peer sent.
pub fn claimed_requirement(c: f64, l: usize) -> Option<DiversityRequirement> {
    (l >= 1 && c > 0.0).then(|| DiversityRequirement::new(c, l))
}

/// The chain's token→HT universe: the HT of a token is its origin
/// transaction, labelled densely in first-seen order. A token with no
/// record (unreachable on a well-formed chain, whose token ids are dense)
/// gets a fresh singleton label instead of a panic.
pub fn chain_universe(chain: &Chain) -> TokenUniverse {
    let mut labels: HashMap<TxId, u32> = HashMap::new();
    let mut next = 0u32;
    let ht_of = (0..chain.token_count() as u64)
        .map(|i| {
            let label = match chain.token(dams_blockchain::TokenId(i)) {
                Some(rec) => *labels.entry(rec.origin).or_insert(next),
                None => next,
            };
            if label == next {
                next += 1;
            }
            HtId(label)
        })
        .collect();
    TokenUniverse::new(ht_of)
}

/// A ledger ring in the algorithmic representation.
pub fn ledger_ring(tokens: &[dams_blockchain::TokenId]) -> RingSet {
    RingSet::new(tokens.iter().map(|t| dams_diversity::TokenId(t.0 as u32)))
}

/// Re-verify every committed RS's claimed (c, ℓ)-diversity against the
/// recovered ledger's [`chain_universe`]: [`claim_violations`] over the
/// whole chain.
pub fn recheck_immutability(chain: &Chain) -> ImmutabilityCheck {
    let universe = chain_universe(chain);
    ImmutabilityCheck {
        rings_checked: chain
            .blocks()
            .iter()
            .flat_map(|block| &block.transactions)
            .map(|ct| ct.tx.inputs.len() as u64)
            .sum(),
        violations: claim_violations(chain.blocks(), &universe).collect(),
    }
}

/// The ledger claim check, shared by [`Store::open`] (through
/// [`recheck_immutability`]) and, in dams-node, by gossip intake, staging
/// release and the auditor. Yields each ring input of `blocks` whose ring
/// fails its own claimed (c, ℓ)-diversity on the origin histogram
/// `universe` assigns it, as `(block height, commit-order ring index)`,
/// the index counting every ring input of `blocks` from 0.
///
/// Skipped: a claim that asserts nothing (see [`claimed_requirement`]),
/// and a ring naming a token outside `universe` (a receiver cannot judge
/// a ring over tokens it has not seen; structural verification rejects
/// such a block anyway).
pub fn claim_violations<'a>(
    blocks: &'a [Block],
    universe: &'a TokenUniverse,
) -> impl Iterator<Item = (u64, u64)> + 'a {
    blocks
        .iter()
        .flat_map(|block| {
            let height = block.header.height.0;
            block
                .transactions
                .iter()
                .flat_map(move |ct| ct.tx.inputs.iter().map(move |input| (height, input)))
        })
        .zip(0u64..)
        .filter(|((_, input), _)| {
            claimed_requirement(input.claimed_c, input.claimed_l).is_some_and(|req| {
                input.ring.iter().all(|t| (t.0 as usize) < universe.len())
                    && !req.satisfied_by_ring(&ledger_ring(&input.ring), universe)
            })
        })
        .map(|((height, _), index)| (height, index))
}
