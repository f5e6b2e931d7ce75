//! The streaming diversity index: per-batch diversity state maintained
//! **O(Δ) per adopted block** instead of recomputed from the full chain
//! snapshot per request.
//!
//! Every selection request used to rebuild the batch view from genesis:
//! dense HT renumbering, ring collection, and an O(n²)
//! [`ModularInstance::decompose`] whenever an approximation tier ran. All
//! of that work grows with chain history, while the *answer* only depends
//! on one λ-batch (§4: a token's mixin universe is its batch). This module
//! keeps that per-batch state resident and mutates it as blocks arrive:
//!
//! * **per-batch token histograms** — dense batch-local HT labels plus an
//!   HT frequency vector, extended as tokens are minted;
//! * **committed-ring fingerprints** — a chained 64-bit digest per batch
//!   covering every token and ring applied to it, used for cache
//!   invalidation and cheap cross-replica comparison;
//! * **DTRS frontiers** — the module partition of the batch (super RSs and
//!   fresh tokens, Definitions 7/8) maintained by direct merge when a ring
//!   commits, so the degrade ladder's approximation tiers never pay the
//!   O(n²) decomposition.
//!
//! A per-block undo journal makes reorgs O(Δ) too: [`DiversityIndex::
//! rollback_block`] restores the exact prior state (fingerprints
//! included), and the journal can be pruned to the crash-checkpoint depth
//! since the store refuses deeper rollbacks anyway.
//!
//! Equivalence is not assumed: [`recompute_equivalence`] replays the raw
//! block deltas through an independent snapshot pipeline (batch partition
//! → per-batch instance → `decompose`) and demands byte-level agreement
//! with the incremental state, and [`DiversityIndex::select`] feeds the
//! maintained partition through the same ladder entry point as the
//! snapshot path, so verdicts are bit-identical by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dams_diversity::{DiversityRequirement, HtId, RingIndex, RingSet, TokenId, TokenUniverse};

use crate::bfs::BfsBudget;
use crate::config::SelectionPolicy;
use crate::degrade::{select_with_ladder_exec, DegradedSelection, LadderExec, Tier};
use crate::instance::{Instance, ModularInstance, Module, ModuleId, ModuleKind};
use crate::obs::CoreMetrics;
use crate::selection::SelectError;

/// One committed ring as it appears in an adopted block: global ledger
/// token ids plus the claimed requirement from the transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRing {
    /// Global token ids of the ring members (any order; deduplicated on
    /// application).
    pub tokens: Vec<u64>,
    /// Claimed diversity multiplier `c` (sanitised to > 0 on application).
    pub claimed_c: f64,
    /// Claimed tail index `ℓ` (sanitised to ≥ 1 on application).
    pub claimed_l: usize,
}

/// Everything one adopted block contributes to diversity state. The node
/// derives this from a chain block; the streaming workload generator emits
/// it directly so million-token chains never materialise full blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDelta {
    /// Chain height of the block (must be the successor of the previously
    /// applied height).
    pub height: u64,
    /// Tokens minted by the block in ledger order: `(global token id,
    /// historical-transaction key)`. Global ids must be dense and
    /// contiguous with what the index has already seen.
    pub minted: Vec<(u64, u64)>,
    /// Rings committed by the block, in commit order.
    pub rings: Vec<DeltaRing>,
}

/// Why the index rejected an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Minted token ids must be dense: the next id is always the current
    /// token count.
    NonContiguousToken { expected: u64, got: u64 },
    /// Blocks must apply in height order with no gaps.
    NonSequentialHeight { expected: Option<u64>, got: u64 },
    /// A ring referenced a token the index has never seen minted.
    UnknownRingToken(u64),
    /// Rollback requested but the undo journal is empty (either nothing
    /// was ever applied or the entries were pruned past this depth).
    NothingToRollBack,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::NonContiguousToken { expected, got } => {
                write!(f, "minted token {got} is not the next dense id {expected}")
            }
            IndexError::NonSequentialHeight { expected, got } => match expected {
                Some(e) => write!(f, "block height {got} applied after {e}"),
                None => write!(f, "block height {got} applied out of order"),
            },
            IndexError::UnknownRingToken(t) => write!(f, "ring references unknown token {t}"),
            IndexError::NothingToRollBack => {
                write!(f, "undo journal empty (pruned or never written)")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// A module of the incremental partition. `rs == None` is a fresh token;
/// `rs == Some(k)` is the super RS whose defining ring is the batch-local
/// ring `k`. Dead modules stay in place as tombstones so rollback can
/// resurrect them in O(their size).
#[derive(Debug, Clone)]
struct IxModule {
    rs: Option<u32>,
    /// Batch-local token ids, sorted.
    tokens: Vec<u32>,
    /// Subset count `v`: committed rings contained in this module.
    v: u32,
    alive: bool,
}

/// The resident state of one λ-batch.
#[derive(Debug, Clone)]
struct BatchState {
    first_block: u64,
    /// Global ids of the batch's tokens in mint order (ascending).
    tokens: Vec<u64>,
    /// Dense batch-local HT label per token (first-seen order).
    ht_label: Vec<u32>,
    /// HT key → batch-local label.
    ht_keys: HashMap<u64, u32>,
    /// Token count per HT label — the per-batch token histogram.
    histogram: Vec<u32>,
    /// Committed rings fully inside the batch (local ids, sorted), in
    /// chain commit order.
    rings: Vec<Vec<u32>>,
    /// Claimed requirement per ring, aligned with `rings`.
    claims: Vec<DiversityRequirement>,
    /// Module slots (tombstoned, see [`IxModule`]).
    modules: Vec<IxModule>,
    /// Local token → module slot.
    module_of: Vec<u32>,
    closed: bool,
    /// The in-batch ring history became non-laminar: no modular view
    /// exists (a snapshot `decompose` fails identically).
    broken: bool,
    /// Chained digest over every token and ring applied to this batch.
    fingerprint: u64,
    /// Bumped on every mutation (rollbacks included) — never reused, so a
    /// cached materialisation can always detect staleness.
    version: u64,
}

impl BatchState {
    fn new(first_block: u64) -> Self {
        BatchState {
            first_block,
            tokens: Vec::new(),
            ht_label: Vec::new(),
            ht_keys: HashMap::new(),
            histogram: Vec::new(),
            rings: Vec::new(),
            claims: Vec::new(),
            modules: Vec::new(),
            module_of: Vec::new(),
            closed: false,
            broken: false,
            fingerprint: 0,
            version: 0,
        }
    }
}

/// How one applied ring is undone.
#[derive(Debug, Clone)]
enum RingUndo {
    /// The ring spanned batches: only the global counter moved.
    CrossBatch,
    /// The ring nested inside module `slot` of `batch`: pop it, decrement
    /// the module's subset count.
    Nested { batch: usize, slot: u32 },
    /// The ring merged `old` slots of `batch` into a new trailing slot:
    /// pop the slot, resurrect the tombstones.
    Merged { batch: usize, old: Vec<u32> },
    /// The ring forced a partition rebuild (non-laminar arrival that may
    /// have healed): restore the saved module state wholesale.
    Rebuilt {
        batch: usize,
        modules: Vec<IxModule>,
        module_of: Vec<u32>,
        broken: bool,
    },
}

/// Undo journal entry for one applied block.
#[derive(Debug, Clone)]
struct BlockJournal {
    height: u64,
    prev_height: Option<u64>,
    /// HT keys of the block's minted tokens (ids are implied: they are the
    /// locator tail).
    minted_hts: Vec<u64>,
    /// The block opened a new batch.
    opened: bool,
    /// The block closed the open batch.
    closed: Option<usize>,
    rings: Vec<RingUndo>,
    /// Fingerprint of every touched batch before this block.
    fp_before: Vec<(usize, u64)>,
}

/// Maintenance-cost accounting. `*_ops` count elementary index operations
/// (token appends, ring-token touches, module-token moves) — a
/// deterministic, wall-clock-free measure of per-block work that the O(Δ)
/// gate asserts against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    pub blocks_applied: u64,
    pub blocks_rolled_back: u64,
    pub total_ops: u64,
    pub last_block_ops: u64,
    pub max_block_ops: u64,
    /// Batch materialisations served from the cache / built fresh.
    pub snapshot_hits: u64,
    pub snapshot_misses: u64,
}

/// A materialised batch view: everything a selection request needs,
/// shared read-only between callers and cached until the batch mutates.
#[derive(Debug)]
pub struct BatchSnapshot {
    pub batch: usize,
    pub fingerprint: u64,
    version: u64,
    /// Batch-local token id → global ledger id.
    pub tokens: Vec<u64>,
    /// The raw per-batch instance (local ids), as the snapshot pipeline
    /// would have built it.
    pub instance: Instance,
    /// The maintained module partition, ordered exactly as
    /// [`ModularInstance::decompose`] orders it. `None` when the batch's
    /// ring history is non-laminar (decompose fails identically).
    pub modular: Option<ModularInstance>,
}

/// A ladder verdict produced through the index, with the ring mapped back
/// to global ledger ids.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedSelection {
    pub batch: usize,
    /// Fingerprint of the batch state the verdict was computed against.
    pub fingerprint: u64,
    /// The raw ladder result in batch-local token ids.
    pub degraded: DegradedSelection,
    /// The selected ring as sorted global ledger ids.
    pub ring: Vec<u64>,
}

/// The persistent incremental diversity index (see the module docs).
#[derive(Debug)]
pub struct DiversityIndex {
    lambda: usize,
    batches: Vec<BatchState>,
    /// Global token id → (batch, local id).
    locator: Vec<(u32, u32)>,
    journal: Vec<BlockJournal>,
    /// Rings spanning more than one batch (excluded from every per-batch
    /// view; the snapshot oracle applies the same rule).
    cross_batch_rings: u64,
    last_height: Option<u64>,
    stats: IndexStats,
    snapshots: Mutex<HashMap<usize, Arc<BatchSnapshot>>>,
    snapshot_hits: AtomicU64,
    snapshot_misses: AtomicU64,
}

impl Clone for DiversityIndex {
    fn clone(&self) -> Self {
        DiversityIndex {
            lambda: self.lambda,
            batches: self.batches.clone(),
            locator: self.locator.clone(),
            journal: self.journal.clone(),
            cross_batch_rings: self.cross_batch_rings,
            last_height: self.last_height,
            stats: self.stats,
            snapshots: Mutex::new(HashMap::new()),
            snapshot_hits: AtomicU64::new(0),
            snapshot_misses: AtomicU64::new(0),
        }
    }
}

/// Chained 64-bit mix (splitmix-style) for the per-batch fingerprints.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl DiversityIndex {
    /// An empty index for λ-batches of (at least) `lambda` tokens —
    /// `lambda` follows the consensus batch rule, so `0` means `1`.
    pub fn new(lambda: usize) -> Self {
        DiversityIndex {
            lambda: lambda.max(1),
            batches: Vec::new(),
            locator: Vec::new(),
            journal: Vec::new(),
            cross_batch_rings: 0,
            last_height: None,
            stats: IndexStats::default(),
            snapshots: Mutex::new(HashMap::new()),
            snapshot_hits: AtomicU64::new(0),
            snapshot_misses: AtomicU64::new(0),
        }
    }

    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// Total tokens indexed so far.
    pub fn token_count(&self) -> u64 {
        self.locator.len() as u64
    }

    /// Number of batches (closed plus at most one open).
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// The batch holding a global token id.
    pub fn batch_of(&self, token: u64) -> Option<usize> {
        self.locator.get(token as usize).map(|&(b, _)| b as usize)
    }

    /// Whether a batch is closed (reached λ tokens at a block boundary).
    pub fn batch_closed(&self, batch: usize) -> bool {
        self.batches[batch].closed
    }

    /// Global token ids of a batch, in mint order.
    pub fn batch_tokens(&self, batch: usize) -> &[u64] {
        &self.batches[batch].tokens
    }

    /// Committed-ring fingerprint of a batch.
    pub fn batch_fingerprint(&self, batch: usize) -> u64 {
        self.batches[batch].fingerprint
    }

    /// Height of the first block contributing to a batch.
    pub fn batch_first_block(&self, batch: usize) -> u64 {
        self.batches[batch].first_block
    }

    /// Rings that spanned more than one batch (violating the §4 batch
    /// universe; tracked but excluded from every per-batch view).
    pub fn cross_batch_rings(&self) -> u64 {
        self.cross_batch_rings
    }

    /// Height of the last applied block.
    pub fn last_height(&self) -> Option<u64> {
        self.last_height
    }

    /// Undo journal depth (blocks that can still be rolled back).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Maintenance-cost counters (snapshot-cache counters folded in).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            snapshot_misses: self.snapshot_misses.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Apply one adopted block in O(Δ): Δ = minted tokens + ring sizes
    /// (plus, rarely, one bounded in-batch rebuild when a non-laminar ring
    /// arrives). Rejects out-of-order heights, non-dense token ids and
    /// rings over unknown tokens without mutating anything.
    pub fn apply_block(&mut self, delta: &BlockDelta) -> Result<(), IndexError> {
        // Validate before touching state: the index must stay consistent
        // when the caller feeds it a malformed delta.
        if let Some(last) = self.last_height {
            if delta.height != last.wrapping_add(1) {
                return Err(IndexError::NonSequentialHeight {
                    expected: Some(last),
                    got: delta.height,
                });
            }
        }
        for (i, &(tok, _)) in delta.minted.iter().enumerate() {
            let expected = self.locator.len() as u64 + i as u64;
            if tok != expected {
                return Err(IndexError::NonContiguousToken { expected, got: tok });
            }
        }
        let minted_high = self.locator.len() as u64 + delta.minted.len() as u64;
        for ring in &delta.rings {
            for &t in &ring.tokens {
                if t >= minted_high {
                    return Err(IndexError::UnknownRingToken(t));
                }
            }
        }

        let mut ops: u64 = 0;
        let mut entry = BlockJournal {
            height: delta.height,
            prev_height: self.last_height,
            minted_hts: Vec::with_capacity(delta.minted.len()),
            opened: false,
            closed: None,
            rings: Vec::with_capacity(delta.rings.len()),
            fp_before: Vec::new(),
        };

        // Every block belongs to a batch, so a block with no open batch
        // opens one even when it mints nothing (mirrors `BatchList::build`).
        if self.batches.last().is_none_or(|b| b.closed) {
            self.batches.push(BatchState::new(delta.height));
            entry.opened = true;
        }
        let open = self.batches.len() - 1;
        entry.fp_before.push((open, self.batches[open].fingerprint));

        for &(tok, ht) in &delta.minted {
            let b = &mut self.batches[open];
            let local = b.tokens.len() as u32;
            let next_label = b.histogram.len() as u32;
            let label = *b.ht_keys.entry(ht).or_insert(next_label);
            if label == next_label {
                b.histogram.push(0);
            }
            b.histogram[label as usize] += 1;
            b.tokens.push(tok);
            b.ht_label.push(label);
            let slot = b.modules.len() as u32;
            b.modules.push(IxModule {
                rs: None,
                tokens: vec![local],
                v: 0,
                alive: true,
            });
            b.module_of.push(slot);
            b.fingerprint = mix(mix(b.fingerprint, 1 ^ tok), ht);
            b.version += 1;
            self.locator.push((open as u32, local));
            entry.minted_hts.push(ht);
            ops += 1;
        }

        for ring in &delta.rings {
            ops += ring.tokens.len() as u64;
            // Resolve to (batch, local) and detect spans.
            let mut batch: Option<usize> = None;
            let mut spans = false;
            for &t in &ring.tokens {
                let (b, _) = self.locator[t as usize];
                match batch {
                    None => batch = Some(b as usize),
                    Some(prev) if prev != b as usize => spans = true,
                    Some(_) => {}
                }
            }
            let Some(batch) = batch else { continue }; // empty ring: no-op
            if spans {
                self.cross_batch_rings += 1;
                entry.rings.push(RingUndo::CrossBatch);
                continue;
            }
            if !entry.fp_before.iter().any(|&(b, _)| b == batch) {
                entry.fp_before.push((batch, self.batches[batch].fingerprint));
            }
            let mut local: Vec<u32> = ring
                .tokens
                .iter()
                .map(|&t| self.locator[t as usize].1)
                .collect();
            local.sort_unstable();
            local.dedup();
            let claim = DiversityRequirement::new(
                ring.claimed_c.max(f64::MIN_POSITIVE),
                ring.claimed_l.max(1),
            );
            let (undo, ring_ops) = Self::apply_ring(&mut self.batches[batch], batch, local, claim);
            ops += ring_ops;
            entry.rings.push(undo);
        }

        // The batch-closure rule of `BatchList::build`: a batch closes when
        // it holds at least λ tokens after a whole block was added.
        if self.batches[open].tokens.len() >= self.lambda {
            self.batches[open].closed = true;
            self.batches[open].version += 1;
            entry.closed = Some(open);
        }

        self.journal.push(entry);
        self.last_height = Some(delta.height);
        self.stats.blocks_applied += 1;
        self.stats.total_ops += ops;
        self.stats.last_block_ops = ops;
        self.stats.max_block_ops = self.stats.max_block_ops.max(ops);
        Ok(())
    }

    /// Apply one in-batch ring to a batch's partition. Returns the undo
    /// record and the extra ops charged (module-token touches).
    fn apply_ring(
        b: &mut BatchState,
        batch: usize,
        local: Vec<u32>,
        claim: DiversityRequirement,
    ) -> (RingUndo, u64) {
        b.version += 1;
        for &t in &local {
            b.fingerprint = mix(b.fingerprint, 2 ^ ((t as u64) << 2));
        }
        b.fingerprint = mix(b.fingerprint, claim.c.to_bits() ^ claim.l as u64);

        if b.broken {
            // No partition exists while broken: every further ring goes
            // through the bounded rebuild (which may heal the batch).
            return Self::rebuild_partition(b, batch, local, claim);
        }

        let mut slots: Vec<u32> = local.iter().map(|&t| b.module_of[t as usize]).collect();
        slots.sort_unstable();
        slots.dedup();

        if slots.len() == 1 && b.modules[slots[0] as usize].tokens != local {
            // Strict subset of one module: a nested ring. The partition is
            // unchanged; the containing module swallows one more ring.
            b.rings.push(local);
            b.claims.push(claim);
            b.modules[slots[0] as usize].v += 1;
            return (
                RingUndo::Nested {
                    batch,
                    slot: slots[0],
                },
                0,
            );
        }

        let mut union: Vec<u32> = slots
            .iter()
            .flat_map(|&s| b.modules[s as usize].tokens.iter().copied())
            .collect();
        union.sort_unstable();
        let ops = union.len() as u64;

        if union == local {
            // The ring is a union of whole modules (the first practical
            // configuration): merge them into one super RS whose defining
            // ring is this one. Subset counts are additive because every
            // contained ring sits wholly inside one merged module.
            let rs = b.rings.len() as u32;
            b.rings.push(local);
            b.claims.push(claim);
            let v = 1 + slots
                .iter()
                .map(|&s| {
                    let m = &mut b.modules[s as usize];
                    m.alive = false;
                    m.v
                })
                .sum::<u32>();
            let slot = b.modules.len() as u32;
            for &t in &union {
                b.module_of[t as usize] = slot;
            }
            b.modules.push(IxModule {
                rs: Some(rs),
                tokens: union,
                v,
                alive: true,
            });
            return (RingUndo::Merged { batch, old: slots }, ops);
        }

        // The ring straddles module boundaries: the incremental invariant
        // (every ring nests in one module) no longer holds.
        Self::rebuild_partition(b, batch, local, claim)
    }

    /// Rebuild one batch's partition by a full in-batch decomposition —
    /// bounded by the batch size, never by chain length. Runs when a ring
    /// straddles module boundaries (non-laminar arrival) or while the
    /// batch is already broken: the decomposition either heals (a later
    /// superset swallowed an earlier overlap) or proves the history
    /// non-laminar, exactly as a snapshot recompute would.
    fn rebuild_partition(
        b: &mut BatchState,
        batch: usize,
        local: Vec<u32>,
        claim: DiversityRequirement,
    ) -> (RingUndo, u64) {
        let ops = local.len() as u64;
        let undo = RingUndo::Rebuilt {
            batch,
            modules: std::mem::take(&mut b.modules),
            module_of: std::mem::take(&mut b.module_of),
            broken: b.broken,
        };
        b.rings.push(local);
        b.claims.push(claim);
        let rebuild_ops = b.tokens.len() as u64;
        let instance = Self::batch_instance(b);
        match ModularInstance::decompose(&instance) {
            Ok(mi) => {
                b.broken = false;
                b.modules = mi
                    .modules()
                    .iter()
                    .map(|m| IxModule {
                        rs: match m.kind {
                            ModuleKind::SuperRs(rs) => Some(rs.0),
                            ModuleKind::FreshToken => None,
                        },
                        tokens: m.tokens.tokens().iter().map(|t| t.0).collect(),
                        v: mi.subset_count(m.id) as u32,
                        alive: true,
                    })
                    .collect();
                b.module_of = (0..b.tokens.len())
                    .map(|t| mi.module_of(TokenId(t as u32)).0 as u32)
                    .collect();
            }
            Err(_) => {
                b.broken = true;
                // No modular view exists while broken, but later minted
                // tokens still append fresh slots and rollback pops them,
                // so keep a structurally consistent all-fresh placeholder
                // partition (never served: snapshots return `None`).
                b.modules = (0..b.tokens.len())
                    .map(|t| IxModule {
                        rs: None,
                        tokens: vec![t as u32],
                        v: 0,
                        alive: true,
                    })
                    .collect();
                b.module_of = (0..b.tokens.len() as u32).collect();
            }
        }
        (undo, ops + rebuild_ops)
    }

    /// Undo the most recently applied block in O(Δ). Returns its height.
    pub fn rollback_block(&mut self) -> Result<u64, IndexError> {
        let entry = self.journal.pop().ok_or(IndexError::NothingToRollBack)?;

        for undo in entry.rings.iter().rev() {
            match undo {
                RingUndo::CrossBatch => self.cross_batch_rings -= 1,
                RingUndo::Nested { batch, slot } => {
                    let b = &mut self.batches[*batch];
                    b.rings.pop();
                    b.claims.pop();
                    b.modules[*slot as usize].v -= 1;
                    b.version += 1;
                }
                RingUndo::Merged { batch, old } => {
                    let b = &mut self.batches[*batch];
                    b.rings.pop();
                    b.claims.pop();
                    // Per-batch operations are strictly LIFO across the
                    // journal, so the merged slot is the trailing one.
                    let merged = b.modules.pop().expect("merged slot present");
                    debug_assert!(merged.alive && merged.rs.is_some());
                    for &s in old {
                        b.modules[s as usize].alive = true;
                        for i in 0..b.modules[s as usize].tokens.len() {
                            let t = b.modules[s as usize].tokens[i];
                            b.module_of[t as usize] = s;
                        }
                    }
                    b.version += 1;
                }
                RingUndo::Rebuilt {
                    batch,
                    modules,
                    module_of,
                    broken,
                } => {
                    let b = &mut self.batches[*batch];
                    b.rings.pop();
                    b.claims.pop();
                    b.modules = modules.clone();
                    b.module_of = module_of.clone();
                    b.broken = *broken;
                    b.version += 1;
                }
            }
        }

        if let Some(batch) = entry.closed {
            self.batches[batch].closed = false;
            self.batches[batch].version += 1;
        }

        for &ht in entry.minted_hts.iter().rev() {
            let (batch, _) = self.locator.pop().expect("minted token in locator");
            let b = &mut self.batches[batch as usize];
            b.tokens.pop();
            let label = b.ht_label.pop().expect("label per token");
            b.histogram[label as usize] -= 1;
            if b.histogram[label as usize] == 0 {
                // Labels are dense first-seen and tokens pop in reverse
                // mint order, so an emptied label is always the newest.
                debug_assert_eq!(label as usize, b.histogram.len() - 1);
                b.histogram.pop();
                b.ht_keys.remove(&ht);
            }
            let slot = b.module_of.pop().expect("module per token");
            let fresh = b.modules.pop().expect("fresh slot present");
            debug_assert_eq!(slot as usize, b.modules.len());
            debug_assert!(fresh.rs.is_none() && fresh.tokens.len() == 1);
            b.version += 1;
        }

        for &(batch, fp) in entry.fp_before.iter() {
            self.batches[batch].fingerprint = fp;
        }
        if entry.opened {
            let b = self.batches.pop().expect("opened batch present");
            debug_assert!(b.tokens.is_empty());
        }
        self.last_height = entry.prev_height;
        self.stats.blocks_rolled_back += 1;
        Ok(entry.height)
    }

    /// Roll back every block above `target` height. Returns how many were
    /// undone. Fails (leaving a consistent, partially rolled-back state at
    /// the failing depth — same contract as a pruned store) when the
    /// journal does not reach down to `target`.
    pub fn rollback_to_height(&mut self, target: u64) -> Result<usize, IndexError> {
        let mut undone = 0;
        while self.last_height.is_some_and(|h| h > target) {
            self.rollback_block()?;
            undone += 1;
        }
        Ok(undone)
    }

    /// Drop journal entries beyond the last `keep` blocks. The index can
    /// then only roll back `keep` deep — align this with the store's
    /// checkpoint interval, which refuses deeper rollbacks anyway, to keep
    /// memory O(batches + keep·Δ) instead of O(chain).
    pub fn prune_journal(&mut self, keep: usize) {
        if self.journal.len() > keep {
            let drop = self.journal.len() - keep;
            self.journal.drain(..drop);
        }
    }

    /// Build the raw per-batch instance exactly as the snapshot pipeline
    /// (dense first-seen HT labels, in-batch rings in commit order).
    fn batch_instance(b: &BatchState) -> Instance {
        let universe = TokenUniverse::new(b.ht_label.iter().map(|&l| HtId(l)).collect());
        let rings = RingIndex::from_rings(
            b.rings
                .iter()
                .map(|r| RingSet::new(r.iter().map(|&t| TokenId(t)))),
        );
        Instance::new(universe, rings, b.claims.clone())
    }

    /// Materialise the maintained partition in `decompose` order: maximal
    /// super RSs by defining-ring id ascending, then fresh tokens by token
    /// id ascending. Returns `None` for a broken (non-laminar) batch.
    fn batch_modular(b: &BatchState, instance: &Instance) -> Option<ModularInstance> {
        if b.broken {
            return None;
        }
        let mut supers: Vec<&IxModule> = Vec::new();
        let mut fresh: Vec<&IxModule> = Vec::new();
        for m in &b.modules {
            if !m.alive {
                continue;
            }
            match m.rs {
                Some(_) => supers.push(m),
                None => fresh.push(m),
            }
        }
        supers.sort_by_key(|m| m.rs);
        fresh.sort_by_key(|m| m.tokens[0]);
        let mut modules = Vec::with_capacity(supers.len() + fresh.len());
        let mut counts = Vec::with_capacity(modules.capacity());
        for m in supers.into_iter().chain(fresh) {
            let id = ModuleId(modules.len());
            counts.push(m.v as usize);
            modules.push(Module {
                id,
                kind: match m.rs {
                    Some(rs) => ModuleKind::SuperRs(dams_diversity::RsId(rs)),
                    None => ModuleKind::FreshToken,
                },
                tokens: RingSet::new(m.tokens.iter().map(|&t| TokenId(t))),
            });
        }
        Some(ModularInstance::from_modules_with_counts(
            instance.universe.clone(),
            modules,
            counts,
        ))
    }

    /// A shared, cached materialisation of one batch. Rebuilt only when
    /// the batch mutated since the cached copy (version check), so
    /// steady-state requests against a quiet batch pay O(1) for the view.
    pub fn snapshot(&self, batch: usize) -> Option<Arc<BatchSnapshot>> {
        let b = self.batches.get(batch)?;
        let mut cache = self.snapshots.lock().expect("snapshot cache poisoned");
        if let Some(snap) = cache.get(&batch) {
            if snap.version == b.version {
                self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(snap));
            }
        }
        self.snapshot_misses.fetch_add(1, Ordering::Relaxed);
        let instance = Self::batch_instance(b);
        let modular = Self::batch_modular(b, &instance);
        let snap = Arc::new(BatchSnapshot {
            batch,
            fingerprint: b.fingerprint,
            version: b.version,
            tokens: b.tokens.clone(),
            instance,
            modular,
        });
        cache.insert(batch, Arc::clone(&snap));
        Some(snap)
    }

    /// Serve one selection request through the degrade ladder against the
    /// maintained per-batch state: O(batch) per request, independent of
    /// chain length. The approximation tiers consume the resident module
    /// partition instead of decomposing; the exact tier sees the identical
    /// per-batch instance the snapshot path would build, so verdicts are
    /// bit-identical (enforced by [`recompute_equivalence`] and the
    /// 64-seed sweeps).
    #[allow(clippy::too_many_arguments)]
    pub fn select(
        &self,
        target: u64,
        policy: SelectionPolicy,
        budget: BfsBudget,
        ladder: &[Tier],
        metrics: &CoreMetrics,
        exec: &LadderExec<'_>,
    ) -> Result<IndexedSelection, SelectError> {
        let &(batch, local) = self
            .locator
            .get(target as usize)
            .ok_or(SelectError::UnknownToken)?;
        let snap = self
            .snapshot(batch as usize)
            .expect("locator points at a live batch");
        let exec = LadderExec {
            cache: exec.cache,
            modular: snap.modular.as_ref(),
            ..LadderExec::default()
        };
        let degraded = select_with_ladder_exec(
            &snap.instance,
            TokenId(local),
            policy,
            budget,
            ladder,
            metrics,
            &exec,
        )?;
        let ring: Vec<u64> = degraded
            .selection
            .ring
            .tokens()
            .iter()
            .map(|t| snap.tokens[t.0 as usize])
            .collect();
        Ok(IndexedSelection {
            batch: batch as usize,
            fingerprint: snap.fingerprint,
            degraded,
            ring,
        })
    }
}

/// The recompute-equivalence oracle: replay `deltas` through an
/// independent snapshot pipeline — batch partition from scratch, per-batch
/// instances from scratch, module partition via
/// [`ModularInstance::decompose`] — and demand the incremental index
/// agrees on every observable: batch boundaries, token lists, HT labels,
/// histograms, ring lists, claims, cross-batch counts, and the ordered
/// module partition with subset counts. Returns a description of the first
/// divergence. O(n²) in history — a test/audit tool, never a serving path.
pub fn recompute_equivalence(
    index: &DiversityIndex,
    deltas: &[BlockDelta],
) -> Result<(), String> {
    // 1. Batch partition from scratch.
    struct RawBatch {
        tokens: Vec<(u64, u64)>,
        closed: bool,
    }
    let lambda = index.lambda();
    let mut raw: Vec<RawBatch> = Vec::new();
    let mut cross = 0u64;
    let mut token_batch: Vec<usize> = Vec::new();
    for delta in deltas {
        if raw.last().is_none_or(|b| b.closed) {
            raw.push(RawBatch {
                tokens: Vec::new(),
                closed: false,
            });
        }
        let open = raw.len() - 1;
        for &(tok, ht) in &delta.minted {
            raw[open].tokens.push((tok, ht));
            token_batch.push(open);
            if tok as usize + 1 != token_batch.len() {
                return Err(format!("oracle: token ids not dense at {tok}"));
            }
        }
        if raw[open].tokens.len() >= lambda {
            raw[open].closed = true;
        }
    }

    if raw.len() != index.batch_count() {
        return Err(format!(
            "batch count: recompute {} vs index {}",
            raw.len(),
            index.batch_count()
        ));
    }

    // 2. Rings in global commit order, assigned to their batch.
    let mut batch_rings: Vec<Vec<(Vec<u64>, f64, usize)>> = (0..raw.len()).map(|_| Vec::new()).collect();
    for delta in deltas {
        for ring in &delta.rings {
            if ring.tokens.is_empty() {
                continue;
            }
            let b0 = token_batch[ring.tokens[0] as usize];
            if ring.tokens.iter().any(|&t| token_batch[t as usize] != b0) {
                cross += 1;
                continue;
            }
            batch_rings[b0].push((ring.tokens.clone(), ring.claimed_c, ring.claimed_l));
        }
    }
    if cross != index.cross_batch_rings() {
        return Err(format!(
            "cross-batch rings: recompute {} vs index {}",
            cross,
            index.cross_batch_rings()
        ));
    }

    // 3. Per batch: rebuild the local view from scratch and compare.
    for (bi, rb) in raw.iter().enumerate() {
        let got_tokens = index.batch_tokens(bi);
        let want_tokens: Vec<u64> = rb.tokens.iter().map(|&(t, _)| t).collect();
        if got_tokens != want_tokens.as_slice() {
            return Err(format!("batch {bi}: token list diverged"));
        }
        if rb.closed != index.batch_closed(bi) {
            return Err(format!("batch {bi}: closed flag diverged"));
        }

        // Dense first-seen HT labels.
        let mut labels: HashMap<u64, u32> = HashMap::new();
        let mut ht_of: Vec<HtId> = Vec::with_capacity(rb.tokens.len());
        for &(_, ht) in &rb.tokens {
            let next = labels.len() as u32;
            let l = *labels.entry(ht).or_insert(next);
            ht_of.push(HtId(l));
        }
        let local_of: HashMap<u64, u32> = want_tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        let rings = RingIndex::from_rings(batch_rings[bi].iter().map(|(toks, _, _)| {
            RingSet::new(toks.iter().map(|t| TokenId(local_of[t])))
        }));
        let claims: Vec<DiversityRequirement> = batch_rings[bi]
            .iter()
            .map(|&(_, c, l)| DiversityRequirement::new(c.max(f64::MIN_POSITIVE), l.max(1)))
            .collect();
        let instance = Instance::new(TokenUniverse::new(ht_of), rings, claims);

        let Some(snap) = index.snapshot(bi) else {
            return Err(format!("batch {bi}: index has no snapshot"));
        };
        if snap.tokens != want_tokens {
            return Err(format!("batch {bi}: snapshot token map diverged"));
        }
        // Instance equality: universe labels, ring lists, claims.
        let su: Vec<u32> = (0..snap.instance.universe.len() as u32)
            .map(|t| snap.instance.universe.ht(TokenId(t)).0)
            .collect();
        let wu: Vec<u32> = (0..instance.universe.len() as u32)
            .map(|t| instance.universe.ht(TokenId(t)).0)
            .collect();
        if su != wu {
            return Err(format!("batch {bi}: HT labelling diverged"));
        }
        let sr: Vec<&RingSet> = snap.instance.rings.iter().map(|(_, r)| r).collect();
        let wr: Vec<&RingSet> = instance.rings.iter().map(|(_, r)| r).collect();
        if sr != wr {
            return Err(format!("batch {bi}: ring lists diverged"));
        }
        if snap.instance.claims != instance.claims {
            return Err(format!("batch {bi}: claims diverged"));
        }

        // Module partition: decompose from scratch, compare *ordered*
        // (order feeds tie-breaking, so bit-identical verdicts need it).
        let decomposed = ModularInstance::decompose(&instance);
        match (&snap.modular, decomposed) {
            (None, Err(_)) => {}
            (Some(_), Err(e)) => {
                return Err(format!(
                    "batch {bi}: index laminar but decompose failed: {e}"
                ))
            }
            (None, Ok(_)) => {
                return Err(format!("batch {bi}: index broken but decompose succeeded"))
            }
            (Some(mi), Ok(full)) => {
                let shape = |m: &ModularInstance| -> Vec<(ModuleKind, Vec<TokenId>, usize)> {
                    m.modules()
                        .iter()
                        .map(|x| (x.kind, x.tokens.tokens().to_vec(), m.subset_count(x.id)))
                        .collect()
                };
                if shape(mi) != shape(&full) {
                    return Err(format!("batch {bi}: module partition diverged"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small random delta stream: dense tokens over `hts` historical
    /// transactions, with rings over the open batch's unused tokens so the
    /// history stays laminar (matching what verifying miners admit).
    fn random_deltas(seed: u64, blocks: usize, lambda: usize) -> Vec<BlockDelta> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deltas = Vec::new();
        let mut next = 0u64;
        let mut open: Vec<u64> = Vec::new(); // unused tokens of the open batch
        let mut open_len = 0usize;
        for h in 0..blocks as u64 {
            let mint = rng.gen_range(1..=4usize);
            let mut minted = Vec::new();
            for _ in 0..mint {
                minted.push((next, rng.gen_range(0..6u64)));
                open.push(next);
                next += 1;
            }
            open_len += mint;
            let mut rings = Vec::new();
            if open.len() >= 3 && rng.gen_bool(0.6) {
                let k = rng.gen_range(2..=open.len().min(4));
                let start = rng.gen_range(0..=open.len() - k);
                let tokens: Vec<u64> = open.drain(start..start + k).collect();
                rings.push(DeltaRing {
                    tokens,
                    claimed_c: 1.0,
                    claimed_l: rng.gen_range(1..=2usize),
                });
            }
            deltas.push(BlockDelta {
                height: h,
                minted,
                rings,
            });
            if open_len >= lambda {
                open.clear();
                open_len = 0;
            }
        }
        deltas
    }

    fn apply_all(index: &mut DiversityIndex, deltas: &[BlockDelta]) {
        for d in deltas {
            index.apply_block(d).unwrap();
        }
    }

    #[test]
    fn incremental_state_matches_recompute_across_seeds() {
        for seed in 0..64u64 {
            let lambda = 6 + (seed % 5) as usize;
            let deltas = random_deltas(seed, 40, lambda);
            let mut index = DiversityIndex::new(lambda);
            apply_all(&mut index, &deltas);
            recompute_equivalence(&index, &deltas).unwrap();
        }
    }

    #[test]
    fn rollback_restores_exact_state_across_seeds() {
        for seed in 0..64u64 {
            let lambda = 6;
            let deltas = random_deltas(seed ^ 0x5eed, 30, lambda);
            let split = 18;
            let mut index = DiversityIndex::new(lambda);
            apply_all(&mut index, &deltas[..split]);
            let fps: Vec<u64> = (0..index.batch_count())
                .map(|b| index.batch_fingerprint(b))
                .collect();
            let tokens = index.token_count();
            // Apply the tail, then roll it back.
            apply_all(&mut index, &deltas[split..]);
            index
                .rollback_to_height(deltas[split - 1].height)
                .unwrap();
            assert_eq!(index.token_count(), tokens, "seed {seed}");
            assert_eq!(index.batch_count(), fps.len(), "seed {seed}");
            for (b, fp) in fps.iter().enumerate() {
                assert_eq!(index.batch_fingerprint(b), *fp, "seed {seed} batch {b}");
            }
            recompute_equivalence(&index, &deltas[..split]).unwrap();
            // And the rolled-back chain can grow again identically.
            apply_all(&mut index, &deltas[split..]);
            recompute_equivalence(&index, &deltas).unwrap();
        }
    }

    #[test]
    fn indexed_verdicts_bit_identical_to_snapshot_ladder() {
        let registry = dams_obs::Registry::new();
        let metrics = CoreMetrics::in_registry(&registry);
        for seed in 0..16u64 {
            let lambda = 8;
            let deltas = random_deltas(seed ^ 0xbeef, 50, lambda);
            let mut index = DiversityIndex::new(lambda);
            apply_all(&mut index, &deltas);
            recompute_equivalence(&index, &deltas).unwrap();
            let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
            let budget = BfsBudget {
                max_candidates: 2_000,
                ..BfsBudget::default()
            };
            for target in (0..index.token_count()).step_by(7) {
                let via_index = index.select(
                    target,
                    policy,
                    budget,
                    &Tier::DEFAULT_LADDER,
                    &metrics,
                    &LadderExec::default(),
                );
                // Snapshot path: same batch instance, lazy decompose.
                let batch = index.batch_of(target).unwrap();
                let snap = index.snapshot(batch).unwrap();
                let local = snap.tokens.iter().position(|&t| t == target).unwrap();
                let via_snapshot = select_with_ladder_exec(
                    &snap.instance,
                    TokenId(local as u32),
                    policy,
                    budget,
                    &Tier::DEFAULT_LADDER,
                    &metrics,
                    &LadderExec::default(),
                );
                match (via_index, via_snapshot) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.degraded.selection.ring, b.selection.ring, "seed {seed}");
                        assert_eq!(a.degraded.tier, b.tier, "seed {seed}");
                        assert_eq!(a.degraded.selection.modules, b.selection.modules);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}"),
                    (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn maintenance_cost_does_not_scale_with_chain_length() {
        // Identical per-block shape at 10x the chain length must keep the
        // same max per-block op count: the O(Δ) property.
        let mk = |blocks: usize| {
            let mut index = DiversityIndex::new(8);
            let deltas = random_deltas(7, blocks, 8);
            apply_all(&mut index, &deltas);
            index.stats().max_block_ops
        };
        let short = mk(50);
        let long = mk(500);
        assert!(
            long <= short * 2,
            "per-block ops grew with chain length: {short} -> {long}"
        );
    }

    #[test]
    fn malformed_deltas_rejected_without_mutation() {
        let mut index = DiversityIndex::new(4);
        index
            .apply_block(&BlockDelta {
                height: 0,
                minted: vec![(0, 0), (1, 1)],
                rings: vec![],
            })
            .unwrap();
        let fp = index.batch_fingerprint(0);
        assert_eq!(
            index.apply_block(&BlockDelta {
                height: 5,
                minted: vec![],
                rings: vec![]
            }),
            Err(IndexError::NonSequentialHeight {
                expected: Some(0),
                got: 5
            })
        );
        assert_eq!(
            index.apply_block(&BlockDelta {
                height: 1,
                minted: vec![(7, 0)],
                rings: vec![]
            }),
            Err(IndexError::NonContiguousToken {
                expected: 2,
                got: 7
            })
        );
        assert_eq!(
            index.apply_block(&BlockDelta {
                height: 1,
                minted: vec![],
                rings: vec![DeltaRing {
                    tokens: vec![9],
                    claimed_c: 1.0,
                    claimed_l: 1
                }]
            }),
            Err(IndexError::UnknownRingToken(9))
        );
        assert_eq!(index.batch_fingerprint(0), fp);
        assert_eq!(index.token_count(), 2);
    }

    #[test]
    fn non_laminar_ring_breaks_batch_and_heals_on_superset() {
        let mut index = DiversityIndex::new(100); // one open batch
        let mut deltas = vec![BlockDelta {
            height: 0,
            minted: (0..6).map(|t| (t, t)).collect(),
            rings: vec![DeltaRing {
                tokens: vec![0, 1],
                claimed_c: 1.0,
                claimed_l: 1,
            }],
        }];
        // Overlapping, non-nested ring: the batch breaks...
        deltas.push(BlockDelta {
            height: 1,
            minted: vec![],
            rings: vec![DeltaRing {
                tokens: vec![1, 2],
                claimed_c: 1.0,
                claimed_l: 1,
            }],
        });
        apply_all(&mut index, &deltas);
        assert!(index.snapshot(0).unwrap().modular.is_none());
        recompute_equivalence(&index, &deltas).unwrap();
        // ...and a later superset heals it (decompose succeeds again).
        deltas.push(BlockDelta {
            height: 2,
            minted: vec![],
            rings: vec![DeltaRing {
                tokens: vec![0, 1, 2],
                claimed_c: 1.0,
                claimed_l: 1,
            }],
        });
        index.apply_block(&deltas[2]).unwrap();
        assert!(index.snapshot(0).unwrap().modular.is_some());
        recompute_equivalence(&index, &deltas).unwrap();
        // Rolling the healer back restores the broken state.
        index.rollback_block().unwrap();
        assert!(index.snapshot(0).unwrap().modular.is_none());
        recompute_equivalence(&index, &deltas[..2]).unwrap();
    }

    #[test]
    fn cross_batch_rings_are_tracked_and_excluded() {
        let mut index = DiversityIndex::new(2);
        let deltas = vec![
            BlockDelta {
                height: 0,
                minted: vec![(0, 0), (1, 1)],
                rings: vec![],
            },
            BlockDelta {
                height: 1,
                minted: vec![(2, 2), (3, 3)],
                rings: vec![DeltaRing {
                    tokens: vec![1, 2],
                    claimed_c: 1.0,
                    claimed_l: 1,
                }],
            },
        ];
        apply_all(&mut index, &deltas);
        assert_eq!(index.cross_batch_rings(), 1);
        assert_eq!(index.batch_count(), 2);
        assert!(index.snapshot(0).unwrap().instance.rings.is_empty());
        recompute_equivalence(&index, &deltas).unwrap();
        index.rollback_block().unwrap();
        assert_eq!(index.cross_batch_rings(), 0);
    }

    #[test]
    fn snapshot_cache_hits_on_quiet_batches() {
        let mut index = DiversityIndex::new(4);
        apply_all(&mut index, &random_deltas(3, 20, 4));
        let s = index.snapshot(0).unwrap();
        let again = index.snapshot(0).unwrap();
        assert!(Arc::ptr_eq(&s, &again));
        let stats = index.stats();
        assert!(stats.snapshot_hits >= 1);
        assert!(stats.snapshot_misses >= 1);
    }

    #[test]
    fn pruned_journal_refuses_deep_rollback() {
        let mut index = DiversityIndex::new(4);
        apply_all(&mut index, &random_deltas(9, 20, 4));
        index.prune_journal(3);
        assert_eq!(index.journal_len(), 3);
        assert!(index.rollback_to_height(5).is_err());
    }
}
