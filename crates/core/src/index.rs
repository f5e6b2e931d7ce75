//! The streaming diversity index: per-batch diversity state maintained
//! **O(Δ) per adopted block** instead of recomputed from the full chain
//! snapshot per request.
//!
//! Every selection request used to rebuild the batch view from genesis:
//! dense HT renumbering, ring collection, and an O(n²)
//! [`ModularInstance::decompose`] whenever an approximation tier ran. All
//! of that work grows with chain history, while the *answer* only depends
//! on one λ-batch (§4: a token's mixin universe is its batch). This module
//! keeps one view per batch resident — a [`BatchSnapshot`] — and mutates
//! it in place as blocks arrive:
//!
//! * **per-batch instances** — dense batch-local HT labels extended as
//!   tokens are minted, and the in-batch rings with their claims in
//!   commit order;
//! * **committed-ring fingerprints** — a chained 64-bit digest per batch
//!   covering every token and ring applied to it, for cheap cross-replica
//!   comparison;
//! * **DTRS frontiers** — the module partition of the batch (super RSs and
//!   fresh tokens, Definitions 7/8), folded in place when a ring commits
//!   ([`ModularInstance::fold_ring`]), so the degrade ladder's
//!   approximation tiers never pay the O(n²) decomposition.
//!
//! [`DiversityIndex::snapshot`] shares that view in O(1). A view a reader
//! holds never changes: the next block that touches its batch copies it
//! once, and only then.
//!
//! The index only appends: a replica adopts a block only when it extends
//! its tip, so no block is ever taken back and nothing is journaled.
//!
//! Equivalence is not assumed: [`recompute_equivalence`] replays the raw
//! block deltas through an independent snapshot pipeline (batch partition
//! → per-batch instance → `decompose`) and demands byte-level agreement
//! with the incremental state, and [`DiversityIndex::select`] feeds the
//! maintained partition through the same ladder entry point as the
//! snapshot path, so verdicts are bit-identical by construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dams_diversity::{DiversityRequirement, HtId, RingIndex, RingSet, TokenId, TokenUniverse};

use crate::bfs::BfsBudget;
use crate::config::SelectionPolicy;
use crate::degrade::{select_with_ladder_exec, DegradedSelection, LadderExec, Tier};
use crate::instance::{Instance, ModularInstance, ModuleKind};
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
        }
    }
}

impl std::error::Error for IndexError {}

/// The resident state of one λ-batch.
#[derive(Debug)]
struct BatchState {
    /// The batch's one view, shared with every reader holding a
    /// snapshot. `apply_block` mutates it in place, and copies it first
    /// only while a reader still holds it.
    view: Arc<BatchSnapshot>,
    first_block: u64,
    /// HT key → batch-local label (dense, first-seen order).
    ht_keys: HashMap<u64, u32>,
    closed: bool,
}

/// Maintenance-cost accounting. `*_ops` count elementary index operations
/// (token appends, ring-token touches, module-token moves) — a
/// deterministic, wall-clock-free measure of per-block work that the O(Δ)
/// gate asserts against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    pub blocks_applied: u64,
    pub total_ops: u64,
    pub last_block_ops: u64,
    pub max_block_ops: u64,
    /// Views served by [`DiversityIndex::snapshot`], each an O(1) share.
    pub snapshot_hits: u64,
    /// Views [`DiversityIndex::apply_block`] had to copy before mutating
    /// them, because a reader still held them.
    pub snapshot_misses: u64,
}

/// A batch view: everything a selection request needs. It is the index's
/// only copy of the batch, shared read-only with callers; a view a caller
/// holds never changes, and a new [`DiversityIndex::snapshot`] shows every
/// block applied since.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSnapshot {
    pub batch: usize,
    pub fingerprint: u64,
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
    /// Rings spanning more than one batch (excluded from every per-batch
    /// view; the snapshot oracle applies the same rule).
    cross_batch_rings: u64,
    last_height: Option<u64>,
    stats: IndexStats,
    snapshot_hits: AtomicU64,
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

/// A batch's view for writing: in place when no reader holds it, else a
/// copy, counted in `copies`.
fn view_mut<'a>(view: &'a mut Arc<BatchSnapshot>, copies: &mut u64) -> &'a mut BatchSnapshot {
    if Arc::strong_count(view) > 1 {
        *copies += 1;
    }
    Arc::make_mut(view)
}

impl DiversityIndex {
    /// An empty index for λ-batches of (at least) `lambda` tokens —
    /// `lambda` follows the consensus batch rule, so `0` means `1`.
    pub fn new(lambda: usize) -> Self {
        DiversityIndex {
            lambda: lambda.max(1),
            batches: Vec::new(),
            locator: Vec::new(),
            cross_batch_rings: 0,
            last_height: None,
            stats: IndexStats::default(),
            snapshot_hits: AtomicU64::new(0),
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
        &self.batches[batch].view.tokens
    }

    /// Committed-ring fingerprint of a batch.
    pub fn batch_fingerprint(&self, batch: usize) -> u64 {
        self.batches[batch].view.fingerprint
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

    /// Maintenance-cost counters, with the snapshot lookups folded in.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
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

        // Every block belongs to a batch, so a block with no open batch
        // opens one even when it mints nothing (mirrors `BatchList::build`).
        if self.batches.last().is_none_or(|b| b.closed) {
            let empty = TokenUniverse::new(Vec::new());
            self.batches.push(BatchState {
                view: Arc::new(BatchSnapshot {
                    batch: self.batches.len(),
                    fingerprint: 0,
                    tokens: Vec::new(),
                    instance: Instance::fresh(empty.clone()),
                    modular: Some(ModularInstance::fresh(empty)),
                }),
                first_block: delta.height,
                ht_keys: HashMap::new(),
                closed: false,
            });
        }
        let open = self.batches.len() - 1;

        if !delta.minted.is_empty() {
            let b = &mut self.batches[open];
            let view = view_mut(&mut b.view, &mut self.stats.snapshot_misses);
            for &(tok, ht) in &delta.minted {
                let next_label = b.ht_keys.len() as u32;
                let label = HtId(*b.ht_keys.entry(ht).or_insert(next_label));
                let local = view.instance.universe.push(label);
                if let Some(modular) = &mut view.modular {
                    modular.push_fresh(label);
                }
                view.tokens.push(tok);
                view.fingerprint = mix(mix(view.fingerprint, 1 ^ tok), ht);
                self.locator.push((open as u32, local.0));
                ops += 1;
            }
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
                continue;
            }
            let local = RingSet::new(
                ring.tokens
                    .iter()
                    .map(|&t| TokenId(self.locator[t as usize].1)),
            );
            let claim = DiversityRequirement::new(
                ring.claimed_c.max(f64::MIN_POSITIVE),
                ring.claimed_l.max(1),
            );
            let view = view_mut(
                &mut self.batches[batch].view,
                &mut self.stats.snapshot_misses,
            );
            ops += Self::apply_ring(view, local, claim);
        }

        // The batch-closure rule of `BatchList::build`: a batch closes when
        // it holds at least λ tokens after a whole block was added.
        if self.batches[open].view.tokens.len() >= self.lambda {
            self.batches[open].closed = true;
        }

        self.last_height = Some(delta.height);
        self.stats.blocks_applied += 1;
        self.stats.total_ops += ops;
        self.stats.last_block_ops = ops;
        self.stats.max_block_ops = self.stats.max_block_ops.max(ops);
        Ok(())
    }

    /// Commit one in-batch ring to a batch's view: its ring list, its
    /// claims and its partition. Returns the extra ops charged
    /// (module-token touches).
    ///
    /// The partition is folded in place (see
    /// [`ModularInstance::fold_ring`]). A ring the fold cannot take
    /// (a non-laminar arrival), or any ring while the batch is
    /// non-laminar, re-runs the in-batch decomposition — bounded by the
    /// batch size, never by chain length. It either heals the batch (a
    /// later superset swallowed an earlier overlap) or proves the history
    /// non-laminar, exactly as a snapshot recompute would.
    fn apply_ring(view: &mut BatchSnapshot, ring: RingSet, claim: DiversityRequirement) -> u64 {
        for &t in ring.tokens() {
            view.fingerprint = mix(view.fingerprint, 2 ^ ((t.0 as u64) << 2));
        }
        view.fingerprint = mix(view.fingerprint, claim.c.to_bits() ^ claim.l as u64);
        let rs = view.instance.rings.push(ring);
        view.instance.claims.push(claim);
        let ring = view.instance.rings.ring(rs);
        match view.modular.as_mut().and_then(|m| m.fold_ring(rs, ring)) {
            Some(moved) => moved as u64,
            None => {
                view.modular = ModularInstance::decompose(&view.instance).ok();
                (ring.len() + view.tokens.len()) as u64
            }
        }
    }

    /// Does nothing: the index keeps no journal. Kept only because
    /// existing callers outside the workspace still call it.
    pub fn prune_journal(&mut self, _keep: usize) {}

    /// A batch's view, shared in O(1). It stays as it is while held; the
    /// next block that mutates the batch copies it once instead (counted
    /// in [`IndexStats::snapshot_misses`]), so drop it before applying a
    /// block to copy nothing.
    pub fn snapshot(&self, batch: usize) -> Option<Arc<BatchSnapshot>> {
        let b = self.batches.get(batch)?;
        self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&b.view))
    }

    /// Serve one selection request through the degrade ladder against the
    /// maintained per-batch state: O(batch) per request, independent of
    /// chain length. The approximation tiers consume the resident module
    /// partition instead of decomposing; the exact tier sees the identical
    /// per-batch instance the snapshot path would build, so verdicts are
    /// bit-identical (enforced by [`recompute_equivalence`] and the
    /// 64-seed sweeps). Returns the snapshot it served from alongside the
    /// verdict, so a caller validating the answer takes no second lookup;
    /// drop it before the next block, which would otherwise copy it.
    pub fn select(
        &self,
        target: u64,
        policy: SelectionPolicy,
        budget: BfsBudget,
        ladder: &[Tier],
        metrics: &CoreMetrics,
    ) -> Result<(IndexedSelection, Arc<BatchSnapshot>), SelectError> {
        let &(batch, local) = self
            .locator
            .get(target as usize)
            .ok_or(SelectError::UnknownToken)?;
        let snap = self
            .snapshot(batch as usize)
            .expect("locator points at a live batch");
        let degraded = select_with_ladder_exec(
            &snap.instance,
            TokenId(local),
            policy,
            budget,
            ladder,
            metrics,
            &LadderExec {
                modular: snap.modular.as_ref(),
                ..LadderExec::default()
            },
        )?;
        let ring: Vec<u64> = degraded
            .selection
            .ring
            .tokens()
            .iter()
            .map(|t| snap.tokens[t.0 as usize])
            .collect();
        let selection = IndexedSelection {
            batch: batch as usize,
            fingerprint: snap.fingerprint,
            degraded,
            ring,
        };
        Ok((selection, snap))
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
pub fn recompute_equivalence(index: &DiversityIndex, deltas: &[BlockDelta]) -> Result<(), String> {
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
    let mut batch_rings: Vec<Vec<(Vec<u64>, f64, usize)>> =
        (0..raw.len()).map(|_| Vec::new()).collect();
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
        let rings = RingIndex::from_rings(
            batch_rings[bi]
                .iter()
                .map(|(toks, _, _)| RingSet::new(toks.iter().map(|t| TokenId(local_of[t])))),
        );
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
                let via_index = index
                    .select(target, policy, budget, &Tier::DEFAULT_LADDER, &metrics)
                    .map(|(selection, _)| selection);
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
    }

    #[test]
    fn snapshot_cache_hits_on_quiet_batches() {
        // Every lookup shares the one resident view; nothing is built or
        // copied while no block arrives.
        let mut index = DiversityIndex::new(4);
        apply_all(&mut index, &random_deltas(3, 20, 4));
        let before = index.stats();
        let s = index.snapshot(0).unwrap();
        let again = index.snapshot(0).unwrap();
        assert!(Arc::ptr_eq(&s, &again));
        let stats = index.stats();
        assert_eq!(stats.snapshot_hits, before.snapshot_hits + 2);
        assert_eq!(stats.snapshot_misses, before.snapshot_misses);
    }

    #[test]
    fn a_held_view_never_changes() {
        let mut index = DiversityIndex::new(100); // one open batch
        let mut deltas = vec![BlockDelta {
            height: 0,
            minted: (0..6).map(|t| (t, t % 3)).collect(),
            rings: vec![],
        }];
        index.apply_block(&deltas[0]).unwrap();
        let held = index.snapshot(0).unwrap();
        let copy = (*held).clone();
        let misses = index.stats().snapshot_misses;

        // Mint into the held batch and commit a ring there.
        let ring = |tokens: Vec<u64>| DeltaRing {
            tokens,
            claimed_c: 1.0,
            claimed_l: 1,
        };
        deltas.push(BlockDelta {
            height: 1,
            minted: vec![(6, 7)],
            rings: vec![ring(vec![0, 1, 2])],
        });
        index.apply_block(&deltas[1]).unwrap();
        assert_eq!(*held, copy, "the held view changed");
        let now = index.snapshot(0).unwrap();
        assert_eq!(now.tokens.len(), 7);
        assert_eq!(now.instance.rings.len(), 1);
        assert_eq!(now.modular.as_ref().unwrap().super_count(), 1);
        assert_eq!(index.stats().snapshot_misses, misses + 1, "one copy");

        // With no reader holding the view, the next block copies nothing.
        drop((held, now));
        deltas.push(BlockDelta {
            height: 2,
            minted: vec![(7, 8)],
            rings: vec![ring(vec![3, 4])],
        });
        index.apply_block(&deltas[2]).unwrap();
        assert_eq!(index.stats().snapshot_misses, misses + 1, "copied again");
        recompute_equivalence(&index, &deltas).unwrap();
    }

    #[test]
    fn overlapping_nested_rings_match_decompose() {
        // {0..5}, then {0, 1} and {1, 2} inside it: the two nested rings
        // overlap without nesting, which `decompose` rejects, and a later
        // superset of both heals the batch again.
        let ring = |tokens: Vec<u64>| DeltaRing {
            tokens,
            claimed_c: 1.0,
            claimed_l: 1,
        };
        let deltas = [
            BlockDelta {
                height: 0,
                minted: (0..6).map(|t| (t, t)).collect(),
                rings: vec![ring((0..6).collect())],
            },
            BlockDelta {
                height: 1,
                minted: vec![],
                rings: vec![ring(vec![0, 1]), ring(vec![1, 2])],
            },
            BlockDelta {
                height: 2,
                minted: vec![],
                rings: vec![ring(vec![0, 1, 2])],
            },
        ];
        let mut index = DiversityIndex::new(100);
        for (i, delta) in deltas.iter().enumerate() {
            index.apply_block(delta).unwrap();
            recompute_equivalence(&index, &deltas[..=i]).unwrap();
        }
        assert!(index.snapshot(0).unwrap().modular.is_some());
    }
}
