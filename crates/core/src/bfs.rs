//! The exact breadth-first search algorithm (Algorithm 2, §5).
//!
//! Enumerates candidate rings in ascending size, checks the three
//! constraints of Definition 5 against the full possible-world
//! (token–RS combination) model, and returns the first — hence smallest —
//! eligible ring. Exponential, as Theorem 3.1 demands; used on small
//! instances and to validate the approximation algorithms.
//!
//! # Performance architecture
//!
//! Two implementations share the same semantics:
//!
//! * [`bfs_reference`] — the seed implementation: per candidate it rebuilds
//!   an [`HtHistogram`] for the cheap diversity pre-check and *clones the
//!   entire [`dams_diversity::RingIndex`]* to append the candidate before
//!   world enumeration, and it keeps the seed GetDTRSs,
//!   [`dams_diversity::enumerate_dtrs_reference`]. Kept verbatim as the
//!   oracle for the equivalence sweep and as the baseline side of the
//!   `BENCH_selection.json` figure.
//! * [`bfs`] / [`bfs_with`] — the optimized engine:
//!   - the subset enumerator maintains a [`DeltaHistogram`] by ±1 token as
//!     it walks candidates in lexicographic order, so the cheap recursive
//!     (c, ℓ) pre-check is allocation-free;
//!   - the expensive check runs [`dams_diversity::enumerate_worlds`] with
//!     the candidate as an out-of-index *extra* ring (no index clone) and
//!     forwards `BfsBudget.deadline` into the recursion;
//!   - GetDTRSs runs on bitsets ([`dams_diversity::enumerate_dtrs`]),
//!     whose output is byte-identical to the seed version's;
//!   - outcomes are memoizable in an [`EvalCache`] keyed by canonical ring
//!     content (sound across one `bfs()` call and across a whole batch on
//!     a frozen instance — the verdict never depends on the target);
//!   - with `workers > 1`, passing candidates are evaluated in blocks by a
//!     pool of `std::thread::scope` workers spawned once per call and fed
//!     over channels (round-robin by slot, so distribution is
//!     deterministic). Determinism: candidates are *recorded* in
//!     lexicographic order at enumeration time and outcomes are folded
//!     back in that order, so the winner is always the lexicographically
//!     smallest eligible ring of the smallest size and `SelectionStats`
//!     fold exactly as the sequential walk would have — results are
//!     byte-identical to `workers == 1` and to [`bfs_reference`].
//!     Parallelism pays when per-candidate world enumeration is heavy;
//!     on small instances (or a single-CPU host) prefer `workers == 1`.

use dams_diversity::{
    enumerate_dtrs, enumerate_dtrs_reference, Deadline, DeltaHistogram, DiversityRequirement,
    HtHistogram, RingSet, RsId, TokenId, WorldOptions,
};

use crate::cache::{CachedOutcome, EvalCache};
use crate::instance::Instance;
use crate::selection::{Algorithm, SelectError, Selection, SelectionStats};

/// Budget limits for the exact search (the BFS explores `O(2^n)` rings and
/// `O(n^m)` worlds per ring — callers cap the blast radius).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsBudget {
    /// Maximum candidate rings to examine before giving up.
    pub max_candidates: u64,
    /// Maximum possible worlds per candidate before giving up.
    pub max_worlds: usize,
    /// Optional deadline, checked between candidates *and* inside world
    /// enumeration. Expiry surfaces as [`SelectError::BudgetExhausted`],
    /// same as the counters. A [`Deadline::At`] instant bounds wall time
    /// (host-dependent); a [`Deadline::Ticks`] budget is charged one unit
    /// per candidate examined (and per world-enumeration step within a
    /// candidate), so expiry — and therefore which tier of the degrade
    /// ladder answers — is bit-reproducible across hosts and worker
    /// counts. `Some(Deadline::Ticks(0))` is treated as already elapsed
    /// before any work.
    pub deadline: Option<Deadline>,
}

impl Default for BfsBudget {
    fn default() -> Self {
        BfsBudget {
            max_candidates: 5_000_000,
            max_worlds: 2_000_000,
            deadline: None,
        }
    }
}

/// Execution options for [`bfs_with`]: the budget plus the degree of
/// frontier parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsOptions {
    /// Work limits (see [`BfsBudget`]).
    pub budget: BfsBudget,
    /// Worker threads for candidate evaluation; `0` and `1` both mean
    /// sequential. Results are identical for every value.
    pub workers: usize,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            budget: BfsBudget::default(),
            workers: 1,
        }
    }
}

impl From<BfsBudget> for BfsOptions {
    fn from(budget: BfsBudget) -> Self {
        BfsOptions { budget, workers: 1 }
    }
}

/// Run the exact BFS for `target` with requirement `req`.
///
/// `instance.rings` must already hold every ring of the batch; the related
/// set of each candidate is computed per Definition 1. This is the
/// sequential optimized engine; see [`bfs_with`] for parallelism and
/// caching.
pub fn bfs(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
) -> Result<Selection, SelectError> {
    bfs_with(instance, target, req, &BfsOptions { budget, workers: 1 }, None)
}

/// Run several targets through [`bfs_with`] sharing one evaluation cache —
/// the TokenMagic-batch usage: candidate verdicts do not depend on the
/// target, so later targets hit outcomes computed for earlier ones.
pub fn bfs_batch(
    instance: &Instance,
    targets: &[TokenId],
    req: DiversityRequirement,
    options: &BfsOptions,
    cache: Option<&EvalCache>,
) -> Vec<Result<Selection, SelectError>> {
    targets
        .iter()
        .map(|&t| bfs_with(instance, t, req, options, cache))
        .collect()
}

/// Fold more than this many enumeration records eagerly, so all-pruned
/// frontiers do not accumulate unbounded bookkeeping.
const RECORD_FLUSH: usize = 4096;

/// Per-worker block multiplier: a block of `workers * 4` passing candidates
/// is dispatched to the pool per flush, balancing channel round-trips
/// against wasted evaluation past the winner (discarded, so results stay
/// byte-identical).
const BLOCK_PER_WORKER: usize = 4;

/// One enumerated candidate, recorded in lexicographic order.
enum Record {
    /// Failed the cheap incremental diversity pre-check.
    Pruned,
    /// Passed the pre-check; outcome pending at the given block index.
    Eval(usize),
    /// `max_candidates` or the deadline tripped at this ordinal.
    Stop,
}

/// An expensive-evaluation outcome tagged with its block slot:
/// `(eligible, dtrs_checks)` or the error that aborted the search.
type SlotOutcome = (usize, Result<(bool, u64), SelectError>);

/// Channel ends of the per-call worker pool: jobs are `(slot, candidate)`
/// pairs distributed round-robin; results come back tagged with the slot.
/// The workers themselves are scoped threads owned by [`bfs_with`] —
/// spawned once per call, not per block.
struct PoolHandles {
    job_txs: Vec<std::sync::mpsc::Sender<(usize, RingSet)>>,
    result_rx: std::sync::mpsc::Receiver<SlotOutcome>,
}

struct Engine<'a> {
    instance: &'a Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
    pool: Option<&'a PoolHandles>,
    cache: Option<&'a EvalCache>,
    block_size: usize,
    /// Stats folded so far (candidates up to the last flush).
    stats: SelectionStats,
    /// Enumeration records since the last flush, lexicographic order.
    records: Vec<Record>,
    /// Candidate rings awaiting the expensive check, indexed by `Eval`.
    pending: Vec<RingSet>,
    /// Set once a winner or an error is known; stops the enumeration.
    result: Option<Result<Selection, SelectError>>,
}

impl<'a> Engine<'a> {
    /// Handle one enumerated candidate; returns `false` to stop.
    fn on_candidate(&mut self, mixins: &[TokenId], delta: &DeltaHistogram) -> bool {
        // Ordinal of this candidate among all examined so far: everything
        // folded plus every record since the last flush folds to exactly
        // one `candidates_examined` increment.
        let ordinal = self.stats.candidates_examined + self.records.len() as u64 + 1;
        if ordinal > self.budget.max_candidates {
            self.records.push(Record::Stop);
            self.flush();
            return false;
        }
        if let Some(deadline) = self.budget.deadline {
            // Work charged so far at candidate granularity: every fully
            // examined candidate is one unit, so `ordinal - 1` units have
            // been spent when this candidate is considered. Ticks expiry
            // is therefore deterministic and identical for any worker
            // count (the ordinal is fixed by lexicographic enumeration).
            if deadline.expired(ordinal - 1) {
                self.records.push(Record::Stop);
                self.flush();
                return false;
            }
        }
        // Cheap diversity pre-check from the incrementally-maintained
        // histogram (`delta` already includes the target's HT).
        if !delta.satisfies(&self.req) {
            self.records.push(Record::Pruned);
            if self.records.len() >= RECORD_FLUSH {
                self.flush();
                return self.result.is_none();
            }
            return true;
        }
        let mut tokens = mixins.to_vec();
        tokens.push(self.target);
        self.records.push(Record::Eval(self.pending.len()));
        self.pending.push(RingSet::new(tokens));
        if self.pending.len() >= self.block_size {
            self.flush();
            return self.result.is_none();
        }
        true
    }

    /// Evaluate the pending block and fold all records, in lexicographic
    /// order, into `stats` — stopping at the first winner or error exactly
    /// like the sequential walk.
    fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let outcomes = self.evaluate_pending();
        for rec in self.records.drain(..) {
            match rec {
                Record::Stop => {
                    self.stats.candidates_examined += 1;
                    self.result = Some(Err(SelectError::BudgetExhausted));
                    break;
                }
                Record::Pruned => {
                    self.stats.candidates_examined += 1;
                    self.stats.diversity_checks += 1;
                    self.stats.pruned += 1;
                }
                Record::Eval(j) => {
                    self.stats.candidates_examined += 1;
                    self.stats.diversity_checks += 1;
                    match &outcomes[j] {
                        Err(e) => {
                            self.result = Some(Err(e.clone()));
                            break;
                        }
                        Ok((false, checks)) => {
                            self.stats.diversity_checks += checks;
                        }
                        Ok((true, checks)) => {
                            self.stats.diversity_checks += checks;
                            self.result = Some(Ok(Selection {
                                ring: self.pending[j].clone(),
                                modules: Vec::new(),
                                algorithm: Algorithm::Bfs,
                                stats: self.stats,
                            }));
                            break;
                        }
                    }
                }
            }
        }
        self.records.clear();
        self.pending.clear();
    }

    /// Run the expensive check for every pending candidate, dispatched to
    /// the worker pool when one exists and the block is worth it.
    fn evaluate_pending(&self) -> Vec<Result<(bool, u64), SelectError>> {
        let pending = &self.pending;
        let pool = match self.pool {
            Some(pool) if pending.len() > 1 => pool,
            _ => {
                return pending
                    .iter()
                    .map(|rs| eval_expensive(self.instance, rs, self.req, self.budget, self.cache))
                    .collect();
            }
        };
        // A worker can only disappear if its thread died; rather than
        // panicking the whole search, fall back to evaluating the affected
        // candidates inline. `eval_expensive` is deterministic, so the
        // degraded path stays byte-identical to the pooled one.
        let workers = pool.job_txs.len();
        let mut dispatched = 0usize;
        for (i, rs) in pending.iter().enumerate() {
            if pool.job_txs[i % workers].send((i, rs.clone())).is_ok() {
                dispatched += 1;
            }
        }
        let mut outcomes: Vec<Option<Result<(bool, u64), SelectError>>> =
            vec![None; pending.len()];
        for _ in 0..dispatched {
            match pool.result_rx.recv() {
                Ok((i, o)) => outcomes[i] = Some(o),
                Err(_) => break,
            }
        }
        outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or_else(|| {
                    eval_expensive(self.instance, &pending[i], self.req, self.budget, self.cache)
                })
            })
            .collect()
    }
}

/// The optimized exact BFS: incremental pre-check, clone-free world
/// enumeration, optional memoization and frontier parallelism. See the
/// module docs for the determinism argument.
pub fn bfs_with(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    options: &BfsOptions,
    cache: Option<&EvalCache>,
) -> Result<Selection, SelectError> {
    let n = instance.universe.len();
    if (target.0 as usize) >= n {
        return Err(SelectError::UnknownToken);
    }

    // σ = T \ t_τ (line 1).
    let sigma: Vec<TokenId> = (0..n as u32)
        .map(TokenId)
        .filter(|t| *t != target)
        .collect();

    let workers = options.workers.max(1);
    if workers <= 1 {
        return run_search(instance, target, req, options.budget, cache, None, 1, &sigma);
    }

    // Spawn the pool once for the whole call; workers drain their job
    // channel until it closes (when `pool` drops after the search returns).
    let budget = options.budget;
    std::thread::scope(|s| {
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, RingSet)>();
            job_txs.push(tx);
            let result_tx = result_tx.clone();
            s.spawn(move || {
                while let Ok((i, rs)) = rx.recv() {
                    let outcome = eval_expensive(instance, &rs, req, budget, cache);
                    if result_tx.send((i, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);
        let pool = PoolHandles { job_txs, result_rx };
        run_search(instance, target, req, budget, cache, Some(&pool), workers, &sigma)
    })
}

/// The enumeration loop shared by the sequential and pooled paths.
#[allow(clippy::too_many_arguments)]
fn run_search(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
    cache: Option<&EvalCache>,
    pool: Option<&PoolHandles>,
    workers: usize,
    sigma: &[TokenId],
) -> Result<Selection, SelectError> {
    let mut engine = Engine {
        instance,
        target,
        req,
        budget,
        pool,
        cache,
        block_size: if pool.is_some() {
            workers * BLOCK_PER_WORKER
        } else {
            1
        },
        stats: SelectionStats::default(),
        records: Vec::new(),
        pending: Vec::new(),
        result: None,
    };

    // The incremental histogram over {target} ∪ mixins; the enumerator
    // keeps it in sync by ±1 token per lexicographic step.
    let mut delta = DeltaHistogram::for_universe(&instance.universe);
    delta.add_token(&instance.universe, target);

    // Ascending mixin count i (line 2). A ring needs at least ℓ distinct
    // HTs, so sizes below ℓ can never satisfy the diversity constraint —
    // mirroring the paper's `i = ℓ_τ − 1` start.
    let min_mixins = req.l.saturating_sub(1);
    for i in min_mixins..=sigma.len() {
        for_each_subset_tracked(sigma, i, instance, &mut delta, &mut |mixins, d| {
            engine.on_candidate(mixins, d)
        });
        engine.flush();
        if let Some(result) = engine.result.take() {
            return result;
        }
    }
    Err(SelectError::Infeasible)
}

/// Cache-aware wrapper around [`check_candidate_worlds`]. Only definite
/// verdicts are stored; budget errors are recomputed every time.
fn eval_expensive(
    instance: &Instance,
    rs: &RingSet,
    req: DiversityRequirement,
    budget: BfsBudget,
    cache: Option<&EvalCache>,
) -> Result<(bool, u64), SelectError> {
    if let Some(cache) = cache {
        if let Some(hit) = cache.lookup(rs.tokens()) {
            return Ok((hit.eligible, hit.dtrs_checks));
        }
    }
    let res = check_candidate_worlds(instance, rs, req, budget);
    if let (Some(cache), Ok((eligible, dtrs_checks))) = (cache, &res) {
        cache.insert(
            rs.tokens(),
            CachedOutcome {
                eligible: *eligible,
                dtrs_checks: *dtrs_checks,
            },
        );
    }
    res
}

/// The expensive half of a candidate check — world enumeration, the
/// non-eliminated constraint, and per-ring DTRS diversity — without
/// cloning the ring index: the candidate participates as an *extra* ring
/// under the phantom id a push would have assigned. Returns the verdict
/// plus the number of DTRS diversity checks performed.
fn check_candidate_worlds(
    instance: &Instance,
    rs: &RingSet,
    req: DiversityRequirement,
    budget: BfsBudget,
) -> Result<(bool, u64), SelectError> {
    // Related set + possible worlds (line 9).
    let mut ring_ids: Vec<RsId> = instance.rings.related_set(rs, None);
    let rs_id = RsId(instance.rings.len() as u32);
    ring_ids.push(rs_id);

    let combos = dams_diversity::enumerate_worlds(
        &instance.rings,
        &ring_ids,
        &WorldOptions {
            limit: budget.max_worlds,
            extra: Some((rs_id, rs)),
            deadline: budget.deadline,
        },
    )
    .map_err(|_| SelectError::BudgetExhausted)?;
    if combos.len() >= budget.max_worlds {
        return Err(SelectError::BudgetExhausted);
    }
    if combos.is_empty() {
        // The candidate creates a world with no consistent assignment —
        // impossible in a real chain, but a candidate that contradicts the
        // existing spend structure is simply ineligible.
        return Ok((false, 0));
    }

    // Non-eliminated constraint (lines 10-16): every token of every ring in
    // the analysis set must appear as its consumed token in some world.
    for (slot, &rid) in ring_ids.iter().enumerate() {
        let ring_len = if rid == rs_id {
            rs.len()
        } else {
            instance.rings.ring(rid).len()
        };
        let possible = dams_diversity::combination::possible_consumed(&combos, slot);
        if possible.len() != ring_len {
            return Ok((false, 0));
        }
    }

    // Immutability + DTRS diversity (lines 17-22): every ring's DTRSs must
    // satisfy that ring's claimed requirement; the new ring's DTRSs must
    // satisfy (c_τ, ℓ_τ).
    let mut checks = 0u64;
    for (slot, &rid) in ring_ids.iter().enumerate() {
        let claim = if rid == rs_id {
            req
        } else {
            instance.claim(rid)
        };
        let dtrs = enumerate_dtrs(&combos, &ring_ids, slot, &instance.universe);
        for d in dtrs {
            checks += 1;
            let hist = HtHistogram::from_tokens(&d.tokens(), &instance.universe);
            if !claim.satisfied_by(&hist) {
                return Ok((false, checks));
            }
        }
    }
    Ok((true, checks))
}

/// The seed implementation, kept verbatim: equivalence oracle for the
/// optimized engine and the baseline side of the selection bench figure.
/// Per candidate it rebuilds the HT histogram and clones the ring index.
pub fn bfs_reference(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
) -> Result<Selection, SelectError> {
    let n = instance.universe.len();
    if (target.0 as usize) >= n {
        return Err(SelectError::UnknownToken);
    }
    let mut stats = SelectionStats::default();

    // σ = T \ t_τ (line 1).
    let sigma: Vec<TokenId> = (0..n as u32)
        .map(TokenId)
        .filter(|t| *t != target)
        .collect();

    let min_mixins = req.l.saturating_sub(1);
    for i in min_mixins..=sigma.len() {
        let mut found: Option<Selection> = None;
        let mut err: Option<SelectError> = None;
        for_each_subset(&sigma, i, &mut |mixins| {
            if found.is_some() || err.is_some() {
                return false;
            }
            stats.candidates_examined += 1;
            if stats.candidates_examined > budget.max_candidates {
                err = Some(SelectError::BudgetExhausted);
                return false;
            }
            if let Some(deadline) = budget.deadline {
                if deadline.expired(stats.candidates_examined - 1) {
                    err = Some(SelectError::BudgetExhausted);
                    return false;
                }
            }
            let mut tokens = mixins.to_vec();
            tokens.push(target);
            let rs = RingSet::new(tokens);

            match check_candidate_reference(instance, &rs, req, budget, &mut stats) {
                Ok(true) => {
                    found = Some(Selection {
                        ring: rs,
                        modules: Vec::new(),
                        algorithm: Algorithm::Bfs,
                        stats,
                    });
                    false
                }
                Ok(false) => true,
                Err(e) => {
                    err = Some(e);
                    false
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        if let Some(sel) = found {
            return Ok(sel);
        }
    }
    Err(SelectError::Infeasible)
}

/// Check the three constraints of Definition 5 for one candidate ring
/// (reference path: histogram rebuild + index clone per candidate).
fn check_candidate_reference(
    instance: &Instance,
    rs: &RingSet,
    req: DiversityRequirement,
    budget: BfsBudget,
    stats: &mut SelectionStats,
) -> Result<bool, SelectError> {
    // Diversity constraint, first half (lines 6-8): the ring's own HT set.
    stats.diversity_checks += 1;
    if !req.satisfied_by(&HtHistogram::from_ring(rs, &instance.universe)) {
        stats.pruned += 1;
        return Ok(false);
    }

    // Related set + possible worlds (line 9).
    let related = instance.rings.related_set(rs, None);
    let mut ring_ids: Vec<RsId> = related.clone();
    // Index the candidate as a temporary ring: clone the index and append.
    let mut index = instance.rings.clone();
    let rs_id = index.push(rs.clone());
    ring_ids.push(rs_id);

    let combos =
        dams_diversity::combination::enumerate_with_limit(&index, &ring_ids, budget.max_worlds);
    if combos.len() >= budget.max_worlds {
        return Err(SelectError::BudgetExhausted);
    }
    if combos.is_empty() {
        return Ok(false);
    }

    // Non-eliminated constraint (lines 10-16).
    for (slot, &rid) in ring_ids.iter().enumerate() {
        let possible = dams_diversity::combination::possible_consumed(&combos, slot);
        if possible.len() != index.ring(rid).len() {
            return Ok(false);
        }
    }

    // Immutability + DTRS diversity (lines 17-22).
    for (slot, &rid) in ring_ids.iter().enumerate() {
        let claim = if rid == rs_id {
            req
        } else {
            instance.claim(rid)
        };
        let dtrs = enumerate_dtrs_reference(&combos, &ring_ids, slot, &instance.universe);
        for d in dtrs {
            stats.diversity_checks += 1;
            let hist = HtHistogram::from_tokens(&d.tokens(), &instance.universe);
            if !claim.satisfied_by(&hist) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Visit all `k`-subsets of `pool` in lexicographic order; the callback
/// returns `false` to stop the enumeration.
fn for_each_subset<F: FnMut(&[TokenId]) -> bool>(pool: &[TokenId], k: usize, f: &mut F) {
    fn rec<F: FnMut(&[TokenId]) -> bool>(
        pool: &[TokenId],
        k: usize,
        start: usize,
        acc: &mut Vec<TokenId>,
        f: &mut F,
    ) -> bool {
        if acc.len() == k {
            return f(acc);
        }
        let need = k - acc.len();
        let mut i = start;
        while i + need <= pool.len() {
            acc.push(pool[i]);
            if !rec(pool, k, i + 1, acc, f) {
                acc.pop();
                return false;
            }
            acc.pop();
            i += 1;
        }
        true
    }
    if k <= pool.len() {
        rec(pool, k, 0, &mut Vec::with_capacity(k), f);
    }
}

/// [`for_each_subset`] with a [`DeltaHistogram`] kept in sync by ±1 token
/// per step — the incremental-histogram invariant: on entry to the callback
/// `delta` holds exactly the HTs of `acc ∪ {target}` (the target was seeded
/// by the caller and is never touched here).
fn for_each_subset_tracked<F>(
    pool: &[TokenId],
    k: usize,
    instance: &Instance,
    delta: &mut DeltaHistogram,
    f: &mut F,
) where
    F: FnMut(&[TokenId], &DeltaHistogram) -> bool,
{
    fn rec<F>(
        pool: &[TokenId],
        k: usize,
        start: usize,
        acc: &mut Vec<TokenId>,
        instance: &Instance,
        delta: &mut DeltaHistogram,
        f: &mut F,
    ) -> bool
    where
        F: FnMut(&[TokenId], &DeltaHistogram) -> bool,
    {
        if acc.len() == k {
            return f(acc, delta);
        }
        let need = k - acc.len();
        let mut i = start;
        while i + need <= pool.len() {
            let t = pool[i];
            acc.push(t);
            delta.add_token(&instance.universe, t);
            let keep_going = rec(pool, k, i + 1, acc, instance, delta, f);
            delta.remove_token(&instance.universe, t);
            acc.pop();
            if !keep_going {
                return false;
            }
            i += 1;
        }
        true
    }
    if k <= pool.len() {
        rec(pool, k, 0, &mut Vec::with_capacity(k), instance, delta, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{ring, HtId, RingIndex, TokenUniverse};

    /// Example 1 of the paper as an instance. Token numbering: paper's
    /// t1..t4 are ids 0..3. HTs: t1, t3 from h1; t2 from h2; t4 from h3.
    /// Existing rings: r1 = r2 = {t1, t2} = {0, 1}.
    fn example1() -> Instance {
        let universe = TokenUniverse::new(vec![HtId(1), HtId(2), HtId(1), HtId(3)]);
        let rings = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1])]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 2];
        Instance::new(universe, rings, claims)
    }

    #[test]
    fn example1_finds_the_good_solution() {
        // The paper's "good solution" for consuming t3 (id 2) is
        // r3 = {t3, t4} = {2, 3}: diverse (h1, h3), resists chain reaction,
        // size 2.
        let inst = example1();
        let req = DiversityRequirement::new(2.0, 1);
        let sel = bfs(&inst, TokenId(2), req, BfsBudget::default()).unwrap();
        assert_eq!(sel.size(), 2, "{sel:?}");
        assert!(sel.ring.contains(TokenId(2)));
        // {t1, t3} = {0, 2} fails non-eliminated (t1 provably consumed by
        // r1 = r2); {t2, t3} = {1, 2} fails the same way. {t3, t4} is the
        // smallest clean ring.
        assert_eq!(sel.ring, ring(&[2, 3]));
    }

    #[test]
    fn example1_solution_two_is_rejected() {
        // {t2, t3} = {1, 2}: chain reaction pins t3 (r1 = r2 consume t1, t2).
        let inst = example1();
        let req = DiversityRequirement::new(2.0, 1);
        let sel = bfs(&inst, TokenId(2), req, BfsBudget::default()).unwrap();
        assert_ne!(sel.ring, ring(&[1, 2]));
    }

    #[test]
    fn minimality_no_smaller_ring_is_eligible() {
        // Size-1 ring {t3} is trivially chain-reaction-determined; BFS must
        // return size >= 2.
        let inst = example1();
        let req = DiversityRequirement::new(2.0, 1);
        let sel = bfs(&inst, TokenId(2), req, BfsBudget::default()).unwrap();
        assert!(sel.size() >= 2);
    }

    #[test]
    fn tight_l_requirement_grows_ring() {
        let inst = example1();
        // Require 3 distinct HTs: only {t2, t3, t4} or supersets qualify on
        // diversity; chain reaction rules out t1/t2 contamination.
        let req = DiversityRequirement::new(2.0, 3);
        match bfs(&inst, TokenId(2), req, BfsBudget::default()) {
            Ok(sel) => {
                assert!(sel.size() >= 3);
                let hist = HtHistogram::from_ring(&sel.ring, &inst.universe);
                assert!(req.satisfied_by(&hist));
            }
            Err(SelectError::Infeasible) => {
                // acceptable: the t2-contamination may make it impossible
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn infeasible_when_universe_lacks_hts() {
        // All tokens share one HT: no ring ever satisfies ℓ = 2.
        let universe = TokenUniverse::new(vec![HtId(0); 4]);
        let inst = Instance::fresh(universe);
        let req = DiversityRequirement::new(1.0, 2);
        assert_eq!(
            bfs(&inst, TokenId(0), req, BfsBudget::default()).unwrap_err(),
            SelectError::Infeasible
        );
    }

    #[test]
    fn fresh_universe_small_ring() {
        // No existing rings, 4 tokens with distinct HTs: {t0, t?} suffices
        // for (1, 2)? q=[1,1]: 1 < 1*1 = false (strict). Needs 3 tokens:
        // q=[1,1,1]: 1 < 1*2 ✓.
        let universe = TokenUniverse::new(vec![HtId(0), HtId(1), HtId(2), HtId(3)]);
        let inst = Instance::fresh(universe);
        let req = DiversityRequirement::new(1.0, 2);
        let sel = bfs(&inst, TokenId(0), req, BfsBudget::default()).unwrap();
        assert_eq!(sel.size(), 3);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let universe = TokenUniverse::new((0..20).map(HtId).collect());
        let inst = Instance::fresh(universe);
        let req = DiversityRequirement::new(0.1, 12);
        let tiny = BfsBudget {
            max_candidates: 10,
            max_worlds: 10,
            deadline: None,
        };
        assert_eq!(
            bfs(&inst, TokenId(0), req, tiny).unwrap_err(),
            SelectError::BudgetExhausted
        );
    }

    #[test]
    fn unknown_token_rejected() {
        let inst = example1();
        let req = DiversityRequirement::new(1.0, 1);
        assert_eq!(
            bfs(&inst, TokenId(99), req, BfsBudget::default()).unwrap_err(),
            SelectError::UnknownToken
        );
    }

    #[test]
    fn subset_enumeration_counts() {
        let pool: Vec<TokenId> = (0..5).map(TokenId).collect();
        let mut count = 0;
        for_each_subset(&pool, 3, &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 10);
        // early stop
        let mut seen = 0;
        for_each_subset(&pool, 2, &mut |_| {
            seen += 1;
            seen < 4
        });
        assert_eq!(seen, 4);
    }

    #[test]
    fn reference_and_optimized_agree_on_example1() {
        let inst = example1();
        for req in [
            DiversityRequirement::new(2.0, 1),
            DiversityRequirement::new(2.0, 2),
            DiversityRequirement::new(2.0, 3),
            DiversityRequirement::new(0.5, 1),
        ] {
            for t in 0..4u32 {
                let reference = bfs_reference(&inst, TokenId(t), req, BfsBudget::default());
                let optimized = bfs(&inst, TokenId(t), req, BfsBudget::default());
                assert_eq!(reference, optimized, "req={req:?} t={t}");
            }
        }
    }

    #[test]
    fn parallel_and_cached_match_sequential_on_example1() {
        let inst = example1();
        let req = DiversityRequirement::new(2.0, 1);
        let sequential = bfs(&inst, TokenId(2), req, BfsBudget::default()).unwrap();
        for workers in [2, 4] {
            let opts = BfsOptions {
                budget: BfsBudget::default(),
                workers,
            };
            let cache = EvalCache::with_capacity(64);
            let cold = bfs_with(&inst, TokenId(2), req, &opts, Some(&cache)).unwrap();
            let warm = bfs_with(&inst, TokenId(2), req, &opts, Some(&cache)).unwrap();
            assert_eq!(sequential, cold, "workers={workers} (cold cache)");
            assert_eq!(sequential, warm, "workers={workers} (warm cache)");
        }
    }

    #[test]
    fn expired_deadline_reports_budget_exhausted() {
        // An already-expired deadline must error promptly. (The abort
        // *inside* a single candidate's world enumeration is unit-tested
        // deterministically in dams-diversity::combination; here the
        // between-candidates check fires first.)
        let universe = TokenUniverse::new((0..12).map(|i| HtId(i % 6)).collect());
        let big = ring(&(0..8).collect::<Vec<u32>>());
        let rings = RingIndex::from_rings([big.clone(), big.clone(), big.clone(), big]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 4];
        let inst = Instance::new(universe, rings, claims);
        let expired = BfsBudget {
            deadline: Some(Deadline::At(std::time::Instant::now())),
            ..BfsBudget::default()
        };
        assert_eq!(
            bfs(&inst, TokenId(9), DiversityRequirement::new(2.0, 1), expired).unwrap_err(),
            SelectError::BudgetExhausted
        );
    }

    #[test]
    fn tick_deadline_bounds_candidates_deterministically() {
        let universe = TokenUniverse::new((0..14).map(HtId).collect());
        let inst = Instance::fresh(universe);
        let req = DiversityRequirement::new(1.0, 4);
        // Zero ticks: expired before the first candidate, no work at all.
        let zero = BfsBudget {
            deadline: Some(Deadline::Ticks(0)),
            ..BfsBudget::default()
        };
        assert_eq!(
            bfs(&inst, TokenId(0), req, zero).unwrap_err(),
            SelectError::BudgetExhausted
        );
        // A starved budget expires identically run after run, and for any
        // worker count — the property the selection service's virtual
        // deadline propagation depends on.
        let starved = BfsBudget {
            deadline: Some(Deadline::Ticks(3)),
            ..BfsBudget::default()
        };
        for workers in [1, 2, 4] {
            let opts = BfsOptions {
                budget: starved,
                workers,
            };
            assert_eq!(
                bfs_with(&inst, TokenId(0), req, &opts, None).unwrap_err(),
                SelectError::BudgetExhausted,
                "workers={workers}"
            );
        }
        // A generous tick budget matches the unbudgeted answer exactly.
        let generous = BfsBudget {
            deadline: Some(Deadline::Ticks(1 << 30)),
            ..BfsBudget::default()
        };
        assert_eq!(
            bfs(&inst, TokenId(0), req, generous).unwrap(),
            bfs(&inst, TokenId(0), req, BfsBudget::default()).unwrap()
        );
    }
}
