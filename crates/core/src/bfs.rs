//! The exact breadth-first search algorithm (Algorithm 2, §5).
//!
//! Enumerates candidate rings in ascending size, checks the three
//! constraints of Definition 5 against the full possible-world
//! (token–RS combination) model, and returns the first — hence smallest —
//! eligible ring. Exponential, as Theorem 3.1 demands; used on small
//! instances and to validate the approximation algorithms.
//!
//! # Two engines
//!
//! Both walk candidates in the same lexicographic order, run the same
//! checks and fold `SelectionStats` the same way:
//!
//! * [`bfs_reference`] — the seed implementation: per candidate it rebuilds
//!   an [`HtHistogram`] for the cheap diversity pre-check and *clones the
//!   entire [`dams_diversity::RingIndex`]* to append the candidate before
//!   world enumeration, and it keeps the seed GetDTRSs,
//!   [`dams_diversity::enumerate_dtrs_reference`]. Kept verbatim as the
//!   oracle for the equivalence sweep and as the baseline side of the
//!   `BENCH_selection.json` figure.
//! * [`bfs`] / [`bfs_with`] — the optimized engine, on one thread:
//!   - the subset enumerator maintains a [`DeltaHistogram`] by ±1 token as
//!     it walks candidates, so the cheap recursive (c, ℓ) pre-check is
//!     allocation-free;
//!   - the expensive check runs [`dams_diversity::enumerate_worlds`] with
//!     the candidate as an out-of-index *extra* ring (no index clone) and
//!     forwards `BfsBudget.deadline` into the recursion;
//!   - GetDTRSs runs on bitsets ([`dams_diversity::enumerate_dtrs`]),
//!     whose output is byte-identical to the seed version's;
//!   - outcomes are memoizable in an [`EvalCache`] keyed by the candidate's
//!     sorted token list and nothing else, so a cache is sound only while
//!     the instance and the requirement stay fixed: one call, or one
//!     [`bfs_batch`] over a frozen instance (the verdict never depends on
//!     the target).
//!
//! The engines differ only in their budgets. Both stop before candidate
//! ordinal `max_candidates + 1`, and under [`Deadline::Ticks`]`(k)` before
//! candidate ordinal `k + 1`. Only [`bfs`] forwards the deadline into world
//! enumeration, where each candidate restarts a step count and gives up
//! on step `k + 1`. So one `Ticks(k)` grant caps two separate counters in
//! [`bfs`], while [`bfs_reference`] has no world-step cap at all: when the
//! winner sits at candidate `w ≤ k` but some candidate up to it needs more
//! than `k` world steps, the reference answers and [`bfs`] reports
//! [`SelectError::BudgetExhausted`]. (An [`EvalCache`] hit skips world
//! enumeration, and with it that step cap.) Under counter budgets alone
//! the two return identical results.

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
    /// same as the counters. A [`Deadline::Ticks`]`(k)` grant caps two
    /// separate counters against the same `k`: the search examines at most
    /// `k` candidates, and for each candidate [`bfs`] restarts a
    /// world-enumeration step count and gives up on step `k + 1`
    /// ([`bfs_reference`] applies only the candidate cap; see the module
    /// docs). Both counters are deterministic, so expiry — and therefore
    /// which tier of the degrade ladder answers — is bit-reproducible
    /// across hosts. `Some(Deadline::Ticks(0))` is treated as already
    /// elapsed before any work.
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

/// The exact-tier budget carrying a candidate grant as a work-tick
/// deadline, `Deadline::Ticks(grant_candidates)`. That one grant caps two
/// separate counters in the exact search: it examines at most
/// `grant_candidates` candidates, and each candidate's world enumeration
/// gives up on step `grant_candidates + 1` (see [`BfsBudget::deadline`]).
/// Either cap exhausts the exact tier, which then hands over to the next
/// tier. The svc admission engine and `Wallet::spend` (dams-node) both
/// grant with it.
pub fn grant_budget(grant_candidates: u64) -> BfsBudget {
    BfsBudget {
        deadline: Some(Deadline::Ticks(grant_candidates)),
        ..BfsBudget::default()
    }
}

/// Run the exact BFS for `target` with requirement `req`.
///
/// `instance.rings` must already hold every ring of the batch; the related
/// set of each candidate is computed per Definition 1. This is the
/// optimized engine without a cache; see [`bfs_with`] to share one.
pub fn bfs(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
) -> Result<Selection, SelectError> {
    bfs_with(instance, target, req, budget, None)
}

/// Run several targets through [`bfs_with`] sharing one evaluation cache —
/// the batch usage on one frozen instance: candidate verdicts do not
/// depend on the target, so later targets hit outcomes computed for
/// earlier ones.
pub fn bfs_batch(
    instance: &Instance,
    targets: &[TokenId],
    req: DiversityRequirement,
    budget: BfsBudget,
    cache: Option<&EvalCache>,
) -> Vec<Result<Selection, SelectError>> {
    targets
        .iter()
        .map(|&t| bfs_with(instance, t, req, budget, cache))
        .collect()
}

/// The optimized exact BFS: incremental pre-check, clone-free world
/// enumeration and optional memoization. It walks candidates in the same
/// lexicographic order as [`bfs_reference`] and folds `SelectionStats`
/// the same way, so the two return identical selections (see the module
/// docs for where their budgets differ).
pub fn bfs_with(
    instance: &Instance,
    target: TokenId,
    req: DiversityRequirement,
    budget: BfsBudget,
    cache: Option<&EvalCache>,
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

    // The incremental histogram over {target} ∪ mixins; the enumerator
    // keeps it in sync by ±1 token per lexicographic step.
    let mut delta = DeltaHistogram::for_universe(&instance.universe);
    delta.add_token(&instance.universe, target);

    // Ascending mixin count i (line 2). A ring needs at least ℓ distinct
    // HTs, so sizes below ℓ can never satisfy the diversity constraint —
    // mirroring the paper's `i = ℓ_τ − 1` start.
    let min_mixins = req.l.saturating_sub(1);
    for i in min_mixins..=sigma.len() {
        let mut result: Option<Result<Selection, SelectError>> = None;
        for_each_subset_tracked(&sigma, i, instance, &mut delta, &mut |mixins, hist| {
            stats.candidates_examined += 1;
            // `candidates_examined - 1` candidates have been fully
            // examined, one unit each, when this one is considered.
            if stats.candidates_examined > budget.max_candidates
                || budget
                    .deadline
                    .is_some_and(|d| d.expired(stats.candidates_examined - 1))
            {
                result = Some(Err(SelectError::BudgetExhausted));
                return false;
            }
            // Cheap diversity pre-check from the incrementally-maintained
            // histogram (`hist` already includes the target's HT).
            stats.diversity_checks += 1;
            if !hist.satisfies(&req) {
                stats.pruned += 1;
                return true;
            }
            let mut tokens = mixins.to_vec();
            tokens.push(target);
            let rs = RingSet::new(tokens);
            match eval_expensive(instance, &rs, req, budget, cache) {
                Ok((eligible, checks)) => {
                    stats.diversity_checks += checks;
                    if !eligible {
                        return true;
                    }
                    result = Some(Ok(Selection {
                        ring: rs,
                        modules: Vec::new(),
                        algorithm: Algorithm::Bfs,
                        stats,
                    }));
                }
                Err(e) => result = Some(Err(e)),
            }
            false
        });
        if let Some(result) = result {
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
    fn cached_matches_uncached_on_example1() {
        let inst = example1();
        let req = DiversityRequirement::new(2.0, 1);
        let uncached = bfs(&inst, TokenId(2), req, BfsBudget::default()).unwrap();
        let cache = EvalCache::with_capacity(64);
        let cold = bfs_with(&inst, TokenId(2), req, BfsBudget::default(), Some(&cache)).unwrap();
        let warm = bfs_with(&inst, TokenId(2), req, BfsBudget::default(), Some(&cache)).unwrap();
        assert_eq!(uncached, cold, "cold cache");
        assert_eq!(uncached, warm, "warm cache");
    }

    #[test]
    fn expired_deadline_reports_budget_exhausted() {
        // An already-elapsed deadline must error promptly. (The abort
        // *inside* a single candidate's world enumeration is unit-tested
        // deterministically in dams-diversity::combination; here the
        // between-candidates check fires first.)
        let universe = TokenUniverse::new((0..12).map(|i| HtId(i % 6)).collect());
        let big = ring(&(0..8).collect::<Vec<u32>>());
        let rings = RingIndex::from_rings([big.clone(), big.clone(), big.clone(), big]);
        let claims = vec![DiversityRequirement::new(2.0, 1); 4];
        let inst = Instance::new(universe, rings, claims);
        let expired = BfsBudget {
            deadline: Some(Deadline::Ticks(0)),
            ..BfsBudget::default()
        };
        assert_eq!(
            bfs(
                &inst,
                TokenId(9),
                DiversityRequirement::new(2.0, 1),
                expired
            )
            .unwrap_err(),
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
        // A starved budget expires identically run after run — the
        // property the selection service's virtual deadline propagation
        // depends on.
        let starved = BfsBudget {
            deadline: Some(Deadline::Ticks(3)),
            ..BfsBudget::default()
        };
        for run in 0..3 {
            assert_eq!(
                bfs(&inst, TokenId(0), req, starved).unwrap_err(),
                SelectError::BudgetExhausted,
                "run {run}"
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
