//! Equivalence sweep for the optimized selection engines.
//!
//! The optimized engines (incremental histograms, the exact search's
//! evaluation cache, the bitset GetDTRSs kernel) must return the *same*
//! `Result<Selection, SelectError>` — ring, stats, and error alike — as
//! the seed reference implementations on every instance. This file sweeps
//! 64 seeded random instances through every engine configuration, 64 more
//! shaped like perfbench's `select-exact` requests through the exact BFS,
//! pins the budget boundary at the winning candidate, and also pins the
//! evaluation cache's accounting exported through `dams-obs`. The
//! related-set validator `validate_ring` is swept the same way against its
//! whole-batch reference on 64 laminar, index-resident batch histories.
//! Three more 64-seed sweeps hold the selection layers that run on counts
//! to what they replaced: Progressive against its former body, the
//! Theorem 6.1 check against its DTRS token sets, and the matching core
//! against `analyze` and the exact adversary.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dams_core::{
    bfs, bfs_batch, bfs_reference, bfs_with, dtrs_diverse_fast, dtrs_token_sets_fast,
    game_theoretic_from, game_theoretic_reference, grant_budget, progressive,
    select_with_ladder_exec, validate_ring, validate_ring_reference, Algorithm, BatchSnapshot,
    BfsBudget, BlockDelta, CoreMetrics, DeltaRing, DiversityIndex, EvalCache, InitStrategy,
    Instance, LadderExec, ModularInstance, Module, ModuleId, ModuleKind, SelectError, Selection,
    SelectionPolicy, SelectionStats, Tier, Verdict,
};
use dams_diversity::{
    analyze, analyze_exact, eliminates_any, Deadline, DiversityRequirement, HtHistogram, HtId,
    RingIndex, RingSet, RsId, TokenId, TokenUniverse,
};
use dams_obs::Registry;

/// Deterministic xorshift64* — no RNG dependency, stable across platforms.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A small random instance: ≤ 10 tokens over 2–4 HTs, up to 4 committed
/// rings of ≤ 3 tokens with modest claims — sized so the exact reference
/// BFS finishes instantly while still exercising related sets, world
/// enumeration, and DTRS checks.
fn random_instance(rng: &mut XorShift) -> (Instance, DiversityRequirement, TokenId) {
    let n_tokens = 4 + rng.below(7) as usize; // 4..=10
    let n_hts = 2 + rng.below(3) as usize; // 2..=4
    let hts: Vec<HtId> = (0..n_tokens)
        .map(|_| HtId(rng.below(n_hts as u64) as u32))
        .collect();
    let universe = TokenUniverse::new(hts);

    let mut rings = RingIndex::new();
    let mut claims = Vec::new();
    let n_rings = rng.below(4) as usize;
    for _ in 0..n_rings {
        let len = 1 + rng.below(3) as usize;
        let mut members: Vec<TokenId> = Vec::new();
        for _ in 0..len {
            let t = TokenId(rng.below(n_tokens as u64) as u32);
            if !members.contains(&t) {
                members.push(t);
            }
        }
        rings.push(RingSet::new(members));
        // Mostly trivial claims, occasionally a real one, so some sweeps
        // exercise the preserved-diversity rejection path.
        let l = 1 + rng.below(2) as usize;
        claims.push(DiversityRequirement::new(1.0, l));
    }

    let c = [0.5, 1.0, 2.0][rng.below(3) as usize];
    let l = 1 + rng.below(3) as usize;
    let target = TokenId(rng.below(n_tokens as u64) as u32);
    (
        Instance::new(universe, rings, claims),
        DiversityRequirement::new(c, l),
        target,
    )
}

/// A small random *modular* instance: tokens partitioned into 2–4 modules.
fn random_modular(rng: &mut XorShift) -> (ModularInstance, TokenId) {
    let n_tokens = 4 + rng.below(7) as usize;
    let n_hts = 2 + rng.below(3);
    let instance = random_partition(rng, n_tokens, n_hts, (2, 3));
    let target = TokenId(rng.below(n_tokens as u64) as u32);
    (instance, target)
}

/// `n_tokens` tokens with random HTs among `n_hts`, dealt at random into
/// `modules.0` to `modules.0 + modules.1 - 1` modules (empty ones dropped).
fn random_partition(
    rng: &mut XorShift,
    n_tokens: usize,
    n_hts: u64,
    modules: (u64, u64),
) -> ModularInstance {
    let hts: Vec<HtId> = (0..n_tokens)
        .map(|_| HtId(rng.below(n_hts) as u32))
        .collect();
    let universe = TokenUniverse::new(hts);

    let n_modules = (modules.0 + rng.below(modules.1)) as usize;
    let mut members: Vec<Vec<TokenId>> = vec![Vec::new(); n_modules];
    for t in 0..n_tokens {
        members[rng.below(n_modules as u64) as usize].push(TokenId(t as u32));
    }
    let modules: Vec<Module> = members
        .into_iter()
        .filter(|m| !m.is_empty())
        .enumerate()
        .map(|(i, tokens)| Module {
            id: ModuleId(i),
            kind: if tokens.len() == 1 {
                ModuleKind::FreshToken
            } else {
                ModuleKind::SuperRs(RsId(i as u32))
            },
            tokens: RingSet::new(tokens),
        })
        .collect();
    ModularInstance::from_modules(universe, modules)
}

#[test]
fn bfs_engines_agree_across_64_seeds() {
    let budget = BfsBudget::default();
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed);
        let (instance, req, target) = random_instance(&mut rng);

        let reference = bfs_reference(&instance, target, req, budget);
        let optimized = bfs(&instance, target, req, budget);
        assert_eq!(reference, optimized, "seed {seed}: sequential optimized");

        let cache = EvalCache::new();
        let cold = bfs_with(&instance, target, req, budget, Some(&cache));
        let warm = bfs_with(&instance, target, req, budget, Some(&cache));
        assert_eq!(reference, cold, "seed {seed}: cached cold");
        assert_eq!(reference, warm, "seed {seed}: cached warm");
    }
}

#[test]
fn bfs_engines_agree_at_every_candidate_cap() {
    // The winner sits at candidate ordinal `w`: a cap of `w` or more must
    // let both engines answer, and anything below must exhaust both. The
    // same holds for a `Ticks(k)` grant with `k < w`, which stops both
    // engines before the winner. At `k >= w` the reference answers, while
    // the optimized engine also caps world-enumeration steps at `k` (see
    // the `bfs` module docs): it either answers identically or exhausts.
    let mut swept = 0;
    for seed in 0..256u64 {
        let mut rng = XorShift::new(seed ^ 0xCA9_B0DE);
        let (instance, req, target) = random_instance(&mut rng);
        let Ok(winner) = bfs_reference(&instance, target, req, BfsBudget::default()) else {
            continue;
        };
        let w = winner.stats.candidates_examined;
        if w < 4 {
            continue;
        }
        for max_candidates in 0..=w + 1 {
            let budget = BfsBudget {
                max_candidates,
                ..BfsBudget::default()
            };
            let reference = bfs_reference(&instance, target, req, budget);
            assert_eq!(reference.is_ok(), max_candidates >= w, "seed {seed}");
            let optimized = bfs(&instance, target, req, budget);
            assert_eq!(
                reference, optimized,
                "seed {seed}: max_candidates={max_candidates}"
            );
        }
        for k in 0..=w + 1 {
            let budget = BfsBudget {
                deadline: Some(Deadline::Ticks(k)),
                ..BfsBudget::default()
            };
            let reference = bfs_reference(&instance, target, req, budget);
            let optimized = bfs(&instance, target, req, budget);
            if k < w {
                assert_eq!(reference, optimized, "seed {seed}: Ticks({k})");
            } else {
                assert_eq!(reference.as_ref(), Ok(&winner), "seed {seed}: Ticks({k})");
                assert!(
                    optimized == reference || optimized == Err(SelectError::BudgetExhausted),
                    "seed {seed}: Ticks({k}) gave {optimized:?}"
                );
            }
        }
        swept += 1;
        if swept == 12 {
            break;
        }
    }
    assert!(
        swept >= 8,
        "only {swept} instances had a winner past ordinal 3"
    );
}

/// An instance shaped like perfbench's `select-exact` requests: 18 tokens
/// over 5 HTs (round-robin, then shuffled) and four committed 3-token
/// rings claiming (2, 1). Related sets of up to five rings make the DTRS
/// enumeration, not the candidate walk, the dominant cost.
fn select_exact_instance(rng: &mut XorShift) -> (Instance, TokenId) {
    let (n_tokens, n_hts) = (18u64, 5u32);
    let mut hts: Vec<HtId> = (0..n_tokens as u32).map(|i| HtId(i % n_hts)).collect();
    for i in (1..hts.len()).rev() {
        hts.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut rings = RingIndex::new();
    let mut claims = Vec::new();
    for _ in 0..4 {
        let mut members = Vec::new();
        while members.len() < 3 {
            let t = TokenId(rng.below(n_tokens) as u32);
            if !members.contains(&t) {
                members.push(t);
            }
        }
        rings.push(RingSet::new(members));
        claims.push(DiversityRequirement::new(2.0, 1));
    }
    let target = TokenId(rng.below(n_tokens) as u32);
    (
        Instance::new(TokenUniverse::new(hts), rings, claims),
        target,
    )
}

#[test]
fn bfs_matches_reference_on_select_exact_instances() {
    // The optimized BFS runs the bitset GetDTRSs kernel and the reference
    // the seed one; ring and SelectionStats must agree on every seed. A
    // candidate cap, counted the same way on both sides, bounds the rare
    // target whose search would run long.
    let req = DiversityRequirement::new(0.5, 3);
    let budget = BfsBudget {
        max_candidates: 4_000,
        ..BfsBudget::default()
    };
    let mut answered = 0;
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed ^ 0x5E1E_C7E8);
        let (instance, target) = select_exact_instance(&mut rng);
        let reference = bfs_reference(&instance, target, req, budget);
        let optimized = bfs(&instance, target, req, budget);
        assert_eq!(reference, optimized, "seed {seed}");
        answered += usize::from(reference.is_ok());
    }
    assert!(answered >= 48, "only {answered} of 64 seeds answered");
}

#[test]
fn game_engines_agree_across_64_seeds() {
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed ^ 0xA5A5_A5A5);
        let (instance, target) = random_modular(&mut rng);
        let c = [0.5, 1.0, 2.0][rng.below(3) as usize];
        let l = 1 + rng.below(3) as usize;
        let policy = SelectionPolicy::new(DiversityRequirement::new(c, l));

        for init in [InitStrategy::CoverageGreedy, InitStrategy::AllSelected] {
            let reference = game_theoretic_reference(&instance, target, policy, init);
            let optimized = game_theoretic_from(&instance, target, policy, init);
            assert_eq!(reference, optimized, "seed {seed} {init:?}: incremental");
        }
    }
}

#[test]
fn bfs_cache_accounting_is_exact() {
    // On a cold run every expensive-check lookup misses and the
    // outcome is stored; an identical warm run hits on every lookup. The
    // exported counters must account for every evaluation:
    // hits + misses == total lookups, and misses == stored outcomes.
    let mut rng = XorShift::new(7);
    let (instance, req, target) = random_instance(&mut rng);
    let budget = BfsBudget::default();

    let registry = Registry::new();
    let cache = EvalCache::in_registry(1 << 16, &registry);

    let cold = bfs_with(&instance, target, req, budget, Some(&cache));
    let snap = registry.snapshot();
    let cold_hits = snap.counter("core.cache.hits_total").unwrap();
    let cold_misses = snap.counter("core.cache.misses_total").unwrap();
    assert_eq!(cold_hits, 0, "distinct candidates cannot hit a cold cache");
    assert_eq!(
        cold_misses,
        cache.len() as u64,
        "every miss stores exactly one outcome (no errors, no evictions)"
    );
    assert_eq!(snap.counter("core.cache.evictions_total"), Some(0));

    let warm = bfs_with(&instance, target, req, budget, Some(&cache));
    assert_eq!(cold, warm);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("core.cache.hits_total").unwrap(),
        cold_misses,
        "the warm run replays exactly the cold run's lookups as hits"
    );
    assert_eq!(
        snap.counter("core.cache.misses_total").unwrap(),
        cold_misses,
        "the warm run adds no misses"
    );
}

#[test]
fn bfs_batch_shares_cache_across_targets() {
    // A batch over one frozen instance: a candidate ring whose content
    // recurs for a later target reuses the stored outcome, and every
    // target's result equals its standalone reference run. Not every
    // instance produces recurring rings (the key is the full ring content,
    // target included), so sweep a few seeds and require reuse in
    // aggregate.
    let budget = BfsBudget::default();
    let mut total_hits = 0u64;
    for seed in 0..8u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(101) + 11);
        let (instance, req, _) = random_instance(&mut rng);
        let n = instance.universe.len() as u32;
        let targets: Vec<TokenId> = (0..n.min(4)).map(TokenId).collect();

        let registry = Registry::new();
        let cache = EvalCache::in_registry(1 << 16, &registry);
        let batch = bfs_batch(&instance, &targets, req, budget, Some(&cache));
        for (i, (&t, got)) in targets.iter().zip(&batch).enumerate() {
            let reference = bfs_reference(&instance, t, req, budget);
            assert_eq!(&reference, got, "seed {seed} target {i}");
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("core.cache.misses_total").unwrap(),
            cache.len() as u64,
            "seed {seed}: each distinct candidate ring is computed exactly once"
        );
        total_hits += snap.counter("core.cache.hits_total").unwrap();
    }
    assert!(
        total_hits > 0,
        "across the sweep, some candidate outcomes must be reused (hits={total_hits})"
    );
}

/// A laminar batch history resident in a `DiversityIndex`: every ring was
/// accepted by `validate_ring_reference` against the batch as it stood
/// when the ring was committed, so no committed ring is already broken.
/// Two commits in three draw a disjoint stream ring of 2–5 unused tokens
/// with the stream's modest claims; the rest commit a wallet ring, the
/// default ladder's answer claiming the wallet's requirement. A candidate
/// the reference refuses is not committed. `wide` is perfbench's
/// spend-wide shape:
/// λ = 256 and (1, 16), so wallet rings have about 17 members. Returns the
/// final batch snapshot and the wallet's requirement.
fn laminar_batch(rng: &mut XorShift, wide: bool) -> (Arc<BatchSnapshot>, DiversityRequirement) {
    let (lambda, req, commits) = if wide {
        (256, DiversityRequirement::new(1.0, 16), 48)
    } else {
        let c = [0.5, 1.0, 2.0][rng.below(3) as usize];
        let req = DiversityRequirement::new(c, 1 + rng.below(3) as usize);
        (8 + rng.below(17) as usize, req, 4 + rng.below(9) as usize)
    };
    // One block mints the whole batch, one historical transaction (one
    // HT) per 1–4 tokens.
    let mut minted: Vec<(u64, u64)> = Vec::new();
    let mut ht = 0;
    while minted.len() < lambda {
        for _ in 0..1 + rng.below(4) {
            minted.push((minted.len() as u64, ht));
        }
        ht += 1;
    }
    let mut index = DiversityIndex::new(lambda);
    let mint = BlockDelta {
        height: 0,
        minted,
        rings: vec![],
    };
    index.apply_block(&mint).expect("the mint block applies");
    let policy = SelectionPolicy::new(req);
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let mut unused: Vec<u32> = (0..index.token_count() as u32).collect();
    let mut height = 0;
    for _ in 0..commits {
        let snap = index.snapshot(0).expect("batch 0 exists");
        let (ring, claim) = if rng.below(3) < 2 && unused.len() >= 2 {
            let mut pool = unused.clone();
            let want = (2 + rng.below(4) as usize).min(pool.len());
            let members: Vec<u32> = (0..want)
                .map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize))
                .collect();
            let c = [0.5, 1.0][rng.below(2) as usize];
            let claim = DiversityRequirement::new(c, 1 + rng.below(2) as usize);
            (RingSet::new(members.into_iter().map(TokenId)), claim)
        } else {
            let target = TokenId(rng.below(lambda as u64) as u32);
            let answer = select_with_ladder_exec(
                &snap.instance,
                target,
                policy,
                grant_budget(16),
                &Tier::DEFAULT_LADDER,
                &metrics,
                &LadderExec {
                    modular: snap.modular.as_ref(),
                    ..LadderExec::default()
                },
            );
            let Ok(answer) = answer else { continue };
            (answer.selection.ring, req)
        };
        let verdict = validate_ring_reference(
            &ring,
            claim,
            &snap.instance.rings,
            &snap.instance.claims,
            &snap.instance.universe,
        );
        if verdict != Verdict::Eligible {
            continue;
        }
        unused.retain(|&t| !ring.contains(TokenId(t)));
        height += 1;
        let delta = BlockDelta {
            height,
            minted: vec![],
            rings: vec![DeltaRing {
                tokens: ring
                    .tokens()
                    .iter()
                    .map(|t| snap.tokens[t.0 as usize])
                    .collect(),
                claimed_c: claim.c,
                claimed_l: claim.l,
            }],
        };
        index.apply_block(&delta).expect("ring blocks apply");
    }
    (index.snapshot(0).expect("batch 0 exists"), req)
}

/// Candidates for one snapshot: every tier's answer for four targets,
/// random unions of whole modules and random token subsets.
fn validation_candidates(
    rng: &mut XorShift,
    snap: &BatchSnapshot,
    req: DiversityRequirement,
) -> Vec<RingSet> {
    let n = snap.tokens.len() as u64;
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let exec = LadderExec {
        modular: snap.modular.as_ref(),
        ..LadderExec::default()
    };
    let (policy, budget) = (SelectionPolicy::new(req), grant_budget(64));
    let mut out = Vec::new();
    for _ in 0..4 {
        let target = TokenId(rng.below(n) as u32);
        for tier in Tier::DEFAULT_LADDER {
            let answer = select_with_ladder_exec(
                &snap.instance,
                target,
                policy,
                budget,
                &[tier],
                &metrics,
                &exec,
            );
            if let Ok(answer) = answer {
                out.push(answer.selection.ring);
            }
        }
    }
    let modules = snap
        .modular
        .as_ref()
        .expect("laminar batches decompose")
        .modules();
    for _ in 0..8 {
        let take = 1 + rng.below(4);
        let union = (0..take).flat_map(|_| {
            let module = &modules[rng.below(modules.len() as u64) as usize];
            module.tokens.tokens().to_vec()
        });
        out.push(RingSet::new(union.collect::<Vec<_>>()));
    }
    for _ in 0..8 {
        let size = 1 + rng.below(n.min(20));
        out.push(RingSet::new(
            (0..size)
                .map(|_| TokenId(rng.below(n) as u32))
                .collect::<Vec<_>>(),
        ));
    }
    out
}

#[test]
fn related_set_validation_matches_the_reference_across_64_seeds() {
    // On histories with no already-broken ring, the related-set check and
    // the whole-batch reference give the same verdict on every candidate,
    // with full claims and with claims cut short. Every fourth seed is a
    // spend-wide batch.
    let mut seen: Vec<Verdict> = Vec::new();
    let mut short_claims = 0;
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(7919) + 3);
        let (snap, req) = laminar_batch(&mut rng, seed % 4 == 0);
        let (rings, claims, universe) = (
            &snap.instance.rings,
            &snap.instance.claims,
            &snap.instance.universe,
        );
        for (i, candidate) in validation_candidates(&mut rng, &snap, req)
            .iter()
            .enumerate()
        {
            let reference = validate_ring_reference(candidate, req, rings, claims, universe);
            let got = validate_ring(candidate, req, rings, claims, universe);
            assert_eq!(got, reference, "seed {seed} candidate {i}: {candidate:?}");
            if !seen.contains(&got) {
                seen.push(got);
            }
            if !rings.is_empty() {
                let kept = &claims[..rng.below(rings.len() as u64) as usize];
                let reference = validate_ring_reference(candidate, req, rings, kept, universe);
                let got = validate_ring(candidate, req, rings, kept, universe);
                assert_eq!(
                    got,
                    reference,
                    "seed {seed} candidate {i} with {} claims",
                    kept.len()
                );
                short_claims += usize::from(got == Verdict::ClaimsMissing);
            }
        }
    }
    for verdict in [
        Verdict::Eligible,
        Verdict::ConfigurationViolated,
        Verdict::EliminationPossible,
        Verdict::DtrsViolated,
        Verdict::ImmutabilityViolated,
    ] {
        assert!(seen.contains(&verdict), "the sweep never saw {verdict:?}");
    }
    assert!(
        short_claims > 0,
        "no cut-short claims reached ClaimsMissing"
    );
}

/// Times [`progressive_reference`] reached its β ≤ 0 branch.
static BETA_BRANCH: AtomicUsize = AtomicUsize::new(0);

/// The Progressive body `dams_core::progressive` had before it ran on
/// running counts, kept verbatim as the oracle of the sweep below, apart
/// from the counter marking its β ≤ 0 branch: each probe clones the
/// selection and rebuilds the union's `HtHistogram`.
fn progressive_reference(
    instance: &ModularInstance,
    target: TokenId,
    policy: SelectionPolicy,
) -> Result<Selection, SelectError> {
    if (target.0 as usize) >= instance.universe.len() {
        return Err(SelectError::UnknownToken);
    }
    let req = policy.effective();
    let mut stats = SelectionStats::default();

    let x_tau = instance.module_of(target);
    let mut selected: Vec<ModuleId> = vec![x_tau];
    let mut remaining: Vec<ModuleId> = instance
        .modules()
        .iter()
        .map(|m| m.id)
        .filter(|&id| id != x_tau)
        .collect();

    let mut covered: BTreeSet<HtId> = module_hts(instance, x_tau);

    // Phase 1: reach ℓ distinct HTs.
    while covered.len() < req.l {
        stats.iterations += 1;
        let mut best: Option<(f64, usize)> = None; // (alpha, idx into remaining)
        for (idx, &id) in remaining.iter().enumerate() {
            let hts = module_hts(instance, id);
            let new_hts = hts.difference(&covered).count();
            if new_hts == 0 {
                continue;
            }
            let need = req.l - covered.len();
            let denom = need.min(new_hts) as f64;
            let alpha = instance.module(id).len() as f64 / denom;
            stats.candidates_examined += 1;
            let better = match best {
                None => true,
                Some((b, bidx)) => {
                    alpha < b
                        || (alpha == b
                            && instance.module(id).len() < instance.module(remaining[bidx]).len())
                }
            };
            if better {
                best = Some((alpha, idx));
            }
        }
        let Some((_, idx)) = best else {
            // No module adds a new HT: the batch lacks ℓ distinct HTs.
            return Err(SelectError::Infeasible);
        };
        let id = remaining.swap_remove(idx);
        covered.extend(module_hts(instance, id));
        selected.push(id);
    }

    // Phase 2: satisfy the recursive (c, ℓ) condition.
    loop {
        stats.diversity_checks += 1;
        let hist = instance.histogram_of(&selected);
        let delta = req.slack(&hist);
        if delta < 0.0 {
            break;
        }
        stats.iterations += 1;
        let mut best: Option<(f64, usize)> = None; // (beta, idx)
        for (idx, &id) in remaining.iter().enumerate() {
            let mut probe = selected.clone();
            probe.push(id);
            let delta_i = req.slack(&instance.histogram_of(&probe));
            stats.diversity_checks += 1;
            stats.candidates_examined += 1;
            let beta = (delta - delta_i) / instance.module(id).len() as f64;
            let better = match best {
                None => true,
                Some((b, bidx)) => {
                    beta > b
                        || (beta == b
                            && instance.module(id).len() < instance.module(remaining[bidx]).len())
                }
            };
            if better {
                best = Some((beta, idx));
            }
        }
        let Some((beta, idx)) = best else {
            return Err(SelectError::Infeasible);
        };
        if beta <= 0.0 {
            BETA_BRANCH.fetch_add(1, Ordering::Relaxed);
            // No module reduces the slack: with every remaining module the
            // condition cannot be met — adding them all is the only
            // remaining option and it has non-positive gain per token. Try
            // the full union once before declaring infeasibility.
            let mut all = selected.clone();
            all.extend(remaining.iter().copied());
            stats.diversity_checks += 1;
            if req.slack(&instance.histogram_of(&all)) < 0.0 {
                // Fall through: keep greedy-adding; β ordering still picks
                // the best direction.
            } else {
                return Err(SelectError::Infeasible);
            }
        }
        let id = remaining.swap_remove(idx);
        selected.push(id);
    }

    selected.sort_unstable();
    Ok(Selection {
        ring: instance.ring_of(&selected),
        modules: selected,
        algorithm: Algorithm::Progressive,
        stats,
    })
}

fn module_hts(instance: &ModularInstance, id: ModuleId) -> BTreeSet<HtId> {
    instance
        .module(id)
        .tokens
        .tokens()
        .iter()
        .map(|t| instance.universe.ht(*t))
        .collect()
}

/// A batch view shaped like a spend workload's: `lambda` tokens minted one
/// to four per HT, a few super RSs of about `ring` members each, and the
/// other tokens fresh, in `decompose` order (super RSs first).
fn batch_view(rng: &mut XorShift, lambda: usize, ring: usize) -> ModularInstance {
    let mut hts: Vec<HtId> = Vec::with_capacity(lambda);
    let mut ht = 0;
    while hts.len() < lambda {
        for _ in 0..1 + rng.below(4) {
            if hts.len() < lambda {
                hts.push(HtId(ht));
            }
        }
        ht += 1;
    }
    let mut pool: Vec<u32> = (0..lambda as u32).collect();
    let mut modules: Vec<Module> = Vec::new();
    for rs in 0..rng.below((lambda / ring / 2 + 1) as u64) {
        let size = (ring / 2 + rng.below(ring as u64) as usize).clamp(1, pool.len());
        let tokens: Vec<TokenId> = (0..size)
            .map(|_| TokenId(pool.swap_remove(rng.below(pool.len() as u64) as usize)))
            .collect();
        modules.push(Module {
            id: ModuleId(modules.len()),
            kind: ModuleKind::SuperRs(RsId(rs as u32)),
            tokens: RingSet::new(tokens),
        });
    }
    pool.sort_unstable();
    for t in pool {
        modules.push(Module {
            id: ModuleId(modules.len()),
            kind: ModuleKind::FreshToken,
            tokens: RingSet::new([TokenId(t)]),
        });
    }
    ModularInstance::from_modules(TokenUniverse::new(hts), modules)
}

#[test]
fn progressive_matches_its_former_body_across_64_seeds() {
    // Small random partitions, mid-size modules that repeat HTs (so the
    // coverage phase must count a module's new HTs once), spend-long's
    // shape (λ 64, (1, 2), 3-member rings) and spend-wide's (λ 256,
    // (1, 16), 17-member rings), each under its own requirement and a
    // random one that is sometimes infeasible, with and without the ℓ + 1
    // margin.
    let before = BETA_BRANCH.load(Ordering::Relaxed);
    let (mut answered, mut infeasible) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed ^ 0x9E0_6E55);
        let (n_tokens, n_hts) = (12 + rng.below(29) as usize, 4 + rng.below(9));
        let shapes = [
            (
                random_modular(&mut rng).0,
                DiversityRequirement::new(1.0, 2),
            ),
            (
                random_partition(&mut rng, n_tokens, n_hts, (3, 6)),
                DiversityRequirement::new(1.0, 4),
            ),
            (
                batch_view(&mut rng, 64, 3),
                DiversityRequirement::new(1.0, 2),
            ),
            (
                batch_view(&mut rng, 256, 17),
                DiversityRequirement::new(1.0, 16),
            ),
        ];
        for (instance, own) in shapes {
            let n = instance.universe.len() as u64;
            let l = 1 + rng.below(instance.universe.distinct_hts().min(18) as u64 + 2) as usize;
            let random = DiversityRequirement::new([0.2, 0.5, 1.0, 2.0][rng.below(4) as usize], l);
            for req in [own, random] {
                for policy in [SelectionPolicy::new(req), SelectionPolicy::with_margin(req)] {
                    for target in [rng.below(n), n] {
                        let target = TokenId(target as u32);
                        let got = progressive(&instance, target, policy);
                        let want = progressive_reference(&instance, target, policy);
                        assert_eq!(got, want, "seed {seed} {policy:?} target {target:?}");
                        match got {
                            Ok(_) => answered += 1,
                            Err(SelectError::Infeasible) => infeasible += 1,
                            Err(_) => {}
                        }
                    }
                }
            }
        }
    }
    assert!(
        answered > 0 && infeasible > 0,
        "{answered} answered, {infeasible} infeasible"
    );
    assert!(
        BETA_BRANCH.load(Ordering::Relaxed) > before,
        "the sweep never reached the β ≤ 0 branch"
    );
}

#[test]
fn dtrs_check_on_counts_matches_the_token_sets_across_64_seeds() {
    // `dtrs_diverse_fast` judges each DTRS from the ring's HT counts; the
    // oracle builds every Theorem 6.1 token set ψ and its histogram.
    let (mut passed, mut failed) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed ^ 0xD7_25);
        let n_tokens = 12 + rng.below(29);
        let n_hts = 2 + rng.below(5);
        let universe = TokenUniverse::new(
            (0..n_tokens)
                .map(|_| HtId(rng.below(n_hts) as u32))
                .collect(),
        );
        for _ in 0..16 {
            let ring = RingSet::new(
                (0..1 + rng.below(12))
                    .map(|_| TokenId(rng.below(n_tokens) as u32))
                    .collect::<Vec<_>>(),
            );
            let v = rng.below(ring.len() as u64 + 2) as usize;
            let req = DiversityRequirement {
                c: [0.2, 0.5, 1.0, 2.0, 3.0][rng.below(5) as usize],
                l: rng.below(5) as usize,
            };
            let want = dtrs_token_sets_fast(&ring, &universe, v)
                .iter()
                .all(|(_, tokens)| req.satisfied_by(&HtHistogram::from_ring(tokens, &universe)));
            let got = dtrs_diverse_fast(&ring, &universe, v, req);
            assert_eq!(got, want, "seed {seed}: {ring:?} v={v} {req:?}");
            if !dtrs_token_sets_fast(&ring, &universe, v).is_empty() {
                if got {
                    passed += 1;
                } else {
                    failed += 1;
                }
            }
        }
    }
    assert!(passed > 0 && failed > 0, "{passed} passed, {failed} failed");
}

#[test]
fn matching_core_matches_analyze_and_the_exact_adversary_across_64_seeds() {
    // Small ring families, non-laminar in general, with duplicated rings
    // and zero-mixin (one-token) rings; every other family spreads its
    // token ids far apart. `eliminates_any` must give the verdict
    // `validate_ring` used to read off `analyze`, and on families with a
    // possible world `analyze` must equal the exact adversary.
    let (mut eliminated, mut kept, mut impossible) = (0, 0, 0);
    for seed in 0..64u64 {
        let mut rng = XorShift::new(seed ^ 0x03A7_C4E5);
        for family in 0..8 {
            let n_tokens = 2 + rng.below(6) as u32;
            let spread = if family % 2 == 0 { 1 } else { 1_000 };
            let mut rings: Vec<RingSet> = Vec::new();
            for _ in 0..1 + rng.below(6) {
                let ring = match rng.below(4) {
                    0 if !rings.is_empty() => rings[rng.below(rings.len() as u64) as usize].clone(),
                    1 => RingSet::new([TokenId(rng.below(n_tokens as u64) as u32 * spread)]),
                    _ => RingSet::new(
                        (0..2 + rng.below(3))
                            .map(|_| TokenId(rng.below(n_tokens as u64) as u32 * spread))
                            .collect::<Vec<_>>(),
                    ),
                };
                rings.push(ring);
            }
            let index = RingIndex::from_rings(rings.iter().cloned());
            let narrowed = |candidates: &std::collections::BTreeMap<RsId, BTreeSet<TokenId>>| {
                index
                    .iter()
                    .any(|(rs, ring)| candidates.get(&rs).is_none_or(|c| c.len() != ring.len()))
            };
            let fast = analyze(&index, &[]);
            let exact = analyze_exact(&index, &[]);
            let refs: Vec<&RingSet> = rings.iter().collect();
            let got = eliminates_any(&refs);
            assert_eq!(got, narrowed(&fast.candidates), "seed {seed}: {rings:?}");
            assert_eq!(got, narrowed(&exact.candidates), "seed {seed}: {rings:?}");
            if exact.contradictions.is_empty() {
                assert_eq!(fast, exact, "seed {seed}: {rings:?}");
            } else {
                impossible += 1;
            }
            if got {
                eliminated += 1;
            } else {
                kept += 1;
            }
        }
    }
    assert!(
        eliminated > 0 && kept > 0 && impossible > 0,
        "{eliminated} eliminated, {kept} kept, {impossible} without a world"
    );
}
