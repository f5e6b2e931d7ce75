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

use std::sync::Arc;

use dams_core::{
    bfs, bfs_batch, bfs_reference, bfs_with, game_theoretic_from, game_theoretic_reference,
    grant_budget, select_with_ladder_exec, validate_ring, validate_ring_reference, BatchSnapshot,
    BfsBudget, BlockDelta, CoreMetrics, DeltaRing, DiversityIndex, EvalCache, InitStrategy,
    Instance, LadderExec, ModularInstance, Module, ModuleId, ModuleKind, SelectError,
    SelectionPolicy, Tier, Verdict,
};
use dams_diversity::{
    Deadline, DiversityRequirement, HtId, RingIndex, RingSet, RsId, TokenId, TokenUniverse,
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
    let n_hts = 2 + rng.below(3) as usize;
    let hts: Vec<HtId> = (0..n_tokens)
        .map(|_| HtId(rng.below(n_hts as u64) as u32))
        .collect();
    let universe = TokenUniverse::new(hts);

    let n_modules = 2 + rng.below(3) as usize;
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
    let target = TokenId(rng.below(n_tokens as u64) as u32);
    (ModularInstance::from_modules(universe, modules), target)
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
