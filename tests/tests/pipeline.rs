//! Full-pipeline integration: workload → batch → DA-MS selection → ring
//! signature → on-chain commit → adversary audit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::BatchList;
use dams_core::{
    game_theoretic, progressive, satisfies_first_configuration, Instance, ModularInstance,
    PracticalAlgorithm, SelectionPolicy, TokenMagic,
};
use dams_diversity::{analyze, DiversityRequirement, NeighborTracker, RingIndex, TokenId};
use dams_workload::{chainload::ChainWorkload, monero_snapshot, SyntheticConfig};

#[test]
fn synthetic_batch_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = SyntheticConfig {
        num_super: 10,
        super_size: (4, 8),
        num_fresh: 5,
        sigma: 6.0,
        ht_model: None,
    };
    let instance = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 5);
    let sel = progressive(&instance, TokenId(0), SelectionPolicy::new(req)).unwrap();

    // Commit on a real chain with a real linkable ring signature.
    let mut chain = ChainWorkload::materialize(instance.universe.clone(), &mut rng);
    chain
        .spend(&sel.ring, TokenId(0), req.c, req.l, &mut rng)
        .unwrap();
    assert!(chain.chain.audit());
    // Double spend caught by the key image.
    assert!(chain
        .spend(&sel.ring, TokenId(0), req.c, req.l, &mut rng)
        .is_err());
}

#[test]
fn monero_snapshot_selection_resists_chain_reaction() {
    let mut rng = StdRng::seed_from_u64(2);
    let instance = monero_snapshot(&mut rng);
    let req = DiversityRequirement::new(0.6, 40);
    let policy = SelectionPolicy::new(req);

    // Commit three rings sequentially, rebuilding the modular view after
    // each commit (the committed ring becomes a super RS of the history),
    // and verify the public record resists chain-reaction analysis.
    let mut committed = RingIndex::new();
    let mut claims: Vec<DiversityRequirement> = Vec::new();
    // Seed the history with the snapshot's super RSs.
    for m in instance.modules() {
        if matches!(m.kind, dams_core::ModuleKind::SuperRs(_)) {
            committed.push(m.tokens.clone());
            claims.push(req);
        }
    }
    for target in [0u32, 100, 200] {
        let inst = Instance::new(instance.universe.clone(), committed.clone(), claims.clone());
        let modular = ModularInstance::decompose(&inst).expect("history stays laminar");
        let sel = game_theoretic(&modular, TokenId(target), policy).unwrap();
        assert!(satisfies_first_configuration(&sel.ring, &committed));
        committed.push(sel.ring);
        claims.push(req);
    }
    let audit = analyze(&committed, &[]);
    assert_eq!(audit.resolved_count(), 0);
    assert!(audit.contradictions.is_empty());
}

#[test]
fn tokenmagic_framework_hides_target_on_chain() {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = SyntheticConfig {
        num_super: 8,
        super_size: (3, 6),
        num_fresh: 4,
        sigma: 5.0,
        ht_model: None,
    };
    let instance = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 4);
    let tm = TokenMagic::new(PracticalAlgorithm::Progressive, SelectionPolicy::new(req));
    let tracker = NeighborTracker::new();
    let target = TokenId(2);
    let sel = tm.generate(&instance, target, &tracker, &mut rng).unwrap();
    assert!(sel.ring.contains(target));

    let mut chain = ChainWorkload::materialize(instance.universe.clone(), &mut rng);
    chain
        .spend(&sel.ring, target, req.c, req.l, &mut rng)
        .unwrap();
    assert!(chain.chain.audit());
}

#[test]
fn batch_list_bounds_mixin_universe() {
    let mut rng = StdRng::seed_from_u64(4);
    // 40 grants across 10 HTs of 4 → materialised one block per HT.
    let universe = dams_diversity::TokenUniverse::new(
        (0..40u32).map(|i| dams_diversity::HtId(i / 4)).collect(),
    );
    let chain = ChainWorkload::materialize(universe, &mut rng);
    let batches = BatchList::build(&chain.chain, 12);
    // every closed batch has >= λ tokens; all tokens covered exactly once
    let mut total = 0;
    for b in batches.batches() {
        if b.closed {
            assert!(b.tokens.len() >= 12);
        }
        total += b.tokens.len();
    }
    assert_eq!(total, 40);
    // mixin universes of tokens in different batches are disjoint
    let u0 = batches.mixin_universe(dams_blockchain::TokenId(0)).unwrap();
    let last = dams_blockchain::TokenId(39);
    if let Some(ulast) = batches.mixin_universe(last) {
        if batches.batch_of(dams_blockchain::TokenId(0)).unwrap().index
            != batches.batch_of(last).unwrap().index
        {
            assert!(u0.iter().all(|t| !ulast.contains(t)));
        }
    }
}

#[test]
fn sequential_history_stays_decomposable() {
    // Rings generated under the first practical configuration keep the
    // history laminar, so decomposition never fails.
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = SyntheticConfig {
        num_super: 6,
        super_size: (3, 5),
        num_fresh: 6,
        sigma: 5.0,
        ht_model: None,
    };
    let base = cfg.generate(&mut rng);
    let req = DiversityRequirement::new(1.0, 4);
    let policy = SelectionPolicy::new(req);

    let mut committed = RingIndex::new();
    let mut claims = Vec::new();
    // Seed with the synthetic super RSs so the modular history is the
    // generator's.
    for m in base.modules() {
        if matches!(m.kind, dams_core::ModuleKind::SuperRs(_)) {
            committed.push(m.tokens.clone());
            claims.push(req);
        }
    }
    for target in [0u32, 7, 13] {
        let instance = Instance::new(base.universe.clone(), committed.clone(), claims.clone());
        let modular = ModularInstance::decompose(&instance).expect("laminar history");
        if let Ok(sel) = progressive(&modular, TokenId(target), policy) {
            assert!(satisfies_first_configuration(&sel.ring, &committed));
            committed.push(sel.ring);
            claims.push(req);
        }
    }
}
