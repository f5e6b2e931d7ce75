//! Node-level integration: wallet selects → validates → signs → miner
//! verifies and commits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{progressive, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};
use dams_node::{validate_ring, Verdict};
use dams_workload::chainload::ChainWorkload;

/// A 24-token universe with 8 HTs of 3 tokens.
fn universe() -> TokenUniverse {
    TokenUniverse::new((0..24u32).map(|i| HtId(i / 3)).collect())
}

#[test]
fn wallet_to_miner_roundtrip() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut workload = ChainWorkload::materialize(universe(), &mut rng);
    let req = DiversityRequirement::new(1.0, 3);

    // Wallet: select mixins over the fresh batch.
    let inst = dams_core::Instance::fresh(universe());
    let modular = dams_core::ModularInstance::decompose(&inst).unwrap();
    let sel = progressive(&modular, TokenId(0), SelectionPolicy::new(req)).unwrap();

    // Wallet-side validation (Definition 5).
    let verdict = validate_ring(
        &sel.ring,
        req,
        &dams_diversity::RingIndex::new(),
        &[],
        &universe(),
    );
    assert_eq!(verdict, Verdict::Eligible);

    // Miner: commit for real (Step-3 signature verification and the
    // double-spend registry).
    workload
        .spend(&sel.ring, TokenId(0), req.c, req.l, &mut rng)
        .unwrap();
    assert!(workload.chain.audit());
}
