//! Node-level integration: wallet selects → signs → miner verifies with
//! the TokenMagic configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{RingConfiguration, VerifyError};
use dams_core::{progressive, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};
use dams_node::{validate_ring, TokenMagicConfiguration, Verdict};
use dams_workload::chainload::ChainWorkload;

/// A 24-token universe with 8 HTs of 3 tokens.
fn universe() -> TokenUniverse {
    TokenUniverse::new((0..24u32).map(|i| HtId(i / 3)).collect())
}

#[test]
fn wallet_to_miner_roundtrip_with_configuration() {
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

    // Miner: verify the signed transaction under the TokenMagic
    // configuration (whole chain is one batch at λ = 24).
    let cfg = TokenMagicConfiguration::new(24);
    // Check the configuration would accept the ring's ledger ids.
    let ledger_ring: Vec<dams_blockchain::TokenId> = {
        let mut v: Vec<_> = sel
            .ring
            .tokens()
            .iter()
            .map(|t| workload.ledger_id(*t))
            .collect();
        v.sort_unstable();
        v
    };
    cfg.check(&workload.chain, &ledger_ring).unwrap();

    // Commit for real (signature + double-spend registry).
    workload
        .spend(&sel.ring, TokenId(0), req.c, req.l, &mut rng)
        .unwrap();
    assert!(workload.chain.audit());
}

#[test]
fn miner_rejects_cross_batch_ring() {
    let mut rng = StdRng::seed_from_u64(2);
    let workload = ChainWorkload::materialize(universe(), &mut rng);
    // λ = 6 slices the 8 mint-blocks into several batches.
    let cfg = TokenMagicConfiguration::new(6);
    let first = dams_blockchain::TokenId(0);
    let last = dams_blockchain::TokenId(23);
    let err = cfg.check(&workload.chain, &[first, last]).unwrap_err();
    assert!(err.contains("batch"), "{err}");
}

#[test]
fn configuration_violation_surfaces_through_submit() {
    let mut rng = StdRng::seed_from_u64(3);
    let workload = ChainWorkload::materialize(universe(), &mut rng);
    let signer = *workload.key_of(TokenId(0));
    let chain = workload.chain;
    // A miner configured with λ = 6 rejects a cross-batch transaction at
    // Step 3 even when the signature itself is valid. Construct the tx by
    // hand: spend token 0 with a ring spanning batches.
    let mut tx = dams_blockchain::Transaction {
        inputs: vec![],
        outputs: vec![],
        memo: b"x".to_vec(),
    };
    let ring_ids = [dams_blockchain::TokenId(0), dams_blockchain::TokenId(23)];
    let input = chain
        .sign_ring_input(&tx, &ring_ids, &signer, (1.0, 2), &mut rng)
        .unwrap();
    tx.inputs.push(input);
    let cfg = TokenMagicConfiguration::new(6);
    let err = chain.verify_transaction(&tx, &cfg).unwrap_err();
    assert!(
        matches!(err, VerifyError::ConfigurationViolation { .. }),
        "{err:?}"
    );
}
