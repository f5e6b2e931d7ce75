//! Healthcare scenario (§1, §8): tokens are patient record-access grants;
//! a ring signature hides *which* patient's record a clinician touched.
//!
//! Runs a clinic week end-to-end on the blockchain substrate: grants are
//! minted per admission batch, accesses are committed as ring-signed
//! transactions selected by TM_P (the paper's recommendation for
//! latency-sensitive healthcare systems), and the TokenMagic batch list
//! bounds each access's mixin universe.
//!
//! ```text
//! cargo run --release --example healthcare
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::BatchList;
use dams_core::{progressive, Instance, ModularInstance, SelectionPolicy};
use dams_diversity::{analyze, DiversityRequirement, HtId, RingIndex, TokenId, TokenUniverse};
use dams_workload::chainload::ChainWorkload;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);

    // Admissions: 48 record-grants minted in 12 admission batches of 4
    // (each batch is one historical transaction).
    let grants = 48usize;
    let universe = TokenUniverse::new((0..grants).map(|i| HtId((i / 4) as u32)).collect());
    let mut chain = ChainWorkload::materialize(universe.clone(), &mut rng);
    println!(
        "clinic ledger: {} grants across {} admission batches, height {}",
        chain.chain.token_count(),
        universe.distinct_hts(),
        chain.chain.height()
    );

    // TokenMagic batching over the ledger (λ = 16 grants per batch).
    let batches = BatchList::build(&chain.chain, 16);
    println!(
        "TokenMagic batch list (λ = 16): {} batches, sizes {:?}",
        batches.batches().len(),
        batches
            .batches()
            .iter()
            .map(|b| b.tokens.len())
            .collect::<Vec<_>>()
    );

    // A week of accesses: clinicians touch records 0, 5, 9, 14 with TM_P
    // under recursive (1, 4)-diversity. Each committed ring joins the
    // history the next selection must respect.
    let req = DiversityRequirement::new(1.0, 4);
    let policy = SelectionPolicy::new(req);
    let mut committed = RingIndex::new();
    let mut claims = Vec::new();

    for &record in &[0u32, 5, 9, 14] {
        let instance = Instance::new(universe.clone(), committed.clone(), claims.clone());
        let modular = ModularInstance::decompose(&instance).expect("history stays laminar");
        let sel =
            progressive(&modular, TokenId(record), policy).expect("clinic requirement is feasible");
        chain
            .spend(&sel.ring, TokenId(record), req.c, req.l, &mut rng)
            .expect("ring signature verifies on-chain");
        println!(
            "access to grant {record}: ring of {} grants committed (chain height {})",
            sel.size(),
            chain.chain.height()
        );
        committed.push(sel.ring);
        claims.push(req);
    }

    // Compliance audit: the hospital's public ledger leaks no access-to-
    // patient link, even though every transaction is publicly verifiable.
    let audit = analyze(&committed, &[]);
    println!(
        "\ncompliance audit: {} of {} accesses linkable; ledger audit ok = {}",
        audit.resolved_count(),
        committed.len(),
        chain.chain.audit()
    );
    assert_eq!(audit.resolved_count(), 0);
}
