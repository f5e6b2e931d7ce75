//! A day-in-the-life integration test: the full economic + privacy stack
//! working together — wallets spending on an indexed node, fee schedule,
//! DA-MS selection inside the batch, on-chain verification, and a closing
//! audit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{Amount, FeeSchedule, TokenOutput};
use dams_core::SelectionPolicy;
use dams_crypto::KeyPair;
use dams_diversity::DiversityRequirement;
use dams_node::{audit, SimNode, Wallet};
use dams_workload::chainload::ChainWorkload;

#[test]
fn full_stack_day() {
    let mut rng = StdRng::seed_from_u64(2026);

    // Morning: the chain mints a batch — 30 tokens across 10 HTs.
    let universe = dams_diversity::TokenUniverse::new(
        (0..30u32).map(|i| dams_diversity::HtId(i / 3)).collect(),
    );
    let workload = ChainWorkload::materialize(universe, &mut rng);

    // Two wallets import their keys (the workload minted to per-token
    // keys; wallet A takes the first half, wallet B the rest).
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    let mut alice = Wallet::new(policy);
    let mut bob = Wallet::new(policy);
    for t in 0..30u32 {
        let kp = *workload_key(&workload, t);
        if t < 15 {
            alice.import(kp);
        } else {
            bob.import(kp);
        }
    }
    // Both wallets spend on one indexed node that adopted the minted
    // blocks; λ = 30 makes the 30 tokens one closed batch.
    let mut node = SimNode::new(0, *workload.chain.group());
    for block in &workload.chain.blocks()[1..] {
        node.deliver(block.clone()).expect("inbox has room");
    }
    assert_eq!(node.process_inbox(), workload.chain.height() - 1);
    node.enable_index(30).expect("index over the minted chain");
    assert_eq!(alice.spendable(node.chain()).len(), 15);
    assert_eq!(bob.spendable(node.chain()).len(), 15);

    // Midday: spends happen; fees are proportional to ring size, so the
    // DA-MS-selected rings determine the bill.
    let schedule = FeeSchedule::new(Amount(10), Amount(2));
    let mut total_fee = Amount(0);
    let receiver = KeyPair::generate(node.chain().group(), &mut rng).public;
    for (wallet, token) in [(&alice, 0u64), (&bob, 20), (&alice, 7)] {
        let outputs = vec![TokenOutput {
            owner: receiver,
            amount: Amount(1),
        }];
        let spend = wallet
            .spend(
                &mut node,
                dams_blockchain::TokenId(token),
                outputs,
                vec![],
                &mut rng,
            )
            .unwrap_or_else(|e| panic!("spend of {token} failed: {e}"));
        // Reconstruct the fee from the committed transaction.
        let ring = &spend.block.transactions[0].tx.inputs[0].ring;
        assert_eq!(ring.len(), spend.selection.ring.len());
        let fee = Amount(schedule.base.0 + schedule.per_ring_member.0 * ring.len() as u64);
        total_fee = total_fee + fee;
    }
    assert!(total_fee.0 >= 3 * (10 + 2 * 3), "fees track ring sizes");

    // Evening: the block explorer audits the public chain.
    let report = audit(node.chain());
    assert_eq!(report.analysis.resolved_count(), 0, "no spend linkable");
    assert!(report.claim_violations.is_empty(), "all claims honest");
    assert!(report.anonymity.mean_candidates >= 3.0);
    assert!(node.chain().audit(), "hash chain intact");
}

/// Fetch the minting key of algorithm token `t` from the workload.
fn workload_key(w: &ChainWorkload, t: u32) -> &KeyPair {
    w.key_of(dams_diversity::TokenId(t))
}
