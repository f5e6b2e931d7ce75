//! The crash-point sweep: for 64 seeds, cut or corrupt a durable WAL
//! image at a seeded point and prove that recovery (a) rebuilds a state
//! byte-identical to the uninterrupted run's prefix and (b) detects every
//! injected corruption — a corrupt record is truncated-and-flagged or a
//! hard error, never silently applied.

use dams_blockchain::{
    block_to_bytes, Amount, Chain, NoConfiguration, TokenId, TokenOutput, Transaction,
};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_store::wal::{self, WAL_HEADER_LEN};
use dams_store::{
    group_fingerprint, MemBackend, Recovered, StorageFault, Store, StoreConfig, StoreError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

fn mem() -> Box<MemBackend> {
    Box::new(MemBackend::new())
}

fn mem_from(bytes: &[u8]) -> Box<MemBackend> {
    Box::new(MemBackend::from_durable(bytes.to_vec()))
}

/// Build a valid ring spend of `keys[spend_idx]` over `ring`, claiming
/// `(c, l)`-diversity. The chain does not validate the claim — recovery's
/// immutability recheck does, which is exactly what these tests exercise.
fn spend_tx(
    chain: &Chain,
    keys: &[KeyPair],
    spend_idx: usize,
    ring: Vec<TokenId>,
    c: f64,
    l: usize,
    rng: &mut StdRng,
) -> Transaction {
    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![TokenOutput {
            owner: keys[spend_idx].public,
            amount: Amount(5),
        }],
        memo: vec![],
    };
    let input = chain
        .sign_ring_input(&tx, &ring, &keys[spend_idx], (c, l), rng)
        .expect("signable ring");
    tx.inputs.push(input);
    tx
}

/// The reference ledger every sweep recovers against: three coinbase
/// blocks (three distinct HTs, tokens 0..9), two cross-origin ring spends
/// with honest claims, one more coinbase block.
fn reference_chain() -> (SchnorrGroup, Chain, Vec<KeyPair>) {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut chain = Chain::new(group);
    let mut keys = Vec::new();
    for _ in 0..3 {
        let block_keys: Vec<KeyPair> = (0..3)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        chain.submit_coinbase(
            block_keys
                .iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(5),
                })
                .collect(),
        );
        chain.seal_block().expect("coinbase seals");
        keys.extend(block_keys);
    }
    // Rings spanning all three origins: q = [1, 1, 1], so the honest
    // claim (2.0, 1) holds (1 < 2 * 3).
    for (spender, ring) in [(0usize, [0u64, 3, 6]), (4, [1, 4, 7])] {
        let tx = spend_tx(
            &chain,
            &keys,
            spender,
            ring.into_iter().map(TokenId).collect(),
            2.0,
            1,
            &mut rng,
        );
        chain.submit(tx, &NoConfiguration).expect("honest spend");
        chain.seal_block().expect("spend seals");
    }
    let kp = KeyPair::generate(&group, &mut rng);
    chain.submit_coinbase(vec![TokenOutput {
        owner: kp.public,
        amount: Amount(1),
    }]);
    chain.seal_block().expect("final coinbase");
    (group, chain, keys)
}

/// The uninterrupted run's durable WAL image for `chain`.
fn full_wal(group: &SchnorrGroup, chain: &Chain) -> Vec<u8> {
    let mut bytes = wal::encode_header(group_fingerprint(group));
    for block in &chain.blocks()[1..] {
        bytes.extend_from_slice(&wal::frame_block(block));
    }
    bytes
}

fn open(wal_bytes: &[u8], cp_bytes: &[u8], group: SchnorrGroup) -> Result<Recovered, StoreError> {
    Store::open(
        mem_from(wal_bytes),
        mem_from(cp_bytes),
        group,
        StoreConfig::default(),
    )
}

/// Recovered blocks must be *exactly* a prefix of the reference chain,
/// byte for byte through the codec.
fn assert_prefix(recovered: &Chain, reference: &Chain) {
    let n = recovered.blocks().len();
    assert!(
        n <= reference.blocks().len(),
        "recovered more blocks than ever written"
    );
    for (got, want) in recovered.blocks().iter().zip(reference.blocks()) {
        assert_eq!(
            block_to_bytes(got),
            block_to_bytes(want),
            "recovered block diverges from the uninterrupted run"
        );
    }
}

#[test]
fn crash_point_sweep_recovers_exact_prefix() {
    let (group, chain, _) = reference_chain();
    let full = full_wal(&group, &chain);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        // Power loss at any byte boundary after the header.
        let cut = rng.gen_range(WAL_HEADER_LEN as usize..=full.len());
        let rec = open(&full[..cut], &[], group)
            .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: recovery failed: {e}"));
        assert!(
            rec.report.clean(),
            "seed {seed}: a torn tail is a benign crash artifact: {:?}",
            rec.report
        );
        assert_prefix(&rec.chain, &chain);
        assert_eq!(
            rec.report.records_replayed as usize,
            rec.chain.blocks().len() - 1,
            "seed {seed}: report and chain disagree"
        );
        // Re-opening the recovered store is idempotent: same tip, no
        // further truncation.
        let (mut wal_dev, mut cp_dev) = rec.store.into_backends();
        let again = Store::open(
            mem_from(&wal_dev.read_all().unwrap()),
            mem_from(&cp_dev.read_all().unwrap()),
            group,
            StoreConfig::default(),
        )
        .expect("second recovery");
        assert_eq!(again.report.records_truncated, 0, "seed {seed}");
        assert_eq!(again.report.tip, rec.report.tip, "seed {seed}");
    }
}

#[test]
fn every_injected_fault_is_detected_never_silently_applied() {
    let (group, chain, _) = reference_chain();
    let full = full_wal(&group, &chain);
    let reference_tip = chain.tip().unwrap().hash();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x5107_0000 + seed);
        let fault = match seed % 5 {
            0 => StorageFault::TornWrite {
                drop_bytes: rng.gen_range(1u64..120),
            },
            1 => StorageFault::BitFlip {
                offset: rng.gen(),
                bit: rng.gen_range(0u8..8),
            },
            2 => StorageFault::LostFsync { records: 1 },
            3 => StorageFault::DuplicateLastRecord,
            _ => StorageFault::ZeroLengthTail {
                bytes: rng.gen_range(8u64..64),
            },
        };
        let mut image = full.clone();
        fault.apply(&mut image);
        match open(&image, &[], group) {
            Ok(rec) => {
                // Whatever the fault did, recovery must never invent or
                // accept state the uninterrupted run did not commit.
                assert_prefix(&rec.chain, &chain);
                match fault {
                    StorageFault::TornWrite { .. } | StorageFault::LostFsync { .. } => {
                        assert!(
                            rec.report.clean(),
                            "seed {seed} {fault:?}: crash artifacts are benign: {:?}",
                            rec.report
                        );
                    }
                    StorageFault::BitFlip { .. } => {
                        assert!(
                            rec.report.corruption_detected || rec.report.records_truncated > 0,
                            "seed {seed}: bit flip invisible to recovery: {:?}",
                            rec.report
                        );
                    }
                    StorageFault::DuplicateLastRecord => {
                        assert_eq!(rec.report.duplicates_skipped, 1, "seed {seed}");
                        assert_eq!(
                            rec.report.tip, reference_tip,
                            "seed {seed}: duplicate must not change the tip"
                        );
                    }
                    StorageFault::ZeroLengthTail { .. } => {
                        assert!(
                            rec.report.corruption_detected,
                            "seed {seed}: zero-length tail must be flagged: {:?}",
                            rec.report
                        );
                        assert_eq!(rec.report.tip, reference_tip, "seed {seed}");
                    }
                }
            }
            // A hard error IS a detection (e.g. interior corruption
            // refusing to truncate committed data) — acceptable for real
            // damage, never for benign crash artifacts.
            Err(e) => match fault {
                StorageFault::TornWrite { .. }
                | StorageFault::LostFsync { .. }
                | StorageFault::DuplicateLastRecord => {
                    panic!("seed {seed} {fault:?}: benign artifact must recover, got {e}")
                }
                _ => {}
            },
        }
    }
}

/// Capture the durable WAL + checkpoint images of a store that appended
/// all of `chain` and checkpointed at its tip.
fn checkpointed_images(group: SchnorrGroup, chain: &Chain) -> (Vec<u8>, Vec<u8>) {
    let rec = Store::open(mem(), mem(), group, StoreConfig::default()).expect("fresh store");
    let mut store = rec.store;
    for block in &chain.blocks()[1..] {
        store.append_block(block).expect("append");
    }
    store.write_checkpoint(chain).expect("checkpoint");
    let (mut wal_dev, mut cp_dev) = store.into_backends();
    (
        wal_dev.read_all().expect("wal bytes"),
        cp_dev.read_all().expect("cp bytes"),
    )
}

#[test]
fn checkpoint_attests_and_accelerates_recovery() {
    let (group, chain, _) = reference_chain();
    let (wal_bytes, cp_bytes) = checkpointed_images(group, &chain);
    let rec = open(&wal_bytes, &cp_bytes, group).expect("recovery with checkpoint");
    assert!(rec.report.checkpoint_loaded);
    assert_eq!(
        rec.report.checkpoint_height,
        chain.blocks().len() as u64 - 1
    );
    assert!(rec.report.clean());
    assert_eq!(rec.report.tip, chain.tip().unwrap().hash());

    // A corrupted checkpoint is a benign fallback: full replay, with the
    // reject counted, landing on the same state.
    let mut bad_cp = cp_bytes.clone();
    bad_cp[20] ^= 0x40;
    let rec = open(&wal_bytes, &bad_cp, group).expect("fallback recovery");
    assert!(rec.report.checkpoint_rejected);
    assert!(!rec.report.checkpoint_loaded);
    assert_eq!(rec.report.tip, chain.tip().unwrap().hash());
}

#[test]
fn lost_fsync_of_attested_records_is_a_hard_error() {
    let (group, chain, _) = reference_chain();
    let (mut wal_bytes, cp_bytes) = checkpointed_images(group, &chain);
    // The drive lies: a whole attested record vanishes.
    StorageFault::LostFsync { records: 1 }.apply(&mut wal_bytes);
    let err = open(&wal_bytes, &cp_bytes, group)
        .map(|_| ())
        .expect_err("attested loss must not pass");
    assert!(
        matches!(err, StoreError::CheckpointAheadOfWal { .. }),
        "{err}"
    );
}

#[test]
fn false_diversity_claim_is_flagged_on_recovery() {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(11);
    let mut chain = Chain::new(group);
    let keys: Vec<KeyPair> = (0..4)
        .map(|_| KeyPair::generate(&group, &mut rng))
        .collect();
    chain.submit_coinbase(
        keys.iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(5),
            })
            .collect(),
    );
    chain.seal_block().expect("coinbase");
    // Same-origin ring (one HT, q = [3]) claiming (1.0, 2): tail sum at
    // l=2 is 0, so the claim is false. The chain accepts it — claims are
    // the *user's* assertion — but recovery's immutability recheck must
    // flag it.
    let tx = spend_tx(
        &chain,
        &keys,
        0,
        vec![TokenId(0), TokenId(1), TokenId(2)],
        1.0,
        2,
        &mut rng,
    );
    chain
        .submit(tx, &NoConfiguration)
        .expect("chain accepts the claim");
    chain.seal_block().expect("spend seals");

    let full = full_wal(&group, &chain);
    let rec = open(&full, &[], group).expect("recovery itself succeeds");
    assert_eq!(rec.report.rings_checked, 1);
    assert_eq!(rec.report.immutability_violations, vec![(2, 0)]);
    assert!(
        !rec.report.clean(),
        "a violated claim must fail the verdict"
    );
}

#[test]
fn nan_claim_asserts_nothing_on_recovery() {
    // The ring signature does not cover the claim and the codec reads its
    // raw bits, so a committed claim can be NaN. Recovery must skip it
    // like any claim that is not > 0, not panic.
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(12);
    let mut chain = Chain::new(group);
    let keys: Vec<KeyPair> = (0..3)
        .map(|_| KeyPair::generate(&group, &mut rng))
        .collect();
    chain.submit_coinbase(
        keys.iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(5),
            })
            .collect(),
    );
    chain.seal_block().expect("coinbase");
    let ring = vec![TokenId(0), TokenId(1), TokenId(2)];
    let tx = spend_tx(&chain, &keys, 0, ring, f64::NAN, 2, &mut rng);
    chain
        .submit(tx, &NoConfiguration)
        .expect("chain accepts the claim");
    chain.seal_block().expect("spend seals");

    let check = dams_store::recheck_immutability(&chain);
    assert_eq!((check.rings_checked, check.violations.len()), (1, 0));
    let rec = open(&full_wal(&group, &chain), &[], group).expect("recovery succeeds");
    assert!(
        rec.report.clean(),
        "a claim that asserts nothing is no violation"
    );
}

#[test]
fn group_fingerprint_gates_replay() {
    let (group, chain, _) = reference_chain();
    let mut image = full_wal(&group, &chain);
    // Forge the header's group fingerprint.
    image[8] ^= 0xFF;
    let err = open(&image, &[], group)
        .map(|_| ())
        .expect_err("foreign WAL must not replay");
    assert!(matches!(err, StoreError::GroupMismatch { .. }), "{err}");
}

#[test]
fn catchup_bundle_bootstraps_a_joiner_with_tail_only_verification() {
    let (group, chain, _) = reference_chain();
    // Server: recover the reference, checkpoint it, and serve a bundle.
    let rec = open(&full_wal(&group, &chain), &[], group).expect("recover reference");
    let mut server = rec.store;
    server.write_checkpoint(&rec.chain).expect("checkpoint");
    assert_eq!(server.blocks_served(), 0);
    let bundle = server.serve_catchup().expect("serve bundle");
    assert_eq!(bundle.blocks, 6, "reference chain has 6 non-genesis blocks");
    assert_eq!(bundle.checkpoint_height, 6);
    assert_eq!(server.blocks_served(), 6, "served blocks must be counted");

    // Joiner: open a store straight from the served images. The
    // checkpoint covers the whole chain, so *zero* blocks need full
    // re-verification — catch-up cost is O(tail), and here the tail is
    // empty.
    let joined =
        open(&bundle.wal, &bundle.checkpoint, group).expect("bundle must bootstrap cleanly");
    assert!(joined.report.clean(), "{:?}", joined.report);
    assert!(joined.report.checkpoint_loaded);
    assert_eq!(joined.report.checkpoint_height, 6);
    assert_eq!(
        joined.chain.tip().unwrap().hash(),
        chain.tip().unwrap().hash(),
        "joiner must land on the server's tip"
    );
    assert_prefix(&joined.chain, &chain);
}
