//! Gossip-frame corruption sweep over all five wire kinds — block,
//! tip, range, evidence (equivocation proof), refusal.
//!
//! Golden vectors prove clean frames round-trip through [`decode_frame`];
//! then 64 seeded bit-flips and 64 seeded truncations per kind prove a
//! mutated frame is either rejected with a typed [`NodeError`] or — in
//! the one legal survivor case, a flip inside a signature of a block
//! frame — decodes to a frame whose attestation no longer verifies
//! against the identity directory. Never a panic, never a silent
//! acceptance: this is the wire half of the Byzantine-defense argument
//! (the transport may mangle anything; attribution must survive it).

use dams_blockchain::{Amount, Chain, TokenOutput};
use dams_crypto::{KeyPair, PublicKey, SchnorrGroup};
use dams_node::{
    decode_frame, frame_attested_block, frame_evidence, frame_range, frame_refusal, frame_tip,
    Attestation, EquivocationProof, GossipFrame,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

struct Fixture {
    group: SchnorrGroup,
    directory: Vec<PublicKey>,
    /// (kind name, clean frame bytes) for every wire kind.
    frames: Vec<(&'static str, Vec<u8>)>,
}

fn fixture() -> Fixture {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(1717);
    let identity = KeyPair::generate(&group, &mut rng);
    let directory = vec![identity.public];

    // A realistic announced block: genesis + one sealed coinbase.
    let mut chain = Chain::new(group);
    let owner = KeyPair::generate(&group, &mut rng);
    chain.submit_coinbase(vec![TokenOutput {
        owner: owner.public,
        amount: Amount(5),
    }]);
    chain.seal_block().expect("coinbase seals");
    let block = chain.blocks().last().expect("sealed").clone();
    let att = Attestation::sign(
        &group,
        0,
        block.header.height.0,
        block.hash(),
        &identity,
        &mut rng,
    )
    .expect("ring-of-one signs");

    let a = Attestation::sign(&group, 0, 3, [1u8; 32], &identity, &mut rng).unwrap();
    let b = Attestation::sign(&group, 0, 3, [2u8; 32], &identity, &mut rng).unwrap();
    let proof = EquivocationProof { a, b };
    assert!(
        proof.verify(&group, &directory),
        "fixture proof must verify"
    );

    Fixture {
        group,
        directory,
        frames: vec![
            ("block", frame_attested_block(&att, &block)),
            ("tip", frame_tip(0, 7, [9u8; 32])),
            ("range", frame_range(1, 2, 9)),
            ("evidence", frame_evidence(&proof)),
            ("refusal", frame_refusal(0, 99, 16)),
        ],
    }
}

#[test]
fn golden_vectors_roundtrip_every_kind() {
    let fx = fixture();
    for (name, bytes) in &fx.frames {
        let decoded = decode_frame(&fx.group, bytes)
            .unwrap_or_else(|e| panic!("golden {name} frame rejected: {e}"));
        match (*name, &decoded) {
            ("block", GossipFrame::Block { attestation, block }) => {
                assert!(attestation.verify(&fx.group, &fx.directory));
                assert_eq!(attestation.hash, block.hash());
            }
            (
                "tip",
                GossipFrame::Tip {
                    sender,
                    height,
                    tip,
                },
            ) => {
                assert_eq!((*sender, *height, *tip), (0, 7, [9u8; 32]));
            }
            (
                "range",
                GossipFrame::Range {
                    requester,
                    from,
                    to,
                },
            ) => {
                assert_eq!((*requester, *from, *to), (1, 2, 9));
            }
            ("evidence", GossipFrame::Evidence(proof)) => {
                assert!(proof.verify(&fx.group, &fx.directory));
            }
            (
                "refusal",
                GossipFrame::Refusal {
                    server,
                    requested,
                    cap,
                },
            ) => {
                assert_eq!((*server, *requested, *cap), (0, 99, 16));
            }
            (name, other) => panic!("golden {name} decoded as wrong kind: {other:?}"),
        }
    }
}

#[test]
fn bit_flips_yield_typed_errors_or_unverifiable_frames() {
    let fx = fixture();
    for (name, clean) in &fx.frames {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0xF1A6_0000 + seed);
            let mut bytes = clean.clone();
            let idx = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[idx] ^= 1 << bit;
            match decode_frame(&fx.group, &bytes) {
                Err(_) => {} // typed rejection: the expected outcome
                Ok(GossipFrame::Block { attestation, block }) => {
                    // The only tolerable survivor: a flip that decode
                    // cannot see (inside signature bytes covered by the
                    // frame digest we also flipped? impossible — one flip
                    // only). A decoded block frame must therefore fail
                    // attestation verification or mismatch the original.
                    assert!(
                        !attestation.verify(&fx.group, &fx.directory)
                            || attestation.hash != block.hash(),
                        "{name} seed {seed}: bit {bit} of byte {idx} survived \
                         decode AND attestation verification — silent acceptance"
                    );
                }
                Ok(other) => panic!(
                    "{name} seed {seed}: single bit flip (byte {idx}, bit {bit}) \
                     decoded cleanly as {other:?} — the frame digest missed it"
                ),
            }
        }
    }
}

#[test]
fn truncations_always_yield_typed_errors() {
    let fx = fixture();
    for (name, clean) in &fx.frames {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x7256_0000 + seed);
            let cut = rng.gen_range(0..clean.len());
            assert!(
                decode_frame(&fx.group, &clean[..cut]).is_err(),
                "{name} seed {seed}: truncation at {cut}/{} still decoded",
                clean.len()
            );
        }
    }
}

#[test]
fn mangled_evidence_never_verifies_as_a_proof() {
    // Evidence frames are the frames peers act on hardest (a verified
    // proof is an instant ban), so pin the stronger property: however a
    // single byte is mangled, the result either fails to decode or fails
    // proof verification. No mutation may yield a *different valid
    // proof*.
    let fx = fixture();
    let clean = &fx.frames[3].1;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xE71D ^ (seed << 8));
        let mut bytes = clean.clone();
        let idx = rng.gen_range(0..bytes.len());
        bytes[idx] = bytes[idx].wrapping_add(rng.gen_range(1..=255u8));
        if let Ok(GossipFrame::Evidence(proof)) = decode_frame(&fx.group, &bytes) {
            assert!(
                !proof.verify(&fx.group, &fx.directory),
                "seed {seed}: mutated byte {idx} produced a verifying proof"
            );
        }
    }
}
