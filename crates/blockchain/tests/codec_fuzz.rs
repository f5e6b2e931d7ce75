//! Codec corruption sweep: for 64 seeds, encode a realistic block (ring
//! signatures included), flip one seeded random byte, and prove the
//! mutation can never be *silently* accepted — decoding either fails, or
//! the decoded block no longer matches the original's hash, or the
//! recomputed content hash exposes the tampered body. This is the codec
//! half of the durable store's integrity argument: the WAL's crc32
//! catches media faults, and these properties catch anything that slips
//! past a checksum.

use dams_blockchain::{
    block_to_bytes, decode_block, Amount, Block, Chain, NoConfiguration, TokenId, TokenOutput,
    Transaction,
};
use dams_crypto::{KeyPair, SchnorrGroup};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

/// A block carrying a coinbase and a ring spend — every codec section
/// (header, outputs, ring, signature responses, key image) is populated.
fn realistic_block() -> (SchnorrGroup, Block) {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(404);
    let keys: Vec<KeyPair> = (0..4)
        .map(|_| KeyPair::generate(&group, &mut rng))
        .collect();
    let mut chain = Chain::new(group);
    chain.submit_coinbase(
        keys.iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(10),
            })
            .collect(),
    );
    chain.seal_block().expect("coinbase seals");

    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![TokenOutput {
            owner: keys[1].public,
            amount: Amount(10),
        }],
        memo: b"codec fuzz".to_vec(),
    };
    let ring = [TokenId(0), TokenId(1), TokenId(2)];
    let input = chain
        .sign_ring_input(&tx, &ring, &keys[1], (0.6, 2), &mut rng)
        .expect("signable");
    tx.inputs.push(input);
    chain.submit(tx, &NoConfiguration).expect("valid spend");
    chain.seal_block().expect("spend seals");
    let block = chain.blocks().last().expect("sealed block").clone();
    (group, block)
}

#[test]
fn roundtrip_is_identity() {
    let (group, block) = realistic_block();
    let bytes = block_to_bytes(&block);
    let decoded = decode_block(&group, &bytes).expect("clean bytes decode");
    assert_eq!(decoded, block);
    assert_eq!(decoded.hash(), block.hash());
}

#[test]
fn single_byte_flip_is_never_silently_accepted() {
    let (group, block) = realistic_block();
    let clean = block_to_bytes(&block);
    let original_hash = block.hash();
    let mut rejected = 0u32;
    let mut hash_mismatch = 0u32;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC0DE_C000 + seed);
        let mut bytes = clean.clone();
        let idx = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0..8u8);
        bytes[idx] ^= 1 << bit;
        match decode_block(&group, &bytes) {
            Err(_) => rejected += 1,
            Ok(decoded) => {
                let hash_detects = decoded.hash() != original_hash;
                let content_detects =
                    Block::content_hash(&decoded.transactions) != decoded.header.content_hash;
                assert!(
                    hash_detects || content_detects,
                    "seed {seed}: flipping bit {bit} of byte {idx} survived decode, \
                     block hash, AND content hash — silent acceptance"
                );
                hash_mismatch += 1;
            }
        }
    }
    // Both detection paths must actually fire across the sweep, otherwise
    // the property above is vacuous for one of them.
    assert!(rejected > 0, "no mutation was rejected by the decoder");
    assert!(
        hash_mismatch > 0,
        "no mutation reached the hash checks — the decoder is suspiciously strict"
    );
}

#[test]
fn truncation_always_fails_decode() {
    let (group, block) = realistic_block();
    let clean = block_to_bytes(&block);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x7A11 + seed);
        let cut = rng.gen_range(0..clean.len());
        assert!(
            decode_block(&group, &clean[..cut]).is_err(),
            "seed {seed}: truncated encoding at {cut}/{} still decoded",
            clean.len()
        );
    }
}
