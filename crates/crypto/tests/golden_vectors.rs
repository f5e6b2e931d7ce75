//! Golden-vector tests: known-answer checks pinning the crypto substrate
//! to fixed expected outputs.
//!
//! Two families:
//!
//! * **External vectors** — the NIST FIPS 180-2 SHA-256 short-message
//!   suite. These digests are published constants; a failure means the
//!   hash itself is wrong.
//! * **Regression digest** — a fixed-seed bLSAG signature hashed into
//!   one digest. This pins the *current* behaviour: any change to
//!   challenge derivation, transcript framing or group parameters flips
//!   the digest and must be an intentional, reviewed change (it would
//!   invalidate every signature already on a chain).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_crypto::blsag::linked;
use dams_crypto::sha256::{sha256, Digest, Sha256};
use dams_crypto::{sign, verify, KeyPair, SchnorrGroup};

fn hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

// --- NIST FIPS 180-2 SHA-256 vectors -----------------------------------

#[test]
fn nist_empty_message() {
    assert_eq!(
        hex(&sha256(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn nist_abc() {
    assert_eq!(
        hex(&sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn nist_448_bit_two_block_message() {
    assert_eq!(
        hex(&sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn nist_one_million_a_streamed() {
    // Streamed through `update` in uneven chunks, so the buffering and
    // length bookkeeping are exercised too — not just one-shot hashing.
    let mut hasher = Sha256::new();
    let chunk = [b'a'; 997];
    let mut remaining = 1_000_000usize;
    while remaining > 0 {
        let n = remaining.min(chunk.len());
        hasher.update(&chunk[..n]);
        remaining -= n;
    }
    assert_eq!(
        hex(&hasher.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// --- fixed-seed regression digests -------------------------------------

/// Hash a list of u64s (LE) into one digest.
fn digest_u64s(values: &[u64]) -> Digest {
    let mut hasher = Sha256::new();
    for v in values {
        hasher.update(&v.to_le_bytes());
    }
    hasher.finalize()
}

#[test]
fn blsag_sign_verify_link_regression() {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<KeyPair> = (0..4)
        .map(|_| KeyPair::generate(&group, &mut rng))
        .collect();
    let mut ring: Vec<_> = pairs.iter().map(|p| p.public).collect();
    ring.sort();
    let signer = &pairs[2];

    let sig = sign(&group, b"golden-vector message", &ring, signer, &mut rng).unwrap();
    assert!(verify(&group, b"golden-vector message", &ring, &sig));
    assert!(!verify(&group, b"a different message", &ring, &sig));

    // Two spends by the same key link through the key image; a different
    // signer does not.
    let sig2 = sign(&group, b"second spend", &ring, signer, &mut rng).unwrap();
    let other = sign(&group, b"second spend", &ring, &pairs[0], &mut rng).unwrap();
    assert!(linked(&sig, &sig2));
    assert!(!linked(&sig, &other));

    // Pin the exact signature bytes produced by this seed.
    let mut transcript = vec![sig.c0.value(), sig.key_image.value()];
    transcript.extend(sig.responses.iter().map(|s| s.value()));
    assert_eq!(
        hex(&digest_u64s(&transcript)),
        "1414457e3a14daa3b3cbb9a2e3a9d2cee5923bb816f4378d90fdb105f7fdf0db",
        "bLSAG signature bytes changed for a fixed seed"
    );
}
