//! A bLSAG-style linkable ring signature over the Schnorr group.
//!
//! This implements Steps 2 and 3 of the ring-signature scheme as sketched
//! in §2.1 of the paper: `Gen` produces a signature over a ring of public
//! keys together with a key image `I`, and `Ver` checks the signature and
//! rejects reused images (double spends). The construction is the classic
//! back-linked ring of Schnorr proofs (LSAG/bLSAG), written multiplicatively:
//!
//! for each ring slot `i`:  `L_i = g^{s_i} * P_i^{c_i}`,
//!                          `R_i = H_p(P_i)^{s_i} * I^{c_i}`,
//!                          `c_{i+1} = H(m, P_0, …, P_{n-1}, L_i, R_i)`,
//!
//! and the signer closes the ring at their own slot using their secret
//! key. Verification recomputes the challenges around the ring and checks
//! the cycle closes.
//!
//! The challenge hash is exactly `sha256_parts(&[m, P_0, …, P_{n-1}, L_i,
//! R_i])` with every key and element as 8 little-endian bytes — each part
//! preceded by its length as a little-endian `u64` — and `c_{i+1}` is the
//! digest's first 8 bytes, read little-endian and reduced mod `q`. `sign`
//! and `verify` absorb the `(m, ring)` prefix into one SHA-256 state once
//! per signature and clone it for each slot, so a pass hashes the ring
//! once instead of once per member. `R_i` is one double exponentiation
//! (`SchnorrGroup::pow2`), sharing a single squaring chain between `s_i`
//! and `c_i`.
//!
//! **Security caveat:** the group is 62 bits — fine for a faithful
//! functional simulation (which is all the paper's evaluation requires of
//! Steps 2–3), useless against a real adversary. See DESIGN.md.

use rand::Rng;

use crate::group::{Element, Scalar, SchnorrGroup};
use crate::keys::{hash_point, KeyImage, KeyPair, PublicKey};
use crate::sha256::{digest_to_u64, Sha256};

/// A linkable ring signature: the challenge seed `c_0`, one response per
/// ring member, and the signer's key image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSignature {
    pub c0: Scalar,
    pub responses: Vec<Scalar>,
    pub key_image: KeyImage,
}

/// Errors from signing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignError {
    /// The ring is empty.
    EmptyRing,
    /// The signer's public key does not appear in the ring.
    SignerNotInRing,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::EmptyRing => write!(f, "ring contains no public keys"),
            SignError::SignerNotInRing => write!(f, "signer's public key absent from the ring"),
        }
    }
}

impl std::error::Error for SignError {}

/// Absorb one length-framed part, as [`crate::sha256::sha256_parts`] does.
fn absorb(h: &mut Sha256, part: &[u8]) {
    h.update(&(part.len() as u64).to_le_bytes());
    h.update(part);
}

/// The transcript prefix `(m, ring)`, absorbed once per signature.
fn transcript(message: &[u8], ring: &[PublicKey]) -> Sha256 {
    let mut h = Sha256::new();
    absorb(&mut h, message);
    for p in ring {
        absorb(&mut h, &p.value().to_le_bytes());
    }
    h
}

/// `H(m, ring, L, R)`: finish a copy of the prefix with `L` and `R`.
fn challenge(group: &SchnorrGroup, prefix: &Sha256, l: Element, r: Element) -> Scalar {
    let mut h = prefix.clone();
    absorb(&mut h, &l.value().to_le_bytes());
    absorb(&mut h, &r.value().to_le_bytes());
    group.scalar(digest_to_u64(&h.finalize()))
}

/// One ring slot: the challenge `c_{i+1}` that follows `(P_i, s_i, c_i)`.
fn next_challenge(
    group: &SchnorrGroup,
    prefix: &Sha256,
    member: PublicKey,
    s: Scalar,
    c: Scalar,
    image: KeyImage,
) -> Scalar {
    let l = group.mul(group.base_pow(s), group.pow(member.element(), c));
    let r = group.pow2(hash_point(group, member), s, image.0, c);
    challenge(group, prefix, l, r)
}

/// Produce a ring signature on `message` over `ring` with the given signer.
///
/// The ring order is significant: the paper fixes it as "a sorted sequence
/// of public keys" (§2.1); callers are expected to sort before signing so
/// the secret index is not leaked by position. This function itself accepts
/// any order and locates the signer by public key.
pub fn sign<R: Rng + ?Sized>(
    group: &SchnorrGroup,
    message: &[u8],
    ring: &[PublicKey],
    signer: &KeyPair,
    rng: &mut R,
) -> Result<RingSignature, SignError> {
    let n = ring.len();
    if n == 0 {
        return Err(SignError::EmptyRing);
    }
    let secret_index = ring
        .iter()
        .position(|p| *p == signer.public)
        .ok_or(SignError::SignerNotInRing)?;

    let image = signer.key_image(group);
    let prefix = transcript(message, ring);
    let mut responses: Vec<Scalar> = (0..n)
        .map(|_| group.scalar(rng.gen_range(1..group.order())))
        .collect();
    let mut challenges: Vec<Scalar> = vec![group.scalar(0); n];

    // Seed the ring at the slot after the signer with a random commitment.
    let alpha = group.scalar(rng.gen_range(1..group.order()));
    let l0 = group.base_pow(alpha);
    let r0 = group.pow(hash_point(group, signer.public), alpha);
    challenges[(secret_index + 1) % n] = challenge(group, &prefix, l0, r0);

    // Walk the ring from the seeded slot back to the signer.
    let mut i = (secret_index + 1) % n;
    while i != secret_index {
        let next = (i + 1) % n;
        challenges[next] =
            next_challenge(group, &prefix, ring[i], responses[i], challenges[i], image);
        i = next;
    }

    // Close the ring: s = alpha - c * x  (mod q).
    responses[secret_index] = group.scalar_sub(
        alpha,
        group.scalar_mul(challenges[secret_index], signer.secret.0),
    );

    Ok(RingSignature {
        c0: challenges[0],
        responses,
        key_image: image,
    })
}

/// Verify a ring signature on `message` over `ring`.
pub fn verify(
    group: &SchnorrGroup,
    message: &[u8],
    ring: &[PublicKey],
    sig: &RingSignature,
) -> bool {
    let n = ring.len();
    if n == 0 || sig.responses.len() != n || !group.contains(sig.key_image.0) {
        return false;
    }
    let prefix = transcript(message, ring);
    let mut c = sig.c0;
    for (member, s) in ring.iter().zip(&sig.responses) {
        c = next_challenge(group, &prefix, *member, *s, c, sig.key_image);
    }
    c == sig.c0
}

/// Whether two signatures were produced by the same key pair (double spend).
pub fn linked(a: &RingSignature, b: &RingSignature) -> bool {
    a.key_image == b.key_image
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (SchnorrGroup, Vec<KeyPair>, Vec<PublicKey>) {
        let grp = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&grp, &mut rng)).collect();
        let ring: Vec<PublicKey> = keys.iter().map(|k| k.public).collect();
        (grp, keys, ring)
    }

    #[test]
    fn challenge_matches_sha256_parts_of_the_whole_transcript() {
        use crate::sha256::sha256_parts;
        let (grp, _, ring) = setup(5, 30);
        let (l, r) = (grp.base_pow(grp.scalar(7)), grp.base_pow(grp.scalar(11)));
        let keys: Vec<[u8; 8]> = ring.iter().map(|p| p.value().to_le_bytes()).collect();
        let (lb, rb) = (l.value().to_le_bytes(), r.value().to_le_bytes());
        // Message lengths that leave the prefix at different offsets of a
        // 64-byte block.
        for len in [0usize, 1, 7, 23, 55, 64, 200] {
            let message = vec![0xAB; len];
            let mut parts: Vec<&[u8]> = vec![&message];
            parts.extend(keys.iter().map(|k| k.as_slice()));
            parts.extend([lb.as_slice(), rb.as_slice()]);
            let expect = grp.scalar(digest_to_u64(&sha256_parts(&parts)));
            let prefix = transcript(&message, &ring);
            assert_eq!(challenge(&grp, &prefix, l, r), expect, "len={len}");
        }
    }

    #[test]
    fn sign_verify_roundtrip_every_position() {
        let (grp, keys, ring) = setup(5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for signer in &keys {
            let sig = sign(&grp, b"tx payload", &ring, signer, &mut rng).unwrap();
            assert!(verify(&grp, b"tx payload", &ring, &sig));
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let (grp, keys, ring) = setup(4, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let sig = sign(&grp, b"pay alice", &ring, &keys[2], &mut rng).unwrap();
        assert!(!verify(&grp, b"pay mallory", &ring, &sig));
    }

    #[test]
    fn wrong_ring_rejected() {
        let (grp, keys, ring) = setup(4, 5);
        let (_, _, other_ring) = setup(4, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let sig = sign(&grp, b"m", &ring, &keys[0], &mut rng).unwrap();
        assert!(!verify(&grp, b"m", &other_ring, &sig));
    }

    #[test]
    fn tampered_response_rejected() {
        let (grp, keys, ring) = setup(3, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut sig = sign(&grp, b"m", &ring, &keys[1], &mut rng).unwrap();
        sig.responses[0] = grp.scalar(sig.responses[0].value() ^ 1);
        assert!(!verify(&grp, b"m", &ring, &sig));
    }

    #[test]
    fn ring_of_one_works() {
        let (grp, keys, ring) = setup(1, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let sig = sign(&grp, b"solo", &ring, &keys[0], &mut rng).unwrap();
        assert!(verify(&grp, b"solo", &ring, &sig));
    }

    #[test]
    fn same_signer_links_different_rings() {
        let (grp, keys, ring) = setup(4, 12);
        let (_, _, mut other_ring) = setup(3, 13);
        other_ring.push(keys[0].public);
        let mut rng = StdRng::seed_from_u64(14);
        let s1 = sign(&grp, b"m1", &ring, &keys[0], &mut rng).unwrap();
        let s2 = sign(&grp, b"m2", &other_ring, &keys[0], &mut rng).unwrap();
        assert!(linked(&s1, &s2), "double spend must link");
    }

    #[test]
    fn different_signers_unlinked() {
        let (grp, keys, ring) = setup(4, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let s1 = sign(&grp, b"m", &ring, &keys[0], &mut rng).unwrap();
        let s2 = sign(&grp, b"m", &ring, &keys[1], &mut rng).unwrap();
        assert!(!linked(&s1, &s2));
    }

    #[test]
    fn signer_not_in_ring_is_error() {
        let (grp, _, ring) = setup(3, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let outsider = KeyPair::generate(&grp, &mut rng);
        assert_eq!(
            sign(&grp, b"m", &ring, &outsider, &mut rng).unwrap_err(),
            SignError::SignerNotInRing
        );
    }

    #[test]
    fn empty_ring_is_error() {
        let grp = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(19);
        let kp = KeyPair::generate(&grp, &mut rng);
        assert_eq!(
            sign(&grp, b"m", &[], &kp, &mut rng).unwrap_err(),
            SignError::EmptyRing
        );
        assert!(!verify(
            &grp,
            b"m",
            &[],
            &RingSignature {
                c0: grp.scalar(0),
                responses: vec![],
                key_image: kp.key_image(&grp),
            }
        ));
    }

    #[test]
    fn response_count_mismatch_rejected() {
        let (grp, keys, ring) = setup(3, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let mut sig = sign(&grp, b"m", &ring, &keys[0], &mut rng).unwrap();
        sig.responses.pop();
        assert!(!verify(&grp, b"m", &ring, &sig));
    }

    #[test]
    fn signature_does_not_reveal_signer_index() {
        // Structural check: signatures by different ring members have the
        // same shape and verify identically; nothing in the public struct
        // encodes the index.
        let (grp, keys, ring) = setup(6, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let sigs: Vec<_> = keys
            .iter()
            .map(|k| sign(&grp, b"m", &ring, k, &mut rng).unwrap())
            .collect();
        for s in &sigs {
            assert_eq!(s.responses.len(), 6);
            assert!(verify(&grp, b"m", &ring, s));
        }
    }
}
