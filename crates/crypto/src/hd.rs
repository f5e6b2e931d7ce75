//! Deterministic key derivation: an HD-style chain of key pairs from one
//! seed, so a wallet can be restored from a single secret (the pattern
//! every production wallet uses; one-time keys per output are exactly what
//! the ring-signature model assumes).
//!
//! Derivation: `x_i = H("hd-derive" ‖ seed ‖ chain ‖ i)` reduced into the
//! scalar field. Not hardened-path BIP-32 — a faithful functional
//! equivalent at simulation scale.

use crate::group::SchnorrGroup;
use crate::keys::KeyPair;
use crate::sha256::{digest_to_u64, sha256_parts};

/// A deterministic key chain.
#[derive(Debug, Clone)]
pub struct KeyChain {
    seed: [u8; 32],
    chain: u32,
    group: SchnorrGroup,
}

impl KeyChain {
    /// Build a chain from a 32-byte seed and a chain index (e.g. 0 for
    /// spend keys, 1 for change keys).
    pub fn new(group: SchnorrGroup, seed: [u8; 32], chain: u32) -> Self {
        KeyChain { seed, chain, group }
    }

    /// Derive a chain from a passphrase (stretched by repeated hashing).
    pub fn from_passphrase(group: SchnorrGroup, passphrase: &str, chain: u32) -> Self {
        let mut seed = sha256_parts(&[b"hd-seed", passphrase.as_bytes()]);
        for _ in 0..1024 {
            seed = sha256_parts(&[b"hd-stretch", &seed]);
        }
        KeyChain { seed, chain, group }
    }

    /// The i-th key pair of the chain.
    pub fn derive(&self, index: u64) -> KeyPair {
        let digest = sha256_parts(&[
            b"hd-derive",
            &self.seed,
            &self.chain.to_le_bytes(),
            &index.to_le_bytes(),
        ]);
        // `from_secret` reduces into the scalar field and lifts a zero
        // draw (probability ~2^-61).
        KeyPair::from_secret(&self.group, digest_to_u64(&digest))
    }

    /// Derive the first `n` key pairs.
    pub fn derive_range(&self, n: u64) -> Vec<KeyPair> {
        (0..n).map(|i| self.derive(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> SchnorrGroup {
        SchnorrGroup::default()
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = KeyChain::new(group(), [7u8; 32], 0);
        let b = KeyChain::new(group(), [7u8; 32], 0);
        for i in 0..10 {
            assert_eq!(a.derive(i).public, b.derive(i).public);
        }
    }

    #[test]
    fn different_indices_different_keys() {
        let c = KeyChain::new(group(), [1u8; 32], 0);
        let keys = c.derive_range(50);
        let set: std::collections::HashSet<u64> =
            keys.iter().map(|k| k.public.value()).collect();
        assert_eq!(set.len(), 50, "collision in derived keys");
    }

    #[test]
    fn different_chains_different_keys() {
        let spend = KeyChain::new(group(), [2u8; 32], 0);
        let change = KeyChain::new(group(), [2u8; 32], 1);
        assert_ne!(spend.derive(0).public, change.derive(0).public);
    }

    #[test]
    fn passphrase_restores_wallet() {
        let a = KeyChain::from_passphrase(group(), "correct horse battery", 0);
        let b = KeyChain::from_passphrase(group(), "correct horse battery", 0);
        let c = KeyChain::from_passphrase(group(), "correct horse battery!", 0);
        assert_eq!(a.derive(3).public, b.derive(3).public);
        assert_ne!(a.derive(3).public, c.derive(3).public);
    }

    #[test]
    fn derived_keys_sign_and_verify() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = group();
        let chain = KeyChain::new(g, [9u8; 32], 0);
        let keys = chain.derive_range(3);
        let ring: Vec<_> = keys.iter().map(|k| k.public).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = crate::sign(&g, b"hd spend", &ring, &keys[1], &mut rng).unwrap();
        assert!(crate::verify(&g, b"hd spend", &ring, &sig));
    }
}
