//! Key pairs and key images for the linkable ring-signature scheme.

use rand::Rng;

use crate::group::{Element, Scalar, SchnorrGroup};

/// A secret key: a scalar `x` in `Z_q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub(crate) Scalar);

/// A public key: `P = g^x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub(crate) Element);

/// A key image `I = H_p(P)^x`.
///
/// Per §2.1 of the paper: "For a token, its image is unique. When an image I
/// was used, we know the corresponding token was used and cannot be used
/// again" — the image is the double-spend tag. It is deterministic in the
/// key pair, so spending the same token twice produces the same image, yet
/// the image does not reveal which ring member produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyImage(pub(crate) Element);

/// A full key pair.
#[derive(Debug, Clone, Copy)]
pub struct KeyPair {
    pub secret: SecretKey,
    pub public: PublicKey,
}

impl PublicKey {
    /// Raw residue value (for hashing / ordering).
    pub fn value(self) -> u64 {
        self.0.value()
    }

    /// Rebuild a public key from a raw residue, validating subgroup
    /// membership (wire decoding). `None` for non-members.
    pub fn from_value(group: &SchnorrGroup, raw: u64) -> Option<Self> {
        let e = crate::group::Element(raw);
        group.contains(e).then_some(PublicKey(e))
    }

    /// The inner group element.
    pub fn element(self) -> Element {
        self.0
    }
}

impl KeyImage {
    /// Raw residue value (for the consumed-image registry).
    pub fn value(self) -> u64 {
        self.0.value()
    }

    /// Rebuild a key image from a raw residue, validating subgroup
    /// membership (wire decoding). `None` for non-members.
    pub fn from_value(group: &SchnorrGroup, raw: u64) -> Option<Self> {
        let e = crate::group::Element(raw);
        group.contains(e).then_some(KeyImage(e))
    }
}

impl KeyPair {
    /// Sample a fresh key pair with the given RNG.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        Self::from_secret(group, rng.gen_range(1..group.order()))
    }

    /// Deterministic key pair from a raw secret (used by tests and the
    /// deterministic workload generators). The secret is reduced mod q
    /// first, and a zero scalar is lifted to 1, so no raw secret yields
    /// the identity as public key or key image.
    pub fn from_secret(group: &SchnorrGroup, x: u64) -> Self {
        let x = group.scalar((x % group.order()).max(1));
        let public = PublicKey(group.base_pow(x));
        KeyPair {
            secret: SecretKey(x),
            public,
        }
    }

    /// Compute this key's key image `I = H_p(P)^x`.
    pub fn key_image(&self, group: &SchnorrGroup) -> KeyImage {
        let hp = hash_point(group, self.public);
        KeyImage(group.pow(hp, self.secret.0))
    }
}

/// `H_p(P)` — the base point bound to a public key, used for linkability.
pub(crate) fn hash_point(group: &SchnorrGroup, pk: PublicKey) -> Element {
    group.hash_to_element(&[b"key-image-base", &pk.value().to_le_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn public_key_matches_secret() {
        let grp = SchnorrGroup::default();
        let kp = KeyPair::from_secret(&grp, 42);
        assert_eq!(kp.public.element(), grp.base_pow(grp.scalar(42)));
    }

    #[test]
    fn key_image_is_deterministic() {
        let grp = SchnorrGroup::default();
        let kp = KeyPair::from_secret(&grp, 9001);
        assert_eq!(kp.key_image(&grp), kp.key_image(&grp));
    }

    #[test]
    fn distinct_keys_distinct_images() {
        let grp = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut images = std::collections::HashSet::new();
        for _ in 0..100 {
            let kp = KeyPair::generate(&grp, &mut rng);
            assert!(images.insert(kp.key_image(&grp)), "key image collision");
        }
    }

    #[test]
    fn zero_secret_is_lifted() {
        let grp = SchnorrGroup::default();
        let kp = KeyPair::from_secret(&grp, 0);
        assert_ne!(kp.public.value(), 1, "identity public key forbidden");
    }

    #[test]
    fn nonzero_multiples_of_q_are_lifted_like_zero() {
        let grp = SchnorrGroup::default();
        let q = grp.order();
        let one = KeyPair::from_secret(&grp, 1);
        for x in [q, 2 * q, u64::MAX - u64::MAX % q] {
            let kp = KeyPair::from_secret(&grp, x);
            assert_eq!(kp.secret, one.secret, "secret, x = {x}");
            assert_eq!(kp.public, one.public, "public key, x = {x}");
            assert_eq!(
                kp.key_image(&grp),
                one.key_image(&grp),
                "key image, x = {x}"
            );
        }
    }

    #[test]
    fn key_image_in_subgroup() {
        let grp = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let kp = KeyPair::generate(&grp, &mut rng);
            assert!(grp.contains(kp.key_image(&grp).0));
        }
    }
}
