//! A Schnorr group over a 62-bit safe prime.
//!
//! The group is the subgroup of quadratic residues of `Z_p^*` with
//! `p = 2q + 1` a safe prime, so the subgroup has prime order `q`. Every
//! exponent lives in `Z_q`. This mirrors the algebra of an elliptic-curve
//! group (as used by Monero's ring signatures) at simulation scale: the
//! ring-signature equations are identical, only the group is small.
//! DESIGN.md records this substitution; the group offers **no real-world
//! security** and exists so that Steps 2–3 of the RS scheme (§2.1 of the
//! paper) run end-to-end.

use std::sync::OnceLock;

use crate::prime::{is_safe_prime, mul_mod, next_safe_prime, FixedBaseWindow, Montgomery};
use crate::sha256::{absorb, digest_to_u64, Sha256};

/// A group element (a quadratic residue modulo `p`), kept opaque so that
/// only group operations can produce one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element(pub(crate) u64);

/// An exponent in `Z_q` (the scalar field of the group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(pub(crate) u64);

impl Element {
    /// Raw residue value (for serialization into hashes).
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Scalar {
    /// Raw scalar value (for serialization into hashes).
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The Schnorr group `(p, q, g)` with `p = 2q + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchnorrGroup {
    p: u64,
    q: u64,
    g: Element,
    /// Montgomery context for `p`, shared by every exponentiation.
    mont: Montgomery,
}

impl Default for SchnorrGroup {
    /// The default group: the smallest safe prime at or above `2^61`.
    ///
    /// Derived by deterministic search (cached after first use) so every
    /// node in a simulated network independently agrees on the same group
    /// without a hardcoded constant.
    fn default() -> Self {
        use std::sync::OnceLock;
        static DEFAULT: OnceLock<SchnorrGroup> = OnceLock::new();
        *DEFAULT.get_or_init(|| SchnorrGroup::from_search(1 << 61))
    }
}

impl SchnorrGroup {
    /// Build a group from a safe prime `p`. Returns `None` when `p` is not a
    /// safe prime.
    pub fn new(p: u64) -> Option<Self> {
        if !is_safe_prime(p) {
            return None;
        }
        let q = p >> 1;
        // 4 = 2^2 is always a quadratic residue and, since q is prime and
        // 4 != 1, it generates the full order-q subgroup.
        let g = Element(4 % p);
        Some(SchnorrGroup {
            p,
            q,
            g,
            mont: Montgomery::new(p),
        })
    }

    /// Build a group from the smallest safe prime at or above `start`.
    pub fn from_search(start: u64) -> Self {
        let p = next_safe_prime(start);
        Self::new(p).expect("next_safe_prime returned a safe prime")
    }

    /// The group modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The subgroup (scalar) order `q = (p - 1) / 2`.
    pub fn order(&self) -> u64 {
        self.q
    }

    /// The fixed generator `g`.
    pub fn generator(&self) -> Element {
        self.g
    }

    /// `g^e`.
    ///
    /// For the [`SchnorrGroup::default`] group this uses a process-wide
    /// fixed-base window for `g` (≤ 16 Montgomery multiplications instead
    /// of ~93 for square-and-multiply); any other group falls back to the
    /// generic [`Self::pow`]. Both paths compute the same value.
    pub fn base_pow(&self, e: Scalar) -> Element {
        static DEFAULT_G: OnceLock<FixedBaseWindow> = OnceLock::new();
        let table = DEFAULT_G.get_or_init(|| {
            let grp = SchnorrGroup::default();
            FixedBaseWindow::new(grp.g.0, grp.p)
        });
        if table.modulus() == self.p {
            Element(table.pow(e.0))
        } else {
            self.pow(self.g, e)
        }
    }

    /// `a^e`.
    pub fn pow(&self, a: Element, e: Scalar) -> Element {
        Element(self.mont.pow(a.0, e.0))
    }

    /// `a^x · b^y`, with one squaring chain shared by both exponents —
    /// equal to `mul(pow(a, x), pow(b, y))` at about 60% of its cost.
    pub(crate) fn pow2(&self, a: Element, x: Scalar, b: Element, y: Scalar) -> Element {
        Element(self.mont.pow2(a.0, x.0, b.0, y.0))
    }

    /// `a * b` in the group.
    pub fn mul(&self, a: Element, b: Element) -> Element {
        Element(mul_mod(a.0, b.0, self.p))
    }

    /// Reduce an arbitrary integer into a scalar.
    pub fn scalar(&self, v: u64) -> Scalar {
        Scalar(v % self.q)
    }

    /// `a + b` in `Z_q`.
    pub fn scalar_add(&self, a: Scalar, b: Scalar) -> Scalar {
        Scalar(((a.0 as u128 + b.0 as u128) % self.q as u128) as u64)
    }

    /// `a - b` in `Z_q`.
    pub fn scalar_sub(&self, a: Scalar, b: Scalar) -> Scalar {
        Scalar((a.0 + self.q - b.0 % self.q) % self.q)
    }

    /// `a * b` in `Z_q`.
    pub fn scalar_mul(&self, a: Scalar, b: Scalar) -> Scalar {
        Scalar(mul_mod(a.0, b.0, self.q))
    }

    /// Hash arbitrary labelled parts to a group element (`H_p`): map the
    /// digest to a nonzero residue and square it into the QR subgroup.
    pub fn hash_to_element(&self, parts: &[&[u8]]) -> Element {
        let mut counter: u64 = 0;
        loop {
            // `sha256_parts` over the counter and then `parts`.
            let mut h = Sha256::new();
            absorb(&mut h, &counter.to_le_bytes());
            for part in parts {
                absorb(&mut h, part);
            }
            let r = digest_to_u64(&h.finalize()) % self.p;
            if r > 1 {
                let e = Element(mul_mod(r, r, self.p));
                // Squaring 2..p-1 can still land on 1 when r = p - 1.
                if e.0 != 1 {
                    return e;
                }
            }
            counter += 1;
        }
    }

    /// Whether `a` is a member of the order-`q` subgroup.
    pub fn contains(&self, a: Element) -> bool {
        a.0 != 0 && a.0 < self.p && self.mont.pow(a.0, self.q) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_group_is_safe() {
        let g = SchnorrGroup::default();
        assert!(is_safe_prime(g.modulus()));
        assert_eq!(g.order(), g.modulus() >> 1);
        assert!(g.contains(g.generator()));
    }

    #[test]
    fn rejects_non_safe_prime() {
        assert!(SchnorrGroup::new(13).is_none()); // prime but not safe
        assert!(SchnorrGroup::new(15).is_none()); // composite
    }

    #[test]
    fn small_group_arithmetic() {
        // p = 23, q = 11, g = 4.
        let g = SchnorrGroup::new(23).unwrap();
        assert_eq!(g.order(), 11);
        // g has order 11: g^11 = 1, g^k != 1 for 1 <= k < 11.
        assert_eq!(g.base_pow(Scalar(11)).0, 1);
        for k in 1..11 {
            assert_ne!(g.base_pow(Scalar(k)).0, 1, "order divides {k}");
        }
    }

    #[test]
    fn exponent_laws() {
        let grp = SchnorrGroup::default();
        let a = grp.scalar(123_456_789);
        let b = grp.scalar(987_654_321);
        // g^a * g^b = g^(a+b)
        assert_eq!(
            grp.mul(grp.base_pow(a), grp.base_pow(b)),
            grp.base_pow(grp.scalar_add(a, b))
        );
        // (g^a)^b = g^(ab)
        assert_eq!(
            grp.pow(grp.base_pow(a), b),
            grp.base_pow(grp.scalar_mul(a, b))
        );
    }

    #[test]
    fn scalar_sub_wraps() {
        let grp = SchnorrGroup::new(23).unwrap();
        let a = grp.scalar(3);
        let b = grp.scalar(7);
        let d = grp.scalar_sub(a, b);
        assert_eq!(grp.scalar_add(d, b), a);
    }

    #[test]
    fn hash_to_element_lands_in_subgroup() {
        let grp = SchnorrGroup::default();
        for i in 0..50u64 {
            let e = grp.hash_to_element(&[b"probe", &i.to_le_bytes()]);
            assert!(grp.contains(e), "i={i}");
        }
    }

    #[test]
    fn base_pow_fast_path_matches_generic_for_all_groups() {
        // Default group takes the table fast path; p = 23 takes the
        // fallback. Both must equal the generic pow.
        let default = SchnorrGroup::default();
        let small = SchnorrGroup::new(23).unwrap();
        for grp in [default, small] {
            for e in [0u64, 1, 5, grp.order() - 1] {
                let e = Scalar(e);
                assert_eq!(grp.base_pow(e), grp.pow(grp.generator(), e));
            }
        }
    }

    #[test]
    fn pow2_matches_product_of_pows() {
        let default = SchnorrGroup::default();
        let small = SchnorrGroup::new(23).unwrap();
        for grp in [default, small] {
            let q = grp.order();
            let scalars = [0, 1, 2, q / 2, q - 1, 0xDEAD_BEEF_CAFE % q];
            for (i, &x) in scalars.iter().enumerate() {
                let a = grp.base_pow(Scalar((x ^ 0x55) % q));
                let b = grp.hash_to_element(&[b"pow2", &x.to_le_bytes()]);
                for &y in &scalars[i..] {
                    let (x, y) = (Scalar(x), Scalar(y));
                    let expect = grp.mul(grp.pow(a, x), grp.pow(b, y));
                    assert_eq!(grp.pow2(a, x, b, y), expect, "p={} x={x:?} y={y:?}", grp.p);
                }
            }
        }
    }

    #[test]
    fn membership_rejects_non_residues() {
        let grp = SchnorrGroup::new(23).unwrap();
        // 5 is a non-residue mod 23 (5^11 mod 23 = 22 != 1).
        assert!(!grp.contains(Element(5)));
        assert!(!grp.contains(Element(0)));
        assert!(!grp.contains(Element(23)));
    }
}
