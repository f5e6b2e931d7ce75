//! # dams-crypto
//!
//! Cryptographic substrate for the DA-MS (diversity-aware mixin selection)
//! reproduction: a from-scratch SHA-256, deterministic Miller–Rabin
//! primality testing, a safe-prime Schnorr group, key pairs with key images,
//! and a bLSAG-style **linkable ring signature** implementing Steps 2 and 3
//! of the ring-signature scheme described in §2.1 of the paper.
//!
//! The paper's contribution changes only *Step 1* (mixin selection); this
//! crate exists so the rest of the pipeline — sign, verify, reject reused
//! key images — runs end-to-end. The 62-bit group is a documented
//! simulation-scale substitution (see DESIGN.md) and must not be used for
//! real-world security.

pub mod blsag;
pub mod group;
pub mod hd;
pub mod keys;
pub mod prime;
pub mod sha256;

pub use blsag::{sign, verify, RingSignature, SignError};
pub use group::SchnorrGroup;
pub use hd::KeyChain;
pub use keys::{KeyImage, KeyPair, PublicKey};
