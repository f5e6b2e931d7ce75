//! Materialise a workload on the real blockchain substrate.
//!
//! The algorithmic layer treats tokens as dense `u32` ids with an HT label.
//! This module mints an equivalent economy on [`dams_blockchain::Chain`]
//! — one coinbase transaction per historical transaction, preserving the
//! token→HT structure — and spends tokens end-to-end: select mixins with a
//! DA-MS algorithm, sign with the linkable ring signature, verify and
//! commit on-chain.

use rand::Rng;

use dams_blockchain::{Amount, Chain, ChainError, NoConfiguration, TokenOutput, Transaction};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::{HtId, RingSet, TokenUniverse};

/// A workload materialised on a chain: the ledger plus per-token key pairs
/// (the "wallets") and the algorithm-id → ledger-id mapping.
pub struct ChainWorkload {
    pub chain: Chain,
    /// Key pair owning algorithm-token `i`.
    keys: Vec<KeyPair>,
    /// `ledger[i]` is the on-chain id of algorithm token `i`.
    ledger: Vec<dams_blockchain::TokenId>,
    universe: TokenUniverse,
}

impl ChainWorkload {
    /// Mint a chain realising `universe`: tokens with the same HT are
    /// minted by the same coinbase transaction (one block per HT), so the
    /// ledger's origin structure mirrors the universe's HT partition.
    pub fn materialize<R: Rng + ?Sized>(universe: TokenUniverse, rng: &mut R) -> Self {
        let group = SchnorrGroup::default();
        let mut chain = Chain::new(group);
        let n = universe.len();
        let keys: Vec<KeyPair> = (0..n)
            .map(|_| KeyPair::generate(chain.group(), rng))
            .collect();

        // Group algorithm ids by HT (BTreeMap → deterministic mint order).
        let mut by_ht: std::collections::BTreeMap<HtId, Vec<u32>> =
            std::collections::BTreeMap::new();
        for t in universe.tokens() {
            by_ht.entry(universe.ht(t)).or_default().push(t.0);
        }

        let mut ledger = vec![dams_blockchain::TokenId(u64::MAX); n];
        for ids in by_ht.values() {
            let outs: Vec<TokenOutput> = ids
                .iter()
                .map(|&i| TokenOutput {
                    owner: keys[i as usize].public,
                    amount: Amount(1),
                })
                .collect();
            let first_ledger_id = chain.token_count() as u64;
            chain.submit_coinbase(outs);
            // A chain built by `Chain::new` always has a genesis block, so
            // sealing a coinbase block cannot fail here.
            let _ = chain.seal_block();
            for (k, &i) in ids.iter().enumerate() {
                ledger[i as usize] = dams_blockchain::TokenId(first_ledger_id + k as u64);
            }
        }
        debug_assert!(ledger.iter().all(|t| t.0 != u64::MAX));

        ChainWorkload {
            chain,
            keys,
            ledger,
            universe,
        }
    }

    /// The algorithm-layer universe this chain realises.
    pub fn universe(&self) -> &TokenUniverse {
        &self.universe
    }

    /// The on-chain id of an algorithm token.
    pub fn ledger_id(&self, token: dams_diversity::TokenId) -> dams_blockchain::TokenId {
        self.ledger[token.0 as usize]
    }

    /// The key pair owning an algorithm token.
    pub fn key_of(&self, token: dams_diversity::TokenId) -> &KeyPair {
        &self.keys[token.0 as usize]
    }

    /// Spend `consumed` with the mixin ring `ring` (which must contain it):
    /// sign, verify, and commit a 1-output transaction on-chain.
    ///
    /// A ring that does not contain `consumed` surfaces as
    /// `ChainError::Verify(BadSignature)` — the signer's key is absent
    /// from the declared ring, so no valid signature exists.
    pub fn spend<R: Rng + ?Sized>(
        &mut self,
        ring: &RingSet,
        consumed: dams_diversity::TokenId,
        claimed_c: f64,
        claimed_l: usize,
        rng: &mut R,
    ) -> Result<(), ChainError> {
        let receiver = KeyPair::generate(self.chain.group(), rng);
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: receiver.public,
                amount: Amount(1),
            }],
            memo: vec![],
        };
        let members: Vec<dams_blockchain::TokenId> =
            ring.tokens().iter().map(|t| self.ledger_id(*t)).collect();
        let input = self.chain.sign_ring_input(
            &tx,
            &members,
            &self.keys[consumed.0 as usize],
            (claimed_c, claimed_l),
            rng,
        )?;
        tx.inputs.push(input);
        self.chain.submit(tx, &NoConfiguration)?;
        self.chain.seal_block()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::VerifyError;
    use dams_diversity::{ring, TokenId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn interleaved_universe() -> TokenUniverse {
        // HT groups deliberately non-contiguous: [0,1,0,2,1,0]
        TokenUniverse::new(vec![HtId(0), HtId(1), HtId(0), HtId(2), HtId(1), HtId(0)])
    }

    #[test]
    fn materialize_preserves_ht_partition() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = ChainWorkload::materialize(interleaved_universe(), &mut rng);
        assert_eq!(w.chain.token_count(), 6);
        let origin = |t: u32| w.chain.token(w.ledger_id(TokenId(t))).unwrap().origin;
        // same algorithm HT ⇒ same ledger origin
        assert_eq!(origin(0), origin(2));
        assert_eq!(origin(0), origin(5));
        assert_eq!(origin(1), origin(4));
        // different HT ⇒ different origin
        assert_ne!(origin(0), origin(1));
        assert_ne!(origin(1), origin(3));
    }

    #[test]
    fn end_to_end_spend() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = ChainWorkload::materialize(interleaved_universe(), &mut rng);
        w.spend(&ring(&[0, 2, 5]), TokenId(2), 0.6, 2, &mut rng)
            .unwrap();
        assert_eq!(w.chain.token_count(), 7);
        assert!(w.chain.audit());
    }

    #[test]
    fn double_spend_caught_on_chain() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = ChainWorkload::materialize(interleaved_universe(), &mut rng);
        w.spend(&ring(&[0, 2]), TokenId(0), 0.6, 2, &mut rng)
            .unwrap();
        let err = w
            .spend(&ring(&[0, 3, 5]), TokenId(0), 0.6, 2, &mut rng)
            .unwrap_err();
        assert!(
            matches!(err, ChainError::Verify(VerifyError::ImageReused(_))),
            "{err:?}"
        );
    }

    #[test]
    fn spending_a_mixin_elsewhere_is_fine() {
        // Token 2 appears as a mixin in the first ring, then is spent for
        // real in a second ring — key images differ, both commit.
        let mut rng = StdRng::seed_from_u64(4);
        let mut w = ChainWorkload::materialize(interleaved_universe(), &mut rng);
        w.spend(&ring(&[0, 2]), TokenId(0), 0.6, 2, &mut rng)
            .unwrap();
        w.spend(&ring(&[2, 3]), TokenId(2), 0.6, 2, &mut rng)
            .unwrap();
        assert!(w.chain.audit());
    }
}
