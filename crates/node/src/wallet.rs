//! A wallet: the client-side actor of the whole pipeline.
//!
//! Owns key pairs, tracks which ledger tokens it can spend, and drives
//! the full Step-1→2 flow: derive the batch's algorithmic view, run a
//! DA-MS selection under its privacy policy, validate the candidate ring
//! (Definition 5), sign, and submit — exactly what §4 describes a user
//! doing offline before broadcasting.

use std::collections::HashMap;

use rand::Rng;

use dams_blockchain::{
    Chain, ChainError, RingConfiguration, RingInput, TokenOutput, Transaction, VerifyError,
};
use dams_core::{ModularInstance, PracticalAlgorithm, SelectionPolicy, TokenMagic};
use dams_crypto::{KeyPair, PublicKey};
use dams_diversity::{DiversityRequirement, NeighborTracker, RingSet};

use crate::auditor::chain_view;
use crate::validate::{validate_ring, Verdict};

/// Errors a wallet can surface.
#[derive(Debug)]
pub enum WalletError {
    /// The wallet holds no key for the requested token.
    NotOurs(dams_blockchain::TokenId),
    /// The batch cannot produce an eligible ring (relax the requirement).
    Selection(dams_core::SelectError),
    /// The wallet's own Definition-5 validation rejected the ring.
    Validation(Verdict),
    /// The chain rejected the signed transaction.
    Chain(VerifyError),
    /// Sealing the block (or another chain state operation) failed.
    ChainState(ChainError),
    /// Signing over the selected ring failed.
    Signing(dams_crypto::SignError),
    /// The committed history is not laminar — the chain contains rings
    /// that violate the first practical configuration.
    BrokenHistory,
}

impl std::fmt::Display for WalletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalletError::NotOurs(t) => write!(f, "token {} is not controlled by this wallet", t.0),
            WalletError::Selection(e) => write!(f, "mixin selection failed: {e}"),
            WalletError::Validation(v) => write!(f, "self-validation rejected the ring: {v:?}"),
            WalletError::Chain(e) => write!(f, "chain rejected the transaction: {e}"),
            WalletError::ChainState(e) => write!(f, "chain state operation failed: {e}"),
            WalletError::Signing(e) => write!(f, "ring signing failed: {e}"),
            WalletError::BrokenHistory => {
                write!(f, "committed rings violate the practical configuration")
            }
        }
    }
}

impl std::error::Error for WalletError {}

/// The wallet.
pub struct Wallet {
    /// Owned key pairs, by public key value.
    keys: HashMap<u64, KeyPair>,
    /// The privacy policy applied to every spend.
    pub policy: SelectionPolicy,
    /// Which practical algorithm drives selection.
    pub algorithm: PracticalAlgorithm,
}

impl Wallet {
    pub fn new(policy: SelectionPolicy, algorithm: PracticalAlgorithm) -> Self {
        Wallet {
            keys: HashMap::new(),
            policy,
            algorithm,
        }
    }

    /// Generate and register a fresh key; returns its public half.
    pub fn new_address<R: Rng + ?Sized>(
        &mut self,
        chain: &Chain,
        rng: &mut R,
    ) -> PublicKey {
        let kp = KeyPair::generate(chain.group(), rng);
        self.keys.insert(kp.public.value(), kp);
        kp.public
    }

    /// Import an existing key pair.
    pub fn import(&mut self, kp: KeyPair) {
        self.keys.insert(kp.public.value(), kp);
    }

    /// Restore a wallet's first `n` keys from a deterministic key chain
    /// (HD-style recovery from a seed — see `dams_crypto::KeyChain`).
    pub fn restore_from_chain(&mut self, chain: &dams_crypto::KeyChain, n: u64) {
        for kp in chain.derive_range(n) {
            self.import(kp);
        }
    }

    /// Scan the chain for tokens this wallet controls and whose key image
    /// has not been consumed.
    pub fn spendable(&self, chain: &Chain) -> Vec<dams_blockchain::TokenId> {
        (0..chain.token_count() as u64)
            .map(dams_blockchain::TokenId)
            .filter(|t| {
                chain.token(*t).is_some_and(|rec| {
                    self.keys.get(&rec.owner.value()).is_some_and(|kp| {
                        !chain.image_consumed(kp.key_image(chain.group()))
                    })
                })
            })
            .collect()
    }

    /// Spend `token` to `receiver`: select mixins, self-validate, sign,
    /// submit under `config`, and seal a block.
    pub fn spend<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        token: dams_blockchain::TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let rec = chain
            .token(token)
            .ok_or(WalletError::NotOurs(token))?
            .clone();
        let signer = *self
            .keys
            .get(&rec.owner.value())
            .ok_or(WalletError::NotOurs(token))?;

        // Step 1: derive the view, decompose, select.
        let view = chain_view(chain);
        let instance = dams_core::Instance::new(
            view.universe.clone(),
            view.rings.clone(),
            view.claims
                .iter()
                .map(|&(c, l)| DiversityRequirement::new(c.max(f64::MIN_POSITIVE), l.max(1)))
                .collect(),
        );
        let modular =
            ModularInstance::decompose(&instance).map_err(|_| WalletError::BrokenHistory)?;
        let tm = TokenMagic::new(self.algorithm, self.policy);
        let tracker = NeighborTracker::new();
        let alg_token = dams_diversity::TokenId(token.0 as u32);
        let selection = tm
            .generate(&modular, alg_token, &tracker, rng)
            .map_err(WalletError::Selection)?;
        let ring = selection.ring;

        // Definition-5 self-validation before broadcasting.
        let verdict = validate_ring(
            &ring,
            self.policy.requirement,
            &view.rings,
            &instance.claims,
            &view.universe,
        );
        if verdict != Verdict::Eligible {
            return Err(WalletError::Validation(verdict));
        }

        // Step 2: sign over the declared ring, sorted by ledger id.
        let outputs = vec![TokenOutput {
            owner: receiver,
            amount: rec.amount,
        }];
        let shell = Transaction {
            inputs: vec![],
            outputs: outputs.clone(),
            memo: vec![],
        };
        let payload = shell.signing_payload();
        let ring_ids: Vec<dams_blockchain::TokenId> = ring
            .tokens()
            .iter()
            .map(|t| dams_blockchain::TokenId(t.0 as u64))
            .collect();
        let ring_keys: Vec<PublicKey> = ring_ids
            .iter()
            .map(|t| chain.token(*t).map(|rec| rec.owner).ok_or(WalletError::NotOurs(*t)))
            .collect::<Result<_, _>>()?;
        let sig = dams_crypto::sign(chain.group(), &payload, &ring_keys, &signer, rng)
            .map_err(WalletError::Signing)?;
        let tx = Transaction {
            inputs: vec![RingInput {
                ring: ring_ids,
                signature: sig,
                claimed_c: self.policy.requirement.c,
                claimed_l: self.policy.requirement.l,
            }],
            outputs,
            memo: vec![],
        };
        chain.submit(tx, config).map_err(WalletError::Chain)?;
        chain.seal_block().map_err(WalletError::ChainState)?;
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, NoConfiguration};
    use dams_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mint 16 tokens (4 per coinbase) to a wallet.
    fn setup() -> (Chain, Wallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chain = Chain::new(SchnorrGroup::default());
        let mut wallet = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 3)),
            PracticalAlgorithm::Progressive,
        );
        for _ in 0..4 {
            let outs: Vec<TokenOutput> = (0..4)
                .map(|_| TokenOutput {
                    owner: wallet.new_address(&chain, &mut rng),
                    amount: Amount(5),
                })
                .collect();
            chain.submit_coinbase(outs);
            chain.seal_block().unwrap();
        }
        (chain, wallet, rng)
    }

    #[test]
    fn hd_restore_recovers_spendable_tokens() {
        // Mint tokens to HD-derived keys, then restore a fresh wallet from
        // the same passphrase and confirm it sees them all.
        let mut rng = StdRng::seed_from_u64(8);
        let mut chain_ledger = Chain::new(SchnorrGroup::default());
        let kc = dams_crypto::KeyChain::from_passphrase(
            *chain_ledger.group(),
            "open sesame",
            0,
        );
        let keys = kc.derive_range(6);
        chain_ledger.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(1),
                })
                .collect(),
        );
        chain_ledger.seal_block().unwrap();
        let _ = &mut rng;

        let mut restored = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 1)),
            PracticalAlgorithm::Smallest,
        );
        restored.restore_from_chain(
            &dams_crypto::KeyChain::from_passphrase(
                *chain_ledger.group(),
                "open sesame",
                0,
            ),
            6,
        );
        assert_eq!(restored.spendable(&chain_ledger).len(), 6);
        // wrong passphrase restores nothing
        let mut wrong = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 1)),
            PracticalAlgorithm::Smallest,
        );
        wrong.restore_from_chain(
            &dams_crypto::KeyChain::from_passphrase(
                *chain_ledger.group(),
                "open sesame?",
                0,
            ),
            6,
        );
        assert!(wrong.spendable(&chain_ledger).is_empty());
    }

    #[test]
    fn scan_finds_owned_tokens() {
        let (chain, wallet, _rng) = setup();
        assert_eq!(wallet.spendable(&chain).len(), 16);
    }

    #[test]
    fn spend_end_to_end() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let ring = wallet
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
            .unwrap();
        assert!(ring.contains(dams_diversity::TokenId(0)));
        assert!(chain.audit());
        // The spent token no longer appears spendable.
        assert!(!wallet
            .spendable(&chain)
            .contains(&dams_blockchain::TokenId(0)));
    }

    #[test]
    fn double_spend_blocked_by_wallet_or_chain() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        wallet
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
            .unwrap();
        let err = wallet
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
            .unwrap_err();
        // Either the selection layer (token now in a committed ring whose
        // reuse would violate validation) or the chain's image registry
        // stops it; both are correct.
        match err {
            WalletError::Chain(VerifyError::ImageReused(_))
            | WalletError::Validation(_)
            | WalletError::Selection(_) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn foreign_token_rejected() {
        let (mut chain, wallet, mut rng) = setup();
        // Mint one token to an outsider.
        let outsider = KeyPair::generate(chain.group(), &mut rng);
        chain.submit_coinbase(vec![TokenOutput {
            owner: outsider.public,
            amount: Amount(1),
        }]);
        chain.seal_block().unwrap();
        let foreign = dams_blockchain::TokenId(16);
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let err = wallet
            .spend(&mut chain, foreign, receiver, &NoConfiguration, &mut rng)
            .unwrap_err();
        assert!(matches!(err, WalletError::NotOurs(_)), "{err:?}");
    }

    #[test]
    fn sequential_spends_stay_private() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        for t in [0u64, 5, 10] {
            wallet
                .spend(
                    &mut chain,
                    dams_blockchain::TokenId(t),
                    receiver,
                    &NoConfiguration,
                    &mut rng,
                )
                .unwrap();
        }
        let report = crate::auditor::audit(&chain);
        assert_eq!(report.analysis.resolved_count(), 0, "spends linkable");
        assert!(report.claim_violations.is_empty());
    }
}
