//! A wallet: the client-side actor of the whole pipeline.
//!
//! Owns key pairs, tracks which ledger tokens it can spend, and spends
//! them on a [`SimNode`] along the system's one spend path. §4 takes a
//! spend's mixins from the spent token's batch only, so the path starts
//! at the node's diversity index:
//!
//! batch snapshot → degrade ladder with a fixed exact-tier grant →
//! Definition-5 self-validation → sign → Step-3 submit → seal, which
//! appends the block to the WAL, checkpoints when due and folds the block
//! into the index.
//!
//! A ring the validator refuses is never signed: the spend fails before
//! the node is touched.

use std::collections::HashMap;

use rand::Rng;

use dams_blockchain::{
    Block, Chain, NoConfiguration, TokenId, TokenOutput, Transaction, VerifyError,
};
use dams_core::{
    grant_budget, validate_ring, CoreMetrics, IndexedSelection, SelectError, SelectionPolicy, Tier,
    Verdict,
};
use dams_crypto::{KeyPair, PublicKey};

use crate::error::NodeError;
use crate::network::SimNode;

/// Exact-tier candidates granted per spend, as a counter-only budget
/// ([`grant_budget`]). On λ-sized batches it lets the exact search answer
/// small instances and hands every other one to the approximation tiers.
const EXACT_GRANT: u64 = 16;

/// Errors a wallet can surface.
#[derive(Debug)]
pub enum WalletError {
    /// The wallet holds no key for the requested token.
    NotOurs(TokenId),
    /// The node has no diversity index, so it cannot serve the token's
    /// batch (see [`SimNode::enable_index`]).
    IndexDisabled,
    /// The batch cannot produce an eligible ring (relax the requirement).
    Selection(SelectError),
    /// The wallet's own Definition-5 validation rejected the ring.
    Validation(Verdict),
    /// Signing failed or the chain rejected the signed transaction.
    Chain(VerifyError),
    /// Sealing the block, or persisting it, failed.
    Node(NodeError),
}

impl std::fmt::Display for WalletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalletError::NotOurs(t) => write!(f, "token {} is not controlled by this wallet", t.0),
            WalletError::IndexDisabled => write!(f, "the node has no diversity index"),
            WalletError::Selection(e) => write!(f, "mixin selection failed: {e}"),
            WalletError::Validation(v) => write!(f, "self-validation rejected the ring: {v:?}"),
            WalletError::Chain(e) => write!(f, "chain rejected the transaction: {e}"),
            WalletError::Node(e) => write!(f, "sealing the spend failed: {e}"),
        }
    }
}

impl std::error::Error for WalletError {}

/// What one committed spend left behind.
#[derive(Debug)]
pub struct Spend {
    /// The ladder's answer: the tier, its work counters, and the ring in
    /// ledger ids.
    pub selection: IndexedSelection,
    /// The sealed block carrying the spend.
    pub block: Block,
}

/// The wallet.
pub struct Wallet {
    /// Owned key pairs, by public key value.
    keys: HashMap<u64, KeyPair>,
    /// The privacy policy applied to every spend.
    pub policy: SelectionPolicy,
}

impl Wallet {
    pub fn new(policy: SelectionPolicy) -> Self {
        Wallet {
            keys: HashMap::new(),
            policy,
        }
    }

    /// Generate and register a fresh key; returns its public half.
    pub fn new_address<R: Rng + ?Sized>(&mut self, chain: &Chain, rng: &mut R) -> PublicKey {
        let kp = KeyPair::generate(chain.group(), rng);
        self.keys.insert(kp.public.value(), kp);
        kp.public
    }

    /// Import an existing key pair.
    pub fn import(&mut self, kp: KeyPair) {
        self.keys.insert(kp.public.value(), kp);
    }

    /// Scan the chain for tokens this wallet controls and whose key image
    /// has not been consumed.
    pub fn spendable(&self, chain: &Chain) -> Vec<TokenId> {
        (0..chain.token_count() as u64)
            .map(TokenId)
            .filter(|t| {
                chain.token(*t).is_some_and(|rec| {
                    self.keys
                        .get(&rec.owner.value())
                        .is_some_and(|kp| !chain.image_consumed(kp.key_image(chain.group())))
                })
            })
            .collect()
    }

    /// Spend `token` into `outputs` with `memo`, on `node` (see the module
    /// docs for the path). Only the signature draws from `rng`.
    ///
    /// Every failure up to and including the Definition-5 check leaves the
    /// node as it was: chain, store and index.
    pub fn spend<R: Rng + ?Sized>(
        &self,
        node: &mut SimNode,
        token: TokenId,
        outputs: Vec<TokenOutput>,
        memo: Vec<u8>,
        rng: &mut R,
    ) -> Result<Spend, WalletError> {
        let chain = node.chain();
        let signer = *chain
            .token(token)
            .and_then(|rec| self.keys.get(&rec.owner.value()))
            .ok_or(WalletError::NotOurs(token))?;
        let index = node.index().ok_or(WalletError::IndexDisabled)?;
        let (selection, snap) = index
            .select(
                token.0,
                self.policy,
                grant_budget(EXACT_GRANT),
                &Tier::DEFAULT_LADDER,
                CoreMetrics::global(),
            )
            .map_err(WalletError::Selection)?;
        let req = self.policy.requirement;
        let verdict = validate_ring(
            &selection.degraded.selection.ring,
            req,
            &snap.instance.rings,
            &snap.instance.claims,
            &snap.instance.universe,
        );
        if verdict != Verdict::Eligible {
            return Err(WalletError::Validation(verdict));
        }
        // A held view is copied by the next block that touches its batch:
        // let it go before this spend's own block is sealed.
        drop(snap);

        let mut tx = Transaction {
            inputs: vec![],
            outputs,
            memo,
        };
        let ring: Vec<TokenId> = selection.ring.iter().map(|&t| TokenId(t)).collect();
        let input = chain
            .sign_ring_input(&tx, &ring, &signer, (req.c, req.l), rng)
            .map_err(WalletError::Chain)?;
        tx.inputs.push(input);
        node.chain_mut()
            .submit(tx, &NoConfiguration)
            .map_err(WalletError::Chain)?;
        let block = node.seal_block().map_err(WalletError::Node)?;
        Ok(Spend { selection, block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::Amount;
    use dams_crypto::SchnorrGroup;
    use dams_diversity::DiversityRequirement;
    use dams_store::{MemBackend, Store, StoreConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Batch parameter λ: the four coinbases of [`setup`] fill one batch.
    const LAMBDA: usize = 16;

    /// A node on a fresh in-memory store with its index enabled.
    fn indexed_node(group: SchnorrGroup) -> SimNode {
        let mut node = SimNode::new(0, group);
        let store = Store::open(
            Box::new(MemBackend::new()),
            Box::new(MemBackend::new()),
            group,
            StoreConfig::default(),
        )
        .unwrap();
        node.attach_store(store).unwrap();
        node.enable_index(LAMBDA).unwrap();
        node
    }

    /// Mint 16 tokens (4 per coinbase, so 4 HTs) to a wallet.
    fn setup() -> (SimNode, Wallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut node = indexed_node(SchnorrGroup::default());
        let mut wallet = Wallet::new(SelectionPolicy::new(DiversityRequirement::new(1.0, 3)));
        for _ in 0..4 {
            let outs: Vec<TokenOutput> = (0..4)
                .map(|_| TokenOutput {
                    owner: wallet.new_address(node.chain(), &mut rng),
                    amount: Amount(5),
                })
                .collect();
            node.chain_mut().submit_coinbase(outs);
            node.seal_block().unwrap();
        }
        (node, wallet, rng)
    }

    /// One output to a fresh outside key.
    fn payment(node: &SimNode, rng: &mut StdRng) -> Vec<TokenOutput> {
        vec![TokenOutput {
            owner: KeyPair::generate(node.chain().group(), rng).public,
            amount: Amount(5),
        }]
    }

    #[test]
    fn scan_finds_owned_tokens() {
        let (node, wallet, _rng) = setup();
        assert_eq!(wallet.spendable(node.chain()).len(), 16);
    }

    #[test]
    fn spend_end_to_end() {
        let (mut node, wallet, mut rng) = setup();
        let outputs = payment(&node, &mut rng);
        let spend = wallet
            .spend(&mut node, TokenId(0), outputs, vec![], &mut rng)
            .unwrap();
        assert!(spend.selection.ring.contains(&0));
        assert_eq!(node.chain().tip().unwrap(), &spend.block);
        assert!(node.chain().audit());
        // The spent token no longer appears spendable.
        assert!(!wallet.spendable(node.chain()).contains(&TokenId(0)));
    }

    #[test]
    fn double_spend_blocked_by_wallet_or_chain() {
        let (mut node, wallet, mut rng) = setup();
        let outputs = payment(&node, &mut rng);
        wallet
            .spend(&mut node, TokenId(0), outputs.clone(), vec![], &mut rng)
            .unwrap();
        let err = wallet
            .spend(&mut node, TokenId(0), outputs, vec![], &mut rng)
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
        let (mut node, wallet, mut rng) = setup();
        // Mint one token to an outsider.
        let outsider = KeyPair::generate(node.chain().group(), &mut rng);
        node.chain_mut().submit_coinbase(vec![TokenOutput {
            owner: outsider.public,
            amount: Amount(1),
        }]);
        node.seal_block().unwrap();
        let outputs = payment(&node, &mut rng);
        let err = wallet
            .spend(&mut node, TokenId(16), outputs, vec![], &mut rng)
            .unwrap_err();
        assert!(matches!(err, WalletError::NotOurs(_)), "{err:?}");
    }

    #[test]
    fn sequential_spends_stay_private() {
        let (mut node, wallet, mut rng) = setup();
        for t in [0u64, 5, 10] {
            let outputs = payment(&node, &mut rng);
            wallet
                .spend(&mut node, TokenId(t), outputs, vec![], &mut rng)
                .unwrap();
        }
        let report = crate::auditor::audit(node.chain());
        assert_eq!(report.analysis.resolved_count(), 0, "spends linkable");
        assert!(report.claim_violations.is_empty());
    }

    #[test]
    fn one_snapshot_lookup_per_spend() {
        // The wallet validates against the snapshot `select` served from,
        // so every spend, committed or refused, books exactly one snapshot
        // lookup; and it lets the view go before it seals, so its block
        // copies no view.
        let (mut node, wallet, mut rng) = setup();
        let stats = |node: &SimNode| node.index().unwrap().stats();
        let (mut committed, mut refused) = (0, 0);
        for t in 0..16 {
            let before = stats(&node);
            let outputs = payment(&node, &mut rng);
            match wallet.spend(&mut node, TokenId(t), outputs, vec![], &mut rng) {
                Ok(_) => committed += 1,
                Err(WalletError::Validation(_) | WalletError::Selection(_)) => refused += 1,
                Err(e) => panic!("token {t}: unexpected error {e}"),
            }
            let after = stats(&node);
            assert_eq!(after.snapshot_hits, before.snapshot_hits + 1, "token {t}");
            assert_eq!(after.snapshot_misses, before.snapshot_misses, "token {t}");
        }
        assert!(
            committed > 0 && refused > 0,
            "{committed} committed, {refused} refused"
        );
    }

    /// Everything a spend may mutate: the tip, the WAL, the index and the
    /// consumed key images.
    fn node_state(node: &mut SimNode) -> ([u8; 32], u64, Vec<u64>, Vec<u64>) {
        let index = node.index().unwrap();
        let fingerprints = (0..index.batch_count())
            .map(|b| index.batch_fingerprint(b))
            .collect();
        (
            node.tip_hash().unwrap(),
            node.store_mut().unwrap().wal_len(),
            fingerprints,
            node.chain().consumed_images_sorted(),
        )
    }

    #[test]
    fn refused_spend_changes_nothing() {
        // Spend the coins in order until the wallet's Definition-5 check
        // refuses one: the refusal must leave the node exactly as it was.
        let (mut node, wallet, mut rng) = setup();
        for t in 0..16 {
            let before = node_state(&mut node);
            let outputs = payment(&node, &mut rng);
            match wallet.spend(&mut node, TokenId(t), outputs, vec![], &mut rng) {
                Ok(_) => assert_ne!(node_state(&mut node), before, "a spend commits"),
                Err(WalletError::Validation(verdict)) => {
                    assert_ne!(verdict, Verdict::Eligible);
                    assert_eq!(node_state(&mut node), before, "token {t} refused");
                    return;
                }
                Err(e) => panic!("token {t}: unexpected error {e}"),
            }
        }
        panic!("no spend was refused");
    }
}
