//! A chain auditor: reconstructs the algorithmic privacy view (token→HT
//! universe + committed rings) from raw ledger data and runs the
//! chain-reaction adversary plus anonymity metrics over it.
//!
//! This closes the loop between substrate and theory: the same analysis
//! the paper's adversary performs on public Monero data runs here against
//! the bytes our own chain committed — so an integration test can assert
//! that what the wallet *intended* (a diverse, unresolvable ring) is what
//! the public record actually *shows*.

use dams_blockchain::Chain;
use dams_diversity::{
    analyze, batch_anonymity, Analysis, BatchAnonymity, RingIndex, TokenUniverse,
};
use dams_store::{chain_universe, ledger_ring, recheck_immutability};

/// The algorithmic view reconstructed from a chain.
pub struct ChainView {
    /// Dense algorithmic universe: ledger token id i → HT label.
    pub universe: TokenUniverse,
    /// Every ring input committed on the chain, in commit order.
    pub rings: RingIndex,
}

/// Build the view from a chain: HT = origin transaction (the chain's
/// [`chain_universe`]), rings = all ring inputs of all committed
/// transactions.
pub fn chain_view(chain: &Chain) -> ChainView {
    let mut rings = RingIndex::new();
    for block in chain.blocks() {
        for ct in &block.transactions {
            for input in &ct.tx.inputs {
                rings.push(ledger_ring(&input.ring));
            }
        }
    }
    ChainView {
        universe: chain_universe(chain),
        rings,
    }
}

/// A full audit: run the chain-reaction adversary over the reconstructed
/// view and summarise anonymity.
pub struct AuditReport {
    pub analysis: Analysis,
    pub anonymity: BatchAnonymity,
    /// Commit-order indices of the rings whose claimed (c, ℓ)-diversity
    /// does not even hold on their own token multiset (a protocol
    /// violation a verifier should have caught): the ring indices of
    /// [`recheck_immutability`], the check `Store::open` runs.
    pub claim_violations: Vec<usize>,
}

/// Audit a chain end-to-end.
pub fn audit(chain: &Chain) -> AuditReport {
    let view = chain_view(chain);
    let analysis = analyze(&view.rings, &[]);
    let anonymity = batch_anonymity(&analysis, &view.universe);
    let claim_violations = recheck_immutability(chain)
        .violations
        .iter()
        .map(|&(_, ring)| ring as usize)
        .collect();
    AuditReport {
        analysis,
        anonymity,
        claim_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, NoConfiguration, TokenOutput, Transaction};
    use dams_crypto::{KeyPair, SchnorrGroup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A chain with 2 coinbases of 3 tokens each and one 2-token ring spend.
    fn sample_chain() -> Chain {
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = Chain::new(SchnorrGroup::default());
        let keys: Vec<KeyPair> = (0..6)
            .map(|_| KeyPair::generate(chain.group(), &mut rng))
            .collect();
        for half in keys.chunks(3) {
            chain.submit_coinbase(
                half.iter()
                    .map(|k| TokenOutput {
                        owner: k.public,
                        amount: Amount(1),
                    })
                    .collect(),
            );
            chain.seal_block().unwrap();
        }
        // Spend token 0 over ring {0, 3} (cross-origin → diverse).
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: keys[0].public,
                amount: Amount(1),
            }],
            memo: vec![],
        };
        let ring = [dams_blockchain::TokenId(0), dams_blockchain::TokenId(3)];
        let input = chain
            .sign_ring_input(&tx, &ring, &keys[0], (2.0, 1), &mut rng)
            .unwrap();
        tx.inputs.push(input);
        chain.submit(tx, &NoConfiguration).unwrap();
        chain.seal_block().unwrap();
        chain
    }

    #[test]
    fn view_reconstructs_origins_and_rings() {
        let chain = sample_chain();
        let view = chain_view(&chain);
        assert_eq!(view.universe.len(), 7); // 6 coinbase + 1 spend output
                                            // first three tokens share an origin, next three another
        assert_eq!(
            view.universe.ht(dams_diversity::TokenId(0)),
            view.universe.ht(dams_diversity::TokenId(2))
        );
        assert_ne!(
            view.universe.ht(dams_diversity::TokenId(0)),
            view.universe.ht(dams_diversity::TokenId(3))
        );
        assert_eq!(view.rings.len(), 1);
    }

    #[test]
    fn audit_clean_chain() {
        let chain = sample_chain();
        let report = audit(&chain);
        assert_eq!(report.analysis.resolved_count(), 0);
        assert_eq!(report.anonymity.rings, 1);
        assert!(report.claim_violations.is_empty());
        assert!(report.anonymity.mean_candidates >= 2.0);
    }

    /// A chain whose one ring claims 2 distinct HTs over two tokens that
    /// share an origin, so its claim cannot hold.
    fn violated_claim_chain() -> Chain {
        let mut rng = StdRng::seed_from_u64(2);
        let mut chain = Chain::new(SchnorrGroup::default());
        let keys: Vec<KeyPair> = (0..2)
            .map(|_| KeyPair::generate(chain.group(), &mut rng))
            .collect();
        chain.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(1),
                })
                .collect(),
        );
        chain.seal_block().unwrap();
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![],
            memo: b"x".to_vec(),
        };
        let ring = [dams_blockchain::TokenId(0), dams_blockchain::TokenId(1)];
        let input = chain
            .sign_ring_input(&tx, &ring, &keys[0], (1.0, 2), &mut rng)
            .unwrap();
        tx.inputs.push(input);
        chain.submit(tx, &NoConfiguration).unwrap();
        chain.seal_block().unwrap();
        chain
    }

    #[test]
    fn audit_flags_claim_violation() {
        let report = audit(&violated_claim_chain());
        assert_eq!(report.claim_violations, vec![0]);
    }
}
