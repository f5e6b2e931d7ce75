//! Chain → index glue: translating adopted blocks into the incremental
//! diversity index's [`BlockDelta`] language and rebuilding a whole index
//! from a chain replica.
//!
//! The [`crate::network::SimNode`] adoption paths call [`block_delta`] on
//! every block they adopt so an enabled [`DiversityIndex`] tracks the chain
//! O(Δ) per block; [`index_of_chain`] is the O(chain) cold-start used when
//! an index is first enabled or has to be re-anchored after a restore.

use dams_blockchain::{Block, Chain};
use dams_core::{BlockDelta, DeltaRing, DiversityIndex, IndexError};

/// Project a chain block onto the index's delta language.
///
/// * Every output token minted by a committed transaction becomes a
///   `(token id, historical transaction)` pair — the historical transaction
///   key is the minting [`TxId`](dams_blockchain::TxId), matching how the
///   snapshot pipeline labels token histories.
/// * Every ring input becomes a [`DeltaRing`] with its claimed recursive
///   (c, ℓ)-diversity requirement, in transaction order (the order rings
///   were committed, which the index's partition update depends on).
pub fn block_delta(block: &Block) -> BlockDelta {
    let mut minted = Vec::new();
    let mut rings = Vec::new();
    for ct in &block.transactions {
        for input in &ct.tx.inputs {
            rings.push(DeltaRing {
                tokens: input.ring.iter().map(|t| t.0).collect(),
                claimed_c: input.claimed_c,
                claimed_l: input.claimed_l,
            });
        }
        for out in &ct.output_ids {
            minted.push((out.0, ct.id.0));
        }
    }
    BlockDelta {
        height: block.header.height.0,
        minted,
        rings,
    }
}

/// Build a fresh index over every block of `chain` — the O(chain)
/// cold-start path. Incremental maintenance afterwards is O(Δ) per block.
pub fn index_of_chain(chain: &Chain, lambda: usize) -> Result<DiversityIndex, IndexError> {
    let mut index = DiversityIndex::new(lambda);
    for block in chain.blocks() {
        index.apply_block(&block_delta(block))?;
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, BatchList, TokenOutput};
    use dams_crypto::{KeyPair, SchnorrGroup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_with(blocks: usize, per_block: usize, seed: u64) -> Chain {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = Chain::new(group);
        for _ in 0..blocks {
            let outs: Vec<TokenOutput> = (0..per_block)
                .map(|_| TokenOutput {
                    owner: KeyPair::generate(chain.group(), &mut rng).public,
                    amount: Amount(1),
                })
                .collect();
            chain.submit_coinbase(outs);
            chain.seal_block().unwrap();
        }
        chain
    }

    #[test]
    fn index_batches_match_batch_list() {
        for lambda in [1usize, 3, 7, 50] {
            let chain = chain_with(9, 3, 42);
            let index = index_of_chain(&chain, lambda).unwrap();
            let bl = BatchList::build(&chain, lambda);
            assert_eq!(index.batch_count(), bl.batches().len());
            for (i, batch) in bl.batches().iter().enumerate() {
                let tokens: Vec<u64> = batch.tokens.iter().map(|t| t.0).collect();
                assert_eq!(
                    index.batch_tokens(i),
                    tokens.as_slice(),
                    "λ={lambda} batch {i}"
                );
                assert_eq!(index.batch_closed(i), batch.closed);
                assert_eq!(index.batch_first_block(i), batch.first_block.0);
            }
            assert_eq!(index.token_count(), chain.token_count() as u64);
        }
    }

    #[test]
    fn delta_of_coinbase_block_carries_no_rings() {
        let chain = chain_with(2, 4, 7);
        let delta = block_delta(&chain.blocks()[1]);
        assert_eq!(delta.height, 1);
        assert_eq!(delta.minted.len(), 4);
        assert!(delta.rings.is_empty());
        // All four outputs come from one coinbase transaction: one HT key.
        assert!(delta.minted.windows(2).all(|w| w[0].1 == w[1].1));
    }
}
