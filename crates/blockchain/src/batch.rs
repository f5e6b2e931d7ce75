//! The TokenMagic batch list (§4, Figure 2).
//!
//! TokenMagic partitions the blockchain's blocks into disjoint, sequential
//! batches, each holding at least λ tokens (the last, still-open batch may
//! hold fewer). A token's mixin universe is exactly the tokens of its own
//! batch, which bounds the related-RS-set size by the batch token count and
//! makes related sets of different batches disjoint.

use crate::chain::Chain;
use crate::types::{BlockHeight, TokenId};

/// One closed or open batch: a contiguous block range and its tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Batch index in `B = [B_1, B_2, ...]` (0-based here).
    pub index: usize,
    /// First block of the batch (inclusive).
    pub first_block: BlockHeight,
    /// Last block of the batch (inclusive).
    pub last_block: BlockHeight,
    /// All token ids minted inside the batch's blocks, ascending.
    pub tokens: Vec<TokenId>,
    /// Whether the batch has reached λ tokens and is closed.
    pub closed: bool,
}

/// The batch list: a deterministic function of the block list and λ, so all
/// nodes reach consensus on it (§4).
#[derive(Debug, Clone)]
pub struct BatchList {
    lambda: usize,
    batches: Vec<Batch>,
}

impl BatchList {
    /// Build the batch list for a chain with the system parameter λ.
    ///
    /// Scans blocks in ascending order; a batch closes once its token count
    /// reaches λ *after* adding a block (blocks are never split).
    ///
    /// λ = 0 is clamped to 1 (the smallest meaningful batch size) so a
    /// misconfigured node degrades instead of panicking — the clamp is
    /// deterministic, so all nodes applying it still agree on the list.
    pub fn build(chain: &Chain, lambda: usize) -> Self {
        let lambda = lambda.max(1);
        let mut batches: Vec<Batch> = Vec::new();
        let mut current_tokens: Vec<TokenId> = Vec::new();
        let mut current_first: Option<BlockHeight> = None;

        for block in chain.blocks() {
            let height = block.header.height;
            let first = *current_first.get_or_insert(height);
            for tx in &block.transactions {
                current_tokens.extend(tx.output_ids.iter().copied());
            }
            if current_tokens.len() >= lambda {
                batches.push(Batch {
                    index: batches.len(),
                    first_block: first,
                    last_block: height,
                    tokens: std::mem::take(&mut current_tokens),
                    closed: true,
                });
                current_first = None;
            }
        }
        // Trailing open batch (possibly empty of tokens). On an empty block
        // list (corrupted state — construction always adds genesis) the
        // loop never ran and `current_first` is `None`, so no batch forms.
        if let Some(first) = current_first {
            let last = chain.blocks().last().map_or(first, |b| b.header.height);
            batches.push(Batch {
                index: batches.len(),
                first_block: first,
                last_block: last,
                tokens: current_tokens,
                closed: false,
            });
        }
        let metrics = crate::obs::ChainMetrics::global();
        metrics.lists_built.inc();
        for b in &batches {
            metrics.batch_size.record(b.tokens.len() as u64);
        }
        BatchList { lambda, batches }
    }

    pub fn lambda(&self) -> usize {
        self.lambda
    }

    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The batch containing a given token (`None` for unknown tokens).
    pub fn batch_of(&self, token: TokenId) -> Option<&Batch> {
        self.batches
            .iter()
            .find(|b| b.tokens.binary_search(&token).is_ok())
    }

    /// The mixin universe of a token: all tokens in its batch.
    pub fn mixin_universe(&self, token: TokenId) -> Option<&[TokenId]> {
        self.batch_of(token).map(|b| b.tokens.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use crate::transaction::TokenOutput;
    use crate::types::Amount;
    use dams_crypto::{KeyPair, SchnorrGroup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build a chain with `blocks` blocks of `per_block` tokens each.
    fn chain_with(blocks: usize, per_block: usize) -> Chain {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(5);
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
    fn batches_partition_all_tokens() {
        let chain = chain_with(10, 3);
        let bl = BatchList::build(&chain, 7);
        let mut all: Vec<TokenId> = bl
            .batches()
            .iter()
            .flat_map(|b| b.tokens.iter().copied())
            .collect();
        all.sort_unstable();
        let expect: Vec<TokenId> = (0..30).map(TokenId).collect();
        assert_eq!(all, expect, "every token in exactly one batch");
    }

    #[test]
    fn closed_batches_meet_lambda() {
        let chain = chain_with(10, 3);
        let bl = BatchList::build(&chain, 7);
        for b in bl.batches() {
            if b.closed {
                assert!(b.tokens.len() >= 7, "closed batch below λ: {b:?}");
                // and closing is tight: removing the last block would dip below λ
            }
            assert!(b.first_block <= b.last_block, "{b:?}");
            assert!(b.tokens.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        }
    }

    #[test]
    fn batches_are_sequential_and_disjoint_in_blocks() {
        let chain = chain_with(10, 3);
        let bl = BatchList::build(&chain, 7);
        for w in bl.batches().windows(2) {
            assert!(w[0].last_block < w[1].first_block);
        }
    }

    #[test]
    fn batch_of_and_universe() {
        let chain = chain_with(6, 2);
        let bl = BatchList::build(&chain, 4);
        let b = bl.batch_of(TokenId(0)).unwrap();
        assert!(b.tokens.contains(&TokenId(0)));
        let uni = bl.mixin_universe(TokenId(0)).unwrap();
        assert_eq!(uni, b.tokens.as_slice());
        assert!(bl.batch_of(TokenId(999)).is_none());
        assert!(bl.mixin_universe(TokenId(999)).is_none());
    }

    #[test]
    fn lambda_one_gives_per_block_batches() {
        let chain = chain_with(4, 2);
        let bl = BatchList::build(&chain, 1);
        // Genesis has no tokens so it joins the first token-bearing block.
        let closed: Vec<&Batch> = bl.batches().iter().filter(|b| b.closed).collect();
        assert_eq!(closed.len(), 4);
        for b in closed {
            assert_eq!(b.tokens.len(), 2);
        }
    }

    #[test]
    fn deterministic_consensus() {
        // Two nodes that saw the same blocks derive identical batch lists.
        let a = BatchList::build(&chain_with(8, 3), 5);
        let b = BatchList::build(&chain_with(8, 3), 5);
        assert_eq!(a.batches(), b.batches(), "two nodes agree");
    }

    #[test]
    fn empty_chain_has_single_open_batch() {
        let chain = Chain::new(SchnorrGroup::default());
        let bl = BatchList::build(&chain, 5);
        assert_eq!(bl.batches().len(), 1);
        assert!(!bl.batches()[0].closed);
        assert!(bl.batches()[0].tokens.is_empty());
    }

    #[test]
    fn zero_lambda_clamped_to_one() {
        let chain = chain_with(3, 2);
        let zero = BatchList::build(&chain, 0);
        let one = BatchList::build(&chain, 1);
        assert_eq!(zero.batches(), one.batches());
        assert_eq!(zero.lambda(), 1);
    }
}
