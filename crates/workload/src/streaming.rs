//! A constant-memory streaming chain generator for million-token scale.
//!
//! The substrate-backed generators ([`crate::chainload`]) pay real
//! cryptography per token, which caps experiments near 10⁴ tokens. The
//! streaming generator emits the *index-level* view of a growing chain —
//! a [`BlockDelta`] per block, with minted tokens, HT keys, and committed
//! rings — directly, so a soak run can grow a chain to 10⁶ tokens while
//! the generator itself holds only O(λ) state: the open batch's unused
//! tokens.
//!
//! Rings are drawn from tokens of the open batch that no earlier ring of
//! that batch used, so the committed history is laminar by construction
//! (disjoint-or-nested — here disjoint), exactly the shape honest
//! TokenMagic wallets produce. Every stream is a pure function of its
//! seed: two iterators with the same [`StreamConfig`] yield byte-identical
//! block sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{BlockDelta, DeltaRing};

/// Shape of a streamed chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// PRNG seed; the whole stream is a deterministic function of it.
    pub seed: u64,
    /// TokenMagic batch parameter λ (a batch closes at ≥ λ tokens).
    pub lambda: usize,
    /// Inclusive range of transactions minted per block.
    pub txs_per_block: (usize, usize),
    /// Inclusive range of tokens minted per transaction (one HT each).
    pub tokens_per_tx: (usize, usize),
    /// Probability that a block commits ring signatures.
    pub ring_rate: f64,
    /// Inclusive range of ring sizes (clamped to the unused pool).
    pub ring_size: (usize, usize),
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            seed: 0,
            lambda: 64,
            txs_per_block: (1, 3),
            tokens_per_tx: (1, 4),
            ring_rate: 0.6,
            ring_size: (2, 5),
        }
    }
}

/// The streaming generator: an infinite iterator of [`BlockDelta`]s.
///
/// Memory is O(λ) regardless of how many blocks have been emitted — the
/// only retained chain state is the open batch's pool of ring-unused
/// tokens, which closing a batch clears.
pub struct ChainStream {
    cfg: StreamConfig,
    rng: StdRng,
    next_height: u64,
    next_token: u64,
    next_ht: u64,
    /// Tokens of the open batch not yet used by any of its rings.
    unused: Vec<u64>,
    /// Tokens minted into the open batch so far (count only).
    open_batch_tokens: usize,
}

impl ChainStream {
    pub fn new(cfg: StreamConfig) -> Self {
        ChainStream {
            rng: StdRng::seed_from_u64(cfg.seed ^ STREAM_DOMAIN),
            cfg,
            next_height: 0,
            next_token: 0,
            next_ht: 0,
            unused: Vec::new(),
            open_batch_tokens: 0,
        }
    }

    /// Tokens emitted so far (== the id the next minted token will get).
    pub fn tokens_emitted(&self) -> u64 {
        self.next_token
    }

    /// Blocks emitted so far (== the next block's height).
    pub fn blocks_emitted(&self) -> u64 {
        self.next_height
    }

    /// Emit blocks until at least `target` tokens exist, collecting them.
    pub fn take_until_tokens(&mut self, target: u64) -> Vec<BlockDelta> {
        let mut out = Vec::new();
        while self.next_token < target {
            out.push(self.next_block());
        }
        out
    }

    /// Generate the next block.
    pub fn next_block(&mut self) -> BlockDelta {
        let cfg = self.cfg;
        let mut minted = Vec::new();
        let txs = self
            .rng
            .gen_range(cfg.txs_per_block.0..=cfg.txs_per_block.1.max(1));
        for _ in 0..txs.max(1) {
            let ht = self.next_ht;
            self.next_ht += 1;
            let count = self
                .rng
                .gen_range(cfg.tokens_per_tx.0.max(1)..=cfg.tokens_per_tx.1.max(1));
            for _ in 0..count {
                minted.push((self.next_token, ht));
                self.unused.push(self.next_token);
                self.next_token += 1;
            }
        }
        self.open_batch_tokens += minted.len();

        // Rings reference tokens already on chain (strictly: minted in an
        // earlier block of the open batch and unused by its other rings),
        // so drawing happens before this block's mints joined the pool —
        // except they just did; exclude them by only drawing from the
        // pool's prefix predating this block.
        let prior = self.unused.len() - minted.len();
        let mut rings = Vec::new();
        if prior >= cfg.ring_size.0.max(2) && self.rng.gen_bool(cfg.ring_rate.clamp(0.0, 1.0)) {
            let want = self
                .rng
                .gen_range(cfg.ring_size.0.max(2)..=cfg.ring_size.1.max(2))
                .min(prior);
            let mut tokens = Vec::with_capacity(want);
            for _ in 0..want {
                let pick = self.rng.gen_range(0..prior - tokens.len());
                // Swap the pick to the back of the prior region, then take
                // it out; O(1) per draw, keeps `unused` a set.
                let limit = prior - tokens.len();
                self.unused.swap(pick, limit - 1);
                tokens.push(self.unused.remove(limit - 1));
            }
            tokens.sort_unstable();
            let claimed_c = if self.rng.gen_bool(0.5) { 0.5 } else { 1.0 };
            let claimed_l = self.rng.gen_range(1..=2usize);
            rings.push(DeltaRing {
                tokens,
                claimed_c,
                claimed_l,
            });
        }

        // Batch closure mirrors `BatchList::build`: close after adding the
        // whole block once the count reaches λ, then start a fresh pool.
        if self.open_batch_tokens >= cfg.lambda.max(1) {
            self.open_batch_tokens = 0;
            self.unused.clear();
        }

        let height = self.next_height;
        self.next_height += 1;
        BlockDelta {
            height,
            minted,
            rings,
        }
    }
}

impl Iterator for ChainStream {
    type Item = BlockDelta;

    fn next(&mut self) -> Option<BlockDelta> {
        Some(self.next_block())
    }
}

/// Domain-separation constant for the stream's PRNG (so a seed shared
/// with other harness components still draws an independent stream).
const STREAM_DOMAIN: u64 = 0x057e_aa11_ed05_c4a1;

#[cfg(test)]
mod tests {
    use super::*;
    use dams_core::{recompute_equivalence, DiversityIndex};

    #[test]
    fn stream_is_deterministic_in_its_seed() {
        let cfg = StreamConfig {
            seed: 9,
            lambda: 16,
            ..StreamConfig::default()
        };
        let a: Vec<BlockDelta> = ChainStream::new(cfg).take(200).collect();
        let b: Vec<BlockDelta> = ChainStream::new(cfg).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<BlockDelta> = ChainStream::new(StreamConfig { seed: 10, ..cfg })
            .take(200)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn stream_feeds_the_index_and_matches_recompute() {
        for seed in 0..8u64 {
            let cfg = StreamConfig {
                seed,
                lambda: 12,
                ..StreamConfig::default()
            };
            let mut stream = ChainStream::new(cfg);
            let deltas = stream.take_until_tokens(300);
            let mut index = DiversityIndex::new(cfg.lambda);
            for d in &deltas {
                index.apply_block(d).unwrap();
            }
            assert_eq!(index.token_count(), stream.tokens_emitted());
            assert!(index.token_count() >= 300);
            recompute_equivalence(&index, &deltas).unwrap();
        }
    }

    #[test]
    fn generator_state_stays_bounded() {
        let cfg = StreamConfig {
            seed: 3,
            lambda: 32,
            ..StreamConfig::default()
        };
        let mut stream = ChainStream::new(cfg);
        for _ in 0..5_000 {
            stream.next_block();
            // Pool ≤ open batch ≤ λ + one block's worth of mints.
            assert!(stream.unused.len() <= 32 + 3 * 4);
        }
        assert!(stream.tokens_emitted() > 5_000);
    }

    #[test]
    fn rings_are_committed_and_laminar() {
        let cfg = StreamConfig {
            seed: 4,
            lambda: 24,
            ring_rate: 1.0,
            ..StreamConfig::default()
        };
        let deltas: Vec<BlockDelta> = ChainStream::new(cfg).take(400).collect();
        let ring_count: usize = deltas.iter().map(|d| d.rings.len()).sum();
        assert!(ring_count > 50, "only {ring_count} rings in 400 blocks");
        // Laminarity: the index accepts every block without breaking any
        // batch (a straddling ring would mark its batch broken).
        let mut index = DiversityIndex::new(cfg.lambda);
        for d in &deltas {
            index.apply_block(d).unwrap();
        }
        for b in 0..index.batch_count() {
            if index.batch_closed(b) {
                let snap = index.snapshot(b).expect("closed batch has a snapshot");
                assert!(
                    snap.modular.is_some(),
                    "batch {b} broken — generator emitted a non-laminar ring"
                );
            }
        }
    }
}
