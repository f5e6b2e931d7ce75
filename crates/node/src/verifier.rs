//! Verifier-side (Step 3) configuration checks.
//!
//! §2.1: "verifiers can check if r satisfies some extra configurations…
//! If r conflicts these configurations, r will also be rejected." §6.1's
//! practical configurations are enforced here when miners validate a
//! transaction:
//!
//! 1. **Batch membership** — every ring token comes from one TokenMagic
//!    batch (§4: mixins only from the spent token's batch);
//! 2. **First practical configuration** — the ring is a superset of every
//!    committed ring it intersects;
//! 3. **Claimed diversity** — the ring's HT multiset satisfies the
//!    claimed recursive (c, ℓ)-diversity (using on-chain origins as HTs).

use std::collections::HashMap;

use dams_blockchain::{BatchList, Chain, RingConfiguration, TokenId};
use dams_diversity::{DiversityRequirement, HtHistogram, HtId, RingIndex};
use dams_store::ledger_ring;

/// The TokenMagic verifier configuration. Holds the committed ring
/// history (at the algorithmic layer) and the batch parameter λ.
pub struct TokenMagicConfiguration {
    /// λ — tokens per batch.
    pub lambda: usize,
    /// Committed rings (ledger token ids), appended as blocks seal.
    history: RingIndex,
    /// The claimed requirement of each committed ring.
    claims: Vec<DiversityRequirement>,
    /// Minimum claim any new ring must declare (system floor); `None`
    /// disables the diversity check (claims are then caller-verified).
    pub required_claim: Option<DiversityRequirement>,
}

impl TokenMagicConfiguration {
    pub fn new(lambda: usize) -> Self {
        TokenMagicConfiguration {
            lambda,
            history: RingIndex::new(),
            claims: Vec::new(),
            required_claim: None,
        }
    }

    pub fn with_required_claim(mut self, claim: DiversityRequirement) -> Self {
        self.required_claim = Some(claim);
        self
    }

    /// Record a committed ring so later verifications see it.
    pub fn commit(&mut self, ring_tokens: &[TokenId], claim: DiversityRequirement) {
        self.history.push(ledger_ring(ring_tokens));
        self.claims.push(claim);
    }

    pub fn history(&self) -> &RingIndex {
        &self.history
    }
}

/// HT histogram of a ledger ring using transaction origins as HTs.
fn ledger_histogram(chain: &Chain, tokens: &[TokenId]) -> Result<HtHistogram, String> {
    let mut origin_ids: HashMap<u64, u32> = HashMap::new();
    let mut hts = Vec::with_capacity(tokens.len());
    for &t in tokens {
        let rec = chain
            .token(t)
            .ok_or_else(|| format!("unknown token {}", t.0))?;
        let next = origin_ids.len() as u32;
        let id = *origin_ids.entry(rec.origin.0).or_insert(next);
        hts.push(HtId(id));
    }
    Ok(HtHistogram::from_hts(hts))
}

impl RingConfiguration for TokenMagicConfiguration {
    fn check(&self, chain: &Chain, ring: &[TokenId]) -> Result<(), String> {
        // 1. Batch membership.
        let batches = BatchList::build(chain, self.lambda);
        let first = ring.first().ok_or("empty ring")?;
        let batch = batches
            .batch_of(*first)
            .ok_or_else(|| format!("token {} not in any batch", first.0))?;
        for t in ring {
            if batch.tokens.binary_search(t).is_err() {
                return Err(format!(
                    "token {} outside the spent token's batch {}",
                    t.0, batch.index
                ));
            }
        }
        // 2. First practical configuration against committed history.
        let candidate = ledger_ring(ring);
        for (_, committed) in self.history.iter() {
            if candidate.intersects(committed) && !candidate.is_superset(committed) {
                return Err("ring overlaps a committed ring without containing it".into());
            }
        }
        // 3. Claimed diversity floor.
        if let Some(claim) = self.required_claim {
            let hist = ledger_histogram(chain, ring)?;
            if !claim.satisfied_by(&hist) {
                return Err(format!(
                    "ring violates the required recursive ({}, {})-diversity",
                    claim.c, claim.l
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, TokenOutput};
    use dams_crypto::{KeyPair, SchnorrGroup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_with_blocks(per_block: &[usize]) -> Chain {
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = Chain::new(SchnorrGroup::default());
        for &n in per_block {
            let outs = (0..n)
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
    fn batch_membership_enforced() {
        // λ = 4 over two 4-token blocks → two batches {0..3}, {4..7}.
        let chain = chain_with_blocks(&[4, 4]);
        let cfg = TokenMagicConfiguration::new(4);
        assert!(cfg.check(&chain, &[TokenId(0), TokenId(2)]).is_ok());
        let err = cfg.check(&chain, &[TokenId(0), TokenId(5)]).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn first_configuration_enforced() {
        let chain = chain_with_blocks(&[8]);
        let mut cfg = TokenMagicConfiguration::new(8);
        cfg.commit(&[TokenId(0), TokenId(1)], DiversityRequirement::new(1.0, 1));
        // superset: ok
        assert!(cfg
            .check(&chain, &[TokenId(0), TokenId(1), TokenId(2)])
            .is_ok());
        // disjoint: ok
        assert!(cfg.check(&chain, &[TokenId(3), TokenId(4)]).is_ok());
        // partial overlap: rejected
        assert!(cfg.check(&chain, &[TokenId(1), TokenId(2)]).is_err());
    }

    #[test]
    fn diversity_floor_enforced() {
        // Two blocks of 2 → two HTs; λ = 4 puts them in one batch.
        let chain = chain_with_blocks(&[2, 2]);
        let cfg =
            TokenMagicConfiguration::new(4).with_required_claim(DiversityRequirement::new(2.0, 2));
        // Same-origin pair: q = [2], θ = 1 < ℓ → rejected.
        assert!(cfg.check(&chain, &[TokenId(0), TokenId(1)]).is_err());
        // Cross-origin pair: q = [1,1]: 1 < 2·1 → ok.
        assert!(cfg.check(&chain, &[TokenId(0), TokenId(2)]).is_ok());
    }
}
