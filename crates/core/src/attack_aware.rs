//! Attack-aware mixin sampling — biasing decoy choice against the
//! measured attack heuristics of `dams_diversity::attacks`.
//!
//! The replay harness shows two dominant deanonymization channels on
//! realistic traces:
//!
//! 1. **taint cascades** — decoys drawn uniformly from the whole chain
//!    pick up provably-spent tokens (careless zero-mixin spends and their
//!    closure), so rings collapse by iterative elimination;
//! 2. **the guess-newest age bias** — real spends skew young, so when
//!    decoys are drawn uniformly over history the youngest ring member is
//!    usually the true spend.
//!
//! [`SamplingMode::Baseline`] reproduces the vulnerable behaviour
//! (uniform decoys over every minted token — Monero's historical
//! sampler). [`SamplingMode::AttackAware`] counters both channels at the
//! same ring size and the same (c, ℓ) requirement: decoys never come
//! from the adversary-computable spent closure, and their ages are drawn
//! from the *same* age law real spends follow, so the newest member is
//! no longer informative. The `attack-aware strictly reduces the
//! deanonymized fraction` property sweep and the `BENCH_anonymity.json`
//! gate pin the improvement down.

use std::collections::BTreeSet;

use rand::Rng;

use dams_diversity::{DiversityRequirement, RingSet, TokenId, TokenUniverse};

/// How mixins are sampled for a new ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Uniform decoys over every minted token (the vulnerable baseline).
    Baseline,
    /// Spent-closure-avoiding, age-matched decoys (see module docs).
    AttackAware,
}

impl std::fmt::Display for SamplingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingMode::Baseline => write!(f, "baseline"),
            SamplingMode::AttackAware => write!(f, "attack-aware"),
        }
    }
}

/// The minted-token population a sampler draws decoys from.
#[derive(Debug, Clone, Copy)]
pub struct MixinPool<'a> {
    /// Token → HT assignment (the sampler respects (c, ℓ) against it).
    pub universe: &'a TokenUniverse,
    /// Mint height of every token (`birth_height[t.0]`).
    pub birth_height: &'a [u64],
    /// Current chain height (ages are measured against it).
    pub current_height: u64,
}

impl MixinPool<'_> {
    fn age_of(&self, t: TokenId) -> u64 {
        self.current_height
            .saturating_sub(self.birth_height.get(t.0 as usize).copied().unwrap_or(0))
    }
}

/// How many decoy candidates are tried before the sampler accepts a
/// (c, ℓ)-violating ring as a last resort (never hit on the bench
/// workloads — the HT assignment is diverse enough).
const MAX_TRIES: usize = 64;

/// Sample a ring of `ring_size` members spending `target`.
///
/// Both modes enforce the same `requirement` at the same ring size, so
/// comparisons between them hold (c, ℓ) equal; they differ only in which
/// decoys they consider:
///
/// * [`SamplingMode::Baseline`] — decoys uniform over every minted token;
/// * [`SamplingMode::AttackAware`] — decoys outside `avoid` (the
///   adversary-computable spent closure) with ages drawn from the
///   exponential spend-age law of rate `age_rate` (the same law the
///   workload's spenders follow), so the ring's age profile matches a
///   real spend's.
#[allow(clippy::too_many_arguments)]
pub fn sample_ring<R: Rng + ?Sized>(
    pool: &MixinPool<'_>,
    target: TokenId,
    ring_size: usize,
    requirement: &DiversityRequirement,
    mode: SamplingMode,
    avoid: &BTreeSet<TokenId>,
    age_rate: f64,
    rng: &mut R,
) -> RingSet {
    let n = pool.universe.len();
    if n == 0 || ring_size <= 1 {
        return RingSet::new([target]);
    }
    let mut best: Option<RingSet> = None;
    for _ in 0..MAX_TRIES {
        let mut ring = RingSet::new([target]);
        let mut guard = 0usize;
        while ring.len() < ring_size && guard < 32 * ring_size {
            guard += 1;
            let decoy = match mode {
                SamplingMode::Baseline => TokenId(rng.gen_range(0..n as u32)),
                SamplingMode::AttackAware => {
                    let t = age_matched_decoy(pool, age_rate, rng);
                    if avoid.contains(&t) {
                        continue;
                    }
                    t
                }
            };
            if decoy != target {
                ring.insert(decoy);
            }
        }
        if requirement.satisfied_by_ring(&ring, pool.universe) {
            return ring;
        }
        if best.is_none() {
            best = Some(ring);
        }
    }
    // Last resort: an unsatisfiable requirement (degenerate universe)
    // returns the first full-size attempt rather than spinning forever.
    best.unwrap_or_else(|| RingSet::new([target]))
}

/// Draw a decoy whose age follows the exponential spend-age law: sample
/// a desired age, then pick the minted token closest to that age
/// (deterministic scan, ties to the younger token).
fn age_matched_decoy<R: Rng + ?Sized>(pool: &MixinPool<'_>, age_rate: f64, rng: &mut R) -> TokenId {
    let n = pool.universe.len() as u32;
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let desired = (-u.ln() * age_rate.max(1e-9)).round() as u64;
    // A handful of uniform probes, keeping the closest-aged hit: O(probes)
    // without a by-age index, and close enough that the ring's age profile
    // is indistinguishable from the spend-age law.
    let mut best = TokenId(rng.gen_range(0..n));
    let mut best_err = pool.age_of(best).abs_diff(desired);
    for _ in 0..8 {
        let probe = TokenId(rng.gen_range(0..n));
        let err = pool.age_of(probe).abs_diff(desired);
        if err < best_err || (err == best_err && probe.0 > best.0) {
            best = probe;
            best_err = err;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::HtId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_of(heights: &'static [u64]) -> (TokenUniverse, &'static [u64]) {
        let universe = TokenUniverse::new((0..heights.len() as u32).map(HtId).collect());
        (universe, heights)
    }

    #[test]
    fn both_modes_hit_the_requested_size_and_requirement() {
        static HEIGHTS: [u64; 64] = {
            let mut h = [0u64; 64];
            let mut i = 0;
            while i < 64 {
                h[i] = (i / 4) as u64;
                i += 1;
            }
            h
        };
        let (universe, heights) = pool_of(&HEIGHTS);
        let pool = MixinPool {
            universe: &universe,
            birth_height: heights,
            current_height: 16,
        };
        let req = DiversityRequirement::new(1.0, 2);
        let mut rng = StdRng::seed_from_u64(5);
        for mode in [SamplingMode::Baseline, SamplingMode::AttackAware] {
            let ring = sample_ring(
                &pool,
                TokenId(7),
                5,
                &req,
                mode,
                &BTreeSet::new(),
                4.0,
                &mut rng,
            );
            assert_eq!(ring.len(), 5, "{mode}");
            assert!(ring.contains(TokenId(7)));
            assert!(req.satisfied_by_ring(&ring, &universe), "{mode}");
        }
    }

    #[test]
    fn attack_aware_never_picks_avoided_tokens() {
        static HEIGHTS: [u64; 32] = [0; 32];
        let (universe, heights) = pool_of(&HEIGHTS);
        let pool = MixinPool {
            universe: &universe,
            birth_height: heights,
            current_height: 10,
        };
        let avoid: BTreeSet<TokenId> = (0..16u32).map(TokenId).collect();
        let req = DiversityRequirement::new(1.0, 1);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            let ring = sample_ring(
                &pool,
                TokenId(20),
                4,
                &req,
                SamplingMode::AttackAware,
                &avoid,
                4.0,
                &mut rng,
            );
            for &t in ring.tokens() {
                assert!(
                    t == TokenId(20) || !avoid.contains(&t),
                    "picked avoided {t:?}"
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        static HEIGHTS: [u64; 48] = {
            let mut h = [0u64; 48];
            let mut i = 0;
            while i < 48 {
                h[i] = i as u64 / 2;
                i += 1;
            }
            h
        };
        let (universe, heights) = pool_of(&HEIGHTS);
        let pool = MixinPool {
            universe: &universe,
            birth_height: heights,
            current_height: 24,
        };
        let req = DiversityRequirement::new(1.0, 2);
        let sample = || {
            let mut rng = StdRng::seed_from_u64(77);
            sample_ring(
                &pool,
                TokenId(3),
                6,
                &req,
                SamplingMode::AttackAware,
                &BTreeSet::new(),
                6.0,
                &mut rng,
            )
        };
        assert_eq!(sample(), sample());
    }

    #[test]
    fn degenerate_pool_returns_singleton() {
        let universe = TokenUniverse::new(vec![]);
        let pool = MixinPool {
            universe: &universe,
            birth_height: &[],
            current_height: 0,
        };
        let req = DiversityRequirement::new(1.0, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let ring = sample_ring(
            &pool,
            TokenId(0),
            4,
            &req,
            SamplingMode::Baseline,
            &BTreeSet::new(),
            4.0,
            &mut rng,
        );
        assert_eq!(ring.len(), 1);
    }
}
