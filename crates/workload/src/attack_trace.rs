//! Real-trace-shaped chain generation for the attack replay harness.
//!
//! Empirical Monero traceability work (Möser et al.) exploits two facts
//! about real chains that the Table 3 instances do not model: users spend
//! *young* tokens (the exponential spend-age law behind the guess-newest
//! heuristic), and a fraction of users spend **carelessly** with zero
//! mixins, seeding taint cascades through everyone else's rings. This
//! module generates full chains with both properties — tokens minted
//! block by block, spends drawn age-biased from the unspent set, every
//! `careless_every`-th spend a singleton ring — and records the ground
//! truth (`dams_diversity::ChainTrace`) the adversaries are scored
//! against.
//!
//! Mixins for the non-careless spends come from
//! [`dams_core::attack_aware::sample_ring`], so the same generator
//! produces the vulnerable baseline and the hardened attack-aware chain
//! at identical ring size and (c, ℓ) — the comparison axis of
//! `BENCH_anonymity.json`.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::attack_aware::{sample_ring, MixinPool, SamplingMode};
use dams_diversity::{ChainTrace, DiversityRequirement, HtId, RingSet, TokenId, TokenUniverse};

/// Shape of a generated chain (defaults are the bench harness's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackTraceConfig {
    /// Chain height (blocks of minting + spending).
    pub blocks: usize,
    /// Tokens minted per block.
    pub births_per_block: usize,
    /// Spends committed per block.
    pub spends_per_block: usize,
    /// Ring size of every non-careless spend.
    pub ring_size: usize,
    /// Every k-th spend is a zero-mixin singleton ring (0 = never) —
    /// the careless users seeding the taint cascade.
    pub careless_every: usize,
    /// Mean of the exponential spend-age law (blocks).
    pub age_rate: f64,
    /// Distinct HT buckets tokens are minted from.
    pub ht_buckets: usize,
    /// The (c, ℓ) requirement every sampled ring must satisfy.
    pub requirement: DiversityRequirement,
    /// Decoy sampling mode (the baseline/attack-aware comparison axis).
    pub mode: SamplingMode,
}

impl Default for AttackTraceConfig {
    fn default() -> Self {
        AttackTraceConfig {
            blocks: 24,
            births_per_block: 6,
            spends_per_block: 2,
            ring_size: 4,
            careless_every: 3,
            age_rate: 4.0,
            ht_buckets: 12,
            requirement: DiversityRequirement::new(1.0, 2),
            mode: SamplingMode::Baseline,
        }
    }
}

/// Generate a seeded chain trace (deterministic per `(config, seed)`).
pub fn generate_attack_trace(cfg: &AttackTraceConfig, seed: u64) -> ChainTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ht_of: Vec<HtId> = Vec::new();
    let mut birth_height: Vec<u64> = Vec::new();
    let mut spent: Vec<bool> = Vec::new();

    let mut rings: Vec<RingSet> = Vec::new();
    let mut truth: Vec<TokenId> = Vec::new();
    let mut spend_height: Vec<u64> = Vec::new();
    // The adversary-computable spent closure the attack-aware sampler
    // steers around: tokens burned in zero-mixin rings.
    let mut known_spent: BTreeSet<TokenId> = BTreeSet::new();
    let mut spend_counter = 0usize;

    for h in 0..cfg.blocks as u64 {
        for _ in 0..cfg.births_per_block {
            ht_of.push(HtId(rng.gen_range(0..cfg.ht_buckets.max(1) as u32)));
            birth_height.push(h);
            spent.push(false);
        }
        for _ in 0..cfg.spends_per_block {
            let Some(target) = pick_spender(&birth_height, &spent, h, cfg.age_rate, &mut rng)
            else {
                continue;
            };
            spent[target.0 as usize] = true;
            spend_counter += 1;
            let careless =
                cfg.careless_every > 0 && spend_counter.is_multiple_of(cfg.careless_every);
            let ring = if careless {
                known_spent.insert(target);
                RingSet::new([target])
            } else {
                let universe = TokenUniverse::new(ht_of.clone());
                let pool = MixinPool {
                    universe: &universe,
                    birth_height: &birth_height,
                    current_height: h,
                };
                sample_ring(
                    &pool,
                    target,
                    cfg.ring_size,
                    &cfg.requirement,
                    cfg.mode,
                    &known_spent,
                    cfg.age_rate,
                    &mut rng,
                )
            };
            rings.push(ring);
            truth.push(target);
            spend_height.push(h);
        }
    }

    ChainTrace {
        universe: TokenUniverse::new(ht_of),
        rings,
        truth,
        birth_height,
        spend_height,
    }
}

/// Draw the next spender: a desired age from the exponential law, then
/// the unspent token whose age is closest (ties to the younger token) —
/// real chains spend young.
fn pick_spender<R: Rng + ?Sized>(
    birth_height: &[u64],
    spent: &[bool],
    height: u64,
    age_rate: f64,
    rng: &mut R,
) -> Option<TokenId> {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let desired = (-u.ln() * age_rate.max(1e-9)).round() as u64;
    let mut best: Option<(u64, u32)> = None; // (err, token id)
    for (i, (&b, &s)) in birth_height.iter().zip(spent).enumerate() {
        if s {
            continue;
        }
        let err = height.saturating_sub(b).abs_diff(desired);
        match best {
            Some((e, id)) if (err, u32::MAX - i as u32) >= (e, u32::MAX - id) => {}
            _ => best = Some((err, i as u32)),
        }
    }
    best.map(|(_, id)| TokenId(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = AttackTraceConfig::default();
        let a = generate_attack_trace(&cfg, 11);
        let b = generate_attack_trace(&cfg, 11);
        assert_eq!(a, b);
        let c = generate_attack_trace(&cfg, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn ground_truth_is_consistent() {
        let cfg = AttackTraceConfig::default();
        let t = generate_attack_trace(&cfg, 3);
        assert_eq!(t.rings.len(), t.truth.len());
        assert_eq!(t.rings.len(), t.spend_height.len());
        assert_eq!(t.universe.len(), t.birth_height.len());
        // Every ring contains its true spend; no token is spent twice.
        let mut seen = BTreeSet::new();
        for (ring, &tok) in t.rings.iter().zip(&t.truth) {
            assert!(ring.contains(tok));
            assert!(seen.insert(tok), "double spend of {tok:?}");
        }
    }

    #[test]
    fn careless_spends_are_singletons_at_the_configured_cadence() {
        let cfg = AttackTraceConfig {
            careless_every: 3,
            ..Default::default()
        };
        let t = generate_attack_trace(&cfg, 7);
        let singletons = t.rings.iter().filter(|r| r.len() == 1).count();
        assert_eq!(singletons, t.rings.len() / 3);
        let full = AttackTraceConfig {
            careless_every: 0,
            ..Default::default()
        };
        let t = generate_attack_trace(&full, 7);
        assert!(t.rings.iter().all(|r| r.len() == cfg.ring_size));
    }

    #[test]
    fn non_careless_rings_satisfy_the_requirement() {
        let cfg = AttackTraceConfig::default();
        for mode in [SamplingMode::Baseline, SamplingMode::AttackAware] {
            let t = generate_attack_trace(&AttackTraceConfig { mode, ..cfg }, 21);
            for ring in t.rings.iter().filter(|r| r.len() > 1) {
                assert!(
                    cfg.requirement.satisfied_by_ring(ring, &t.universe),
                    "{mode}: {ring:?}"
                );
            }
        }
    }

    #[test]
    fn attack_aware_avoids_the_singleton_closure() {
        let cfg = AttackTraceConfig {
            mode: SamplingMode::AttackAware,
            ..Default::default()
        };
        let t = generate_attack_trace(&cfg, 13);
        // Tokens burned in singleton rings before ring i must not appear
        // as decoys in later attack-aware rings.
        let mut burned: BTreeSet<TokenId> = BTreeSet::new();
        for (ring, &tok) in t.rings.iter().zip(&t.truth) {
            if ring.len() > 1 {
                for &m in ring.tokens() {
                    assert!(
                        m == tok || !burned.contains(&m),
                        "decoy {m:?} was provably spent"
                    );
                }
            } else {
                burned.insert(tok);
            }
        }
    }

    #[test]
    fn spends_skew_young() {
        let cfg = AttackTraceConfig {
            blocks: 40,
            ..Default::default()
        };
        let t = generate_attack_trace(&cfg, 5);
        let mean_age: f64 = t
            .truth
            .iter()
            .zip(&t.spend_height)
            .map(|(tok, &h)| (h - t.birth_height[tok.0 as usize]) as f64)
            .sum::<f64>()
            / t.truth.len() as f64;
        // The exponential law has mean age_rate; allow generous slack for
        // the closest-unspent snapping.
        assert!(mean_age < 3.0 * cfg.age_rate, "mean age {mean_age}");
    }
}
