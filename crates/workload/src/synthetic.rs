//! Synthetic instance generation per Table 3 of the paper.
//!
//! Parameters: number of super RSs `|S|` (10…90, default 50), super-RS size
//! range `|s_i|` (\[1,10\]…\[20,30\], default \[10,20\]), fresh-token count `|F|`
//! (0…20, default 10), and the variance σ of the normal distribution that
//! assigns each token its historical transaction (8…16, default 12).
//!
//! HT assignment follows the paper's construction: each token's HT index is
//! drawn from `N(0, σ²)` and rounded, so central HTs output many tokens and
//! the tail HTs few — with σ = 16 and ~800 tokens the busiest HT outputs
//! ≈ 16 tokens, matching Monero's observed maximum (§7.1).

use rand::Rng;

use dams_core::{Instance, ModularInstance, Module, ModuleId, ModuleKind};
use dams_diversity::{DiversityRequirement, HtId, RingIndex, RingSet, TokenId, TokenUniverse};

/// How tokens are assigned to historical transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HtModel {
    /// The paper's model: HT index = round(N(0, σ²)).
    Normal { sigma: f64 },
    /// A Zipf-like skew: HT `k` drawn with probability ∝ `1/(k+1)^s` over
    /// `hts` buckets — an extension axis modelling the heavy-tailed
    /// transaction-output skew seen on real chains.
    Zipf { hts: usize, s: f64 },
}

/// Table 3 parameters (defaults are the paper's bold values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// `|S|` — number of super RSs.
    pub num_super: usize,
    /// `[s⁻, s⁺]` — inclusive size range of each super RS.
    pub super_size: (usize, usize),
    /// `|F|` — number of fresh tokens.
    pub num_fresh: usize,
    /// σ — the standard deviation of the HT assignment normal (used when
    /// [`Self::ht_model`] is `Normal`; kept as a top-level field because
    /// it is the Table 3 sweep axis).
    pub sigma: f64,
    /// The HT assignment model; `None` means `Normal { sigma }`.
    pub ht_model: Option<HtModel>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_super: 50,
            super_size: (10, 20),
            num_fresh: 10,
            sigma: 12.0,
            ht_model: None,
        }
    }
}

impl SyntheticConfig {
    /// Generate a modular instance (the natural product: Table 3 speaks in
    /// super RSs and fresh tokens directly).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> ModularInstance {
        assert!(self.super_size.0 >= 1 && self.super_size.0 <= self.super_size.1);
        // Draw module sizes first to know the token count.
        let sizes: Vec<usize> = (0..self.num_super)
            .map(|_| rng.gen_range(self.super_size.0..=self.super_size.1))
            .collect();
        let total: usize = sizes.iter().sum::<usize>() + self.num_fresh;

        // HT per token from the configured model, shifted to dense ids.
        let model = self
            .ht_model
            .unwrap_or(HtModel::Normal { sigma: self.sigma });
        let raw: Vec<i64> = match model {
            HtModel::Normal { sigma } => (0..total)
                .map(|_| (normal_sample(rng) * sigma).round() as i64)
                .collect(),
            HtModel::Zipf { hts, s } => {
                // Inverse-CDF sampling over the truncated Zipf weights.
                let weights: Vec<f64> = (0..hts.max(1))
                    .map(|k| 1.0 / ((k + 1) as f64).powf(s))
                    .collect();
                let total_w: f64 = weights.iter().sum();
                (0..total)
                    .map(|_| {
                        let mut u = rng.gen_range(0.0..total_w);
                        let mut k = 0usize;
                        for (i, w) in weights.iter().enumerate() {
                            if u < *w {
                                k = i;
                                break;
                            }
                            u -= w;
                            k = i;
                        }
                        k as i64
                    })
                    .collect()
            }
        };
        let min = raw.iter().copied().min().unwrap_or(0);
        let universe =
            TokenUniverse::new(raw.into_iter().map(|v| HtId((v - min) as u32)).collect());

        // Partition tokens into modules: contiguous id blocks are fine —
        // HT assignment is already random, so block membership is
        // independent of HT.
        let mut modules = Vec::with_capacity(self.num_super + self.num_fresh);
        let mut next = 0u32;
        for (i, &sz) in sizes.iter().enumerate() {
            let tokens: RingSet = (next..next + sz as u32).map(TokenId).collect();
            next += sz as u32;
            modules.push(Module {
                id: ModuleId(i),
                kind: ModuleKind::SuperRs(dams_diversity::RsId(i as u32)),
                tokens,
            });
        }
        for j in 0..self.num_fresh {
            modules.push(Module {
                id: ModuleId(self.num_super + j),
                kind: ModuleKind::FreshToken,
                tokens: RingSet::new([TokenId(next)]),
            });
            next += 1;
        }
        ModularInstance::from_modules(universe, modules)
    }

    /// Generate the equivalent raw [`Instance`] (for the exact BFS path):
    /// super RSs become committed rings with the given claimed requirement.
    pub fn generate_instance<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        claim: DiversityRequirement,
    ) -> Instance {
        let modular = self.generate(rng);
        let rings = RingIndex::from_rings(
            modular
                .modules()
                .iter()
                .filter(|m| matches!(m.kind, ModuleKind::SuperRs(_)))
                .map(|m| m.tokens.clone()),
        );
        let claims = vec![claim; rings.len()];
        Instance::new(modular.universe.clone(), rings, claims)
    }
}

/// A small-universe generator for exact-algorithm experiments (Fig. 4 uses
/// 20 tokens): `n` tokens, HTs via the same normal assignment, no
/// pre-existing rings.
pub fn small_universe<R: Rng + ?Sized>(n: usize, sigma: f64, rng: &mut R) -> TokenUniverse {
    let raw: Vec<i64> = (0..n)
        .map(|_| (normal_sample(rng) * sigma).round() as i64)
        .collect();
    let min = raw.iter().copied().min().unwrap_or(0);
    TokenUniverse::new(raw.into_iter().map(|v| HtId((v - min) as u32)).collect())
}

/// A standard-normal sample via Box–Muller (keeps the dependency footprint
/// to `rand` itself; `rand_distr` is not on the approved crate list).
fn normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_matches_table3_bold_values() {
        let c = SyntheticConfig::default();
        assert_eq!(c.num_super, 50);
        assert_eq!(c.super_size, (10, 20));
        assert_eq!(c.num_fresh, 10);
        assert_eq!(c.sigma, 12.0);
    }

    #[test]
    fn generated_structure_matches_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SyntheticConfig {
            num_super: 7,
            super_size: (3, 5),
            num_fresh: 4,
            sigma: 8.0,
            ht_model: None,
        };
        let inst = cfg.generate(&mut rng);
        assert_eq!(inst.super_count(), 7);
        assert_eq!(inst.fresh_count(), 4);
        for m in inst.modules() {
            match m.kind {
                ModuleKind::SuperRs(_) => {
                    assert!((3..=5).contains(&m.len()), "{m:?}");
                }
                ModuleKind::FreshToken => assert_eq!(m.len(), 1),
            }
        }
        let expect_tokens: usize = inst.modules().iter().map(Module::len).sum();
        assert_eq!(inst.universe.len(), expect_tokens);
    }

    #[test]
    fn sigma_controls_ht_concentration() {
        // Smaller σ → the most frequent HT appears more often.
        let mut rng = StdRng::seed_from_u64(2);
        let narrow = SyntheticConfig {
            sigma: 2.0,
            ..Default::default()
        }
        .generate(&mut rng);
        let wide = SyntheticConfig {
            sigma: 30.0,
            ..Default::default()
        }
        .generate(&mut rng);
        assert!(
            narrow.q_max() > wide.q_max(),
            "narrow {} vs wide {}",
            narrow.q_max(),
            wide.q_max()
        );
    }

    #[test]
    fn paper_scale_sanity() {
        // σ = 16, ~800 tokens → busiest HT ≈ 16 tokens (the Monero max).
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SyntheticConfig {
            num_super: 53,
            super_size: (15, 15),
            num_fresh: 5,
            sigma: 16.0,
            ht_model: None,
        };
        let inst = cfg.generate(&mut rng);
        assert_eq!(inst.universe.len(), 800);
        // Central bucket expectation: 800 · P(round(N(0,16)) = 0) ≈ 20,
        // Poisson-ish spread; the paper quotes "around 16" for Monero.
        let q = inst.q_max();
        assert!((8..=36).contains(&q), "q_max = {q} out of plausible band");
    }

    #[test]
    fn instance_view_matches_modular() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SyntheticConfig {
            num_super: 5,
            super_size: (2, 4),
            num_fresh: 3,
            sigma: 8.0,
            ht_model: None,
        };
        let claim = DiversityRequirement::new(1.0, 2);
        let inst = cfg.generate_instance(&mut rng, claim);
        assert_eq!(inst.rings.len(), 5);
        // decomposing the raw instance recovers a modular view with the
        // same super count
        let modular = ModularInstance::decompose(&inst).unwrap();
        assert_eq!(modular.super_count(), 5);
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = SyntheticConfig::default();
        let a = cfg.generate(&mut StdRng::seed_from_u64(9));
        let b = cfg.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.universe.len(), b.universe.len());
        assert_eq!(a.q_max(), b.q_max());
    }

    #[test]
    fn zipf_model_skews_toward_low_hts() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = SyntheticConfig {
            num_super: 20,
            super_size: (10, 10),
            num_fresh: 0,
            sigma: 12.0,
            ht_model: Some(HtModel::Zipf { hts: 30, s: 1.2 }),
        };
        let inst = cfg.generate(&mut rng);
        assert_eq!(inst.universe.len(), 200);
        // Zipf head dominates: the busiest HT holds far more than uniform.
        let q = inst.q_max();
        assert!(q > 200 / 30 * 2, "q_max = {q} not Zipf-skewed");
        // All HT ids stay within the configured bucket count.
        assert!(inst.universe.distinct_hts() <= 30);
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let cfg = SyntheticConfig {
            ht_model: Some(HtModel::Zipf { hts: 10, s: 1.0 }),
            ..Default::default()
        };
        let a = cfg.generate(&mut StdRng::seed_from_u64(8));
        let b = cfg.generate(&mut StdRng::seed_from_u64(8));
        assert_eq!(a.q_max(), b.q_max());
    }

    #[test]
    fn small_universe_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = small_universe(20, 3.0, &mut rng);
        assert_eq!(u.len(), 20);
        assert!(u.distinct_hts() >= 2);
    }
}
