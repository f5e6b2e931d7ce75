//! Experiment-instance sampling: the paper samples 1000 problem instances
//! per configuration point and reports mean ring size and running time.
//! This module provides the sampling loop the figure harness
//! (`dams_bench::series`) times selections with.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{ModularInstance, PracticalAlgorithm, SelectionPolicy, TokenMagic};
use dams_diversity::TokenId;

/// One measured point: mean ring size and mean per-selection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// Mean |r_τ| over successful selections.
    pub mean_size: f64,
    /// Mean wall time per selection in microseconds.
    pub mean_micros: f64,
    /// Number of successful selections (failures excluded, counted apart).
    pub successes: usize,
    /// Number of infeasible/failed selections.
    pub failures: usize,
}

/// Run `samples` selections of `algorithm` on instances produced by
/// `make_instance`, each time targeting a random token.
///
/// `make_instance` receives the sample index so callers can regenerate a
/// fresh instance per sample (the paper's methodology) or reuse one.
pub fn measure<F>(
    algorithm: PracticalAlgorithm,
    policy: SelectionPolicy,
    samples: usize,
    seed: u64,
    mut make_instance: F,
) -> MeasuredPoint
where
    F: FnMut(usize, &mut StdRng) -> ModularInstance,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_size = 0usize;
    let mut total_nanos = 0u128;
    let mut successes = 0usize;
    let mut failures = 0usize;

    for sample in 0..samples {
        let instance = make_instance(sample, &mut rng);
        let target = TokenId(rng.gen_range(0..instance.universe.len() as u32));
        let tm = TokenMagic::new(algorithm, policy);
        let start = Instant::now();
        // Direct per-token selection: the figure experiments time the
        // selection algorithm itself (Algorithm 1's outer loop runs the
        // same algorithm |T| times and would only scale all curves by |T|).
        let result = tm.select_for(&instance, target, &mut rng);
        let elapsed = start.elapsed().as_nanos();
        match result {
            Ok(sel) => {
                total_size += sel.size();
                total_nanos += elapsed;
                successes += 1;
            }
            Err(_) => failures += 1,
        }
    }

    MeasuredPoint {
        mean_size: if successes > 0 {
            total_size as f64 / successes as f64
        } else {
            f64::NAN
        },
        mean_micros: if successes > 0 {
            total_nanos as f64 / successes as f64 / 1_000.0
        } else {
            f64::NAN
        },
        successes,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use dams_diversity::DiversityRequirement;

    fn policy() -> SelectionPolicy {
        SelectionPolicy::new(DiversityRequirement::new(0.6, 10))
    }

    #[test]
    fn measure_reports_successes() {
        let cfg = SyntheticConfig {
            num_super: 10,
            super_size: (3, 6),
            num_fresh: 5,
            sigma: 8.0,
            ht_model: None,
        };
        let p = measure(
            PracticalAlgorithm::Smallest,
            policy(),
            10,
            7,
            |_, rng| cfg.generate(rng),
        );
        assert_eq!(p.successes + p.failures, 10);
        if p.successes > 0 {
            assert!(p.mean_size >= 1.0);
            assert!(p.mean_micros > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig {
            num_super: 8,
            super_size: (2, 4),
            num_fresh: 2,
            sigma: 6.0,
            ht_model: None,
        };
        let a = measure(PracticalAlgorithm::Progressive, policy(), 5, 3, |_, rng| {
            cfg.generate(rng)
        });
        let b = measure(PracticalAlgorithm::Progressive, policy(), 5, 3, |_, rng| {
            cfg.generate(rng)
        });
        assert_eq!(a.mean_size.to_bits(), b.mean_size.to_bits());
        assert_eq!(a.successes, b.successes);
    }
}
