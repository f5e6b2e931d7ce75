//! Experiment definitions: one function per paper figure/table, each
//! returning printable rows. The defaults mirror Tables 2 and 3; the
//! sample count is configurable (the paper uses 1000 per point). This
//! module is the one timer of the paper's figures: [`measure`] times the
//! selections of Figures 5–10 and [`fig4`] the exact BFS of Figure 4.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    bfs, BfsBudget, Instance, ModularInstance, PracticalAlgorithm, SelectionPolicy, TokenMagic,
};
use dams_diversity::{DiversityRequirement, RingIndex, TokenId};
use dams_workload::{monero_snapshot, output_histogram, SyntheticConfig};

/// The four practical approaches compared throughout §7.
pub const APPROACHES: [PracticalAlgorithm; 4] = [
    PracticalAlgorithm::Smallest,
    PracticalAlgorithm::Random,
    PracticalAlgorithm::Progressive,
    PracticalAlgorithm::GameTheoretic,
];

/// Table 2 defaults (real data).
pub const REAL_DEFAULT_C: f64 = 0.6;
pub const REAL_DEFAULT_L: usize = 40;
/// Table 2 sweeps.
pub const REAL_C_VALUES: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
pub const REAL_L_VALUES: [usize; 5] = [20, 30, 40, 50, 60];

/// Synthetic sweeps (Table 3).
pub const SYN_SUPER_SIZE: [(usize, usize); 5] = [(1, 10), (5, 15), (10, 20), (15, 25), (20, 30)];
pub const SYN_NUM_SUPER: [usize; 5] = [10, 30, 50, 70, 90];
pub const SYN_NUM_FRESH: [usize; 5] = [0, 5, 10, 15, 20];
pub const SYN_SIGMA: [f64; 5] = [8.0, 10.0, 12.0, 14.0, 16.0];
/// The synthetic experiments use a requirement scaled to the smaller
/// synthetic universes (the paper's Table 3 lists no separate grid).
pub const SYN_DEFAULT_C: f64 = 0.6;
pub const SYN_DEFAULT_L: usize = 20;

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

/// One row of a figure: the x value and the per-approach measurements in
/// `APPROACHES` order.
#[derive(Debug, Clone)]
pub struct FigureRow {
    pub x: String,
    pub points: Vec<MeasuredPoint>,
}

/// A complete figure: label, x-axis name, rows.
#[derive(Debug, Clone)]
pub struct Figure {
    pub name: &'static str,
    pub x_axis: &'static str,
    pub rows: Vec<FigureRow>,
}

/// Run one sweep: for each x value, measure all four approaches.
fn sweep<F>(
    name: &'static str,
    x_axis: &'static str,
    samples: usize,
    xs: Vec<(String, SelectionPolicy, F)>,
) -> Figure
where
    F: Fn(usize, &mut StdRng) -> ModularInstance + Clone,
{
    let mut rows = Vec::with_capacity(xs.len());
    for (i, (x, policy, make)) in xs.into_iter().enumerate() {
        let points = APPROACHES
            .iter()
            .enumerate()
            .map(|(a, &alg)| {
                measure(
                    alg,
                    policy,
                    samples,
                    0xDA05 + i as u64 * 31 + a as u64,
                    make.clone(),
                )
            })
            .collect();
        rows.push(FigureRow { x, points });
    }
    Figure { name, x_axis, rows }
}

fn real_policy(c: f64, l: usize) -> SelectionPolicy {
    SelectionPolicy::new(DiversityRequirement::new(c, l))
}

fn syn_policy() -> SelectionPolicy {
    SelectionPolicy::new(DiversityRequirement::new(SYN_DEFAULT_C, SYN_DEFAULT_L))
}

/// Figure 3: the outputs-per-transaction histogram of the (simulated)
/// Monero snapshot. Pure data; returned as `(outputs, count)` rows.
pub fn fig3() -> Vec<(usize, usize)> {
    output_histogram()
}

/// Figure 5: effect of c on the real data set.
pub fn fig5(samples: usize) -> Figure {
    sweep(
        "fig5",
        "c",
        samples,
        REAL_C_VALUES
            .iter()
            .map(|&c| {
                (
                    format!("{c}"),
                    real_policy(c, REAL_DEFAULT_L),
                    move |_s: usize, rng: &mut StdRng| monero_snapshot(rng),
                )
            })
            .collect(),
    )
}

/// Figure 6: effect of ℓ on the real data set.
pub fn fig6(samples: usize) -> Figure {
    sweep(
        "fig6",
        "l",
        samples,
        REAL_L_VALUES
            .iter()
            .map(|&l| {
                (
                    format!("{l}"),
                    real_policy(REAL_DEFAULT_C, l),
                    move |_s: usize, rng: &mut StdRng| monero_snapshot(rng),
                )
            })
            .collect(),
    )
}

/// Figure 7: effect of σ (synthetic).
pub fn fig7(samples: usize) -> Figure {
    sweep(
        "fig7",
        "sigma",
        samples,
        SYN_SIGMA
            .iter()
            .map(|&sigma| {
                let cfg = SyntheticConfig {
                    sigma,
                    ..Default::default()
                };
                (
                    format!("{sigma}"),
                    syn_policy(),
                    move |_s: usize, rng: &mut StdRng| cfg.generate(rng),
                )
            })
            .collect(),
    )
}

/// Figure 8: effect of the number of super RSs |S| (synthetic).
pub fn fig8(samples: usize) -> Figure {
    sweep(
        "fig8",
        "|S|",
        samples,
        SYN_NUM_SUPER
            .iter()
            .map(|&num_super| {
                let cfg = SyntheticConfig {
                    num_super,
                    ..Default::default()
                };
                (
                    format!("{num_super}"),
                    syn_policy(),
                    move |_s: usize, rng: &mut StdRng| cfg.generate(rng),
                )
            })
            .collect(),
    )
}

/// Figure 9: effect of the super-RS size range |s_i| (synthetic).
pub fn fig9(samples: usize) -> Figure {
    sweep(
        "fig9",
        "|s_i|",
        samples,
        SYN_SUPER_SIZE
            .iter()
            .map(|&super_size| {
                let cfg = SyntheticConfig {
                    super_size,
                    ..Default::default()
                };
                (
                    format!("[{},{}]", super_size.0, super_size.1),
                    syn_policy(),
                    move |_s: usize, rng: &mut StdRng| cfg.generate(rng),
                )
            })
            .collect(),
    )
}

/// Figure 10: effect of the fresh-token count |F| (synthetic).
pub fn fig10(samples: usize) -> Figure {
    sweep(
        "fig10",
        "|F|",
        samples,
        SYN_NUM_FRESH
            .iter()
            .map(|&num_fresh| {
                let cfg = SyntheticConfig {
                    num_fresh,
                    ..Default::default()
                };
                (
                    format!("{num_fresh}"),
                    syn_policy(),
                    move |_s: usize, rng: &mut StdRng| cfg.generate(rng),
                )
            })
            .collect(),
    )
}

/// One Figure 4 point: the index of the generated RS and the BFS time.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    pub rs_index: usize,
    pub micros: f64,
    pub ring_size: Option<usize>,
}

/// Figure 4: sequential TM_B (exact BFS) generation on a 20-token universe
/// with recursive (5, 3)-diversity, reporting the time of the i-th RS.
///
/// `max_rs` bounds the sequence; `budget` bounds each search. A failure
/// (infeasible / budget exhausted) ends the sequence — the paper's point
/// is precisely that per-RS cost explodes.
pub fn fig4(max_rs: usize, budget: BfsBudget, seed: u64) -> Vec<Fig4Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = dams_workload::small_universe(20, 3.0, &mut rng);
    let req = DiversityRequirement::new(5.0, 3);
    // Theorem 6.4 semantics for the standing claims: a ring generated at
    // (c, ℓ) guarantees its DTRSs at (c, ℓ−1) — a DTRS token set drops one
    // whole HT, so demanding the full ℓ of every DTRS would make any batch
    // where pinning becomes possible permanently infeasible (the minimum
    // rings span exactly ℓ HTs and their DTRSs exactly ℓ−1).
    let claim = DiversityRequirement::new(req.c, (req.l - 1).max(1));
    let mut rings = RingIndex::new();
    let mut claims = Vec::new();
    let mut out = Vec::new();

    for i in 0..max_rs {
        // Consume tokens in id order: token i is the i-th spend.
        let target = TokenId(i as u32);
        let instance = Instance::new(universe.clone(), rings.clone(), claims.clone());
        let start = Instant::now();
        let result = bfs(&instance, target, req, budget);
        let micros = start.elapsed().as_nanos() as f64 / 1_000.0;
        match result {
            Ok(sel) => {
                out.push(Fig4Point {
                    rs_index: i + 1,
                    micros,
                    ring_size: Some(sel.size()),
                });
                rings.push(sel.ring);
                claims.push(claim);
            }
            Err(_) => {
                out.push(Fig4Point {
                    rs_index: i + 1,
                    micros,
                    ring_size: None,
                });
                break;
            }
        }
    }
    out
}

/// One η-ablation row: η, commits, guard refusals, failures, resolved.
#[derive(Debug, Clone, Copy)]
pub struct EtaRow {
    pub eta: f64,
    pub committed: usize,
    pub guard_refusals: usize,
    pub failures: usize,
    pub resolved_at_end: usize,
}

/// The η-guard ablation (this reproduction's addition, motivated by §4's
/// stranding discussion): simulate a batch lifetime at several η values
/// and report how the guard trades commit throughput for batch health.
pub fn eta_ablation(spends: usize, seed: u64) -> Vec<EtaRow> {
    use dams_workload::{simulate_batch, SimulationConfig};
    let universe = dams_diversity::TokenUniverse::new(
        (0..60u32).map(|i| dams_diversity::HtId(i / 3)).collect(),
    );
    // The guard inequality `i − μ_i ≥ η·(|T| − i)` binds hardest at the
    // first spend (i = 1, |T| − i ≈ |T|), so meaningful η values sit near
    // 1/|T|; larger values refuse the whole batch from the start.
    [0.0, 0.005, 0.01, 0.02, 0.05]
        .iter()
        .map(|&eta| {
            let out = simulate_batch(
                &universe,
                SimulationConfig {
                    algorithm: PracticalAlgorithm::Progressive,
                    policy: SelectionPolicy::new(DiversityRequirement::new(1.0, 5)),
                    eta,
                    spends,
                    seed,
                },
            );
            EtaRow {
                eta,
                committed: out.committed,
                guard_refusals: out.guard_refusals,
                failures: out.failures,
                resolved_at_end: out.resolved_at_end,
            }
        })
        .collect()
}

/// One row of the related-set growth experiment.
#[derive(Debug, Clone, Copy)]
pub struct RelatedGrowthRow {
    /// Committed rings so far.
    pub rings: usize,
    /// Mean related-set size when mixins are drawn chain-wide.
    pub global_mean: f64,
    /// Mean related-set size under TokenMagic batching (λ = 64).
    pub batched_mean: f64,
}

/// §4's motivation, measured: without batching, the related RS set of a
/// new ring grows with the whole chain (toward "all RSs on the
/// blockchain"); with TokenMagic batches it stays bounded by the batch.
pub fn related_growth(max_rings: usize, seed: u64) -> Vec<RelatedGrowthRow> {
    use dams_diversity::RingSet;

    let lambda = 64u32;
    let ring_size = 8usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut global = RingIndex::new();
    let mut batched = RingIndex::new();
    let mut rows = Vec::new();

    for i in 1..=max_rings {
        // Universe grows with the chain: 16 fresh tokens per committed ring.
        let universe_size = (i as u32 + 1) * 16;
        // Global selection: mixins uniformly over the whole chain.
        let g_ring: RingSet = (0..ring_size)
            .map(|_| TokenId(rng.gen_range(0..universe_size)))
            .collect();
        // Batched selection: mixins confined to the spent token's batch.
        let batch_index = rng.gen_range(0..universe_size.div_ceil(lambda));
        let lo = batch_index * lambda;
        let hi = ((batch_index + 1) * lambda).min(universe_size);
        let b_ring: RingSet = (0..ring_size)
            .map(|_| TokenId(rng.gen_range(lo..hi)))
            .collect();

        let g_rel = global.related_set(&g_ring, None).len();
        let b_rel = batched.related_set(&b_ring, None).len();
        global.push(g_ring);
        batched.push(b_ring);

        if i % (max_rings / 8).max(1) == 0 {
            rows.push(RelatedGrowthRow {
                rings: i,
                global_mean: g_rel as f64,
                batched_mean: b_rel as f64,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = measure(PracticalAlgorithm::Smallest, policy(), 10, 7, |_, rng| {
            cfg.generate(rng)
        });
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

    #[test]
    fn related_growth_shows_batching_bound() {
        let rows = related_growth(160, 3);
        let last = rows.last().expect("rows produced");
        assert!(
            last.global_mean > last.batched_mean,
            "batching must bound the related set: {rows:?}"
        );
    }

    #[test]
    fn eta_ablation_produces_rows() {
        let rows = eta_ablation(4, 1);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].eta, 0.0);
    }

    #[test]
    fn fig3_histogram_is_papers() {
        let h = fig3();
        let txs: usize = h.iter().map(|(_, n)| n).sum();
        let tokens: usize = h.iter().map(|(o, n)| o * n).sum();
        assert_eq!(txs, 285);
        assert_eq!(tokens, 633);
    }

    #[test]
    fn fig4_first_points_succeed() {
        let pts = fig4(2, BfsBudget::default(), 1);
        assert!(!pts.is_empty());
        assert_eq!(pts[0].rs_index, 1);
        assert!(pts[0].ring_size.is_some(), "{pts:?}");
    }

    #[test]
    fn small_sweep_has_all_approaches() {
        let f = fig8(2);
        assert_eq!(f.rows.len(), SYN_NUM_SUPER.len());
        for row in &f.rows {
            assert_eq!(row.points.len(), APPROACHES.len());
        }
    }
}
