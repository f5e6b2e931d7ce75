//! The "selection" bench figure: optimized engines vs. seed references.
//!
//! Two rows, both at fixed seeds so CI runs are comparable:
//!
//! * `exact_bfs` — a TokenMagic-style batch of exact-BFS selections over
//!   one frozen instance. Baseline: [`bfs_reference`] per target
//!   (clone-heavy seed engine). Optimized: [`bfs_batch`] with the
//!   incremental one-thread engine and a shared [`EvalCache`] — the
//!   engine the served paths run.
//! * `tm_g` — a batch of Game-theoretic selections on the Table 3
//!   synthetic workload. Baseline: [`game_theoretic_reference`] per
//!   target. Optimized: [`game_theoretic_with`] and a shared
//!   [`ProfileCache`].
//!
//! Every optimized run is asserted equal to its baseline before timing is
//! reported — the figure measures the same answers computed faster, never
//! different answers. Times are medians over several repeats; the
//! optimized side gets a *fresh* cache per repeat (a batch starts cold).
//! Chain-scale rows (10³ … 10⁶ tokens) live in `BENCH_soak.json`, which
//! the soak harness ([`dams_svc::run_soak`]) writes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{
    bfs_batch, bfs_reference, game_theoretic_reference, game_theoretic_with, BfsBudget, EvalCache,
    InitStrategy, Instance, ProfileCache, SelectError, Selection, SelectionPolicy,
};
use dams_diversity::{DiversityRequirement, HtId, RingIndex, RingSet, TokenId, TokenUniverse};
use dams_obs::json::{Document, Object, Value};
use dams_workload::SyntheticConfig;

/// Median-of-`repeats` wall-clock per side of one figure row.
const REPEATS: usize = 5;

/// One baseline/optimized comparison.
#[derive(Debug, Clone, Copy)]
pub struct FigureRow {
    /// Median wall-clock of the seed reference, nanoseconds.
    pub baseline_ns: u128,
    /// Median wall-clock of the optimized engine, nanoseconds.
    pub optimized_ns: u128,
}

impl FigureRow {
    /// `baseline / optimized` — how much faster the optimized engine is.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// The full figure: both engine rows plus the seed they were measured at.
#[derive(Debug, Clone)]
pub struct SelectionFigure {
    pub seed: u64,
    pub exact_bfs: FigureRow,
    pub tm_g: FigureRow,
}

impl SelectionFigure {
    /// Render as the `BENCH_selection.json` document.
    pub fn render_json(&self) -> String {
        let row = |r: &FigureRow| {
            Object::new()
                .field("baseline_ns", r.baseline_ns)
                .field("optimized_ns", r.optimized_ns)
                .field("speedup", Value::Fixed(r.speedup(), 3))
        };
        Document::new()
            .field("seed", self.seed)
            .field("exact_bfs", row(&self.exact_bfs))
            .field("tm_g", row(&self.tm_g))
            .render()
    }
}

fn median_ns<F: FnMut()>(mut f: F) -> u128 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[REPEATS / 2]
}

/// The exact-BFS workload: a mid-size flat instance where the search
/// enumerates thousands of candidate rings before the winning size, with
/// committed rings making world enumeration non-trivial.
fn bfs_workload(seed: u64) -> (Instance, Vec<TokenId>, DiversityRequirement, BfsBudget) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let n_tokens = 18u32;
    let n_hts = 5u32;
    // Round-robin base assignment guarantees every HT is populated (the
    // requirement below needs all five); the shuffle keeps it irregular.
    let mut hts: Vec<HtId> = (0..n_tokens).map(|i| HtId(i % n_hts)).collect();
    for i in (1..hts.len()).rev() {
        hts.swap(i, rng.gen_range(0..=i));
    }
    let universe = TokenUniverse::new(hts);

    let mut rings = RingIndex::new();
    let mut claims = Vec::new();
    for _ in 0..4 {
        let mut members = Vec::new();
        while members.len() < 3 {
            let t = TokenId(rng.gen_range(0..n_tokens));
            if !members.contains(&t) {
                members.push(t);
            }
        }
        rings.push(RingSet::new(members));
        // c = 2 with l = 1 is `q1 < 2·total`, always true — the committed
        // rings constrain world enumeration without ever being insoluble.
        claims.push(DiversityRequirement::new(2.0, 1));
    }

    let instance = Instance::new(universe, rings, claims);
    let targets: Vec<TokenId> = (0..10).map(TokenId).collect();
    // (0.5, 3) forces a perfectly spread 5-HT ring: every smaller or less
    // balanced candidate is enumerated and rejected first, so the search
    // does real work at every size.
    (instance, targets, DiversityRequirement::new(0.5, 3), BfsBudget::default())
}

/// Time the exact-BFS row at `seed`, asserting result equivalence first.
fn exact_bfs_row(seed: u64) -> FigureRow {
    let (instance, targets, req, budget) = bfs_workload(seed);

    let reference: Vec<Result<Selection, SelectError>> = targets
        .iter()
        .map(|&t| bfs_reference(&instance, t, req, budget))
        .collect();
    let cache = EvalCache::new();
    let optimized = bfs_batch(&instance, &targets, req, budget, Some(&cache));
    assert_eq!(reference, optimized, "optimized BFS diverged from the reference");

    let baseline_ns = median_ns(|| {
        for &t in &targets {
            std::hint::black_box(bfs_reference(&instance, t, req, budget).ok());
        }
    });
    let optimized_ns = median_ns(|| {
        let cache = EvalCache::new();
        std::hint::black_box(bfs_batch(&instance, &targets, req, budget, Some(&cache)));
    });
    FigureRow {
        baseline_ns,
        optimized_ns,
    }
}

/// Time the Game-theoretic row at `seed` on the Table 3 synthetic batch.
fn tm_g_row(seed: u64) -> FigureRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = SyntheticConfig::default().generate(&mut rng);
    let policy = SelectionPolicy::new(DiversityRequirement::new(0.6, 20));
    let targets: Vec<TokenId> = (0..24).map(TokenId).collect();
    let init = InitStrategy::CoverageGreedy;

    let reference: Vec<Result<Selection, SelectError>> = targets
        .iter()
        .map(|&t| game_theoretic_reference(&instance, t, policy, init))
        .collect();
    let cache = ProfileCache::new();
    let optimized: Vec<Result<Selection, SelectError>> = targets
        .iter()
        .map(|&t| game_theoretic_with(&instance, t, policy, init, Some(&cache)))
        .collect();
    assert_eq!(reference, optimized, "optimized TM_G diverged from the reference");

    let baseline_ns = median_ns(|| {
        for &t in &targets {
            std::hint::black_box(game_theoretic_reference(&instance, t, policy, init).ok());
        }
    });
    let optimized_ns = median_ns(|| {
        let cache = ProfileCache::new();
        for &t in &targets {
            std::hint::black_box(
                game_theoretic_with(&instance, t, policy, init, Some(&cache)).ok(),
            );
        }
    });
    FigureRow {
        baseline_ns,
        optimized_ns,
    }
}

/// Measure both engine rows at `seed`.
pub fn selection_figure(seed: u64) -> SelectionFigure {
    SelectionFigure {
        seed,
        exact_bfs: exact_bfs_row(seed),
        tm_g: tm_g_row(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_valid_shape() {
        let fig = SelectionFigure {
            seed: 1,
            exact_bfs: FigureRow {
                baseline_ns: 100,
                optimized_ns: 40,
            },
            tm_g: FigureRow {
                baseline_ns: 9,
                optimized_ns: 3,
            },
        };
        let json = fig.render_json();
        assert!(json.contains("\"exact_bfs\""));
        assert!(json.contains("\"speedup\": 2.500"));
        assert!(json.contains("\"speedup\": 3.000"));
    }

    #[test]
    fn bfs_workload_is_feasible_and_deterministic() {
        let (instance, targets, req, budget) = bfs_workload(42);
        let (instance2, ..) = bfs_workload(42);
        assert_eq!(instance.universe.len(), instance2.universe.len());
        // At least one target must be solvable so the figure measures
        // real search work, not six instant failures.
        let solved = targets
            .iter()
            .filter(|&&t| bfs_reference(&instance, t, req, budget).is_ok())
            .count();
        assert!(solved > 0, "workload insoluble for every target");
    }
}
