//! The streaming soak harness: grow a chain from 10³ to 10⁶ tokens and
//! prove the service's per-request latency does **not** grow with it.
//!
//! Each phase (a target chain size) has two halves:
//!
//! 1. **Grow** — stream [`BlockDelta`](dams_core::BlockDelta)s from the constant-memory
//!    [`ChainStream`] into a [`DiversityIndex`] until the chain reaches
//!    the phase's token count, recording the per-block maintenance cost
//!    the index reports (`IndexStats::last_block_ops`).
//! 2. **Serve** — fire a fixed number of admission-controlled selections
//!    through one [`Frontend`] (one breaker, one tick economy) at
//!    uniformly random tokens. Each request resolves its batch snapshot
//!    from the index and runs the degrade ladder against the *maintained*
//!    module partition — no per-request decomposition, no O(chain) work.
//!
//! The flatness gate compares the **deterministic work counters**
//! (diversity checks + candidates examined) across phases, so the
//! pass/fail signal does not depend on machine speed, and the whole
//! report replays byte-identically from its seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{DiversityIndex, Instance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, TokenId, TokenUniverse};
use dams_obs::json::{Document, Object, Value};
use dams_obs::Registry;
use dams_workload::{ChainStream, StreamConfig};

use crate::frontend::{Frontend, FrontendConfig};

/// One soak scenario: phase sizes, per-phase request count, and the
/// streamed chain's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    pub seed: u64,
    /// TokenMagic batch parameter λ.
    pub lambda: usize,
    /// Token counts at which to stop growing and measure a phase.
    pub phases: Vec<u64>,
    /// Selections measured per phase.
    pub requests_per_phase: usize,
    /// Per-request deadline budget in virtual ticks. Sized to clear the
    /// frontend reserve plus a small exact grant, so requests answer at
    /// the approximation tiers with a bounded exact attempt first —
    /// per-request work is then a function of *batch* size only.
    pub budget_ticks: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 0,
            lambda: 64,
            phases: vec![1_000, 10_000, 100_000, 1_000_000],
            requests_per_phase: 200,
            budget_ticks: 128,
        }
    }
}

/// Measurements of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakPhase {
    /// Chain size (tokens) when this phase was measured.
    pub tokens: u64,
    /// Blocks applied so far.
    pub blocks: u64,
    /// Batches the index maintains.
    pub batches: usize,
    /// Requests completed / shed in this phase.
    pub completed: u64,
    pub shed: u64,
    /// Index maintenance cost over this phase's growth: per-block
    /// structural operations (O(Δ) claim — must not grow with the chain).
    pub max_block_ops: u64,
    pub mean_block_ops: f64,
    /// Deterministic per-request work (diversity checks + candidates
    /// examined): the machine-independent flatness signal.
    pub p50_work: u64,
    pub p99_work: u64,
}

/// The whole soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    pub lambda: usize,
    pub seed: u64,
    pub phases: Vec<SoakPhase>,
}

impl SoakReport {
    /// The flat-p99 gate: every phase's deterministic p99 work must stay
    /// within `tolerance`× the first phase's (e.g. 1.5). Uses work
    /// counters, not nanoseconds, so the gate is machine-independent.
    pub fn p99_flat(&self, tolerance: f64) -> bool {
        let Some(first) = self.phases.first() else {
            return false;
        };
        let limit = (first.p99_work.max(1) as f64 * tolerance).ceil() as u64;
        self.phases.iter().all(|p| p.p99_work <= limit)
    }

    /// The O(Δ) maintenance gate: the worst per-block cost of the last
    /// phase must stay within `tolerance`× the first phase's.
    pub fn maintenance_flat(&self, tolerance: f64) -> bool {
        let Some(first) = self.phases.first() else {
            return false;
        };
        let limit = (first.max_block_ops.max(1) as f64 * tolerance).ceil() as u64;
        self.phases.iter().all(|p| p.max_block_ops <= limit)
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx]
}

/// Run one seeded soak scenario.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let stream_cfg = StreamConfig {
        seed: cfg.seed,
        lambda: cfg.lambda,
        ..StreamConfig::default()
    };
    let mut stream = ChainStream::new(stream_cfg);
    let mut index = DiversityIndex::new(cfg.lambda);

    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 2));
    let registry = Registry::new();
    // The frontend is anchored to a placeholder; every request routes
    // through `select_on` with its target's batch snapshot.
    let anchor = Instance::fresh(TokenUniverse::new(Vec::new()));
    let mut frontend = Frontend::new(&anchor, policy, FrontendConfig::default(), &registry);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SOAK_DOMAIN);

    let mut phases = Vec::with_capacity(cfg.phases.len());
    for &target_tokens in &cfg.phases {
        // Grow, tracking this phase's per-block maintenance cost.
        let mut max_block_ops = 0u64;
        let mut phase_ops = 0u64;
        let mut phase_blocks = 0u64;
        while index.token_count() < target_tokens {
            let delta = stream.next_block();
            index.apply_block(&delta).expect("stream is contiguous");
            let ops = index.stats().last_block_ops;
            max_block_ops = max_block_ops.max(ops);
            phase_ops += ops;
            phase_blocks += 1;
        }

        // Serve.
        let mut work = Vec::with_capacity(cfg.requests_per_phase);
        let mut completed = 0u64;
        let mut shed = 0u64;
        for _ in 0..cfg.requests_per_phase {
            let token = rng.gen_range(0..index.token_count());
            let batch = index.batch_of(token).expect("token is indexed");
            let snap = index.snapshot(batch).expect("indexed batch");
            let local = snap
                .tokens
                .binary_search(&token)
                .expect("token in its batch");
            let outcome = frontend.select_on(
                &snap.instance,
                snap.modular.as_ref(),
                TokenId(local as u32),
                cfg.budget_ticks,
                false,
            );
            match outcome {
                Ok(sel) => {
                    completed += 1;
                    work.push(
                        sel.selection.stats.diversity_checks
                            + sel.selection.stats.candidates_examined,
                    );
                }
                Err(_) => shed += 1,
            }
        }
        work.sort_unstable();

        phases.push(SoakPhase {
            tokens: index.token_count(),
            blocks: stream.blocks_emitted(),
            batches: index.batch_count(),
            completed,
            shed,
            max_block_ops,
            mean_block_ops: phase_ops as f64 / phase_blocks.max(1) as f64,
            p50_work: percentile(&work, 50),
            p99_work: percentile(&work, 99),
        });
    }

    SoakReport {
        lambda: cfg.lambda,
        seed: cfg.seed,
        phases,
    }
}

/// Render the soak report as the `BENCH_soak.json` artifact.
pub fn render_soak_json(cfg: &SoakConfig, report: &SoakReport) -> String {
    let phases = report.phases.iter().map(|p| {
        Object::new()
            .field("tokens", p.tokens)
            .field("blocks", p.blocks)
            .field("batches", p.batches)
            .field("completed", p.completed)
            .field("shed", p.shed)
            .field("max_block_ops", p.max_block_ops)
            .field("mean_block_ops", Value::Fixed(p.mean_block_ops, 2))
            .field("p50_work", p.p50_work)
            .field("p99_work", p.p99_work)
    });
    Document::new()
        .field("bench", "soak")
        .field("seed", report.seed)
        .field("lambda", report.lambda)
        .field("requests_per_phase", cfg.requests_per_phase)
        .field("p99_flat", report.p99_flat(P99_TOLERANCE))
        .field(
            "maintenance_flat",
            report.maintenance_flat(MAINTENANCE_TOLERANCE),
        )
        .rows("phases", phases)
        .render()
}

/// Gate: deterministic p99 work may grow at most 1.5× across three
/// decades of chain growth.
pub const P99_TOLERANCE: f64 = 1.5;
/// Gate: worst per-block maintenance cost may grow at most 2× (block
/// composition varies, chain length must not matter).
pub const MAINTENANCE_TOLERANCE: f64 = 2.0;

/// Domain separator for the soak's request-target stream.
const SOAK_DOMAIN: u64 = 0x0050_0ac0_dead_beef;

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SoakConfig {
        SoakConfig {
            seed: 7,
            lambda: 24,
            phases: vec![500, 2_000, 8_000],
            requests_per_phase: 64,
            budget_ticks: 128,
        }
    }

    #[test]
    fn soak_p99_stays_flat_across_growth() {
        let report = run_soak(&small());
        assert_eq!(report.phases.len(), 3);
        for p in &report.phases {
            assert!(p.completed > 0, "phase served nothing: {p:?}");
            assert!(p.max_block_ops > 0);
        }
        assert!(
            report.p99_flat(P99_TOLERANCE),
            "p99 work grew with the chain: {:?}",
            report.phases
        );
        assert!(
            report.maintenance_flat(MAINTENANCE_TOLERANCE),
            "per-block cost grew with the chain: {:?}",
            report.phases
        );
        // Chain actually grew an order of magnitude while p99 stayed put.
        assert!(report.phases[2].tokens >= 10 * report.phases[0].tokens);
    }

    #[test]
    fn soak_replays_byte_identically() {
        let cfg = small();
        let (a, b) = (run_soak(&cfg), run_soak(&cfg));
        assert_eq!(a, b);
        assert_eq!(render_soak_json(&cfg, &a), render_soak_json(&cfg, &b));
    }

    #[test]
    fn soak_json_has_the_required_shape() {
        let cfg = SoakConfig {
            phases: vec![300, 900],
            requests_per_phase: 16,
            ..small()
        };
        let report = run_soak(&cfg);
        let json = render_soak_json(&cfg, &report);
        for key in [
            "\"bench\": \"soak\"",
            "\"p99_flat\"",
            "\"maintenance_flat\"",
            "\"tokens\"",
            "\"max_block_ops\"",
            "\"p99_work\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
