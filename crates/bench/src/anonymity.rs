//! The `BENCH_anonymity.json` figure: anonymity loss versus adversary
//! strength, per degrade-ladder tier, attack-aware versus baseline
//! sampling — plus the floor-gated admission sweep.
//!
//! Three measurements, one seed:
//!
//! 1. **Tier grid** — for every ladder tier, measure the ring size that
//!    tier actually produces, generate realistic chains at that ring size
//!    under both sampling modes, and replay the seeded adversary suite
//!    ([`dams_diversity::run_attack`]) at strengths `f = 0..=3`. Each row
//!    reports the effective anonymity-set size (mean/min candidates, HT
//!    entropy), the deanonymized fraction, and the taint-cascade depth.
//! 2. **Score calibration** — the measured effective anonymity at the
//!    strength-1 reference adversary, rounded down, is what
//!    [`Tier::anonymity_score`] declares. The gate refuses a declared
//!    score the measurement cannot back.
//! 3. **Floor sweep** — 64 seeds of floored requests through the
//!    [`Frontend`] (per-request: the answering tier's score must meet the
//!    declared floor) and through the overloaded [`Service`] (floor
//!    violations shed as the typed `ShedReason::AnonymityFloor`, never
//!    answered). Under overload the system degrades latency, never
//!    privacy.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    select_with_ladder_exec, BfsBudget, CoreMetrics, Instance, LadderExec, SamplingMode,
    SelectionPolicy, Tier,
};
use dams_diversity::{
    ring, run_attack, AttackConfig, AttackReport, DiversityRequirement, HtId, RingIndex, TokenId,
    TokenUniverse,
};
use dams_obs::json::{Document, Object, Value};
use dams_obs::Registry;
use dams_svc::{
    build_arrivals, calibrate, service_config, Frontend, FrontendConfig, OverloadConfig, Request,
    Service, ShedReason,
};
use dams_workload::{generate_attack_trace, AttackTraceConfig};

/// Adversary strengths every grid cell is measured at.
pub const STRENGTHS: [u32; 4] = [0, 1, 2, 3];

/// The strength the tier scores are calibrated against.
pub const REFERENCE_STRENGTH: u32 = 1;

/// Seeds in the floor-gated admission sweep.
pub const FLOOR_SWEEP_SEEDS: u64 = 64;

/// One (tier, mode, strength) cell of the grid.
#[derive(Debug, Clone)]
pub struct TierRow {
    pub tier: Tier,
    pub mode: SamplingMode,
    pub strength: u32,
    pub ring_size: usize,
    pub rings: usize,
    pub deanonymized: usize,
    pub deanonymized_fraction: f64,
    pub mean_candidates: f64,
    pub min_candidates: usize,
    pub mean_ht_entropy_bits: f64,
    pub cascade_depth: u64,
}

/// Per-tier calibration: the ring size the tier produces and the
/// measured-vs-declared anonymity score.
#[derive(Debug, Clone, Copy)]
pub struct TierCalibration {
    pub tier: Tier,
    pub ring_size: usize,
    /// `floor(mean_candidates)` of the attack-aware trace under the
    /// reference adversary.
    pub measured_score: u32,
    pub declared_score: u32,
}

/// Aggregates of the 64-seed floored-admission sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloorSweep {
    pub seeds: u64,
    /// Frontend: requests answered / shed by floor across all seeds.
    pub answered: u64,
    pub shed_anonymity_floor: u64,
    /// Answered requests whose tier score was below the declared floor —
    /// the property the gate pins at zero.
    pub answered_below_floor: u64,
    /// Overloaded service: typed floor sheds across all seeds, and
    /// whether `completed + failed + shed == offered` held in every run.
    pub service_shed_anonymity_floor: u64,
    pub service_accounting_ok: bool,
}

/// Everything `dams-cli bench --anonymity` writes and gates on.
#[derive(Debug, Clone)]
pub struct AnonymityFigure {
    pub seed: u64,
    pub tiers: Vec<TierCalibration>,
    pub rows: Vec<TierRow>,
    pub floor: FloorSweep,
    /// Same seed, same config, byte-identical attack report.
    pub replay_identical: bool,
}

/// The scarce-fresh calibration instance: three fresh tokens share one
/// HT, and every other token is locked inside a committed super-RS
/// module (sizes 2, 5, 4). On it the tiers genuinely differ — the exact
/// search digs a 4-token subset out of the big module, the game-theoretic
/// equilibrium commits the whole 4-module, and the progressive heuristic
/// stacks two modules for a 7-ring — so each tier's measured effective
/// anonymity is its own.
fn tier_instance() -> Instance {
    let ht = |i: u32| match i {
        0..=2 => 0u32,
        3 | 5 | 9 | 12 => 1,
        4 | 6 | 13 => 2,
        7 | 10 => 3,
        _ => 4,
    };
    let universe = TokenUniverse::new((0..14u32).map(|i| HtId(ht(i))).collect());
    let rings = RingIndex::from_rings(vec![
        ring(&[3, 4]),
        ring(&[5, 6, 7, 8, 9]),
        ring(&[10, 11, 12, 13]),
    ]);
    let claims = vec![DiversityRequirement::new(1.0, 2); 3];
    Instance::new(universe, rings, claims)
}

/// The homogeneous fresh instance the floor sweep serves (the same shape
/// as the overload harness's own).
fn sweep_instance() -> Instance {
    Instance::fresh(TokenUniverse::new((0..24u32).map(|i| HtId(i % 8)).collect()))
}

/// The ring size `tier` produces on the calibration instance (minimum 2:
/// a singleton "ring" is the careless case the adversaries exploit, not
/// a tier output).
fn tier_ring_size(tier: Tier) -> usize {
    let inst = tier_instance();
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let sel = select_with_ladder_exec(
        &inst,
        TokenId(0),
        policy,
        BfsBudget::default(),
        &[tier],
        &metrics,
        &LadderExec::default(),
    );
    sel.map(|s| s.selection.ring.len()).unwrap_or(2).max(2)
}

fn trace_config(ring_size: usize, mode: SamplingMode) -> AttackTraceConfig {
    AttackTraceConfig {
        blocks: 32,
        births_per_block: 6,
        spends_per_block: 2,
        ring_size,
        careless_every: 4,
        mode,
        ..AttackTraceConfig::default()
    }
}

fn attack_cell(
    tier: Tier,
    ring_size: usize,
    mode: SamplingMode,
    strength: u32,
    seed: u64,
) -> (TierRow, AttackReport) {
    let trace = generate_attack_trace(&trace_config(ring_size, mode), seed);
    let report = run_attack(&trace, AttackConfig { strength, seed });
    let row = TierRow {
        tier,
        mode,
        strength,
        ring_size,
        rings: report.rings_attacked,
        deanonymized: report.deanonymized,
        deanonymized_fraction: report.deanonymized_fraction,
        mean_candidates: report.matching.mean_candidates,
        min_candidates: report.matching.min_candidates,
        mean_ht_entropy_bits: report.matching.mean_ht_entropy_bits,
        cascade_depth: report.cascade.max_depth,
    };
    (row, report)
}

/// Run the full figure from one seed (see the module docs).
pub fn anonymity_figure(seed: u64) -> AnonymityFigure {
    let mut rows = Vec::new();
    let mut tiers = Vec::new();
    let mut replay_identical = true;

    for &tier in Tier::DEFAULT_LADDER.iter() {
        let ring_size = tier_ring_size(tier);
        let mut measured_score = 0u32;
        for mode in [SamplingMode::Baseline, SamplingMode::AttackAware] {
            for &strength in STRENGTHS.iter() {
                let (row, report) = attack_cell(tier, ring_size, mode, strength, seed);
                // Replay gate: the first cell re-runs and must reproduce
                // its report byte-for-byte.
                if rows.is_empty() {
                    let (_, again) = attack_cell(tier, ring_size, mode, strength, seed);
                    replay_identical &= format!("{report:?}") == format!("{again:?}");
                }
                if mode == SamplingMode::AttackAware && strength == REFERENCE_STRENGTH {
                    measured_score = row.mean_candidates.floor().max(0.0) as u32;
                }
                rows.push(row);
            }
        }
        tiers.push(TierCalibration {
            tier,
            ring_size,
            measured_score,
            declared_score: tier.anonymity_score(),
        });
    }

    AnonymityFigure {
        seed,
        tiers,
        rows,
        floor: floor_sweep(seed),
        replay_identical,
    }
}

/// The 64-seed floored-admission sweep (frontend + overloaded service).
fn floor_sweep(seed: u64) -> FloorSweep {
    let mut sweep = FloorSweep {
        seeds: FLOOR_SWEEP_SEEDS,
        service_accounting_ok: true,
        ..FloorSweep::default()
    };
    let max_declared = Tier::DEFAULT_LADDER
        .iter()
        .map(|t| t.anonymity_score())
        .max()
        .unwrap_or(0);
    let inst = sweep_instance();
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    for s in 0..FLOOR_SWEEP_SEEDS {
        let run_seed = seed ^ (s << 8);
        let mut rng = StdRng::seed_from_u64(run_seed);

        // Frontend: per-request visibility into the answering tier.
        let registry = Registry::new();
        let cfg = FrontendConfig {
            seed: run_seed,
            ..FrontendConfig::default()
        };
        let mut frontend = Frontend::new(&inst, policy, cfg, &registry);
        for i in 0..16u32 {
            // Floors range one past the best declared score, so some
            // requests are unsatisfiable by construction.
            let floor = rng.gen_range(0..=max_declared + 1);
            let budget = if rng.gen_range(0..4) == 0 { 80 } else { 1 << 20 };
            match frontend.select_floored(TokenId(i % 8), budget, false, floor) {
                Ok(sel) => {
                    sweep.answered += 1;
                    if sel.tier.anonymity_score() < floor {
                        sweep.answered_below_floor += 1;
                    }
                }
                Err(ShedReason::AnonymityFloor) => sweep.shed_anonymity_floor += 1,
                Err(_) => {}
            }
        }

        // Overloaded service: floors ride a 4x overload; violations must
        // shed typed and the terminal accounting must still close.
        let over = OverloadConfig {
            seed: run_seed,
            requests: 24,
            ..OverloadConfig::default()
        };
        let calib = calibrate(&inst, policy, 4);
        let arrivals: Vec<(u64, Request)> =
            build_arrivals(&over, &calib, inst.universe.len() as u64)
                .into_iter()
                .enumerate()
                .map(|(i, (tick, req))| {
                    (
                        tick,
                        Request {
                            anonymity_floor: (i as u32) % (max_declared + 2),
                            ..req
                        },
                    )
                })
                .collect();
        let mut service = Service::new(&inst, policy, service_config(&over, &calib));
        let report = service.run(&arrivals);
        sweep.service_shed_anonymity_floor += report.shed_anonymity_floor;
        sweep.service_accounting_ok &=
            report.completed + report.failed + report.shed_total() == report.offered;
    }
    sweep
}

impl AnonymityFigure {
    /// The aggregate deanonymized counts per mode over all `f > 0` cells.
    fn mode_totals(&self) -> (usize, usize) {
        let total = |mode: SamplingMode| {
            self.rows
                .iter()
                .filter(|r| r.mode == mode && r.strength > 0)
                .map(|r| r.deanonymized)
                .sum()
        };
        (
            total(SamplingMode::Baseline),
            total(SamplingMode::AttackAware),
        )
    }

    /// Per-cell comparison: attack-aware never deanonymizes more than the
    /// baseline at equal (tier, strength).
    fn attack_aware_never_worse(&self) -> bool {
        self.rows
            .iter()
            .filter(|r| r.mode == SamplingMode::AttackAware)
            .all(|aa| {
                self.rows
                    .iter()
                    .find(|b| {
                        b.mode == SamplingMode::Baseline
                            && b.tier == aa.tier
                            && b.strength == aa.strength
                    })
                    .is_none_or(|b| aa.deanonymized_fraction <= b.deanonymized_fraction)
            })
    }

    /// Every gate the figure must pass (mirrored by the snapshot script).
    pub fn ok(&self) -> bool {
        let grid_complete =
            self.rows.len() == Tier::DEFAULT_LADDER.len() * 2 * STRENGTHS.len();
        let scores_backed = self
            .tiers
            .iter()
            .all(|t| t.measured_score >= t.declared_score && t.declared_score >= 1);
        let (base, aa) = self.mode_totals();
        self.replay_identical
            && grid_complete
            && scores_backed
            && self.attack_aware_never_worse()
            && aa < base
            && self.floor.seeds == FLOOR_SWEEP_SEEDS
            && self.floor.answered_below_floor == 0
            && self.floor.shed_anonymity_floor > 0
            && self.floor.service_shed_anonymity_floor > 0
            && self.floor.service_accounting_ok
            && self.floor.answered > 0
    }

    /// The `BENCH_anonymity.json` document.
    pub fn render_json(&self) -> String {
        let (base, aa) = self.mode_totals();
        let tiers = self.tiers.iter().map(|t| {
            Object::new()
                .field("tier", t.tier.to_string())
                .field("ring_size", t.ring_size)
                .field("measured_score", t.measured_score)
                .field("declared_score", t.declared_score)
        });
        let rows = self.rows.iter().map(|r| {
            Object::new()
                .field("tier", r.tier.to_string())
                .field("mode", r.mode.to_string())
                .field("strength", r.strength)
                .field("ring_size", r.ring_size)
                .field("rings", r.rings)
                .field("deanonymized", r.deanonymized)
                .field(
                    "deanonymized_fraction",
                    Value::Fixed(r.deanonymized_fraction, 4),
                )
                .field("mean_candidates", Value::Fixed(r.mean_candidates, 4))
                .field("min_candidates", r.min_candidates)
                .field(
                    "mean_ht_entropy_bits",
                    Value::Fixed(r.mean_ht_entropy_bits, 4),
                )
                .field("cascade_depth", r.cascade_depth)
        });
        let floor = Object::new()
            .field("seeds", self.floor.seeds)
            .field("answered", self.floor.answered)
            .field("shed_anonymity_floor", self.floor.shed_anonymity_floor)
            .field("answered_below_floor", self.floor.answered_below_floor)
            .field(
                "service_shed_anonymity_floor",
                self.floor.service_shed_anonymity_floor,
            )
            .field("service_accounting_ok", self.floor.service_accounting_ok);
        Document::new()
            .field("bench", "anonymity")
            .field("seed", self.seed)
            .field("replay_identical", self.replay_identical)
            .field("deanonymized_baseline_total", base)
            .field("deanonymized_attack_aware_total", aa)
            .rows("tiers", tiers)
            .rows("rows", rows)
            .block("floor_sweep", floor)
            .render()
    }

    /// The grep-able `ANON_report.txt` companion.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== anonymity under attack (seed {}) ===", self.seed);
        for t in &self.tiers {
            let _ = writeln!(
                out,
                "tier {}: ring_size {} measured_score {} declared_score {}",
                t.tier, t.ring_size, t.measured_score, t.declared_score
            );
        }
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} {} f={}: deanonymized {}/{} ({:.1}%) mean_candidates {:.2} \
                 min {} entropy {:.2}b cascade_depth {}",
                r.tier,
                r.mode,
                r.strength,
                r.deanonymized,
                r.rings,
                100.0 * r.deanonymized_fraction,
                r.mean_candidates,
                r.min_candidates,
                r.mean_ht_entropy_bits,
                r.cascade_depth
            );
        }
        let (base, aa) = self.mode_totals();
        let _ = writeln!(
            out,
            "aggregate deanonymized (f>0): baseline {base} vs attack-aware {aa}"
        );
        let _ = writeln!(
            out,
            "floor sweep ({} seeds): answered {} shed_floor {} below_floor {} \
             service_shed_floor {} accounting {}",
            self.floor.seeds,
            self.floor.answered,
            self.floor.shed_anonymity_floor,
            self.floor.answered_below_floor,
            self.floor.service_shed_anonymity_floor,
            if self.floor.service_accounting_ok { "ok" } else { "BROKEN" },
        );
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.ok() { "PASS" } else { "FAIL" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ring_sizes_are_full_rings() {
        for &tier in Tier::DEFAULT_LADDER.iter() {
            assert!(tier_ring_size(tier) >= 2, "{tier}");
        }
    }

    #[test]
    fn single_cell_replays_identically() {
        let (a, ra) = attack_cell(Tier::Progressive, 4, SamplingMode::Baseline, 2, 9);
        let (_, rb) = attack_cell(Tier::Progressive, 4, SamplingMode::Baseline, 2, 9);
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        assert!(a.rings > 0);
    }

    #[test]
    fn figure_passes_its_own_gate_and_renders_the_required_shape() {
        let fig = anonymity_figure(42);
        assert!(fig.ok(), "gate failed:\n{}", fig.render_report());
        let json = fig.render_json();
        for key in [
            "\"bench\": \"anonymity\"",
            "\"replay_identical\": true",
            "\"measured_score\"",
            "\"deanonymized_fraction\"",
            "\"mean_ht_entropy_bits\"",
            "\"cascade_depth\"",
            "\"answered_below_floor\": 0",
            "\"service_accounting_ok\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(fig.render_report().contains("verdict: PASS"));
    }
}
