//! The seeded overload/chaos harness: calibrate the service's tick
//! economy against a concrete instance, drive it with an open-loop
//! arrival ramp at a chosen multiple of capacity, and report.
//!
//! # Calibration
//!
//! The service prices work in virtual ticks, so the harness first
//! measures the instance it will serve:
//!
//! * **reserve** — the worst cheap-tier cost over all targets
//!   (`1 + diversity_checks` of a Progressive/Game answer), plus one.
//!   Any dispatched request is guaranteed to fit a degraded answer in
//!   this reserve, which is how admitted requests meet their deadlines
//!   even at 4× overload.
//! * **exact cost** — `candidates_examined · ticks_per_candidate` of an
//!   unbudgeted exact search per target; the mean sets service capacity,
//!   the max sizes the default request budget.
//!
//! # Load ramp
//!
//! `offered_load = 1.0` means arrivals match the calibrated capacity of
//! `workers` logical workers; `4.0` is the acceptance-gate overload. The
//! arrival process is open-loop ([`OpenLoop`]): it does **not** slow down
//! when the service sheds, which is exactly what makes overload hard.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_core::{
    bfs, select_with_ladder_exec, BfsBudget, CoreMetrics, Instance, LadderExec, SelectionPolicy,
    Tier,
};
use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};
use dams_obs::json::{Document, Object, Value};
use dams_obs::Registry;
use dams_workload::OpenLoop;

use crate::service::{Priority, Request, Service, SvcConfig, SvcReport};

/// Tick-economy measurements for one instance (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    /// Ticks held back for the cheap tiers: worst cheap cost + 1.
    pub reserve_ticks: u64,
    pub ticks_per_candidate: u64,
    /// Mean unbudgeted exact-tier cost (ticks) — sets capacity.
    pub mean_exact_ticks: u64,
    /// Worst unbudgeted exact-tier cost (ticks) — sizes budgets.
    pub max_exact_ticks: u64,
}

/// Measure the cheap-tier reserve and exact-tier cost of every feasible
/// target in `instance`.
pub fn calibrate(
    instance: &Instance,
    policy: SelectionPolicy,
    ticks_per_candidate: u64,
) -> Calibration {
    let tpc = ticks_per_candidate.max(1);
    let registry = Registry::new();
    let metrics = CoreMetrics::in_registry(&registry);
    let cheap_ladder = [Tier::Progressive, Tier::GameTheoretic];
    let mut max_cheap = 0u64;
    let mut exact_sum = 0u64;
    let mut max_exact = 0u64;
    let mut measured = 0u64;
    for t in 0..instance.universe.len() as u32 {
        let target = TokenId(t);
        let cheap = select_with_ladder_exec(
            instance,
            target,
            policy,
            BfsBudget::default(),
            &cheap_ladder,
            &metrics,
            &LadderExec::default(),
        );
        let Ok(cheap) = cheap else { continue };
        max_cheap = max_cheap.max(1 + cheap.selection.stats.diversity_checks);
        if let Ok(exact) = bfs(instance, target, policy.effective(), BfsBudget::default()) {
            let cost = exact.stats.candidates_examined.saturating_mul(tpc);
            exact_sum += cost;
            max_exact = max_exact.max(cost);
            measured += 1;
        }
    }
    Calibration {
        reserve_ticks: max_cheap + 1,
        ticks_per_candidate: tpc,
        mean_exact_ticks: (exact_sum / measured.max(1)).max(1),
        max_exact_ticks: max_exact.max(1),
    }
}

/// One overload scenario (everything needed to replay it from a seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    pub seed: u64,
    /// Logical service capacity.
    pub workers: usize,
    /// Unique requests to offer.
    pub requests: u64,
    /// Arrival rate as a multiple of calibrated capacity.
    pub load: f64,
    /// Token count of the synthetic fresh-token instance.
    pub universe: u32,
    /// Bursty arrivals (every 8th primary arrival brings 4 extras).
    pub burst: bool,
    /// Inject worker stalls (every 7th dispatch stalls one mean
    /// exact-service time).
    pub stalls: bool,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            seed: 0,
            workers: 2,
            requests: 96,
            load: 4.0,
            universe: 10,
            burst: true,
            stalls: true,
        }
    }
}

/// The service configuration the harness derives from one calibration.
pub fn service_config(cfg: &OverloadConfig, calib: &Calibration) -> SvcConfig {
    SvcConfig {
        workers: cfg.workers.max(1),
        queue_capacity: cfg.workers.max(1) * 4,
        ticks_per_candidate: calib.ticks_per_candidate,
        reserve_ticks: calib.reserve_ticks,
        hedge_batch: true,
        stall_every: if cfg.stalls { 7 } else { 0 },
        stall_ticks: if cfg.stalls { calib.mean_exact_ticks } else { 0 },
        seed: cfg.seed,
        ..SvcConfig::default()
    }
}

/// The full seeded arrival schedule for one scenario. The cluster
/// harness shards this exact list across replicas, so offered load stays
/// fixed while serving capacity scales.
pub fn build_arrivals(
    cfg: &OverloadConfig,
    calib: &Calibration,
    universe_len: u64,
) -> Vec<(u64, Request)> {
    // Open-loop arrivals: mean inter-arrival gap of capacity/load. The
    // generator draws from its own stream so arrival jitter and service
    // randomness (backoff, breaker jitter) never entangle.
    let gap = (calib.mean_exact_ticks as f64 / (cfg.workers.max(1) as f64 * cfg.load.max(0.01)))
        .round()
        .max(1.0) as u64;
    let process = if cfg.burst {
        OpenLoop::bursty(gap, 8, 4)
    } else {
        OpenLoop::smooth(gap)
    };
    let mut arrival_rng = StdRng::seed_from_u64(cfg.seed ^ 0x0a44_1e55);
    let ticks = process.arrival_ticks(cfg.requests as usize, &mut arrival_rng);

    // Budget: generous enough that an uncontended request finishes at the
    // exact tier, tight enough that queue wait forces real degradation.
    let budget = 2 * calib.max_exact_ticks + calib.reserve_ticks;
    let n = universe_len.max(1);
    ticks
        .iter()
        .enumerate()
        .map(|(i, &tick)| {
            let i = i as u64;
            (
                tick,
                Request {
                    id: i,
                    target: TokenId((i % n) as u32),
                    class: if i.is_multiple_of(4) {
                        Priority::Batch
                    } else {
                        Priority::Interactive
                    },
                    budget,
                    require_exact: i % 16 == 7,
                    // Wire traces carry no floor; floored workloads are
                    // built by the anonymity bench on top of these.
                    anonymity_floor: 0,
                },
            )
        })
        .collect()
}

/// Run one seeded overload scenario end to end and report.
pub fn run_overload(cfg: &OverloadConfig) -> SvcReport {
    let universe = TokenUniverse::new((0..cfg.universe.max(4)).map(HtId).collect());
    let instance = Instance::fresh(universe);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    let calib = calibrate(&instance, policy, 4);
    let svc_cfg = service_config(cfg, &calib);
    let arrivals = build_arrivals(cfg, &calib, instance.universe.len() as u64);
    let mut service = Service::new(&instance, policy, svc_cfg);
    service.run(&arrivals)
}

/// Run the standard load ramp and return `(offered_load, report)` rows.
pub fn run_ramp(base: &OverloadConfig, loads: &[f64]) -> Vec<(f64, SvcReport)> {
    loads
        .iter()
        .map(|&load| {
            let cfg = OverloadConfig { load, ..*base };
            (load, run_overload(&cfg))
        })
        .collect()
}

/// Render ramp rows as the `BENCH_overload.json` document.
pub fn render_bench_json(base: &OverloadConfig, rows: &[(f64, SvcReport)]) -> String {
    let rows = rows.iter().map(|(load, r)| {
        Object::new()
            .field("offered_load", Value::Fixed(*load, 2))
            .field("offered", r.offered)
            .field("admitted", r.admitted_events)
            .field("completed", r.completed)
            .field("goodput", Value::Fixed(r.goodput(), 4))
            .field("shed_queue_full", r.shed_queue_full)
            .field("shed_deadline_infeasible", r.shed_deadline_infeasible)
            .field("shed_circuit_open", r.shed_circuit_open)
            .field("shed_anonymity_floor", r.shed_anonymity_floor)
            .field("deadline_met_rate", Value::Fixed(r.deadline_met_rate(), 4))
            .field("p50_latency_ticks", r.p50_latency_ticks)
            .field("p99_latency_ticks", r.p99_latency_ticks)
            .field("final_tick", r.final_tick)
    });
    Document::new()
        .field("bench", "overload")
        .field("seed", base.seed)
        .field("workers", base.workers)
        .field("requests", base.requests)
        .rows("rows", rows)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_measures_positive_costs() {
        let universe = TokenUniverse::new((0..8).map(HtId).collect());
        let instance = Instance::fresh(universe);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
        let c = calibrate(&instance, policy, 4);
        assert!(c.reserve_ticks > 1);
        assert!(c.mean_exact_ticks >= 1);
        assert!(c.max_exact_ticks >= c.mean_exact_ticks);
    }

    #[test]
    fn overload_at_4x_sheds_but_keeps_goodput() {
        let report = run_overload(&OverloadConfig {
            seed: 11,
            ..OverloadConfig::default()
        });
        assert_eq!(
            report.completed + report.failed + report.shed_total(),
            report.offered
        );
        assert!(report.shed_total() > 0, "4x load must shed: {report:?}");
        assert!(report.completed > 0, "goodput must survive: {report:?}");
        assert_eq!(report.failed, 0, "no selection failures expected");
    }

    #[test]
    fn bench_json_has_the_required_shape() {
        let base = OverloadConfig {
            requests: 24,
            ..OverloadConfig::default()
        };
        let rows = run_ramp(&base, &[1.0, 4.0]);
        let json = render_bench_json(&base, &rows);
        for key in [
            "\"bench\": \"overload\"",
            "\"offered_load\"",
            "\"goodput\"",
            "\"shed_queue_full\"",
            "\"shed_deadline_infeasible\"",
            "\"shed_circuit_open\"",
            "\"shed_anonymity_floor\"",
            "\"deadline_met_rate\"",
            "\"p99_latency_ticks\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
