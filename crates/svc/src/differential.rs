//! The sim-vs-real differential oracle.
//!
//! The virtual-tick [`Service`] is the *model*: deterministic, inline,
//! trivially auditable. The [`runtime`](crate::runtime) is the
//! *implementation*: the same service behind a real wire, with client
//! threads on the other end. This module replays the **same seeded
//! open-loop arrival trace** through both and diffs their accounting.
//!
//! # Exact equality
//!
//! Both serve the trace with one [`Service`] event loop; the runtime
//! only decodes the trace from wire frames first and answers each
//! settlement with a frame. So the oracle demands equality, not
//! closeness: every [`SvcReport`] field and every deterministic
//! `svc.*`/`core.*` snapshot line must match. The runtime-only
//! `svc.runtime.*` lines are left out. What the oracle still tests is
//! what genuinely differs — the wire and the client tally — through
//! exact invariants (one response per id, client tally == server
//! report, every frame received and none rejected).
//!
//! The rendered report is grep-able line-oriented text whose final line
//! is always `verdict: MATCH` or `verdict: DIVERGED`; every failed row
//! additionally emits a typed `divergence<TAB>…` diagnostic line. CI
//! greps that final line and archives the report.

use std::collections::BTreeSet;

use dams_core::{Instance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
use dams_obs::json::{Document, Object, Value};
use dams_workload::ArrivalEvent;

use crate::overload::{build_arrivals, calibrate, service_config, OverloadConfig};
use crate::runtime::{run_runtime, RuntimeConfig, RuntimeReport, Transport};
use crate::service::{Priority, Request, Service, SvcReport};
use crate::wire::WireError;

/// One compared accounting value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    pub metric: &'static str,
    pub sim: u64,
    pub real: u64,
}

impl DiffRow {
    pub fn delta(&self) -> u64 {
        self.sim.abs_diff(self.real)
    }

    pub fn ok(&self) -> bool {
        self.sim == self.real
    }
}

/// A named boolean invariant (an exact cross-check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffInvariant {
    pub name: &'static str,
    pub detail: String,
    pub ok: bool,
}

/// The full differential verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub seed: u64,
    pub load: f64,
    pub workers: usize,
    pub requests: u64,
    pub transport: Transport,
    /// The terminal-accounting rows the report prints.
    pub rows: Vec<DiffRow>,
    /// The other [`SvcReport`] fields, printed only where they diverge.
    pub fields: Vec<DiffRow>,
    /// Deterministic `svc.*`/`core.*` snapshot lines found on one side
    /// only, as `sim-only<TAB>line` or `real-only<TAB>line`.
    pub snapshot: Vec<String>,
    pub invariants: Vec<DiffInvariant>,
}

impl DiffReport {
    pub fn matched(&self) -> bool {
        self.rows.iter().chain(&self.fields).all(DiffRow::ok)
            && self.snapshot.is_empty()
            && self.invariants.iter().all(|i| i.ok)
    }

    /// One scenario's section: header, rows, invariants, divergence
    /// diagnostics — everything except the final verdict line.
    pub fn render_section(&self) -> String {
        let mut out = String::new();
        out.push_str("dams-differential v1\n");
        out.push_str(&format!("seed: {}\n", self.seed));
        out.push_str(&format!("load: {:.2}\n", self.load));
        out.push_str(&format!("workers: {}\n", self.workers));
        out.push_str(&format!("requests: {}\n", self.requests));
        out.push_str(&format!("transport: {}\n", self.transport));
        for r in &self.rows {
            out.push_str(&format!(
                "row\t{}\tsim={}\treal={}\t{}\n",
                r.metric,
                r.sim,
                r.real,
                if r.ok() { "ok" } else { "DIVERGED" }
            ));
        }
        for i in &self.invariants {
            out.push_str(&format!(
                "invariant\t{}\t{}\t{}\n",
                i.name,
                i.detail,
                if i.ok { "ok" } else { "DIVERGED" }
            ));
        }
        for r in self.rows.iter().chain(&self.fields).filter(|r| !r.ok()) {
            out.push_str(&format!(
                "divergence\t{}\tsim={}\treal={}\tdelta={}\n",
                r.metric,
                r.sim,
                r.real,
                r.delta()
            ));
        }
        for line in &self.snapshot {
            out.push_str(&format!("divergence\tsnapshot\t{line}\n"));
        }
        for i in self.invariants.iter().filter(|i| !i.ok) {
            out.push_str(&format!("divergence\tinvariant:{}\t{}\n", i.name, i.detail));
        }
        out
    }

    /// The standalone report: section plus the final verdict line.
    pub fn render(&self) -> String {
        let mut out = self.render_section();
        out.push_str(if self.matched() {
            "verdict: MATCH\n"
        } else {
            "verdict: DIVERGED\n"
        });
        out
    }
}

/// Render several scenarios as one report with a single overall verdict
/// on the last line (what `DIFF_report.txt` holds for a load ramp).
pub fn render_multi(reports: &[DiffReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render_section());
        out.push('\n');
    }
    let all = reports.iter().all(DiffReport::matched);
    out.push_str(&format!("scenarios: {}\n", reports.len()));
    out.push_str(if all && !reports.is_empty() {
        "verdict: MATCH\n"
    } else {
        "verdict: DIVERGED\n"
    });
    out
}

/// Differential scenario configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    pub overload: OverloadConfig,
    pub transport: Transport,
    pub tenants: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            overload: OverloadConfig::default(),
            transport: Transport::Duplex,
            tenants: 3,
        }
    }
}

/// Everything one differential run produced.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    pub report: DiffReport,
    pub sim: SvcReport,
    pub real: RuntimeReport,
    /// The replayed trace in `dams-trace v1` text form.
    pub trace_text: String,
}

/// Convert the overload harness's arrival schedule into the on-the-wire
/// trace: same ticks, ids, targets, classes, budgets; tenants assigned
/// round-robin.
pub fn trace_from_arrivals(arrivals: &[(u64, Request)], tenants: u64) -> Vec<ArrivalEvent> {
    let tenants = tenants.max(1);
    arrivals
        .iter()
        .map(|&(tick, req)| ArrivalEvent {
            tick,
            id: req.id,
            tenant: req.id % tenants,
            target: req.target.0,
            interactive: req.class == Priority::Interactive,
            budget: req.budget,
            require_exact: req.require_exact,
        })
        .collect()
}

/// Replay one seeded scenario through the sim and the real runtime and
/// diff the accounting.
pub fn run_differential(cfg: &DiffConfig) -> Result<DiffOutcome, WireError> {
    let universe = TokenUniverse::new((0..cfg.overload.universe.max(4)).map(HtId).collect());
    let instance = Instance::fresh(universe);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    let calib = calibrate(&instance, policy, 4);
    let svc_cfg = service_config(&cfg.overload, &calib);
    let arrivals = build_arrivals(&cfg.overload, &calib, instance.universe.len() as u64);
    let trace = trace_from_arrivals(&arrivals, cfg.tenants);
    let trace_text = dams_workload::render_trace(&trace);

    let mut service = Service::new(&instance, policy, svc_cfg);
    let sim = service.run(&arrivals);

    let rt_cfg = RuntimeConfig {
        svc: svc_cfg,
        transport: cfg.transport,
        tenants: cfg.tenants.max(1),
    };
    let real = run_runtime(&instance, policy, &rt_cfg, &trace)?;

    let report = diff_reports(cfg, &sim, &real);
    Ok(DiffOutcome {
        report,
        sim,
        real,
        trace_text,
    })
}

/// Build the row-by-row diff between a sim report and a runtime report.
pub fn diff_reports(cfg: &DiffConfig, sim: &SvcReport, real: &RuntimeReport) -> DiffReport {
    let r = &real.svc;
    let row = |metric, sim, real| DiffRow { metric, sim, real };
    let rows = vec![
        row("offered", sim.offered, r.offered),
        row("completed", sim.completed, r.completed),
        row("failed", sim.failed, r.failed),
        row("shed.queue_full", sim.shed_queue_full, r.shed_queue_full),
        row(
            "shed.deadline_infeasible",
            sim.shed_deadline_infeasible,
            r.shed_deadline_infeasible,
        ),
        row(
            "shed.circuit_open",
            sim.shed_circuit_open,
            r.shed_circuit_open,
        ),
        row(
            "shed.anonymity_floor",
            sim.shed_anonymity_floor,
            r.shed_anonymity_floor,
        ),
        row("deadline.met", sim.deadline_met, r.deadline_met),
        row("deadline.missed", sim.deadline_missed, r.deadline_missed),
    ];
    let fields = vec![
        row("admitted_events", sim.admitted_events, r.admitted_events),
        row(
            "p50_latency_ticks",
            sim.p50_latency_ticks,
            r.p50_latency_ticks,
        ),
        row(
            "p99_latency_ticks",
            sim.p99_latency_ticks,
            r.p99_latency_ticks,
        ),
        row("final_tick", sim.final_tick, r.final_tick),
    ];

    let shed_total = |r: &SvcReport| r.shed_total();
    let sim_accounted = sim.completed + sim.failed + shed_total(sim);
    let real_accounted = real.svc.completed + real.svc.failed + shed_total(&real.svc);
    let invariants = vec![
        DiffInvariant {
            name: "sim.accounting",
            detail: format!(
                "completed+failed+shed={} offered={}",
                sim_accounted, sim.offered
            ),
            ok: sim_accounted == sim.offered,
        },
        DiffInvariant {
            name: "real.accounting",
            detail: format!(
                "completed+failed+shed={} offered={}",
                real_accounted, real.svc.offered
            ),
            ok: real_accounted == real.svc.offered,
        },
        DiffInvariant {
            name: "wire.responses",
            detail: format!(
                "client={} server_offered={} duplicates={}",
                real.client.responses, real.svc.offered, real.client.duplicates
            ),
            ok: real.client.responses == real.svc.offered && real.client.duplicates == 0,
        },
        DiffInvariant {
            name: "wire.client_buckets",
            detail: format!(
                "completed {}={} failed {}={} shed {}={}",
                real.client.completed,
                real.svc.completed,
                real.client.failed,
                real.svc.failed,
                real.client.shed,
                shed_total(&real.svc),
            ),
            ok: real.client.completed == real.svc.completed
                && real.client.failed == real.svc.failed
                && real.client.shed == shed_total(&real.svc),
        },
        DiffInvariant {
            name: "wire.frames",
            detail: format!(
                "received={} expected={} rejected={}",
                real.frames_received,
                cfg.tenants.max(1) + cfg.overload.requests + 1,
                real.frames_rejected
            ),
            ok: real.frames_received == cfg.tenants.max(1) + cfg.overload.requests + 1
                && real.frames_rejected == 0,
        },
    ];

    DiffReport {
        seed: cfg.overload.seed,
        load: cfg.overload.load,
        workers: cfg.overload.workers,
        requests: cfg.overload.requests,
        transport: cfg.transport,
        rows,
        fields,
        snapshot: snapshot_diff(&sim.snapshot, &r.snapshot),
        invariants,
    }
}

/// Deterministic snapshot lines found on one side only, leaving out the
/// runtime's own `svc.runtime.*` family.
fn snapshot_diff(sim: &str, real: &str) -> Vec<String> {
    let lines = |text| -> BTreeSet<&str> {
        str::lines(text)
            .filter(|l| !l.starts_with("svc.runtime."))
            .collect()
    };
    let (sim, real) = (lines(sim), lines(real));
    let only = |side: &'static str, a: &BTreeSet<&str>, b: &BTreeSet<&str>| {
        a.difference(b)
            .map(|l| format!("{side}\t{l}"))
            .collect::<Vec<_>>()
    };
    let mut out = only("sim-only", &sim, &real);
    out.extend(only("real-only", &real, &sim));
    out
}

/// Render sim-vs-real goodput ramp rows as the `BENCH_runtime.json`
/// document.
pub fn render_runtime_bench_json(base: &OverloadConfig, rows: &[(f64, DiffOutcome)]) -> String {
    let side = |r: &SvcReport| {
        let goodput = if r.offered == 0 {
            0.0
        } else {
            r.deadline_met as f64 / r.offered as f64
        };
        Object::new()
            .field("offered", r.offered)
            .field("completed", r.completed)
            .field("deadline_met", r.deadline_met)
            .field("goodput", Value::Fixed(goodput, 4))
    };
    let rows = rows.iter().map(|(load, o)| {
        let real = side(&o.real.svc)
            .field("frames_received", o.real.frames_received)
            .field("client_responses", o.real.client.responses);
        Object::new()
            .field("load", Value::Fixed(*load, 2))
            .field("sim", side(&o.sim))
            .field("real", real)
            .field(
                "verdict",
                if o.report.matched() {
                    "MATCH"
                } else {
                    "DIVERGED"
                },
            )
    });
    Document::new()
        .field("bench", "runtime-differential")
        .field("seed", base.seed)
        .field("workers", base.workers)
        .field("requests", base.requests)
        .rows("rows", rows)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> DiffConfig {
        DiffConfig {
            overload: OverloadConfig {
                seed,
                requests: 32,
                universe: 8,
                ..OverloadConfig::default()
            },
            ..DiffConfig::default()
        }
    }

    #[test]
    fn differential_matches_on_a_smoke_seed() {
        let out = run_differential(&quick_cfg(7)).expect("runtime runs");
        let text = out.report.render();
        assert!(
            out.report.matched(),
            "sim and runtime diverged:\n{text}"
        );
        assert!(text.ends_with("verdict: MATCH\n"));
        assert!(text.contains("row\toffered"));
    }

    #[test]
    fn report_render_flags_divergences() {
        let mut report = run_differential(&quick_cfg(3)).unwrap().report;
        report.rows.push(DiffRow {
            metric: "synthetic",
            sim: 10,
            real: 20,
        });
        let text = report.render();
        assert!(text.contains("row\tsynthetic\tsim=10\treal=20\tDIVERGED"));
        assert!(text.contains("divergence\tsynthetic\tsim=10\treal=20\tdelta=10"));
        assert!(text.ends_with("verdict: DIVERGED\n"));
    }

    #[test]
    fn fields_and_snapshot_lines_print_only_when_they_diverge() {
        let cfg = quick_cfg(5);
        let out = run_differential(&cfg).unwrap();
        let quiet = out.report.render();
        assert!(!quiet.contains("final_tick"), "{quiet}");
        assert!(
            !quiet.contains("svc.runtime."),
            "runtime-only lines leaked: {quiet}"
        );
        let mut sim = out.sim.clone();
        sim.final_tick += 1;
        sim.snapshot.push_str("svc.synthetic_total\tcounter\t1\n");
        let text = diff_reports(&cfg, &sim, &out.real).render();
        assert!(text.contains("divergence\tfinal_tick\t"), "{text}");
        assert!(
            text.contains("divergence\tsnapshot\tsim-only\tsvc.synthetic_total\tcounter\t1\n"),
            "{text}"
        );
        assert!(text.ends_with("verdict: DIVERGED\n"));
    }

    #[test]
    fn multi_report_has_one_overall_verdict() {
        let a = run_differential(&quick_cfg(1)).unwrap().report;
        let b = run_differential(&quick_cfg(2)).unwrap().report;
        let text = render_multi(&[a, b]);
        assert_eq!(text.matches("verdict:").count(), 1);
        assert!(text.contains("scenarios: 2"));
        assert!(text.ends_with("verdict: MATCH\n") || text.ends_with("verdict: DIVERGED\n"));
    }

    #[test]
    fn trace_round_trips_through_text() {
        let cfg = quick_cfg(11);
        let universe = TokenUniverse::new((0..cfg.overload.universe).map(HtId).collect());
        let instance = Instance::fresh(universe);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
        let calib = calibrate(&instance, policy, 4);
        let arrivals = build_arrivals(&cfg.overload, &calib, instance.universe.len() as u64);
        let trace = trace_from_arrivals(&arrivals, 3);
        let text = dams_workload::render_trace(&trace);
        let back = dams_workload::parse_trace(&text).expect("parses");
        assert_eq!(trace, back);
    }
}
