//! The selection service: a deterministic multi-worker discrete-event
//! simulation of admission control, queueing, deadline propagation, and
//! circuit breaking in front of `dams-core`'s degrade ladder.
//!
//! The request path itself is the crate's admission engine, which the
//! `Frontend` also runs; [`Service`] drives it on a virtual clock and
//! runs each dispatched job inline. The real runtime is this service
//! behind the wire: it calls [`Service::serve`] on the decoded trace and
//! sends each terminal fate back as a response frame.
//!
//! # Why a virtual clock
//!
//! Overload behaviour must be *provable*: the acceptance gate replays a
//! 4× overload from a seed and diffs metric snapshots byte-for-byte.
//! Wall clocks cannot do that, so the service runs on a **virtual tick
//! clock**. Work is priced in ticks from each selection's own work
//! counters, queue wait is tick arithmetic, and the request deadline is
//! handed to the solver as a *virtual* [`Deadline::Ticks`] budget — the
//! same currency end-to-end. Every draw of randomness (arrival jitter,
//! retry backoff, breaker jitter, stalls) comes from one seeded stream
//! on the single event-loop thread.
//!
//! [`Deadline::Ticks`]: dams_core::Deadline::Ticks
//!
//! # Deadline propagation
//!
//! A request arrives with a tick budget. By dispatch it has spent
//! `waited` ticks in the queue; the remainder splits into an **exact
//! grant** and a **reserve**:
//!
//! ```text
//! remaining = budget − waited
//! grant     = (remaining − reserve) / ticks_per_candidate   (exact tier)
//! reserve   = calibrated worst-case cost of the cheap tiers
//! ```
//!
//! The exact BFS receives `Deadline::Ticks(grant)`. That one grant caps
//! two separate counters: the candidates examined, and for each
//! candidate the steps of its world enumeration (see
//! `dams_core::BfsBudget::deadline`). So a request that waited long
//! degrades down the ladder *automatically*, and the reserve guarantees
//! the degraded answer still lands inside the deadline. A grant of zero
//! skips the exact probe entirely (`SelectError::DeadlineInfeasible`),
//! and a remainder below the reserve is shed as
//! [`ShedReason::DeadlineInfeasible`] rather than dispatched to miss.
//!
//! # Determinism
//!
//! `workers` (logical service capacity) is semantic: more workers means
//! fewer sheds, by design. Each selection runs on one thread and is
//! priced by its work counters, not by wall time, so a seed fixes the
//! whole simulation — every shed, every breaker transition, every
//! snapshot byte. The overload property tests replay every seed and
//! assert exactly that.

use std::convert::Infallible;

use dams_core::{Instance, SelectionPolicy};
use dams_diversity::TokenId;
use dams_obs::Registry;

use crate::breaker::BreakerConfig;
use crate::engine::{Engine, TerminalFate};
use crate::retry::RetryPolicy;

/// Priority class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A wallet user is waiting: dispatched first, never retried.
    Interactive,
    /// Background work (TokenMagic batches, audits): dispatched after
    /// interactive traffic, retried with backoff when shed.
    Batch,
}

/// Why the service refused a request (typed, so callers can react).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded queue for the request's class was full.
    QueueFull,
    /// The remaining deadline budget cannot fit even the cheapest tier.
    DeadlineInfeasible,
    /// The request requires the exact tier and the circuit is open.
    CircuitOpen,
    /// No admissible ladder tier meets the request's declared anonymity
    /// floor — under overload the system degrades latency, never privacy.
    AnonymityFloor,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::DeadlineInfeasible => write!(f, "deadline infeasible"),
            ShedReason::CircuitOpen => write!(f, "circuit open"),
            ShedReason::AnonymityFloor => write!(f, "anonymity floor"),
        }
    }
}

/// One selection request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Caller-unique id (accounting is per unique id).
    pub id: u64,
    /// The token to build a ring for.
    pub target: TokenId,
    pub class: Priority,
    /// End-to-end deadline budget in ticks, counted from (each) arrival.
    pub budget: u64,
    /// Refuse degraded answers: shed with [`ShedReason::CircuitOpen`]
    /// instead of running without an exact grant.
    pub require_exact: bool,
    /// Minimum measured [`Tier::anonymity_score`] an answering tier must
    /// have (`0` = no floor). Ladder tiers below the floor are never run
    /// for this request; if none qualifies it is shed as
    /// [`ShedReason::AnonymityFloor`].
    ///
    /// [`Tier::anonymity_score`]: dams_core::Tier::anonymity_score
    pub anonymity_floor: u32,
}

/// Service tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcConfig {
    /// Logical workers (service capacity — semantic).
    pub workers: usize,
    /// Bounded queue capacity per priority class.
    pub queue_capacity: usize,
    /// Exchange rate: ticks one exact-BFS candidate costs.
    pub ticks_per_candidate: u64,
    /// Ticks held back from the exact grant for the cheap tiers
    /// (calibrate to their worst-case cost on the instance).
    pub reserve_ticks: u64,
    pub breaker: BreakerConfig,
    pub retry: RetryPolicy,
    /// Hedge retried batch requests with a staggered duplicate.
    pub hedge_batch: bool,
    /// Chaos: every `stall_every`-th dispatch stalls its worker
    /// (`0` disables).
    pub stall_every: u64,
    /// Extra busy ticks per injected stall.
    pub stall_ticks: u64,
    /// Seed for every in-service draw (backoff, breaker jitter).
    pub seed: u64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            workers: 2,
            queue_capacity: 8,
            ticks_per_candidate: 4,
            reserve_ticks: 64,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            hedge_batch: false,
            stall_every: 0,
            stall_ticks: 0,
            seed: 0,
        }
    }
}

/// Aggregated outcome of one simulation run. Terminal accounting is per
/// unique request id, so `completed + failed + shed_* == offered` holds
/// exactly (the overload property tests assert it for every seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvcReport {
    pub offered: u64,
    /// Admission grants (events — a retried request admits repeatedly).
    pub admitted_events: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed_queue_full: u64,
    pub shed_deadline_infeasible: u64,
    pub shed_circuit_open: u64,
    pub shed_anonymity_floor: u64,
    pub deadline_met: u64,
    pub deadline_missed: u64,
    pub p50_latency_ticks: u64,
    pub p99_latency_ticks: u64,
    /// Virtual tick the last event settled at.
    pub final_tick: u64,
    /// Deterministic-mode text snapshot of the service registry —
    /// byte-identical for one seed.
    pub snapshot: String,
}

impl SvcReport {
    /// Requests shed terminally, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_deadline_infeasible
            + self.shed_circuit_open
            + self.shed_anonymity_floor
    }

    /// Completed fraction of offered load.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Fraction of completions that met their propagated deadline.
    pub fn deadline_met_rate(&self) -> f64 {
        let done = self.deadline_met + self.deadline_missed;
        if done == 0 {
            return 1.0;
        }
        self.deadline_met as f64 / done as f64
    }
}

/// Seed salt of the service's in-engine random stream.
const SEED_SALT: u64 = 0x5e1e_c75e;

/// The service simulation (see the module docs).
pub struct Service<'a> {
    instance: &'a Instance,
    policy: SelectionPolicy,
    registry: Registry,
    engine: Engine,
}

impl<'a> Service<'a> {
    pub fn new(instance: &'a Instance, policy: SelectionPolicy, cfg: SvcConfig) -> Self {
        let registry = Registry::new();
        let engine = Engine::new(cfg, &registry, SEED_SALT);
        Service {
            instance,
            policy,
            registry,
            engine,
        }
    }

    /// The service's private registry (its `svc.*` and `core.*` metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Run the simulation over an arrival schedule and report. Arrivals
    /// need not be sorted; ties settle in input order. Each dispatched
    /// job runs inline on this thread.
    pub fn run(&mut self, arrivals: &[(u64, Request)]) -> SvcReport {
        let Ok(report) = self.serve(arrivals, |_, _| Ok::<_, Infallible>(()));
        report
    }

    /// [`Service::run`], answering as it goes: `respond` hears each
    /// request id's terminal fate the moment the id settles. The first
    /// error `respond` returns ends the run.
    pub fn serve<E>(
        &mut self,
        arrivals: &[(u64, Request)],
        respond: impl FnMut(u64, TerminalFate) -> Result<(), E>,
    ) -> Result<SvcReport, E> {
        self.engine
            .run(self.instance, self.policy, arrivals, respond)?;
        Ok(self.engine.report(&self.registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_core::Tier;
    use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};

    fn instance(n: u32) -> Instance {
        Instance::fresh(TokenUniverse::new((0..n).map(HtId).collect()))
    }

    fn policy() -> SelectionPolicy {
        SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
    }

    fn req(id: u64, budget: u64) -> Request {
        Request {
            id,
            target: TokenId((id % 8) as u32),
            class: Priority::Interactive,
            budget,
            require_exact: false,
            anonymity_floor: 0,
        }
    }

    #[test]
    fn uncontended_requests_complete_at_the_exact_tier() {
        let inst = instance(8);
        let mut svc = Service::new(&inst, policy(), SvcConfig::default());
        let arrivals: Vec<(u64, Request)> =
            (0..4).map(|i| (i * 10_000, req(i, 1 << 20))).collect();
        let report = svc.run(&arrivals);
        assert_eq!(report.offered, 4);
        assert_eq!(report.completed, 4);
        assert_eq!(report.shed_total(), 0);
        assert_eq!(report.deadline_met, 4);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("svc.degraded_total"), Some(0));
        assert!(snap.counter("core.degrade.answered.exact_bfs_total").unwrap() >= 4);
    }

    #[test]
    fn tiny_budgets_are_shed_as_deadline_infeasible() {
        let inst = instance(8);
        let cfg = SvcConfig {
            reserve_ticks: 100,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        let report = svc.run(&[(1, req(0, 10))]);
        assert_eq!(report.shed_deadline_infeasible, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(report.offered, 1);
    }

    #[test]
    fn queue_overflow_sheds_with_queue_full() {
        let inst = instance(8);
        let cfg = SvcConfig {
            workers: 1,
            queue_capacity: 2,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        // 12 simultaneous arrivals: 1 dispatches, 2 queue, 9 shed.
        let arrivals: Vec<(u64, Request)> = (0..12).map(|i| (1, req(i, 1 << 20))).collect();
        let report = svc.run(&arrivals);
        assert_eq!(report.shed_queue_full, 9);
        assert_eq!(report.completed, 3);
        assert_eq!(report.completed + report.shed_total(), report.offered);
    }

    #[test]
    fn accounting_holds_with_retries_and_hedges() {
        let inst = instance(8);
        let cfg = SvcConfig {
            workers: 1,
            queue_capacity: 1,
            hedge_batch: true,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        let arrivals: Vec<(u64, Request)> = (0..16)
            .map(|i| {
                (
                    1,
                    Request {
                        class: Priority::Batch,
                        ..req(i, 1 << 20)
                    },
                )
            })
            .collect();
        let report = svc.run(&arrivals);
        assert_eq!(
            report.completed + report.failed + report.shed_total(),
            report.offered
        );
        let snap = svc.registry().snapshot();
        assert!(snap.counter("svc.retry.scheduled_total").unwrap() > 0);
        assert!(snap.counter("svc.hedge.spawned_total").unwrap() > 0);
    }

    #[test]
    fn require_exact_is_shed_when_circuit_opens() {
        let inst = instance(8);
        let cfg = SvcConfig {
            workers: 1,
            queue_capacity: 32,
            // Minuscule budgets relative to exact cost force fallbacks.
            breaker: BreakerConfig {
                open_after: 2,
                cooldown: 1 << 20,
                max_cooldown: 1 << 20,
            },
            reserve_ticks: 64,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        // Budget fits the reserve but grants zero exact candidates, so
        // every dispatch skips the probe as a deadline fallback; arrivals
        // are spaced out so none is shed in-queue first. The breaker
        // opens, and a later require_exact request is refused.
        let mut arrivals: Vec<(u64, Request)> =
            (0..6).map(|i| (1 + i * 1000, req(i, 65))).collect();
        arrivals.push((
            50_000,
            Request {
                require_exact: true,
                ..req(99, 1 << 20)
            },
        ));
        let report = svc.run(&arrivals);
        assert_eq!(report.shed_circuit_open, 1);
        let snap = svc.registry().snapshot();
        assert!(snap.counter("svc.circuit.opened_total").unwrap() >= 1);
        assert_eq!(snap.gauge("svc.circuit.state"), Some(1));
    }

    #[test]
    fn unsatisfiable_floor_is_shed_typed_and_never_answered() {
        let inst = instance(8);
        let mut svc = Service::new(&inst, policy(), SvcConfig::default());
        // A floor above every tier's score can never be answered; one
        // above only the exact tier's must still complete (degraded).
        let impossible = Request {
            anonymity_floor: u32::MAX,
            ..req(0, 1 << 20)
        };
        let exact_only_floored = Request {
            anonymity_floor: Tier::ExactBfs.anonymity_score() + 1,
            ..req(1, 1 << 20)
        };
        let exact_vs_floor = Request {
            require_exact: true,
            anonymity_floor: Tier::ExactBfs.anonymity_score() + 1,
            ..req(2, 1 << 20)
        };
        let report = svc.run(&[(1, impossible), (2, exact_only_floored), (3, exact_vs_floor)]);
        assert_eq!(report.shed_anonymity_floor, 2);
        assert_eq!(report.completed, 1);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("svc.shed.anonymity_floor_total"), Some(2));
        // The answered request degraded to a tier meeting its floor.
        assert_eq!(snap.counter("svc.degraded_total"), Some(1));
        assert_eq!(snap.counter("core.degrade.answered.exact_bfs_total"), Some(0));
    }

    #[test]
    fn interactive_dispatches_before_batch() {
        let inst = instance(8);
        let cfg = SvcConfig {
            workers: 1,
            queue_capacity: 8,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        // Batch arrives first, interactive second; with one worker the
        // interactive one must still complete with lower queue latency.
        let b = Request {
            class: Priority::Batch,
            ..req(0, 1 << 20)
        };
        let i = req(1, 1 << 20);
        // Occupy the worker, then enqueue batch before interactive.
        let warm = req(2, 1 << 20);
        let report = svc.run(&[(1, warm), (2, b), (3, i)]);
        assert_eq!(report.completed, 3);
        // The interactive request's wait must be at most the batch one's:
        // it jumped the queue. (Latency histogram only proves both ran;
        // the ordering is what the queue discipline guarantees.)
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("svc.completed_total"), Some(3));
    }

    #[test]
    fn stalls_are_injected_and_counted() {
        let inst = instance(8);
        let cfg = SvcConfig {
            stall_every: 2,
            stall_ticks: 1000,
            ..SvcConfig::default()
        };
        let mut svc = Service::new(&inst, policy(), cfg);
        let arrivals: Vec<(u64, Request)> =
            (0..4).map(|i| (1 + i * 100_000, req(i, 1 << 20))).collect();
        let report = svc.run(&arrivals);
        assert_eq!(report.completed, 4);
        let snap = svc.registry().snapshot();
        assert_eq!(snap.counter("svc.stall.injected_total"), Some(2));
        assert_eq!(snap.counter("svc.stall.ticks_total"), Some(2000));
    }

    #[test]
    fn same_seed_same_snapshot() {
        let inst = instance(8);
        let run = || {
            let cfg = SvcConfig {
                workers: 2,
                seed: 7,
                ..SvcConfig::default()
            };
            let mut svc = Service::new(&inst, policy(), cfg);
            let arrivals: Vec<(u64, Request)> =
                (0..10).map(|i| (1 + i * 50, req(i, 4096))).collect();
            svc.run(&arrivals).snapshot
        };
        assert_eq!(run(), run(), "same config must replay identically");
    }
}
