//! The request path, written once.
//!
//! Every serving surface in this crate runs this engine, so all of them
//! make the same decision for the same request state:
//!
//! * **arrival** — the admission checks ([`Engine::admit`]: deadline
//!   feasibility, anonymity-floor feasibility, the exact-only circuit
//!   check), then the bounded queue of the request's class;
//! * **dispatch** — the queue-wait debit, the floored ladder and the
//!   exact grant ([`Engine::grant`]), and the chaos stall;
//! * **settlement** — the tick price, breaker feedback with its seeded
//!   jitter, the deadline verdict, and the terminal ledger (the first
//!   settlement of an id wins);
//! * **retry and hedge scheduling** for shed batch requests, with twin
//!   dedup on arrival and on dispatch.
//!
//! Two drivers run it. They differ only where they must:
//!
//! * [`Service`](crate::service::Service) runs the event loop,
//!   [`Engine::run`], over an arrival schedule. The
//!   [`runtime`](crate::runtime) is this driver behind the wire: it
//!   decodes the trace's frames and calls the same loop.
//! * [`Frontend`](crate::frontend::Frontend) runs one request through
//!   admit → grant → settle. It has no queue and no ledger entry.
//!
//! # One job per dispatch round
//!
//! The event loop dispatches after every event, and every event either
//! adds one arrival or frees one worker. After a round, either no worker
//! is idle or both queues are empty. So the next round can pair at most
//! one worker with one request: a round never yields more than one job.
//! [`Engine::run`] runs and settles that job before it takes the next
//! event, so at most one selection is ever in flight.

use std::collections::{hash_map::Entry, BTreeMap, HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    select_with_ladder_exec, CoreMetrics, DegradedSelection, Instance, LadderExec, ModularInstance,
    SelectError, SelectionPolicy, Tier,
};
use dams_obs::{Mode, Registry};

use crate::admission;
use crate::breaker::{CircuitBreaker, CircuitState, Transition};
use crate::obs::SvcMetrics;
use crate::service::{Priority, Request, ShedReason, SvcConfig, SvcReport};

/// What one selection returns.
pub(crate) type Outcome = Result<DegradedSelection, SelectError>;

/// The terminal fate of one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalFate {
    Completed { met: bool, degraded: bool },
    Shed(ShedReason),
    Failed,
}

impl TerminalFate {
    /// The fate of `job` when it finishes at tick `finish`.
    fn of(job: &Job, outcome: &Outcome, finish: u64) -> Self {
        match outcome {
            Ok(sel) => TerminalFate::Completed {
                met: finish.saturating_sub(job.enqueued) <= job.req.budget,
                degraded: sel.tier != Tier::ExactBfs,
            },
            Err(_) => TerminalFate::Failed,
        }
    }
}

/// An event on the engine's clock.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival {
        req: Request,
        attempt: u32,
        hedge: bool,
    },
    WorkerFree(usize),
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: Request,
    attempt: u32,
    hedge: bool,
    enqueued: u64,
}

/// A dispatched request: what a worker needs to run it and what the
/// engine needs to settle it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    worker: usize,
    req: Request,
    enqueued: u64,
    exact_ok: bool,
    grant: u64,
    stall: u64,
}

impl Job {
    /// Run the job's floored ladder under its exact grant.
    pub(crate) fn select(
        &self,
        instance: &Instance,
        modular: Option<&ModularInstance>,
        policy: SelectionPolicy,
        core: &CoreMetrics,
    ) -> Outcome {
        // Never empty: the grant step sheds a request whose floor empties
        // the ladder.
        let ladder = admission::floored_ladder(self.exact_ok, self.req.anonymity_floor);
        select_with_ladder_exec(
            instance,
            self.req.target,
            policy,
            admission::grant_budget(self.grant),
            &ladder,
            core,
            &LadderExec {
                modular,
                ..LadderExec::default()
            },
        )
    }
}

/// The admission engine (see the module docs).
pub(crate) struct Engine {
    cfg: SvcConfig,
    pub metrics: SvcMetrics,
    pub core: CoreMetrics,
    breaker: CircuitBreaker,
    rng: StdRng,
    interactive: VecDeque<Queued>,
    batch: VecDeque<Queued>,
    idle: VecDeque<usize>,
    /// The terminal fate of every settled id.
    ledger: HashMap<u64, TerminalFate>,
    /// Ids this engine settled that the driver has not answered yet.
    settled: Vec<(u64, TerminalFate)>,
    /// Pending events keyed by `(tick, insertion order)`, so ties pop in
    /// the order they were scheduled.
    events: BTreeMap<(u64, u64), Event>,
    next_seq: u64,
    offered_ids: u64,
    dispatches: u64,
    /// The tick the last event settled at.
    final_tick: u64,
}

impl Engine {
    /// An engine whose metrics land in `registry`. Every in-engine draw
    /// (backoff, breaker jitter) comes from one stream seeded by
    /// `cfg.seed ^ seed_salt`.
    pub fn new(cfg: SvcConfig, registry: &Registry, seed_salt: u64) -> Self {
        let metrics = SvcMetrics::in_registry(registry);
        metrics
            .circuit_state
            .set(CircuitState::Closed.gauge_value());
        Engine {
            cfg,
            metrics,
            core: CoreMetrics::in_registry(registry),
            breaker: CircuitBreaker::new(cfg.breaker),
            rng: StdRng::seed_from_u64(cfg.seed ^ seed_salt),
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
            idle: (0..cfg.workers.max(1)).collect(),
            ledger: HashMap::new(),
            settled: Vec::new(),
            events: BTreeMap::new(),
            next_seq: 0,
            offered_ids: 0,
            dispatches: 0,
            final_tick: 0,
        }
    }

    pub fn circuit_state(&self) -> CircuitState {
        self.breaker.state()
    }

    // -----------------------------------------------------------------
    // The steps every driver shares
    // -----------------------------------------------------------------

    /// The arrival checks. Deadline feasibility comes first: a budget
    /// below the cheap-tier reserve can never finish, no matter the
    /// queue. The anonymity floor next: if even the full ladder has no
    /// tier whose measured score meets it (or the request insists on an
    /// exact tier the floor rules out), neither queueing nor breaker
    /// recovery can ever answer it compliantly. Last, exact-only requests
    /// are refused while the circuit is open: waiting would only burn
    /// their budget.
    pub fn admit(&mut self, now: u64, req: &Request) -> Result<(), ShedReason> {
        if req.budget < self.cfg.reserve_ticks {
            return Err(ShedReason::DeadlineInfeasible);
        }
        if req.anonymity_floor > 0 {
            let exact_floored =
                req.require_exact && Tier::ExactBfs.anonymity_score() < req.anonymity_floor;
            if exact_floored || admission::floored_ladder(true, req.anonymity_floor).is_empty() {
                return Err(ShedReason::AnonymityFloor);
            }
        }
        if req.require_exact && !self.exact_allowed(now) {
            return Err(ShedReason::CircuitOpen);
        }
        Ok(())
    }

    /// The floored ladder and exact grant for `req`, dispatched at `now`
    /// after waiting since `enqueued`. A remainder below the reserve is
    /// shed rather than dispatched to miss. The anonymity floor narrows
    /// the ladder before any budget is granted: a floored-out exact tier
    /// gets no grant (and gives no breaker feedback), exactly as if the
    /// breaker had denied it.
    pub fn grant(&mut self, now: u64, req: Request, enqueued: u64) -> Result<Job, ShedReason> {
        let remaining = req.budget.saturating_sub(now.saturating_sub(enqueued));
        if remaining < self.cfg.reserve_ticks {
            return Err(ShedReason::DeadlineInfeasible);
        }
        let exact_ok =
            self.exact_allowed(now) && Tier::ExactBfs.anonymity_score() >= req.anonymity_floor;
        if admission::floored_ladder(exact_ok, req.anonymity_floor).is_empty() {
            return Err(ShedReason::AnonymityFloor);
        }
        Ok(Job {
            worker: 0,
            req,
            enqueued,
            exact_ok,
            grant: admission::exact_grant(
                remaining,
                self.cfg.reserve_ticks,
                self.cfg.ticks_per_candidate,
                exact_ok,
            ),
            stall: 0,
        })
    }

    /// The tick price of a finished job.
    pub fn price(&self, job: &Job, outcome: &Outcome) -> u64 {
        admission::price_outcome(
            outcome,
            job.exact_ok,
            job.grant,
            self.cfg.ticks_per_candidate,
        )
    }

    /// Settle a job that cost `cost` ticks and finished at `finish`; the
    /// breaker hears about it at `feedback_tick`. Only grants give
    /// feedback: a deadline-driven fallback (burned probe or zero-grant
    /// skip) strikes, an exact answer heals.
    pub fn settle(
        &mut self,
        job: &Job,
        outcome: &Outcome,
        cost: u64,
        feedback_tick: u64,
        finish: u64,
    ) -> TerminalFate {
        self.metrics.service.record(cost);
        let tr = match admission::breaker_feedback(outcome, job.exact_ok) {
            Some(true) => {
                let jitter = self.rng.gen_range(0..=self.cfg.breaker.cooldown.max(4) / 4);
                self.breaker.on_fallback(feedback_tick, jitter)
            }
            Some(false) => self.breaker.on_exact_success(),
            None => None,
        };
        self.surface(tr);
        let fate = TerminalFate::of(job, outcome, finish);
        if let TerminalFate::Completed { met, degraded } = fate {
            self.metrics
                .latency
                .record(finish.saturating_sub(job.enqueued));
            if met {
                self.metrics.deadline_met.inc();
            } else {
                self.metrics.deadline_missed.inc();
            }
            if degraded {
                self.metrics.degraded.inc();
            }
            self.metrics.completed.inc();
        } else {
            self.metrics.failed.inc();
        }
        fate
    }

    /// Count one shed event under its typed reason.
    pub fn count_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.metrics.shed_queue_full.inc(),
            ShedReason::DeadlineInfeasible => self.metrics.shed_deadline_infeasible.inc(),
            ShedReason::CircuitOpen => self.metrics.shed_circuit_open.inc(),
            ShedReason::AnonymityFloor => self.metrics.shed_anonymity_floor.inc(),
        }
    }

    /// Whether the breaker grants an exact budget at `now`.
    fn exact_allowed(&mut self, now: u64) -> bool {
        let (allowed, tr) = self.breaker.exact_allowed(now);
        self.surface(tr);
        allowed
    }

    fn surface(&self, tr: Option<Transition>) {
        let Some(tr) = tr else { return };
        match tr {
            Transition::Opened => self.metrics.circuit_opened.inc(),
            Transition::HalfOpened => self.metrics.circuit_half_open.inc(),
            Transition::Closed => self.metrics.circuit_closed.inc(),
        }
        self.metrics
            .circuit_state
            .set(self.breaker.state().gauge_value());
    }

    // -----------------------------------------------------------------
    // Queues, retries and the ledger (the event loop)
    // -----------------------------------------------------------------

    fn on_event(&mut self, now: u64, event: Event) {
        match event {
            Event::Arrival {
                req,
                attempt,
                hedge,
            } => self.arrive(now, req, attempt, hedge),
            Event::WorkerFree(worker) => self.idle.push_back(worker),
        }
    }

    /// Admit one arrival into its class queue, or shed it.
    fn arrive(&mut self, now: u64, req: Request, attempt: u32, hedge: bool) {
        if attempt == 1 && !hedge {
            self.offered_ids += 1;
            self.metrics.offered.inc();
        }
        if self.twin_settled(req.id, hedge) {
            return;
        }
        if let Err(reason) = self.admit(now, &req) {
            return self.shed(now, req, attempt, hedge, reason);
        }
        let queue = match req.class {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        };
        if queue.len() >= self.cfg.queue_capacity {
            return self.shed(now, req, attempt, hedge, ShedReason::QueueFull);
        }
        queue.push_back(Queued {
            req,
            attempt,
            hedge,
            enqueued: now,
        });
        self.metrics.admitted.inc();
        self.metrics
            .queue_depth_peak
            .set_max((self.interactive.len() + self.batch.len()) as i64);
    }

    /// Whether a twin (hedge or primary) already settled `id`; a hedge
    /// that lost the race counts as wasted.
    fn twin_settled(&self, id: u64, hedge: bool) -> bool {
        let settled = self.ledger.contains_key(&id);
        if settled && hedge {
            self.metrics.hedges_wasted.inc();
        }
        settled
    }

    /// Record a shed event and either schedule a retry (plus an optional
    /// hedge) or settle the id terminally.
    fn shed(&mut self, now: u64, req: Request, attempt: u32, hedge: bool, reason: ShedReason) {
        self.count_shed(reason);
        // Hedge copies never settle the id: their primary twin does.
        if hedge {
            return;
        }
        // Deadline and floor sheds are terminal: a retry re-offers the
        // same budget (resp. the same floor against the same measured
        // tier scores), so it can never fare better.
        let retryable = req.class == Priority::Batch
            && reason != ShedReason::DeadlineInfeasible
            && reason != ShedReason::AnonymityFloor
            && self.cfg.retry.may_retry(attempt);
        if !retryable {
            return self.record_terminal(req.id, TerminalFate::Shed(reason));
        }
        let backoff = self.cfg.retry.backoff_ticks(attempt, &mut self.rng);
        self.metrics.retries.inc();
        let retry = |hedge| Event::Arrival {
            req,
            attempt: attempt + 1,
            hedge,
        };
        self.schedule(now + backoff, retry(false));
        if self.cfg.hedge_batch {
            // Staggered duplicate: whichever twin settles first wins, the
            // other is deduplicated on arrival or dispatch.
            self.metrics.hedges_spawned.inc();
            self.schedule(now + backoff + 1 + backoff / 2, retry(true));
        }
    }

    /// Pair an idle worker with the next queued request that survives
    /// dedup and the grant step. `None` once either side runs dry.
    fn dispatch(&mut self, now: u64) -> Option<Job> {
        while !self.idle.is_empty() {
            let q = self
                .interactive
                .pop_front()
                .or_else(|| self.batch.pop_front())?;
            if self.twin_settled(q.req.id, q.hedge) {
                continue;
            }
            let worker = self.idle.pop_front()?;
            self.metrics
                .queue_wait
                .record(now.saturating_sub(q.enqueued));
            match self.grant(now, q.req, q.enqueued) {
                Ok(job) => {
                    self.dispatches += 1;
                    let stall = if self.cfg.stall_every > 0
                        && self.dispatches.is_multiple_of(self.cfg.stall_every)
                    {
                        self.metrics.stalls_injected.inc();
                        self.metrics.stall_ticks.add(self.cfg.stall_ticks);
                        self.cfg.stall_ticks
                    } else {
                        0
                    };
                    return Some(Job {
                        worker,
                        stall,
                        ..job
                    });
                }
                Err(reason) => {
                    self.shed(now, q.req, q.attempt, q.hedge, reason);
                    self.idle.push_back(worker);
                }
            }
        }
        None
    }

    /// Settle `id` terminally unless a twin got there first; the winner
    /// waits in `settled` for the driver to answer it.
    fn record_terminal(&mut self, id: u64, fate: TerminalFate) {
        if let Entry::Vacant(slot) = self.ledger.entry(id) {
            slot.insert(fate);
            self.settled.push((id, fate));
        }
    }

    fn schedule(&mut self, tick: u64, event: Event) {
        self.events.insert((tick, self.next_seq), event);
        self.next_seq += 1;
    }

    /// The discrete-event loop behind [`Service::serve`]. Arrivals need
    /// not be sorted; ties settle in input order. Each dispatched job
    /// runs its ladder over `instance` inline; `respond` hears every
    /// terminal settlement. The loop dispatches after every event and
    /// settles each job before the next event (see the module docs).
    ///
    /// [`Service::serve`]: crate::service::Service::serve
    pub fn run<E>(
        &mut self,
        instance: &Instance,
        policy: SelectionPolicy,
        arrivals: &[(u64, Request)],
        mut respond: impl FnMut(u64, TerminalFate) -> Result<(), E>,
    ) -> Result<(), E> {
        for &(tick, req) in arrivals {
            self.schedule(
                tick,
                Event::Arrival {
                    req,
                    attempt: 1,
                    hedge: false,
                },
            );
        }
        while let Some(((now, _), event)) = self.events.pop_first() {
            self.final_tick = self.final_tick.max(now);
            self.on_event(now, event);
            let mut jobs = 0;
            while let Some(job) = self.dispatch(now) {
                jobs += 1;
                debug_assert_eq!(jobs, 1, "a dispatch round yields at most one job");
                let outcome = job.select(instance, None, policy, &self.core);
                let cost = self.price(&job, &outcome);
                let finish = now + cost + job.stall;
                self.schedule(finish, Event::WorkerFree(job.worker));
                let fate = self.settle(&job, &outcome, cost, now, finish);
                self.record_terminal(job.req.id, fate);
            }
            for (id, fate) in self.settled.drain(..) {
                respond(id, fate)?;
            }
        }
        Ok(())
    }

    /// The run's accounting: terminal fates per unique id from the
    /// ledger, plus the deterministic snapshot of `registry`.
    pub fn report(&self, registry: &Registry) -> SvcReport {
        let mut r = SvcReport {
            offered: self.offered_ids,
            admitted_events: self.metrics.admitted.get(),
            p50_latency_ticks: self.metrics.latency.quantile(0.5).unwrap_or(0),
            p99_latency_ticks: self.metrics.latency.quantile(0.99).unwrap_or(0),
            final_tick: self.final_tick,
            snapshot: registry.snapshot().render_text(Mode::Deterministic),
            ..SvcReport::default()
        };
        for fate in self.ledger.values() {
            match fate {
                TerminalFate::Completed { met, .. } => {
                    r.completed += 1;
                    if *met {
                        r.deadline_met += 1;
                    } else {
                        r.deadline_missed += 1;
                    }
                }
                TerminalFate::Failed => r.failed += 1,
                TerminalFate::Shed(ShedReason::QueueFull) => r.shed_queue_full += 1,
                TerminalFate::Shed(ShedReason::DeadlineInfeasible) => {
                    r.shed_deadline_infeasible += 1
                }
                TerminalFate::Shed(ShedReason::CircuitOpen) => r.shed_circuit_open += 1,
                TerminalFate::Shed(ShedReason::AnonymityFloor) => r.shed_anonymity_floor += 1,
            }
        }
        r
    }
}
