//! A synchronous, single-caller facade over the service's admission and
//! circuit-breaking logic, for embedding in `dams-node`'s wallet.
//!
//! The full [`Service`](crate::service::Service) simulates queueing over
//! an arrival schedule; a wallet instead makes one blocking selection at
//! a time. [`Frontend`] runs each call through the same admission engine
//! without the queue: admit (deadline-infeasible budgets, unsatisfiable
//! floors and circuit-open exact requirements are refused with a typed
//! [`ShedReason`] *before* any search runs), grant (the floored ladder
//! and the reserve arithmetic of [`crate::admission`]), and settle (the
//! tick price, breaker feedback, and the deadline verdict). The breaker
//! runs on a virtual [`MonoClock`] that advances by each call's priced
//! work; a call meets its deadline when that price fits its budget.

use dams_core::{DegradedSelection, Instance, ModularInstance, SelectionPolicy};
use dams_diversity::TokenId;
use dams_obs::Registry;

use crate::breaker::{BreakerConfig, CircuitState};
use crate::clock::MonoClock;
use crate::engine::Engine;
use crate::service::{Priority, Request, ShedReason, SvcConfig};

/// Seed salt of the frontend's breaker-jitter stream.
const SEED_SALT: u64 = 0xf07e_57a7;

/// Frontend tuning (the queueless subset of the service config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Exchange rate: ticks one exact-BFS candidate costs.
    pub ticks_per_candidate: u64,
    /// Ticks held back from the exact grant for the cheap tiers.
    pub reserve_ticks: u64,
    pub breaker: BreakerConfig,
    /// Seed for breaker jitter.
    pub seed: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            ticks_per_candidate: 4,
            reserve_ticks: 64,
            breaker: BreakerConfig::default(),
            seed: 0,
        }
    }
}

/// Overload-aware selection facade (see the module docs).
pub struct Frontend<'a> {
    instance: &'a Instance,
    policy: SelectionPolicy,
    engine: Engine,
    /// The breaker/deadline clock: virtual ticks advanced by priced work.
    clock: MonoClock,
}

impl<'a> Frontend<'a> {
    /// Metrics land in `registry` under the usual `svc.*` / `core.*`
    /// names, so callers can merge them into their own observability.
    pub fn new(
        instance: &'a Instance,
        policy: SelectionPolicy,
        cfg: FrontendConfig,
        registry: &Registry,
    ) -> Self {
        let svc = SvcConfig {
            ticks_per_candidate: cfg.ticks_per_candidate,
            reserve_ticks: cfg.reserve_ticks,
            breaker: cfg.breaker,
            seed: cfg.seed,
            ..SvcConfig::default()
        };
        Frontend {
            instance,
            policy,
            engine: Engine::new(svc, registry, SEED_SALT),
            clock: MonoClock::ticks(),
        }
    }

    /// The breaker's current state (for tests and introspection).
    pub fn circuit_state(&self) -> CircuitState {
        self.engine.circuit_state()
    }

    /// One admission-controlled selection. `budget_ticks` is the caller's
    /// deadline in virtual ticks; `require_exact` refuses degraded
    /// answers instead of running without an exact grant.
    pub fn select(
        &mut self,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
    ) -> Result<DegradedSelection, ShedReason> {
        let instance = self.instance;
        self.select_on(instance, None, target, budget_ticks, require_exact)
    }

    /// Like [`Frontend::select`], but honouring a declared anonymity
    /// floor: only ladder tiers whose measured
    /// [`Tier::anonymity_score`] meets `anonymity_floor` may answer, and
    /// a floor no tier meets is refused as
    /// [`ShedReason::AnonymityFloor`] before any search runs.
    ///
    /// [`Tier::anonymity_score`]: dams_core::Tier::anonymity_score
    pub fn select_floored(
        &mut self,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
        anonymity_floor: u32,
    ) -> Result<DegradedSelection, ShedReason> {
        let instance = self.instance;
        self.select_on_floored(
            instance,
            None,
            target,
            budget_ticks,
            require_exact,
            anonymity_floor,
        )
    }

    /// Like [`Frontend::select`], but against an explicit `instance` —
    /// the multi-batch serving path: one frontend (one breaker, one tick
    /// economy) serves selections over whichever batch each request
    /// targets. `modular` optionally supplies an incrementally maintained
    /// partition (e.g. a [`dams_core::BatchSnapshot`]'s), so the
    /// approximation tiers skip their O(n²) decomposition entirely.
    pub fn select_on(
        &mut self,
        instance: &Instance,
        modular: Option<&ModularInstance>,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
    ) -> Result<DegradedSelection, ShedReason> {
        self.select_on_floored(instance, modular, target, budget_ticks, require_exact, 0)
    }

    /// The floor-aware core path behind every `select*` variant (see
    /// [`Frontend::select_floored`] for the floor semantics).
    pub fn select_on_floored(
        &mut self,
        instance: &Instance,
        modular: Option<&ModularInstance>,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
        anonymity_floor: u32,
    ) -> Result<DegradedSelection, ShedReason> {
        let req = Request {
            id: 0,
            target,
            class: Priority::Interactive,
            budget: budget_ticks,
            require_exact,
            anonymity_floor,
        };
        let now = self.clock.now();
        let e = &mut self.engine;
        e.metrics.offered.inc();
        let granted = e.admit(now, &req).and_then(|()| {
            e.metrics.admitted.inc();
            e.grant(now, req, now)
        });
        let job = granted.inspect_err(|&reason| e.count_shed(reason))?;
        let outcome = job.select(instance, modular, self.policy, &e.core);
        // The call's priced work advances the clock; the breaker hears
        // about it at the post-advance tick.
        let cost = e.price(&job, &outcome);
        self.clock.advance(cost);
        let now = self.clock.now();
        e.settle(&job, &outcome, cost, now, now);
        // Terminal selection errors surface as an infeasible deadline:
        // the caller's budget cannot buy an answer.
        outcome.map_err(|_| ShedReason::DeadlineInfeasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_core::Tier;
    use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
    use dams_obs::Mode;

    fn instance(n: u32) -> Instance {
        Instance::fresh(TokenUniverse::new((0..n).map(HtId).collect()))
    }

    fn policy() -> SelectionPolicy {
        SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
    }

    #[test]
    fn generous_budget_answers_exact() {
        let inst = instance(8);
        let registry = Registry::new();
        let mut f = Frontend::new(&inst, policy(), FrontendConfig::default(), &registry);
        let sel = f.select(TokenId(0), 1 << 20, false).expect("selects");
        assert_eq!(sel.tier, Tier::ExactBfs);
        assert_eq!(f.circuit_state(), CircuitState::Closed);
    }

    #[test]
    fn a_call_priced_past_its_budget_misses_its_deadline() {
        // A 70-tick budget clears the 64-tick reserve but buys a single
        // exact candidate, so every call answers at the Progressive tier
        // for far more ticks than it was given.
        let inst = instance(128);
        let registry = Registry::new();
        let mut f = Frontend::new(&inst, policy(), FrontendConfig::default(), &registry);
        for t in 0..16 {
            let sel = f.select(TokenId(t), 70, false).expect("degrades");
            assert_eq!(sel.tier, Tier::Progressive);
        }
        let snap = registry.snapshot();
        let text = snap.render_text(Mode::Deterministic);
        assert!(
            text.contains("svc.service_ticks\thistogram\tcount=16 sum=2076 "),
            "{text}"
        );
        assert_eq!(snap.counter("svc.completed_total"), Some(16));
        assert_eq!(snap.counter("svc.deadline.met_total"), Some(0));
        assert_eq!(snap.counter("svc.deadline.missed_total"), Some(16));
    }

    #[test]
    fn starved_budget_is_refused_typed() {
        let inst = instance(8);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            reserve_ticks: 100,
            ..FrontendConfig::default()
        };
        let mut f = Frontend::new(&inst, policy(), cfg, &registry);
        assert_eq!(
            f.select(TokenId(0), 10, false),
            Err(ShedReason::DeadlineInfeasible)
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("svc.shed.deadline_infeasible_total"),
            Some(1)
        );
    }

    #[test]
    fn anonymity_floor_restricts_the_answering_tier_or_sheds_typed() {
        let inst = instance(8);
        let registry = Registry::new();
        let mut f = Frontend::new(&inst, policy(), FrontendConfig::default(), &registry);
        // A floor above the exact tier's score forces a degraded answer
        // from a tier that meets it.
        let floor = Tier::ExactBfs.anonymity_score() + 1;
        let sel = f
            .select_floored(TokenId(0), 1 << 20, false, floor)
            .expect("a qualifying tier answers");
        assert!(sel.tier.anonymity_score() >= floor);
        // An unsatisfiable floor is refused before any search runs.
        assert_eq!(
            f.select_floored(TokenId(0), 1 << 20, false, u32::MAX),
            Err(ShedReason::AnonymityFloor)
        );
        // require_exact plus a floor that rules the exact tier out is a
        // contradiction, shed as the floor violation it is.
        assert_eq!(
            f.select_floored(TokenId(0), 1 << 20, true, floor),
            Err(ShedReason::AnonymityFloor)
        );
        assert_eq!(
            registry.snapshot().counter("svc.shed.anonymity_floor_total"),
            Some(2)
        );
    }

    #[test]
    fn repeated_fallbacks_open_the_circuit_for_exact_requirements() {
        let inst = instance(8);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            reserve_ticks: 64,
            breaker: BreakerConfig {
                open_after: 2,
                cooldown: 1 << 30,
                max_cooldown: 1 << 30,
            },
            ..FrontendConfig::default()
        };
        let mut f = Frontend::new(&inst, policy(), cfg, &registry);
        // Budget clears the reserve but grants ~0 exact candidates, so
        // each call is a deadline fallback.
        for _ in 0..3 {
            let sel = f.select(TokenId(1), 70, false).expect("degrades");
            assert_ne!(sel.tier, Tier::ExactBfs);
        }
        assert_eq!(f.circuit_state(), CircuitState::Open);
        assert_eq!(
            f.select(TokenId(1), 1 << 20, true),
            Err(ShedReason::CircuitOpen)
        );
        // Non-exact callers still get degraded answers while open.
        assert!(f.select(TokenId(1), 1 << 20, false).is_ok());
        assert!(registry.snapshot().counter("svc.circuit.opened_total").unwrap() >= 1);
    }
}
