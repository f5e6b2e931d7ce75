//! One monotonic clock abstraction for tick-mode and wall-clock-mode.
//!
//! The circuit breaker, the retry scheduler, and the deadline arithmetic
//! all reason in **ticks**. The service's event loop (and the runtime's
//! virtual pace, which shares it) reads its ticks off its event queue;
//! the queueless [`Frontend`](crate::frontend::Frontend) advances a
//! virtual tick counter by each call's priced work; the runtime's wall
//! pace serves wall-clock callers.
//!
//! [`MonoClock`] is the source of `now` for the last two:
//!
//! * [`MonoClock::Ticks`] — a virtual counter advanced explicitly by
//!   priced work. Deterministic; what the frontend uses.
//! * [`MonoClock::Wall`] — `Instant::now()` since an origin, divided by
//!   the calibrated `ns_per_tick` exchange rate. [`MonoClock::advance`]
//!   is a no-op (wall time advances itself), so the *same* breaker and
//!   deadline code runs unchanged in both modes.
//!
//! The tick↔nanosecond exchange rate comes from [`WallCalibration`]:
//! measure how long one exact-BFS candidate actually takes on this host,
//! divide by the tick price of a candidate, and wall deadlines map onto
//! the PR-5 tick economy.

use std::time::Instant;

use dams_core::{bfs, BfsBudget, Instance, SelectionPolicy};
use dams_diversity::TokenId;

/// A monotonic tick clock with a virtual and a wall-clock backend (see
/// the module docs).
#[derive(Debug, Clone, Copy)]
pub enum MonoClock {
    /// Virtual time: `now` advances only via [`MonoClock::advance`].
    Ticks { now: u64 },
    /// Wall time: `now` is elapsed nanoseconds since `origin` divided by
    /// `ns_per_tick`; [`MonoClock::advance`] is a no-op.
    Wall { origin: Instant, ns_per_tick: u64 },
}

impl MonoClock {
    /// A virtual clock starting at tick 0.
    pub fn ticks() -> Self {
        MonoClock::Ticks { now: 0 }
    }

    /// A wall clock anchored now, with the given exchange rate (clamped
    /// to ≥ 1 ns/tick).
    pub fn wall(ns_per_tick: u64) -> Self {
        MonoClock::Wall {
            origin: Instant::now(),
            ns_per_tick: ns_per_tick.max(1),
        }
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        match self {
            MonoClock::Ticks { now } => *now,
            MonoClock::Wall { origin, ns_per_tick } => {
                (origin.elapsed().as_nanos() / u128::from(*ns_per_tick)) as u64
            }
        }
    }

    /// Credit `ticks` of priced work. Virtual clocks advance; wall clocks
    /// ignore it (real time already passed while the work ran).
    pub fn advance(&mut self, ticks: u64) {
        if let MonoClock::Ticks { now } = self {
            *now = now.saturating_add(ticks);
        }
    }

    /// Whether this clock runs on wall time.
    pub fn is_wall(&self) -> bool {
        matches!(self, MonoClock::Wall { .. })
    }
}

/// The measured tick↔wall exchange rate for one host + instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallCalibration {
    /// Nanoseconds one virtual tick is worth on this host.
    pub ns_per_tick: u64,
    /// Candidates the calibration run examined (sanity/observability).
    pub candidates_measured: u64,
}

impl WallCalibration {
    /// Convert a wall-clock deadline into the tick economy.
    pub fn ticks_from_nanos(&self, nanos: u64) -> u64 {
        nanos / self.ns_per_tick.max(1)
    }

    /// Convert a tick budget back into wall time.
    pub fn nanos_from_ticks(&self, ticks: u64) -> u64 {
        ticks.saturating_mul(self.ns_per_tick.max(1))
    }
}

/// Measure how many nanoseconds one exact-BFS candidate costs on this
/// host for `instance`, and derive `ns_per_tick` from the tick price of a
/// candidate. Deterministic in *what* it computes (the searches are
/// seedless and exact); only the measured duration is host-dependent —
/// which is the point.
pub fn calibrate_wall(
    instance: &Instance,
    policy: SelectionPolicy,
    ticks_per_candidate: u64,
) -> WallCalibration {
    let tpc = ticks_per_candidate.max(1);
    let start = Instant::now();
    let mut candidates = 0u64;
    for t in 0..instance.universe.len() as u32 {
        if let Ok(sel) = bfs(instance, TokenId(t), policy.effective(), BfsBudget::default()) {
            candidates += sel.stats.candidates_examined;
        }
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    // ns per candidate / ticks per candidate = ns per tick.
    let ns_per_candidate = elapsed / candidates.max(1);
    WallCalibration {
        ns_per_tick: (ns_per_candidate / tpc).max(1),
        candidates_measured: candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};

    #[test]
    fn virtual_clock_advances_only_explicitly() {
        let mut c = MonoClock::ticks();
        assert_eq!(c.now(), 0);
        c.advance(7);
        c.advance(3);
        assert_eq!(c.now(), 10);
        assert!(!c.is_wall());
    }

    #[test]
    fn wall_clock_is_monotonic_and_ignores_advance() {
        let mut c = MonoClock::wall(1);
        let a = c.now();
        c.advance(1 << 40); // must be a no-op
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b >= a, "wall clock went backwards: {a} -> {b}");
        assert!(b < a + (1 << 40), "advance leaked into wall time");
        assert!(c.is_wall());
    }

    #[test]
    fn wall_clock_scales_by_ns_per_tick() {
        let coarse = MonoClock::wall(1_000_000_000); // 1 tick = 1 s
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(coarse.now(), 0, "2ms is far below one coarse tick");
    }

    #[test]
    fn calibration_round_trips_budgets() {
        let cal = WallCalibration {
            ns_per_tick: 250,
            candidates_measured: 1,
        };
        assert_eq!(cal.ticks_from_nanos(1_000), 4);
        assert_eq!(cal.nanos_from_ticks(4), 1_000);
    }

    #[test]
    fn wall_calibration_measures_positive_rates() {
        let instance =
            Instance::fresh(TokenUniverse::new((0..8u32).map(HtId).collect()));
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
        let cal = calibrate_wall(&instance, policy, 4);
        assert!(cal.ns_per_tick >= 1);
        assert!(cal.candidates_measured > 0);
    }
}
