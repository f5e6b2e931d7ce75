//! The `svc.*` metric family: everything the selection service's
//! admission, queueing, deadline, and circuit behaviour exposes.
//!
//! Naming follows the workspace scheme (see `dams-obs`):
//!
//! * `svc.offered_total` / `svc.admitted_total` / `svc.completed_total` /
//!   `svc.failed_total` — request lifecycle (unique requests offered,
//!   admission grants, completions, terminal selection failures);
//! * `svc.shed.queue_full_total` / `svc.shed.deadline_infeasible_total` /
//!   `svc.shed.circuit_open_total` / `svc.shed.anonymity_floor_total` —
//!   shed **events** by typed reason (a retried shed counts each time it
//!   happens; terminal accounting lives in the harness report);
//! * `svc.retry.scheduled_total`, `svc.hedge.spawned_total`,
//!   `svc.hedge.wasted_total` — backoff re-submissions and hedged
//!   duplicates (wasted = the twin finished first);
//! * `svc.deadline.met_total` / `svc.deadline.missed_total` — completed
//!   requests against their propagated budgets;
//! * `svc.degraded_total` — completions answered below the exact tier;
//! * `svc.queue.wait_ticks`, `svc.latency_ticks`, `svc.service_ticks` —
//!   virtual-time distributions ([`Unit::Count`], so they render fully in
//!   deterministic snapshots);
//! * `svc.queue.depth_peak` — high-watermark of total queued requests;
//! * `svc.circuit.state` (0 closed / 1 open / 2 half-open) and
//!   `svc.circuit.{opened,half_open,closed}_total` — breaker transitions;
//! * `svc.stall.injected_total` / `svc.stall.ticks_total` — chaos-harness
//!   worker stalls.

use dams_obs::{Counter, Gauge, Histogram, Registry, Unit};

/// Handles onto every `svc.*` metric (see the module docs).
#[derive(Debug, Clone)]
pub struct SvcMetrics {
    pub offered: Counter,
    pub admitted: Counter,
    pub completed: Counter,
    pub failed: Counter,
    pub shed_queue_full: Counter,
    pub shed_deadline_infeasible: Counter,
    pub shed_circuit_open: Counter,
    pub shed_anonymity_floor: Counter,
    pub retries: Counter,
    pub hedges_spawned: Counter,
    pub hedges_wasted: Counter,
    pub deadline_met: Counter,
    pub deadline_missed: Counter,
    pub degraded: Counter,
    pub queue_wait: Histogram,
    pub latency: Histogram,
    pub service: Histogram,
    pub queue_depth_peak: Gauge,
    pub circuit_state: Gauge,
    pub circuit_opened: Counter,
    pub circuit_half_open: Counter,
    pub circuit_closed: Counter,
    pub stalls_injected: Counter,
    pub stall_ticks: Counter,
}

impl SvcMetrics {
    /// Register (or re-acquire) every service metric in `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        SvcMetrics {
            offered: registry.counter("svc.offered_total"),
            admitted: registry.counter("svc.admitted_total"),
            completed: registry.counter("svc.completed_total"),
            failed: registry.counter("svc.failed_total"),
            shed_queue_full: registry.counter("svc.shed.queue_full_total"),
            shed_deadline_infeasible: registry.counter("svc.shed.deadline_infeasible_total"),
            shed_circuit_open: registry.counter("svc.shed.circuit_open_total"),
            shed_anonymity_floor: registry.counter("svc.shed.anonymity_floor_total"),
            retries: registry.counter("svc.retry.scheduled_total"),
            hedges_spawned: registry.counter("svc.hedge.spawned_total"),
            hedges_wasted: registry.counter("svc.hedge.wasted_total"),
            deadline_met: registry.counter("svc.deadline.met_total"),
            deadline_missed: registry.counter("svc.deadline.missed_total"),
            degraded: registry.counter("svc.degraded_total"),
            queue_wait: registry.histogram("svc.queue.wait_ticks", Unit::Count),
            latency: registry.histogram("svc.latency_ticks", Unit::Count),
            service: registry.histogram("svc.service_ticks", Unit::Count),
            queue_depth_peak: registry.gauge("svc.queue.depth_peak"),
            circuit_state: registry.gauge("svc.circuit.state"),
            circuit_opened: registry.counter("svc.circuit.opened_total"),
            circuit_half_open: registry.counter("svc.circuit.half_open_total"),
            circuit_closed: registry.counter("svc.circuit.closed_total"),
            stalls_injected: registry.counter("svc.stall.injected_total"),
            stall_ticks: registry.counter("svc.stall.ticks_total"),
        }
    }
}

/// Handles onto the `svc.runtime.*` family — what the real runtime adds
/// on top of the service metrics:
///
/// * `svc.runtime.frames.{sent,received,rejected}_total` — wire frames
///   the server wrote / decoded / refused (deterministic for a given
///   trace, so they live in the deterministic snapshot);
/// * `svc.runtime.sessions_total` — wallet sessions opened via HELLO.
#[derive(Debug, Clone)]
pub struct RuntimeMetrics {
    pub frames_sent: Counter,
    pub frames_received: Counter,
    pub frames_rejected: Counter,
    pub sessions: Counter,
}

impl RuntimeMetrics {
    /// Register (or re-acquire) every runtime metric in `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        RuntimeMetrics {
            frames_sent: registry.counter("svc.runtime.frames.sent_total"),
            frames_received: registry.counter("svc.runtime.frames.received_total"),
            frames_rejected: registry.counter("svc.runtime.frames.rejected_total"),
            sessions: registry.counter("svc.runtime.sessions_total"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_expected_names() {
        let registry = Registry::new();
        let m = SvcMetrics::in_registry(&registry);
        m.offered.add(4);
        m.shed_queue_full.inc();
        m.queue_wait.record(7);
        m.circuit_state.set(1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("svc.offered_total"), Some(4));
        assert_eq!(snap.counter("svc.shed.queue_full_total"), Some(1));
        assert_eq!(snap.histogram_count("svc.queue.wait_ticks"), Some(1));
        assert_eq!(snap.gauge("svc.circuit.state"), Some(1));
    }

    #[test]
    fn runtime_family_registers() {
        let registry = Registry::new();
        let m = RuntimeMetrics::in_registry(&registry);
        m.frames_sent.add(3);
        m.sessions.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("svc.runtime.frames.sent_total"), Some(3));
        assert_eq!(snap.counter("svc.runtime.sessions_total"), Some(1));
    }

    #[test]
    fn reacquiring_shares_the_atomics() {
        let registry = Registry::new();
        let a = SvcMetrics::in_registry(&registry);
        let b = SvcMetrics::in_registry(&registry);
        a.completed.add(2);
        b.completed.add(3);
        assert_eq!(registry.snapshot().counter("svc.completed_total"), Some(5));
    }
}
