//! `dams-svc` — the overload-robust selection service.
//!
//! DA-MS selection spans three cost tiers (exact BFS, Progressive,
//! Game-theoretic), and PR 3's degrade ladder picks the best answer a
//! *single* request's budget can buy. This crate answers the system
//! question above it: what happens when many requests compete for
//! bounded capacity?
//!
//! * [`service`] — a deterministic multi-worker discrete-event service:
//!   bounded priority queues, typed admission-control sheds
//!   ([`ShedReason`]), end-to-end deadline propagation (queue wait is
//!   debited from each request's tick budget before the remainder is
//!   granted to the solver as a virtual [`Deadline`](dams_core::Deadline)),
//!   seeded retry/backoff and hedging for batch traffic, and chaos-style
//!   worker stalls.
//! * [`breaker`] — a circuit breaker around the exact tier: K
//!   consecutive deadline-driven fallbacks open it, a jittered
//!   exponential cooldown half-opens it for a probe.
//! * [`retry`] — full-jitter backoff policy for shed batch requests.
//! * [`frontend`] — a queueless synchronous facade with the same
//!   protections, for a caller that makes one blocking selection at a
//!   time: the [`soak`] harness, dams-bench's anonymity figure and
//!   perfbench's `select-exact` workload.
//! * [`runtime`] — the same service behind the [`wire`] protocol, with
//!   real client threads on the other end, checked against the
//!   simulation by [`differential`].
//! * [`overload`] — the seeded overload harness: calibrates the tick
//!   economy against an instance, drives open-loop arrival ramps at
//!   multiples of capacity, and renders `BENCH_overload.json`.
//! * [`soak`] — the streaming soak harness: grows a chain from 10³ to
//!   10⁶ tokens through the incremental diversity index and proves the
//!   per-request p99 stays flat (`BENCH_soak.json`).
//! * [`obs`] — the `svc.*` metric family.
//!
//! The request path itself (admission, queues, dispatch, settlement,
//! breaker feedback, retries and hedges, the terminal ledger) is written
//! once, in a crate-private engine that [`service`] (and through it
//! [`runtime`]) and [`frontend`] run.
//!
//! Everything runs on one clock, work ticks, from explicit seeds: no
//! budget, deadline or breaker cooldown reads the wall clock, so an
//! overload scenario replays byte-identically, which the property tests
//! assert on rendered snapshots.

pub mod admission;
pub mod breaker;
pub mod differential;
mod engine;
pub mod frontend;
pub mod obs;
pub mod overload;
pub mod retry;
pub mod runtime;
pub mod service;
pub mod soak;
pub mod wire;

pub use breaker::{BreakerConfig, CircuitBreaker, CircuitState, Transition};
pub use differential::{
    render_multi, render_runtime_bench_json, run_differential, DiffConfig, DiffOutcome, DiffReport,
    DiffRow,
};
pub use engine::TerminalFate;
pub use frontend::{Frontend, FrontendConfig};
pub use obs::{RuntimeMetrics, SvcMetrics};
pub use overload::{
    build_arrivals, calibrate, render_bench_json, run_overload, run_ramp, service_config,
    Calibration, OverloadConfig,
};
pub use retry::RetryPolicy;
pub use runtime::{run_runtime, ClientTally, RuntimeConfig, RuntimeReport, Transport};
pub use service::{Priority, Request, Service, ShedReason, SvcConfig, SvcReport};
pub use soak::{
    render_soak_json, run_soak, SoakConfig, SoakPhase, SoakReport, MAINTENANCE_TOLERANCE,
    P99_TOLERANCE,
};
pub use wire::{
    decode_frame, duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError,
    WireOutcome, WireRequest, WireResponse,
};
