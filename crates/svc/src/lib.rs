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
//!   protections, for embedding in `dams-node`'s wallet.
//! * [`runtime`] — the same service on real worker threads behind the
//!   [`wire`] protocol, checked against the simulation by
//!   [`differential`].
//! * [`overload`] — the seeded overload harness: calibrates the tick
//!   economy against an instance, drives open-loop arrival ramps at
//!   multiples of capacity, and renders `BENCH_overload.json`.
//! * [`cluster`] — the scale-out harness: the same seeded schedule
//!   sharded round-robin across N replica services, for the cluster
//!   goodput rows of `BENCH_cluster.json`.
//! * [`soak`] — the streaming soak harness: grows a chain from 10³ to
//!   10⁶ tokens through the incremental diversity index and proves the
//!   per-request p99 stays flat (`BENCH_soak.json`).
//! * [`obs`] — the `svc.*` metric family.
//!
//! The request path itself (admission, queues, dispatch, settlement,
//! breaker feedback, retries and hedges, the terminal ledger) is written
//! once, in a crate-private engine that [`service`], [`runtime`] and
//! [`frontend`] all run.
//!
//! Everything runs on a virtual tick clock from explicit seeds, so an
//! overload scenario replays byte-identically, which the property tests
//! assert on rendered snapshots.

pub mod admission;
pub mod breaker;
pub mod clock;
pub mod cluster;
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
pub use clock::{calibrate_wall, MonoClock, WallCalibration};
pub use cluster::{run_cluster_overload, ClusterLoadReport};
pub use differential::{
    render_multi, render_runtime_bench_json, run_differential, DiffConfig, DiffOutcome, DiffReport,
    DiffRow,
};
pub use engine::{TerminalFate, TerminalLedger};
pub use frontend::{Frontend, FrontendConfig};
pub use obs::{RuntimeMetrics, SvcMetrics};
pub use overload::{
    build_arrivals, calibrate, render_bench_json, run_overload, run_ramp, service_config,
    Calibration, OverloadConfig,
};
pub use retry::RetryPolicy;
pub use runtime::{run_runtime, ClientTally, Pace, RuntimeConfig, RuntimeReport, Transport};
pub use service::{Priority, Request, Service, ShedReason, SvcConfig, SvcReport};
pub use soak::{
    render_soak_json, run_soak, SoakConfig, SoakPhase, SoakReport, MAINTENANCE_TOLERANCE,
    P99_TOLERANCE,
};
pub use wire::{
    decode_frame, duplex_pair, write_frame, DuplexEnd, FrameReader, Hello, Message, WireError,
    WireOutcome, WireRequest, WireResponse,
};
