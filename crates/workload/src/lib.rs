//! # dams-workload
//!
//! Workload generation for the DA-MS experiments (§7.1):
//!
//! * [`synthetic`] — Table 3 instances (|S|, |s_i|, |F|, σ);
//! * [`real`] — the simulated Monero snapshot (285 txs / 633 tokens /
//!   57 super RSs / 6 fresh tokens, Figure 3 output distribution);
//! * [`chainload`] — materialise a workload on the actual blockchain
//!   substrate (mint tokens, commit ring transactions end-to-end);
//! * [`openloop`] — deterministic open-loop arrival schedules (smooth or
//!   bursty) for the selection service's overload experiments;
//! * [`arrivals`] — the arrival events the sim-vs-real differential
//!   oracle serves on both sides, and their text rendering;
//! * [`adversarial`] — seeded burst schedules a flooding peer sends by;
//! * [`attack_trace`] — real-trace-shaped chains (young spends, careless
//!   spenders) for the attack replay harness;
//! * [`simulation`] — a whole batch's lifetime under a selection policy
//!   and the η feasibility guard;
//! * [`streaming`] — a constant-memory chain generator for million-token
//!   soaks.

pub mod adversarial;
pub mod arrivals;
pub mod attack_trace;
pub mod chainload;
pub mod openloop;
pub mod real;
pub mod simulation;
pub mod streaming;
pub mod synthetic;

pub use adversarial::BurstSchedule;
pub use arrivals::{render_trace, ArrivalEvent};
pub use attack_trace::{generate_attack_trace, AttackTraceConfig};
pub use openloop::OpenLoop;
pub use real::{monero_snapshot, output_histogram};
pub use simulation::{simulate_batch, SimulationConfig, SimulationOutcome};
pub use streaming::{ChainStream, StreamConfig};
pub use synthetic::{small_universe, HtModel, SyntheticConfig};
