//! # dams-node
//!
//! Verifier-side node integration tying the substrates together:
//!
//! * [`network`] — [`SimNode`], a replica: chain, durable store and the
//!   incremental diversity index, kept in lock-step on every sealed or
//!   adopted block;
//! * [`wallet`] — [`Wallet::spend`], the one spend path: the token's batch
//!   snapshot → degrade ladder → Definition-5 validation → sign → submit →
//!   seal on a [`SimNode`];
//! * [`gossip`] and [`peers`] — the multi-node [`Cluster`] and its
//!   Byzantine defenses; a gossiped block passes dams-store's ledger
//!   claim check, [`dams_store::claim_violations`], before it is staged
//!   and again at release. `Store::open` and [`audit`] run the same
//!   check over the whole chain.
//!
//! The Definition-5 validator lives in dams-core and is re-exported here
//! as [`validate_ring`] and [`Verdict`].

pub mod adversary;
pub mod auditor;
pub mod error;
pub mod faults;
pub mod gossip;
pub mod indexing;
pub mod network;
pub mod obs;
pub mod peers;
pub mod sync;
pub mod wallet;

pub use adversary::{
    run_byzantine_scenario, selection_snapshot, ActorKind, ByzantineReport, SCENARIO_HEIGHT,
    SCENARIO_HORIZON,
};
pub use auditor::{audit, chain_view, AuditReport, ChainView};
pub use dams_core::{validate_ring, Verdict};
pub use error::NodeError;
pub use faults::{FaultChannel, FaultConfig, FaultStats};
pub use gossip::{
    decode_frame, frame_attested_block, frame_evidence, frame_range, frame_refusal, frame_tip,
    run_cluster_scenario, Cluster, ClusterReport, GossipFrame, GossipStats,
};
pub use indexing::{block_delta, index_of_chain};
pub use network::{NodeLimits, NodeStats, SimNode};
pub use obs::NodeMetrics;
pub use peers::{
    Attestation, EquivocationProof, Misbehavior, MisbehaviorRecord, PeerDefense, Standing,
};
pub use sync::{bootstrap_from_bundle, serve_bundle, SyncReport};
pub use wallet::{Spend, Wallet, WalletError};
