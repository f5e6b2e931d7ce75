//! # dams-node
//!
//! Verifier-side node integration tying the substrates together:
//!
//! * [`verifier`] — Step-3 ring-configuration checks miners run when
//!   blocking transactions (TokenMagic batch membership, the first
//!   practical configuration, and a claimed-diversity floor);
//! * [`views`] — full-node / light-node batch views with the §4 consensus
//!   property;
//! * [`validate`] — the polynomial Definition-5 validator wallets run
//!   before broadcasting and auditors run over blocks.

pub mod adversary;
pub mod auditor;
pub mod error;
pub mod faults;
pub mod gossip;
pub mod peers;
pub mod indexing;
pub mod network;
pub mod obs;
pub mod sync;
pub mod validate;
pub mod verifier;
pub mod wallet;
pub mod views;

pub use auditor::{audit, chain_view, AuditReport, ChainView};
pub use error::NodeError;
pub use faults::{FaultChannel, FaultConfig, FaultStats};
pub use adversary::{
    run_byzantine_scenario, selection_snapshot, ActorKind, ByzantineReport, SCENARIO_HEIGHT,
    SCENARIO_HORIZON,
};
pub use gossip::{
    decode_frame, frame_attested_block, frame_evidence, frame_range, frame_refusal, frame_tip,
    run_cluster_scenario, Cluster, ClusterReport, GossipFrame, GossipStats,
};
pub use peers::{
    Attestation, EquivocationProof, Misbehavior, MisbehaviorRecord, PeerDefense, Standing,
};
pub use indexing::{block_delta, index_of_chain};
pub use network::{NodeLimits, NodeStats, SimNode};
pub use sync::{bootstrap_from_bundle, catch_up_tail, recheck_node, serve_bundle, SyncReport};
pub use obs::NodeMetrics;
pub use validate::{validate_ring, Verdict};
pub use verifier::TokenMagicConfiguration;
pub use views::{BatchProvider, FullNode, LightNode};
pub use wallet::{Wallet, WalletError};
