//! # dams-diversity
//!
//! Privacy semantics for the DA-MS reproduction (§§2–4 of the paper):
//!
//! * [`types`] — tokens, historical transactions, rings-as-token-sets;
//! * [`histogram`] / [`recursive`] — the recursive (c, ℓ)-diversity model;
//! * [`related`] — related RS sets (Definition 1);
//! * [`combination`] — token–RS combinations / possible worlds (Definition 6);
//! * [`matching`] — bipartite perfect matchings, the #P-hardness object;
//! * [`dtrs`] — exact DTRS enumeration (Definition 2, Algorithm 3);
//! * [`chain_reaction`] — the adversary engine (fast and exact modes);
//! * [`homogeneity`] — the homogeneity attack;
//! * [`side_info`] — adversary side information and its closure (Def. 3,
//!   Theorem 6.2);
//! * [`neighbor`] — Theorem 4.1 neighbour-set tracking and the η guard;
//! * [`attacks`] — seeded, replayable adversaries (cascade taint,
//!   guess-newest, graph matching) reporting effective anonymity-set size
//!   over full chain traces;
//! * [`obs`] — the `diversity.attack.*` metric handles.

pub mod attacks;
pub mod chain_reaction;
pub mod combination;
pub mod deadline;
pub mod dtrs;
pub mod histogram;
pub mod homogeneity;
pub mod matching;
pub mod metrics;
pub mod neighbor;
pub mod obs;
pub mod recursive;
pub mod related;
pub mod side_info;
pub mod types;

pub use attacks::{
    cascade_taint, graph_matching, guess_newest, run_attack, run_attack_observed, AttackConfig,
    AttackReport, CascadeOutcome, ChainTrace, MatchingOutcome, NewestOutcome, TimelinePoint,
};
pub use chain_reaction::{analyze, analyze_exact, eliminates_any, Analysis};
pub use combination::{
    enumerate_combinations, enumerate_with_limit, enumerate_worlds, Combination, WorldOptions,
    WorldsExpired,
};
pub use deadline::Deadline;
pub use dtrs::{enumerate_dtrs, enumerate_dtrs_reference, Dtrs};
pub use histogram::{DeltaHistogram, HtHistogram};
pub use metrics::{batch_anonymity, ring_anonymity, BatchAnonymity, RingAnonymity};
pub use neighbor::{EtaGuard, NeighborTracker};
pub use obs::AttackMetrics;
pub use recursive::DiversityRequirement;
pub use related::RingIndex;
pub use side_info::SideInformation;
pub use types::{ring, HtId, RingSet, RsId, TokenId, TokenRsPair, TokenUniverse};
