//! # dams-store — crash-safe durability for the DA-MS ledger
//!
//! An append-only write-ahead log (per-record `len ‖ crc32 ‖ payload`
//! framing over the `dams-blockchain` codec), periodic checksummed
//! checkpoints attesting chain state + committed-ring diversity
//! fingerprints + the key-image set, and a recovery path that replays
//! `checkpoint + WAL tail`, truncates at the first torn or corrupt tail
//! record, and re-verifies the immutability invariant of every recovered
//! RS before the chain is allowed back online.
//!
//! Storage sits behind the [`Backend`] trait: [`MemBackend`] gives the
//! seeded crash-point sweeps a durable/volatile split with an explicit
//! `crash()`, and [`FileBackend`] gives the CLI real files with
//! `sync_data` barriers. The PR-1 fault model extends to disk via
//! [`StorageFault`] — torn write, bit flip, lost fsync, duplicated
//! record, zero-length tail — injected through the same trait so the
//! identical schedule runs in-memory and on-disk.

pub mod backend;
pub mod checkpoint;
pub mod crc32;
pub mod error;
pub mod faults;
pub mod obs;
pub mod store;
pub mod wal;

pub use backend::{Backend, FileBackend, MemBackend};
pub use checkpoint::{chain_ring_fingerprints, ring_fingerprint, Checkpoint, CheckpointLoad};
pub use crc32::crc32;
pub use error::StoreError;
pub use faults::StorageFault;
pub use obs::StoreMetrics;
pub use store::{
    claimed_requirement, group_fingerprint, recheck_immutability, CatchUpBundle, ImmutabilityCheck,
    Recovered, RecoveryReport, Store, StoreConfig,
};
pub use wal::{ScanOutcome, TailStatus};
