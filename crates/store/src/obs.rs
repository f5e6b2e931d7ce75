//! Durable-store metrics (`store.*`).
//!
//! Counters for the WAL hot path (appends, fsyncs), the recovery path
//! (records replayed / truncated), the checkpoint lifecycle (written,
//! loaded, crc-rejected), and a wall-time histogram for whole recoveries.
//! All deterministic under a fixed seed except the nanosecond timer,
//! which `Mode::Deterministic` renders as a bare observation count.

use std::sync::OnceLock;

use dams_obs::{Counter, Histogram, Registry, Unit};

/// Handles to every `store.*` metric.
#[derive(Clone)]
pub struct StoreMetrics {
    /// `store.wal.appends_total` — records appended to the WAL.
    pub wal_appends: Counter,
    /// `store.wal.fsyncs_total` — durability barriers issued.
    pub wal_fsyncs: Counter,
    /// `store.wal.replayed_total` — records replayed during recovery.
    pub wal_replayed: Counter,
    /// `store.wal.truncated_records_total` — torn/corrupt tail records
    /// dropped by recovery.
    pub wal_truncated_records: Counter,
    /// `store.wal.duplicates_skipped_total` — byte-duplicate records
    /// recognised and skipped during replay.
    pub wal_duplicates_skipped: Counter,
    /// `store.checkpoint.written_total` — checkpoints persisted.
    pub checkpoint_written: Counter,
    /// `store.checkpoint.loaded_total` — checkpoints accepted by recovery.
    pub checkpoint_loaded: Counter,
    /// `store.checkpoint.crc_rejects_total` — checkpoints refused by the
    /// magic/length/crc gauntlet (recovery fell back to full replay).
    pub checkpoint_crc_rejects: Counter,
    /// `store.checkpoint.served_total` — blocks served to peers through
    /// catch-up bundles.
    pub checkpoint_served: Counter,
    /// `store.recovery.runs_total` — recovery attempts.
    pub recovery_runs: Counter,
    /// `store.recovery.corruption_detected_total` — recoveries that found
    /// at least one corrupt (not merely torn) artifact.
    pub recovery_corruption: Counter,
    /// `store.recovery.wall_ns` — wall time of each recovery.
    pub recovery_wall: Histogram,
}

impl StoreMetrics {
    /// Build (or re-attach to) the `store.*` metrics inside `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        StoreMetrics {
            wal_appends: registry.counter("store.wal.appends_total"),
            wal_fsyncs: registry.counter("store.wal.fsyncs_total"),
            wal_replayed: registry.counter("store.wal.replayed_total"),
            wal_truncated_records: registry.counter("store.wal.truncated_records_total"),
            wal_duplicates_skipped: registry.counter("store.wal.duplicates_skipped_total"),
            checkpoint_written: registry.counter("store.checkpoint.written_total"),
            checkpoint_loaded: registry.counter("store.checkpoint.loaded_total"),
            checkpoint_crc_rejects: registry.counter("store.checkpoint.crc_rejects_total"),
            checkpoint_served: registry.counter("store.checkpoint.served_total"),
            recovery_runs: registry.counter("store.recovery.runs_total"),
            recovery_corruption: registry.counter("store.recovery.corruption_detected_total"),
            recovery_wall: registry.histogram("store.recovery.wall_ns", Unit::Nanos),
        }
    }

    /// The process-wide instance, backed by [`dams_obs::global`].
    pub fn global() -> &'static StoreMetrics {
        static GLOBAL: OnceLock<StoreMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| StoreMetrics::in_registry(dams_obs::global()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_registry_reattaches_same_counters() {
        let r = Registry::new();
        let a = StoreMetrics::in_registry(&r);
        let b = StoreMetrics::in_registry(&r);
        a.wal_appends.inc();
        assert_eq!(b.wal_appends.get(), 1);
    }
}
