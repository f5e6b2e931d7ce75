//! The storage half of the typed error taxonomy.
//!
//! Every failure carries the context a recovery report needs to tell
//! *disk rot* (a crc mismatch at a byte offset) apart from *malformed
//! peers* (a `ChainError` during replay) — the distinction
//! `NodeError::Store` exists to preserve.

use dams_blockchain::{ChainError, CodecError};

/// Why a durable-store operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An I/O error from the backing medium (message carries the OS text;
    /// `std::io::Error` is not `Clone`/`PartialEq`, so we keep the string).
    Io(String),
    /// The WAL file does not start with the expected magic/version header.
    BadHeader,
    /// The WAL was written under different group parameters; replaying it
    /// against this group would misinterpret every element.
    GroupMismatch { expected: u64, got: u64 },
    /// A record's stored crc32 does not match its payload — a full-length
    /// record whose bytes rotted (bit flip), as opposed to a torn tail.
    CorruptRecord {
        offset: u64,
        expected_crc: u32,
        got_crc: u32,
    },
    /// A corrupt or torn record has *valid data after it* — interior
    /// corruption. Truncating here would silently drop committed records,
    /// so recovery refuses instead.
    InteriorCorruption { offset: u64 },
    /// A record header announces an impossible length (zero or above the
    /// sanity bound), so the scan cannot even skip it.
    BadRecordLength { offset: u64, len: u64 },
    /// A crc-valid record failed to decode — the writer persisted
    /// garbage; this is not a torn write.
    Undecodable { offset: u64, cause: CodecError },
    /// A crc-valid record carries a tag this version does not know.
    UnknownTag { offset: u64, tag: u8 },
    /// A crc-valid, decodable block failed verified replay at `offset`.
    ReplayFailed {
        offset: u64,
        height: u64,
        cause: ChainError,
    },
    /// The checkpoint attests blocks up to `height`, but the WAL only
    /// reaches `wal_height` — synced records were lost (lost fsync / a
    /// truncated file), which recovery must surface, never paper over.
    CheckpointAheadOfWal { height: u64, wal_height: u64 },
    /// The replayed chain disagrees with the checkpoint's attested state
    /// (tip hash, key-image set, or ring fingerprints) at its height.
    CheckpointStateMismatch { height: u64, field: &'static str },
    /// A recovered RS no longer satisfies its claimed (c, ℓ)-diversity —
    /// the immutability evidence condition 3 of DA-MS promises forever.
    ImmutabilityViolated { height: u64, ring_index: u64 },
    /// This backend cannot inject the requested storage fault.
    FaultUnsupported,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StoreError::BadHeader => write!(f, "WAL header missing or malformed"),
            StoreError::GroupMismatch { expected, got } => {
                write!(f, "WAL group fingerprint {got:#x} != expected {expected:#x}")
            }
            StoreError::CorruptRecord {
                offset,
                expected_crc,
                got_crc,
            } => write!(
                f,
                "record at offset {offset} corrupt: crc {got_crc:#010x}, stored {expected_crc:#010x}"
            ),
            StoreError::InteriorCorruption { offset } => {
                write!(f, "corrupt record at offset {offset} has valid data after it")
            }
            StoreError::BadRecordLength { offset, len } => {
                write!(f, "record at offset {offset} announces impossible length {len}")
            }
            StoreError::Undecodable { offset, cause } => {
                write!(f, "crc-valid record at offset {offset} undecodable: {cause}")
            }
            StoreError::UnknownTag { offset, tag } => {
                write!(f, "record at offset {offset} has unknown tag {tag}")
            }
            StoreError::ReplayFailed {
                offset,
                height,
                cause,
            } => write!(
                f,
                "block {height} (offset {offset}) failed verified replay: {cause}"
            ),
            StoreError::CheckpointAheadOfWal { height, wal_height } => write!(
                f,
                "checkpoint attests height {height} but WAL stops at {wal_height}: synced records lost"
            ),
            StoreError::CheckpointStateMismatch { height, field } => {
                write!(f, "replayed {field} disagrees with checkpoint at height {height}")
            }
            StoreError::ImmutabilityViolated { height, ring_index } => write!(
                f,
                "recovered RS {ring_index} (block {height}) lost its claimed diversity"
            ),
            StoreError::FaultUnsupported => write!(f, "backend cannot inject this fault"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases = vec![
            StoreError::Io("disk on fire".into()),
            StoreError::BadHeader,
            StoreError::GroupMismatch {
                expected: 1,
                got: 2,
            },
            StoreError::CorruptRecord {
                offset: 16,
                expected_crc: 0xDEAD,
                got_crc: 0xBEEF,
            },
            StoreError::InteriorCorruption { offset: 40 },
            StoreError::BadRecordLength {
                offset: 16,
                len: u64::MAX,
            },
            StoreError::Undecodable {
                offset: 16,
                cause: CodecError::Truncated,
            },
            StoreError::UnknownTag { offset: 16, tag: 9 },
            StoreError::ReplayFailed {
                offset: 16,
                height: 3,
                cause: ChainError::NotExtendingTip,
            },
            StoreError::CheckpointAheadOfWal {
                height: 8,
                wal_height: 5,
            },
            StoreError::CheckpointStateMismatch {
                height: 4,
                field: "tip",
            },
            StoreError::ImmutabilityViolated {
                height: 2,
                ring_index: 0,
            },
            StoreError::FaultUnsupported,
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
