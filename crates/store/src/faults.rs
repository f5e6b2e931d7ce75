//! Storage faults — the disk half of the PR-1 fault model.
//!
//! The network bus already drops, duplicates, reorders, delays, and
//! corrupts *messages*; these faults do the same to *durable bytes*,
//! applied through [`crate::backend::Backend::inject`] so the identical
//! fault schedule runs against [`crate::backend::MemBackend`] in the
//! seeded sweeps and [`crate::backend::FileBackend`] under the CLI.
//!
//! Each fault reproduces a documented real-world failure:
//!
//! | fault | real-world cause | how recovery must react |
//! |---|---|---|
//! | [`StorageFault::TornWrite`] | crash mid-`write(2)` | truncate the partial record, clean |
//! | [`StorageFault::BitFlip`] | disk rot / cosmic ray | crc32 reject, flag corruption |
//! | [`StorageFault::LostFsync`] | lying drive cache | recover shorter log; checkpoint cross-check detects attested losses |
//! | [`StorageFault::DuplicateLastRecord`] | replayed buffer / double write | skip the duplicate, count it |
//! | [`StorageFault::ZeroLengthTail`] | preallocated-but-unwritten extent | stop at the zero header, flag |

use crate::wal::{scan, WAL_HEADER_LEN};

/// A deterministic mutation of a WAL's durable bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Drop the last `drop_bytes` bytes — a write torn by power loss.
    TornWrite { drop_bytes: u64 },
    /// Flip bit `bit` of the byte at `offset` (taken modulo the record
    /// region, so any u64 from a seeded PRNG lands on a valid position).
    BitFlip { offset: u64, bit: u8 },
    /// Silently lose the last `records` whole records — an fsync the
    /// drive acknowledged but never performed.
    LostFsync { records: u64 },
    /// Append a byte-identical copy of the final record.
    DuplicateLastRecord,
    /// Append `bytes` of zeros — an extent allocated but never written.
    ZeroLengthTail { bytes: u64 },
}

impl StorageFault {
    /// Apply the fault to a raw WAL image.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            StorageFault::TornWrite { drop_bytes } => {
                let keep = (bytes.len() as u64).saturating_sub(drop_bytes);
                bytes.truncate(keep as usize);
            }
            StorageFault::BitFlip { offset, bit } => {
                if bytes.len() as u64 > WAL_HEADER_LEN {
                    let span = bytes.len() as u64 - WAL_HEADER_LEN;
                    let idx = (WAL_HEADER_LEN + offset % span) as usize;
                    bytes[idx] ^= 1 << (bit % 8);
                }
            }
            StorageFault::LostFsync { records } => {
                if let Ok(out) = scan(bytes) {
                    let keep = out.records.len().saturating_sub(records as usize);
                    let cut = out
                        .records
                        .get(keep)
                        .map_or(bytes.len() as u64, |r| r.offset);
                    bytes.truncate(cut as usize);
                }
            }
            StorageFault::DuplicateLastRecord => {
                if let Ok(out) = scan(bytes) {
                    if let Some(last) = out.records.last() {
                        let copy = bytes[last.offset as usize..last.payload_end].to_vec();
                        bytes.extend_from_slice(&copy);
                    }
                }
            }
            StorageFault::ZeroLengthTail { bytes: n } => {
                bytes.extend(std::iter::repeat_n(0u8, n as usize));
            }
        }
    }

    /// Short stable label for reports and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            StorageFault::TornWrite { .. } => "torn_write",
            StorageFault::BitFlip { .. } => "bit_flip",
            StorageFault::LostFsync { .. } => "lost_fsync",
            StorageFault::DuplicateLastRecord => "duplicate_record",
            StorageFault::ZeroLengthTail { .. } => "zero_tail",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_header, frame_record, TailStatus};

    fn sample_wal() -> Vec<u8> {
        let mut bytes = encode_header(1);
        for p in [&b"one"[..], b"two", b"three"] {
            bytes.extend_from_slice(&frame_record(p));
        }
        bytes
    }

    #[test]
    fn torn_write_truncates_tail_bytes() {
        let mut w = sample_wal();
        let before = w.len();
        StorageFault::TornWrite { drop_bytes: 4 }.apply(&mut w);
        assert_eq!(w.len(), before - 4);
        let out = scan(&w).unwrap();
        assert!(matches!(out.tail, TailStatus::Torn { .. }));
    }

    #[test]
    fn lost_fsync_drops_whole_records() {
        let mut w = sample_wal();
        StorageFault::LostFsync { records: 2 }.apply(&mut w);
        let out = scan(&w).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.tail, TailStatus::Clean);
    }

    #[test]
    fn duplicate_last_record_doubles_the_tail() {
        let mut w = sample_wal();
        StorageFault::DuplicateLastRecord.apply(&mut w);
        let out = scan(&w).unwrap();
        assert_eq!(out.records.len(), 4);
        let a = &out.records[2];
        let b = &out.records[3];
        assert_eq!(
            &w[a.payload_start..a.payload_end],
            &w[b.payload_start..b.payload_end]
        );
    }

    #[test]
    fn bit_flip_lands_inside_the_record_region() {
        for off in [0u64, 13, 997, u64::MAX] {
            let mut w = sample_wal();
            let clean = w.clone();
            StorageFault::BitFlip {
                offset: off,
                bit: 3,
            }
            .apply(&mut w);
            assert_ne!(w, clean);
            assert_eq!(
                &w[..WAL_HEADER_LEN as usize],
                &clean[..WAL_HEADER_LEN as usize]
            );
        }
    }

    #[test]
    fn zero_tail_appends_zeros() {
        let mut w = sample_wal();
        StorageFault::ZeroLengthTail { bytes: 16 }.apply(&mut w);
        let out = scan(&w).unwrap();
        assert_eq!(out.records.len(), 3);
        assert!(matches!(out.tail, TailStatus::BadLength { len: 0, .. }));
    }
}
