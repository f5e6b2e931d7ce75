//! Write-ahead-log record framing and the forward scan recovery runs.
//!
//! Layout:
//!
//! ```text
//! file   := header record*
//! header := magic[8] = "DAMSWAL\x01" ‖ group_fp u64le
//! record := len u32le ‖ crc32(payload) u32le ‖ payload
//! payload:= tag u8 ‖ body          (tag 1 = block, body = codec::encode_block)
//! ```
//!
//! The scan classifies the tail precisely, because the three crash shapes
//! demand three different answers:
//!
//! * **torn record** (bytes end before the announced length) — the
//!   expected artifact of a crash mid-write: truncate, recover, clean.
//! * **tail corruption** (a full-length final record whose crc32
//!   mismatches, or an impossible length header) — detected disk rot:
//!   truncate, recover, but *flag* it so `dams-cli recover` exits
//!   non-zero.
//! * **interior corruption** (a bad record with valid data after it) —
//!   truncating would silently drop committed records, so the scan
//!   refuses with a hard [`StoreError`].

use crate::crc32::crc32;
use crate::error::StoreError;

/// WAL file magic: name + format version byte.
pub const WAL_MAGIC: [u8; 8] = *b"DAMSWAL\x01";
/// Header length: magic + group fingerprint.
pub const WAL_HEADER_LEN: u64 = 16;
/// Per-record framing overhead: length + crc32.
pub const RECORD_HEADER_LEN: u64 = 8;
/// Sanity bound on a single record (a block far beyond any test chain).
pub const MAX_RECORD_LEN: u64 = 1 << 26;
/// Record tag: payload body is an encoded block.
pub const TAG_BLOCK: u8 = 1;

/// Serialize the WAL file header for `group_fp`.
pub fn encode_header(group_fp: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&group_fp.to_le_bytes());
    out
}

/// Parse and validate a WAL header; returns the group fingerprint.
pub fn decode_header(bytes: &[u8]) -> Result<u64, StoreError> {
    if bytes.len() < WAL_HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
        return Err(StoreError::BadHeader);
    }
    Ok(u64::from_le_bytes(
        bytes[8..16].try_into().expect("8 bytes"),
    ))
}

/// Frame one record: `len ‖ crc32 ‖ payload`.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frame a block payload (`TAG_BLOCK ‖ encode_block`).
pub fn frame_block(block: &dams_blockchain::Block) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(TAG_BLOCK);
    dams_blockchain::codec::encode_block(block, &mut payload);
    frame_record(&payload)
}

/// One verified record located by the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset of the record's length prefix.
    pub offset: u64,
    /// Payload byte range within the scanned buffer.
    pub payload_start: usize,
    pub payload_end: usize,
}

/// How the WAL ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belongs to a crc-verified record.
    Clean,
    /// The final record is incomplete — the normal crash-mid-write shape.
    Torn { offset: u64, missing: u64 },
    /// The final record is full-length but its crc32 mismatches.
    CorruptTail {
        offset: u64,
        expected_crc: u32,
        got_crc: u32,
    },
    /// The final record header announces an impossible length (zero-length
    /// tail padding, or a length above [`MAX_RECORD_LEN`]).
    BadLength { offset: u64, len: u64 },
}

impl TailStatus {
    /// Where the valid prefix ends — the truncation point recovery applies.
    /// `None` when the log is clean.
    pub fn truncate_at(&self) -> Option<u64> {
        match self {
            TailStatus::Clean => None,
            TailStatus::Torn { offset, .. }
            | TailStatus::CorruptTail { offset, .. }
            | TailStatus::BadLength { offset, .. } => Some(*offset),
        }
    }

    /// Whether this tail is evidence of *corruption* (flagged to the
    /// operator) rather than an ordinary torn write.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            TailStatus::CorruptTail { .. } | TailStatus::BadLength { .. }
        )
    }
}

/// The scan result: verified records plus the tail classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    pub records: Vec<RecordSpan>,
    pub tail: TailStatus,
}

/// Walk `bytes` (which must start with a valid header) record by record.
///
/// Errors only on **interior corruption** — a bad record that is *not*
/// the last thing in the file. Every tail anomaly comes back as a
/// [`TailStatus`] so the caller can truncate and keep the good prefix.
pub fn scan(bytes: &[u8]) -> Result<ScanOutcome, StoreError> {
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut tail = TailStatus::Clean;
    while pos < bytes.len() {
        let offset = pos as u64;
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_LEN as usize {
            tail = TailStatus::Torn {
                offset,
                missing: RECORD_HEADER_LEN - remaining as u64,
            };
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as u64;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_LEN {
            tail = TailStatus::BadLength { offset, len };
            break;
        }
        let payload_start = pos + RECORD_HEADER_LEN as usize;
        let payload_end = payload_start + len as usize;
        if payload_end > bytes.len() {
            tail = TailStatus::Torn {
                offset,
                missing: payload_end as u64 - bytes.len() as u64,
            };
            break;
        }
        let got_crc = crc32(&bytes[payload_start..payload_end]);
        if got_crc != stored_crc {
            tail = TailStatus::CorruptTail {
                offset,
                expected_crc: stored_crc,
                got_crc,
            };
            break;
        }
        records.push(RecordSpan {
            offset,
            payload_start,
            payload_end,
        });
        pos = payload_end;
    }
    // Anything after a bad record means truncating would drop *committed*
    // data — interior corruption is unrecoverable by design.
    if let Some(cut) = tail.truncate_at() {
        let after = bytes.len() as u64 - cut;
        let bad_span = match &tail {
            // A torn record by definition reaches the end of the file.
            TailStatus::Torn { .. } => after,
            TailStatus::CorruptTail { offset, .. } => {
                let len = u32::from_le_bytes(
                    bytes[*offset as usize..*offset as usize + 4]
                        .try_into()
                        .expect("4 bytes"),
                ) as u64;
                RECORD_HEADER_LEN + len
            }
            // An impossible length makes everything after unreachable;
            // treat the rest of the file as the bad span.
            TailStatus::BadLength { .. } => after,
            TailStatus::Clean => unreachable!("clean tail has no truncate point"),
        };
        if after > bad_span {
            return Err(StoreError::InteriorCorruption { offset: cut });
        }
    }
    Ok(ScanOutcome { records, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = encode_header(7);
        for p in payloads {
            bytes.extend_from_slice(&frame_record(p));
        }
        bytes
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let h = encode_header(0xABCD);
        assert_eq!(decode_header(&h).unwrap(), 0xABCD);
        assert_eq!(decode_header(&h[..10]).unwrap_err(), StoreError::BadHeader);
        let mut bad = h.clone();
        bad[0] ^= 1;
        assert_eq!(decode_header(&bad).unwrap_err(), StoreError::BadHeader);
    }

    #[test]
    fn clean_log_scans_fully() {
        let bytes = wal_with(&[b"alpha", b"beta", b"gamma"]);
        let out = scan(&bytes).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.tail, TailStatus::Clean);
        let spans: Vec<&[u8]> = out
            .records
            .iter()
            .map(|r| &bytes[r.payload_start..r.payload_end])
            .collect();
        assert_eq!(spans, vec![&b"alpha"[..], b"beta", b"gamma"]);
    }

    #[test]
    fn torn_tail_is_benign_and_locates_the_cut() {
        let full = wal_with(&[b"alpha", b"beta"]);
        // Cut mid-way through the second record's payload.
        let cut = full.len() - 2;
        let out = scan(&full[..cut]).unwrap();
        assert_eq!(out.records.len(), 1);
        let TailStatus::Torn { offset, missing } = out.tail else {
            panic!("want torn, got {:?}", out.tail);
        };
        assert_eq!(offset, (WAL_HEADER_LEN + RECORD_HEADER_LEN + 5));
        assert_eq!(missing, 2);
        assert!(!out.tail.is_corruption());
    }

    #[test]
    fn bit_flip_in_last_record_is_corrupt_tail() {
        let mut bytes = wal_with(&[b"alpha", b"beta"]);
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let out = scan(&bytes).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.tail.is_corruption());
        assert!(matches!(out.tail, TailStatus::CorruptTail { .. }));
    }

    #[test]
    fn bit_flip_with_records_after_is_interior_corruption() {
        let mut bytes = wal_with(&[b"alpha", b"beta", b"gamma"]);
        // Flip a byte inside "alpha"'s payload.
        let idx = WAL_HEADER_LEN as usize + RECORD_HEADER_LEN as usize + 1;
        bytes[idx] ^= 0x01;
        let err = scan(&bytes).unwrap_err();
        assert_eq!(
            err,
            StoreError::InteriorCorruption {
                offset: WAL_HEADER_LEN
            }
        );
    }

    #[test]
    fn zero_length_tail_is_flagged_not_looped() {
        let mut bytes = wal_with(&[b"alpha"]);
        bytes.extend_from_slice(&[0u8; 24]); // zero padding: len=0 records
        let out = scan(&bytes).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(matches!(out.tail, TailStatus::BadLength { len: 0, .. }));
        assert!(out.tail.is_corruption());
    }

    #[test]
    fn truncating_at_the_tail_cut_yields_a_clean_log() {
        let full = wal_with(&[b"alpha", b"beta"]);
        let torn = &full[..full.len() - 3];
        let out = scan(torn).unwrap();
        let cut = out.tail.truncate_at().unwrap() as usize;
        let clean = scan(&torn[..cut]).unwrap();
        assert_eq!(clean.tail, TailStatus::Clean);
        assert_eq!(clean.records.len(), 1);
    }
}
