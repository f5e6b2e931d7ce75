//! The node half of the typed error taxonomy.
//!
//! Everything a simulated node can fail at — chain state operations,
//! wire decoding, resource exhaustion, store recovery — funnels into
//! [`NodeError`], so the network layer is panic-free: a Byzantine peer,
//! a corrupted wire message, or a block flood degrades a node's service,
//! never its process.

use dams_blockchain::{ChainError, CodecError, VerifyError};
use dams_core::IndexError;
use dams_store::StoreError;

/// Why a node-layer operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeError {
    /// A chain state operation (seal, adopt, tip lookup) failed.
    Chain(ChainError),
    /// A wire message failed to decode.
    Codec(CodecError),
    /// The bounded inbox is full — the announcement was rejected
    /// (back-pressure instead of unbounded growth under a block flood).
    InboxFull { capacity: usize },
    /// An operation referenced a node id the cluster does not know, or
    /// a slot not in the state the operation needs.
    UnknownPeer(usize),
    /// The durable store failed — the inner error carries the byte
    /// offset / crc context a recovery report needs.
    Store(StoreError),
    /// A catch-up bundle or a gossip frame was refused (it failed
    /// authentication, was malformed, or carried an attestation that does
    /// not cover its block), or a sync step lacked what it needs (a
    /// durable store, an attestation signature). A refused bundle applies
    /// nothing.
    SyncRejected { reason: &'static str },
    /// The incremental diversity index rejected an update — the chain and
    /// the index would disagree, so the operation is refused instead of
    /// serving stale verdicts.
    Index(IndexError),
    /// A range request asked for more blocks than the serving node's
    /// configured cap — refused whole (and attributed to the requester as
    /// `RangeAbuse`) instead of silently truncated.
    RangeRefused { requested: u64, cap: u64 },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Chain(e) => write!(f, "chain operation failed: {e}"),
            NodeError::Codec(e) => write!(f, "wire decode failed: {e}"),
            NodeError::InboxFull { capacity } => {
                write!(f, "inbox full ({capacity} messages), announcement rejected")
            }
            NodeError::UnknownPeer(id) => write!(f, "unknown peer id {id}"),
            NodeError::Store(e) => write!(f, "durable store failed: {e}"),
            NodeError::SyncRejected { reason } => {
                write!(f, "catch-up frame rejected: {reason}")
            }
            NodeError::Index(e) => write!(f, "diversity index out of step: {e}"),
            NodeError::RangeRefused { requested, cap } => {
                write!(
                    f,
                    "range request for {requested} blocks exceeds cap {cap}, refused"
                )
            }
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ChainError> for NodeError {
    fn from(e: ChainError) -> Self {
        NodeError::Chain(e)
    }
}

impl From<VerifyError> for NodeError {
    fn from(e: VerifyError) -> Self {
        NodeError::Chain(ChainError::Verify(e))
    }
}

impl From<CodecError> for NodeError {
    fn from(e: CodecError) -> Self {
        NodeError::Codec(e)
    }
}

impl From<StoreError> for NodeError {
    fn from(e: StoreError) -> Self {
        NodeError::Store(e)
    }
}

impl From<IndexError> for NodeError {
    fn from(e: IndexError) -> Self {
        NodeError::Index(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<NodeError> = vec![
            ChainError::MissingGenesis.into(),
            VerifyError::NoInputs.into(),
            CodecError::Truncated.into(),
            NodeError::InboxFull { capacity: 4 },
            NodeError::UnknownPeer(2),
            StoreError::CorruptRecord {
                offset: 16,
                expected_crc: 1,
                got_crc: 2,
            }
            .into(),
            NodeError::SyncRejected {
                reason: "bundle digest mismatch",
            },
            IndexError::UnknownRingToken(9).into(),
            NodeError::RangeRefused {
                requested: 64,
                cap: 16,
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_nest_correctly() {
        let e: NodeError = VerifyError::NoInputs.into();
        assert_eq!(
            e,
            NodeError::Chain(ChainError::Verify(VerifyError::NoInputs))
        );
    }
}
