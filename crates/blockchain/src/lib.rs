//! # dams-blockchain
//!
//! UTXO blockchain substrate for the DA-MS reproduction: tokens minted by
//! historical transactions, blocks hash-chained into a ledger, ring-input
//! transactions verified per Step 3 of the ring-signature scheme (§2.1),
//! a consumed-key-image registry for double-spend prevention, and the
//! TokenMagic batch list (§4) that bounds every token's mixin universe.

pub mod batch;
pub mod block;
pub mod chain;
pub mod codec;
pub mod fees;
pub mod obs;
pub mod transaction;
pub mod types;

pub use batch::{Batch, BatchList};
pub use block::{Block, BlockHeader};
pub use chain::{Chain, ChainError, NoConfiguration, RingConfiguration, TokenRecord, VerifyError};
pub use codec::{
    block_to_bytes, decode_block, signature_from_bytes, signature_to_bytes, transaction_to_bytes,
    CodecError,
};
pub use fees::{select_for_block, FeeSchedule};
pub use obs::ChainMetrics;
pub use transaction::{CommittedTransaction, RingInput, TokenOutput, Transaction};
pub use types::{Amount, BlockHeight, Timestamp, TokenId, TxId};
