//! Wire formats: deterministic byte encodings for the types nodes gossip
//! (ring signatures, transactions, blocks), with strict, length-checked
//! decoding. Hand-rolled little-endian framing — no serialization crate,
//! no reflection, every byte accounted for.

use dams_crypto::group::Scalar;
use dams_crypto::{KeyImage, PublicKey, RingSignature, SchnorrGroup};

use crate::block::{Block, BlockHeader};
use crate::transaction::{CommittedTransaction, RingInput, TokenOutput, Transaction};
use crate::types::{Amount, BlockHeight, TokenId, TxId};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the announced length.
    Truncated,
    /// A length prefix exceeds sane bounds.
    LengthOutOfBounds(u64),
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
    /// A group element failed subgroup validation.
    InvalidElement(u64),
    /// A scalar at or above the group order `q`: it would reduce to a
    /// valid scalar, but re-encode to different bytes.
    NonCanonicalScalar(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::LengthOutOfBounds(n) => write!(f, "length {n} out of bounds"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::InvalidElement(v) => write!(f, "invalid group element {v}"),
            CodecError::NonCanonicalScalar(v) => write!(f, "non-canonical scalar {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum list length accepted by the decoder (anti-DoS bound).
const MAX_LEN: u64 = 1 << 20;

/// A little-endian byte reader with bounds checking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self.pos.checked_add(8).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(CodecError::LengthOutOfBounds(n));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    fn digest(&mut self) -> Result<[u8; 32], CodecError> {
        Ok(self.bytes(32)?.try_into().expect("32 bytes"))
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

/// Validate-and-wrap a raw residue as a public key.
fn decode_public_key(group: &SchnorrGroup, raw: u64) -> Result<PublicKey, CodecError> {
    PublicKey::from_value(group, raw).ok_or(CodecError::InvalidElement(raw))
}

/// Validate-and-wrap a raw residue as a key image.
fn decode_key_image(group: &SchnorrGroup, raw: u64) -> Result<KeyImage, CodecError> {
    KeyImage::from_value(group, raw).ok_or(CodecError::InvalidElement(raw))
}

/// Wrap a raw scalar, rejecting any value outside `0..q` so that every
/// decoded signature re-encodes to the bytes it came from.
fn decode_scalar(group: &SchnorrGroup, raw: u64) -> Result<Scalar, CodecError> {
    if raw < group.order() {
        Ok(group.scalar(raw))
    } else {
        Err(CodecError::NonCanonicalScalar(raw))
    }
}

// --- ring signatures ---

/// Encode a ring signature.
pub fn encode_signature(sig: &RingSignature, out: &mut Vec<u8>) {
    out.extend_from_slice(&sig.c0.value().to_le_bytes());
    out.extend_from_slice(&(sig.responses.len() as u64).to_le_bytes());
    for r in &sig.responses {
        out.extend_from_slice(&r.value().to_le_bytes());
    }
    out.extend_from_slice(&sig.key_image.value().to_le_bytes());
}

fn decode_signature(group: &SchnorrGroup, r: &mut Reader) -> Result<RingSignature, CodecError> {
    let c0 = decode_scalar(group, r.u64()?)?;
    let n = r.len()?;
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        responses.push(decode_scalar(group, r.u64()?)?);
    }
    let key_image = decode_key_image(group, r.u64()?)?;
    Ok(RingSignature {
        c0,
        responses,
        key_image,
    })
}

/// Encode a ring signature on its own (gossip attestations and
/// equivocation proofs carry signatures outside any transaction).
pub fn signature_to_bytes(sig: &RingSignature) -> Vec<u8> {
    let mut out = Vec::new();
    encode_signature(sig, &mut out);
    out
}

/// Decode a standalone ring-signature encoding, rejecting trailing bytes.
pub fn signature_from_bytes(group: &SchnorrGroup, buf: &[u8]) -> Result<RingSignature, CodecError> {
    let mut r = Reader::new(buf);
    let sig = decode_signature(group, &mut r)?;
    r.finish()?;
    Ok(sig)
}

// --- transactions ---

/// Encode a transaction.
pub fn encode_transaction(tx: &Transaction, out: &mut Vec<u8>) {
    out.extend_from_slice(&(tx.inputs.len() as u64).to_le_bytes());
    for input in &tx.inputs {
        out.extend_from_slice(&(input.ring.len() as u64).to_le_bytes());
        for t in &input.ring {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        encode_signature(&input.signature, out);
        out.extend_from_slice(&input.claimed_c.to_le_bytes());
        out.extend_from_slice(&(input.claimed_l as u64).to_le_bytes());
    }
    out.extend_from_slice(&(tx.outputs.len() as u64).to_le_bytes());
    for o in &tx.outputs {
        out.extend_from_slice(&o.owner.value().to_le_bytes());
        out.extend_from_slice(&o.amount.0.to_le_bytes());
    }
    out.extend_from_slice(&(tx.memo.len() as u64).to_le_bytes());
    out.extend_from_slice(&tx.memo);
}

fn decode_transaction(group: &SchnorrGroup, r: &mut Reader) -> Result<Transaction, CodecError> {
    let n_in = r.len()?;
    let mut inputs = Vec::with_capacity(n_in);
    for _ in 0..n_in {
        let ring_len = r.len()?;
        let mut ring = Vec::with_capacity(ring_len);
        for _ in 0..ring_len {
            ring.push(TokenId(r.u64()?));
        }
        let signature = decode_signature(group, r)?;
        let claimed_c = f64::from_le_bytes(r.bytes(8)?.try_into().expect("8 bytes"));
        let claimed_l = r.u64()? as usize;
        inputs.push(RingInput {
            ring,
            signature,
            claimed_c,
            claimed_l,
        });
    }
    let n_out = r.len()?;
    let mut outputs = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        let owner = decode_public_key(group, r.u64()?)?;
        let amount = Amount(r.u64()?);
        outputs.push(TokenOutput { owner, amount });
    }
    let memo_len = r.len()?;
    let memo = r.bytes(memo_len)?.to_vec();
    Ok(Transaction {
        inputs,
        outputs,
        memo,
    })
}

// --- blocks ---

/// Encode a block (header + committed transactions).
pub fn encode_block(block: &Block, out: &mut Vec<u8>) {
    out.extend_from_slice(&block.header.height.0.to_le_bytes());
    out.extend_from_slice(&block.header.prev_hash);
    out.extend_from_slice(&block.header.content_hash);
    out.extend_from_slice(&block.header.timestamp.to_le_bytes());
    out.extend_from_slice(&(block.transactions.len() as u64).to_le_bytes());
    for ct in &block.transactions {
        out.extend_from_slice(&ct.id.0.to_le_bytes());
        encode_transaction(&ct.tx, out);
        out.extend_from_slice(&(ct.output_ids.len() as u64).to_le_bytes());
        for t in &ct.output_ids {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
    }
}

/// Decode a block; the whole buffer must be consumed.
pub fn decode_block(group: &SchnorrGroup, buf: &[u8]) -> Result<Block, CodecError> {
    let mut r = Reader::new(buf);
    let height = BlockHeight(r.u64()?);
    let prev_hash = r.digest()?;
    let content_hash = r.digest()?;
    let timestamp = r.u64()?;
    let n_tx = r.len()?;
    let mut transactions = Vec::with_capacity(n_tx);
    for _ in 0..n_tx {
        let id = TxId(r.u64()?);
        let tx = decode_transaction(group, &mut r)?;
        let n_ids = r.len()?;
        let mut output_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            output_ids.push(TokenId(r.u64()?));
        }
        transactions.push(CommittedTransaction { id, tx, output_ids });
    }
    r.finish()?;
    Ok(Block {
        header: BlockHeader {
            height,
            prev_hash,
            content_hash,
            timestamp,
        },
        transactions,
    })
}

/// One-shot helpers.
pub fn block_to_bytes(block: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block(block, &mut out);
    out
}

pub fn transaction_to_bytes(tx: &Transaction) -> Vec<u8> {
    let mut out = Vec::new();
    encode_transaction(tx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, NoConfiguration};
    use dams_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A chain with one coinbase and one ring spend, returning its blocks.
    fn sample_blocks() -> (SchnorrGroup, Vec<Block>) {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = Chain::new(group);
        let keys: Vec<KeyPair> = (0..3)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        chain.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(2),
                })
                .collect(),
        );
        chain.seal_block().unwrap();
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: keys[1].public,
                amount: Amount(2),
            }],
            memo: b"memo".to_vec(),
        };
        let ring = [TokenId(0), TokenId(1), TokenId(2)];
        let input = chain
            .sign_ring_input(&tx, &ring, &keys[0], (0.6, 2), &mut rng)
            .unwrap();
        tx.inputs.push(input);
        chain.submit(tx, &NoConfiguration).unwrap();
        chain.seal_block().unwrap();
        (group, chain.blocks().to_vec())
    }

    #[test]
    fn block_roundtrip() {
        let (group, blocks) = sample_blocks();
        for b in &blocks {
            let bytes = block_to_bytes(b);
            let decoded = decode_block(&group, &bytes).unwrap();
            assert_eq!(&decoded, b);
            assert_eq!(decoded.hash(), b.hash(), "hash stability");
        }
    }

    #[test]
    fn decoded_signature_still_verifies() {
        let (group, blocks) = sample_blocks();
        let spend_block = &blocks[2];
        let bytes = block_to_bytes(spend_block);
        let decoded = decode_block(&group, &bytes).unwrap();
        let ct = &decoded.transactions[0];
        let payload = ct.tx.signing_payload();
        // Rebuild the ring keys from the coinbase block.
        let coinbase = &blocks[1];
        let ring_keys: Vec<PublicKey> = coinbase.transactions[0]
            .tx
            .outputs
            .iter()
            .map(|o| o.owner)
            .collect();
        assert!(dams_crypto::verify(
            &group,
            &payload,
            &ring_keys,
            &ct.tx.inputs[0].signature
        ));
    }

    /// The spend block's signature and the public keys of its ring.
    fn sample_signature() -> (SchnorrGroup, RingSignature, Vec<u8>, Vec<PublicKey>) {
        let (group, blocks) = sample_blocks();
        let tx = &blocks[2].transactions[0].tx;
        let ring_keys = blocks[1].transactions[0]
            .tx
            .outputs
            .iter()
            .map(|o| o.owner)
            .collect();
        (
            group,
            tx.inputs[0].signature.clone(),
            tx.signing_payload(),
            ring_keys,
        )
    }

    #[test]
    fn honest_encodings_reencode_byte_identically() {
        let (group, blocks) = sample_blocks();
        for b in &blocks {
            let bytes = block_to_bytes(b);
            assert_eq!(
                block_to_bytes(&decode_block(&group, &bytes).unwrap()),
                bytes
            );
        }
        let (group, sig, _, _) = sample_signature();
        let bytes = signature_to_bytes(&sig);
        let decoded = signature_from_bytes(&group, &bytes).unwrap();
        assert_eq!(signature_to_bytes(&decoded), bytes);
    }

    /// Add `q` to the raw scalar at `offset` of an encoded signature. The
    /// result reduces to the same scalar, so a decoder that reduced raw
    /// scalars would accept a second encoding of one valid signature.
    fn shifted_by_q(group: &SchnorrGroup, bytes: &[u8], offset: usize) -> (Vec<u8>, u64) {
        let mut shifted = bytes.to_vec();
        let raw = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
        let lifted = raw + group.order();
        shifted[offset..offset + 8].copy_from_slice(&lifted.to_le_bytes());
        (shifted, lifted)
    }

    #[test]
    fn non_canonical_c0_rejected() {
        let (group, sig, payload, ring_keys) = sample_signature();
        assert!(dams_crypto::verify(&group, &payload, &ring_keys, &sig));
        let (bytes, lifted) = shifted_by_q(&group, &signature_to_bytes(&sig), 0);
        assert_eq!(
            signature_from_bytes(&group, &bytes).unwrap_err(),
            CodecError::NonCanonicalScalar(lifted)
        );
    }

    #[test]
    fn non_canonical_response_rejected() {
        let (group, sig, payload, ring_keys) = sample_signature();
        assert!(dams_crypto::verify(&group, &payload, &ring_keys, &sig));
        // c0 and the response count precede the first response.
        let (bytes, lifted) = shifted_by_q(&group, &signature_to_bytes(&sig), 16);
        assert_eq!(
            signature_from_bytes(&group, &bytes).unwrap_err(),
            CodecError::NonCanonicalScalar(lifted)
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let (group, blocks) = sample_blocks();
        let bytes = block_to_bytes(&blocks[2]);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_block(&group, &bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (group, blocks) = sample_blocks();
        let mut bytes = block_to_bytes(&blocks[1]);
        bytes.push(0);
        assert_eq!(
            decode_block(&group, &bytes).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn hostile_length_rejected() {
        let (group, blocks) = sample_blocks();
        let mut bytes = block_to_bytes(&blocks[1]);
        // The transaction-count length prefix sits after 8+32+32+8 bytes.
        let pos = 80;
        bytes[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_block(&group, &bytes).unwrap_err();
        assert!(matches!(err, CodecError::LengthOutOfBounds(_)), "{err:?}");
    }

    #[test]
    fn invalid_public_key_rejected() {
        // Craft a transaction whose output owner is not in the subgroup.
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&group, &mut rng);
        let tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: kp.public,
                amount: Amount(1),
            }],
            memo: vec![],
        };
        let mut bytes = transaction_to_bytes(&tx);
        // Overwrite the owner residue (starts after the 8-byte input count
        // and 8-byte output count) with 0 — never a subgroup member.
        bytes[16..24].copy_from_slice(&0u64.to_le_bytes());
        let mut r = Reader::new(&bytes);
        let err = decode_transaction(&group, &mut r).unwrap_err();
        assert!(matches!(err, CodecError::InvalidElement(0)), "{err:?}");
    }
}
