//! CRC-32 (IEEE 802.3, the `zlib`/`gzip` polynomial), table-driven.
//!
//! Hermetic like the rest of the workspace: no external crate. The
//! reflected polynomial `0xEDB88320` guarantees any single-bit — and any
//! burst-of-≤32-bit — error in a WAL record payload is detected, which is
//! exactly the torn-write/bit-flip adversary the store defends against.

/// Lazily built 256-entry lookup table for the reflected polynomial.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The universal CRC-32 check value: crc32("123456789") = 0xCBF43926.
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let payload = b"durable evidence of recursive diversity";
        let clean = crc32(payload);
        let mut buf = payload.to_vec();
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                assert_ne!(crc32(&buf), clean, "flip at byte {i} bit {bit} undetected");
                buf[i] ^= 1 << bit;
            }
        }
    }
}
