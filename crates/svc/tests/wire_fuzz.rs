//! Wire-frame corruption sweep, mirroring the blockchain codec fuzz
//! gate: for 64 seeds, encode each frame kind, flip one seeded random
//! bit or truncate at a seeded point, and prove the mutation is always
//! rejected with a *typed* decode error — never a panic, never silent
//! acceptance. Frames are self-authenticating (`kind ‖ sha256(payload)
//! ‖ payload` behind a length prefix), so a flip must trip either the
//! length accounting, the kind table, the payload-size check, or the
//! digest.
//!
//! Golden byte vectors pin the exact encoding: any codec change that
//! alters bytes on the wire fails here before it can silently break
//! cross-version interop.

use dams_svc::wire::{
    decode_frame, Hello, Message, WireError, WireOutcome, WireRequest, WireResponse,
};
use dams_svc::ShedReason;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

/// One frame of every kind, with every payload section populated.
fn samples() -> Vec<Message> {
    vec![
        Message::Hello(Hello { tenant: 7 }),
        Message::Request(WireRequest {
            tick: 1,
            id: 2,
            tenant: 3,
            target: 4,
            interactive: true,
            budget: 5,
            require_exact: false,
        }),
        Message::Response(WireResponse {
            id: 9,
            outcome: WireOutcome::Completed {
                met: true,
                degraded: false,
            },
        }),
        Message::Response(WireResponse {
            id: 10,
            outcome: WireOutcome::Shed(ShedReason::CircuitOpen),
        }),
        Message::Shutdown,
    ]
}

#[test]
fn golden_byte_vectors_pin_the_encoding() {
    let golden = [
        (
            Message::Hello(Hello { tenant: 7 }),
            "2900000001aae89fc0f03e2959ae4d701a80cc3915918c950b159f6abb6c92c1433b1a85340700000000000000",
        ),
        (
            Message::Request(WireRequest {
                tick: 1,
                id: 2,
                tenant: 3,
                target: 4,
                interactive: true,
                budget: 5,
                require_exact: false,
            }),
            "4600000002274af33fb23913cdbeb96ad16d0d0fe964217047c342ebc1bf32430ed0e5aba601000000000000000200000000000000030000000000000004000000050000000000000001",
        ),
        (
            Message::Response(WireResponse {
                id: 9,
                outcome: WireOutcome::Completed {
                    met: true,
                    degraded: false,
                },
            }),
            "2b000000034993e717d6b460f3248424284ea8b2a6ac7244a3609b146d4ca2a4320962e72309000000000000000001",
        ),
        (
            Message::Shutdown,
            "2100000004e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    ];
    for (msg, hex) in golden {
        let bytes = msg.encode();
        let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "encoding drifted for {msg:?}");
        let (decoded, consumed) = decode_frame(&bytes).expect("golden decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, msg);
    }
}

#[test]
fn roundtrip_is_identity_for_every_kind() {
    for msg in samples() {
        let bytes = msg.encode();
        let (decoded, consumed) = decode_frame(&bytes).expect("clean frame decodes");
        assert_eq!(consumed, bytes.len(), "no trailing bytes for {msg:?}");
        assert_eq!(decoded, msg);
    }
}

#[test]
fn single_bit_flip_is_always_rejected_typed() {
    let clean: Vec<Vec<u8>> = samples().iter().map(Message::encode).collect();
    let mut by_error = std::collections::BTreeMap::<&'static str, u32>::new();
    for seed in 0..SEEDS {
        for (fi, frame) in clean.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x31f0_0000 + seed * 16 + fi as u64);
            let mut bytes = frame.clone();
            let idx = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[idx] ^= 1 << bit;
            // A flip may not be silently accepted as the same frame. A
            // flip in the length prefix can make the buffer *look* short
            // (Truncated) or reframe it; everything else must trip the
            // kind table, a size check, or the digest.
            match decode_frame(&bytes) {
                Err(e) => {
                    let label = match e {
                        WireError::Truncated { .. } => "truncated",
                        WireError::FrameTooLarge { .. } => "too_large",
                        WireError::FrameTooSmall { .. } => "too_small",
                        WireError::UnknownKind(_) => "unknown_kind",
                        WireError::DigestMismatch => "digest",
                        WireError::BadPayload { .. } => "bad_payload",
                        WireError::Io(_) => "io",
                    };
                    *by_error.entry(label).or_default() += 1;
                }
                Ok((decoded, _)) => {
                    panic!(
                        "seed {seed} frame {fi}: flipping bit {bit} of byte {idx} \
                         was silently accepted as {decoded:?}"
                    );
                }
            }
        }
    }
    // The typed error space must actually be exercised: at minimum the
    // digest check and the length accounting both fire somewhere.
    assert!(
        by_error.contains_key("digest"),
        "digest never fired: {by_error:?}"
    );
    assert!(
        by_error.contains_key("truncated"),
        "length accounting never fired: {by_error:?}"
    );
    assert!(
        !by_error.contains_key("io"),
        "decode never does IO: {by_error:?}"
    );
}

#[test]
fn truncation_always_fails_decode_typed() {
    let clean: Vec<Vec<u8>> = samples().iter().map(Message::encode).collect();
    for seed in 0..SEEDS {
        for (fi, frame) in clean.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x7256_0000 + seed * 16 + fi as u64);
            let cut = rng.gen_range(0..frame.len());
            match decode_frame(&frame[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert!(got < needed, "seed {seed} frame {fi}: nonsense sizes");
                    assert_eq!(got, cut, "seed {seed} frame {fi}: got != cut length");
                }
                Err(other) => panic!(
                    "seed {seed} frame {fi}: truncation at {cut} gave {other:?}, \
                     expected Truncated"
                ),
                Ok(_) => panic!(
                    "seed {seed} frame {fi}: truncated frame at {cut}/{} decoded",
                    frame.len()
                ),
            }
        }
    }
}

#[test]
fn flips_never_cross_decode_into_another_valid_kind() {
    // The digest covers the payload, not the kind byte — kind confusion
    // is instead excluded because every kind has a distinct payload
    // size. Exhaustively flip each bit of each kind byte and assert the
    // result is always a typed rejection.
    for msg in samples() {
        let clean = msg.encode();
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[4] ^= 1 << bit; // kind byte sits right after the length
            let res = decode_frame(&bytes);
            assert!(
                res.is_err(),
                "kind flip bit {bit} of {msg:?} decoded as {res:?}"
            );
        }
    }
}
