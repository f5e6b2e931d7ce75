//! The service wire protocol: length-prefixed, self-authenticating
//! frames over a byte transport.
//!
//! Layout of one frame:
//!
//! ```text
//! len: u32 LE ‖ kind: u8 ‖ sha256(payload): 32 bytes ‖ payload
//! └── body = everything after len; len = 33 + payload.len() ──┘
//! ```
//!
//! This reuses the fault-bus framing discipline (`kind ‖ digest ‖
//! payload`, see `dams-node`'s gossip codec) with a length prefix added
//! so frames can stream over a real byte pipe: the reader knows how many
//! bytes to pull before it can judge the frame at all. The digest makes
//! every frame self-authenticating — any single-byte flip in kind,
//! digest, or payload is detected before the payload is interpreted, and
//! the fuzz tests pin that down with the same single-byte-flip adversary
//! `codec_fuzz.rs` runs against the block codec.
//!
//! Decoding is strict and total: every malformed input yields a typed
//! [`WireError`], never a panic and never a silently resynchronized
//! stream. Payload schemas are fixed-width little-endian, so encode →
//! decode is byte-exact (golden vectors in the tests).
//!
//! [`duplex_pair`] provides the in-process transport — two cross-wired
//! blocking byte pipes implementing [`io::Read`]/[`io::Write`] — and the
//! same [`FrameReader`] runs unchanged over a loopback [`std::net::TcpStream`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

use dams_crypto::sha256::sha256;

use crate::service::{Priority, ShedReason};

/// Frame kind tags (one byte on the wire).
pub const KIND_HELLO: u8 = 1;
pub const KIND_REQUEST: u8 = 2;
pub const KIND_RESPONSE: u8 = 3;
pub const KIND_SHUTDOWN: u8 = 4;

/// Upper bound on one frame's body (`kind + digest + payload`). Far
/// above any legitimate message; a length prefix past it is rejected
/// before any allocation, so a corrupted prefix cannot OOM the reader.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of framing before the payload: `kind` + 32-byte digest.
const FRAME_OVERHEAD: usize = 33;

/// Why a frame failed to decode (typed: the fuzz gate asserts every
/// corruption lands in one of these, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended mid-frame.
    Truncated { needed: usize, got: usize },
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge { len: usize },
    /// The length prefix cannot even hold the kind + digest framing.
    FrameTooSmall { len: usize },
    /// The kind byte is not a known tag.
    UnknownKind(u8),
    /// The payload does not hash to the frame's digest.
    DigestMismatch,
    /// The payload parsed structurally but a field is invalid.
    BadPayload {
        kind: &'static str,
        detail: &'static str,
    },
    /// An I/O failure: the TCP transport failed mid-frame (the
    /// in-process transport itself never errors).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::FrameTooLarge { len } => write!(f, "frame length {len} exceeds max"),
            WireError::FrameTooSmall { len } => write!(f, "frame length {len} below framing"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::DigestMismatch => write!(f, "payload digest mismatch"),
            WireError::BadPayload { kind, detail } => write!(f, "bad {kind} payload: {detail}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Session opener: binds the connection (or a session on it) to a
/// wallet tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    pub tenant: u64,
}

/// One selection request as it travels the wire — the wire twin of the
/// trace's `ArrivalEvent` plus the service's `Request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRequest {
    /// Arrival tick: where the server's event loop replays the request.
    pub tick: u64,
    pub id: u64,
    pub tenant: u64,
    pub target: u32,
    pub interactive: bool,
    /// Deadline budget in virtual ticks.
    pub budget: u64,
    pub require_exact: bool,
}

/// The terminal fate of one request id, as reported to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    Completed { met: bool, degraded: bool },
    Shed(ShedReason),
    Failed,
}

/// Terminal response for one request id (exactly one per unique id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireResponse {
    pub id: u64,
    pub outcome: WireOutcome,
}

/// Any protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    Hello(Hello),
    Request(WireRequest),
    Response(WireResponse),
    /// Client is done sending; the server drains and closes.
    Shutdown,
}

impl WireRequest {
    /// The service-level request this wire message denotes.
    pub fn to_request(self) -> crate::service::Request {
        crate::service::Request {
            id: self.id,
            target: dams_diversity::TokenId(self.target),
            class: if self.interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            budget: self.budget,
            require_exact: self.require_exact,
            // The wire REQUEST carries no floor (the field would change
            // the golden frame vectors and every recorded trace); wallet
            // embedders declare floors through the Frontend instead.
            anonymity_floor: 0,
        }
    }
}

fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello(_) => KIND_HELLO,
            Message::Request(_) => KIND_REQUEST,
            Message::Response(_) => KIND_RESPONSE,
            Message::Shutdown => KIND_SHUTDOWN,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            Message::Hello(h) => h.tenant.to_le_bytes().to_vec(),
            Message::Request(r) => {
                let mut p = Vec::with_capacity(37);
                p.extend_from_slice(&r.tick.to_le_bytes());
                p.extend_from_slice(&r.id.to_le_bytes());
                p.extend_from_slice(&r.tenant.to_le_bytes());
                p.extend_from_slice(&r.target.to_le_bytes());
                p.extend_from_slice(&r.budget.to_le_bytes());
                p.push(u8::from(r.interactive) | (u8::from(r.require_exact) << 1));
                p
            }
            Message::Response(r) => {
                let (code, arg) = match r.outcome {
                    WireOutcome::Completed { met, degraded } => {
                        (0u8, u8::from(met) | (u8::from(degraded) << 1))
                    }
                    WireOutcome::Shed(ShedReason::QueueFull) => (1, 0),
                    WireOutcome::Shed(ShedReason::DeadlineInfeasible) => (1, 1),
                    WireOutcome::Shed(ShedReason::CircuitOpen) => (1, 2),
                    WireOutcome::Shed(ShedReason::AnonymityFloor) => (1, 3),
                    WireOutcome::Failed => (2, 0),
                };
                let mut p = Vec::with_capacity(10);
                p.extend_from_slice(&r.id.to_le_bytes());
                p.push(code);
                p.push(arg);
                p
            }
            Message::Shutdown => Vec::new(),
        }
    }

    /// Encode to a complete self-authenticating frame.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let body_len = FRAME_OVERHEAD + payload.len();
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(self.kind());
        out.extend_from_slice(&sha256(&payload));
        out.extend_from_slice(&payload);
        out
    }
}

fn decode_payload(kind: u8, p: &[u8]) -> Result<Message, WireError> {
    match kind {
        KIND_HELLO => {
            if p.len() != 8 {
                return Err(WireError::BadPayload {
                    kind: "hello",
                    detail: "expected 8 bytes",
                });
            }
            Ok(Message::Hello(Hello { tenant: u64le(p) }))
        }
        KIND_REQUEST => {
            if p.len() != 37 {
                return Err(WireError::BadPayload {
                    kind: "request",
                    detail: "expected 37 bytes",
                });
            }
            let flags = p[36];
            if flags & !0b11 != 0 {
                return Err(WireError::BadPayload {
                    kind: "request",
                    detail: "reserved flag bits set",
                });
            }
            Ok(Message::Request(WireRequest {
                tick: u64le(&p[0..8]),
                id: u64le(&p[8..16]),
                tenant: u64le(&p[16..24]),
                target: u32le(&p[24..28]),
                budget: u64le(&p[28..36]),
                interactive: flags & 1 != 0,
                require_exact: flags & 2 != 0,
            }))
        }
        KIND_RESPONSE => {
            if p.len() != 10 {
                return Err(WireError::BadPayload {
                    kind: "response",
                    detail: "expected 10 bytes",
                });
            }
            let outcome = match (p[8], p[9]) {
                (0, arg) if arg & !0b11 == 0 => WireOutcome::Completed {
                    met: arg & 1 != 0,
                    degraded: arg & 2 != 0,
                },
                (1, 0) => WireOutcome::Shed(ShedReason::QueueFull),
                (1, 1) => WireOutcome::Shed(ShedReason::DeadlineInfeasible),
                (1, 2) => WireOutcome::Shed(ShedReason::CircuitOpen),
                (1, 3) => WireOutcome::Shed(ShedReason::AnonymityFloor),
                (2, 0) => WireOutcome::Failed,
                _ => {
                    return Err(WireError::BadPayload {
                        kind: "response",
                        detail: "unknown outcome code",
                    })
                }
            };
            Ok(Message::Response(WireResponse {
                id: u64le(&p[0..8]),
                outcome,
            }))
        }
        KIND_SHUTDOWN => {
            if !p.is_empty() {
                return Err(WireError::BadPayload {
                    kind: "shutdown",
                    detail: "expected empty payload",
                });
            }
            Ok(Message::Shutdown)
        }
        other => Err(WireError::UnknownKind(other)),
    }
}

/// Decode one frame from the front of `buf`. Returns the message and how
/// many bytes it consumed. Total: every input is either a decoded frame
/// or a typed error.
pub fn decode_frame(buf: &[u8]) -> Result<(Message, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let body_len = u32le(&buf[0..4]) as usize;
    if body_len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: body_len });
    }
    if body_len < FRAME_OVERHEAD {
        return Err(WireError::FrameTooSmall { len: body_len });
    }
    let total = 4 + body_len;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let kind = buf[4];
    let digest = &buf[5..37];
    let payload = &buf[37..total];
    if sha256(payload).as_slice() != digest {
        return Err(WireError::DigestMismatch);
    }
    let msg = decode_payload(kind, payload)?;
    Ok((msg, total))
}

/// Incremental frame decoder over any byte stream. One instance per
/// connection direction; it never resynchronizes after an error — a
/// corrupt frame poisons the connection, which is the safe behaviour for
/// an authenticated stream.
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Read one frame. `Ok(None)` on clean EOF at a frame boundary; EOF
    /// mid-frame is [`WireError::Truncated`].
    pub fn read_frame(&mut self) -> Result<Option<Message>, WireError> {
        let mut len_buf = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut len_buf)? {
            Filled::Eof => return Ok(None),
            Filled::Partial(got) => {
                return Err(WireError::Truncated { needed: 4, got });
            }
            Filled::Full => {}
        }
        let body_len = u32::from_le_bytes(len_buf) as usize;
        if body_len > MAX_FRAME {
            return Err(WireError::FrameTooLarge { len: body_len });
        }
        if body_len < FRAME_OVERHEAD {
            return Err(WireError::FrameTooSmall { len: body_len });
        }
        let mut body = vec![0u8; body_len];
        match read_exact_or_eof(&mut self.inner, &mut body)? {
            Filled::Full => {}
            Filled::Eof | Filled::Partial(_) => {
                return Err(WireError::Truncated {
                    needed: 4 + body_len,
                    got: 4,
                });
            }
        }
        let mut frame = Vec::with_capacity(4 + body_len);
        frame.extend_from_slice(&len_buf);
        frame.extend_from_slice(&body);
        decode_frame(&frame).map(|(msg, _)| Some(msg))
    }
}

enum Filled {
    Full,
    Eof,
    Partial(usize),
}

/// `read_exact` that distinguishes EOF-before-anything from EOF-midway
/// (the former is a clean close, the latter a truncated frame).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Filled, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial(filled)
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(Filled::Full)
}

/// Write one message as a frame.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    w.write_all(&msg.encode())
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

// ---------------------------------------------------------------------
// In-process duplex transport
// ---------------------------------------------------------------------

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One blocking byte pipe (unbounded; the protocol's volume is bounded
/// by the trace, so back-pressure is not needed and an unbounded pipe
/// cannot deadlock writer-against-reader).
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl Pipe {
    fn write(&self, bytes: &[u8]) -> io::Result<usize> {
        let mut st = self.state.lock().expect("pipe lock");
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        st.buf.extend(bytes);
        self.readable.notify_all();
        Ok(bytes.len())
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        let mut st = self.state.lock().expect("pipe lock");
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("non-empty");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0); // clean EOF
            }
            st = self.readable.wait(st).expect("pipe lock");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("pipe lock");
        st.closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-process duplex connection. Clonable so a connection
/// can be split across threads (one clone reads, another writes); the
/// write side closes when [`DuplexEnd::close`] is called — intentionally
/// not on drop, since clones share the underlying pipes.
#[derive(Clone)]
pub struct DuplexEnd {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl DuplexEnd {
    /// Close this end's write direction: the peer's reader sees EOF once
    /// it drains the buffered bytes.
    pub fn close(&self) {
        self.tx.close();
    }
}

impl Read for DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for DuplexEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A cross-wired pair of in-process byte pipes: what one end writes, the
/// other reads, in both directions.
pub fn duplex_pair() -> (DuplexEnd, DuplexEnd) {
    let a_to_b = Arc::new(Pipe::default());
    let b_to_a = Arc::new(Pipe::default());
    (
        DuplexEnd {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
        },
        DuplexEnd {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Message {
        Message::Request(WireRequest {
            tick: 17,
            id: 5,
            tenant: 2,
            target: 3,
            interactive: true,
            budget: 4096,
            require_exact: false,
        })
    }

    #[test]
    fn all_messages_round_trip() {
        let msgs = [
            Message::Hello(Hello { tenant: 9 }),
            sample_request(),
            Message::Response(WireResponse {
                id: 5,
                outcome: WireOutcome::Completed {
                    met: true,
                    degraded: false,
                },
            }),
            Message::Response(WireResponse {
                id: 6,
                outcome: WireOutcome::Shed(ShedReason::CircuitOpen),
            }),
            Message::Response(WireResponse {
                id: 7,
                outcome: WireOutcome::Shed(ShedReason::AnonymityFloor),
            }),
            Message::Response(WireResponse {
                id: 8,
                outcome: WireOutcome::Failed,
            }),
            Message::Shutdown,
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let (decoded, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(decoded, msg);
            assert_eq!(used, bytes.len(), "no trailing bytes");
        }
    }

    #[test]
    fn oversized_and_undersized_prefixes_are_typed() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 64]);
        assert!(matches!(
            decode_frame(&buf),
            Err(WireError::FrameTooLarge { .. })
        ));
        let small = 5u32.to_le_bytes().to_vec();
        assert!(matches!(
            decode_frame(&small),
            Err(WireError::FrameTooSmall { len: 5 })
        ));
        assert!(matches!(
            decode_frame(&[1, 2]),
            Err(WireError::Truncated { needed: 4, got: 2 })
        ));
    }

    #[test]
    fn frame_reader_streams_messages_and_reports_clean_eof() {
        let (mut client, server) = duplex_pair();
        let msgs = [
            Message::Hello(Hello { tenant: 1 }),
            sample_request(),
            Message::Shutdown,
        ];
        for m in &msgs {
            write_frame(&mut client, m).expect("writes");
        }
        client.close();
        let mut reader = FrameReader::new(server);
        for m in &msgs {
            assert_eq!(reader.read_frame().expect("reads"), Some(*m));
        }
        assert_eq!(reader.read_frame().expect("clean EOF"), None);
    }

    #[test]
    fn eof_mid_frame_is_truncated_not_clean() {
        let (mut client, server) = duplex_pair();
        let bytes = sample_request().encode();
        client.write_all(&bytes[..bytes.len() - 3]).expect("writes");
        client.close();
        let mut reader = FrameReader::new(server);
        assert!(matches!(
            reader.read_frame(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn duplex_is_bidirectional_and_split_across_threads() {
        let (client, server) = duplex_pair();
        let (mut ctx, csrv) = (client.clone(), server.clone());
        let t = std::thread::spawn(move || {
            let mut reader = FrameReader::new(csrv);
            let got = reader.read_frame().expect("reads").expect("some");
            let mut stx = server.clone();
            write_frame(
                &mut stx,
                &Message::Response(WireResponse {
                    id: 5,
                    outcome: WireOutcome::Failed,
                }),
            )
            .expect("writes back");
            stx.close();
            got
        });
        write_frame(&mut ctx, &sample_request()).expect("writes");
        ctx.close();
        let mut back = FrameReader::new(client);
        let resp = back.read_frame().expect("reads").expect("some");
        assert_eq!(t.join().expect("thread"), sample_request());
        assert!(matches!(resp, Message::Response(_)));
    }

    #[test]
    fn write_after_peer_close_is_broken_pipe() {
        let (mut client, server) = duplex_pair();
        server.rx.close(); // peer tore down the a→b direction
        assert!(client.write_all(&[1, 2, 3]).is_err());
    }
}
