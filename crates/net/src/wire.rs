//! The wire protocol: message grammar, handshake codec and typed errors.
//!
//! # Message grammar
//!
//! Every message is length-delimited:
//!
//! ```text
//! type     1 byte    message discriminator (below)
//! len      u32 LE    payload bytes
//! payload  len bytes
//! ```
//!
//! | type | name      | direction       | payload |
//! |------|-----------|-----------------|---------|
//! | 1    | `HELLO`   | client → server | magic `IGMN`, version `u32`, trace codec `u32`, tenant session spec (below) |
//! | 2    | `WELCOME` | server → client | initial credit `u64` |
//! | 3    | `CHUNK`   | client → server | 16-byte span prefix, then one `igm-trace` codec **frame, verbatim** (header + payload) |
//! | 4    | `CREDIT`  | server → client | additional credit bytes granted, `u64` |
//! | 5    | `FIN`     | client → server | final client lane stats: chunks, records, frame bytes, credit stalls (`u64` each) |
//! | 6    | `FIN_ACK` | server → client | records the server ingested on this lane, `u64` |
//! | 7    | `ERROR`   | server → client | reason string (`u16` len + UTF-8), sent before close on a rejected handshake |
//!
//! The `HELLO` session spec carries everything
//! [`SessionConfig`](igm_runtime::SessionConfig) holds — tenant name,
//! requested [`LifeguardKind`], accelerator configuration, synthetic-mode
//! flag and premarked regions — so a server-side session reproduces the
//! client's local configuration exactly (the loopback-equivalence
//! guarantee rests on this). The version field must read [`NET_VERSION`]
//! (anything else is refused with a typed [`NetError::VersionMismatch`])
//! and the trace codec field must read [`igm_trace::CODEC_ID`], the codec
//! every `CHUNK` frame carries (anything else is refused with a typed
//! [`NetError::UnsupportedCodec`]).
//!
//! # Credit rules
//!
//! Credit is accounted in **chunk payload bytes** (the verbatim frame
//! bytes). `WELCOME` grants the initial window; each `CREDIT` grants more.
//! A client may start sending a chunk whenever its remaining credit is
//! positive — credit may go negative by at most one frame (the classic
//! "overdraft one message" rule), which guarantees progress for frames
//! larger than the window while bounding server-side buffering to the
//! window plus one frame. The server sizes grants from the tenant's log
//! channel *occupancy* (capacity − used bytes): a full channel — a slow
//! lifeguard — stops the grants, throttling the remote producer exactly
//! like the paper's bounded in-cache log buffer throttles the application
//! core.
//!
//! # Span provenance
//!
//! Every `CHUNK` payload opens with a fixed [`SPAN_PREFIX_BYTES`]-byte
//! provenance prefix:
//!
//! ```text
//! flags   u8      bit 0: this frame is span-sampled
//! pad     3 bytes zero
//! flow    u32 LE  origin span flow (igm-span), 0 when unsampled
//! seq     u64 LE  frame sequence number within the flow
//! ```
//!
//! The sampling decision is made **once, at the origin forwarder**; a
//! sampled frame carries its [`FrameTag`](igm_span::FrameTag) across the
//! wire so the server-side stages (`server_ingest`, `channel_wait`,
//! `dispatch`, …) chain under the same flow/seq as the client-side ones
//! (`client_send`, `credit_stall`) — one causally-joined waterfall per
//! frame. Credit accounts the *whole* chunk payload (prefix included), so
//! both sides' byte ledgers agree.

use igm_core::{AccelConfig, IfGeometry, ItConfig};
use igm_lifeguards::LifeguardKind;
use igm_runtime::SessionConfig;
use igm_span::FrameTag;
use igm_trace::{TraceError, CODEC_ID};
use std::fmt;
use std::io::{self, Read};
use std::ops::Range;

/// The four magic bytes opening every `HELLO`.
pub const NET_MAGIC: [u8; 4] = *b"IGMN";

/// The protocol version both sides speak, and the only one a `HELLO` may
/// announce.
pub const NET_VERSION: u32 = 3;

/// Fixed length of the span-provenance prefix opening every `CHUNK`
/// payload (flags `u8`, 3 pad bytes, flow `u32` LE, seq `u64` LE).
pub const SPAN_PREFIX_BYTES: usize = 16;

/// Bytes of message header preceding every payload (`type` u8 + `len`
/// u32 LE).
pub const MSG_HEADER_BYTES: usize = 5;

/// Upper bound accepted for one message payload: the largest legal codec
/// frame plus its frame header and the span prefix. A corrupt length
/// field becomes a typed error instead of an allocation.
pub const MAX_MESSAGE_BYTES: u32 = igm_trace::MAX_PAYLOAD_BYTES
    + igm_trace::FRAME_HEADER_BYTES_V2 as u32
    + SPAN_PREFIX_BYTES as u32;

/// Message type discriminators.
pub mod msg {
    /// Client handshake (magic, version, tenant session spec).
    pub const HELLO: u8 = 1;
    /// Server handshake acceptance, carrying the initial credit grant.
    pub const WELCOME: u8 = 2;
    /// One codec frame, verbatim.
    pub const CHUNK: u8 = 3;
    /// Additional credit bytes granted.
    pub const CREDIT: u8 = 4;
    /// Clean client shutdown, carrying final lane stats.
    pub const FIN: u8 = 5;
    /// Server acknowledgement of FIN, carrying ingested-record count.
    pub const FIN_ACK: u8 = 6;
    /// Handshake rejection reason; the server closes after sending it.
    pub const ERROR: u8 = 7;
}

/// Longest accepted tenant name in a handshake.
pub const MAX_NAME_BYTES: usize = 256;

/// Most premarked regions accepted in a handshake.
pub const MAX_PREMARK_REGIONS: usize = 65_536;

/// Largest M-TLB capacity a handshake may request (the paper sweeps
/// 16–256 entries; this leaves three orders of magnitude of headroom
/// while keeping a hostile value from driving a huge allocation).
pub const MAX_MTLB_ENTRIES: usize = 1 << 20;

/// Largest idempotent-filter entry count a handshake may request.
pub const MAX_IF_ENTRIES: usize = 1 << 20;

/// Errors produced by the protocol layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure.
    Io(io::Error),
    /// The peer's handshake does not open with [`NET_MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version the peer announced.
        theirs: u32,
    },
    /// The peer's `HELLO` named a trace codec other than
    /// [`igm_trace::CODEC_ID`].
    UnsupportedCodec {
        /// The wire codec identifier the peer announced.
        theirs: u32,
    },
    /// A structurally invalid message (bad length, unknown type,
    /// out-of-range field).
    Malformed(&'static str),
    /// The connection closed at the wrong time (mid-message, before FIN,
    /// during the handshake).
    Disconnected(&'static str),
    /// The server refused the handshake (its `ERROR` reason).
    Rejected(String),
    /// The carried trace frame failed to decode.
    Trace(TraceError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "igm-net i/o error: {e}"),
            NetError::BadMagic => write!(f, "peer is not an igm-net endpoint (bad magic)"),
            NetError::VersionMismatch { theirs } => {
                write!(f, "peer speaks protocol version {theirs} (this side speaks {NET_VERSION})")
            }
            NetError::UnsupportedCodec { theirs } => {
                write!(f, "peer requested trace codec {theirs} (this side speaks codec {CODEC_ID})")
            }
            NetError::Malformed(reason) => write!(f, "malformed message: {reason}"),
            NetError::Disconnected(when) => write!(f, "connection closed: {when}"),
            NetError::Rejected(reason) => write!(f, "server rejected the session: {reason}"),
            NetError::Trace(e) => write!(f, "carried trace frame invalid: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<TraceError> for NetError {
    fn from(e: TraceError) -> NetError {
        NetError::Trace(e)
    }
}

/// Maps a protocol failure onto the ingest subsystem's lane-containment
/// error type (`offset` is the connection's consumed-byte position, for
/// the report).
pub(crate) fn lane_error(e: NetError, offset: u64) -> TraceError {
    match e {
        NetError::Io(e) => TraceError::Io(e),
        NetError::Trace(e) => e,
        NetError::BadMagic => {
            TraceError::Corrupt { offset, reason: "peer is not an igm-net endpoint" }
        }
        NetError::VersionMismatch { .. } => {
            TraceError::Corrupt { offset, reason: "peer protocol version changed mid-stream" }
        }
        NetError::UnsupportedCodec { .. } => {
            TraceError::Corrupt { offset, reason: "peer requested an unsupported trace codec" }
        }
        NetError::Malformed(reason) | NetError::Disconnected(reason) => {
            TraceError::Corrupt { offset, reason }
        }
        NetError::Rejected(_) => {
            TraceError::Corrupt { offset, reason: "peer rejected the session" }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Appends one message header.
pub(crate) fn push_header(out: &mut Vec<u8>, ty: u8, len: usize) {
    out.push(ty);
    out.extend_from_slice(&u32::try_from(len).expect("message fits u32 length").to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u16::try_from(s.len()).expect("string fits u16 length").to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Dense wire code of a [`LifeguardKind`].
fn lifeguard_code(kind: LifeguardKind) -> u8 {
    match kind {
        LifeguardKind::AddrCheck => 0,
        LifeguardKind::MemCheck => 1,
        LifeguardKind::TaintCheck => 2,
        LifeguardKind::TaintCheckDetailed => 3,
        LifeguardKind::LockSet => 4,
    }
}

fn lifeguard_from_code(code: u8) -> Option<LifeguardKind> {
    Some(match code {
        0 => LifeguardKind::AddrCheck,
        1 => LifeguardKind::MemCheck,
        2 => LifeguardKind::TaintCheck,
        3 => LifeguardKind::TaintCheckDetailed,
        4 => LifeguardKind::LockSet,
        _ => return None,
    })
}

/// Encodes a complete `HELLO` message for `session`, under an explicit
/// `version` and wire `codec` identifier (anything but [`NET_VERSION`] /
/// [`igm_trace::CODEC_ID`] is only useful to exercise the server's
/// checks — which is exactly what the protocol tests do).
pub fn hello_message(version: u32, codec: u32, session: &SessionConfig) -> Vec<u8> {
    let mut body = Vec::with_capacity(64 + session.premark.len() * 8);
    body.extend_from_slice(&NET_MAGIC);
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&codec.to_le_bytes());
    push_str(&mut body, &session.name);
    body.push(lifeguard_code(session.lifeguard));
    body.push(session.synthetic_workload as u8);
    body.push(session.accel.lma as u8);
    body.extend_from_slice(&(session.accel.mtlb_entries as u32).to_le_bytes());
    match &session.accel.it {
        Some(it) => {
            body.push(1);
            body.push(it.nonunary_check as u8);
            body.push(it.clean_rs_do_nothing as u8);
            body.push(it.conflict_detection as u8);
        }
        None => body.push(0),
    }
    match &session.accel.if_geometry {
        Some(geo) => {
            body.push(1);
            body.extend_from_slice(&(geo.entries as u32).to_le_bytes());
            body.extend_from_slice(&(geo.ways as u32).to_le_bytes());
        }
        None => body.push(0),
    }
    body.extend_from_slice(&(session.premark.len() as u32).to_le_bytes());
    for (base, len) in &session.premark {
        body.extend_from_slice(&base.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + body.len());
    push_header(&mut out, msg::HELLO, body.len());
    out.extend_from_slice(&body);
    out
}

/// Appends the chunk span prefix: all-zero when the frame is
/// unsampled, `flags` bit 0 plus the frame's flow/seq when it carries a
/// tag.
pub(crate) fn push_span_prefix(out: &mut Vec<u8>, tag: Option<FrameTag>) {
    match tag {
        Some(tag) => {
            out.extend_from_slice(&[1, 0, 0, 0]);
            out.extend_from_slice(&tag.flow.to_le_bytes());
            out.extend_from_slice(&tag.seq.to_le_bytes());
        }
        None => out.extend_from_slice(&[0u8; SPAN_PREFIX_BYTES]),
    }
}

/// Decodes a chunk span prefix (exactly [`SPAN_PREFIX_BYTES`] bytes).
pub(crate) fn decode_span_prefix(bytes: &[u8]) -> Result<Option<FrameTag>, NetError> {
    debug_assert_eq!(bytes.len(), SPAN_PREFIX_BYTES);
    match bytes[0] {
        0 => Ok(None),
        1 => {
            let flow = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            if flow == 0 {
                // Flow 0 is the "no flow" placeholder — a sampled frame
                // can never carry it.
                return Err(NetError::Malformed("sampled chunk carries the null span flow"));
            }
            let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            Ok(Some(FrameTag { flow, seq }))
        }
        _ => Err(NetError::Malformed("span prefix flags out of range")),
    }
}

fn u64_message(ty: u8, v: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + 8);
    push_header(&mut out, ty, 8);
    out.extend_from_slice(&v.to_le_bytes());
    out
}

/// Encodes a `WELCOME` carrying the initial credit grant.
pub(crate) fn welcome_message(initial_credit: u64) -> Vec<u8> {
    u64_message(msg::WELCOME, initial_credit)
}

/// Encodes a `CREDIT` grant.
pub(crate) fn credit_message(grant: u64) -> Vec<u8> {
    u64_message(msg::CREDIT, grant)
}

/// Encodes a `FIN_ACK` carrying the server-side ingested-record count.
pub(crate) fn fin_ack_message(records: u64) -> Vec<u8> {
    u64_message(msg::FIN_ACK, records)
}

/// The client-side lane counters a `FIN` carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FinStats {
    /// Chunk messages sent.
    pub chunks: u64,
    /// Records encoded into them.
    pub records: u64,
    /// Frame (credit-accounted) bytes sent.
    pub frame_bytes: u64,
    /// Times the client stalled waiting for credit.
    pub credit_stalls: u64,
}

/// Encodes a `FIN`.
pub(crate) fn fin_message(stats: &FinStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + 32);
    push_header(&mut out, msg::FIN, 32);
    for v in [stats.chunks, stats.records, stats.frame_bytes, stats.credit_stalls] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an `ERROR` (handshake rejection).
pub(crate) fn error_message(reason: &str) -> Vec<u8> {
    let reason = &reason[..reason.len().min(512)];
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + 2 + reason.len());
    push_header(&mut out, msg::ERROR, 2 + reason.len());
    push_str(&mut out, reason);
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one message payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(NetError::Malformed("message payload ends inside a field")),
        }
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("flag byte out of range")),
        }
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finish(&self) -> Result<(), NetError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(NetError::Malformed("message payload has trailing bytes"))
        }
    }
}

/// Decodes a `HELLO` payload into the tenant's [`SessionConfig`],
/// enforcing magic, version ([`NET_VERSION`]) and codec
/// ([`igm_trace::CODEC_ID`]) first.
pub fn decode_hello(payload: &[u8]) -> Result<SessionConfig, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    if r.take(4)? != NET_MAGIC {
        return Err(NetError::BadMagic);
    }
    let version = r.u32()?;
    if version != NET_VERSION {
        return Err(NetError::VersionMismatch { theirs: version });
    }
    let codec = r.u32()?;
    if codec != CODEC_ID {
        return Err(NetError::UnsupportedCodec { theirs: codec });
    }
    let name_len = r.u16()? as usize;
    if name_len > MAX_NAME_BYTES {
        return Err(NetError::Malformed("tenant name exceeds the protocol bound"));
    }
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| NetError::Malformed("tenant name is not UTF-8"))?
        .to_owned();
    let lifeguard =
        lifeguard_from_code(r.u8()?).ok_or(NetError::Malformed("lifeguard kind out of range"))?;
    let synthetic = r.bool()?;
    let lma = r.bool()?;
    let mtlb_entries = r.u32()? as usize;
    // The accelerator constructors assert their geometry (positive M-TLB
    // capacity, power-of-two filter shapes) — a hostile handshake must
    // become a typed rejection here, not a panic or an outsized
    // allocation inside the shared pool (lane containment).
    if mtlb_entries == 0 || mtlb_entries > MAX_MTLB_ENTRIES {
        return Err(NetError::Malformed("M-TLB capacity outside the protocol bound"));
    }
    let it = if r.bool()? {
        Some(ItConfig {
            nonunary_check: r.bool()?,
            clean_rs_do_nothing: r.bool()?,
            conflict_detection: r.bool()?,
        })
    } else {
        None
    };
    let if_geometry = if r.bool()? {
        let entries = r.u32()? as usize;
        let ways = r.u32()? as usize;
        if !entries.is_power_of_two() || entries > MAX_IF_ENTRIES {
            return Err(NetError::Malformed(
                "idempotent-filter entries outside the protocol bound",
            ));
        }
        if ways != 0 && (!ways.is_power_of_two() || ways > entries) {
            return Err(NetError::Malformed("idempotent-filter associativity is invalid"));
        }
        Some(IfGeometry { entries, ways })
    } else {
        None
    };
    let regions = r.u32()? as usize;
    if regions > MAX_PREMARK_REGIONS {
        return Err(NetError::Malformed("premark region count exceeds the protocol bound"));
    }
    // Eight bytes per region: the count must not size an allocation
    // before the bytes it promises have arrived.
    if regions * 8 > r.remaining() {
        return Err(NetError::Malformed("premark region count exceeds the payload"));
    }
    let mut premark = Vec::with_capacity(regions);
    for _ in 0..regions {
        premark.push((r.u32()?, r.u32()?));
    }
    r.finish()?;
    let mut cfg = SessionConfig::new(name, lifeguard).accel(AccelConfig {
        lma,
        mtlb_entries,
        it,
        if_geometry,
    });
    cfg.synthetic_workload = synthetic;
    cfg.premark = premark;
    Ok(cfg)
}

fn decode_u64(payload: &[u8]) -> Result<u64, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let v = r.u64()?;
    r.finish()?;
    Ok(v)
}

/// Decodes a `WELCOME` payload (initial credit).
pub(crate) fn decode_welcome(payload: &[u8]) -> Result<u64, NetError> {
    decode_u64(payload)
}

/// Decodes a `CREDIT` payload (grant bytes).
pub(crate) fn decode_credit(payload: &[u8]) -> Result<u64, NetError> {
    decode_u64(payload)
}

/// Decodes a `FIN_ACK` payload (server-side record count).
pub(crate) fn decode_fin_ack(payload: &[u8]) -> Result<u64, NetError> {
    decode_u64(payload)
}

/// Decodes a `FIN` payload.
pub(crate) fn decode_fin(payload: &[u8]) -> Result<FinStats, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let stats = FinStats {
        chunks: r.u64()?,
        records: r.u64()?,
        frame_bytes: r.u64()?,
        credit_stalls: r.u64()?,
    };
    r.finish()?;
    Ok(stats)
}

/// Decodes an `ERROR` payload (the rejection reason).
pub(crate) fn decode_error(payload: &[u8]) -> Result<String, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let len = r.u16()? as usize;
    let reason = String::from_utf8_lossy(r.take(len)?).into_owned();
    r.finish()?;
    Ok(reason)
}

// ---------------------------------------------------------------------------
// The shared nonblocking message buffer.
// ---------------------------------------------------------------------------

/// What one [`MsgBuf::fill_from`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// At least one byte arrived.
    Bytes(usize),
    /// Nothing available right now (nonblocking socket).
    WouldBlock,
    /// The peer closed its write side.
    Eof,
}

/// The nonblocking message reassembly buffer both endpoints share: bytes
/// are pulled off the socket as they arrive, complete messages are peeked
/// and consumed in order, and partial messages wait for the next fill —
/// the readiness-polling twin of `igm_trace::ingest`'s `LanePoll`
/// classification, one level down (bytes instead of batches).
#[derive(Debug, Default)]
pub(crate) struct MsgBuf {
    buf: Vec<u8>,
    start: usize,
    /// Stream position of `buf[start]` (consumed bytes), for error
    /// reporting.
    consumed: u64,
}

impl MsgBuf {
    pub fn new() -> MsgBuf {
        MsgBuf::default()
    }

    /// Stream offset of the next unconsumed byte.
    pub fn stream_pos(&self) -> u64 {
        self.consumed
    }

    /// Whether unconsumed (complete or partial) bytes are buffered.
    pub fn has_buffered(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Reads up to `max` bytes from `r` (nonblocking) into the buffer.
    pub fn fill_from(&mut self, r: &mut impl Read, max: usize) -> io::Result<Fill> {
        self.compact();
        let mut tmp = [0u8; 16 * 1024];
        let mut total = 0usize;
        while total < max {
            let want = tmp.len().min(max - total);
            match r.read(&mut tmp[..want]) {
                Ok(0) => return Ok(if total > 0 { Fill::Bytes(total) } else { Fill::Eof }),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if total > 0 { Fill::Bytes(total) } else { Fill::WouldBlock })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Fill::Bytes(total))
    }

    /// If a complete message is buffered, returns its type and payload
    /// range (pass the range to [`MsgBuf::bytes`], then its `end` to
    /// [`MsgBuf::consume`]).
    pub fn peek_message(&self) -> Result<Option<(u8, Range<usize>)>, NetError> {
        let avail = &self.buf[self.start..];
        if avail.len() < MSG_HEADER_BYTES {
            return Ok(None);
        }
        let ty = avail[0];
        let len = u32::from_le_bytes(avail[1..MSG_HEADER_BYTES].try_into().unwrap());
        if len > MAX_MESSAGE_BYTES {
            return Err(NetError::Malformed("message length exceeds the protocol bound"));
        }
        if avail.len() < MSG_HEADER_BYTES + len as usize {
            return Ok(None);
        }
        let at = self.start + MSG_HEADER_BYTES;
        Ok(Some((ty, at..at + len as usize)))
    }

    /// The bytes of a range returned by [`MsgBuf::peek_message`].
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Marks everything up to `end` (a peeked message's payload end) as
    /// consumed.
    pub fn consume(&mut self, end: usize) {
        debug_assert!(end >= self.start && end <= self.buf.len());
        self.consumed += (end - self.start) as u64;
        self.start = end;
    }

    /// Reclaims the consumed prefix. An empty buffer resets for free; a
    /// consumed prefix past [`COMPACT_THRESHOLD_BYTES`] is shifted out
    /// (one memmove), so a long-lived connection's buffer stays bounded
    /// by the partial tail plus the threshold instead of growing with
    /// total bytes received.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD_BYTES {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Consumed-prefix length past which [`MsgBuf::compact`] memmoves the
/// tail instead of waiting for an exactly-empty buffer.
const COMPACT_THRESHOLD_BYTES: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use igm_core::AccelConfig;

    #[test]
    fn hello_round_trips_every_field() {
        let mut cfg = SessionConfig::new("tenant-a", LifeguardKind::TaintCheck)
            .accel(AccelConfig::full(ItConfig::taint_style()))
            .premark(&[(0x1000, 0x40), (0x9000, 0x2000)]);
        cfg.synthetic_workload = true;
        let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        assert_eq!(hello[0], msg::HELLO);
        let len = u32::from_le_bytes(hello[1..5].try_into().unwrap()) as usize;
        assert_eq!(hello.len(), MSG_HEADER_BYTES + len);
        let decoded = decode_hello(&hello[MSG_HEADER_BYTES..]).unwrap();
        assert_eq!(decoded.name, cfg.name);
        assert_eq!(decoded.lifeguard, cfg.lifeguard);
        assert_eq!(decoded.accel, cfg.accel);
        assert_eq!(decoded.synthetic_workload, cfg.synthetic_workload);
        assert_eq!(decoded.premark, cfg.premark);
    }

    #[test]
    fn hello_accepts_only_the_current_version() {
        let cfg = SessionConfig::new("old-peer", LifeguardKind::AddrCheck);
        // Every other version — the retired v2 included — is refused.
        for bad in [0, 1, 2, NET_VERSION + 1] {
            let hello = hello_message(bad, CODEC_ID, &cfg);
            match decode_hello(&hello[MSG_HEADER_BYTES..]) {
                Err(NetError::VersionMismatch { theirs }) => assert_eq!(theirs, bad),
                other => panic!("version {bad}: expected mismatch, got {other:?}"),
            }
        }
        let reason = NetError::VersionMismatch { theirs: 2 }.to_string();
        assert!(reason.contains("protocol version 2"), "{reason}");
    }

    #[test]
    fn span_prefix_round_trips_sampled_and_unsampled() {
        let mut out = Vec::new();
        push_span_prefix(&mut out, None);
        assert_eq!(out.len(), SPAN_PREFIX_BYTES);
        assert_eq!(decode_span_prefix(&out).unwrap(), None);

        let tag = FrameTag { flow: 0xDEAD_BEEF, seq: u64::MAX - 7 };
        out.clear();
        push_span_prefix(&mut out, Some(tag));
        assert_eq!(out.len(), SPAN_PREFIX_BYTES);
        assert_eq!(decode_span_prefix(&out).unwrap(), Some(tag));

        // Hostile prefixes: bad flags, sampled bit with the null flow.
        let mut bad = out.clone();
        bad[0] = 2;
        assert!(matches!(decode_span_prefix(&bad), Err(NetError::Malformed(_))));
        let mut null_flow = out.clone();
        null_flow[4..8].fill(0);
        assert!(matches!(decode_span_prefix(&null_flow), Err(NetError::Malformed(_))));
    }

    #[test]
    fn hello_version_and_magic_are_enforced() {
        let cfg = SessionConfig::new("t", LifeguardKind::AddrCheck);
        let hello = hello_message(99, CODEC_ID, &cfg);
        match decode_hello(&hello[MSG_HEADER_BYTES..]) {
            Err(NetError::VersionMismatch { theirs: 99 }) => {}
            other => panic!("expected version mismatch, got {other:?}"),
        }
        let mut bad = hello_message(NET_VERSION, CODEC_ID, &cfg);
        bad[MSG_HEADER_BYTES] = b'X';
        assert!(matches!(decode_hello(&bad[MSG_HEADER_BYTES..]), Err(NetError::BadMagic)));
    }

    #[test]
    fn hello_rejects_an_unknown_trace_codec() {
        let cfg = SessionConfig::new("t", LifeguardKind::AddrCheck);
        // The retired delta codec (1) is as unknown as a made-up one.
        for codec in [1, 7] {
            let hello = hello_message(NET_VERSION, codec, &cfg);
            match decode_hello(&hello[MSG_HEADER_BYTES..]) {
                Err(NetError::UnsupportedCodec { theirs }) => assert_eq!(theirs, codec),
                other => panic!("codec {codec}: expected unsupported codec, got {other:?}"),
            }
        }
    }

    #[test]
    fn hello_premark_count_is_bounded_by_the_payload() {
        // A HELLO claiming the maximum region count but carrying no
        // region bytes: refused before any allocation is sized from the
        // count.
        let cfg = SessionConfig::new("t", LifeguardKind::AddrCheck);
        let mut hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        let count_at = hello.len() - 4;
        hello[count_at..].copy_from_slice(&(MAX_PREMARK_REGIONS as u32).to_le_bytes());
        match decode_hello(&hello[MSG_HEADER_BYTES..]) {
            Err(NetError::Malformed(reason)) => {
                assert_eq!(reason, "premark region count exceeds the payload")
            }
            other => panic!("expected a payload-bound refusal, got {other:?}"),
        }
    }

    #[test]
    fn control_messages_round_trip() {
        let w = welcome_message(4096);
        assert_eq!(decode_welcome(&w[MSG_HEADER_BYTES..]).unwrap(), 4096);
        let c = credit_message(777);
        assert_eq!(decode_credit(&c[MSG_HEADER_BYTES..]).unwrap(), 777);
        let stats = FinStats { chunks: 3, records: 4096, frame_bytes: 17_000, credit_stalls: 2 };
        let f = fin_message(&stats);
        assert_eq!(decode_fin(&f[MSG_HEADER_BYTES..]).unwrap(), stats);
        let a = fin_ack_message(4096);
        assert_eq!(decode_fin_ack(&a[MSG_HEADER_BYTES..]).unwrap(), 4096);
        let e = error_message("nope");
        assert_eq!(decode_error(&e[MSG_HEADER_BYTES..]).unwrap(), "nope");
    }

    #[test]
    fn msgbuf_stays_bounded_on_a_long_stream_with_partial_tails() {
        // Feed 10k messages such that a partial tail is buffered at every
        // fill (so the exact-empty reset never fires): the consumed
        // prefix must be compacted away instead of growing forever.
        let msg = credit_message(7);
        let k = 10_000usize;
        let mut stream = Vec::with_capacity(k * msg.len());
        for _ in 0..k {
            stream.extend_from_slice(&msg);
        }
        let mut buf = MsgBuf::new();
        let mut fed = 0usize;
        let mut consumed = 0usize;
        while fed < stream.len() {
            let end = (fed + msg.len() + 1).min(stream.len());
            let mut r = &stream[fed..end];
            let _ = buf.fill_from(&mut r, usize::MAX).unwrap();
            fed = end;
            while let Some((_, range)) = buf.peek_message().unwrap() {
                buf.consume(range.end);
                consumed += 1;
            }
            assert!(
                buf.buf.len() <= COMPACT_THRESHOLD_BYTES + 2 * (msg.len() + 1),
                "buffer grew past the compaction bound: {} bytes",
                buf.buf.len()
            );
        }
        assert_eq!(consumed, k);
        assert_eq!(buf.stream_pos(), stream.len() as u64);
    }

    #[test]
    fn hello_rejects_hostile_accelerator_geometry() {
        // Zero M-TLB capacity (would assert in MetadataTlb::new)…
        let mut cfg = SessionConfig::new("t", LifeguardKind::TaintCheck).accel(AccelConfig {
            lma: true,
            mtlb_entries: 0,
            it: None,
            if_geometry: None,
        });
        let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        assert!(matches!(decode_hello(&hello[MSG_HEADER_BYTES..]), Err(NetError::Malformed(_))));
        // …an absurd M-TLB capacity (would drive a huge allocation)…
        cfg.accel.mtlb_entries = u32::MAX as usize;
        let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        assert!(matches!(decode_hello(&hello[MSG_HEADER_BYTES..]), Err(NetError::Malformed(_))));
        // …and non-power-of-two / oversized-way filter geometry.
        for geo in [
            IfGeometry { entries: 0, ways: 0 },
            IfGeometry { entries: 48, ways: 0 },
            IfGeometry { entries: 32, ways: 3 },
            IfGeometry { entries: 32, ways: 64 },
        ] {
            let cfg = SessionConfig::new("t", LifeguardKind::TaintCheck).accel(AccelConfig {
                lma: true,
                mtlb_entries: 64,
                it: None,
                if_geometry: Some(geo),
            });
            let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
            assert!(
                matches!(decode_hello(&hello[MSG_HEADER_BYTES..]), Err(NetError::Malformed(_))),
                "geometry {geo:?} must be refused"
            );
        }
    }

    #[test]
    fn msgbuf_reassembles_split_messages() {
        let mut buf = MsgBuf::new();
        let msg1 = credit_message(1);
        let msg2 = credit_message(2);
        let mut bytes = msg1.clone();
        bytes.extend_from_slice(&msg2);
        // Feed in awkward splits.
        for piece in bytes.chunks(3) {
            let mut r = piece;
            let _ = buf.fill_from(&mut r, usize::MAX).unwrap();
        }
        let (ty, range) = buf.peek_message().unwrap().unwrap();
        assert_eq!(ty, msg::CREDIT);
        assert_eq!(decode_credit(buf.bytes(range.clone())).unwrap(), 1);
        buf.consume(range.end);
        let (_, range) = buf.peek_message().unwrap().unwrap();
        assert_eq!(decode_credit(buf.bytes(range.clone())).unwrap(), 2);
        buf.consume(range.end);
        assert!(buf.peek_message().unwrap().is_none());
        assert!(!buf.has_buffered());
        assert_eq!(buf.stream_pos(), bytes.len() as u64);
    }
}
