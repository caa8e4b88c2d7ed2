//! The binary wire codec.
//!
//! JSON-lines (see [`crate::protocol`]) is the daemon's compat dialect;
//! this module is the fast one. A connection opts in by sending the
//! 8-byte preamble [`WIRE_MAGIC`] as its very first bytes — the server
//! auto-detects the codec from them (anything else falls back to
//! JSON-lines, whose first byte is always `{`). After the preamble both
//! directions exchange frames:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! the same `[len][crc32][payload]` discipline (and the same IEEE CRC,
//! [`gridband_store::crc32`]) the WAL uses on disk, so a torn or
//! bit-flipped frame is detected rather than decoded. Client payloads
//! open with a version byte ([`WIRE_VERSION`]) and a message tag;
//! server payloads open with a tag. All integers are little-endian;
//! `f64` travels as its IEEE-754 bit pattern, so values round-trip
//! bit-for-bit — the loopback differential test relies on that to prove
//! the two codecs yield byte-identical decisions.
//!
//! Decoding is total: any byte sequence either yields a message or a
//! [`WireError`]; nothing panics and nothing allocates beyond the
//! declared frame length (bounded by [`MAX_FRAME`]).

use crate::metrics::{LatencySnapshot, StatsSnapshot};
use crate::protocol::{ClientMsg, RejectReason, ReqState, ServerMsg, ServiceClass, SubmitReq};
use gridband_store::crc32;

/// Connection preamble a binary client sends before its first frame.
/// Deliberately shaped like the store's `GBWAL01\n` / `GBSNAP1\n`
/// magics: human-greppable in a packet capture, and never a valid
/// JSON-lines prefix.
pub const WIRE_MAGIC: [u8; 8] = *b"GBWIR01\n";

/// Version byte opening every client payload. Servers reject other
/// versions with a `bad-version` error rather than guessing.
///
/// v2: the binary `Stats` frame layout changed (49 → 51 counters plus a
/// trailing optional GC watermark). Server frames carry no version byte,
/// so this client-side byte is the only gate that keeps a v1 peer from
/// misparsing the wider reply — mixed versions now fail the very first
/// frame with a clean version error in both directions.
///
/// v3: malleable reservations — `Submit` gained a trailing malleable
/// flag byte, the `Amend` message (tag 10) renegotiates a live malleable
/// transfer, grants may arrive as `AcceptedSegments` (server tag 11),
/// and the `Stats` frame widened again (six more counters). A v2 peer
/// would misparse all three, so it is refused at its first frame.
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on a frame payload, mirroring the WAL's record bound: a
/// hostile 4 GiB length prefix must not become a 4 GiB allocation.
pub const MAX_FRAME: usize = 1 << 26;

/// Which dialect a client speaks to the daemon. The server needs no
/// such setting — it auto-detects per connection — but clients
/// (`loadgen`, `gridband cluster --connect`, the bench) take this as
/// their `--wire {json,binary}` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Newline-framed JSON, the compat dialect.
    #[default]
    Json,
    /// Length-prefixed CRC-checked binary frames behind [`WIRE_MAGIC`].
    Binary,
}

impl std::str::FromStr for WireMode {
    type Err = String;
    fn from_str(s: &str) -> Result<WireMode, String> {
        match s {
            "json" => Ok(WireMode::Json),
            "binary" => Ok(WireMode::Binary),
            other => Err(format!(
                "unknown wire mode {other:?} (expected json|binary)"
            )),
        }
    }
}

impl std::fmt::Display for WireMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireMode::Json => "json",
            WireMode::Binary => "binary",
        })
    }
}

/// Everything that can go wrong decoding binary wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The declared payload length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload's CRC does not match its header.
    Crc {
        /// CRC the frame header promised.
        want: u32,
        /// CRC of the payload as received.
        got: u32,
    },
    /// A client payload opened with an unsupported version byte.
    BadVersion(u8),
    /// The payload opened with a tag no message maps to.
    UnknownTag(u8),
    /// The payload ended before its fields did, or carried trailing
    /// bytes, or a field held an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            WireError::Crc { want, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {want:#010x}, payload {got:#010x}"
                )
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this daemon speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Wrap a payload in the `[len][crc32][payload]` frame header.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a client message as one ready-to-send frame.
pub fn encode_client_frame(msg: &ClientMsg) -> Vec<u8> {
    frame(&encode_client_payload(msg))
}

/// Encode a server message as one ready-to-send frame.
pub fn encode_server_frame(msg: &ServerMsg) -> Vec<u8> {
    frame(&encode_server_payload(msg))
}

/// Incremental frame splitter: feed it raw socket bytes with
/// [`FrameBuf::extend`], pull complete payloads with
/// [`FrameBuf::next_frame`]. Shared by the server's reader pool,
/// `TcpShardLink`, and `loadgen`, so all three agree on framing edge
/// cases by construction.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes before `pos` are consumed frames awaiting compaction.
    pos: usize,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: shift the tail down once consumed bytes
        // dominate, keeping `extend` amortized O(n) over a connection.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Split off the next complete payload. `Ok(None)` means more bytes
    /// are needed; an error poisons the stream (framing is lost, the
    /// connection must close).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(WireError::TooLarge(len));
        }
        let want = u32::from_le_bytes(avail[4..8].try_into().unwrap());
        if avail.len() < 8 + len {
            return Ok(None);
        }
        let payload = avail[8..8 + len].to_vec();
        let got = crc32(&payload);
        if got != want {
            return Err(WireError::Crc { want, got });
        }
        self.pos += 8 + len;
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Writer {
        Writer(Vec::with_capacity(64))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.0.push(1);
                self.f64(x);
            }
            None => self.0.push(0),
        }
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.b.len() - self.pos < n {
            return Err(WireError::Malformed("payload ended mid-field"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte not 0/1")),
        }
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(WireError::Malformed("option flag not 0/1")),
        }
    }
    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Malformed("string length exceeds frame bound"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
    }
    /// Whether undecoded bytes remain — how [`get_submit`] tells a
    /// pre-class frame (fields exhausted) from a current one (class
    /// byte still to read).
    fn has_more(&self) -> bool {
        self.pos < self.b.len()
    }
    /// Every decode ends here: trailing bytes are an error, so a frame
    /// can never smuggle undecoded content past the codec.
    fn done(self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after message"))
        }
    }
}

// ---------------------------------------------------------------------
// Enums
// ---------------------------------------------------------------------

fn reason_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::Saturated => 0,
        RejectReason::DeadlineUnreachable => 1,
        RejectReason::Invalid => 2,
        RejectReason::QueueFull => 3,
        RejectReason::UnknownRoute => 4,
        RejectReason::ShuttingDown => 5,
        RejectReason::NotPrimary => 6,
        RejectReason::Drained => 7,
    }
}

fn reason_from(code: u8) -> Result<RejectReason, WireError> {
    Ok(match code {
        0 => RejectReason::Saturated,
        1 => RejectReason::DeadlineUnreachable,
        2 => RejectReason::Invalid,
        3 => RejectReason::QueueFull,
        4 => RejectReason::UnknownRoute,
        5 => RejectReason::ShuttingDown,
        6 => RejectReason::NotPrimary,
        7 => RejectReason::Drained,
        _ => return Err(WireError::Malformed("unknown reject reason")),
    })
}

fn state_code(s: ReqState) -> u8 {
    match s {
        ReqState::Pending => 0,
        ReqState::Accepted => 1,
        ReqState::Rejected => 2,
        ReqState::Cancelled => 3,
        ReqState::Unknown => 4,
    }
}

fn state_from(code: u8) -> Result<ReqState, WireError> {
    Ok(match code {
        0 => ReqState::Pending,
        1 => ReqState::Accepted,
        2 => ReqState::Rejected,
        3 => ReqState::Cancelled,
        4 => ReqState::Unknown,
        _ => return Err(WireError::Malformed("unknown request state")),
    })
}

// ---------------------------------------------------------------------
// Client messages
// ---------------------------------------------------------------------

fn put_submit(w: &mut Writer, s: &SubmitReq) {
    w.u64(s.id);
    w.u32(s.ingress);
    w.u32(s.egress);
    w.f64(s.volume);
    w.f64(s.max_rate);
    w.opt_f64(s.start);
    w.opt_f64(s.deadline);
    // The service class travels as a trailing byte. Submit fields are
    // terminal in both messages that carry them, so a decoder reads the
    // byte when present and defaults an exhausted (pre-class) payload
    // to Silver — same version tolerance as the JSON codec.
    w.u8(s.class.code());
    // The malleable flag is a second trailing byte, written only when
    // the field is set — a rigid submission therefore encodes to the
    // exact bytes a pre-malleable client produced (same tolerance
    // discipline as the class byte, one generation later).
    if let Some(m) = s.malleable {
        w.bool(m);
    }
}

fn get_submit(r: &mut Reader) -> Result<SubmitReq, WireError> {
    Ok(SubmitReq {
        id: r.u64()?,
        ingress: r.u32()?,
        egress: r.u32()?,
        volume: r.f64()?,
        max_rate: r.f64()?,
        start: r.opt_f64()?,
        deadline: r.opt_f64()?,
        class: if r.has_more() {
            ServiceClass::from_code(r.u8()?)
                .ok_or(WireError::Malformed("unknown service class code"))?
        } else {
            ServiceClass::default()
        },
        malleable: if r.has_more() { Some(r.bool()?) } else { None },
    })
}

/// Encode a client message payload (version byte + tag + fields).
pub fn encode_client_payload(msg: &ClientMsg) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    match msg {
        ClientMsg::Submit(s) => {
            w.u8(0);
            put_submit(&mut w, s);
        }
        ClientMsg::HoldOpen(s) => {
            w.u8(1);
            put_submit(&mut w, s);
        }
        ClientMsg::HoldAttach {
            txn,
            egress,
            bw,
            start,
            finish,
            at,
        } => {
            w.u8(2);
            w.u64(*txn);
            w.u32(*egress);
            w.f64(*bw);
            w.f64(*start);
            w.f64(*finish);
            w.f64(*at);
        }
        ClientMsg::HoldCommit { txn, at } => {
            w.u8(3);
            w.u64(*txn);
            w.f64(*at);
        }
        ClientMsg::HoldRelease { txn, at } => {
            w.u8(4);
            w.u64(*txn);
            w.f64(*at);
        }
        ClientMsg::Cancel { id } => {
            w.u8(5);
            w.u64(*id);
        }
        ClientMsg::Query { id } => {
            w.u8(6);
            w.u64(*id);
        }
        ClientMsg::Stats => w.u8(7),
        ClientMsg::Drain => w.u8(8),
        ClientMsg::Promote => w.u8(9),
        ClientMsg::Amend {
            id,
            volume,
            max_rate,
            deadline,
        } => {
            w.u8(10);
            w.u64(*id);
            w.f64(*volume);
            w.f64(*max_rate);
            w.opt_f64(*deadline);
        }
    }
    w.0
}

/// Decode a client payload (as split off a frame by [`FrameBuf`]).
pub fn decode_client_payload(payload: &[u8]) -> Result<ClientMsg, WireError> {
    let mut r = Reader::new(payload);
    let v = r.u8()?;
    if v != WIRE_VERSION {
        return Err(WireError::BadVersion(v));
    }
    let tag = r.u8()?;
    let msg = match tag {
        0 => ClientMsg::Submit(get_submit(&mut r)?),
        1 => ClientMsg::HoldOpen(get_submit(&mut r)?),
        2 => ClientMsg::HoldAttach {
            txn: r.u64()?,
            egress: r.u32()?,
            bw: r.f64()?,
            start: r.f64()?,
            finish: r.f64()?,
            at: r.f64()?,
        },
        3 => ClientMsg::HoldCommit {
            txn: r.u64()?,
            at: r.f64()?,
        },
        4 => ClientMsg::HoldRelease {
            txn: r.u64()?,
            at: r.f64()?,
        },
        5 => ClientMsg::Cancel { id: r.u64()? },
        6 => ClientMsg::Query { id: r.u64()? },
        7 => ClientMsg::Stats,
        8 => ClientMsg::Drain,
        9 => ClientMsg::Promote,
        10 => ClientMsg::Amend {
            id: r.u64()?,
            volume: r.f64()?,
            max_rate: r.f64()?,
            deadline: r.opt_f64()?,
        },
        t => return Err(WireError::UnknownTag(t)),
    };
    r.done()?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// Server messages
// ---------------------------------------------------------------------

fn put_latency(w: &mut Writer, l: &LatencySnapshot) {
    w.u64(l.count);
    w.f64(l.mean_ms);
    w.f64(l.p50_ms);
    w.f64(l.p95_ms);
    w.f64(l.p99_ms);
}

fn get_latency(r: &mut Reader) -> Result<LatencySnapshot, WireError> {
    Ok(LatencySnapshot {
        count: r.u64()?,
        mean_ms: r.f64()?,
        p50_ms: r.f64()?,
        p95_ms: r.f64()?,
        p99_ms: r.f64()?,
    })
}

/// Header, counter block, trailer: the block is [`StatsSnapshot::counters`]
/// in order, so the table in `metrics.rs` is the frame layout.
fn put_stats(w: &mut Writer, s: &StatsSnapshot) {
    w.string(&s.role);
    w.u64(s.uptime_s);
    w.u32(s.protocol_version);
    for v in s.counters() {
        w.u64(v);
    }
    w.f64(s.virtual_time);
    w.opt_f64(s.gc_watermark);
    put_latency(w, &s.decision_latency);
    put_latency(w, &s.fsync);
}

fn get_stats(r: &mut Reader) -> Result<StatsSnapshot, WireError> {
    let role = r.string()?;
    let uptime_s = r.u64()?;
    let protocol_version = r.u32()?;
    let mut c = [0u64; StatsSnapshot::N];
    for v in c.iter_mut() {
        *v = r.u64()?;
    }
    Ok(StatsSnapshot {
        role,
        uptime_s,
        protocol_version,
        virtual_time: r.f64()?,
        gc_watermark: r.opt_f64()?,
        decision_latency: get_latency(r)?,
        fsync: get_latency(r)?,
        ..StatsSnapshot::from_counters(c)
    })
}

/// Encode a server message payload (tag + fields; no version byte — the
/// client learns the server's dialect from its own preamble).
pub fn encode_server_payload(msg: &ServerMsg) -> Vec<u8> {
    let mut w = Writer::new();
    match msg {
        ServerMsg::Accepted {
            id,
            bw,
            start,
            finish,
        } => {
            w.u8(0);
            w.u64(*id);
            w.f64(*bw);
            w.f64(*start);
            w.f64(*finish);
        }
        ServerMsg::Rejected {
            id,
            reason,
            retry_after,
        } => {
            w.u8(1);
            w.u64(*id);
            w.u8(reason_code(*reason));
            w.opt_f64(*retry_after);
        }
        ServerMsg::CancelResult { id, freed } => {
            w.u8(2);
            w.u64(*id);
            w.bool(*freed);
        }
        ServerMsg::Status { id, state, alloc } => {
            w.u8(3);
            w.u64(*id);
            w.u8(state_code(*state));
            match alloc {
                Some((bw, start, finish)) => {
                    w.u8(1);
                    w.f64(*bw);
                    w.f64(*start);
                    w.f64(*finish);
                }
                None => w.u8(0),
            }
        }
        ServerMsg::HoldOpened {
            txn,
            bw,
            start,
            finish,
            expires,
        } => {
            w.u8(4);
            w.u64(*txn);
            w.f64(*bw);
            w.f64(*start);
            w.f64(*finish);
            w.f64(*expires);
        }
        ServerMsg::HoldDenied { txn, reason } => {
            w.u8(5);
            w.u64(*txn);
            w.u8(reason_code(*reason));
        }
        ServerMsg::HoldAck { txn, ok } => {
            w.u8(6);
            w.u64(*txn);
            w.bool(*ok);
        }
        ServerMsg::Stats(s) => {
            w.u8(7);
            put_stats(&mut w, s);
        }
        ServerMsg::Draining { pending } => {
            w.u8(8);
            w.u64(*pending);
        }
        ServerMsg::Promoted { rounds } => {
            w.u8(9);
            w.u64(*rounds);
        }
        ServerMsg::Error { code, message } => {
            w.u8(10);
            w.string(code);
            w.string(message);
        }
        ServerMsg::AcceptedSegments { id, segments } => {
            w.u8(11);
            w.u64(*id);
            w.u32(segments.len() as u32);
            for (start, end, bw) in segments {
                w.f64(*start);
                w.f64(*end);
                w.f64(*bw);
            }
        }
    }
    w.0
}

/// Decode a server payload (as split off a frame by [`FrameBuf`]).
pub fn decode_server_payload(payload: &[u8]) -> Result<ServerMsg, WireError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let msg = match tag {
        0 => ServerMsg::Accepted {
            id: r.u64()?,
            bw: r.f64()?,
            start: r.f64()?,
            finish: r.f64()?,
        },
        1 => ServerMsg::Rejected {
            id: r.u64()?,
            reason: reason_from(r.u8()?)?,
            retry_after: r.opt_f64()?,
        },
        2 => ServerMsg::CancelResult {
            id: r.u64()?,
            freed: r.bool()?,
        },
        3 => ServerMsg::Status {
            id: r.u64()?,
            state: state_from(r.u8()?)?,
            alloc: match r.u8()? {
                0 => None,
                1 => Some((r.f64()?, r.f64()?, r.f64()?)),
                _ => return Err(WireError::Malformed("option flag not 0/1")),
            },
        },
        4 => ServerMsg::HoldOpened {
            txn: r.u64()?,
            bw: r.f64()?,
            start: r.f64()?,
            finish: r.f64()?,
            expires: r.f64()?,
        },
        5 => ServerMsg::HoldDenied {
            txn: r.u64()?,
            reason: reason_from(r.u8()?)?,
        },
        6 => ServerMsg::HoldAck {
            txn: r.u64()?,
            ok: r.bool()?,
        },
        7 => ServerMsg::Stats(get_stats(&mut r)?),
        8 => ServerMsg::Draining { pending: r.u64()? },
        9 => ServerMsg::Promoted { rounds: r.u64()? },
        10 => ServerMsg::Error {
            code: r.string()?,
            message: r.string()?,
        },
        11 => {
            let id = r.u64()?;
            let n = r.u32()? as usize;
            // 24 bytes per segment: a hostile count cannot outrun the
            // frame bound, but check before reserving anyway.
            if n > MAX_FRAME / 24 {
                return Err(WireError::Malformed("segment count exceeds frame bound"));
            }
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push((r.f64()?, r.f64()?, r.f64()?));
            }
            ServerMsg::AcceptedSegments { id, segments }
        }
        t => return Err(WireError::UnknownTag(t)),
    };
    r.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_frames_round_trip() {
        let msgs = vec![
            ClientMsg::Submit(SubmitReq {
                id: 7,
                ingress: 1,
                egress: 2,
                volume: 500.0,
                max_rate: 100.0,
                start: Some(0.25),
                deadline: None,
                class: Default::default(),
                malleable: None,
            }),
            ClientMsg::Submit(SubmitReq {
                id: 17,
                ingress: 1,
                egress: 2,
                volume: 500.0,
                max_rate: 100.0,
                start: None,
                deadline: Some(80.0),
                class: Default::default(),
                malleable: Some(true),
            }),
            ClientMsg::Submit(SubmitReq {
                id: 18,
                ingress: 1,
                egress: 2,
                volume: 500.0,
                max_rate: 100.0,
                start: None,
                deadline: None,
                class: Default::default(),
                malleable: Some(false),
            }),
            ClientMsg::HoldOpen(SubmitReq {
                id: 8,
                ingress: 0,
                egress: 3,
                volume: 1.5,
                max_rate: 2.5,
                start: None,
                deadline: Some(9.75),
                class: Default::default(),
                malleable: None,
            }),
            ClientMsg::Amend {
                id: 17,
                volume: 250.0,
                max_rate: 60.0,
                deadline: Some(120.0),
            },
            ClientMsg::Amend {
                id: 17,
                volume: 250.0,
                max_rate: 60.0,
                deadline: None,
            },
            ClientMsg::HoldAttach {
                txn: 9,
                egress: 4,
                bw: 10.0,
                start: 1.0,
                finish: 2.0,
                at: 0.5,
            },
            ClientMsg::HoldCommit { txn: 9, at: 1.5 },
            ClientMsg::HoldRelease { txn: 9, at: 1.75 },
            ClientMsg::Cancel { id: 7 },
            ClientMsg::Query { id: 7 },
            ClientMsg::Stats,
            ClientMsg::Drain,
            ClientMsg::Promote,
        ];
        let mut fb = FrameBuf::new();
        for msg in &msgs {
            fb.extend(&encode_client_frame(msg));
        }
        for msg in &msgs {
            let payload = fb.next_frame().unwrap().expect("complete frame");
            assert_eq!(&decode_client_payload(&payload).unwrap(), msg);
        }
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = encode_client_frame(&ClientMsg::Stats);
        let mut fb = FrameBuf::new();
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                fb.extend(std::slice::from_ref(b));
                assert_eq!(fb.next_frame().unwrap(), None, "byte {i}");
            }
        }
        fb.extend(std::slice::from_ref(bytes.last().unwrap()));
        let payload = fb.next_frame().unwrap().expect("complete at last byte");
        assert_eq!(decode_client_payload(&payload).unwrap(), ClientMsg::Stats);
    }

    #[test]
    fn corrupt_crc_is_detected() {
        let mut bytes = encode_client_frame(&ClientMsg::Drain);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        assert!(matches!(fb.next_frame(), Err(WireError::Crc { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut fb = FrameBuf::new();
        let mut header = Vec::new();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        fb.extend(&header);
        assert!(matches!(fb.next_frame(), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn version_and_tag_errors_are_reported() {
        let mut payload = encode_client_payload(&ClientMsg::Stats);
        payload[0] = 9;
        assert_eq!(
            decode_client_payload(&payload),
            Err(WireError::BadVersion(9))
        );
        let payload = vec![WIRE_VERSION, 200];
        assert_eq!(
            decode_client_payload(&payload),
            Err(WireError::UnknownTag(200))
        );
        assert_eq!(
            decode_server_payload(&[255]),
            Err(WireError::UnknownTag(255))
        );
    }

    #[test]
    fn v1_client_payload_is_refused_after_stats_widening() {
        // The v1 binary stats frame was narrower (49 counters, no
        // watermark); a v1 peer must be turned away at its first frame,
        // not left to misparse the wider reply.
        let mut payload = encode_client_payload(&ClientMsg::Stats);
        payload[0] = 1;
        assert_eq!(
            decode_client_payload(&payload),
            Err(WireError::BadVersion(1))
        );
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = encode_client_payload(&ClientMsg::Cancel { id: 3 });
        payload.push(0);
        assert!(matches!(
            decode_client_payload(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn nan_and_infinity_survive_the_bit_pattern_encoding() {
        let msg = ServerMsg::Accepted {
            id: 1,
            bw: f64::INFINITY,
            start: -0.0,
            finish: 1e-308,
        };
        let back = decode_server_payload(&encode_server_payload(&msg)).unwrap();
        match back {
            ServerMsg::Accepted {
                bw, start, finish, ..
            } => {
                assert_eq!(bw, f64::INFINITY);
                assert_eq!(start.to_bits(), (-0.0f64).to_bits());
                assert_eq!(finish, 1e-308);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn pre_class_submit_payload_decodes_as_silver() {
        // A frame from a client built before service classes existed:
        // same fields, no trailing class byte.
        let msg = ClientMsg::Submit(SubmitReq {
            id: 7,
            ingress: 1,
            egress: 2,
            volume: 500.0,
            max_rate: 100.0,
            start: Some(0.25),
            deadline: None,
            class: ServiceClass::Gold,
            malleable: None,
        });
        let mut payload = encode_client_payload(&msg);
        let trimmed = payload.len() - 1;
        payload.truncate(trimmed);
        match decode_client_payload(&payload).unwrap() {
            ClientMsg::Submit(s) => {
                assert_eq!(s.class, ServiceClass::Silver);
                assert_eq!(s.malleable, None);
                assert_eq!(s.id, 7);
                assert_eq!(s.volume, 500.0);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn rigid_submit_encodes_to_pre_malleable_bytes() {
        // `malleable: None` must not widen the frame: byte-for-byte the
        // payload a pre-malleable client produced (modulo the version
        // byte), which the rigid-only differential tests rely on.
        let rigid = SubmitReq {
            id: 7,
            ingress: 1,
            egress: 2,
            volume: 500.0,
            max_rate: 100.0,
            start: Some(0.25),
            deadline: None,
            class: ServiceClass::Gold,
            malleable: None,
        };
        let p = encode_client_payload(&ClientMsg::Submit(rigid.clone()));
        assert_eq!(*p.last().unwrap(), ServiceClass::Gold.code());
        let flagged = SubmitReq {
            malleable: Some(false),
            ..rigid
        };
        let q = encode_client_payload(&ClientMsg::Submit(flagged));
        assert_eq!(q.len(), p.len() + 1, "explicit flag adds exactly one byte");
        assert_eq!(&q[..p.len()], &p[..]);
    }

    #[test]
    fn accepted_segments_round_trips() {
        let msg = ServerMsg::AcceptedSegments {
            id: 42,
            segments: vec![
                (0.25, 10.0, 33.5),
                (10.0, 20.0, 0.1 + 0.2), // non-representable sum
                (25.0, 27.5, 100.0),
            ],
        };
        let back = decode_server_payload(&encode_server_payload(&msg)).unwrap();
        assert_eq!(back, msg);
        // Empty plans are representable (never emitted, still total).
        let empty = ServerMsg::AcceptedSegments {
            id: 1,
            segments: vec![],
        };
        let back = decode_server_payload(&encode_server_payload(&empty)).unwrap();
        assert_eq!(back, empty);
        // A hostile segment count is malformed, not a huge allocation.
        let mut w = Vec::new();
        w.push(11u8);
        w.extend_from_slice(&42u64.to_le_bytes());
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_server_payload(&w),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn handshake_grid_older_binary_clients_are_refused_cleanly() {
        // v1/v2/v3 clients × v3 server: the version byte is checked
        // before any field is parsed, so older frames (whose Submit
        // layout was narrower and whose Stats expectation was narrower
        // still) die with BadVersion, never a misparse.
        for v in [1u8, 2] {
            let mut payload = encode_client_payload(&ClientMsg::Stats);
            payload[0] = v;
            assert_eq!(
                decode_client_payload(&payload),
                Err(WireError::BadVersion(v))
            );
        }
        let payload = encode_client_payload(&ClientMsg::Stats);
        assert_eq!(payload[0], WIRE_VERSION);
        assert_eq!(decode_client_payload(&payload).unwrap(), ClientMsg::Stats);
    }

    #[test]
    fn unknown_class_code_is_malformed() {
        let msg = ClientMsg::HoldOpen(SubmitReq {
            id: 9,
            ingress: 0,
            egress: 0,
            volume: 1.0,
            max_rate: 1.0,
            start: None,
            deadline: None,
            class: ServiceClass::BestEffort,
            malleable: None,
        });
        let mut payload = encode_client_payload(&msg);
        *payload.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_client_payload(&payload),
            Err(WireError::Malformed("unknown service class code"))
        ));
    }

    #[test]
    fn magic_is_never_a_json_prefix() {
        assert_ne!(WIRE_MAGIC[0], b'{');
        assert_eq!(&WIRE_MAGIC, b"GBWIR01\n");
    }
}
