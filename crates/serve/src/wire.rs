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
//! open with a version byte ([`WIRE_VERSION`]); server payloads do not.
//! The rest is one message laid out by `#[derive(Wire)]` from its type
//! (see [`Wire`]): the tag byte is the variant's index in the enum's
//! declaration, the fields follow in declaration order, and a field
//! marked `#[wire(trailing)]` may be missing from an older frame. All
//! integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern, so values round-trip bit-for-bit — the loopback differential
//! test relies on that to prove the two codecs yield byte-identical
//! decisions.
//!
//! Decoding is total: any byte sequence either yields a message or a
//! [`WireError`]; nothing panics and nothing allocates beyond the
//! declared frame length (bounded by [`MAX_FRAME`]), since a count is
//! checked against the bytes left before anything is reserved.

use crate::metrics::StatsSnapshot;
#[cfg(test)]
use crate::protocol::SubmitReq;
use crate::protocol::{ClientMsg, ServerMsg, ServiceClass};
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
// The encoding
// ---------------------------------------------------------------------

pub use serde::Wire;

/// A value with a binary wire encoding: [`Wire::put`] appends its bytes,
/// [`Wire::get`] reads them back. `#[derive(Wire)]` writes both for a
/// struct or an enum from its declaration, so a message's field list is
/// written once, in its type:
///
/// * fields go in declaration order, each through its own impl;
/// * an enum writes its variant index as one tag byte, then that
///   variant's fields, and an unknown tag reads as
///   [`WireError::UnknownTag`];
/// * `#[wire(trailing)]` marks a field an older frame may omit. Trailing
///   fields must come last. They are read only while the payload has
///   bytes left, so the type holding them must itself close the
///   payload. A trailing `Option` is written only when `Some`, with no
///   flag byte; any other trailing field is always written and reads as
///   its `Default` when absent.
///
/// ```
/// use gridband_serve::wire::{decode, encode, Wire};
///
/// #[derive(Debug, PartialEq, Wire)]
/// enum Msg {
///     Ping,
///     Grant { id: u64, bw: f64, #[wire(trailing)] note: Option<String> },
/// }
///
/// let msg = Msg::Grant { id: 7, bw: 2.5, note: None };
/// let bytes = encode(&msg);
/// assert_eq!(bytes.len(), 1 + 8 + 8);
/// assert_eq!(decode::<Msg>(&bytes), Ok(msg));
/// assert_eq!(encode(&Msg::Ping), [0]);
/// ```
///
/// The derive refuses a trailing field that is not last:
///
/// ```compile_fail
/// use gridband_serve::wire::Wire;
///
/// #[derive(Wire)]
/// struct Late {
///     #[wire(trailing)]
///     class: u8,
///     id: u64,
/// }
/// ```
///
/// and any other `#[wire(...)]` key:
///
/// ```compile_fail
/// use gridband_serve::wire::Wire;
///
/// #[derive(Wire)]
/// struct Tagged {
///     #[wire(tag = 3)]
///     id: u64,
/// }
/// ```
///
/// The impls below cover the field types the messages use. Two message
/// types are written by hand: [`ServiceClass`], whose codes live beside
/// it in `gridband-workload`, and [`StatsSnapshot`], whose counter block
/// comes from the `stats_block!` table in `metrics.rs`.
pub trait Wire: Sized {
    /// Append this value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// [`Wire::put`] for a `#[wire(trailing)]` field.
    fn put_trailing(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// [`Wire::get`] for a `#[wire(trailing)]` field: `Default` once the
    /// payload is exhausted.
    fn get_trailing(r: &mut Reader<'_>) -> Result<Self, WireError>
    where
        Self: Default,
    {
        if r.has_more() {
            Self::get(r)
        } else {
            Ok(Self::default())
        }
    }
}

/// A cursor over one payload. Every read checks the bytes left first.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(rest: &'a [u8]) -> Reader<'a> {
        Reader { rest }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Malformed("payload ended mid-field"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether undecoded bytes remain — how a trailing field tells an
    /// older frame (fields exhausted) from a current one.
    pub fn has_more(&self) -> bool {
        self.remaining() > 0
    }

    /// Every decode ends here: trailing bytes are an error, so a frame
    /// can never smuggle undecoded content past the codec.
    fn done(self) -> Result<(), WireError> {
        if self.has_more() {
            Err(WireError::Malformed("trailing bytes after message"))
        } else {
            Ok(())
        }
    }
}

/// `value`'s bytes.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

/// Read exactly one `T` from `payload`; leftover bytes are an error.
pub fn decode<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(payload);
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

/// Sent as its IEEE-754 bit pattern, so every value round-trips exactly.
impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte not 0/1")),
        }
    }
}

/// A `u32` byte count, then UTF-8 bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::get(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
    }
}

/// A 0/1 flag byte, then the value when present. As a trailing field:
/// the value alone when present, nothing when absent.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError::Malformed("option flag not 0/1")),
        }
    }
    fn put_trailing(&self, out: &mut Vec<u8>) {
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get_trailing(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.has_more() {
            Ok(Some(T::get(r)?))
        } else {
            Ok(None)
        }
    }
}

/// A `u32` item count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        // Every item takes at least one byte, so a count above the bytes
        // left is malformed; and the reservation is no larger than those
        // bytes, so a hostile count cannot outgrow the payload.
        if n > r.remaining() {
            return Err(WireError::Malformed("item count exceeds the payload"));
        }
        let mut items = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// One byte, [`ServiceClass::code`].
impl Wire for ServiceClass {
    fn put(&self, out: &mut Vec<u8>) {
        self.code().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        ServiceClass::from_code(u8::get(r)?)
            .ok_or(WireError::Malformed("unknown service class code"))
    }
}

/// Header, counter block, trailer: the block is [`StatsSnapshot::N`]
/// `u64`s in the order of the table in `metrics.rs`, so that table is
/// the frame layout.
impl Wire for StatsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        self.role.put(out);
        self.uptime_s.put(out);
        self.protocol_version.put(out);
        for v in self.counters() {
            v.put(out);
        }
        self.virtual_time.put(out);
        self.gc_watermark.put(out);
        self.decision_latency.put(out);
        self.fsync.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (role, uptime_s, protocol_version) = (String::get(r)?, u64::get(r)?, u32::get(r)?);
        let mut c = [0u64; StatsSnapshot::N];
        for v in c.iter_mut() {
            *v = u64::get(r)?;
        }
        Ok(StatsSnapshot {
            role,
            uptime_s,
            protocol_version,
            virtual_time: Wire::get(r)?,
            gc_watermark: Wire::get(r)?,
            decision_latency: Wire::get(r)?,
            fsync: Wire::get(r)?,
            ..StatsSnapshot::from_counters(c)
        })
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Encode a client message payload (version byte + tag + fields).
pub fn encode_client_payload(msg: &ClientMsg) -> Vec<u8> {
    let mut out = encode(&WIRE_VERSION);
    msg.put(&mut out);
    out
}

/// Decode a client payload (as split off a frame by [`FrameBuf`]).
pub fn decode_client_payload(payload: &[u8]) -> Result<ClientMsg, WireError> {
    match payload.first() {
        Some(&WIRE_VERSION) => decode(&payload[1..]),
        Some(&v) => Err(WireError::BadVersion(v)),
        None => Err(WireError::Malformed("payload ended mid-field")),
    }
}

/// Encode a server message payload (tag + fields; no version byte — the
/// client learns the server's dialect from its own preamble).
pub fn encode_server_payload(msg: &ServerMsg) -> Vec<u8> {
    encode(msg)
}

/// Decode a server payload (as split off a frame by [`FrameBuf`]).
pub fn decode_server_payload(payload: &[u8]) -> Result<ServerMsg, WireError> {
    decode(payload)
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
