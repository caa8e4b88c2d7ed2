//! Versioned JSON-lines wire protocol of the reservation daemon.
//!
//! Every message is one JSON document on one line, newline-terminated.
//! Client → server messages are wrapped in a [`WireRequest`] envelope that
//! carries the protocol version; server → client messages are bare
//! [`ServerMsg`] values. Unknown versions and malformed lines produce a
//! [`ServerMsg::Error`] reply instead of dropping the connection, so a
//! client can tell a protocol mistake from a network failure.

use serde::{Deserialize, Serialize};

pub use gridband_workload::ServiceClass;

use crate::metrics::StatsSnapshot;
use crate::wire::Wire;

/// Protocol version spoken by this build. Bump on any wire-incompatible
/// change to [`ClientMsg`] or [`ServerMsg`].
///
/// v2: the `Stats` reply gained required GC fields (`gc_truncated_bps`,
/// `breakpoints_live`, `gc_watermark`), which a v1 client cannot parse —
/// the handshake now refuses the pairing instead of failing mid-reply.
///
/// v3: malleable (variable-rate) reservations — `Submit` gained the
/// `malleable` flag, the `Amend` op renegotiates a live malleable
/// transfer, grants may arrive as `AcceptedSegments`, and the `Stats`
/// reply gained required malleable counters. A v2 client could neither
/// parse segmented grants nor the extended stats, so the pairing is
/// refused at the handshake.
pub const PROTOCOL_VERSION: u32 = 3;

/// Client → server envelope: version plus payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Protocol version the client speaks; must equal [`PROTOCOL_VERSION`].
    pub v: u32,
    /// The request itself.
    pub body: ClientMsg,
}

impl WireRequest {
    /// Wrap a message in the current-version envelope.
    pub fn new(body: ClientMsg) -> Self {
        WireRequest {
            v: PROTOCOL_VERSION,
            body,
        }
    }
}

/// A transfer submission: the request model of §2.1 as wire data.
///
/// `start`/`deadline` are in the daemon's virtual clock (seconds). A
/// missing `start` means "now"; a missing `deadline` means `start +
/// slack × volume / max_rate` with the server's default slack.
///
/// In the binary codec `class` and `malleable` are trailing fields, so a
/// frame from a pre-class or pre-malleable client still decodes; a
/// `SubmitReq` therefore always closes its payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub struct SubmitReq {
    /// Client-chosen request id, unique per daemon lifetime.
    pub id: u64,
    /// Ingress port index of the route.
    pub ingress: u32,
    /// Egress port index of the route.
    pub egress: u32,
    /// Transfer volume in MB.
    pub volume: f64,
    /// Host-side rate cap `MaxRate` in MB/s.
    pub max_rate: f64,
    /// Requested start `t_s` (virtual seconds); `None` = now.
    pub start: Option<f64>,
    /// Latest finish `t_f` (virtual seconds); `None` = server default.
    pub deadline: Option<f64>,
    /// Service class for the QoS redistribution overlay. Decoders
    /// default an absent field to [`ServiceClass::Silver`], so
    /// pre-class clients keep working; admission itself is class-blind.
    #[wire(trailing)]
    pub class: ServiceClass,
    /// `Some(true)` requests a *malleable* reservation: the rate may
    /// vary inside the window (never above `max_rate`) as long as the
    /// volume is delivered, and the grant arrives as
    /// [`ServerMsg::AcceptedSegments`]. Absent or `Some(false)` ⇒ rigid
    /// constant-rate admission, so pre-malleable clients keep working.
    #[wire(trailing)]
    pub malleable: Option<bool>,
}

impl SubmitReq {
    /// Whether this submission asked for a malleable reservation.
    pub fn is_malleable(&self) -> bool {
        self.malleable == Some(true)
    }
}

/// Client → server request payloads.
///
/// Declaration order is the binary codec's tag order (see
/// [`crate::wire`]), so a new variant goes at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub enum ClientMsg {
    /// Submit a transfer for batched admission.
    Submit(SubmitReq),
    /// Open the ingress half of a §5.4 two-phase cross-shard admission:
    /// compute the earliest candidate window on the local ingress port
    /// and pin it with a capacity hold. The `id` is the cluster-wide
    /// transaction id. Answered immediately (not round-batched) with
    /// `HoldOpened` or `HoldDenied`.
    HoldOpen(SubmitReq),
    /// Pin an already-computed window on the local egress port — the
    /// remote half of a transaction opened on another shard. Answered
    /// with `HoldAck { ok: true }` or `HoldDenied`.
    HoldAttach {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Egress port index the hold charges.
        egress: u32,
        /// Held constant bandwidth (MB/s).
        bw: f64,
        /// Start of the held window (virtual seconds).
        start: f64,
        /// End of the held window (virtual seconds).
        finish: f64,
        /// Sender's virtual clock, so the receiving shard's clock (and
        /// its hold-expiry sweep) advances even on pure cross-shard
        /// traffic.
        at: f64,
    },
    /// Commit the hold for `txn`: it stays charged for its full window
    /// and is no longer subject to expiry. Answered with `HoldAck`.
    HoldCommit {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Sender's virtual clock (same role as in `HoldAttach`).
        at: f64,
    },
    /// Release the hold for `txn` (abort). Answered with `HoldAck`;
    /// releasing an unknown transaction acks `ok: false` (the expiry
    /// sweep may have beaten the abort — that is not an error).
    HoldRelease {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Sender's virtual clock (same role as in `HoldAttach`).
        at: f64,
    },
    /// Cancel a previously accepted transfer, freeing its reservation.
    Cancel {
        /// Id used at submission.
        id: u64,
    },
    /// Ask for the current state of a request.
    Query {
        /// Id used at submission.
        id: u64,
    },
    /// Fetch the daemon's metrics snapshot.
    Stats,
    /// Stop admitting, decide everything still pending, report the count.
    Drain,
    /// Ask a follower to finish recovery and take over as primary.
    /// Primaries and solo daemons answer with an `Error` reply; a
    /// repeated promote of an already-promoted follower is idempotent.
    Promote,
    /// Renegotiate a live *malleable* transfer mid-flight: Cancel +
    /// resubmit collapsed into one atomic round action. Segments already
    /// delivered (before the deciding round's time) are kept; the
    /// remainder of the plan is re-water-filled to deliver `volume` more
    /// MB under the new `max_rate`/`deadline`. The request keeps its id,
    /// and capacity is never released unless the new plan is granted —
    /// a rejected amend leaves the original reservation untouched.
    /// Answered in a round with `AcceptedSegments` (the full new plan)
    /// or `Rejected`.
    Amend {
        /// Id used at submission (must be a live malleable transfer).
        id: u64,
        /// Volume still to deliver from the deciding round onward (MB).
        volume: f64,
        /// New host-side rate cap `MaxRate` in MB/s.
        max_rate: f64,
        /// New latest finish (virtual seconds); `None` = server default
        /// slack from the deciding round's time.
        deadline: Option<f64>,
    },
}

/// Why a submission was refused. Declaration order is the binary code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub enum RejectReason {
    /// The admission round could not fit the request (port saturated).
    Saturated,
    /// No rate ≤ `MaxRate` can meet the deadline any more.
    DeadlineUnreachable,
    /// The submission failed validation (field values or duplicate id).
    Invalid,
    /// The engine's submission queue is full — back off and retry.
    QueueFull,
    /// The route references a port outside the topology.
    UnknownRoute,
    /// Kept for wire compatibility: older daemons reported this while
    /// draining. Current engines reply [`RejectReason::Drained`].
    ShuttingDown,
    /// This daemon is a follower: it serves reads only until promoted.
    NotPrimary,
    /// The daemon has been drained: every pending request is decided and
    /// no new work is admitted until the daemon is restarted over its
    /// WAL directory (see README § Durability).
    Drained,
}

/// Lifecycle state reported by `Query`. Declaration order is the binary
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Wire)]
pub enum ReqState {
    /// Waiting for the next admission round.
    Pending,
    /// Admitted; the reservation is (or was) live.
    Accepted,
    /// Refused.
    Rejected,
    /// Cancelled by the client after acceptance.
    Cancelled,
    /// The daemon has no record of this id.
    Unknown,
}

/// Server → client messages. Declaration order is the binary codec's
/// tag order (see [`crate::wire`]), so a new variant goes at the end.
///
/// `Stats` dominates the enum's size, but these values are transient —
/// decoded, inspected, dropped — never stored in bulk, so indirection
/// would buy nothing (and the vendored serde shim has no `Box` impls).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Wire)]
pub enum ServerMsg {
    /// The submission was admitted with this allocation.
    Accepted {
        /// Id used at submission.
        id: u64,
        /// Granted constant bandwidth in MB/s.
        bw: f64,
        /// Assigned start `σ` (virtual seconds).
        start: f64,
        /// Assigned finish `τ` (virtual seconds).
        finish: f64,
    },
    /// The submission was refused.
    Rejected {
        /// Id used at submission.
        id: u64,
        /// Why.
        reason: RejectReason,
        /// Earliest virtual time at which resubmitting could help
        /// (backpressure hint); `None` when retrying cannot succeed.
        retry_after: Option<f64>,
    },
    /// Reply to `Cancel`.
    CancelResult {
        /// Id used at submission.
        id: u64,
        /// Whether this cancel took effect: it freed a live reservation
        /// or voided a still-pending submission. `false` for unknown
        /// ids, already-decided requests, and repeated cancels.
        freed: bool,
    },
    /// Reply to `Query`.
    Status {
        /// Id used at submission.
        id: u64,
        /// Current lifecycle state.
        state: ReqState,
        /// The live allocation `(bw, σ, τ)` for accepted requests whose
        /// reservation has not yet expired; `None` otherwise. Decoders
        /// treat a missing or `null` field as `None`, so pre-alloc
        /// `Status` lines still parse.
        alloc: Option<(f64, f64, f64)>,
    },
    /// Reply to `HoldOpen`: the candidate window was computed and its
    /// ingress half is pinned.
    HoldOpened {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Candidate constant bandwidth (MB/s).
        bw: f64,
        /// Candidate start σ (virtual seconds).
        start: f64,
        /// Candidate finish τ (virtual seconds).
        finish: f64,
        /// Virtual deadline after which the uncommitted hold is swept.
        expires: f64,
    },
    /// Reply to `HoldOpen`/`HoldAttach`: the hold could not be placed.
    HoldDenied {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Why.
        reason: RejectReason,
    },
    /// Reply to `HoldAttach`/`HoldCommit`/`HoldRelease`.
    HoldAck {
        /// Cluster-wide transaction id.
        txn: u64,
        /// Whether the operation took effect.
        ok: bool,
    },
    /// Reply to `Stats`.
    Stats(StatsSnapshot),
    /// Reply to `Drain`: pending submissions decided by the final round.
    Draining {
        /// Number of requests that were still pending.
        pending: u64,
    },
    /// Reply to `Promote`: the follower finished recovery and now
    /// accepts submissions.
    Promoted {
        /// Admission rounds the promoted engine resumed at.
        rounds: u64,
    },
    /// Protocol-level failure (parse error, bad version, oversized line).
    Error {
        /// Machine-readable code ("bad-version", "parse", "line-too-long").
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// A malleable submission (or amend) was granted this stepwise plan.
    AcceptedSegments {
        /// Id used at submission.
        id: u64,
        /// The granted plan as `(start, end, bw)` triples, time-ordered
        /// and disjoint; the rate never exceeds the requested `max_rate`.
        segments: Vec<(f64, f64, f64)>,
    },
}

/// Serialize a server message as one wire line (no trailing newline).
pub fn encode_server(msg: &ServerMsg) -> String {
    serde_json::to_string(msg).expect("ServerMsg serialization is infallible")
}

/// Serialize a client request as one wire line (no trailing newline).
pub fn encode_client(msg: &ClientMsg) -> String {
    serde_json::to_string(&WireRequest::new(msg.clone()))
        .expect("WireRequest serialization is infallible")
}

/// Parse and version-check one client line.
///
/// The `Err` payload is the ready-to-send `ServerMsg::Error` reply; boxing
/// it would push the unboxing onto every caller for no real win.
#[allow(clippy::result_large_err)]
pub fn decode_client(line: &str) -> Result<ClientMsg, ServerMsg> {
    let wire: WireRequest = serde_json::from_str(line).map_err(|e| ServerMsg::Error {
        code: "parse".to_string(),
        message: format!("malformed request: {e}"),
    })?;
    if wire.v != PROTOCOL_VERSION {
        return Err(ServerMsg::Error {
            code: "bad-version".to_string(),
            message: format!(
                "protocol version {} not supported (server speaks {PROTOCOL_VERSION})",
                wire.v
            ),
        });
    }
    Ok(wire.body)
}

/// Parse one server line (client side).
pub fn decode_server(line: &str) -> Result<ServerMsg, serde_json::Error> {
    serde_json::from_str(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let msg = ClientMsg::Submit(SubmitReq {
            id: 7,
            ingress: 1,
            egress: 2,
            volume: 1000.0,
            max_rate: 50.0,
            start: Some(12.5),
            deadline: None,
            class: Default::default(),
            malleable: None,
        });
        let line = encode_client(&msg);
        assert_eq!(decode_client(&line).unwrap(), msg);
    }

    #[test]
    fn malleable_submit_and_amend_round_trip() {
        let msgs = vec![
            ClientMsg::Submit(SubmitReq {
                id: 7,
                ingress: 1,
                egress: 2,
                volume: 1000.0,
                max_rate: 50.0,
                start: None,
                deadline: Some(99.5),
                class: Default::default(),
                malleable: Some(true),
            }),
            ClientMsg::Amend {
                id: 7,
                volume: 400.0,
                max_rate: 80.0,
                deadline: Some(120.0),
            },
            ClientMsg::Amend {
                id: 7,
                volume: 400.0,
                max_rate: 80.0,
                deadline: None,
            },
        ];
        for msg in msgs {
            let line = encode_client(&msg);
            assert_eq!(decode_client(&line).unwrap(), msg, "line {line}");
        }
        // A pre-malleable submit line (no `malleable` key) still decodes,
        // as a rigid request.
        let line = r#"{"v":3,"body":{"Submit":{"id":1,"ingress":0,"egress":0,"volume":10.0,"max_rate":5.0,"start":null,"deadline":null,"class":"Silver"}}}"#;
        match decode_client(line).unwrap() {
            ClientMsg::Submit(req) => {
                assert_eq!(req.malleable, None);
                assert!(!req.is_malleable());
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn hold_messages_round_trip() {
        let msgs = vec![
            ClientMsg::HoldOpen(SubmitReq {
                id: 42,
                ingress: 0,
                egress: 3,
                volume: 500.0,
                max_rate: 25.0,
                start: Some(10.0),
                deadline: Some(100.0),
                class: Default::default(),
                malleable: None,
            }),
            ClientMsg::HoldAttach {
                txn: 42,
                egress: 3,
                bw: 25.0,
                start: 10.0,
                finish: 30.0,
                at: 10.0,
            },
            ClientMsg::HoldCommit { txn: 42, at: 12.0 },
            ClientMsg::HoldRelease { txn: 42, at: 12.0 },
        ];
        for msg in msgs {
            let line = encode_client(&msg);
            assert_eq!(decode_client(&line).unwrap(), msg, "line {line}");
        }
    }

    #[test]
    fn version_mismatch_is_an_error_reply() {
        let line = r#"{"v": 99, "body": "Stats"}"#;
        match decode_client(line) {
            Err(ServerMsg::Error { code, .. }) => assert_eq!(code, "bad-version"),
            other => panic!("expected bad-version error, got {other:?}"),
        }
    }

    #[test]
    fn handshake_grid_older_json_clients_are_refused_cleanly() {
        // v1/v2/v3 clients × v3 server. Older envelopes parse fine (the
        // body layout they used is a subset), so the version gate — not a
        // parse failure — must refuse them with a precise message.
        for v in [1u32, 2] {
            let line = format!("{{\"v\": {v}, \"body\": \"Stats\"}}");
            match decode_client(&line) {
                Err(ServerMsg::Error { code, message }) => {
                    assert_eq!(code, "bad-version");
                    assert!(
                        message.contains(&format!("version {v}"))
                            && message.contains("server speaks 3"),
                        "unhelpful refusal: {message}"
                    );
                }
                other => panic!("v{v} client must be refused, got {other:?}"),
            }
        }
        // The current version is accepted.
        let line = format!("{{\"v\": {PROTOCOL_VERSION}, \"body\": \"Stats\"}}");
        assert_eq!(decode_client(&line).unwrap(), ClientMsg::Stats);
    }

    #[test]
    fn garbage_is_a_parse_error_reply() {
        match decode_client("{nope") {
            Err(ServerMsg::Error { code, .. }) => assert_eq!(code, "parse"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn stats_reply_with_unknown_extra_fields_still_decodes() {
        // Forward compatibility: a newer server may add fields to the
        // Stats snapshot; an older client's decoder must ignore them
        // rather than failing the whole reply.
        let m = crate::metrics::MetricsRegistry::new();
        m.set_role(crate::metrics::Role::Primary);
        let snap = m.snapshot(3, 7, 42.0);
        let line = encode_server(&ServerMsg::Stats(snap.clone()));
        // Inject unknown fields right inside the snapshot object.
        let needle = "{\"Stats\":{";
        assert!(line.starts_with(needle), "unexpected encoding: {line}");
        let extended = format!(
            "{}\"future_counter\":123,\"future_nested\":{{\"a\":[1,2,3]}},{}",
            needle,
            &line[needle.len()..]
        );
        match decode_server(&extended) {
            Ok(ServerMsg::Stats(got)) => assert_eq!(got, snap),
            other => panic!("extended Stats reply must decode, got {other:?}"),
        }
        // Nested structs tolerate additions too.
        let hist = "\"decision_latency\":{";
        let at = extended.find(hist).expect("histogram field present") + hist.len();
        let nested = format!(
            "{}\"future_pctile\":9.5,{}",
            &extended[..at],
            &extended[at..]
        );
        match decode_server(&nested) {
            Ok(ServerMsg::Stats(got)) => assert_eq!(got, snap),
            other => panic!("nested-extended Stats reply must decode, got {other:?}"),
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = vec![
            ServerMsg::Accepted {
                id: 1,
                bw: 25.0,
                start: 10.0,
                finish: 50.0,
            },
            ServerMsg::AcceptedSegments {
                id: 9,
                segments: vec![(10.0, 20.0, 25.0), (30.0, 35.5, 80.0)],
            },
            ServerMsg::Rejected {
                id: 2,
                reason: RejectReason::Saturated,
                retry_after: Some(60.0),
            },
            ServerMsg::CancelResult { id: 3, freed: true },
            ServerMsg::Status {
                id: 4,
                state: ReqState::Pending,
                alloc: None,
            },
            ServerMsg::Status {
                id: 5,
                state: ReqState::Accepted,
                alloc: Some((25.0, 10.0, 50.0)),
            },
            ServerMsg::Draining { pending: 5 },
            ServerMsg::HoldOpened {
                txn: 6,
                bw: 12.5,
                start: 10.0,
                finish: 30.0,
                expires: 110.0,
            },
            ServerMsg::HoldDenied {
                txn: 7,
                reason: RejectReason::Saturated,
            },
            ServerMsg::HoldAck { txn: 8, ok: true },
            ServerMsg::Error {
                code: "parse".into(),
                message: "bad".into(),
            },
        ];
        for msg in msgs {
            let line = encode_server(&msg);
            assert_eq!(decode_server(&line).unwrap(), msg, "line {line}");
        }
    }
}
