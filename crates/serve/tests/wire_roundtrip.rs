//! Property tests: every wire message survives an encode → decode
//! round-trip bit-for-bit — through the JSON-lines protocol *and*
//! through the binary frame codec, over the same message strategies.
//! The daemon and its clients only ever exchange these two encodings,
//! so this pins the whole protocol surface in both dialects.

use gridband_serve::metrics::{LatencySnapshot, StatsSnapshot};
use gridband_serve::protocol::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, RejectReason, ReqState,
    ServerMsg, ServiceClass, SubmitReq,
};
use gridband_serve::wire::{
    decode_client_payload, decode_server_payload, encode_client_frame, encode_server_frame,
    FrameBuf,
};
use proptest::prelude::*;

/// A finite, JSON-exact `f64`: round-trips through the wire format.
fn wire_f64() -> impl Strategy<Value = f64> {
    (0.0f64..1e9).prop_map(|v| (v * 1e3).round() / 1e3)
}

fn submit_req() -> impl Strategy<Value = SubmitReq> {
    (
        (0u64..1_000_000, 0u32..64, 0u32..64),
        (wire_f64(), wire_f64()),
        (0u8..8, wire_f64(), wire_f64()),
    )
        .prop_map(
            |((id, ingress, egress), (volume, max_rate), (opt, start, deadline))| {
                SubmitReq {
                    id,
                    ingress,
                    egress,
                    volume,
                    max_rate,
                    // Cycle through all the Some/None combinations.
                    start: (opt & 1 == 0).then_some(start),
                    deadline: (opt & 2 == 0).then_some(deadline),
                    class: ServiceClass::ALL[(id % 3) as usize],
                    malleable: (opt & 4 == 0).then_some(id % 2 == 0),
                }
            },
        )
}

fn client_msg() -> impl Strategy<Value = ClientMsg> {
    (0u8..11, submit_req()).prop_map(|(variant, sub)| match variant {
        0 => ClientMsg::Submit(sub),
        1 => ClientMsg::Cancel { id: sub.id },
        2 => ClientMsg::Query { id: sub.id },
        3 => ClientMsg::Stats,
        4 => ClientMsg::Promote,
        5 => ClientMsg::HoldOpen(sub),
        6 => ClientMsg::HoldAttach {
            txn: sub.id,
            egress: sub.egress,
            bw: sub.max_rate,
            start: sub.start.unwrap_or(0.5),
            finish: sub.deadline.unwrap_or(1.5),
            at: sub.volume,
        },
        7 => ClientMsg::HoldCommit {
            txn: sub.id,
            at: sub.volume,
        },
        8 => ClientMsg::HoldRelease {
            txn: sub.id,
            at: sub.volume,
        },
        9 => ClientMsg::Amend {
            id: sub.id,
            volume: sub.volume,
            max_rate: sub.max_rate,
            deadline: sub.deadline,
        },
        _ => ClientMsg::Drain,
    })
}

fn stats_snapshot() -> impl Strategy<Value = StatsSnapshot> {
    let n = StatsSnapshot::N;
    (
        prop::collection::vec(0u64..1000, n..n + 1),
        (0usize..3, wire_f64(), wire_f64()),
    )
        .prop_map(|(c, (role, virtual_time, mean_ms))| StatsSnapshot {
            role: ["solo", "primary", "follower"][role].to_string(),
            uptime_s: c[0] * 3,
            protocol_version: 1 + (c[1] % 4) as u32,
            virtual_time,
            gc_watermark: (c[2] % 2 == 0).then_some(virtual_time / 2.0),
            decision_latency: LatencySnapshot {
                count: c[3],
                mean_ms,
                p50_ms: mean_ms,
                p95_ms: mean_ms * 2.0,
                p99_ms: mean_ms * 4.0,
            },
            fsync: LatencySnapshot {
                count: c[4],
                mean_ms,
                p50_ms: mean_ms,
                p95_ms: mean_ms * 3.0,
                p99_ms: mean_ms * 5.0,
            },
            ..StatsSnapshot::from_counters(c.try_into().expect("N counters"))
        })
}

fn server_msg() -> impl Strategy<Value = ServerMsg> {
    (
        (0u8..10, 0u64..1_000_000, 0u8..8, 0u8..5),
        (wire_f64(), wire_f64(), wire_f64()),
        stats_snapshot(),
    )
        .prop_map(
            |((variant, id, reason, state), (bw, start, finish), stats)| {
                let reason = match reason {
                    0 => RejectReason::Saturated,
                    1 => RejectReason::DeadlineUnreachable,
                    2 => RejectReason::Invalid,
                    3 => RejectReason::QueueFull,
                    4 => RejectReason::UnknownRoute,
                    5 => RejectReason::NotPrimary,
                    6 => RejectReason::Drained,
                    _ => RejectReason::ShuttingDown,
                };
                let state = match state {
                    0 => ReqState::Pending,
                    1 => ReqState::Accepted,
                    2 => ReqState::Rejected,
                    3 => ReqState::Cancelled,
                    _ => ReqState::Unknown,
                };
                match variant {
                    0 => ServerMsg::Accepted {
                        id,
                        bw,
                        start,
                        finish,
                    },
                    1 => ServerMsg::Rejected {
                        id,
                        reason,
                        retry_after: (id % 2 == 0).then_some(start),
                    },
                    2 => ServerMsg::CancelResult {
                        id,
                        freed: id % 2 == 0,
                    },
                    3 => ServerMsg::Status {
                        id,
                        state,
                        alloc: (id % 3 == 0).then_some((bw, start, finish)),
                    },
                    4 => ServerMsg::Stats(stats),
                    5 => ServerMsg::Draining { pending: id },
                    6 => match id % 3 {
                        0 => ServerMsg::HoldOpened {
                            txn: id,
                            bw,
                            start,
                            finish,
                            expires: finish,
                        },
                        1 => ServerMsg::HoldDenied { txn: id, reason },
                        _ => ServerMsg::HoldAck {
                            txn: id,
                            ok: id % 2 == 0,
                        },
                    },
                    7 => ServerMsg::Promoted { rounds: id },
                    8 => ServerMsg::AcceptedSegments {
                        id,
                        segments: (0..(id % 4))
                            .map(|k| {
                                let k = k as f64;
                                (start + 2.0 * k, start + 2.0 * k + 1.0, bw)
                            })
                            .collect(),
                    },
                    _ => ServerMsg::Error {
                        code: format!("code-{}", id % 7),
                        message: format!("detail {id}"),
                    },
                }
            },
        )
}

proptest! {
    #[test]
    fn client_messages_round_trip(msg in client_msg()) {
        let line = encode_client(&msg);
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = decode_client(&line).expect("decode own encoding");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn server_messages_round_trip(msg in server_msg()) {
        let line = encode_server(&msg);
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = decode_server(&line).expect("decode own encoding");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn client_messages_round_trip_in_binary(msg in client_msg()) {
        // Through the full framing path, not just the payload codec:
        // the splitter must hand back exactly the payload that went in.
        let mut fb = FrameBuf::new();
        fb.extend(&encode_client_frame(&msg));
        let payload = fb.next_frame().expect("frame ok").expect("one frame");
        let back = decode_client_payload(&payload).expect("decode own encoding");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(fb.next_frame().expect("no error"), None);
    }

    #[test]
    fn server_messages_round_trip_in_binary(msg in server_msg()) {
        let mut fb = FrameBuf::new();
        fb.extend(&encode_server_frame(&msg));
        let payload = fb.next_frame().expect("frame ok").expect("one frame");
        let back = decode_server_payload(&payload).expect("decode own encoding");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(fb.next_frame().expect("no error"), None);
    }

    #[test]
    fn binary_f64s_round_trip_bit_exactly(msg in client_msg(), bits in any::<u64>()) {
        // The JSON strategies stick to decimal-exact values; the binary
        // codec promises more — any bit pattern survives. Splice an
        // arbitrary f64 into a Submit and round-trip it.
        let v = f64::from_bits(bits);
        let patched = match msg {
            ClientMsg::Submit(mut s) => { s.volume = v; ClientMsg::Submit(s) }
            ClientMsg::HoldOpen(mut s) => { s.max_rate = v; ClientMsg::HoldOpen(s) }
            other => other,
        };
        let back = decode_client_payload(
            &gridband_serve::wire::encode_client_payload(&patched),
        ).expect("decode own encoding");
        match (&patched, &back) {
            (ClientMsg::Submit(a), ClientMsg::Submit(b)) => {
                prop_assert_eq!(a.volume.to_bits(), b.volume.to_bits());
            }
            (ClientMsg::HoldOpen(a), ClientMsg::HoldOpen(b)) => {
                prop_assert_eq!(a.max_rate.to_bits(), b.max_rate.to_bits());
            }
            _ => prop_assert_eq!(back, patched),
        }
    }
}
