//! Golden binary frames: one message list per direction, checked in as
//! the v3 encoder's frames back to back (`fixtures/wire_v3_client.bin`,
//! `fixtures/wire_v3_server.bin`). The lists cover every variant, every
//! `ServiceClass`, `RejectReason` and `ReqState`, each `Option` as `None`
//! and as `Some`, all three `malleable` settings, and the awkward `f64`s.
//! Neither file may change without a `WIRE_VERSION` bump.

use gridband_serve::metrics::{LatencySnapshot, StatsSnapshot};
use gridband_serve::protocol::{
    ClientMsg, RejectReason, ReqState, ServerMsg, ServiceClass, SubmitReq,
};
use gridband_serve::wire::{
    decode_client_payload, decode_server_payload, encode_client_frame, encode_server_frame,
    FrameBuf,
};

const CLIENT: &[u8] = include_bytes!("fixtures/wire_v3_client.bin");
const SERVER: &[u8] = include_bytes!("fixtures/wire_v3_server.bin");

fn submit(id: u64, class: ServiceClass, malleable: Option<bool>) -> SubmitReq {
    SubmitReq {
        id,
        ingress: 3,
        egress: 7,
        volume: 0.1 + 0.2,
        max_rate: 125.5,
        start: id.is_multiple_of(2).then_some(1e-308),
        deadline: (!id.is_multiple_of(3)).then_some(4096.75),
        class,
        malleable,
    }
}

fn client_msgs() -> Vec<ClientMsg> {
    let mut msgs = Vec::new();
    for (k, malleable) in [None, Some(false), Some(true)].into_iter().enumerate() {
        for (j, class) in ServiceClass::ALL.into_iter().enumerate() {
            msgs.push(ClientMsg::Submit(submit(
                (3 * k + j) as u64,
                class,
                malleable,
            )));
        }
    }
    msgs.extend([
        ClientMsg::HoldOpen(submit(u64::MAX, ServiceClass::Gold, None)),
        ClientMsg::HoldAttach {
            txn: 41,
            egress: u32::MAX,
            bw: 12.5,
            start: -0.0,
            finish: f64::INFINITY,
            at: 9.0,
        },
        ClientMsg::HoldCommit { txn: 42, at: 10.25 },
        ClientMsg::HoldRelease { txn: 43, at: 11.5 },
        ClientMsg::Cancel { id: 44 },
        ClientMsg::Query { id: 45 },
        ClientMsg::Stats,
        ClientMsg::Drain,
        ClientMsg::Promote,
        ClientMsg::Amend {
            id: 46,
            volume: 250.0,
            max_rate: 60.0,
            deadline: Some(120.0),
        },
        ClientMsg::Amend {
            id: 47,
            volume: 1.0 / 3.0,
            max_rate: 2.0,
            deadline: None,
        },
    ]);
    msgs
}

fn stats() -> StatsSnapshot {
    let mut block = [0u64; StatsSnapshot::N];
    for (k, v) in block.iter_mut().enumerate() {
        *v = 7 * k as u64 + 1;
    }
    StatsSnapshot {
        role: "follower".into(),
        uptime_s: 3600,
        protocol_version: 3,
        virtual_time: 812.5,
        gc_watermark: None,
        decision_latency: LatencySnapshot {
            count: 9,
            mean_ms: 0.3,
            p50_ms: 0.25,
            p95_ms: 1.0,
            p99_ms: 2.0,
        },
        fsync: LatencySnapshot::default(),
        ..StatsSnapshot::from_counters(block)
    }
}

fn server_msgs() -> Vec<ServerMsg> {
    const REASONS: [RejectReason; 8] = [
        RejectReason::Saturated,
        RejectReason::DeadlineUnreachable,
        RejectReason::Invalid,
        RejectReason::QueueFull,
        RejectReason::UnknownRoute,
        RejectReason::ShuttingDown,
        RejectReason::NotPrimary,
        RejectReason::Drained,
    ];
    const STATES: [ReqState; 5] = [
        ReqState::Pending,
        ReqState::Accepted,
        ReqState::Rejected,
        ReqState::Cancelled,
        ReqState::Unknown,
    ];
    let mut msgs = vec![
        ServerMsg::Accepted {
            id: 1,
            bw: 0.1 + 0.2,
            start: -0.0,
            finish: 1e-308,
        },
        ServerMsg::AcceptedSegments {
            id: 2,
            segments: vec![],
        },
        ServerMsg::AcceptedSegments {
            id: 3,
            segments: vec![
                (0.25, 10.0, 33.5),
                (10.0, 20.0, 0.1 + 0.2),
                (25.0, 27.5, 100.0),
            ],
        },
    ];
    for (k, reason) in REASONS.into_iter().enumerate() {
        msgs.push(ServerMsg::Rejected {
            id: 10 + k as u64,
            reason,
            retry_after: (k % 2 == 1).then_some(60.0 + k as f64),
        });
        msgs.push(ServerMsg::HoldDenied {
            txn: 20 + k as u64,
            reason,
        });
    }
    for (k, state) in STATES.into_iter().enumerate() {
        for alloc in [None, Some((25.0, 10.0 + k as f64, 50.0))] {
            msgs.push(ServerMsg::Status {
                id: 30 + k as u64,
                state,
                alloc,
            });
        }
    }
    msgs.extend([
        ServerMsg::CancelResult {
            id: 40,
            freed: true,
        },
        ServerMsg::CancelResult {
            id: 41,
            freed: false,
        },
        ServerMsg::HoldOpened {
            txn: 42,
            bw: 12.5,
            start: 10.0,
            finish: 30.0,
            expires: 110.0,
        },
        ServerMsg::HoldAck { txn: 43, ok: true },
        ServerMsg::HoldAck { txn: 44, ok: false },
        ServerMsg::Stats(stats()),
        ServerMsg::Stats(StatsSnapshot {
            gc_watermark: Some(700.125),
            ..stats()
        }),
        ServerMsg::Draining { pending: 45 },
        ServerMsg::Promoted { rounds: u64::MAX },
        ServerMsg::Error {
            code: "débit".into(),
            message: "réservation refusée — 帯域 ≥ 100 MB/s 🚦".into(),
        },
        ServerMsg::Error {
            code: String::new(),
            message: String::new(),
        },
    ]);
    msgs
}

/// Every payload in a fixture, in order.
fn payloads(fixture: &[u8]) -> Vec<Vec<u8>> {
    let mut fb = FrameBuf::new();
    fb.extend(fixture);
    let mut out = Vec::new();
    while let Some(p) = fb.next_frame().expect("fixture frames are intact") {
        out.push(p);
    }
    assert_eq!(fb.pending(), 0, "fixture ends mid-frame");
    out
}

#[test]
fn client_frames_match_the_fixture() {
    let msgs = client_msgs();
    let encoded: Vec<u8> = msgs.iter().flat_map(encode_client_frame).collect();
    assert!(
        encoded == CLIENT,
        "encoder drifted from fixtures/wire_v3_client.bin"
    );
    let decoded: Vec<ClientMsg> = payloads(CLIENT)
        .iter()
        .map(|p| decode_client_payload(p).expect("decode fixture"))
        .collect();
    assert_eq!(decoded, msgs);
}

#[test]
fn server_frames_match_the_fixture() {
    let msgs = server_msgs();
    let encoded: Vec<u8> = msgs.iter().flat_map(encode_server_frame).collect();
    assert!(
        encoded == SERVER,
        "encoder drifted from fixtures/wire_v3_server.bin"
    );
    let decoded: Vec<ServerMsg> = payloads(SERVER)
        .iter()
        .map(|p| decode_server_payload(p).expect("decode fixture"))
        .collect();
    assert_eq!(decoded, msgs);
}

#[test]
fn fixture_tags_follow_the_v3_numbering() {
    // Client payloads open with the version byte, then the tag.
    let client: Vec<u8> = payloads(CLIENT).iter().map(|p| p[1]).collect();
    let mut want = vec![0u8; 9];
    want.extend([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10]);
    assert_eq!(client, want);
    let server: Vec<u8> = payloads(SERVER).iter().map(|p| p[0]).collect();
    let mut want = vec![0u8, 11, 11];
    for _ in 0..8 {
        want.extend([1, 5]);
    }
    want.extend([3u8; 10]);
    want.extend([2, 2, 4, 6, 6, 7, 7, 8, 9, 10, 10]);
    assert_eq!(server, want);
}
