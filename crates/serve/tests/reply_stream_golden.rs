//! Golden reply stream: the exact bytes a virtual-clock daemon writes
//! back to one connection, for each codec. A seeded stream of rigid and
//! malleable submissions, queries and cancels of pending, decided and
//! unknown ids, one amend and a final `Drain` goes over one TCP
//! connection to a fresh `Server` with a single I/O loop; everything the
//! daemon sends back until it closes the connection must equal
//! `fixtures/reply_stream.{jsonl,bin}`. That pins per-connection reply
//! order — round replies in decision order, inline replies where their
//! request was handled — which clients that pair replies by position
//! rely on. `Stats` (it carries timings) and queue-full bounces (their
//! order against engine replies depends on timing) are left out: the
//! command queue holds the whole stream. The files were written once and
//! have no bless switch: a reply stream that changes on purpose changes
//! them by hand, and says why.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use gridband_net::Topology;
use gridband_serve::protocol::{decode_server, encode_client, ReqState};
use gridband_serve::wire::{decode_server_payload, encode_client_frame, FrameBuf, WIRE_MAGIC};
use gridband_serve::{ClientMsg, EngineConfig, Server, ServerConfig, ServerMsg, SubmitReq};
use rand::{rngs::StdRng, Rng, SeedableRng};

const JSON_FIXTURE: &[u8] = include_bytes!("fixtures/reply_stream.jsonl");
const BINARY_FIXTURE: &[u8] = include_bytes!("fixtures/reply_stream.bin");

const SEED: u64 = 50;
const EVENTS: usize = 400;
const STEP: f64 = 10.0;
/// Added to a submitted id to name one the daemon never saw.
const UNKNOWN: u64 = 1_000_000;

/// The request stream, in send order. Submissions arrive every 0.5–3
/// virtual seconds (a round every few of them) on a 3 × 3 platform of
/// 100 MB/s ports, one in four malleable; queries and cancels pick a
/// submission still in the current interval (pending), one from an
/// earlier interval (decided, often live) or an id never submitted.
/// Halfway through, the latest decided malleable submission is amended.
fn stream() -> Vec<ClientMsg> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut clock = 0.0f64;
    let mut next_id = 1u64;
    let mut pending: Vec<(u64, bool)> = Vec::new();
    let mut decided: Vec<(u64, bool)> = Vec::new();
    let mut amended = false;
    let mut msgs = Vec::with_capacity(EVENTS + 1);
    for n in 0..EVENTS {
        if !amended && n >= EVENTS / 2 {
            if let Some(&(id, _)) = decided.iter().rev().find(|d| d.1) {
                msgs.push(ClientMsg::Amend {
                    id,
                    volume: 300.0,
                    max_rate: 60.0,
                    deadline: Some(clock + 40.0),
                });
                amended = true;
                continue;
            }
        }
        let roll = rng.gen_range(0u32..100);
        if !(15..85).contains(&roll) {
            let pick = rng.gen_range(0u32..3);
            let id = match pick {
                0 if !pending.is_empty() => pending[rng.gen_range(0..pending.len())].0,
                1 if !decided.is_empty() => decided[rng.gen_range(0..decided.len())].0,
                _ => next_id + UNKNOWN,
            };
            msgs.push(if roll < 15 {
                ClientMsg::Query { id }
            } else {
                ClientMsg::Cancel { id }
            });
            continue;
        }
        let before = (clock / STEP).floor();
        clock += rng.gen_range(0.5..3.0);
        if (clock / STEP).floor() > before {
            decided.append(&mut pending);
        }
        let volume = rng.gen_range(200.0..3_000.0);
        let max_rate = rng.gen_range(20.0..100.0);
        let slack = rng.gen_range(1.2..4.0);
        let malleable = rng.gen_range(0u32..4) == 0;
        msgs.push(ClientMsg::Submit(SubmitReq {
            id: next_id,
            ingress: rng.gen_range(0u32..3),
            egress: rng.gen_range(0u32..3),
            volume,
            max_rate,
            start: Some(clock),
            deadline: Some(clock + slack * volume / max_rate),
            class: Default::default(),
            malleable: malleable.then_some(true),
        }));
        pending.push((next_id, malleable));
        next_id += 1;
    }
    assert!(amended, "the stream holds one amend");
    msgs.push(ClientMsg::Drain);
    msgs
}

#[derive(Clone, Copy)]
enum Codec {
    Json,
    Binary,
}

/// Every byte the daemon writes to one connection that sends the whole
/// stream in `codec` and then closes its write half.
fn reply_bytes(codec: Codec) -> Vec<u8> {
    let msgs = stream();
    let mut engine = EngineConfig::new(Topology::uniform(3, 3, 100.0));
    engine.step = STEP;
    engine.malleable = true;
    engine.queue_capacity = msgs.len() + 16;
    let mut cfg = ServerConfig::new("127.0.0.1:0", engine);
    cfg.io_threads = 1;
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut out = Vec::new();
    if let Codec::Binary = codec {
        out.extend_from_slice(&WIRE_MAGIC);
    }
    for msg in &msgs {
        match codec {
            Codec::Json => {
                out.extend_from_slice(encode_client(msg).as_bytes());
                out.push(b'\n');
            }
            Codec::Binary => out.extend_from_slice(&encode_client_frame(msg)),
        }
    }
    sock.write_all(&out).expect("write the stream");
    sock.shutdown(Shutdown::Write).expect("half close");
    let mut got = Vec::new();
    sock.read_to_end(&mut got)
        .expect("read until the daemon closes");
    handle.shutdown();
    join.join().expect("server thread");
    got
}

fn decode_all(codec: Codec, bytes: &[u8]) -> Vec<ServerMsg> {
    match codec {
        Codec::Json => (bytes.split(|&b| b == b'\n'))
            .filter(|l| !l.is_empty())
            .map(|l| decode_server(std::str::from_utf8(l).expect("utf-8")).expect("reply line"))
            .collect(),
        Codec::Binary => {
            let mut fb = FrameBuf::new();
            fb.extend(bytes);
            let mut msgs = Vec::new();
            while let Some(p) = fb.next_frame().expect("sound frame") {
                msgs.push(decode_server_payload(&p).expect("reply frame"));
            }
            assert_eq!(fb.pending(), 0, "no torn frame at the end");
            msgs
        }
    }
}

fn check(codec: Codec, fixture: &[u8], name: &str) {
    let got = reply_bytes(codec);
    if got != fixture {
        let (g, w) = (decode_all(codec, &got), decode_all(codec, fixture));
        let at = g.iter().zip(&w).position(|(a, b)| a != b);
        panic!(
            "reply stream differs from fixtures/{name}: {} replies against {}, first \
             difference at reply {at:?}: got {:?}, fixture {:?}",
            g.len(),
            w.len(),
            at.map(|i| &g[i]),
            at.map(|i| &w[i]),
        );
    }
}

#[test]
fn json_connection_gets_the_golden_reply_bytes() {
    check(Codec::Json, JSON_FIXTURE, "reply_stream.jsonl");
}

#[test]
fn binary_connection_gets_the_golden_reply_bytes() {
    check(Codec::Binary, BINARY_FIXTURE, "reply_stream.bin");
}

/// The fixtures exercise what they are for, and both codecs carry the
/// same replies in the same order.
#[test]
fn the_fixtures_cover_every_kind_of_reply() {
    let json = decode_all(Codec::Json, JSON_FIXTURE);
    assert_eq!(json, decode_all(Codec::Binary, BINARY_FIXTURE));
    let count = |f: &dyn Fn(&ServerMsg) -> bool| json.iter().filter(|m| f(m)).count();
    let status = |s: ReqState| move |m: &ServerMsg| matches!(m, ServerMsg::Status { state, .. } if *state == s);
    assert!(count(&|m| matches!(m, ServerMsg::Accepted { .. })) >= 20);
    assert!(count(&|m| matches!(m, ServerMsg::AcceptedSegments { .. })) >= 5);
    assert!(count(&|m| matches!(m, ServerMsg::Rejected { .. })) >= 20);
    assert!(count(&status(ReqState::Pending)) >= 3);
    assert!(count(&status(ReqState::Accepted)) >= 3);
    assert!(count(&status(ReqState::Unknown)) >= 3);
    assert!(count(&|m| matches!(m, ServerMsg::CancelResult { freed: true, .. })) >= 3);
    assert!(count(&|m| matches!(m, ServerMsg::CancelResult { freed: false, .. })) >= 3);
    assert!(matches!(json.last(), Some(ServerMsg::Draining { .. })));
    let Some(ClientMsg::Amend { id, .. }) = stream()
        .into_iter()
        .find(|m| matches!(m, ClientMsg::Amend { .. }))
    else {
        unreachable!("the stream holds one amend");
    };
    let amend_replies = json.iter().filter(|m| {
        matches!(m, ServerMsg::AcceptedSegments { id: i, .. } | ServerMsg::Rejected { id: i, .. } if *i == id)
    });
    assert_eq!(amend_replies.count(), 2, "the submission and its amend");
}
