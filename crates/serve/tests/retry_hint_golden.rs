//! Golden retry hints: a seeded in-process engine run whose every
//! `Rejected` — id, reason and the bit pattern of `retry_after` — is
//! checked in as `fixtures/retry_hints.txt`. The run saturates shared
//! ports on the paper's 10 × 10 platform with an overloaded rigid stream,
//! puts malleable (stepwise) plans on the same ports, cancels live plans
//! and runs watermark GC, so a hint that reads a different plan, port or
//! instant changes a line. The file was written once and has no bless
//! switch: a hint that changes on purpose changes it by hand, and says
//! why.

use std::fmt::Write as _;
use std::time::Duration;

use crossbeam::channel;
use gridband_net::Topology;
use gridband_serve::engine::Command;
use gridband_serve::protocol::RejectReason;
use gridband_serve::{ClientMsg, Engine, EngineConfig, ServerMsg, SubmitReq};
use rand::{rngs::StdRng, Rng, SeedableRng};

const FIXTURE: &str = include_str!("fixtures/retry_hints.txt");

const SEED: u64 = 49;
const EVENTS: u64 = 1_200;
const STEP: f64 = 10.0;

fn config() -> EngineConfig {
    let mut cfg = EngineConfig::new(Topology::paper_default());
    cfg.step = STEP;
    cfg.malleable = true;
    cfg.gc_horizon = Some(2.0 * STEP);
    cfg
}

/// About three submissions a second of 2–60 GB at 0.1–1 GB/s on the
/// paper's 1 GB/s ports: far more than the platform carries. One in five
/// is malleable; every ninth event cancels the id submitted 30 events
/// before, whatever became of it.
fn workload() -> Vec<ClientMsg> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut clock = 0.0f64;
    let mut msgs = Vec::with_capacity(EVENTS as usize + 1);
    for id in 1..=EVENTS {
        if id % 9 == 0 && id > 30 {
            msgs.push(ClientMsg::Cancel { id: id - 30 });
            continue;
        }
        clock += rng.gen_range(0.05..0.6);
        let volume = rng.gen_range(2_000.0..60_000.0);
        let max_rate = rng.gen_range(100.0..1_000.0);
        let slack = rng.gen_range(1.1..6.0);
        let malleable = rng.gen_range(0u32..5) == 0;
        msgs.push(ClientMsg::Submit(SubmitReq {
            id,
            ingress: rng.gen_range(0u32..10),
            egress: rng.gen_range(0u32..10),
            volume,
            max_rate,
            start: Some(clock),
            deadline: Some(clock + slack * volume / max_rate),
            class: Default::default(),
            malleable: malleable.then_some(true),
        }));
    }
    msgs.push(ClientMsg::Drain);
    msgs
}

/// Every rejection of the run, ordered by id, one line each:
/// `id reason retry_after` with the hint as its `f64` bits in hex, or `-`.
fn rejections() -> String {
    let engine = Engine::spawn(config());
    let (tx, rx) = channel::unbounded();
    let mut replies = Vec::new();
    for msg in workload() {
        let drain = matches!(msg, ClientMsg::Drain);
        engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.clone().into(),
            })
            .expect("engine alive");
        // The drain round's replies go out before `Draining`.
        while drain && !matches!(replies.last(), Some(ServerMsg::Draining { .. })) {
            replies.push(rx.recv_timeout(Duration::from_secs(30)).expect("a reply"));
        }
    }
    engine.shutdown();
    drop(tx);
    replies.extend(rx.try_iter());
    let mut rejected: Vec<(u64, RejectReason, Option<f64>)> = (replies.into_iter())
        .filter_map(|m| match m {
            ServerMsg::Rejected {
                id,
                reason,
                retry_after,
            } => Some((id, reason, retry_after)),
            _ => None,
        })
        .collect();
    rejected.sort_by_key(|r| r.0);
    let mut out = String::new();
    for (id, reason, hint) in rejected {
        let hint = hint.map_or("-".to_string(), |h| format!("{:016x}", h.to_bits()));
        writeln!(out, "{id} {reason:?} {hint}").unwrap();
    }
    out
}

#[test]
fn every_rejection_carries_its_golden_retry_hint() {
    let got = rejections();
    for (n, (g, w)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, w, "line {} of fixtures/retry_hints.txt", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        FIXTURE.lines().count(),
        "rejection count"
    );
}

/// The fixture exercises what it is for: many saturated rejections with a
/// hint, some whose hint came too late to be useful, and other reasons.
#[test]
fn the_fixture_covers_hinted_and_hopeless_rejections() {
    let count = |reason: &str, hinted: bool| {
        (FIXTURE.lines())
            .filter(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                f[1] == reason && (f[2] != "-") == hinted
            })
            .count()
    };
    assert!(count("Saturated", true) >= 200, "hinted saturations");
    assert!(count("Saturated", false) >= 20, "hopeless saturations");
    assert!(count("DeadlineUnreachable", false) >= 1);
}
