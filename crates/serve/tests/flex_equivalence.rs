//! Malleable recovery equivalence: a store-backed engine running mixed
//! rigid/malleable workloads — including mid-flight `Amend`
//! renegotiations — that is killed at a round boundary (or mid-write,
//! via an injected torn append) and restarted must finish the workload
//! with exactly the decisions, exactly the amend outcomes, and exactly
//! the final ledger state of an engine that never crashed.
//!
//! This mirrors `recovery_equivalence.rs` / `gc_equivalence.rs` (same
//! kill machinery, same resubmission protocol) with `malleable`
//! enabled, so the WAL now carries `AcceptSegments` and `Amend` round
//! decisions and snapshots a `live_seg` table. The client protocol
//! under crash extends naturally: an `Amend` that never got a reply is
//! re-sent after the daemon comes back; amends the engine replied to
//! before the crash are durable by construction (the round record —
//! which carries the swapped plan — lands before the reply).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};
use gridband_net::Topology;
use gridband_serve::engine::Command;
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, FsyncPolicy, MemDir, ServerMsg, StoreConfig, SubmitReq,
};
use gridband_store::EngineSnapshot;
use rand::{rngs::StdRng, Rng, SeedableRng};

const STEP: f64 = 10.0;
const EVENTS: usize = 36;
/// Two rounds of grace history behind the clock (GC variants).
const HORIZON: f64 = 2.0 * STEP;

#[derive(Debug, Clone)]
enum Event {
    Submit(SubmitReq),
    Cancel {
        id: u64,
    },
    Amend {
        id: u64,
        volume: f64,
        max_rate: f64,
        deadline: Option<f64>,
    },
}

/// A §5.3-style workload with a malleable third: every third submission
/// is a long-lived malleable request (duration floor `volume/max_rate`
/// spans several rounds), amends target malleable reservations that are
/// decided (start more than two rounds in the past) *and* still live at
/// the amend's deciding round (duration floor extends two rounds past
/// the clock), and cancels only touch requests decided long ago. Both
/// feasible and infeasible amends occur — either way the outcome must
/// replay bit-identically.
fn workload(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(EVENTS);
    let mut clock = 0.0f64;
    let mut submitted: Vec<(u64, f64)> = Vec::new();
    // (id, start, start + volume/max_rate): the third field is a lower
    // bound on the plan's end — a plan can never run above MaxRate.
    let mut malleable: Vec<(u64, f64, f64)> = Vec::new();
    let mut cancelled: Vec<u64> = Vec::new();
    let mut amended: Vec<u64> = Vec::new();
    for i in 0..EVENTS {
        if i % 9 == 5 {
            if let Some(id) = submitted
                .iter()
                .find(|(id, start)| *start < clock - 2.0 * STEP && !cancelled.contains(id))
                .map(|(id, _)| *id)
            {
                cancelled.push(id);
                events.push(Event::Cancel { id });
                continue;
            }
        }
        if i % 3 == 0 && i > 0 {
            if let Some((id, _, _)) = malleable
                .iter()
                .find(|(id, start, min_end)| {
                    *start < clock - 2.0 * STEP
                        && *min_end > clock + 2.0 * STEP
                        && !cancelled.contains(id)
                        && !amended.contains(id)
                })
                .copied()
            {
                amended.push(id);
                let volume = rng.gen_range(400.0..2400.0);
                let max_rate = rng.gen_range(20.0..60.0);
                let deadline = rng
                    .gen_bool(0.5)
                    .then(|| clock + rng.gen_range(2.0..6.0) * STEP);
                events.push(Event::Amend {
                    id,
                    volume,
                    max_rate,
                    deadline,
                });
                continue;
            }
        }
        clock += rng.gen_range(1.0..8.0);
        let id = i as u64 + 1;
        if i % 3 == 1 {
            // Long-lived malleable request: duration floor 40–100 time
            // units, so the plan outlives many rounds and is a valid
            // amend target well after its deciding round.
            let volume = rng.gen_range(1200.0..2200.0);
            let max_rate = rng.gen_range(20.0..32.0);
            let deadline = rng
                .gen_bool(0.5)
                .then(|| clock + rng.gen_range(1.5..3.0) * volume / max_rate);
            events.push(Event::Submit(SubmitReq {
                id,
                ingress: rng.gen_range(0u32..3),
                egress: rng.gen_range(0u32..3),
                volume,
                max_rate,
                start: Some(clock),
                deadline,
                class: Default::default(),
                malleable: Some(true),
            }));
            malleable.push((id, clock, clock + volume / max_rate));
        } else {
            let volume = rng.gen_range(50.0..400.0);
            let max_rate = rng.gen_range(20.0..90.0);
            let slack = rng.gen_range(1.2..3.5);
            events.push(Event::Submit(SubmitReq {
                id,
                ingress: rng.gen_range(0u32..3),
                egress: rng.gen_range(0u32..3),
                volume,
                max_rate,
                start: Some(clock),
                deadline: Some(clock + slack * volume / max_rate),
                class: Default::default(),
                malleable: None,
            }));
        }
        submitted.push((id, clock));
    }
    events
}

fn config(
    dir: Arc<MemDir>,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> EngineConfig {
    let mut cfg = EngineConfig::new(Topology::uniform(3, 3, 100.0));
    cfg.step = STEP;
    cfg.malleable = true;
    cfg.gc_horizon = gc_horizon;
    cfg.store = Some(StoreConfig {
        dir,
        fsync,
        snapshot_every,
    });
    cfg
}

/// Reply channels of one client session: submit decisions keyed by
/// request id, cancel acks and amend outcomes keyed by event index (the
/// same reservation id may be amended more than once across a run).
#[derive(Default)]
struct Session {
    submits: Vec<(u64, Receiver<ServerMsg>)>,
    cancels: Vec<(usize, Receiver<ServerMsg>)>,
    amends: Vec<(usize, Receiver<ServerMsg>)>,
}

impl Session {
    fn send(&mut self, engine: &Engine, idx: usize, event: &Event) -> bool {
        let (tx, rx) = channel::unbounded();
        let msg = match event {
            Event::Submit(s) => {
                self.submits.push((s.id, rx));
                ClientMsg::Submit(s.clone())
            }
            Event::Cancel { id } => {
                self.cancels.push((idx, rx));
                ClientMsg::Cancel { id: *id }
            }
            Event::Amend {
                id,
                volume,
                max_rate,
                deadline,
            } => {
                self.amends.push((idx, rx));
                ClientMsg::Amend {
                    id: *id,
                    volume: *volume,
                    max_rate: *max_rate,
                    deadline: *deadline,
                }
            }
        };
        engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.into(),
            })
            .is_ok()
    }

    fn harvest(
        &mut self,
        decisions: &mut BTreeMap<u64, ServerMsg>,
        acked_cancels: &mut Vec<usize>,
        amend_replies: &mut BTreeMap<usize, ServerMsg>,
    ) {
        for (id, rx) in &self.submits {
            if let Ok(msg) = rx.try_recv() {
                let prev = decisions.insert(*id, msg);
                assert!(prev.is_none(), "two decisions for request {id}");
            }
        }
        for (idx, rx) in &self.cancels {
            if rx.try_recv().is_ok() {
                acked_cancels.push(*idx);
            }
        }
        for (idx, rx) in &self.amends {
            if let Ok(msg) = rx.try_recv() {
                let prev = amend_replies.insert(*idx, msg);
                assert!(prev.is_none(), "two replies for amend event {idx}");
            }
        }
    }
}

fn drain(engine: &Engine) {
    let (tx, rx) = channel::unbounded();
    engine
        .sender()
        .send(Command::Client {
            msg: ClientMsg::Drain,
            reply: tx.into(),
        })
        .expect("engine alive for drain");
    rx.recv_timeout(Duration::from_secs(10)).expect("drain ack");
}

fn export(engine: &Engine) -> EngineSnapshot {
    let (tx, rx) = channel::unbounded();
    engine
        .sender()
        .send(Command::Export { reply: tx })
        .expect("engine alive for export");
    rx.recv_timeout(Duration::from_secs(10)).expect("export")
}

type Outcome = (
    BTreeMap<u64, ServerMsg>,
    BTreeMap<usize, ServerMsg>,
    EngineSnapshot,
);

fn run_uninterrupted(
    events: &[Event],
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> Outcome {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, snapshot_every, gc_horizon));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event), "engine died mid-run");
    }
    drain(&engine);
    let mut decisions = BTreeMap::new();
    let mut amend_replies = BTreeMap::new();
    session.harvest(&mut decisions, &mut Vec::new(), &mut amend_replies);
    let snap = export(&engine);
    engine.kill();
    // Live ≡ replay: the engine's own store, recovered, is the live image.
    let engine = Engine::try_spawn(config(dir, fsync, snapshot_every, gc_horizon))
        .expect("the engine's own store must recover");
    assert_eq!(
        export(&engine),
        snap,
        "replay diverges from the live engine"
    );
    engine.kill();
    (decisions, amend_replies, snap)
}

#[derive(Clone, Copy, Debug)]
enum Kill {
    Clean(usize),
    Torn(usize),
}

fn run_with_crash(
    events: &[Event],
    kill: Kill,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> Outcome {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, snapshot_every, gc_horizon));
    let mut session = Session::default();
    match kill {
        Kill::Clean(after) => {
            for (idx, event) in events.iter().enumerate().take(after) {
                assert!(session.send(&engine, idx, event), "engine died too early");
            }
        }
        Kill::Torn(after) => {
            for (idx, event) in events.iter().enumerate().take(after) {
                assert!(session.send(&engine, idx, event), "engine died too early");
            }
            // Room for the record header plus a few payload bytes: the
            // next append — a round record carrying segmented grants or
            // amends included — lands torn.
            dir.set_write_budget(12);
            for (idx, event) in events.iter().enumerate().skip(after) {
                if !session.send(&engine, idx, event) {
                    break;
                }
            }
        }
    }
    engine.kill();
    dir.clear_write_budget();

    // The engine thread is joined: every reply it ever sent is in a
    // channel. Whatever is missing was lost to the crash.
    let mut decisions = BTreeMap::new();
    let mut acked_cancels = Vec::new();
    let mut amend_replies = BTreeMap::new();
    session.harvest(&mut decisions, &mut acked_cancels, &mut amend_replies);

    // Restart over the same directory and re-drive every unanswered
    // event — submissions, cancels and amends alike — in original order.
    let engine = Engine::try_spawn(config(dir, fsync, snapshot_every, gc_horizon))
        .expect("recovery from a crash-consistent store must succeed");
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        let answered = match event {
            Event::Submit(s) => decisions.contains_key(&s.id),
            Event::Cancel { .. } => acked_cancels.contains(&idx),
            Event::Amend { .. } => amend_replies.contains_key(&idx),
        };
        if !answered {
            assert!(session.send(&engine, idx, event), "recovered engine died");
        }
    }
    drain(&engine);
    session.harvest(&mut decisions, &mut acked_cancels, &mut amend_replies);
    let snap = export(&engine);
    engine.shutdown();
    (decisions, amend_replies, snap)
}

fn assert_equivalent(
    seed: u64,
    kill: Kill,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) {
    let events = workload(seed);
    let (want_decisions, want_amends, want_snap) =
        run_uninterrupted(&events, fsync, snapshot_every, gc_horizon);

    // The comparison must not be vacuous: the workload has to exercise
    // segmented grants and decide every amend it queued.
    assert!(
        want_decisions
            .values()
            .any(|d| matches!(d, ServerMsg::AcceptedSegments { .. })),
        "seed {seed}: no malleable submission was granted — workload too thin"
    );
    let n_amends = events
        .iter()
        .filter(|e| matches!(e, Event::Amend { .. }))
        .count();
    assert!(n_amends > 0, "seed {seed}: workload queued no amends");
    assert_eq!(
        want_amends.len(),
        n_amends,
        "seed {seed}: uninterrupted run must answer every amend"
    );

    let (got_decisions, got_amends, got_snap) =
        run_with_crash(&events, kill, fsync, snapshot_every, gc_horizon);
    assert_eq!(
        got_decisions, want_decisions,
        "seed {seed} {kill:?}: decisions diverge after recovery"
    );
    assert_eq!(
        got_amends, want_amends,
        "seed {seed} {kill:?}: amend outcomes diverge after recovery"
    );
    assert_eq!(
        got_snap, want_snap,
        "seed {seed} {kill:?}: final engine state diverges after recovery"
    );
}

#[test]
fn clean_kills_recover_segmented_state_bit_identically_seed_11() {
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(11, kill, FsyncPolicy::Round, 0, None);
    }
}

#[test]
fn clean_kills_recover_segmented_state_bit_identically_seed_22() {
    // Frequent snapshots: recovery restores a snapshot carrying a
    // `live_seg` table, then replays a WAL tail with segmented rounds.
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(22, kill, FsyncPolicy::Round, 3, None);
    }
}

#[test]
fn torn_writes_recover_segmented_state_bit_identically() {
    for (seed, snapshot_every) in [(11, 0), (22, 3), (33, 1)] {
        for kill in [Kill::Torn(8), Kill::Torn(20)] {
            assert_equivalent(seed, kill, FsyncPolicy::Round, snapshot_every, None);
        }
    }
}

/// Watermark GC composes with segmented reservations: `Gc` records
/// interleave with `AcceptSegments`/`Amend` rounds in the WAL, compacted
/// snapshots drop expired segmented plans, and recovery still lands on
/// the uninterrupted run's bytes.
#[test]
fn gc_watermark_composes_with_segmented_recovery() {
    let events = workload(11);
    let (_, _, snap) = run_uninterrupted(&events, FsyncPolicy::Round, 0, Some(HORIZON));
    assert!(
        snap.ledger.watermark.is_some(),
        "the workload must be long enough for GC to engage"
    );
    for kill in [Kill::Clean(12), Kill::Clean(24), Kill::Torn(20)] {
        assert_equivalent(11, kill, FsyncPolicy::Round, 0, Some(HORIZON));
        assert_equivalent(11, kill, FsyncPolicy::Round, 3, Some(HORIZON));
    }
}

/// Turning GC on under a malleable workload changes no decision and no
/// amend outcome — the watermark only ever truncates fully-expired
/// history, segmented or rigid.
#[test]
fn gc_changes_no_malleable_decision() {
    for seed in [11, 22, 33] {
        let events = workload(seed);
        let (plain_decisions, plain_amends, _) =
            run_uninterrupted(&events, FsyncPolicy::Round, 0, None);
        let (gc_decisions, gc_amends, _) =
            run_uninterrupted(&events, FsyncPolicy::Round, 0, Some(HORIZON));
        assert_eq!(
            gc_decisions, plain_decisions,
            "seed {seed}: GC changed a submission decision"
        );
        assert_eq!(
            gc_amends, plain_amends,
            "seed {seed}: GC changed an amend outcome"
        );
    }
}

/// The amend-atomicity crash window, pinned deterministically: an amend
/// is queued but its deciding round has not fired when the engine dies.
/// The reply was never sent, so the client re-sends after recovery; the
/// merged outcome — and the final ledger — must match a run that never
/// crashed. The original reservation must survive the crash untouched
/// (the WAL holds its grant; the un-decided amend left no trace).
#[test]
fn kill_at_a_pending_amend_recovers_bit_identically() {
    let mk_events = || -> Vec<Event> {
        vec![
            // Long malleable transfer: duration floor 80 time units.
            Event::Submit(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 0,
                volume: 2000.0,
                max_rate: 25.0,
                start: Some(5.0),
                deadline: None,
                class: Default::default(),
                malleable: Some(true),
            }),
            // Rigid follower whose start advances the clock past id 1's
            // round, so id 1 is decided and its plan is live.
            Event::Submit(SubmitReq {
                id: 2,
                ingress: 1,
                egress: 1,
                volume: 100.0,
                max_rate: 50.0,
                start: Some(25.0),
                deadline: Some(60.0),
                class: Default::default(),
                malleable: None,
            }),
            // The amend: queued here, decided only when a later round
            // fires. The crashed run kills the engine at this point.
            Event::Amend {
                id: 1,
                volume: 1200.0,
                max_rate: 40.0,
                deadline: Some(80.0),
            },
            // The round-firing successor that decides the amend.
            Event::Submit(SubmitReq {
                id: 4,
                ingress: 2,
                egress: 2,
                volume: 120.0,
                max_rate: 40.0,
                start: Some(45.0),
                deadline: Some(90.0),
                class: Default::default(),
                malleable: None,
            }),
        ]
    };
    for snapshot_every in [0u64, 1] {
        let events = mk_events();
        let (want_decisions, want_amends, want_snap) =
            run_uninterrupted(&events, FsyncPolicy::Round, snapshot_every, None);
        assert!(
            matches!(
                want_decisions.get(&1),
                Some(ServerMsg::AcceptedSegments { .. })
            ),
            "the malleable submission must be granted"
        );
        assert!(
            matches!(
                want_amends.get(&2),
                Some(ServerMsg::AcceptedSegments { .. })
            ),
            "the amend must be granted in the uninterrupted run, got {:?}",
            want_amends.get(&2)
        );
        // Kill::Clean(3): events 0–2 sent, so the amend sits in
        // `pending_amends` — queued, undecided, unanswered — at kill.
        let (got_decisions, got_amends, got_snap) = run_with_crash(
            &events,
            Kill::Clean(3),
            FsyncPolicy::Round,
            snapshot_every,
            None,
        );
        assert_eq!(
            got_decisions, want_decisions,
            "snapshot_every={snapshot_every}: decisions diverge after a kill at a pending amend"
        );
        assert_eq!(
            got_amends, want_amends,
            "snapshot_every={snapshot_every}: amend outcome diverges after a kill at a pending amend"
        );
        assert_eq!(
            got_snap, want_snap,
            "snapshot_every={snapshot_every}: ledger diverges after a kill at a pending amend"
        );
    }
}
