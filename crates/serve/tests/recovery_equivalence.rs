//! Recovery equivalence: a store-backed engine that is killed at a round
//! boundary (or mid-write, via an injected torn append) and restarted
//! must finish a workload with exactly the decisions — and exactly the
//! final ledger state — of an engine that never crashed.
//!
//! The client protocol under crash is the documented one: a submission or
//! cancel that never got a reply is resubmitted, in original order, after
//! the daemon comes back. Decisions the engine replied to before the
//! crash are durable by construction (log-before-reply), so the merged
//! reply set of the crashed run must equal the uninterrupted run's
//! bit-for-bit: same accepted ids, same `bw`/`start`/`finish` on each,
//! same rejection reasons and retry hints, same final port profiles.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};
use gridband_net::Topology;
use gridband_serve::engine::Command;
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, FsyncPolicy, MemDir, ServerMsg, StoreConfig, SubmitReq,
};
use gridband_store::{Dir, EngineSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

const STEP: f64 = 10.0;
const EVENTS: usize = 36;

#[derive(Debug, Clone)]
enum Event {
    Submit(SubmitReq),
    Cancel { id: u64 },
}

/// A §5.3-style workload: Poisson-ish arrivals on a 3×3 topology with
/// random volumes, rate caps and deadline slack, plus occasional cancels
/// of requests that are guaranteed already decided (start more than two
/// rounds in the past), so a cancel never races its target's round.
fn workload(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(EVENTS);
    let mut clock = 0.0f64;
    let mut submitted: Vec<(u64, f64)> = Vec::new();
    let mut cancelled: Vec<u64> = Vec::new();
    for i in 0..EVENTS {
        let cancel_target = if i % 6 == 5 {
            submitted
                .iter()
                .find(|(id, start)| *start < clock - 2.0 * STEP && !cancelled.contains(id))
                .map(|(id, _)| *id)
        } else {
            None
        };
        if let Some(id) = cancel_target {
            cancelled.push(id);
            events.push(Event::Cancel { id });
            continue;
        }
        clock += rng.gen_range(1.0..8.0);
        let id = i as u64 + 1;
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
        submitted.push((id, clock));
    }
    events
}

/// Dense arrivals — about five per round — where a third of the
/// submissions are cancelled right away. The cancel reaches a request
/// that is still waiting for its round, so it tombstones it: the round
/// that decides it books and frees it beside the round's other accepts.
fn racing_workload(seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut clock = 0.0f64;
    for id in 1..=EVENTS as u64 {
        clock += rng.gen_range(0.5..3.5);
        let volume = rng.gen_range(50.0..400.0);
        let max_rate = rng.gen_range(10.0..45.0);
        events.push(Event::Submit(SubmitReq {
            id,
            ingress: rng.gen_range(0u32..3),
            egress: rng.gen_range(0u32..3),
            volume,
            max_rate,
            start: Some(clock),
            deadline: Some(clock + rng.gen_range(1.5..3.5) * volume / max_rate),
            class: Default::default(),
            malleable: None,
        }));
        if rng.gen_bool(0.33) {
            events.push(Event::Cancel { id });
        }
    }
    events
}

fn config(dir: Arc<MemDir>, fsync: FsyncPolicy, snapshot_every: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(Topology::uniform(3, 3, 100.0));
    cfg.step = STEP;
    cfg.store = Some(StoreConfig {
        dir,
        fsync,
        snapshot_every,
    });
    cfg
}

/// Reply channels of one client session: submit decisions keyed by
/// request id, cancel acknowledgements keyed by event index.
#[derive(Default)]
struct Session {
    submits: Vec<(u64, Receiver<ServerMsg>)>,
    cancels: Vec<(usize, Receiver<ServerMsg>)>,
}

impl Session {
    /// Send one event to the engine; returns `false` if the engine is
    /// gone (crashed mid-run), in which case the event counts as never
    /// submitted.
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
        };
        engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.into(),
            })
            .is_ok()
    }

    /// Harvest every reply that has arrived. Call only after the engine
    /// thread is joined (kill/shutdown) or after a `Drain` reply, so all
    /// sends have happened-before.
    fn harvest(
        &mut self,
        decisions: &mut BTreeMap<u64, ServerMsg>,
        acked_cancels: &mut Vec<usize>,
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

/// Run the whole workload uninterrupted on a fresh store.
fn run_uninterrupted(
    events: &[Event],
    fsync: FsyncPolicy,
    snapshot_every: u64,
) -> (BTreeMap<u64, ServerMsg>, EngineSnapshot) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir, fsync, snapshot_every));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event), "engine died mid-run");
    }
    drain(&engine);
    let mut decisions = BTreeMap::new();
    session.harvest(&mut decisions, &mut Vec::new());
    let snap = export(&engine);
    engine.shutdown();
    (decisions, snap)
}

/// How the first engine of a crashed run dies.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// `Engine::kill()` after this many events: a crash at a round
    /// boundary (every round decided so far is committed).
    Clean(usize),
    /// After this many events, the store's device accepts only a few more
    /// bytes: the next WAL append tears mid-record and the engine halts
    /// with its round decided in memory but not durable.
    Torn(usize),
}

/// Run the workload with a crash, recover on the same store, finish via
/// the resubmission protocol, and return the merged outcome.
fn run_with_crash(
    events: &[Event],
    kill: Kill,
    fsync: FsyncPolicy,
    snapshot_every: u64,
) -> (BTreeMap<u64, ServerMsg>, EngineSnapshot, u64) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, snapshot_every));
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
            // Room for the 8-byte record header plus a few payload bytes:
            // whatever the engine writes next lands torn.
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
    session.harvest(&mut decisions, &mut acked_cancels);

    // Restart over the same directory and re-drive every unanswered
    // event, preserving original order.
    let engine = Engine::try_spawn(config(dir, fsync, snapshot_every))
        .expect("recovery from a crash-consistent store must succeed");
    let replayed = engine
        .metrics()
        .recovery_replayed_records
        .load(std::sync::atomic::Ordering::Relaxed);
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        let answered = match event {
            Event::Submit(s) => decisions.contains_key(&s.id),
            Event::Cancel { .. } => acked_cancels.contains(&idx),
        };
        if !answered {
            assert!(session.send(&engine, idx, event), "recovered engine died");
        }
    }
    drain(&engine);
    session.harvest(&mut decisions, &mut Vec::new());
    let snap = export(&engine);
    engine.shutdown();
    (decisions, snap, replayed)
}

fn assert_equivalent(seed: u64, kill: Kill, fsync: FsyncPolicy, snapshot_every: u64) {
    let events = workload(seed);
    let (want_decisions, want_snap) = run_uninterrupted(&events, fsync, snapshot_every);
    let n_submits = events
        .iter()
        .filter(|e| matches!(e, Event::Submit(_)))
        .count();
    assert_eq!(
        want_decisions.len(),
        n_submits,
        "uninterrupted run must decide every submission"
    );
    let (got_decisions, got_snap, _) = run_with_crash(&events, kill, fsync, snapshot_every);
    assert_eq!(
        got_decisions, want_decisions,
        "seed {seed} {kill:?}: decisions diverge after recovery"
    );
    assert_eq!(
        got_snap, want_snap,
        "seed {seed} {kill:?}: final engine state diverges after recovery"
    );
}

#[test]
fn clean_kills_recover_bit_identically_seed_11() {
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(11, kill, FsyncPolicy::Round, 0);
    }
}

#[test]
fn clean_kills_recover_bit_identically_seed_22() {
    // Frequent snapshots: recovery crosses snapshot + WAL-tail replay.
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(22, kill, FsyncPolicy::Round, 3);
    }
}

#[test]
fn clean_kills_recover_bit_identically_seed_33() {
    for kill in [Kill::Clean(6), Kill::Clean(30)] {
        assert_equivalent(33, kill, FsyncPolicy::Always, 5);
    }
}

#[test]
fn torn_writes_recover_bit_identically() {
    for (seed, snapshot_every) in [(11, 0), (22, 3), (33, 1)] {
        for kill in [Kill::Torn(8), Kill::Torn(20)] {
            assert_equivalent(seed, kill, FsyncPolicy::Round, snapshot_every);
        }
    }
}

#[test]
fn recovery_actually_replays_the_wal_tail() {
    // With snapshots disabled, a mid-run kill must leave rounds in the
    // WAL and recovery must replay them (guards against a recovery path
    // that silently starts fresh and "passes" because the workload is
    // re-decided from scratch).
    let events = workload(11);
    let (_, _, replayed) = run_with_crash(&events, Kill::Clean(18), FsyncPolicy::Round, 0);
    assert!(
        replayed > 0,
        "killing mid-workload must leave WAL records to replay"
    );
}

/// Engine-level crash-prefix fuzz: for a real workload's WAL, *every*
/// byte prefix must recover — arbitrary cuts are torn tails, which the
/// store truncates — and the recovered engine must never hold capacity
/// for a request the uninterrupted run did not accept.
#[test]
fn every_wal_prefix_recovers_without_phantom_capacity() {
    let events = workload(22);
    let fsync = FsyncPolicy::Round;
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, 4));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event));
    }
    drain(&engine);
    let mut decisions = BTreeMap::new();
    session.harvest(&mut decisions, &mut Vec::new());
    engine.shutdown();

    let files = dir.list().expect("list MemDir");
    let wal_name = files
        .iter()
        .filter(|f| f.starts_with("wal-"))
        .max()
        .expect("a WAL file exists")
        .clone();
    let snap = files
        .iter()
        .filter(|f| f.starts_with("snap-"))
        .max()
        .map(|name| (name.clone(), dir.contents(name).unwrap()));
    // The snapshot's history lives in the outcome log it names.
    let hist: Vec<(String, Vec<u8>)> = files
        .iter()
        .filter(|f| f.starts_with("hist-"))
        .map(|name| (name.clone(), dir.contents(name).unwrap()))
        .collect();
    let wal = dir.contents(&wal_name).unwrap();

    let mut cuts: Vec<usize> = (0..=wal.len()).step_by(11).collect();
    cuts.extend([wal.len().saturating_sub(1), wal.len()]);
    for cut in cuts {
        let prefix_dir = Arc::new(MemDir::new());
        for (name, bytes) in snap.iter().chain(&hist) {
            prefix_dir.put(name, bytes.clone());
        }
        prefix_dir.put(&wal_name, wal[..cut].to_vec());
        let engine = Engine::try_spawn(config(prefix_dir, fsync, 0))
            .unwrap_or_else(|e| panic!("prefix cut at {cut} must recover, got {e}"));
        let snap_state = export(&engine);
        for (id, _) in &snap_state.accepted {
            match decisions.get(id) {
                Some(ServerMsg::Accepted { .. }) => {}
                other => panic!(
                    "prefix cut at {cut}: recovered engine holds capacity for \
                     request {id}, which the full run decided as {other:?}"
                ),
            }
        }
        engine.kill();
    }
}

/// Run `events` uninterrupted on a fresh `MemDir`, then recover a second
/// engine from the same directory — no crash, nothing lost — and return
/// both exports: the live image, and the image the engine's own WAL
/// replays to.
fn live_and_replayed(
    config: impl Fn(Arc<MemDir>) -> EngineConfig,
    events: &[Event],
) -> (EngineSnapshot, EngineSnapshot) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone()));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event), "engine died mid-run");
    }
    drain(&engine);
    let live = export(&engine);
    engine.kill();
    let engine = Engine::try_spawn(config(dir)).expect("the engine's own store must recover");
    let replayed = export(&engine);
    engine.kill();
    (live, replayed)
}

#[test]
fn live_state_equals_its_own_wal_replay() {
    // Two submissions decided in one round; the first is cancelled while
    // it waits. The round books A and B together and then frees A, so
    // port 0 carries (0.1 + 0.2) - 0.1 on [10, 20), not 0.2. Replay must
    // walk the same float operations.
    let submit = |id, volume, max_rate| {
        Event::Submit(SubmitReq {
            id,
            ingress: 0,
            egress: 0,
            volume,
            max_rate,
            start: Some(1.0),
            deadline: None,
            class: Default::default(),
            malleable: None,
        })
    };
    let events = [
        submit(1, 1.0, 0.1),
        submit(2, 4.0, 0.2),
        Event::Cancel { id: 1 },
    ];
    let one_port = |dir: Arc<MemDir>| {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 1.0));
        cfg.step = STEP;
        cfg.store = Some(StoreConfig {
            dir,
            fsync: FsyncPolicy::Round,
            snapshot_every: 0,
        });
        cfg
    };
    let (live, replayed) = live_and_replayed(one_port, &events);
    assert_eq!(
        live.accepted,
        vec![(2, 1)],
        "B holds the second reservation id"
    );
    assert_eq!(
        replayed, live,
        "two-request round: replay diverges from live"
    );

    // Seeded workloads whose cancels race their target's round.
    for seed in [11, 22, 33] {
        let events = racing_workload(seed);
        let (live, replayed) = live_and_replayed(|dir| config(dir, FsyncPolicy::Round, 0), &events);
        assert_eq!(replayed, live, "seed {seed}: replay diverges from live");
    }
}
