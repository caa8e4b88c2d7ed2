//! GC equivalence: watermark GC must never change a decision, and a
//! store-backed engine with GC active that is killed at a round boundary
//! (or mid-write) and restarted must finish a workload with exactly the
//! decisions — and exactly the final compacted state — of a GC'd engine
//! that never crashed.
//!
//! This mirrors `recovery_equivalence.rs` (same workload, same kill
//! machinery, same resubmission protocol) with `gc_horizon` set, so the
//! WAL now carries `Gc` records interleaved with the rounds. Recovery
//! replays them at exactly the same point in the decision stream, so the
//! recovered ledger is truncated at exactly the same cut.

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
/// Two rounds of grace history behind the clock.
const HORIZON: f64 = 2.0 * STEP;

#[derive(Debug, Clone)]
enum Event {
    Submit(SubmitReq),
    Cancel { id: u64 },
}

/// Same §5.3-style workload as `recovery_equivalence.rs`: Poisson-ish
/// arrivals on a 3×3 topology, with cancels only of requests decided
/// more than two rounds ago. With `HORIZON = 2·STEP` those cancels land
/// exactly at the watermark's edge — the case the ε-regression at the
/// ledger level guards.
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

fn config(
    dir: Arc<MemDir>,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> EngineConfig {
    let mut cfg = EngineConfig::new(Topology::uniform(3, 3, 100.0));
    cfg.step = STEP;
    cfg.gc_horizon = gc_horizon;
    cfg.store = Some(StoreConfig {
        dir,
        fsync,
        snapshot_every,
    });
    cfg
}

#[derive(Default)]
struct Session {
    submits: Vec<(u64, Receiver<ServerMsg>)>,
    cancels: Vec<(usize, Receiver<ServerMsg>)>,
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

fn run_uninterrupted(
    events: &[Event],
    fsync: FsyncPolicy,
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> (BTreeMap<u64, ServerMsg>, EngineSnapshot) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, snapshot_every, gc_horizon));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event), "engine died mid-run");
    }
    drain(&engine);
    let mut decisions = BTreeMap::new();
    session.harvest(&mut decisions, &mut Vec::new());
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
    (decisions, snap)
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
) -> (BTreeMap<u64, ServerMsg>, EngineSnapshot, u64) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, snapshot_every, Some(HORIZON)));
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
            // next append — a round record *or* a Gc record — lands torn.
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

    let mut decisions = BTreeMap::new();
    let mut acked_cancels = Vec::new();
    session.harvest(&mut decisions, &mut acked_cancels);

    let engine = Engine::try_spawn(config(dir, fsync, snapshot_every, Some(HORIZON)))
        .expect("recovery from a crash-consistent GC'd store must succeed");
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
    let (want_decisions, want_snap) =
        run_uninterrupted(&events, fsync, snapshot_every, Some(HORIZON));
    assert!(
        want_snap.ledger.watermark.is_some(),
        "seed {seed}: the workload must be long enough for GC to engage"
    );
    let (got_decisions, got_snap, _) = run_with_crash(&events, kill, fsync, snapshot_every);
    assert_eq!(
        got_decisions, want_decisions,
        "seed {seed} {kill:?}: decisions diverge after recovery with GC"
    );
    assert_eq!(
        got_snap, want_snap,
        "seed {seed} {kill:?}: final compacted state diverges after recovery"
    );
}

/// The tentpole invariant, end to end: turning GC on changes no decision
/// and no post-watermark breakpoint. The GC'd profiles, and the no-GC
/// profiles truncated at the same watermark, must be bit-identical.
#[test]
fn gc_changes_no_decision_and_no_post_watermark_breakpoint() {
    for seed in [11, 22, 33] {
        let events = workload(seed);
        let (plain_decisions, plain_snap) = run_uninterrupted(&events, FsyncPolicy::Round, 0, None);
        let (gc_decisions, gc_snap) =
            run_uninterrupted(&events, FsyncPolicy::Round, 0, Some(HORIZON));
        assert_eq!(
            gc_decisions, plain_decisions,
            "seed {seed}: GC changed a decision"
        );
        assert_eq!(plain_snap.ledger.watermark, None);
        let w = gc_snap.ledger.watermark.unwrap_or_else(|| {
            panic!("seed {seed}: the workload must be long enough for GC to engage")
        });

        // `truncate_before` composes: re-truncating the GC'd profile at
        // the watermark and truncating the full-history profile at the
        // watermark must meet at identical breakpoints.
        let pairs = gc_snap
            .ledger
            .ingress
            .iter()
            .zip(&plain_snap.ledger.ingress)
            .chain(gc_snap.ledger.egress.iter().zip(&plain_snap.ledger.egress));
        for (i, (gcd, plain)) in pairs.enumerate() {
            let mut gcd = gcd.clone();
            let mut plain = plain.clone();
            gcd.truncate_before(w);
            plain.truncate_before(w);
            assert_eq!(
                gcd, plain,
                "seed {seed} profile {i}: post-watermark breakpoints diverge"
            );
        }

        // The engine's per-round expiry sweep already releases expired
        // charge bit-exactly (levels snap back to base), so in a drained
        // engine the watermark truncation has nothing left to cut and
        // the two images carry the same breakpoints — the watermark's
        // job here is the *durable, replayable* bound, not extra
        // dropping. Equality (not `<=`) is asserted on purpose: if GC'd
        // profiles ever carried fewer breakpoints than eagerly-swept
        // ones, truncation would have cut into live charge.
        let count = |snap: &EngineSnapshot| -> usize {
            snap.ledger
                .ingress
                .iter()
                .chain(&snap.ledger.egress)
                .map(|p| p.breakpoints().len())
                .sum()
        };
        assert_eq!(
            count(&gc_snap),
            count(&plain_snap),
            "seed {seed}: GC'd and eagerly-swept profiles must agree at quiescence"
        );
    }
}

#[test]
fn clean_kills_recover_bit_identically_with_gc() {
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(11, kill, FsyncPolicy::Round, 0);
    }
}

#[test]
fn clean_kills_recover_bit_identically_with_gc_and_snapshots() {
    // Frequent snapshots: recovery restores a *compacted* snapshot, then
    // replays a WAL tail that itself carries Gc records.
    for kill in [Kill::Clean(9), Kill::Clean(18), Kill::Clean(27)] {
        assert_equivalent(22, kill, FsyncPolicy::Round, 3);
    }
}

#[test]
fn torn_writes_recover_bit_identically_with_gc() {
    for (seed, snapshot_every) in [(11, 0), (22, 3), (33, 1)] {
        for kill in [Kill::Torn(8), Kill::Torn(20)] {
            assert_equivalent(seed, kill, FsyncPolicy::Round, snapshot_every);
        }
    }
}

#[test]
fn recovery_replays_gc_records_from_the_wal_tail() {
    // With snapshots disabled the WAL holds every Gc record of the run;
    // a mid-run kill must leave records to replay, and the recovered
    // engine must report a watermark (proof the Gc arm actually ran).
    let events = workload(11);
    let (_, snap, replayed) = run_with_crash(&events, Kill::Clean(18), FsyncPolicy::Round, 0);
    assert!(replayed > 0, "mid-workload kill must leave a WAL tail");
    assert!(
        snap.ledger.watermark.is_some(),
        "recovered engine must carry the replayed watermark"
    );
}

/// Crash-prefix fuzz with GC active: every byte prefix of a GC'd WAL
/// must recover (arbitrary cuts are torn tails), and the recovered
/// engine must never hold capacity for a request the uninterrupted run
/// did not accept — even when the cut severs a Gc record from the round
/// it followed.
#[test]
fn every_gcd_wal_prefix_recovers_without_phantom_capacity() {
    let events = workload(22);
    let fsync = FsyncPolicy::Round;
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), fsync, 4, Some(HORIZON)));
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
        let engine = Engine::try_spawn(config(prefix_dir, fsync, 0, Some(HORIZON)))
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
