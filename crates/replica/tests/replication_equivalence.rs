//! Replication equivalence: kill the primary at any point — a round
//! boundary, inside a torn record, under a hostile link — promote the
//! follower, finish the workload against it, and the merged outcome must
//! be bit-identical to a run where the primary never died: same
//! decisions with the same `bw`/`start`/`finish` on every acceptance,
//! same rejection reasons, same final engine snapshot, and a follower
//! store that is byte-for-byte the primary's durable WAL prefix.
//!
//! The failover client protocol extends the recovery one: replies the
//! primary sent before dying are durable (log-before-reply); everything
//! unanswered is resubmitted, in original order, to the promoted
//! follower. Promotion happens after the replication stream has drained,
//! so the follower resumes from the exact round the primary last logged.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver};
use gridband_net::Topology;
use gridband_replica::{
    encode_frame, FaultInjector, FaultPlan, FollowerConfig, FollowerCore, Replica, ReplicaConfig,
    ShipperConfig, ShipperCore, WalShipper,
};
use gridband_serve::engine::Command;
use gridband_serve::protocol::{decode_server, encode_client, ReqState};
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, EngineState, FsyncPolicy, MemDir, MetricsRegistry,
    RejectReason, Role, ServerMsg, StoreConfig, SubmitReq,
};
use gridband_store::wal::{frame_record, parse_snapshot, scan_records, MAGIC_SNAP, MAGIC_WAL};
use gridband_store::{Dir, EngineSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

const STEP: f64 = 10.0;
const EVENTS: usize = 36;
const HISTORY: usize = 1 << 20;

fn topology() -> Topology {
    Topology::uniform(3, 3, 100.0)
}

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

/// The flex-recovery suite's workload: Poisson-ish arrivals on a 3×3
/// topology where every third submission is a long-lived malleable
/// request, amends renegotiate malleable reservations that are decided
/// and still live at their deciding round, and cancels only touch
/// requests decided long ago. Segmented grants and `Amend` swaps land
/// in the shipped WAL stream, so failover replays them too.
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

fn config(dir: Arc<MemDir>, snapshot_every: u64, gc_horizon: Option<f64>) -> EngineConfig {
    let mut cfg = EngineConfig::new(topology());
    cfg.step = STEP;
    cfg.history_capacity = HISTORY;
    cfg.malleable = true;
    cfg.gc_horizon = gc_horizon;
    cfg.store = Some(StoreConfig {
        dir,
        fsync: FsyncPolicy::Round,
        snapshot_every,
    });
    cfg
}

fn shipper_cfg(dir: Arc<MemDir>) -> ShipperConfig {
    ShipperConfig {
        dir,
        topology: topology(),
        step: STEP,
        history_capacity: HISTORY,
        beacon_every: 1,
    }
}

fn follower_cfg(dir: Arc<MemDir>) -> FollowerConfig {
    FollowerConfig {
        dir,
        topology: topology(),
        step: STEP,
        history_capacity: HISTORY,
        fsync: FsyncPolicy::Round,
    }
}

/// Reply channels of one client session: submit decisions keyed by
/// request id, cancel acks and amend outcomes keyed by event index.
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

fn run_uninterrupted(
    events: &[Event],
    snapshot_every: u64,
    gc_horizon: Option<f64>,
) -> (
    BTreeMap<u64, ServerMsg>,
    BTreeMap<usize, ServerMsg>,
    EngineSnapshot,
) {
    let dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(dir.clone(), snapshot_every, gc_horizon));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event), "engine died mid-run");
    }
    drain(&engine);
    let mut decisions = BTreeMap::new();
    let mut amend_replies = BTreeMap::new();
    session.harvest(&mut decisions, &mut Vec::new(), &mut amend_replies);
    let snap = export(&engine);
    engine.shutdown();
    // Live ≡ follower: a standby opened on the primary's own store holds
    // the live image.
    let follower = FollowerCore::open(follower_cfg(dir), Arc::new(MetricsRegistry::new()))
        .expect("a follower opens the primary's store");
    assert_eq!(
        follower.export(),
        snap,
        "the follower's replay diverges from the live engine"
    );
    (decisions, amend_replies, snap)
}

/// How the primary dies.
#[derive(Clone, Copy, Debug)]
enum Kill {
    /// `Engine::kill()` after this many events: every decided round is
    /// committed, the crash lands on a record boundary.
    Clean(usize),
    /// After this many events the store device accepts only a few more
    /// bytes: the next append tears mid-record.
    Torn(usize),
}

/// Drive the sans-IO cores until the follower has everything the
/// primary's store durably holds, pushing every primary→follower frame
/// through the fault injector. Returns the follower's metrics (the
/// shipper's are folded into `shipper_metrics`).
fn replicate(
    primary_dir: Arc<MemDir>,
    follower_dir: Arc<MemDir>,
    plan: FaultPlan,
) -> (Arc<MetricsRegistry>, Arc<MetricsRegistry>) {
    let sm = Arc::new(MetricsRegistry::new());
    let fm = Arc::new(MetricsRegistry::new());
    let mut shipper = ShipperCore::new(shipper_cfg(primary_dir), sm.clone());
    let mut follower = FollowerCore::open(follower_cfg(follower_dir), fm.clone())
        .expect("follower opens its local store");
    let mut inj = FaultInjector::new(plan);
    follower.reset_session();

    let mut to_follower: VecDeque<Vec<u8>> = VecDeque::new();
    for f in inj.push(&encode_frame(&shipper.hello())) {
        to_follower.push_back(f);
    }
    let mut quiet = 0u32;
    for _ in 0..10_000 {
        // Deliver primary → follower (the faulty direction).
        let mut to_shipper = Vec::new();
        while let Some(frame) = to_follower.pop_front() {
            to_shipper.extend(
                follower
                    .handle_frame(&frame)
                    .expect("follower must survive the fault schedule"),
            );
        }
        // Deliver follower → primary (reliable) and poll the tail.
        let mut produced = Vec::new();
        for reply in &to_shipper {
            produced.extend(
                shipper
                    .handle_frame(&encode_frame(reply))
                    .expect("shipper must survive follower feedback"),
            );
        }
        produced.extend(shipper.pump().expect("primary store is intact"));
        if produced.is_empty() {
            // Nothing in flight: release any reorder-held frame, then
            // probe with a heartbeat (which is how real gaps surface).
            for f in inj.flush() {
                to_follower.push_back(f);
            }
            if to_follower.is_empty() {
                if shipper.subscribed() && shipper.position() == Some(follower.cursor()) {
                    // The follower's live-reservation gauge counts every
                    // plan its ledger holds, rigid and segmented alike.
                    let ledger = follower.export().ledger;
                    let plans = ledger.live.len() + ledger.live_seg.map_or(0, |s| s.len());
                    assert_eq!(follower.live_count(), plans as u64);
                    return (sm, fm);
                }
                for f in inj.push(&encode_frame(&shipper.tick())) {
                    to_follower.push_back(f);
                }
                quiet += 1;
                assert!(quiet < 2_000, "replication failed to converge");
            }
        } else {
            quiet = 0;
            for msg in &produced {
                for f in inj.push(&encode_frame(msg)) {
                    to_follower.push_back(f);
                }
            }
        }
    }
    panic!("replication did not converge within the iteration bound");
}

/// The follower's store must be byte-for-byte the primary's durable
/// prefix: same latest generation, same snapshot bytes, and a WAL equal
/// to the primary's valid prefix (the primary may additionally hold a
/// torn tail that was never durable).
fn assert_store_mirrors(primary: &MemDir, follower: &MemDir, ctx: &str) {
    let latest = |d: &MemDir, prefix: &str| -> Option<String> {
        d.list()
            .expect("list dir")
            .into_iter()
            .filter(|f| f.starts_with(prefix))
            .max()
    };
    let p_wal = latest(primary, "wal-");
    let f_wal = latest(follower, "wal-");
    assert_eq!(p_wal, f_wal, "{ctx}: WAL generations differ");
    let p_snap = latest(primary, "snap-");
    let f_snap = latest(follower, "snap-");
    assert_eq!(p_snap, f_snap, "{ctx}: snapshot generations differ");
    if let (Some(ps), Some(fs)) = (&p_snap, &f_snap) {
        // The primary's snapshot names its outcome log; the follower's
        // is the same state with the history inline, as shipped.
        let payload = parse_snapshot(ps, &primary.contents(ps).unwrap()).unwrap();
        let gen = ps["snap-".len()..].parse().unwrap();
        let (image, _) = EngineState::from_log(
            topology(),
            STEP,
            HISTORY,
            Some(primary),
            gen,
            Some(&payload),
            &[],
        )
        .expect("the primary's snapshot and outcome log rebuild");
        let mut inline = MAGIC_SNAP.to_vec();
        inline.extend(frame_record(&image.export().encode()));
        assert_eq!(
            Some(inline),
            follower.contents(fs),
            "{ctx}: snapshot bytes differ"
        );
    }
    let (Some(pw), Some(fw)) = (&p_wal, &f_wal) else {
        return;
    };
    let p_bytes = primary.contents(pw).expect("primary WAL readable");
    let f_bytes = follower.contents(fw).expect("follower WAL readable");
    let scan = scan_records(pw, &p_bytes, MAGIC_WAL.len()).expect("primary WAL scans");
    assert_eq!(
        f_bytes.len() as u64,
        scan.valid_len,
        "{ctx}: follower WAL length is not the primary's valid prefix"
    );
    assert_eq!(
        f_bytes[..],
        p_bytes[..scan.valid_len as usize],
        "{ctx}: follower WAL bytes diverge from the primary's"
    );
}

/// The full drill: run a prefix on the primary, kill it per `kill`,
/// replicate the surviving store to a follower across `plan`, promote
/// the follower, finish the workload against it, and compare everything
/// against the uninterrupted run.
fn assert_failover_equivalent(seed: u64, kill: Kill, snapshot_every: u64, plan: FaultPlan) {
    assert_failover_equivalent_gc(seed, kill, snapshot_every, plan, None)
}

/// Like [`assert_failover_equivalent`], with the primary (and the
/// reference run, and the promoted follower) GC-ing its ledger behind a
/// watermark. The `WalRecord::Gc` records ship like any other record;
/// both standby mirrors — the shipper's beacon mirror and the
/// follower's — replay them, so a compaction the follower missed would
/// fire a divergence beacon long before the final snapshot comparison.
fn assert_failover_equivalent_gc(
    seed: u64,
    kill: Kill,
    snapshot_every: u64,
    plan: FaultPlan,
    gc_horizon: Option<f64>,
) {
    let ctx = format!("seed {seed} {kill:?} snap_every {snapshot_every} gc {gc_horizon:?}");
    let events = workload(seed);
    let (want_decisions, want_amends, want_snap) =
        run_uninterrupted(&events, snapshot_every, gc_horizon);
    if gc_horizon.is_some() {
        assert!(
            want_snap.ledger.watermark.is_some(),
            "{ctx}: the GC'd reference run never advanced a watermark — \
             the scenario exercises nothing"
        );
    }
    // The comparison must not be vacuous: segmented grants and amend
    // outcomes have to flow through the shipped stream.
    assert!(
        want_decisions
            .values()
            .any(|d| matches!(d, ServerMsg::AcceptedSegments { .. })),
        "{ctx}: no malleable submission was granted — workload too thin"
    );
    assert!(!want_amends.is_empty(), "{ctx}: workload queued no amends");

    // Phase 1: the primary runs a prefix and dies.
    let primary_dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(primary_dir.clone(), snapshot_every, gc_horizon));
    let mut session = Session::default();
    match kill {
        Kill::Clean(after) => {
            for (idx, event) in events.iter().enumerate().take(after) {
                assert!(session.send(&engine, idx, event), "primary died too early");
            }
        }
        Kill::Torn(after) => {
            for (idx, event) in events.iter().enumerate().take(after) {
                assert!(session.send(&engine, idx, event), "primary died too early");
            }
            primary_dir.set_write_budget(12);
            for (idx, event) in events.iter().enumerate().skip(after) {
                if !session.send(&engine, idx, event) {
                    break;
                }
            }
        }
    }
    engine.kill();
    primary_dir.clear_write_budget();
    let mut decisions = BTreeMap::new();
    let mut acked_cancels = Vec::new();
    let mut amend_replies = BTreeMap::new();
    session.harvest(&mut decisions, &mut acked_cancels, &mut amend_replies);

    // Phase 2: stream the surviving store to a fresh follower across the
    // fault plan, to full sync.
    let follower_dir = Arc::new(MemDir::new());
    let (sm, fm) = replicate(primary_dir.clone(), follower_dir.clone(), plan);
    assert_eq!(
        fm.repl_divergence.load(Ordering::Relaxed),
        0,
        "{ctx}: divergence beacons fired"
    );
    let shipped = sm.repl_records_shipped.load(Ordering::Relaxed);
    if shipped > 0 {
        assert!(
            fm.repl_beacons_checked.load(Ordering::Relaxed) > 0,
            "{ctx}: records were shipped but no beacon was ever checked"
        );
    }
    assert_store_mirrors(&primary_dir, &follower_dir, &ctx);

    // Phase 3: promote — recover an engine over the follower's store —
    // and finish the workload via the resubmission protocol.
    let mut cfg = config(follower_dir, snapshot_every, gc_horizon);
    cfg.role = Role::Primary;
    let engine =
        Engine::try_spawn(cfg).expect("promoted follower must recover from its mirrored store");
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        let answered = match event {
            Event::Submit(s) => decisions.contains_key(&s.id),
            Event::Cancel { .. } => acked_cancels.contains(&idx),
            Event::Amend { .. } => amend_replies.contains_key(&idx),
        };
        if !answered {
            assert!(session.send(&engine, idx, event), "promoted engine died");
        }
    }
    drain(&engine);
    session.harvest(&mut decisions, &mut Vec::new(), &mut amend_replies);
    let got_snap = export(&engine);
    engine.shutdown();

    assert_eq!(
        decisions, want_decisions,
        "{ctx}: failover decisions diverge from the uninterrupted run"
    );
    assert_eq!(
        amend_replies, want_amends,
        "{ctx}: failover amend outcomes diverge from the uninterrupted run"
    );
    assert_eq!(
        got_snap, want_snap,
        "{ctx}: final engine state diverges after failover"
    );
}

// ---------------------------------------------------------------------
// Clean kills at every event boundary, three seeds.
// ---------------------------------------------------------------------

#[test]
fn every_kill_point_fails_over_bit_identically_seed_11() {
    for k in 0..=EVENTS {
        assert_failover_equivalent(11, Kill::Clean(k), 0, FaultPlan::default());
    }
}

#[test]
fn every_kill_point_fails_over_bit_identically_seed_22() {
    // Frequent snapshots: failover crosses snapshot install + tail replay.
    for k in 0..=EVENTS {
        assert_failover_equivalent(22, Kill::Clean(k), 3, FaultPlan::default());
    }
}

#[test]
fn every_kill_point_fails_over_bit_identically_seed_33() {
    for k in 0..=EVENTS {
        assert_failover_equivalent(33, Kill::Clean(k), 5, FaultPlan::default());
    }
}

// ---------------------------------------------------------------------
// Torn final records: the tear is never shipped, the follower holds the
// valid prefix, and failover still matches the uninterrupted run.
// ---------------------------------------------------------------------

#[test]
fn torn_primary_tails_fail_over_bit_identically() {
    for (seed, snapshot_every) in [(11u64, 0u64), (22, 3), (33, 1)] {
        for k in [4, 9, 14, 19, 24, 29, 34] {
            assert_failover_equivalent(seed, Kill::Torn(k), snapshot_every, FaultPlan::default());
        }
    }
}

// ---------------------------------------------------------------------
// Watermark GC on the primary: `WalRecord::Gc` ships like any other
// record, both standby mirrors replay it, and the follower lands on the
// same compacted store bytes — snapshot and WAL — as the primary.
// `assert_store_mirrors` pins the bytes; the zero-divergence check pins
// the replayed (compacted) state at every beacon along the way.
// ---------------------------------------------------------------------

/// Two rounds behind `now`: old enough that truncation only ever sees
/// fully-expired segments, young enough that the 36-event workload
/// advances the watermark many times.
const GC_HORIZON: f64 = 2.0 * STEP;

#[test]
fn gc_watermark_records_fail_over_bit_identically() {
    for k in 0..=EVENTS {
        assert_failover_equivalent_gc(
            11,
            Kill::Clean(k),
            0,
            FaultPlan::default(),
            Some(GC_HORIZON),
        );
    }
}

#[test]
fn gc_watermark_records_fail_over_bit_identically_with_snapshots() {
    // Frequent snapshots: the follower receives *compacted* snapshot
    // bytes (expired reservations dropped, profiles truncated) plus a
    // WAL tail that still carries Gc records.
    for k in 0..=EVENTS {
        assert_failover_equivalent_gc(
            22,
            Kill::Clean(k),
            3,
            FaultPlan::default(),
            Some(GC_HORIZON),
        );
    }
}

#[test]
fn gc_watermark_records_survive_torn_tails_and_faulty_links() {
    for k in [9, 19, 29] {
        assert_failover_equivalent_gc(33, Kill::Torn(k), 3, FaultPlan::default(), Some(GC_HORIZON));
    }
    let hostile = FaultPlan {
        drop_every: 5,
        dup_every: 7,
        reorder_every: 11,
        truncate_every: 13,
        partition: Some((20, 30)),
    };
    for k in [12, 27, EVENTS] {
        assert_failover_equivalent_gc(44, Kill::Clean(k), 3, hostile, Some(GC_HORIZON));
    }
}

// ---------------------------------------------------------------------
// Hostile links: deterministic drop / duplicate / reorder / truncate /
// partition schedules. Lost frames are re-requested, duplicates and
// stale seqs discarded, and the outcome still bit-identical.
// ---------------------------------------------------------------------

fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop",
            FaultPlan {
                drop_every: 3,
                ..FaultPlan::default()
            },
        ),
        (
            "dup",
            FaultPlan {
                dup_every: 4,
                ..FaultPlan::default()
            },
        ),
        (
            "reorder",
            FaultPlan {
                reorder_every: 5,
                ..FaultPlan::default()
            },
        ),
        (
            "truncate",
            FaultPlan {
                truncate_every: 7,
                ..FaultPlan::default()
            },
        ),
        (
            "partition",
            FaultPlan {
                partition: Some((10, 25)),
                ..FaultPlan::default()
            },
        ),
        (
            "combined",
            FaultPlan {
                drop_every: 5,
                dup_every: 7,
                reorder_every: 11,
                truncate_every: 13,
                partition: Some((20, 30)),
            },
        ),
    ]
}

#[test]
fn faulty_links_still_fail_over_bit_identically() {
    for (name, plan) in fault_plans() {
        for k in [12, 27, EVENTS] {
            eprintln!("fault plan {name}, kill at {k}");
            assert_failover_equivalent(44, Kill::Clean(k), 3, plan);
        }
    }
}

#[test]
fn fault_schedules_actually_engage() {
    // Guard against a fault injector that silently stopped injecting:
    // the duplicate plan must produce discarded frames, the truncate
    // plan damaged frames, and the drop plan resync round-trips.
    let events = workload(44);
    let primary_dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(primary_dir.clone(), 0, None));
    let mut session = Session::default();
    for (idx, event) in events.iter().enumerate() {
        assert!(session.send(&engine, idx, event));
    }
    drain(&engine);
    engine.kill();

    let dup = FaultPlan {
        dup_every: 2,
        ..FaultPlan::default()
    };
    let (_, fm) = replicate(primary_dir.clone(), Arc::new(MemDir::new()), dup);
    assert!(
        fm.repl_frames_discarded.load(Ordering::Relaxed) > 0,
        "duplicated frames must be discarded by the seq guard"
    );

    // Odd periods: an even period with `beacon_every: 1` aligns the
    // fault parity with the strict record/beacon alternation so that
    // every record (and never a beacon) is hit — a zero-measure
    // adversary no retransmission protocol without randomized timing can
    // beat. Real links mix frame kinds; the acceptance schedules (3, 4,
    // 5, 7, partitions) are covered above.
    let truncate = FaultPlan {
        truncate_every: 3,
        ..FaultPlan::default()
    };
    let (_, fm) = replicate(primary_dir.clone(), Arc::new(MemDir::new()), truncate);
    assert!(
        fm.repl_frames_damaged.load(Ordering::Relaxed) > 0,
        "truncated frames must be detected as damage"
    );

    let drop = FaultPlan {
        drop_every: 3,
        ..FaultPlan::default()
    };
    let (_, fm) = replicate(primary_dir, Arc::new(MemDir::new()), drop);
    assert!(
        fm.repl_resyncs.load(Ordering::Relaxed) > 0,
        "dropped records must force resync round-trips"
    );
}

// ---------------------------------------------------------------------
// The threaded daemons over real sockets: WalShipper → Replica, live
// catch-up, read-only service while following, promotion over the wire,
// and a finished workload identical to the uninterrupted run.
// ---------------------------------------------------------------------

/// One-line client protocol helper over a TCP stream.
struct WireClient {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl WireClient {
    fn connect(addr: std::net::SocketAddr) -> WireClient {
        let stream = std::net::TcpStream::connect(addr).expect("connect to replica");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let reader = std::io::BufReader::new(stream.try_clone().unwrap());
        WireClient { stream, reader }
    }

    fn send(&mut self, msg: &ClientMsg) {
        use std::io::Write;
        let mut line = encode_client(msg);
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .expect("write request");
    }

    fn recv(&mut self) -> ServerMsg {
        use std::io::BufRead;
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        decode_server(line.trim()).expect("parse reply")
    }
}

#[test]
fn tcp_failover_promotes_and_finishes_bit_identically() {
    let events = workload(55);
    let (want_decisions, want_amends, want_snap) = run_uninterrupted(&events, 0, None);

    // The primary: a store-backed engine plus a shipper.
    let primary_dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(primary_dir.clone(), 0, None));

    // The follower daemon with both listeners on ephemeral ports.
    let follower_dir = Arc::new(MemDir::new());
    let replica = Replica::bind(
        ReplicaConfig {
            engine: config(follower_dir.clone(), 0, None),
            promote_after: None,
        },
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .expect("replica binds");
    let client_addr = replica.client_addr().expect("client listener requested");

    let shipper = WalShipper::spawn(
        {
            let mut cfg = shipper_cfg(primary_dir.clone());
            cfg.beacon_every = 4;
            cfg
        },
        replica.repl_addr().to_string(),
        engine.metrics(),
    );

    // Run a prefix on the primary and wait for the follower to catch up.
    let mut session = Session::default();
    let prefix = 24;
    for (idx, event) in events.iter().enumerate().take(prefix) {
        assert!(session.send(&engine, idx, event), "primary died too early");
    }
    let metrics = engine.metrics();
    let deadline = Instant::now() + Duration::from_secs(20);
    while metrics.repl_synced.load(Ordering::Relaxed) != 1 {
        assert!(
            Instant::now() < deadline,
            "follower never caught up over TCP"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Read-only service while following.
    {
        let mut client = WireClient::connect(client_addr);
        client.send(&ClientMsg::Stats);
        match client.recv() {
            ServerMsg::Stats(stats) => {
                assert_eq!(stats.role, "follower");
                assert!(stats.repl_records_applied > 0, "standby applied records");
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        client.send(&ClientMsg::Submit(SubmitReq {
            id: 9_999,
            ingress: 0,
            egress: 1,
            volume: 10.0,
            max_rate: 10.0,
            start: None,
            deadline: None,
            class: Default::default(),
            malleable: None,
        }));
        match client.recv() {
            ServerMsg::Rejected { id, reason, .. } => {
                assert_eq!(id, 9_999);
                assert_eq!(reason, RejectReason::NotPrimary);
            }
            other => panic!("expected NotPrimary rejection, got {other:?}"),
        }
    }

    // Barrier: a Stats round-trip through the same command queue proves
    // every prefix event was *processed* (not necessarily decided)
    // before the kill. That keeps reply routing after promotion
    // unambiguous — an unanswered amend's target submission was decided
    // when the amend was queued, so its decision reply predates the
    // kill and only the amend is re-sent under that id.
    {
        let (tx, rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: ClientMsg::Stats,
                reply: tx.into(),
            })
            .expect("engine alive for stats barrier");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("stats barrier");
    }

    // Kill the primary mid-workload.
    engine.kill();
    shipper.shutdown();
    let mut decisions = BTreeMap::new();
    let mut acked_cancels = Vec::new();
    let mut amend_replies = BTreeMap::new();
    session.harvest(&mut decisions, &mut acked_cancels, &mut amend_replies);

    // Promote over the wire (twice: the second must be idempotent), then
    // finish the workload through the promoted daemon.
    let mut client = WireClient::connect(client_addr);
    client.send(&ClientMsg::Promote);
    let rounds = match client.recv() {
        ServerMsg::Promoted { rounds } => rounds,
        other => panic!("expected Promoted, got {other:?}"),
    };
    client.send(&ClientMsg::Promote);
    match client.recv() {
        ServerMsg::Promoted { rounds: again } => assert_eq!(again, rounds),
        other => panic!("expected idempotent Promoted, got {other:?}"),
    }

    let mut outstanding = 0usize;
    // In-flight requests by reservation id. The same id can be open as
    // a submission *and* an amend (the kill landed before the target's
    // round, so the loop below re-drives both, in original order); the
    // reply loop routes the id's two replies by the uninterrupted run's
    // expected outcomes — a wrong route still fails the final equality
    // asserts.
    let mut open_submits: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut amend_idx_by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (idx, event) in events.iter().enumerate() {
        match event {
            Event::Submit(s) => {
                if !decisions.contains_key(&s.id) {
                    client.send(&ClientMsg::Submit(s.clone()));
                    open_submits.insert(s.id);
                    outstanding += 1;
                }
            }
            Event::Cancel { id } => {
                if !acked_cancels.contains(&idx) {
                    client.send(&ClientMsg::Cancel { id: *id });
                    outstanding += 1;
                }
            }
            Event::Amend {
                id,
                volume,
                max_rate,
                deadline,
            } => {
                if !amend_replies.contains_key(&idx) {
                    client.send(&ClientMsg::Amend {
                        id: *id,
                        volume: *volume,
                        max_rate: *max_rate,
                        deadline: *deadline,
                    });
                    amend_idx_by_id.insert(*id, idx);
                    outstanding += 1;
                }
            }
        }
    }
    client.send(&ClientMsg::Drain);
    outstanding += 1;
    for _ in 0..outstanding {
        match client.recv() {
            msg @ (ServerMsg::Accepted { .. }
            | ServerMsg::AcceptedSegments { .. }
            | ServerMsg::Rejected { .. }) => {
                let id = match &msg {
                    ServerMsg::Accepted { id, .. }
                    | ServerMsg::AcceptedSegments { id, .. }
                    | ServerMsg::Rejected { id, .. } => *id,
                    _ => unreachable!(),
                };
                let sub_open = open_submits.contains(&id) && !decisions.contains_key(&id);
                let amend_open = amend_idx_by_id
                    .get(&id)
                    .is_some_and(|idx| !amend_replies.contains_key(idx));
                let route_to_amend = match (sub_open, amend_open) {
                    (true, false) => false,
                    (false, true) => true,
                    (true, true) => {
                        let idx = amend_idx_by_id[&id];
                        want_decisions.get(&id) != Some(&msg) && want_amends.get(&idx) == Some(&msg)
                    }
                    (false, false) => panic!("reply for {id}, which has nothing in flight"),
                };
                if route_to_amend {
                    let idx = amend_idx_by_id[&id];
                    amend_replies.insert(idx, msg);
                } else {
                    decisions.insert(id, msg);
                }
            }
            ServerMsg::CancelResult { .. } | ServerMsg::Draining { .. } => {}
            other => panic!("unexpected reply finishing the workload: {other:?}"),
        }
    }
    drop(client);
    assert_eq!(
        decisions, want_decisions,
        "TCP failover: decisions diverge from the uninterrupted run"
    );
    assert_eq!(
        amend_replies, want_amends,
        "TCP failover: amend outcomes diverge from the uninterrupted run"
    );

    replica.shutdown();
    let engine = Engine::try_spawn(config(follower_dir, 0, None))
        .expect("the promoted store must recover once more");
    let got_snap = export(&engine);
    engine.shutdown();
    assert_eq!(
        got_snap, want_snap,
        "TCP failover: final engine state diverges from the uninterrupted run"
    );
}

#[test]
fn auto_promotion_fires_after_primary_silence() {
    let follower_dir = Arc::new(MemDir::new());
    let replica = Replica::bind(
        ReplicaConfig {
            engine: config(follower_dir, 0, None),
            promote_after: Some(Duration::from_millis(200)),
        },
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .expect("replica binds");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !replica.is_promoted() {
        assert!(Instant::now() < deadline, "auto-promotion never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The promoted daemon accepts submissions.
    let mut client = WireClient::connect(replica.client_addr().unwrap());
    client.send(&ClientMsg::Submit(SubmitReq {
        id: 1,
        ingress: 0,
        egress: 1,
        volume: 10.0,
        max_rate: 50.0,
        start: None,
        deadline: None,
        class: Default::default(),
        malleable: None,
    }));
    client.send(&ClientMsg::Drain);
    let mut decided = false;
    for _ in 0..2 {
        match client.recv() {
            ServerMsg::Accepted { id: 1, .. } => decided = true,
            ServerMsg::Rejected { id: 1, .. } => decided = true,
            ServerMsg::Draining { .. } => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(
        decided,
        "submission to the auto-promoted daemon was decided"
    );
    replica.shutdown();
}

// ---------------------------------------------------------------------
// The decided-request history across a failover: a snapshot leaves it
// out and names the primary's outcome log, the shipper sends it inline,
// and the promoted follower starts an outcome log of its own.
// ---------------------------------------------------------------------

/// A synchronous client of an engine on a virtual clock.
struct EngineClient {
    engine: Engine,
    /// Replies nobody waits for, kept so none is sent into a closed
    /// channel.
    parked: Vec<Receiver<ServerMsg>>,
    clock: f64,
    filler: u64,
}

impl EngineClient {
    fn new(engine: Engine) -> EngineClient {
        EngineClient {
            engine,
            parked: Vec::new(),
            clock: 0.0,
            filler: 1_000_000,
        }
    }

    fn send(&mut self, msg: ClientMsg) -> Receiver<ServerMsg> {
        let (tx, rx) = channel::unbounded();
        self.engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.into(),
            })
            .expect("engine alive");
        rx
    }

    fn call(&mut self, msg: ClientMsg) -> ServerMsg {
        (self.send(msg).recv_timeout(Duration::from_secs(10))).expect("a reply")
    }

    fn submit(&mut self, s: SubmitReq) {
        let rx = self.send(ClientMsg::Submit(s));
        self.parked.push(rx);
    }

    /// Fire the next round with a small filler submission.
    fn tick(&mut self) {
        self.clock += STEP;
        self.filler += 1;
        self.submit(submit_at(self.filler, (0, 0), 1.0, self.clock));
        self.call(ClientMsg::Stats);
    }

    fn until_snapshot(&mut self) {
        let written =
            |d: &EngineClient| (d.engine.metrics().snapshots_written).load(Ordering::Relaxed);
        let before = written(self);
        while written(self) == before {
            self.tick();
        }
    }

    fn query(&mut self, ids: &[u64]) -> BTreeMap<u64, ServerMsg> {
        (ids.iter())
            .map(|&id| (id, self.call(ClientMsg::Query { id })))
            .collect()
    }
}

fn submit_at(id: u64, route: (u32, u32), volume: f64, start: f64) -> SubmitReq {
    SubmitReq {
        id,
        ingress: route.0,
        egress: route.1,
        volume,
        max_rate: 10.0,
        start: Some(start),
        deadline: Some(start + 1_000.0),
        class: Default::default(),
        malleable: None,
    }
}

#[test]
fn history_changes_survive_promotion_and_a_restart() {
    let primary_dir = Arc::new(MemDir::new());
    let mut p = EngineClient::new(Engine::spawn(config(primary_dir.clone(), 2, None)));
    // Ids 1–4 change before the primary's last snapshot, 11–14 after it.
    for base in [0, 10] {
        p.submit(submit_at(base + 1, (0, 1), 4_000.0, 1.0));
        p.submit(SubmitReq {
            malleable: Some(true),
            max_rate: 20.0,
            ..submit_at(base + 2, (1, 1), 8_000.0, 1.0)
        });
        p.submit(submit_at(base + 3, (1, 0), 4_000.0, 1.0));
    }
    p.until_snapshot();
    for base in [0, 10] {
        if base == 10 {
            p.until_snapshot();
        }
        for id in [base + 1, base + 2] {
            let freed = p.call(ClientMsg::Cancel { id });
            assert!(matches!(freed, ServerMsg::CancelResult { freed: true, .. }));
        }
        p.submit(submit_at(base + 4, (0, 0), 10.0, p.clock + 1.0));
        let freed = p.call(ClientMsg::Cancel { id: base + 4 });
        assert!(matches!(freed, ServerMsg::CancelResult { freed: true, .. }));
        let again = submit_at(base + 3, (0, 0), 1.0, p.clock + 2.0);
        let refused = p.call(ClientMsg::Submit(again));
        assert!(matches!(refused, ServerMsg::Rejected { .. }), "{refused:?}");
        p.tick();
    }
    let ids: Vec<u64> = (1..=4).chain(11..=14).collect();
    let answers = p.query(&ids);
    use ReqState::*;
    let states: Vec<ReqState> = (answers.values())
        .map(|m| match m {
            ServerMsg::Status { state, .. } => *state,
            other => panic!("Query answered {other:?}"),
        })
        .collect();
    // The resubmitted id 3 keeps its grant.
    assert_eq!(
        states,
        [Cancelled, Cancelled, Accepted, Cancelled].repeat(2)
    );
    let clock = p.clock;
    p.engine.kill();

    let follower_dir = Arc::new(MemDir::new());
    replicate(
        primary_dir.clone(),
        follower_dir.clone(),
        FaultPlan::default(),
    );
    assert_store_mirrors(&primary_dir, &follower_dir, "history changes");
    let promote = || {
        let mut cfg = config(follower_dir.clone(), 2, None);
        cfg.role = Role::Primary;
        let mut d =
            EngineClient::new(Engine::try_spawn(cfg).expect("the follower's store recovers"));
        d.clock = clock;
        d
    };
    let mut f = promote();
    assert_eq!(f.query(&ids), answers, "on the promoted follower");
    f.until_snapshot();
    assert_eq!(f.query(&ids), answers, "after its first snapshot");
    f.engine.kill();
    let mut f = promote();
    assert_eq!(f.query(&ids), answers, "after a restart");
    f.engine.kill();
}

/// Every byte the store holds, file by file.
fn store_bytes(dir: &MemDir) -> BTreeMap<String, Vec<u8>> {
    (dir.list().expect("list").into_iter())
        .map(|name| {
            let bytes = dir.read(&name).expect("read");
            (name, bytes)
        })
        .collect()
}

/// Resubmitting an id — after a lost reply, say — is refused as
/// `Invalid` and changes nothing: no WAL record, and `Query` still
/// answers the first submission's grant with its allocation, live,
/// after a restart and on a promoted follower.
#[test]
fn a_resubmitted_id_keeps_its_first_outcome() {
    let primary_dir = Arc::new(MemDir::new());
    let mut p = EngineClient::new(Engine::spawn(config(primary_dir.clone(), 64, None)));
    p.submit(submit_at(1, (0, 1), 4_000.0, 1.0));
    p.tick();
    let granted = p.query(&[1]);
    assert!(
        matches!(
            granted[&1],
            ServerMsg::Status {
                state: ReqState::Accepted,
                alloc: Some(_),
                ..
            }
        ),
        "{granted:?}"
    );
    // A second submission of id 2 while the first waits for its round.
    p.submit(submit_at(2, (1, 0), 100.0, p.clock + 1.0));
    let before = store_bytes(&primary_dir);
    for id in [1, 2] {
        let again = p.call(ClientMsg::Submit(submit_at(id, (0, 0), 1.0, p.clock + 2.0)));
        let refused = ServerMsg::Rejected {
            id,
            reason: RejectReason::Invalid,
            retry_after: None,
        };
        assert_eq!(again, refused, "the reply to a resubmitted id");
    }
    assert_eq!(p.query(&[1]), granted, "live");
    assert!(
        store_bytes(&primary_dir) == before,
        "a resubmission wrote to the store"
    );
    p.tick();
    assert!(
        matches!(
            p.query(&[2])[&2],
            ServerMsg::Status {
                state: ReqState::Accepted,
                ..
            }
        ),
        "the pending id is decided by its round"
    );
    let clock = p.clock;
    p.engine.kill();

    let mut p = EngineClient::new(
        Engine::try_spawn(config(primary_dir.clone(), 64, None)).expect("the store recovers"),
    );
    assert_eq!(p.query(&[1]), granted, "after a restart");
    p.engine.kill();

    let follower_dir = Arc::new(MemDir::new());
    replicate(
        primary_dir.clone(),
        follower_dir.clone(),
        FaultPlan::default(),
    );
    let mut cfg = config(follower_dir, 64, None);
    cfg.role = Role::Primary;
    let mut f = EngineClient::new(Engine::try_spawn(cfg).expect("the follower's store recovers"));
    f.clock = clock;
    assert_eq!(f.query(&[1]), granted, "on a promoted follower");
    f.engine.kill();
}
