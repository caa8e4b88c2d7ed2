//! The decided-request history across restarts: snapshots leave it out
//! and name the append-only outcome log instead, so every change to it —
//! including a cancel that re-records an id decided long before — must
//! reach that log, and recovery must answer `Query` exactly as the live
//! engine did.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};
use gridband_net::Topology;
use gridband_serve::engine::Command;
use gridband_serve::protocol::ReqState;
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, FsyncPolicy, MemDir, ServerMsg, StoreConfig, SubmitReq,
};
use gridband_store::wal::scan_wal;
use gridband_store::{Dir, EngineSnapshot, WalRecord, OUTCOME_ENTRY};

const STEP: f64 = 10.0;

fn config(dir: Arc<MemDir>, history_capacity: usize, snapshot_every: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(Topology::uniform(2, 2, 100.0));
    cfg.step = STEP;
    cfg.malleable = true;
    cfg.history_capacity = history_capacity;
    cfg.gc_horizon = Some(2.0 * STEP);
    cfg.store = Some(StoreConfig {
        dir,
        fsync: FsyncPolicy::Round,
        snapshot_every,
    });
    cfg
}

fn rigid(id: u64, route: (u32, u32), volume: f64, max_rate: f64, start: f64) -> SubmitReq {
    SubmitReq {
        id,
        ingress: route.0,
        egress: route.1,
        volume,
        max_rate,
        start: Some(start),
        deadline: None,
        class: Default::default(),
        malleable: None,
    }
}

fn malleable(id: u64, route: (u32, u32), volume: f64, max_rate: f64, start: f64) -> SubmitReq {
    SubmitReq {
        malleable: Some(true),
        deadline: Some(start + 3.0 * volume / max_rate),
        ..rigid(id, route, volume, max_rate, start)
    }
}

/// One client of an engine on a virtual clock.
struct Client {
    engine: Engine,
    /// Replies to messages nobody waited for, kept so no reply is sent
    /// into a closed channel.
    parked: Vec<Receiver<ServerMsg>>,
    /// Next id of a filler submission.
    filler: u64,
}

impl Client {
    fn spawn(cfg: EngineConfig) -> Client {
        Client {
            engine: Engine::try_spawn(cfg).expect("the store recovers"),
            parked: Vec::new(),
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
        self.send(msg)
            .recv_timeout(Duration::from_secs(10))
            .expect("a reply")
    }

    /// Submit without waiting: a later round decides it.
    fn submit(&mut self, s: SubmitReq) {
        let rx = self.send(ClientMsg::Submit(s));
        self.parked.push(rx);
    }

    /// Move the clock to `t` with a small filler submission, which fires
    /// every round due by then.
    fn tick(&mut self, t: f64) {
        self.filler += 1;
        self.submit(rigid(self.filler, (0, 0), 1.0, 10.0, t));
        self.call(ClientMsg::Stats);
    }

    fn snapshots(&self) -> u64 {
        (self.engine.metrics().snapshots_written).load(Ordering::Relaxed)
    }

    /// Tick a round at a time from `t` until one more snapshot is
    /// installed; returns the clock reached.
    fn until_snapshot(&mut self, mut t: f64) -> f64 {
        let before = self.snapshots();
        while self.snapshots() == before {
            t += STEP;
            self.tick(t);
        }
        t
    }

    fn query(&mut self, ids: &[u64]) -> BTreeMap<u64, ServerMsg> {
        (ids.iter())
            .map(|&id| (id, self.call(ClientMsg::Query { id })))
            .collect()
    }

    fn export(&mut self) -> EngineSnapshot {
        let (tx, rx) = channel::unbounded();
        self.engine
            .sender()
            .send(Command::Export { reply: tx })
            .expect("engine alive");
        rx.recv_timeout(Duration::from_secs(10)).expect("export")
    }
}

/// Run the history-change scenario against a store in `dir`: decide ids,
/// let a snapshot pass, change them — a cancel of a live rigid plan, a
/// cancel of a live malleable plan, a cancel of a pending submission, and
/// a resubmission of an already-decided id, which is refused and must
/// leave that id's grant as it was — and let a second snapshot
/// pass; then change a second set the same way and stop before the next
/// snapshot, so those changes are only in the WAL. Returns the ids and
/// what `Query` answers for them, and leaves the engine running at the
/// returned clock.
fn change_history(client: &mut Client) -> (Vec<u64>, BTreeMap<u64, ServerMsg>, f64) {
    // Set one is ids 1–4, set two ids 11–14: a rigid plan, a malleable
    // plan, one resubmitted later, and one cancelled while pending.
    for base in [0, 10] {
        client.submit(rigid(base + 1, (0, 1), 4_000.0, 10.0, 1.0));
        client.submit(malleable(base + 2, (1, 1), 8_000.0, 20.0, 2.0));
        client.submit(rigid(base + 3, (1, 0), 4_000.0, 10.0, 3.0));
    }
    client.tick(STEP);
    let mut t = client.until_snapshot(STEP);
    for base in [0, 10] {
        if base == 10 {
            t = client.until_snapshot(t);
        }
        for id in [base + 1, base + 2] {
            assert!(
                matches!(
                    client.call(ClientMsg::Cancel { id }),
                    ServerMsg::CancelResult { freed: true, .. }
                ),
                "cancel of live plan #{id}"
            );
        }
        client.submit(SubmitReq {
            deadline: Some(t + 100.0),
            ..rigid(base + 4, (0, 0), 10.0, 10.0, t + 1.0)
        });
        assert!(matches!(
            client.call(ClientMsg::Cancel { id: base + 4 }),
            ServerMsg::CancelResult { freed: true, .. }
        ));
        let refused = client.call(ClientMsg::Submit(rigid(
            base + 3,
            (0, 0),
            1.0,
            1.0,
            t + 2.0,
        )));
        assert!(matches!(refused, ServerMsg::Rejected { .. }), "{refused:?}");
        t += STEP;
        client.tick(t);
    }
    let ids: Vec<u64> = (1..=4).chain(11..=14).collect();
    let answers = client.query(&ids);
    use ReqState::*;
    let states: Vec<ReqState> = (answers.values())
        .map(|m| match m {
            ServerMsg::Status { state, .. } => *state,
            other => panic!("Query answered {other:?}"),
        })
        .collect();
    assert_eq!(
        states,
        [Cancelled, Cancelled, Accepted, Cancelled].repeat(2),
        "the changes took effect live"
    );
    (ids, answers, t)
}

#[test]
fn history_changes_after_a_snapshot_survive_two_restarts() {
    let dir = Arc::new(MemDir::new());
    let mut client = Client::spawn(config(dir.clone(), 1 << 20, 2));
    let (ids, answers, t) = change_history(&mut client);
    let live = client.export();
    client.engine.kill();

    // The first restart recovers from the last snapshot, its outcome log
    // and the WAL after it, then installs a snapshot of its own.
    let mut client = Client::spawn(config(dir.clone(), 1 << 20, 2));
    assert_eq!(client.query(&ids), answers, "after one restart");
    assert_eq!(client.export(), live, "after one restart");
    client.until_snapshot(t);
    assert_eq!(
        client.query(&ids),
        answers,
        "after the restarted engine's snapshot"
    );
    client.engine.kill();

    let mut client = Client::spawn(config(dir, 1 << 20, 2));
    assert_eq!(client.query(&ids), answers, "after two restarts");
    client.engine.kill();
}

// ---------------------------------------------------------------------
// A bounded log: compaction, restart, torn writes
// ---------------------------------------------------------------------

/// History records a workload round makes: four decided ids and the
/// cancel of an older one.
const RECORDS_PER_ROUND: usize = 5;

/// Round `r`'s messages (`r` ≥ 1). The first, a long transfer starting
/// at `r × STEP`, fires the round that decides round `r − 1`'s
/// submissions; then a short transfer that is granted, one whose
/// deadline passes before its round (rejected there), one refused on
/// arrival, and a cancel of round `r − 2`'s long transfer, which is live.
fn round_msgs(r: u64) -> Vec<ClientMsg> {
    let t = r as f64 * STEP;
    let id = |k: u64| r * 4 + k;
    let mut msgs = vec![
        ClientMsg::Submit(SubmitReq {
            deadline: Some(t + 500.0),
            ..rigid(id(0), (0, 1), 300.0, 10.0, t)
        }),
        ClientMsg::Submit(rigid(id(1), ((r % 2) as u32, 0), 5.0, 10.0, t + 1.0)),
        ClientMsg::Submit(SubmitReq {
            deadline: Some(t + 7.0),
            ..rigid(id(2), (1, 1), 50.0, 10.0, t + 2.0)
        }),
        ClientMsg::Submit(rigid(id(3), (0, 0), -1.0, 10.0, t + 3.0)),
    ];
    if r >= 3 {
        msgs.push(ClientMsg::Cancel { id: (r - 2) * 4 });
    }
    msgs
}

impl Client {
    /// Send every message of round `r` and wait until they are handled.
    fn round(&mut self, r: u64) {
        for msg in round_msgs(r) {
            let rx = self.send(msg);
            self.parked.push(rx);
        }
        self.call(ClientMsg::Stats);
    }
}

/// The newest file of `dir` named `prefix-<n>`, by `n`.
fn newest(dir: &MemDir, prefix: &str) -> Option<(String, Vec<u8>)> {
    let name = (dir.list().unwrap().into_iter())
        .filter_map(|f| Some((f.strip_prefix(prefix)?.parse::<u64>().ok()?, f)))
        .max()?
        .1;
    let data = dir.contents(&name)?;
    Some((name, data))
}

/// Outcome entries in an outcome log file.
fn log_entries(name: &str, data: &[u8]) -> usize {
    let scan = scan_wal(name, data).expect("the outcome log scans");
    assert!(!scan.truncated, "{name} has a torn tail");
    (scan.records.iter())
        .map(|(offset, payload)| {
            let record = WalRecord::decode(name, *offset, payload).unwrap();
            assert!(matches!(record, WalRecord::Outcomes(_)), "{record:?}");
            payload.len() / OUTCOME_ENTRY
        })
        .sum()
}

#[test]
fn the_outcome_log_stays_bounded_and_recovers_the_eviction_boundary() {
    const CAP: usize = 1024;
    let rounds = (4 * CAP / 4 + 100) as u64;
    let dir = Arc::new(MemDir::new());
    let mut client = Client::spawn(config(dir.clone(), CAP, 2));
    let (mut snap_bytes, mut logs) = (Vec::new(), Vec::new());
    let mut most = 0;
    for r in 1..=rounds {
        client.round(r);
        let (_, snap) = newest(&dir, "snap-").unwrap_or_default();
        snap_bytes.push(snap.len());
        let hist: Vec<String> = (dir.list().unwrap().into_iter())
            .filter(|f| f.starts_with("hist-"))
            .collect();
        assert!(
            hist.len() <= 1,
            "round {r}: superseded logs are swept: {hist:?}"
        );
        if let Some(name) = hist.first() {
            let entries = log_entries(name, &dir.contents(name).unwrap());
            most = most.max(entries);
            assert!(
                entries <= 2 * CAP + 2 * RECORDS_PER_ROUND,
                "round {r}: {entries} entries in {name}"
            );
            if logs.last() != Some(name) {
                logs.push(name.clone());
            }
        }
    }
    assert!(most > 2 * CAP, "the log reached its bound ({most} entries)");
    assert!(logs.len() >= 3, "the log was compacted: {logs:?}");
    // The history filled after about CAP / 4 rounds; from then on the
    // snapshot is the ledger image, whose size does not depend on uptime.
    let (early, late) = snap_bytes.split_at(snap_bytes.len() / 2);
    let (early, late) = (
        early[CAP / 4..].iter().max().unwrap(),
        late.iter().max().unwrap(),
    );
    assert!(
        late <= &(early + 64),
        "snapshot bytes grew: {early} then {late}"
    );
    assert!(*late < OUTCOME_ENTRY * CAP, "a snapshot carries no history");

    // Decide what is pending, which a restart would not remember.
    client.call(ClientMsg::Drain);
    let ids: Vec<u64> = (4..4 * (rounds + 1)).collect();
    let live_answers = client.query(&ids);
    let live = client.export();
    client.engine.kill();
    let oldest = live.states[0].0;
    let unknown = |answers: &BTreeMap<u64, ServerMsg>, id: u64| {
        matches!(
            answers[&id],
            ServerMsg::Status {
                state: ReqState::Unknown,
                ..
            }
        )
    };
    let evicted = (ids.iter().copied())
        .filter(|&id| unknown(&live_answers, id))
        .max()
        .expect("the bound evicted ids");
    assert!(!unknown(&live_answers, oldest));

    let mut client = Client::spawn(config(dir, CAP, 2));
    let answers = client.query(&ids);
    assert_eq!(
        answers[&oldest], live_answers[&oldest],
        "the oldest retained id"
    );
    assert_eq!(
        answers[&evicted], live_answers[&evicted],
        "the last evicted id"
    );
    assert_eq!(answers, live_answers);
    assert_eq!(client.export(), live);
    client.engine.kill();
}

/// What an outcome-log write at the snapshot after round `fire` does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LogWrite {
    Append,
    Compaction,
}

/// The torn-write runs' engine: no watermark GC, whose record follows
/// the round's commit and so would be lost with it.
fn no_gc(dir: Arc<MemDir>, cap: usize, snapshot_every: u64) -> EngineConfig {
    EngineConfig {
        gc_horizon: None,
        ..config(dir, cap, snapshot_every)
    }
}

/// Run rounds `1..=upto` on a fresh store; returns it and the engine.
fn run_to(upto: u64, cap: usize, snapshot_every: u64) -> (Arc<MemDir>, Client) {
    let dir = Arc::new(MemDir::new());
    let mut client = Client::spawn(no_gc(dir.clone(), cap, snapshot_every));
    for r in 1..=upto {
        client.round(r);
    }
    (dir, client)
}

/// Sends round `r`'s first message alone: it fires one round.
fn fire(client: &mut Client, r: u64) {
    let first = round_msgs(r).remove(0);
    let rx = client.send(first);
    client.parked.push(rx);
}

#[test]
fn a_torn_outcome_log_write_recovers_the_last_durable_round() {
    const CAP: usize = 32;
    // Find, in one uninterrupted run, the first round whose snapshot
    // appends to the log, and the first whose snapshot compacts it
    // because it grew past twice the bound.
    let (dir, mut client) = run_to(0, CAP, 2);
    let mut targets: Vec<(u64, LogWrite, usize)> = Vec::new();
    for r in 1..=60 {
        let before = newest(&dir, "hist-");
        fire(&mut client, r);
        client.call(ClientMsg::Stats);
        let after = newest(&dir, "hist-");
        let write = match (&before, &after) {
            (Some((b, bytes)), Some((a, now))) if a == b && now.len() > bytes.len() => {
                Some((LogWrite::Append, now.len() - bytes.len()))
            }
            (Some((b, _)), Some((a, now))) if a != b => Some((LogWrite::Compaction, now.len())),
            _ => None,
        };
        if let Some((kind, bytes)) = write {
            if !targets.iter().any(|(_, k, _)| *k == kind) {
                targets.push((r, kind, bytes));
            }
        }
        for msg in round_msgs(r).into_iter().skip(1) {
            let rx = client.send(msg);
            client.parked.push(rx);
        }
        client.call(ClientMsg::Stats);
    }
    client.engine.kill();
    assert_eq!(
        targets.len(),
        2,
        "both kinds of log write happened: {targets:?}"
    );

    for (r, kind, log_bytes) in targets {
        // The round's WAL record, measured where nothing else is written.
        let (dir, mut client) = run_to(r - 1, CAP, 0);
        let wal = |d: &MemDir| newest(d, "wal-").unwrap().1.len();
        let before = wal(&dir);
        fire(&mut client, r);
        client.call(ClientMsg::Stats);
        let round_bytes = wal(&dir) - before;
        let want = client.export();
        client.engine.kill();
        for torn in 0..log_bytes {
            let (dir, mut client) = run_to(r - 1, CAP, 2);
            dir.set_write_budget((round_bytes + torn) as u64);
            fire(&mut client, r);
            client.engine.kill();
            dir.clear_write_budget();
            let mut client = Client::spawn(no_gc(dir, CAP, 2));
            assert_eq!(
                client.export(),
                want,
                "{kind:?} after round {r} torn at byte {torn} of {log_bytes}"
            );
            client.engine.kill();
        }
    }
}
