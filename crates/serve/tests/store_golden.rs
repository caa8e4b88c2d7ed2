//! Golden store fixtures: snapshot and WAL files as the daemon leaves
//! them on disk, produced once and checked in. There is no bless switch:
//! a fixture that stops decoding to its value is a format change, and a
//! format change bumps `SNAPSHOT_VERSION` and adds a fixture instead of
//! rewriting one.
//!
//! * `snap_v2.bin`, `snap_v3.bin` — whole `snap-*` files of small
//!   hand-built states, in the layouts of versions 2 and 3 (no ledger
//!   `watermark`, no ledger `live_seg`);
//! * `snap_v4.bin` and `wal_v4_run.bin` — the export of an engine run over
//!   a `MemDir` (rigid and malleable grants, an amend, cancels of live and
//!   pending requests, early rejects, committed and released holds, GC),
//!   and the WAL that run wrote;
//! * `wal_v4_records.bin` — a WAL holding one record of every
//!   [`WalRecord`] variant and every [`RoundDecision`] kind;
//! * `outcomes_v5.bin` — an outcome log of two binary
//!   [`WalRecord::Outcomes`] batches;
//! * `snap_v5_run.bin`, `hist_v5_run.bin` and `wal_v5_run.bin` — the files
//!   the same engine run leaves when it snapshots every second round: a
//!   v5 snapshot without the history, the outcome log it names, and the
//!   WAL after it.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel;
use gridband_net::{CapacityLedger, EgressId, IngressId, PortRef, Route, SegSpan, Topology};
use gridband_serve::engine::Command;
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, EngineState, FsyncPolicy, MemDir, StoreConfig, SubmitReq,
};
use gridband_store::wal::{parse_snapshot, scan_wal};
use gridband_store::{
    Dir, EngineSnapshot, HistRef, HoldState, RequestOutcome, RoundDecision, WalRecord,
};

const SNAP_V2: &[u8] = include_bytes!("fixtures/snap_v2.bin");
const SNAP_V3: &[u8] = include_bytes!("fixtures/snap_v3.bin");
const SNAP_V4: &[u8] = include_bytes!("fixtures/snap_v4.bin");
const WAL_V4_RUN: &[u8] = include_bytes!("fixtures/wal_v4_run.bin");
const WAL_V4_RECORDS: &[u8] = include_bytes!("fixtures/wal_v4_records.bin");
const OUTCOMES_V5: &[u8] = include_bytes!("fixtures/outcomes_v5.bin");
const SNAP_V5_RUN: &[u8] = include_bytes!("fixtures/snap_v5_run.bin");
const HIST_V5_RUN: &[u8] = include_bytes!("fixtures/hist_v5_run.bin");
const WAL_V5_RUN: &[u8] = include_bytes!("fixtures/wal_v5_run.bin");

/// Where the v5 run's files live in its store.
const V5_RUN_FILES: [&str; 3] = ["hist-1", "snap-2", "wal-2"];

/// The scenario engine's admission interval and topology.
const STEP: f64 = 10.0;

fn topology() -> Topology {
    Topology::uniform(2, 2, 100.0)
}

// ---------------------------------------------------------------------
// The WAL of every variant
// ---------------------------------------------------------------------

/// One record of every `WalRecord` variant, the `Round` carrying every
/// `RoundDecision` kind; floats include a non-representable sum.
fn every_variant() -> Vec<WalRecord> {
    vec![
        WalRecord::Round {
            t: 12.5,
            decisions: vec![
                RoundDecision::Accept {
                    id: 3,
                    ingress: 0,
                    egress: 1,
                    bw: 12.437_218_9,
                    start: 12.5,
                    finish: 97.062_5,
                    cancelled: false,
                },
                RoundDecision::Accept {
                    id: 5,
                    ingress: 1,
                    egress: 0,
                    bw: 0.1 + 0.2,
                    start: 12.5,
                    finish: 50.0,
                    cancelled: true,
                },
                RoundDecision::Reject { id: 4 },
                RoundDecision::AcceptSegments {
                    id: 6,
                    ingress: 0,
                    egress: 0,
                    segments: vec![
                        SegSpan {
                            start: 12.5,
                            end: 20.0,
                            bw: 0.1 + 0.2,
                        },
                        SegSpan {
                            start: 25.0,
                            end: 40.0,
                            bw: 97.062_5,
                        },
                    ],
                    cancelled: false,
                },
                RoundDecision::Amend {
                    id: 6,
                    segments: vec![SegSpan {
                        start: 12.5,
                        end: 30.0,
                        bw: 33.3,
                    }],
                },
            ],
        },
        WalRecord::Cancel { id: 7 },
        WalRecord::EarlyReject { id: 9 },
        WalRecord::HoldPlace {
            txn: 11,
            port: PortRef::In(IngressId(2)),
            bw: 0.1 + 0.2,
            start: 12.5,
            finish: 42.75,
            expires: 62.5,
        },
        WalRecord::HoldCommit { txn: 11 },
        WalRecord::HoldRelease { txn: 12 },
        WalRecord::Gc {
            watermark: 0.1 + 0.2,
        },
    ]
}

/// Two batches of an outcome log: the second re-records an id of the
/// first, as a cancel of an old id does, and ids span the whole `u64`.
fn outcome_batches() -> Vec<WalRecord> {
    use RequestOutcome::*;
    vec![
        WalRecord::Outcomes(vec![
            (1, Accepted),
            (u64::MAX, Rejected),
            (0x7B, Accepted),
            (1 << 40, Cancelled),
        ]),
        WalRecord::Outcomes(vec![(1, Cancelled)]),
    ]
}

/// Which variant a record is; exhaustive, so a new variant fails to
/// compile here until it has a fixture.
fn variant(r: &WalRecord) -> usize {
    match r {
        WalRecord::Round { .. } => 0,
        WalRecord::Cancel { .. } => 1,
        WalRecord::EarlyReject { .. } => 2,
        WalRecord::HoldPlace { .. } => 3,
        WalRecord::HoldCommit { .. } => 4,
        WalRecord::HoldRelease { .. } => 5,
        WalRecord::Gc { .. } => 6,
        WalRecord::Outcomes(_) => 7,
    }
}

fn decision_kind(d: &RoundDecision) -> usize {
    match d {
        RoundDecision::Accept { .. } => 0,
        RoundDecision::AcceptSegments { .. } => 1,
        RoundDecision::Amend { .. } => 2,
        RoundDecision::Reject { .. } => 3,
    }
}

/// Every record of a WAL file, decoded, with its payload bytes.
fn wal_records(file: &str, data: &[u8]) -> Vec<(WalRecord, Vec<u8>)> {
    let scan = scan_wal(file, data).expect("fixture WAL scans");
    assert!(!scan.truncated, "{file}: no torn tail");
    assert_eq!(
        scan.valid_len,
        data.len() as u64,
        "{file}: whole file valid"
    );
    scan.records
        .into_iter()
        .map(|(offset, payload)| {
            let r = WalRecord::decode(file, offset, &payload).expect("fixture record decodes");
            (r, payload)
        })
        .collect()
}

#[test]
fn the_wal_fixture_holds_every_variant_and_decodes_to_its_values() {
    let got = wal_records("wal_v4_records", WAL_V4_RECORDS);
    let want = every_variant();
    assert_eq!(got.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(), want);
    for (record, payload) in &got {
        assert_eq!(
            &record.encode(),
            payload,
            "{record:?} re-encodes to its bytes"
        );
    }
    // `Outcomes` lives in outcome logs, not in a WAL: its fixture is
    // `outcomes_v5.bin`.
    let mut seen: Vec<usize> = want.iter().chain(&outcome_batches()).map(variant).collect();
    seen.dedup();
    assert_eq!(seen, (0..8).collect::<Vec<_>>(), "one fixture per variant");
    let WalRecord::Round { decisions, .. } = &want[0] else {
        unreachable!()
    };
    let mut kinds: Vec<usize> = decisions.iter().map(decision_kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, [0, 1, 2, 3], "every decision kind");
}

#[test]
fn the_outcome_log_fixture_decodes_to_its_batches() {
    let got = wal_records("outcomes_v5", OUTCOMES_V5);
    assert_eq!(
        got.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
        outcome_batches()
    );
    for (record, payload) in &got {
        assert_eq!(
            &record.encode(),
            payload,
            "{record:?} re-encodes to its bytes"
        );
        let WalRecord::Outcomes(entries) = record else {
            unreachable!()
        };
        assert_eq!(payload.len(), 1 + 9 * entries.len(), "9 bytes an entry");
    }
}

// ---------------------------------------------------------------------
// Hand-built v2 and v3 snapshots
// ---------------------------------------------------------------------

fn small_ledger() -> CapacityLedger {
    let mut ledger = CapacityLedger::new(topology());
    ledger.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
    ledger
        .reserve(Route::new(1, 1), 2.5, 12.0, 0.1 + 0.2)
        .unwrap();
    ledger
        .hold(PortRef::Out(EgressId(0)), 10.0, 20.0, 12.5)
        .unwrap();
    ledger
}

/// A v2 image: holds, but no ledger watermark and no segmented plans.
fn snapshot_v2() -> EngineSnapshot {
    EngineSnapshot {
        version: 2,
        now: 10.0,
        next_tick: 15.0,
        rounds: 2,
        ledger: small_ledger().export_state(),
        accepted: vec![(3, 0), (4, 1)],
        states: vec![
            (1, RequestOutcome::Rejected),
            (3, RequestOutcome::Accepted),
            (2, RequestOutcome::Cancelled),
            (4, RequestOutcome::Accepted),
        ],
        holds: vec![HoldState {
            txn: 9,
            hold: 0,
            expires: 20.0,
            committed: false,
        }],
        hist: None,
    }
}

/// A v3 image: the ledger has been collected, so it carries a watermark.
fn snapshot_v3() -> EngineSnapshot {
    let mut ledger = small_ledger();
    ledger.gc(5.0);
    EngineSnapshot {
        version: 3,
        now: 10.0,
        next_tick: 15.0,
        rounds: 2,
        ledger: ledger.export_state(),
        accepted: vec![(3, 0), (4, 1)],
        states: vec![(3, RequestOutcome::Accepted), (4, RequestOutcome::Accepted)],
        holds: vec![HoldState {
            txn: 9,
            hold: 0,
            expires: 20.0,
            committed: true,
        }],
        hist: None,
    }
}

fn decode_snap(file: &str, data: &[u8]) -> EngineSnapshot {
    let payload = parse_snapshot(file, data).expect("fixture snapshot parses");
    EngineSnapshot::decode(file, &payload).expect("fixture snapshot decodes")
}

#[test]
fn v2_and_v3_snapshot_fixtures_decode_to_their_values() {
    let v2 = decode_snap("snap_v2", SNAP_V2);
    assert_eq!(v2, snapshot_v2());
    assert_eq!(
        (v2.ledger.watermark, v2.ledger.live_seg.is_none()),
        (None, true)
    );
    let v3 = decode_snap("snap_v3", SNAP_V3);
    assert_eq!(v3, snapshot_v3());
    assert_eq!(v3.ledger.watermark, Some(5.0));
    assert!(v3.ledger.live_seg.is_none());
    let text = std::str::from_utf8(&SNAP_V2[16..]).unwrap();
    assert!(!text.contains("watermark") && !text.contains("live_seg"));
    let text = std::str::from_utf8(&SNAP_V3[16..]).unwrap();
    assert!(text.contains("watermark") && !text.contains("live_seg"));
}

// ---------------------------------------------------------------------
// The engine run behind the v4 fixtures
// ---------------------------------------------------------------------

fn config(dir: Arc<MemDir>, snapshot_every: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(topology());
    cfg.step = STEP;
    cfg.malleable = true;
    cfg.gc_horizon = Some(30.0);
    cfg.store = Some(StoreConfig {
        dir,
        fsync: FsyncPolicy::Round,
        snapshot_every,
    });
    cfg
}

fn submit(id: u64, route: (u32, u32), volume: f64, max_rate: f64, start: f64) -> SubmitReq {
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
        deadline: Some(start + 4.0 * volume / max_rate),
        ..submit(id, route, volume, max_rate, start)
    }
}

/// The scenario: rigid and malleable grants, an amend, cancels of live
/// and of pending requests, an early reject, a committed and a released
/// hold, and GC. A message waits for its reply unless a later round
/// decides it, so the run (and the WAL it writes) is deterministic.
fn scenario() -> Vec<ClientMsg> {
    use ClientMsg::*;
    let rigid = |id, route, volume, max_rate, start| SubmitReq {
        deadline: Some(200.0),
        ..submit(id, route, volume, max_rate, start)
    };
    vec![
        Submit(rigid(1, (0, 0), 200.0, 40.0, 1.0)),
        Submit(malleable(2, (1, 1), 3000.0, 50.0, 2.0)),
        Submit(SubmitReq {
            deadline: Some(20.0),
            ..submit(3, (0, 1), 100_000.0, 100.0, 3.0)
        }),
        Submit(submit(5, (0, 1), -1.0, 10.0, 4.0)),
        HoldOpen(submit(100, (1, 0), 2000.0, 20.0, 5.0)),
        HoldCommit { txn: 100, at: 6.0 },
        HoldOpen(submit(101, (0, 1), 30.0, 10.0, 7.0)),
        HoldRelease { txn: 101, at: 7.5 },
        Submit(rigid(4, (1, 0), 1000.0, 10.0, 8.0)),
        Submit(rigid(6, (0, 1), 90.0, 30.0, 12.0)),
        Cancel { id: 6 },
        Cancel { id: 1 },
        Amend {
            id: 2,
            volume: 1000.0,
            max_rate: 25.0,
            deadline: None,
        },
        Submit(malleable(7, (0, 0), 600.0, 30.0, 14.0)),
        Submit(rigid(8, (0, 0), 200.0, 20.0, 22.0)),
        Cancel { id: 7 },
        Submit(SubmitReq {
            deadline: Some(35.0),
            ..submit(9, (1, 1), 100.0, 100.0, 31.0)
        }),
        Submit(rigid(10, (0, 1), 500.0, 10.0, 45.0)),
        Drain,
    ]
}

/// Drive the scenario through an engine over `dir`; returns the final
/// export.
fn run_scenario(dir: Arc<MemDir>, snapshot_every: u64) -> EngineSnapshot {
    let engine = Engine::spawn(config(dir, snapshot_every));
    // Kept open to the end, so that no reply is sent into a closed channel.
    let mut replies = Vec::new();
    for msg in scenario() {
        let (tx, rx) = channel::unbounded();
        let waits = !matches!(msg, ClientMsg::Submit(_) | ClientMsg::Amend { .. });
        engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.into(),
            })
            .expect("engine alive");
        if waits {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("a reply to every message");
        }
        replies.push(rx);
    }
    let (tx, rx) = channel::unbounded();
    engine
        .sender()
        .send(Command::Export { reply: tx })
        .expect("engine alive");
    let snap = rx.recv_timeout(Duration::from_secs(10)).expect("export");
    engine.shutdown();
    snap
}

/// `got` is the state `want` images, whatever version wrote `want`.
fn assert_same_state(mut got: EngineSnapshot, want: &EngineSnapshot, what: &str) {
    got.version = want.version;
    assert_eq!(&got, want, "{what}");
}

#[test]
fn the_v4_engine_snapshot_is_its_own_wal_replayed() {
    let snap = decode_snap("snap_v4", SNAP_V4);
    use RequestOutcome::*;
    assert_eq!(
        (snap.version, snap.now, snap.next_tick, snap.rounds),
        (4, 50.0, 60.0, 5)
    );
    assert_eq!(snap.accepted, [(2, 2), (4, 0), (10, 6)]);
    assert_eq!(
        snap.states,
        [
            (3, Rejected),
            (5, Rejected),
            (100, Accepted),
            (4, Accepted),
            (1, Cancelled),
            (2, Accepted),
            (6, Cancelled),
            (7, Cancelled),
            (8, Accepted),
            (9, Rejected),
            (10, Accepted),
        ]
    );
    assert_eq!(
        snap.holds,
        [HoldState {
            txn: 100,
            hold: 0,
            expires: 105.0,
            committed: true,
        }]
    );
    assert_eq!(snap.ledger.watermark, Some(20.0));
    let live_seg = snap
        .ledger
        .live_seg
        .as_ref()
        .expect("a live malleable plan");
    assert_eq!(live_seg.len(), 1);
    assert_eq!(live_seg[0].0, 2);
    assert_eq!(snap.ledger.live.len(), 2);

    let records: Vec<(u64, Vec<u8>)> = scan_wal("wal_v4_run", WAL_V4_RUN).unwrap().records;
    for (offset, payload) in &records {
        let r = WalRecord::decode("wal_v4_run", *offset, payload).unwrap();
        assert_eq!(&r.encode(), payload, "{r:?} re-encodes to its bytes");
    }
    let (replayed, _) =
        EngineState::from_log(topology(), STEP, 1 << 20, None, 0, None, &records).unwrap();
    assert_same_state(replayed.export(), &snap, "replaying the run's WAL");
}

#[test]
fn the_scenario_still_writes_the_v4_run_byte_for_byte() {
    let dir = Arc::new(MemDir::new());
    let live = run_scenario(dir.clone(), 0);
    assert_eq!(dir.list().unwrap(), ["wal-0"]);
    assert!(
        dir.contents("wal-0").unwrap() == WAL_V4_RUN,
        "the scenario's WAL differs from wal_v4_run.bin"
    );
    assert_same_state(live, &decode_snap("snap_v4", SNAP_V4), "the live export");
}

// ---------------------------------------------------------------------
// The same run at v5: snapshots name an outcome log
// ---------------------------------------------------------------------

fn v5_run_dir() -> Arc<MemDir> {
    let dir = Arc::new(MemDir::new());
    for (name, data) in V5_RUN_FILES
        .iter()
        .zip([HIST_V5_RUN, SNAP_V5_RUN, WAL_V5_RUN])
    {
        dir.put(name, data.to_vec());
    }
    dir
}

#[test]
fn the_v5_snapshot_and_its_outcome_log_recover_the_v4_state() {
    let snap = decode_snap("snap_v5_run", SNAP_V5_RUN);
    assert_eq!((snap.version, snap.rounds), (5, 4));
    assert!(snap.states.is_empty(), "the history is in the outcome log");
    assert_eq!(
        snap.hist,
        Some(HistRef {
            log: 1,
            len: HIST_V5_RUN.len() as u64,
        })
    );
    let v4 = decode_snap("snap_v4", SNAP_V4);

    let dir = v5_run_dir();
    let payload = parse_snapshot("snap-2", SNAP_V5_RUN).unwrap();
    let records = scan_wal("wal-2", WAL_V5_RUN).unwrap().records;
    let (replayed, _) = EngineState::from_log(
        topology(),
        STEP,
        1 << 20,
        Some(&*dir),
        2,
        Some(&payload),
        &records,
    )
    .unwrap();
    assert_same_state(replayed.export(), &v4, "snapshot + outcome log + WAL");

    let engine = Engine::try_spawn(config(dir, 0)).expect("the v5 store recovers");
    let (tx, rx) = channel::unbounded();
    engine.sender().send(Command::Export { reply: tx }).unwrap();
    let recovered = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    engine.kill();
    assert_same_state(recovered, &v4, "the recovered engine");
}

#[test]
fn the_scenario_still_writes_the_v5_run_byte_for_byte() {
    let dir = Arc::new(MemDir::new());
    let live = run_scenario(dir.clone(), 2);
    let mut names = dir.list().unwrap();
    names.sort();
    assert_eq!(names, V5_RUN_FILES);
    for (name, want) in V5_RUN_FILES
        .iter()
        .zip([HIST_V5_RUN, SNAP_V5_RUN, WAL_V5_RUN])
    {
        assert!(
            dir.contents(name).unwrap() == want,
            "{name} differs from its fixture"
        );
    }
    assert_same_state(live, &decode_snap("snap_v4", SNAP_V4), "the live export");
}
