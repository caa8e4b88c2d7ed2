//! Fuzz-style recovery sweep: every prefix of a valid log, and every
//! single-bit flip of it, must either recover cleanly (yielding a
//! prefix of the original records — never phantom ones) or fail with a
//! typed [`StoreError::Corrupt`]. Nothing in this sweep is allowed to
//! panic: a daemon restarting after a crash must always reach one of
//! those two outcomes.

use gridband_net::{CapacityLedger, Route, Topology};
use gridband_store::{
    Dir, EngineSnapshot, FsyncPolicy, MemDir, RoundDecision, Store, StoreError, WalRecord,
    SNAPSHOT_VERSION,
};
use std::sync::Arc;

/// A realistic log: the exact record shapes the serve engine writes.
fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Round {
            t: 5.0,
            decisions: vec![
                RoundDecision::Accept {
                    id: 0,
                    ingress: 0,
                    egress: 1,
                    bw: 123.456_789_012_345,
                    start: 5.0,
                    finish: 31.25,
                    cancelled: false,
                },
                RoundDecision::Reject { id: 1 },
            ],
        },
        WalRecord::EarlyReject { id: 2 },
        WalRecord::Round {
            t: 10.0,
            decisions: vec![RoundDecision::Accept {
                id: 3,
                ingress: 1,
                egress: 0,
                bw: 0.1 + 0.2,
                start: 10.0,
                finish: 60.0,
                cancelled: true,
            }],
        },
        WalRecord::Cancel { id: 0 },
        WalRecord::Round {
            t: 15.0,
            decisions: vec![],
        },
    ]
}

fn sample_snapshot() -> EngineSnapshot {
    let mut ledger = CapacityLedger::new(Topology::uniform(2, 2, 1000.0));
    ledger.reserve(Route::new(0, 1), 0.0, 40.0, 250.0).unwrap();
    EngineSnapshot {
        version: SNAPSHOT_VERSION,
        now: 0.0,
        next_tick: 5.0,
        rounds: 0,
        ledger: ledger.export_state(),
        accepted: vec![],
        states: vec![],
        holds: vec![],
        hist: None,
    }
}

/// Build a store holding `snapshot` + `records`, then return the raw
/// bytes of its snapshot and WAL files.
fn build_files() -> (Vec<u8>, Vec<u8>, usize) {
    let dir = Arc::new(MemDir::new());
    let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
    store.install_snapshot(&sample_snapshot().encode()).unwrap();
    for rec in sample_records() {
        store.append(&rec.encode()).unwrap();
    }
    let snap = dir.contents("snap-1").unwrap();
    let wal = dir.contents("wal-1").unwrap();
    (snap, wal, sample_records().len())
}

/// Open a store over the given exact file contents; returns the decoded
/// records on success.
fn recover(snap: &[u8], wal: &[u8]) -> Result<Vec<WalRecord>, StoreError> {
    let dir = Arc::new(MemDir::new());
    dir.put("snap-1", snap.to_vec());
    dir.put("wal-1", wal.to_vec());
    let (_, rec) = Store::open(dir, FsyncPolicy::Off)?;
    // The snapshot must decode too — recovery depends on it.
    let payload = rec.snapshot.expect("snapshot present");
    EngineSnapshot::decode("snap-1", &payload)?;
    rec.records
        .iter()
        .map(|(off, p)| WalRecord::decode("wal-1", *off, p))
        .collect()
}

#[test]
fn every_wal_prefix_recovers_a_clean_record_prefix() {
    let (snap, wal, _) = build_files();
    let originals = sample_records();
    for cut in 0..=wal.len() {
        let got = recover(&snap, &wal[..cut])
            .unwrap_or_else(|e| panic!("prefix of {cut} bytes must recover, got {e}"));
        assert!(
            got.len() <= originals.len() && got == originals[..got.len()],
            "cut at {cut}: recovered records are not a prefix"
        );
    }
    // The full file recovers everything.
    assert_eq!(recover(&snap, &wal).unwrap(), originals);
}

#[test]
fn every_single_bit_flip_in_the_wal_recovers_or_reports_corrupt() {
    let (snap, wal, _) = build_files();
    let originals = sample_records();
    for byte in 0..wal.len() {
        for bit in 0..8 {
            let mut damaged = wal.clone();
            damaged[byte] ^= 1 << bit;
            match recover(&snap, &damaged) {
                Ok(got) => {
                    // Clean recovery is only legal if no damaged record
                    // survived: the result must be a strict prefix of
                    // the originals (the flipped record was torn away),
                    // never an altered or phantom record.
                    assert!(
                        got.len() < originals.len() && got == originals[..got.len()],
                        "flip {byte}.{bit}: damaged log recovered non-prefix records"
                    );
                }
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("flip {byte}.{bit}: unexpected error kind {other}"),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_in_the_snapshot_is_corrupt() {
    let (snap, wal, _) = build_files();
    for byte in 0..snap.len() {
        let mut damaged = snap.clone();
        damaged[byte] ^= 0x10;
        match recover(&damaged, &wal) {
            Err(StoreError::Corrupt { .. }) => {}
            Ok(_) => panic!("flip at byte {byte} of the snapshot went unnoticed"),
            Err(other) => panic!("flip at {byte}: unexpected error kind {other}"),
        }
    }
}

#[test]
fn cross_generation_recovery_resumes_at_the_new_generation() {
    // Lifecycle under test: a store already holding generation-1 state
    // installs a fresh snapshot (opening generation 2), appends more
    // rounds, then crashes mid-append of the final record. Recovery
    // must come back *in generation 2* — snapshot plus only the intact
    // gen-2 records — with the torn record dropped cleanly, for every
    // possible tear point inside that final record.
    let records = sample_records();
    let dir = Arc::new(MemDir::new());
    let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
    store.install_snapshot(&sample_snapshot().encode()).unwrap();
    store.append(&records[0].encode()).unwrap();
    store.append(&records[1].encode()).unwrap();
    store.install_snapshot(&sample_snapshot().encode()).unwrap();
    assert_eq!(store.generation(), 2);
    for rec in &records {
        store.append(&rec.encode()).unwrap();
    }
    let full = dir.contents("wal-2").unwrap();
    let last_len = records.last().unwrap().encode().len() + 8; // header + payload
    let intact_len = full.len() - last_len;

    for cut in intact_len + 1..full.len() {
        let d = Arc::new(MemDir::new());
        d.put("snap-2", dir.contents("snap-2").unwrap());
        d.put("wal-2", full[..cut].to_vec());
        // A stale generation-1 straggler must not confuse recovery.
        d.put(
            "wal-1",
            dir.contents("wal-2").unwrap()[..intact_len].to_vec(),
        );
        let (_, rec) = Store::open(d.clone(), FsyncPolicy::Off).unwrap();
        assert_eq!(rec.gen, 2, "cut at {cut}: tail must start at the new gen");
        assert!(rec.truncated_tail, "cut at {cut}");
        let got: Vec<WalRecord> = rec
            .records
            .iter()
            .map(|(off, p)| WalRecord::decode("wal-2", *off, p).unwrap())
            .collect();
        assert_eq!(
            got,
            records[..records.len() - 1],
            "cut at {cut}: torn final record must be dropped, earlier ones kept"
        );
        // The decoded snapshot opens the new generation.
        EngineSnapshot::decode("snap-2", &rec.snapshot.unwrap()).unwrap();
        // Stale-generation files are swept.
        assert!(!d.list().unwrap().contains(&"wal-1".to_string()));
    }
}

#[test]
fn prefix_damage_then_reopen_appends_cleanly() {
    // After recovering a torn log, the store must be usable: new
    // appends extend the repaired file and survive the next recovery.
    let (snap, wal, _) = build_files();
    let originals = sample_records();
    let dir = Arc::new(MemDir::new());
    dir.put("snap-1", snap);
    dir.put("wal-1", wal[..wal.len() - 3].to_vec()); // torn tail
    let (mut store, rec) = Store::open(dir.clone(), FsyncPolicy::Round).unwrap();
    assert!(rec.truncated_tail);
    assert_eq!(rec.records.len(), originals.len() - 1);

    let extra = WalRecord::Cancel { id: 3 };
    store.append(&extra.encode()).unwrap();
    store.round_barrier().unwrap();

    let (_, rec) = Store::open(dir, FsyncPolicy::Round).unwrap();
    assert!(!rec.truncated_tail);
    let got: Vec<WalRecord> = rec
        .records
        .iter()
        .map(|(off, p)| WalRecord::decode("wal-1", *off, p).unwrap())
        .collect();
    let mut want = originals[..originals.len() - 1].to_vec();
    want.push(extra);
    assert_eq!(got, want);
}
