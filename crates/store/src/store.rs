//! The generation-numbered WAL + snapshot store.
//!
//! On disk a store is a flat directory of at most two generations of
//! files, plus the outcome log:
//!
//! ```text
//! snap-<G>   # snapshot that opens generation G (absent for G = 0)
//! wal-<G>    # records appended since that snapshot
//! hist-<N>   # outcome log, started by the snapshot of generation N
//! ```
//!
//! Installing a snapshot is the truncation point of the log: the new
//! `snap-<G+1>` is written atomically and durably, a fresh empty
//! `wal-<G+1>` is created, and only then are the generation-`G` files
//! deleted. A crash between any two of those steps leaves either
//! generation fully intact, and recovery picks the highest generation
//! that has a snapshot.
//!
//! The outcome log keeps the decided-request history out of the
//! snapshots: it is framed like a WAL, and each snapshot first appends
//! (durably) the outcomes recorded since the previous one as
//! [`WalRecord::Outcomes`] batches, then names the log's length in its
//! [`EngineSnapshot::hist`]. Recovery replays the log up to that length
//! only, so bytes appended for a snapshot that never got installed are
//! ignored. A fresh log (`hist-<G+1>`, written atomically with the
//! current history) replaces the old one when it grows too long, and on
//! the first snapshot of every [`Store`] opened: this store never appends
//! to a log that an earlier process wrote. The superseded log is deleted
//! once the snapshot naming the new one is installed.
//!
//! [`EngineSnapshot::hist`]: crate::records::EngineSnapshot::hist

use crate::dir::Dir;
use crate::error::{StoreError, StoreResult};
use crate::records::{HistRef, RequestOutcome, WalRecord};
use crate::wal::{frame_record, parse_snapshot, scan_wal, MAGIC_SNAP, MAGIC_WAL};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When WAL appends are flushed to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended record (cancels and early rejects are
    /// durable before their replies are sent).
    Always,
    /// Fsync once per admission round, before the round's replies are
    /// sent. Decisions are never externalized without being durable;
    /// cancels logged between rounds ride with the next round's flush.
    Round,
    /// Never fsync (the OS flushes eventually). Survives process kills
    /// but not power loss; for benchmarks and tests.
    Off,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "round" => Ok(FsyncPolicy::Round),
            "off" => Ok(FsyncPolicy::Off),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected always|round|off)"
            )),
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Round => "round",
            FsyncPolicy::Off => "off",
        })
    }
}

/// How the serve engine should persist itself; carried inside its
/// (cloneable) config.
#[derive(Clone)]
pub struct StoreConfig {
    /// The directory the WAL and snapshots live in.
    pub dir: Arc<dyn Dir>,
    /// When appends are flushed.
    pub fsync: FsyncPolicy,
    /// Install a snapshot (and truncate the log) every this many
    /// admission rounds; `0` disables periodic snapshots.
    pub snapshot_every: u64,
}

impl fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreConfig")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("snapshot_every", &self.snapshot_every)
            .finish()
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// Generation the store resumed at.
    pub gen: u64,
    /// The snapshot payload opening that generation, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Intact WAL records after the snapshot: `(offset, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Whether a torn tail was dropped from the WAL.
    pub truncated_tail: bool,
}

/// Outcome of one append.
#[derive(Debug, Clone, Copy)]
pub struct Append {
    /// Framed bytes written (header + payload).
    pub bytes: u64,
    /// Fsync latency, when the policy flushed this append.
    pub fsync: Option<Duration>,
}

/// An open write-ahead-log + snapshot store over a [`Dir`].
#[derive(Debug)]
pub struct Store {
    dir: Arc<dyn Dir>,
    fsync: FsyncPolicy,
    gen: u64,
    /// Appended-but-not-yet-synced bytes exist.
    dirty: bool,
    /// The outcome log this store writes, once its first snapshot has
    /// started one.
    hist: Option<OutcomeLog>,
    /// A fresh outcome log awaits its snapshot; the install deletes every
    /// other `hist-*` file.
    sweep_hist: bool,
}

/// The outcome log a [`Store`] appends to.
#[derive(Debug, Clone, Copy)]
struct OutcomeLog {
    /// Its file and current length.
    at: HistRef,
    /// Outcome entries it holds.
    entries: u64,
}

/// Most entries one [`WalRecord::Outcomes`] batch carries (≈590 KB), so
/// that a compacted history of any size frames within `MAX_RECORD`.
const OUTCOME_BATCH: usize = 1 << 16;

/// Frame `outcomes` onto `out` as [`WalRecord::Outcomes`] batches;
/// returns the entry count.
fn frame_outcomes(
    out: &mut Vec<u8>,
    outcomes: impl IntoIterator<Item = (u64, RequestOutcome)>,
) -> u64 {
    let mut entries = 0;
    let mut outcomes = outcomes.into_iter().peekable();
    while outcomes.peek().is_some() {
        let batch: Vec<_> = outcomes.by_ref().take(OUTCOME_BATCH).collect();
        entries += batch.len() as u64;
        out.extend_from_slice(&frame_record(&WalRecord::Outcomes(batch).encode()));
    }
    entries
}

/// File name of outcome log `log`.
pub fn hist_name(log: u64) -> String {
    format!("hist-{log}")
}

/// The framed records of the outcome log a snapshot references: those of
/// `hist-<at.log>` that lie wholly before byte `at.len`. The log must
/// reach that far and hold whole records up to it; what was appended
/// after the snapshot is not read. A missing file is
/// [`StoreError::Io`] with [`std::io::ErrorKind::NotFound`].
pub fn read_outcome_log(dir: &dyn Dir, at: HistRef) -> StoreResult<Vec<(u64, Vec<u8>)>> {
    let file = hist_name(at.log);
    let data = dir.read(&file).map_err(|e| StoreError::io(&file, e))?;
    let Some(prefix) = data.get(..at.len as usize) else {
        return Err(StoreError::corrupt(
            &file,
            data.len() as u64,
            format!(
                "outcome log ends at byte {} but its snapshot names {}",
                data.len(),
                at.len
            ),
        ));
    };
    let scan = scan_wal(&file, prefix)?;
    if scan.truncated {
        return Err(StoreError::corrupt(
            &file,
            scan.valid_len,
            "damaged record inside the outcome log's named length",
        ));
    }
    Ok(scan.records)
}

/// File name of generation `gen`'s write-ahead log.
pub fn wal_name(gen: u64) -> String {
    format!("wal-{gen}")
}

/// File name of the snapshot opening generation `gen`.
pub fn snap_name(gen: u64) -> String {
    format!("snap-{gen}")
}

/// Parse `wal-<n>` / `snap-<n>` names; returns (is_snap, gen).
pub(crate) fn parse_name(name: &str) -> Option<(bool, u64)> {
    if let Some(n) = name.strip_prefix("wal-") {
        return n.parse().ok().map(|g| (false, g));
    }
    if let Some(n) = name.strip_prefix("snap-") {
        return n.parse().ok().map(|g| (true, g));
    }
    None
}

impl Store {
    /// Open the store in `dir`, recovering whatever a previous process
    /// left there. Returns the store (positioned to append at the end
    /// of the valid log) plus the recovered snapshot and records.
    ///
    /// Torn tails — from a crash mid-append or mid-creation — are
    /// truncated away so later appends extend a valid log. Mid-log
    /// damage fails with [`StoreError::Corrupt`].
    pub fn open(dir: Arc<dyn Dir>, fsync: FsyncPolicy) -> StoreResult<(Store, Recovered)> {
        let names = dir.list().map_err(|e| StoreError::io(".", e))?;

        // Sweep leftovers of interrupted atomic replaces.
        for name in &names {
            if name.starts_with(".tmp.") {
                dir.remove(name).map_err(|e| StoreError::io(name, e))?;
            }
        }

        let gen = names
            .iter()
            .filter_map(|n| parse_name(n))
            .filter_map(|(is_snap, g)| is_snap.then_some(g))
            .max()
            .unwrap_or(0);

        let snapshot = if names.contains(&snap_name(gen)) {
            let file = snap_name(gen);
            let data = dir.read(&file).map_err(|e| StoreError::io(&file, e))?;
            Some(parse_snapshot(&file, &data)?)
        } else {
            None
        };

        // Older generations are superseded; a stray higher-gen WAL
        // without its snapshot cannot exist (the snapshot is installed
        // first), but remove any such stragglers defensively too.
        for name in &names {
            if let Some((_, g)) = parse_name(name) {
                if g != gen {
                    dir.remove(name).map_err(|e| StoreError::io(name, e))?;
                }
            }
        }

        let file = wal_name(gen);
        let (records, truncated_tail) = match dir.read(&file) {
            Ok(data) => {
                let scan = scan_wal(&file, &data)?;
                if scan.valid_len < data.len() as u64 {
                    // Drop the torn tail so appends extend a valid log.
                    if scan.valid_len == 0 {
                        dir.replace(&file, MAGIC_WAL)
                            .map_err(|e| StoreError::io(&file, e))?;
                    } else {
                        dir.truncate(&file, scan.valid_len)
                            .map_err(|e| StoreError::io(&file, e))?;
                    }
                }
                (scan.records, scan.truncated)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Fresh store, or a crash after snapshot install but
                // before the new WAL was created.
                dir.replace(&file, MAGIC_WAL)
                    .map_err(|e| StoreError::io(&file, e))?;
                (Vec::new(), false)
            }
            Err(e) => return Err(StoreError::io(&file, e)),
        };

        Ok((
            Store {
                dir,
                fsync,
                gen,
                dirty: false,
                hist: None,
                sweep_hist: false,
            },
            Recovered {
                gen,
                snapshot,
                records,
                truncated_tail,
            },
        ))
    }

    /// The generation currently being appended to.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Append one framed record; under [`FsyncPolicy::Always`] it is
    /// durable when this returns.
    pub fn append(&mut self, payload: &[u8]) -> StoreResult<Append> {
        let file = wal_name(self.gen);
        let frame = frame_record(payload);
        self.dir
            .append(&file, &frame)
            .map_err(|e| StoreError::io(&file, e))?;
        self.dirty = true;
        let fsync = if self.fsync == FsyncPolicy::Always {
            Some(self.sync_wal()?)
        } else {
            None
        };
        Ok(Append {
            bytes: frame.len() as u64,
            fsync,
        })
    }

    /// Append a batch of records as one write and one durability point:
    /// every payload is framed, the frames land in a single `Dir::append`
    /// call, and the file is flushed **once** under both
    /// [`FsyncPolicy::Always`] and [`FsyncPolicy::Round`] (a batch *is* a
    /// round barrier — anything appended earlier and still unflushed
    /// rides along, exactly as [`Store::round_barrier`] would flush it).
    /// The resulting file bytes are identical to sequential
    /// [`Store::append`] calls of the same payloads.
    pub fn append_batch(&mut self, payloads: &[&[u8]]) -> StoreResult<Append> {
        let file = wal_name(self.gen);
        let mut frames = Vec::with_capacity(
            payloads
                .iter()
                .map(|p| crate::wal::RECORD_HEADER + p.len())
                .sum(),
        );
        for payload in payloads {
            frames.extend_from_slice(&frame_record(payload));
        }
        self.dir
            .append(&file, &frames)
            .map_err(|e| StoreError::io(&file, e))?;
        self.dirty = true;
        let fsync = if self.fsync != FsyncPolicy::Off {
            Some(self.sync_wal()?)
        } else {
            None
        };
        Ok(Append {
            bytes: frames.len() as u64,
            fsync,
        })
    }

    /// Round barrier: under [`FsyncPolicy::Round`], flush everything
    /// appended since the last barrier. Returns the fsync latency when
    /// a flush happened. Call this *before* externalizing the round's
    /// decisions.
    pub fn round_barrier(&mut self) -> StoreResult<Option<Duration>> {
        if self.fsync == FsyncPolicy::Round && self.dirty {
            return Ok(Some(self.sync_wal()?));
        }
        Ok(None)
    }

    fn sync_wal(&mut self) -> StoreResult<Duration> {
        let file = wal_name(self.gen);
        let t0 = Instant::now();
        self.dir.sync(&file).map_err(|e| StoreError::io(&file, e))?;
        self.dirty = false;
        Ok(t0.elapsed())
    }

    /// Entries in the outcome log this store writes; `None` until a
    /// [`Store::start_outcome_log`].
    pub fn outcome_log_entries(&self) -> Option<u64> {
        self.hist.map(|h| h.entries)
    }

    /// Start a fresh outcome log holding exactly `outcomes` (the whole
    /// current history, oldest first), for the next snapshot to name:
    /// `hist-<G+1>`, written atomically and durably. The log it replaces
    /// stays until that snapshot is installed. Returns where the new log
    /// ends.
    pub fn start_outcome_log(
        &mut self,
        outcomes: impl IntoIterator<Item = (u64, RequestOutcome)>,
    ) -> StoreResult<HistRef> {
        let mut data = MAGIC_WAL.to_vec();
        let entries = frame_outcomes(&mut data, outcomes);
        let at = HistRef {
            log: self.gen + 1,
            len: data.len() as u64,
        };
        let file = hist_name(at.log);
        self.dir
            .replace(&file, &data)
            .map_err(|e| StoreError::io(&file, e))?;
        self.hist = Some(OutcomeLog { at, entries });
        self.sweep_hist = true;
        Ok(at)
    }

    /// Append `outcomes`, in the order they were recorded, to the
    /// outcome log, and make them durable (regardless of the fsync
    /// policy — a snapshot must never name bytes that could be lost).
    /// Returns where the log now ends. Panics if no log was started.
    pub fn append_outcomes(
        &mut self,
        outcomes: Vec<(u64, RequestOutcome)>,
    ) -> StoreResult<HistRef> {
        let log = self.hist.as_mut().expect("an outcome log was started");
        if outcomes.is_empty() {
            return Ok(log.at);
        }
        let mut frames = Vec::new();
        let entries = frame_outcomes(&mut frames, outcomes);
        let file = hist_name(log.at.log);
        self.dir
            .append(&file, &frames)
            .map_err(|e| StoreError::io(&file, e))?;
        self.dir.sync(&file).map_err(|e| StoreError::io(&file, e))?;
        log.at.len += frames.len() as u64;
        log.entries += entries;
        Ok(log.at)
    }

    /// Install a snapshot, advancing to the next generation and
    /// truncating the log: the snapshot is written atomically and made
    /// durable (regardless of the fsync policy — log truncation must
    /// never outrun the snapshot), a fresh WAL is created, and the old
    /// generation's files are deleted — and, after a
    /// [`Store::start_outcome_log`], every outcome log but the new one.
    /// Returns bytes written.
    pub fn install_snapshot(&mut self, payload: &[u8]) -> StoreResult<u64> {
        let new_gen = self.gen + 1;
        let snap = snap_name(new_gen);
        let mut data = MAGIC_SNAP.to_vec();
        data.extend_from_slice(&frame_record(payload));
        self.dir
            .replace(&snap, &data)
            .map_err(|e| StoreError::io(&snap, e))?;
        let wal = wal_name(new_gen);
        self.dir
            .replace(&wal, MAGIC_WAL)
            .map_err(|e| StoreError::io(&wal, e))?;
        let old_wal = wal_name(self.gen);
        let old_snap = snap_name(self.gen);
        self.dir
            .remove(&old_wal)
            .map_err(|e| StoreError::io(&old_wal, e))?;
        self.dir
            .remove(&old_snap)
            .map_err(|e| StoreError::io(&old_snap, e))?;
        self.gen = new_gen;
        self.dirty = false;
        if std::mem::take(&mut self.sweep_hist) {
            let keep = self.hist.map(|h| hist_name(h.at.log));
            let names = self.dir.list().map_err(|e| StoreError::io(".", e))?;
            for name in names {
                if name.starts_with("hist-") && Some(&name) != keep.as_ref() {
                    self.dir
                        .remove(&name)
                        .map_err(|e| StoreError::io(&name, e))?;
                }
            }
        }
        Ok(data.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::MemDir;

    fn mem() -> Arc<MemDir> {
        Arc::new(MemDir::new())
    }

    #[test]
    fn fresh_open_append_reopen_roundtrip() {
        let dir = mem();
        let (mut store, rec) = Store::open(dir.clone(), FsyncPolicy::Round).unwrap();
        assert_eq!(rec.gen, 0);
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
        store.append(b"r1").unwrap();
        store.append(b"r2").unwrap();
        assert!(store.round_barrier().unwrap().is_some());
        assert!(store.round_barrier().unwrap().is_none(), "already clean");

        let (_, rec) = Store::open(dir, FsyncPolicy::Round).unwrap();
        let payloads: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"r1".as_slice(), b"r2".as_slice()]);
        assert!(!rec.truncated_tail);
    }

    #[test]
    fn always_policy_syncs_each_append() {
        let (mut store, _) = Store::open(mem(), FsyncPolicy::Always).unwrap();
        let a = store.append(b"x").unwrap();
        assert!(a.fsync.is_some());
        assert!(store.round_barrier().unwrap().is_none());
    }

    #[test]
    fn off_policy_never_syncs() {
        let (mut store, _) = Store::open(mem(), FsyncPolicy::Off).unwrap();
        assert!(store.append(b"x").unwrap().fsync.is_none());
        assert!(store.round_barrier().unwrap().is_none());
    }

    #[test]
    fn append_batch_is_byte_identical_to_sequential_appends() {
        let payloads: Vec<&[u8]> = vec![b"round one", b"", b"a longer third record payload"];
        let seq_dir = mem();
        let (mut seq, _) = Store::open(seq_dir.clone(), FsyncPolicy::Round).unwrap();
        let mut seq_bytes = 0;
        for p in &payloads {
            seq_bytes += seq.append(p).unwrap().bytes;
        }
        seq.round_barrier().unwrap();

        let batch_dir = mem();
        let (mut batch, _) = Store::open(batch_dir.clone(), FsyncPolicy::Round).unwrap();
        let a = batch.append_batch(&payloads).unwrap();
        assert_eq!(a.bytes, seq_bytes);
        assert!(a.fsync.is_some(), "Round policy flushes the batch once");
        assert!(
            batch.round_barrier().unwrap().is_none(),
            "the batch flush already cleared the dirty flag"
        );

        assert_eq!(
            seq_dir.contents("wal-0").unwrap(),
            batch_dir.contents("wal-0").unwrap(),
            "batched and sequential appends must produce identical WAL bytes"
        );

        // Both logs recover the same records.
        let (_, rec) = Store::open(batch_dir, FsyncPolicy::Round).unwrap();
        let got: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(got, payloads);
    }

    #[test]
    fn append_batch_flushes_earlier_unflushed_appends() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Round).unwrap();
        store.append(b"event before the round").unwrap();
        let a = store.append_batch(&[b"the round record"]).unwrap();
        assert!(a.fsync.is_some());
        assert!(store.round_barrier().unwrap().is_none(), "nothing dirty");
        // Off never flushes, Always flushes the batch once.
        let (mut off, _) = Store::open(mem(), FsyncPolicy::Off).unwrap();
        assert!(off.append_batch(&[b"x", b"y"]).unwrap().fsync.is_none());
        let (mut always, _) = Store::open(mem(), FsyncPolicy::Always).unwrap();
        assert!(always.append_batch(&[b"x", b"y"]).unwrap().fsync.is_some());
    }

    #[test]
    fn snapshot_truncates_log_and_advances_generation() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Round).unwrap();
        store.append(b"old1").unwrap();
        store.append(b"old2").unwrap();
        store.install_snapshot(b"STATE").unwrap();
        assert_eq!(store.generation(), 1);
        store.append(b"tail").unwrap();

        // Old generation files are gone.
        let mut names = dir.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["snap-1", "wal-1"]);

        let (_, rec) = Store::open(dir, FsyncPolicy::Round).unwrap();
        assert_eq!(rec.gen, 1);
        assert_eq!(rec.snapshot.as_deref(), Some(b"STATE".as_slice()));
        let payloads: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"tail".as_slice()]);
    }

    #[test]
    fn torn_tail_is_truncated_then_appendable() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
        store.append(b"keep").unwrap();
        store.append(b"torn-away").unwrap();
        let mut raw = dir.contents("wal-0").unwrap();
        raw.truncate(raw.len() - 4); // cut inside the last payload
        dir.put("wal-0", raw);

        let (mut store, rec) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
        assert!(rec.truncated_tail);
        let payloads: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"keep".as_slice()]);

        // The repaired log accepts appends and stays fully valid.
        store.append(b"after").unwrap();
        let (_, rec) = Store::open(dir, FsyncPolicy::Off).unwrap();
        assert!(!rec.truncated_tail);
        let payloads: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"keep".as_slice(), b"after".as_slice()]);
    }

    #[test]
    fn torn_write_injection_recovers_the_synced_prefix() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Round).unwrap();
        store.append(b"whole record").unwrap();
        // Allow only 5 more bytes: the next append tears mid-header.
        dir.set_write_budget(5);
        assert!(store.append(b"never lands intact").is_err());
        dir.clear_write_budget();

        let (_, rec) = Store::open(dir, FsyncPolicy::Round).unwrap();
        assert!(rec.truncated_tail);
        let payloads: Vec<_> = rec.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"whole record".as_slice()]);
    }

    #[test]
    fn mid_log_corruption_is_reported_with_offset() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
        store.append(b"first").unwrap();
        store.append(b"second").unwrap();
        let mut raw = dir.contents("wal-0").unwrap();
        let first_payload = MAGIC_WAL.len() + 8;
        raw[first_payload] ^= 0x40;
        dir.put("wal-0", raw);
        match Store::open(dir, FsyncPolicy::Off) {
            Err(StoreError::Corrupt { file, offset, .. }) => {
                assert_eq!(file, "wal-0");
                assert_eq!(offset, MAGIC_WAL.len() as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_is_fatal_not_silently_skipped() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
        store.append(b"r").unwrap();
        store.install_snapshot(b"SNAP").unwrap();
        let mut raw = dir.contents("snap-1").unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x01;
        dir.put("snap-1", raw);
        assert!(matches!(
            Store::open(dir, FsyncPolicy::Off),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_wal_after_snapshot_install_is_recreated() {
        let dir = mem();
        let (mut store, _) = Store::open(dir.clone(), FsyncPolicy::Off).unwrap();
        store.install_snapshot(b"S").unwrap();
        // Simulate a crash that lost the freshly created (never-synced
        // into the dir listing) wal-1.
        dir.remove("wal-1").unwrap();
        let (_, rec) = Store::open(dir, FsyncPolicy::Off).unwrap();
        assert_eq!(rec.gen, 1);
        assert_eq!(rec.snapshot.as_deref(), Some(b"S".as_slice()));
        assert!(rec.records.is_empty());
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("round".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Round);
        assert_eq!("off".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Off);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Round.to_string(), "round");
    }
}
