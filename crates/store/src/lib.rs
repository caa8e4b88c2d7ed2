//! `gridband-store`: the durability subsystem of the reservation daemon.
//!
//! A crash or restart of `gridband-serve` must not silently void the
//! bandwidth commitments its admission rounds handed out. This crate
//! gives the engine a write-ahead log of *round outcomes* plus periodic
//! snapshots of its full state, and a recovery path that rebuilds the
//! exact pre-crash engine:
//!
//! * [`dir`] — the [`Dir`] filesystem abstraction. Production uses
//!   [`FsDir`]; tests use [`MemDir`],
//!   which can cut writes mid-record to inject torn-write crashes.
//! * [`wal`] — length-prefixed, CRC32-checksummed record framing and the
//!   scan that classifies damage: a torn *tail* (incomplete record, or a
//!   checksum mismatch on the final record) is dropped cleanly, while a
//!   corrupt *mid-log* record fails with [`StoreError::Corrupt`] and its
//!   exact byte offset.
//! * [`store`] — [`Store`]: generation-numbered WAL +
//!   snapshot files, the append-only outcome log that keeps the
//!   decided-request history out of snapshots, fsync policies, and log
//!   truncation once a snapshot is durable.
//! * [`tail`] — [`WalTail`]: a read-only cursor that
//!   tails a live store for newly installed snapshots and appended
//!   records, tolerating in-flight torn tails; the primary-side source
//!   of `gridband-replica`'s WAL shipping stream.
//! * [`records`] — the typed payloads the serve engine logs: one
//!   [`WalRecord::Round`] per admission round (its whole decision batch
//!   in one atomic record), plus cancels and early rejects, the
//!   [`EngineSnapshot`] state image, and the outcome log's
//!   [`WalRecord::Outcomes`] batches.
//!
//! The correctness bar, proven by `gridband-serve`'s
//! recovery-equivalence tests: a daemon killed at any round boundary or
//! torn-write point and then recovered decides the rest of the workload
//! *bit-identically* to a never-killed daemon — same accepted set, same
//! per-request `bw/σ/τ`, same final port profiles.

#![warn(missing_docs)]

pub mod dir;
pub mod error;
pub mod records;
pub mod store;
pub mod tail;
pub mod wal;

pub use dir::{Dir, DirSignal, FsDir, MemDir};
pub use error::{StoreError, StoreResult};
pub use records::{
    EngineSnapshot, HistRef, HoldState, RequestOutcome, RoundDecision, WalRecord, OUTCOME_ENTRY,
    SNAPSHOT_MIN_VERSION, SNAPSHOT_VERSION,
};
pub use store::{
    hist_name, read_outcome_log, snap_name, wal_name, Append, FsyncPolicy, Recovered, Store,
    StoreConfig,
};
pub use tail::{TailCursor, TailEvent, WalTail};
pub use wal::crc32;
