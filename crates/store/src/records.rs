//! Typed payloads the serve engine writes through the [`Store`].
//!
//! The central design decision is that one admission round is **one**
//! WAL record: [`WalRecord::Round`] carries the round's virtual time and
//! its *entire* decision batch. A crash while the record is in flight
//! therefore drops the whole round atomically — recovery lands exactly
//! at the end of round `k − 1`, clients resubmit their unreplied
//! requests, and the re-run round re-decides them bit-identically (the
//! policies in `gridband-algos` depend only on decision-time state, see
//! the recovery-equivalence tests in `gridband-serve`). There is never a
//! half-applied round to reconcile.
//!
//! Payloads are serialized as JSON (via the vendored `serde_json`, whose
//! float formatting round-trips `f64` bit-exactly) and framed/checksummed
//! by the [`wal`](crate::wal) layer. The one exception is
//! [`WalRecord::Outcomes`], the record of the outcome log, which is
//! binary: a JSON payload always opens with `{`, so the first byte tells
//! the two apart. Corruption that survives the CRC —
//! possible only through version drift or a writer bug — is still
//! reported as a precise [`StoreError::Corrupt`] with the record's byte
//! offset, never a panic.
//!
//! [`Store`]: crate::store::Store

use crate::error::{StoreError, StoreResult};
use gridband_net::{LedgerState, PortRef, SegSpan};
use serde::{Deserialize, Serialize};

/// Version stamp inside [`EngineSnapshot`]; bump on layout changes so a
/// newer daemon refuses (rather than misreads) an older image.
///
/// v2: the ledger carries live capacity holds and the snapshot carries
/// the engine's hold table (two-phase cross-shard admission).
///
/// v3: the ledger carries its GC watermark and snapshot writes are
/// compacted — expired reservations are collected and port profiles
/// truncated before export, so an image restored from disk is the same
/// compacted state a GC'ing engine holds in memory.
///
/// v4: the ledger carries live *segmented* (malleable) reservations and
/// rounds may log segmented grants ([`RoundDecision::AcceptSegments`])
/// and mid-flight renegotiations ([`RoundDecision::Amend`]).
///
/// v5: a snapshot the engine writes leaves the decided-request history
/// out (`states` is empty) and names, in [`EngineSnapshot::hist`], how far
/// the append-only outcome log reached when it was taken. An image with
/// `hist: None` — every v2–v4 image, and the engine's export that
/// replication ships — carries the history inline in `states`, as before.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Oldest snapshot version this build still decodes. A v2 image differs
/// from v3 only by the absent ledger `watermark` field (deserialized as
/// `None` — "never collected") and by not being compacted; a v3 image
/// from v4 only by the absent ledger `live_seg` field (deserialized as
/// `None` — "no segmented reservations", which is exactly what a
/// pre-malleable daemon had); a v4 image from v5 only by the absent
/// `hist` field (deserialized as `None` — "the history is inline"). The
/// engine handles each, so a daemon upgraded across any of these changes
/// recovers its pre-upgrade durable state.
/// Versions below this had a different ledger layout and are refused.
pub const SNAPSHOT_MIN_VERSION: u32 = 2;

/// One admission decision inside a [`WalRecord::Round`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoundDecision {
    /// The request was admitted with an assigned `(bw, σ, τ)`.
    Accept {
        /// Engine-assigned request id.
        id: u64,
        /// Ingress port index of the booked route.
        ingress: u32,
        /// Egress port index of the booked route.
        egress: u32,
        /// Assigned constant bandwidth (MB/s).
        bw: f64,
        /// Assigned start instant σ (virtual seconds).
        start: f64,
        /// Assigned finish instant τ (virtual seconds).
        finish: f64,
        /// The client cancelled while the request was still pending; the
        /// acceptance was immediately voided. Replay must book then
        /// cancel so reservation-id allocation stays in sync.
        cancelled: bool,
    },
    /// The request was admitted with a stepwise (malleable) plan booked
    /// via `CapacityLedger::reserve_segments`.
    AcceptSegments {
        /// Engine-assigned request id.
        id: u64,
        /// Ingress port index of the booked route.
        ingress: u32,
        /// Egress port index of the booked route.
        egress: u32,
        /// The granted constant-rate segments, in time order.
        segments: Vec<SegSpan>,
        /// The client cancelled while the request was still pending; the
        /// acceptance was immediately voided. Replay must book then
        /// cancel so reservation-id allocation stays in sync.
        cancelled: bool,
    },
    /// A live segmented reservation was renegotiated mid-flight: its
    /// plan was atomically replaced (same request id, same reservation
    /// id). Only *granted* amends are logged — a rejected amend changes
    /// no durable state.
    Amend {
        /// Request id whose reservation was amended.
        id: u64,
        /// The replacement segments, in time order.
        segments: Vec<SegSpan>,
    },
    /// The request was rejected in this round.
    Reject {
        /// Engine-assigned request id.
        id: u64,
    },
}

/// One durable event in the write-ahead log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// An admission round completed: the virtual round time and every
    /// decision it produced, in decision order, as one atomic record.
    Round {
        /// Virtual time of the round tick.
        t: f64,
        /// The round's full decision batch, in the order decided.
        decisions: Vec<RoundDecision>,
    },
    /// A live (already accepted) reservation was cancelled between
    /// rounds, freeing its capacity.
    Cancel {
        /// Request id whose reservation was cancelled.
        id: u64,
    },
    /// A request was refused before ever reaching a round (invalid,
    /// unknown route, queue full). Logged so recovery keeps the request
    /// id counter and outcome history in sync.
    EarlyReject {
        /// Engine-assigned request id.
        id: u64,
    },
    /// A two-phase cross-shard hold was placed on one local port (the
    /// prepare step of §5.4 admission). Logged *after* the hold took
    /// effect, so replay re-places it unconditionally.
    HoldPlace {
        /// Cluster-wide transaction id (the client's request id).
        txn: u64,
        /// The single local port the hold charges.
        port: PortRef,
        /// Held constant bandwidth (MB/s).
        bw: f64,
        /// Start of the held window (virtual seconds, inclusive).
        start: f64,
        /// End of the held window (virtual seconds, exclusive).
        finish: f64,
        /// Virtual deadline after which an uncommitted hold is swept.
        expires: f64,
    },
    /// The hold for `txn` was committed: it stays charged on its port
    /// for its full window and is no longer subject to expiry.
    HoldCommit {
        /// Transaction id of the committed hold.
        txn: u64,
    },
    /// The hold for `txn` was released (abort, timeout, or expiry
    /// sweep), freeing its pinned capacity.
    HoldRelease {
        /// Transaction id of the released hold.
        txn: u64,
    },
    /// The GC watermark advanced: everything fully before `watermark` —
    /// expired reservations, expired holds, and the port-profile history
    /// they charged — was collected. Logged *after* the round record that
    /// triggered the sweep, so replay (recovery and followers) collects
    /// at exactly the same point in the decision stream and lands on the
    /// identical compacted state.
    Gc {
        /// The new watermark (virtual seconds); watermarks only advance.
        watermark: f64,
    },
    /// A batch of the outcome log (`hist-<n>`, never the WAL): decided
    /// states in the order they were recorded, replayed oldest first so
    /// that the last write of an id wins. Encoded in binary, 9 bytes an
    /// entry (see [`WalRecord::encode`]).
    Outcomes(Vec<(u64, RequestOutcome)>),
}

/// First payload byte of a binary [`WalRecord::Outcomes`]; a JSON payload
/// opens with `{` instead.
const OUTCOMES_TAG: u8 = 0x01;

/// Bytes of one binary outcome entry: the id (u64 LE), then its state.
pub const OUTCOME_ENTRY: usize = 9;

/// Terminal outcome of a request, kept in the snapshot (or the outcome
/// log) so `Query` replies survive recovery. Declaration order is the
/// state byte of a binary [`WalRecord::Outcomes`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Admitted (and still live or already finished).
    Accepted,
    /// Rejected.
    Rejected,
    /// Cancelled by the client.
    Cancelled,
}

/// A complete image of the engine's durable state at a round boundary.
///
/// The ledger is carried as an exported [`LedgerState`] — port profiles
/// verbatim, **not** rebuilt by replaying reservations — so the restored
/// breakpoint vectors are bit-identical to the originals regardless of
/// float-addition order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Layout version; must lie in
    /// [`SNAPSHOT_MIN_VERSION`]..=[`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Virtual clock at the snapshot instant.
    pub now: f64,
    /// Next scheduled round tick.
    pub next_tick: f64,
    /// Rounds executed so far.
    pub rounds: u64,
    /// Full capacity-ledger state (profiles + live reservations).
    pub ledger: LedgerState,
    /// Map of request id → live reservation id.
    pub accepted: Vec<(u64, u64)>,
    /// Terminal outcomes, oldest first (bounded by the engine's history
    /// capacity). Empty when `hist` is set: the outcome log holds them.
    pub states: Vec<(u64, RequestOutcome)>,
    /// Live two-phase holds by transaction id, sorted by `txn`.
    pub holds: Vec<HoldState>,
    /// v5: the outcome log this snapshot's history lives in, and its
    /// length when the snapshot was taken; `None` when `states` carries
    /// the history inline (every v2–v4 image, and every export).
    pub hist: Option<HistRef>,
}

/// Where an outcome log stood when a snapshot was taken: recovery
/// replays the records of `hist-<log>` up to byte `len` and ignores
/// whatever was appended after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistRef {
    /// The log's number: its file is `hist-<log>`.
    pub log: u64,
    /// Length of the log in bytes (magic included) when the snapshot was
    /// taken.
    pub len: u64,
}

/// One live two-phase hold in an [`EngineSnapshot`]: the engine-side
/// bookkeeping that pairs a cluster transaction with the ledger hold
/// charging its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoldState {
    /// Cluster-wide transaction id.
    pub txn: u64,
    /// Ledger hold id charging the capacity.
    pub hold: u64,
    /// Virtual deadline after which an uncommitted hold is swept.
    pub expires: f64,
    /// Whether the hold has been committed (exempt from expiry).
    pub committed: bool,
}

fn decode_json<T: Deserialize>(
    kind: &str,
    file: &str,
    offset: u64,
    payload: &[u8],
) -> StoreResult<T> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| StoreError::corrupt(file, offset, format!("{kind} payload is not UTF-8")))?;
    serde_json::from_str(text).map_err(|e| {
        StoreError::corrupt(file, offset, format!("{kind} payload does not parse: {e}"))
    })
}

impl WalRecord {
    /// Serialize to the byte payload handed to [`Store::append`]: JSON,
    /// except for [`WalRecord::Outcomes`], which is a tag byte and then
    /// each entry's id (u64 LE) and [`RequestOutcome`] code (one byte).
    ///
    /// [`Store::append`]: crate::store::Store::append
    pub fn encode(&self) -> Vec<u8> {
        if let WalRecord::Outcomes(entries) = self {
            let mut out = Vec::with_capacity(1 + OUTCOME_ENTRY * entries.len());
            out.push(OUTCOMES_TAG);
            for &(id, outcome) in entries {
                out.extend_from_slice(&id.to_le_bytes());
                out.push(outcome as u8);
            }
            return out;
        }
        serde_json::to_string(self)
            .expect("WAL record serialization is infallible")
            .into_bytes()
    }

    /// Decode a payload recovered from the WAL or the outcome log,
    /// binary or JSON by its first byte. `file`/`offset` locate the
    /// record for the [`StoreError::Corrupt`] this returns when a
    /// CRC-valid payload does not parse.
    pub fn decode(file: &str, offset: u64, payload: &[u8]) -> StoreResult<Self> {
        match payload.split_first() {
            Some((&OUTCOMES_TAG, body)) => decode_outcomes(file, offset, body),
            _ => decode_json("WAL record", file, offset, payload),
        }
    }
}

fn decode_outcomes(file: &str, offset: u64, body: &[u8]) -> StoreResult<WalRecord> {
    if !body.len().is_multiple_of(OUTCOME_ENTRY) {
        return Err(StoreError::corrupt(
            file,
            offset,
            format!("outcome batch of {} bytes is not whole entries", body.len()),
        ));
    }
    body.chunks_exact(OUTCOME_ENTRY)
        .map(|entry| {
            let id = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
            let outcome = match entry[8] {
                0 => RequestOutcome::Accepted,
                1 => RequestOutcome::Rejected,
                2 => RequestOutcome::Cancelled,
                code => {
                    return Err(StoreError::corrupt(
                        file,
                        offset,
                        format!("unknown outcome code {code} for request #{id}"),
                    ))
                }
            };
            Ok((id, outcome))
        })
        .collect::<StoreResult<_>>()
        .map(WalRecord::Outcomes)
}

impl EngineSnapshot {
    /// Serialize to the byte payload handed to [`Store::install_snapshot`].
    ///
    /// [`Store::install_snapshot`]: crate::store::Store::install_snapshot
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("snapshot serialization is infallible")
            .into_bytes()
    }

    /// Decode a recovered snapshot payload, checking the version stamp.
    /// Versions [`SNAPSHOT_MIN_VERSION`]..=[`SNAPSHOT_VERSION`] are
    /// accepted (older ones decode with `watermark: None`); anything
    /// outside that range — unknown-old or newer-than-this-build — is
    /// refused rather than misread.
    pub fn decode(file: &str, payload: &[u8]) -> StoreResult<Self> {
        let snap: EngineSnapshot = decode_json("snapshot", file, 0, payload)?;
        if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&snap.version) {
            return Err(StoreError::corrupt(
                file,
                0,
                format!(
                    "snapshot version {} (this build reads {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})",
                    snap.version
                ),
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridband_net::{CapacityLedger, Route, Topology};

    fn sample_round() -> WalRecord {
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
                RoundDecision::Reject { id: 4 },
                RoundDecision::Accept {
                    id: 5,
                    ingress: 1,
                    egress: 0,
                    bw: 0.1 + 0.2, // deliberately non-representable sum
                    start: 12.5,
                    finish: 50.0,
                    cancelled: true,
                },
                RoundDecision::AcceptSegments {
                    id: 6,
                    ingress: 0,
                    egress: 0,
                    segments: vec![
                        SegSpan {
                            start: 12.5,
                            end: 20.0,
                            bw: 0.1 + 0.2, // deliberately non-representable sum
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
        }
    }

    #[test]
    fn wal_record_round_trips_bit_exactly() {
        for rec in [
            sample_round(),
            WalRecord::Cancel { id: 7 },
            WalRecord::EarlyReject { id: 9 },
            WalRecord::HoldPlace {
                txn: 11,
                port: gridband_net::PortRef::In(gridband_net::IngressId(2)),
                bw: 0.1 + 0.2, // deliberately non-representable sum
                start: 12.5,
                finish: 42.75,
                expires: 62.5,
            },
            WalRecord::HoldCommit { txn: 11 },
            WalRecord::HoldRelease { txn: 12 },
            WalRecord::Gc {
                watermark: 0.1 + 0.2, // deliberately non-representable sum
            },
            WalRecord::Outcomes(vec![
                (u64::MAX, RequestOutcome::Cancelled),
                (u64::from(b'{'), RequestOutcome::Accepted),
                (3, RequestOutcome::Rejected),
            ]),
            WalRecord::Outcomes(vec![]),
        ] {
            let bytes = rec.encode();
            let back = WalRecord::decode("w", 8, &bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn snapshot_round_trips_and_checks_version() {
        let mut ledger = CapacityLedger::new(Topology::uniform(2, 2, 100.0));
        ledger.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
        ledger
            .hold(
                gridband_net::PortRef::Out(gridband_net::EgressId(0)),
                10.0,
                20.0,
                12.5,
            )
            .unwrap();
        let snap = EngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: 10.0,
            next_tick: 15.0,
            rounds: 2,
            ledger: ledger.export_state(),
            accepted: vec![(3, 0)],
            states: vec![(1, RequestOutcome::Rejected), (3, RequestOutcome::Accepted)],
            holds: vec![HoldState {
                txn: 9,
                hold: 0,
                expires: 20.0,
                committed: false,
            }],
            hist: None,
        };
        let bytes = snap.encode();
        let back = EngineSnapshot::decode("s", &bytes).unwrap();
        assert_eq!(back, snap);
        let v5 = EngineSnapshot {
            states: vec![],
            hist: Some(HistRef { log: 7, len: 1234 }),
            ..snap.clone()
        };
        assert_eq!(EngineSnapshot::decode("s", &v5.encode()).unwrap(), v5);

        for bad in [SNAPSHOT_MIN_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let mut stale = snap.clone();
            stale.version = bad;
            assert!(matches!(
                EngineSnapshot::decode("s", &stale.encode()),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn v2_snapshot_without_watermark_field_decodes() {
        // A v2 writer predates the ledger's `watermark` field entirely:
        // strip the key (not just null it) from an encoded image and
        // stamp the old version, as an upgraded daemon would find on disk.
        let mut ledger = CapacityLedger::new(Topology::uniform(2, 2, 100.0));
        ledger.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
        let snap = EngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: 10.0,
            next_tick: 15.0,
            rounds: 2,
            ledger: ledger.export_state(),
            accepted: vec![(3, 0)],
            states: vec![(3, RequestOutcome::Accepted)],
            holds: vec![],
            hist: None,
        };
        let text = String::from_utf8(snap.encode()).unwrap();
        assert!(text.contains(",\"watermark\":null"), "encoding drifted");
        assert!(text.contains(",\"live_seg\":null"), "encoding drifted");
        let v2 = text
            .replace(",\"watermark\":null", "")
            .replace(",\"live_seg\":null", "")
            .replace(",\"hist\":null", "")
            .replace(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":2");
        let back = EngineSnapshot::decode("s", v2.as_bytes()).unwrap();
        let mut want = snap;
        want.version = 2;
        assert_eq!(back, want);
        assert_eq!(back.ledger.watermark, None);
        assert_eq!(back.ledger.live_seg, None);
    }

    #[test]
    fn v3_snapshot_without_live_seg_field_decodes() {
        // A v3 writer predates the ledger's `live_seg` field entirely:
        // strip the key from an encoded image and stamp the old version,
        // as a daemon upgraded across the malleable change finds on disk.
        let mut ledger = CapacityLedger::new(Topology::uniform(2, 2, 100.0));
        ledger.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
        ledger.gc(5.0);
        let snap = EngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: 10.0,
            next_tick: 15.0,
            rounds: 2,
            ledger: ledger.export_state(),
            accepted: vec![(3, 0)],
            states: vec![(3, RequestOutcome::Accepted)],
            holds: vec![],
            hist: None,
        };
        let text = String::from_utf8(snap.encode()).unwrap();
        assert!(text.contains(",\"live_seg\":null"), "encoding drifted");
        let v3 = text
            .replace(",\"live_seg\":null", "")
            .replace(",\"hist\":null", "")
            .replace(&format!("\"version\":{SNAPSHOT_VERSION}"), "\"version\":3");
        let back = EngineSnapshot::decode("s", v3.as_bytes()).unwrap();
        let mut want = snap;
        want.version = 3;
        assert_eq!(back, want);
        assert_eq!(back.ledger.live_seg, None);
        assert_eq!(back.ledger.watermark, Some(5.0));
    }

    #[test]
    fn garbage_payloads_are_corrupt_not_panics() {
        for junk in [
            &b"\xFF\xFE"[..],
            b"{\"Round\":",
            b"42",
            b"{\"Nope\":{}}",
            b"",
            // An outcome batch cut inside an entry, and one whose state
            // byte names no outcome.
            &[OUTCOMES_TAG, 1, 0, 0, 0, 0],
            &[OUTCOMES_TAG, 1, 0, 0, 0, 0, 0, 0, 0, 3],
        ] {
            match WalRecord::decode("w", 16, junk) {
                Err(StoreError::Corrupt { offset: 16, .. }) => {}
                other => panic!("expected Corrupt at 16, got {other:?}"),
            }
        }
        assert!(matches!(
            EngineSnapshot::decode("s", b"not json"),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
