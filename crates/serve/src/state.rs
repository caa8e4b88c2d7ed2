//! The durable slice of the engine, factored out of the engine loop.
//!
//! [`EngineState`] is everything an admission engine must carry across a
//! crash: the capacity ledger, the virtual clock, and the decided-request
//! maps. It owns a round's state transition
//! ([`EngineState::apply_decisions`]) as well as the snapshot restore and
//! WAL replay paths built on it, so the live engine and every component
//! that rebuilds engine state from a log — the engine's own startup
//! recovery, the replication shipper's beacon mirror, and the follower's
//! hot standby — walk the exact same code and land on the exact same
//! bytes. The engine's own state also journals every outcome it records,
//! for the store's outcome log; no other state keeps a journal.
//!
//! The struct is deliberately metrics-free: live metrics belong to the
//! engine loop, while replay reports its counts through [`ReplayTally`]
//! so each consumer can fold them into its own registry (or ignore them).

use std::collections::{BTreeMap, HashMap};

use gridband_net::{
    CapacityLedger, HoldId, NetError, NetResult, Plan, PortHold, PortRef, ReleaseRequest,
    ReservationId, ReserveRequest, Route, Topology,
};
use gridband_store::{
    hist_name, read_outcome_log, snap_name, wal_name, Dir, EngineSnapshot, HistRef, HoldState,
    RequestOutcome, RoundDecision, StoreError, StoreResult, WalRecord, OUTCOME_ENTRY,
    SNAPSHOT_VERSION,
};

use crate::history::OutcomeHistory;
use crate::protocol::ReqState;

/// Counts accumulated while replaying a snapshot + WAL tail. The replay
/// path itself touches no metrics registry; callers fold these into
/// whatever accounting they keep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTally {
    /// Round records replayed.
    pub rounds: u64,
    /// Acceptances re-applied (tombstoned ones count as cancelled).
    pub accepted: u64,
    /// Rejections re-applied.
    pub rejected: u64,
    /// Cancels re-applied (including accept tombstones).
    pub cancelled: u64,
    /// Early rejects re-applied.
    pub refused_early: u64,
    /// Expired reservations (and ended holds) garbage-collected during
    /// replay.
    pub gc_reclaimed: u64,
    /// Profile breakpoints dropped by replayed watermark-GC records.
    pub gc_truncated_bps: u64,
    /// Two-phase holds re-placed.
    pub holds_placed: u64,
    /// Two-phase holds re-released: explicit `HoldRelease` records plus
    /// uncommitted holds the round GC swept (see [`GcSweep`]).
    pub holds_released: u64,
    /// Two-phase holds re-committed.
    pub holds_committed: u64,
}

/// What one [`EngineState::gc_expired`] sweep reclaimed, split so
/// callers can account hold releases separately from plain reservation
/// GC. Every hold is placed exactly once and ends exactly once —
/// committed, explicitly released, expired, or GC-released — so at
/// quiescence `holds_placed == holds_committed + holds_released +
/// holds_expired` holds as a strict metric identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcSweep {
    /// Everything reclaimed: expired reservations plus ended holds
    /// (committed or not). Feeds the `gc_reclaimed` counter.
    pub reclaimed: u64,
    /// Ended holds that were still *uncommitted* when GC released them.
    /// These are real releases — without counting them the hold ledger
    /// silently leaks terminations and the identity above breaks.
    pub holds_released: u64,
}

/// Engine-side bookkeeping for one live two-phase hold: which ledger
/// hold charges its capacity, when it times out, and whether it has been
/// committed (committed holds are exempt from the expiry sweep and stay
/// charged for their full window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineHold {
    /// Ledger hold pinning the capacity.
    pub hold: HoldId,
    /// Virtual deadline after which an uncommitted hold is swept.
    pub expires: f64,
    /// Whether the cross-shard transaction committed this hold.
    pub committed: bool,
}

/// The engine state that snapshots persist and WAL replay rebuilds.
///
/// Fields the engine's hot paths read every round are public; the
/// decided-request history and the owner maps stay private behind the
/// accessors.
#[derive(Debug)]
pub struct EngineState {
    /// Live port capacity profiles and reservations.
    pub ledger: CapacityLedger,
    /// Virtual clock (seconds).
    pub now: f64,
    /// When the next admission round fires.
    pub next_tick: f64,
    /// Admission rounds executed over the state's lifetime.
    pub rounds: u64,
    /// Admission interval `t_step`.
    step: f64,
    /// Decided states for `Query`, the oldest evicted beyond the bound.
    history: OutcomeHistory,
    /// Accepted client id → live reservation (for `Cancel` / GC).
    accepted_res: HashMap<u64, ReservationId>,
    /// Reverse map: reservation id → client id.
    res_owner: HashMap<u64, u64>,
    /// Live two-phase holds by transaction id. A `BTreeMap` so the
    /// expiry sweep and snapshot export walk holds in one deterministic
    /// order — a prerequisite for bit-identical replay.
    holds: BTreeMap<u64, EngineHold>,
    /// Every outcome recorded since the last [`take_journal`], in call
    /// order; `None` (nothing kept) unless [`keep_journal`] was called.
    ///
    /// [`take_journal`]: Self::take_journal
    /// [`keep_journal`]: Self::keep_journal
    journal: Option<Vec<(u64, RequestOutcome)>>,
}

/// The outcome a decided state persists as; `None` for the states that
/// are not decisions.
fn outcome(state: ReqState) -> Option<RequestOutcome> {
    match state {
        ReqState::Accepted => Some(RequestOutcome::Accepted),
        ReqState::Rejected => Some(RequestOutcome::Rejected),
        ReqState::Cancelled => Some(RequestOutcome::Cancelled),
        ReqState::Pending | ReqState::Unknown => None,
    }
}

impl From<RequestOutcome> for ReqState {
    fn from(outcome: RequestOutcome) -> Self {
        match outcome {
            RequestOutcome::Accepted => ReqState::Accepted,
            RequestOutcome::Rejected => ReqState::Rejected,
            RequestOutcome::Cancelled => ReqState::Cancelled,
        }
    }
}

impl EngineState {
    /// Fresh state at virtual time zero; the first round fires at `step`.
    pub fn new(topology: Topology, step: f64, history_capacity: usize) -> Self {
        assert!(step > 0.0, "t_step must be positive");
        EngineState {
            ledger: CapacityLedger::new(topology),
            now: 0.0,
            next_tick: step,
            rounds: 0,
            step,
            history: OutcomeHistory::new(history_capacity),
            accepted_res: HashMap::new(),
            res_owner: HashMap::new(),
            holds: BTreeMap::new(),
            journal: None,
        }
    }

    /// The admission interval this state was built with.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Restore a decoded snapshot verbatim. `file` names the snapshot
    /// file for error attribution.
    fn restore(&mut self, snap: EngineSnapshot, file: &str) -> StoreResult<()> {
        self.ledger
            .restore_state(snap.ledger)
            .map_err(|e| StoreError::corrupt(file, 0, format!("ledger state rejected: {e}")))?;
        self.now = snap.now;
        self.next_tick = snap.next_tick;
        self.rounds = snap.rounds;
        self.history.reserve(snap.states.len());
        for (id, outcome) in snap.states {
            self.record_state(id, outcome.into());
        }
        for (id, rid) in snap.accepted {
            self.accepted_res.insert(id, ReservationId(rid));
            self.res_owner.insert(rid, id);
        }
        for h in snap.holds {
            if self.ledger.get_hold(HoldId(h.hold)).is_none() {
                return Err(StoreError::corrupt(
                    file,
                    0,
                    format!(
                        "hold table references ledger hold #{} which is not live",
                        h.hold
                    ),
                ));
            }
            self.holds.insert(
                h.txn,
                EngineHold {
                    hold: HoldId(h.hold),
                    expires: h.expires,
                    committed: h.committed,
                },
            );
        }
        Ok(())
    }

    /// The state a log describes: the snapshot payload opening store
    /// generation `gen`, if there is one — with the outcome log it names
    /// in `dir`, replayed up to the length it names — then the
    /// `(offset, payload)` records of `wal-<gen>` in order. Engine
    /// recovery, the follower and the shipper's beacon mirror all build
    /// their state here. A snapshot naming an outcome log needs `dir`; a
    /// missing log is [`StoreError::Io`] with `NotFound`.
    pub fn from_log(
        topology: Topology,
        step: f64,
        history_capacity: usize,
        dir: Option<&dyn Dir>,
        gen: u64,
        snapshot: Option<&[u8]>,
        records: &[(u64, Vec<u8>)],
    ) -> StoreResult<(Self, ReplayTally)> {
        let mut st = Self::new(topology, step, history_capacity);
        let mut tally = ReplayTally::default();
        if let Some(payload) = snapshot {
            let file = snap_name(gen);
            let snap = EngineSnapshot::decode(&file, payload)?;
            let hist = snap.hist;
            st.restore(snap, &file)?;
            if let Some(at) = hist {
                st.replay_outcome_log(dir, at, &file, &mut tally)?;
            }
        }
        let file = wal_name(gen);
        for (offset, payload) in records {
            let record = WalRecord::decode(&file, *offset, payload)?;
            st.apply(record, &file, *offset, &mut tally)?;
        }
        Ok((st, tally))
    }

    /// Replay the outcome log a snapshot (`snap_file`) names, through
    /// [`apply`](Self::apply), oldest record first.
    fn replay_outcome_log(
        &mut self,
        dir: Option<&dyn Dir>,
        at: HistRef,
        snap_file: &str,
        tally: &mut ReplayTally,
    ) -> StoreResult<()> {
        let file = hist_name(at.log);
        let Some(dir) = dir else {
            return Err(StoreError::corrupt(
                snap_file,
                0,
                format!("the history is in outcome log {file}, which this reader cannot open"),
            ));
        };
        let records = read_outcome_log(dir, at)?;
        let entries = records.iter().map(|(_, p)| p.len() / OUTCOME_ENTRY).sum();
        self.history.reserve(entries);
        for (offset, payload) in records {
            let record = WalRecord::decode(&file, offset, &payload)?;
            if !matches!(record, WalRecord::Outcomes(_)) {
                return Err(StoreError::corrupt(
                    &file,
                    offset,
                    "outcome log holds a record that is not an outcome batch",
                ));
            }
            self.apply(record, &file, offset, tally)?;
        }
        Ok(())
    }

    /// Re-apply one logged record. A `Round` runs what the live round
    /// ran, in its order: [`begin_round`](Self::begin_round),
    /// [`gc_expired`](Self::gc_expired), then
    /// [`apply_decisions`](Self::apply_decisions) on the logged decisions,
    /// so the rebuilt state is the live engine's to the bit. A decision
    /// that no longer applies is corruption. `file`/`offset` attribute
    /// corruption errors.
    pub fn apply(
        &mut self,
        record: WalRecord,
        file: &str,
        offset: u64,
        tally: &mut ReplayTally,
    ) -> StoreResult<()> {
        match record {
            WalRecord::Round { t, decisions } => {
                self.begin_round(t);
                tally.rounds += 1;
                let sweep = self.gc_expired(t);
                tally.gc_reclaimed += sweep.reclaimed;
                tally.holds_released += sweep.holds_released;
                let outcomes = self.apply_decisions(&decisions);
                for (i, (d, outcome)) in decisions.iter().zip(outcomes).enumerate() {
                    outcome.map_err(|e| {
                        StoreError::corrupt(
                            file,
                            offset,
                            format!("logged round decision {i} no longer applies: {e}"),
                        )
                    })?;
                    match d {
                        RoundDecision::Accept { cancelled, .. }
                        | RoundDecision::AcceptSegments { cancelled, .. }
                            if *cancelled =>
                        {
                            tally.cancelled += 1
                        }
                        RoundDecision::Accept { .. } | RoundDecision::AcceptSegments { .. } => {
                            tally.accepted += 1
                        }
                        RoundDecision::Reject { .. } => tally.rejected += 1,
                        RoundDecision::Amend { .. } => {}
                    }
                }
            }
            WalRecord::Cancel { id } => {
                if self.cancel_live(id) {
                    tally.cancelled += 1;
                }
            }
            WalRecord::EarlyReject { id } => {
                tally.refused_early += 1;
                self.record_state(id, ReqState::Rejected);
            }
            WalRecord::HoldPlace {
                txn,
                port,
                bw,
                start,
                finish,
                expires,
            } => {
                // The live engine logs a HoldPlace only after the hold
                // took effect, so replay re-places it strictly.
                if self.holds.contains_key(&txn) {
                    return Err(StoreError::corrupt(
                        file,
                        offset,
                        format!("duplicate hold for txn #{txn}"),
                    ));
                }
                self.place_hold(txn, port, bw, start, finish, expires)
                    .map_err(|e| {
                        StoreError::corrupt(
                            file,
                            offset,
                            format!("logged hold no longer fits: {e}"),
                        )
                    })?;
                tally.holds_placed += 1;
            }
            WalRecord::HoldCommit { txn } => {
                if !self.commit_hold(txn) {
                    return Err(StoreError::corrupt(
                        file,
                        offset,
                        format!("commit of unknown hold txn #{txn}"),
                    ));
                }
                tally.holds_committed += 1;
            }
            WalRecord::HoldRelease { txn } => {
                if !self.release_hold(txn) {
                    return Err(StoreError::corrupt(
                        file,
                        offset,
                        format!("release of unknown hold txn #{txn}"),
                    ));
                }
                tally.holds_released += 1;
            }
            WalRecord::Gc { watermark } => {
                if !watermark.is_finite() {
                    return Err(StoreError::corrupt(
                        file,
                        offset,
                        format!("non-finite GC watermark {watermark}"),
                    ));
                }
                let stats = self.apply_gc(watermark);
                tally.gc_truncated_bps += stats.breakpoints_dropped as u64;
            }
            WalRecord::Outcomes(outcomes) => {
                for (id, outcome) in outcomes {
                    self.record_state(id, outcome.into());
                }
            }
        }
        Ok(())
    }

    /// The durable image of this state with the history inline: what
    /// replication ships and its beacons hash, and what every live ≡
    /// replay check compares.
    pub fn export(&self) -> EngineSnapshot {
        self.image(self.outcomes().collect(), None)
    }

    /// The image a snapshot persists: [`export`](Self::export) without
    /// the history, which the outcome log `hist` reaches holds instead.
    pub(crate) fn snapshot(&self, hist: HistRef) -> EngineSnapshot {
        self.image(Vec::new(), Some(hist))
    }

    fn image(&self, states: Vec<(u64, RequestOutcome)>, hist: Option<HistRef>) -> EngineSnapshot {
        let mut accepted: Vec<(u64, u64)> = self
            .accepted_res
            .iter()
            .map(|(&id, rid)| (id, rid.0))
            .collect();
        accepted.sort_unstable();
        let holds = self
            .holds
            .iter()
            .map(|(&txn, h)| HoldState {
                txn,
                hold: h.hold.0,
                expires: h.expires,
                committed: h.committed,
            })
            .collect();
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: self.now,
            next_tick: self.next_tick,
            rounds: self.rounds,
            ledger: self.ledger.export_state(),
            accepted,
            states,
            holds,
            hist,
        }
    }

    /// The remembered outcomes, oldest first: the history a snapshot
    /// image carries inline, or a fresh outcome log holds.
    pub(crate) fn outcomes(&self) -> impl Iterator<Item = (u64, RequestOutcome)> + '_ {
        (self.history.iter()).filter_map(|(id, state)| Some((id, outcome(state)?)))
    }

    /// From now on, journal every outcome recorded — through any path,
    /// WAL replay included — for [`take_journal`](Self::take_journal).
    /// Only a state whose owner empties the journal into an outcome log
    /// calls this; any other would grow it without bound.
    pub(crate) fn keep_journal(&mut self) {
        self.journal.get_or_insert_with(Vec::new);
    }

    /// The outcomes recorded since the last call, in call order (empty
    /// unless [`keep_journal`](Self::keep_journal) was called).
    pub(crate) fn take_journal(&mut self) -> Vec<(u64, RequestOutcome)> {
        self.journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Advance the clock into the round at `t`.
    pub fn begin_round(&mut self, t: f64) {
        self.now = t;
        self.next_tick = t + self.step;
        self.rounds += 1;
    }

    /// Apply a round's decisions in record order: the one state
    /// transition of a round, run by the live engine and by every replay.
    ///
    /// Every rigid `Accept` is booked first, as one
    /// [`CapacityLedger::reserve_all`] batch. Then the decisions are
    /// walked in record order: each records its state, a tombstoned
    /// accept (one cancelled while it waited) is freed at its place in
    /// the walk, and `AcceptSegments`, `Amend` and `Reject` apply one at a
    /// time. A round record lists every rigid accept ahead of every
    /// malleable decision, so applying a record whole or in consecutive
    /// slices makes the same ledger calls in the same order.
    ///
    /// Returns each decision's booking outcome, in order. A failed
    /// booking books nothing and records no acceptance; its id is
    /// recorded `Rejected` in its place, the decision the live engine
    /// logs for it. A failed amend changes nothing.
    pub fn apply_decisions(&mut self, decisions: &[RoundDecision]) -> Vec<NetResult<()>> {
        let batch: Vec<ReserveRequest> = decisions
            .iter()
            .filter_map(|d| match *d {
                RoundDecision::Accept {
                    ingress,
                    egress,
                    bw,
                    start,
                    finish,
                    ..
                } => Some(ReserveRequest {
                    route: Route::new(ingress, egress),
                    start,
                    end: finish,
                    bw,
                }),
                _ => None,
            })
            .collect();
        let mut booked = self.ledger.reserve_all(&batch).into_iter();
        decisions
            .iter()
            .map(|d| {
                let (id, booking, cancelled) = match d {
                    RoundDecision::Accept { id, cancelled, .. } => {
                        let rid = booked.next().expect("one booking per rigid accept");
                        (*id, Some(rid), *cancelled)
                    }
                    RoundDecision::AcceptSegments {
                        id,
                        ingress,
                        egress,
                        segments,
                        cancelled,
                    } => {
                        let route = Route::new(*ingress, *egress);
                        let rid = self.ledger.reserve_segments(route, segments);
                        (*id, Some(rid), *cancelled)
                    }
                    RoundDecision::Amend { id, segments } => {
                        let rid = self.accepted_res.get(id).copied().ok_or_else(|| {
                            NetError::InvalidArgument(format!("amend of unknown request #{id}"))
                        })?;
                        return self.ledger.amend_segments(rid, segments);
                    }
                    RoundDecision::Reject { id } => (*id, None, false),
                };
                let state = match booking {
                    None => ReqState::Rejected,
                    Some(Err(e)) => {
                        self.record_state(id, ReqState::Rejected);
                        return Err(e);
                    }
                    // Booked before it is freed, so reservation ids stay
                    // in step with the round that logged it.
                    Some(Ok(rid)) if cancelled => {
                        let _ = self.ledger.free(rid);
                        ReqState::Cancelled
                    }
                    Some(Ok(rid)) => {
                        self.note_accept(id, rid);
                        ReqState::Accepted
                    }
                };
                self.record_state(id, state);
                Ok(())
            })
            .collect()
    }

    /// Cancel every reservation whose interval ended at or before `t`,
    /// returning what was reclaimed. Expired reservations are dead
    /// weight in the ledger profiles: cancelling them only edits past
    /// time segments, so admission decisions (which only read the
    /// profile from `t` on) are unaffected while breakpoint memory stays
    /// bounded. Shared by live rounds and WAL replay so both walk
    /// identical ledger states.
    ///
    /// The whole sweep is one [`CapacityLedger::release_all`] batch — a
    /// port's query index is rebuilt once however many of its
    /// reservations ended — in a fixed order, because the order of
    /// releases on a port is the order of float operations on its
    /// profile: rigid reservations by ascending id, then segmented ones
    /// by ascending id, then holds by ascending txn.
    pub fn gc_expired(&mut self, t: f64) -> GcSweep {
        // A plan ages out once its last span ends; the ledger walks its
        // plans in ascending id order.
        let (mut rigid, mut segmented) = (Vec::new(), Vec::new());
        for (rid, p) in self.ledger.plans().filter(|(_, p)| p.end() <= t) {
            match p {
                Plan::Rigid(..) => rigid.push(rid),
                Plan::Stepwise(..) => segmented.push(rid),
            }
        }
        // Holds whose window has fully passed are equally dead weight,
        // committed or not.
        let ended: Vec<u64> = self
            .holds
            .iter()
            .filter(|(_, h)| self.ledger.get_hold(h.hold).is_none_or(|ph| ph.end <= t))
            .map(|(&txn, _)| txn)
            .collect();
        let ended: Vec<EngineHold> = ended
            .iter()
            .filter_map(|txn| self.holds.remove(txn))
            .collect();

        let batch: Vec<ReleaseRequest> = (rigid.iter().map(|&r| ReleaseRequest::Reservation(r)))
            .chain(segmented.iter().map(|&r| ReleaseRequest::Segments(r)))
            .chain(ended.iter().map(|h| ReleaseRequest::Hold(h.hold)))
            .collect();
        let mut freed = self.ledger.release_all(&batch).into_iter();

        let mut sweep = GcSweep::default();
        for (rid, result) in rigid.iter().chain(&segmented).zip(&mut freed) {
            if result.is_ok() {
                sweep.reclaimed += 1;
                if let Some(owner) = self.res_owner.remove(&rid.0) {
                    self.accepted_res.remove(&owner);
                }
            }
        }
        // A hold that was still uncommitted is a genuine release and is
        // reported as such — a committed hold already terminated via its
        // commit.
        for (h, result) in ended.iter().zip(freed) {
            if result.is_ok() {
                sweep.reclaimed += 1;
                if !h.committed {
                    sweep.holds_released += 1;
                }
            }
        }
        sweep
    }

    /// Advance the ledger's GC watermark to `watermark`, truncating
    /// fully-past profile history and collecting expired entries. Shared
    /// by the live engine's post-round sweep and `Gc`-record replay so a
    /// recovered (or follower) store lands on the identical compacted
    /// bytes.
    ///
    /// The watermark lags the clock (`now - gc_horizon`), so the
    /// per-round expiry sweep has normally already cancelled anything
    /// ending at or before it; the owner-map scrub below is a safety net
    /// for the degenerate `gc_horizon = 0` case, keeping `accepted_res`
    /// and `res_owner` from pointing at collected reservations.
    pub fn apply_gc(&mut self, watermark: f64) -> gridband_net::GcStats {
        let stale: Vec<u64> = (self.ledger.plans())
            .filter(|(_, p)| p.end() <= watermark)
            .map(|(id, _)| id.0)
            .collect();
        for rid in stale {
            if let Some(owner) = self.res_owner.remove(&rid) {
                self.accepted_res.remove(&owner);
            }
        }
        self.ledger.gc(watermark)
    }

    /// Place a two-phase hold for `txn`: pin `bw` on `port` over
    /// `[start, finish)` in the ledger and register it in the hold
    /// table. Shared by the live engine and WAL replay so both perform
    /// the identical ledger operation.
    pub fn place_hold(
        &mut self,
        txn: u64,
        port: PortRef,
        bw: f64,
        start: f64,
        finish: f64,
        expires: f64,
    ) -> NetResult<HoldId> {
        let hid = self.ledger.hold(port, start, finish, bw)?;
        self.holds.insert(
            txn,
            EngineHold {
                hold: hid,
                expires,
                committed: false,
            },
        );
        Ok(hid)
    }

    /// Mark `txn`'s hold committed (exempt from the expiry sweep) and
    /// record the transaction as accepted. Returns `false` for unknown
    /// transactions.
    pub fn commit_hold(&mut self, txn: u64) -> bool {
        let Some(h) = self.holds.get_mut(&txn) else {
            return false;
        };
        h.committed = true;
        self.record_state(txn, ReqState::Accepted);
        true
    }

    /// Release `txn`'s hold, freeing its pinned capacity. Returns
    /// `false` for unknown transactions.
    pub fn release_hold(&mut self, txn: u64) -> bool {
        let Some(h) = self.holds.remove(&txn) else {
            return false;
        };
        self.ledger.release_hold(h.hold).is_ok()
    }

    /// The live hold for `txn`, if any: the ledger's port/window/bw plus
    /// the engine-side expiry bookkeeping.
    pub fn hold_of(&self, txn: u64) -> Option<(PortHold, EngineHold)> {
        let eh = self.holds.get(&txn)?;
        let ph = self.ledger.get_hold(eh.hold)?;
        Some((*ph, *eh))
    }

    /// Number of live two-phase holds.
    pub fn hold_count(&self) -> usize {
        self.holds.len()
    }

    /// Transactions whose holds are uncommitted and past `expires` at
    /// time `t`, in ascending txn order (the expiry sweep's work list).
    pub fn expired_holds(&self, t: f64) -> Vec<u64> {
        self.holds
            .iter()
            .filter(|(_, h)| !h.committed && h.expires <= t)
            .map(|(&txn, _)| txn)
            .collect()
    }

    /// Record a decided state, evicting the oldest entry beyond the
    /// history bound, and journal it if the state keeps a journal.
    pub fn record_state(&mut self, id: u64, state: ReqState) {
        self.history.record(id, state);
        if let (Some(journal), Some(outcome)) = (&mut self.journal, outcome(state)) {
            journal.push((id, outcome));
        }
    }

    /// Whether this id has already been decided (or holds a live
    /// reservation that outlived its history entry).
    pub fn knows(&self, id: u64) -> bool {
        self.history.get(id).is_some() || self.accepted_res.contains_key(&id)
    }

    /// Decided state of `id`, if still in history.
    pub fn state_of(&self, id: u64) -> Option<ReqState> {
        self.history.get(id)
    }

    /// Live allocation `(bw, σ, τ)` of an accepted, unexpired request.
    /// For a segmented (malleable) reservation the triple is synthesized
    /// as (peak rate, first segment start, last segment end).
    pub fn alloc_of(&self, id: u64) -> Option<(f64, f64, f64)> {
        let rid = *self.accepted_res.get(&id)?;
        if let Some(r) = self.ledger.get(rid) {
            return Some((r.bw, r.start, r.end));
        }
        self.ledger
            .get_segments(rid)
            .map(|r| (r.peak(), r.start(), r.end()))
    }

    /// The ledger reservation backing an accepted request, if still live.
    pub fn reservation_of(&self, id: u64) -> Option<ReservationId> {
        self.accepted_res.get(&id).copied()
    }

    /// Register a booked acceptance in the id maps.
    pub fn note_accept(&mut self, id: u64, rid: ReservationId) {
        self.accepted_res.insert(id, rid);
        self.res_owner.insert(rid.0, id);
    }

    /// Cancel a live reservation by client id. Returns `true` iff a
    /// reservation was freed (and the state recorded as cancelled);
    /// unknown, already-decided, and already-cancelled ids return
    /// `false` without touching anything the caller can observe.
    pub fn cancel_live(&mut self, id: u64) -> bool {
        let Some(rid) = self.accepted_res.remove(&id) else {
            return false;
        };
        self.res_owner.remove(&rid.0);
        if self.ledger.free(rid).is_ok() {
            self.record_state(id, ReqState::Cancelled);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> EngineState {
        EngineState::new(Topology::uniform(2, 2, 100.0), 10.0, 1 << 10)
    }

    #[test]
    fn replay_round_trips_through_export_and_restore() {
        let mut a = state();
        let mut tally = ReplayTally::default();
        let record = WalRecord::Round {
            t: 10.0,
            decisions: vec![
                RoundDecision::Accept {
                    id: 1,
                    ingress: 0,
                    egress: 1,
                    bw: 50.0,
                    start: 10.0,
                    finish: 30.0,
                    cancelled: false,
                },
                RoundDecision::Reject { id: 2 },
            ],
        };
        a.apply(record, "wal-0", 8, &mut tally).unwrap();
        assert_eq!(tally.rounds, 1);
        assert_eq!(tally.accepted, 1);
        assert_eq!(tally.rejected, 1);
        assert_eq!(a.state_of(1), Some(ReqState::Accepted));
        assert!(a.alloc_of(1).is_some());

        let snap = a.export();
        let mut b = state();
        b.restore(snap.clone(), "snap-0").unwrap();
        assert_eq!(b.export(), snap);
        assert_eq!(b.now, 10.0);
        assert_eq!(b.next_tick, 20.0);
        assert_eq!(b.rounds, 1);
        assert!(b.knows(1) && b.knows(2) && !b.knows(3));
    }

    #[test]
    fn apply_decisions_whole_or_in_slices_lands_on_the_same_bits() {
        let accept = |id, bw, finish, cancelled| RoundDecision::Accept {
            id,
            ingress: 0,
            egress: 0,
            bw,
            start: 10.0,
            finish,
            cancelled,
        };
        let decisions = vec![
            accept(1, 0.1, 20.0, true),
            accept(2, 0.2, 30.0, false),
            accept(3, 500.0, 30.0, false),
            RoundDecision::Reject { id: 4 },
            RoundDecision::AcceptSegments {
                id: 5,
                ingress: 0,
                egress: 1,
                segments: vec![gridband_net::SegSpan {
                    start: 10.0,
                    end: 15.0,
                    bw: 0.3,
                }],
                cancelled: false,
            },
        ];
        let mut whole = state();
        let outcomes = whole.apply_decisions(&decisions);
        let failed: Vec<bool> = outcomes.iter().map(|r| r.is_err()).collect();
        assert_eq!(failed, [false, false, true, false, false]);
        // The live engine applies the rigid part in one call and each
        // malleable decision in its own; replay applies the record whole.
        let mut sliced = state();
        sliced.apply_decisions(&decisions[..4]);
        sliced.apply_decisions(&decisions[4..]);
        assert_eq!(sliced.export(), whole.export());

        // The tombstoned accept is freed after the batch booked its
        // neighbour, so the port holds (0.1 + 0.2) - 0.1, not 0.2.
        let port = whole.ledger.egress_profile(gridband_net::EgressId(0));
        assert_eq!(port.alloc_at(10.0), 0.1 + 0.2 - 0.1);
        assert_ne!(port.alloc_at(10.0), 0.2);
        let states: Vec<_> = (1..=5).map(|id| whole.state_of(id)).collect();
        use ReqState::*;
        assert_eq!(
            states,
            [Cancelled, Accepted, Rejected, Rejected, Accepted].map(Some)
        );
        assert!(
            whole.alloc_of(3).is_none(),
            "a failed booking books nothing"
        );
    }

    #[test]
    fn cancel_live_frees_once_and_gc_reclaims_expired() {
        let mut s = state();
        let mut tally = ReplayTally::default();
        s.apply(
            WalRecord::Round {
                t: 10.0,
                decisions: vec![RoundDecision::Accept {
                    id: 1,
                    ingress: 0,
                    egress: 0,
                    bw: 25.0,
                    start: 10.0,
                    finish: 20.0,
                    cancelled: false,
                }],
            },
            "wal-0",
            8,
            &mut tally,
        )
        .unwrap();
        assert!(s.cancel_live(1));
        assert!(!s.cancel_live(1), "repeat cancel is a no-op");
        assert_eq!(s.state_of(1), Some(ReqState::Cancelled));

        s.apply(
            WalRecord::Round {
                t: 20.0,
                decisions: vec![RoundDecision::Accept {
                    id: 2,
                    ingress: 1,
                    egress: 1,
                    bw: 25.0,
                    start: 20.0,
                    finish: 25.0,
                    cancelled: false,
                }],
            },
            "wal-0",
            64,
            &mut tally,
        )
        .unwrap();
        // The round at t=30 garbage-collects the reservation that ended
        // at 25; replay counts it in the tally.
        s.apply(
            WalRecord::Round {
                t: 30.0,
                decisions: vec![],
            },
            "wal-0",
            128,
            &mut tally,
        )
        .unwrap();
        assert_eq!(tally.gc_reclaimed, 1);
        assert_eq!(tally.holds_released, 0, "reservation GC is not a release");
        assert!(s.alloc_of(2).is_none(), "expired reservation is gone");
        assert_eq!(s.state_of(2), Some(ReqState::Accepted));
    }

    #[test]
    fn hold_replay_round_trips_through_export_and_restore() {
        let mut a = state();
        let mut tally = ReplayTally::default();
        let place = |txn: u64, port, expires| WalRecord::HoldPlace {
            txn,
            port,
            bw: 40.0,
            start: 10.0,
            finish: 30.0,
            expires,
        };
        a.apply(
            place(5, PortRef::In(gridband_net::IngressId(0)), 25.0),
            "wal-0",
            8,
            &mut tally,
        )
        .unwrap();
        a.apply(
            place(6, PortRef::Out(gridband_net::EgressId(1)), 25.0),
            "wal-0",
            64,
            &mut tally,
        )
        .unwrap();
        a.apply(WalRecord::HoldCommit { txn: 5 }, "wal-0", 128, &mut tally)
            .unwrap();
        a.apply(WalRecord::HoldRelease { txn: 6 }, "wal-0", 192, &mut tally)
            .unwrap();
        assert_eq!(
            (
                tally.holds_placed,
                tally.holds_committed,
                tally.holds_released
            ),
            (2, 1, 1)
        );
        assert_eq!(a.hold_count(), 1);
        assert_eq!(a.state_of(5), Some(ReqState::Accepted));
        let (ph, eh) = a.hold_of(5).unwrap();
        assert_eq!(ph.bw, 40.0);
        assert!(eh.committed);

        // Snapshot round-trip carries the hold table.
        let snap = a.export();
        let mut b = state();
        b.restore(snap.clone(), "snap-0").unwrap();
        assert_eq!(b.export(), snap);
        assert_eq!(b.hold_count(), 1);

        // A snapshot whose hold table references a dead ledger hold is
        // rejected, not silently mis-restored.
        let mut bad = snap.clone();
        bad.holds[0].hold += 7;
        assert!(b2_restore_fails(bad));

        // GC releases the committed hold once its window has passed —
        // reclaimed, but not a release: the hold terminated via commit.
        assert_eq!(
            a.gc_expired(30.0),
            GcSweep {
                reclaimed: 1,
                holds_released: 0
            }
        );
        assert_eq!(a.hold_count(), 0);
        assert!(a
            .ledger
            .ingress_profile(gridband_net::IngressId(0))
            .is_empty());
    }

    #[test]
    fn gc_counts_uncommitted_ended_holds_as_released() {
        // A hold whose *window* passes before its expiry deadline is
        // reclaimed by GC while still uncommitted. That termination must
        // surface as a release, or `holds_placed == holds_committed +
        // holds_released + holds_expired` silently leaks.
        let mut s = state();
        s.place_hold(
            9,
            PortRef::In(gridband_net::IngressId(0)),
            40.0,
            10.0,
            30.0,
            1_000.0, // expiry far beyond the window end
        )
        .unwrap();
        assert_eq!(s.expired_holds(30.0), Vec::<u64>::new());
        assert_eq!(
            s.gc_expired(30.0),
            GcSweep {
                reclaimed: 1,
                holds_released: 1
            }
        );
        assert_eq!(s.hold_count(), 0);

        // Replay of a Round record walks the same path and lands the
        // release in the tally.
        let mut r = state();
        let mut tally = ReplayTally::default();
        r.apply(
            WalRecord::HoldPlace {
                txn: 9,
                port: PortRef::In(gridband_net::IngressId(0)),
                bw: 40.0,
                start: 10.0,
                finish: 30.0,
                expires: 1_000.0,
            },
            "wal-0",
            8,
            &mut tally,
        )
        .unwrap();
        r.apply(
            WalRecord::Round {
                t: 30.0,
                decisions: vec![],
            },
            "wal-0",
            64,
            &mut tally,
        )
        .unwrap();
        assert_eq!((tally.holds_placed, tally.holds_released), (1, 1));
        assert_eq!(tally.gc_reclaimed, 1);
    }

    fn b2_restore_fails(snap: EngineSnapshot) -> bool {
        state().restore(snap, "snap-bad").is_err()
    }

    #[test]
    fn expired_holds_lists_only_uncommitted_past_deadline() {
        let mut s = state();
        s.place_hold(
            1,
            PortRef::In(gridband_net::IngressId(0)),
            10.0,
            0.0,
            50.0,
            20.0,
        )
        .unwrap();
        s.place_hold(
            2,
            PortRef::In(gridband_net::IngressId(1)),
            10.0,
            0.0,
            50.0,
            20.0,
        )
        .unwrap();
        s.place_hold(
            3,
            PortRef::Out(gridband_net::EgressId(0)),
            10.0,
            0.0,
            50.0,
            40.0,
        )
        .unwrap();
        assert!(s.commit_hold(2));
        assert_eq!(s.expired_holds(10.0), Vec::<u64>::new());
        // txn 2 is committed, txn 3 not yet due: only txn 1 expires.
        assert_eq!(s.expired_holds(25.0), vec![1]);
        assert_eq!(s.expired_holds(45.0), vec![1, 3]);
        assert!(s.release_hold(1));
        assert!(!s.release_hold(1), "double release is refused");
    }

    #[test]
    fn history_eviction_keeps_the_newest_states() {
        let mut s = EngineState::new(Topology::uniform(1, 1, 100.0), 10.0, 2);
        s.record_state(1, ReqState::Rejected);
        s.record_state(2, ReqState::Rejected);
        s.record_state(3, ReqState::Rejected);
        assert!(!s.knows(1), "oldest entry evicted");
        assert!(s.knows(2) && s.knows(3));
    }
}
