//! The reservation ledger: coupled ingress/egress capacity accounting.
//!
//! A [`CapacityLedger`] owns one [`CapacityProfile`] per access point of a
//! [`Topology`] and exposes the *transactional* operation the schedulers
//! need: reserve `bw` MB/s on both endpoints of a route over `[t0, t1)`, or
//! fail atomically. This is exactly the constraint set (1) of the paper —
//! a request consumes its bandwidth at its ingress *and* its egress point
//! simultaneously.
//!
//! Admission rounds (the WINDOW scheduler in `crates/algos`, the serve
//! daemon's engine) accept many requests at one decision instant, and free
//! the reservations that ended since the last one. The batched
//! [`CapacityLedger::reserve_all`] and [`CapacityLedger::release_all`]
//! entry points book and free a whole round with the same sequential
//! semantics as repeated [`reserve`](CapacityLedger::reserve) /
//! [`cancel`](CapacityLedger::cancel) calls, but defer the per-port
//! query-index rebuild so each touched port's index is rebuilt once per
//! batch instead of once per reservation.
//!
//! **One booking path.** A rigid reservation is the one-span case of a
//! stepwise plan, and a hold is one span on one port. Every profile edit
//! in this module — a booking, a cancel, a hold, an expiry — is a list of
//! `(port, span)` charges handed to the private `book`, which checks every
//! charge with the profile's read-only breakpoint scan first and applies
//! them only if all pass. A refused operation therefore leaves every bit
//! as it found it, and no caller carries an undo path. The one exception
//! is [`amend_segments`](CapacityLedger::amend_segments): its new plan is
//! checked against the ledger with the old plan already released, so a
//! refusal restores clones of the two port profiles.
//!
//! **One reservation table.** Every live reservation, rigid or stepwise,
//! is a [`Plan`] in one map ordered by id; a rigid plan is one span.
//! Holds sit in a second ordered map. Every walk over either runs in
//! ascending id order, the same in every process holding the same
//! ledger, so the order of releases — the order of float operations on
//! a profile — needs no sort.
//!
//! **Commit invariant.** `book` edits the breakpoint vectors and leaves
//! the touched ports' query indexes stale, and every public method that
//! books ends with the private `commit` — on the error paths too. No
//! `&self` query can therefore meet a stale index: holding `&mut self`
//! for the whole operation is what keeps readers out until the commit has
//! run.

use crate::error::{NetError, NetResult};
use crate::port::{EgressId, IngressId, PortRef, Route};
use crate::profile::CapacityProfile;
use crate::topology::Topology;
use crate::units::{Bandwidth, Time, EPS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Opaque handle to a live reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ReservationId(pub u64);

/// Opaque handle to a live capacity hold (see [`PortHold`]).
///
/// Holds are numbered by their own counter, independent of reservation
/// ids, so adding or releasing holds never perturbs the reservation
/// numbering that differential tests compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HoldId(pub u64);

/// A single-port capacity hold: the §5.4 two-phase admission primitive.
///
/// Unlike a [`Reservation`], which charges both endpoints of a route, a
/// hold pins `bw` on exactly one port — the ingress shard holds its side
/// while it asks the egress shard to hold the other. A hold occupies real
/// capacity (concurrent transactions cannot over-commit the port) until
/// it is released or upgraded into a reservation by the commit step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PortHold {
    /// The single port charged by this hold.
    pub port: PortRef,
    /// Start of the held window (inclusive).
    pub start: Time,
    /// End of the held window (exclusive).
    pub end: Time,
    /// Held constant bandwidth in MB/s.
    pub bw: Bandwidth,
}

impl PortHold {
    /// Bandwidth-seconds pinned by this hold (`bw × duration`).
    pub fn area(&self) -> f64 {
        self.bw * (self.end - self.start)
    }

    /// The hold's one charge: its span on its port.
    fn charge(&self) -> Charge {
        let (start, end, bw) = (self.start, self.end, self.bw);
        (self.port, SegSpan { start, end, bw })
    }
}

/// A booked slice of edge capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// The route both ends of which are charged.
    pub route: Route,
    /// Start of the reservation (inclusive).
    pub start: Time,
    /// End of the reservation (exclusive).
    pub end: Time,
    /// Constant reserved bandwidth in MB/s.
    pub bw: Bandwidth,
}

impl Reservation {
    /// Bandwidth-seconds booked at one endpoint (`bw × duration`); equals
    /// the transfer volume for an exactly-sized reservation.
    pub fn area(&self) -> f64 {
        self.bw * (self.end - self.start)
    }

    /// The reservation as the one segment of a stepwise plan.
    fn span(&self) -> SegSpan {
        let (start, end, bw) = (self.start, self.end, self.bw);
        SegSpan { start, end, bw }
    }
}

/// One step of a malleable (stepwise time-varying) reservation: a
/// constant `bw` MB/s over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegSpan {
    /// Start of the step (inclusive).
    pub start: Time,
    /// End of the step (exclusive).
    pub end: Time,
    /// Constant bandwidth of the step in MB/s.
    pub bw: Bandwidth,
}

impl SegSpan {
    /// Bandwidth-seconds of this step (`bw × duration`).
    pub fn area(&self) -> f64 {
        self.bw * (self.end - self.start)
    }
}

/// A booked stepwise reservation: the same route charged with a
/// different constant rate in each segment — the malleable request
/// model of Chen & Primet, where a transfer may crawl through a
/// congested stretch and sprint afterward. Segments are strictly
/// ordered and non-overlapping; gaps (idle stretches) are allowed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentedReservation {
    /// The route both ends of which are charged by every segment.
    pub route: Route,
    /// The booked steps, ascending and non-overlapping, never empty.
    pub segments: Vec<SegSpan>,
}

/// A live reservation: a route charged on both ports with each of its
/// spans. Chen & Primet model every reservation as a time–bandwidth
/// profile; a rigid grant is the constant, one-span case, kept inline so
/// walking the plan table reads its times without a pointer chase.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// One constant-rate span on a route, booked by
    /// [`CapacityLedger::reserve`].
    Rigid(Route, SegSpan),
    /// Spans ascending and non-overlapping, never empty, on a route;
    /// booked by [`CapacityLedger::reserve_segments`].
    Stepwise(Route, Vec<SegSpan>),
}

impl Plan {
    /// Whether the plan was booked by [`CapacityLedger::reserve`].
    pub fn is_rigid(&self) -> bool {
        matches!(self, Plan::Rigid(..))
    }

    /// The route both ends of which are charged by every span.
    pub fn route(&self) -> Route {
        match self {
            Plan::Rigid(route, _) | Plan::Stepwise(route, _) => *route,
        }
    }

    /// The booked spans, in order.
    pub fn spans(&self) -> &[SegSpan] {
        match self {
            Plan::Rigid(_, span) => std::slice::from_ref(span),
            Plan::Stepwise(_, spans) => spans,
        }
    }

    /// Start of the first span.
    pub fn start(&self) -> Time {
        self.spans().first().map_or(f64::INFINITY, |s| s.start)
    }

    /// End of the last span.
    pub fn end(&self) -> Time {
        self.spans().last().map_or(f64::NEG_INFINITY, |s| s.end)
    }

    /// Highest per-span rate of the plan.
    pub fn peak(&self) -> Bandwidth {
        self.spans().iter().fold(0.0, |m, s| m.max(s.bw))
    }

    /// A rigid plan as the [`Reservation`] it was booked as.
    fn reservation(&self) -> Reservation {
        let (route, SegSpan { start, end, bw }) = (self.route(), self.spans()[0]);
        Reservation {
            route,
            start,
            end,
            bw,
        }
    }

    /// A stepwise plan as [`LedgerState::live_seg`] stores it.
    fn segmented(&self) -> SegmentedReservation {
        let (route, segments) = (self.route(), self.spans().to_vec());
        SegmentedReservation { route, segments }
    }

    /// The plan's charges: every span on the ingress, then every span on
    /// the egress — the order a refusal is reported in.
    fn charges(&self) -> impl Iterator<Item = Charge> + Clone + '_ {
        let on = |port: PortRef| self.spans().iter().map(move |s| (port, *s));
        let [ingress, egress] = route_ports(self.route());
        on(ingress).chain(on(egress))
    }
}

/// One port's share of a booking: a span charged on, or freed from, one
/// port. A rigid reservation is two charges, a stepwise plan two per
/// segment, a hold one.
type Charge = (PortRef, SegSpan);

/// The two ports a route charges, ingress first.
fn route_ports(route: Route) -> [PortRef; 2] {
    [PortRef::In(route.ingress), PortRef::Out(route.egress)]
}

/// The ids of one exported table: strictly increasing, and below the
/// counter that hands them out.
fn check_ids<T>(table: &str, entries: &[(u64, T)], next: u64) -> NetResult<()> {
    let mut prev: Option<u64> = None;
    for &(id, _) in entries {
        if prev.is_some_and(|p| id <= p) {
            return Err(NetError::InvalidArgument(format!(
                "{table} not sorted by id at #{id}"
            )));
        }
        if id >= next {
            return Err(NetError::InvalidArgument(format!(
                "{table}: #{id} not below the next id {next}"
            )));
        }
        prev = Some(id);
    }
    Ok(())
}

/// Whether [`CapacityLedger::book`] adds its charges or takes them off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edit {
    Charge,
    Free,
}

/// Parameters of one reservation inside a [`CapacityLedger::reserve_all`]
/// batch — the same four arguments [`CapacityLedger::reserve`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReserveRequest {
    /// The route both ends of which are charged.
    pub route: Route,
    /// Start of the reservation (inclusive).
    pub start: Time,
    /// End of the reservation (exclusive).
    pub end: Time,
    /// Constant reserved bandwidth in MB/s.
    pub bw: Bandwidth,
}

/// One entry of a [`CapacityLedger::release_all`] batch: which live entry
/// to free, by the call that would free it on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseRequest {
    /// A rigid reservation, as [`CapacityLedger::cancel`] frees it.
    Reservation(ReservationId),
    /// A segmented reservation, as [`CapacityLedger::cancel_segments`].
    Segments(ReservationId),
    /// A single-port hold, as [`CapacityLedger::release_hold`].
    Hold(HoldId),
}

/// Serializable image of a whole ledger — every port profile, the live
/// reservation table, and the id counter — produced by
/// [`CapacityLedger::export_state`] and consumed by
/// [`CapacityLedger::restore_state`]. This is what the serve daemon's
/// durability layer snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerState {
    /// Ingress port profiles, in port order.
    pub ingress: Vec<CapacityProfile>,
    /// Egress port profiles, in port order.
    pub egress: Vec<CapacityProfile>,
    /// Live rigid reservations as `(id, reservation)`, sorted by id.
    pub live: Vec<(u64, Reservation)>,
    /// Next reservation id the ledger will assign.
    pub next_id: u64,
    /// Live capacity holds as `(id, hold)`, sorted by id.
    pub holds: Vec<(u64, PortHold)>,
    /// Next hold id the ledger will assign.
    pub next_hold_id: u64,
    /// GC watermark of the exported ledger; `None` if
    /// [`CapacityLedger::gc`] never ran. (An `Option` rather than a bare
    /// float because the in-memory "never collected" sentinel is `-∞`,
    /// which JSON cannot represent.)
    pub watermark: Option<Time>,
    /// Live segmented (malleable) reservations as `(id, reservation)`,
    /// sorted by id; `None` when there are none, so rigid-only exports —
    /// and pre-malleable images, where the field is absent entirely —
    /// decode to the identical state.
    pub live_seg: Option<Vec<(u64, SegmentedReservation)>>,
}

/// What one [`CapacityLedger::gc`] sweep reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Breakpoints dropped from port profiles by the truncation.
    pub breakpoints_dropped: usize,
    /// Fully-past reservations removed from the live table.
    pub reservations_collected: usize,
    /// Fully-past holds removed from the hold table.
    pub holds_collected: usize,
}

/// Capacity profiles for every port of a topology plus the set of live
/// reservations, supporting atomic reserve / cancel.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    topology: Topology,
    ingress: Vec<CapacityProfile>,
    egress: Vec<CapacityProfile>,
    /// Every live reservation, rigid and stepwise, by id.
    plans: BTreeMap<u64, Plan>,
    next_id: u64,
    holds: BTreeMap<u64, PortHold>,
    next_hold_id: u64,
    /// High-water mark of [`Self::gc`]; `-∞` until the first sweep. All
    /// history strictly before the *effective* truncation point derived
    /// from it has been forgotten.
    watermark: f64,
}

impl CapacityLedger {
    /// Fresh, fully-free ledger over a topology.
    pub fn new(topology: Topology) -> Self {
        let ingress = topology
            .ingress_ids()
            .map(|i| CapacityProfile::new(topology.ingress_cap(i)))
            .collect();
        let egress = topology
            .egress_ids()
            .map(|e| CapacityProfile::new(topology.egress_cap(e)))
            .collect();
        CapacityLedger {
            topology,
            ingress,
            egress,
            plans: BTreeMap::new(),
            next_id: 0,
            holds: BTreeMap::new(),
            next_hold_id: 0,
            watermark: f64::NEG_INFINITY,
        }
    }

    /// The topology this ledger tracks.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Profile of one ingress port.
    pub fn ingress_profile(&self, i: IngressId) -> &CapacityProfile {
        &self.ingress[i.index()]
    }

    /// Profile of one egress port.
    pub fn egress_profile(&self, e: EgressId) -> &CapacityProfile {
        &self.egress[e.index()]
    }

    /// Number of currently live rigid reservations.
    pub fn live_count(&self) -> usize {
        self.live_reservations().count()
    }

    /// Number of currently live plans, rigid and stepwise.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Iterate over every live plan, rigid and stepwise, in ascending id
    /// order — the same order in every process holding the same ledger,
    /// so a caller may release what it finds in the order found.
    pub fn plans(&self) -> impl Iterator<Item = (ReservationId, &Plan)> {
        self.plans.iter().map(|(&id, p)| (ReservationId(id), p))
    }

    /// The rigid plans of [`plans`](Self::plans), in the same ascending
    /// id order, as the reservations they were booked as.
    pub fn live_reservations(&self) -> impl Iterator<Item = (ReservationId, Reservation)> + '_ {
        (self.plans().filter(|(_, p)| p.is_rigid())).map(|(id, p)| (id, p.reservation()))
    }

    /// Look up a live rigid reservation.
    pub fn get(&self, id: ReservationId) -> Option<Reservation> {
        (self.plans.get(&id.0).filter(|p| p.is_rigid())).map(Plan::reservation)
    }

    /// The one shape check: every booking passes it before it reaches a
    /// profile, and so does every entry of a restored image. Each port
    /// must lie inside the topology, and the plan must be non-empty, with
    /// every span finite, longer than [`EPS`] (below the profiles' time
    /// resolution), positive-rate, and strictly ordered without overlap.
    fn validate(&self, ports: &[PortRef], spans: &[SegSpan]) -> NetResult<()> {
        for &port in ports {
            let known = match port {
                PortRef::In(i) => i.index() < self.topology.num_ingress(),
                PortRef::Out(e) => e.index() < self.topology.num_egress(),
            };
            if !known {
                return Err(NetError::UnknownPort(port));
            }
        }
        if spans.is_empty() {
            return Err(NetError::InvalidArgument("plan has no segments".into()));
        }
        let mut prev_end = f64::NEG_INFINITY;
        for s in spans {
            if !(s.start.is_finite() && s.end.is_finite()) || s.end - s.start <= EPS {
                return Err(NetError::InvalidArgument(format!(
                    "interval [{}, {}) is non-finite or not longer than ε",
                    s.start, s.end
                )));
            }
            if !s.bw.is_finite() || s.bw <= 0.0 {
                return Err(NetError::InvalidArgument(format!(
                    "bandwidth {} must be finite and positive",
                    s.bw
                )));
            }
            if s.start < prev_end {
                return Err(NetError::InvalidArgument(format!(
                    "segments overlap or are out of order at {}",
                    s.start
                )));
            }
            prev_end = s.end;
        }
        Ok(())
    }

    /// Whether `bw` fits on both endpoints of `route` over `[start, end)`.
    pub fn fits(&self, route: Route, start: Time, end: Time, bw: Bandwidth) -> bool {
        self.topology.contains_route(route)
            && self.ingress[route.ingress.index()].fits(start, end, bw)
            && self.egress[route.egress.index()].fits(start, end, bw)
    }

    /// Largest constant bandwidth a new reservation on `route` could hold
    /// throughout `[start, end)` (the min of the two ports' minimum free
    /// bandwidth over the interval).
    pub fn max_fit(&self, route: Route, start: Time, end: Time) -> Bandwidth {
        self.ingress[route.ingress.index()]
            .min_free(start, end)
            .min(self.egress[route.egress.index()].min_free(start, end))
    }

    /// Per-port residual capacity over `[t0, t1)`: for every ingress and
    /// egress port, the minimum free bandwidth across the interval (the
    /// port capacity minus the peak committed allocation, holds
    /// included). This is the leftover pool a post-admission
    /// redistribution pass may resell for that interval without ever
    /// touching a guaranteed profile; taking the interval *minimum*
    /// keeps any constant rate granted from it feasible at every
    /// instant, even across mid-interval breakpoints.
    ///
    /// Runs one indexed `min_free` query per port.
    pub fn residuals(&self, t0: Time, t1: Time) -> (Vec<Bandwidth>, Vec<Bandwidth>) {
        let ins = self.ingress.iter().map(|p| p.min_free(t0, t1)).collect();
        let outs = self.egress.iter().map(|p| p.min_free(t0, t1)).collect();
        (ins, outs)
    }

    /// Atomically reserve `bw` on both endpoints over `[start, end)`.
    ///
    /// On failure nothing is booked and the error names the saturated port
    /// and the earliest overflow instant.
    pub fn reserve(
        &mut self,
        route: Route,
        start: Time,
        end: Time,
        bw: Bandwidth,
    ) -> NetResult<ReservationId> {
        let out = self.reserve_deferred(route, start, end, bw);
        self.commit();
        out
    }

    /// Atomically book a whole admission round: each entry is reserved with
    /// exactly the semantics of a sequential [`reserve`](Self::reserve)
    /// call (in batch order, later entries see capacity consumed by earlier
    /// ones), but every touched port's query index is rebuilt once at the
    /// end of the batch instead of once per reservation.
    ///
    /// Returns one result per entry, in order. A failed entry books
    /// nothing; successes before and after it stand.
    pub fn reserve_all(&mut self, batch: &[ReserveRequest]) -> Vec<NetResult<ReservationId>> {
        let out = batch
            .iter()
            .map(|r| self.reserve_deferred(r.route, r.start, r.end, r.bw))
            .collect();
        self.commit();
        out
    }

    /// Rebuild the query index of every port a deferred mutation touched
    /// (a flag test on the others). The last step of every mutating
    /// method; see the module docs.
    fn commit(&mut self) {
        for p in self.ingress.iter_mut().chain(self.egress.iter_mut()) {
            p.commit_index();
        }
    }

    /// The profile of one port, whichever side it is on.
    fn port(&self, port: PortRef) -> &CapacityProfile {
        match port {
            PortRef::In(i) => &self.ingress[i.index()],
            PortRef::Out(e) => &self.egress[e.index()],
        }
    }

    /// [`Self::port`], for an edit.
    fn port_mut(&mut self, port: PortRef) -> &mut CapacityProfile {
        match port {
            PortRef::In(i) => &mut self.ingress[i.index()],
            PortRef::Out(e) => &mut self.egress[e.index()],
        }
    }

    /// The one way a profile changes: check every charge of a booking,
    /// then apply them all, leaving the index rebuild to
    /// [`commit`](Self::commit). The checks are the profiles' read-only
    /// breakpoint scans, correct even while an earlier edit of the same
    /// batch has left an index stale. No two charges of one booking
    /// overlap on a port (a plan's segments never do), so checking them
    /// all first reads the same levels as checking each one just before
    /// it is applied. A refused booking changes nothing; its error names
    /// the first charge that failed.
    fn book(&mut self, charges: impl Iterator<Item = Charge> + Clone, edit: Edit) -> NetResult<()> {
        for (port, s) in charges.clone() {
            let p = self.port(port);
            let refusal = match edit {
                Edit::Charge => {
                    p.overflow_at(s.start, s.end, s.bw)
                        .map(|at| NetError::CapacityExceeded {
                            port,
                            capacity: p.capacity(),
                            requested: p.alloc_at(at) + s.bw,
                            at,
                        })
                }
                Edit::Free => (p.underflow_at(s.start, s.end, s.bw))
                    .map(|at| NetError::ReleaseUnderflow { port, at }),
            };
            if let Some(e) = refusal {
                return Err(e);
            }
        }
        for (port, s) in charges {
            let delta = match edit {
                Edit::Charge => s.bw,
                Edit::Free => -s.bw,
            };
            self.port_mut(port).apply_deferred(s.start, s.end, delta);
        }
        Ok(())
    }

    /// Validate and book a plan on both ports of its route, and file it
    /// under the next reservation id — the rigid and the stepwise
    /// booking alike.
    fn book_plan(&mut self, plan: Plan) -> NetResult<ReservationId> {
        self.validate(&route_ports(plan.route()), plan.spans())?;
        self.book(plan.charges(), Edit::Charge)?;
        let id = self.next_id;
        self.next_id += 1;
        self.plans.insert(id, plan);
        Ok(ReservationId(id))
    }

    fn reserve_deferred(
        &mut self,
        route: Route,
        start: Time,
        end: Time,
        bw: Bandwidth,
    ) -> NetResult<ReservationId> {
        self.book_plan(Plan::Rigid(route, SegSpan { start, end, bw }))
    }

    /// Atomically book a stepwise plan on both endpoints of `route`:
    /// every segment is charged on the ingress and the egress profile, or
    /// nothing is. Every segment is checked on both ports before any is
    /// applied, so a rejected plan leaves the ledger exactly as it found
    /// it.
    ///
    /// The reservation shares the id space of [`reserve`](Self::reserve);
    /// free it with [`cancel_segments`](Self::cancel_segments) or reshape
    /// it in place with [`amend_segments`](Self::amend_segments).
    pub fn reserve_segments(
        &mut self,
        route: Route,
        segments: &[SegSpan],
    ) -> NetResult<ReservationId> {
        let id = self.book_plan(Plan::Stepwise(route, segments.to_vec()));
        self.commit();
        id
    }

    /// Cancel a live segmented reservation, freeing every segment's
    /// capacity on both ports: [`free`](Self::free), refused for an id
    /// that is not a live stepwise plan.
    pub fn cancel_segments(&mut self, id: ReservationId) -> NetResult<SegmentedReservation> {
        let out = self.free_deferred(id, |p| !p.is_rigid());
        self.commit();
        out.map(|p| p.segmented())
    }

    /// Atomically replace a live segmented reservation's plan with
    /// `new_segments` — mid-flight renegotiation as one ledger action
    /// that keeps the id. The swap releases the old plan and books the
    /// new one; because release-then-reallocate is **not** float-exact,
    /// failure restores pre-amend clones of the two port profiles
    /// wholesale, so a rejected amend leaves the original reservation
    /// (and every profile byte) untouched, and capacity freed by the old
    /// plan is never observable unless the new plan is granted.
    pub fn amend_segments(&mut self, id: ReservationId, new_segments: &[SegSpan]) -> NetResult<()> {
        let plan = (self.get_segments(id)).ok_or(NetError::UnknownReservation(id.0))?;
        let (route, old_segments) = (plan.route(), plan.spans().to_vec());
        let ports = route_ports(route);
        self.validate(&ports, new_segments)?;
        // Span by span, ingress then egress: the order a refusal is
        // reported in.
        let paired = |spans: &[SegSpan]| -> Vec<Charge> {
            spans
                .iter()
                .flat_map(|s| ports.map(|port| (port, *s)))
                .collect()
        };
        let (old, new) = (paired(&old_segments), paired(new_segments));
        let snaps = ports.map(|port| self.port(port).clone());
        let result = self
            .book(old.into_iter(), Edit::Free)
            .and_then(|()| self.book(new.into_iter(), Edit::Charge));
        if let Err(e) = result {
            // The clones were taken committed, index and all.
            for (port, snap) in ports.into_iter().zip(snaps) {
                *self.port_mut(port) = snap;
            }
            return Err(e);
        }
        self.commit();
        self.plans
            .insert(id.0, Plan::Stepwise(route, new_segments.to_vec()));
        Ok(())
    }

    /// Look up a live segmented reservation.
    pub fn get_segments(&self, id: ReservationId) -> Option<&Plan> {
        self.plans.get(&id.0).filter(|p| !p.is_rigid())
    }

    /// Number of currently live segmented reservations.
    pub fn seg_count(&self) -> usize {
        self.plans.len() - self.live_count()
    }

    /// Residual volume a route could still carry over `[t0, t1)`: the
    /// minimum of the two ports' [`CapacityProfile::free_volume`]. An
    /// upper bound on any (stepwise or constant) allocation's deliverable
    /// volume in the window; the malleable solver prechecks against it
    /// instead of rescanning breakpoints. `O(log k)` per port.
    pub fn route_free_volume(&self, route: Route, t0: Time, t1: Time) -> f64 {
        self.ingress[route.ingress.index()]
            .free_volume(t0, t1)
            .min(self.egress[route.egress.index()].free_volume(t0, t1))
    }

    /// Free a live plan of either kind, releasing every span's capacity
    /// on both ports.
    ///
    /// A failing release (possible only if a port profile was corrupted
    /// behind the ledger's back) leaves the ledger unchanged, bit for bit:
    /// the plan stays live and neither port is released, so capacity is
    /// never charged for a reservation the ledger has forgotten.
    pub fn free(&mut self, id: ReservationId) -> NetResult<Plan> {
        let out = self.free_deferred(id, |_| true);
        self.commit();
        out
    }

    /// [`free`](Self::free) without the commit, refused unless `which`
    /// accepts the plan under `id`.
    fn free_deferred(&mut self, id: ReservationId, which: fn(&Plan) -> bool) -> NetResult<Plan> {
        let p = (self.plans.get(&id.0).filter(|p| which(p)).cloned())
            .ok_or(NetError::UnknownReservation(id.0))?;
        self.book(p.charges(), Edit::Free)?;
        self.plans.remove(&id.0);
        Ok(p)
    }

    /// Cancel a live rigid reservation, freeing its capacity on both
    /// ports: [`free`](Self::free), refused for an id that is not a live
    /// rigid plan.
    pub fn cancel(&mut self, id: ReservationId) -> NetResult<Reservation> {
        let out = self.free_deferred(id, Plan::is_rigid);
        self.commit();
        out.map(|p| p.reservation())
    }

    /// Free a whole batch of live entries: each one is released with
    /// exactly the semantics of its own call — [`cancel`](Self::cancel),
    /// [`cancel_segments`](Self::cancel_segments) or
    /// [`release_hold`](Self::release_hold) — in batch order, so every
    /// profile sees the float operations of the one-by-one sequence and
    /// ends on the same bits; but every touched port's query index is
    /// rebuilt once at the end of the batch instead of once per release.
    /// The counterpart of [`reserve_all`](Self::reserve_all) for the
    /// per-round expiry sweep.
    ///
    /// Returns one result per entry, in order. A failed entry frees
    /// nothing and stays live, as its own call's contract says; successes
    /// before and after it stand.
    pub fn release_all(&mut self, batch: &[ReleaseRequest]) -> Vec<NetResult<()>> {
        let out = batch
            .iter()
            .map(|&r| {
                let (id, which): (_, fn(&Plan) -> bool) = match r {
                    ReleaseRequest::Reservation(id) => (id, Plan::is_rigid),
                    ReleaseRequest::Segments(id) => (id, |p| !p.is_rigid()),
                    ReleaseRequest::Hold(id) => return self.release_hold_deferred(id).map(drop),
                };
                self.free_deferred(id, which).map(drop)
            })
            .collect();
        self.commit();
        out
    }

    /// Number of currently live holds.
    pub fn hold_count(&self) -> usize {
        self.holds.len()
    }

    /// Look up a live hold.
    pub fn get_hold(&self, id: HoldId) -> Option<&PortHold> {
        self.holds.get(&id.0)
    }

    /// Pin `bw` MB/s on a single port over `[start, end)` — the prepare
    /// step of a §5.4 two-phase cross-shard admission. The held capacity
    /// is charged into the port's profile immediately, so concurrent
    /// transactions (and ordinary reservations) see it and cannot
    /// over-commit the port. Pair with [`release_hold`](Self::release_hold)
    /// — either directly (abort/timeout) or as part of the commit step,
    /// which releases the holds and books the definitive two-port
    /// reservation in their place.
    pub fn hold(
        &mut self,
        port: PortRef,
        start: Time,
        end: Time,
        bw: Bandwidth,
    ) -> NetResult<HoldId> {
        let h = PortHold {
            port,
            start,
            end,
            bw,
        };
        let charge = h.charge();
        self.validate(&[port], &[charge.1])?;
        let out = self.book(std::iter::once(charge), Edit::Charge);
        self.commit();
        out?;
        let id = self.next_hold_id;
        self.next_hold_id += 1;
        self.holds.insert(id, h);
        Ok(HoldId(id))
    }

    /// Release a live hold, freeing its pinned capacity.
    ///
    /// Like [`cancel`](Self::cancel), a failing release (corrupted
    /// profile) leaves the ledger unchanged: the hold stays live.
    pub fn release_hold(&mut self, id: HoldId) -> NetResult<PortHold> {
        let out = self.release_hold_deferred(id);
        self.commit();
        out
    }

    fn release_hold_deferred(&mut self, id: HoldId) -> NetResult<PortHold> {
        let h = *self.holds.get(&id.0).ok_or(NetError::UnknownHold(id.0))?;
        self.book(std::iter::once(h.charge()), Edit::Free)?;
        self.holds.remove(&id.0);
        Ok(h)
    }

    /// The GC watermark, or `None` if [`gc`](Self::gc) never ran.
    pub fn watermark(&self) -> Option<Time> {
        self.watermark.is_finite().then_some(self.watermark)
    }

    /// Total breakpoints across every port profile (diagnostic — the
    /// quantity watermark GC keeps bounded).
    pub fn breakpoint_count(&self) -> usize {
        self.ingress
            .iter()
            .chain(self.egress.iter())
            .map(|p| p.breakpoint_count())
            .sum()
    }

    /// Collect everything that is fully in the past: plans and holds
    /// whose end is at or before `watermark` leave the live tables,
    /// and every port profile drops its breakpoints before the *effective
    /// truncation point* — `min(watermark, earliest start of any surviving
    /// reservation or hold)`. Capping the truncation at the earliest
    /// surviving start is what keeps GC answer-preserving: the profile
    /// charge of a live reservation is never partially forgotten, so
    /// [`cancel`](Self::cancel) / [`cancel_segments`](Self::cancel_segments)
    /// / [`release_hold`](Self::release_hold) keep releasing full intervals
    /// and the restore-time conservation check stays exact.
    ///
    /// Expiry uses the **exact** comparison `end <= watermark`, not the
    /// ε-tolerant [`approx_le`](crate::units::approx_le): a reservation
    /// ending within ε *after* the watermark is still live, still owed its
    /// (sub-ε) future charge, and must not be collected — an ε-tolerant
    /// sweep here drops it from the live table while its charge past the
    /// truncation point survives, materializing phantom capacity (see the
    /// `gc_epsilon_edge_*` regression tests).
    ///
    /// Expired entries are released rigid plans first, then stepwise ones,
    /// then holds, each kind by ascending id: the order of releases is the
    /// order of float operations on a profile, and replay needs it fixed.
    ///
    /// Watermarks only move forward: a non-finite watermark or one at or
    /// below the previous sweep's is a no-op. Every query (`max_alloc`,
    /// `fits`, `min_free`, `earliest_fit`, both indexed and `*_linear`)
    /// answers identically to the un-GC'd ledger for all times at or after
    /// the watermark.
    pub fn gc(&mut self, watermark: Time) -> GcStats {
        let mut stats = GcStats::default();
        if !watermark.is_finite() || watermark <= self.watermark {
            return stats;
        }
        self.watermark = watermark;
        let mut cut = watermark;
        let (mut rigid, mut stepwise, mut holds) = (Vec::new(), Vec::new(), Vec::new());
        for (&id, p) in &self.plans {
            if p.end() > watermark {
                cut = cut.min(p.start());
            } else if p.is_rigid() {
                rigid.push(id);
            } else {
                stepwise.push(id);
            }
        }
        for (&id, h) in &self.holds {
            if h.end > watermark {
                cut = cut.min(h.start);
            } else {
                holds.push(id);
            }
        }
        for id in rigid.into_iter().chain(stepwise) {
            let p = self.plans.remove(&id).expect("selected above");
            self.free_past(cut, p.charges());
            stats.reservations_collected += 1;
        }
        for id in holds {
            let h = self.holds.remove(&id).expect("selected above");
            self.free_past(cut, std::iter::once(h.charge()));
            stats.holds_collected += 1;
        }
        for p in self.ingress.iter_mut().chain(self.egress.iter_mut()) {
            stats.breakpoints_dropped += p.truncate_before(cut);
        }
        // A truncation that dropped something rebuilt the index already;
        // this is for the ports where it found nothing to drop.
        self.commit();
        stats
    }

    /// Free what an expired entry still charges. A span reaching past the
    /// truncation point `cut` is still whole in its profile and is
    /// released the ordinary way; one ending at or before it just
    /// vanishes with the truncation.
    fn free_past(&mut self, cut: Time, charges: impl Iterator<Item = Charge> + Clone) {
        self.book(charges.filter(move |(_, s)| s.end > cut), Edit::Free)
            .expect("a live entry's charge must be releasable");
    }

    /// Total bandwidth-seconds reserved across all ingress ports over
    /// `[t0, t1)`. Because every reservation charges exactly one ingress and
    /// one egress port, the egress total is identical; utilization reports
    /// use the ingress side.
    pub fn reserved_area(&self, t0: Time, t1: Time) -> f64 {
        self.ingress.iter().map(|p| p.integral_alloc(t0, t1)).sum()
    }

    /// Instantaneous total allocated bandwidth at `t` (ingress side).
    pub fn allocated_at(&self, t: Time) -> Bandwidth {
        self.ingress.iter().map(|p| p.alloc_at(t)).sum()
    }

    /// Export the ledger's full state for snapshotting: every port
    /// profile verbatim (so a restore is bit-identical — *not* rebuilt
    /// by replaying reservations, whose float-addition order would
    /// differ), the plan table split by kind into `live` and `live_seg`
    /// (`None` when no stepwise plan is live), the holds, and the id
    /// counters. Every list comes out in id order, as the tables hold it.
    pub fn export_state(&self) -> LedgerState {
        let (mut live, mut live_seg) = (Vec::new(), Vec::new());
        for (&id, p) in &self.plans {
            match p {
                Plan::Rigid(..) => live.push((id, p.reservation())),
                Plan::Stepwise(..) => live_seg.push((id, p.segmented())),
            }
        }
        LedgerState {
            ingress: self.ingress.clone(),
            egress: self.egress.clone(),
            live,
            next_id: self.next_id,
            holds: self.holds.iter().map(|(&id, &h)| (id, h)).collect(),
            next_hold_id: self.next_hold_id,
            watermark: self.watermark(),
            live_seg: (!live_seg.is_empty()).then_some(live_seg),
        }
    }

    /// Replace this ledger's state with a previously exported image.
    ///
    /// The image is validated before anything is touched — on error the
    /// ledger is unchanged. Checks: profile vectors match the topology's
    /// port counts and capacities; the ids of each list (rigid,
    /// segmented, holds) are strictly increasing and below their
    /// counter, and no id is both rigid and segmented (the two lists fill
    /// one plan table); every entry passes
    /// the shape check a booking passes (ports inside the topology, spans
    /// finite, longer than ε, positive-rate and in order); and, per port,
    /// the profile's integral equals the summed area of every span the
    /// live entries charge on it (within ε) — a damaged image can
    /// therefore never materialize phantom capacity that no live
    /// reservation or hold accounts for.
    pub fn restore_state(&mut self, state: LedgerState) -> NetResult<()> {
        if state.ingress.len() != self.topology.num_ingress()
            || state.egress.len() != self.topology.num_egress()
        {
            return Err(NetError::InvalidArgument(format!(
                "state has {}x{} ports, topology has {}x{}",
                state.ingress.len(),
                state.egress.len(),
                self.topology.num_ingress(),
                self.topology.num_egress()
            )));
        }
        for (i, p) in state.ingress.iter().enumerate() {
            if p.capacity() != self.topology.ingress_cap(IngressId(i as u32)) {
                return Err(NetError::InvalidArgument(format!(
                    "ingress {i} capacity {} does not match topology",
                    p.capacity()
                )));
            }
        }
        for (e, p) in state.egress.iter().enumerate() {
            if p.capacity() != self.topology.egress_cap(EgressId(e as u32)) {
                return Err(NetError::InvalidArgument(format!(
                    "egress {e} capacity {} does not match topology",
                    p.capacity()
                )));
            }
        }
        if let Some(w) = state.watermark {
            if !w.is_finite() {
                return Err(NetError::InvalidArgument(format!(
                    "non-finite GC watermark {w}"
                )));
            }
        }
        let seg_entries = state.live_seg.unwrap_or_default();
        check_ids("live reservations", &state.live, state.next_id)?;
        check_ids("segmented reservations", &seg_entries, state.next_id)?;
        check_ids("live holds", &state.holds, state.next_hold_id)?;
        let mut plans: BTreeMap<u64, Plan> = (state.live.iter())
            .map(|&(id, r)| (id, Plan::Rigid(r.route, r.span())))
            .collect();
        for (id, r) in seg_entries {
            if plans
                .insert(id, Plan::Stepwise(r.route, r.segments))
                .is_some()
            {
                return Err(NetError::InvalidArgument(format!(
                    "reservation #{id} is both rigid and segmented"
                )));
            }
        }
        // Every entry passes the booking-time shape check, and what it
        // charges is what each port's profile must account for.
        let mut owed = (
            vec![0.0; state.ingress.len()],
            vec![0.0; state.egress.len()],
        );
        let mut owe = |ports: &[PortRef], spans: &[SegSpan]| -> NetResult<()> {
            self.validate(ports, spans)?;
            let area: f64 = spans.iter().map(SegSpan::area).sum();
            for &port in ports {
                match port {
                    PortRef::In(i) => owed.0[i.index()] += area,
                    PortRef::Out(e) => owed.1[e.index()] += area,
                }
            }
            Ok(())
        };
        for p in plans.values() {
            owe(&route_ports(p.route()), p.spans())?;
        }
        for (_, h) in &state.holds {
            owe(&[h.port], &[h.charge().1])?;
        }
        // Conservation check: each port's booked bandwidth-seconds must
        // be exactly the live reservations plus live holds charging it
        // (expired ones were released by GC before any snapshot).
        let (lo, hi) = (state.ingress.iter().chain(&state.egress))
            .flat_map(|p| p.breakpoints().iter().map(|b| b.time))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
                (lo.min(t), hi.max(t))
            });
        let sides = [
            ("ingress", &state.ingress, &owed.0),
            ("egress", &state.egress, &owed.1),
        ];
        for (dir, profiles, owed) in sides {
            for (idx, (p, &owed)) in profiles.iter().zip(owed).enumerate() {
                let booked = p.integral_alloc(lo, hi);
                let tol = EPS * (1.0 + booked.abs().max(owed.abs()));
                if (booked - owed).abs() > tol {
                    return Err(NetError::InvalidArgument(format!(
                        "{dir} {idx} books {booked} MB but live reservations and holds account for {owed} MB"
                    )));
                }
            }
        }
        self.ingress = state.ingress;
        self.egress = state.egress;
        self.plans = plans;
        self.next_id = state.next_id;
        self.holds = state.holds.into_iter().collect();
        self.next_hold_id = state.next_hold_id;
        self.watermark = state.watermark.unwrap_or(f64::NEG_INFINITY);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CapacityLedger {
        CapacityLedger::new(Topology::uniform(2, 2, 100.0))
    }

    #[test]
    fn reserve_charges_both_endpoints() {
        let mut l = small();
        let id = l.reserve(Route::new(0, 1), 0.0, 10.0, 60.0).unwrap();
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 60.0);
        assert_eq!(l.egress_profile(EgressId(1)).alloc_at(5.0), 60.0);
        assert_eq!(l.ingress_profile(IngressId(1)).alloc_at(5.0), 0.0);
        assert_eq!(l.live_count(), 1);
        assert_eq!(l.get(id).unwrap().bw, 60.0);
    }

    #[test]
    fn egress_contention_blocks_even_when_ingress_is_free() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 70.0).unwrap();
        // Different ingress, same egress: only 30 MB/s left there.
        let err = l.reserve(Route::new(1, 0), 0.0, 10.0, 40.0).unwrap_err();
        match err {
            NetError::CapacityExceeded { port, .. } => {
                assert_eq!(port, PortRef::Out(EgressId(0)));
            }
            other => panic!("unexpected error {other}"),
        }
        // Failed reserve must leave the free ingress untouched (atomicity).
        assert!(l.ingress_profile(IngressId(1)).is_empty());
        // A fitting retry succeeds.
        l.reserve(Route::new(1, 0), 0.0, 10.0, 30.0).unwrap();
    }

    #[test]
    fn residuals_report_interval_minimum_free_per_port() {
        let mut l = small();
        l.reserve(Route::new(0, 1), 0.0, 10.0, 60.0).unwrap();
        l.reserve(Route::new(0, 0), 5.0, 15.0, 30.0).unwrap();
        // [0, 10): ingress 0 peaks at 90 (both overlap on [5, 10)).
        let (ins, outs) = l.residuals(0.0, 10.0);
        assert_eq!(ins, vec![10.0, 100.0]);
        assert_eq!(outs, vec![70.0, 40.0]);
        // [10, 20): only the second reservation's tail is left.
        let (ins, outs) = l.residuals(10.0, 20.0);
        assert_eq!(ins, vec![70.0, 100.0]);
        assert_eq!(outs, vec![70.0, 100.0]);
        // Holds count against the pool too.
        l.hold(PortRef::In(IngressId(1)), 10.0, 12.0, 50.0).unwrap();
        let (ins, outs) = l.residuals(10.0, 20.0);
        assert_eq!(ins, vec![70.0, 50.0]);
        assert_eq!(outs, vec![70.0, 100.0]);
    }

    #[test]
    fn cancel_frees_capacity() {
        let mut l = small();
        let id = l.reserve(Route::new(0, 0), 0.0, 10.0, 100.0).unwrap();
        assert!(!l.fits(Route::new(0, 1), 0.0, 10.0, 1.0));
        l.cancel(id).unwrap();
        assert!(l.fits(Route::new(0, 1), 0.0, 10.0, 100.0));
        assert_eq!(l.live_count(), 0);
        assert!(matches!(l.cancel(id), Err(NetError::UnknownReservation(_))));
    }

    fn seg(start: f64, end: f64, bw: f64) -> SegSpan {
        SegSpan { start, end, bw }
    }

    #[test]
    fn reserve_segments_books_every_segment_on_both_ports() {
        let mut l = small();
        let id = l
            .reserve_segments(
                Route::new(0, 1),
                &[
                    seg(0.0, 4.0, 20.0),
                    seg(4.0, 6.0, 80.0),
                    seg(9.0, 12.0, 50.0),
                ],
            )
            .unwrap();
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(2.0), 20.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 80.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(7.0), 0.0);
        assert_eq!(l.egress_profile(EgressId(1)).alloc_at(10.0), 50.0);
        assert_eq!(l.seg_count(), 1);
        let r = l.get_segments(id).unwrap();
        let volume: f64 = r.spans().iter().map(SegSpan::area).sum();
        assert_eq!(volume, 20.0 * 4.0 + 80.0 * 2.0 + 50.0 * 3.0);
        assert_eq!(r.peak(), 80.0);
        assert_eq!((r.start(), r.end()), (0.0, 12.0));
        // Cancel releases everything.
        l.cancel_segments(id).unwrap();
        assert!(l.ingress_profile(IngressId(0)).is_empty());
        assert!(l.egress_profile(EgressId(1)).is_empty());
        assert_eq!(l.seg_count(), 0);
        assert!(matches!(
            l.cancel_segments(id),
            Err(NetError::UnknownReservation(_))
        ));
    }

    #[test]
    fn reserve_segments_is_all_or_nothing() {
        let mut l = small();
        // Saturate egress 0 over [5, 7): the plan's middle segment can't fit.
        l.reserve(Route::new(1, 0), 5.0, 7.0, 100.0).unwrap();
        let before_in = l.ingress_profile(IngressId(0)).clone();
        let before_eg = l.egress_profile(EgressId(0)).clone();
        let err = l
            .reserve_segments(
                Route::new(0, 0),
                &[
                    seg(0.0, 5.0, 10.0),
                    seg(5.0, 7.0, 10.0),
                    seg(7.0, 9.0, 10.0),
                ],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::CapacityExceeded {
                port: PortRef::Out(EgressId(0)),
                ..
            }
        ));
        // Nothing was booked on either port.
        assert_eq!(l.ingress_profile(IngressId(0)), &before_in);
        assert_eq!(l.egress_profile(EgressId(0)), &before_eg);
        assert_eq!(l.seg_count(), 0);
        // A rigid booking is the one-segment case: refused on its egress,
        // it leaves its ingress bit-identical (a charge-then-undo would
        // leave 0.1 + 0.2 − 0.2 = 0.10000000000000003 there).
        let mut r = small();
        r.reserve(Route::new(0, 1), 0.0, 10.0, 0.1).unwrap();
        r.reserve(Route::new(1, 0), 0.0, 10.0, 99.9).unwrap();
        let before = r.export_state();
        let err = r.reserve(Route::new(0, 0), 0.0, 10.0, 0.2).unwrap_err();
        assert!(matches!(
            err,
            NetError::CapacityExceeded {
                port: PortRef::Out(EgressId(0)),
                ..
            }
        ));
        assert_eq!(r.export_state(), before);
        // Malformed plans are rejected up front.
        for bad in [
            vec![],
            vec![seg(0.0, 0.0, 10.0)],
            vec![seg(0.0, 5.0, -1.0)],
            vec![seg(0.0, 5.0, 10.0), seg(4.0, 6.0, 10.0)],
            vec![seg(f64::NAN, 5.0, 10.0)],
        ] {
            assert!(matches!(
                l.reserve_segments(Route::new(0, 0), &bad),
                Err(NetError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn amend_swaps_the_plan_and_keeps_the_id() {
        let mut l = small();
        let id = l
            .reserve_segments(Route::new(0, 1), &[seg(0.0, 10.0, 30.0)])
            .unwrap();
        l.amend_segments(id, &[seg(0.0, 5.0, 30.0), seg(5.0, 8.0, 50.0)])
            .unwrap();
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(6.0), 50.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(9.0), 0.0);
        let r = l.get_segments(id).unwrap();
        assert_eq!(r.spans().len(), 2);
        let volume: f64 = r.spans().iter().map(SegSpan::area).sum();
        assert_eq!(volume, 30.0 * 5.0 + 50.0 * 3.0);
    }

    #[test]
    fn rejected_amend_is_a_bit_identical_noop() {
        let mut l = small();
        // Awkward floats so release-then-reallocate would NOT round-trip.
        let id = l
            .reserve_segments(
                Route::new(0, 0),
                &[seg(0.1, 3.3, 29.7), seg(3.3, 7.7, 11.1)],
            )
            .unwrap();
        l.reserve(Route::new(1, 0), 10.0, 20.0, 95.0).unwrap();
        let before_in = l.ingress_profile(IngressId(0)).clone();
        let before_eg = l.egress_profile(EgressId(0)).clone();
        // New plan collides with the rigid booking on egress 0.
        let err = l
            .amend_segments(id, &[seg(0.1, 3.3, 29.7), seg(12.0, 14.0, 50.0)])
            .unwrap_err();
        assert!(matches!(err, NetError::CapacityExceeded { .. }));
        // The original reservation and both profiles are untouched, down
        // to the last bit (snapshot restore, not inverse float replay).
        assert_eq!(l.ingress_profile(IngressId(0)), &before_in);
        assert_eq!(l.egress_profile(EgressId(0)), &before_eg);
        let r = l.get_segments(id).unwrap();
        assert_eq!(r.spans(), vec![seg(0.1, 3.3, 29.7), seg(3.3, 7.7, 11.1)]);
        // Amending an unknown id is an error.
        assert!(matches!(
            l.amend_segments(ReservationId(999), &[seg(0.0, 1.0, 1.0)]),
            Err(NetError::UnknownReservation(999))
        ));
    }

    #[test]
    fn route_free_volume_is_the_min_of_both_ports() {
        let mut l = small();
        // Ingress 0 loses 40 over [0, 10); egress 1 loses 70 over [5, 10).
        l.reserve(Route::new(0, 0), 0.0, 10.0, 40.0).unwrap();
        l.reserve(Route::new(1, 1), 5.0, 10.0, 70.0).unwrap();
        // Ingress free: 60*10 = 600. Egress free: 100*5 + 30*5 = 650.
        assert_eq!(l.route_free_volume(Route::new(0, 1), 0.0, 10.0), 600.0);
        assert_eq!(l.route_free_volume(Route::new(0, 1), 5.0, 10.0), 150.0);
        assert_eq!(l.route_free_volume(Route::new(0, 1), 10.0, 10.0), 0.0);
    }

    #[test]
    fn gc_collects_expired_segmented_reservations() {
        let mut l = small();
        let gone = l
            .reserve_segments(
                Route::new(0, 0),
                &[seg(0.0, 3.0, 10.0), seg(4.0, 8.0, 20.0)],
            )
            .unwrap();
        let stays = l
            .reserve_segments(Route::new(0, 1), &[seg(2.0, 6.0, 5.0), seg(9.0, 15.0, 5.0)])
            .unwrap();
        let stats = l.gc(10.0);
        assert_eq!(stats.reservations_collected, 1);
        assert!(l.get_segments(gone).is_none());
        assert!(l.get_segments(stays).is_some());
        // The survivor caps the cut at its first segment's start.
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(3.0), 5.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(12.0), 5.0);
        // The expired plan's charge is fully gone.
        assert_eq!(l.egress_profile(EgressId(0)).alloc_at(5.0), 0.0);
    }

    #[test]
    fn export_restore_round_trips_segmented_reservations() {
        let mut l = small();
        l.reserve(Route::new(0, 1), 0.0, 10.0, 25.0).unwrap();
        let id = l
            .reserve_segments(
                Route::new(0, 0),
                &[seg(1.0, 4.0, 10.0), seg(6.0, 9.0, 40.0)],
            )
            .unwrap();
        let state = l.export_state();
        assert_eq!(state.live_seg.as_ref().map(Vec::len), Some(1));
        let mut l2 = small();
        l2.restore_state(state).unwrap();
        assert_eq!(l2.get_segments(id), l.get_segments(id));
        assert_eq!(
            l2.ingress_profile(IngressId(0)),
            l.ingress_profile(IngressId(0))
        );
        assert_eq!(l2.seg_count(), 1);
        // Rigid-only ledgers export `live_seg: None`, so pre-malleable
        // images and rigid-only images stay byte-identical.
        let mut rigid = small();
        rigid.reserve(Route::new(0, 1), 0.0, 10.0, 25.0).unwrap();
        assert!(rigid.export_state().live_seg.is_none());
        // A corrupted image (segment volume unaccounted for) is rejected.
        let mut bad = l.export_state();
        if let Some(entries) = bad.live_seg.as_mut() {
            entries[0].1.segments[0].bw = 1.0;
        }
        let mut l3 = small();
        assert!(l3.restore_state(bad).is_err());
    }

    #[test]
    fn failed_cancel_keeps_the_reservation_and_its_capacity() {
        let mut l = small();
        // Awkward floats, so a release and a re-charge would NOT
        // round-trip the ingress.
        l.reserve(Route::new(0, 0), 0.3, 7.7, 0.1).unwrap();
        let id = l.reserve(Route::new(0, 1), 0.1, 9.9, 0.2).unwrap();
        // Corrupt the egress profile behind the ledger's back so the
        // egress-side release of the cancel fails.
        l.egress[1].release(0.1, 9.9, 0.2).unwrap();
        let before = l.export_state();
        let err = l.cancel(id).unwrap_err();
        assert!(matches!(
            err,
            NetError::ReleaseUnderflow {
                port: PortRef::Out(_),
                ..
            }
        ));
        // The failed cancel must be a no-op, down to the last bit: the
        // reservation is still live and the ingress is still charged
        // exactly as before (no phantom capacity leak, no residue).
        assert!(l.get(id).is_some());
        assert_eq!(l.live_count(), 2);
        assert_eq!(l.export_state(), before);
        // Restore the egress side; now the cancel goes through.
        l.egress[1].allocate(0.1, 9.9, 0.2).unwrap();
        l.cancel(id).unwrap();
        assert!(l.get(id).is_none());
        assert_eq!(l.live_count(), 1);
    }

    #[test]
    fn a_failed_release_mid_batch_stays_live_and_the_rest_are_freed() {
        let mut l = small();
        let a = l.reserve(Route::new(0, 0), 0.0, 10.0, 30.0).unwrap();
        let b = l.reserve(Route::new(0, 1), 0.0, 10.0, 60.0).unwrap();
        let c = l.reserve(Route::new(1, 1), 5.0, 15.0, 20.0).unwrap();
        let plan = [seg(0.0, 4.0, 10.0), seg(6.0, 9.0, 15.0)];
        let d = l.reserve_segments(Route::new(1, 0), &plan).unwrap();
        // Corrupt two egress profiles behind the ledger's back: `b`'s
        // release underflows on egress 1 after its ingress side went
        // through, `d`'s second segment on egress 0 after its whole
        // ingress side and its first egress segment did.
        l.egress[1].release(0.0, 10.0, 60.0).unwrap();
        l.egress[0].release(6.0, 9.0, 15.0).unwrap();
        let mut one_by_one = l.clone();
        let batch = [
            ReleaseRequest::Reservation(a),
            ReleaseRequest::Reservation(b),
            ReleaseRequest::Segments(d),
            ReleaseRequest::Reservation(c),
        ];
        let results = l.release_all(&batch);
        let expected = vec![
            one_by_one.cancel(a).map(drop),
            one_by_one.cancel(b).map(drop),
            one_by_one.cancel_segments(d).map(drop),
            one_by_one.cancel(c).map(drop),
        ];
        assert_eq!(results, expected);
        assert!(results[0].is_ok() && results[3].is_ok());
        assert!(matches!(
            results[1],
            Err(NetError::ReleaseUnderflow {
                port: PortRef::Out(EgressId(1)),
                ..
            })
        ));
        assert!(matches!(
            results[2],
            Err(NetError::ReleaseUnderflow {
                port: PortRef::Out(EgressId(0)),
                ..
            })
        ));
        // The failed entries are still live and still charged where they
        // were (no phantom capacity); the others are gone.
        assert!(l.get(a).is_none() && l.get(c).is_none());
        assert!(l.get(b).is_some() && l.get_segments(d).is_some());
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 60.0);
        assert_eq!(l.ingress_profile(IngressId(1)).alloc_at(2.0), 10.0);
        assert_eq!(l.ingress_profile(IngressId(1)).alloc_at(7.0), 15.0);
        assert_eq!(l.egress_profile(EgressId(0)).alloc_at(2.0), 10.0);
        // Every index was committed: the indexed reads agree with the
        // scans, and with the ledger that released one call at a time.
        for (p, q) in (l.ingress.iter().chain(&l.egress))
            .zip(one_by_one.ingress.iter().chain(&one_by_one.egress))
        {
            assert_eq!(p, q);
            assert_eq!(p.max_alloc(0.0, 20.0), p.max_alloc_linear(0.0, 20.0));
            assert_eq!(p.free_volume(0.0, 20.0), p.free_volume_linear(0.0, 20.0));
        }
        // Mend the profiles; the retried batch frees what was left.
        l.egress[1].allocate(0.0, 10.0, 60.0).unwrap();
        l.egress[0].allocate(6.0, 9.0, 15.0).unwrap();
        let retry = l.release_all(&batch);
        assert!(retry[0].is_err() && retry[3].is_err(), "already freed");
        assert!(retry[1].is_ok() && retry[2].is_ok());
        assert!(l.ingress.iter().chain(&l.egress).all(|p| p.is_empty()));
    }

    #[test]
    fn reserve_all_matches_sequential_reserves() {
        let batch = [
            ReserveRequest {
                route: Route::new(0, 0),
                start: 0.0,
                end: 10.0,
                bw: 60.0,
            },
            ReserveRequest {
                route: Route::new(1, 0),
                start: 0.0,
                end: 10.0,
                bw: 50.0, // fails: egress 0 has only 40 left
            },
            ReserveRequest {
                route: Route::new(1, 1),
                start: 5.0,
                end: 15.0,
                bw: 40.0,
            },
            ReserveRequest {
                route: Route::new(0, 0),
                start: 10.0,
                end: 20.0,
                bw: 100.0,
            },
        ];
        let mut batched = small();
        let batched_results = batched.reserve_all(&batch);
        let mut seq = small();
        let seq_results: Vec<_> = batch
            .iter()
            .map(|r| seq.reserve(r.route, r.start, r.end, r.bw))
            .collect();
        assert_eq!(batched_results.len(), seq_results.len());
        for (b, s) in batched_results.iter().zip(&seq_results) {
            assert_eq!(b.is_ok(), s.is_ok());
            if let (Ok(bid), Ok(sid)) = (b, s) {
                assert_eq!(bid, sid, "ids are assigned in the same order");
            }
        }
        assert_eq!(batched.live_count(), seq.live_count());
        for i in 0..2 {
            assert_eq!(
                batched.ingress_profile(IngressId(i)),
                seq.ingress_profile(IngressId(i))
            );
            assert_eq!(
                batched.egress_profile(EgressId(i)),
                seq.egress_profile(EgressId(i))
            );
        }
        // The committed indexes answer queries identically to the
        // sequentially-built ledger.
        assert_eq!(
            batched.max_fit(Route::new(1, 0), 0.0, 20.0),
            seq.max_fit(Route::new(1, 0), 0.0, 20.0)
        );
    }

    #[test]
    fn empty_reserve_all_is_a_noop() {
        let mut l = small();
        assert!(l.reserve_all(&[]).is_empty());
        assert_eq!(l.live_count(), 0);
    }

    #[test]
    fn max_fit_reports_route_bottleneck_over_time() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 5.0, 40.0).unwrap();
        l.reserve(Route::new(1, 0), 5.0, 10.0, 90.0).unwrap();
        // Route 0->0 over [0,10): ingress free = 60 (first half), egress free
        // = min(60, 10) = 10 because of the second reservation.
        assert_eq!(l.max_fit(Route::new(0, 0), 0.0, 10.0), 10.0);
        assert_eq!(l.max_fit(Route::new(0, 1), 0.0, 10.0), 60.0);
    }

    #[test]
    fn unknown_route_is_reported() {
        let mut l = small();
        assert!(matches!(
            l.reserve(Route::new(5, 0), 0.0, 1.0, 1.0),
            Err(NetError::UnknownPort(PortRef::In(_)))
        ));
        assert!(matches!(
            l.reserve(Route::new(0, 5), 0.0, 1.0, 1.0),
            Err(NetError::UnknownPort(PortRef::Out(_)))
        ));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let mut l = small();
        assert!(matches!(
            l.reserve(Route::new(0, 0), 5.0, 5.0, 1.0),
            Err(NetError::InvalidArgument(_))
        ));
        assert!(matches!(
            l.reserve(Route::new(0, 0), 0.0, 1.0, -3.0),
            Err(NetError::InvalidArgument(_))
        ));
    }

    #[test]
    fn reserved_area_and_allocated_at() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 50.0).unwrap();
        l.reserve(Route::new(1, 1), 0.0, 4.0, 25.0).unwrap();
        assert!((l.reserved_area(0.0, 10.0) - (500.0 + 100.0)).abs() < 1e-9);
        assert_eq!(l.allocated_at(2.0), 75.0);
        assert_eq!(l.allocated_at(8.0), 50.0);
    }

    #[test]
    fn export_restore_roundtrip_is_bit_identical() {
        let mut l = small();
        l.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
        let id = l.reserve(Route::new(1, 0), 2.0, 8.0, 41.7).unwrap();
        l.reserve(Route::new(0, 0), 5.0, 15.0, 12.5).unwrap();
        l.cancel(id).unwrap();
        let state = l.export_state();

        let mut restored = small();
        restored.restore_state(state.clone()).unwrap();
        for i in 0..2 {
            assert_eq!(
                restored.ingress_profile(IngressId(i)),
                l.ingress_profile(IngressId(i))
            );
            assert_eq!(
                restored.egress_profile(EgressId(i)),
                l.egress_profile(EgressId(i))
            );
        }
        assert_eq!(restored.live_count(), l.live_count());
        // Id continuity: the next reservation gets the same id in both.
        let a = l.reserve(Route::new(0, 0), 20.0, 21.0, 1.0).unwrap();
        let b = restored.reserve(Route::new(0, 0), 20.0, 21.0, 1.0).unwrap();
        assert_eq!(a, b);
        // Exported live table is sorted by id.
        assert!(state.live.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn restore_rejects_mismatched_and_inconsistent_state() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 50.0).unwrap();
        let good = l.export_state();

        // Wrong topology shape.
        let mut other = CapacityLedger::new(Topology::uniform(3, 2, 100.0));
        assert!(matches!(
            other.restore_state(good.clone()),
            Err(NetError::InvalidArgument(_))
        ));
        // Wrong capacity.
        let mut cap = CapacityLedger::new(Topology::uniform(2, 2, 200.0));
        assert!(matches!(
            cap.restore_state(good.clone()),
            Err(NetError::InvalidArgument(_))
        ));
        // Live id at/above next_id.
        let mut bad = good.clone();
        bad.next_id = 0;
        assert!(matches!(
            small().restore_state(bad),
            Err(NetError::InvalidArgument(_))
        ));
        // Phantom capacity: profiles charge bandwidth no reservation owns.
        let mut phantom = good.clone();
        phantom.live.clear();
        assert!(matches!(
            small().restore_state(phantom),
            Err(NetError::InvalidArgument(_))
        ));
        // A failed restore leaves the target untouched.
        let mut target = small();
        let mut bad2 = good.clone();
        bad2.live.clear();
        let _ = target.restore_state(bad2);
        assert!(target.ingress_profile(IngressId(0)).is_empty());
        assert_eq!(target.live_count(), 0);
        // The intact image restores fine.
        let mut ok = small();
        ok.restore_state(good).unwrap();
        assert_eq!(ok.live_count(), 1);
    }

    #[test]
    fn hold_pins_one_port_only() {
        let mut l = small();
        let id = l.hold(PortRef::In(IngressId(0)), 0.0, 10.0, 60.0).unwrap();
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 60.0);
        assert!(l.egress_profile(EgressId(0)).is_empty());
        assert_eq!(l.hold_count(), 1);
        assert_eq!(l.get_hold(id).unwrap().bw, 60.0);
        // The pinned capacity is visible to ordinary admission.
        assert!(!l.fits(Route::new(0, 0), 0.0, 10.0, 50.0));
        assert!(l.fits(Route::new(0, 0), 0.0, 10.0, 40.0));
        l.release_hold(id).unwrap();
        assert_eq!(l.hold_count(), 0);
        assert!(l.ingress_profile(IngressId(0)).is_empty());
        assert!(l.fits(Route::new(0, 0), 0.0, 10.0, 100.0));
        assert!(matches!(l.release_hold(id), Err(NetError::UnknownHold(_))));
    }

    #[test]
    fn concurrent_holds_cannot_over_commit_a_port() {
        let mut l = small();
        l.hold(PortRef::Out(EgressId(1)), 0.0, 10.0, 70.0).unwrap();
        let err = l
            .hold(PortRef::Out(EgressId(1)), 5.0, 15.0, 40.0)
            .unwrap_err();
        match err {
            NetError::CapacityExceeded { port, .. } => {
                assert_eq!(port, PortRef::Out(EgressId(1)));
            }
            other => panic!("unexpected error {other}"),
        }
        // A fitting second hold coexists.
        l.hold(PortRef::Out(EgressId(1)), 5.0, 15.0, 30.0).unwrap();
        assert_eq!(l.hold_count(), 2);
    }

    #[test]
    fn hold_rejects_bad_arguments() {
        let mut l = small();
        assert!(matches!(
            l.hold(PortRef::In(IngressId(7)), 0.0, 1.0, 1.0),
            Err(NetError::UnknownPort(_))
        ));
        assert!(matches!(
            l.hold(PortRef::In(IngressId(0)), 5.0, 5.0, 1.0),
            Err(NetError::InvalidArgument(_))
        ));
        assert!(matches!(
            l.hold(PortRef::In(IngressId(0)), 0.0, 1.0, -2.0),
            Err(NetError::InvalidArgument(_))
        ));
    }

    #[test]
    fn hold_ids_do_not_disturb_reservation_numbering() {
        let mut l = small();
        let h = l.hold(PortRef::In(IngressId(0)), 0.0, 5.0, 10.0).unwrap();
        let r = l.reserve(Route::new(1, 1), 0.0, 5.0, 10.0).unwrap();
        assert_eq!(h, HoldId(0));
        assert_eq!(r, ReservationId(0), "hold ids come from their own counter");
    }

    #[test]
    fn export_restore_roundtrips_holds() {
        let mut l = small();
        l.reserve(Route::new(0, 1), 0.0, 10.0, 33.3).unwrap();
        let gone = l.hold(PortRef::In(IngressId(1)), 1.0, 4.0, 20.0).unwrap();
        l.hold(PortRef::Out(EgressId(0)), 2.0, 6.0, 15.0).unwrap();
        l.release_hold(gone).unwrap();
        let state = l.export_state();
        assert_eq!(state.holds.len(), 1);
        assert_eq!(state.next_hold_id, 2);

        let mut restored = small();
        restored.restore_state(state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        // Hold id continuity after restore.
        let h = restored
            .hold(PortRef::In(IngressId(0)), 0.0, 1.0, 1.0)
            .unwrap();
        assert_eq!(h, HoldId(2));
    }

    #[test]
    fn restore_counts_holds_in_the_conservation_check() {
        let mut l = small();
        l.hold(PortRef::In(IngressId(0)), 0.0, 10.0, 25.0).unwrap();
        let good = l.export_state();
        // Intact image restores.
        small().restore_state(good.clone()).unwrap();
        // Dropping the hold leaves phantom booked capacity: rejected.
        let mut phantom = good.clone();
        phantom.holds.clear();
        assert!(matches!(
            small().restore_state(phantom),
            Err(NetError::InvalidArgument(_))
        ));
        // A hold id at/above next_hold_id is rejected.
        let mut bad = good;
        bad.next_hold_id = 0;
        assert!(matches!(
            small().restore_state(bad),
            Err(NetError::InvalidArgument(_))
        ));
    }

    #[test]
    fn gc_collects_fully_past_state() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 30.0).unwrap();
        l.reserve(Route::new(1, 1), 5.0, 15.0, 20.0).unwrap();
        let live = l.reserve(Route::new(0, 1), 30.0, 40.0, 50.0).unwrap();
        let h = l.hold(PortRef::In(IngressId(1)), 2.0, 8.0, 10.0).unwrap();
        assert_eq!(l.watermark(), None);
        let stats = l.gc(20.0);
        assert_eq!(stats.reservations_collected, 2);
        assert_eq!(stats.holds_collected, 1);
        assert!(stats.breakpoints_dropped > 0);
        assert_eq!(l.watermark(), Some(20.0));
        assert_eq!(l.live_count(), 1);
        assert_eq!(l.hold_count(), 0);
        assert!(l.get(live).is_some());
        assert!(l.get_hold(h).is_none());
        // Future answers are intact; past history is forgotten.
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(35.0), 50.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 0.0);
        // The survivor cancels cleanly and the image round-trips.
        let state = l.export_state();
        assert_eq!(state.watermark, Some(20.0));
        let mut restored = small();
        restored.restore_state(state).unwrap();
        assert_eq!(restored.export_state(), l.export_state());
        l.cancel(live).unwrap();
        assert!(l.ingress_profile(IngressId(0)).is_empty());
    }

    #[test]
    fn gc_watermark_is_monotone_and_rejects_non_finite() {
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 30.0).unwrap();
        assert_eq!(l.gc(f64::NAN), GcStats::default());
        assert_eq!(l.gc(f64::INFINITY), GcStats::default());
        let first = l.gc(12.0);
        assert_eq!(first.reservations_collected, 1);
        // Re-running at or below the current watermark is a no-op.
        assert_eq!(l.gc(12.0), GcStats::default());
        assert_eq!(l.gc(5.0), GcStats::default());
        assert_eq!(l.watermark(), Some(12.0));
    }

    #[test]
    fn gc_truncation_never_cuts_into_a_live_reservation() {
        // A long-running reservation straddling the watermark caps the
        // truncation point at its own start: its charge stays whole.
        let mut l = small();
        l.reserve(Route::new(0, 0), 0.0, 5.0, 20.0).unwrap();
        let straddler = l.reserve(Route::new(0, 0), 3.0, 100.0, 40.0).unwrap();
        let stats = l.gc(50.0);
        assert_eq!(stats.reservations_collected, 1);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(3.0), 40.0);
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(60.0), 40.0);
        // The expired reservation's charge reached past the cut (its end,
        // 5.0, is after the straddler's start, 3.0) and was released — no
        // phantom capacity anywhere.
        let state = l.export_state();
        small().restore_state(state).unwrap();
        l.cancel(straddler).unwrap();
        assert!(l.ingress_profile(IngressId(0)).is_empty());
        assert!(l.egress_profile(EgressId(0)).is_empty());
    }

    #[test]
    fn gc_epsilon_edge_keeps_reservations_ending_just_past_the_watermark() {
        // Regression: a reservation ending within EPS *after* the
        // watermark is still live and still owed its sub-ε future charge.
        // A naive ε-tolerant sweep (`approx_le(r.end, watermark)`)
        // collects it while the profiles keep its charge past the cut —
        // phantom capacity that fails the restore conservation check and
        // breaks cancel. The exact comparison must keep it.
        let w = 10.0;
        let end = w + EPS / 2.0;
        let mut l = small();
        let id = l.reserve(Route::new(0, 0), 0.0, end, 50.0).unwrap();
        let stats = l.gc(w);
        assert_eq!(
            stats.reservations_collected, 0,
            "a reservation ending after the watermark (even within ε) must stay live"
        );
        assert!(l.get(id).is_some());
        // Its whole charge survives (the cut was capped at its start), the
        // exported image passes the conservation check, and it is still
        // cancellable.
        assert_eq!(l.ingress_profile(IngressId(0)).alloc_at(5.0), 50.0);
        small().restore_state(l.export_state()).unwrap();
        l.cancel(id).unwrap();
        assert!(l.ingress_profile(IngressId(0)).is_empty());
        // Exactly at the watermark is fully past and is collected.
        let mut m = small();
        m.reserve(Route::new(0, 0), 0.0, w, 50.0).unwrap();
        let stats = m.gc(w);
        assert_eq!(stats.reservations_collected, 1);
        assert_eq!(m.live_count(), 0);
        assert!(m.ingress_profile(IngressId(0)).is_empty());
        small().restore_state(m.export_state()).unwrap();
    }

    #[test]
    fn gc_epsilon_edge_holds_mirror_reservations() {
        let w = 10.0;
        let mut l = small();
        let id = l
            .hold(PortRef::Out(EgressId(1)), 0.0, w + EPS / 2.0, 25.0)
            .unwrap();
        let stats = l.gc(w);
        assert_eq!(stats.holds_collected, 0);
        assert!(l.get_hold(id).is_some());
        small().restore_state(l.export_state()).unwrap();
        l.release_hold(id).unwrap();
        assert!(l.egress_profile(EgressId(1)).is_empty());
    }

    #[test]
    fn reservation_area() {
        let r = Reservation {
            route: Route::new(0, 0),
            start: 2.0,
            end: 7.0,
            bw: 10.0,
        };
        assert_eq!(r.area(), 50.0);
    }
}
