//! # gridband-net — the grid-edge network model
//!
//! This crate implements the network substrate of *“Optimal Bandwidth
//! Sharing in Grid Environments”* (Marchal, Vicat-Blanc Primet, Robert,
//! Zeng — HPDC 2006), §2:
//!
//! * the grid is a set of sites behind **access points** — `M` ingress and
//!   `N` egress ports — interconnected by a lossless, over-provisioned core
//!   (an overlay over a well-provisioned WAN);
//! * the only contention is at the ports: at every instant, the bandwidths
//!   of accepted transfers crossing a port must sum to at most its capacity;
//! * transfers are unidirectional session-level fluid flows with a constant
//!   assigned bandwidth.
//!
//! The building blocks are:
//!
//! * [`Topology`] — the static capacity vectors `B_in` / `B_out`;
//! * [`CapacityProfile`] — a piecewise-constant reservation profile for one
//!   port, supporting atomic allocate/release and feasibility queries; the
//!   queries (`max_alloc`, `fits`, `min_free`, `earliest_fit`) run in
//!   O(log k) over an implicit segment tree kept alongside the breakpoint
//!   vector, with the original linear scans retained as `*_linear` test
//!   oracles;
//! * [`CapacityLedger`] — the pair-wise transactional layer: reserving a
//!   route charges its ingress **and** egress port atomically, which is the
//!   paper's constraint set (1). Admission rounds book a whole batch with
//!   [`CapacityLedger::reserve_all`], which defers the per-port index
//!   rebuilds to one commit per round.
//!
//! Everything is deterministic and allocation-light; schedulers in
//! `gridband-algos` and the simulator in `gridband-sim` are built on top.
//!
//! ```
//! use gridband_net::{Topology, CapacityLedger, Route};
//!
//! let mut ledger = CapacityLedger::new(Topology::paper_default());
//! // Reserve 400 MB/s from site 0 to site 7 for 100 s.
//! let id = ledger.reserve(Route::new(0, 7), 0.0, 100.0, 400.0).unwrap();
//! assert!(ledger.fits(Route::new(0, 7), 0.0, 100.0, 600.0));
//! assert!(!ledger.fits(Route::new(0, 7), 0.0, 100.0, 601.0));
//! ledger.cancel(id).unwrap();
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod ledger;
pub mod port;
pub mod profile;
pub mod topology;
pub mod units;

pub use error::{NetError, NetResult};
pub use ledger::{
    CapacityLedger, GcStats, HoldId, LedgerState, Plan, PortHold, ReleaseRequest, Reservation,
    ReservationId, ReserveRequest, SegSpan, SegmentedReservation,
};
pub use port::{Direction, EgressId, IngressId, Port, PortRef, Route};
pub use profile::{Breakpoint, CapacityProfile};
pub use topology::Topology;
pub use units::{Bandwidth, Time, Volume};
