//! # gridband — bulk-transfer bandwidth sharing for grid environments
//!
//! A complete Rust implementation of *“Optimal Bandwidth Sharing in Grid
//! Environments”* (L. Marchal, P. Vicat-Blanc Primet, Y. Robert, J. Zeng —
//! HPDC 2006): admission control and bandwidth reservation for short-lived
//! bulk data transfers at the edge of an over-provisioned grid core.
//!
//! This crate is a façade re-exporting the workspace's subsystems:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `gridband-net` | topologies, capacity profiles, the reservation ledger |
//! | [`workload`] | `gridband-workload` | requests, distributions, Poisson workload synthesis, traces |
//! | [`sim`] | `gridband-sim` | the discrete-event runner, verification, reports |
//! | [`algos`] | `gridband-algos` | the paper's heuristics (FCFS, SLOTS family, GREEDY, WINDOW) and bandwidth policies |
//! | [`exact`] | `gridband-exact` | branch-and-bound optimum, the 3-DM NP-completeness reduction, the polynomial single-pair case |
//! | [`maxmin`] | `gridband-maxmin` | the TCP-idealised max-min statistical-sharing baseline |
//! | [`control`] | `gridband-control` | the §5.4 control plane: RSVP-like signaling and token-bucket policing |
//! | [`flex`] | `gridband-flex` | malleable (variable-rate) water-filling, plan verification, in-order admission |
//!
//! ## Quickstart
//!
//! ```
//! use gridband::prelude::*;
//!
//! // The paper's evaluation platform: 10×10 access points at 1 GB/s.
//! let topo = Topology::paper_default();
//!
//! // A flexible Poisson workload (§5.3) at 2 s mean inter-arrival.
//! let trace = WorkloadBuilder::paper_flexible(topo.clone(), 2.0, /*seed*/ 42);
//!
//! // Schedule it with the interval-based heuristic, guaranteeing each
//! // accepted transfer 80% of its host rate.
//! let mut scheduler = WindowScheduler::new(50.0, BandwidthPolicy::FractionOfMax(0.8));
//! let report = Simulation::new(topo).run(&trace, &mut scheduler);
//!
//! println!("{}", report.summary());
//! assert!(report.accept_rate > 0.0);
//! ```

pub use gridband_algos as algos;
pub use gridband_control as control;
pub use gridband_exact as exact;
pub use gridband_flex as flex;
pub use gridband_maxmin as maxmin;
pub use gridband_net as net;
pub use gridband_sim as sim;
pub use gridband_workload as workload;

/// The working set of types for typical use: topology + workload +
/// scheduler + simulation.
pub mod prelude {
    pub use gridband_algos::{
        fcfs_rigid, improve_rigid, select_replicas, slots_schedule, AdaptiveGreedy,
        BandwidthPolicy, BookAhead, Greedy, ImproveConfig, ReplicaStrategy, ReplicatedRequest,
        RetryPolicy, Retrying, RigidHeuristic, SlotCost, SlotsConfig, WindowScheduler,
    };
    pub use gridband_control::{ControlPlane, TokenBucket};
    pub use gridband_exact::{
        max_accepted, optimal_uniform_longlived, verify_uniform_longlived, ExactInstance, ThreeDm,
    };
    pub use gridband_maxmin::{run_maxmin, MaxMinConfig};
    pub use gridband_net::{CapacityLedger, Route, Topology};
    pub use gridband_sim::{
        verify_schedule, AdmissionController, Assignment, Decision, HotspotReport, Outcome,
        SimReport, Simulation,
    };
    pub use gridband_workload::{
        ArrivalProcess, Dist, Request, RequestId, TimeWindow, Trace, WorkloadBuilder,
    };
}
