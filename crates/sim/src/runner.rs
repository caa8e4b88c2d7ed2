//! The simulation runner: drives a trace through an admission controller.
//!
//! The runner owns the event loop and the capacity ledger. Controllers only
//! *decide*; the runner *applies* — reserving capacity for accepts,
//! scheduling departures, and verifying at the end that the resulting
//! schedule satisfies the paper's constraint set (1).

use crate::admission::{AdmissionController, Decision};
use crate::event::{EventQueue, SimEvent};
use crate::report::{Assignment, SimReport};
use crate::verify::assert_feasible;
use gridband_net::units::{approx_ge, approx_le, Time, EPS};
use gridband_net::CapacityLedger;
use gridband_net::ReserveRequest;
use gridband_net::Topology;
use gridband_workload::{Request, RequestId, Trace};
use std::collections::HashMap;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct Simulation {
    topo: Topology,
    verify: bool,
}

impl Simulation {
    /// A simulation over the given topology, with end-of-run verification
    /// enabled.
    pub fn new(topo: Topology) -> Self {
        Simulation { topo, verify: true }
    }

    /// Disable the end-of-run feasibility check (benchmarks that measure
    /// scheduler throughput only).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// The topology of this simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Run `controller` over `trace` and report outcomes.
    ///
    /// Panics if the controller produces a malformed or infeasible
    /// decision — by contract such a decision is a scheduler bug and any
    /// measurement made from it would be invalid.
    pub fn run<C: AdmissionController>(&self, trace: &Trace, controller: &mut C) -> SimReport {
        assert!(
            trace.valid_for(&self.topo),
            "trace routes outside the topology"
        );
        let mut ledger = CapacityLedger::new(self.topo.clone());
        let mut queue = EventQueue::new();
        let mut assignments: Vec<Assignment> = Vec::new();
        let by_id: HashMap<RequestId, &Request> = trace.iter().map(|r| (r.id, r)).collect();

        for (idx, r) in trace.iter().enumerate() {
            queue.push(r.start(), SimEvent::Arrival(idx));
        }
        let horizon = trace.horizon();
        if let Some(step) = controller.tick_period() {
            assert!(step > 0.0, "tick period must be positive");
            let mut t = step;
            // One tick past the horizon so the last interval's candidates
            // are decided.
            while t <= horizon + step {
                queue.push(t, SimEvent::Tick);
                t += step;
            }
        }

        // Check an accept decision's shape against the request contract;
        // returns the route for the reservation.
        let validate_accept = |id: RequestId, bw: f64, start: Time, finish: Time, now: Time| {
            let req = by_id.get(&id).expect("controller invented a request id");
            assert!(
                approx_ge(start, req.start()) && start + EPS >= now - EPS,
                "{id}: accepted start {start} before arrival/decision time"
            );
            assert!(
                approx_le(finish, req.finish()),
                "{id}: finish {finish} misses deadline {}",
                req.finish()
            );
            assert!(
                bw > 0.0 && approx_le(bw, req.max_rate * (1.0 + 1e-9)),
                "{id}: bw {bw} outside (0, MaxRate]"
            );
            req.route
        };

        let apply = |id: RequestId,
                     decision: Decision,
                     now: Time,
                     ledger: &mut CapacityLedger,
                     queue: &mut EventQueue,
                     assignments: &mut Vec<Assignment>| {
            match decision {
                Decision::Defer => {}
                Decision::Reject => {}
                Decision::Retry { at } => {
                    let req = by_id.get(&id).expect("controller invented a request id");
                    assert!(
                        at > now && at < req.finish(),
                        "{id}: retry time {at} outside ({now}, {})",
                        req.finish()
                    );
                    queue.push(at, SimEvent::Retry(id));
                }
                Decision::Accept { bw, start, finish } => {
                    let route = validate_accept(id, bw, start, finish, now);
                    ledger
                        .reserve(route, start, finish, bw)
                        .unwrap_or_else(|e| {
                            panic!("{}: controller over-committed: {e}", controller_name(id))
                        });
                    queue.push(finish, SimEvent::Departure(id));
                    assignments.push(Assignment {
                        id,
                        bw,
                        start,
                        finish,
                    });
                }
            }
        };

        // Apply one admission round's decisions, booking all accepts
        // through the ledger's batched entry point so each touched port's
        // query index is rebuilt once per round. Semantically identical to
        // applying the decisions one by one.
        let apply_round = |decisions: Vec<(RequestId, Decision)>,
                           now: Time,
                           ledger: &mut CapacityLedger,
                           queue: &mut EventQueue,
                           assignments: &mut Vec<Assignment>| {
            let batch: Vec<ReserveRequest> = decisions
                .iter()
                .filter_map(|&(id, d)| match d {
                    Decision::Accept { bw, start, finish } => {
                        let route = validate_accept(id, bw, start, finish, now);
                        Some(ReserveRequest {
                            route,
                            start,
                            end: finish,
                            bw,
                        })
                    }
                    _ => None,
                })
                .collect();
            let mut results = ledger.reserve_all(&batch).into_iter();
            for (id, d) in decisions {
                match d {
                    Decision::Accept { bw, start, finish } => {
                        results
                            .next()
                            .expect("one reservation result per accept")
                            .unwrap_or_else(|e| {
                                panic!("{}: controller over-committed: {e}", controller_name(id))
                            });
                        queue.push(finish, SimEvent::Departure(id));
                        assignments.push(Assignment {
                            id,
                            bw,
                            start,
                            finish,
                        });
                    }
                    other => apply(id, other, now, ledger, queue, assignments),
                }
            }
        };

        let mut last_time: Time = f64::NEG_INFINITY;
        while let Some((now, event)) = queue.pop() {
            debug_assert!(now >= last_time - EPS, "time went backwards");
            last_time = now;
            match event {
                SimEvent::Arrival(idx) => {
                    let req = &trace.requests()[idx];
                    let d = controller.on_arrival(req, &ledger, now);
                    apply(req.id, d, now, &mut ledger, &mut queue, &mut assignments);
                }
                SimEvent::Tick => {
                    let decisions = controller.on_tick(&ledger, now);
                    apply_round(decisions, now, &mut ledger, &mut queue, &mut assignments);
                }
                SimEvent::Retry(id) => {
                    let req = by_id.get(&id).expect("retry for unknown request");
                    let d = controller.on_arrival(req, &ledger, now);
                    apply(id, d, now, &mut ledger, &mut queue, &mut assignments);
                }
                SimEvent::Departure(id) => {
                    let req = by_id.get(&id).expect("departure for unknown request");
                    controller.on_departure(req, now);
                }
            }
        }
        // Flush any still-deferred candidates.
        let end = horizon.max(last_time);
        let final_round = controller.on_end(&ledger, end);
        apply_round(final_round, end, &mut ledger, &mut queue, &mut assignments);

        if self.verify {
            assert_feasible(trace, &self.topo, &assignments);
        }
        SimReport::from_assignments(controller.name(), trace, &self.topo, assignments)
    }
}

fn controller_name(id: RequestId) -> String {
    format!("decision for {id}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridband_net::Route;
    use gridband_workload::TimeWindow;

    /// Accept everything that fits at MinRate, greedily.
    struct AcceptAtMinRate;

    impl AdmissionController for AcceptAtMinRate {
        fn name(&self) -> String {
            "accept-at-minrate".into()
        }
        fn on_arrival(&mut self, req: &Request, ledger: &CapacityLedger, now: Time) -> Decision {
            let bw = req.min_rate();
            if ledger.fits(req.route, now, req.completion_at(now, bw), bw) {
                Decision::accept_at(req, now, bw)
            } else {
                Decision::Reject
            }
        }
    }

    /// Defers every arrival to the next tick, then accepts at MinRate if it
    /// fits.
    struct TickBatch {
        step: Time,
        pending: Vec<Request>,
    }

    impl AdmissionController for TickBatch {
        fn name(&self) -> String {
            "tick-batch".into()
        }
        fn tick_period(&self) -> Option<Time> {
            Some(self.step)
        }
        fn on_arrival(&mut self, req: &Request, _: &CapacityLedger, _: Time) -> Decision {
            self.pending.push(*req);
            Decision::Defer
        }
        fn on_tick(&mut self, ledger: &CapacityLedger, now: Time) -> Vec<(RequestId, Decision)> {
            let mut out = Vec::new();
            let mut shadow = ledger.clone();
            for req in self.pending.drain(..) {
                match req.required_rate_from(now) {
                    Some(bw) if shadow.fits(req.route, now, req.completion_at(now, bw), bw) => {
                        shadow
                            .reserve(req.route, now, req.completion_at(now, bw), bw)
                            .expect("fits was checked");
                        out.push((req.id, Decision::accept_at(&req, now, bw)));
                    }
                    _ => out.push((req.id, Decision::Reject)),
                }
            }
            out
        }
    }

    fn req(id: u64, route: Route, start: f64, finish: f64, vol: f64, max: f64) -> Request {
        Request::new(id, route, TimeWindow::new(start, finish), vol, max)
    }

    #[test]
    fn greedy_controller_accepts_until_saturation() {
        let topo = Topology::uniform(1, 1, 100.0);
        // Three simultaneous 10-second requests at MinRate 40: only two fit.
        let trace = Trace::new(vec![
            req(0, Route::new(0, 0), 0.0, 10.0, 400.0, 100.0),
            req(1, Route::new(0, 0), 0.0, 10.0, 400.0, 100.0),
            req(2, Route::new(0, 0), 0.0, 10.0, 400.0, 100.0),
        ]);
        let rep = Simulation::new(topo).run(&trace, &mut AcceptAtMinRate);
        assert_eq!(rep.accepted_count(), 2);
        assert_eq!(rep.rejected, vec![RequestId(2)]);
    }

    #[test]
    fn capacity_reclaimed_after_departure() {
        let topo = Topology::uniform(1, 1, 100.0);
        // First request occupies [0, 10) fully; the second arrives at 10
        // and fits exactly because departures are processed before
        // arrivals at equal timestamps.
        let trace = Trace::new(vec![
            req(0, Route::new(0, 0), 0.0, 10.0, 1000.0, 100.0),
            req(1, Route::new(0, 0), 10.0, 20.0, 1000.0, 100.0),
        ]);
        let rep = Simulation::new(topo).run(&trace, &mut AcceptAtMinRate);
        assert_eq!(rep.accepted_count(), 2);
    }

    #[test]
    fn deferred_decisions_resolve_on_ticks() {
        let topo = Topology::uniform(1, 1, 100.0);
        // Arrives at t=1 with deadline 21; decided at the t=5 tick, needing
        // 500/(21-5) = 31.25 MB/s ≤ MaxRate.
        let trace = Trace::new(vec![req(0, Route::new(0, 0), 1.0, 21.0, 500.0, 100.0)]);
        let mut c = TickBatch {
            step: 5.0,
            pending: Vec::new(),
        };
        let rep = Simulation::new(topo).run(&trace, &mut c);
        assert_eq!(rep.accepted_count(), 1);
        let a = rep.assignments[0];
        assert_eq!(a.start, 5.0);
        assert!((a.bw - 31.25).abs() < 1e-9);
        assert!((a.finish - 21.0).abs() < 1e-9);
    }

    #[test]
    fn deferred_request_whose_deadline_passes_is_rejected() {
        let topo = Topology::uniform(1, 1, 100.0);
        // Deadline at 3.0 but first tick at 5.0: required_rate_from(5) is
        // None -> reject.
        let trace = Trace::new(vec![req(0, Route::new(0, 0), 1.0, 3.0, 100.0, 100.0)]);
        let mut c = TickBatch {
            step: 5.0,
            pending: Vec::new(),
        };
        let rep = Simulation::new(topo).run(&trace, &mut c);
        assert_eq!(rep.accepted_count(), 0);
        assert_eq!(rep.rejected.len(), 1);
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn overcommitting_controller_is_a_bug() {
        struct Liar;
        impl AdmissionController for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn on_arrival(&mut self, req: &Request, _: &CapacityLedger, now: Time) -> Decision {
                Decision::accept_at(req, now, req.max_rate) // never checks
            }
        }
        let topo = Topology::uniform(1, 1, 100.0);
        let trace = Trace::new(vec![
            req(0, Route::new(0, 0), 0.0, 10.0, 1000.0, 100.0),
            req(1, Route::new(0, 0), 0.0, 10.0, 1000.0, 100.0),
        ]);
        let _ = Simulation::new(topo).run(&trace, &mut Liar);
    }

    #[test]
    fn empty_trace_runs_cleanly() {
        let topo = Topology::uniform(1, 1, 100.0);
        let rep = Simulation::new(topo).run(&Trace::new(vec![]), &mut AcceptAtMinRate);
        assert_eq!(rep.total_requests, 0);
    }
}
