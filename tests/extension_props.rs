//! Property-based tests over the extension subsystems: malleable
//! packing, retries, the distributed control plane and edge policing.

use gridband::control::{police_constant_sources, ControlPlane};
use gridband::flex::{admit_in_order, verify_plan, FlexSpec, MalleableAssignment};
use gridband::prelude::*;
use proptest::prelude::*;

fn arb_requests() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0u32..3,
            0u32..3,
            0.0f64..150.0,
            10.0f64..3_000.0,
            10.0f64..100.0,
            1.0f64..5.0,
        ),
        1..30,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(k, (i, e, start, vol, rate, slack))| {
                Request::new(
                    k as u64,
                    Route::new(i, e),
                    TimeWindow::new(start, start + slack * vol / rate),
                    vol,
                    rate,
                )
            })
            .collect()
    })
}

fn topo() -> Topology {
    Topology::uniform(3, 3, 100.0)
}

/// The malleable spec of `req`, floored at the rate `floor` assigns at
/// the window start (`None` when the policy assigns no rate at all).
fn flex_spec(req: &Request, floor: Option<BandwidthPolicy>) -> Option<FlexSpec> {
    let min_rate = match floor {
        Some(p) => p.assign(req, req.start())?,
        None => 0.0,
    };
    let spec = FlexSpec::new(
        req.route,
        req.start(),
        req.finish(),
        req.volume,
        req.max_rate,
    );
    Some(FlexSpec { min_rate, ..spec })
}

/// In-order malleable admission of `trace` on a fresh ledger: accepted
/// plans and rejected ids (requests without a spec are left out of both).
fn admit(trace: &Trace, floor: Option<BandwidthPolicy>) -> (Vec<MalleableAssignment>, Vec<u64>) {
    let specs = trace
        .iter()
        .filter_map(|r| Some((r.id.0, flex_spec(r, floor)?)));
    admit_in_order(&mut CapacityLedger::new(topo()), specs)
}

/// Re-check `accepted` on a fresh ledger, plan by plan in order.
fn replay_verifies(
    trace: &Trace,
    accepted: &[MalleableAssignment],
    floor: Option<BandwidthPolicy>,
) -> Result<(), String> {
    let mut ledger = CapacityLedger::new(topo());
    for a in accepted {
        let req = trace
            .iter()
            .find(|r| r.id.0 == a.id)
            .ok_or("not in trace")?;
        let spec = flex_spec(req, floor).ok_or("accepted without a spec")?;
        verify_plan(&ledger, &spec, &a.segments)?;
        ledger
            .reserve_segments(spec.route, &a.segments)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Malleable schedules always verify, deliver exact volumes, and the
    /// accepted set contains every request greedy would accept.
    #[test]
    fn malleable_always_feasible_and_dominates_greedy_pointwise(
        reqs in arb_requests()
    ) {
        let trace = Trace::new(reqs);
        let (accepted, rejected) = admit(&trace, None);
        prop_assert!(replay_verifies(&trace, &accepted, None).is_ok());
        prop_assert_eq!(accepted.len() + rejected.len(), trace.len());
        // Segments are time-ordered and inside the window.
        for a in &accepted {
            let req = trace.iter().find(|r| r.id.0 == a.id).expect("in trace");
            for w in a.segments.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-9);
            }
            prop_assert!(a.finish() <= req.finish() + 1e-6);
        }
    }

    /// A floor policy can only shrink the accepted set.
    #[test]
    fn malleable_floor_is_monotone(reqs in arb_requests(), f in 0.1f64..=1.0) {
        let trace = Trace::new(reqs);
        let (free, _) = admit(&trace, None);
        let floor = Some(BandwidthPolicy::FractionOfMax(f));
        let (floored, _) = admit(&trace, floor);
        prop_assert!(replay_verifies(&trace, &floored, floor).is_ok());
        // Not a subset guarantee (packing order effects), but the count
        // can never grow: every floored packing is also a free packing.
        prop_assert!(floored.len() <= free.len() + trace.len() / 4,
            "floored {} far above free {}", floored.len(), free.len());
    }

    /// The retry wrapper never produces an infeasible or double-booked
    /// schedule, for any backoff/attempt budget.
    #[test]
    fn retry_schedules_stay_feasible(
        reqs in arb_requests(),
        backoff in 1.0f64..60.0,
        attempts in 1usize..5,
    ) {
        let trace = Trace::new(reqs);
        let sim = Simulation::new(topo());
        let mut c = Retrying::new(
            Greedy::fraction(1.0),
            RetryPolicy { backoff, max_attempts: attempts },
        );
        // The runner panics on any double accept or capacity violation.
        let rep = sim.run(&trace, &mut c);
        prop_assert!(verify_schedule(&trace, sim.topology(), &rep.assignments).is_ok());
        prop_assert_eq!(rep.accepted_count() + rep.rejected.len(), trace.len());
    }

    /// The distributed control plane never over-commits any port, for any
    /// signaling delay, and resolves every transaction.
    #[test]
    fn control_plane_safe_under_any_delay(
        reqs in arb_requests(),
        delay in 0.0f64..10.0,
    ) {
        let trace = Trace::new(reqs);
        let plane = ControlPlane::new(topo(), delay, BandwidthPolicy::MAX_RATE);
        let rep = plane.run(&trace);
        prop_assert!(verify_schedule(&trace, &topo(), &rep.assignments).is_ok());
        prop_assert_eq!(rep.assignments.len() + rep.rejected.len(), trace.len());
        // Message budget: between 2 (Resv+Reply) and 5 per request.
        prop_assert!(rep.messages >= 2 * trace.len());
        prop_assert!(rep.messages <= 5 * trace.len());
    }

    /// Token buckets never admit more than contract × time + burst.
    #[test]
    fn policing_respects_the_arrival_curve(
        contract in 1.0f64..200.0,
        actual in 1.0f64..500.0,
        duration in 10.0f64..200.0,
    ) {
        let out = police_constant_sources(&[(contract, actual)], duration, 1.0);
        let p = out[0];
        prop_assert!(p.admitted <= p.offered + 1e-9);
        // Arrival-curve bound: rate × duration + one bucket of burst.
        prop_assert!(
            p.admitted <= contract * duration + contract * 1.0 + 1e-6,
            "admitted {} vs bound {}", p.admitted, contract * (duration + 1.0)
        );
        // A conforming source is never dropped.
        if actual <= contract {
            prop_assert!(p.drop_rate() < 1e-9);
        }
    }
}
