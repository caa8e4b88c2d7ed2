//! Property coverage for offline in-order malleable admission
//! ([`admit_in_order`] over [`water_fill`](gridband_flex::water_fill)),
//! per the water-filling optimality argument: against fixed prior
//! reservations the deliverable volume of a window is exactly
//! `∫ min(MaxRate, free_in, free_out) dt`, so a request is accepted *iff*
//! that bound carries its volume — and a rejection means no schedule of
//! any shape (constant-rate GREEDY, shifted BOOK-AHEAD, or variable-rate)
//! could have fit it.
//!
//! Random traces come from the seeded `WorkloadBuilder`, so every
//! failure case shrinks to a (seed, interarrival, horizon) triple.

use gridband_flex::{admit_in_order, FlexSpec, MalleableAssignment, VOLUME_RTOL};
use gridband_net::units::EPS;
use gridband_net::{CapacityLedger, Topology};
use gridband_workload::{Dist, Request, Trace, WorkloadBuilder};
use proptest::prelude::*;

fn random_trace(seed: u64, interarrival: f64, horizon: f64) -> (Trace, Topology) {
    let topo = Topology::uniform(3, 3, 120.0);
    let trace = WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .slack(Dist::Uniform { lo: 1.5, hi: 4.0 })
        .horizon(horizon)
        .seed(seed)
        .build();
    (trace, topo)
}

/// Pure-malleable in-order admission of `trace` on a fresh ledger.
fn admit(trace: &Trace, topo: &Topology) -> (Vec<MalleableAssignment>, Vec<u64>) {
    let specs = trace.iter().map(|r| {
        let spec = FlexSpec::new(r.route, r.start(), r.finish(), r.volume, r.max_rate);
        (r.id.0, spec)
    });
    admit_in_order(&mut CapacityLedger::new(topo.clone()), specs)
}

/// Book `a`'s segments one by one on `ledger`, independently of the
/// driver's own booking.
fn replay(ledger: &mut CapacityLedger, req: &Request, a: &MalleableAssignment) {
    for s in &a.segments {
        ledger
            .reserve(req.route, s.start, s.end, s.bw)
            .expect("replaying an accepted segment");
    }
}

/// The water-filling deliverable bound of `req` against `ledger`:
/// `∫ min(MaxRate, free_in, free_out) dt` over the window, computed from
/// the piecewise-constant port profiles (exact, not sampled).
fn deliverable_bound(ledger: &CapacityLedger, req: &Request) -> f64 {
    let ing = ledger.ingress_profile(req.route.ingress);
    let egr = ledger.egress_profile(req.route.egress);
    let mut cuts: Vec<f64> = vec![req.start(), req.finish()];
    for p in [ing, egr] {
        for b in p.breakpoints() {
            if b.time > req.start() && b.time < req.finish() {
                cuts.push(b.time);
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    cuts.dedup();
    cuts.windows(2)
        .map(|w| {
            let free = req
                .max_rate
                .min(ing.min_free(w[0], w[1]))
                .min(egr.min_free(w[0], w[1]));
            free.max(0.0) * (w[1] - w[0])
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance is exactly the water-filling bound: replaying the
    /// accepted segments in arrival order on a fresh ledger, every
    /// decision matches `bound ≥ volume` (borderline cases within the
    /// solver's own tolerance band are left undecided).
    #[test]
    fn acceptance_matches_the_waterfilling_bound(
        seed in 1u64..5000,
        interarrival in 0.4f64..2.0,
        horizon in 60.0f64..220.0,
    ) {
        let (trace, topo) = random_trace(seed, interarrival, horizon);
        let (accepted, rejected) = admit(&trace, &topo);
        prop_assert_eq!(accepted.len() + rejected.len(), trace.len());

        let mut ledger = CapacityLedger::new(topo);
        for req in &trace {
            let bound = deliverable_bound(&ledger, req);
            let accepted = accepted.iter().find(|a| a.id == req.id.0);
            let margin = VOLUME_RTOL * req.volume.max(1.0) + EPS;
            if bound >= req.volume + margin {
                prop_assert!(
                    accepted.is_some(),
                    "{}: bound {bound} carries volume {} but was rejected",
                    req.id, req.volume
                );
            }
            if bound + margin < req.volume {
                prop_assert!(
                    accepted.is_none(),
                    "{}: bound {bound} < volume {} yet accepted",
                    req.id, req.volume
                );
            }
            if let Some(a) = accepted {
                prop_assert!(
                    (a.volume() - req.volume).abs() <= margin,
                    "{}: delivered {} ≠ volume {}",
                    req.id, a.volume(), req.volume
                );
                replay(&mut ledger, req, a);
            }
        }
    }

    /// Dominance over constant-rate schedulers, per decision: when the
    /// malleable driver rejects, neither GREEDY's
    /// run-at-MaxRate-from-the-start window nor any BOOK-AHEAD shift of
    /// it fits the residual ledger either — the constant-rate schedule
    /// is a special case of a malleable one, so its failure is implied.
    #[test]
    fn rejections_dominate_constant_rate_accepts(
        seed in 1u64..5000,
        interarrival in 0.3f64..1.2,
        horizon in 60.0f64..160.0,
    ) {
        let (trace, topo) = random_trace(seed, interarrival, horizon);
        let (accepted, rejected) = admit(&trace, &topo);

        let mut ledger = CapacityLedger::new(topo);
        for req in &trace {
            if rejected.contains(&req.id.0) {
                let dur = req.volume / req.max_rate;
                // GREEDY start plus every BOOK-AHEAD candidate start
                // (profile breakpoints inside the window) that leaves
                // room for the constant-rate run.
                let mut starts = vec![req.start()];
                for p in [
                    ledger.ingress_profile(req.route.ingress),
                    ledger.egress_profile(req.route.egress),
                ] {
                    for b in p.breakpoints() {
                        if b.time > req.start() && b.time + dur <= req.finish() + EPS {
                            starts.push(b.time);
                        }
                    }
                }
                for s in starts {
                    let mut probe = ledger.clone();
                    prop_assert!(
                        probe.reserve(req.route, s, s + dur, req.max_rate).is_err(),
                        "{}: constant-rate window at {s} fits, yet malleable rejected",
                        req.id
                    );
                }
            } else if let Some(a) = accepted.iter().find(|a| a.id == req.id.0) {
                replay(&mut ledger, req, a);
            }
        }
    }

    /// Canonical segment form survives ε-edges: every accepted plan is
    /// time-ordered, gap-or-rate-separated (no mergeable neighbours),
    /// has no degenerate slivers, and never exceeds MaxRate.
    #[test]
    fn plans_stay_canonical(
        seed in 1u64..5000,
        interarrival in 0.3f64..1.5,
        horizon in 60.0f64..180.0,
    ) {
        let (trace, topo) = random_trace(seed, interarrival, horizon);
        let (accepted, _) = admit(&trace, &topo);
        for a in &accepted {
            let req = trace.iter().find(|r| r.id.0 == a.id).expect("in trace");
            prop_assert!(!a.segments.is_empty(), "{}: empty accepted plan", a.id);
            let mut prev_end = f64::NEG_INFINITY;
            let mut prev_rate = f64::NAN;
            for s in &a.segments {
                prop_assert!(
                    s.end - s.start > EPS,
                    "{}: degenerate sliver [{}, {})", a.id, s.start, s.end
                );
                prop_assert!(
                    s.bw > EPS && s.bw <= req.max_rate * (1.0 + 1e-9),
                    "{}: rate {} outside (0, MaxRate]", a.id, s.bw
                );
                prop_assert!(
                    s.start + EPS >= prev_end,
                    "{}: segments overlap or are unordered", a.id
                );
                let adjacent = (s.start - prev_end).abs() <= EPS;
                if adjacent {
                    prop_assert!(
                        (s.bw - prev_rate).abs() > EPS,
                        "{}: adjacent equal-rate segments not merged", a.id
                    );
                }
                prev_end = s.end;
                prev_rate = s.bw;
            }
        }
    }
}
