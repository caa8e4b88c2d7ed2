//! Differential property tests: the segment-tree-indexed profile queries
//! must give **bit-identical** answers to the `*_linear` reference scans,
//! and the batched ledger paths must be indistinguishable from sequential
//! reserves and one-by-one releases.
//!
//! Equivalence here is non-negotiable: the indexed hot path replaces the
//! linear implementation underneath every scheduler, so any divergence —
//! including at ε-scale float boundaries — would silently change the
//! paper-reproduction accept rates. Times are therefore generated on a
//! coarse grid *plus ε-scale jitter* so the ε-tolerant comparisons
//! (`approx_le` / `definitely_gt`) are exercised right at their edges.

use gridband_net::units::EPS;
use gridband_net::{
    CapacityLedger, CapacityProfile, EgressId, HoldId, IngressId, PortRef, ReleaseRequest,
    ReservationId, ReserveRequest, Route, SegSpan, Topology,
};
use proptest::prelude::*;
use std::sync::Barrier;

/// A time on a coarse grid, nudged by a handful of ε/2 steps so interval
/// endpoints land exactly on, just under, and just over each other.
fn arb_jittered_time() -> impl Strategy<Value = f64> {
    (0u32..60, -3i32..=3).prop_map(|(g, j)| g as f64 * 5.0 + j as f64 * (EPS / 2.0))
}

/// (t0, t1, bw) with a length comfortably above EPS (sub-ε intervals are a
/// contract violation `allocate` panics on) but whose endpoints still carry
/// ε-scale jitter relative to other operations.
fn arb_op() -> impl Strategy<Value = (f64, f64, f64)> {
    (arb_jittered_time(), 0.5f64..40.0, -3i32..=3, 0.1f64..120.0)
        .prop_map(|(t0, len, j, bw)| (t0, t0 + len + j as f64 * (EPS / 2.0), bw))
}

/// The canonical-form invariants of a profile, checked from the outside
/// through the public breakpoint view.
fn assert_canonical(p: &CapacityProfile) {
    let pts = p.breakpoints();
    let mut prev_level = 0.0f64;
    let mut prev_time = f64::NEG_INFINITY;
    for b in pts {
        assert!(b.time.is_finite(), "non-finite breakpoint time");
        assert!(b.time > prev_time, "times not strictly increasing");
        assert!(b.alloc >= 0.0, "negative level {}", b.alloc);
        assert!(
            b.alloc != prev_level,
            "repeated level {} at {} (non-canonical)",
            b.alloc,
            b.time
        );
        prev_time = b.time;
        prev_level = b.alloc;
    }
    if let Some(last) = pts.last() {
        assert!(last.alloc == 0.0, "profile does not return to zero");
    }
}

/// Compare every indexed query against its linear reference on a set of
/// probe windows. Equality is exact (`==` on f64): same IEEE values in,
/// same comparison expressions, so the answers must be bit-identical.
fn assert_queries_match(p: &CapacityProfile, probes: &[(f64, f64, f64)]) {
    for &(t0, t1, bw) in probes {
        assert_eq!(
            p.max_alloc(t0, t1),
            p.max_alloc_linear(t0, t1),
            "max_alloc [{t0}, {t1})"
        );
        assert_eq!(
            p.min_free(t0, t1),
            p.min_free_linear(t0, t1),
            "min_free [{t0}, {t1})"
        );
        assert_eq!(
            p.fits(t0, t1, bw),
            p.fits_linear(t0, t1, bw),
            "fits [{t0}, {t1}) bw={bw}"
        );
        assert_eq!(
            p.free_volume(t0, t1).to_bits(),
            p.free_volume_linear(t0, t1).to_bits(),
            "free_volume [{t0}, {t1})"
        );
        let dur = (t1 - t0).max(0.25);
        for latest in [t1, 5_000.0, f64::INFINITY] {
            assert_eq!(
                p.earliest_fit(t0, dur, bw, latest),
                p.earliest_fit_linear(t0, dur, bw, latest),
                "earliest_fit after={t0} dur={dur} bw={bw} latest={latest}"
            );
        }
    }
}

/// Every port of two ledgers holds the same breakpoints to the bit, in
/// canonical form, and answers the probes like its linear oracles.
fn assert_ledgers_match(a: &CapacityLedger, b: &CapacityLedger, probes: &[(f64, f64, f64)]) {
    let bits = |p: &CapacityProfile| -> Vec<(u64, u64)> {
        (p.breakpoints().iter())
            .map(|b| (b.time.to_bits(), b.alloc.to_bits()))
            .collect()
    };
    for i in 0..3u32 {
        for (pa, pb) in [
            (
                a.ingress_profile(IngressId(i)),
                b.ingress_profile(IngressId(i)),
            ),
            (a.egress_profile(EgressId(i)), b.egress_profile(EgressId(i))),
        ] {
            assert_eq!(bits(pa), bits(pb), "port {i} diverged");
            assert_canonical(pa);
            assert_queries_match(pa, probes);
            assert_queries_match(pb, probes);
        }
    }
}

proptest! {
    /// After every mutation of a random allocate/release trace, the indexed
    /// queries agree bit-for-bit with the linear reference and the profile
    /// stays canonical.
    #[test]
    fn indexed_matches_linear_on_random_traces(
        ops in prop::collection::vec((arb_op(), 0u32..10), 1..50),
        probes in prop::collection::vec(arb_op(), 1..8),
    ) {
        let mut p = CapacityProfile::new(150.0);
        let mut applied: Vec<(f64, f64, f64)> = Vec::new();
        for ((t0, t1, bw), action) in ops {
            // Mix releases of *previously accepted* allocations with fresh
            // allocations; failed ops must leave everything untouched too.
            if action < 3 && !applied.is_empty() {
                let (a0, a1, ab) = applied.pop().unwrap();
                prop_assert!(p.release(a0, a1, ab).is_ok());
            } else if p.allocate(t0, t1, bw).is_ok() {
                applied.push((t0, t1, bw));
            }
            assert_canonical(&p);
            assert_queries_match(&p, &probes);
        }
    }

    /// Bulk-loading a canonical breakpoint vector gives exactly the same
    /// profile (and the same query answers) as replaying the allocations.
    #[test]
    fn from_breakpoints_equals_replayed_allocations(
        ops in prop::collection::vec(arb_op(), 1..40),
        probes in prop::collection::vec(arb_op(), 1..6),
    ) {
        let mut p = CapacityProfile::new(200.0);
        for (t0, t1, bw) in ops {
            let _ = p.allocate(t0, t1, bw);
        }
        let rebuilt =
            CapacityProfile::from_breakpoints(p.capacity(), p.breakpoints().to_vec()).unwrap();
        prop_assert_eq!(&rebuilt, &p);
        assert_queries_match(&rebuilt, &probes);
    }

    /// A batched `reserve_all` is indistinguishable from the same sequence
    /// of sequential `reserve` calls: same per-request accept/reject, same
    /// ids, identical port profiles — even with ε-jittered intervals.
    #[test]
    fn reserve_all_equals_sequential_reserve(
        rounds in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u32..3, arb_op()), 1..6),
            1..8
        ),
    ) {
        let topo = Topology::uniform(3, 3, 220.0);
        let mut batched = CapacityLedger::new(topo.clone());
        let mut sequential = CapacityLedger::new(topo);
        for round in &rounds {
            let batch: Vec<ReserveRequest> = round
                .iter()
                .map(|&(i, e, (t0, t1, bw))| ReserveRequest {
                    route: Route::new(i, e),
                    start: t0,
                    end: t1,
                    bw,
                })
                .collect();
            let batch_results = batched.reserve_all(&batch);
            for (req, b) in batch.iter().zip(&batch_results) {
                let s = sequential.reserve(req.route, req.start, req.end, req.bw);
                prop_assert_eq!(b.is_ok(), s.is_ok(), "accept/reject diverged");
                if let (Ok(bid), Ok(sid)) = (b, &s) {
                    prop_assert_eq!(bid, sid, "reservation ids diverged");
                }
            }
        }
        prop_assert_eq!(batched.live_count(), sequential.live_count());
        for i in 0..3u32 {
            let (bi, si) = (
                batched.ingress_profile(IngressId(i)),
                sequential.ingress_profile(IngressId(i)),
            );
            prop_assert_eq!(bi, si, "ingress profile {} diverged", i);
            assert_canonical(bi);
            let (be, se) = (
                batched.egress_profile(EgressId(i)),
                sequential.egress_profile(EgressId(i)),
            );
            prop_assert_eq!(be, se, "egress profile {} diverged", i);
            assert_canonical(be);
        }
    }

    /// A `release_all` batch is indistinguishable from the same releases
    /// made one by one with `cancel` / `cancel_segments` / `release_hold`:
    /// same per-entry outcome — unknown and repeated ids fail in both and
    /// disturb nothing — and bit-identical breakpoints on every port, at
    /// every round of a random interleaving of bookings (rigid batches,
    /// stepwise plans, holds) and releases. The probes run between rounds,
    /// so `free_volume` builds its prefix areas, the next round's mutations
    /// must drop them, and the next probes read rebuilt ones.
    #[test]
    fn release_all_equals_one_by_one_releases(
        rounds in prop::collection::vec(
            (
                prop::collection::vec((0u32..3, 0u32..3, arb_op(), 0u32..6), 1..8),
                prop::collection::vec((0usize..64, 0u32..8), 0..10),
            ),
            1..8
        ),
        probes in prop::collection::vec(arb_op(), 1..5),
    ) {
        let topo = Topology::uniform(3, 3, 220.0);
        let mut batched = CapacityLedger::new(topo.clone());
        let mut one_by_one = CapacityLedger::new(topo);
        let mut live: Vec<ReleaseRequest> = Vec::new();
        for (bookings, picks) in &rounds {
            for &(i, e, (t0, t1, bw), kind) in bookings {
                let route = Route::new(i, e);
                let booked = match kind {
                    // A hold on one port of the route.
                    0 => {
                        let port = PortRef::In(IngressId(i));
                        let (b, s) = (batched.hold(port, t0, t1, bw), one_by_one.hold(port, t0, t1, bw));
                        prop_assert_eq!(b.is_ok(), s.is_ok());
                        b.ok().map(ReleaseRequest::Hold)
                    }
                    // A two-step plan: half the rate, a gap, the full rate.
                    1 | 2 => {
                        let third = (t1 - t0) / 3.0;
                        let plan = [
                            SegSpan { start: t0, end: t0 + third, bw: bw / 2.0 },
                            SegSpan { start: t1 - third, end: t1, bw },
                        ];
                        let (b, s) = (
                            batched.reserve_segments(route, &plan),
                            one_by_one.reserve_segments(route, &plan),
                        );
                        prop_assert_eq!(b.is_ok(), s.is_ok());
                        b.ok().map(ReleaseRequest::Segments)
                    }
                    _ => {
                        let (b, s) = (
                            batched.reserve(route, t0, t1, bw),
                            one_by_one.reserve(route, t0, t1, bw),
                        );
                        prop_assert_eq!(b.is_ok(), s.is_ok());
                        b.ok().map(ReleaseRequest::Reservation)
                    }
                };
                live.extend(booked);
            }
            assert_ledgers_match(&batched, &one_by_one, &probes);

            // The batch: live entries (some picked twice, so the repeat
            // fails), and now and then an id that never existed.
            let mut batch = Vec::new();
            for &(sel, odd) in picks {
                match odd {
                    0 => batch.push(ReleaseRequest::Reservation(ReservationId(1 << 40))),
                    1 => batch.push(ReleaseRequest::Hold(HoldId(1 << 40))),
                    _ if live.is_empty() => {}
                    2 => batch.push(live[sel % live.len()]),
                    _ => batch.push(live.swap_remove(sel % live.len())),
                }
            }
            let results = batched.release_all(&batch);
            prop_assert_eq!(results.len(), batch.len());
            for (req, b) in batch.iter().zip(&results) {
                let before = one_by_one.export_state();
                let s = match *req {
                    ReleaseRequest::Reservation(id) => one_by_one.cancel(id).map(drop),
                    ReleaseRequest::Segments(id) => one_by_one.cancel_segments(id).map(drop),
                    ReleaseRequest::Hold(id) => one_by_one.release_hold(id).map(drop),
                };
                prop_assert_eq!(b, &s, "outcome of {:?} diverged", req);
                prop_assert!(
                    s.is_ok() || one_by_one.export_state() == before,
                    "refused {:?} changed the ledger", req
                );
                if s.is_ok() {
                    live.retain(|l| l != req);
                }
            }
            prop_assert_eq!(batched.live_count(), one_by_one.live_count());
            prop_assert_eq!(batched.seg_count(), one_by_one.seg_count());
            prop_assert_eq!(batched.hold_count(), one_by_one.hold_count());
            assert_ledgers_match(&batched, &one_by_one, &probes);
        }
    }

    /// Two threads asking a freshly mutated profile for `free_volume` at
    /// the same moment — whichever builds the prefix areas, both read the
    /// linear oracle's bits.
    #[test]
    fn concurrent_free_volume_matches_linear(
        ops in prop::collection::vec(arb_op(), 1..30),
        probes in prop::collection::vec(arb_op(), 2..6),
    ) {
        let mut p = CapacityProfile::new(180.0);
        for (t0, t1, bw) in ops {
            let _ = p.allocate(t0, t1, bw);
        }
        let expected: Vec<u64> = (probes.iter())
            .map(|&(t0, t1, _)| p.free_volume_linear(t0, t1).to_bits())
            .collect();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (probes.iter())
                            .map(|&(t0, t1, _)| p.free_volume(t0, t1).to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for r in readers {
                assert_eq!(r.join().expect("reader panicked"), expected);
            }
        });
    }

    /// Serialization round-trips the profile exactly, and the rebuilt index
    /// still answers like the linear reference.
    #[test]
    fn serde_round_trip_matches(
        ops in prop::collection::vec(arb_op(), 1..30),
        probes in prop::collection::vec(arb_op(), 1..6),
    ) {
        let mut p = CapacityProfile::new(180.0);
        for (t0, t1, bw) in ops {
            let _ = p.allocate(t0, t1, bw);
        }
        let json = serde_json::to_string(&p).unwrap();
        let q: CapacityProfile = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&q, &p);
        assert_queries_match(&q, &probes);
    }
}
