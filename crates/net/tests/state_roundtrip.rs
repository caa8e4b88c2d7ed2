//! Property test for the snapshot satellite: a ledger exported with
//! [`CapacityLedger::export_state`], serialized to JSON, parsed back and
//! restored into a fresh ledger must answer every indexed query exactly
//! (`==` on f64) like the original — the serve daemon's recovery path
//! rides on this being bit-identical, not merely approximately equal.

use gridband_net::{
    CapacityLedger, EgressId, HoldId, IngressId, LedgerState, PortRef, ReservationId, Route,
    SegSpan, Topology,
};
use proptest::prelude::*;

/// One workload op: a rigid reservation (route, window, bw), a
/// two-step segmented plan on the same parameters, a hold of the window
/// on one port, or the release of something booked earlier (by index
/// into the handles issued so far). Every table of the exported image
/// is therefore exercised.
#[derive(Debug, Clone)]
enum Op {
    Reserve {
        i: u32,
        e: u32,
        t0: f64,
        len: f64,
        bw: f64,
    },
    ReserveSegments {
        i: u32,
        e: u32,
        t0: f64,
        len: f64,
        bw: f64,
    },
    Hold {
        port: PortRef,
        t0: f64,
        len: f64,
        bw: f64,
    },
    Cancel {
        idx: usize,
    },
}

/// A handle `build` booked, with the call that frees it.
#[derive(Debug, Clone, Copy)]
enum Issued {
    Rigid(ReservationId),
    Segmented(ReservationId),
    Hold(HoldId),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The shim has no `prop_oneof`; a leading discriminant weights the
    // choice 4:2:1:1 reserve, segmented plan, hold and cancel.
    (0u32..8, 0u32..3, 0u32..3, 0u32..40, 1u32..30, 0.1f64..45.0).prop_map(
        |(kind, i, e, t0, len, bw)| {
            let (t0, len) = (t0 as f64 * 2.5, len as f64 * 2.5);
            match kind {
                0 => Op::Cancel { idx: t0 as usize },
                1 => Op::Hold {
                    port: if e % 2 == 0 {
                        PortRef::In(IngressId(i))
                    } else {
                        PortRef::Out(EgressId(i))
                    },
                    t0,
                    len,
                    bw,
                },
                2 | 3 => Op::ReserveSegments { i, e, t0, len, bw },
                _ => Op::Reserve { i, e, t0, len, bw },
            }
        },
    )
}

fn build(ops: &[Op]) -> CapacityLedger {
    let mut ledger = CapacityLedger::new(Topology::uniform(3, 3, 100.0));
    let mut issued: Vec<Issued> = Vec::new();
    for op in ops {
        match *op {
            Op::Reserve { i, e, t0, len, bw } => {
                if let Ok(id) = ledger.reserve(Route::new(i, e), t0, t0 + len, bw) {
                    issued.push(Issued::Rigid(id));
                }
            }
            Op::ReserveSegments { i, e, t0, len, bw } => {
                // A full-rate step, an idle gap, then a half-rate step.
                let plan = [
                    SegSpan {
                        start: t0,
                        end: t0 + len,
                        bw,
                    },
                    SegSpan {
                        start: t0 + len + 2.5,
                        end: t0 + 2.0 * len + 2.5,
                        bw: bw / 2.0,
                    },
                ];
                if let Ok(id) = ledger.reserve_segments(Route::new(i, e), &plan) {
                    issued.push(Issued::Segmented(id));
                }
            }
            Op::Hold { port, t0, len, bw } => {
                if let Ok(id) = ledger.hold(port, t0, t0 + len, bw) {
                    issued.push(Issued::Hold(id));
                }
            }
            Op::Cancel { idx } => {
                if !issued.is_empty() {
                    // Repeats fail harmlessly.
                    let _ = match issued[idx % issued.len()] {
                        Issued::Rigid(id) => ledger.cancel(id).map(drop),
                        Issued::Segmented(id) => ledger.cancel_segments(id).map(drop),
                        Issued::Hold(id) => ledger.release_hold(id).map(drop),
                    };
                }
            }
        }
    }
    ledger
}

proptest! {
    #[test]
    fn exported_state_round_trips_through_json_bit_identically(
        ops in proptest::collection::vec(arb_op(), 1..60),
        probes in proptest::collection::vec((0u32..45, 1u32..30, 0.1f64..110.0), 4..9),
    ) {
        let original = build(&ops);
        let state = original.export_state();

        // Serde round trip (what a snapshot file actually stores).
        let json = serde_json::to_string(&state).expect("serialize");
        let parsed: LedgerState = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(&parsed, &state, "JSON round trip must be lossless");

        let mut restored = CapacityLedger::new(Topology::uniform(3, 3, 100.0));
        restored.restore_state(parsed).expect("restore");

        // Profiles are bit-identical...
        for p in 0..3u32 {
            prop_assert_eq!(
                restored.ingress_profile(IngressId(p)),
                original.ingress_profile(IngressId(p))
            );
            prop_assert_eq!(
                restored.egress_profile(EgressId(p)),
                original.egress_profile(EgressId(p))
            );
        }
        prop_assert_eq!(restored.live_count(), original.live_count());
        // The restored ledger exports the very image it was built from,
        // every table split and ordered as before.
        prop_assert_eq!(&restored.export_state(), &state);

        // ...and so are the indexed queries schedulers actually ask.
        for &(t0, len, bw) in &probes {
            let (t0, t1) = (t0 as f64 * 2.5, t0 as f64 * 2.5 + len as f64 * 2.5);
            for i in 0..3u32 {
                for e in 0..3u32 {
                    let route = Route::new(i, e);
                    prop_assert_eq!(
                        restored.max_fit(route, t0, t1),
                        original.max_fit(route, t0, t1),
                        "max_fit {:?} [{}, {})", route, t0, t1
                    );
                    prop_assert_eq!(
                        restored.fits(route, t0, t1, bw),
                        original.fits(route, t0, t1, bw),
                        "fits {:?} [{}, {}) bw={}", route, t0, t1, bw
                    );
                }
            }
        }

        // Reservation-id continuity: the next booking gets the same id.
        let mut a = original.clone();
        let ra = a.reserve(Route::new(0, 0), 500.0, 501.0, 1.0).expect("free future slot");
        let rb = restored.reserve(Route::new(0, 0), 500.0, 501.0, 1.0).expect("free future slot");
        prop_assert_eq!(ra, rb);
    }
}
