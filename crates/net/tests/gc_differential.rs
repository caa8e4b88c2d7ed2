//! Differential property tests for watermark GC: a GC'd ledger must
//! answer **every** query — `max_alloc`, `fits`, `min_free`,
//! `earliest_fit`, through the indexed path *and* the `*_linear`
//! reference scans — bit-identically to the un-GC'd ledger for all times
//! at or after the watermark. GC is a pure forgetting operation: it may
//! drop history, never change an answer the admission path could still
//! ask.
//!
//! Times carry ε-scale jitter (the `indexed_differential` recipe) so
//! reservation ends land exactly on, just under, and just over the
//! watermark — the edge where a sloppy ε-comparison in the sweep
//! materializes phantom capacity or drops owed charge.
//!
//! Truncated profiles must also stay canonical: they are re-validated
//! through [`CapacityProfile::from_breakpoints`] and round-tripped
//! through JSON, because snapshot compaction writes exactly these
//! truncated breakpoint vectors to disk.

use gridband_net::units::EPS;
use gridband_net::{
    CapacityLedger, CapacityProfile, EgressId, IngressId, LedgerState, PortRef, ReservationId,
    Route, Topology,
};
use proptest::prelude::*;

const PORTS: u32 = 3;

/// A time on a coarse grid, nudged by a handful of ε/2 steps so interval
/// endpoints (and the watermark) land exactly on each other's edges.
fn jittered(g: u32, j: i32) -> f64 {
    g as f64 * 5.0 + j as f64 * (EPS / 2.0)
}

/// One workload op: reserve, cancel an earlier reservation, or place a
/// single-port hold.
#[derive(Debug, Clone)]
enum Op {
    Reserve {
        i: u32,
        e: u32,
        t0: f64,
        t1: f64,
        bw: f64,
    },
    Cancel {
        idx: usize,
    },
    Hold {
        ingress: bool,
        port: u32,
        t0: f64,
        t1: f64,
        bw: f64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        (0u32..8, 0u32..PORTS, 0u32..PORTS),
        (0u32..40, 1u32..15, -3i32..=3),
        (0.1f64..60.0, 0usize..32),
    )
        .prop_map(|((kind, i, e), (g, len, j), (bw, idx))| {
            let t0 = jittered(g, j);
            let t1 = t0 + len as f64 * 5.0 + j as f64 * (EPS / 2.0);
            match kind {
                0 => Op::Cancel { idx },
                2 => Op::Hold {
                    ingress: i % 2 == 0,
                    port: i,
                    t0,
                    t1,
                    bw,
                },
                _ => Op::Reserve { i, e, t0, t1, bw },
            }
        })
}

fn build(ops: &[Op]) -> CapacityLedger {
    let mut ledger = CapacityLedger::new(Topology::uniform(PORTS as usize, PORTS as usize, 100.0));
    let mut issued: Vec<ReservationId> = Vec::new();
    for op in ops {
        match *op {
            Op::Reserve { i, e, t0, t1, bw } => {
                if let Ok(id) = ledger.reserve(Route::new(i, e), t0, t1, bw) {
                    issued.push(id);
                }
            }
            Op::Cancel { idx } => {
                if !issued.is_empty() {
                    let id = issued[idx % issued.len()];
                    let _ = ledger.cancel(id); // repeats fail harmlessly
                }
            }
            Op::Hold {
                ingress,
                port,
                t0,
                t1,
                bw,
            } => {
                let p = if ingress {
                    PortRef::In(IngressId(port))
                } else {
                    PortRef::Out(EgressId(port))
                };
                let _ = ledger.hold(p, t0, t1, bw);
            }
        }
    }
    ledger
}

/// Every query the admission path can ask about `[t0, t1)`, on one
/// profile, through both implementations. Exact `==` on f64 throughout.
fn assert_profile_queries_match(
    gcd: &CapacityProfile,
    reference: &CapacityProfile,
    probes: &[(f64, f64, f64)],
    ctx: &str,
) {
    for &(t0, t1, bw) in probes {
        assert_eq!(
            gcd.max_alloc(t0, t1),
            reference.max_alloc(t0, t1),
            "{ctx}: max_alloc [{t0}, {t1})"
        );
        assert_eq!(
            gcd.max_alloc_linear(t0, t1),
            reference.max_alloc_linear(t0, t1),
            "{ctx}: max_alloc_linear [{t0}, {t1})"
        );
        assert_eq!(
            gcd.min_free(t0, t1),
            reference.min_free(t0, t1),
            "{ctx}: min_free [{t0}, {t1})"
        );
        assert_eq!(
            gcd.min_free_linear(t0, t1),
            reference.min_free_linear(t0, t1),
            "{ctx}: min_free_linear [{t0}, {t1})"
        );
        assert_eq!(
            gcd.fits(t0, t1, bw),
            reference.fits(t0, t1, bw),
            "{ctx}: fits [{t0}, {t1}) bw={bw}"
        );
        assert_eq!(
            gcd.fits_linear(t0, t1, bw),
            reference.fits_linear(t0, t1, bw),
            "{ctx}: fits_linear [{t0}, {t1}) bw={bw}"
        );
        let dur = (t1 - t0).max(0.25);
        for latest in [t1, 5_000.0, f64::INFINITY] {
            assert_eq!(
                gcd.earliest_fit(t0, dur, bw, latest),
                reference.earliest_fit(t0, dur, bw, latest),
                "{ctx}: earliest_fit after={t0} dur={dur} bw={bw} latest={latest}"
            );
            assert_eq!(
                gcd.earliest_fit_linear(t0, dur, bw, latest),
                reference.earliest_fit_linear(t0, dur, bw, latest),
                "{ctx}: earliest_fit_linear after={t0} dur={dur} bw={bw} latest={latest}"
            );
        }
    }
}

proptest! {
    #[test]
    fn gc_never_changes_an_answer_at_or_after_the_watermark(
        ops in proptest::collection::vec(arb_op(), 1..60),
        wg in (0u32..45, -3i32..=3),
        raw_probes in proptest::collection::vec(
            ((0u32..50, -3i32..=3), (1u32..15, -3i32..=3), 0.1f64..120.0), 4..10),
    ) {
        let watermark = jittered(wg.0, wg.1);
        let reference = build(&ops);
        let mut gcd = reference.clone();
        gcd.gc(watermark);

        // Probe windows clamped to start at or after the watermark: the
        // GC contract covers exactly these.
        let probes: Vec<(f64, f64, f64)> = raw_probes
            .iter()
            .map(|&((g, j), (len, lj), bw)| {
                let t0 = jittered(g, j).max(watermark);
                let t1 = t0 + len as f64 * 5.0 + lj as f64 * (EPS / 2.0);
                (t0, t1, bw)
            })
            .collect();

        for p in 0..PORTS {
            assert_profile_queries_match(
                gcd.ingress_profile(IngressId(p)),
                reference.ingress_profile(IngressId(p)),
                &probes,
                &format!("ingress {p} (watermark {watermark})"),
            );
            assert_profile_queries_match(
                gcd.egress_profile(EgressId(p)),
                reference.egress_profile(EgressId(p)),
                &probes,
                &format!("egress {p} (watermark {watermark})"),
            );
        }

        // Route-level views agree too.
        for &(t0, t1, bw) in &probes {
            for i in 0..PORTS {
                for e in 0..PORTS {
                    let route = Route::new(i, e);
                    prop_assert_eq!(
                        gcd.fits(route, t0, t1, bw),
                        reference.fits(route, t0, t1, bw),
                        "route {:?} fits [{}, {}) bw={}", route, t0, t1, bw
                    );
                    prop_assert_eq!(
                        gcd.max_fit(route, t0, t1),
                        reference.max_fit(route, t0, t1),
                        "route {:?} max_fit [{}, {})", route, t0, t1
                    );
                }
            }
        }

        // GC collects only fully-past entries — every survivor of the
        // reference that is not fully past must still be live and
        // unchanged in the GC'd ledger.
        for (id, r) in reference.live_reservations() {
            if r.end > watermark {
                prop_assert_eq!(gcd.get(id), Some(r), "live reservation {:?} mutated", id);
            } else {
                prop_assert!(gcd.get(id).is_none(), "fully-past {:?} not collected", id);
            }
        }
    }

    #[test]
    fn truncated_profiles_stay_canonical_and_serializable(
        ops in proptest::collection::vec(arb_op(), 1..50),
        wg in (0u32..45, -3i32..=3),
    ) {
        let watermark = jittered(wg.0, wg.1);
        let mut ledger = build(&ops);
        ledger.gc(watermark);

        // Each truncated profile re-validates through from_breakpoints
        // (the canonical-form gate) and survives a JSON round trip —
        // snapshot compaction writes exactly these vectors.
        for p in 0..PORTS {
            for profile in [
                ledger.ingress_profile(IngressId(p)),
                ledger.egress_profile(EgressId(p)),
            ] {
                let rebuilt = CapacityProfile::from_breakpoints(
                    profile.capacity(),
                    profile.breakpoints().to_vec(),
                )
                .expect("truncated profile must stay canonical");
                prop_assert_eq!(&rebuilt, profile);

                let json = serde_json::to_string(profile).expect("serialize");
                let parsed: CapacityProfile = serde_json::from_str(&json).expect("parse");
                prop_assert_eq!(&parsed, profile, "JSON round trip must be lossless");
            }
        }

        // The whole compacted ledger image round-trips and restores — the
        // conservation check must hold with history truncated.
        let state = ledger.export_state();
        let json = serde_json::to_string(&state).expect("serialize state");
        let parsed: LedgerState = serde_json::from_str(&json).expect("parse state");
        prop_assert_eq!(&parsed, &state);
        let mut restored =
            CapacityLedger::new(Topology::uniform(PORTS as usize, PORTS as usize, 100.0));
        restored.restore_state(parsed).expect("compacted image must restore");
        prop_assert_eq!(restored.export_state(), state);
    }
}
