//! # gridband-flex — online malleable admission
//!
//! The paper fixes `bw(r)` constant for a transfer's lifetime (§2) and
//! defers variable-rate allocation to future work (§7). This crate is the
//! one malleable packer: [`water_fill`] fills each request against a
//! ledger's residual capacity, emitting stepwise plans the ledger books
//! atomically with [`CapacityLedger::reserve_segments`]. The daemon runs
//! it online per round; [`admit_in_order`] runs it offline over a whole
//! request sequence for the MALLEABLE study.
//!
//! The packing rule is **earliest-first water-filling**: at every instant
//! of the window the request may use `min(MaxRate, free_in(t),
//! free_out(t))`, clamped below by `MinRate` (instants where even the
//! floor doesn't fit are skipped entirely); volume is scheduled greedily
//! from the window start forward. For one arriving request against fixed
//! prior bookings this is optimal — without a floor the deliverable
//! volume is exactly `∫ min(MaxRate, free_in, free_out) dt`, which
//! [`CapacityLedger::route_free_volume`] evaluates in `O(log k)`, so the
//! solver prechecks the bound before scanning a single breakpoint.
//!
//! Every plan can be re-checked with [`verify_plan`] before booking:
//! volume delivered exactly (within the solver tolerance), every segment
//! inside the window and below `MaxRate`, and no port oversubscription
//! against the very ledger the plan will be booked into.

#![warn(missing_docs)]

use gridband_net::units::{Bandwidth, Time, Volume, EPS};
use gridband_net::{CapacityLedger, Route, SegSpan};
use serde::{Deserialize, Serialize};

/// Relative volume tolerance: a plan may undershoot the requested volume
/// by at most `VOLUME_RTOL × max(volume, 1)` (sub-ε slivers the ledger
/// cannot represent are dropped rather than booked).
pub const VOLUME_RTOL: f64 = 1e-6;

/// One malleable admission request, as the round solver sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlexSpec {
    /// Ingress/egress pair the transfer crosses.
    pub route: Route,
    /// Window start (earliest instant any segment may begin).
    pub start: Time,
    /// Window end (latest instant any segment may end).
    pub finish: Time,
    /// Volume to deliver inside the window (MB).
    pub volume: Volume,
    /// Floor rate: segments never run below this (0 = pure malleable).
    pub min_rate: Bandwidth,
    /// Ceiling rate: segments never run above this.
    pub max_rate: Bandwidth,
}

impl FlexSpec {
    /// A pure-malleable spec (no floor).
    pub fn new(
        route: Route,
        start: Time,
        finish: Time,
        volume: Volume,
        max_rate: Bandwidth,
    ) -> Self {
        FlexSpec {
            route,
            start,
            finish,
            volume,
            min_rate: 0.0,
            max_rate,
        }
    }

    /// Shape-check the spec itself (before consulting any ledger).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.start.is_finite() && self.finish.is_finite()) || self.finish - self.start <= EPS {
            return Err(format!(
                "window [{}, {}) is empty or non-finite",
                self.start, self.finish
            ));
        }
        if !self.volume.is_finite() || self.volume <= 0.0 {
            return Err(format!(
                "volume {} must be finite and positive",
                self.volume
            ));
        }
        if !self.max_rate.is_finite() || self.max_rate <= 0.0 {
            return Err(format!(
                "max rate {} must be finite and positive",
                self.max_rate
            ));
        }
        if !self.min_rate.is_finite() || self.min_rate < 0.0 || self.min_rate > self.max_rate {
            return Err(format!(
                "min rate {} must lie in [0, {}]",
                self.min_rate, self.max_rate
            ));
        }
        Ok(())
    }
}

/// The stepwise allocation the solver grants for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MalleableAssignment {
    /// Client-chosen request id the plan belongs to.
    pub id: u64,
    /// Disjoint, time-ordered constant-rate segments.
    pub segments: Vec<SegSpan>,
}

impl MalleableAssignment {
    /// Total volume across segments.
    pub fn volume(&self) -> Volume {
        self.segments.iter().map(|s| s.area()).sum()
    }

    /// Completion time (end of the last segment).
    pub fn finish(&self) -> Time {
        self.segments.last().map_or(0.0, |s| s.end)
    }
}

/// Earliest-first water-filling of one request against the live ledger.
///
/// Returns the stepwise plan, or `None` when the window cannot carry the
/// volume (even using every free instant at the highest admissible rate).
/// The returned segments are in canonical form — time-ordered, disjoint,
/// adjacent equal-rate pieces merged, every piece longer than ε — and are
/// guaranteed to fit the ledger as of this call, so a subsequent
/// [`CapacityLedger::reserve_segments`] on an unchanged ledger succeeds.
pub fn water_fill(ledger: &CapacityLedger, spec: &FlexSpec) -> Option<Vec<SegSpan>> {
    spec.validate().ok()?;
    let tol = VOLUME_RTOL * spec.volume.max(1.0);
    // O(log k) upper-bound precheck: if even the unconstrained residual
    // volume (which ignores the MinRate floor, so only over-estimates)
    // cannot carry the request, skip the breakpoint scan entirely.
    let bound = ledger
        .route_free_volume(spec.route, spec.start, spec.finish)
        .min(spec.max_rate * (spec.finish - spec.start));
    if bound + tol < spec.volume {
        return None;
    }
    let ing = ledger.ingress_profile(spec.route.ingress);
    let egr = ledger.egress_profile(spec.route.egress);

    // Candidate cuts: window bounds plus every profile breakpoint inside
    // the window, on either port — free capacity is constant between cuts.
    let mut cuts: Vec<Time> = vec![spec.start, spec.finish];
    for p in [ing, egr] {
        for b in p.breakpoints() {
            if b.time > spec.start && b.time < spec.finish {
                cuts.push(b.time);
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    cuts.dedup();

    let mut remaining = spec.volume;
    let mut segments: Vec<SegSpan> = Vec::new();
    for w in cuts.windows(2) {
        if remaining <= tol {
            break;
        }
        let (t0, t1) = (w[0], w[1]);
        if t1 - t0 <= EPS {
            // Sub-ε sliver between two near-coincident breakpoints: the
            // ledger cannot represent it, and it carries ≈ nothing.
            continue;
        }
        let avail = spec
            .max_rate
            .min(ing.min_free(t0, t1))
            .min(egr.min_free(t0, t1));
        if avail <= EPS || avail + EPS < spec.min_rate {
            continue;
        }
        let can_carry = avail * (t1 - t0);
        if can_carry >= remaining {
            // Last segment: shrink its length so the volume is exact
            // (finishing early rather than dribbling at a lower rate) —
            // unless the shrunk piece would be a sub-ε sliver, which is
            // dropped and absorbed by the volume tolerance.
            let need = remaining / avail;
            if need > EPS {
                segments.push(SegSpan {
                    start: t0,
                    end: t0 + need,
                    bw: avail,
                });
            }
            remaining = 0.0;
        } else {
            segments.push(SegSpan {
                start: t0,
                end: t1,
                bw: avail,
            });
            remaining -= can_carry;
        }
    }
    if remaining > tol || segments.is_empty() {
        return None;
    }
    // Merge adjacent equal-rate segments for a canonical shape.
    let mut merged: Vec<SegSpan> = Vec::with_capacity(segments.len());
    for s in segments {
        match merged.last_mut() {
            Some(last) if (last.end - s.start).abs() <= EPS && (last.bw - s.bw).abs() <= EPS => {
                last.end = s.end;
            }
            _ => merged.push(s),
        }
    }
    Some(merged)
}

/// Independent check of a plan against the ledger it is about to be
/// booked into: segments inside the window and time-ordered, rates within
/// `(0, MaxRate]` (and at or above the floor), volume delivered exactly
/// (within [`VOLUME_RTOL`]), and every segment individually fitting both
/// route ports — since segments are disjoint in time, per-segment `fits`
/// implies the whole plan books without oversubscribing any port.
pub fn verify_plan(
    ledger: &CapacityLedger,
    spec: &FlexSpec,
    segments: &[SegSpan],
) -> Result<(), String> {
    spec.validate()?;
    if segments.is_empty() {
        return Err("plan has no segments".into());
    }
    let mut prev_end = spec.start;
    for s in segments {
        if s.start + EPS < prev_end || s.end > spec.finish + EPS {
            return Err(format!(
                "segment [{}, {}) outside window/order",
                s.start, s.end
            ));
        }
        if s.end - s.start <= EPS {
            return Err(format!(
                "segment [{}, {}) is a sub-ε sliver",
                s.start, s.end
            ));
        }
        if s.bw <= 0.0 || s.bw > spec.max_rate * (1.0 + 1e-9) {
            return Err(format!(
                "segment rate {} outside (0, {}]",
                s.bw, spec.max_rate
            ));
        }
        if s.bw + EPS < spec.min_rate {
            return Err(format!(
                "segment rate {} below the {} floor",
                s.bw, spec.min_rate
            ));
        }
        if !ledger.fits(spec.route, s.start, s.end, s.bw) {
            return Err(format!(
                "segment [{}, {}) @ {} oversubscribes a port",
                s.start, s.end, s.bw
            ));
        }
        prev_end = s.end;
    }
    let delivered: Volume = segments.iter().map(|s| s.area()).sum();
    if (delivered - spec.volume).abs() > VOLUME_RTOL * spec.volume.max(1.0) + EPS {
        return Err(format!("delivered {delivered} ≠ volume {}", spec.volume));
    }
    Ok(())
}

/// Offline in-order malleable admission: each `(id, spec)` is water-filled
/// against `ledger`, checked with [`verify_plan`] and booked before the
/// next is considered. Returns the accepted plans and the rejected ids,
/// both in input order.
pub fn admit_in_order(
    ledger: &mut CapacityLedger,
    specs: impl IntoIterator<Item = (u64, FlexSpec)>,
) -> (Vec<MalleableAssignment>, Vec<u64>) {
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for (id, spec) in specs {
        let Some(segments) = water_fill(ledger, &spec) else {
            rejected.push(id);
            continue;
        };
        if let Err(e) = verify_plan(ledger, &spec, &segments) {
            panic!("request {id}: water-filled plan fails verification: {e}");
        }
        ledger
            .reserve_segments(spec.route, &segments)
            .expect("a verified plan books on the ledger it was checked against");
        accepted.push(MalleableAssignment { id, segments });
    }
    (accepted, rejected)
}

/// Earliest time at or after `not_before` at which the request could
/// plausibly fit, or `None` when no such time exists before the latest
/// useful start. This is the malleable `retry_after` hint: candidates are
/// `not_before` itself plus every profile breakpoint on the route's ports
/// (capacity only changes there); a candidate `T` is feasible when the
/// window anchored at `T` — `[T, deadline]` for a hard deadline, else
/// `[T, T + duration]` for a sliding window — has residual volume and
/// rate-ceiling room for the full request, per the water-filling bound.
pub fn retry_after(
    ledger: &CapacityLedger,
    spec: &FlexSpec,
    not_before: Time,
    hard_deadline: bool,
) -> Option<Time> {
    spec.validate().ok()?;
    let duration = spec.finish - spec.start;
    let feasible = |t: Time| -> bool {
        let end = if hard_deadline {
            spec.finish
        } else {
            t + duration
        };
        if end - t <= EPS || spec.max_rate * (end - t) + EPS < spec.volume {
            return false;
        }
        let bound = ledger
            .route_free_volume(spec.route, t, end)
            .min(spec.max_rate * (end - t));
        bound + VOLUME_RTOL * spec.volume.max(1.0) >= spec.volume
    };
    // Latest start from which the volume could still drain at MaxRate.
    let latest_useful = if hard_deadline {
        spec.finish - spec.volume / spec.max_rate
    } else {
        f64::INFINITY
    };
    let mut candidates: Vec<Time> = vec![not_before];
    let ing = ledger.ingress_profile(spec.route.ingress);
    let egr = ledger.egress_profile(spec.route.egress);
    for p in [ing, egr] {
        for b in p.breakpoints() {
            if b.time > not_before {
                candidates.push(b.time);
            }
        }
    }
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    candidates.dedup();
    candidates
        .into_iter()
        .take_while(|&t| t <= latest_useful)
        .find(|&t| feasible(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridband_net::Topology;

    fn ledger() -> CapacityLedger {
        CapacityLedger::new(Topology::uniform(1, 1, 100.0))
    }

    #[test]
    fn lone_request_runs_flat_at_max_rate() {
        let l = ledger();
        let spec = FlexSpec::new(Route::new(0, 0), 0.0, 20.0, 500.0, 50.0);
        let plan = water_fill(&l, &spec).unwrap();
        assert_eq!(
            plan,
            vec![SegSpan {
                start: 0.0,
                end: 10.0,
                bw: 50.0
            }]
        );
        verify_plan(&l, &spec, &plan).unwrap();
    }

    #[test]
    fn rate_varies_around_a_blocker() {
        let mut l = ledger();
        // 80 MB/s blocked on [0, 10): crawl at 20, then sprint at 100.
        l.reserve(Route::new(0, 0), 0.0, 10.0, 80.0).unwrap();
        let spec = FlexSpec::new(Route::new(0, 0), 0.0, 20.0, 1_100.0, 100.0);
        let plan = water_fill(&l, &spec).unwrap();
        assert_eq!(
            plan,
            vec![
                SegSpan {
                    start: 0.0,
                    end: 10.0,
                    bw: 20.0
                },
                SegSpan {
                    start: 10.0,
                    end: 19.0,
                    bw: 100.0
                },
            ]
        );
        verify_plan(&l, &spec, &plan).unwrap();
        // And the ledger takes the plan verbatim.
        let mut l2 = l.clone();
        l2.reserve_segments(spec.route, &plan).unwrap();
    }

    #[test]
    fn volume_equals_the_waterfilling_bound_exactly_when_saturating() {
        let mut l = ledger();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 90.0).unwrap();
        l.reserve(Route::new(0, 0), 15.0, 25.0, 60.0).unwrap();
        let spec = FlexSpec::new(Route::new(0, 0), 0.0, 25.0, 1_000.0, 100.0);
        // Bound: 10×10 + 5×100 + 10×40 = 1000 — exactly the volume.
        assert_eq!(l.route_free_volume(spec.route, 0.0, 25.0), 1_000.0);
        let plan = water_fill(&l, &spec).unwrap();
        verify_plan(&l, &spec, &plan).unwrap();
        let delivered: f64 = plan.iter().map(|s| s.area()).sum();
        assert!((delivered - 1_000.0).abs() <= VOLUME_RTOL * 1_000.0);
        // One MB more and the precheck rejects without scanning.
        let over = FlexSpec {
            volume: 1_001.0,
            ..spec
        };
        assert!(water_fill(&l, &over).is_none());
    }

    #[test]
    fn min_rate_floor_skips_congested_stretches() {
        let mut l = ledger();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 80.0).unwrap();
        // Floor 50: the 20 MB/s stretch is unusable; only [10, 20) works.
        let spec = FlexSpec {
            min_rate: 50.0,
            ..FlexSpec::new(Route::new(0, 0), 0.0, 20.0, 1_000.0, 100.0)
        };
        let plan = water_fill(&l, &spec).unwrap();
        assert_eq!(
            plan,
            vec![SegSpan {
                start: 10.0,
                end: 20.0,
                bw: 100.0
            }]
        );
        verify_plan(&l, &spec, &plan).unwrap();
        // 1100 needs the congested stretch → infeasible under the floor,
        // feasible without it.
        let over = FlexSpec {
            volume: 1_100.0,
            ..spec
        };
        assert!(water_fill(&l, &over).is_none());
        let pure = FlexSpec {
            min_rate: 0.0,
            ..over
        };
        assert!(water_fill(&l, &pure).is_some());
    }

    #[test]
    fn verifier_rejects_corrupted_plans() {
        let mut l = ledger();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 80.0).unwrap();
        let spec = FlexSpec::new(Route::new(0, 0), 0.0, 20.0, 1_100.0, 100.0);
        let plan = water_fill(&l, &spec).unwrap();
        verify_plan(&l, &spec, &plan).unwrap();
        // Rate above MaxRate.
        let mut bad = plan.clone();
        bad[1].bw = 200.0;
        assert!(verify_plan(&l, &spec, &bad).is_err());
        // Oversubscribing the blocked stretch.
        let mut bad = plan.clone();
        bad[0].bw = 30.0;
        assert!(verify_plan(&l, &spec, &bad).is_err());
        // Volume short.
        let bad = vec![plan[0]];
        assert!(verify_plan(&l, &spec, &bad).is_err());
        // Out of order.
        let mut bad = plan.clone();
        bad.swap(0, 1);
        assert!(verify_plan(&l, &spec, &bad).is_err());
    }

    #[test]
    fn retry_after_points_at_the_blocker_end() {
        let mut l = ledger();
        l.reserve(Route::new(0, 0), 0.0, 10.0, 100.0).unwrap();
        // Sliding window: infeasible now (0 free until 10), feasible at 10.
        let spec = FlexSpec::new(Route::new(0, 0), 0.0, 5.0, 400.0, 100.0);
        assert!(water_fill(&l, &spec).is_none());
        assert_eq!(retry_after(&l, &spec, 0.0, false), Some(10.0));
        // The hint respects `not_before`.
        assert_eq!(retry_after(&l, &spec, 12.0, false), Some(12.0));
        // Hard deadline: the window is fixed, so its residual only
        // shrinks as the start slides forward — a request the bound
        // rejects now can never become feasible later. No useful retry.
        let hard = FlexSpec::new(Route::new(0, 0), 0.0, 13.0, 400.0, 100.0);
        assert!(water_fill(&l, &hard).is_none());
        assert_eq!(retry_after(&l, &hard, 0.0, true), None);
    }
}
