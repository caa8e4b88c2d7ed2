//! Piecewise-constant capacity allocation profiles.
//!
//! A [`CapacityProfile`] tracks, for one access port, the total bandwidth
//! reserved as a function of time. This is the data structure behind the
//! constraint set (1) of the paper: at every instant `t`, the sum of the
//! bandwidths of accepted requests crossing a port must stay below the port
//! capacity.
//!
//! The profile is a step function stored as sorted breakpoints. Allocations
//! and releases are half-open intervals `[t0, t1)`, mirroring the paper's
//! convention `σ(r) ≤ t < τ(r)`: a transfer finishing at `t1` and another
//! starting at `t1` never overlap.
//!
//! # Indexed queries
//!
//! Alongside the breakpoint vector the profile maintains an implicit
//! segment tree (`ProfileIndex`) holding the running interval-max and
//! interval-min of `alloc`. With `k` breakpoints this makes the admission
//! hot path — [`max_alloc`](CapacityProfile::max_alloc),
//! [`min_free`](CapacityProfile::min_free),
//! [`fits`](CapacityProfile::fits) and
//! [`earliest_fit`](CapacityProfile::earliest_fit) — `O(log k)` per query
//! (`earliest_fit` is `O(log k)` per busy period skipped) instead of the
//! previous `O(k)` scans. Mutations (`allocate` / `release`) remain `O(k)`
//! — they splice the breakpoint vector and then rebuild the index. Inside
//! the crate, [`crate::CapacityLedger`] checks a whole booking with the
//! read-only `overflow_at` / `underflow_at` scans, applies it with the
//! unchecked `apply_deferred`, and rebuilds each touched index once, when
//! the operation (an admission round, an expiry sweep, a stepwise plan)
//! commits.
//! The prefix areas behind [`free_volume`](CapacityProfile::free_volume)
//! are not part of that rebuild: they are built by the first `free_volume`
//! after a mutation and kept until the next one.
//!
//! The pre-index linear scans are kept as `*_linear` reference
//! implementations. They are the ground truth for the differential property
//! tests (`tests/indexed_differential.rs`) and the baseline for the perf
//! harness in `crates/bench`; the indexed queries are required to return
//! bit-identical answers (same ε-comparisons, applied to the same IEEE
//! values, in a different order — max/min are order-independent).

use crate::units::{approx_le, definitely_gt, snap_nonneg, Bandwidth, Time, EPS};
use serde::{de_field, Deserialize, Error as SerdeError, Serialize, Value};
use std::sync::OnceLock;

/// One step of the profile: the allocation level holds from `time` until the
/// next breakpoint (or forever, for the last one).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakpoint {
    /// Start of the step.
    pub time: Time,
    /// Total allocated bandwidth on `[time, next.time)` in MB/s.
    pub alloc: Bandwidth,
}

/// Implicit segment tree over the breakpoint allocation levels.
///
/// Leaves `[size, size + k)` hold `points[i].alloc` (padded to the next
/// power of two with `-∞` for `max` and `+∞` for `min`); internal node `n`
/// aggregates its children `2n` / `2n + 1`. Both aggregates are kept
/// because the two hot-path predicates are monotone in opposite
/// directions: "some step overflows" prunes on the subtree *max*, while
/// "some step fits" prunes on the subtree *min*.
#[derive(Debug, Clone, Default)]
struct ProfileIndex {
    /// Number of leaves (a power of two), 0 for an empty profile.
    size: usize,
    /// `max[n]` = maximum `alloc` in node `n`'s leaf range.
    max: Vec<f64>,
    /// `min[n]` = minimum `alloc` in node `n`'s leaf range.
    min: Vec<f64>,
    /// `area[i]` = `∫ alloc` from `points[0].time` to `points[i].time`,
    /// accumulated strictly left-to-right so the cached prefix is
    /// bit-identical to a fresh linear scan over the same breakpoints
    /// (the `free_volume` / `free_volume_linear` twin contract). Only
    /// `free_volume` reads it, so it is filled by the first such read
    /// after a mutation emptied it, not by every rebuild; the `OnceLock`
    /// lets that happen behind `&self` from any thread.
    area: OnceLock<Vec<f64>>,
}

impl ProfileIndex {
    /// Rebuild both aggregate arrays from scratch and forget the prefix
    /// areas. `O(k)`.
    fn rebuild(&mut self, points: &[Breakpoint]) {
        self.area.take();
        let n = points.len();
        let size = match n {
            0 => 0,
            _ => n.next_power_of_two(),
        };
        self.size = size;
        for (tree, pad) in [
            (&mut self.max, f64::NEG_INFINITY),
            (&mut self.min, f64::INFINITY),
        ] {
            // Every node in use is written below — leaves and padding here,
            // internal nodes by `fill_levels` — so what a same-sized tree
            // held before need not be cleared first. (Node 0 is unused.)
            tree.resize(2 * size, pad);
            let (leaves, padding) = tree[size..].split_at_mut(n);
            for (leaf, p) in leaves.iter_mut().zip(points) {
                *leaf = p.alloc;
            }
            padding.fill(pad);
        }
        // Compare-select, not `f64::max`/`min`: those must also order NaN,
        // which keeps the loops scalar. A level is never NaN — every
        // mutation and `from_breakpoints` leave finite levels, the padding
        // is ±∞ — and without NaN both forms pick the same value.
        Self::fill_levels(&mut self.max, size, |a, b| if a > b { a } else { b });
        Self::fill_levels(&mut self.min, size, |a, b| if a < b { a } else { b });
    }

    /// Fill the internal nodes of one tree from its leaves, a level at a
    /// time from the bottom: the nodes of a level are contiguous, so each
    /// pass is a straight loop over two slices that the compiler can
    /// vectorise.
    fn fill_levels(tree: &mut [f64], size: usize, pick: impl Fn(f64, f64) -> f64) {
        let mut width = size;
        while width > 1 {
            let (parents, children) = tree.split_at_mut(width);
            let pairs = children[..width].chunks_exact(2);
            for (p, c) in parents[width / 2..].iter_mut().zip(pairs) {
                *p = pick(c[0], c[1]);
            }
            width /= 2;
        }
    }

    /// Maximum `alloc` over leaf indices `[l, r)`, `-∞` if the range is
    /// empty. `O(log k)`.
    fn range_max(&self, mut l: usize, mut r: usize) -> f64 {
        let mut acc = f64::NEG_INFINITY;
        r = r.min(self.size);
        if l >= r {
            return acc;
        }
        l += self.size;
        r += self.size;
        while l < r {
            if l & 1 == 1 {
                acc = acc.max(self.max[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = acc.max(self.max[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        acc
    }

    /// First leaf index in `[l, r)` whose level satisfies `pred`, pruning
    /// subtrees by their *max* — correct for predicates that are monotone
    /// increasing in the level (e.g. "overflows"). `O(log k)` amortized.
    fn first_by_max(&self, l: usize, r: usize, pred: impl Fn(f64) -> bool + Copy) -> Option<usize> {
        if self.size == 0 || l >= r {
            return None;
        }
        self.descend(1, 0, self.size, (l, r.min(self.size)), &self.max, &pred)
    }

    /// First leaf index in `[l, r)` whose level satisfies `pred`, pruning
    /// subtrees by their *min* — correct for predicates that are monotone
    /// decreasing in the level (e.g. "fits"). `O(log k)` amortized.
    fn first_by_min(&self, l: usize, r: usize, pred: impl Fn(f64) -> bool + Copy) -> Option<usize> {
        if self.size == 0 || l >= r {
            return None;
        }
        self.descend(1, 0, self.size, (l, r.min(self.size)), &self.min, &pred)
    }

    /// Leftmost leaf of `node` (covering `[nl, nr)`) inside the query range
    /// `q` whose level satisfies `pred`; prunes on `pred(agg[node])`.
    fn descend(
        &self,
        node: usize,
        nl: usize,
        nr: usize,
        q: (usize, usize),
        agg: &[f64],
        pred: &impl Fn(f64) -> bool,
    ) -> Option<usize> {
        if nr <= q.0 || q.1 <= nl || !pred(agg[node]) {
            return None;
        }
        if nr - nl == 1 {
            return Some(nl);
        }
        let mid = nl + (nr - nl) / 2;
        self.descend(2 * node, nl, mid, q, agg, pred)
            .or_else(|| self.descend(2 * node + 1, mid, nr, q, agg, pred))
    }
}

/// Time-indexed allocation ledger for a single port.
///
/// Invariants (checked by `debug_assert` and by the property tests):
/// * breakpoints are strictly increasing in time;
/// * every `alloc` is ≥ 0 and ≤ `capacity` (+ε);
/// * the level before the first breakpoint and after the last one is 0;
/// * adjacent breakpoints never carry the same level (the representation is
///   canonical);
/// * the segment-tree index mirrors the breakpoint vector except between a
///   deferred edit and the index commit that every
///   [`crate::CapacityLedger`] operation ends with.
#[derive(Debug, Clone)]
pub struct CapacityProfile {
    capacity: Bandwidth,
    points: Vec<Breakpoint>,
    index: ProfileIndex,
    dirty: bool,
}

/// Equality is over the logical step function (capacity + breakpoints); the
/// index is derived data.
impl PartialEq for CapacityProfile {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.points == other.points
    }
}

impl Serialize for CapacityProfile {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("capacity".into(), self.capacity.to_value()),
            ("points".into(), self.points.to_value()),
        ])
    }
}

impl Deserialize for CapacityProfile {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::ty("object", v, "CapacityProfile"))?;
        let capacity: f64 = de_field(entries, "capacity")?;
        let points: Vec<Breakpoint> = de_field(entries, "points")?;
        CapacityProfile::from_breakpoints(capacity, points).map_err(SerdeError::msg)
    }
}

impl CapacityProfile {
    /// An empty profile for a port of the given capacity.
    pub fn new(capacity: Bandwidth) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be finite and positive, got {capacity}"
        );
        CapacityProfile {
            capacity,
            points: Vec::new(),
            index: ProfileIndex::default(),
            dirty: false,
        }
    }

    /// A profile from an already-canonical breakpoint vector, in `O(k)` —
    /// the bulk-load constructor for benchmarks, tests and deserialization
    /// (building the same profile through repeated
    /// [`allocate`](Self::allocate) calls would be `O(k²)`).
    ///
    /// Rejects vectors that violate the canonical-form invariants listed on
    /// [`CapacityProfile`].
    pub fn from_breakpoints(capacity: Bandwidth, points: Vec<Breakpoint>) -> Result<Self, String> {
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(format!(
                "capacity must be finite and positive, got {capacity}"
            ));
        }
        let mut prev_time = f64::NEG_INFINITY;
        let mut prev_level = 0.0_f64;
        for p in &points {
            if !p.time.is_finite() {
                return Err(format!("non-finite breakpoint time {}", p.time));
            }
            if p.time <= prev_time {
                return Err(format!(
                    "breakpoint times not strictly increasing at {}",
                    p.time
                ));
            }
            if !p.alloc.is_finite() || p.alloc < 0.0 {
                return Err(format!("allocation level {} out of range", p.alloc));
            }
            if !approx_le(p.alloc, capacity) {
                return Err(format!(
                    "allocation level {} exceeds capacity {capacity}",
                    p.alloc
                ));
            }
            if p.alloc == prev_level {
                return Err(format!(
                    "non-canonical profile: repeated level {} at {}",
                    p.alloc, p.time
                ));
            }
            prev_time = p.time;
            prev_level = p.alloc;
        }
        if let Some(last) = points.last() {
            if last.alloc != 0.0 {
                return Err(format!(
                    "profile does not return to zero (trailing level {})",
                    last.alloc
                ));
            }
        }
        let mut index = ProfileIndex::default();
        index.rebuild(&points);
        Ok(CapacityProfile {
            capacity,
            points,
            index,
            dirty: false,
        })
    }

    /// The port capacity this profile enforces.
    #[inline]
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Number of breakpoints currently stored (diagnostic).
    #[inline]
    pub fn breakpoint_count(&self) -> usize {
        self.points.len()
    }

    /// True if nothing is currently allocated at any time.
    pub fn is_empty(&self) -> bool {
        self.points.iter().all(|p| p.alloc == 0.0)
    }

    /// The breakpoints of the step function, for inspection and plotting.
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.points
    }

    fn check_interval(t0: Time, t1: Time, bw: Bandwidth) -> Result<(), String> {
        if !t0.is_finite() || !t1.is_finite() {
            return Err(format!("non-finite interval [{t0}, {t1})"));
        }
        if t1 - t0 <= EPS {
            return Err(format!("empty or reversed interval [{t0}, {t1})"));
        }
        if !bw.is_finite() || bw <= 0.0 {
            return Err(format!("bandwidth must be finite and positive, got {bw}"));
        }
        Ok(())
    }

    /// Index of the last breakpoint with `time <= t`, if any.
    fn step_index(&self, t: Time) -> Option<usize> {
        match self
            .points
            .binary_search_by(|p| p.time.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Rebuild the index from the breakpoint vector and clear the dirty
    /// flag.
    fn rebuild_index(&mut self) {
        self.index.rebuild(&self.points);
        self.dirty = false;
    }

    /// Rebuild the index if a deferred edit left it stale. Every
    /// [`crate::CapacityLedger`] operation that edits through
    /// [`Self::apply_deferred`] calls this once per port before it returns.
    pub(crate) fn commit_index(&mut self) {
        if self.dirty {
            self.rebuild_index();
        }
    }

    /// Indexed queries must not run against a stale index; the deferred
    /// edit is `pub(crate)` and every crate-internal batch ends with
    /// [`Self::commit_index`], so a failure here is a ledger bug.
    #[inline]
    fn assert_index_fresh(&self) {
        debug_assert!(
            !self.dirty,
            "indexed query on a profile with a deferred (stale) index"
        );
    }

    /// Total bandwidth allocated at instant `t`.
    pub fn alloc_at(&self, t: Time) -> Bandwidth {
        self.step_index(t).map_or(0.0, |i| self.points[i].alloc)
    }

    /// Remaining free bandwidth at instant `t`.
    pub fn free_at(&self, t: Time) -> Bandwidth {
        snap_nonneg(self.capacity - self.alloc_at(t))
    }

    /// The leaf range `[lo, hi)` of breakpoints whose steps start strictly
    /// inside `(t0, t1)`; together with the level at `t0` it covers
    /// `[t0, t1)`.
    #[inline]
    fn interior_range(&self, t0: Time, t1: Time) -> (usize, usize) {
        let lo = self.step_index(t0).map_or(0, |i| i + 1);
        let hi = self.points.partition_point(|p| p.time < t1);
        (lo, hi)
    }

    /// Maximum allocation over `[t0, t1)`. `O(log k)` via the index.
    pub fn max_alloc(&self, t0: Time, t1: Time) -> Bandwidth {
        self.assert_index_fresh();
        let base = self.alloc_at(t0);
        let (lo, hi) = self.interior_range(t0, t1);
        let m = self.index.range_max(lo, hi);
        if m > base {
            m
        } else {
            base
        }
    }

    /// Reference implementation of [`max_alloc`](Self::max_alloc): the
    /// original `O(k)` scan, kept as ground truth for the differential
    /// property tests and as the baseline for the perf harness.
    pub fn max_alloc_linear(&self, t0: Time, t1: Time) -> Bandwidth {
        let mut max = self.alloc_at(t0);
        let start = self.step_index(t0).map_or(0, |i| i + 1);
        for p in &self.points[start..] {
            if p.time >= t1 {
                break;
            }
            if p.alloc > max {
                max = p.alloc;
            }
        }
        max
    }

    /// Minimum free bandwidth over `[t0, t1)` — the largest constant rate a
    /// new reservation could add over that interval. `O(log k)`.
    pub fn min_free(&self, t0: Time, t1: Time) -> Bandwidth {
        snap_nonneg(self.capacity - self.max_alloc(t0, t1))
    }

    /// Reference implementation of [`min_free`](Self::min_free) (see
    /// [`max_alloc_linear`](Self::max_alloc_linear)).
    pub fn min_free_linear(&self, t0: Time, t1: Time) -> Bandwidth {
        snap_nonneg(self.capacity - self.max_alloc_linear(t0, t1))
    }

    /// Whether an extra `bw` fits everywhere on `[t0, t1)` (ε-tolerant).
    /// `O(log k)`.
    pub fn fits(&self, t0: Time, t1: Time, bw: Bandwidth) -> bool {
        approx_le(self.max_alloc(t0, t1) + bw, self.capacity)
    }

    /// Reference implementation of [`fits`](Self::fits) (see
    /// [`max_alloc_linear`](Self::max_alloc_linear)).
    pub fn fits_linear(&self, t0: Time, t1: Time, bw: Bandwidth) -> bool {
        approx_le(self.max_alloc_linear(t0, t1) + bw, self.capacity)
    }

    /// Ensure a breakpoint exists exactly at `t`, splitting the enclosing
    /// step if needed. Returns its index.
    fn ensure_breakpoint(&mut self, t: Time) -> usize {
        match self
            .points
            .binary_search_by(|p| p.time.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => i,
            Err(i) => {
                let level = if i == 0 {
                    0.0
                } else {
                    self.points[i - 1].alloc
                };
                self.points.insert(
                    i,
                    Breakpoint {
                        time: t,
                        alloc: level,
                    },
                );
                i
            }
        }
    }

    /// Remove the redundant breakpoints (a level equal to the one before
    /// it, a zero head) among `points[i0..=i1]` after the levels of
    /// `points[i0..i1]` changed. The profile was canonical before, and a
    /// breakpoint outside that range kept both its level and the level
    /// before it, so only those can have become redundant.
    fn canonicalize(&mut self, i0: usize, i1: usize) {
        let mut prev_level = match i0 {
            0 => 0.0,
            _ => self.points[i0 - 1].alloc,
        };
        let mut kept = i0;
        for i in i0..=i1 {
            let p = self.points[i];
            if p.alloc != prev_level {
                prev_level = p.alloc;
                self.points[kept] = p;
                kept += 1;
            }
        }
        self.points.drain(kept..=i1);
    }

    /// Add `bw` on `[t0, t1)`, failing without modification if the port
    /// capacity would be exceeded anywhere in the interval.
    ///
    /// Returns the earliest overflow time on failure.
    pub fn allocate(&mut self, t0: Time, t1: Time, bw: Bandwidth) -> Result<(), Time> {
        if let Err(msg) = Self::check_interval(t0, t1, bw) {
            panic!("CapacityProfile::allocate: {msg}");
        }
        if let Some(at) = self.overflow_at(t0, t1, bw) {
            return Err(at);
        }
        self.apply_deferred(t0, t1, bw);
        self.commit_index();
        Ok(())
    }

    /// Subtract `bw` on `[t0, t1)`, failing (without modification) if the
    /// allocation would go negative — which means the release does not match
    /// a prior allocation.
    pub fn release(&mut self, t0: Time, t1: Time, bw: Bandwidth) -> Result<(), Time> {
        if let Err(msg) = Self::check_interval(t0, t1, bw) {
            panic!("CapacityProfile::release: {msg}");
        }
        if let Some(at) = self.underflow_at(t0, t1, bw) {
            return Err(at);
        }
        self.apply_deferred(t0, t1, -bw);
        self.commit_index();
        Ok(())
    }

    /// The earliest instant of `[t0, t1)` at which an extra `bw` would
    /// exceed the capacity, if any — the check [`allocate`](Self::allocate)
    /// runs before it edits. Deliberately linear over the breakpoint
    /// vector (not the index): it stays correct mid-batch while the index
    /// is dirty, and the splice that follows is `O(k)` anyway.
    pub(crate) fn overflow_at(&self, t0: Time, t1: Time, bw: Bandwidth) -> Option<Time> {
        self.first_step_where(t0, t1, |level| definitely_gt(level + bw, self.capacity))
    }

    /// The earliest instant of `[t0, t1)` at which taking `bw` off would
    /// leave a negative level, if any — the check
    /// [`release`](Self::release) runs before it edits (see
    /// [`Self::overflow_at`]).
    pub(crate) fn underflow_at(&self, t0: Time, t1: Time, bw: Bandwidth) -> Option<Time> {
        self.first_step_where(t0, t1, |level| definitely_gt(bw - level, 0.0))
    }

    /// Start of the first step of `[t0, t1)` whose level satisfies `bad`
    /// (`t0` itself for the step spanning it), by a linear scan.
    fn first_step_where(&self, t0: Time, t1: Time, bad: impl Fn(f64) -> bool) -> Option<Time> {
        if bad(self.alloc_at(t0)) {
            return Some(t0);
        }
        let start = self.step_index(t0).map_or(0, |i| i + 1);
        self.points[start..]
            .iter()
            .take_while(|p| p.time < t1)
            .find(|p| bad(p.alloc))
            .map(|p| p.time)
    }

    /// Threshold below which an allocation level is floating-point residue
    /// from add/subtract round-trips, not a real reservation. Three orders
    /// of magnitude under [`EPS`] and six under the smallest rate the
    /// workloads generate (10 MB/s).
    const LEVEL_SNAP: f64 = 1e-9;

    /// Unchecked signed adjustment of the level on `[t0, t1)`, leaving the
    /// index stale: the caller has already run [`Self::overflow_at`] or
    /// [`Self::underflow_at`], and must finish with
    /// [`Self::commit_index`] before any indexed query runs.
    pub(crate) fn apply_deferred(&mut self, t0: Time, t1: Time, delta: Bandwidth) {
        debug_assert!(Self::check_interval(t0, t1, delta.abs()).is_ok());
        let i0 = self.ensure_breakpoint(t0);
        let i1 = self.ensure_breakpoint(t1);
        for p in &mut self.points[i0..i1] {
            let mut level = snap_nonneg(p.alloc + delta);
            if level < Self::LEVEL_SNAP {
                level = 0.0;
            }
            p.alloc = level;
        }
        self.canonicalize(i0, i1);
        self.debug_check();
        // The prefix areas do not wait for the commit: `free_volume`
        // rebuilds them from the breakpoints whenever they are gone.
        self.index.area.take();
        self.dirty = true;
    }

    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            for w in self.points.windows(2) {
                debug_assert!(w[0].time < w[1].time, "breakpoints out of order");
                debug_assert!(w[0].alloc != w[1].alloc, "non-canonical profile");
            }
            for p in &self.points {
                debug_assert!(p.alloc >= 0.0, "negative allocation {}", p.alloc);
                debug_assert!(
                    approx_le(p.alloc, self.capacity),
                    "allocation {} exceeds capacity {}",
                    p.alloc,
                    self.capacity
                );
            }
            if let Some(last) = self.points.last() {
                debug_assert!(last.alloc == 0.0, "profile does not return to zero");
            }
        }
    }

    /// Drop every breakpoint strictly before `watermark`, preserving the
    /// step function on `[watermark, ∞)` bit-for-bit: if the step spanning
    /// the watermark carries a non-zero level, its start moves to the
    /// watermark so `alloc_at(t)` is unchanged for every `t ≥ watermark`.
    /// History before the watermark is forgotten — queries there will
    /// report level 0, which is exactly the contract of GC.
    ///
    /// Returns the number of breakpoints dropped. A non-finite watermark
    /// is a no-op (`-∞` is the "never collected" sentinel). `O(k)` with a
    /// single index rebuild, intended to run once per engine round.
    pub fn truncate_before(&mut self, watermark: Time) -> usize {
        if !watermark.is_finite() {
            return 0;
        }
        let mut cut = self.points.partition_point(|p| p.time < watermark);
        if cut == 0 {
            return 0;
        }
        let exact = self.points.get(cut).is_some_and(|p| p.time == watermark);
        let carry = self.points[cut - 1].alloc;
        let before = self.points.len();
        if !exact && carry != 0.0 {
            // The step spanning the watermark keeps its level: slide its
            // start up to the watermark and drop everything before it.
            self.points[cut - 1].time = watermark;
            cut -= 1;
        }
        self.points.drain(..cut);
        // A head breakpoint at level 0 is redundant (the level before the
        // first breakpoint is 0 by invariant) and would be non-canonical.
        if self.points.first().is_some_and(|p| p.alloc == 0.0) {
            self.points.remove(0);
        }
        self.debug_check();
        self.rebuild_index();
        before - self.points.len()
    }

    /// `∫ alloc(t) dt` over `[t0, t1)` — reserved bandwidth-seconds, used for
    /// utilization accounting. `O(k)`: every step in range contributes, so
    /// there is nothing for an index to skip.
    pub fn integral_alloc(&self, t0: Time, t1: Time) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut seg_start = t0;
        let mut level = self.alloc_at(t0);
        let start = self.step_index(t0).map_or(0, |i| i + 1);
        for p in &self.points[start..] {
            if p.time >= t1 {
                break;
            }
            total += level * (p.time - seg_start);
            seg_start = p.time;
            level = p.alloc;
        }
        total += level * (t1 - seg_start);
        total
    }

    /// Fraction of `[t0, t1)` during which the allocation is at or above
    /// `threshold` (e.g. `busy_fraction(t0, t1, 0.9 × capacity)` — how
    /// long the port ran ≥ 90% full). Capacity planning helper, `O(k)`.
    pub fn busy_fraction(&self, t0: Time, t1: Time, threshold: Bandwidth) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut busy = 0.0;
        let mut seg_start = t0;
        let mut level = self.alloc_at(t0);
        let start = self.step_index(t0).map_or(0, |i| i + 1);
        for p in &self.points[start..] {
            if p.time >= t1 {
                break;
            }
            if level + EPS >= threshold {
                busy += p.time - seg_start;
            }
            seg_start = p.time;
            level = p.alloc;
        }
        if level + EPS >= threshold {
            busy += t1 - seg_start;
        }
        busy / (t1 - t0)
    }

    /// Earliest start `s ∈ [after, latest_start]` such that `bw` fits on
    /// `[s, s + duration)`, or `None`.
    ///
    /// `latest_start` bounds the *start* time; pass `f64::INFINITY` for an
    /// unconstrained search. A non-finite `after` or a NaN `latest_start`
    /// yields `None` (there is no meaningful earliest start). Used by
    /// book-ahead extensions (the paper's heuristics always start at the
    /// request/decision time, but the profile supports full advance
    /// reservation).
    ///
    /// `O(log k)` per busy period skipped: conflicts and restart points are
    /// both located by segment-tree descent, and the restart scan is
    /// bounded by `latest_start` — it never walks breakpoints past the
    /// deadline.
    pub fn earliest_fit(
        &self,
        after: Time,
        duration: Time,
        bw: Bandwidth,
        latest_start: Time,
    ) -> Option<Time> {
        assert!(duration > 0.0 && bw > 0.0);
        if !after.is_finite() || latest_start.is_nan() {
            return None;
        }
        self.assert_index_fresh();
        // Restart candidates past this leaf index start after the deadline
        // and would only be rejected by the loop guard below.
        let bound = self
            .points
            .partition_point(|p| p.time <= latest_start + EPS);
        let mut candidate = after;
        loop {
            if candidate > latest_start + EPS {
                return None;
            }
            // Find the first conflicting breakpoint within the window.
            let end = candidate + duration;
            let conflict = if definitely_gt(self.alloc_at(candidate) + bw, self.capacity) {
                Some(candidate)
            } else {
                let (lo, hi) = self.interior_range(candidate, end);
                self.index
                    .first_by_max(lo, hi, |a| definitely_gt(a + bw, self.capacity))
                    .map(|i| self.points[i].time)
            };
            match conflict {
                None => return Some(candidate),
                Some(t_conf) => {
                    // Restart at the first later step where the level fits.
                    let from = self.points.partition_point(|p| p.time <= t_conf);
                    match self
                        .index
                        .first_by_min(from, bound, |a| approx_le(a + bw, self.capacity))
                    {
                        Some(i) => candidate = self.points[i].time,
                        None => return None,
                    }
                }
            }
        }
    }

    /// Reference implementation of [`earliest_fit`](Self::earliest_fit):
    /// `O(k)` scans, same ε-semantics and the same input validation and
    /// deadline-bounded restart. Ground truth for the differential property
    /// tests and the perf-harness baseline.
    pub fn earliest_fit_linear(
        &self,
        after: Time,
        duration: Time,
        bw: Bandwidth,
        latest_start: Time,
    ) -> Option<Time> {
        assert!(duration > 0.0 && bw > 0.0);
        if !after.is_finite() || latest_start.is_nan() {
            return None;
        }
        let mut candidate = after;
        loop {
            if candidate > latest_start + EPS {
                return None;
            }
            let end = candidate + duration;
            let mut conflict: Option<Time> = None;
            if definitely_gt(self.alloc_at(candidate) + bw, self.capacity) {
                conflict = Some(candidate);
            } else {
                let start = self.step_index(candidate).map_or(0, |i| i + 1);
                for p in &self.points[start..] {
                    if p.time >= end {
                        break;
                    }
                    if definitely_gt(p.alloc + bw, self.capacity) {
                        conflict = Some(p.time);
                        break;
                    }
                }
            }
            match conflict {
                None => return Some(candidate),
                Some(t_conf) => {
                    let next = self
                        .points
                        .iter()
                        .take_while(|p| p.time <= latest_start + EPS)
                        .find(|p| p.time > t_conf && approx_le(p.alloc + bw, self.capacity))
                        .map(|p| p.time);
                    match next {
                        Some(t) => candidate = t,
                        None => return None,
                    }
                }
            }
        }
    }

    /// Residual volume over `[t0, t1)`: `capacity × (t1 − t0) − ∫ alloc`,
    /// in MB. This is the upper bound on what any allocation — constant or
    /// stepwise — could still push through the port inside the window, and
    /// the quantity the malleable solver prechecks instead of rescanning
    /// breakpoints. `O(log k)` via the prefix areas cached in the index;
    /// the first call after a mutation builds them, `O(k)`.
    ///
    /// An empty or reversed window yields 0.
    pub fn free_volume(&self, t0: Time, t1: Time) -> f64 {
        self.assert_index_fresh();
        if t1 <= t0 {
            return 0.0;
        }
        let alloc = self.area_to_indexed(t1) - self.area_to_indexed(t0);
        snap_nonneg(self.capacity * (t1 - t0) - alloc)
    }

    /// `∫ alloc` from the first breakpoint to `t`, read off the cached
    /// prefix array. 0 for instants before the first breakpoint.
    fn area_to_indexed(&self, t: Time) -> f64 {
        match self.step_index(t) {
            None => 0.0,
            Some(i) => self.prefix_areas()[i] + self.points[i].alloc * (t - self.points[i].time),
        }
    }

    /// The cached prefix areas, accumulated now if a mutation dropped them
    /// — by the additions of [`area_to_linear`](Self::area_to_linear), in
    /// its order.
    fn prefix_areas(&self) -> &[f64] {
        self.index.area.get_or_init(|| {
            let mut acc = 0.0_f64;
            let steps = self.points.windows(2).map(|w| {
                acc += w[0].alloc * (w[1].time - w[0].time);
                acc
            });
            std::iter::once(0.0).chain(steps).collect()
        })
    }

    /// Reference implementation of [`free_volume`](Self::free_volume): the
    /// `O(k)` scan, accumulating the prefix area left-to-right exactly as
    /// the index rebuild does, so indexed and linear answers are
    /// bit-identical (same IEEE additions, in the same order). Ground
    /// truth for the differential property tests.
    pub fn free_volume_linear(&self, t0: Time, t1: Time) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let alloc = self.area_to_linear(t1) - self.area_to_linear(t0);
        snap_nonneg(self.capacity * (t1 - t0) - alloc)
    }

    fn area_to_linear(&self, t: Time) -> f64 {
        let Some(i) = self.step_index(t) else {
            return 0.0;
        };
        let mut acc = 0.0_f64;
        for j in 0..i {
            acc += self.points[j].alloc * (self.points[j + 1].time - self.points[j].time);
        }
        acc + self.points[i].alloc * (t - self.points[i].time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CapacityProfile {
        CapacityProfile::new(100.0)
    }

    #[test]
    fn empty_profile_is_all_free() {
        let p = profile();
        assert_eq!(p.alloc_at(0.0), 0.0);
        assert_eq!(p.free_at(123.0), 100.0);
        assert_eq!(p.min_free(0.0, 1e9), 100.0);
        assert!(p.is_empty());
        assert_eq!(p.breakpoint_count(), 0);
    }

    #[test]
    fn single_allocation_shapes_the_step_function() {
        let mut p = profile();
        p.allocate(10.0, 20.0, 40.0).unwrap();
        assert_eq!(p.alloc_at(9.999), 0.0);
        assert_eq!(p.alloc_at(10.0), 40.0);
        assert_eq!(p.alloc_at(19.999), 40.0);
        assert_eq!(p.alloc_at(20.0), 0.0, "half-open interval");
        assert_eq!(p.free_at(15.0), 60.0);
    }

    #[test]
    fn stacked_allocations_sum() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 30.0).unwrap();
        p.allocate(5.0, 15.0, 30.0).unwrap();
        assert_eq!(p.alloc_at(2.0), 30.0);
        assert_eq!(p.alloc_at(7.0), 60.0);
        assert_eq!(p.alloc_at(12.0), 30.0);
        assert_eq!(p.max_alloc(0.0, 15.0), 60.0);
        assert_eq!(p.min_free(0.0, 15.0), 40.0);
    }

    #[test]
    fn free_volume_subtracts_the_allocated_area() {
        let mut p = profile();
        assert_eq!(p.free_volume(0.0, 10.0), 1000.0);
        p.allocate(2.0, 6.0, 40.0).unwrap();
        // 100×10 − 40×4 = 840 over the full window.
        assert_eq!(p.free_volume(0.0, 10.0), 840.0);
        // Window clipped inside the allocation: 100×2 − 40×2 = 120.
        assert_eq!(p.free_volume(3.0, 5.0), 120.0);
        // Straddling the end: 100×6 − 40×2 = 520.
        assert_eq!(p.free_volume(4.0, 10.0), 520.0);
        // Empty and reversed windows are zero.
        assert_eq!(p.free_volume(5.0, 5.0), 0.0);
        assert_eq!(p.free_volume(7.0, 3.0), 0.0);
        // Fully saturated window has no residual volume.
        p.allocate(2.0, 6.0, 60.0).unwrap();
        assert_eq!(p.free_volume(2.0, 6.0), 0.0);
    }

    #[test]
    fn free_volume_matches_linear_oracle_bit_exactly() {
        // Awkward float rates and times: indexed (cached prefix) and
        // linear (fresh scan) must agree to the last bit.
        let mut p = profile();
        let mut t = 0.1_f64;
        for k in 0..40 {
            let dur = 1.0 + (k as f64) * 0.37;
            let bw = 0.1 + (k as f64 % 7.0) * 3.3;
            p.allocate(t, t + dur, bw).unwrap();
            t += 0.71 + (k as f64) * 0.13;
        }
        let mut q0 = -3.3_f64;
        while q0 < t + 5.0 {
            let mut q1 = q0 + 0.17;
            while q1 < t + 7.0 {
                let a = p.free_volume(q0, q1);
                let b = p.free_volume_linear(q0, q1);
                assert_eq!(a.to_bits(), b.to_bits(), "window [{q0}, {q1})");
                q1 += 2.89;
            }
            q0 += 1.31;
        }
    }

    #[test]
    fn overflow_is_rejected_atomically() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 80.0).unwrap();
        let before = p.clone();
        let err = p.allocate(5.0, 20.0, 30.0);
        assert_eq!(err, Err(5.0), "overflow detected at the stacked step");
        assert_eq!(p, before, "failed allocate must not modify the profile");
        // Non-overlapping retry succeeds.
        p.allocate(10.0, 20.0, 30.0).unwrap();
    }

    #[test]
    fn exact_capacity_fill_is_allowed() {
        let mut p = profile();
        p.allocate(0.0, 5.0, 60.0).unwrap();
        p.allocate(0.0, 5.0, 40.0).unwrap();
        assert_eq!(p.free_at(2.0), 0.0);
        assert!(p.allocate(0.0, 5.0, 1.0).is_err());
    }

    #[test]
    fn release_restores_previous_state() {
        let mut p = profile();
        let initial = p.clone();
        p.allocate(0.0, 10.0, 25.0).unwrap();
        p.allocate(3.0, 6.0, 25.0).unwrap();
        p.release(3.0, 6.0, 25.0).unwrap();
        p.release(0.0, 10.0, 25.0).unwrap();
        assert_eq!(p, initial, "canonical form makes round-trips exact");
    }

    #[test]
    fn release_underflow_is_rejected() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 25.0).unwrap();
        assert!(p.release(0.0, 12.0, 25.0).is_err(), "tail not allocated");
        assert!(p.release(0.0, 10.0, 30.0).is_err(), "too much bandwidth");
        // Profile unchanged by the failures.
        assert_eq!(p.alloc_at(5.0), 25.0);
        p.release(0.0, 10.0, 25.0).unwrap();
    }

    #[test]
    fn fits_is_consistent_with_allocate() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 70.0).unwrap();
        assert!(p.fits(0.0, 10.0, 30.0));
        assert!(!p.fits(0.0, 10.0, 31.0));
        assert!(p.fits(10.0, 20.0, 100.0));
    }

    #[test]
    fn integral_alloc_measures_reserved_area() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 50.0).unwrap();
        p.allocate(5.0, 10.0, 20.0).unwrap();
        // 5s * 50 + 5s * 70 = 600
        assert!((p.integral_alloc(0.0, 10.0) - 600.0).abs() < 1e-9);
        // Sub-interval and over-extended queries.
        assert!((p.integral_alloc(4.0, 6.0) - (50.0 + 70.0)).abs() < 1e-9);
        assert!((p.integral_alloc(0.0, 20.0) - 600.0).abs() < 1e-9);
        assert_eq!(p.integral_alloc(3.0, 3.0), 0.0);
    }

    #[test]
    fn earliest_fit_skips_busy_periods() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 90.0).unwrap();
        p.allocate(15.0, 20.0, 90.0).unwrap();
        // 20 MB/s for 4s doesn't fit inside [0,10) or [15,20) but fits in the gap.
        assert_eq!(p.earliest_fit(0.0, 4.0, 20.0, f64::INFINITY), Some(10.0));
        // ...but a 6s transfer does not fit in the 5s gap; must wait until 20.
        assert_eq!(p.earliest_fit(0.0, 6.0, 20.0, f64::INFINITY), Some(20.0));
        // A thin transfer fits immediately.
        assert_eq!(p.earliest_fit(0.0, 100.0, 10.0, f64::INFINITY), Some(0.0));
        // Latest-start bound is honoured.
        assert_eq!(p.earliest_fit(0.0, 6.0, 20.0, 12.0), None);
    }

    #[test]
    fn earliest_fit_rejects_non_finite_inputs() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 90.0).unwrap();
        // An infinite `after` used to slip through the deadline guard and
        // come back as Some(inf); NaN used to panic inside the breakpoint
        // binary search.
        assert_eq!(
            p.earliest_fit(f64::INFINITY, 1.0, 20.0, f64::INFINITY),
            None
        );
        assert_eq!(p.earliest_fit(f64::NEG_INFINITY, 1.0, 20.0, 5.0), None);
        assert_eq!(p.earliest_fit(f64::NAN, 1.0, 20.0, 5.0), None);
        // NaN deadline means "no valid start exists", not "unbounded".
        assert_eq!(p.earliest_fit(0.0, 1.0, 20.0, f64::NAN), None);
        // The linear reference applies the same validation.
        assert_eq!(
            p.earliest_fit_linear(f64::INFINITY, 1.0, 20.0, f64::INFINITY),
            None
        );
        assert_eq!(p.earliest_fit_linear(f64::NAN, 1.0, 20.0, 5.0), None);
        assert_eq!(p.earliest_fit_linear(0.0, 1.0, 20.0, f64::NAN), None);
    }

    #[test]
    fn earliest_fit_restart_scan_respects_deadline() {
        // Busy head, then a long alternating tail after the deadline. The
        // restart scan must stop at the deadline instead of walking (or
        // worse, using) post-deadline breakpoints.
        let mut p = profile();
        p.allocate(0.0, 10.0, 95.0).unwrap();
        for i in 0..50 {
            let t0 = 20.0 + 2.0 * i as f64;
            p.allocate(t0, t0 + 1.0, 50.0).unwrap();
        }
        // Fits only after t=10, but the deadline is 5: no valid start.
        assert_eq!(p.earliest_fit(0.0, 4.0, 20.0, 5.0), None);
        assert_eq!(p.earliest_fit_linear(0.0, 4.0, 20.0, 5.0), None);
        // With a permissive deadline the gap at 10 is found.
        assert_eq!(p.earliest_fit(0.0, 4.0, 20.0, 1e9), Some(10.0));
        assert_eq!(p.earliest_fit_linear(0.0, 4.0, 20.0, 1e9), Some(10.0));
    }

    #[test]
    fn adjacent_intervals_share_capacity_cleanly() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 100.0).unwrap();
        // A transfer starting exactly when the previous ends fits.
        p.allocate(10.0, 20.0, 100.0).unwrap();
        assert_eq!(p.max_alloc(0.0, 20.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty or reversed")]
    fn reversed_interval_panics() {
        profile().allocate(5.0, 4.0, 1.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        profile().allocate(0.0, 1.0, 0.0).unwrap();
    }

    #[test]
    fn busy_fraction_measures_time_above_threshold() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 90.0).unwrap(); // ≥ 80 for 10 s
        p.allocate(10.0, 20.0, 50.0).unwrap(); // below 80 for 10 s
        assert!((p.busy_fraction(0.0, 20.0, 80.0) - 0.5).abs() < 1e-12);
        assert!((p.busy_fraction(0.0, 20.0, 40.0) - 1.0).abs() < 1e-12);
        assert_eq!(p.busy_fraction(20.0, 30.0, 1.0), 0.0);
        assert_eq!(p.busy_fraction(5.0, 5.0, 1.0), 0.0);
        // Threshold 0 counts everything.
        assert_eq!(p.busy_fraction(0.0, 20.0, 0.0), 1.0);
    }

    #[test]
    fn canonical_representation_prunes_redundant_points() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 10.0).unwrap();
        p.allocate(10.0, 20.0, 10.0).unwrap();
        // Same level across the seam: one step only.
        assert_eq!(p.breakpoint_count(), 2);
        p.release(0.0, 20.0, 10.0).unwrap();
        assert_eq!(p.breakpoint_count(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn from_breakpoints_accepts_canonical_vectors() {
        let pts = vec![
            Breakpoint {
                time: 0.0,
                alloc: 30.0,
            },
            Breakpoint {
                time: 5.0,
                alloc: 60.0,
            },
            Breakpoint {
                time: 10.0,
                alloc: 0.0,
            },
        ];
        let p = CapacityProfile::from_breakpoints(100.0, pts).unwrap();
        // Identical to the profile built by allocate calls.
        let mut q = profile();
        q.allocate(0.0, 10.0, 30.0).unwrap();
        q.allocate(5.0, 10.0, 30.0).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.max_alloc(0.0, 10.0), 60.0);
    }

    #[test]
    fn from_breakpoints_rejects_invalid_vectors() {
        let bp = |time, alloc| Breakpoint { time, alloc };
        // Out-of-order times.
        assert!(
            CapacityProfile::from_breakpoints(100.0, vec![bp(5.0, 10.0), bp(1.0, 0.0)]).is_err()
        );
        // Repeated level (non-canonical).
        assert!(
            CapacityProfile::from_breakpoints(100.0, vec![bp(0.0, 10.0), bp(5.0, 10.0)]).is_err()
        );
        // Zero head (non-canonical).
        assert!(CapacityProfile::from_breakpoints(100.0, vec![bp(0.0, 0.0)]).is_err());
        // Trailing non-zero level.
        assert!(CapacityProfile::from_breakpoints(100.0, vec![bp(0.0, 10.0)]).is_err());
        // Over capacity.
        assert!(
            CapacityProfile::from_breakpoints(100.0, vec![bp(0.0, 150.0), bp(1.0, 0.0)]).is_err()
        );
        // Non-finite time.
        assert!(
            CapacityProfile::from_breakpoints(100.0, vec![bp(f64::NAN, 10.0), bp(1.0, 0.0)])
                .is_err()
        );
        assert!(CapacityProfile::from_breakpoints(f64::INFINITY, vec![]).is_err());
    }

    #[test]
    fn indexed_queries_match_linear_reference() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 30.0).unwrap();
        p.allocate(2.0, 8.0, 40.0).unwrap();
        p.allocate(6.0, 14.0, 25.0).unwrap();
        p.release(2.0, 8.0, 40.0).unwrap();
        p.allocate(12.0, 20.0, 70.0).unwrap();
        let windows = [
            (0.0, 1.0),
            (0.0, 20.0),
            (-5.0, 3.0),
            (7.5, 12.5),
            (13.0, 30.0),
            (25.0, 26.0),
        ];
        for &(a, b) in &windows {
            assert_eq!(p.max_alloc(a, b), p.max_alloc_linear(a, b), "[{a}, {b})");
            assert_eq!(p.min_free(a, b), p.min_free_linear(a, b), "[{a}, {b})");
            for bw in [1.0, 10.0, 70.0, 100.0] {
                assert_eq!(p.fits(a, b, bw), p.fits_linear(a, b, bw), "[{a}, {b}) {bw}");
            }
        }
        for bw in [5.0, 20.0, 75.0] {
            for dur in [0.5, 3.0, 9.0] {
                assert_eq!(
                    p.earliest_fit(0.0, dur, bw, 100.0),
                    p.earliest_fit_linear(0.0, dur, bw, 100.0),
                    "bw={bw} dur={dur}"
                );
            }
        }
    }

    #[test]
    fn truncate_before_preserves_future_answers() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 30.0).unwrap();
        p.allocate(5.0, 15.0, 20.0).unwrap();
        p.allocate(20.0, 30.0, 60.0).unwrap();
        let reference = p.clone();
        // Watermark mid-step: the spanning step's level must carry over.
        let dropped = p.truncate_before(7.0);
        assert!(dropped > 0);
        assert_eq!(p.alloc_at(7.0), 50.0);
        for t in [7.0, 9.999, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 40.0] {
            assert_eq!(p.alloc_at(t), reference.alloc_at(t), "alloc_at({t})");
        }
        assert_eq!(p.max_alloc(7.0, 40.0), reference.max_alloc(7.0, 40.0));
        assert_eq!(
            p.earliest_fit(7.0, 5.0, 60.0, 1e9),
            reference.earliest_fit(7.0, 5.0, 60.0, 1e9)
        );
        // History is forgotten.
        assert_eq!(p.alloc_at(2.0), 0.0);
        // The result is canonical: it survives from_breakpoints.
        CapacityProfile::from_breakpoints(p.capacity(), p.breakpoints().to_vec()).unwrap();
    }

    #[test]
    fn truncate_before_edge_cases() {
        let mut p = profile();
        p.allocate(0.0, 10.0, 30.0).unwrap();
        // Non-finite watermark (the "never collected" sentinel): no-op.
        assert_eq!(p.truncate_before(f64::NEG_INFINITY), 0);
        assert_eq!(p.truncate_before(f64::NAN), 0);
        // Watermark before all history: no-op.
        assert_eq!(p.truncate_before(-5.0), 0);
        assert_eq!(p.breakpoint_count(), 2);
        // Watermark exactly on a breakpoint: the breakpoint is kept, the
        // earlier ones dropped.
        let mut q = profile();
        q.allocate(0.0, 10.0, 30.0).unwrap();
        q.allocate(10.0, 20.0, 50.0).unwrap();
        assert_eq!(q.truncate_before(10.0), 1);
        assert_eq!(q.alloc_at(10.0), 50.0);
        assert_eq!(q.alloc_at(20.0), 0.0);
        CapacityProfile::from_breakpoints(q.capacity(), q.breakpoints().to_vec()).unwrap();
        // Watermark exactly on the trailing zero: everything goes.
        let mut r = profile();
        r.allocate(0.0, 10.0, 30.0).unwrap();
        assert_eq!(r.truncate_before(10.0), 2);
        assert_eq!(r.breakpoint_count(), 0);
        assert!(r.is_empty());
        // Watermark past all history: everything goes.
        let mut s = profile();
        s.allocate(0.0, 10.0, 30.0).unwrap();
        assert_eq!(s.truncate_before(11.0), 2);
        assert_eq!(s.breakpoint_count(), 0);
        // Zero-level gap at the watermark: no head is materialized.
        let mut g = profile();
        g.allocate(0.0, 10.0, 30.0).unwrap();
        g.allocate(20.0, 30.0, 40.0).unwrap();
        assert_eq!(g.truncate_before(15.0), 2);
        assert_eq!(g.breakpoints()[0].time, 20.0);
        assert_eq!(g.alloc_at(25.0), 40.0);
        CapacityProfile::from_breakpoints(g.capacity(), g.breakpoints().to_vec()).unwrap();
    }

    #[test]
    fn serde_round_trip_preserves_profile() {
        let mut p = profile();
        p.allocate(1.5, 7.25, 33.5).unwrap();
        p.allocate(4.0, 9.0, 12.5).unwrap();
        let v = p.to_value();
        let q = CapacityProfile::from_value(&v).unwrap();
        assert_eq!(p, q);
        // The rebuilt index answers queries.
        assert_eq!(q.max_alloc(0.0, 10.0), p.max_alloc_linear(0.0, 10.0));
        // Corrupted documents are rejected, not trusted.
        let bad = Value::Object(vec![
            ("capacity".into(), 100.0.to_value()),
            (
                "points".into(),
                vec![
                    Breakpoint {
                        time: 5.0,
                        alloc: 10.0,
                    },
                    Breakpoint {
                        time: 1.0,
                        alloc: 0.0,
                    },
                ]
                .to_value(),
            ),
        ]);
        assert!(CapacityProfile::from_value(&bad).is_err());
    }
}
