//! Admission hot-path benchmark: produces `BENCH_admission.json`.
//!
//! Its sections are all driven from one binary so the numbers in the
//! committed JSON are reproducible with a single command
//! (`scripts/bench.sh`):
//!
//! 1. **micro** — linear reference scans vs the segment-tree-indexed
//!    queries (`max_alloc` / `fits` / `earliest_fit`) on profiles with
//!    10²–10⁵ breakpoints, reporting per-query ns and the speedup;
//! 2. **differential** — a quick inline replay of random
//!    allocate/release traces asserting the indexed answers are
//!    bit-identical to the linear ones (mismatches must be 0; the full
//!    property suite lives in `crates/net/tests/indexed_differential.rs`);
//! 3. **end_to_end** — the §5.3 flexible workload pushed through the
//!    interval scheduler with batched `reserve_all` admission rounds
//!    (p50/p99 round latency, decisions/sec) and through the greedy
//!    per-arrival path, each cross-checked against `Simulation::run` so
//!    the timed driver provably makes the same accept decisions;
//! 4. **durability** — WAL append throughput and cold-recovery time per
//!    fsync policy on memory and disk-backed stores;
//! 5. **replication** — a live primary shipping its WAL over TCP
//!    loopback to a hot standby (per-batch sync lag, wire failover
//!    time), gated on zero beacon divergence and a byte-identical
//!    mirrored store;
//! 6. **cluster** — a topology-sharded router over in-process shard
//!    engines: submissions/sec and per-submission latency across shard
//!    counts {1,2,4} and cross-shard fractions {0%,10%,50%}, gated on
//!    zero divergence from a solo run (partition-respecting rows) and
//!    zero conservation violations everywhere;
//! 7. **soak** — ≥10⁶ requests of sustained open-ended load on a raw
//!    `CapacityLedger` with the watermark GC sweeping behind a lagging
//!    horizon: per-quintile breakpoint counts, RSS, and round-p99
//!    hard-gated flat, and every decision on a shared prefix gated
//!    bit-identical to a never-collecting reference ledger (GC must not
//!    change any answer at or after the watermark).
//!
//! Flags: `--smoke` (reduced sizes, a few seconds), `--out=FILE`
//! (default `BENCH_admission.json`).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use gridband_serve::{ClientMsg, EngineConfig, ServerMsg, SubmitReq, TimeMode};

use gridband_algos::{BandwidthPolicy, Greedy, WindowScheduler};
use gridband_net::{
    Breakpoint, CapacityLedger, CapacityProfile, EgressId, IngressId, NetError, NetResult, PortRef,
    ReservationId, ReserveRequest, Route, Topology,
};
use gridband_sim::{AdmissionController, Decision, Simulation};
use gridband_workload::{Dist, Request, Trace, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct Report {
    schema: String,
    mode: String,
    /// CPUs available to the bench process.
    host_cpus: usize,
    micro: Vec<MicroRow>,
    differential: Differential,
    end_to_end: Vec<EndToEndRow>,
    durability: Vec<DurabilityRow>,
    replication: ReplicationReport,
    cluster: Vec<ClusterRow>,
    qos: Vec<QosRow>,
    malleable: Vec<MalleableRow>,
    soak: SoakReport,
}

#[derive(Serialize)]
struct SoakReport {
    /// Requests pushed through the GC'd long-horizon run.
    requests: usize,
    rounds: usize,
    batch: usize,
    step_s: f64,
    gc_horizon_s: f64,
    accepted: usize,
    accept_rate: f64,
    /// Fully-past reservations the watermark sweeps removed. Gated > 0
    /// so the flatness gates below are non-vacuous.
    reservations_collected: u64,
    /// Profile breakpoints dropped by watermark truncation. Gated > 0.
    breakpoints_dropped: u64,
    /// Ledger-wide breakpoint count when the run ended.
    breakpoints_final: usize,
    /// Breakpoint count sampled at the end of each fifth of the run.
    /// Gated flat: the last quintile must not exceed twice the first
    /// (plus a small absolute slop) — the memory-leak signature GC
    /// exists to kill is monotone growth across the whole run.
    quintile_breakpoints: Vec<usize>,
    /// `VmRSS` (KB) sampled at the same points (0s off-Linux, which
    /// skips the RSS gate). The GC'd run executes *before* the
    /// never-collecting reference so these samples sit on a clean heap.
    quintile_rss_kb: Vec<u64>,
    /// p99 `reserve_all` round latency (µs) per fifth of the run. Gated
    /// flat: latency creep means truncation is not keeping the scanned
    /// window bounded.
    quintile_round_p99_us: Vec<f64>,
    /// Order-sensitive FNV-1a fold of every admission decision in the
    /// fifth (hex). Deterministic — virtual clock, seeded trace — so a
    /// changed hash in a future run means changed decisions.
    quintile_decision_hash: Vec<String>,
    /// Length of the shared prefix replayed by the never-collecting
    /// reference ledger.
    reference_requests: usize,
    /// Where the reference's breakpoint count ended up — the unbounded
    /// growth the GC'd run avoids.
    reference_breakpoints_final: usize,
    /// Decisions on the shared prefix that differ between the GC'd run
    /// and the reference, compared fingerprint-by-fingerprint (grant id,
    /// or rejecting port + overflow instant bits). Gated to 0: GC must
    /// never change any answer at or after the watermark.
    divergence: usize,
}

#[derive(Serialize)]
struct QosRow {
    seed: u64,
    /// `G:S:B` class-mix weights the trace was annotated with.
    classes: String,
    requests: usize,
    accepted: usize,
    /// Admission decisions — grant `f64`s compared as raw IEEE-754 bit
    /// patterns — that differ between the boosted and unboosted runs of
    /// the identical trace. Gated to 0: redistribution is an overlay
    /// and must be invisible to admission.
    decision_divergence: usize,
    /// Rounds that granted at least one boost. Gated > 0 so the
    /// invariant gates below are non-vacuous.
    boost_rounds: u64,
    /// Volume moved above guarantees (MB).
    boosted_mb: f64,
    /// Transfers that finished before their guaranteed finish.
    early_releases: u64,
    /// Transfers finishing *after* their guaranteed finish. Gated to 0.
    finish_violations: u64,
    /// Rounds whose planned boosts exceeded some port's residual.
    /// Gated to 0.
    oversubscriptions: u64,
    /// Mean accepted-transfer completion time (virtual s from scheduled
    /// start) at guaranteed rates — what every transfer gets without
    /// the overlay.
    mean_completion_s_baseline: f64,
    /// Same, with boosts applied.
    mean_completion_s_boosted: f64,
    /// `baseline - boosted`; gated > 0 — redistribution must actually
    /// shorten completions on the §5.3 workload.
    improvement_s: f64,
    /// Mean completion-time improvement split by service class
    /// (`[Gold, Silver, BestEffort]`; 0 where a class has no accepts).
    improvement_by_class_s: Vec<f64>,
}

#[derive(Serialize)]
struct MalleableRow {
    seed: u64,
    interarrival: f64,
    /// Marks the saturation point of the grid; the accept-rate-delta
    /// gate applies only here, where fragmentation is what water-filling
    /// exists to absorb.
    high_load: bool,
    requests: usize,
    /// All-rigid accept count with `--malleable` off: the §5.3 baseline.
    rigid_accepted: usize,
    rigid_accept_rate: f64,
    /// Decisions on the all-rigid trace that differ between a
    /// `--malleable` daemon and a plain one (full `ServerMsg` equality,
    /// grants bit-exact). Gated to 0: the flag must be invisible until a
    /// submission opts in.
    rigid_divergence: usize,
    /// Fraction of submissions flagged malleable in the mixed run.
    malleable_fraction: f64,
    malleable_requests: usize,
    /// Flagged submissions granted a segmented plan. Gated > 0 so the
    /// delta below measures water-filling, not a no-op.
    malleable_accepted: usize,
    mixed_accepted: usize,
    mixed_accept_rate: f64,
    /// `mixed_accept_rate - rigid_accept_rate`. Gated > 0 on high-load
    /// rows: variable-rate plans must admit work that constant-rate
    /// booking bounces.
    accept_rate_delta: f64,
    /// Mixed-run decision throughput through the live engine.
    decisions_per_sec: f64,
}

#[derive(Serialize)]
struct ClusterRow {
    shards: usize,
    cross_fraction: f64,
    requests: usize,
    singles: u64,
    crosses: u64,
    granted: usize,
    cross_grants: u64,
    timeouts: u64,
    /// Router-side submission throughput: fire-and-forget forwards and
    /// full two-phase exchanges averaged together.
    submissions_per_sec: f64,
    /// Per-submission router latency — a forward is microseconds, a
    /// cross-shard transaction is two to four blocking hold calls.
    submit_latency_us: LatencyUs,
    /// For cross_fraction == 0 rows (`null` otherwise): decisions that
    /// differ from a 1-shard cluster run of the identical trace. Gated
    /// to 0 — partition-respecting sharding must be invisible.
    divergence_vs_solo: Option<usize>,
    /// Ledger violations (port over-commit, orphaned uncommitted hold)
    /// across every shard after the run. Gated to 0.
    conservation_violations: usize,
}

#[derive(Serialize)]
struct ReplicationReport {
    requests: usize,
    batches: usize,
    records_shipped: u64,
    bytes_shipped: u64,
    records_applied: u64,
    beacons_checked: u64,
    /// Beacon hash mismatches on the follower. Gated to 0: a non-zero
    /// value means the standby's engine state drifted from the primary's.
    divergence: u64,
    resyncs: u64,
    /// Per-batch replication lag: from the primary's rounds being
    /// durable (drain acked) to the follower acking the identical
    /// (generation, offset) position over TCP loopback.
    lag_us: LatencyUs,
    /// Wall time from "primary is dead" through wire promotion to the
    /// first decision served by the promoted follower.
    failover_ms: f64,
    probe_decided: bool,
    /// Follower store is byte-for-byte the primary's durable WAL prefix
    /// (same generation, same snapshot bytes). Gated.
    store_mirrored: bool,
}

#[derive(Serialize)]
struct DurabilityRow {
    device: String,
    fsync: String,
    records: usize,
    record_bytes: usize,
    appends_per_sec: f64,
    mb_per_sec: f64,
    recovery_ms: f64,
    recovered_records: usize,
}

#[derive(Serialize)]
struct MicroRow {
    query: String,
    breakpoints: usize,
    linear_ns: f64,
    indexed_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Differential {
    trials: usize,
    queries: usize,
    mismatches: usize,
}

#[derive(Serialize)]
struct LatencyUs {
    p50: f64,
    p99: f64,
    max: f64,
}

#[derive(Serialize)]
struct EndToEndRow {
    scheduler: String,
    mean_interarrival: f64,
    horizon: f64,
    seed: u64,
    requests: usize,
    accepted: usize,
    accept_rate: f64,
    rounds: usize,
    decisions_per_sec: f64,
    round_latency_us: LatencyUs,
    matches_offline_sim: bool,
}

// ---------------------------------------------------------------------------
// Micro: indexed vs linear profile queries
// ---------------------------------------------------------------------------

/// A canonical profile with exactly `k` breakpoints (alternating busy and
/// idle steps), bulk-loaded so construction stays O(k log k).
fn big_profile(k: usize, capacity: f64, seed: u64) -> CapacityProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(k);
    let mut t = 0.0;
    for i in 0..k {
        t += rng.gen_range(0.5..5.0);
        let alloc = if i % 2 == 0 {
            rng.gen_range(1.0..capacity * 0.8)
        } else {
            0.0
        };
        points.push(Breakpoint { time: t, alloc });
    }
    CapacityProfile::from_breakpoints(capacity, points).expect("generated profile is canonical")
}

/// Mean ns/call of `f` over `iters` calls (after one warm-up call).
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn micro_section(sizes: &[usize], iters: usize) -> Vec<MicroRow> {
    let mut rows = Vec::new();
    for &k in sizes {
        let p = big_profile(k, 1_000.0, 42);
        let span = p.breakpoints().last().unwrap().time;
        // Probe windows spread over the middle of the populated region so
        // the linear scan cannot early-exit on an empty suffix.
        let probes: Vec<(f64, f64)> = (0..32)
            .map(|i| {
                let t0 = span * (0.10 + 0.02 * i as f64);
                (t0, t0 + span * 0.25)
            })
            .collect();
        let mut i = 0usize;
        let mut next = move || {
            i = (i + 1) % 32;
            i
        };
        let mut push = |query: &str, linear_ns: f64, indexed_ns: f64| {
            rows.push(MicroRow {
                query: query.to_string(),
                breakpoints: k,
                linear_ns,
                indexed_ns,
                speedup: linear_ns / indexed_ns,
            });
        };
        let lin = time_ns(iters, || {
            let (a, b) = probes[next()];
            p.max_alloc_linear(a, b)
        });
        let idx = time_ns(iters, || {
            let (a, b) = probes[next()];
            p.max_alloc(a, b)
        });
        push("max_alloc", lin, idx);
        let lin = time_ns(iters, || {
            let (a, b) = probes[next()];
            p.fits_linear(a, b, 150.0)
        });
        let idx = time_ns(iters, || {
            let (a, b) = probes[next()];
            p.fits(a, b, 150.0)
        });
        push("fits", lin, idx);
        // A bandwidth high enough that nearly every busy step conflicts:
        // the search has to walk the whole tail, which is the worst case
        // for the linear restart scan.
        let lin = time_ns(iters, || {
            let (a, _) = probes[next()];
            p.earliest_fit_linear(a, 10.0, 900.0, f64::INFINITY)
        });
        let idx = time_ns(iters, || {
            let (a, _) = probes[next()];
            p.earliest_fit(a, 10.0, 900.0, f64::INFINITY)
        });
        push("earliest_fit", lin, idx);
    }
    rows
}

// ---------------------------------------------------------------------------
// Differential: indexed answers must equal the linear reference exactly
// ---------------------------------------------------------------------------

fn differential_section(trials: usize) -> Differential {
    let mut rng = StdRng::seed_from_u64(7);
    let mut queries = 0usize;
    let mut mismatches = 0usize;
    for _ in 0..trials {
        let mut p = CapacityProfile::new(150.0);
        let mut live: Vec<(f64, f64, f64)> = Vec::new();
        for _ in 0..60 {
            let t0 = rng.gen_range(0.0..300.0);
            let t1 = t0 + rng.gen_range(0.5..40.0);
            let bw = rng.gen_range(0.1..120.0);
            if rng.gen_range(0u32..10) < 3 && !live.is_empty() {
                let (a0, a1, ab) = live.pop().unwrap();
                p.release(a0, a1, ab).expect("releasing a live allocation");
            } else if p.allocate(t0, t1, bw).is_ok() {
                live.push((t0, t1, bw));
            }
            let (q0, q1) = (rng.gen_range(0.0..300.0), t1);
            queries += 4;
            if p.max_alloc(q0, q1) != p.max_alloc_linear(q0, q1) {
                mismatches += 1;
            }
            if p.min_free(q0, q1) != p.min_free_linear(q0, q1) {
                mismatches += 1;
            }
            if p.fits(q0, q1, bw) != p.fits_linear(q0, q1, bw) {
                mismatches += 1;
            }
            if p.earliest_fit(q0, 5.0, bw, f64::INFINITY)
                != p.earliest_fit_linear(q0, 5.0, bw, f64::INFINITY)
            {
                mismatches += 1;
            }
        }
    }
    Differential {
        trials,
        queries,
        mismatches,
    }
}

// ---------------------------------------------------------------------------
// End-to-end: §5.3 workload through the batched admission rounds
// ---------------------------------------------------------------------------

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos] as f64
}

fn latency_summary(mut ns: Vec<u64>) -> LatencyUs {
    ns.sort_unstable();
    LatencyUs {
        p50: percentile(&ns, 0.50) / 1_000.0,
        p99: percentile(&ns, 0.99) / 1_000.0,
        max: ns.last().copied().unwrap_or(0) as f64 / 1_000.0,
    }
}

fn paper_flexible_trace(topo: &Topology, interarrival: f64, horizon: f64, seed: u64) -> Trace {
    WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .slack(Dist::Uniform { lo: 2.0, hi: 4.0 })
        .horizon(horizon)
        .seed(seed)
        .build()
}

/// Drive the interval scheduler round by round, timing `on_tick` plus the
/// batched `reserve_all` per round. Arrival ordering replicates the event
/// queue exactly (at equal timestamps departures < ticks < arrivals, and
/// the scheduler ignores departures), so the accept count must match
/// `Simulation::run` bit for bit.
fn run_window_rounds(
    topo: &Topology,
    trace: &Trace,
    step: f64,
    interarrival: f64,
    horizon: f64,
    seed: u64,
) -> EndToEndRow {
    let mut sched = WindowScheduler::new(step, BandwidthPolicy::MAX_RATE);
    let mut ledger = CapacityLedger::new(topo.clone());
    let by_id: HashMap<u64, &Request> = trace.iter().map(|r| (r.id.0, r)).collect();
    let reqs = trace.requests();
    let mut next = 0usize;
    let mut accepted = 0usize;
    let mut decided = 0usize;
    let mut round_ns: Vec<u64> = Vec::new();
    let mut t = step;
    while t <= trace.horizon() + step {
        while next < reqs.len() && reqs[next].start() < t {
            let d = sched.on_arrival(&reqs[next], &ledger, reqs[next].start());
            assert!(
                matches!(d, Decision::Defer),
                "interval scheduler must defer at arrival"
            );
            next += 1;
        }
        let t0 = Instant::now();
        let decisions = sched.on_tick(&ledger, t);
        let batch: Vec<ReserveRequest> = decisions
            .iter()
            .filter_map(|(rid, d)| match *d {
                Decision::Accept { bw, start, finish } => Some(ReserveRequest {
                    route: by_id[&rid.0].route,
                    start,
                    end: finish,
                    bw,
                }),
                _ => None,
            })
            .collect();
        let results = ledger.reserve_all(&batch);
        round_ns.push(t0.elapsed().as_nanos() as u64);
        for r in &results {
            r.as_ref().expect("scheduler over-committed a batch");
        }
        accepted += results.len();
        decided += decisions.len();
        t += step;
    }
    assert_eq!(next, reqs.len(), "driver left arrivals unfed");
    assert!(
        sched.on_end(&ledger, trace.horizon()).is_empty(),
        "rounds left deferred requests behind"
    );
    let total_s: f64 = round_ns.iter().sum::<u64>() as f64 / 1e9;
    // Cross-check against the untimed event-driven simulator.
    let offline = Simulation::new(topo.clone()).run(
        trace,
        &mut WindowScheduler::new(step, BandwidthPolicy::MAX_RATE),
    );
    EndToEndRow {
        scheduler: format!("window({step})"),
        mean_interarrival: interarrival,
        horizon,
        seed,
        requests: reqs.len(),
        accepted,
        accept_rate: accepted as f64 / reqs.len().max(1) as f64,
        rounds: round_ns.len(),
        decisions_per_sec: if total_s > 0.0 {
            decided as f64 / total_s
        } else {
            0.0
        },
        round_latency_us: latency_summary(round_ns),
        matches_offline_sim: offline.accepted_count() == accepted,
    }
}

/// Drive the greedy controller per arrival (decision + reservation timed
/// together), cross-checked the same way.
fn run_greedy_arrivals(
    topo: &Topology,
    trace: &Trace,
    interarrival: f64,
    horizon: f64,
    seed: u64,
) -> EndToEndRow {
    let mut greedy = Greedy::fraction(1.0);
    let mut ledger = CapacityLedger::new(topo.clone());
    let mut accepted = 0usize;
    let mut ns: Vec<u64> = Vec::new();
    for req in trace.iter() {
        let t0 = Instant::now();
        let d = greedy.on_arrival(req, &ledger, req.start());
        if let Decision::Accept { bw, start, finish } = d {
            ledger
                .reserve(req.route, start, finish, bw)
                .expect("greedy over-committed");
            accepted += 1;
        }
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    let total_s: f64 = ns.iter().sum::<u64>() as f64 / 1e9;
    let offline = Simulation::new(topo.clone()).run(trace, &mut Greedy::fraction(1.0));
    EndToEndRow {
        scheduler: "greedy".to_string(),
        mean_interarrival: interarrival,
        horizon,
        seed,
        requests: trace.len(),
        accepted,
        accept_rate: accepted as f64 / trace.len().max(1) as f64,
        rounds: ns.len(),
        decisions_per_sec: if total_s > 0.0 {
            trace.len() as f64 / total_s
        } else {
            0.0
        },
        round_latency_us: latency_summary(ns),
        matches_offline_sim: offline.accepted_count() == accepted,
    }
}

// ---------------------------------------------------------------------------
// Durability: WAL append throughput and recovery time (gridband-store)
// ---------------------------------------------------------------------------

/// A WAL record shaped like a real admission round: eight acceptances
/// with plausible routes and windows, so the serialized size matches
/// what the serve engine appends per round under load.
fn typical_round_record() -> Vec<u8> {
    use gridband_store::{RoundDecision, WalRecord};
    let decisions = (0..8)
        .map(|i| RoundDecision::Accept {
            id: 1_000 + i,
            ingress: (i % 4) as u32,
            egress: (i % 3) as u32,
            bw: 80.0 + i as f64,
            start: 50.0 * i as f64,
            finish: 50.0 * i as f64 + 125.5,
            cancelled: false,
        })
        .collect();
    WalRecord::Round {
        t: 400.0,
        decisions,
    }
    .encode()
}

/// Append `records` round records through one store (one `round_barrier`
/// per append, matching the engine's per-round commit), then time a cold
/// `Store::open` + full decode of the log.
fn durability_one(
    dir: std::sync::Arc<dyn gridband_store::Dir>,
    device: &str,
    fsync: gridband_store::FsyncPolicy,
    records: usize,
) -> DurabilityRow {
    use gridband_store::{Store, WalRecord};
    let payload = typical_round_record();
    let (mut store, _) = Store::open(dir.clone(), fsync).expect("open fresh store");
    let t0 = Instant::now();
    for _ in 0..records {
        store.append(&payload).expect("append");
        store.round_barrier().expect("barrier");
    }
    let append_s = t0.elapsed().as_secs_f64();
    drop(store);

    let t0 = Instant::now();
    let (_store, recovered) = Store::open(dir, fsync).expect("reopen");
    let mut decoded = 0usize;
    for (offset, bytes) in &recovered.records {
        black_box(WalRecord::decode("wal", *offset, bytes).expect("decode"));
        decoded += 1;
    }
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(decoded, records, "recovery must see every committed round");

    let total_bytes = (payload.len() + 8) * records;
    DurabilityRow {
        device: device.to_string(),
        fsync: fsync.to_string(),
        records,
        record_bytes: payload.len(),
        appends_per_sec: records as f64 / append_s.max(1e-9),
        mb_per_sec: total_bytes as f64 / 1e6 / append_s.max(1e-9),
        recovery_ms,
        recovered_records: decoded,
    }
}

fn durability_section(records: usize) -> Vec<DurabilityRow> {
    use gridband_store::{FsyncPolicy, MemDir};
    let mut rows = Vec::new();
    for fsync in [FsyncPolicy::Off, FsyncPolicy::Round] {
        rows.push(durability_one(
            std::sync::Arc::new(MemDir::new()),
            "mem",
            fsync,
            records,
        ));
    }
    // Real disk: fsync cost dominates, so scale the per-append policy
    // down to keep the bench bounded.
    let fs_root = std::path::Path::new("target").join("bench-wal");
    for (fsync, n) in [
        (FsyncPolicy::Off, records),
        (FsyncPolicy::Round, records / 4),
        (FsyncPolicy::Always, records / 20),
    ] {
        let dir = fs_root.join(format!("{fsync}"));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = gridband_store::FsDir::new(&dir).expect("create bench WAL dir under target/");
        rows.push(durability_one(
            std::sync::Arc::new(fs),
            "fs",
            fsync,
            n.max(1),
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

// ---------------------------------------------------------------------------
// Replication: WAL shipping lag and failover time (gridband-replica)
// ---------------------------------------------------------------------------

/// A live primary engine + `WalShipper` streaming over TCP loopback to a
/// follower daemon (`Replica`). Submissions go in batches; after each
/// drain we time how long the follower takes to ack the primary's exact
/// WAL position. Then the primary is killed, the follower promoted over
/// the wire, and a probe request timed through to its first decision.
fn replication_section(smoke: bool) -> ReplicationReport {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    use gridband_replica::{Replica, ReplicaConfig, ShipperConfig, WalShipper};
    use gridband_serve::engine::Command;
    use gridband_serve::protocol::{decode_server, encode_client};
    use gridband_serve::{
        ClientMsg, Engine, EngineConfig, FsyncPolicy, MemDir, ServerMsg, StoreConfig, SubmitReq,
    };
    use gridband_store::wal::{scan_records, MAGIC_WAL};
    use gridband_store::Dir;

    let step = 10.0;
    let topo = Topology::uniform(4, 4, 120.0);
    let requests: usize = if smoke { 48 } else { 240 };
    let batch = 6usize;
    let history = 1usize << 20;

    let config = |dir: Arc<MemDir>| {
        let mut cfg = EngineConfig::new(topo.clone());
        cfg.step = step;
        cfg.history_capacity = history;
        cfg.store = Some(StoreConfig {
            dir,
            fsync: FsyncPolicy::Round,
            snapshot_every: 16,
        });
        cfg
    };

    let primary_dir = Arc::new(MemDir::new());
    let engine = Engine::spawn(config(primary_dir.clone()));

    let follower_dir = Arc::new(MemDir::new());
    let replica = Replica::bind(
        ReplicaConfig {
            engine: config(follower_dir.clone()),
            promote_after: None,
        },
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .expect("follower binds loopback listeners");
    let client_addr = replica.client_addr().expect("client listener requested");

    let shipper = WalShipper::spawn(
        ShipperConfig {
            dir: primary_dir.clone(),
            topology: topo.clone(),
            step,
            history_capacity: history,
            beacon_every: 8,
        },
        replica.repl_addr().to_string(),
        engine.metrics(),
    );

    let metrics = engine.metrics();
    let mut rng = StdRng::seed_from_u64(97);
    let mut clock = 0.0f64;
    let mut lag_ns: Vec<u64> = Vec::new();
    let mut replies = Vec::new();
    let mut sent = 0usize;
    // A batch's rounds reach the follower either as WAL records or — when
    // they land on a snapshot rotation — as a freshly shipped snapshot,
    // so progress is the sum of both.
    let progress = |m: &gridband_serve::MetricsRegistry| {
        m.repl_records_shipped.load(Ordering::Relaxed)
            + m.repl_snapshots_shipped.load(Ordering::Relaxed)
    };
    while sent < requests {
        let shipped_before = progress(&metrics);
        let t0 = Instant::now();
        let n = batch.min(requests - sent);
        for i in 0..n {
            // The last submit of every batch jumps the virtual clock past
            // a round boundary, so the engine decides (and logs) the
            // batch's earlier arrivals without an explicit drain — a
            // drain here would fast-forward time past the next batch's
            // start times and starve the WAL of fresh rounds.
            clock += if i == n - 1 {
                step + rng.gen_range(1.0..4.0)
            } else {
                rng.gen_range(1.0..6.0)
            };
            sent += 1;
            let volume = rng.gen_range(50.0..400.0);
            let max_rate = rng.gen_range(10.0..60.0);
            let (tx, rx) = crossbeam::channel::unbounded();
            engine
                .sender()
                .send(Command::Client {
                    msg: ClientMsg::Submit(SubmitReq {
                        id: sent as u64,
                        ingress: rng.gen_range(0..4),
                        egress: rng.gen_range(0..4),
                        volume,
                        max_rate,
                        start: Some(clock),
                        deadline: Some(clock + rng.gen_range(1.5..3.0) * volume / max_rate),
                        class: Default::default(),
                        malleable: None,
                    }),
                    reply: tx.into(),
                })
                .expect("primary engine alive");
            replies.push(rx);
        }
        // Lag: from the batch going in to the follower acking the
        // primary's exact WAL position — engine decision latency plus
        // ship/apply/ack over loopback.
        let deadline = t0 + Duration::from_secs(30);
        loop {
            let shipped = progress(&metrics);
            if shipped > shipped_before && metrics.repl_synced.load(Ordering::Relaxed) == 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "follower never caught up over loopback (shipped {} -> {}, synced {}, applied {}, resyncs {})",
                shipped_before,
                shipped,
                metrics.repl_synced.load(Ordering::Relaxed),
                replica.metrics().repl_records_applied.load(Ordering::Relaxed),
                replica.metrics().repl_resyncs.load(Ordering::Relaxed),
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        lag_ns.push(t0.elapsed().as_nanos() as u64);
    }
    // Flush the tail: decide everything still pending, then wait for the
    // shipped count to go quiet with the follower in sync.
    let (tx, rx) = crossbeam::channel::unbounded();
    engine
        .sender()
        .send(Command::Client {
            msg: ClientMsg::Drain,
            reply: tx.into(),
        })
        .expect("primary engine alive");
    rx.recv_timeout(Duration::from_secs(30)).expect("drain ack");
    for rx in &replies {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("primary decision");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = progress(&metrics);
        std::thread::sleep(Duration::from_millis(250));
        if progress(&metrics) == before && metrics.repl_synced.load(Ordering::Relaxed) == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "final sync never settled");
    }

    // Kill the primary; the follower must now hold its durable prefix.
    engine.kill();
    shipper.shutdown();
    let store_mirrored = {
        let latest = |d: &dyn Dir, prefix: &str| -> Option<String> {
            d.list()
                .expect("list store dir")
                .into_iter()
                .filter(|f| f.starts_with(prefix))
                .max()
        };
        let snaps_equal = match (
            latest(primary_dir.as_ref(), "snap-"),
            latest(follower_dir.as_ref(), "snap-"),
        ) {
            (Some(ps), Some(fs)) => {
                ps == fs && primary_dir.read(&ps).ok() == follower_dir.read(&fs).ok()
            }
            (a, b) => a == b,
        };
        let wals_equal = match (
            latest(primary_dir.as_ref(), "wal-"),
            latest(follower_dir.as_ref(), "wal-"),
        ) {
            (Some(pw), Some(fw)) if pw == fw => {
                let p = primary_dir.read(&pw).expect("primary WAL readable");
                let f = follower_dir.read(&fw).expect("follower WAL readable");
                let scan = scan_records(&pw, &p, MAGIC_WAL.len()).expect("primary WAL scans");
                f.len() as u64 == scan.valid_len && f[..] == p[..scan.valid_len as usize]
            }
            (a, b) => a == b,
        };
        snaps_equal && wals_equal
    };

    // Failover: promote over the wire, then push one probe through to a
    // decision — the clock runs from the instant the primary is gone.
    let t0 = Instant::now();
    let stream = TcpStream::connect(client_addr).expect("connect to follower");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;
    let send = |w: &mut TcpStream, msg: &ClientMsg| {
        let mut line = encode_client(msg);
        line.push('\n');
        w.write_all(line.as_bytes()).expect("send to follower");
    };
    let recv = |r: &mut BufReader<TcpStream>| -> ServerMsg {
        let mut line = String::new();
        r.read_line(&mut line).expect("read follower reply");
        decode_server(line.trim()).expect("parse follower reply")
    };
    send(&mut writer, &ClientMsg::Promote);
    let promoted = matches!(recv(&mut reader), ServerMsg::Promoted { .. });
    let probe_id = requests as u64 + 1;
    send(
        &mut writer,
        &ClientMsg::Submit(SubmitReq {
            id: probe_id,
            ingress: 0,
            egress: 1,
            volume: 20.0,
            max_rate: 10.0,
            start: Some(clock + step),
            deadline: Some(clock + step + 10.0),
            class: Default::default(),
            malleable: None,
        }),
    );
    send(&mut writer, &ClientMsg::Drain);
    let mut probe_decided = false;
    for _ in 0..2 {
        match recv(&mut reader) {
            ServerMsg::Accepted { id, .. } | ServerMsg::Rejected { id, .. } if id == probe_id => {
                probe_decided = true
            }
            _ => {}
        }
    }
    let failover_ms = t0.elapsed().as_secs_f64() * 1e3;

    let rm = replica.metrics();
    let report = ReplicationReport {
        requests,
        batches: lag_ns.len(),
        records_shipped: metrics.repl_records_shipped.load(Ordering::Relaxed),
        bytes_shipped: metrics.repl_bytes_shipped.load(Ordering::Relaxed),
        records_applied: rm.repl_records_applied.load(Ordering::Relaxed),
        beacons_checked: rm.repl_beacons_checked.load(Ordering::Relaxed),
        divergence: rm.repl_divergence.load(Ordering::Relaxed),
        resyncs: rm.repl_resyncs.load(Ordering::Relaxed),
        lag_us: latency_summary(lag_ns),
        failover_ms,
        probe_decided: promoted && probe_decided,
        store_mirrored,
    };
    replica.shutdown();
    report
}

// ---------------------------------------------------------------------------
// Cluster: topology-sharded routing throughput (gridband-cluster)
// ---------------------------------------------------------------------------

/// Remap a workload's egress ports so a deterministic `cross` fraction
/// of requests straddles the shard cut of an N-shard map (the rest are
/// pinned to the ingress owner's own egress block).
fn cluster_trace(
    base: &Trace,
    topo: &Topology,
    map: &gridband_cluster::ShardMap,
    cross: f64,
) -> Trace {
    let n_egress = topo.num_egress() as u32;
    let requests = base
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let shard = map.ingress_owner(r.route.ingress.0);
            let want_cross =
                map.shards() > 1 && (i.wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0 < cross;
            let pool: Vec<u32> = (0..n_egress)
                .filter(|&e| (map.egress_owner(e) == shard) != want_cross)
                .collect();
            let egress = if pool.is_empty() {
                r.route.egress.0
            } else {
                pool[(r.id.0 as usize) % pool.len()]
            };
            Request::new(
                r.id.0,
                gridband_net::Route::new(r.route.ingress.0, egress),
                r.window,
                r.volume,
                r.max_rate,
            )
        })
        .collect();
    Trace::new(requests)
}

/// Route `trace` through an in-process N-shard cluster, timing every
/// `submit`. Returns the report, per-submission latencies, and the
/// conservation-violation count across all shard ledgers.
fn cluster_run(
    topo: &Topology,
    trace: &Trace,
    shards: usize,
) -> (gridband_cluster::ClusterReport, Vec<u64>, usize) {
    use gridband_cluster::{conservation_violations, Cluster, ClusterConfig, EngineShards};
    let mut cfg = ClusterConfig::new(topo.clone(), shards);
    cfg.step = 50.0;
    cfg.queue_capacity = trace.len() + 16;
    let engines = EngineShards::spawn(&cfg);
    let mut cluster = Cluster::in_process(&cfg, &engines);
    let mut ns = Vec::with_capacity(trace.len());
    for r in trace.iter() {
        let req = gridband_serve::SubmitReq {
            id: r.id.0,
            ingress: r.route.ingress.0,
            egress: r.route.egress.0,
            volume: r.volume,
            max_rate: r.max_rate,
            start: Some(r.start()),
            deadline: Some(r.finish()),
            class: Default::default(),
            malleable: None,
        };
        let t0 = Instant::now();
        cluster.submit(req).expect("cluster submit");
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    let flush =
        trace.iter().map(|r| r.finish()).fold(0.0f64, f64::max) + cfg.hold_timeout + 2.0 * cfg.step;
    cluster.advance_to(flush).expect("cluster advance");
    let violations: usize = (0..engines.len())
        .map(|s| conservation_violations(&engines.export(s), topo).len())
        .sum();
    let report = cluster.finish().expect("cluster finish");
    engines.shutdown();
    (report, ns, violations)
}

fn cluster_section(smoke: bool) -> Vec<ClusterRow> {
    use gridband_cluster::{Decision, ShardMap};
    let topo = Topology::uniform(8, 8, 100.0);
    let (interarrival, horizon) = if smoke { (1.0, 200.0) } else { (0.5, 600.0) };
    let base = WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .slack(Dist::Uniform { lo: 2.0, hi: 4.0 })
        .horizon(horizon)
        .seed(17)
        .build();

    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let crosses: &[f64] = if shards == 1 {
            &[0.0]
        } else {
            &[0.0, 0.1, 0.5]
        };
        for &cross in crosses {
            let map = ShardMap::new(&topo, shards);
            let trace = cluster_trace(&base, &topo, &map, cross);
            let (report, ns, violations) = cluster_run(&topo, &trace, shards);
            let divergence = (cross == 0.0 && shards > 1).then(|| {
                let (solo, _, _) = cluster_run(&topo, &trace, 1);
                report
                    .decisions
                    .iter()
                    .filter(|(id, d)| solo.decisions.get(id) != Some(d))
                    .count()
                    + solo.decisions.len().abs_diff(report.decisions.len())
            });
            let granted = report
                .decisions
                .values()
                .filter(|d| matches!(d, Decision::Granted { .. }))
                .count();
            let total_s = ns.iter().sum::<u64>() as f64 / 1e9;
            rows.push(ClusterRow {
                shards,
                cross_fraction: cross,
                requests: trace.len(),
                singles: report.singles,
                crosses: report.crosses,
                granted,
                cross_grants: report.cross_grants,
                timeouts: report.timeouts,
                submissions_per_sec: trace.len() as f64 / total_s.max(1e-9),
                submit_latency_us: latency_summary(ns),
                divergence_vs_solo: divergence,
                conservation_violations: violations,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// QoS: leftover-bandwidth redistribution on the §5.3 workload
// ---------------------------------------------------------------------------

/// One WINDOW round-driven replay under `MinRate` (minimal guarantees
/// leave residual headroom), optionally shadowed by the redistribution
/// overlay. Returns the bit-exact decision log — `(id, accepted, bw,
/// start, finish)` with grants as raw IEEE-754 bits — plus each accepted
/// transfer's `(start, finish)` window.
#[allow(clippy::type_complexity)]
fn qos_replay(
    topo: &Topology,
    trace: &Trace,
    step: f64,
    classes: &HashMap<u64, gridband_qos::ServiceClass>,
    mut overlay: Option<&mut gridband_qos::Redistributor>,
) -> (Vec<(u64, u8, u64, u64, u64)>, HashMap<u64, (f64, f64)>) {
    let mut sched = WindowScheduler::new(step, BandwidthPolicy::MinRate);
    let mut ledger = CapacityLedger::new(topo.clone());
    let by_id: HashMap<u64, &Request> = trace.iter().map(|r| (r.id.0, r)).collect();
    let reqs = trace.requests();
    let mut next = 0usize;
    let mut log = Vec::new();
    let mut windows: HashMap<u64, (f64, f64)> = HashMap::new();
    // Keep ticking until every arrival is decided *and* every accepted
    // transfer's guaranteed window has elapsed, so the overlay sees each
    // transfer through to completion. The extra tail rounds decide
    // nothing, so both replays share one admission history.
    let mut last_finish = 0.0f64;
    let mut t = step;
    while t <= trace.horizon() + step || t <= last_finish + step {
        while next < reqs.len() && reqs[next].start() < t {
            let d = sched.on_arrival(&reqs[next], &ledger, reqs[next].start());
            assert!(
                matches!(d, Decision::Defer),
                "interval scheduler must defer at arrival"
            );
            next += 1;
        }
        let decisions = sched.on_tick(&ledger, t);
        let batch: Vec<ReserveRequest> = decisions
            .iter()
            .filter_map(|(rid, d)| match *d {
                Decision::Accept { bw, start, finish } => Some(ReserveRequest {
                    route: by_id[&rid.0].route,
                    start,
                    end: finish,
                    bw,
                }),
                _ => None,
            })
            .collect();
        for r in &ledger.reserve_all(&batch) {
            r.as_ref().expect("scheduler over-committed a batch");
        }
        for (rid, d) in &decisions {
            match *d {
                Decision::Accept { bw, start, finish } => {
                    log.push((rid.0, 1, bw.to_bits(), start.to_bits(), finish.to_bits()));
                    windows.insert(rid.0, (start, finish));
                    last_finish = last_finish.max(finish);
                    if let Some(q) = overlay.as_deref_mut() {
                        let req = by_id[&rid.0];
                        q.on_accept(gridband_qos::AcceptedTransfer {
                            id: rid.0,
                            ingress: req.route.ingress.0 as usize,
                            egress: req.route.egress.0 as usize,
                            class: classes[&rid.0],
                            bw,
                            start,
                            finish,
                            max_rate: req.max_rate,
                            volume: req.volume,
                        });
                    }
                }
                _ => log.push((rid.0, 0, 0, 0, 0)),
            }
        }
        if let Some(q) = overlay.as_deref_mut() {
            let (rin, rout) = ledger.residuals(t, t + step);
            q.round(t, t + step, &rin, &rout);
        }
        t += step;
    }
    assert_eq!(next, reqs.len(), "driver left arrivals unfed");
    assert!(
        sched.on_end(&ledger, trace.horizon()).is_empty(),
        "rounds left deferred requests behind"
    );
    if let Some(q) = overlay {
        q.finish(t);
    }
    (log, windows)
}

fn qos_run(topo: &Topology, trace: &Trace, step: f64, seed: u64, mix: &str) -> QosRow {
    use gridband_qos::{ClassMix, QosConfig, Redistributor, ServiceClass};

    let parsed: ClassMix = mix.parse().expect("class mix");
    let classes: HashMap<u64, ServiceClass> = trace
        .requests()
        .iter()
        .zip(parsed.annotate(trace, seed))
        .map(|(r, c)| (r.id.0, c))
        .collect();

    let (plain_log, _) = qos_replay(topo, trace, step, &classes, None);
    let mut q = Redistributor::new(topo.num_ingress(), topo.num_egress(), QosConfig::default());
    let (boosted_log, windows) = qos_replay(topo, trace, step, &classes, Some(&mut q));

    let decision_divergence = plain_log
        .iter()
        .zip(&boosted_log)
        .filter(|(a, b)| a != b)
        .count()
        + plain_log.len().abs_diff(boosted_log.len());

    let stats = q.stats();
    let mut base_sum = 0.0f64;
    let mut boost_sum = 0.0f64;
    let mut class_gain = [0.0f64; 3];
    let mut class_n = [0usize; 3];
    let completions = q.completions();
    for c in completions {
        let (start, finish) = windows[&c.id];
        base_sum += finish - start;
        boost_sum += c.done_at - start;
        class_gain[c.class.index()] += c.guaranteed_finish - c.done_at;
        class_n[c.class.index()] += 1;
    }
    let n = completions.len().max(1) as f64;
    let baseline = base_sum / n;
    let boosted = boost_sum / n;
    QosRow {
        seed,
        classes: mix.to_string(),
        requests: trace.len(),
        accepted: windows.len(),
        decision_divergence,
        boost_rounds: stats.boost_rounds,
        boosted_mb: stats.boosted_bytes,
        early_releases: stats.early_releases,
        finish_violations: stats.finish_violations,
        oversubscriptions: stats.oversubscriptions,
        mean_completion_s_baseline: baseline,
        mean_completion_s_boosted: boosted,
        improvement_s: baseline - boosted,
        improvement_by_class_s: (0..3)
            .map(|k| {
                if class_n[k] == 0 {
                    0.0
                } else {
                    class_gain[k] / class_n[k] as f64
                }
            })
            .collect(),
    }
}

fn qos_section(seeds: &[u64], interarrival: f64, horizon: f64, step: f64) -> Vec<QosRow> {
    let topo = Topology::paper_default();
    let mut rows = Vec::new();
    for &seed in seeds {
        let trace = paper_flexible_trace(&topo, interarrival, horizon, seed);
        for mix in ["1:1:1", "4:2:1"] {
            rows.push(qos_run(&topo, &trace, step, seed, mix));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Malleable: water-filled admission through the live serve engine —
// the `--malleable` flag must be invisible to rigid traffic and must
// buy accept-rate at saturation
// ---------------------------------------------------------------------------

fn malleable_submit(r: &Request, flagged: bool) -> SubmitReq {
    SubmitReq {
        id: r.id.0,
        ingress: r.route.ingress.0,
        egress: r.route.egress.0,
        volume: r.volume,
        max_rate: r.max_rate,
        start: Some(r.start()),
        deadline: Some(r.finish()),
        class: Default::default(),
        malleable: flagged.then_some(true),
    }
}

/// Replay `reqs` through a fresh virtual-clock engine and harvest every
/// decision. Returns the bit-exact decision map plus the wall-clock
/// seconds from first submit to drain.
fn malleable_replay(
    topo: &Topology,
    reqs: &[SubmitReq],
    flag_on: bool,
) -> (BTreeMap<u64, ServerMsg>, f64) {
    use gridband_serve::engine::Command;
    let mut cfg = EngineConfig::new(topo.clone());
    cfg.step = 50.0;
    cfg.mode = TimeMode::Virtual;
    cfg.queue_capacity = reqs.len() + 64;
    cfg.malleable = flag_on;
    let engine = gridband_serve::Engine::spawn(cfg);
    let t0 = Instant::now();
    let mut rxs = Vec::with_capacity(reqs.len());
    for r in reqs {
        let (tx, rx) = crossbeam::channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: ClientMsg::Submit(r.clone()),
                reply: tx.into(),
            })
            .expect("engine alive");
        rxs.push((r.id, rx));
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    engine
        .sender()
        .send(Command::Client {
            msg: ClientMsg::Drain,
            reply: tx.into(),
        })
        .expect("engine alive for drain");
    rx.recv_timeout(Duration::from_secs(120))
        .expect("drain ack");
    let elapsed = t0.elapsed().as_secs_f64();
    let mut decisions = BTreeMap::new();
    for (id, rx) in rxs {
        let msg = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every submission is decided by drain");
        decisions.insert(id, msg);
    }
    engine.shutdown();
    (decisions, elapsed)
}

fn malleable_run(
    topo: &Topology,
    seed: u64,
    interarrival: f64,
    horizon: f64,
    high_load: bool,
) -> MalleableRow {
    const FRACTION: f64 = 0.5;
    let trace = WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .slack(Dist::Uniform { lo: 1.5, hi: 3.0 })
        .horizon(horizon)
        .seed(seed)
        .build();
    let rigid: Vec<SubmitReq> = trace.iter().map(|r| malleable_submit(r, false)).collect();
    // Even/odd split: deterministic, seed-independent, exactly FRACTION.
    let mixed: Vec<SubmitReq> = trace
        .iter()
        .map(|r| malleable_submit(r, r.id.0 % 2 == 0))
        .collect();

    let (baseline, _) = malleable_replay(topo, &rigid, false);
    let (flag_on_rigid, _) = malleable_replay(topo, &rigid, true);
    let rigid_divergence = baseline
        .iter()
        .filter(|(id, d)| flag_on_rigid.get(*id) != Some(*d))
        .count()
        + baseline.len().abs_diff(flag_on_rigid.len());
    let (mixed_decisions, elapsed) = malleable_replay(topo, &mixed, true);

    let accepted = |m: &BTreeMap<u64, ServerMsg>| {
        m.values()
            .filter(|d| {
                matches!(
                    d,
                    ServerMsg::Accepted { .. } | ServerMsg::AcceptedSegments { .. }
                )
            })
            .count()
    };
    let rigid_accepted = accepted(&baseline);
    let mixed_accepted = accepted(&mixed_decisions);
    let malleable_requests = mixed.iter().filter(|r| r.malleable == Some(true)).count();
    let malleable_accepted = mixed_decisions
        .values()
        .filter(|d| matches!(d, ServerMsg::AcceptedSegments { .. }))
        .count();
    let n = trace.len().max(1) as f64;
    let rigid_accept_rate = rigid_accepted as f64 / n;
    let mixed_accept_rate = mixed_accepted as f64 / n;
    MalleableRow {
        seed,
        interarrival,
        high_load,
        requests: trace.len(),
        rigid_accepted,
        rigid_accept_rate,
        rigid_divergence,
        malleable_fraction: FRACTION,
        malleable_requests,
        malleable_accepted,
        mixed_accepted,
        mixed_accept_rate,
        accept_rate_delta: mixed_accept_rate - rigid_accept_rate,
        decisions_per_sec: trace.len() as f64 / elapsed.max(1e-9),
    }
}

fn malleable_section(smoke: bool) -> Vec<MalleableRow> {
    let topo = Topology::paper_default();
    let (horizon, seeds): (f64, &[u64]) = if smoke {
        (400.0, &[1])
    } else {
        (1_200.0, &[1, 2, 3])
    };
    let mut rows = Vec::new();
    for &seed in seeds {
        // Moderate load: the delta is informational.
        rows.push(malleable_run(&topo, seed, 2.0, horizon, false));
        // Saturation: the delta is the gated claim.
        rows.push(malleable_run(&topo, seed, 0.4, horizon, true));
    }
    rows
}

// ---------------------------------------------------------------------------
// Soak: watermark GC under sustained load on the raw ledger — flat
// memory and latency over ≥10⁶ requests, decisions bit-identical to a
// never-collecting reference on the shared prefix
// ---------------------------------------------------------------------------

const SOAK_STEP: f64 = 1.0;
const SOAK_HORIZON: f64 = 5.0;
const SOAK_BATCH: usize = 1_000;
const SOAK_SEED: u64 = 0x50_4B_17;
/// Rounds between watermark sweeps. Deliberately > 1: with a sweep every
/// round, every expired reservation is collected the moment it ages out
/// and the wholesale-truncation path (entries entirely below the cut)
/// never runs — sweeping on a coarser cadence exercises both collection
/// paths, which the non-vacuity gate checks.
const SOAK_GC_EVERY: usize = 8;

/// FNV-1a fingerprint of one admission decision: the grant's reservation
/// id, or the rejecting port plus the raw IEEE-754 bits of the overflow
/// instant. Two runs that decided identically produce identical
/// fingerprints; any drift — even one ulp in a reject's overflow time —
/// flips them.
fn soak_fingerprint(seq: u64, res: &NetResult<ReservationId>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(seq);
    match res {
        Ok(id) => {
            eat(1);
            eat(id.0);
        }
        Err(NetError::CapacityExceeded { port, at, .. }) => {
            eat(2);
            eat(match port {
                PortRef::In(p) => p.0 as u64,
                PortRef::Out(p) => 0x8000_0000 | p.0 as u64,
            });
            eat(at.to_bits());
        }
        Err(_) => eat(3),
    }
    h
}

/// Resident set size in KB from `/proc/self/status`, 0 where that file
/// does not exist (non-Linux hosts skip the RSS gate).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

struct SoakRun {
    accepted: usize,
    fingerprints: Vec<u64>,
    quintile_breakpoints: Vec<usize>,
    quintile_rss_kb: Vec<u64>,
    quintile_round_p99_us: Vec<f64>,
    quintile_decision_hash: Vec<String>,
    final_breakpoints: usize,
    breakpoints_dropped: u64,
    reservations_collected: u64,
}

/// Drive `rounds` admission rounds of [`SOAK_BATCH`] requests each
/// against a raw [`CapacityLedger`] — no engine, no eager cancellation,
/// so expired reservations pile up until (and unless) the watermark
/// sweep collects them. The request stream is a pure function of
/// [`SOAK_SEED`], so a GC'd run and a reference run replay the identical
/// trace. Fingerprints of the first `fp_cap` decisions are kept for the
/// cross-run divergence count.
fn soak_run(rounds: usize, gc: bool, fp_cap: usize) -> SoakRun {
    assert_eq!(rounds % 5, 0, "quintile accounting wants rounds % 5 == 0");
    let topo = Topology::uniform(4, 4, 1_000.0);
    let ports = topo.num_ingress() as u32;
    let mut ledger = CapacityLedger::new(topo);
    let mut rng = StdRng::seed_from_u64(SOAK_SEED);
    let quintile = rounds / 5;
    let mut out = SoakRun {
        accepted: 0,
        fingerprints: Vec::with_capacity(fp_cap),
        quintile_breakpoints: Vec::with_capacity(5),
        quintile_rss_kb: Vec::with_capacity(5),
        quintile_round_p99_us: Vec::with_capacity(5),
        quintile_decision_hash: Vec::with_capacity(5),
        final_breakpoints: 0,
        breakpoints_dropped: 0,
        reservations_collected: 0,
    };
    let mut round_ns: Vec<u64> = Vec::with_capacity(quintile);
    let mut qhash = 0u64;
    for r in 0..rounds {
        let now = r as f64 * SOAK_STEP;
        // Arrivals always book ahead of `now`, so no decision ever reads
        // the region behind the watermark — the precondition for GC
        // being answer-preserving in the first place.
        let batch: Vec<ReserveRequest> = (0..SOAK_BATCH)
            .map(|_| {
                let start = now + rng.gen_range(0.1..3.0);
                ReserveRequest {
                    route: Route {
                        ingress: IngressId(rng.gen_range(0..ports)),
                        egress: EgressId(rng.gen_range(0..ports)),
                    },
                    start,
                    end: start + rng.gen_range(0.3..2.5),
                    bw: rng.gen_range(10.0..80.0),
                }
            })
            .collect();
        let t0 = Instant::now();
        let results = ledger.reserve_all(&batch);
        round_ns.push(t0.elapsed().as_nanos() as u64);
        for (i, res) in results.iter().enumerate() {
            if res.is_ok() {
                out.accepted += 1;
            }
            let fp = soak_fingerprint((r * SOAK_BATCH + i) as u64, res);
            qhash = qhash.rotate_left(1) ^ fp;
            if out.fingerprints.len() < fp_cap {
                out.fingerprints.push(fp);
            }
        }
        if gc && (r + 1) % SOAK_GC_EVERY == 0 {
            let w = now - SOAK_HORIZON;
            if w > 0.0 {
                let stats = ledger.gc(w);
                out.breakpoints_dropped += stats.breakpoints_dropped as u64;
                out.reservations_collected += stats.reservations_collected as u64;
            }
        }
        if (r + 1) % quintile == 0 {
            out.quintile_breakpoints.push(ledger.breakpoint_count());
            out.quintile_rss_kb.push(rss_kb());
            out.quintile_round_p99_us
                .push(latency_summary(std::mem::take(&mut round_ns)).p99);
            out.quintile_decision_hash.push(format!("{qhash:016x}"));
            qhash = 0;
        }
    }
    out.final_breakpoints = ledger.breakpoint_count();
    out
}

fn soak_section(smoke: bool) -> SoakReport {
    // ≥10⁶ requests even in smoke: flatness over a long horizon is the
    // whole claim. The reference replays a prefix only — it is O(live
    // breakpoints) per booking with nothing ever released, so the full
    // trace would be quadratic by construction.
    let (rounds, ref_rounds) = if smoke { (1_000, 25) } else { (2_000, 50) };
    let fp_cap = ref_rounds * SOAK_BATCH;
    // GC'd run first: its RSS samples must sit on a clean heap, not on
    // top of whatever the never-collecting reference grew.
    let gc = soak_run(rounds, true, fp_cap);
    let reference = soak_run(ref_rounds, false, fp_cap);
    let divergence = gc
        .fingerprints
        .iter()
        .zip(&reference.fingerprints)
        .filter(|(a, b)| a != b)
        .count()
        + gc.fingerprints.len().abs_diff(reference.fingerprints.len());
    let requests = rounds * SOAK_BATCH;
    SoakReport {
        requests,
        rounds,
        batch: SOAK_BATCH,
        step_s: SOAK_STEP,
        gc_horizon_s: SOAK_HORIZON,
        accepted: gc.accepted,
        accept_rate: gc.accepted as f64 / requests.max(1) as f64,
        reservations_collected: gc.reservations_collected,
        breakpoints_dropped: gc.breakpoints_dropped,
        breakpoints_final: gc.final_breakpoints,
        quintile_breakpoints: gc.quintile_breakpoints,
        quintile_rss_kb: gc.quintile_rss_kb,
        quintile_round_p99_us: gc.quintile_round_p99_us,
        quintile_decision_hash: gc.quintile_decision_hash,
        reference_requests: reference.fingerprints.len(),
        reference_breakpoints_final: reference.final_breakpoints,
        divergence,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: admission [--smoke] [--out=FILE]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_admission.json".to_string();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(""),
            other => {
                if let Some(f) = other.strip_prefix("--out=") {
                    out = f.to_string();
                } else {
                    usage(&format!("unknown flag {other}"));
                }
            }
        }
    }

    let (sizes, iters, trials): (&[usize], usize, usize) = if smoke {
        (&[100, 10_000], 2_000, 8)
    } else {
        (&[100, 1_000, 10_000, 100_000], 10_000, 64)
    };
    let (horizon, seeds): (f64, &[u64]) = if smoke {
        (300.0, &[1])
    } else {
        (2_000.0, &[1, 2, 3])
    };
    let interarrival = 2.0; // §5.3 heavy-load point
    let step = 5.0;

    eprintln!("admission bench: micro (indexed vs linear) ...");
    let micro = micro_section(sizes, iters);
    for r in &micro {
        eprintln!(
            "  {:>12} k={:<7} linear {:>10.0} ns  indexed {:>8.0} ns  speedup {:>6.1}x",
            r.query, r.breakpoints, r.linear_ns, r.indexed_ns, r.speedup
        );
    }

    eprintln!("admission bench: differential ({trials} traces) ...");
    let differential = differential_section(trials);
    eprintln!(
        "  {} queries, {} mismatches",
        differential.queries, differential.mismatches
    );

    eprintln!("admission bench: end-to-end §5.3 workload ...");
    let topo = Topology::paper_default();
    let mut end_to_end = Vec::new();
    for &seed in seeds {
        let trace = paper_flexible_trace(&topo, interarrival, horizon, seed);
        end_to_end.push(run_window_rounds(
            &topo,
            &trace,
            step,
            interarrival,
            horizon,
            seed,
        ));
        end_to_end.push(run_greedy_arrivals(
            &topo,
            &trace,
            interarrival,
            horizon,
            seed,
        ));
    }
    for r in &end_to_end {
        eprintln!(
            "  {:>10} seed {}: {}/{} accepted ({:.3}), {:>9.0} decisions/s, round p50 {:.1} us p99 {:.1} us, matches sim: {}",
            r.scheduler,
            r.seed,
            r.accepted,
            r.requests,
            r.accept_rate,
            r.decisions_per_sec,
            r.round_latency_us.p50,
            r.round_latency_us.p99,
            r.matches_offline_sim
        );
    }

    eprintln!("admission bench: WAL durability ...");
    let wal_records = if smoke { 2_000 } else { 20_000 };
    let durability = durability_section(wal_records);
    for r in &durability {
        eprintln!(
            "  {:>3}/{:<6} {:>7} records: {:>9.0} appends/s ({:>6.1} MB/s), recovery {:>7.2} ms",
            r.device, r.fsync, r.records, r.appends_per_sec, r.mb_per_sec, r.recovery_ms
        );
    }

    eprintln!("admission bench: WAL-streaming replication ...");
    let replication = replication_section(smoke);
    eprintln!(
        "  {} requests in {} batches: lag p50 {:.1} us p99 {:.1} us, {} records shipped, failover {:.1} ms, divergence {}, mirrored {}",
        replication.requests,
        replication.batches,
        replication.lag_us.p50,
        replication.lag_us.p99,
        replication.records_shipped,
        replication.failover_ms,
        replication.divergence,
        replication.store_mirrored
    );

    eprintln!("admission bench: topology-sharded cluster routing ...");
    let cluster = cluster_section(smoke);
    for r in &cluster {
        eprintln!(
            "  {} shard(s) cross {:>4.0}%: {:>8.0} submissions/s, p50 {:>7.1} us p99 {:>9.1} us, {} granted ({} cross), {} timeouts, divergence {:?}, violations {}",
            r.shards,
            r.cross_fraction * 100.0,
            r.submissions_per_sec,
            r.submit_latency_us.p50,
            r.submit_latency_us.p99,
            r.granted,
            r.cross_grants,
            r.timeouts,
            r.divergence_vs_solo,
            r.conservation_violations
        );
    }

    eprintln!("admission bench: QoS leftover-bandwidth redistribution ...");
    let qos = qos_section(seeds, interarrival, horizon, step);
    for r in &qos {
        eprintln!(
            "  seed {} mix {:>6}: {}/{} accepted, {} boost rounds ({:.0} MB resold), \
             mean completion {:.1}s -> {:.1}s (-{:.2}s), divergence {}, violations {}/{}",
            r.seed,
            r.classes,
            r.accepted,
            r.requests,
            r.boost_rounds,
            r.boosted_mb,
            r.mean_completion_s_baseline,
            r.mean_completion_s_boosted,
            r.improvement_s,
            r.decision_divergence,
            r.finish_violations,
            r.oversubscriptions
        );
    }

    eprintln!("admission bench: malleable water-filled admission ...");
    let malleable = malleable_section(smoke);
    for r in &malleable {
        eprintln!(
            "  seed {} ia {:>4.1}{}: rigid {}/{} ({:.3}), mixed {}/{} ({:.3}), delta {:+.3}, \
             {} of {} malleable granted, rigid divergence {}, {:>7.0} decisions/s",
            r.seed,
            r.interarrival,
            if r.high_load { " HIGH" } else { "     " },
            r.rigid_accepted,
            r.requests,
            r.rigid_accept_rate,
            r.mixed_accepted,
            r.requests,
            r.mixed_accept_rate,
            r.accept_rate_delta,
            r.malleable_accepted,
            r.malleable_requests,
            r.rigid_divergence,
            r.decisions_per_sec
        );
    }

    eprintln!("admission bench: long-horizon GC soak ...");
    let soak = soak_section(smoke);
    eprintln!(
        "  {} requests in {} rounds: {} accepted, {} reservations collected, \
         {} breakpoints dropped, final {} (reference grew to {}), divergence {}",
        soak.requests,
        soak.rounds,
        soak.accepted,
        soak.reservations_collected,
        soak.breakpoints_dropped,
        soak.breakpoints_final,
        soak.reference_breakpoints_final,
        soak.divergence
    );
    eprintln!(
        "  quintiles: breakpoints {:?}, rss KB {:?}, round p99 us {:?}",
        soak.quintile_breakpoints, soak.quintile_rss_kb, soak.quintile_round_p99_us
    );

    let report = Report {
        schema: "gridband/bench-admission/v8".to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        micro,
        differential,
        end_to_end,
        durability,
        replication,
        cluster,
        qos,
        malleable,
        soak,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {out}");

    // Hard gates: the JSON is only useful if the equivalence and speedup
    // claims hold, so fail loudly instead of committing bad numbers.
    let mut failed = false;
    if report.differential.mismatches > 0 {
        eprintln!(
            "FAIL: indexed/linear mismatches: {}",
            report.differential.mismatches
        );
        failed = true;
    }
    for r in &report.end_to_end {
        if !r.matches_offline_sim {
            eprintln!(
                "FAIL: {} seed {} diverged from Simulation::run",
                r.scheduler, r.seed
            );
            failed = true;
        }
    }
    // Replication gates: the lag/failover numbers only mean something if
    // the follower provably tracked the primary bit for bit.
    {
        let r = &report.replication;
        if r.divergence > 0 {
            eprintln!(
                "FAIL: follower diverged from the primary ({} beacon mismatches)",
                r.divergence
            );
            failed = true;
        }
        if r.beacons_checked == 0 {
            eprintln!("FAIL: no replication beacons were verified — divergence gate is vacuous");
            failed = true;
        }
        if !r.store_mirrored {
            eprintln!("FAIL: follower store is not the primary's durable WAL prefix");
            failed = true;
        }
        if !r.probe_decided {
            eprintln!("FAIL: promoted follower never decided the probe request");
            failed = true;
        }
    }
    // Cluster gates: sharding must be invisible on partition-respecting
    // workloads and may never break port conservation.
    for r in &report.cluster {
        if matches!(r.divergence_vs_solo, Some(n) if n > 0) {
            eprintln!(
                "FAIL: {}-shard cluster diverged from solo on a partition-respecting trace ({:?} decisions)",
                r.shards, r.divergence_vs_solo
            );
            failed = true;
        }
        if r.conservation_violations > 0 {
            eprintln!(
                "FAIL: {}-shard cluster at cross {:.0}% violated conservation {} times",
                r.shards,
                r.cross_fraction * 100.0,
                r.conservation_violations
            );
            failed = true;
        }
    }
    // QoS gates: the overlay must be invisible to admission (bit-exact
    // decisions), must never delay a guaranteed finish or oversubscribe
    // a port, and must measurably shorten completions — non-vacuously.
    for r in &report.qos {
        if r.decision_divergence > 0 {
            eprintln!(
                "FAIL: QoS seed {} mix {} changed {} admission decisions",
                r.seed, r.classes, r.decision_divergence
            );
            failed = true;
        }
        if r.finish_violations > 0 || r.oversubscriptions > 0 {
            eprintln!(
                "FAIL: QoS seed {} mix {} broke conservation: {} finish violations, {} oversubscriptions",
                r.seed, r.classes, r.finish_violations, r.oversubscriptions
            );
            failed = true;
        }
        if r.boost_rounds == 0 {
            eprintln!(
                "FAIL: QoS seed {} mix {} never boosted — invariant gates are vacuous",
                r.seed, r.classes
            );
            failed = true;
        }
        if r.improvement_s <= 0.0 {
            eprintln!(
                "FAIL: QoS seed {} mix {} did not improve mean completion time ({:.3}s)",
                r.seed, r.classes, r.improvement_s
            );
            failed = true;
        }
    }
    // Malleable gates: the flag must be invisible to rigid traffic, the
    // water-filler must actually grant segmented plans, and at
    // saturation flexibility must buy accept-rate.
    for r in &report.malleable {
        if r.rigid_divergence > 0 {
            eprintln!(
                "FAIL: seed {} ia {}: {} rigid decisions changed under --malleable",
                r.seed, r.interarrival, r.rigid_divergence
            );
            failed = true;
        }
        if r.malleable_accepted == 0 {
            eprintln!(
                "FAIL: seed {} ia {}: no malleable submission was granted — the delta gate is vacuous",
                r.seed, r.interarrival
            );
            failed = true;
        }
        if r.high_load && r.accept_rate_delta <= 0.0 {
            eprintln!(
                "FAIL: seed {} ia {}: accept-rate delta {:+.4} at high load — water-filling bought nothing",
                r.seed, r.interarrival, r.accept_rate_delta
            );
            failed = true;
        }
    }

    // Soak gates: the watermark must provably change nothing (zero
    // divergence, non-vacuously) while holding breakpoints, RSS, and
    // round p99 flat across the whole long-horizon run.
    {
        let s = &report.soak;
        if s.divergence > 0 {
            eprintln!(
                "FAIL: GC'd soak diverged from the never-collecting reference on {} of {} shared decisions",
                s.divergence, s.reference_requests
            );
            failed = true;
        }
        if s.reference_requests == 0 {
            eprintln!("FAIL: soak divergence gate is vacuous — the reference replayed nothing");
            failed = true;
        }
        if s.reservations_collected == 0 || s.breakpoints_dropped == 0 {
            eprintln!(
                "FAIL: soak GC collected nothing ({} reservations, {} breakpoints) — flatness gates are vacuous",
                s.reservations_collected, s.breakpoints_dropped
            );
            failed = true;
        }
        if s.accepted == 0 || s.accepted == s.requests {
            eprintln!(
                "FAIL: soak trace is vacuous ({} of {} accepted — need a mix)",
                s.accepted, s.requests
            );
            failed = true;
        }
        match (
            s.quintile_breakpoints.first(),
            s.quintile_breakpoints.last(),
        ) {
            (Some(&first), Some(&last)) if last > 2 * first + 128 => {
                eprintln!(
                    "FAIL: soak breakpoint count grew {first} -> {last} across the run — GC is not holding memory flat"
                );
                failed = true;
            }
            (None, _) | (_, None) => {
                eprintln!("FAIL: soak recorded no breakpoint quintiles");
                failed = true;
            }
            _ => {}
        }
        if let (Some(&first), Some(&last)) = (s.quintile_rss_kb.first(), s.quintile_rss_kb.last()) {
            // 0 means /proc/self/status is unavailable; skip off-Linux.
            if first > 0 && last > first + 32_768 {
                eprintln!("FAIL: soak RSS grew {first} KB -> {last} KB across the run (> 32 MB)");
                failed = true;
            }
        }
        if let (Some(&first), Some(&last)) = (
            s.quintile_round_p99_us.first(),
            s.quintile_round_p99_us.last(),
        ) {
            // Generous: flat-with-noise passes, the linear creep of an
            // uncollected ledger cannot.
            if last > 2.0 * first + 2_000.0 {
                eprintln!(
                    "FAIL: soak round p99 crept {first:.1} us -> {last:.1} us across the run"
                );
                failed = true;
            }
        }
    }
    for r in &report.micro {
        if r.breakpoints >= 10_000 && r.speedup < 5.0 {
            eprintln!(
                "FAIL: {} at k={} speedup {:.1}x < 5x",
                r.query, r.breakpoints, r.speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
