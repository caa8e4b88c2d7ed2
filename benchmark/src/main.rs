//! `gridbench` — the repo benchmark.
//!
//! ```text
//! gridbench --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! gridbench suite [--seed N] [--workload NAME] [--repeat K] [--seconds S] [--smoke]
//! gridbench compare A.json B.json
//! ```
//!
//! `benchmark/run.sh` builds the daemon and this binary and passes its
//! arguments through. README.md defines every workload and metric.

mod check;
mod client;
mod daemon;
mod layers;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gridband_serve::protocol::{ClientMsg, ReqState, ServerMsg};
use serde_json::Value;

use client::{closed_loop, open_loop, Conn, Dec, RunLog, NO_REPLY};
use daemon::Daemon;
use spec::{Drive, Ops, Spec};

/// An open-loop run whose generator left later than this (p99) is
/// measuring the generator, not the daemon, and is reported incorrect.
/// One round period: later than that and sends land in the wrong
/// round. (Lateness is charged to latency in any case; on the two-core
/// calibration host the p99 is 2 to 3 ms of wake-up delay.)
const SCHED_LATE_LIMIT_US: f64 = 5_000.0;
/// `service_mix`'s latency limit on the submit p99.
const SLO_P99_US: f64 = 250_000.0;
/// `lat_p99_us` (and the generator's lateness p99) is the median of
/// this many consecutive chunks' p99s.
const LATENCY_SLICES: usize = 10;
/// The daemon's default `--snapshot-every`, in rounds.
const SNAPSHOT_EVERY: u32 = 64;
/// Ids re-queried after each restart over a WAL directory.
const RECOVERY_SAMPLES: usize = 1_000;

/// Where things are, and how much work a run does.
struct Env {
    /// The shipped daemon binary.
    gridband: PathBuf,
    /// Scratch and result directory, inside the checkout.
    out: PathBuf,
    benchmark_json: PathBuf,
    /// Whole set-ups per run (`setup_s` is their median).
    setup_reps: usize,
    /// Cold restarts per run (`recovery_ms` is their median).
    restarts: usize,
    /// Divisor on warm-up and traced op counts (`--smoke`).
    shrink: usize,
}

impl Env {
    fn from_environment() -> Env {
        let var = |name: &str, default: &str| {
            PathBuf::from(std::env::var(name).unwrap_or_else(|_| default.to_string()))
        };
        Env {
            gridband: var("GRIDBAND_BIN", "target/release/gridband"),
            out: var("GRIDBENCH_OUT", "benchmark/out"),
            benchmark_json: var("GRIDBENCH_SPEC", "BENCHMARK.json"),
            setup_reps: 3,
            restarts: 9,
            shrink: 1,
        }
    }
}

/// One metric as printed: name, value, unit, and the sample count
/// behind it where it is a statistic of a sample.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// What one run reports.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The contract's metrics: every end-to-end one, or every per-layer
    /// one on a traced run.
    metrics: Vec<Metric>,
    /// Further named numbers, printed but not part of the contract.
    extras: Vec<Metric>,
    /// Why the run is incorrect, if it is.
    problems: Vec<String>,
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Build the ops, start the daemon, connect, and complete one round
/// trip. Everything a set-up does before the warm-up.
fn bring_up(
    spec: &Spec,
    seed: u64,
    n: usize,
    env: &Env,
    wal_dir: Option<&Path>,
) -> Result<(Ops, Daemon, Conn), String> {
    let ops = spec.build_ops(seed, n);
    if let Some(dir) = wal_dir {
        fresh_dir(dir)?;
    }
    let daemon = Daemon::spawn(&env.gridband, &spec.daemon_args(wal_dir))?;
    let mut conn = Conn::connect(daemon.addr)?;
    conn.stats()?;
    Ok((ops, daemon, conn))
}

/// Drive `ops` with the workload's loop. `measure: None` stops at the
/// end of the warm-up.
fn drive<'a>(
    spec: &Spec,
    conn: Conn,
    ops: &'a Ops,
    warm: usize,
    measure: Option<Duration>,
    epoch: Instant,
    daemon: &Daemon,
) -> Result<(RunLog<'a>, Conn), String> {
    let cpu = || daemon.cpu_seconds().unwrap_or(f64::NAN);
    match spec.drive {
        Drive::Closed { window } => {
            client::check_generator_limits(1, 1)?;
            let mut conn = conn;
            let log = closed_loop(&mut conn, ops, window, warm, measure, epoch, &cpu)?;
            Ok((log, conn))
        }
        Drive::Open { rate } => {
            client::check_generator_limits(2, 1)?;
            open_loop(conn, ops, rate, warm, epoch, &cpu)
        }
    }
}

/// Start a daemon with `args`, time spawn → first `Stats` reply, and
/// over a WAL directory re-query sampled ids against what the previous
/// daemon acknowledged. Returns the time in ms and the mismatches.
fn restart(
    env: &Env,
    args: &[String],
    check: Option<(&Ops, &RunLog)>,
) -> Result<(f64, usize), String> {
    let mut daemon = Daemon::spawn(&env.gridband, args)?;
    let mut conn = Conn::connect(daemon.addr)?;
    conn.stats()?;
    let ms = daemon.spawned_at.elapsed().as_secs_f64() * 1e3;
    let mut mismatches = 0;
    if let Some((ops, log)) = check {
        let submits = ops.submit_op.len();
        let stride = (submits / RECOVERY_SAMPLES).max(1);
        for id in (0..submits).step_by(stride) {
            let want = match log.tracker.dec[id] {
                // Never acknowledged, so the daemon owes nothing.
                Dec::None => continue,
                Dec::Closed => ReqState::Cancelled,
                Dec::Rejected(_) => ReqState::Rejected,
                _ if log.tracker.freed.contains(&(id as u64)) => ReqState::Cancelled,
                _ => ReqState::Accepted,
            };
            let ServerMsg::Status { state, alloc, .. } =
                conn.call(&ClientMsg::Query { id: id as u64 })?
            else {
                return Err("Query answered with something else".to_string());
            };
            let alloc_ok = match (log.tracker.dec[id], alloc) {
                (Dec::Accepted { bw, start, finish }, Some((b, s, f))) if state == want => {
                    (bw, start, finish) == (b.to_bits(), s.to_bits(), f.to_bits())
                }
                _ => true,
            };
            if state != want || !alloc_ok {
                mismatches += 1;
            }
        }
    }
    daemon.kill();
    Ok((ms, mismatches))
}

/// Failures, side figures and complaints a run collects on the way.
#[derive(Default)]
struct Notes {
    failed: u64,
    extras: Vec<Metric>,
    problems: Vec<String>,
}

/// What either kind of loop yields for the common metrics.
struct Measured {
    ops_per_s: f64,
    /// Submit → decision samples of the timed part, in send order, ns.
    lat: Vec<u64>,
    /// Query → status samples likewise.
    query_ns: Vec<u64>,
}

/// A closed-loop run's figures and output checks: the daemon must
/// agree with the reference replay on every op it was sent, and the
/// accepted set must be feasible.
fn measure_closed(
    spec: &Spec,
    ops: &Ops,
    log: &RunLog,
    rates: &[(f64, f64)],
    n: &mut Notes,
) -> Result<Measured, String> {
    let (t, w) = (&log.tracker, &log.window);
    let ops_per_s = stats::median(&rates.iter().map(|r| r.0).collect::<Vec<_>>());
    let timed = |want_query: bool| -> Vec<u64> {
        (0..log.sent)
            .filter(|&i| matches!(ops.msgs[i], ClientMsg::Query { .. }) == want_query)
            .filter(|&i| log.from_ns[i] >= w.t0_ns() && t.recv_ns[i] <= w.t1_ns())
            .map(|i| t.recv_ns[i] - log.from_ns[i])
            .collect()
    };
    let (lat, query_ns) = (timed(false), timed(true));
    let t_ref = Instant::now();
    let (want, want_states) = check::reference(spec, ops, log.sent)?;
    let submits = ops.msgs[..log.sent]
        .iter()
        .filter(|m| matches!(m, ClientMsg::Submit(_)))
        .count();
    let differ = (0..submits)
        .filter(|&id| t.dec[id] != want[id] || !t.dec[id].served())
        .count();
    let states_differ = t.query_states != want_states;
    n.failed += differ as u64 + u64::from(states_differ);
    if states_differ {
        n.problems
            .push("query replies differ from the reference replay".to_string());
    }
    if differ > 0 {
        n.problems.push(format!(
            "{differ} decisions differ from the reference replay"
        ));
    }
    match check::audit_schedule(spec, ops, &t.dec) {
        Ok(audited) => n
            .extras
            .push(metric("audited_grants", audited as f64, "count", 0)),
        Err(e) => n.problems.push(format!("constraint audit: {e}")),
    }
    n.extras
        .push(metric("check_s", t_ref.elapsed().as_secs_f64(), "s", 0));
    Ok(Measured {
        ops_per_s,
        lat,
        query_ns,
    })
}

/// The open-loop run's figures and output checks: per-grant sanity and
/// the daemon's own counters, since real-time decisions have no
/// reference.
fn measure_open(
    spec: &Spec,
    ops: &Ops,
    log: &RunLog,
    warm: usize,
    conn: &mut Conn,
    n: &mut Notes,
) -> Result<Measured, String> {
    let (t, w) = (&log.tracker, &log.window);
    let measured = warm..log.sent;
    let replied: Vec<usize> = measured
        .clone()
        .filter(|&i| t.recv_ns[i] != NO_REPLY)
        .collect();
    // Goodput: ops answered over the time from the first due
    // instant to the last answer. It equals the offered rate
    // unless the daemon falls behind.
    let last = replied
        .iter()
        .map(|&i| t.recv_ns[i])
        .max()
        .unwrap_or(w.t1_ns());
    let ops_per_s = replied.len() as f64 / ((last - w.t0_ns()) as f64 / 1e9);
    let since_due = |i: &usize| t.recv_ns[*i].saturating_sub(log.from_ns[*i]);
    let is = |i: &usize, f: fn(&ClientMsg) -> bool| f(&ops.msgs[*i]);
    let lat: Vec<u64> = replied
        .iter()
        .filter(|i| is(i, |m| matches!(m, ClientMsg::Submit(_))))
        .map(since_due)
        .collect();
    let query_ns: Vec<u64> = replied
        .iter()
        .filter(|i| is(i, |m| matches!(m, ClientMsg::Query { .. })))
        .map(since_due)
        .collect();
    let refused = t
        .dec
        .iter()
        .filter(|d| **d != Dec::None && !d.served())
        .count();
    let bad_grants = check::grant_violations(ops, &t.dec);
    n.failed += (refused + bad_grants) as u64;
    if bad_grants > 0 {
        n.problems
            .push(format!("{bad_grants} grants break MaxRate or volume"));
    }
    // Let the last round's bookkeeping land, then the daemon's
    // own counters must match what this client saw.
    std::thread::sleep(spec.tick().unwrap_or_default() * 4);
    let stats = conn.stats()?;
    let unbalanced = check::stats_violations(&stats, t, ops);
    n.failed += unbalanced.len() as u64;
    n.problems.extend(unbalanced);
    let late_p99 = stats::sliced_p99_us(&log.late_ns, LATENCY_SLICES);
    n.extras.push(metric(
        "sched_late_p99_us",
        late_p99,
        "us",
        log.late_ns.len(),
    ));
    if late_p99 > SCHED_LATE_LIMIT_US {
        n.problems
            .push(format!("generator ran {late_p99:.0} us late at p99"));
    }
    // No growing backlog: the last fifth of the run waits no
    // longer than the first fifth did (twice, plus a tick).
    let fifth = lat.len() / 5;
    let (head, _) = stats::p50_p99_us(lat[..fifth.max(1)].to_vec());
    let (tail, _) = stats::p50_p99_us(lat[lat.len() - fifth.max(1)..].to_vec());
    let (_, p99) = stats::p50_p99_us(lat.clone());
    let tick_us = spec.tick().unwrap_or_default().as_secs_f64() * 1e6;
    let slo_met = p99 <= SLO_P99_US && tail <= 2.0 * head + tick_us;
    n.extras
        .push(metric("slo_met", f64::from(u8::from(slo_met)), "bool", 0));
    n.extras.push(metric(
        "accept_ratio",
        stats.accepted as f64 / stats.submitted.max(1) as f64,
        "ratio",
        0,
    ));
    n.extras.push(metric(
        "breakpoints_live",
        stats.breakpoints_live as f64,
        "count",
        0,
    ));
    Ok(Measured {
        ops_per_s,
        lat,
        query_ns,
    })
}

/// One end-to-end run: tracing off, the shipped daemon as a child
/// process, everything measured from outside it.
fn run_e2e(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let warm = (spec.warm_ops / env.shrink).max(1);
    let n = warm + spec.pool(seconds) - spec.warm_ops;
    let wal_dir = spec.wal.then(|| {
        env.out
            .join(format!("wal-{}-{}", spec.name, std::process::id()))
    });
    let wal = wal_dir.as_deref();

    // Set-up, several times over; all but the last stop after warm-up.
    let mut setups = Vec::new();
    for _ in 1..env.setup_reps {
        let epoch = Instant::now();
        let (mut ops, mut daemon, conn) = bring_up(spec, seed, n, env, wal)?;
        if matches!(spec.drive, Drive::Open { .. }) {
            ops.truncate(warm);
        }
        let (log, _conn) = drive(spec, conn, &ops, warm, None, epoch, &daemon)?;
        setups.push(log.warm_end_ns as f64 / 1e9);
        daemon.kill();
    }
    let epoch = Instant::now();
    let (ops, mut daemon, conn) = bring_up(spec, seed, n, env, wal)?;
    let measure = Duration::from_secs_f64(seconds);
    let (log, mut conn) = drive(spec, conn, &ops, warm, Some(measure), epoch, &daemon)?;
    setups.push(log.warm_end_ns as f64 / 1e9);

    let t = &log.tracker;
    let w = &log.window;
    let rates = w.slice_rates();
    if rates.is_empty() {
        return Err(format!("{seconds} s is too short to hold one whole slice"));
    }
    let cpu_us = stats::median(&rates.iter().map(|r| r.1).collect::<Vec<_>>());
    let mut notes = Notes::default();
    let m = match spec.drive {
        Drive::Closed { .. } => measure_closed(spec, &ops, &log, &rates, &mut notes)?,
        Drive::Open { .. } => measure_open(spec, &ops, &log, warm, &mut conn, &mut notes)?,
    };
    let Measured {
        ops_per_s,
        lat,
        query_ns,
    } = m;
    let Notes {
        mut failed,
        mut extras,
        mut problems,
    } = notes;
    failed += t.stray;
    let unanswered = (0..log.sent).filter(|&i| t.recv_ns[i] == NO_REPLY).count();
    failed += unanswered as u64;
    if unanswered > 0 {
        problems.push(format!("{unanswered} ops had no reply"));
    }
    if t.stray > 0 {
        problems.push(format!("{} stray or error replies", t.stray));
    }
    if lat.len() < 20 || query_ns.len() < 20 {
        return Err(format!(
            "only {} latency and {} query samples in {seconds} s",
            lat.len(),
            query_ns.len()
        ));
    }
    let peak_rss = daemon.peak_rss_mb()?;
    drop(conn);
    if let Some(tick) = spec.tick() {
        // A real-time daemon keeps firing (empty) rounds; one snapshot
        // interval on, the log tail it would replay holds none of the
        // run's decisions, wherever in that interval the kill lands.
        std::thread::sleep(tick * SNAPSHOT_EVERY + Duration::from_millis(50));
    }
    let log_text = daemon.kill();

    // Cold restarts: over the WAL directory where there is one, of a
    // fresh daemon where there is not.
    let args = spec.daemon_args(wal);
    let mut restart_ms = Vec::new();
    // A restart is tens of milliseconds, and this host's speed swings
    // by a third over seconds: five in a row all catch one mood (within
    // 4 % of each other, 45 % apart between runs). So they are spaced
    // over about the time the measured part took, as its slices are; a
    // cold start with nothing to recover gets more, over less.
    let (restarts, over) = if spec.wal {
        (env.restarts, seconds)
    } else {
        (env.restarts * 5 / 3, seconds * 0.4)
    };
    let phase = Instant::now();
    for k in 0..restarts {
        let due = Duration::from_secs_f64(over * k as f64 / restarts as f64);
        std::thread::sleep(due.saturating_sub(phase.elapsed()));
        let (ms, mismatches) = restart(env, &args, spec.wal.then_some((&ops, &log)))
            .map_err(|e| format!("restart: {e}\nfirst daemon logged:\n{log_text}"))?;
        restart_ms.push(ms);
        if mismatches > 0 {
            failed += mismatches as u64;
            problems.push(format!(
                "{mismatches} acknowledged decisions changed across a restart"
            ));
        }
    }
    if let Some(dir) = wal {
        let _ = std::fs::remove_dir_all(dir);
    }

    let (lat_n, query_n) = (lat.len(), query_ns.len());
    let lat_p99 = stats::sliced_p99_us(&lat, LATENCY_SLICES);
    let (lat_p50, lat_whole_p99) = stats::p50_p99_us(lat);
    extras.push(metric("lat_whole_run_p99_us", lat_whole_p99, "us", lat_n));
    let (query_p50, _) = stats::p50_p99_us(query_ns);
    extras.push(metric(
        "measured_s",
        (w.t1_ns() - w.t0_ns()) as f64 / 1e9,
        "s",
        rates.len(),
    ));
    extras.push(metric("ops_sent", log.sent as f64, "count", 0));
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted: log.sent as u64,
        failed,
        metrics: vec![
            metric("setup_s", stats::median(&setups), "s", setups.len()),
            metric("ops_per_s", ops_per_s, "ops/s", 0),
            metric("cpu_us_per_op", cpu_us, "us", 0),
            metric("lat_p50_us", lat_p50, "us", lat_n),
            metric("lat_p99_us", lat_p99, "us", lat_n),
            metric("query_p50_us", query_p50, "us", query_n),
            metric("peak_rss_mb", peak_rss, "MB", 0),
            metric(
                "recovery_ms",
                stats::median(&restart_ms),
                "ms",
                restart_ms.len(),
            ),
        ],
        extras,
        problems,
    })
}

fn run_one(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Env,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(&env.out).map_err(|e| format!("{}: {e}", env.out.display()))?;
    if trace {
        layers::run_traced(spec, seed, seconds, env)
    } else {
        run_e2e(spec, seed, seconds, env)
    }
}

/// Print every metric as `workload name value unit n=<samples>`.
fn print_outcome(workload: &str, o: &Outcome) {
    for m in o.metrics.iter().chain(&o.extras) {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    for p in &o.problems {
        println!("{workload} PROBLEM {p}");
    }
}

/// A number as a JSON value.
fn num(x: impl serde::Serialize) -> Value {
    serde_json::to_value(&x).expect("numbers serialize")
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Object(v))
            })
            .collect(),
    )
}

/// The contract's result line.
fn result_line(o: &Outcome) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".to_string(), Value::Bool(o.correct)),
        ("attempted".to_string(), num(o.attempted)),
        ("failed".to_string(), num(o.failed)),
        ("metrics".to_string(), metrics_value(&o.metrics)),
    ]))
    .expect("a value tree serializes")
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }
    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad {flag} {v}")),
            None => Ok(default),
        }
    }
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn read_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The filesystem type holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// `suite`: the workloads end to end, then their traced runs; every
/// metric printed, everything written to `<out>/result.json`.
fn suite(args: &Args, mut env: Env) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let smoke = args.has("--smoke");
    let mut seconds: f64 = args.parsed("--seconds", 10.0)?;
    if smoke {
        (seconds, env.setup_reps, env.restarts, env.shrink) = (0.5, 1, 1, 10);
    }
    let names: Vec<&str> = match args.value("--workload") {
        Some(w) => vec![w],
        None => spec::NAMES.to_vec(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in [false, true] {
        for name in &names {
            let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            for _ in 0..if trace { 1 } else { repeat } {
                let o = run_one(&spec, seed, seconds, trace, &env)?;
                print_outcome(name, &o);
                all_correct &= o.correct;
                let mut all = metrics_value(&o.metrics);
                if let (Value::Object(m), Value::Object(x)) = (&mut all, metrics_value(&o.extras)) {
                    m.extend(x);
                }
                runs.push(Value::Object(vec![
                    ("workload".to_string(), Value::String(name.to_string())),
                    ("traced".to_string(), Value::Bool(trace)),
                    ("correct".to_string(), Value::Bool(o.correct)),
                    ("attempted".to_string(), num(o.attempted)),
                    ("failed".to_string(), num(o.failed)),
                    ("metrics".to_string(), all),
                ]));
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let workloads = Value::Array(
        names
            .iter()
            .filter_map(|n| Spec::by_name(n))
            .map(|s| {
                let n = s.pool(seconds) as u64;
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("why".to_string(), Value::String(s.why.to_string())),
                    ("drive".to_string(), Value::String(format!("{:?}", s.drive))),
                    ("ops_built".to_string(), num(n)),
                ])
            })
            .collect(),
    );
    let host = Value::Object(vec![
        ("nproc".to_string(), num(cores as u64)),
        (
            "kernel".to_string(),
            Value::String(read_line("/proc/sys/kernel/osrelease")),
        ),
        ("commit".to_string(), Value::String(commit)),
        ("seed".to_string(), num(seed)),
        ("seconds".to_string(), num(seconds)),
        ("workloads".to_string(), workloads),
        (
            "wal_filesystem".to_string(),
            Value::String(filesystem_of(&env.out)),
        ),
    ]);
    let result = Value::Object(vec![
        ("host".to_string(), host),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    let path = env.out.join("result.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&result).expect("value tree"),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let env = Env::from_environment();
    match args.0.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.0.get(1), args.0.get(2)) else {
                return Err("usage: gridbench compare A.json B.json".to_string());
            };
            stats::compare(&env.benchmark_json.display().to_string(), a, b)
        }
        Some("suite") => suite(&args, env),
        _ if args.has("--trace") => {
            let name = args.value("--workload").ok_or("--workload is required")?;
            let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let seconds: f64 = args.parsed("--seconds", 10.0)?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(format!("bad --seconds {seconds}"));
            }
            let trace = args.parsed::<u8>("--trace", 0)? != 0;
            let o = run_one(&spec, args.parsed("--seed", 1)?, seconds, trace, &env)?;
            print_outcome(name, &o);
            println!("{}", result_line(&o));
            // A run that completed has reported; `correct` carries the
            // verdict, the exit code only says the run happened.
            Ok(true)
        }
        _ => Err("usage: gridbench --workload NAME --seed N --seconds S --trace 0|1\n       gridbench suite [--seed N] [--workload NAME] [--repeat K] [--seconds S] [--smoke]\n       gridbench compare A.json B.json".to_string()),
    }
}

fn main() -> std::process::ExitCode {
    match real_main() {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::from(1),
        Err(e) => {
            eprintln!("gridbench: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
