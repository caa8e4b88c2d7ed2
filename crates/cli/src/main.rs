//! `gridband` — the command-line experiment runner.
//!
//! ```text
//! gridband fig4|fig5|fig6|fig7|tuning|optgap|npc|maxmin [--quick] [--csv] [--seeds N]
//! gridband run   [--topo paper|grid5000|MxNxCAP] [--sched greedy|window:STEP]
//!                [--policy min|f:X] [--interarrival S | --load L]
//!                [--slack LO:HI] [--horizon S] [--seed N] [--json]
//!                [--timeline FILE.csv] [--diurnal DEPTH:PERIOD]
//! gridband trace [--load L | --interarrival S] [--horizon S] [--seed N] [--out FILE]
//! gridband stats FILE
//! ```

use gridband_algos::{AdaptiveGreedy, BandwidthPolicy, BookAhead, Greedy, WindowScheduler};
use gridband_bench::opts::FigureOpts;
use gridband_bench::{experiments as exp, extensions as ext, table::ResultTable};
use gridband_sim::{Simulation, Timeline};
use gridband_workload::Trace;

mod runcfg;
use runcfg::{RunConfig, Scheduler};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage(0);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "fig4" | "fig5" | "fig6" | "fig7" | "tuning" | "optgap" | "npc" | "maxmin"
        | "bookahead" | "distributed" | "longlived" | "hotspot" | "mice" | "retry"
        | "malleable" | "sensitivity" => figure(&cmd, args),
        "run" => run_custom(args),
        "compare" => compare(args),
        "serve" => serve(args),
        "cluster" => cluster(args),
        "promote" => promote(args),
        "trace" => gen_trace(args),
        "stats" => trace_stats(args),
        "--help" | "-h" | "help" => usage(0),
        other => {
            eprintln!("error: unknown command {other}");
            usage(2);
        }
    }
}

/// Print a CLI error and exit with status 2.
fn fail(msg: std::fmt::Arguments<'_>) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage(code: i32) -> ! {
    eprintln!(
        "gridband — bandwidth sharing in grid environments (HPDC'06 reproduction)

commands:
  fig4|fig5|fig6|fig7       regenerate a paper figure   [--quick] [--csv] [--seeds N]
  tuning|optgap|npc|maxmin  extension studies           (same flags)
  bookahead|distributed|longlived|hotspot|mice|retry|malleable  extension studies
  run                       one custom simulation       (gridband run --help)
  compare                   several schedulers on one workload
                            (--scheds greedy,window:50,bookahead + run flags)
  serve                     run the reservation daemon  (gridband serve --help)
                            drive it with the `loadgen` binary from gridband-serve
  cluster                   route a workload over topology shards
                            (gridband cluster --help)
  promote [--addr H:P]      promote a hot-standby follower to primary
  trace                     generate a workload trace JSON
  stats FILE                summarize a trace file"
    );
    std::process::exit(code);
}

fn figure(cmd: &str, args: Vec<String>) {
    let opts = FigureOpts::parse(args.into_iter());
    let emit = |t: ResultTable| opts.emit(&t);
    match cmd {
        "fig4" => {
            let (loads, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![1.0, 4.0, 8.0], 1_500.0)
            } else {
                (vec![0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0], 4_000.0)
            };
            emit(exp::fig4_table(&exp::fig4(&opts.seeds, &loads, horizon)));
        }
        "fig5" => {
            let (ias, steps, horizon): (Vec<f64>, Vec<f64>, f64) = if opts.quick {
                (vec![0.5, 2.0], vec![20.0, 100.0], 400.0)
            } else {
                (
                    vec![0.1, 0.25, 0.5, 1.0, 2.0, 5.0],
                    vec![10.0, 50.0, 100.0, 400.0],
                    1_000.0,
                )
            };
            emit(exp::fig5_table(&exp::fig5(
                &opts.seeds,
                &ias,
                &steps,
                horizon,
            )));
        }
        "fig6" | "fig7" => {
            let (heavy, light, horizon): (Vec<f64>, Vec<f64>, f64) = if opts.quick {
                (vec![0.5, 2.0], vec![5.0, 15.0], 500.0)
            } else {
                (
                    vec![0.1, 0.25, 0.5, 1.0, 2.0, 5.0],
                    vec![3.0, 5.0, 8.0, 12.0, 16.0, 20.0],
                    1_500.0,
                )
            };
            for (pane, ias) in [("left/heavy", &heavy), ("right/light", &light)] {
                let rows = if cmd == "fig6" {
                    exp::fig6(&opts.seeds, ias, horizon)
                } else {
                    exp::fig7(&opts.seeds, ias, 400.0, horizon)
                };
                emit(exp::policy_table(
                    &format!("{} {pane} — accept rate per policy", cmd.to_uppercase()),
                    &rows,
                ));
            }
        }
        "tuning" => {
            let (fs, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![0.0, 0.5, 1.0], 1_000.0)
            } else {
                ((0..=10).map(|k| k as f64 / 10.0).collect(), 4_000.0)
            };
            emit(exp::tuning_table(&exp::tuning(
                &opts.seeds,
                &fs,
                15.0,
                50.0,
                horizon,
            )));
        }
        "optgap" => {
            let sizes: Vec<usize> = if opts.quick {
                vec![8, 12]
            } else {
                vec![8, 12, 16, 20]
            };
            emit(exp::optgap_table(&exp::optgap(&opts.seeds, &sizes)));
        }
        "npc" => {
            let (ns, per_seed) = if opts.quick {
                (vec![2, 3], 2)
            } else {
                (vec![2, 3, 4], 4)
            };
            let rows = exp::npc(&opts.seeds, &ns, per_seed);
            let ok = rows.iter().all(|r| r.solvable == r.reached_target);
            emit(exp::npc_table(&rows));
            assert!(ok, "Theorem 1 equivalence violated — this is a bug");
        }
        "maxmin" => {
            let (ias, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![1.0, 10.0], 400.0)
            } else {
                (vec![0.5, 1.0, 2.0, 5.0, 10.0, 20.0], 1_500.0)
            };
            emit(exp::maxmin_table(&exp::maxmin_cmp(
                &opts.seeds,
                &ias,
                100.0,
                horizon,
            )));
        }
        "bookahead" => {
            let (ias, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![0.5, 2.0], 400.0)
            } else {
                (vec![0.25, 0.5, 1.0, 2.0, 5.0, 10.0], 1_200.0)
            };
            emit(ext::bookahead_table(&ext::bookahead(
                &opts.seeds,
                &ias,
                horizon,
            )));
        }
        "distributed" => {
            let (delays, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![0.0, 1.0], 400.0)
            } else {
                (vec![0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0], 1_200.0)
            };
            emit(ext::distributed_table(&ext::distributed(
                &opts.seeds,
                &delays,
                horizon,
            )));
        }
        "longlived" => {
            let sizes: Vec<usize> = if opts.quick {
                vec![40, 120]
            } else {
                vec![20, 40, 80, 160, 320]
            };
            emit(ext::longlived_table(&ext::longlived(&opts.seeds, &sizes)));
        }
        "hotspot" => {
            let n = if opts.quick { 60 } else { 300 };
            emit(ext::hotspot_table(&ext::hotspot(&opts.seeds, n)));
        }
        "mice" => {
            let (ias, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![0.5, 10.0], 300.0)
            } else {
                (vec![0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0], 1_000.0)
            };
            emit(ext::mice_table(&ext::mice(&opts.seeds, &ias, horizon)));
        }
        "retry" => {
            let (attempts, horizon): (Vec<usize>, f64) = if opts.quick {
                (vec![1, 3], 300.0)
            } else {
                (vec![1, 2, 3, 5, 8], 1_200.0)
            };
            emit(ext::retry_table(&ext::retry_study(
                &opts.seeds,
                &attempts,
                30.0,
                horizon,
            )));
        }
        "malleable" => {
            let (ias, horizon): (Vec<f64>, f64) = if opts.quick {
                (vec![0.5, 2.0], 300.0)
            } else {
                (vec![0.25, 0.5, 1.0, 2.0, 5.0, 10.0], 1_200.0)
            };
            emit(ext::malleable_table(&ext::malleable(
                &opts.seeds,
                &ias,
                horizon,
            )));
        }
        "sensitivity" => {
            let horizon = if opts.quick { 400.0 } else { 1_500.0 };
            emit(ext::sensitivity_table(&ext::sensitivity(
                &opts.seeds,
                horizon,
            )));
        }
        _ => unreachable!(),
    }
}

fn run_custom(args: Vec<String>) {
    let cfg = RunConfig::parse(args);
    let trace = cfg.build_trace();
    let sim = Simulation::new(cfg.topology.clone());
    let report = match &cfg.scheduler {
        Scheduler::Greedy => sim.run(&trace, &mut Greedy::new(cfg.policy)),
        Scheduler::Window(step) => {
            let mut w = WindowScheduler::new(*step, cfg.policy);
            sim.run(&trace, &mut w)
        }
    };
    if let Some(path) = &cfg.timeline {
        let tl = Timeline::sample(
            &trace,
            &cfg.topology,
            &report.assignments,
            trace.first_start(),
            trace.horizon(),
            (trace.horizon() - trace.first_start()).max(1.0) / 500.0,
        );
        std::fs::write(path, tl.to_csv())
            .unwrap_or_else(|e| fail(format_args!("cannot write {path}: {e}")));
        eprintln!("timeline written to {path} (peak {:.0} MB/s)", tl.peak());
    }
    if cfg.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        println!(
            "trace: {} requests, offered load {:.2}",
            trace.len(),
            report.offered_load
        );
        println!("{}", report.summary());
        for f in [0.5, 0.8, 1.0] {
            println!(
                "  guaranteed rate at f={f:.1}: {:.3}",
                report.guaranteed_rate(&trace, f)
            );
        }
    }
}

fn compare(mut args: Vec<String>) {
    // Extract --scheds LIST; remaining flags configure the workload.
    let mut scheds = vec![
        "greedy".to_string(),
        "minrate".to_string(),
        "adaptive".to_string(),
        "window:50".to_string(),
        "window:400".to_string(),
        "bookahead".to_string(),
    ];
    if let Some(pos) = args.iter().position(|a| a == "--scheds") {
        if pos + 1 >= args.len() {
            fail(format_args!("--scheds requires a comma-separated list"));
        }
        scheds = args[pos + 1].split(',').map(|s| s.to_string()).collect();
        args.drain(pos..=pos + 1);
    }
    let cfg = RunConfig::parse(args);
    let trace = cfg.build_trace();
    let sim = Simulation::new(cfg.topology.clone());
    println!(
        "workload: {} requests, offered load {:.2}, policy {}",
        trace.len(),
        trace.offered_load(&cfg.topology),
        cfg.policy
    );
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>12}",
        "scheduler", "accept", "util", "speedup", "start delay"
    );
    for spec in &scheds {
        let report = match spec.as_str() {
            "greedy" => sim.run(&trace, &mut Greedy::new(cfg.policy)),
            "bookahead" => sim.run(&trace, &mut BookAhead::new(cfg.policy)),
            "minrate" => sim.run(&trace, &mut Greedy::new(BandwidthPolicy::MinRate)),
            "adaptive" => sim.run(&trace, &mut AdaptiveGreedy::full_range()),
            w if w.starts_with("window:") => {
                let step: f64 = w["window:".len()..]
                    .parse()
                    .unwrap_or_else(|_| fail(format_args!("bad window step in {w}")));
                let mut c = WindowScheduler::new(step, cfg.policy);
                sim.run(&trace, &mut c)
            }
            other => fail(format_args!(
                "unknown scheduler {other} (greedy|minrate|adaptive|window:STEP|bookahead)"
            )),
        };
        println!(
            "{:<14} {:>7.1}% {:>7.1}% {:>8.2}x {:>11.1}s",
            spec,
            100.0 * report.accept_rate,
            100.0 * report.resource_util,
            report.mean_speedup,
            report.mean_start_delay
        );
    }
}

fn gen_trace(args: Vec<String>) {
    let cfg = RunConfig::parse(args);
    let trace = cfg.build_trace();
    match &cfg.out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format_args!("cannot create {path}: {e}")));
            trace
                .write_json(file)
                .unwrap_or_else(|e| fail(format_args!("writing {path} failed: {e}")));
            eprintln!("wrote {} requests to {path}", trace.len());
        }
        None => println!("{}", trace.to_json()),
    }
}

fn trace_stats(args: Vec<String>) {
    let Some(path) = args.first() else {
        eprintln!("usage: gridband stats FILE");
        std::process::exit(2);
    };
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail(format_args!("cannot open {path}: {e}")));
    let trace = Trace::read_json(file)
        .unwrap_or_else(|e| fail(format_args!("{path} is not a valid trace: {e}")));
    let s = trace.stats();
    println!("requests:       {}", s.count);
    println!("total volume:   {:.1} GB", s.total_volume / 1000.0);
    println!("mean MinRate:   {:.1} MB/s", s.mean_min_rate);
    println!("mean MaxRate:   {:.1} MB/s", s.mean_max_rate);
    println!("mean slack:     {:.2}", s.mean_slack);
    println!("mean window:    {:.0} s", s.mean_window);
    println!("rigid requests: {}", s.rigid_count);
    println!("horizon:        {:.0} s", s.horizon);
    // Lint against the paper topology (the default platform) so obvious
    // workload problems surface right here.
    let findings = gridband_workload::lint::lint(&trace, &gridband_net::Topology::paper_default());
    if findings.is_empty() {
        println!("lint:           clean");
    } else {
        for f in findings {
            println!("lint {}:   [{}] {}", f.severity, f.code, f.message);
        }
    }
}

fn serve(args: Vec<String>) {
    use gridband_serve::{EngineConfig, Server, ServerConfig, TimeMode};
    use std::time::Duration;

    let mut addr = "127.0.0.1:7421".to_string();
    let mut topo = gridband_net::Topology::paper_default();
    let mut step = 50.0f64;
    let mut policy = BandwidthPolicy::MAX_RATE;
    let mut mode = TimeMode::Virtual;
    let mut queue = 1024usize;
    let mut snapshot: Option<Duration> = None;
    let mut wal_dir: Option<String> = None;
    let mut fsync = gridband_serve::FsyncPolicy::Round;
    let mut snapshot_every = 64u64;
    let mut gc_horizon: Option<f64> = None;
    let mut io_threads = 2usize;
    let mut replicate_to: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut promote_after: Option<Duration> = None;
    let mut shard_of: Option<(usize, usize)> = None;
    let mut qos: Option<gridband_qos::QosConfig> = None;
    let mut malleable = false;

    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(format_args!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = val("--addr"),
            "--topo" => topo = runcfg::parse_topo(&val("--topo")),
            "--step" => {
                step = val("--step")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --step: {e}")))
            }
            "--policy" => {
                let v = val("--policy");
                policy = if v == "min" {
                    BandwidthPolicy::MinRate
                } else if let Some(x) = v.strip_prefix("f:") {
                    BandwidthPolicy::FractionOfMax(
                        x.parse()
                            .unwrap_or_else(|e| fail(format_args!("bad --policy: {e}"))),
                    )
                } else if v == "max" {
                    BandwidthPolicy::MAX_RATE
                } else {
                    fail(format_args!("--policy must be min, max, or f:X"))
                };
            }
            "--tick-ms" => {
                let ms: u64 = val("--tick-ms")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --tick-ms: {e}")));
                mode = TimeMode::RealTime {
                    tick: Duration::from_millis(ms),
                };
            }
            "--queue" => {
                queue = val("--queue")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --queue: {e}")))
            }
            "--snapshot-secs" => {
                let s: u64 = val("--snapshot-secs")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --snapshot-secs: {e}")));
                snapshot = Some(Duration::from_secs(s));
            }
            "--wal-dir" => wal_dir = Some(val("--wal-dir")),
            "--fsync" => {
                fsync = val("--fsync")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --fsync: {e}")));
            }
            "--snapshot-every" => {
                snapshot_every = val("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --snapshot-every: {e}")));
            }
            "--gc-horizon" => {
                let s: f64 = val("--gc-horizon")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --gc-horizon: {e}")));
                if !(s.is_finite() && s >= 0.0) {
                    fail(format_args!("--gc-horizon must be finite and >= 0"));
                }
                gc_horizon = Some(s);
            }
            "--io-threads" => {
                io_threads = val("--io-threads")
                    .parse::<usize>()
                    .unwrap_or_else(|e| fail(format_args!("bad --io-threads: {e}")))
                    .max(1);
            }
            "--replicate-to" => replicate_to = Some(val("--replicate-to")),
            "--follow" => follow = Some(val("--follow")),
            "--shard-of" => {
                let v = val("--shard-of");
                let (i, n) = v
                    .split_once('/')
                    .unwrap_or_else(|| fail(format_args!("--shard-of wants I/N, got {v}")));
                let i: usize = i
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --shard-of index: {e}")));
                let n: usize = n
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --shard-of count: {e}")));
                if n == 0 || i >= n {
                    fail(format_args!("--shard-of wants I/N with I < N, got {v}"));
                }
                shard_of = Some((i, n));
            }
            "--promote-after" => {
                let s: u64 = val("--promote-after")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --promote-after: {e}")));
                promote_after = Some(Duration::from_secs(s));
            }
            "--malleable" => {
                malleable = true;
            }
            "--qos" => {
                qos.get_or_insert_with(gridband_qos::QosConfig::default);
            }
            "--qos-allowance" => {
                let s: f64 = val("--qos-allowance")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --qos-allowance: {e}")));
                if !(s.is_finite() && s >= 0.0) {
                    fail(format_args!("--qos-allowance must be finite and >= 0"));
                }
                qos.get_or_insert_with(gridband_qos::QosConfig::default)
                    .allowance_horizon = s;
            }
            "--qos-tenant-cap" => {
                let v = val("--qos-tenant-cap");
                let (rate, burst) = match v.split_once(':') {
                    Some((r, b)) => (r.to_string(), Some(b.to_string())),
                    None => (v, None),
                };
                let rate: f64 = rate
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --qos-tenant-cap rate: {e}")));
                let burst: Option<f64> = burst.map(|b| {
                    b.parse()
                        .unwrap_or_else(|e| fail(format_args!("bad --qos-tenant-cap burst: {e}")))
                });
                if !(rate.is_finite() && rate > 0.0)
                    || burst.is_some_and(|b| !(b.is_finite() && b > 0.0))
                {
                    fail(format_args!(
                        "--qos-tenant-cap wants RATE[:BURST], both > 0"
                    ));
                }
                let cfg = qos.get_or_insert_with(gridband_qos::QosConfig::default);
                cfg.tenant_rate = Some(rate);
                cfg.tenant_burst = burst;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gridband serve [--addr HOST:PORT] [--topo paper|grid5000|MxNxCAP]
                      [--step S] [--policy min|max|f:X] [--tick-ms MS]
                      [--queue N] [--snapshot-secs S]
                      [--wal-dir DIR] [--fsync always|round|off]
                      [--snapshot-every ROUNDS] [--gc-horizon SECS]
                      [--io-threads N] [--replicate-to HOST:PORT]
                      [--follow HOST:PORT [--promote-after SECS]]
                      [--shard-of I/N]
                      [--qos] [--qos-allowance SECS]
                      [--qos-tenant-cap RATE[:BURST]] [--malleable]

Runs the reservation daemon: batched WINDOW admission every t_step,
served over TCP. Every connection speaks either the JSON-lines compat
protocol or the length-prefixed binary frame codec — the daemon
auto-detects from the first bytes (binary clients open with the
GBWIR01 preamble), so one port serves both and no flag is needed.
Connections are multiplexed by a readiness-driven poll loop;
--io-threads N sizes the reader pool (default 2).
Without --tick-ms the clock is virtual
(submission timestamps drive it — deterministic replay); with it a
wall-clock ticker fires one admission round every MS milliseconds.

With --wal-dir every admission round is committed to a checksummed
write-ahead log in DIR before its replies go out, a state snapshot is
installed (and the log truncated) every ROUNDS rounds (default 64),
and a restarted daemon recovers its exact pre-crash commitments.
--fsync sets when the log is flushed to disk: per append (always),
once per round before replies (round, the default), or never (off).

--gc-horizon SECS garbage-collects the capacity ledger behind a
watermark lagging SECS of virtual time behind each round: expired
reservations are dropped and fully-past profile segments truncated, so
memory stays flat over unbounded runs. Each watermark advance is
committed to the WAL before it is applied, so recovery — and any
replication follower — replays to the identical compacted state, and
no answer at or after the watermark ever changes. Off by default
(the ledger keeps its full history).

--replicate-to streams the WAL to a hot-standby follower listening at
HOST:PORT (requires --wal-dir); the daemon runs as the primary.
--follow runs this daemon as the follower instead: it listens for the
primary's replication stream on HOST:PORT, mirrors the WAL into
--wal-dir (required), serves read-only Query/Stats on --addr, and
rejects submissions with `not-primary`. `gridband promote --addr ...`
(or --promote-after SECS of primary silence) turns it into a primary
that resumes from the exact round the old primary last logged.

--shard-of I/N runs this daemon as shard I of an N-way topology-sharded
cluster: it owns contiguous blocks of the ingress and egress port space
and expects a `gridband cluster` router in front, which forwards
single-shard submissions whole and coordinates cross-shard ones with
two-phase holds. Composes with --wal-dir and --replicate-to: each shard
keeps its own WAL and may stream it to its own standby.

--qos turns on the leftover-bandwidth redistribution overlay: after
each round commits, per-port residual capacity is resold to live
transfers by class-priority progressive filling (Gold > Silver >
BestEffort, classes carried on submits), capped per transfer by its
MaxRate. Boosts never change an admission decision or delay any
guaranteed finish — the overlay only reads the ledger. --qos-allowance
SECS bounds how much banked fair-share credit a transfer may hold
(default 200); --qos-tenant-cap RATE[:BURST] token-bucket-polices each
ingress port's total boost rate (MB/s, bucket depth in MB).

--malleable accepts variable-rate reservations: a submit carrying
\"malleable\": true is water-filled into a stepwise plan over the
ledger's residual capacity (never above its MaxRate), granted as an
AcceptedSegments plan, and may later be renegotiated in place with the
atomic Amend op — a rejected amend leaves the original plan untouched.
Rigid submissions decide bit-identically with or without the flag."
                );
                std::process::exit(0);
            }
            other => fail(format_args!("unknown serve flag {other}")),
        }
    }

    if replicate_to.is_some() && follow.is_some() {
        fail(format_args!(
            "--replicate-to (primary) and --follow (follower) are mutually exclusive"
        ));
    }
    let mut engine = EngineConfig::new(topo);
    engine.step = step;
    engine.policy = policy;
    engine.mode = mode;
    engine.queue_capacity = queue;
    engine.gc_horizon = gc_horizon;
    engine.qos = qos;
    engine.malleable = malleable;
    if let Some(dir) = wal_dir {
        let fs = gridband_serve::FsDir::new(&dir)
            .unwrap_or_else(|e| fail(format_args!("cannot open --wal-dir {dir}: {e}")));
        engine.store = Some(gridband_serve::StoreConfig {
            dir: std::sync::Arc::new(fs),
            fsync,
            snapshot_every,
        });
        eprintln!("gridband serve: write-ahead log in {dir} (fsync {fsync}, snapshot every {snapshot_every} rounds)");
    }

    if let Some(repl_addr) = follow {
        // Follower mode: mirror the primary's WAL, serve read-only
        // queries on --addr, promote on command or primary silence.
        if engine.store.is_none() {
            fail(format_args!("--follow requires --wal-dir"));
        }
        let replica = gridband_replica::Replica::bind(
            gridband_replica::ReplicaConfig {
                engine,
                promote_after,
            },
            &repl_addr,
            Some(&addr),
        )
        .unwrap_or_else(|e| fail(format_args!("cannot start follower: {e}")));
        eprintln!(
            "gridband serve: follower — replication on {}, read-only clients on {}{}",
            replica.repl_addr(),
            replica.client_addr().map(|a| a.to_string()).unwrap_or(addr),
            match promote_after {
                Some(d) => format!(", auto-promote after {}s of silence", d.as_secs()),
                None => String::new(),
            }
        );
        replica.run();
        return;
    }

    if replicate_to.is_some() && engine.store.is_none() {
        fail(format_args!("--replicate-to requires --wal-dir"));
    }
    if replicate_to.is_some() {
        engine.role = gridband_serve::Role::Primary;
    }
    if let Some((i, n)) = shard_of {
        engine.role = gridband_serve::Role::Shard;
        let map = gridband_cluster::ShardMap::new(&engine.topology, n);
        let ports = |v: Vec<u32>| match (v.first(), v.last()) {
            (Some(lo), Some(hi)) => format!("{lo}-{hi}"),
            _ => "none".to_string(),
        };
        eprintln!(
            "gridband serve: shard {i}/{n} — ingress {}, egress {}",
            ports(map.ingress_ports(i).collect()),
            ports(map.egress_ports(i).collect()),
        );
    }
    let shipper_cfg = engine
        .store
        .as_ref()
        .map(|store| gridband_replica::ShipperConfig {
            dir: store.dir.clone(),
            topology: engine.topology.clone(),
            step: engine.step,
            history_capacity: engine.history_capacity,
            beacon_every: 16,
        });
    let mut cfg = ServerConfig::new(addr.clone(), engine);
    cfg.snapshot_period = snapshot;
    cfg.io_threads = io_threads;
    let server =
        Server::bind(cfg).unwrap_or_else(|e| fail(format_args!("cannot bind {addr}: {e}")));
    eprintln!(
        "gridband serve: listening on {} (step {step}s)",
        server.local_addr().map(|a| a.to_string()).unwrap_or(addr)
    );
    let _shipper = replicate_to.map(|target| {
        eprintln!("gridband serve: primary — shipping WAL to {target}");
        gridband_replica::WalShipper::spawn(
            shipper_cfg.expect("--replicate-to requires --wal-dir"),
            target,
            server.metrics(),
        )
    });
    if let Err(e) = server.run() {
        fail(format_args!("server error: {e}"));
    }
}

/// `gridband cluster`: route a generated workload over N topology
/// shards — in-process engines by default, real `serve --shard-of`
/// daemons with --connect — and report decisions plus conservation.
fn cluster(args: Vec<String>) {
    use gridband_cluster::{
        conservation_violations, Cluster, ClusterConfig, Decision, EngineShards, LossSchedule,
        ShardMap, TcpShardLink,
    };
    use gridband_serve::SubmitReq;
    use gridband_workload::{Dist, Request, WorkloadBuilder};

    let mut shards = 2usize;
    let mut shards_given = false;
    let mut topo = gridband_net::Topology::paper_default();
    let mut step = 50.0f64;
    let mut horizon = 200.0f64;
    let mut seed = 7u64;
    let mut interarrival = 1.0f64;
    let mut cross = 0.1f64;
    let mut loss = 0.0f64;
    let mut loss_seed = 0u64;
    let mut drop_releases = false;
    let mut connect: Option<String> = None;
    let mut gc_horizon: Option<f64> = None;
    let mut decisions = false;
    let mut map_shards: Option<usize> = None;
    let mut wire = gridband_serve::wire::WireMode::Json;
    let mut cluster_malleable = false;

    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(format_args!("{name} needs a value")))
        };
        let num = |name: &str, v: String| -> f64 {
            v.parse()
                .unwrap_or_else(|e| fail(format_args!("bad {name}: {e}")))
        };
        match flag.as_str() {
            "--shards" => {
                shards = num("--shards", val("--shards")) as usize;
                shards_given = true;
            }
            "--topo" => topo = runcfg::parse_topo(&val("--topo")),
            "--step" => step = num("--step", val("--step")),
            "--horizon" => horizon = num("--horizon", val("--horizon")),
            "--seed" => seed = num("--seed", val("--seed")) as u64,
            "--interarrival" => interarrival = num("--interarrival", val("--interarrival")),
            "--cross" => cross = num("--cross", val("--cross")),
            "--loss" => loss = num("--loss", val("--loss")),
            "--loss-seed" => loss_seed = num("--loss-seed", val("--loss-seed")) as u64,
            "--drop-releases" => drop_releases = true,
            "--connect" => connect = Some(val("--connect")),
            "--gc-horizon" => {
                let s = num("--gc-horizon", val("--gc-horizon"));
                if !(s.is_finite() && s >= 0.0) {
                    fail(format_args!("--gc-horizon must be finite and >= 0"));
                }
                gc_horizon = Some(s);
            }
            "--decisions" => decisions = true,
            "--malleable" => cluster_malleable = true,
            "--map" => map_shards = Some(num("--map", val("--map")) as usize),
            "--wire" => {
                wire = val("--wire")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("bad --wire: {e}")))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: gridband cluster [--shards N] [--topo paper|grid5000|MxNxCAP]
                        [--step S] [--horizon S] [--seed N] [--interarrival S]
                        [--cross F] [--loss P] [--loss-seed N] [--drop-releases]
                        [--connect H:P,H:P,...] [--wire json|binary] [--decisions]
                        [--gc-horizon SECS] [--malleable]

Generates a workload, steers a --cross fraction of it across the shard
cut (the rest stays partition-respecting), and routes it through a
topology-sharded cluster: single-shard submissions are forwarded whole,
cross-shard ones run the two-phase hold/commit protocol. By default the
shards are in-process engines and every shard's ledger is checked for
conservation (no port over-commit, no orphaned hold) after the run;
with --connect the router drives real `gridband serve --shard-of I/N`
daemons instead (one address per shard, in shard order), speaking the
JSON-lines protocol or, with --wire binary, the binary frame codec
(decisions are byte-identical either way).

--loss drops each prepare leg with probability P (seeded by
--loss-seed); --drop-releases extends the loss to release legs, leaving
orphaned holds for the shard-side expiry sweep. --decisions prints one
line per request (sorted by id) for diffing runs against each other,
e.g. a 4-shard cluster against --shards 1. For such a diff, pin the
workload with --map N: the trace is remapped against an N-shard map no
matter how many shards actually run it, so both runs see the same
requests (`--shards 1 --map 4 --cross 0` is the solo baseline of a
partition-respecting 4-shard run).

--gc-horizon SECS has each in-process shard garbage-collect its ledger
behind a watermark lagging SECS behind its clock (see `gridband serve
--help`); decisions are identical with or without it. Ignored with
--connect — real daemons own their GC via their own --gc-horizon.

--malleable enables variable-rate reservations on every in-process
shard (see `gridband serve --help`). Only single-shard routes qualify:
the router rejects cross-shard malleable submissions as Invalid, since
the two-phase protocol prepares constant-rate windows, not stepwise
plans. The generated workload stays rigid, so this flag only matters
for --connect-less conservation runs exercising the engine flag."
                );
                std::process::exit(0);
            }
            other => fail(format_args!("unknown cluster flag {other}")),
        }
    }
    if let Some(c) = &connect {
        let n = c.split(',').filter(|a| !a.is_empty()).count();
        if shards_given && n != shards {
            fail(format_args!(
                "--connect lists {n} shard addresses but --shards says {shards}"
            ));
        }
        shards = n;
    }
    if shards == 0 {
        fail(format_args!("a cluster needs at least one shard"));
    }

    // Workload: remap each request's egress so that an exact --cross
    // fraction (deterministically chosen) straddles the shard cut.
    // --map pins the cut the workload is built against, so runs with
    // different live shard counts can share one trace; without it the
    // map defaults to the live shard count.
    let wl_shards = map_shards.unwrap_or(shards);
    if decisions && map_shards.is_none() {
        eprintln!(
            "warning: --decisions without --map steers the workload against the live \
             {shards}-shard map; a diff against a run with a different shard count would \
             compare different traces. Pin --map N on both runs to share one trace."
        );
    }
    let base = WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .slack(Dist::Uniform { lo: 2.0, hi: 4.0 })
        .horizon(horizon)
        .seed(seed)
        .build();
    let trace = gridband_cluster::steer(&base, &topo, wl_shards, cross);
    let submit = |r: &Request| SubmitReq {
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
    let flush = trace.iter().map(|r| r.finish()).fold(0.0f64, f64::max);

    let mut cfg = ClusterConfig::new(topo.clone(), shards);
    cfg.step = step;
    cfg.queue_capacity = trace.len() + 16;
    cfg.loss = loss;
    cfg.loss_seed = loss_seed;
    cfg.drop_releases = drop_releases;
    cfg.gc_horizon = gc_horizon;
    cfg.malleable = cluster_malleable;

    let or_die = |r: Result<(), String>| r.unwrap_or_else(|e| fail(format_args!("{e}")));
    let (report, violations) = if let Some(c) = &connect {
        let links: Vec<TcpShardLink> = c
            .split(',')
            .filter(|a| !a.is_empty())
            .map(|a| {
                TcpShardLink::connect_with(a, wire).unwrap_or_else(|e| fail(format_args!("{e}")))
            })
            .collect();
        let mut cl = Cluster::new(
            ShardMap::new(&topo, shards),
            links,
            LossSchedule::new(loss, loss_seed),
            drop_releases,
        );
        for r in trace.iter() {
            or_die(cl.submit(submit(r)));
        }
        or_die(cl.advance_to(flush + cfg.hold_timeout + 2.0 * step));
        let report = cl.finish().unwrap_or_else(|e| fail(format_args!("{e}")));
        (report, Vec::new())
    } else {
        let engines = EngineShards::spawn(&cfg);
        let mut cl = Cluster::in_process(&cfg, &engines);
        for r in trace.iter() {
            or_die(cl.submit(submit(r)));
        }
        // Advance past every window plus the hold timeout so the expiry
        // sweep has reclaimed anything a lost release orphaned.
        or_die(cl.advance_to(flush + cfg.hold_timeout + 2.0 * step));
        let mut violations = Vec::new();
        for s in 0..engines.len() {
            violations.extend(conservation_violations(&engines.export(s), &topo));
        }
        let report = cl.finish().unwrap_or_else(|e| fail(format_args!("{e}")));
        engines.shutdown();
        (report, violations)
    };

    let granted = report
        .decisions
        .values()
        .filter(|d| matches!(d, Decision::Granted { .. }))
        .count();
    eprintln!(
        "cluster: {shards} shards, {} requests — {granted} granted ({} cross), {} denied, {} timed out",
        trace.len(),
        report.cross_grants,
        report.decisions.len() - granted - report.timeouts as usize,
        report.timeouts,
    );
    eprintln!(
        "routing: {} single-shard, {} cross-shard; protocol legs dropped: {}",
        report.singles, report.crosses, report.dropped_legs
    );
    if decisions {
        for (id, d) in &report.decisions {
            match d {
                Decision::Granted { bw, start, finish } => {
                    println!("{id} granted {bw} {start} {finish}")
                }
                Decision::Denied(reason) => println!("{id} denied {reason:?}"),
                Decision::TimedOut => println!("{id} timeout"),
            }
        }
    }
    for v in &violations {
        eprintln!("CONSERVATION VIOLATION: {v}");
    }
    if connect.is_none() {
        eprintln!(
            "conservation: {}",
            if violations.is_empty() {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// `gridband promote [--addr HOST:PORT]`: ask a follower daemon to
/// finish recovery and start accepting submissions.
fn promote(args: Vec<String>) {
    use std::io::{BufRead, BufReader, Write};

    let mut addr = "127.0.0.1:7421".to_string();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .unwrap_or_else(|| fail(format_args!("--addr needs a value")))
            }
            "--help" | "-h" => {
                eprintln!("usage: gridband promote [--addr HOST:PORT]");
                std::process::exit(0);
            }
            other => fail(format_args!("unknown promote flag {other}")),
        }
    }
    let stream = std::net::TcpStream::connect(&addr)
        .unwrap_or_else(|e| fail(format_args!("cannot connect to {addr}: {e}")));
    let mut line = gridband_serve::protocol::encode_client(&gridband_serve::ClientMsg::Promote);
    line.push('\n');
    let mut write_half = stream
        .try_clone()
        .unwrap_or_else(|e| fail(format_args!("socket clone failed: {e}")));
    write_half
        .write_all(line.as_bytes())
        .unwrap_or_else(|e| fail(format_args!("cannot send promote: {e}")));
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .unwrap_or_else(|e| fail(format_args!("no reply from {addr}: {e}")));
    match gridband_serve::protocol::decode_server(reply.trim()) {
        Ok(gridband_serve::ServerMsg::Promoted { rounds }) => {
            println!("promoted: accepting submissions (resumed at round {rounds})");
        }
        Ok(gridband_serve::ServerMsg::Error { code, message }) => {
            fail(format_args!("promotion refused ({code}): {message}"));
        }
        Ok(other) => fail(format_args!("unexpected reply: {other:?}")),
        Err(e) => fail(format_args!("unparseable reply: {e}")),
    }
}
