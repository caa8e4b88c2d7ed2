//! The traced run: the workload's first ops pushed through each layer's
//! public functions, with spans recorded here, around the calls — the
//! program itself carries no tracing yet.
//!
//! Four passes over the same ops:
//!
//! 1. **codec and channel stages**, 256 ops at a time through each
//!    stage in turn (one span per stage per chunk, so the two clock
//!    reads a span costs are spread over 256 calls);
//! 2. **the engine as a black box**: `Engine::spawn` fed `Command`s,
//!    no sockets, its store (where the workload has one) wrapped in a
//!    [`TracingDir`] that times every file operation;
//! 3. **the engine's children replayed outside it**: a [`Mirror`] that
//!    makes the engine's decisions again by calling the scheduler,
//!    ledger, solver and overlay directly, timing each call. Its
//!    decisions must equal the engine's, which proves the replay
//!    measured the same work;
//! 4. **the daemon itself**, briefly, for the numbers only a socket
//!    gives: connect time, idle round trip, CPU per op to subtract from.
//!
//! A layer's self time is its span minus its children: the engine's is
//! pass 2 less everything passes 2 and 3 attribute to the layers below.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel;
use gridband_algos::{BandwidthPolicy, WindowScheduler};
use gridband_flex::FlexSpec;
use gridband_net::{ReserveRequest, Route};
use gridband_qos::redistribute::{AcceptedTransfer, Redistributor};
use gridband_serve::protocol::{self, ClientMsg, ReqState, ServerMsg, SubmitReq};
use gridband_serve::wire::{
    decode_client_payload, decode_server_payload, encode_client_frame, encode_server_frame,
    FrameBuf,
};
use gridband_serve::EngineState;
use gridband_sim::{AdmissionController, Decision};
use gridband_store::wal::{parse_snapshot, scan_wal, MAGIC_WAL};
use gridband_store::{Dir, EngineSnapshot, FsDir, FsyncPolicy, Store, StoreConfig, WalRecord};
use gridband_workload::{Request, ServiceClass, TimeWindow};
use serde_json::Value;

use crate::check::InProcess;
use crate::client::{Conn, Dec, Tracker};
use crate::spec::{Drive, Ops, Spec};
use crate::{metric, num, stats, Env, Outcome};

/// Ops per stage span in pass 1.
const CHUNK: usize = 256;
/// Spans written to the trace file; all of them are aggregated.
const SPANS_WRITTEN: usize = 100_000;
/// Snapshot images kept for the decode/encode timings (the latest).
const SNAPSHOTS_KEPT: usize = 8;
/// Append-and-flush pairs timed for `store.barrier_us`.
const BARRIER_PROBES: usize = 200;
/// Depth-1 round trips per probe.
const PROBES: usize = 2_000;
/// The engine's deadline default and clock bound, which a mirror of it
/// must share (`EngineConfig::new`).
const DEFAULT_SLACK: f64 = 3.0;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span. `parent` is an index into the span list.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    /// First op (or the round) the span covers.
    id: u64,
}

/// Per-name totals: calls covered, time, and time not spent in children.
#[derive(Default, Clone, Copy)]
struct Total {
    calls: u64,
    ns: u64,
    child_ns: u64,
}

/// In-memory span recorder. `None` epoch-less spans are never made:
/// every span is opened and closed through [`Spans::time`].
struct Spans {
    epoch: Instant,
    rows: Vec<Span>,
    open: Vec<u32>,
    totals: HashMap<&'static str, Total>,
    /// Off for the untraced twin of a pass: calls run, nothing is kept.
    recording: bool,
}

impl Spans {
    fn new(recording: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            rows: Vec::new(),
            open: Vec::new(),
            totals: HashMap::new(),
            recording,
        }
    }

    /// Run `f` inside a span covering `calls` calls into a layer.
    fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        calls: u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let at = self.rows.len() as u32;
        let parent = self.open.last().copied();
        self.rows.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            id,
        });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let row = &mut self.rows[at as usize];
        row.end_ns = end;
        let ns = end - row.start_ns;
        let t = self.totals.entry(name).or_default();
        t.calls += calls;
        t.ns += ns;
        if let Some(p) = parent {
            let pname = self.rows[p as usize].name;
            self.totals.entry(pname).or_default().child_ns += ns;
        }
        out
    }

    fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean time of one call under `name`, in ns.
    fn ns_per_call(&self, name: &str) -> f64 {
        let t = self.total(name);
        t.ns as f64 / t.calls.max(1) as f64
    }

    /// Time under `name` not covered by child spans, in ns.
    fn self_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        (t.ns - t.child_ns) as f64
    }

    fn write(
        &self,
        path: &std::path::Path,
        spec: &Spec,
        seed: u64,
        ops: usize,
    ) -> Result<(), String> {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .take(SPANS_WRITTEN)
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("start_ns".to_string(), num(s.start_ns)),
                    ("end_ns".to_string(), num(s.end_ns)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| num(p as u64)),
                    ),
                    ("id".to_string(), num(s.id)),
                ])
            })
            .collect();
        let mut names: Vec<_> = self.totals.iter().collect();
        names.sort_by_key(|(n, _)| **n);
        let totals = names
            .into_iter()
            .map(|(n, t)| {
                (
                    n.to_string(),
                    Value::Object(vec![
                        ("calls".to_string(), num(t.calls)),
                        ("ns".to_string(), num(t.ns)),
                        ("self_ns".to_string(), num(t.ns - t.child_ns)),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("workload".to_string(), Value::String(spec.name.to_string())),
            ("seed".to_string(), num(seed)),
            ("ops".to_string(), num(ops as u64)),
            ("spans_recorded".to_string(), num(self.rows.len() as u64)),
            ("totals".to_string(), Value::Object(totals)),
            ("spans".to_string(), Value::Array(rows)),
        ]);
        std::fs::write(path, serde_json::to_string(&doc).expect("value tree"))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------
// Pass 1: codec and channel stages
// ---------------------------------------------------------------------

/// Mean encoded sizes seen in pass 1.
#[derive(Default)]
struct Sizes {
    submit_frames: u64,
    submit_bytes: u64,
    json_submit_bytes: u64,
    reply_frames: u64,
    reply_bytes: u64,
}

/// Client → engine direction: binary encode, frame split, decode, one
/// same-thread channel hop; then the JSON dialect's encode and decode.
// `decode_client`'s error is the protocol's own ready-to-send reply.
#[allow(clippy::result_large_err)]
fn client_stages(spans: &mut Spans, ops: &Ops, sizes: &mut Sizes) -> Result<(), String> {
    let (tx, rx) = channel::bounded::<ClientMsg>(CHUNK);
    for (c, chunk) in ops.msgs.chunks(CHUNK).enumerate() {
        let (id, calls) = ((c * CHUNK) as u64, chunk.len() as u64);
        spans.time("trace.client_chunk", id, 1, |spans| -> Result<(), String> {
            let frames: Vec<Vec<u8>> = spans.time("wire.encode_client", id, calls, |_| {
                chunk.iter().map(encode_client_frame).collect()
            });
            for (m, f) in chunk.iter().zip(&frames) {
                if matches!(m, ClientMsg::Submit(_)) {
                    sizes.submit_frames += 1;
                    sizes.submit_bytes += f.len() as u64;
                }
            }
            let bytes = frames.concat();
            let payloads = spans.time("wire.frame_split", id, calls, |_| {
                let mut fb = FrameBuf::new();
                fb.extend(&bytes);
                let mut out = Vec::with_capacity(chunk.len());
                while let Ok(Some(p)) = fb.next_frame() {
                    out.push(p);
                }
                out
            });
            let msgs: Vec<ClientMsg> = spans
                .time("wire.decode_client", id, calls, |_| {
                    payloads
                        .iter()
                        .map(|p| decode_client_payload(p))
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| format!("client frame did not decode: {e}"))?;
            if msgs != chunk {
                return Err("binary codec did not round-trip the ops".to_string());
            }
            spans.time("channel.hop", id, calls, |_| {
                for m in msgs {
                    tx.send(m).expect("receiver is alive");
                    std::hint::black_box(rx.recv().expect("sender is alive"));
                }
            });
            let lines: Vec<String> = spans.time("protocol.encode_client", id, calls, |_| {
                chunk.iter().map(protocol::encode_client).collect()
            });
            for (m, l) in chunk.iter().zip(&lines) {
                if matches!(m, ClientMsg::Submit(_)) {
                    sizes.json_submit_bytes += l.len() as u64 + 1;
                }
            }
            let back: Vec<ClientMsg> = spans
                .time("protocol.decode_client", id, calls, |_| {
                    lines
                        .iter()
                        .map(|l| protocol::decode_client(l))
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| format!("JSON line did not decode: {e:?}"))?;
            std::hint::black_box(back);
            Ok(())
        })?;
    }
    Ok(())
}

/// Engine → client direction over the replies the engine produced.
fn reply_stages(spans: &mut Spans, replies: &[ServerMsg], sizes: &mut Sizes) -> Result<(), String> {
    for (c, chunk) in replies.chunks(CHUNK).enumerate() {
        let (id, calls) = ((c * CHUNK) as u64, chunk.len() as u64);
        spans.time("trace.reply_chunk", id, 1, |spans| -> Result<(), String> {
            let frames: Vec<Vec<u8>> = spans.time("wire.encode_server", id, calls, |_| {
                chunk.iter().map(encode_server_frame).collect()
            });
            sizes.reply_frames += calls;
            sizes.reply_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            let mut fb = FrameBuf::new();
            fb.extend(&frames.concat());
            let mut payloads = Vec::with_capacity(chunk.len());
            while let Ok(Some(p)) = fb.next_frame() {
                payloads.push(p);
            }
            let back: Vec<ServerMsg> = spans
                .time("wire.decode_server", id, calls, |_| {
                    payloads
                        .iter()
                        .map(|p| decode_server_payload(p))
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| format!("server frame did not decode: {e}"))?;
            if back != chunk {
                return Err("binary codec did not round-trip the replies".to_string());
            }
            let lines: Vec<String> = spans.time("protocol.encode_server", id, calls, |_| {
                chunk.iter().map(protocol::encode_server).collect()
            });
            let parsed: Vec<ServerMsg> = spans
                .time("protocol.decode_server", id, calls, |_| {
                    lines
                        .iter()
                        .map(|l| protocol::decode_server(l))
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| format!("JSON reply did not decode: {e}"))?;
            std::hint::black_box(parsed);
            Ok(())
        })?;
    }
    Ok(())
}

/// Two threads bouncing one word through two bounded channels: the
/// cost of a hop that has to wake the other side.
fn cross_thread_hop_ns() -> f64 {
    let (to_tx, to_rx) = channel::bounded::<u64>(1);
    let (back_tx, back_rx) = channel::bounded::<u64>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = to_rx.recv() {
                if back_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        for i in 0..PROBES as u64 * 5 {
            to_tx.send(i).expect("echo thread is alive");
            std::hint::black_box(back_rx.recv().expect("echo thread is alive"));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        drop(to_tx);
        ns / (PROBES as f64 * 5.0 * 2.0)
    })
}

// ---------------------------------------------------------------------
// Pass 2: the engine as a black box, its store traced
// ---------------------------------------------------------------------

/// What a [`TracingDir`] saw.
#[derive(Default)]
struct DirLog {
    append: Total,
    sync: Total,
    /// Everything a snapshot install does: the two replaces and the two
    /// removes.
    install: Total,
    wal_bytes: u64,
    snap_bytes: u64,
    snapshots: u64,
    /// Every appended WAL frame, in order, per generation file.
    wal_frames: Vec<u8>,
    /// The latest snapshot files, whole.
    snaps: Vec<Vec<u8>>,
}

/// A `Dir` that times each call and forwards it. It sits between the
/// store and the filesystem directory, so the spans are the store
/// layer's own file operations as the engine issues them.
struct TracingDir {
    inner: FsDir,
    log: Mutex<DirLog>,
}

/// `Dir` wants `Debug`; the log holds megabytes, so print the directory.
impl std::fmt::Debug for TracingDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TracingDir({:?})", self.inner)
    }
}

impl TracingDir {
    fn timed<T>(
        &self,
        f: impl FnOnce(&FsDir) -> io::Result<T>,
        note: impl FnOnce(&mut DirLog, u64),
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let out = f(&self.inner)?;
        let ns = t0.elapsed().as_nanos() as u64;
        note(&mut self.log.lock().expect("dir log lock"), ns);
        Ok(out)
    }
}

fn add(t: &mut Total, ns: u64) {
    t.calls += 1;
    t.ns += ns;
}

impl Dir for TracingDir {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed(
            |d| d.append(name, data),
            |log, ns| {
                add(&mut log.append, ns);
                log.wal_bytes += data.len() as u64;
                log.wal_frames.extend_from_slice(data);
            },
        )
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.timed(|d| d.sync(name), |log, ns| add(&mut log.sync, ns))
    }
    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.timed(
            |d| d.replace(name, data),
            |log, ns| {
                log.install.ns += ns;
                if name.starts_with("snap-") {
                    log.install.calls += 1;
                    log.snapshots += 1;
                    log.snap_bytes += data.len() as u64;
                    if log.snaps.len() == SNAPSHOTS_KEPT {
                        log.snaps.remove(0);
                    }
                    log.snaps.push(data.to_vec());
                }
            },
        )
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed(|d| d.remove(name), |log, ns| log.install.ns += ns)
    }
    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

/// CPU nanoseconds used so far by every thread of this process but
/// the calling one: around an in-process engine run, the engine
/// thread's.
fn other_threads_cpu_ns() -> u64 {
    let first = |path: std::path::PathBuf| -> u64 {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| t.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let all: u64 = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .map(|e| first(e.path().join("schedstat")))
                .sum()
        })
        .unwrap_or(0);
    all.saturating_sub(first("/proc/thread-self/schedstat".into()))
}

/// What one in-process engine run produced.
struct EngineRun {
    wall: Duration,
    /// CPU the engine thread used over `wall`.
    cpu: Duration,
    replies: Vec<ServerMsg>,
    dec: Vec<Dec>,
    query_states: Vec<ReqState>,
    rounds: u64,
    decided: u64,
    query_ns: Vec<u64>,
    /// Median time of one `Command::Export` at the final state.
    export_ms: f64,
}

/// Feed `ops` to a fresh in-process engine, drain it, and probe it with
/// depth-1 queries while it still holds the state.
fn engine_run(spec: &Spec, ops: &Ops, store: Option<StoreConfig>) -> Result<EngineRun, String> {
    let engine = InProcess::spawn(spec, store)?;
    let mut replies = Vec::with_capacity(ops.msgs.len());
    let cpu0 = other_threads_cpu_ns();
    let t0 = Instant::now();
    engine.feed(&ops.msgs, |reply| replies.push(reply))?;
    let wall = t0.elapsed();
    let cpu = Duration::from_nanos(other_threads_cpu_ns().saturating_sub(cpu0));
    let mut tracker = Tracker::new(ops);
    for r in &replies {
        tracker.on_reply(r.clone(), 0);
    }
    if tracker.stray > 0 || tracker.replied != ops.msgs.len() {
        return Err(format!(
            "in-process engine answered {} of {} ops with {} stray replies",
            tracker.replied,
            ops.msgs.len(),
            tracker.stray
        ));
    }
    let mut query_ns = Vec::with_capacity(PROBES);
    let submits = ops.submit_op.len();
    for k in 0..PROBES {
        let t = Instant::now();
        engine.call(ClientMsg::Query {
            id: (k * submits / PROBES) as u64,
        })?;
        query_ns.push(t.elapsed().as_nanos() as u64);
    }
    // What each snapshot starts from: the engine's state copied out,
    // at the size it has now (it grew to this over the run).
    let mut export_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(engine.export()?);
        export_ns.push(t.elapsed().as_nanos() as u64);
    }
    let ServerMsg::Stats(stats) = engine.call(ClientMsg::Stats)? else {
        return Err("Stats answered with something else".to_string());
    };
    engine.shutdown();
    Ok(EngineRun {
        wall,
        cpu,
        replies,
        dec: tracker.dec,
        query_states: tracker.query_states,
        rounds: stats.ticks,
        decided: stats.accepted + stats.rejected,
        query_ns,
        export_ms: stats::p50_p99_us(export_ns).0 / 1e3,
    })
}

// ---------------------------------------------------------------------
// Pass 3: the engine's children, replayed outside it
// ---------------------------------------------------------------------

struct Pending {
    req: Request,
    class: ServiceClass,
    cancelled: bool,
}

struct FlexPending {
    id: u64,
    spec: FlexSpec,
    class: ServiceClass,
    cancelled: bool,
}

/// The engine's round logic over the public layer functions: the same
/// calls in the same order on the same state (`EngineState` is the
/// engine's own), so the same decisions — checked by the caller — with
/// a span around each call.
struct Mirror<'a> {
    spec: &'a Spec,
    st: EngineState,
    sched: WindowScheduler,
    pending: HashMap<u64, Pending>,
    flex: Vec<FlexPending>,
    qos: Option<Redistributor>,
    gc_horizon: Option<f64>,
    dec: Vec<Dec>,
    query_states: Vec<ReqState>,
    candidates: u64,
    accepts: u64,
    flex_decided: u64,
    flex_accepted: u64,
    gc_dropped: u64,
}

impl<'a> Mirror<'a> {
    fn new(spec: &'a Spec, submits: usize) -> Mirror<'a> {
        let topo = &spec.topology;
        let cfg = spec.engine_config(None);
        Mirror {
            spec,
            st: EngineState::new(topo.clone(), spec.step, cfg.history_capacity),
            sched: WindowScheduler::new(spec.step, BandwidthPolicy::MAX_RATE).with_threads(1),
            pending: HashMap::new(),
            flex: Vec::new(),
            qos: cfg
                .qos
                .map(|q| Redistributor::new(topo.num_ingress(), topo.num_egress(), q)),
            gc_horizon: cfg.gc_horizon,
            dec: vec![Dec::None; submits],
            query_states: Vec::new(),
            candidates: 0,
            accepts: 0,
            flex_decided: 0,
            flex_accepted: 0,
            gc_dropped: 0,
        }
    }

    fn op(&mut self, spans: &mut Spans, msg: &ClientMsg) {
        match msg {
            ClientMsg::Submit(s) => self.submit(spans, s),
            ClientMsg::Cancel { id } => self.cancel(spans, *id),
            ClientMsg::Query { id } => {
                let state =
                    if self.pending.contains_key(id) || self.flex.iter().any(|p| p.id == *id) {
                        ReqState::Pending
                    } else {
                        self.st.state_of(*id).unwrap_or(ReqState::Unknown)
                    };
                self.query_states.push(state);
            }
            other => unreachable!("workloads send no {other:?}"),
        }
    }

    fn submit(&mut self, spans: &mut Spans, s: &SubmitReq) {
        let start = s.start.unwrap_or(self.st.now).max(self.st.now);
        self.advance(spans, start);
        let deadline = s
            .deadline
            .unwrap_or(start + DEFAULT_SLACK * s.volume / s.max_rate);
        let req = Request::new(
            s.id,
            Route::new(s.ingress, s.egress),
            TimeWindow::new(start, deadline),
            s.volume,
            s.max_rate,
        );
        if s.is_malleable() {
            self.flex.push(FlexPending {
                id: s.id,
                spec: FlexSpec::new(req.route, start, req.finish(), req.volume, req.max_rate),
                class: s.class,
                cancelled: false,
            });
            return;
        }
        let (sched, ledger, now) = (&mut self.sched, &self.st.ledger, self.st.now);
        spans.time("algos.on_arrival", s.id, 1, |_| {
            sched.on_arrival(&req, ledger, now)
        });
        self.pending.insert(
            s.id,
            Pending {
                req,
                class: s.class,
                cancelled: false,
            },
        );
    }

    /// `EngineLoop::advance_virtual_clock`.
    fn advance(&mut self, spans: &mut Spans, to: f64) {
        while self.st.next_tick <= to {
            if self.pending.is_empty() && self.flex.is_empty() {
                let behind = ((to - self.st.next_tick) / self.spec.step).floor();
                if behind >= 1.0 {
                    self.st.next_tick += behind * self.spec.step;
                }
            }
            let t = self.st.next_tick;
            self.round(spans, t);
        }
        self.st.now = self.st.now.max(to);
    }

    fn drain(&mut self, spans: &mut Spans) {
        if !self.pending.is_empty() || !self.flex.is_empty() {
            let t = self.st.next_tick;
            self.round(spans, t);
        }
    }

    fn note_qos(&mut self, t: AcceptedTransfer) {
        if let Some(q) = self.qos.as_mut() {
            q.on_accept(t);
        }
    }

    /// `EngineLoop::run_round`, without the store and the replies.
    fn round(&mut self, spans: &mut Spans, t: f64) {
        let round = self.st.rounds;
        spans.time("mirror.round", round, 1, |spans| {
            self.st.begin_round(t);
            spans.time("net.expire", round, 1, |_| self.st.gc_expired(t));
            let decisions = {
                let (sched, ledger) = (&mut self.sched, &self.st.ledger);
                spans.time("algos.on_tick", round, 1, |_| sched.on_tick(ledger, t))
            };
            self.candidates += decisions.len() as u64;
            let batch: Vec<ReserveRequest> = decisions
                .iter()
                .filter_map(|(rid, d)| match (*d, self.pending.get(&rid.0)) {
                    (Decision::Accept { bw, start, finish }, Some(p)) => Some(ReserveRequest {
                        route: p.req.route,
                        start,
                        end: finish,
                        bw,
                    }),
                    _ => None,
                })
                .collect();
            let mut booked = spans
                .time("net.reserve_all", round, 1, |_| {
                    self.st.ledger.reserve_all(&batch)
                })
                .into_iter();
            self.accepts += batch.len() as u64;
            for (rid, d) in decisions {
                let id = rid.0;
                let Some(p) = self.pending.remove(&id) else {
                    continue;
                };
                let outcome = match d {
                    Decision::Accept { bw, start, finish } => booked
                        .next()
                        .and_then(|r| r.ok())
                        .map(|res| (res, bw, start, finish)),
                    _ => None,
                };
                match outcome {
                    Some((res, _, _, _)) if p.cancelled => {
                        let _ = self.st.ledger.cancel(res);
                        self.st.record_state(id, ReqState::Cancelled);
                    }
                    Some((res, bw, start, finish)) => {
                        self.note_qos(AcceptedTransfer {
                            id,
                            ingress: p.req.route.ingress.0 as usize,
                            egress: p.req.route.egress.0 as usize,
                            class: p.class,
                            bw,
                            start,
                            finish,
                            max_rate: p.req.max_rate,
                            volume: p.req.volume,
                        });
                        self.st.note_accept(id, res);
                        self.st.record_state(id, ReqState::Accepted);
                        self.dec[id as usize] = Dec::Accepted {
                            bw: bw.to_bits(),
                            start: start.to_bits(),
                            finish: finish.to_bits(),
                        };
                    }
                    None => {
                        self.st.record_state(id, ReqState::Rejected);
                        if !p.cancelled {
                            self.dec[id as usize] =
                                Dec::Rejected(if p.req.required_rate_from(t).is_none() {
                                    protocol::RejectReason::DeadlineUnreachable
                                } else {
                                    protocol::RejectReason::Saturated
                                });
                        }
                    }
                }
            }
            for p in std::mem::take(&mut self.flex) {
                self.flex_one(spans, p, t);
            }
            if let Some(w) = self.gc_horizon.map(|h| t - h) {
                if w > 0.0 && self.st.ledger.watermark().is_none_or(|cur| w > cur) {
                    let stats = spans.time("net.gc", round, 1, |_| self.st.apply_gc(w));
                    self.gc_dropped += stats.breakpoints_dropped as u64;
                }
            }
            if let Some(q) = self.qos.as_mut() {
                let t1 = self.st.next_tick;
                let ledger = &self.st.ledger;
                let (rin, rout) =
                    spans.time("net.residuals", round, 1, |_| ledger.residuals(t, t1));
                spans.time("qos.redistribute", round, 1, |_| {
                    q.round(t, t1, &rin, &rout);
                });
            }
        });
    }

    /// `EngineLoop::apply_flex`.
    fn flex_one(&mut self, spans: &mut Spans, p: FlexPending, t: f64) {
        self.flex_decided += 1;
        let mut spec = p.spec;
        spec.start = spec.start.max(t);
        let eps = gridband_net::units::EPS;
        let reject = |m: &mut Mirror, reason| {
            m.st.record_state(p.id, ReqState::Rejected);
            if !p.cancelled {
                m.dec[p.id as usize] = Dec::Rejected(reason);
            }
        };
        if spec.finish - spec.start <= eps
            || spec.volume > spec.max_rate * (spec.finish - spec.start) * (1.0 + 1e-9)
        {
            reject(self, protocol::RejectReason::DeadlineUnreachable);
            return;
        }
        let ledger = &self.st.ledger;
        let plan = spans.time("flex.water_fill", p.id, 1, |_| {
            gridband_flex::water_fill(ledger, &spec)
        });
        let Some(plan) = plan else {
            reject(self, protocol::RejectReason::Saturated);
            return;
        };
        let ledger = &mut self.st.ledger;
        let booked = spans.time("net.reserve_segments", p.id, 1, |_| {
            ledger.reserve_segments(spec.route, &plan)
        });
        let Ok(rid) = booked else {
            reject(self, protocol::RejectReason::Saturated);
            return;
        };
        if p.cancelled {
            let _ = self.st.ledger.cancel_segments(rid);
            self.st.record_state(p.id, ReqState::Cancelled);
            return;
        }
        self.flex_accepted += 1;
        self.note_qos(AcceptedTransfer {
            id: p.id,
            ingress: spec.route.ingress.0 as usize,
            egress: spec.route.egress.0 as usize,
            class: p.class,
            bw: plan.iter().fold(0.0, |m, s| m.max(s.bw)),
            start: plan.first().map_or(0.0, |s| s.start),
            finish: plan.last().map_or(0.0, |s| s.end),
            max_rate: spec.max_rate,
            volume: plan.iter().map(|s| s.area()).sum(),
        });
        self.st.note_accept(p.id, rid);
        self.st.record_state(p.id, ReqState::Accepted);
        self.dec[p.id as usize] = Dec::segments(plan.iter().map(|s| (s.start, s.end, s.bw)));
    }

    /// `EngineLoop::handle_cancel`.
    fn cancel(&mut self, spans: &mut Spans, id: u64) {
        let st = &mut self.st;
        if spans.time("net.cancel", id, 1, |_| st.cancel_live(id)) {
            if let Some(q) = self.qos.as_mut() {
                q.on_cancel(id);
            }
        } else if let Some(p) = self.pending.get_mut(&id) {
            if !std::mem::replace(&mut p.cancelled, true) {
                self.dec[id as usize] = Dec::Closed;
            }
        } else if let Some(p) = self.flex.iter_mut().find(|p| p.id == id) {
            if !std::mem::replace(&mut p.cancelled, true) {
                self.dec[id as usize] = Dec::Closed;
            }
        }
    }
}

/// Time the ledger's point queries at the profile sizes the workload
/// reached, with the workload's own request shapes as arguments.
fn ledger_probes(spans: &mut Spans, m: &Mirror, ops: &Ops) {
    let ledger = &m.st.ledger;
    let now = m.st.now;
    let submits = ops.submit_op.len();
    let picks: Vec<&SubmitReq> = (0..PROBES * 5)
        .map(|k| ops.submit((k * submits / (PROBES * 5)) as u64))
        .collect();
    let calls = picks.len() as u64;
    let window = |s: &SubmitReq| (now, now + s.volume / s.max_rate);
    spans.time("net.max_alloc", 0, calls, |_| {
        for s in &picks {
            let (t0, t1) = window(s);
            let p = ledger.ingress_profile(gridband_net::IngressId(s.ingress));
            std::hint::black_box(p.max_alloc(t0, t1));
        }
    });
    spans.time("net.fits", 0, calls, |_| {
        for s in &picks {
            let (t0, t1) = window(s);
            std::hint::black_box(ledger.fits(Route::new(s.ingress, s.egress), t0, t1, s.max_rate));
        }
    });
    spans.time("net.earliest_fit", 0, calls, |_| {
        for s in &picks {
            let (t0, t1) = window(s);
            let p = ledger.ingress_profile(gridband_net::IngressId(s.ingress));
            let slack = DEFAULT_SLACK * (t1 - t0);
            std::hint::black_box(p.earliest_fit(t0, t1 - t0, s.max_rate, t0 + slack));
        }
    });
}

// ---------------------------------------------------------------------
// Store timings from what the tracing directory captured
// ---------------------------------------------------------------------

#[derive(Default)]
struct StoreTimes {
    records: u64,
    round_records: u64,
    encode_round_ns: u64,
    decode_record_ns: u64,
    snapshot_encode_ns_per_byte: f64,
    snapshot_encode_ms: f64,
    snapshot_decode_ms: f64,
}

/// Re-run the captured WAL payloads and snapshot images through the
/// record codecs: decode (what recovery pays per record) and encode
/// (what the engine paid to produce them).
fn store_codec_times(spans: &mut Spans, log: &DirLog) -> Result<StoreTimes, String> {
    let mut out = StoreTimes::default();
    // The captured frames are every generation's appends back to back;
    // behind one magic they scan as one log.
    let mut wal = MAGIC_WAL.to_vec();
    wal.extend_from_slice(&log.wal_frames);
    let scan = scan_wal("traced-wal", &wal).map_err(|e| e.to_string())?;
    for (offset, payload) in &scan.records {
        let record = spans
            .time("store.decode_record", *offset, 1, |_| {
                WalRecord::decode("traced-wal", *offset, payload)
            })
            .map_err(|e| e.to_string())?;
        out.records += 1;
        if matches!(record, WalRecord::Round { .. }) {
            out.round_records += 1;
            let again = spans.time("store.encode_round", *offset, 1, |_| record.encode());
            if again != *payload {
                return Err("a WAL record did not re-encode to its own bytes".to_string());
            }
        }
    }
    out.encode_round_ns = spans.total("store.encode_round").ns;
    out.decode_record_ns = spans.total("store.decode_record").ns;
    let mut bytes = 0u64;
    for (k, file) in log.snaps.iter().enumerate() {
        let payload = parse_snapshot("traced-snap", file).map_err(|e| e.to_string())?;
        let snap = spans
            .time("store.snapshot_decode", k as u64, 1, |_| {
                EngineSnapshot::decode("traced-snap", &payload)
            })
            .map_err(|e| e.to_string())?;
        let again = spans.time("store.snapshot_encode", k as u64, 1, |_| snap.encode());
        bytes += again.len() as u64;
    }
    if !log.snaps.is_empty() {
        let n = log.snaps.len() as f64;
        out.snapshot_encode_ms = spans.total("store.snapshot_encode").ns as f64 / n / 1e6;
        out.snapshot_decode_ms = spans.total("store.snapshot_decode").ns as f64 / n / 1e6;
        out.snapshot_encode_ns_per_byte =
            spans.total("store.snapshot_encode").ns as f64 / bytes.max(1) as f64;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Pass 4: the daemon, briefly
// ---------------------------------------------------------------------

struct DaemonProbe {
    connect_us: f64,
    stats_rtt_us: f64,
    cpu_us_per_op: f64,
    replies_dropped: u64,
    queue_full: u64,
    /// Half the median gap between decision bursts (real-time only).
    round_wait_p50_us: f64,
    lat_p50_us: f64,
}

fn daemon_probe(spec: &Spec, seed: u64, n: usize, env: &Env) -> Result<DaemonProbe, String> {
    let wal_dir = spec.wal.then(|| {
        env.out
            .join(format!("wal-probe-{}-{}", spec.name, std::process::id()))
    });
    let epoch = Instant::now();
    let warm = (n / 10).max(1);
    let (ops, mut daemon, conn) = crate::bring_up(spec, seed, n, env, wal_dir.as_deref())?;
    drop(conn);
    let mut connects = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let mut c = Conn::connect(daemon.addr)?;
        c.stats()?;
        connects.push(t.elapsed().as_nanos() as u64);
    }
    let mut conn = Conn::connect(daemon.addr)?;
    let mut rtts = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t = Instant::now();
        conn.stats()?;
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    // The whole traced op set is the timed part: long enough for whole
    // slices whatever the workload's pace.
    let (log, mut conn) = crate::drive(
        spec,
        conn,
        &ops,
        warm,
        Some(Duration::from_secs(3600)),
        epoch,
        &daemon,
    )?;
    let first = log
        .window
        .samples
        .first()
        .ok_or("daemon probe took no sample")?;
    let last = log
        .window
        .samples
        .last()
        .ok_or("daemon probe took no sample")?;
    let cpu_us_per_op = (last.cpu - first.cpu) * 1e6 / (last.ops - first.ops).max(1) as f64;
    if matches!(spec.drive, Drive::Open { .. }) {
        std::thread::sleep(spec.tick().unwrap_or_default() * 4);
    }
    let stats = conn.stats()?;
    let t = &log.tracker;
    if t.stray > 0 || t.replied != log.sent {
        return Err(format!(
            "daemon answered {} of {} traced ops with {} stray replies",
            t.replied, log.sent, t.stray
        ));
    }
    let mut submit_lat = Vec::new();
    let mut arrivals = Vec::new();
    for (id, &op) in ops.submit_op.iter().enumerate() {
        let (op, recv) = (op as usize, t.recv_ns[op as usize]);
        if op >= warm && t.dec[id] != Dec::Closed {
            submit_lat.push(recv - log.from_ns[op]);
            arrivals.push(recv);
        }
    }
    arrivals.sort_unstable();
    // Decisions leave in bursts, one per round; the gaps between bursts
    // are the round period as a client sees it.
    let gaps: Vec<u64> = arrivals
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 1_000_000)
        .collect();
    let round_wait_p50_us = if spec.tick_ms.is_some() && !gaps.is_empty() {
        stats::p50_p99_us(gaps).0 / 2.0
    } else {
        0.0
    };
    daemon.kill();
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(DaemonProbe {
        connect_us: stats::p50_p99_us(connects).0,
        stats_rtt_us: stats::p50_p99_us(rtts).0,
        cpu_us_per_op,
        replies_dropped: stats.replies_dropped,
        queue_full: stats.queue_full,
        round_wait_p50_us,
        lat_p50_us: stats::p50_p99_us(submit_lat).0,
    })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Passes 1 to 3 over `ops`; `recording` off gives the untraced twin
/// whose wall time the tracing overhead is measured against.
struct Passes {
    spans: Spans,
    sizes: Sizes,
    engine: EngineRun,
    dirlog: DirLog,
    mirror_counts: MirrorCounts,
    wall: Duration,
}

struct MirrorCounts {
    candidates: u64,
    accepts: u64,
    flex_decided: u64,
    flex_accepted: u64,
    gc_dropped: u64,
    rounds: u64,
    breakpoints: usize,
    ports: usize,
    live: usize,
}

fn run_passes(spec: &Spec, ops: &Ops, env: &Env, recording: bool) -> Result<Passes, String> {
    let t0 = Instant::now();
    let mut spans = Spans::new(recording);
    let mut sizes = Sizes::default();
    client_stages(&mut spans, ops, &mut sizes)?;

    let store_dir = env
        .out
        .join(format!("wal-traced-{}-{}", spec.name, std::process::id()));
    let tracing_dir = if spec.wal {
        crate::fresh_dir(&store_dir)?;
        Some(Arc::new(TracingDir {
            inner: FsDir::new(&store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?,
            log: Mutex::new(DirLog::default()),
        }))
    } else {
        None
    };
    // As the daemon is started: `--fsync off`, default cadence.
    let store = tracing_dir.clone().map(|dir| StoreConfig {
        dir,
        fsync: FsyncPolicy::Off,
        snapshot_every: 64,
    });
    let engine = spans.time("engine.run", 0, ops.msgs.len() as u64, |_| {
        engine_run(spec, ops, store)
    })?;
    reply_stages(&mut spans, &engine.replies, &mut sizes)?;

    let mut mirror = Mirror::new(spec, ops.submit_op.len());
    spans.time("mirror.run", 0, 1, |spans| {
        for msg in &ops.msgs {
            mirror.op(spans, msg);
        }
        mirror.drain(spans);
    });
    if mirror.dec != engine.dec || mirror.query_states != engine.query_states {
        let differ = mirror
            .dec
            .iter()
            .zip(&engine.dec)
            .filter(|(a, b)| a != b)
            .count();
        return Err(format!(
            "the replay outside the engine decided {differ} submits differently: its timings are not the engine's work"
        ));
    }
    ledger_probes(&mut spans, &mirror, ops);
    let mirror_counts = MirrorCounts {
        candidates: mirror.candidates,
        accepts: mirror.accepts,
        flex_decided: mirror.flex_decided,
        flex_accepted: mirror.flex_accepted,
        gc_dropped: mirror.gc_dropped,
        rounds: mirror.st.rounds,
        breakpoints: mirror.st.ledger.breakpoint_count(),
        ports: spec.topology.num_ingress() + spec.topology.num_egress(),
        live: mirror.st.ledger.live_count() + mirror.st.ledger.seg_count(),
    };
    let dirlog = match tracing_dir {
        Some(dir) => {
            // Recovery as the daemon does it: open the store over what
            // the engine left and decode every record of the tail.
            let reopened: Arc<dyn Dir> = dir.clone();
            let (_, recovered) = spans
                .time("store.open", 0, 1, |_| {
                    Store::open(reopened, FsyncPolicy::Off)
                })
                .map_err(|e| e.to_string())?;
            std::hint::black_box(recovered);
            // The engine ran without per-round flushes; time a few
            // hundred here so `store.barrier_us` still says what one
            // costs on this filesystem.
            for _ in 0..BARRIER_PROBES {
                dir.inner
                    .append("barrier-probe", &[0u8; 256])
                    .and_then(|()| dir.sync("barrier-probe"))
                    .map_err(|e| format!("barrier probe: {e}"))?;
            }
            let log = std::mem::take(&mut *dir.log.lock().expect("dir log lock"));
            let _ = std::fs::remove_dir_all(&store_dir);
            log
        }
        None => DirLog::default(),
    };
    Ok(Passes {
        spans,
        sizes,
        engine,
        dirlog,
        mirror_counts,
        wall: t0.elapsed(),
    })
}

pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    // The op count follows `--seconds` as the end-to-end runs' does.
    let n = ((spec.trace_ops as f64 * seconds / 10.0) as usize / env.shrink).max(4 * CHUNK);
    let t_build = Instant::now();
    let mut ops = spec.build_ops(seed, n);
    let build_us_per_req = t_build.elapsed().as_secs_f64() * 1e6 / n as f64;
    // In process the engine runs on the virtual clock; give real-time
    // ops the start times they would have met.
    spec.stamp_virtual(&mut ops);

    let untraced = run_passes(spec, &ops, env, false)?;
    let mut p = run_passes(spec, &ops, env, true)?;
    let overhead = p.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0;
    let store_times = store_codec_times(&mut p.spans, &p.dirlog)?;
    let probe = daemon_probe(spec, seed, n, env)?;
    let hop_x = cross_thread_hop_ns();

    let spans = &p.spans;
    let ops_n = n as f64;
    let per_op_us = |ns: f64| ns / ops_n / 1e3;
    let sum_ns = |names: &[&str]| names.iter().map(|n| spans.total(n).ns as f64).sum::<f64>();
    let c = &p.mirror_counts;
    let log = &p.dirlog;

    let algos_us = per_op_us(sum_ns(&["algos.on_arrival", "algos.on_tick"]));
    let net_us = per_op_us(sum_ns(&[
        "net.expire",
        "net.reserve_all",
        "net.reserve_segments",
        "net.cancel",
        "net.gc",
        "net.residuals",
    ]));
    let flex_us = per_op_us(sum_ns(&["flex.water_fill"]));
    let qos_us = per_op_us(sum_ns(&["qos.redistribute"]));
    // Store: every file operation the engine issued, plus producing
    // the bytes — each round record's encode, and each snapshot's at
    // the measured rate per byte.
    // The barrier probes are the benchmark's, not the engine's.
    let engine_syncs = log.sync.calls.saturating_sub(BARRIER_PROBES as u64);
    let store_us = per_op_us(
        (log.append.ns + log.install.ns + store_times.encode_round_ns) as f64
            + store_times.snapshot_encode_ns_per_byte * log.snap_bytes as f64,
    );
    let inproc_us = p.engine.wall.as_secs_f64() * 1e6 / ops_n;
    let inproc_cpu_us = p.engine.cpu.as_secs_f64() * 1e6 / ops_n;
    let engine_self_us = inproc_us - algos_us - net_us - flex_us - qos_us - store_us;
    let codec_us =
        (spans.ns_per_call("wire.decode_client") + spans.ns_per_call("wire.encode_server")) / 1e3;
    let rounds = c.rounds.max(1) as f64;
    let per_round_us = |name: &str| spans.total(name).ns as f64 / rounds / 1e3;
    let dir_mean_us = |t: &Total| t.ns as f64 / t.calls.max(1) as f64 / 1e3;

    let metrics = vec![
        metric("workload.build_us_per_req", build_us_per_req, "us", n),
        metric(
            "wire.encode_client_ns",
            spans.ns_per_call("wire.encode_client"),
            "ns",
            n,
        ),
        metric(
            "wire.frame_split_ns",
            spans.ns_per_call("wire.frame_split"),
            "ns",
            n,
        ),
        metric(
            "wire.decode_client_ns",
            spans.ns_per_call("wire.decode_client"),
            "ns",
            n,
        ),
        metric(
            "wire.encode_server_ns",
            spans.ns_per_call("wire.encode_server"),
            "ns",
            n,
        ),
        metric(
            "wire.decode_server_ns",
            spans.ns_per_call("wire.decode_server"),
            "ns",
            n,
        ),
        metric(
            "wire.bytes_per_submit",
            p.sizes.submit_bytes as f64 / p.sizes.submit_frames.max(1) as f64,
            "B",
            0,
        ),
        metric(
            "wire.bytes_per_reply",
            p.sizes.reply_bytes as f64 / p.sizes.reply_frames.max(1) as f64,
            "B",
            0,
        ),
        metric(
            "protocol.encode_client_ns",
            spans.ns_per_call("protocol.encode_client"),
            "ns",
            n,
        ),
        metric(
            "protocol.decode_client_ns",
            spans.ns_per_call("protocol.decode_client"),
            "ns",
            n,
        ),
        metric(
            "protocol.encode_server_ns",
            spans.ns_per_call("protocol.encode_server"),
            "ns",
            n,
        ),
        metric(
            "protocol.decode_server_ns",
            spans.ns_per_call("protocol.decode_server"),
            "ns",
            n,
        ),
        metric(
            "protocol.bytes_per_submit",
            p.sizes.json_submit_bytes as f64 / p.sizes.submit_frames.max(1) as f64,
            "B",
            0,
        ),
        metric("channel.hop_ns", spans.ns_per_call("channel.hop"), "ns", n),
        metric("channel.hop_xthread_ns", hop_x, "ns", PROBES * 5),
        metric(
            "server.io_us_per_op",
            probe.cpu_us_per_op - inproc_cpu_us - codec_us,
            "us",
            0,
        ),
        metric("server.connect_us", probe.connect_us, "us", 50),
        metric("server.stats_rtt_us", probe.stats_rtt_us, "us", PROBES),
        metric(
            "server.replies_dropped",
            probe.replies_dropped as f64,
            "count",
            0,
        ),
        metric("server.queue_full", probe.queue_full as f64, "count", 0),
        metric("engine.inproc_us_per_op", inproc_us, "us", n),
        metric("engine.inproc_cpu_us_per_op", inproc_cpu_us, "us", n),
        metric(
            "engine.inproc_ops_per_s",
            ops_n / p.engine.wall.as_secs_f64(),
            "ops/s",
            n,
        ),
        metric("engine.self_us_per_op", engine_self_us, "us", 0),
        metric("engine.export_ms", p.engine.export_ms, "ms", 5),
        metric("engine.rounds", p.engine.rounds as f64, "count", 0),
        metric(
            "engine.batch_mean",
            p.engine.decided as f64 / p.engine.rounds.max(1) as f64,
            "count",
            0,
        ),
        metric(
            "engine.query_us",
            stats::p50_p99_us(p.engine.query_ns.clone()).0,
            "us",
            PROBES,
        ),
        metric("engine.round_wait_p50_us", probe.round_wait_p50_us, "us", 0),
        metric("algos.us_per_op", algos_us, "us", 0),
        metric(
            "algos.on_arrival_ns",
            spans.ns_per_call("algos.on_arrival"),
            "ns",
            0,
        ),
        metric(
            "algos.on_tick_us_per_round",
            per_round_us("algos.on_tick"),
            "us",
            c.rounds as usize,
        ),
        metric(
            "algos.on_tick_ns_per_candidate",
            spans.total("algos.on_tick").ns as f64 / c.candidates.max(1) as f64,
            "ns",
            c.candidates as usize,
        ),
        metric(
            "algos.accept_ratio",
            c.accepts as f64 / c.candidates.max(1) as f64,
            "ratio",
            c.candidates as usize,
        ),
        metric("net.us_per_op", net_us, "us", 0),
        metric(
            "net.reserve_all_us_per_round",
            per_round_us("net.reserve_all"),
            "us",
            c.rounds as usize,
        ),
        metric(
            "net.reserve_ns_per_accept",
            spans.total("net.reserve_all").ns as f64 / c.accepts.max(1) as f64,
            "ns",
            c.accepts as usize,
        ),
        metric(
            "net.expire_us_per_round",
            per_round_us("net.expire"),
            "us",
            c.rounds as usize,
        ),
        metric(
            "net.cancel_ns",
            spans.ns_per_call("net.cancel"),
            "ns",
            spans.total("net.cancel").calls as usize,
        ),
        metric(
            "net.max_alloc_ns",
            spans.ns_per_call("net.max_alloc"),
            "ns",
            PROBES * 5,
        ),
        metric(
            "net.fits_ns",
            spans.ns_per_call("net.fits"),
            "ns",
            PROBES * 5,
        ),
        metric(
            "net.earliest_fit_ns",
            spans.ns_per_call("net.earliest_fit"),
            "ns",
            PROBES * 5,
        ),
        metric(
            "net.breakpoints_per_port",
            c.breakpoints as f64 / c.ports as f64,
            "count",
            0,
        ),
        metric("net.live_reservations", c.live as f64, "count", 0),
        metric(
            "net.gc_us_per_round",
            per_round_us("net.gc"),
            "us",
            spans.total("net.gc").calls as usize,
        ),
        metric(
            "net.gc_breakpoints_dropped",
            c.gc_dropped as f64,
            "count",
            0,
        ),
        metric("flex.us_per_op", flex_us, "us", 0),
        metric(
            "flex.water_fill_us_per_req",
            spans.ns_per_call("flex.water_fill") / 1e3,
            "us",
            c.flex_decided as usize,
        ),
        metric(
            "flex.accept_ratio",
            c.flex_accepted as f64 / c.flex_decided.max(1) as f64,
            "ratio",
            c.flex_decided as usize,
        ),
        metric("qos.us_per_op", qos_us, "us", 0),
        metric(
            "qos.redistribute_us_per_round",
            per_round_us("qos.redistribute"),
            "us",
            spans.total("qos.redistribute").calls as usize,
        ),
        metric("store.us_per_op", store_us, "us", 0),
        metric(
            "store.encode_round_us",
            store_times.encode_round_ns as f64 / store_times.round_records.max(1) as f64 / 1e3,
            "us",
            store_times.round_records as usize,
        ),
        metric(
            "store.append_us",
            dir_mean_us(&log.append),
            "us",
            log.append.calls as usize,
        ),
        metric(
            "store.barrier_us",
            dir_mean_us(&log.sync),
            "us",
            log.sync.calls as usize,
        ),
        metric(
            "store.bytes_per_round",
            log.wal_bytes as f64 / store_times.round_records.max(1) as f64,
            "B",
            0,
        ),
        metric(
            "store.fsyncs_per_op",
            engine_syncs as f64 / ops_n,
            "count",
            0,
        ),
        metric(
            "store.snapshot_encode_ms",
            store_times.snapshot_encode_ms,
            "ms",
            log.snaps.len(),
        ),
        metric(
            "store.snapshot_install_ms",
            dir_mean_us(&log.install) / 1e3,
            "ms",
            log.install.calls as usize,
        ),
        metric(
            "store.snapshot_bytes",
            log.snap_bytes as f64 / log.snapshots.max(1) as f64,
            "B",
            log.snapshots as usize,
        ),
        metric("store.snapshots", log.snapshots as f64, "count", 0),
        metric(
            "store.bytes_per_op",
            (log.wal_bytes + log.snap_bytes) as f64 / ops_n,
            "B",
            0,
        ),
        metric(
            "store.snapshot_decode_ms",
            store_times.snapshot_decode_ms,
            "ms",
            log.snaps.len(),
        ),
        metric(
            "store.recover_us_per_record",
            store_times.decode_record_ns as f64 / store_times.records.max(1) as f64 / 1e3,
            "us",
            store_times.records as usize,
        ),
        metric("trace.overhead_frac", overhead, "ratio", 0),
        metric("trace.spans", spans.rows.len() as f64, "count", 0),
    ];
    // Each layer's share of the in-process engine's wall time per op
    // (span times are wall times too): the evidence for why each
    // workload exists. The engine in turn is `inproc_cpu` of the
    // daemon's CPU per op on the same ops.
    let share = |us: f64| us / inproc_us;
    let extras = vec![
        metric("daemon.cpu_us_per_op", probe.cpu_us_per_op, "us", n),
        metric("daemon.lat_p50_us", probe.lat_p50_us, "us", 0),
        metric("share.algos_net", share(algos_us + net_us), "ratio", 0),
        metric("share.store", share(store_us), "ratio", 0),
        metric(
            "share.algos_net_store",
            share(algos_us + net_us + store_us),
            "ratio",
            0,
        ),
        metric("share.engine_self", share(engine_self_us), "ratio", 0),
        metric(
            "mirror.self_us_per_op",
            per_op_us(spans.self_ns("mirror.round")),
            "us",
            0,
        ),
        metric("traced_ops", ops_n, "count", 0),
    ];
    spans.write(
        &env.out.join(format!("trace-{}.json", spec.name)),
        spec,
        seed,
        n,
    )?;
    Ok(Outcome {
        correct: true,
        attempted: n as u64,
        failed: 0,
        metrics,
        extras,
        problems: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_less_its_children() {
        let mut spans = Spans::new(true);
        spans.time("parent", 7, 1, |spans| {
            spans.time("child", 7, 3, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            spans.time("child", 8, 2, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        let (parent, child) = (spans.total("parent"), spans.total("child"));
        assert_eq!((parent.calls, child.calls), (1, 5));
        assert_eq!(parent.child_ns, child.ns);
        assert!(child.ns >= 4_000_000 && parent.ns >= child.ns);
        assert_eq!(spans.self_ns("parent"), (parent.ns - child.ns) as f64);
        assert_eq!(spans.rows[1].parent, Some(0));
        assert_eq!(spans.rows[0].parent, None);
        // The untraced twin runs the calls and keeps nothing.
        let mut off = Spans::new(false);
        assert_eq!(off.time("x", 0, 1, |_| 5), 5);
        assert!(off.rows.is_empty() && off.totals.is_empty());
    }

    #[test]
    fn the_mirror_decides_as_the_engine_does() {
        // Every workload, a short prefix: the replay outside the engine
        // must reproduce its decisions and query answers exactly.
        for name in crate::spec::NAMES {
            let spec = Spec::by_name(name).unwrap();
            let mut ops = spec.build_ops(5, 6_000);
            spec.stamp_virtual(&mut ops);
            let engine = engine_run(&spec, &ops, None).unwrap();
            let mut spans = Spans::new(false);
            let mut mirror = Mirror::new(&spec, ops.submit_op.len());
            for msg in &ops.msgs {
                mirror.op(&mut spans, msg);
            }
            mirror.drain(&mut spans);
            assert!(mirror.dec == engine.dec, "{name}: decisions differ");
            assert_eq!(mirror.query_states, engine.query_states, "{name}");
            assert_eq!(
                mirror.st.rounds, engine.rounds,
                "{name}: round counts differ"
            );
        }
    }
}
