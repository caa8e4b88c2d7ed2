//! The single-writer admission engine.
//!
//! One thread owns the [`CapacityLedger`] and a [`WindowScheduler`];
//! everything else talks to it through a bounded command channel. This is
//! the daemon-shaped version of Algorithm 3: submissions received during
//! one `t_step` interval are decided together at the interval boundary
//! against the live ledger, exactly as the offline simulation decides
//! them — a property the loopback test in `tests/` checks end to end.
//!
//! Two clocks are supported:
//!
//! * [`TimeMode::Virtual`] — the clock is driven by submission timestamps:
//!   before an arrival at `s` is enqueued, every admission round due at or
//!   before `s` fires. This replays the offline event ordering
//!   (tick-before-arrival at equal times) and makes runs deterministic.
//! * [`TimeMode::RealTime`] — a ticker thread fires a round every
//!   `tick` of wall time, advancing the virtual clock by `t_step`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use gridband_algos::BandwidthPolicy;
use gridband_algos::WindowScheduler;
use gridband_flex::FlexSpec;
use gridband_net::units::EPS;
use gridband_net::SegSpan;
use gridband_net::{CapacityLedger, EgressId, NetError, NetResult, PortRef, Route, Topology};
use gridband_qos::{AcceptedTransfer, QosConfig, Redistributor};
use gridband_sim::{AdmissionController, Decision};
use gridband_store::{
    EngineSnapshot, RoundDecision, Store, StoreConfig, StoreError, StoreResult, WalRecord,
};
use gridband_workload::{Request, TimeWindow};

use crate::metrics::{MetricsRegistry, Role};
use crate::protocol::{ClientMsg, RejectReason, ReqState, ServerMsg, SubmitReq};
use crate::state::EngineState;

/// How the engine's clock advances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeMode {
    /// Submission timestamps drive the clock (deterministic replay).
    Virtual,
    /// A ticker thread fires a round every `tick` of wall time.
    RealTime {
        /// Wall-clock interval between admission rounds.
        tick: Duration,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Port topology the ledger tracks.
    pub topology: Topology,
    /// Admission interval `t_step` in virtual seconds.
    pub step: f64,
    /// Bandwidth granted on acceptance.
    pub policy: BandwidthPolicy,
    /// Clock mode.
    pub mode: TimeMode,
    /// Command-queue bound; `try_submit` reports backpressure beyond it.
    pub queue_capacity: usize,
    /// Deadline default: `start + default_slack × volume / max_rate` when
    /// a submission omits its deadline.
    pub default_slack: f64,
    /// Decided-request history kept for `Query` (older entries evicted).
    pub history_capacity: usize,
    /// Furthest a submission's `start` may lie ahead of the virtual
    /// clock; anything beyond is rejected as `Invalid`. Bounds the
    /// clock catch-up work a single hostile submission can demand.
    pub max_horizon: f64,
    /// Virtual seconds an uncommitted two-phase hold may live before
    /// the expiry sweep releases it: a lost `HoldAck` or a commit that
    /// never arrives must surface as a timeout, not as capacity pinned
    /// forever.
    pub hold_timeout: f64,
    /// Watermark GC lag in virtual seconds: after each round at `t` the
    /// engine advances a GC watermark to `t - gc_horizon`, truncating
    /// profile history and expired reservations older than that. The
    /// lag keeps a grace window of recent history around (for late
    /// cancels and diagnostics); `None` (the default) never truncates.
    /// Each advance is logged as a [`WalRecord::Gc`] record so recovery
    /// and followers compact at exactly the same point in the decision
    /// stream.
    pub gc_horizon: Option<f64>,
    /// Durability: when set, the engine recovers from (and writes
    /// through) a WAL + snapshot store. `None` runs fully in memory.
    pub store: Option<StoreConfig>,
    /// Replication role this engine reports in `Stats` (`Solo` unless
    /// the daemon was started with `--replicate-to` or promoted from a
    /// follower).
    pub role: Role,
    /// QoS leftover-bandwidth redistribution overlay. `None` (the
    /// default) disables it. The overlay never touches the ledger, so
    /// admission decisions are identical either way; it only affects
    /// effective transfer rates and the `qos_*` metrics. Its state is
    /// volatile — not in the WAL or snapshots — so a restarted engine
    /// simply starts reselling from its next round.
    pub qos: Option<QosConfig>,
    /// Accept malleable (stepwise, `[MinRate, MaxRate]`) submissions and
    /// the `Amend` renegotiation op. Off (the default) rejects both as
    /// `Invalid`. Rigid-only workloads decide byte-identically whether
    /// this is on or off: malleable admissions run strictly *after* the
    /// round's rigid decisions, against the post-decision ledger, and an
    /// empty malleable queue leaves the round untouched.
    pub malleable: bool,
}

impl EngineConfig {
    /// Defaults matching the paper's flexible experiments: WINDOW with
    /// `t_step = 50 s`, MAX BW policy, virtual clock.
    pub fn new(topology: Topology) -> Self {
        EngineConfig {
            topology,
            step: 50.0,
            policy: BandwidthPolicy::MAX_RATE,
            mode: TimeMode::Virtual,
            queue_capacity: 1024,
            default_slack: 3.0,
            history_capacity: 1 << 20,
            max_horizon: 1e6,
            hold_timeout: 100.0,
            gc_horizon: None,
            store: None,
            role: Role::Solo,
            qos: None,
            malleable: false,
        }
    }
}

/// Where a connection's replies go: a bounded channel plus an optional
/// waker. The poll-loop server parks its reader threads in `poll(2)`;
/// without the waker a reply could sit in the channel until the next
/// timeout. An inline reply (a `Status`, a `CancelResult`, an early
/// reject, …) rings the waker as soon as it is queued. An admission
/// round queues all its replies first and then rings each distinct
/// waker they touched once — one wake per I/O loop per round, however
/// many replies the round sent there.
/// Thread-per-connection callers (tests, benches, `EngineLink`) build
/// one straight from a `Sender` via `From` and never pay for a waker.
#[derive(Clone)]
pub struct ReplySink {
    tx: Sender<ServerMsg>,
    waker: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl ReplySink {
    /// A sink that wakes `waker` once a reply has landed in the channel.
    /// Sinks that share one `Arc` (the connections of one I/O loop) are
    /// woken once per round between them.
    pub fn with_waker(tx: Sender<ServerMsg>, waker: Arc<dyn Fn() + Send + Sync>) -> ReplySink {
        ReplySink {
            tx,
            waker: Some(waker),
        }
    }

    /// Non-blocking send, mirroring [`Sender::try_send`]; rings the
    /// waker only when the message was actually enqueued. The error is
    /// as large as the message on purpose: `Full`/`Disconnected` hand
    /// the rejected reply back so callers can retry or account for it.
    #[allow(clippy::result_large_err)]
    pub fn try_send(&self, msg: ServerMsg) -> Result<(), TrySendError<ServerMsg>> {
        self.tx.try_send(msg)?;
        if let Some(waker) = &self.waker {
            waker();
        }
        Ok(())
    }
}

impl From<Sender<ServerMsg>> for ReplySink {
    fn from(tx: Sender<ServerMsg>) -> ReplySink {
        ReplySink { tx, waker: None }
    }
}

/// A command delivered to the engine thread.
pub enum Command {
    /// A client request plus the sink its replies go to.
    Client {
        /// The decoded request.
        msg: ClientMsg,
        /// Per-connection outbound queue.
        reply: ReplySink,
    },
    /// Fire one admission round (real-time ticker).
    Tick,
    /// Decide everything pending, then exit the engine loop.
    Shutdown,
    /// Exit immediately: no drain round, pending submissions unreplied.
    /// Used to emulate a crash at a round boundary in recovery tests.
    Halt,
    /// Export the engine's durable state (what a snapshot would hold).
    Export {
        /// Channel the snapshot is sent on.
        reply: Sender<EngineSnapshot>,
    },
}

struct PendingEntry {
    req: Request,
    reply: ReplySink,
    submitted_at: Instant,
    cancelled: bool,
    /// Service class for the QoS overlay; admission never reads it.
    class: gridband_workload::ServiceClass,
}

/// A malleable submission awaiting its deciding round. Kept in arrival
/// order in a `Vec` (not the rigid `pending` map): the water-filling
/// solver serves malleable candidates strictly after the round's rigid
/// decisions, first-come first-served.
struct FlexPending {
    id: u64,
    spec: FlexSpec,
    /// The client named an explicit deadline (the window cannot slide).
    hard_deadline: bool,
    reply: ReplySink,
    submitted_at: Instant,
    cancelled: bool,
    class: gridband_workload::ServiceClass,
}

/// An `Amend` awaiting its deciding round. Amends are applied in
/// ascending request-id order at the round boundary, after rigid
/// decisions and before new malleable admissions.
struct AmendPending {
    id: u64,
    volume: f64,
    max_rate: f64,
    deadline: Option<f64>,
    reply: ReplySink,
}

/// Handle to a running engine thread.
pub struct Engine {
    tx: Sender<Command>,
    metrics: Arc<MetricsRegistry>,
    step: f64,
    ticker_stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Start the engine (and, in real-time mode, its ticker).
    ///
    /// Panics if the configured store cannot be opened or recovered; use
    /// [`Engine::try_spawn`] to handle that as an error.
    pub fn spawn(config: EngineConfig) -> Engine {
        Engine::try_spawn(config).expect("engine store open/recovery failed")
    }

    /// Start the engine, recovering durable state first when a store is
    /// configured. Recovery runs on the caller's thread, so a corrupt
    /// store surfaces here — before the daemon starts accepting work —
    /// rather than as a dead engine thread.
    pub fn try_spawn(config: EngineConfig) -> Result<Engine, StoreError> {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_role(config.role);
        let (tx, rx) = channel::bounded(config.queue_capacity);
        let step = config.step;
        let mode = config.mode;
        let ticker_stop = Arc::new(AtomicBool::new(false));

        let engine_loop = EngineLoop::new(config, metrics.clone(), rx)?;

        let ticker = match mode {
            TimeMode::Virtual => None,
            TimeMode::RealTime { tick } => {
                let tx = tx.clone();
                let stop = ticker_stop.clone();
                Some(std::thread::spawn(move || {
                    // Round k is due at start + k·tick, so a late wake-up
                    // delays that round only and the virtual clock keeps
                    // pace with wall time; rounds already due when the
                    // ticker runs late go out back to back.
                    let mut due = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        due += tick;
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        if stop.load(Ordering::Relaxed) || tx.send(Command::Tick).is_err() {
                            break;
                        }
                    }
                }))
            }
        };

        let thread = std::thread::spawn(move || engine_loop.run());
        Ok(Engine {
            tx,
            metrics,
            step,
            ticker_stop,
            thread: Some(thread),
            ticker,
        })
    }

    /// A sender connections use to enqueue commands.
    pub fn sender(&self) -> Sender<Command> {
        self.tx.clone()
    }

    /// Shared metrics registry.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.metrics.clone()
    }

    /// The engine's `t_step` (used for queue-full retry hints).
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Decide everything pending and stop the engine thread.
    pub fn shutdown(mut self) {
        self.stop(Command::Shutdown);
    }

    /// Stop the engine *without* a drain round: pending submissions are
    /// dropped unreplied, exactly as a crash at a round boundary would
    /// leave them. Recovery tests restart a store-backed engine after
    /// this and expect it to resume from its last durable round.
    pub fn kill(mut self) {
        self.stop(Command::Halt);
    }

    /// Stop the ticker, hand the engine thread its last command, and join
    /// both threads.
    fn stop(&mut self, last: Command) {
        self.ticker_stop.store(true, Ordering::Relaxed);
        let _ = self.tx.send(last);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop(Command::Shutdown);
    }
}

struct EngineLoop {
    config: EngineConfig,
    metrics: Arc<MetricsRegistry>,
    rx: Receiver<Command>,
    /// The durable slice: ledger, clock, decided-request maps. Shared
    /// (as a type) with recovery replay and the replication mirrors.
    st: EngineState,
    sched: WindowScheduler,
    pending: HashMap<u64, PendingEntry>,
    /// Malleable submissions awaiting their round, in arrival order.
    pending_flex: Vec<FlexPending>,
    /// Amends awaiting their round (sorted by id when applied).
    pending_amends: Vec<AmendPending>,
    draining: bool,
    /// Write-ahead log (None = in-memory engine).
    store: Option<Store>,
    /// Install a snapshot every this many rounds (0 = never).
    snapshot_every: u64,
    rounds_since_snapshot: u64,
    /// Decisions of the round in flight, in decision order; becomes the
    /// round's single WAL record.
    round_log: Vec<RoundDecision>,
    /// Replies of the round in flight, held back until the round record
    /// is durable. Decisions are never externalized before they would
    /// survive a crash.
    round_replies: Vec<(ReplySink, ServerMsg)>,
    /// A store write failed: the engine stops decided-but-undurable work
    /// from leaking out and exits its loop.
    dead: bool,
    /// Leftover-bandwidth redistribution overlay (None = disabled).
    qos: Option<Redistributor>,
}

impl EngineLoop {
    fn new(
        config: EngineConfig,
        metrics: Arc<MetricsRegistry>,
        rx: Receiver<Command>,
    ) -> StoreResult<Self> {
        assert!(config.step > 0.0, "t_step must be positive");
        if let Some(h) = config.gc_horizon {
            assert!(
                h.is_finite() && h >= 0.0,
                "gc_horizon must be finite and >= 0"
            );
        }
        let st = EngineState::new(
            config.topology.clone(),
            config.step,
            config.history_capacity,
        );
        let sched = WindowScheduler::new(config.step, config.policy);
        let store_cfg = config.store.clone();
        let qos = config.qos.map(|cfg| {
            Redistributor::new(
                config.topology.num_ingress(),
                config.topology.num_egress(),
                cfg,
            )
        });
        let mut this = EngineLoop {
            config,
            metrics,
            rx,
            st,
            sched,
            pending: HashMap::new(),
            pending_flex: Vec::new(),
            pending_amends: Vec::new(),
            draining: false,
            store: None,
            snapshot_every: 0,
            rounds_since_snapshot: 0,
            round_log: Vec::new(),
            round_replies: Vec::new(),
            dead: false,
            qos,
        };
        if let Some(cfg) = store_cfg {
            // Rebuild the pre-crash state through the replay the
            // replication mirrors run, and fold it into the live metrics.
            let (store, recovered) = Store::open(cfg.dir.clone(), cfg.fsync)?;
            let (mut st, tally) = EngineState::from_log(
                this.config.topology.clone(),
                this.config.step,
                this.config.history_capacity,
                Some(&*cfg.dir),
                recovered.gen,
                recovered.snapshot.as_deref(),
                &recovered.records,
            )?;
            let m = &this.metrics;
            MetricsRegistry::add(&m.recovery_replayed_records, recovered.records.len() as u64);
            m.ticks.store(st.rounds, Ordering::Relaxed);
            m.record_replay(&tally);
            if let Some(w) = st.ledger.watermark() {
                m.gc_watermark.set(w);
            }
            m.breakpoints_live
                .store(st.ledger.breakpoint_count() as u64, Ordering::Relaxed);
            // The journal feeds each snapshot's outcome-log append, so
            // an engine that never snapshots keeps none.
            if cfg.snapshot_every > 0 {
                st.keep_journal();
            }
            this.st = st;
            this.snapshot_every = cfg.snapshot_every;
            this.store = Some(store);
        }
        Ok(this)
    }

    fn run(mut self) {
        while !self.dead {
            let Ok(cmd) = self.rx.recv() else { break };
            match cmd {
                Command::Client { msg, reply } => self.handle_client(msg, reply),
                Command::Tick => self.run_round(self.st.next_tick),
                Command::Shutdown => {
                    if !self.pending.is_empty()
                        || !self.pending_flex.is_empty()
                        || !self.pending_amends.is_empty()
                    {
                        self.run_round(self.st.next_tick);
                    }
                    break;
                }
                Command::Halt => break,
                Command::Export { reply } => {
                    let _ = reply.try_send(self.st.export());
                }
            }
        }
    }

    fn handle_client(&mut self, msg: ClientMsg, reply: ReplySink) {
        match msg {
            ClientMsg::Submit(s) => self.handle_submit(s, reply),
            ClientMsg::Amend {
                id,
                volume,
                max_rate,
                deadline,
            } => self.handle_amend(id, volume, max_rate, deadline, reply),
            ClientMsg::Cancel { id } => self.handle_cancel(id, reply),
            ClientMsg::HoldOpen(s) => self.handle_hold_open(s, reply),
            ClientMsg::HoldAttach {
                txn,
                egress,
                bw,
                start,
                finish,
                at,
            } => self.handle_hold_attach(txn, egress, bw, start, finish, at, reply),
            ClientMsg::HoldCommit { txn, at } => self.handle_hold_end(txn, at, true, reply),
            ClientMsg::HoldRelease { txn, at } => self.handle_hold_end(txn, at, false, reply),
            ClientMsg::Query { id } => {
                MetricsRegistry::inc(&self.metrics.queries);
                let state = if self.pending.contains_key(&id) || self.flex_pending(id) {
                    ReqState::Pending
                } else {
                    self.st.state_of(id).unwrap_or(ReqState::Unknown)
                };
                let alloc = self.st.alloc_of(id);
                self.send_reply(&reply, ServerMsg::Status { id, state, alloc });
            }
            ClientMsg::Stats => {
                let snap = self.metrics.snapshot(
                    (self.pending.len() + self.pending_flex.len()) as u64,
                    self.st.ledger.plan_count() as u64,
                    self.st.now,
                );
                self.send_reply(&reply, ServerMsg::Stats(snap));
            }
            ClientMsg::Drain => {
                self.draining = true;
                let n = (self.pending.len() + self.pending_flex.len()) as u64;
                if n > 0 || !self.pending_amends.is_empty() {
                    self.run_round(self.st.next_tick);
                    if self.dead {
                        return;
                    }
                }
                self.send_reply(&reply, ServerMsg::Draining { pending: n });
            }
            ClientMsg::Promote => {
                // Promotion is a follower-side operation; an engine that
                // is already deciding rounds has nothing to promote into.
                self.send_reply(
                    &reply,
                    ServerMsg::Error {
                        code: "not-follower".to_string(),
                        message: format!(
                            "this daemon is {} — only a follower can be promoted",
                            self.metrics.get_role().as_str()
                        ),
                    },
                );
            }
        }
    }

    /// Whether a malleable submission with this id awaits its round.
    fn flex_pending(&self, id: u64) -> bool {
        self.pending_flex.iter().any(|p| p.id == id)
    }

    /// The tombstone of a submission, rigid or malleable, that awaits its
    /// round.
    fn tombstone_of(&mut self, id: u64) -> Option<&mut bool> {
        match self.pending.get_mut(&id) {
            Some(entry) => Some(&mut entry.cancelled),
            None => self
                .pending_flex
                .iter_mut()
                .find(|p| p.id == id)
                .map(|p| &mut p.cancelled),
        }
    }

    fn handle_submit(&mut self, s: SubmitReq, reply: ReplySink) {
        MetricsRegistry::inc(&self.metrics.submitted);
        if s.is_malleable() {
            MetricsRegistry::inc(&self.metrics.submitted_malleable);
        }
        if self.draining {
            MetricsRegistry::inc(&self.metrics.refused_early);
            self.send_reply(
                &reply,
                ServerMsg::Rejected {
                    id: s.id,
                    reason: RejectReason::Drained,
                    retry_after: None,
                },
            );
            return;
        }
        let start = s.start.unwrap_or(self.st.now).max(self.st.now);
        // Sanity-check the clock-driving field before it drives the clock:
        // `{"start":1e300}` parses as a perfectly valid f64, and without
        // this bound the catch-up loop below would run ~start/step rounds,
        // freezing the single engine thread — and every client — forever.
        if !start.is_finite() || start > self.st.now + self.config.max_horizon {
            self.reject_early(s.id, RejectReason::Invalid, &reply);
            return;
        }
        if !self.advance_virtual_clock(start) {
            return;
        }

        match self.validate(&s, start) {
            Ok(req) => {
                if s.is_malleable() {
                    if !self.config.malleable {
                        // The malleable path is not enabled: refuse the
                        // class outright rather than silently degrading
                        // the request to a rigid admission.
                        self.reject_early(s.id, RejectReason::Invalid, &reply);
                        return;
                    }
                    // Malleable submissions never reach the rigid
                    // scheduler: they queue for the water-filling pass
                    // that runs after the round's rigid decisions, so a
                    // rigid-only workload decides byte-identically with
                    // this path compiled in and enabled.
                    self.pending_flex.push(FlexPending {
                        id: s.id,
                        spec: FlexSpec::new(
                            req.route,
                            req.window.start,
                            req.finish(),
                            req.volume,
                            req.max_rate,
                        ),
                        hard_deadline: s.deadline.is_some(),
                        reply,
                        submitted_at: Instant::now(),
                        cancelled: false,
                        class: s.class,
                    });
                    return;
                }
                // WindowScheduler always defers; keep the reply routing so
                // the round that decides this request can answer.
                let d = self.sched.on_arrival(&req, &self.st.ledger, self.st.now);
                debug_assert!(matches!(d, Decision::Defer));
                self.pending.insert(
                    s.id,
                    PendingEntry {
                        req,
                        reply,
                        submitted_at: Instant::now(),
                        cancelled: false,
                        class: s.class,
                    },
                );
            }
            Err(reason) => self.reject_early(s.id, reason, &reply),
        }
    }

    /// Refuse a submission before any round sees it: count it, record it
    /// `Rejected`, log the `EarlyReject`, and reply — unless the log
    /// write failed, which halts the engine unreplied. A resubmitted id
    /// (decided, or still pending) is answered alike but neither recorded
    /// nor logged: its first submission's outcome stands.
    fn reject_early(&mut self, id: u64, reason: RejectReason, reply: &ReplySink) {
        MetricsRegistry::inc(&self.metrics.refused_early);
        if !self.is_known(id) {
            self.st.record_state(id, ReqState::Rejected);
            if !self.log_event(WalRecord::EarlyReject { id }) {
                return;
            }
        }
        self.send_reply(
            reply,
            ServerMsg::Rejected {
                id,
                reason,
                retry_after: None,
            },
        );
    }

    /// Drive the virtual clock to `to`: fire every round due before (or
    /// exactly at) that instant, preserving the offline
    /// tick-before-arrival order at equal timestamps. Returns `false`
    /// when a round hit a store failure and the engine must halt
    /// without replying. In real time the ticker owns `now`; advancing
    /// it here would push it past `next_tick` and make the next round
    /// run backwards, so this is a no-op there.
    fn advance_virtual_clock(&mut self, to: f64) -> bool {
        if self.config.mode != TimeMode::Virtual {
            return true;
        }
        while self.st.next_tick <= to {
            // With nothing pending a round is pure bookkeeping (GC folds
            // into the last round anyway), so jump straight to the final
            // round due at or before `to`. Live holds veto the jump: the
            // expiry sweep must see every round boundary to release a
            // timed-out hold at the round it actually expires.
            if self.pending.is_empty()
                && self.pending_flex.is_empty()
                && self.pending_amends.is_empty()
                && self.st.hold_count() == 0
            {
                let behind = ((to - self.st.next_tick) / self.config.step).floor();
                if behind >= 1.0 {
                    self.st.next_tick += behind * self.config.step;
                }
            }
            self.run_round(self.st.next_tick);
            if self.dead {
                return false;
            }
        }
        self.st.now = self.st.now.max(to);
        true
    }

    /// Ingress half of a cross-shard admission: compute the earliest
    /// max-rate window on the ingress port inside the request's feasible
    /// range and pin it with a single-port hold. The egress shard
    /// confirms (or refutes) the same window via `HoldAttach`; each side
    /// only ever charges the port it owns.
    fn handle_hold_open(&mut self, s: SubmitReq, reply: ReplySink) {
        let txn = s.id;
        let deny = |reason| ServerMsg::HoldDenied { txn, reason };
        if self.draining {
            self.send_reply(&reply, deny(RejectReason::Drained));
            return;
        }
        let start = s.start.unwrap_or(self.st.now).max(self.st.now);
        if !start.is_finite() || start > self.st.now + self.config.max_horizon {
            self.send_reply(&reply, deny(RejectReason::Invalid));
            return;
        }
        if !self.advance_virtual_clock(start) {
            return;
        }
        if self.st.hold_of(txn).is_some() {
            self.send_reply(&reply, deny(RejectReason::Invalid));
            return;
        }
        let req = match self.validate(&s, start) {
            Ok(req) => req,
            Err(reason) => {
                self.send_reply(&reply, deny(reason));
                return;
            }
        };
        let duration = req.volume / req.max_rate;
        let latest_start = req.finish() - duration;
        let candidate = self
            .st
            .ledger
            .ingress_profile(req.route.ingress)
            .earliest_fit(start, duration, req.max_rate, latest_start);
        let Some(t0) = candidate else {
            self.send_reply(&reply, deny(RejectReason::Saturated));
            return;
        };
        let expires = self.st.now + self.config.hold_timeout;
        let port = PortRef::In(req.route.ingress);
        let (bw, finish) = (req.max_rate, t0 + duration);
        let msg = match self.pin_hold(txn, port, bw, t0, finish, expires) {
            None => return,
            Some(Ok(())) => ServerMsg::HoldOpened {
                txn,
                bw,
                start: t0,
                finish,
                expires,
            },
            Some(refused) => deny(refusal_reason(refused)),
        };
        self.send_reply(&reply, msg);
    }

    /// Egress half of a cross-shard admission: pin the window the
    /// ingress shard proposed on the local egress port. A `false` ack
    /// tells the ingress to release its half.
    #[allow(clippy::too_many_arguments)]
    fn handle_hold_attach(
        &mut self,
        txn: u64,
        egress: u32,
        bw: f64,
        start: f64,
        finish: f64,
        at: f64,
        reply: ReplySink,
    ) {
        let shaped = !self.draining
            && at.is_finite()
            && at <= self.st.now + self.config.max_horizon
            && bw.is_finite()
            && bw > 0.0
            && start.is_finite()
            && finish.is_finite()
            && finish > start;
        if !shaped {
            self.send_reply(&reply, ServerMsg::HoldAck { txn, ok: false });
            return;
        }
        if !self.advance_virtual_clock(at.max(self.st.now)) {
            return;
        }
        if self.st.hold_of(txn).is_some() {
            self.send_reply(&reply, ServerMsg::HoldAck { txn, ok: false });
            return;
        }
        let port = PortRef::Out(EgressId(egress));
        let expires = self.st.now + self.config.hold_timeout;
        if let Some(placed) = self.pin_hold(txn, port, bw, start, finish, expires) {
            let ok = placed.is_ok();
            self.send_reply(&reply, ServerMsg::HoldAck { txn, ok });
        }
    }

    /// Place a two-phase hold and log it before the caller replies: a
    /// crash after the reply must not forget capacity a peer was told is
    /// pinned. `Some(placed)` says whether the ledger took the hold;
    /// `None` means the log write failed and the engine halts unreplied.
    fn pin_hold(
        &mut self,
        txn: u64,
        port: PortRef,
        bw: f64,
        start: f64,
        finish: f64,
        expires: f64,
    ) -> Option<NetResult<()>> {
        if let Err(e) = self.st.place_hold(txn, port, bw, start, finish, expires) {
            return Some(Err(e));
        }
        MetricsRegistry::inc(&self.metrics.holds_placed);
        let record = WalRecord::HoldPlace {
            txn,
            port,
            bw,
            start,
            finish,
            expires,
        };
        self.log_event(record).then_some(Ok(()))
    }

    /// Second phase. On commit the local hold stays charged on its port
    /// for its full window (GC reclaims it when the window passes) and
    /// becomes exempt from the expiry sweep; on release it is dropped and
    /// its pinned capacity freed. Unknown transactions ack `false`: the
    /// expiry sweep may have won the race, which is not an error, and the
    /// coordinator reconciles a failed commit as a loss.
    fn handle_hold_end(&mut self, txn: u64, at: f64, commit: bool, reply: ReplySink) {
        if !(at.is_finite() && at <= self.st.now + self.config.max_horizon) {
            self.send_reply(&reply, ServerMsg::HoldAck { txn, ok: false });
            return;
        }
        if !self.advance_virtual_clock(at.max(self.st.now)) {
            return;
        }
        if self.st.hold_of(txn).is_none() {
            self.send_reply(&reply, ServerMsg::HoldAck { txn, ok: false });
            return;
        }
        // Log before the in-memory change: replay must end exactly the
        // holds the live engine ended.
        let record = if commit {
            WalRecord::HoldCommit { txn }
        } else {
            WalRecord::HoldRelease { txn }
        };
        if !self.log_event(record) {
            return;
        }
        let (ok, counter) = if commit {
            (self.st.commit_hold(txn), &self.metrics.holds_committed)
        } else {
            (self.st.release_hold(txn), &self.metrics.holds_released)
        };
        debug_assert!(ok);
        MetricsRegistry::inc(counter);
        self.send_reply(&reply, ServerMsg::HoldAck { txn, ok: true });
    }

    /// Whether a submission already took this id: it is decided, or
    /// waits for a round.
    fn is_known(&self, id: u64) -> bool {
        self.pending.contains_key(&id) || self.flex_pending(id) || self.st.knows(id)
    }

    /// Non-panicking mirror of `Request::new`'s contract; a daemon must
    /// survive hostile input that would assert in the library constructor.
    fn validate(&self, s: &SubmitReq, start: f64) -> Result<Request, RejectReason> {
        if self.is_known(s.id) {
            return Err(RejectReason::Invalid);
        }
        if !(s.volume.is_finite()
            && s.volume > 0.0
            && s.max_rate.is_finite()
            && s.max_rate > 0.0
            && start.is_finite())
        {
            return Err(RejectReason::Invalid);
        }
        let route = Route::new(s.ingress, s.egress);
        if !self.config.topology.contains_route(route) {
            return Err(RejectReason::UnknownRoute);
        }
        let deadline = match s.deadline {
            Some(d) => d,
            None => start + self.config.default_slack * s.volume / s.max_rate,
        };
        if !deadline.is_finite() || deadline - start <= EPS {
            return Err(RejectReason::Invalid);
        }
        let min_rate = s.volume / (deadline - start);
        if min_rate > s.max_rate * (1.0 + 1e-9) {
            // The window was never feasible at MaxRate.
            return Err(RejectReason::DeadlineUnreachable);
        }
        Ok(Request::new(
            s.id,
            route,
            TimeWindow::new(start, deadline),
            s.volume,
            s.max_rate,
        ))
    }

    fn handle_cancel(&mut self, id: u64, reply: ReplySink) {
        let freed = if self.st.cancel_live(id) {
            MetricsRegistry::inc(&self.metrics.cancelled);
            // Log before replying: a crash after the reply must not
            // resurrect capacity the client was told is freed.
            if !self.log_event(WalRecord::Cancel { id }) {
                return;
            }
            // The overlay must stop boosting a transfer whose guarantee
            // is gone — its residual claim died with the reservation.
            if let Some(q) = self.qos.as_mut() {
                q.on_cancel(id);
            }
            true
        } else if let Some(tombstone) = self.tombstone_of(id) {
            // Still undecided: tombstone it. The deciding round frees any
            // reservation it would get and suppresses the decision reply.
            // Only the first cancel takes effect; repeats report
            // `freed: false` and leave the metric alone.
            let first = !std::mem::replace(tombstone, true);
            if first {
                MetricsRegistry::inc(&self.metrics.cancelled);
            }
            first
        } else {
            false
        };
        self.send_reply(&reply, ServerMsg::CancelResult { id, freed });
    }

    /// Queue a mid-flight renegotiation of a live malleable reservation.
    /// The amend is decided at the next round boundary — after the
    /// round's rigid decisions, in ascending request-id order — as one
    /// atomic action: either the whole replacement plan is granted (same
    /// request id, same reservation id) or the original reservation is
    /// left bit-identically untouched. Capacity freed by the old plan is
    /// never observable unless the new plan is granted.
    fn handle_amend(
        &mut self,
        id: u64,
        volume: f64,
        max_rate: f64,
        deadline: Option<f64>,
        reply: ReplySink,
    ) {
        MetricsRegistry::inc(&self.metrics.amend_requests);
        let params_valid = self.config.malleable
            && volume.is_finite()
            && volume > 0.0
            && max_rate.is_finite()
            && max_rate > 0.0
            && deadline.is_none_or(|d| d.is_finite());
        let reason = if self.draining {
            Some(RejectReason::Drained)
        } else if !params_valid || self.pending_amends.iter().any(|a| a.id == id) {
            Some(RejectReason::Invalid)
        } else {
            match self.st.reservation_of(id) {
                // Only a live *segmented* reservation can be amended;
                // rigid reservations renegotiate via Cancel + resubmit.
                Some(rid) if self.st.ledger.get_segments(rid).is_some() => None,
                _ => Some(RejectReason::Invalid),
            }
        };
        if let Some(reason) = reason {
            MetricsRegistry::inc(&self.metrics.amends_rejected);
            self.send_reply(
                &reply,
                ServerMsg::Rejected {
                    id,
                    reason,
                    retry_after: None,
                },
            );
            return;
        }
        self.pending_amends.push(AmendPending {
            id,
            volume,
            max_rate,
            deadline,
            reply,
        });
    }

    /// One admission round at virtual time `t`: GC expired reservations,
    /// let the scheduler decide the batch, apply each decision, make the
    /// round durable, then answer. Replies are buffered until the round's
    /// WAL record (and, per policy, its fsync) lands: a decision a crash
    /// could forget is never externalized. On a store failure the round's
    /// replies are dropped and the engine halts.
    fn run_round(&mut self, t: f64) {
        debug_assert!(t >= self.st.now - EPS, "round time going backwards");
        // Sweep uncommitted holds whose timeout elapsed before anything
        // else sees the round: a lost `HoldAck` or a commit that never
        // arrived surfaces here as reclaimed capacity. Each release is
        // its own WAL record, appended ahead of the round record so
        // replay frees the capacity in the same order the live round
        // did.
        for txn in self.st.expired_holds(t) {
            if !self.log_event(WalRecord::HoldRelease { txn }) {
                return;
            }
            let ok = self.st.release_hold(txn);
            debug_assert!(ok);
            MetricsRegistry::inc(&self.metrics.holds_expired);
        }
        self.st.begin_round(t);
        MetricsRegistry::inc(&self.metrics.ticks);
        let sweep = self.st.gc_expired(t);
        MetricsRegistry::add(&self.metrics.gc_reclaimed, sweep.reclaimed);
        // An uncommitted hold whose window ended is a release the client
        // never sent; count it so `holds_placed` always balances against
        // `holds_committed + holds_released + holds_expired`.
        MetricsRegistry::add(&self.metrics.holds_released, sweep.holds_released);
        debug_assert!(self.round_log.is_empty() && self.round_replies.is_empty());

        self.rigid_round(t);
        // Malleable work runs strictly after the round's rigid decisions,
        // against the post-decision ledger: amends first (ascending
        // request id), then new admissions in arrival order. On a
        // rigid-only workload both queues are empty and the round is
        // byte-identical to a pre-malleable engine's.
        self.flex_round(t);

        if !self.commit_round(t) {
            // The round is decided in memory but not durable; replies
            // must not leak. Clients resubmit after the daemon restarts
            // and recovery re-runs the round identically.
            self.round_replies.clear();
            self.dead = true;
            return;
        }
        // Queue the round's replies in decision order without waking
        // anyone, then ring each I/O loop's waker once: the loop drains
        // every reply of the round on that one wake.
        let mut wakers: Vec<Arc<dyn Fn() + Send + Sync>> = Vec::new();
        for (reply, msg) in self.round_replies.drain(..) {
            match reply.tx.try_send(msg) {
                Ok(()) => {
                    if let Some(w) = reply.waker {
                        if !wakers.iter().any(|seen| Arc::ptr_eq(seen, &w)) {
                            wakers.push(w);
                        }
                    }
                }
                Err(TrySendError::Full(_)) => MetricsRegistry::inc(&self.metrics.replies_dropped),
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
        for wake in wakers {
            wake();
        }
        self.gc_round(t);
        if self.dead {
            return;
        }
        self.metrics
            .breakpoints_live
            .store(self.st.ledger.breakpoint_count() as u64, Ordering::Relaxed);
        self.qos_round(t);
    }

    /// The round's rigid pass: the scheduler's batch, in its order,
    /// opens the round record, and one [`EngineState::apply_decisions`]
    /// call books and records it as replay will. Replies, metrics and the
    /// QoS overlay then follow each decision's outcome.
    fn rigid_round(&mut self, t: f64) {
        let mut entries = Vec::new();
        for (rid, decision) in self.sched.on_tick(&self.st.ledger, t) {
            let id = rid.0;
            let Some(entry) = self.pending.remove(&id) else {
                continue;
            };
            self.metrics
                .decision_latency
                .record(entry.submitted_at.elapsed());
            let route = entry.req.route;
            self.round_log.push(match decision {
                Decision::Accept { bw, start, finish } => RoundDecision::Accept {
                    id,
                    ingress: route.ingress.0,
                    egress: route.egress.0,
                    bw,
                    start,
                    finish,
                    cancelled: entry.cancelled,
                },
                // `WindowScheduler::on_tick` emits only accepts and rejects.
                _ => RoundDecision::Reject { id },
            });
            entries.push(entry);
        }
        let outcomes = self.st.apply_decisions(&self.round_log);
        // Found at the round's first saturated reject: nothing books or
        // frees capacity again before its last one.
        let mut port_ends: Option<PortEnds> = None;
        for (i, (entry, outcome)) in entries.iter().zip(outcomes).enumerate() {
            let id = entry.req.id.0;
            let reason = match self.round_log[i] {
                // Tombstoned: booked and freed, and never answered.
                RoundDecision::Accept {
                    cancelled: true, ..
                } if outcome.is_ok() => continue,
                RoundDecision::Accept {
                    bw, start, finish, ..
                } if outcome.is_ok() => {
                    self.metrics.record_accept(entry.class);
                    if let Some(q) = self.qos.as_mut() {
                        q.on_accept(AcceptedTransfer {
                            id,
                            ingress: entry.req.route.ingress.0 as usize,
                            egress: entry.req.route.egress.0 as usize,
                            class: entry.class,
                            bw,
                            start,
                            finish,
                            max_rate: entry.req.max_rate,
                            volume: entry.req.volume,
                        });
                    }
                    let msg = ServerMsg::Accepted {
                        id,
                        bw,
                        start,
                        finish,
                    };
                    self.round_replies.push((entry.reply.clone(), msg));
                    continue;
                }
                // The ledger refused the booking: log and answer a
                // rejection in its place.
                RoundDecision::Accept { .. } => {
                    self.round_log[i] = RoundDecision::Reject { id };
                    refusal_reason(outcome)
                }
                _ if entry.req.required_rate_from(t).is_none() => RejectReason::DeadlineUnreachable,
                _ => RejectReason::Saturated,
            };
            // `apply_decisions` already recorded the rejection.
            MetricsRegistry::inc(&self.metrics.rejected);
            if entry.cancelled {
                continue;
            }
            let retry_after = match reason {
                RejectReason::Saturated => port_ends
                    .get_or_insert_with(|| PortEnds::after(&self.st.ledger, t))
                    .retry_hint(&entry.req, self.st.next_tick),
                _ => None,
            };
            self.park_rejected(&entry.reply, id, reason, retry_after);
        }
    }

    /// Apply one decision of the round in flight through
    /// [`EngineState::apply_decisions`] and log it if its booking held.
    fn decide(&mut self, d: RoundDecision) -> bool {
        let held = self.st.apply_decisions(std::slice::from_ref(&d))[0].is_ok();
        if held {
            self.round_log.push(d);
        }
        held
    }

    /// The round's malleable pass: apply queued amends in ascending
    /// request-id order, then water-fill new malleable admissions in
    /// arrival order. Both run against the ledger as the rigid decisions
    /// left it, and both log into the same round record, so replay
    /// re-walks the identical sequence.
    fn flex_round(&mut self, t: f64) {
        if self.pending_amends.is_empty() && self.pending_flex.is_empty() {
            return;
        }
        let mut amends = std::mem::take(&mut self.pending_amends);
        amends.sort_by_key(|a| a.id);
        for a in amends {
            self.apply_amend(a, t);
        }
        let flex = std::mem::take(&mut self.pending_flex);
        for p in flex {
            self.apply_flex(p, t);
        }
    }

    /// Decide one queued amend at round time `t`. The replacement plan
    /// keeps every already-started segment (clipped at `t` — delivered
    /// bytes are history, not negotiable) and water-fills the amended
    /// remaining volume from `t` against residuals with the old plan's
    /// future segments credited back. The swap itself goes through
    /// [`CapacityLedger::amend_segments`], so a rejection leaves the
    /// original reservation bit-identically untouched.
    fn apply_amend(&mut self, a: AmendPending, t: f64) {
        let target = self.st.reservation_of(a.id).and_then(|rid| {
            self.st
                .ledger
                .get_segments(rid)
                .map(|r| (rid, r.route(), r.spans().to_vec()))
        });
        // The reservation may have expired (or been cancelled) between
        // the queueing and the deciding round.
        let Some((rid, route, old_segments)) = target else {
            self.reject_amend(&a, RejectReason::Invalid, None);
            return;
        };
        let finish = match a.deadline {
            Some(d) => d,
            None => t + self.config.default_slack * a.volume / a.max_rate,
        };
        if finish - t <= EPS || a.volume > a.max_rate * (finish - t) * (1.0 + 1e-9) {
            self.reject_amend(&a, RejectReason::DeadlineUnreachable, None);
            return;
        }
        // Plan the remainder on a scratch ledger with the old plan
        // released: the real swap releases it before allocating, so the
        // scratch residuals are exactly what the allocation will see.
        let mut scratch = self.st.ledger.clone();
        let cancelled = scratch.cancel_segments(rid);
        debug_assert!(cancelled.is_ok());
        let spec = FlexSpec::new(route, t, finish, a.volume, a.max_rate);
        let Some(future) = gridband_flex::water_fill(&scratch, &spec) else {
            let hint = gridband_flex::retry_after(
                &scratch,
                &spec,
                self.st.next_tick,
                a.deadline.is_some(),
            );
            self.reject_amend(&a, RejectReason::Saturated, hint);
            return;
        };
        let mut full: Vec<SegSpan> = Vec::with_capacity(old_segments.len() + future.len());
        for s in &old_segments {
            if s.start < t && t - s.start > EPS {
                full.push(SegSpan {
                    start: s.start,
                    end: s.end.min(t),
                    bw: s.bw,
                });
            }
        }
        full.extend(future);
        let segments = full.iter().map(|s| (s.start, s.end, s.bw)).collect();
        if !self.decide(RoundDecision::Amend {
            id: a.id,
            segments: full,
        }) {
            // `water_fill` verified the plan against the exact residuals
            // the swap allocates into, so this is defensive only.
            self.reject_amend(&a, RejectReason::Saturated, None);
            return;
        }
        MetricsRegistry::inc(&self.metrics.amends_granted);
        // The old guarantee is gone; the overlay must not keep boosting
        // against it. The amended plan is not re-registered — its rates
        // were just renegotiated, so there is no leftover claim to resell
        // yet.
        if let Some(q) = self.qos.as_mut() {
            q.on_cancel(a.id);
        }
        self.round_replies.push((
            a.reply.clone(),
            ServerMsg::AcceptedSegments { id: a.id, segments },
        ));
    }

    fn reject_amend(&mut self, a: &AmendPending, reason: RejectReason, retry_after: Option<f64>) {
        MetricsRegistry::inc(&self.metrics.amends_rejected);
        self.park_rejected(&a.reply, a.id, reason, retry_after);
    }

    /// Decide one pending malleable admission at round time `t`.
    fn apply_flex(&mut self, p: FlexPending, t: f64) {
        self.metrics
            .decision_latency
            .record(p.submitted_at.elapsed());
        let mut spec = p.spec;
        spec.start = spec.start.max(t);
        if spec.finish - spec.start <= EPS
            || spec.volume > spec.max_rate * (spec.finish - spec.start) * (1.0 + 1e-9)
        {
            // The window shrank past feasibility while the request waited.
            self.reject_flex(&p, RejectReason::DeadlineUnreachable, None);
            return;
        }
        let Some(plan) = gridband_flex::water_fill(&self.st.ledger, &spec) else {
            let hint = gridband_flex::retry_after(
                &self.st.ledger,
                &spec,
                self.st.next_tick,
                p.hard_deadline,
            );
            self.reject_flex(&p, RejectReason::Saturated, hint);
            return;
        };
        if !self.decide(RoundDecision::AcceptSegments {
            id: p.id,
            ingress: spec.route.ingress.0,
            egress: spec.route.egress.0,
            segments: plan.clone(),
            cancelled: p.cancelled,
        }) {
            // `water_fill` fed the live ledger, so the booking cannot
            // fail; keep the daemon alive anyway.
            self.reject_flex(&p, RejectReason::Saturated, None);
            return;
        }
        // A tombstoned grant was booked and freed; it gets no reply.
        if p.cancelled {
            return;
        }
        self.metrics.record_accept(p.class);
        MetricsRegistry::inc(&self.metrics.accepted_malleable);
        // Register the stepwise guarantee with the overlay at its peak
        // rate: boosts stay bounded by `max_rate`, and the per-segment
        // guarantees the plan carries are what the resale pass
        // redistributes around.
        if let Some(q) = self.qos.as_mut() {
            let (start, end, peak, volume) = plan_shape(&plan);
            q.on_accept(AcceptedTransfer {
                id: p.id,
                ingress: spec.route.ingress.0 as usize,
                egress: spec.route.egress.0 as usize,
                class: p.class,
                bw: peak,
                start,
                finish: end,
                max_rate: spec.max_rate,
                volume,
            });
        }
        let segments = plan.iter().map(|s| (s.start, s.end, s.bw)).collect();
        self.round_replies.push((
            p.reply.clone(),
            ServerMsg::AcceptedSegments { id: p.id, segments },
        ));
    }

    fn reject_flex(&mut self, p: &FlexPending, reason: RejectReason, retry_after: Option<f64>) {
        MetricsRegistry::inc(&self.metrics.rejected);
        MetricsRegistry::inc(&self.metrics.rejected_malleable);
        self.decide(RoundDecision::Reject { id: p.id });
        if p.cancelled {
            return;
        }
        self.park_rejected(&p.reply, p.id, reason, retry_after);
    }

    /// Advance the GC watermark behind the round that just committed,
    /// truncating profile history older than `t - gc_horizon`. The `Gc`
    /// record lands strictly *after* the round's record, so replay
    /// (recovery and followers) compacts at exactly the same point in
    /// the decision stream as the live engine did.
    fn gc_round(&mut self, t: f64) {
        let Some(h) = self.config.gc_horizon else {
            return;
        };
        let w = t - h;
        if !w.is_finite() || w <= 0.0 {
            return;
        }
        if self.st.ledger.watermark().is_some_and(|cur| w <= cur) {
            return;
        }
        // Log before applying, mirroring every other mutation: state the
        // WAL cannot reproduce must never exist in memory.
        if !self.log_event(WalRecord::Gc { watermark: w }) {
            return;
        }
        let stats = self.st.apply_gc(w);
        MetricsRegistry::add(
            &self.metrics.gc_truncated_bps,
            stats.breakpoints_dropped as u64,
        );
        self.metrics.gc_watermark.set(w);
    }

    /// Resell the upcoming interval's leftover capacity. Runs strictly
    /// after the round's decisions committed: the overlay reads the
    /// post-round residuals and never feeds back into admission, so a
    /// run with QoS on decides byte-identically to one without.
    fn qos_round(&mut self, t: f64) {
        let Some(q) = self.qos.as_mut() else { return };
        let t1 = self.st.next_tick;
        let (rin, rout) = self.st.ledger.residuals(t, t1);
        q.round(t, t1, &rin, &rout);
        let qs = q.stats();
        let m = &self.metrics;
        m.qos_boost_rounds.store(qs.boost_rounds, Ordering::Relaxed);
        m.qos_boosted_mb
            .store(qs.boosted_mb as u64, Ordering::Relaxed);
        m.qos_early_releases
            .store(qs.early_releases, Ordering::Relaxed);
        m.qos_finish_violations
            .store(qs.finish_violations, Ordering::Relaxed);
        m.qos_oversubscriptions
            .store(qs.oversubscriptions, Ordering::Relaxed);
    }

    /// Persist the round just decided: append its WAL record, honor the
    /// fsync policy, and install a snapshot when one is due. Returns
    /// `false` (after logging to stderr) on any store failure.
    fn commit_round(&mut self, t: f64) -> bool {
        let Some(mut store) = self.store.take() else {
            self.round_log.clear();
            return true;
        };
        let record = WalRecord::Round {
            t,
            decisions: std::mem::take(&mut self.round_log),
        };
        // One framed write + one fsync for the whole round, whatever the
        // policy: `append_batch` is itself a round barrier.
        let ok = match store.append_batch(&[&record.encode()]) {
            Ok(a) => {
                self.metrics.record_wal_append(a.bytes, a.fsync);
                self.rounds_since_snapshot += 1;
                if self.snapshot_every > 0 && self.rounds_since_snapshot >= self.snapshot_every {
                    match self.install_snapshot(&mut store) {
                        Ok(_) => {
                            MetricsRegistry::inc(&self.metrics.snapshots_written);
                            self.rounds_since_snapshot = 0;
                            true
                        }
                        Err(e) => {
                            eprintln!("gridband-serve: snapshot install failed, halting: {e}");
                            false
                        }
                    }
                } else {
                    true
                }
            }
            Err(e) => {
                eprintln!("gridband-serve: WAL append failed, halting: {e}");
                false
            }
        };
        self.store = Some(store);
        ok
    }

    /// Install a snapshot whose history is the outcome log: append the
    /// outcomes journaled since the previous snapshot to it — or, on this
    /// store's first snapshot and once the log holds more than twice the
    /// history bound, start a fresh one from the current history — then
    /// install the snapshot that names the log's new length.
    fn install_snapshot(&mut self, store: &mut Store) -> StoreResult<u64> {
        let journal = self.st.take_journal();
        let bound = 2 * self.config.history_capacity as u64;
        let hist = match store.outcome_log_entries() {
            Some(entries) if entries <= bound => store.append_outcomes(journal)?,
            _ => store.start_outcome_log(self.st.outcomes())?,
        };
        store.install_snapshot(&self.st.snapshot(hist).encode())
    }

    /// Append a non-round record (cancel / early-reject) to the WAL.
    /// Returns `false` (and marks the engine dead) on failure, in which
    /// case the caller must withhold its reply.
    fn log_event(&mut self, record: WalRecord) -> bool {
        let Some(store) = self.store.as_mut() else {
            return true;
        };
        match store.append(&record.encode()) {
            Ok(a) => {
                self.metrics.record_wal_append(a.bytes, a.fsync);
                true
            }
            Err(e) => {
                eprintln!("gridband-serve: WAL append failed, halting: {e}");
                self.dead = true;
                false
            }
        }
    }

    /// Hold a rejection back until the round record is durable.
    fn park_rejected(
        &mut self,
        reply: &ReplySink,
        id: u64,
        reason: RejectReason,
        retry_after: Option<f64>,
    ) {
        let msg = ServerMsg::Rejected {
            id,
            reason,
            retry_after,
        };
        self.round_replies.push((reply.clone(), msg));
    }

    /// Deliver an inline reply (one sent outside a round) without ever
    /// blocking the engine, and wake its connection's I/O loop at once.
    /// Reply channels are bounded and client-paced: a client that stops
    /// reading its socket fills its channel, and a blocking send there
    /// would stall admission for every connection. Full ⇒ drop the reply
    /// and count it; the client can recover the state via `Query`.
    /// `run_round` applies the same rule to a round's replies but rings
    /// each waker once for the whole round.
    fn send_reply(&self, reply: &ReplySink, msg: ServerMsg) {
        if let Err(TrySendError::Full(_)) = reply.try_send(msg) {
            MetricsRegistry::inc(&self.metrics.replies_dropped);
        }
    }
}

/// The earliest end after the round's instant of any live rigid plan, on
/// each ingress and each egress port (`INFINITY` where there is none):
/// one pass over the ledger's plans serves every saturated rejection of
/// a round. Malleable plans and holds are not counted.
struct PortEnds {
    ingress: Vec<f64>,
    egress: Vec<f64>,
}

impl PortEnds {
    fn after(ledger: &CapacityLedger, t: f64) -> PortEnds {
        let topology = ledger.topology();
        let mut ends = PortEnds {
            ingress: vec![f64::INFINITY; topology.num_ingress()],
            egress: vec![f64::INFINITY; topology.num_egress()],
        };
        for (_, r) in ledger.live_reservations() {
            if r.end > t {
                let i = &mut ends.ingress[r.route.ingress.index()];
                *i = i.min(r.end);
                let e = &mut ends.egress[r.route.egress.index()];
                *e = e.min(r.end);
            }
        }
        ends
    }

    /// Backpressure hint for a saturated rejection: the earliest end
    /// after the round of a live rigid plan on either port of the
    /// route, or `next_tick` if there is none, and never before
    /// `next_tick`. The request may still not fit then. `None` when a
    /// retry decided that late can no longer meet the deadline.
    fn retry_hint(&self, req: &Request, next_tick: f64) -> Option<f64> {
        let route = req.route;
        let earliest = self.ingress[route.ingress.index()].min(self.egress[route.egress.index()]);
        let hint = if earliest.is_finite() {
            earliest.max(next_tick)
        } else {
            next_tick
        };
        let latest_useful = req.finish() - req.volume / req.max_rate;
        (hint < latest_useful).then_some(hint)
    }
}

/// The reject reason for a booking the ledger refused: a malformed grant
/// (a window no longer than the ledger's time resolution) is `Invalid`,
/// any other refusal a full port.
fn refusal_reason(refused: NetResult<()>) -> RejectReason {
    match refused {
        Err(NetError::InvalidArgument(_)) => RejectReason::Invalid,
        _ => RejectReason::Saturated,
    }
}

/// `(start, end, peak rate, volume)` of a non-empty segment plan.
fn plan_shape(plan: &[SegSpan]) -> (f64, f64, f64, f64) {
    let start = plan.first().map_or(0.0, |s| s.start);
    let end = plan.last().map_or(0.0, |s| s.end);
    let peak = plan.iter().fold(0.0_f64, |m, s| m.max(s.bw));
    let volume = plan.iter().map(|s| s.area()).sum();
    (start, end, peak, volume)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(id: u64, start: f64, volume: f64, max_rate: f64, deadline: f64) -> ClientMsg {
        ClientMsg::Submit(SubmitReq {
            id,
            ingress: 0,
            egress: 0,
            volume,
            max_rate,
            start: Some(start),
            deadline: Some(deadline),
            class: Default::default(),
            malleable: None,
        })
    }

    fn engine_1x1(cap: f64, step: f64) -> Engine {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, cap));
        cfg.step = step;
        Engine::spawn(cfg)
    }

    fn rpc(engine: &Engine, msg: ClientMsg) -> ServerMsg {
        let (tx, rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg,
                reply: tx.into(),
            })
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("engine reply")
    }

    #[test]
    fn submit_is_decided_at_the_next_round() {
        let engine = engine_1x1(100.0, 10.0);
        let (tx, rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: submit(1, 0.0, 500.0, 100.0, 30.0),
                reply: tx.clone().into(),
            })
            .unwrap();
        // No decision yet: the round at t=10 has not fired.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        // A later submission past the tick drives the clock forward.
        engine
            .sender()
            .send(Command::Client {
                msg: submit(2, 12.0, 100.0, 100.0, 40.0),
                reply: tx.into(),
            })
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMsg::Accepted {
                id,
                bw,
                start,
                finish,
            } => {
                assert_eq!(id, 1);
                assert_eq!(start, 10.0);
                // Decided at t=10 with deadline 30: required 25, MAX BW
                // grants the full host rate.
                assert_eq!(bw, 100.0);
                assert_eq!(finish, 15.0);
            }
            other => panic!("expected acceptance, got {other:?}"),
        }
        engine.shutdown();
    }

    /// A round rings each waker its replies touched once, after the last
    /// of them is queued, however many replies it sent there; an inline
    /// reply rings its waker at once. Sinks 0 and 1 share one waker (two
    /// connections of one I/O loop), sink 2 has its own and is sent work
    /// on even intervals only. After each interval's submissions, whose
    /// first one fires the round deciding the previous interval, one
    /// inline `Query` goes to a sink in turn; a `Query` on a plain sink
    /// then fences the engine before the counts are read.
    #[test]
    fn a_round_rings_each_waker_once() {
        use std::sync::atomic::AtomicUsize;
        const ROUNDS: u64 = 6;
        let mut cfg = EngineConfig::new(Topology::uniform(2, 2, 100.0));
        cfg.step = 10.0;
        let engine = Engine::spawn(cfg);
        let rings = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        let waker = |n: &Arc<AtomicUsize>| -> Arc<dyn Fn() + Send + Sync> {
            let n = n.clone();
            Arc::new(move || {
                n.fetch_add(1, Ordering::SeqCst);
            })
        };
        let (shared, own) = (waker(&rings[0]), waker(&rings[1]));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| channel::unbounded()).unzip();
        let sinks = [
            ReplySink::with_waker(txs[0].clone(), shared.clone()),
            ReplySink::with_waker(txs[1].clone(), shared),
            ReplySink::with_waker(txs[2].clone(), own),
        ];
        let ring_of = [0, 0, 1];
        let send = |msg: ClientMsg, sink: usize| {
            (engine.sender())
                .send(Command::Client {
                    msg,
                    reply: sinks[sink].clone(),
                })
                .expect("engine alive");
        };
        let mut want = [0usize; 2];
        let mut id = 0u64;
        let mut prev: [Vec<u64>; 3] = Default::default();
        for r in 0..=ROUNDS {
            let mut cur: [Vec<u64>; 3] = Default::default();
            let inline = (r % 3) as usize;
            if r < ROUNDS {
                for (k, sink) in [0usize, 1, 0, 2, 1].into_iter().enumerate() {
                    if sink == 2 && r % 2 == 1 {
                        continue;
                    }
                    id += 1;
                    let start = 10.0 * r as f64 + 1.0 + k as f64;
                    send(submit(id, start, 100.0, 50.0, start + 50.0), sink);
                    cur[sink].push(id);
                }
                send(ClientMsg::Query { id: 1_000 + r }, inline);
            } else {
                send(ClientMsg::Drain, inline);
            }
            match rpc(&engine, ClientMsg::Query { id: 0 }) {
                ServerMsg::Status { id: 0, .. } => {}
                other => panic!("expected the fence's status, got {other:?}"),
            }
            let mut touched = [false; 2];
            for (s, rx) in rxs.iter().enumerate() {
                let got: Vec<ServerMsg> = rx.try_iter().collect();
                let (decided, tail) = got.split_at(got.len() - usize::from(s == inline));
                let mut ids: Vec<u64> = (decided.iter())
                    .map(|m| match m {
                        ServerMsg::Accepted { id, .. } | ServerMsg::Rejected { id, .. } => *id,
                        other => panic!("round {r}, sink {s}: expected a decision, got {other:?}"),
                    })
                    .collect();
                ids.sort_unstable();
                assert_eq!(
                    ids, prev[s],
                    "round {r}, sink {s}: the previous interval's ids"
                );
                touched[ring_of[s]] |= !ids.is_empty();
                if let [last] = tail {
                    let expected = if r < ROUNDS {
                        matches!(last, ServerMsg::Status { id, .. } if *id == 1_000 + r)
                    } else {
                        matches!(last, ServerMsg::Draining { .. })
                    };
                    assert!(
                        expected,
                        "round {r}, sink {s}: inline reply last, got {last:?}"
                    );
                    want[ring_of[s]] += 1;
                }
            }
            for (w, t) in want.iter_mut().zip(touched) {
                *w += usize::from(t);
            }
            let got = [0, 1].map(|i| rings[i].load(Ordering::SeqCst));
            assert_eq!(
                got, want,
                "after interval {r}: rings of [shared, own] waker"
            );
            prev = cur;
        }
        engine.shutdown();
    }

    fn submit_on(
        id: u64,
        route: (u32, u32),
        start: f64,
        volume: f64,
        max_rate: f64,
        deadline: f64,
    ) -> SubmitReq {
        SubmitReq {
            id,
            ingress: route.0,
            egress: route.1,
            volume,
            max_rate,
            start: Some(start),
            deadline: Some(deadline),
            class: Default::default(),
            malleable: None,
        }
    }

    fn retry_after_of(msg: &ServerMsg) -> Option<f64> {
        match msg {
            ServerMsg::Rejected {
                reason: RejectReason::Saturated,
                retry_after,
                ..
            } => *retry_after,
            other => panic!("expected a saturated rejection, got {other:?}"),
        }
    }

    /// The hint is the earliest end after the round of a live rigid plan
    /// on either port of the route, and never before the next round.
    #[test]
    fn saturated_rejection_carries_a_retry_hint() {
        let mut cfg = EngineConfig::new(Topology::uniform(3, 3, 100.0));
        cfg.step = 10.0;
        cfg.malleable = true;
        let engine = Engine::spawn(cfg);
        // Decided at t = 10, each granted its max rate from 10: ports
        // in0/eg0 carry [10, 20) and [10, 110) at 50 each, in1/eg1
        // [10, 40) and [10, 60) at 50 each, and a malleable plan fills
        // in2/eg2 over [10, 40).
        let grants = rpc_all_no_drain(
            &engine,
            vec![
                ClientMsg::Submit(submit_on(1, (0, 0), 1.0, 500.0, 50.0, 100.0)),
                ClientMsg::Submit(submit_on(2, (0, 0), 1.0, 5_000.0, 50.0, 200.0)),
                ClientMsg::Submit(submit_on(3, (1, 1), 1.0, 1_500.0, 50.0, 100.0)),
                ClientMsg::Submit(submit_on(4, (1, 1), 1.0, 2_500.0, 50.0, 100.0)),
                ClientMsg::Submit(SubmitReq {
                    malleable: Some(true),
                    ..submit_on(5, (2, 2), 5.0, 3_000.0, 100.0, 40.0)
                }),
            ],
            12.0,
        );
        for g in &grants[..4] {
            assert!(
                matches!(g, ServerMsg::Accepted { start: 10.0, .. }),
                "{g:?}"
            );
        }
        assert!(
            matches!(&grants[4], ServerMsg::AcceptedSegments { segments, .. }
                if segments == &[(10.0, 40.0, 100.0)]),
            "{:?}",
            grants[4]
        );
        // Decided at t = 20, with the next round at 30.
        let round = rpc_all_no_drain(
            &engine,
            vec![
                // in0's earliest end after 20 is 110 (the plan ending
                // exactly at 20 does not count), eg1's is 40: the route's
                // two ports differ and the hint takes the sooner.
                ClientMsg::Submit(submit_on(11, (0, 1), 15.0, 100.0, 100.0, 500.0)),
                // Needs 51.3 of in0/eg0's 50: the hint is 110, not the
                // plan that ended at 20 (that would clamp to 30).
                ClientMsg::Submit(submit_on(12, (0, 0), 15.0, 10_000.0, 100.0, 215.0)),
                // As above, but starting by 25 is the last chance.
                ClientMsg::Submit(submit_on(13, (0, 0), 15.0, 1_000.0, 100.0, 35.0)),
                // in2/eg2 are full, but of no rigid plan: the next round.
                ClientMsg::Submit(submit_on(14, (2, 2), 15.0, 100.0, 100.0, 500.0)),
            ],
            22.0,
        );
        let hints: Vec<Option<f64>> = round.iter().map(retry_after_of).collect();
        assert_eq!(hints, [Some(40.0), Some(110.0), None, Some(30.0)]);
        // Free eg1's plan ending at 40, then let `Drain` force the round
        // at 30: its hint must see the ledger as it is then (eg1's
        // earliest end is now 60), not the round at 20's minima.
        let last = rpc_all(
            &engine,
            vec![
                ClientMsg::Cancel { id: 3 },
                ClientMsg::Submit(submit_on(15, (0, 1), 25.0, 6_000.0, 100.0, 140.0)),
            ],
        );
        assert!(
            matches!(last[0], ServerMsg::CancelResult { freed: true, .. }),
            "{:?}",
            last[0]
        );
        assert_eq!(retry_after_of(&last[1]), Some(60.0));
        engine.shutdown();
    }

    /// The per-reject scan that [`PortEnds`] replaced: every live rigid
    /// plan on either port of the route, once per rejection.
    fn retry_hint_by_scan(
        ledger: &CapacityLedger,
        req: &Request,
        t: f64,
        next_tick: f64,
    ) -> Option<f64> {
        let mut earliest: Option<f64> = None;
        for (_, r) in ledger.live_reservations() {
            if r.end > t
                && (r.route.ingress == req.route.ingress || r.route.egress == req.route.egress)
            {
                earliest = Some(earliest.map_or(r.end, |e: f64| e.min(r.end)));
            }
        }
        let hint = earliest.unwrap_or(next_tick).max(next_tick);
        let latest_useful = req.finish() - req.volume / req.max_rate;
        (hint < latest_useful).then_some(hint)
    }

    /// One pass per round gives every hint bit for bit as one scan per
    /// rejection did, over ledgers with rigid and stepwise plans, some
    /// freed, at instants on and between plan ends.
    #[test]
    fn port_ends_match_the_per_reject_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut checked = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ledger = CapacityLedger::new(Topology::uniform(3, 4, 100.0));
            let mut ends = Vec::new();
            for _ in 0..30 {
                let route = Route::new(rng.gen_range(0u32..3), rng.gen_range(0u32..4));
                let start = rng.gen_range(0.0..50.0f64).floor();
                let end = start + rng.gen_range(1.0..60.0f64).floor();
                let bw = rng.gen_range(5.0..40.0);
                let booked = if rng.gen_range(0u32..4) == 0 {
                    let mid = (start + end) / 2.0;
                    let spans = [
                        SegSpan {
                            start,
                            end: mid,
                            bw,
                        },
                        SegSpan {
                            start: mid,
                            end,
                            bw: bw / 2.0,
                        },
                    ];
                    ledger.reserve_segments(route, &spans)
                } else {
                    ledger.reserve(route, start, end, bw)
                };
                if let Ok(id) = booked {
                    ends.push(end);
                    if rng.gen_range(0u32..6) == 0 {
                        ledger.free(id).unwrap();
                    }
                }
            }
            for t in ends.iter().copied().chain([0.0, 17.5, 33.0, 200.0]) {
                let next_tick = t + 10.0;
                let port_ends = PortEnds::after(&ledger, t);
                for (i, e) in (0..3).flat_map(|i| (0..4).map(move |e| (i, e))) {
                    let window = TimeWindow::new(t, t + rng.gen_range(20.0..150.0));
                    let req = Request::new(0, Route::new(i, e), window, 200.0, 20.0);
                    let got = port_ends.retry_hint(&req, next_tick);
                    let want = retry_hint_by_scan(&ledger, &req, t, next_tick);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "seed {seed} t {t}"
                    );
                    checked += got.is_some() as usize;
                }
            }
        }
        assert!(checked > 1000, "only {checked} hints compared");
    }

    /// A grant shorter than the ledger's time resolution (1e-9 MB at
    /// 100 MB/s lasts 1e-11 s) is refused by the ledger as `Invalid`. It
    /// used to reach `CapacityProfile::allocate`'s interval check and
    /// panic the engine thread, after which no request got a reply.
    #[test]
    fn sub_epsilon_grant_is_refused_as_invalid_not_fatal() {
        let engine = engine_1x1(100.0, 10.0);
        let d = rpc_all_no_drain(
            &engine,
            vec![
                submit(1, 0.0, 1e-9, 100.0, 30.0),
                submit(2, 12.0, 100.0, 100.0, 40.0),
            ],
            22.0,
        );
        assert!(
            matches!(
                d[0],
                ServerMsg::Rejected {
                    id: 1,
                    reason: RejectReason::Invalid,
                    ..
                }
            ),
            "{:?}",
            d[0]
        );
        assert!(
            matches!(d[1], ServerMsg::Accepted { id: 2, .. }),
            "{:?}",
            d[1]
        );
        engine.shutdown();
    }

    /// The two-phase hold of a sub-ε window meets the same refusal.
    #[test]
    fn sub_epsilon_hold_is_refused_as_invalid_not_fatal() {
        let engine = engine_1x1(100.0, 10.0);
        let open = ClientMsg::HoldOpen(SubmitReq {
            id: 1,
            ingress: 0,
            egress: 0,
            volume: 1e-9,
            max_rate: 100.0,
            start: Some(0.0),
            deadline: Some(30.0),
            class: Default::default(),
            malleable: None,
        });
        match rpc(&engine, open) {
            ServerMsg::HoldDenied { txn: 1, reason } => assert_eq!(reason, RejectReason::Invalid),
            other => panic!("expected a denied hold, got {other:?}"),
        }
        let d = rpc_all_no_drain(&engine, vec![submit(2, 0.0, 100.0, 100.0, 30.0)], 12.0);
        assert!(
            matches!(d[0], ServerMsg::Accepted { id: 2, .. }),
            "{:?}",
            d[0]
        );
        engine.shutdown();
    }

    /// Submit all messages, then drain, returning one decision per submit
    /// in submission order.
    fn rpc_all(engine: &Engine, msgs: Vec<ClientMsg>) -> Vec<ServerMsg> {
        let (tx, rx) = channel::unbounded();
        let n = msgs.len();
        for msg in msgs {
            engine
                .sender()
                .send(Command::Client {
                    msg,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        let (dtx, drx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: ClientMsg::Drain,
                reply: dtx.into(),
            })
            .unwrap();
        drx.recv_timeout(Duration::from_secs(5))
            .expect("drain reply");
        // Note: this marks the engine as draining; only use at end of test
        // or with engines whose rounds already fired.
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("decision"))
            .collect()
    }

    #[test]
    fn invalid_submissions_bounce_without_panicking() {
        let engine = engine_1x1(100.0, 10.0);
        let bad = vec![
            // Negative volume.
            ClientMsg::Submit(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 0,
                volume: -5.0,
                max_rate: 10.0,
                start: Some(0.0),
                deadline: Some(10.0),
                class: Default::default(),
                malleable: None,
            }),
            // NaN rate.
            ClientMsg::Submit(SubmitReq {
                id: 2,
                ingress: 0,
                egress: 0,
                volume: 10.0,
                max_rate: f64::NAN,
                start: Some(0.0),
                deadline: Some(10.0),
                class: Default::default(),
                malleable: None,
            }),
            // Route outside the 1×1 topology.
            ClientMsg::Submit(SubmitReq {
                id: 3,
                ingress: 7,
                egress: 0,
                volume: 10.0,
                max_rate: 10.0,
                start: Some(0.0),
                deadline: Some(10.0),
                class: Default::default(),
                malleable: None,
            }),
            // Deadline before start.
            ClientMsg::Submit(SubmitReq {
                id: 4,
                ingress: 0,
                egress: 0,
                volume: 10.0,
                max_rate: 10.0,
                start: Some(20.0),
                deadline: Some(10.0),
                class: Default::default(),
                malleable: None,
            }),
            // Infeasible even at MaxRate. (The clock is at 20 by now: the
            // id-4 submission above advanced it to its start time.)
            ClientMsg::Submit(SubmitReq {
                id: 5,
                ingress: 0,
                egress: 0,
                volume: 1000.0,
                max_rate: 1.0,
                start: Some(20.0),
                deadline: Some(30.0),
                class: Default::default(),
                malleable: None,
            }),
        ];
        let want = [
            RejectReason::Invalid,
            RejectReason::Invalid,
            RejectReason::UnknownRoute,
            RejectReason::Invalid,
            RejectReason::DeadlineUnreachable,
        ];
        for (msg, want) in bad.into_iter().zip(want) {
            match rpc(&engine, msg) {
                ServerMsg::Rejected {
                    reason,
                    retry_after,
                    ..
                } => {
                    assert_eq!(reason, want);
                    assert_eq!(retry_after, None);
                }
                other => panic!("expected early rejection, got {other:?}"),
            }
        }
        engine.shutdown();
    }

    #[test]
    fn duplicate_ids_are_invalid() {
        let engine = engine_1x1(100.0, 10.0);
        let msgs = vec![
            submit(1, 0.0, 100.0, 100.0, 50.0),
            submit(1, 1.0, 100.0, 100.0, 50.0),
        ];
        let (tx, rx) = channel::unbounded();
        for msg in msgs {
            engine
                .sender()
                .send(Command::Client {
                    msg,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            ServerMsg::Rejected {
                id: 1,
                reason: RejectReason::Invalid,
                ..
            } => {}
            other => panic!("expected duplicate-id rejection, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn cancel_frees_capacity_for_later_requests() {
        let engine = engine_1x1(100.0, 10.0);
        let a = rpc_all_no_drain(&engine, vec![submit(1, 0.0, 20_000.0, 100.0, 400.0)], 12.0);
        assert!(matches!(a[0], ServerMsg::Accepted { .. }));
        match rpc(&engine, ClientMsg::Cancel { id: 1 }) {
            ServerMsg::CancelResult { freed, .. } => assert!(freed),
            other => panic!("expected cancel result, got {other:?}"),
        }
        // The port is free again: an otherwise-blocked transfer fits.
        let b = rpc_all_no_drain(&engine, vec![submit(2, 20.0, 9_000.0, 100.0, 400.0)], 32.0);
        assert!(matches!(b[0], ServerMsg::Accepted { .. }), "{:?}", b[0]);
        match rpc(&engine, ClientMsg::Query { id: 1 }) {
            ServerMsg::Status { state, .. } => assert_eq!(state, ReqState::Cancelled),
            other => panic!("expected status, got {other:?}"),
        }
        engine.shutdown();
    }

    /// Submit, then advance the virtual clock past the deciding round by
    /// submitting (and discarding) a probe at `probe_time`.
    fn rpc_all_no_drain(engine: &Engine, msgs: Vec<ClientMsg>, probe_time: f64) -> Vec<ServerMsg> {
        let (tx, rx) = channel::unbounded();
        let n = msgs.len();
        for msg in msgs {
            engine
                .sender()
                .send(Command::Client {
                    msg,
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        // Probe with an unroutable submission: advances the clock, never
        // reaches the scheduler.
        let probe = ClientMsg::Submit(SubmitReq {
            id: u64::MAX,
            ingress: u32::MAX,
            egress: 0,
            volume: 1.0,
            max_rate: 1.0,
            start: Some(probe_time),
            deadline: None,
            class: Default::default(),
            malleable: None,
        });
        let (ptx, prx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: probe,
                reply: ptx.into(),
            })
            .unwrap();
        prx.recv_timeout(Duration::from_secs(5))
            .expect("probe reply");
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("decision"))
            .collect()
    }

    #[test]
    fn stats_reflect_activity() {
        let engine = engine_1x1(100.0, 10.0);
        let d = rpc_all(&engine, vec![submit(1, 0.0, 100.0, 100.0, 50.0)]);
        assert!(matches!(d[0], ServerMsg::Accepted { .. }));
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.submitted, 1);
                assert_eq!(s.accepted, 1);
                assert_eq!(s.rejected, 0);
                assert_eq!(s.decision_latency.count, 1);
                assert!(s.ticks >= 1);
                assert_eq!(s.accept_rate(), 1.0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn draining_engine_refuses_new_work() {
        let engine = engine_1x1(100.0, 10.0);
        match rpc(&engine, ClientMsg::Drain) {
            ServerMsg::Draining { pending } => assert_eq!(pending, 0),
            other => panic!("expected draining, got {other:?}"),
        }
        match rpc(&engine, submit(9, 0.0, 100.0, 100.0, 50.0)) {
            ServerMsg::Rejected {
                reason: RejectReason::Drained,
                ..
            } => {}
            other => panic!("expected drained rejection, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn hostile_far_future_start_is_rejected_not_spun_on() {
        let engine = engine_1x1(100.0, 10.0);
        // `1e300` parses as a perfectly valid f64; without the horizon
        // check the catch-up loop would run ~1e299 rounds and freeze the
        // engine thread (and with it, every client) forever.
        match rpc(&engine, submit(1, 1e300, 100.0, 100.0, 1e300 + 50.0)) {
            ServerMsg::Rejected {
                reason: RejectReason::Invalid,
                ..
            } => {}
            other => panic!("expected invalid rejection, got {other:?}"),
        }
        // Infinity survives JSON-free construction paths too.
        match rpc(&engine, submit(2, f64::INFINITY, 100.0, 100.0, 50.0)) {
            ServerMsg::Rejected {
                reason: RejectReason::Invalid,
                ..
            } => {}
            other => panic!("expected invalid rejection, got {other:?}"),
        }
        // The engine is still alive and serving.
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => assert_eq!(s.refused_early, 2),
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn within_horizon_catch_up_fast_forwards_over_empty_rounds() {
        let engine = engine_1x1(100.0, 10.0);
        // ~100k rounds ahead but inside the horizon: the empty-round
        // fast-forward makes this O(1) instead of round-by-round.
        let d = rpc_all(&engine, vec![submit(1, 999_900.0, 100.0, 100.0, 999_990.0)]);
        assert!(matches!(d[0], ServerMsg::Accepted { .. }), "{:?}", d[0]);
        engine.shutdown();
    }

    #[test]
    fn realtime_future_start_does_not_move_the_clock() {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        cfg.step = 5.0;
        cfg.mode = TimeMode::RealTime {
            tick: Duration::from_millis(10),
        };
        let engine = Engine::spawn(cfg);
        let (tx, _rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: submit(1, 400.0, 100.0, 100.0, 800.0),
                reply: tx.into(),
            })
            .unwrap();
        // Let several ticker rounds fire. Before the fix the submission
        // pushed `now` to 400 past `next_tick`, so the first round hit
        // the round-time-going-backwards debug_assert and killed the
        // engine thread.
        std::thread::sleep(Duration::from_millis(100));
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert!(s.ticks >= 1, "ticker must have fired");
                assert!(
                    s.virtual_time < 400.0,
                    "submission timestamps must not drive the real-time clock, now={}",
                    s.virtual_time
                );
            }
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    /// Round k falls due at start + k·tick, so late wake-ups do not add
    /// up: after a second of 1 ms ticks the engine has run about a
    /// thousand rounds, not one per tick plus the host's wake-up delay.
    #[test]
    fn realtime_ticker_keeps_pace_with_wall_time() {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        cfg.mode = TimeMode::RealTime {
            tick: Duration::from_millis(1),
        };
        let started = Instant::now();
        let engine = Engine::spawn(cfg);
        std::thread::sleep(Duration::from_secs(1));
        let due = started.elapsed().as_millis() as u64;
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => assert!(
                s.ticks + 40 >= due,
                "{} rounds in {due} ms of 1 ms ticks",
                s.ticks
            ),
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn duplicate_cancels_of_a_pending_request_count_once() {
        let engine = engine_1x1(100.0, 10.0);
        let (tx, _rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: submit(1, 0.0, 100.0, 100.0, 50.0),
                reply: tx.into(),
            })
            .unwrap();
        match rpc(&engine, ClientMsg::Cancel { id: 1 }) {
            ServerMsg::CancelResult { freed, .. } => assert!(freed, "first cancel takes effect"),
            other => panic!("expected cancel result, got {other:?}"),
        }
        match rpc(&engine, ClientMsg::Cancel { id: 1 }) {
            ServerMsg::CancelResult { freed, .. } => assert!(!freed, "repeat cancel is a no-op"),
            other => panic!("expected cancel result, got {other:?}"),
        }
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => assert_eq!(s.cancelled, 1),
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn full_reply_channels_drop_instead_of_blocking_the_engine() {
        let engine = engine_1x1(100.0, 10.0);
        // A zero-capacity channel nobody reads: a blocking send to it
        // would wedge the engine thread for every connection.
        let (tx, rx) = channel::bounded::<ServerMsg>(0);
        for id in 0..3 {
            engine
                .sender()
                .send(Command::Client {
                    msg: ClientMsg::Query { id },
                    reply: tx.clone().into(),
                })
                .unwrap();
        }
        // The engine stays responsive and accounts for the drops.
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => assert_eq!(s.replies_dropped, 3),
            other => panic!("expected stats, got {other:?}"),
        }
        drop(rx);
        engine.shutdown();
    }

    #[test]
    fn hold_open_attach_commit_pins_capacity_until_the_window_ends() {
        let mut cfg = EngineConfig::new(Topology::uniform(2, 2, 100.0));
        cfg.step = 10.0;
        let engine = Engine::spawn(cfg);
        // Ingress half: earliest max-rate window on ingress 0.
        let open = rpc(
            &engine,
            ClientMsg::HoldOpen(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 1,
                volume: 1000.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(100.0),
                class: Default::default(),
                malleable: None,
            }),
        );
        let (bw, start, finish) = match open {
            ServerMsg::HoldOpened {
                txn: 1,
                bw,
                start,
                finish,
                ..
            } => (bw, start, finish),
            other => panic!("expected hold, got {other:?}"),
        };
        assert_eq!((bw, start, finish), (100.0, 0.0, 10.0));
        // Egress half. In a cluster the two halves live on different
        // shard engines; here one engine plays both roles, so the
        // attach needs its own transaction id (the hold table is keyed
        // by txn, one hold per txn per engine).
        match rpc(
            &engine,
            ClientMsg::HoldAttach {
                txn: 2,
                egress: 1,
                bw,
                start,
                finish,
                at: 0.0,
            },
        ) {
            ServerMsg::HoldAck { txn: 2, ok } => assert!(ok),
            other => panic!("expected ack, got {other:?}"),
        }
        for txn in [1, 2] {
            match rpc(&engine, ClientMsg::HoldCommit { txn, at: 0.0 }) {
                ServerMsg::HoldAck { ok, .. } => assert!(ok),
                other => panic!("expected ack, got {other:?}"),
            }
        }
        // The window is pinned: a full-port transfer overlapping it on
        // the same ingress is rejected, one after it fits.
        let d = rpc_all_no_drain(
            &engine,
            vec![ClientMsg::Submit(SubmitReq {
                id: 3,
                ingress: 0,
                egress: 0,
                volume: 1000.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(10.0),
                class: Default::default(),
                malleable: None,
            })],
            12.0,
        );
        assert!(matches!(d[0], ServerMsg::Rejected { .. }), "{:?}", d[0]);
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.holds_placed, 2);
                assert_eq!(s.holds_committed, 2);
                assert_eq!(s.holds_expired, 0);
                assert_eq!(s.role, "solo");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn uncommitted_holds_expire_and_free_their_capacity() {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        cfg.step = 10.0;
        cfg.hold_timeout = 15.0;
        let engine = Engine::spawn(cfg);
        match rpc(
            &engine,
            ClientMsg::HoldOpen(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 0,
                volume: 4000.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(200.0),
                class: Default::default(),
                malleable: None,
            }),
        ) {
            ServerMsg::HoldOpened { txn: 1, .. } => {}
            other => panic!("expected hold, got {other:?}"),
        }
        // No commit arrives. The round at t=20 is the first past
        // expires = 15; its sweep releases the hold, so a transfer
        // needing the whole port fits afterwards.
        let d = rpc_all_no_drain(
            &engine,
            vec![ClientMsg::Submit(SubmitReq {
                id: 2,
                ingress: 0,
                egress: 0,
                volume: 3000.0,
                max_rate: 100.0,
                start: Some(20.0),
                deadline: Some(80.0),
                class: Default::default(),
                malleable: None,
            })],
            32.0,
        );
        assert!(matches!(d[0], ServerMsg::Accepted { .. }), "{:?}", d[0]);
        // A release after the sweep acks `false`: the hold is gone.
        match rpc(&engine, ClientMsg::HoldRelease { txn: 1, at: 30.0 }) {
            ServerMsg::HoldAck { txn: 1, ok } => assert!(!ok),
            other => panic!("expected ack, got {other:?}"),
        }
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.holds_placed, 1);
                assert_eq!(s.holds_expired, 1);
                assert_eq!(s.holds_committed, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn qos_overlay_never_changes_decisions_and_reports_boosts() {
        // Same workload against a plain engine and a QoS-enabled one
        // (MinRate policy, so guarantees leave headroom): the decision
        // streams must be identical — the overlay is invisible to
        // admission — while only the boosted engine reports boosts.
        let with_class = |id: u64,
                          start: f64,
                          volume: f64,
                          deadline: f64,
                          class: gridband_workload::ServiceClass| {
            ClientMsg::Submit(SubmitReq {
                id,
                ingress: 0,
                egress: 0,
                volume,
                max_rate: 80.0,
                start: Some(start),
                deadline: Some(deadline),
                class,
                malleable: None,
            })
        };
        let workload = || {
            vec![
                with_class(1, 0.0, 400.0, 60.0, gridband_workload::ServiceClass::Gold),
                with_class(
                    2,
                    0.0,
                    300.0,
                    80.0,
                    gridband_workload::ServiceClass::BestEffort,
                ),
                with_class(3, 5.0, 200.0, 90.0, gridband_workload::ServiceClass::Silver),
            ]
        };
        let spawn = |qos: bool| {
            let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
            cfg.step = 10.0;
            cfg.policy = BandwidthPolicy::MinRate;
            if qos {
                cfg.qos = Some(gridband_qos::QosConfig::default());
            }
            Engine::spawn(cfg)
        };
        let plain = spawn(false);
        let boosted = spawn(true);
        let a = rpc_all_no_drain(&plain, workload(), 95.0);
        let b = rpc_all_no_drain(&boosted, workload(), 95.0);
        assert_eq!(a, b, "QoS must not change any admission decision");
        assert!(a.iter().all(|d| matches!(d, ServerMsg::Accepted { .. })));

        match rpc(&plain, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.qos_boost_rounds, 0);
                assert_eq!(s.qos_boosted_mb, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        match rpc(&boosted, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert!(s.qos_boost_rounds >= 1, "residual must have been resold");
                assert!(s.qos_boosted_mb > 0, "boosts must have moved bytes");
                assert!(
                    s.qos_early_releases >= 1,
                    "a boosted transfer finishes early"
                );
                assert_eq!(s.qos_finish_violations, 0);
                assert_eq!(s.qos_oversubscriptions, 0);
                assert_eq!(s.accepted_gold, 1);
                assert_eq!(s.accepted_silver, 1);
                assert_eq!(s.accepted_besteffort, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        plain.shutdown();
        boosted.shutdown();
    }

    #[test]
    fn cancel_withdraws_the_transfer_from_the_overlay() {
        // Cancel an accepted transfer on a QoS engine, then let more
        // rounds fire: the verifier must stay clean (the overlay
        // dropped the dead transfer rather than boosting a ghost).
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        cfg.step = 10.0;
        cfg.policy = BandwidthPolicy::MinRate;
        cfg.qos = Some(gridband_qos::QosConfig::default());
        let engine = Engine::spawn(cfg);
        let d = rpc_all_no_drain(
            &engine,
            vec![ClientMsg::Submit(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 0,
                volume: 500.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(100.0),
                class: Default::default(),
                malleable: None,
            })],
            12.0,
        );
        assert!(matches!(d[0], ServerMsg::Accepted { .. }), "{:?}", d[0]);
        match rpc(&engine, ClientMsg::Cancel { id: 1 }) {
            ServerMsg::CancelResult { freed, .. } => assert!(freed),
            other => panic!("expected cancel result, got {other:?}"),
        }
        let probe = rpc_all_no_drain(&engine, vec![], 55.0);
        assert!(probe.is_empty());
        match rpc(&engine, ClientMsg::Stats) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.qos_finish_violations, 0);
                assert_eq!(s.qos_oversubscriptions, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn realtime_mode_fires_rounds_from_wall_clock() {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        cfg.step = 5.0;
        cfg.mode = TimeMode::RealTime {
            tick: Duration::from_millis(20),
        };
        let engine = Engine::spawn(cfg);
        let (tx, rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: ClientMsg::Submit(SubmitReq {
                    id: 1,
                    ingress: 0,
                    egress: 0,
                    volume: 100.0,
                    max_rate: 100.0,
                    start: None,
                    // Must outlive the first wall-clock round at t = step;
                    // the default-slack window [0, 3] would already be past.
                    deadline: Some(60.0),
                    class: Default::default(),
                    malleable: None,
                }),
                reply: tx.into(),
            })
            .unwrap();
        // The ticker (20 ms wall) must decide it without any further
        // submissions driving the clock.
        match rx
            .recv_timeout(Duration::from_secs(5))
            .expect("ticker-driven decision")
        {
            ServerMsg::Accepted { id: 1, .. } => {}
            other => panic!("expected acceptance, got {other:?}"),
        }
        engine.shutdown();
    }

    // ---- malleable reservations and the Amend op ----

    fn engine_1x1_flex(cap: f64, step: f64) -> Engine {
        let mut cfg = EngineConfig::new(Topology::uniform(1, 1, cap));
        cfg.step = step;
        cfg.malleable = true;
        Engine::spawn(cfg)
    }

    fn msubmit(
        id: u64,
        start: f64,
        volume: f64,
        max_rate: f64,
        deadline: Option<f64>,
    ) -> ClientMsg {
        ClientMsg::Submit(SubmitReq {
            id,
            ingress: 0,
            egress: 0,
            volume,
            max_rate,
            start: Some(start),
            deadline,
            class: Default::default(),
            malleable: Some(true),
        })
    }

    #[test]
    fn malleable_submit_without_the_flag_is_invalid() {
        let engine = engine_1x1(100.0, 10.0);
        // Early reject: no round needed, the reply is immediate.
        match rpc(&engine, msubmit(1, 0.0, 100.0, 50.0, Some(30.0))) {
            ServerMsg::Rejected {
                id: 1,
                reason: RejectReason::Invalid,
                ..
            } => {}
            other => panic!("expected Invalid rejection, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn lone_malleable_request_runs_flat_at_max_rate() {
        let engine = engine_1x1_flex(100.0, 10.0);
        let replies = rpc_all(&engine, vec![msubmit(1, 0.0, 500.0, 100.0, Some(30.0))]);
        match &replies[0] {
            ServerMsg::AcceptedSegments { id: 1, segments } => {
                // Decided at the t=10 round: one flat segment at MaxRate.
                assert_eq!(segments.len(), 1, "{segments:?}");
                let (s, e, bw) = segments[0];
                assert_eq!(bw, 100.0);
                assert_eq!(s, 10.0);
                assert_eq!(e, 15.0);
            }
            other => panic!("expected a segmented grant, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn malleable_rate_varies_around_a_rigid_blocker() {
        let engine = engine_1x1_flex(100.0, 10.0);
        // Rigid blocker takes 80 MB/s on [10, 20); the malleable request
        // (300 MB, MaxRate 100) dribbles at the residual 20 during it and
        // opens up to 100 after: 20×10 + 100×1 = 300.
        let replies = rpc_all(
            &engine,
            vec![
                submit(1, 0.0, 800.0, 80.0, 20.0),
                msubmit(2, 0.0, 300.0, 100.0, Some(40.0)),
            ],
        );
        assert!(
            matches!(replies[0], ServerMsg::Accepted { .. }),
            "{:?}",
            replies[0]
        );
        match &replies[1] {
            ServerMsg::AcceptedSegments { id: 2, segments } => {
                assert_eq!(segments.len(), 2, "{segments:?}");
                assert_eq!(segments[0], (10.0, 20.0, 20.0));
                assert_eq!(segments[1], (20.0, 21.0, 100.0));
            }
            other => panic!("expected a segmented grant, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn amend_renegotiates_in_place() {
        let engine = engine_1x1_flex(100.0, 10.0);
        // 2000 MB at MaxRate 100 fills [10, 30) exactly.
        let a = rpc_all_no_drain(
            &engine,
            vec![msubmit(1, 0.0, 2_000.0, 100.0, Some(30.0))],
            12.0,
        );
        assert!(
            matches!(&a[0], ServerMsg::AcceptedSegments { id: 1, .. }),
            "{:?}",
            a[0]
        );
        // Renegotiate at the t=20 round: 600 MB still to go, rate capped
        // at 50. The delivered half (10..20 @100) is kept as history;
        // the remainder is re-water-filled from t=20: 600/50 = 12 s.
        let b = rpc_all_no_drain(
            &engine,
            vec![ClientMsg::Amend {
                id: 1,
                volume: 600.0,
                max_rate: 50.0,
                deadline: Some(40.0),
            }],
            22.0,
        );
        match &b[0] {
            ServerMsg::AcceptedSegments { id: 1, segments } => {
                assert_eq!(
                    segments,
                    &vec![(10.0, 20.0, 100.0), (20.0, 32.0, 50.0)],
                    "kept history + renegotiated remainder"
                );
            }
            other => panic!("expected the amended plan, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn rejected_amend_leaves_the_original_untouched() {
        let engine = engine_1x1_flex(100.0, 10.0);
        // 2000 MB at 50 MB/s: the malleable plan runs (10, 50) @50.
        let a = rpc_all_no_drain(
            &engine,
            vec![msubmit(1, 0.0, 2_000.0, 50.0, Some(60.0))],
            12.0,
        );
        assert!(
            matches!(&a[0], ServerMsg::AcceptedSegments { id: 1, .. }),
            "{:?}",
            a[0]
        );
        // A rigid blocker then takes the other 50 MB/s on [20, 90).
        let b = rpc_all_no_drain(&engine, vec![submit(2, 15.0, 3_500.0, 50.0, 200.0)], 22.0);
        assert!(matches!(b[0], ServerMsg::Accepted { .. }), "{:?}", b[0]);
        let before = match rpc(&engine, ClientMsg::Query { id: 1 }) {
            ServerMsg::Status { alloc, state, .. } => {
                assert_eq!(state, ReqState::Accepted);
                alloc.expect("live reservation has an allocation")
            }
            other => panic!("expected status, got {other:?}"),
        };
        // Amend at t=30: even with the old plan's future credited back,
        // the residual of [30, 60) carries only 1500 MB — the 2400 asked
        // for cannot fit, so the amend must bounce atomically.
        let c = rpc_all_no_drain(
            &engine,
            vec![ClientMsg::Amend {
                id: 1,
                volume: 2_400.0,
                max_rate: 100.0,
                deadline: Some(60.0),
            }],
            32.0,
        );
        match &c[0] {
            ServerMsg::Rejected {
                id: 1,
                reason: RejectReason::Saturated,
                ..
            } => {}
            other => panic!("expected a saturated rejection, got {other:?}"),
        }
        match rpc(&engine, ClientMsg::Query { id: 1 }) {
            ServerMsg::Status { alloc, state, .. } => {
                assert_eq!(state, ReqState::Accepted);
                assert_eq!(alloc, Some(before), "rejected amend altered the plan");
            }
            other => panic!("expected status, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn amend_of_unknown_or_rigid_ids_is_invalid() {
        let engine = engine_1x1_flex(100.0, 10.0);
        let a = rpc_all_no_drain(&engine, vec![submit(1, 0.0, 100.0, 50.0, 60.0)], 12.0);
        assert!(matches!(a[0], ServerMsg::Accepted { .. }), "{:?}", a[0]);
        for id in [1u64, 99] {
            // Rigid reservations renegotiate via Cancel + resubmit, and
            // unknown ids have nothing to amend: both bounce immediately.
            match rpc(
                &engine,
                ClientMsg::Amend {
                    id,
                    volume: 50.0,
                    max_rate: 50.0,
                    deadline: None,
                },
            ) {
                ServerMsg::Rejected {
                    reason: RejectReason::Invalid,
                    ..
                } => {}
                other => panic!("expected Invalid for {id}, got {other:?}"),
            }
        }
        engine.shutdown();
    }

    #[test]
    fn malleable_rejection_hints_at_residual_feasibility() {
        let engine = engine_1x1_flex(100.0, 10.0);
        // Saturate the port on [10, 110).
        let a = rpc_all_no_drain(&engine, vec![submit(1, 0.0, 10_000.0, 100.0, 200.0)], 12.0);
        assert!(matches!(a[0], ServerMsg::Accepted { .. }), "{:?}", a[0]);
        // Soft deadline (default slack gives a [15, 45] window): it may
        // slide, so the hint points at the earliest start whose residual
        // volume carries the request — not before the blocker frees the
        // port.
        let b = rpc_all_no_drain(&engine, vec![msubmit(2, 15.0, 1_000.0, 100.0, None)], 22.0);
        match &b[0] {
            ServerMsg::Rejected {
                id: 2,
                reason: RejectReason::Saturated,
                retry_after,
            } => {
                let hint = retry_after.expect("sliding-window rejection carries a hint");
                assert!(hint >= 110.0, "hint {hint} precedes the free-up at 110");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Hard deadline inside the blocker: the deliverable bound of
        // [t, 60] only shrinks as t grows, so no retry can ever help and
        // the hint must be absent.
        let c = rpc_all_no_drain(
            &engine,
            vec![msubmit(3, 15.0, 1_000.0, 100.0, Some(60.0))],
            32.0,
        );
        match &c[0] {
            ServerMsg::Rejected {
                id: 3,
                retry_after: None,
                ..
            } => {}
            other => panic!("expected a hint-free rejection, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn cancelling_a_pending_malleable_submission_suppresses_its_decision() {
        let engine = engine_1x1_flex(100.0, 10.0);
        let (tx, rx) = channel::unbounded();
        engine
            .sender()
            .send(Command::Client {
                msg: msubmit(1, 0.0, 100.0, 50.0, Some(30.0)),
                reply: tx.into(),
            })
            .unwrap();
        match rpc(&engine, ClientMsg::Cancel { id: 1 }) {
            ServerMsg::CancelResult { id: 1, freed: true } => {}
            other => panic!("expected the tombstone to take, got {other:?}"),
        }
        // Fire the deciding round; the suppressed decision must not leak.
        let _ = rpc_all_no_drain(&engine, vec![], 12.0);
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "cancelled submission still got a decision"
        );
        match rpc(&engine, ClientMsg::Query { id: 1 }) {
            ServerMsg::Status {
                state: ReqState::Cancelled,
                ..
            } => {}
            other => panic!("expected cancelled status, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn rigid_workloads_decide_identically_with_the_flag_on() {
        use gridband_workload::{Dist, WorkloadBuilder};
        let topo = Topology::uniform(2, 2, 120.0);
        // Saturated: rigid WINDOW accepts 2 of its 139 requests.
        let trace = WorkloadBuilder::new(topo.clone())
            .mean_interarrival(0.8)
            .slack(Dist::Uniform { lo: 2.0, hi: 4.0 })
            .horizon(120.0)
            .seed(11)
            .build();
        // `mixed` flags every even id malleable: exactly half the trace.
        let run = |malleable: bool, mixed: bool| {
            let mut cfg = EngineConfig::new(topo.clone());
            cfg.step = 10.0;
            cfg.malleable = malleable;
            let engine = Engine::spawn(cfg);
            let msgs = trace
                .iter()
                .map(|r| {
                    ClientMsg::Submit(SubmitReq {
                        id: r.id.0,
                        ingress: r.route.ingress.0,
                        egress: r.route.egress.0,
                        volume: r.volume,
                        max_rate: r.max_rate,
                        start: Some(r.start()),
                        deadline: Some(r.finish()),
                        class: Default::default(),
                        malleable: (mixed && r.id.0 % 2 == 0).then_some(true),
                    })
                })
                .collect();
            let replies = rpc_all(&engine, msgs);
            engine.shutdown();
            replies
        };
        let accepted = |replies: &[ServerMsg]| {
            replies
                .iter()
                .filter(|m| {
                    matches!(
                        m,
                        ServerMsg::Accepted { .. } | ServerMsg::AcceptedSegments { .. }
                    )
                })
                .count()
        };
        let off = run(false, false);
        let on = run(true, false);
        assert!(
            off.iter().any(|m| matches!(m, ServerMsg::Accepted { .. })),
            "vacuous differential: nothing accepted"
        );
        assert_eq!(off, on, "the malleable path leaked into rigid admission");
        // With half the trace malleable the water-filler must grant
        // segmented plans, and at saturation they must buy accepts.
        let mixed = run(true, true);
        assert!(
            mixed
                .iter()
                .any(|m| matches!(m, ServerMsg::AcceptedSegments { .. })),
            "vacuous: no malleable submission was granted"
        );
        assert!(
            accepted(&mixed) > accepted(&off),
            "water-filling bought nothing: {} mixed vs {} rigid accepts",
            accepted(&mixed),
            accepted(&off)
        );
    }
}
