//! Follower-side replication: the hot standby.
//!
//! [`FollowerCore`] is the sans-IO state machine. It keeps a local store
//! directory byte-identical to the primary's durable prefix — every
//! shipped record is CRC-verified and appended with the exact same
//! framing the primary wrote, every snapshot installed with the same
//! `replace`-then-reset sequence `Store` itself uses — and replays each
//! record through the shared [`EngineState`] code so the standby's
//! in-memory state tracks the primary round for round. Beacons from the
//! primary are checked against a hash of the local state whenever the
//! positions line up; a mismatch is counted as divergence and kills the
//! stream rather than letting a corrupt standby be promoted later.
//!
//! [`Replica`] is the threaded daemon: a replication listener the
//! primary dials, an optional client listener serving read-only
//! `Query`/`Stats`, and a promotion path — explicit `Promote` command or
//! primary-silence timeout — that drops the follower, re-opens the local
//! store through the ordinary [`Engine`] recovery path, and starts
//! accepting submissions at the exact round the primary last logged.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use gridband_net::Topology;
use gridband_serve::engine::Command;
use gridband_serve::protocol::{decode_client, encode_server, ReqState};
use gridband_serve::{
    ClientMsg, Engine, EngineConfig, EngineState, MetricsRegistry, RejectReason, ReplayTally, Role,
    ServerMsg,
};
use gridband_store::wal::{frame_record, MAGIC_SNAP, MAGIC_WAL, RECORD_HEADER};
use gridband_store::{
    crc32, snap_name, wal_name, Dir, EngineSnapshot, FsyncPolicy, Store, StoreError, StoreResult,
    WalRecord,
};

use crate::link::{Link, Recv, TcpLink};
use crate::proto::{decode_frame, encode_frame, FollowerMsg, ShipMsg, REPL_PROTOCOL_VERSION};

/// What a follower needs to mirror the primary's store and state.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The follower's local store directory.
    pub dir: Arc<dyn Dir>,
    /// Topology of the standby engine state (must match the primary's).
    pub topology: Topology,
    /// Admission interval `t_step`; checked against the primary's hello.
    pub step: f64,
    /// History bound of the standby state; must match the primary's so
    /// beacon hashes cover the same decided-request window.
    pub history_capacity: usize,
    /// Durability of mirrored writes. `Round` fsyncs after every applied
    /// record, mirroring the primary's per-round policy.
    pub fsync: FsyncPolicy,
}

/// Sans-IO follower state machine: feed it ship messages, drain the
/// replies (acks and resync requests) it produces.
#[derive(Debug)]
pub struct FollowerCore {
    cfg: FollowerConfig,
    metrics: Arc<MetricsRegistry>,
    /// Generation of the local store.
    gen: u64,
    /// Byte length of the local `wal-<gen>` — the apply cursor.
    offset: u64,
    /// Standby engine state, replayed record by record.
    state: EngineState,
    /// Highest frame seq seen on the current connection.
    max_seq: u64,
    /// Whether the current connection has completed the handshake.
    hello_seen: bool,
    /// Cursor position of the last `Resync` sent. A burst of ahead
    /// frames (everything after one lost record) must produce one
    /// resync, not one per frame — each would make the shipper re-pump
    /// the whole remainder, and the volume compounds. Cleared when the
    /// cursor advances or a heartbeat probes.
    last_resync: Option<(u64, u64)>,
}

impl FollowerCore {
    /// Open (or create) the local store, replay whatever it holds into a
    /// standby state, and position the cursor at the end of the local
    /// WAL. Torn tails are truncated by the store's own recovery, so the
    /// cursor always lands on a record boundary.
    pub fn open(cfg: FollowerConfig, metrics: Arc<MetricsRegistry>) -> StoreResult<FollowerCore> {
        let (_store, recovered) = Store::open(cfg.dir.clone(), FsyncPolicy::Off)?;
        let gen = recovered.gen;
        let (state, _) = EngineState::from_log(
            cfg.topology.clone(),
            cfg.step,
            cfg.history_capacity,
            Some(&*cfg.dir),
            gen,
            recovered.snapshot.as_deref(),
            &recovered.records,
        )?;
        let offset = recovered
            .records
            .last()
            .map_or(MAGIC_WAL.len() as u64, |(o, payload)| {
                *o + (RECORD_HEADER + payload.len()) as u64
            });
        Ok(FollowerCore {
            cfg,
            metrics,
            gen,
            offset,
            state,
            max_seq: 0,
            hello_seen: false,
            last_resync: None,
        })
    }

    /// The follower's store position `(gen, offset)`.
    pub fn cursor(&self) -> (u64, u64) {
        (self.gen, self.offset)
    }

    /// Rounds the standby state has executed.
    pub fn rounds(&self) -> u64 {
        self.state.rounds
    }

    /// Virtual time of the standby state.
    pub fn now(&self) -> f64 {
        self.state.now
    }

    /// Live reservations in the standby ledger, rigid and segmented.
    pub fn live_count(&self) -> u64 {
        self.state.ledger.plan_count() as u64
    }

    /// Lifecycle state of a request id, as the standby knows it.
    pub fn state_of(&self, id: u64) -> Option<ReqState> {
        self.state.state_of(id)
    }

    /// Live allocation of an accepted request, as the standby knows it.
    pub fn alloc_of(&self, id: u64) -> Option<(f64, f64, f64)> {
        self.state.alloc_of(id)
    }

    /// Export the standby state (for equivalence checks).
    pub fn export(&self) -> EngineSnapshot {
        self.state.export()
    }

    /// Reset per-connection protocol state. Call when the primary
    /// (re)connects: each connection numbers its frames from 1.
    pub fn reset_session(&mut self) {
        self.max_seq = 0;
        self.hello_seen = false;
        self.last_resync = None;
    }

    /// The subscribe message answering a hello: where our store ends.
    pub fn subscribe_msg(&self) -> FollowerMsg {
        FollowerMsg::Subscribe {
            protocol: REPL_PROTOCOL_VERSION,
            gen: self.gen,
            offset: self.offset,
        }
    }

    fn ack(&self) -> FollowerMsg {
        FollowerMsg::Ack {
            seq: self.max_seq,
            gen: self.gen,
            offset: self.offset,
            rounds: self.state.rounds,
        }
    }

    /// Request a resync at the current cursor — unless one is already
    /// outstanding for this exact position (`force` overrides, for
    /// heartbeat probes: if the first request's reshipments were all
    /// lost, the periodic heartbeat is what retries).
    fn resync(&mut self, force: bool) -> Vec<FollowerMsg> {
        let cursor = self.cursor();
        if !force && self.last_resync == Some(cursor) {
            return Vec::new();
        }
        self.last_resync = Some(cursor);
        MetricsRegistry::inc(&self.metrics.repl_resyncs);
        vec![FollowerMsg::Resync {
            gen: cursor.0,
            offset: cursor.1,
        }]
    }

    /// Decode and handle one raw frame off the link. Transit damage is
    /// counted and dropped; the seq guard never sees a damaged frame, so
    /// the intact retransmission (or a resync) still applies.
    pub fn handle_frame(&mut self, frame: &[u8]) -> StoreResult<Vec<FollowerMsg>> {
        match decode_frame::<ShipMsg>(frame) {
            Ok(msg) => self.handle(msg),
            Err(_) => {
                MetricsRegistry::inc(&self.metrics.repl_frames_damaged);
                Ok(Vec::new())
            }
        }
    }

    /// Handle one primary message; returns frames to send back. An error
    /// means the stream must drop: local store trouble, a protocol
    /// mismatch, or a divergence beacon.
    pub fn handle(&mut self, msg: ShipMsg) -> StoreResult<Vec<FollowerMsg>> {
        // Level one: the per-connection seq guard kills duplicates and
        // reordered stragglers outright.
        match &msg {
            ShipMsg::Hello { .. } => {}
            ShipMsg::Snapshot { seq, .. }
            | ShipMsg::Record { seq, .. }
            | ShipMsg::Beacon { seq, .. }
            | ShipMsg::Heartbeat { seq, .. } => {
                if *seq <= self.max_seq || !self.hello_seen {
                    MetricsRegistry::inc(&self.metrics.repl_frames_discarded);
                    return Ok(Vec::new());
                }
                self.max_seq = *seq;
            }
        }
        // Level two: the content cursor decides what actually applies.
        match msg {
            ShipMsg::Hello { protocol, step } => {
                if protocol != REPL_PROTOCOL_VERSION {
                    return Err(StoreError::corrupt(
                        "repl",
                        0,
                        format!(
                            "primary speaks replication protocol {protocol}, \
                             this follower speaks {REPL_PROTOCOL_VERSION}"
                        ),
                    ));
                }
                if step != self.cfg.step {
                    return Err(StoreError::corrupt(
                        "repl",
                        0,
                        format!(
                            "primary admission step is {step}, follower configured with {}; \
                             replaying a different round schedule would diverge",
                            self.cfg.step
                        ),
                    ));
                }
                self.hello_seen = true;
                self.max_seq = 0;
                Ok(vec![self.subscribe_msg()])
            }
            ShipMsg::Snapshot {
                seq: _,
                gen,
                crc,
                payload,
            } => {
                let bytes = payload.into_bytes();
                if crc32(&bytes) != crc {
                    MetricsRegistry::inc(&self.metrics.repl_frames_damaged);
                    return Ok(Vec::new());
                }
                if gen <= self.gen {
                    // A snapshot we already hold (or older): duplicate.
                    MetricsRegistry::inc(&self.metrics.repl_frames_discarded);
                    return Ok(vec![self.ack()]);
                }
                self.install_snapshot(gen, &bytes)?;
                Ok(vec![self.ack()])
            }
            ShipMsg::Record {
                seq: _,
                gen,
                offset,
                crc,
                payload,
            } => {
                let bytes = payload.into_bytes();
                if crc32(&bytes) != crc {
                    MetricsRegistry::inc(&self.metrics.repl_frames_damaged);
                    return Ok(Vec::new());
                }
                if gen < self.gen || (gen == self.gen && offset < self.offset) {
                    MetricsRegistry::inc(&self.metrics.repl_frames_discarded);
                    return Ok(vec![self.ack()]);
                }
                if gen > self.gen || offset > self.offset {
                    // A gap: a frame between here and there never made it.
                    return Ok(self.resync(false));
                }
                self.apply_record(&bytes)?;
                Ok(vec![self.ack()])
            }
            ShipMsg::Beacon {
                seq: _,
                gen,
                offset,
                rounds: _,
                state_crc,
            } => {
                if (gen, offset) == (self.gen, self.offset) {
                    MetricsRegistry::inc(&self.metrics.repl_beacons_checked);
                    let ours = crc32(&self.state.export().encode());
                    if ours != state_crc {
                        MetricsRegistry::inc(&self.metrics.repl_divergence);
                        eprintln!(
                            "gridband-replica: DIVERGENCE at gen {gen} offset {offset}: \
                             primary state hash {state_crc:#010x}, local {ours:#010x}"
                        );
                        return Err(StoreError::corrupt(
                            &wal_name(gen),
                            offset,
                            "standby state diverged from primary beacon",
                        ));
                    }
                    Ok(vec![self.ack()])
                } else if gen > self.gen || (gen == self.gen && offset > self.offset) {
                    Ok(self.resync(false))
                } else {
                    MetricsRegistry::inc(&self.metrics.repl_frames_discarded);
                    Ok(vec![self.ack()])
                }
            }
            ShipMsg::Heartbeat {
                seq: _,
                gen,
                offset,
            } => {
                if gen > self.gen || (gen == self.gen && offset > self.offset) {
                    Ok(self.resync(true))
                } else {
                    Ok(vec![self.ack()])
                }
            }
        }
    }

    /// Install a shipped snapshot, mirroring the store's own sequence:
    /// durable snapshot first, then a fresh WAL, then sweep our old
    /// generation. A shipped snapshot carries its history inline, so it
    /// needs no outcome log.
    fn install_snapshot(&mut self, gen: u64, payload: &[u8]) -> StoreResult<()> {
        let (state, _) = EngineState::from_log(
            self.cfg.topology.clone(),
            self.cfg.step,
            self.cfg.history_capacity,
            None,
            gen,
            Some(payload),
            &[],
        )?;
        let snap_file = snap_name(gen);
        let mut snap_bytes = MAGIC_SNAP.to_vec();
        snap_bytes.extend_from_slice(&frame_record(payload));
        self.cfg
            .dir
            .replace(&snap_file, &snap_bytes)
            .map_err(|e| StoreError::io(&snap_file, e))?;
        let wal_file = wal_name(gen);
        self.cfg
            .dir
            .replace(&wal_file, MAGIC_WAL)
            .map_err(|e| StoreError::io(&wal_file, e))?;
        let old = self.gen;
        if old != gen {
            let _ = self.cfg.dir.remove(&wal_name(old));
            let _ = self.cfg.dir.remove(&snap_name(old));
        }
        self.gen = gen;
        self.offset = MAGIC_WAL.len() as u64;
        self.state = state;
        MetricsRegistry::inc(&self.metrics.repl_snapshots_applied);
        Ok(())
    }

    /// Append one verified record to the local WAL — byte-identical to
    /// the primary's framing — and replay it into the standby state.
    fn apply_record(&mut self, payload: &[u8]) -> StoreResult<()> {
        let file = wal_name(self.gen);
        let record = WalRecord::decode(&file, self.offset, payload)?;
        let framed = frame_record(payload);
        self.cfg
            .dir
            .append(&file, &framed)
            .map_err(|e| StoreError::io(&file, e))?;
        if !matches!(self.cfg.fsync, FsyncPolicy::Off) {
            self.cfg
                .dir
                .sync(&file)
                .map_err(|e| StoreError::io(&file, e))?;
        }
        self.state
            .apply(record, &file, self.offset, &mut ReplayTally::default())?;
        self.offset += framed.len() as u64;
        MetricsRegistry::inc(&self.metrics.repl_records_applied);
        MetricsRegistry::add(&self.metrics.repl_bytes_applied, framed.len() as u64);
        Ok(())
    }
}

/// Configuration of a [`Replica`] daemon.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// The engine the follower becomes when promoted. `store` must be
    /// set — a replica without a local store has nothing to replicate
    /// into. Topology, step, and history bounds also parameterize the
    /// standby state while following.
    pub engine: EngineConfig,
    /// Promote automatically after this much primary silence (measured
    /// from the last replication frame, or from startup if the primary
    /// never connected). `None` waits for an explicit `Promote`.
    pub promote_after: Option<Duration>,
}

/// Which side of failover the daemon is on.
enum Mode {
    /// Still following: the standby core, fed by the replication listener.
    Following(Box<FollowerCore>),
    /// Promoted: a real engine over the local store.
    Promoted { engine: Engine, rounds: u64 },
    /// Promotion was attempted and failed; the daemon can only report
    /// errors.
    Failed(String),
}

struct Shared {
    cfg: ReplicaConfig,
    metrics: Arc<MetricsRegistry>,
    mode: Mutex<Mode>,
    stop: AtomicBool,
    /// Instant of the last replication frame (or startup).
    last_frame: Mutex<Instant>,
}

/// Read timeout on client connections; bounds how long a connection
/// thread lingers after shutdown.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_millis(500);
/// Longest client request line accepted, mirroring the serve daemon.
const MAX_LINE_LEN: usize = 64 * 1024;
/// Client reply queue bound per connection.
const REPLY_CAPACITY: usize = 1024;

/// The hot-standby daemon.
pub struct Replica {
    shared: Arc<Shared>,
    repl_addr: SocketAddr,
    client_addr: Option<SocketAddr>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Replica {
    /// Bind the replication listener (and, when `client_addr` is given,
    /// the read-only client listener), open the local store, and start
    /// following.
    pub fn bind(
        cfg: ReplicaConfig,
        repl_addr: &str,
        client_addr: Option<&str>,
    ) -> std::io::Result<Replica> {
        let Some(store_cfg) = cfg.engine.store.clone() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a replica needs a store: set EngineConfig::store",
            ));
        };
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_role(Role::Follower);
        let follower_cfg = FollowerConfig {
            dir: store_cfg.dir,
            topology: cfg.engine.topology.clone(),
            step: cfg.engine.step,
            history_capacity: cfg.engine.history_capacity,
            fsync: store_cfg.fsync,
        };
        let core = FollowerCore::open(follower_cfg, metrics.clone())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let repl_listener = TcpListener::bind(repl_addr)?;
        let repl_local = repl_listener.local_addr()?;
        let client_listener = match client_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let client_local = match &client_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cfg,
            metrics,
            mode: Mutex::new(Mode::Following(Box::new(core))),
            stop: AtomicBool::new(false),
            last_frame: Mutex::new(Instant::now()),
        });
        let mut threads = Vec::new();
        {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || {
                repl_accept_loop(repl_listener, shared)
            }));
        }
        if let Some(listener) = client_listener {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || {
                client_accept_loop(listener, shared)
            }));
        }
        if let Some(after) = shared.cfg.promote_after {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || promote_timer(shared, after)));
        }
        Ok(Replica {
            shared,
            repl_addr: repl_local,
            client_addr: client_local,
            threads: Vec::from_iter(threads),
        })
    }

    /// Address of the replication listener.
    pub fn repl_addr(&self) -> SocketAddr {
        self.repl_addr
    }

    /// Address of the client listener, when one was requested.
    pub fn client_addr(&self) -> Option<SocketAddr> {
        self.client_addr
    }

    /// The replica's metrics registry.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.shared.metrics.clone()
    }

    /// Whether the replica has been promoted to primary.
    pub fn is_promoted(&self) -> bool {
        matches!(&*self.shared.mode.lock().unwrap(), Mode::Promoted { .. })
    }

    /// Promote now. Idempotent: repeated calls return the rounds the
    /// engine resumed at the first time.
    pub fn promote(&self) -> Result<u64, String> {
        let mut mode = self.shared.mode.lock().unwrap();
        promote_locked(&self.shared, &mut mode)
    }

    /// Block until the daemon is shut down (for CLI use).
    pub fn run(mut self) {
        let threads = std::mem::take(&mut self.threads);
        for t in threads {
            let _ = t.join();
        }
    }

    /// Stop all threads, close listeners, and shut down the promoted
    /// engine if there is one.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Nudge the blocking accept loops awake.
        let _ = TcpStream::connect(self.repl_addr);
        if let Some(addr) = self.client_addr {
            let _ = TcpStream::connect(addr);
        }
        let threads = std::mem::take(&mut self.threads);
        for t in threads {
            let _ = t.join();
        }
        let mut mode = self.shared.mode.lock().unwrap();
        if let Mode::Promoted { engine, rounds } =
            std::mem::replace(&mut *mode, Mode::Failed("shut down".to_string()))
        {
            drop(mode);
            let _ = rounds;
            engine.shutdown();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.repl_addr);
        if let Some(addr) = self.client_addr {
            let _ = TcpStream::connect(addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Promote with the mode lock held: capture the standby's round count,
/// drop the follower, and re-open the store through the ordinary engine
/// recovery path. The promoted engine accepts submissions from the exact
/// round the primary last logged.
fn promote_locked(shared: &Shared, mode: &mut Mode) -> Result<u64, String> {
    match mode {
        Mode::Promoted { rounds, .. } => Ok(*rounds),
        Mode::Failed(why) => Err(why.clone()),
        Mode::Following(core) => {
            let rounds = core.rounds();
            let mut ecfg = shared.cfg.engine.clone();
            ecfg.role = Role::Primary;
            match Engine::try_spawn(ecfg) {
                Ok(engine) => {
                    shared.metrics.set_role(Role::Primary);
                    *mode = Mode::Promoted { engine, rounds };
                    Ok(rounds)
                }
                Err(e) => {
                    let why = format!("promotion failed: {e}");
                    eprintln!("gridband-replica: {why}");
                    *mode = Mode::Failed(why.clone());
                    Err(why)
                }
            }
        }
    }
}

fn promote_timer(shared: Arc<Shared>, after: Duration) {
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        let mut mode = shared.mode.lock().unwrap();
        if !matches!(&*mode, Mode::Following(_)) {
            return;
        }
        let silent = shared.last_frame.lock().unwrap().elapsed();
        if silent >= after {
            eprintln!(
                "gridband-replica: no primary frames for {:.1}s, promoting",
                silent.as_secs_f64()
            );
            let _ = promote_locked(&shared, &mut mode);
            return;
        }
    }
}

/// Accept loop for the replication listener. One primary at a time:
/// connections are served sequentially, and each new connection starts a
/// fresh protocol session.
fn repl_accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(stream) = stream {
            serve_primary(stream, &shared);
        }
    }
}

fn serve_primary(stream: TcpStream, shared: &Arc<Shared>) {
    let mut link = TcpLink::new(stream);
    {
        let mut mode = shared.mode.lock().unwrap();
        match &mut *mode {
            Mode::Following(core) => core.reset_session(),
            // Promoted (or failed): no longer a follower; refuse the
            // stream by dropping it.
            _ => return,
        }
    }
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match link.recv(Duration::from_millis(100)) {
            Ok(Recv::Frame(frame)) => {
                *shared.last_frame.lock().unwrap() = Instant::now();
                let replies = {
                    let mut mode = shared.mode.lock().unwrap();
                    let Mode::Following(core) = &mut *mode else {
                        return;
                    };
                    match core.handle_frame(&frame) {
                        Ok(replies) => replies,
                        Err(e) => {
                            eprintln!("gridband-replica: dropping replication stream: {e}");
                            return;
                        }
                    }
                };
                for reply in &replies {
                    if link.send(&encode_frame(reply)).is_err() {
                        return;
                    }
                }
            }
            Ok(Recv::Idle) => {}
            Ok(Recv::Closed) | Err(_) => return,
        }
    }
}

/// Accept loop for the read-only client listener. Connections are
/// served by detached threads (they exit within the read timeout after
/// shutdown).
fn client_accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(stream) = stream {
            let shared = shared.clone();
            std::thread::spawn(move || serve_client(stream, shared));
        }
    }
}

fn serve_client(stream: TcpStream, shared: Arc<Shared>) {
    MetricsRegistry::inc(&shared.metrics.connections);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Same shape as the serve daemon: replies flow through a bounded
    // queue drained by a writer thread, so a slow reader never blocks
    // frame handling.
    let (reply_tx, reply_rx) = channel::bounded::<ServerMsg>(REPLY_CAPACITY);
    let writer = std::thread::spawn(move || client_writer(write_half, reply_rx));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        line.clear();
        match read_line_bounded(&mut reader, &mut line, &shared) {
            LineRead::Line => {}
            LineRead::Closed => break,
            LineRead::TooLong => {
                MetricsRegistry::inc(&shared.metrics.protocol_errors);
                let _ = reply_tx.send(ServerMsg::Error {
                    code: "line-too-long".to_string(),
                    message: format!("request lines are limited to {MAX_LINE_LEN} bytes"),
                });
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match decode_client(trimmed) {
            Ok(msg) => {
                if !dispatch(&shared, msg, &reply_tx) {
                    break;
                }
            }
            Err(err_reply) => {
                MetricsRegistry::inc(&shared.metrics.protocol_errors);
                let _ = reply_tx.send(err_reply);
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
}

enum LineRead {
    Line,
    Closed,
    TooLong,
}

/// Read one line with the connection's read timeout, preserving partial
/// data across timeouts so shutdown checks don't corrupt the stream.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    shared: &Shared,
) -> LineRead {
    loop {
        match reader.read_line(line) {
            Ok(0) => return LineRead::Closed,
            Ok(_) => {
                if line.len() > MAX_LINE_LEN {
                    return LineRead::TooLong;
                }
                return LineRead::Line;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::Relaxed) {
                    return LineRead::Closed;
                }
                if line.len() > MAX_LINE_LEN {
                    return LineRead::TooLong;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

fn client_writer(mut stream: TcpStream, replies: Receiver<ServerMsg>) {
    let mut buf = Vec::new();
    loop {
        let msg = match replies.recv_timeout(Duration::from_millis(200)) {
            Ok(msg) => Some(msg),
            Err(channel::RecvTimeoutError::Timeout) => None,
            Err(channel::RecvTimeoutError::Disconnected) => break,
        };
        if let Some(msg) = &msg {
            buf.extend_from_slice(encode_server(msg).as_bytes());
            buf.push(b'\n');
        }
        if !buf.is_empty() && (replies.is_empty() || msg.is_none()) {
            if stream.write_all(&buf).is_err() {
                return;
            }
            buf.clear();
        }
    }
    if !buf.is_empty() {
        let _ = stream.write_all(&buf);
    }
    let _ = stream.flush();
}

/// Handle one client request. Returns `false` to close the connection.
fn dispatch(shared: &Arc<Shared>, msg: ClientMsg, reply_tx: &Sender<ServerMsg>) -> bool {
    // Promote is the replica's own command in every mode: idempotent
    // once promoted, never forwarded to the engine (which would refuse
    // it as `not-follower`).
    if matches!(msg, ClientMsg::Promote) {
        let reply = {
            let mut mode = shared.mode.lock().unwrap();
            match promote_locked(shared, &mut mode) {
                Ok(rounds) => ServerMsg::Promoted { rounds },
                Err(why) => ServerMsg::Error {
                    code: "promotion-failed".to_string(),
                    message: why,
                },
            }
        };
        return reply_tx.send(reply).is_ok();
    }
    // Everything else depends on the mode. Engine forwarding must not
    // hold the mode lock, so grab what we need and drop it.
    enum Route {
        Reply(Box<ServerMsg>),
        Forward(Sender<Command>),
    }
    let route = {
        let mut mode = shared.mode.lock().unwrap();
        match &mut *mode {
            Mode::Promoted { engine, .. } => Route::Forward(engine.sender()),
            Mode::Failed(why) => Route::Reply(Box::new(ServerMsg::Error {
                code: "unavailable".to_string(),
                message: why.clone(),
            })),
            Mode::Following(core) => Route::Reply(Box::new(match &msg {
                ClientMsg::Query { id } => {
                    MetricsRegistry::inc(&shared.metrics.queries);
                    ServerMsg::Status {
                        id: *id,
                        state: core.state_of(*id).unwrap_or(ReqState::Unknown),
                        alloc: core.alloc_of(*id),
                    }
                }
                ClientMsg::Stats => {
                    let snap = shared.metrics.snapshot(0, core.live_count(), core.now());
                    ServerMsg::Stats(snap)
                }
                ClientMsg::Submit(req) => {
                    MetricsRegistry::inc(&shared.metrics.submitted);
                    ServerMsg::Rejected {
                        id: req.id,
                        reason: RejectReason::NotPrimary,
                        retry_after: None,
                    }
                }
                // A follower holds no reservations to renegotiate.
                ClientMsg::Amend { id, .. } => ServerMsg::Rejected {
                    id: *id,
                    reason: RejectReason::NotPrimary,
                    retry_after: None,
                },
                // A follower holds no capacity: the two-phase prepare is
                // denied outright and its acks report `ok: false`, so a
                // cluster router talking to a not-yet-promoted standby
                // backs off instead of half-committing.
                ClientMsg::HoldOpen(req) => ServerMsg::HoldDenied {
                    txn: req.id,
                    reason: RejectReason::NotPrimary,
                },
                ClientMsg::HoldAttach { txn, .. }
                | ClientMsg::HoldCommit { txn, .. }
                | ClientMsg::HoldRelease { txn, .. } => ServerMsg::HoldAck {
                    txn: *txn,
                    ok: false,
                },
                ClientMsg::Cancel { .. } | ClientMsg::Drain => ServerMsg::Error {
                    code: "not-primary".to_string(),
                    message: "this daemon is a follower; promote it or talk to the primary"
                        .to_string(),
                },
                ClientMsg::Promote => unreachable!("handled above"),
            })),
        }
    };
    match route {
        Route::Reply(reply) => reply_tx.send(*reply).is_ok(),
        Route::Forward(tx) => forward(shared, &tx, msg, reply_tx),
    }
}

/// Forward a client message to the promoted engine, mirroring the serve
/// daemon's backpressure: submissions bounce with `QueueFull` when the
/// engine queue is full; control messages retry briefly.
fn forward(
    shared: &Arc<Shared>,
    tx: &Sender<Command>,
    msg: ClientMsg,
    reply_tx: &Sender<ServerMsg>,
) -> bool {
    let is_submit = matches!(msg, ClientMsg::Submit(_));
    let submit_id = match &msg {
        ClientMsg::Submit(req) => req.id,
        _ => 0,
    };
    let mut cmd = Command::Client {
        msg,
        reply: reply_tx.clone().into(),
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match tx.try_send(cmd) {
            Ok(()) => return true,
            Err(channel::TrySendError::Full(back)) => {
                if is_submit {
                    MetricsRegistry::inc(&shared.metrics.queue_full);
                    let retry = shared.cfg.engine.step;
                    return reply_tx
                        .send(ServerMsg::Rejected {
                            id: submit_id,
                            reason: RejectReason::QueueFull,
                            retry_after: Some(retry),
                        })
                        .is_ok();
                }
                if Instant::now() >= deadline || shared.stop.load(Ordering::Relaxed) {
                    return reply_tx
                        .send(ServerMsg::Error {
                            code: "engine-busy".to_string(),
                            message: "engine queue stayed full".to_string(),
                        })
                        .is_ok();
                }
                cmd = back;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(channel::TrySendError::Disconnected(_)) => {
                let _ = reply_tx.send(ServerMsg::Error {
                    code: "engine-gone".to_string(),
                    message: "the promoted engine has stopped".to_string(),
                });
                return false;
            }
        }
    }
}
