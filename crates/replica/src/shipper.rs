//! Primary-side WAL shipping.
//!
//! [`ShipperCore`] is the sans-IO protocol engine: it tails the
//! primary's store directory with a [`WalTail`], turns tail events into
//! [`ShipMsg`] frames, and repositions on follower feedback. It also
//! maintains its *own* [`EngineState`] mirror, replaying every record
//! it ships, purely to hash it into divergence beacons: the follower
//! replays the same bytes through the same code, so matching hashes
//! prove the standby is bit-identical — and a mismatch is caught within
//! one beacon interval instead of at failover. A snapshot is shipped as
//! that mirror's export, rebuilt from the snapshot file plus the
//! outcome log it names, so the follower receives the history inline.
//!
//! [`WalShipper`] is the threaded wrapper the daemon runs: it dials the
//! follower, speaks the handshake, pumps the tail, and reconnects with
//! exponential backoff when the link drops. When the store publishes a
//! [`DirSignal`](gridband_store::DirSignal) (both `FsDir` and `MemDir`
//! do), an idle session blocks on it and wakes the instant the engine
//! appends, instead of discovering new records on a fixed poll timer. The primary's engine never
//! waits on any of this — replication is asynchronous by design; the
//! `repl_synced` gauge tells operators (and the failover smoke test)
//! when the follower has caught up.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridband_net::Topology;
use gridband_serve::{EngineState, MetricsRegistry, ReplayTally};
use gridband_store::wal::{parse_snapshot, scan_records, MAGIC_WAL, RECORD_HEADER};
use gridband_store::{
    crc32, snap_name, wal_name, Dir, StoreError, StoreResult, TailEvent, WalRecord, WalTail,
};

use crate::link::{Link, Recv, TcpLink};
use crate::proto::{decode_frame, encode_frame, FollowerMsg, ShipMsg, REPL_PROTOCOL_VERSION};

/// What a shipper needs to know about the store it tails and the engine
/// whose state it mirrors.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// The primary's store directory (shared with its engine).
    pub dir: Arc<dyn Dir>,
    /// Topology of the mirrored engine (must match the follower's).
    pub topology: Topology,
    /// Admission interval `t_step` of the mirrored engine.
    pub step: f64,
    /// History bound of the mirrored engine; the beacon hash covers the
    /// decided-request history, so primary and follower must evict
    /// identically.
    pub history_capacity: usize,
    /// Emit a divergence beacon every this many shipped records
    /// (0 = only after snapshots).
    pub beacon_every: u64,
}

/// Whether `e` says a file is gone: an install or an outcome-log
/// compaction raced the read, and a newer generation is on disk.
fn is_not_found(e: &StoreError) -> bool {
    matches!(e, StoreError::Io { source, .. } if source.kind() == std::io::ErrorKind::NotFound)
}

/// Sans-IO shipping state machine: feed it follower messages, drain the
/// ship messages it produces.
#[derive(Debug)]
pub struct ShipperCore {
    cfg: ShipperConfig,
    metrics: Arc<MetricsRegistry>,
    tail: WalTail,
    /// Mirror of the engine state implied by everything shipped so far;
    /// hashed into beacons.
    state: EngineState,
    next_seq: u64,
    subscribed: bool,
    /// Store position `(gen, offset)` right after the last shipped
    /// content frame; `None` until something ships.
    shipped: Option<(u64, u64)>,
    records_since_beacon: u64,
}

impl ShipperCore {
    /// A core tailing `cfg.dir`, reporting into `metrics`.
    pub fn new(cfg: ShipperConfig, metrics: Arc<MetricsRegistry>) -> ShipperCore {
        let tail = WalTail::new(cfg.dir.clone());
        let state = EngineState::new(cfg.topology.clone(), cfg.step, cfg.history_capacity);
        ShipperCore {
            cfg,
            metrics,
            tail,
            state,
            next_seq: 0,
            subscribed: false,
            shipped: None,
            records_since_beacon: 0,
        }
    }

    /// The handshake frame that opens every connection.
    pub fn hello(&self) -> ShipMsg {
        ShipMsg::Hello {
            protocol: REPL_PROTOCOL_VERSION,
            step: self.cfg.step,
        }
    }

    /// Whether the follower has subscribed on this connection.
    pub fn subscribed(&self) -> bool {
        self.subscribed
    }

    /// The position the shipper has shipped up to (falling back to the
    /// tail cursor before anything has shipped).
    pub fn position(&self) -> Option<(u64, u64)> {
        self.shipped
            .or_else(|| self.tail.cursor().map(|c| (c.gen, c.offset)))
    }

    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.metrics
            .repl_shipped_seq
            .store(self.next_seq, Ordering::Relaxed);
        self.next_seq
    }

    /// Decode and handle one raw frame off the link. Damage in the
    /// follower→primary direction is counted and skipped.
    pub fn handle_frame(&mut self, frame: &[u8]) -> StoreResult<Vec<ShipMsg>> {
        match decode_frame::<FollowerMsg>(frame) {
            Ok(msg) => self.handle(&msg),
            Err(_) => {
                MetricsRegistry::inc(&self.metrics.repl_frames_damaged);
                Ok(Vec::new())
            }
        }
    }

    /// Handle one follower message; returns frames to send back.
    pub fn handle(&mut self, msg: &FollowerMsg) -> StoreResult<Vec<ShipMsg>> {
        match *msg {
            FollowerMsg::Subscribe {
                protocol,
                gen,
                offset,
            } => {
                if protocol != REPL_PROTOCOL_VERSION {
                    return Err(StoreError::corrupt(
                        "repl",
                        0,
                        format!(
                            "follower speaks replication protocol {protocol}, \
                             this shipper speaks {REPL_PROTOCOL_VERSION}"
                        ),
                    ));
                }
                self.subscribed = true;
                self.reposition(gen, offset)?;
                self.pump()
            }
            FollowerMsg::Ack {
                seq,
                gen,
                offset,
                rounds: _,
            } => {
                self.metrics.repl_acked_seq.store(seq, Ordering::Relaxed);
                if self.position() == Some((gen, offset)) {
                    self.metrics.repl_synced.store(1, Ordering::Relaxed);
                }
                Ok(Vec::new())
            }
            FollowerMsg::Resync { gen, offset } => {
                self.reposition(gen, offset)?;
                self.pump()
            }
        }
    }

    /// Move the stream to the follower's position: resume exactly there
    /// when it is a record boundary the store still holds, else rewind
    /// and re-ship from the latest snapshot.
    fn reposition(&mut self, gen: u64, offset: u64) -> StoreResult<()> {
        if !self.try_resume(gen, offset)? {
            self.tail.rewind();
            self.state = EngineState::new(
                self.cfg.topology.clone(),
                self.cfg.step,
                self.cfg.history_capacity,
            );
            self.shipped = None;
            self.records_since_beacon = 0;
        }
        Ok(())
    }

    /// Resume at `(gen, offset)` if possible: the generation's files
    /// must still exist and the offset must be a record boundary within
    /// the valid prefix. Rebuilds the beacon mirror by replaying the
    /// records before the resume point.
    fn try_resume(&mut self, gen: u64, offset: u64) -> StoreResult<bool> {
        let wal_file = wal_name(gen);
        let Ok(data) = self.cfg.dir.read(&wal_file) else {
            return Ok(false);
        };
        if data.len() < MAGIC_WAL.len() || data[..MAGIC_WAL.len()] != MAGIC_WAL[..] {
            return Ok(false);
        }
        // Generations above 0 always open with a snapshot; without it
        // (swept, or a racing install) there is nothing to resume onto.
        let snap_payload = if gen == 0 {
            None
        } else {
            let file = snap_name(gen);
            match self.cfg.dir.read(&file) {
                Ok(d) => Some(parse_snapshot(&file, &d)?),
                Err(_) => return Ok(false),
            }
        };
        // Mid-log corruption in the primary's own store is fatal, not a
        // resume failure.
        let scan = scan_records(&wal_file, &data, MAGIC_WAL.len())?;
        let boundary = offset == MAGIC_WAL.len() as u64
            || offset == scan.valid_len
            || scan.records.iter().any(|(o, _)| *o == offset);
        if offset > scan.valid_len || !boundary {
            return Ok(false);
        }
        let before = scan.records.partition_point(|(o, _)| *o < offset);
        (self.state, _) = match EngineState::from_log(
            self.cfg.topology.clone(),
            self.cfg.step,
            self.cfg.history_capacity,
            Some(&*self.cfg.dir),
            gen,
            snap_payload.as_deref(),
            &scan.records[..before],
        ) {
            Err(e) if is_not_found(&e) => return Ok(false),
            rebuilt => rebuilt?,
        };
        self.tail.seek(gen, offset);
        self.shipped = Some((gen, offset));
        self.records_since_beacon = 0;
        Ok(true)
    }

    /// Poll the tail and frame whatever appeared: snapshots, records,
    /// and the beacons due between them. Empty until subscribed.
    pub fn pump(&mut self) -> StoreResult<Vec<ShipMsg>> {
        if !self.subscribed {
            return Ok(Vec::new());
        }
        let events = self.tail.poll()?;
        let mut out = Vec::new();
        for event in events {
            match event {
                TailEvent::Snapshot { gen, payload } => {
                    (self.state, _) = match EngineState::from_log(
                        self.cfg.topology.clone(),
                        self.cfg.step,
                        self.cfg.history_capacity,
                        Some(&*self.cfg.dir),
                        gen,
                        Some(&payload),
                        &[],
                    ) {
                        // Its outcome log was compacted away: a newer
                        // snapshot is installed, and the next poll ships it.
                        Err(e) if is_not_found(&e) => {
                            self.tail.rewind();
                            break;
                        }
                        rebuilt => rebuilt?,
                    };
                    let image = self.state.export().encode();
                    let crc = crc32(&image);
                    let text = String::from_utf8(image).expect("a JSON image is UTF-8");
                    let seq = self.next_seq();
                    out.push(ShipMsg::Snapshot {
                        seq,
                        gen,
                        crc,
                        payload: text,
                    });
                    self.shipped = Some((gen, MAGIC_WAL.len() as u64));
                    MetricsRegistry::inc(&self.metrics.repl_snapshots_shipped);
                    // A beacon right after the snapshot: the follower
                    // verifies the install before any records build on it.
                    out.push(self.beacon());
                }
                TailEvent::Record {
                    gen,
                    offset,
                    payload,
                } => {
                    let file = wal_name(gen);
                    let record = WalRecord::decode(&file, offset, &payload)?;
                    self.state
                        .apply(record, &file, offset, &mut ReplayTally::default())?;
                    let framed = (RECORD_HEADER + payload.len()) as u64;
                    let crc = crc32(&payload);
                    let text = String::from_utf8(payload).map_err(|_| {
                        StoreError::corrupt(&file, offset, "record payload is not UTF-8")
                    })?;
                    let seq = self.next_seq();
                    out.push(ShipMsg::Record {
                        seq,
                        gen,
                        offset,
                        crc,
                        payload: text,
                    });
                    self.shipped = Some((gen, offset + framed));
                    MetricsRegistry::inc(&self.metrics.repl_records_shipped);
                    MetricsRegistry::add(&self.metrics.repl_bytes_shipped, framed);
                    self.records_since_beacon += 1;
                    if self.cfg.beacon_every > 0
                        && self.records_since_beacon >= self.cfg.beacon_every
                    {
                        out.push(self.beacon());
                    }
                }
            }
        }
        if !out.is_empty() {
            self.metrics.repl_synced.store(0, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// A divergence beacon for the current shipped position.
    fn beacon(&mut self) -> ShipMsg {
        self.records_since_beacon = 0;
        let (gen, offset) = self.shipped.expect("beacons only follow shipped content");
        let state_crc = crc32(&self.state.export().encode());
        ShipMsg::Beacon {
            seq: self.next_seq(),
            gen,
            offset,
            rounds: self.state.rounds,
            state_crc,
        }
    }

    /// The idle-time frame: a heartbeat carrying the shipped position —
    /// or a fresh hello when the follower has not subscribed yet (the
    /// first hello may have been lost in transit).
    pub fn tick(&mut self) -> ShipMsg {
        if !self.subscribed {
            return self.hello();
        }
        match self.position() {
            Some((gen, offset)) => ShipMsg::Heartbeat {
                seq: self.next_seq(),
                gen,
                offset,
            },
            None => self.hello(),
        }
    }
}

/// How often the threaded shipper sends a heartbeat on an idle link.
const HEARTBEAT: Duration = Duration::from_millis(200);
/// Socket wait when follower traffic is expected (pre-subscription
/// frames, acks for in-flight content): the link itself wakes the loop,
/// so this only bounds how late a concurrent WAL append is noticed.
const SOCKET_POLL: Duration = Duration::from_millis(50);
/// Socket drain when the link is quiet and the loop is about to block
/// on the store's append signal instead.
const SOCKET_SKIM: Duration = Duration::from_millis(1);
/// Initial reconnect backoff; doubles per failed dial up to [`BACKOFF_MAX`].
const BACKOFF_MIN: Duration = Duration::from_millis(100);
/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(5);

enum SessionEnd {
    /// Link lost; dial again.
    Disconnected,
    /// The primary's own store is corrupt (or the peer speaks another
    /// protocol); retrying cannot help.
    Fatal,
}

/// The primary daemon's shipping thread: dials the follower's
/// replication address, reconnecting with backoff, until shut down.
pub struct WalShipper {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WalShipper {
    /// Start shipping `cfg.dir` to the follower listening at `addr`.
    /// `metrics` is normally the primary engine's registry, so `Stats`
    /// reports replication progress alongside admission counters.
    pub fn spawn(cfg: ShipperConfig, addr: String, metrics: Arc<MetricsRegistry>) -> WalShipper {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let thread = std::thread::spawn(move || ship_loop(cfg, addr, metrics, thread_stop));
        WalShipper {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the shipping thread and wait for it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WalShipper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn ship_loop(
    cfg: ShipperConfig,
    addr: String,
    metrics: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) {
    let mut backoff = BACKOFF_MIN;
    while !stop.load(Ordering::Relaxed) {
        if let Ok(stream) = TcpStream::connect(&addr) {
            backoff = BACKOFF_MIN;
            let link = TcpLink::new(stream);
            match run_session(&cfg, link, &metrics, &stop) {
                SessionEnd::Disconnected => {}
                SessionEnd::Fatal => return,
            }
        }
        // Interruptible backoff sleep.
        let until = Instant::now() + backoff;
        while Instant::now() < until && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        backoff = (backoff * 2).min(BACKOFF_MAX);
    }
}

fn run_session(
    cfg: &ShipperConfig,
    mut link: impl Link,
    metrics: &Arc<MetricsRegistry>,
    stop: &AtomicBool,
) -> SessionEnd {
    let mut core = ShipperCore::new(cfg.clone(), metrics.clone());
    let signal = cfg.dir.signal();
    if link.send(&encode_frame(&core.hello())).is_err() {
        return SessionEnd::Disconnected;
    }
    let mut last_sent = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        // Sample the write sequence *before* draining the tail: an
        // append landing after this sample bumps the sequence past
        // `seen`, so the blocking wait below returns immediately — the
        // wakeup cannot be lost between the pump and the sleep.
        let seen = signal.map(|s| s.seq());
        // Decide what to sleep on this iteration. The follower acks
        // every content frame, so `acked < shipped` means a frame is due
        // on the socket any moment; before subscription the next event
        // is a socket frame too. In both cases the socket is the thing
        // to wait on. Once subscribed, drained, and fully acked, the
        // only possible next events are a WAL append (the dir signal)
        // and the heartbeat deadline — sleep on the condvar instead of
        // burning fixed poll cycles.
        let acked = metrics.repl_acked_seq.load(Ordering::Relaxed);
        let shipped = metrics.repl_shipped_seq.load(Ordering::Relaxed);
        let socket_bound = signal.is_none() || !core.subscribed() || acked < shipped;
        let recv_wait = if socket_bound {
            SOCKET_POLL
        } else {
            SOCKET_SKIM
        };
        let mut active = false;
        match link.recv(recv_wait) {
            Ok(Recv::Frame(frame)) => {
                active = true;
                match core.handle_frame(&frame) {
                    Ok(msgs) => {
                        for msg in &msgs {
                            if link.send(&encode_frame(msg)).is_err() {
                                return SessionEnd::Disconnected;
                            }
                            last_sent = Instant::now();
                        }
                    }
                    Err(e) => {
                        eprintln!("gridband-replica: shipping halted: {e}");
                        return SessionEnd::Fatal;
                    }
                }
            }
            Ok(Recv::Idle) => {}
            Ok(Recv::Closed) | Err(_) => return SessionEnd::Disconnected,
        }
        match core.pump() {
            Ok(msgs) => {
                if msgs.is_empty() {
                    if last_sent.elapsed() >= HEARTBEAT {
                        let msg = core.tick();
                        if link.send(&encode_frame(&msg)).is_err() {
                            return SessionEnd::Disconnected;
                        }
                        last_sent = Instant::now();
                        active = true;
                    }
                } else {
                    for msg in &msgs {
                        if link.send(&encode_frame(msg)).is_err() {
                            return SessionEnd::Disconnected;
                        }
                        last_sent = Instant::now();
                    }
                    active = true;
                }
            }
            Err(e) => {
                eprintln!("gridband-replica: shipping halted: {e}");
                return SessionEnd::Fatal;
            }
        }
        if active || socket_bound {
            continue;
        }
        if let (Some(sig), Some(seen)) = (signal, seen) {
            // Fully idle: sleep until the next append or until the
            // heartbeat is due, whichever comes first. A `stop` during
            // the wait is seen after at most one heartbeat interval.
            let wait = HEARTBEAT.saturating_sub(last_sent.elapsed());
            if !wait.is_zero() {
                sig.wait_past(seen, wait);
            }
        }
    }
    SessionEnd::Disconnected
}
