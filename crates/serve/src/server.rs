//! TCP front end: a readiness-driven poll loop over nonblocking
//! connections, all decisions funnelled through the engine's bounded
//! command queue.
//!
//! The acceptor thread blocks in `accept` and hands each socket to one
//! of a small pool of I/O loop threads (round-robin). Each loop thread
//! parks in `poll(2)` over its connections plus a wake pipe: readable
//! sockets are drained and batch-decoded straight into the engine
//! queue. Replies land on each connection's bounded reply channel, and
//! the engine rings the loop's wake pipe (through the [`ReplySink`]
//! waker) so the loop wakes and writes them from the per-connection
//! outbound buffer: once per admission round for all of the round's
//! replies to that loop's connections, and once per inline reply.
//! No thread ever blocks on a client.
//!
//! Two codecs share the port. A connection whose first bytes are the
//! [`crate::wire::WIRE_MAGIC`] preamble speaks the binary frame format
//! of [`crate::wire`]; anything else (JSON-lines always starts with
//! `{`) falls back to the line-framed JSON of [`crate::protocol`].
//! Because replies are asynchronous (a submission is answered at the
//! *next admission round*, not inline), a client may have many requests
//! in flight; replies carry the request id for correlation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};

use crate::engine::{Command, Engine, EngineConfig, ReplySink};
use crate::metrics::MetricsRegistry;
use crate::protocol::{decode_client, encode_server, ClientMsg, RejectReason, ServerMsg};
use crate::wire::{decode_client_payload, encode_server_frame, FrameBuf, WireError, WIRE_MAGIC};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7421`.
    pub addr: String,
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Idle bound: a connection that has sent no bytes for this long
    /// (with nothing left to write to it) is closed.
    pub read_timeout: Duration,
    /// Maximum accepted JSON request-line length in bytes.
    pub max_line_len: usize,
    /// Per-connection bound on undelivered replies. When it fills (a
    /// client submitting without reading its socket) the engine drops
    /// further replies for that connection, counting them in the
    /// `replies_dropped` stat, rather than ever blocking on the client.
    pub reply_capacity: usize,
    /// Period of the metrics snapshot dumped to stderr as one JSON line;
    /// `None` disables the dump.
    pub snapshot_period: Option<Duration>,
    /// I/O loop threads sharing the connection load. Two is plenty: the
    /// loops only shuffle bytes; every decision still serializes through
    /// the single engine thread.
    pub io_threads: usize,
}

impl ServerConfig {
    /// Reasonable defaults on the given address.
    pub fn new(addr: impl Into<String>, engine: EngineConfig) -> Self {
        ServerConfig {
            addr: addr.into(),
            engine,
            read_timeout: Duration::from_secs(300),
            max_line_len: 64 * 1024,
            reply_capacity: 64 * 1024,
            snapshot_period: None,
            io_threads: 2,
        }
    }
}

/// A bound listener plus its running engine.
pub struct Server {
    listener: TcpListener,
    engine: Engine,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

/// Handle for stopping a server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Ask the accept loop to exit. The I/O loops are woken and close
    /// their connections immediately, and the engine decides its pending
    /// batch before `run` returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Nudge the (blocking) accept loop awake.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind the listener and start the engine. A store that fails to
    /// open or recover (corrupt WAL, unwritable directory) surfaces
    /// here as `InvalidData`, before the listener accepts any client.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let engine = Engine::try_spawn(config.engine.clone())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(Server {
            listener,
            engine,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The running engine's metrics registry. A WAL shipper running
    /// beside the server reports into this, so `Stats` replies carry
    /// replication progress alongside admission counters.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.engine.metrics()
    }

    /// Handle to stop `run` from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            stop: self.stop.clone(),
            addr: self.local_addr()?,
        })
    }

    /// Accept connections until shut down, then drain the engine.
    /// Blocks the calling thread.
    pub fn run(self) -> std::io::Result<()> {
        let metrics = self.engine.metrics();
        let snapshot_stop = self.stop.clone();
        let snapshotter = self.config.snapshot_period.map(|period| {
            let engine_tx = self.engine.sender();
            std::thread::spawn(move || {
                while !snapshot_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    if snapshot_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Route through the engine so pending/live gauges are
                    // consistent with the ledger.
                    let (tx, rx) = channel::bounded(1);
                    if engine_tx
                        .send(Command::Client {
                            msg: ClientMsg::Stats,
                            reply: tx.into(),
                        })
                        .is_err()
                    {
                        break;
                    }
                    if let Ok(ServerMsg::Stats(snap)) = rx.recv() {
                        if let Ok(js) = serde_json::to_string(&snap) {
                            eprintln!("{js}");
                        }
                    }
                }
            })
        });

        // Spin up the I/O loop pool.
        let cfg = ConnConfig {
            read_timeout: self.config.read_timeout,
            max_line_len: self.config.max_line_len,
            reply_capacity: self.config.reply_capacity,
            engine_step: self.engine.step(),
        };
        let mut loops = Vec::new();
        let mut threads = Vec::new();
        for _ in 0..self.config.io_threads.max(1) {
            let (conn_tx, conn_rx) = channel::unbounded::<TcpStream>();
            let (wake_w, wake_r) = UnixStream::pair()?;
            wake_w.set_nonblocking(true)?;
            wake_r.set_nonblocking(true)?;
            let waker = Arc::new(WakePipe(wake_w));
            let io = IoLoop {
                conn_rx,
                wake_r,
                waker: waker.clone(),
                stop: self.stop.clone(),
                engine_tx: self.engine.sender(),
                metrics: metrics.clone(),
                cfg,
            };
            threads.push(std::thread::spawn(move || io.run()));
            loops.push((conn_tx, waker));
        }

        let mut next = 0usize;
        for stream in self.listener.incoming() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            match stream {
                Ok(stream) => {
                    MetricsRegistry::inc(&metrics.connections);
                    let (conn_tx, waker) = &loops[next % loops.len()];
                    next += 1;
                    if conn_tx.send(stream).is_ok() {
                        waker.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            }
        }
        // Shutdown order matters. First stop the I/O loops: they close
        // every connection socket, so no client observes a reply that
        // post-dates the shutdown request. Then stop the engine: its
        // drain round decides pending work (making it durable) and drops
        // the per-connection reply sinks it holds. Only then join the
        // snapshotter.
        for (_, waker) in &loops {
            // The loops block in poll(2), not on a channel: ring each
            // pipe so its loop wakes, sees the stop flag and exits.
            waker.wake();
        }
        for t in threads {
            let _ = t.join();
        }
        self.engine.shutdown();
        if let Some(t) = snapshotter {
            let _ = t.join();
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
struct ConnConfig {
    read_timeout: Duration,
    max_line_len: usize,
    reply_capacity: usize,
    engine_step: f64,
}

/// Write end of an I/O loop's wake pipe. The engine thread rings it
/// (through a [`ReplySink`] waker) once after queueing a round's replies
/// to this loop's connections, and once per inline reply; the acceptor
/// rings it after handing over a socket and at shutdown. The loop thread
/// drains it after every `poll`. Nonblocking: once the pipe buffer holds
/// a byte the loop is guaranteed to wake, so a `WouldBlock` here means
/// the wake is already pending.
struct WakePipe(UnixStream);

impl WakePipe {
    fn wake(&self) {
        let _ = (&self.0).write(&[1u8]);
    }
}

// --------------------------------------------------------------------
// poll(2): the only readiness primitive the platform libc always has.
// Hand-rolled because the container carries no event-loop crate; the
// struct layout is fixed by POSIX.
// --------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

const POLLIN: std::os::raw::c_short = 0x001;
const POLLOUT: std::os::raw::c_short = 0x004;
const POLLERR: std::os::raw::c_short = 0x008;
const POLLHUP: std::os::raw::c_short = 0x010;
const POLLNVAL: std::os::raw::c_short = 0x020;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd-layout structs for the duration of the call.
    unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    }
}

/// Which dialect a connection speaks, settled by its first bytes.
enum Codec {
    /// Too few bytes to tell yet; they are buffered here.
    Detecting(Vec<u8>),
    /// Newline-framed JSON (the compat dialect).
    Json(Vec<u8>),
    /// `[len][crc32][payload]` binary frames behind the magic preamble.
    Binary(FrameBuf),
}

struct Conn {
    sock: TcpStream,
    codec: Codec,
    /// Loop-side reply sender for parse errors and queue-full bounces;
    /// dropped at read-EOF so the reply channel disconnects once the
    /// engine has answered everything in flight.
    reply_tx: Option<Sender<ServerMsg>>,
    reply_rx: Receiver<ServerMsg>,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    last_read: Instant,
    read_closed: bool,
    /// All reply senders (ours and the engine's) are gone and drained.
    replies_done: bool,
    /// Unrecoverable socket or framing state: close without flushing.
    dead: bool,
}

impl Conn {
    fn new(sock: TcpStream, reply_capacity: usize) -> std::io::Result<Conn> {
        sock.set_nonblocking(true)?;
        let (reply_tx, reply_rx) = channel::bounded(reply_capacity);
        Ok(Conn {
            sock,
            codec: Codec::Detecting(Vec::new()),
            reply_tx: Some(reply_tx),
            reply_rx,
            out: Vec::new(),
            out_pos: 0,
            last_read: Instant::now(),
            read_closed: false,
            replies_done: false,
            dead: false,
        })
    }

    /// Queue a loop-side reply (protocol error, backpressure bounce)
    /// through the same channel the engine uses, so a client observes
    /// replies in the order its requests were handled.
    fn push_reply(&mut self, metrics: &MetricsRegistry, msg: ServerMsg) {
        if let Some(tx) = &self.reply_tx {
            if tx.try_send(msg).is_err() {
                MetricsRegistry::inc(&metrics.replies_dropped);
            }
        }
    }

    /// Stop reading: drop our reply sender so the channel disconnects
    /// once the engine finishes, flush what remains, then close.
    fn close_after_flush(&mut self) {
        self.read_closed = true;
        self.reply_tx = None;
    }

    /// Move every queued reply into the outbound buffer, encoded for
    /// this connection's codec.
    fn drain_replies(&mut self) {
        loop {
            match self.reply_rx.try_recv() {
                Ok(msg) => {
                    match &self.codec {
                        Codec::Binary(_) => self.out.extend_from_slice(&encode_server_frame(&msg)),
                        // JSON is also the answer dialect while still
                        // detecting: only protocol errors can arise then.
                        Codec::Json(_) | Codec::Detecting(_) => {
                            self.out.extend_from_slice(encode_server(&msg).as_bytes());
                            self.out.push(b'\n');
                        }
                    }
                }
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => {
                    self.replies_done = true;
                    break;
                }
            }
        }
    }

    /// Push buffered bytes into the socket until it stops accepting.
    fn flush_out(&mut self) {
        while self.out_pos < self.out.len() {
            match (&self.sock).write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 4096 && self.out_pos * 2 > self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// True when the connection has nothing left to do and can be
    /// dropped: reads are over and every reply has been written out.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.replies_done && self.out_pos == self.out.len())
    }
}

struct IoLoop {
    conn_rx: Receiver<TcpStream>,
    wake_r: UnixStream,
    waker: Arc<WakePipe>,
    stop: Arc<AtomicBool>,
    engine_tx: Sender<Command>,
    metrics: Arc<MetricsRegistry>,
    cfg: ConnConfig,
}

/// How long a control message (Cancel/Query/Stats/Drain) waits for queue
/// space before the connection reports overload. Submissions never wait.
const CONTROL_RETRY: Duration = Duration::from_secs(5);

impl IoLoop {
    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];
        let wake_fn: Arc<dyn Fn() + Send + Sync> = {
            let waker = self.waker.clone();
            Arc::new(move || waker.wake())
        };
        loop {
            // Adopt sockets the acceptor handed over.
            while let Ok(sock) = self.conn_rx.try_recv() {
                if let Ok(conn) = Conn::new(sock, self.cfg.reply_capacity) {
                    conns.push(conn);
                }
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }

            let mut fds = Vec::with_capacity(1 + conns.len());
            fds.push(PollFd {
                fd: self.wake_r.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for c in &conns {
                let mut events = 0;
                if !c.read_closed {
                    events |= POLLIN;
                }
                if c.out_pos < c.out.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: c.sock.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            // 1 s cap: the idle reaper and the stop flag are checked at
            // least this often even with no traffic at all.
            poll_fds(&mut fds, 1000);
            if self.stop.load(Ordering::Relaxed) {
                break;
            }

            // Drain the wake pipe; its only meaning is "look again".
            if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                let mut buf = [0u8; 256];
                while matches!((&self.wake_r).read(&mut buf), Ok(n) if n > 0) {}
            }

            for (i, c) in conns.iter_mut().enumerate() {
                let revents = fds[1 + i].revents;
                if revents & POLLNVAL != 0 {
                    c.dead = true;
                    continue;
                }
                if revents & (POLLIN | POLLERR | POLLHUP) != 0 && !c.read_closed {
                    self.read_ready(c, &mut scratch, &wake_fn);
                }
                c.drain_replies();
                c.flush_out();
                if !c.read_closed && c.last_read.elapsed() > self.cfg.read_timeout {
                    // Idle past the bound: stop reading, deliver what is
                    // still owed, then close.
                    c.close_after_flush();
                    c.drain_replies();
                    c.flush_out();
                }
            }
            conns.retain(|c| {
                if c.finished() {
                    let _ = c.sock.shutdown(std::net::Shutdown::Both);
                    false
                } else {
                    true
                }
            });
        }
        for c in &conns {
            let _ = c.sock.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Drain a readable socket and decode every complete request.
    fn read_ready(&self, c: &mut Conn, scratch: &mut [u8], wake_fn: &Arc<dyn Fn() + Send + Sync>) {
        loop {
            match (&c.sock).read(scratch) {
                Ok(0) => {
                    c.close_after_flush();
                    return;
                }
                Ok(n) => {
                    c.last_read = Instant::now();
                    self.feed(c, &scratch[..n], wake_fn);
                    if c.read_closed || c.dead {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
    }

    /// Route freshly read bytes through the connection's codec state.
    fn feed(&self, c: &mut Conn, mut bytes: &[u8], wake_fn: &Arc<dyn Fn() + Send + Sync>) {
        if let Codec::Detecting(buf) = &mut c.codec {
            buf.extend_from_slice(bytes);
            if buf.len() < WIRE_MAGIC.len() && WIRE_MAGIC.starts_with(buf) {
                return; // genuinely ambiguous: wait for more bytes
            }
            let settled = std::mem::take(buf);
            if settled.starts_with(&WIRE_MAGIC) {
                MetricsRegistry::inc(&self.metrics.conns_binary);
                let mut fb = FrameBuf::new();
                fb.extend(&settled[WIRE_MAGIC.len()..]);
                c.codec = Codec::Binary(fb);
            } else {
                MetricsRegistry::inc(&self.metrics.conns_json);
                c.codec = Codec::Json(settled);
            }
            bytes = &[]; // everything is inside the codec state now
        }
        match &mut c.codec {
            Codec::Detecting(_) => unreachable!("settled above"),
            Codec::Json(_) => self.feed_json(c, bytes, wake_fn),
            Codec::Binary(_) => self.feed_binary(c, bytes, wake_fn),
        }
    }

    fn feed_json(&self, c: &mut Conn, bytes: &[u8], wake_fn: &Arc<dyn Fn() + Send + Sync>) {
        let Codec::Json(buf) = &mut c.codec else {
            return;
        };
        buf.extend_from_slice(bytes);
        loop {
            let Codec::Json(buf) = &mut c.codec else {
                return;
            };
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                if buf.len() > self.cfg.max_line_len {
                    MetricsRegistry::inc(&self.metrics.protocol_errors);
                    let max = self.cfg.max_line_len;
                    c.push_reply(
                        &self.metrics,
                        ServerMsg::Error {
                            code: "line-too-long".to_string(),
                            message: format!("request line exceeds {max} bytes"),
                        },
                    );
                    c.close_after_flush(); // framing is lost
                }
                return;
            };
            if nl > self.cfg.max_line_len {
                MetricsRegistry::inc(&self.metrics.protocol_errors);
                let max = self.cfg.max_line_len;
                c.push_reply(
                    &self.metrics,
                    ServerMsg::Error {
                        code: "line-too-long".to_string(),
                        message: format!("request line exceeds {max} bytes"),
                    },
                );
                c.close_after_flush();
                return;
            }
            let line: Vec<u8> = buf.drain(..=nl).collect();
            let reply = match std::str::from_utf8(&line) {
                Ok(s) if s.trim().is_empty() => continue,
                Ok(s) => match decode_client(s.trim()) {
                    Ok(msg) => {
                        if !self.forward(c, msg, wake_fn) {
                            c.dead = true; // engine gone
                            return;
                        }
                        continue;
                    }
                    Err(err_reply) => err_reply,
                },
                Err(_) => ServerMsg::Error {
                    code: "parse".to_string(),
                    message: "request line is not UTF-8".to_string(),
                },
            };
            MetricsRegistry::inc(&self.metrics.protocol_errors);
            c.push_reply(&self.metrics, reply);
        }
    }

    fn feed_binary(&self, c: &mut Conn, bytes: &[u8], wake_fn: &Arc<dyn Fn() + Send + Sync>) {
        {
            let Codec::Binary(fb) = &mut c.codec else {
                return;
            };
            fb.extend(bytes);
        }
        loop {
            let Codec::Binary(fb) = &mut c.codec else {
                return;
            };
            match fb.next_frame() {
                Ok(None) => return,
                Ok(Some(payload)) => match decode_client_payload(&payload) {
                    Ok(msg) => {
                        if !self.forward(c, msg, wake_fn) {
                            c.dead = true;
                            return;
                        }
                    }
                    Err(e) => {
                        // The frame itself was sound, so framing is
                        // intact and the connection survives.
                        MetricsRegistry::inc(&self.metrics.protocol_errors);
                        let code = match e {
                            WireError::BadVersion(_) => "bad-version",
                            _ => "parse",
                        };
                        c.push_reply(
                            &self.metrics,
                            ServerMsg::Error {
                                code: code.to_string(),
                                message: e.to_string(),
                            },
                        );
                    }
                },
                Err(e) => {
                    // Bad length prefix or CRC: the byte stream can no
                    // longer be split into frames. Report and close.
                    MetricsRegistry::inc(&self.metrics.protocol_errors);
                    c.push_reply(
                        &self.metrics,
                        ServerMsg::Error {
                            code: "frame".to_string(),
                            message: e.to_string(),
                        },
                    );
                    c.close_after_flush();
                    return;
                }
            }
        }
    }

    /// Forward one decoded request to the engine. Returns `false` when
    /// the engine is gone and the connection should close.
    ///
    /// Backpressure policy on a full command queue: submissions bounce
    /// immediately with a `retry_after` hint — the client is the right
    /// place to pace a firehose of new work. Control messages instead
    /// wait up to [`CONTROL_RETRY`]: they are rare, a client typically
    /// sends them once right after a burst of submissions (exactly when
    /// the queue peaks), and the engine drains the queue continuously,
    /// so a short wait converts a spurious `overloaded` error into a
    /// normal reply.
    fn forward(&self, c: &mut Conn, msg: ClientMsg, wake_fn: &Arc<dyn Fn() + Send + Sync>) -> bool {
        let Some(reply_tx) = &c.reply_tx else {
            return true; // read side already closed; drop the request
        };
        let reply = ReplySink::with_waker(reply_tx.clone(), wake_fn.clone());
        let is_submit = matches!(msg, ClientMsg::Submit(_));
        let cmd = Command::Client { msg, reply };
        if is_submit {
            match self.engine_tx.try_send(cmd) {
                Ok(()) => true,
                Err(channel::TrySendError::Full(cmd)) => {
                    MetricsRegistry::inc(&self.metrics.queue_full);
                    if let Command::Client {
                        msg: ClientMsg::Submit(s),
                        ..
                    } = cmd
                    {
                        c.push_reply(
                            &self.metrics,
                            ServerMsg::Rejected {
                                id: s.id,
                                reason: RejectReason::QueueFull,
                                retry_after: Some(self.cfg.engine_step),
                            },
                        );
                    }
                    true
                }
                Err(channel::TrySendError::Disconnected(_)) => false,
            }
        } else {
            let give_up_at = Instant::now() + CONTROL_RETRY;
            let mut cmd = cmd;
            loop {
                match self.engine_tx.try_send(cmd) {
                    Ok(()) => return true,
                    Err(channel::TrySendError::Full(back)) => {
                        if Instant::now() >= give_up_at || self.stop.load(Ordering::Relaxed) {
                            MetricsRegistry::inc(&self.metrics.queue_full);
                            c.push_reply(
                                &self.metrics,
                                ServerMsg::Error {
                                    code: "overloaded".to_string(),
                                    message: "engine queue full, retry".to_string(),
                                },
                            );
                            return true;
                        }
                        cmd = back;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(channel::TrySendError::Disconnected(_)) => return false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_client, ClientMsg, SubmitReq};
    use crate::wire::{decode_server_payload, encode_client_frame};
    use gridband_net::Topology;
    use std::io::BufRead;
    use std::io::BufReader;

    fn start_server() -> (ShutdownHandle, SocketAddr, std::thread::JoinHandle<()>) {
        let mut engine = EngineConfig::new(Topology::uniform(2, 2, 100.0));
        engine.step = 10.0;
        let server = Server::bind(ServerConfig::new("127.0.0.1:0", engine)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle().expect("handle");
        let join = std::thread::spawn(move || server.run().expect("server run"));
        (handle, addr, join)
    }

    fn send_line(stream: &mut TcpStream, msg: &ClientMsg) {
        let mut line = encode_client(msg);
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("write");
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> ServerMsg {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        crate::protocol::decode_server(line.trim()).expect("decode")
    }

    /// Read one binary server frame off the socket.
    fn read_frame(stream: &mut TcpStream, fb: &mut FrameBuf) -> ServerMsg {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(payload) = fb.next_frame().expect("sound frame") {
                return decode_server_payload(&payload).expect("decode server payload");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "connection closed mid-frame");
            fb.extend(&buf[..n]);
        }
    }

    #[test]
    fn submit_over_tcp_gets_a_decision() {
        let (handle, addr, join) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        send_line(
            &mut stream,
            &ClientMsg::Submit(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 1,
                volume: 500.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(60.0),
                class: Default::default(),
                malleable: None,
            }),
        );
        // Drive the deciding round via a drain (single-shot test server).
        send_line(&mut stream, &ClientMsg::Drain);

        let first = read_reply(&mut reader);
        match first {
            ServerMsg::Accepted {
                id: 1, bw, start, ..
            } => {
                assert_eq!(start, 10.0);
                assert_eq!(bw, 100.0);
            }
            other => panic!("expected acceptance first, got {other:?}"),
        }
        match read_reply(&mut reader) {
            ServerMsg::Draining { pending } => assert_eq!(pending, 1),
            other => panic!("expected draining ack, got {other:?}"),
        }

        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().expect("server thread");
    }

    #[test]
    fn binary_submit_over_tcp_gets_the_same_decision() {
        let (handle, addr, join) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&WIRE_MAGIC).expect("preamble");
        stream
            .write_all(&encode_client_frame(&ClientMsg::Submit(SubmitReq {
                id: 1,
                ingress: 0,
                egress: 1,
                volume: 500.0,
                max_rate: 100.0,
                start: Some(0.0),
                deadline: Some(60.0),
                class: Default::default(),
                malleable: None,
            })))
            .expect("submit frame");
        stream
            .write_all(&encode_client_frame(&ClientMsg::Drain))
            .expect("drain frame");

        let mut fb = FrameBuf::new();
        match read_frame(&mut stream, &mut fb) {
            ServerMsg::Accepted {
                id: 1, bw, start, ..
            } => {
                assert_eq!(start, 10.0);
                assert_eq!(bw, 100.0);
            }
            other => panic!("expected acceptance first, got {other:?}"),
        }
        match read_frame(&mut stream, &mut fb) {
            ServerMsg::Draining { pending } => assert_eq!(pending, 1),
            other => panic!("expected draining ack, got {other:?}"),
        }

        // The codec was counted: this was a binary connection.
        let mut probe = TcpStream::connect(addr).expect("connect probe");
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(probe.try_clone().unwrap());
        send_line(&mut probe, &ClientMsg::Stats);
        match read_reply(&mut reader) {
            ServerMsg::Stats(s) => {
                assert_eq!(s.conns_binary, 1);
                assert!(s.conns_json >= 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        drop(stream);
        drop(probe);
        handle.shutdown();
        join.join().expect("server thread");
    }

    #[test]
    fn malformed_and_versioned_lines_get_error_replies() {
        let (handle, addr, join) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());

        stream.write_all(b"this is not json\n").unwrap();
        match read_reply(&mut reader) {
            ServerMsg::Error { code, .. } => assert_eq!(code, "parse"),
            other => panic!("expected parse error, got {other:?}"),
        }

        stream
            .write_all(b"{\"v\": 42, \"body\": \"Stats\"}\n")
            .unwrap();
        match read_reply(&mut reader) {
            ServerMsg::Error { code, .. } => assert_eq!(code, "bad-version"),
            other => panic!("expected version error, got {other:?}"),
        }

        // The connection survives protocol errors: a valid query works.
        send_line(&mut stream, &ClientMsg::Query { id: 404 });
        match read_reply(&mut reader) {
            ServerMsg::Status { id: 404, state, .. } => {
                assert_eq!(state, crate::protocol::ReqState::Unknown);
            }
            other => panic!("expected status, got {other:?}"),
        }

        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().expect("server thread");
    }

    #[test]
    fn corrupt_binary_frame_gets_an_error_and_a_close() {
        let (handle, addr, join) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&WIRE_MAGIC).expect("preamble");
        let mut frame = encode_client_frame(&ClientMsg::Stats);
        let last = frame.len() - 1;
        frame[last] ^= 0x20; // CRC now fails
        stream.write_all(&frame).expect("torn frame");

        let mut fb = FrameBuf::new();
        match read_frame(&mut stream, &mut fb) {
            ServerMsg::Error { code, .. } => assert_eq!(code, "frame"),
            other => panic!("expected frame error, got {other:?}"),
        }
        // Framing is lost: the server closes its side.
        let mut rest = [0u8; 16];
        let n = stream.read(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "connection should be closed");

        drop(stream);
        handle.shutdown();
        join.join().expect("server thread");
    }

    #[test]
    fn oversized_line_closes_the_connection_with_an_error() {
        let mut engine = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        engine.step = 10.0;
        let mut cfg = ServerConfig::new("127.0.0.1:0", engine);
        cfg.max_line_len = 128;
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let long = "x".repeat(1024);
        stream.write_all(long.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        match read_reply(&mut reader) {
            ServerMsg::Error { code, .. } => assert_eq!(code, "line-too-long"),
            other => panic!("expected line-too-long, got {other:?}"),
        }
        // Server closes its side after a framing loss.
        let mut rest = String::new();
        let n = reader.read_line(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "connection should be closed, got {rest:?}");

        drop(reader);
        drop(stream);
        handle.shutdown();
        join.join().expect("server thread");
    }

    #[test]
    fn shutdown_unblocks_idle_connections_promptly() {
        let mut engine = EngineConfig::new(Topology::uniform(1, 1, 100.0));
        engine.step = 10.0;
        let mut cfg = ServerConfig::new("127.0.0.1:0", engine);
        cfg.read_timeout = Duration::from_secs(30);
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run().expect("run"));

        // An idle client: no request, no codec, nothing to poll for.
        let stream = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        handle.shutdown();
        join.join().expect("server thread");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}; it must not wait out the 30 s read timeout",
            t0.elapsed()
        );
        drop(stream);
    }

    #[test]
    fn concurrent_connections_are_served() {
        let (handle, addr, join) = start_server();
        let mut workers = Vec::new();
        for k in 0..4u64 {
            workers.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                if k % 2 == 0 {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    send_line(&mut stream, &ClientMsg::Query { id: k });
                    matches!(read_reply(&mut reader), ServerMsg::Status { .. })
                } else {
                    stream.write_all(&WIRE_MAGIC).expect("preamble");
                    stream
                        .write_all(&encode_client_frame(&ClientMsg::Query { id: k }))
                        .expect("query frame");
                    let mut fb = FrameBuf::new();
                    matches!(read_frame(&mut stream, &mut fb), ServerMsg::Status { .. })
                }
            }));
        }
        for w in workers {
            assert!(w.join().expect("worker"), "query must get a status reply");
        }
        handle.shutdown();
        join.join().expect("server thread");
    }
}
