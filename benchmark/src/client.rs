//! The load generator: one binary-codec connection, a closed loop
//! (window of submits in flight) or an open loop (fixed send schedule),
//! and the bookkeeping that pairs every reply with the op it answers.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gridband_serve::metrics::StatsSnapshot;
use gridband_serve::protocol::{ClientMsg, RejectReason, ReqState, ServerMsg};
use gridband_serve::wire::{decode_server_payload, encode_client_frame, FrameBuf, WIRE_MAGIC};
use gridband_workload::OpenLoopSchedule;

use crate::spec::Ops;

/// An op with no reply this long after the last send has failed.
pub const REPLY_GRACE: Duration = Duration::from_secs(5);

/// The open-loop writer sleeps at least this long between looks at the
/// schedule, so it wakes at most 2 000 times a second and never spins:
/// a spinning generator takes one of the host's two cores from the
/// daemon and the measured tail becomes the generator's.
pub const PACE_QUANTUM_NS: u64 = 500_000;

/// Refuse a generator that would oversubscribe the host: with more
/// generator threads or connections than cores the client competes with
/// the daemon it measures.
pub fn check_generator_limits(threads: usize, connections: usize) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > cores || connections > cores {
        return Err(format!(
            "generator wants {threads} threads and {connections} connections on {cores} cores"
        ));
    }
    Ok(())
}

/// The daemon's answer to one submit, floats kept as bit patterns so
/// equality with the reference replay is exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Dec {
    /// No answer (yet).
    #[default]
    None,
    Accepted {
        bw: u64,
        start: u64,
        finish: u64,
    },
    /// A malleable grant: hash of every segment's bits, plus the peak
    /// rate and granted volume the sanity check needs.
    Segments {
        hash: u64,
        peak: f64,
        volume: f64,
    },
    Rejected(RejectReason),
    /// A cancel reached the submit while it was still pending; the
    /// daemon then sends no decision, so the cancel's reply closes it.
    Closed,
}

impl Dec {
    /// Fold a malleable plan's `(start, end, bw)` segments.
    pub fn segments(plan: impl Iterator<Item = (f64, f64, f64)>) -> Dec {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let (mut peak, mut volume) = (0.0f64, 0.0f64);
        for (s, e, bw) in plan {
            for bits in [s.to_bits(), e.to_bits(), bw.to_bits()] {
                hash = (hash ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
            }
            peak = peak.max(bw);
            volume += bw * (e - s);
        }
        Dec::Segments { hash, peak, volume }
    }

    /// Whether this answer is a correct outcome of admission, as
    /// opposed to a refusal to serve.
    pub fn served(&self) -> bool {
        match self {
            Dec::None => false,
            Dec::Rejected(r) => {
                matches!(
                    r,
                    RejectReason::Saturated | RejectReason::DeadlineUnreachable
                )
            }
            _ => true,
        }
    }
}

/// Marks an op without a reply in [`Tracker::recv_ns`].
pub const NO_REPLY: u64 = u64::MAX;

/// Pairs replies with ops. Decisions carry the submit id; `Status` and
/// `CancelResult` replies arrive in the order their requests were sent
/// (one connection, one engine thread), so the k-th reply of each kind
/// answers the k-th request of that kind.
pub struct Tracker<'a> {
    ops: &'a Ops,
    /// Per submit id.
    pub dec: Vec<Dec>,
    /// Per op: when its reply arrived, ns since the run's epoch.
    pub recv_ns: Vec<u64>,
    query_ops: Vec<u32>,
    next_query: usize,
    cancel_ops: Vec<u32>,
    next_cancel: usize,
    /// The state each `Status` reply reported, in arrival order.
    pub query_states: Vec<ReqState>,
    /// Submit ids a cancel freed (their final state is `Cancelled`).
    pub freed: Vec<u64>,
    /// Ops that have their reply.
    pub replied: usize,
    /// Replies that answer no open op, `Error` replies, and `Status`
    /// replies that do not know a submit the daemon was sent earlier.
    pub stray: u64,
    pub drained: bool,
}

impl<'a> Tracker<'a> {
    pub fn new(ops: &'a Ops) -> Tracker<'a> {
        let of_kind = |want_query: bool| -> Vec<u32> {
            ops.msgs
                .iter()
                .enumerate()
                .filter(|(_, m)| match m {
                    ClientMsg::Query { .. } => want_query,
                    ClientMsg::Cancel { .. } => !want_query,
                    _ => false,
                })
                .map(|(i, _)| i as u32)
                .collect()
        };
        Tracker {
            ops,
            dec: vec![Dec::None; ops.submit_op.len()],
            recv_ns: vec![NO_REPLY; ops.msgs.len()],
            query_ops: of_kind(true),
            next_query: 0,
            cancel_ops: of_kind(false),
            next_cancel: 0,
            query_states: Vec::new(),
            freed: Vec::new(),
            replied: 0,
            stray: 0,
            drained: false,
        }
    }

    fn close(&mut self, op: u32, now_ns: u64) {
        self.recv_ns[op as usize] = now_ns;
        self.replied += 1;
    }

    fn decide(&mut self, id: u64, dec: Dec, now_ns: u64) {
        match self.dec.get(id as usize) {
            Some(Dec::None) => {
                self.dec[id as usize] = dec;
                self.close(self.ops.submit_op[id as usize], now_ns);
            }
            // Unknown id, or a second answer for one submit.
            _ => self.stray += 1,
        }
    }

    pub fn on_reply(&mut self, msg: ServerMsg, now_ns: u64) {
        match msg {
            ServerMsg::Accepted {
                id,
                bw,
                start,
                finish,
            } => self.decide(
                id,
                Dec::Accepted {
                    bw: bw.to_bits(),
                    start: start.to_bits(),
                    finish: finish.to_bits(),
                },
                now_ns,
            ),
            ServerMsg::AcceptedSegments { id, segments } => {
                self.decide(id, Dec::segments(segments.into_iter()), now_ns);
            }
            ServerMsg::Rejected { id, reason, .. } => {
                self.decide(id, Dec::Rejected(reason), now_ns)
            }
            ServerMsg::Status { id, state, .. } => {
                let op = self.query_ops.get(self.next_query).copied();
                self.next_query += 1;
                match op.map(|op| (op, &self.ops.msgs[op as usize])) {
                    Some((op, ClientMsg::Query { id: asked })) if *asked == id => {
                        if state == ReqState::Unknown {
                            self.stray += 1;
                        }
                        self.query_states.push(state);
                        self.close(op, now_ns);
                    }
                    _ => self.stray += 1,
                }
            }
            ServerMsg::CancelResult { id, freed } => {
                let op = self.cancel_ops.get(self.next_cancel).copied();
                self.next_cancel += 1;
                match op.map(|op| (op, &self.ops.msgs[op as usize])) {
                    Some((op, ClientMsg::Cancel { id: asked })) if *asked == id => {
                        self.close(op, now_ns);
                        if freed {
                            self.freed.push(id);
                            if self.dec[id as usize] == Dec::None {
                                self.decide(id, Dec::Closed, now_ns);
                            }
                        }
                    }
                    _ => self.stray += 1,
                }
            }
            ServerMsg::Draining { .. } => self.drained = true,
            _ => self.stray += 1,
        }
    }
}

extern "C" {
    fn setsockopt(
        fd: std::os::raw::c_int,
        level: std::os::raw::c_int,
        name: std::os::raw::c_int,
        value: *const std::os::raw::c_void,
        len: u32,
    ) -> std::os::raw::c_int;
}
/// Linux's `IPPROTO_TCP` and `TCP_QUICKACK`.
const IPPROTO_TCP: std::os::raw::c_int = 6;
const TCP_QUICKACK: std::os::raw::c_int = 12;

/// Acknowledge what was just read at once. The daemon does not set
/// `TCP_NODELAY`, so each small reply it writes waits (Nagle) for the
/// ACK of the one before; left to the kernel's delayed-ACK timer that
/// ACK takes 40 ms whenever the generator has nothing to send, and the
/// run then measures the timer. The kernel drops back to delayed ACKs
/// by itself, so this is called after every read.
fn ack_now(stream: &TcpStream) {
    let on: std::os::raw::c_int = 1;
    // SAFETY: the fd is an open socket for the life of `stream`, and
    // `value`/`len` describe one live `c_int`.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const std::os::raw::c_int).cast(),
            std::mem::size_of_val(&on) as u32,
        );
    }
}

/// One binary-codec connection.
pub struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    scratch: Vec<u8>,
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
        (&stream)
            .write_all(&WIRE_MAGIC)
            .map_err(|e| io_err("preamble", e))?;
        Ok(Conn {
            stream,
            frames: FrameBuf::new(),
            scratch: vec![0u8; 64 * 1024],
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|e| io_err("write", e))
    }

    /// Block for at least one byte, then hand every complete reply to
    /// `f`. `Ok(false)` means the read timed out.
    fn read_replies(&mut self, mut f: impl FnMut(ServerMsg)) -> Result<bool, String> {
        let n = match self.stream.read(&mut self.scratch) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(false)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(true),
            Err(e) => return Err(io_err("read", e)),
        };
        ack_now(&self.stream);
        self.frames.extend(&self.scratch[..n]);
        while let Some(payload) = self.frames.next_frame().map_err(|e| e.to_string())? {
            f(decode_server_payload(&payload).map_err(|e| e.to_string())?);
        }
        Ok(true)
    }

    /// One request, one reply, nothing else in flight.
    pub fn call(&mut self, msg: &ClientMsg) -> Result<ServerMsg, String> {
        self.stream
            .set_read_timeout(Some(REPLY_GRACE))
            .map_err(|e| io_err("timeout", e))?;
        self.send(&encode_client_frame(msg))?;
        let mut reply = None;
        while reply.is_none() {
            if !self.read_replies(|m| reply = Some(m))? {
                return Err(format!("no reply to {msg:?}"));
            }
        }
        Ok(reply.expect("loop ends with a reply"))
    }

    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        match self.call(&ClientMsg::Stats)? {
            ServerMsg::Stats(s) => Ok(s),
            other => Err(format!("Stats answered with {other:?}")),
        }
    }
}

/// The timed part of a run is cut into slices this long; throughput
/// and CPU per op are reported as the median slice's, so that a stall
/// of the host moves one slice and not the result.
pub const SLICE_NS: u64 = 500_000_000;

/// The daemon's progress at one instant of the timed part.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// ns since the run's epoch.
    pub t_ns: u64,
    /// Ops answered so far (closed loop) or sent so far (open loop).
    pub ops: usize,
    /// The daemon's CPU seconds so far.
    pub cpu: f64,
}

/// The timed part of a run: one sample at its start, one per slice
/// boundary, one at its end.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
}

impl Window {
    pub fn t0_ns(&self) -> u64 {
        self.samples.first().map_or(0, |s| s.t_ns)
    }
    pub fn t1_ns(&self) -> u64 {
        self.samples.last().map_or(0, |s| s.t_ns)
    }
    /// `(ops per second, CPU microseconds per op)` of every whole slice.
    pub fn slice_rates(&self) -> Vec<(f64, f64)> {
        self.samples
            .windows(2)
            .filter(|w| w[1].t_ns - w[0].t_ns >= SLICE_NS / 2 && w[1].ops > w[0].ops)
            .map(|w| {
                let ops = (w[1].ops - w[0].ops) as f64;
                (
                    ops / ((w[1].t_ns - w[0].t_ns) as f64 / 1e9),
                    (w[1].cpu - w[0].cpu) * 1e6 / ops,
                )
            })
            .collect()
    }
}

/// What a loop hands back.
pub struct RunLog<'a> {
    pub tracker: Tracker<'a>,
    /// Per op: when it was sent (closed loop) or due (open loop).
    pub from_ns: Vec<u64>,
    /// Ops sent.
    pub sent: usize,
    /// When the warm-up ended, ns since the epoch the caller passed.
    pub warm_end_ns: u64,
    pub window: Window,
    /// Open loop only: how late each measured send left, in ns.
    pub late_ns: Vec<u64>,
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Closed loop over one connection: keep `window` ops in flight,
/// refilled an eighth of the window at a time as one write; time from the `warm`-th reply for `measure`, or
/// until the ops run out. With `measure: None` return when the warm-up
/// is over (a set-up repetition). Ends with one `Drain`, which decides
/// whatever the virtual clock still holds.
pub fn closed_loop<'a>(
    conn: &mut Conn,
    ops: &'a Ops,
    window: usize,
    warm: usize,
    measure: Option<Duration>,
    epoch: Instant,
    cpu: &dyn Fn() -> f64,
) -> Result<RunLog<'a>, String> {
    conn.stream
        .set_read_timeout(Some(REPLY_GRACE))
        .map_err(|e| io_err("timeout", e))?;
    let n = ops.msgs.len();
    let mut log = RunLog {
        tracker: Tracker::new(ops),
        from_ns: vec![0; n],
        sent: 0,
        warm_end_ns: 0,
        window: Window::default(),
        late_ns: Vec::new(),
    };
    let batch = (window / 8).max(1);
    let mut buf = Vec::new();
    let mut timing = false;
    loop {
        let room = window - (log.sent - log.tracker.replied);
        if log.sent < n && room >= batch {
            let upto = (log.sent + room).min(n);
            buf.clear();
            for msg in &ops.msgs[log.sent..upto] {
                buf.extend_from_slice(&encode_client_frame(msg));
            }
            let now = ns_since(epoch);
            log.from_ns[log.sent..upto].fill(now);
            conn.send(&buf)?;
            log.sent = upto;
        }
        let tracker = &mut log.tracker;
        let mut now = 0;
        let alive = conn.read_replies(|m| {
            if now == 0 {
                now = ns_since(epoch);
            }
            tracker.on_reply(m, now)
        })?;
        if !alive {
            return Err(format!(
                "no reply for {REPLY_GRACE:?} with {} ops in flight",
                log.sent - log.tracker.replied
            ));
        }
        let now = ns_since(epoch);
        let sample = || Sample {
            t_ns: now,
            ops: log.tracker.replied,
            cpu: cpu(),
        };
        if !timing && log.tracker.replied >= warm {
            timing = true;
            log.warm_end_ns = now;
            log.window.samples.push(sample());
            if measure.is_none() {
                return Ok(log);
            }
        }
        if let (true, Some(d)) = (timing, measure) {
            let done = now - log.window.t0_ns() >= d.as_nanos() as u64 || log.sent == n;
            if done || now - log.window.t1_ns() >= SLICE_NS {
                log.window.samples.push(sample());
            }
            if done {
                break;
            }
        }
    }
    conn.send(&encode_client_frame(&ClientMsg::Drain))?;
    while !log.tracker.drained {
        let tracker = &mut log.tracker;
        let now = ns_since(epoch);
        if !conn.read_replies(|m| tracker.on_reply(m, now))? {
            break;
        }
    }
    Ok(log)
}

/// The open-loop send schedule, kept apart from the clock so the rules
/// can be tested: op `i` is due at `i / rate`; every due op is sent,
/// however late; between looks the writer sleeps, never less than the
/// quantum.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    schedule: OpenLoopSchedule,
}

impl Pacer {
    pub fn per_second(rate: f64) -> Pacer {
        Pacer {
            schedule: OpenLoopSchedule::per_second(rate),
        }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        (self.schedule.offset(i) * 1e9) as u64
    }

    /// End of the run of ops `next..` that are due at `elapsed_ns`.
    pub fn due_until(&self, next: usize, n: usize, elapsed_ns: u64) -> usize {
        let mut upto = next;
        while upto < n && self.due_ns(upto) <= elapsed_ns {
            upto += 1;
        }
        upto
    }

    /// How long to sleep before looking again.
    pub fn sleep_ns(&self, next: usize, elapsed_ns: u64) -> u64 {
        self.due_ns(next)
            .saturating_sub(elapsed_ns)
            .max(PACE_QUANTUM_NS)
    }
}

/// Open loop over one connection, a writer (this thread) and a reader
/// thread. The first `warm` ops are warm-up; the rest are measured, and
/// every latency counts from the op's due time, so a stall in the
/// daemon — or a late generator — is charged to the ops it delayed.
pub fn open_loop<'a>(
    conn: Conn,
    ops: &'a Ops,
    rate: f64,
    warm: usize,
    epoch: Instant,
    cpu: &(dyn Fn() -> f64 + Sync),
) -> Result<(RunLog<'a>, Conn), String> {
    let n = ops.msgs.len();
    let pacer = Pacer::per_second(rate);
    let start_ns = ns_since(epoch) + 2_000_000;
    let Conn {
        stream,
        frames,
        scratch,
    } = conn;
    let mut reader = Conn {
        stream: stream.try_clone().map_err(|e| io_err("clone", e))?,
        frames,
        scratch,
    };
    reader
        .stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| io_err("timeout", e))?;
    let sending = AtomicBool::new(true);
    let last_send_ns = AtomicU64::new(0);
    let mut log = RunLog {
        tracker: Tracker::new(ops),
        from_ns: (0..n).map(|i| start_ns + pacer.due_ns(i)).collect(),
        sent: 0,
        warm_end_ns: start_ns + pacer.due_ns(warm),
        window: Window::default(),
        late_ns: Vec::with_capacity(n - warm),
    };

    let tracker = &mut log.tracker;
    let read_result = std::thread::scope(|scope| -> Result<Result<(), String>, String> {
        let handle = scope.spawn(|| -> Result<(), String> {
            while tracker.replied < n {
                let mut now = 0;
                reader.read_replies(|m| {
                    if now == 0 {
                        now = ns_since(epoch);
                    }
                    tracker.on_reply(m, now)
                })?;
                if !sending.load(Ordering::Acquire)
                    && ns_since(epoch)
                        > last_send_ns.load(Ordering::Acquire) + REPLY_GRACE.as_nanos() as u64
                {
                    break;
                }
            }
            Ok(())
        });

        let mut next = 0;
        let mut buf = Vec::new();
        let mut write_result = Ok(());
        while next < n {
            let elapsed = ns_since(epoch).saturating_sub(start_ns);
            let upto = pacer.due_until(next, n, elapsed);
            if upto > next {
                // A sample as op `warm` leaves, then one per slice.
                let due = start_ns + pacer.due_ns(upto - 1);
                let first = log.window.samples.is_empty() && warm < upto;
                if first || (warm < upto && due >= log.window.t1_ns() + SLICE_NS) {
                    log.window.samples.push(Sample {
                        t_ns: if first { log.warm_end_ns } else { due },
                        ops: if first { warm } else { upto },
                        cpu: cpu(),
                    });
                }
                buf.clear();
                for msg in &ops.msgs[next..upto] {
                    buf.extend_from_slice(&encode_client_frame(msg));
                }
                let leaving = ns_since(epoch).saturating_sub(start_ns);
                if let Err(e) = (&stream).write_all(&buf) {
                    write_result = Err(io_err("write", e));
                    break;
                }
                for i in next.max(warm)..upto {
                    log.late_ns.push(leaving.saturating_sub(pacer.due_ns(i)));
                }
                next = upto;
            }
            if next < n {
                std::thread::sleep(Duration::from_nanos(pacer.sleep_ns(next, elapsed)));
            }
        }
        log.sent = next;
        last_send_ns.store(ns_since(epoch), Ordering::Release);
        sending.store(false, Ordering::Release);
        let read = handle
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        write_result.map(|()| read)
    })?;
    read_result?;
    log.window.samples.push(Sample {
        t_ns: ns_since(epoch),
        ops: log.sent,
        cpu: cpu(),
    });
    reader
        .stream
        .set_read_timeout(Some(REPLY_GRACE))
        .map_err(|e| io_err("timeout", e))?;
    Ok((log, reader))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn pacer_never_spins_and_never_skips() {
        let p = Pacer::per_second(12_000.0);
        // Ahead of, on, and far behind the schedule: the sleep is never
        // shorter than the quantum.
        for (next, elapsed) in [(0, 0), (6, 499_999), (6, 500_000), (10, 900_000_000)] {
            assert!(p.sleep_ns(next, elapsed) >= PACE_QUANTUM_NS);
        }
        // A sparse schedule sleeps until the op is due, not a quantum.
        let slow = Pacer::per_second(100.0);
        assert_eq!(slow.sleep_ns(1, 0), 10_000_000);
        // Walking the clock in uneven steps sends every op exactly once,
        // in order, even after a stall 1 000 ops long.
        let n = 5_000;
        let mut next = 0;
        let mut sent = Vec::new();
        let mut elapsed = 0u64;
        for step in [100_000u64, 700_000, 83_000_000, 1, 400_000_000] {
            elapsed += step;
            let upto = p.due_until(next, n, elapsed);
            sent.extend(next..upto);
            assert!(upto == n || p.due_ns(upto) > elapsed);
            next = upto;
        }
        assert_eq!(sent, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn slice_rates_skip_the_short_last_slice() {
        let at = |t_ms: u64, ops: usize, cpu: f64| Sample {
            t_ns: t_ms * 1_000_000,
            ops,
            cpu,
        };
        let w = Window {
            samples: vec![
                at(0, 100, 1.0),
                at(500, 600, 1.1),
                at(1000, 1600, 1.4),
                at(1100, 1700, 1.5),
            ],
        };
        let rates = w.slice_rates();
        assert_eq!(rates.len(), 2, "the 100 ms tail is not a slice");
        assert!((rates[0].0 - 1000.0).abs() < 1e-9 && (rates[0].1 - 200.0).abs() < 1e-6);
        assert!((rates[1].0 - 2000.0).abs() < 1e-9 && (rates[1].1 - 300.0).abs() < 1e-6);
        assert_eq!((w.t0_ns(), w.t1_ns()), (0, 1_100_000_000));
    }

    #[test]
    fn more_generators_than_cores_are_refused() {
        let cores = std::thread::available_parallelism().unwrap().get();
        assert!(check_generator_limits(cores, 1).is_ok());
        assert!(check_generator_limits(cores + 1, 1).is_err());
        assert!(check_generator_limits(1, cores + 1).is_err());
    }

    #[test]
    fn cancel_of_a_pending_submit_closes_it() {
        let ops = Ops {
            msgs: vec![
                Spec::by_name("service_mix").unwrap().build_ops(1, 1).msgs[0].clone(),
                ClientMsg::Cancel { id: 0 },
                ClientMsg::Query { id: 0 },
            ],
            submit_op: vec![0],
        };
        let mut t = Tracker::new(&ops);
        t.on_reply(ServerMsg::CancelResult { id: 0, freed: true }, 10);
        assert_eq!(t.dec[0], Dec::Closed);
        assert_eq!(t.replied, 2, "the cancel and the submit it voided");
        assert_eq!(t.recv_ns, vec![10, 10, NO_REPLY]);
        // A decision arriving after all is a second answer: stray.
        t.on_reply(
            ServerMsg::Rejected {
                id: 0,
                reason: RejectReason::Saturated,
                retry_after: None,
            },
            11,
        );
        assert_eq!(t.stray, 1);
        t.on_reply(
            ServerMsg::Status {
                id: 0,
                state: ReqState::Cancelled,
                alloc: None,
            },
            12,
        );
        assert_eq!((t.replied, t.stray), (3, 1));
    }

    #[test]
    fn replies_for_unknown_ids_and_refusals_do_not_count_as_served() {
        let ops = Spec::by_name("wire_flood").unwrap().build_ops(1, 4);
        let mut t = Tracker::new(&ops);
        t.on_reply(
            ServerMsg::Accepted {
                id: 9,
                bw: 1.0,
                start: 0.0,
                finish: 1.0,
            },
            1,
        );
        assert_eq!((t.stray, t.replied), (1, 0));
        t.on_reply(
            ServerMsg::Rejected {
                id: 1,
                reason: RejectReason::QueueFull,
                retry_after: None,
            },
            2,
        );
        assert!(!t.dec[1].served());
        assert!(Dec::Rejected(RejectReason::Saturated).served());
        assert!(!Dec::None.served());
    }
}
