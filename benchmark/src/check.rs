//! Output checks: what the daemon answered against an in-process
//! reference replay, the accepted set against constraint (1), and the
//! per-grant and counter sanity checks of the real-time workload.

use crossbeam::channel;
use gridband_net::Route;
use gridband_serve::engine::{Command, ReplySink};
use gridband_serve::metrics::StatsSnapshot;
use gridband_serve::protocol::{ClientMsg, ReqState, ServerMsg};
use gridband_serve::{Engine, StoreConfig};
use gridband_sim::{verify_schedule, Assignment};
use gridband_store::EngineSnapshot;
use gridband_workload::{Request, RequestId, TimeWindow, Trace};

use crate::client::{Dec, Tracker};
use crate::spec::{Ops, Spec};

/// Accepted reservations handed to the constraint audit. The audit
/// books each one into a ledger that never forgets, so its cost grows
/// with the square of the count; this many take under a second.
const AUDIT_MAX: usize = 20_000;

/// An in-process engine configured like the daemon, fed `Command`s
/// through its public channel: the reference the daemon's answers are
/// compared with, and the black box of the traced run.
pub struct InProcess {
    engine: Engine,
    tx: channel::Sender<Command>,
    sink: ReplySink,
    replies: channel::Receiver<ServerMsg>,
}

impl InProcess {
    pub fn spawn(spec: &Spec, store: Option<StoreConfig>) -> Result<InProcess, String> {
        let engine = Engine::try_spawn(spec.engine_config(store)).map_err(|e| e.to_string())?;
        // Unbounded, and drained after every send: the engine drops
        // replies to a full channel rather than wait for its client.
        let (reply_tx, replies) = channel::unbounded();
        Ok(InProcess {
            tx: engine.sender(),
            engine,
            sink: ReplySink::from(reply_tx),
            replies,
        })
    }

    fn send(&self, msg: ClientMsg) -> Result<(), String> {
        self.tx
            .send(Command::Client {
                msg,
                reply: self.sink.clone(),
            })
            .map_err(|_| "in-process engine stopped".to_string())
    }

    /// Send every op, then `Drain`; hand each reply but the final
    /// `Draining` to `on_reply` as it arrives.
    pub fn feed(
        &self,
        msgs: &[ClientMsg],
        mut on_reply: impl FnMut(ServerMsg),
    ) -> Result<(), String> {
        for msg in msgs {
            self.send(msg.clone())?;
            self.replies.try_iter().for_each(&mut on_reply);
        }
        self.send(ClientMsg::Drain)?;
        loop {
            match self.replies.recv() {
                Ok(ServerMsg::Draining { .. }) => return Ok(()),
                Ok(reply) => on_reply(reply),
                Err(_) => return Err("in-process engine stopped before draining".to_string()),
            }
        }
    }

    /// One request, one reply, nothing else in flight.
    pub fn call(&self, msg: ClientMsg) -> Result<ServerMsg, String> {
        self.send(msg)?;
        self.replies
            .recv()
            .map_err(|_| "in-process engine stopped".to_string())
    }

    /// The engine's durable state, as a snapshot would capture it.
    pub fn export(&self) -> Result<EngineSnapshot, String> {
        let (reply, snapshot) = channel::bounded(1);
        self.tx
            .send(Command::Export { reply })
            .map_err(|_| "in-process engine stopped".to_string())?;
        snapshot
            .recv()
            .map_err(|_| "in-process engine stopped".to_string())
    }

    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}

/// Replay the first `upto` ops through an in-process engine and return
/// its decision per submit id and the state each query saw.
/// Virtual-clock workloads only: one connection feeding a virtual clock
/// is deterministic, so the daemon must agree bit for bit.
pub fn reference(spec: &Spec, ops: &Ops, upto: usize) -> Result<(Vec<Dec>, Vec<ReqState>), String> {
    let engine = InProcess::spawn(spec, None)?;
    let mut tracker = Tracker::new(ops);
    engine.feed(&ops.msgs[..upto], |reply| tracker.on_reply(reply, 0))?;
    engine.shutdown();
    Ok((tracker.dec, tracker.query_states))
}

/// Constraint (1) over the accepted set: every grant inside its window,
/// at most `MaxRate`, carrying the volume, and no port over capacity at
/// any instant. Audits the first [`AUDIT_MAX`] accepted requests — a
/// subset of a feasible schedule is feasible, so a violation found here
/// is real and none is missed among those audited.
pub fn audit_schedule(spec: &Spec, ops: &Ops, dec: &[Dec]) -> Result<usize, String> {
    let mut requests = Vec::new();
    let mut assignments = Vec::new();
    for (id, d) in dec.iter().enumerate() {
        let Dec::Accepted { bw, start, finish } = *d else {
            continue;
        };
        if assignments.len() == AUDIT_MAX {
            break;
        }
        let s = ops.submit(id as u64);
        let (Some(t_s), Some(t_f)) = (s.start, s.deadline) else {
            return Err(format!(
                "submit {id} has no explicit window to audit against"
            ));
        };
        requests.push(Request::new(
            s.id,
            Route::new(s.ingress, s.egress),
            TimeWindow::new(t_s, t_f),
            s.volume,
            s.max_rate,
        ));
        assignments.push(Assignment {
            id: RequestId(s.id),
            bw: f64::from_bits(bw),
            start: f64::from_bits(start),
            finish: f64::from_bits(finish),
        });
    }
    verify_schedule(&Trace::new(requests), &spec.topology, &assignments).map_err(|v| {
        format!(
            "{} constraint violations, first: {}",
            v.len(),
            v.first().map(|x| x.to_string()).unwrap_or_default()
        )
    })?;
    Ok(assignments.len())
}

/// Per-grant sanity for the real-time workload, whose decisions depend
/// on wall-clock arrival and have no reference: a rigid grant runs at
/// most at `MaxRate` and carries the volume; a malleable plan peaks at
/// most at `MaxRate` and carries at least the volume (less the solver's
/// stated tolerance). Returns the number of grants that fail.
pub fn grant_violations(ops: &Ops, dec: &[Dec]) -> usize {
    let tol = |x: f64| 1e-6 * x.max(1.0);
    dec.iter()
        .enumerate()
        .filter(|(id, d)| {
            let s = ops.submit(*id as u64);
            match **d {
                Dec::Accepted { bw, start, finish } => {
                    let (bw, start, finish) = (
                        f64::from_bits(bw),
                        f64::from_bits(start),
                        f64::from_bits(finish),
                    );
                    !(bw > 0.0
                        && bw <= s.max_rate + tol(s.max_rate)
                        && bw * (finish - start) >= s.volume - tol(s.volume))
                }
                Dec::Segments { peak, volume, .. } => {
                    !(peak <= s.max_rate + tol(s.max_rate) && volume >= s.volume - tol(s.volume))
                }
                _ => false,
            }
        })
        .count()
}

/// The daemon's own counters after a `service_mix` run must balance
/// with what the client saw, and the counters that mean lost work or a
/// broken guarantee must be zero.
pub fn stats_violations(stats: &StatsSnapshot, tracker: &Tracker, ops: &Ops) -> Vec<String> {
    let mut bad = Vec::new();
    let mut want = |name: &str, got: u64, expect: u64| {
        if got != expect {
            bad.push(format!("{name} = {got}, expected {expect}"));
        }
    };
    let count = |f: fn(&Dec) -> bool| tracker.dec.iter().filter(|d| f(d)).count() as u64;
    let queries = ops
        .msgs
        .iter()
        .filter(|m| matches!(m, ClientMsg::Query { .. }))
        .count() as u64;
    want("submitted", stats.submitted, ops.submit_op.len() as u64);
    want(
        "accepted",
        stats.accepted,
        count(|d| matches!(d, Dec::Accepted { .. } | Dec::Segments { .. })),
    );
    want(
        "rejected + refused_early",
        stats.rejected + stats.refused_early,
        count(|d| matches!(d, Dec::Rejected(_))),
    );
    want("cancelled", stats.cancelled, tracker.freed.len() as u64);
    want("queries", stats.queries, queries);
    want("replies_dropped", stats.replies_dropped, 0);
    want("queue_full", stats.queue_full, 0);
    want("protocol_errors", stats.protocol_errors, 0);
    want("qos_oversubscriptions", stats.qos_oversubscriptions, 0);
    want("qos_finish_violations", stats.qos_finish_violations, 0);
    bad
}
