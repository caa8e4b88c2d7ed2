//! The four workloads: what the daemon is started with, what the
//! in-process engine is configured with, and the op stream built from
//! `--seed`. README.md gives the reason each one exists.

use std::path::Path;
use std::time::Duration;

use gridband_net::Topology;
use gridband_serve::protocol::{ClientMsg, ServiceClass, SubmitReq};
use gridband_serve::{EngineConfig, StoreConfig, TimeMode};
use gridband_workload::{Dist, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `--queue` every daemon is started with: larger than any window the
/// generator keeps in flight, so a `QueueFull` bounce is a failure of
/// the daemon and never an artefact of the load.
pub const QUEUE: usize = 65_536;

/// A cancel only targets submits at least this many submits old. A
/// cancel landing on a still-pending submit suppresses that submit's
/// decision reply; at this age the target was decided many rounds ago.
pub const CANCEL_MIN_AGE: usize = 3_000;

/// On the closed loops one op in this many is a `Query` of an earlier
/// submit. It waits in the same queues as the submits around it but
/// for no admission round, which is what `query_p50_us` times.
const QUERY_EVERY: usize = 64;
const QUERY_REACH: u64 = 65_536;

/// Share of `service_mix` ops that are submits / queries (the rest are
/// cancels), and the share of submits asking for a malleable grant.
const MIX_SUBMIT: f64 = 0.70;
const MIX_QUERY: f64 = 0.25;
const MIX_MALLEABLE: f64 = 0.15;

/// How the generator drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Keep `window` ops in flight; more go out only as replies free
    /// slots, so a slower daemon receives less load.
    Closed { window: usize },
    /// Op `i` is due `i / rate` seconds after the start whatever the
    /// daemon does; sends are late, never skipped.
    Open { rate: f64 },
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    topo_flag: &'static str,
    pub topology: Topology,
    pub step: f64,
    /// Real-time round period; `None` is the virtual clock.
    pub tick_ms: Option<u64>,
    /// Run with `--wal-dir --fsync off` and the default snapshot cadence.
    pub wal: bool,
    gc_horizon: Option<f64>,
    malleable: bool,
    qos: bool,
    pub drive: Drive,
    /// Ops sent before timing starts; their cost is part of `setup_s`.
    pub warm_ops: usize,
    /// Ops built per measured second on a closed loop: about twice
    /// what the daemon sustains on the calibration host, so the pool
    /// outlasts `--seconds` unless a later change doubles throughput.
    pool_per_s: usize,
    /// Ops the traced run pushes through the layers.
    pub trace_ops: usize,
}

pub const NAMES: [&str; 4] = [
    "wire_flood",
    "ledger_dense",
    "durable_rounds",
    "service_mix",
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        let paper = Topology::paper_default();
        Some(match name {
            "wire_flood" => Spec {
                name: "wire_flood",
                why: "3% accepted, ~300 live reservations, no WAL: per-message wire/channel/I-O cost is nearly all the work, so codec and I-O-loop changes move it and ledger or store changes must not",
                topo_flag: "paper",
                topology: paper,
                step: 50.0,
                tick_ms: None,
                wal: false,
                gc_horizon: None,
                malleable: false,
                qos: false,
                drive: Drive::Closed { window: 8192 },
                warm_ops: 100_000,
                pool_per_s: 300_000,
                trace_ops: 200_000,
            },
            "ledger_dense" => Spec {
                name: "ledger_dense",
                why: "97% accepted long transfers on 4x4 ports keep thousands of live reservations and breakpoints per port: algos+net dominate, in the large-profile regime the index and batched booking are for",
                topo_flag: "4x4x1000",
                topology: Topology::uniform(4, 4, 1000.0),
                step: 50.0,
                tick_ms: None,
                wal: false,
                gc_horizon: None,
                malleable: false,
                qos: false,
                drive: Drive::Closed { window: 8192 },
                warm_ops: 20_000,
                pool_per_s: 40_000,
                trace_ops: 40_000,
            },
            "durable_rounds" => Spec {
                name: "durable_rounds",
                why: "under two submits per round with a WAL record each and the default snapshot cadence: store encode/append/snapshot is nearly all the work; ends with SIGKILL and cold restarts over the WAL",
                topo_flag: "paper",
                topology: paper,
                step: 50.0,
                tick_ms: None,
                wal: true,
                gc_horizon: None,
                malleable: false,
                qos: false,
                drive: Drive::Closed { window: 256 },
                warm_ops: 2_000,
                pool_per_s: 30_000,
                trace_ops: 40_000,
            },
            "service_mix" => Spec {
                name: "service_mix",
                why: "the only wall-clock run: open loop at a fixed rate with submits, queries and cancels, WAL, GC, QoS and malleable grants all on, so it has tails and uses every layer beside the others",
                topo_flag: "paper",
                topology: paper,
                step: 1.0,
                tick_ms: Some(5),
                wal: true,
                gc_horizon: Some(50.0),
                malleable: true,
                qos: true,
                // A third of the engine thread's time: at half, the
                // median inline query flips between finding the engine
                // idle and waiting out a round, and a 1.3x drift in host
                // speed doubles it.
                drive: Drive::Open { rate: 8_000.0 },
                warm_ops: 4_000,
                pool_per_s: 8_000,
                trace_ops: 24_000,
            },
            _ => return None,
        })
    }

    /// Ops one run needs: warm-up plus what `seconds` of measuring can
    /// consume.
    pub fn pool(&self, seconds: f64) -> usize {
        self.warm_ops + (self.pool_per_s as f64 * seconds).ceil() as usize
    }

    /// Arguments after `gridband serve` (the caller adds nothing else).
    pub fn daemon_args(&self, wal_dir: Option<&Path>) -> Vec<String> {
        let mut a: Vec<String> = ["--addr", "127.0.0.1:0", "--topo", self.topo_flag]
            .iter()
            .map(|s| s.to_string())
            .collect();
        a.extend(["--step".to_string(), self.step.to_string()]);
        a.extend(["--queue".to_string(), QUEUE.to_string()]);
        if let Some(ms) = self.tick_ms {
            a.extend(["--tick-ms".to_string(), ms.to_string()]);
        }
        if let Some(dir) = wal_dir {
            a.extend(["--wal-dir".to_string(), dir.display().to_string()]);
            // No fsync per round: the benchmark may write only inside
            // its checkout, whose disk's flush time (150 µs to 400 µs
            // here, drifting by the hour) would be 45 % of the run.
            // Appends still go through write(2) and snapshots are
            // still flushed, which the daemon does whatever the policy.
            a.extend(["--fsync".to_string(), "off".to_string()]);
        }
        if let Some(h) = self.gc_horizon {
            a.extend(["--gc-horizon".to_string(), h.to_string()]);
        }
        if self.malleable {
            a.push("--malleable".to_string());
        }
        if self.qos {
            a.push("--qos".to_string());
        }
        a
    }

    /// The same configuration for an in-process engine. Always on the
    /// virtual clock: the reference replay and the traced run must be
    /// deterministic, and `service_mix` ops carry explicit virtual
    /// start times there (see [`stamp_virtual`]).
    pub fn engine_config(&self, store: Option<StoreConfig>) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.topology.clone());
        cfg.step = self.step;
        cfg.mode = TimeMode::Virtual;
        cfg.queue_capacity = QUEUE;
        cfg.gc_horizon = self.gc_horizon;
        cfg.malleable = self.malleable;
        cfg.qos = self.qos.then(Default::default);
        cfg.store = store;
        cfg
    }

    pub fn tick(&self) -> Option<Duration> {
        self.tick_ms.map(Duration::from_millis)
    }

    /// Virtual seconds the real-time daemon advances per wall second.
    fn virtual_per_wall(&self) -> f64 {
        self.tick_ms
            .map_or(1.0, |ms| self.step * 1000.0 / ms as f64)
    }

    /// Build the first `n` ops of the stream for `seed`.
    pub fn build_ops(&self, seed: u64, n: usize) -> Ops {
        match self.name {
            "wire_flood" => poisson_submits(
                &self.topology,
                seed,
                n,
                1.0,
                Dist::paper_volumes(),
                Dist::paper_rates(),
                Dist::Uniform { lo: 2.0, hi: 4.0 },
            ),
            "ledger_dense" => poisson_submits(
                &self.topology,
                seed,
                n,
                5.0,
                Dist::Uniform {
                    lo: 10_000.0,
                    hi: 30_000.0,
                },
                Dist::Uniform { lo: 0.5, hi: 2.0 },
                Dist::Uniform { lo: 1.5, hi: 3.0 },
            ),
            "durable_rounds" => poisson_submits(
                &self.topology,
                seed,
                n,
                30.0,
                Dist::paper_volumes(),
                Dist::paper_rates(),
                Dist::Uniform { lo: 2.0, hi: 4.0 },
            ),
            _ => self.mixed_ops(seed, n),
        }
    }

    /// `service_mix`: submits (some malleable, classes 1:1:1, start and
    /// deadline left to the daemon), queries of earlier submits, and
    /// cancels of old ones. Mean volume puts the offered load at 0.9 of
    /// half the total capacity at the rate the daemon's clock runs.
    fn mixed_ops(&self, seed: u64, n: usize) -> Ops {
        let Drive::Open { rate } = self.drive else {
            unreachable!("the mixed stream is the open-loop workload's")
        };
        let submits_per_virtual_s = MIX_SUBMIT * rate / self.virtual_per_wall();
        let mean_volume = 0.9 * self.topology.half_total_cap() / submits_per_virtual_s;
        let volumes = Dist::Uniform {
            lo: 0.5 * mean_volume,
            hi: 1.5 * mean_volume,
        };
        let rates = Dist::Uniform { lo: 2.0, hi: 20.0 };
        let (m, e) = (
            self.topology.num_ingress() as u32,
            self.topology.num_egress() as u32,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Ops::default();
        let mut cancelled: Vec<bool> = Vec::new();
        for i in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            let sent = ops.submit_op.len();
            let msg = if u < MIX_SUBMIT || sent == 0 {
                let ingress = rng.gen_range(0..m);
                let egress = loop {
                    let x = rng.gen_range(0..e);
                    if x != ingress {
                        break x;
                    }
                };
                ops.submit_op.push(i as u32);
                cancelled.push(false);
                ClientMsg::Submit(SubmitReq {
                    id: sent as u64,
                    ingress,
                    egress,
                    volume: volumes.sample(&mut rng),
                    max_rate: rates.sample(&mut rng),
                    start: None,
                    deadline: None,
                    class: [
                        ServiceClass::Gold,
                        ServiceClass::Silver,
                        ServiceClass::BestEffort,
                    ][rng.gen_range(0..3usize)],
                    malleable: (rng.gen_range(0.0..1.0) < MIX_MALLEABLE).then_some(true),
                })
            } else {
                let target = (u >= MIX_SUBMIT + MIX_QUERY && sent > CANCEL_MIN_AGE)
                    .then(|| rng.gen_range(0..sent - CANCEL_MIN_AGE))
                    .filter(|&id| !std::mem::replace(&mut cancelled[id], true));
                match target {
                    Some(id) => ClientMsg::Cancel { id: id as u64 },
                    // A second cancel of one id would report `freed:
                    // false`; ask about a random earlier submit instead.
                    None => ClientMsg::Query {
                        id: rng.gen_range(0..sent) as u64,
                    },
                }
            };
            ops.msgs.push(msg);
        }
        ops
    }

    /// Give every submit of a real-time stream the virtual start time
    /// it would meet in the daemon (op `i` goes out at `i / rate` wall
    /// seconds), so an in-process virtual-clock engine batches them
    /// into rounds of the same size.
    pub fn stamp_virtual(&self, ops: &mut Ops) {
        let Drive::Open { rate } = self.drive else {
            return;
        };
        let per_op = self.virtual_per_wall() / rate;
        for (i, msg) in ops.msgs.iter_mut().enumerate() {
            if let ClientMsg::Submit(s) = msg {
                s.start = Some(i as f64 * per_op);
            }
        }
    }
}

/// The op stream of one run. Submit ids are `0..submits` in send order.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    pub msgs: Vec<ClientMsg>,
    /// Op index of each submit id.
    pub submit_op: Vec<u32>,
}

impl Ops {
    /// Keep only the first `n` ops.
    pub fn truncate(&mut self, n: usize) {
        self.msgs.truncate(n);
        self.submit_op.retain(|&op| (op as usize) < n);
    }

    pub fn submit(&self, id: u64) -> &SubmitReq {
        match &self.msgs[self.submit_op[id as usize] as usize] {
            ClientMsg::Submit(s) => s,
            other => unreachable!("submit_op points at {other:?}"),
        }
    }
}

/// Submits with explicit windows from the paper's Poisson generator,
/// ids in arrival order, with a query after every 63rd.
fn poisson_submits(
    topo: &Topology,
    seed: u64,
    n: usize,
    interarrival: f64,
    volumes: Dist,
    rates: Dist,
    slack: Dist,
) -> Ops {
    // Long enough that the Poisson count exceeds `n` (mean + 6 sigma).
    let arrivals = n as f64 + 6.0 * (n as f64).sqrt() + 16.0;
    let trace = WorkloadBuilder::new(topo.clone())
        .mean_interarrival(interarrival)
        .volumes(volumes)
        .max_rates(rates)
        .slack(slack)
        .horizon(arrivals * interarrival)
        .seed(seed)
        .build();
    assert!(
        trace.len() >= n,
        "generator produced {} < {n} requests",
        trace.len()
    );
    let mut ops = Ops::default();
    let mut requests = trace.iter();
    for i in 0..n {
        let sent = ops.submit_op.len() as u64;
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            // A recent submit, picked by a fixed hash of the op index;
            // recent, because the daemon forgets the outcome of
            // requests more than its history capacity (2^20) back.
            let pick = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            let id = sent - 1 - pick % sent.min(QUERY_REACH);
            ops.msgs.push(ClientMsg::Query { id });
            continue;
        }
        let r = requests.next().expect("trace holds n requests");
        ops.submit_op.push(i as u32);
        ops.msgs.push(ClientMsg::Submit(SubmitReq {
            id: sent,
            ingress: r.route.ingress.0,
            egress: r.route.egress.0,
            volume: r.volume,
            max_rate: r.max_rate,
            start: Some(r.start()),
            deadline: Some(r.finish()),
            class: ServiceClass::Silver,
            malleable: None,
        }));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_prefix_stable() {
        for name in NAMES {
            let spec = Spec::by_name(name).unwrap();
            let a = spec.build_ops(7, 5_000);
            let b = spec.build_ops(7, 5_000);
            let c = spec.build_ops(8, 5_000);
            assert_eq!(a.msgs, b.msgs, "{name}");
            assert_ne!(a.msgs, c.msgs, "{name}");
        }
    }

    #[test]
    fn submit_ids_are_dense_and_mapped() {
        for name in NAMES {
            let ops = Spec::by_name(name).unwrap().build_ops(3, 20_000);
            for (id, &op) in ops.submit_op.iter().enumerate() {
                assert_eq!(ops.submit(id as u64).id, id as u64, "{name} op {op}");
            }
        }
    }

    #[test]
    fn cancels_target_old_submits_once() {
        let ops = Spec::by_name("service_mix").unwrap().build_ops(1, 60_000);
        let mut sent = 0usize;
        let mut seen = std::collections::HashSet::new();
        let mut cancels = 0;
        for m in &ops.msgs {
            match m {
                ClientMsg::Submit(_) => sent += 1,
                ClientMsg::Cancel { id } => {
                    cancels += 1;
                    assert!(
                        sent - *id as usize > CANCEL_MIN_AGE,
                        "cancel of a young submit"
                    );
                    assert!(seen.insert(*id), "id {id} cancelled twice");
                }
                ClientMsg::Query { id } => assert!((*id as usize) < sent),
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(cancels > 1_000, "only {cancels} cancels in 60k ops");
        let share = sent as f64 / ops.msgs.len() as f64;
        assert!((share - MIX_SUBMIT).abs() < 0.02, "submit share {share}");
    }
}
