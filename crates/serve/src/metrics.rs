//! Lock-free daemon metrics: atomic counters plus log2-bucketed latency
//! histograms, snapshotted into a serializable [`StatsSnapshot`] for the
//! `Stats` RPC and the periodic JSON dump.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::protocol::{ServiceClass, PROTOCOL_VERSION};
use crate::state::ReplayTally;
use crate::wire::Wire;

/// Which replication role this daemon is playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Standalone daemon: no replication configured.
    #[default]
    Solo,
    /// Serving clients and shipping its WAL to a follower.
    Primary,
    /// Mirroring a primary's WAL; read-only until promoted.
    Follower,
    /// One shard primary of a topology-sharded cluster: serving the
    /// routed slice of the port space (and possibly replicating to its
    /// own standby).
    Shard,
}

impl Role {
    /// Wire string for the `Stats` reply
    /// (`solo`/`primary`/`follower`/`shard`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Solo => "solo",
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Shard => "shard",
        }
    }

    fn from_u64(v: u64) -> Role {
        match v {
            1 => Role::Primary,
            2 => Role::Follower,
            3 => Role::Shard,
            _ => Role::Solo,
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            Role::Solo => 0,
            Role::Primary => 1,
            Role::Follower => 2,
            Role::Shard => 3,
        }
    }
}

/// Process start time with a `Default` impl, so [`MetricsRegistry`] can
/// keep deriving `Default`.
#[derive(Debug)]
struct StartClock(Instant);

impl Default for StartClock {
    fn default() -> Self {
        StartClock(Instant::now())
    }
}

/// A gauge holding an optional virtual time as raw f64 bits. The unset
/// state is negative infinity (not zero — `0.0` is a legitimate time),
/// matching the ledger's in-memory watermark sentinel.
#[derive(Debug)]
pub struct TimeGauge(AtomicU64);

impl Default for TimeGauge {
    fn default() -> Self {
        TimeGauge(AtomicU64::new(f64::NEG_INFINITY.to_bits()))
    }
}

impl TimeGauge {
    /// Store a new value (callers only ever pass finite times).
    pub fn set(&self, t: f64) {
        self.0.store(t.to_bits(), Ordering::Relaxed);
    }

    /// The stored time, or `None` while unset.
    pub fn get(&self) -> Option<f64> {
        let t = f64::from_bits(self.0.load(Ordering::Relaxed));
        t.is_finite().then_some(t)
    }
}

/// Number of power-of-two latency buckets: bucket `k` holds samples in
/// `[2^k, 2^(k+1))` microseconds, so 40 buckets span ~1 µs to ~13 days.
const BUCKETS: usize = 40;

/// Concurrent histogram of durations with power-of-two microsecond
/// buckets. Recording is one atomic add; percentiles are approximate
/// (upper bucket bound), which is plenty for service latency reporting.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) in milliseconds: the upper
    /// bound of the bucket containing the `q`-th sample.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket k is 2^k µs (bucket 0 is [0, 1)).
                return (1u64 << k) as f64 / 1000.0;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64 / 1000.0
    }

    /// Mean sample in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
        }
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count(),
            mean_ms: self.mean_ms(),
            p50_ms: self.quantile_ms(0.50),
            p95_ms: self.quantile_ms(0.95),
            p99_ms: self.quantile_ms(0.99),
        }
    }
}

/// Point-in-time view of one latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize, Wire)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms, bucket upper bound).
    pub p50_ms: f64,
    /// 95th percentile latency (ms, bucket upper bound).
    pub p95_ms: f64,
    /// 99th percentile latency (ms, bucket upper bound).
    pub p99_ms: f64,
}

/// Expands the counter table below into [`MetricsRegistry`],
/// [`StatsSnapshot`] and the conversions between the two. `@sort` walks
/// the table once to collect the registry's atomics and the values
/// `snapshot` is passed; `@emit` then writes every item, reading the
/// whole table in order.
macro_rules! stats_block {
    (@sort [$($reg:tt)*] [$($arg:ident)*] [$($table:tt)*]) => {
        stats_block!(@emit [$($reg)*] [$($arg)*] $($table)*);
    };
    (@sort [$($reg:tt)*] [$($arg:ident)*] [$($table:tt)*]
        $(#[$m:meta])* $name:ident: counter, $($rest:tt)*) => {
        stats_block!(@sort [$($reg)* $(#[$m])* $name,] [$($arg)*] [$($table)*] $($rest)*);
    };
    (@sort [$($reg:tt)*] [$($arg:ident)*] [$($table:tt)*]
        $(#[$m:meta])* $name:ident: passed, $($rest:tt)*) => {
        stats_block!(@sort [$($reg)*] [$($arg)* $name] [$($table)*] $($rest)*);
    };
    (@sort [$($reg:tt)*] [$($arg:ident)*] [$($table:tt)*]
        $(#[$m:meta])* $name:ident: reserved($v:expr), $($rest:tt)*) => {
        stats_block!(@sort [$($reg)*] [$($arg)*] [$($table)*] $($rest)*);
    };
    (@slot $s:ident $name:ident counter) => { $s.$name.load(Ordering::Relaxed) };
    (@slot $s:ident $name:ident passed) => { $name };
    (@slot $s:ident $name:ident reserved($v:expr)) => { $v };
    (@emit [$($(#[$rm:meta])* $reg:ident,)*] [$($arg:ident)*]
        $($(#[$m:meta])* $name:ident: $kind:ident $(($v:expr))?,)*) => {
        /// All daemon counters and histograms. One instance is shared (via
        /// `Arc`) between the listener, every connection thread, and the
        /// engine.
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $($(#[$rm])* pub $reg: AtomicU64,)*
            /// Current GC watermark (gauge; unset until the first sweep).
            pub gc_watermark: TimeGauge,
            /// Submit → decision latency.
            pub decision_latency: LatencyHistogram,
            /// WAL fsync latency (per append or per round, by policy).
            pub fsync: LatencyHistogram,
            /// Replication role (see [`Role`]; gauge, stored as its `as_u64`).
            pub role: AtomicU64,
            /// Process start, for `uptime_s`.
            started: StartClock,
        }

        impl MetricsRegistry {
            /// The counter block as of now, in wire order.
            fn block(&self, $($arg: u64),*) -> [u64; StatsSnapshot::N] {
                [$(stats_block!(@slot self $name $kind $(($v))?)),*]
            }
        }

        /// Serializable metrics snapshot returned by the `Stats` RPC and
        /// written by the periodic JSON dump.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct StatsSnapshot {
            /// Replication role: `solo`, `primary`, `follower`, or `shard`.
            pub role: String,
            /// Seconds this daemon has been up.
            pub uptime_s: u64,
            /// Wire protocol version the daemon speaks.
            pub protocol_version: u32,
            $($(#[$m])* pub $name: u64,)*
            /// Engine virtual clock (seconds).
            pub virtual_time: f64,
            /// Current GC watermark (absent until the first sweep, or when
            /// `--gc-horizon` is off).
            pub gc_watermark: Option<f64>,
            /// Submit → decision latency distribution.
            pub decision_latency: LatencySnapshot,
            /// WAL fsync latency distribution.
            pub fsync: LatencySnapshot,
        }

        impl StatsSnapshot {
            /// Slots in the counter block.
            pub const N: usize = [$(stringify!($name)),*].len();

            /// The counter block, in wire order.
            pub(crate) fn counters(&self) -> [u64; Self::N] {
                [$(self.$name),*]
            }

            /// A snapshot holding the counter block `c` and an empty header
            /// and trailer, for callers to fill in with `..` struct update.
            pub fn from_counters(c: [u64; Self::N]) -> StatsSnapshot {
                let [$($name),*] = c;
                StatsSnapshot {
                    $($name,)*
                    ..StatsSnapshot::default()
                }
            }
        }
    };
    ($($table:tt)*) => {
        stats_block!(@sort [] [] [$($table)*] $($table)*);
    };
}

// The `Stats` counter block: one line per `u64` slot, in v3 wire order,
// which is also the JSON field order. Appending a line therefore grows
// the positional binary frame and needs a `WIRE_VERSION`/
// `PROTOCOL_VERSION` bump until ROADMAP 7(a) makes `Stats`
// self-describing. A line is one of:
//
// * `name: counter` — an `AtomicU64` in the registry (a counter, or a
//   gauge where its doc says so), loaded by `snapshot`;
// * `name: reserved(v)` — a constant kept only for the frame layout;
// * `name: passed` — a value the caller of `snapshot` passes in.
stats_block! {
    /// Submissions received (before validation).
    submitted: counter,
    /// Submissions admitted by an admission round.
    accepted: counter,
    /// Submissions refused by an admission round.
    rejected: counter,
    /// Submissions refused before queueing (validation, queue-full, drain).
    refused_early: counter,
    /// Cancels that freed a live reservation or voided a pending submission.
    cancelled: counter,
    /// Query requests served.
    queries: counter,
    /// Submissions bounced because the engine queue was full.
    queue_full: counter,
    /// Lines that failed to parse or carried a bad version.
    protocol_errors: counter,
    /// Connections accepted over the daemon lifetime.
    connections: counter,
    /// Connections that spoke the JSON-lines codec.
    conns_json: counter,
    /// Connections that spoke the binary codec (sent the `GBWIR01\n` preamble).
    conns_binary: counter,
    /// Admission rounds (ticks) executed.
    ticks: counter,
    /// Expired reservations garbage-collected from the ledger.
    gc_reclaimed: counter,
    /// Engine replies dropped because a connection's reply queue was full.
    replies_dropped: counter,
    /// Records appended to the write-ahead log.
    wal_appends: counter,
    /// Framed bytes appended to the write-ahead log.
    wal_bytes: counter,
    /// Snapshots installed (each truncates the log).
    snapshots_written: counter,
    /// WAL records replayed during recovery at startup.
    recovery_replayed_records: counter,
    /// Always 1. Reserved; removed by ROADMAP 7(a)'s self-describing Stats.
    admit_threads: reserved(1),
    /// Always 0. Reserved; removed by ROADMAP 7(a)'s self-describing Stats.
    shards: reserved(0),
    /// Always 0. Reserved; removed by ROADMAP 7(a)'s self-describing Stats.
    largest_shard: reserved(0),
    /// Primary: WAL records shipped to the follower.
    repl_records_shipped: counter,
    /// Primary: framed record bytes shipped.
    repl_bytes_shipped: counter,
    /// Primary: snapshots shipped (initial sync and re-syncs).
    repl_snapshots_shipped: counter,
    /// Primary: sequence number of the last frame sent (gauge).
    repl_shipped_seq: counter,
    /// Primary: sequence number of the last follower ack (gauge).
    repl_acked_seq: counter,
    /// Primary: 1 while the follower has applied everything shipped (gauge).
    repl_synced: counter,
    /// Follower: records applied to the local mirror.
    repl_records_applied: counter,
    /// Follower: framed record bytes applied.
    repl_bytes_applied: counter,
    /// Follower: snapshots installed from the stream.
    repl_snapshots_applied: counter,
    /// Follower: resync requests sent after a gap or loss.
    repl_resyncs: counter,
    /// Follower: duplicate/stale frames discarded.
    repl_frames_discarded: counter,
    /// Follower: frames dropped for CRC or decode damage.
    repl_frames_damaged: counter,
    /// Follower: state-hash beacons verified against local replay.
    repl_beacons_checked: counter,
    /// Follower: beacon mismatches, i.e. replica divergence (must stay 0).
    repl_divergence: counter,
    /// Two-phase holds placed on this shard (prepare steps).
    holds_placed: counter,
    /// Two-phase holds committed.
    holds_committed: counter,
    /// Two-phase holds released by an explicit abort.
    holds_released: counter,
    /// Two-phase holds released by the expiry sweep (a lost ack or commit).
    holds_expired: counter,
    /// Accepted submissions whose class was `Gold`.
    accepted_gold: counter,
    /// Accepted submissions whose class was `Silver` (the default).
    accepted_silver: counter,
    /// Accepted submissions whose class was `BestEffort`.
    accepted_besteffort: counter,
    /// QoS overlay: rounds that granted at least one boost.
    qos_boost_rounds: counter,
    /// QoS overlay: megabytes moved above guaranteed rates, rounded down (gauge).
    qos_boosted_mb: counter,
    /// QoS overlay: transfers finished before their guaranteed finish.
    qos_early_releases: counter,
    /// QoS overlay: guaranteed-finish violations found by the verifier (must stay 0).
    qos_finish_violations: counter,
    /// QoS overlay: port oversubscriptions found by the verifier (must stay 0).
    qos_oversubscriptions: counter,
    /// Submissions that asked for a malleable (variable-rate) reservation.
    submitted_malleable: counter,
    /// Malleable submissions granted a segmented plan.
    accepted_malleable: counter,
    /// Malleable submissions refused by an admission round.
    rejected_malleable: counter,
    /// `Amend` requests received (mid-flight renegotiations).
    amend_requests: counter,
    /// Amends granted (plan atomically replaced).
    amends_granted: counter,
    /// Amends rejected (original plan left untouched).
    amends_rejected: counter,
    /// Submissions awaiting the next round.
    pending: passed,
    /// Live (unexpired, uncancelled) reservations.
    live_reservations: passed,
    /// Profile breakpoints dropped by watermark GC (live sweeps and replay).
    gc_truncated_bps: counter,
    /// Breakpoints held across all port profiles, refreshed each round (gauge).
    breakpoints_live: counter,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: bump a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience: bump a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one accepted submission: `accepted` and its class's counter.
    pub fn record_accept(&self, class: ServiceClass) {
        Self::inc(&self.accepted);
        Self::inc(match class {
            ServiceClass::Gold => &self.accepted_gold,
            ServiceClass::Silver => &self.accepted_silver,
            ServiceClass::BestEffort => &self.accepted_besteffort,
        });
    }

    /// Count one write-ahead-log append of `bytes` framed bytes, and its
    /// fsync latency when the policy flushed.
    pub fn record_wal_append(&self, bytes: u64, fsync: Option<Duration>) {
        Self::inc(&self.wal_appends);
        Self::add(&self.wal_bytes, bytes);
        if let Some(d) = fsync {
            self.fsync.record(d);
        }
    }

    /// Count what a recovery replay re-applied. Replay cannot tell an
    /// explicit hold release from an expiry sweep — both are
    /// `HoldRelease` records — so recovered ends land in
    /// `holds_released`.
    pub fn record_replay(&self, tally: &ReplayTally) {
        Self::add(&self.accepted, tally.accepted);
        Self::add(&self.rejected, tally.rejected);
        Self::add(&self.cancelled, tally.cancelled);
        Self::add(&self.refused_early, tally.refused_early);
        Self::add(&self.gc_reclaimed, tally.gc_reclaimed);
        Self::add(&self.gc_truncated_bps, tally.gc_truncated_bps);
        Self::add(&self.holds_placed, tally.holds_placed);
        Self::add(&self.holds_committed, tally.holds_committed);
        Self::add(&self.holds_released, tally.holds_released);
    }

    /// Set the replication role reported by `Stats`.
    pub fn set_role(&self, role: Role) {
        self.role.store(role.as_u64(), Ordering::Relaxed);
    }

    /// The replication role last set (default [`Role::Solo`]).
    pub fn get_role(&self) -> Role {
        Role::from_u64(self.role.load(Ordering::Relaxed))
    }

    /// Seconds since this registry (≈ the daemon) was created.
    pub fn uptime_s(&self) -> u64 {
        self.started.0.elapsed().as_secs()
    }

    /// Assemble the serializable snapshot, filling in the engine-owned
    /// gauges passed by the caller.
    pub fn snapshot(
        &self,
        pending: u64,
        live_reservations: u64,
        virtual_time: f64,
    ) -> StatsSnapshot {
        StatsSnapshot {
            role: self.get_role().as_str().to_string(),
            uptime_s: self.uptime_s(),
            protocol_version: PROTOCOL_VERSION,
            virtual_time,
            gc_watermark: self.gc_watermark.get(),
            decision_latency: self.decision_latency.snapshot(),
            fsync: self.fsync.snapshot(),
            ..StatsSnapshot::from_counters(self.block(pending, live_reservations))
        }
    }
}

impl StatsSnapshot {
    /// Replication lag in frames: shipped but not yet acknowledged.
    pub fn repl_lag(&self) -> u64 {
        self.repl_shipped_seq.saturating_sub(self.repl_acked_seq)
    }

    /// Accept rate among decided submissions (0 when none decided).
    pub fn accept_rate(&self) -> f64 {
        let decided = self.accepted + self.rejected;
        if decided == 0 {
            0.0
        } else {
            self.accepted as f64 / decided as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone() {
        let h = LatencyHistogram::new();
        for micros in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                h.record(Duration::from_micros(micros));
            }
        }
        assert_eq!(h.count(), 60);
        let p50 = h.quantile_ms(0.50);
        let p95 = h.quantile_ms(0.95);
        let p99 = h.quantile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p99 >= 100.0, "p99 must reach the top decade, got {p99}");
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn snapshot_serializes_and_computes_accept_rate() {
        let m = MetricsRegistry::new();
        m.submitted.store(10, Ordering::Relaxed);
        m.accepted.store(6, Ordering::Relaxed);
        m.rejected.store(2, Ordering::Relaxed);
        m.decision_latency.record(Duration::from_millis(3));
        MetricsRegistry::inc(&m.wal_appends);
        MetricsRegistry::add(&m.wal_bytes, 128);
        m.fsync.record(Duration::from_micros(700));
        let snap = m.snapshot(2, 6, 123.0);
        assert_eq!(snap.accept_rate(), 0.75);
        assert_eq!(snap.pending, 2);
        assert_eq!(snap.wal_appends, 1);
        assert_eq!(snap.wal_bytes, 128);
        assert_eq!(snap.fsync.count, 1);
        assert!(snap.fsync.p99_ms > 0.0);
        let js = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&js).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn role_uptime_and_protocol_ride_in_the_snapshot() {
        let m = MetricsRegistry::new();
        let snap = m.snapshot(0, 0, 0.0);
        assert_eq!(snap.role, "solo");
        assert_eq!(snap.protocol_version, PROTOCOL_VERSION);
        m.set_role(Role::Follower);
        assert_eq!(m.get_role(), Role::Follower);
        assert_eq!(m.snapshot(0, 0, 0.0).role, "follower");
        m.set_role(Role::Shard);
        assert_eq!(m.get_role(), Role::Shard);
        assert_eq!(m.snapshot(0, 0, 0.0).role, "shard");
        m.set_role(Role::Primary);
        let snap = m.snapshot(0, 0, 0.0);
        assert_eq!(snap.role, "primary");
        m.repl_shipped_seq.store(12, Ordering::Relaxed);
        m.repl_acked_seq.store(9, Ordering::Relaxed);
        assert_eq!(m.snapshot(0, 0, 0.0).repl_lag(), 3);
    }

    #[test]
    fn quantile_handles_single_sample() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(500));
        // 500 µs lands in bucket [256, 512) µs → upper bound 0.512 ms.
        assert_eq!(h.quantile_ms(0.5), 0.512);
        assert_eq!(h.quantile_ms(1.0), 0.512);
    }
}
