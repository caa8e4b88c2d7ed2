//! Lock-free daemon metrics: atomic counters plus log2-bucketed latency
//! histograms, snapshotted into a serializable [`StatsSnapshot`] for the
//! `Stats` RPC and the periodic JSON dump.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::protocol::PROTOCOL_VERSION;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// All daemon counters and histograms. One instance is shared (via `Arc`)
/// between the listener, every connection thread, and the engine.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Submissions received (before validation).
    pub submitted: AtomicU64,
    /// Submissions admitted by an admission round.
    pub accepted: AtomicU64,
    /// Submissions refused by an admission round.
    pub rejected: AtomicU64,
    /// Submissions refused before queueing (validation, queue-full, drain).
    pub refused_early: AtomicU64,
    /// Cancels that took effect: freed a live reservation or voided a
    /// still-pending submission (repeats are not counted).
    pub cancelled: AtomicU64,
    /// Query requests served.
    pub queries: AtomicU64,
    /// Submissions bounced because the engine queue was full.
    pub queue_full: AtomicU64,
    /// Lines that failed to parse or carried a bad version.
    pub protocol_errors: AtomicU64,
    /// Connections accepted over the daemon lifetime.
    pub connections: AtomicU64,
    /// Connections that spoke the JSON-lines codec (counted at the
    /// moment the first bytes settled the auto-detection).
    pub conns_json: AtomicU64,
    /// Connections that spoke the binary codec (sent the `GBWIR01\n`
    /// preamble).
    pub conns_binary: AtomicU64,
    /// Admission rounds (ticks) executed.
    pub ticks: AtomicU64,
    /// Expired reservations garbage-collected from the ledger.
    pub gc_reclaimed: AtomicU64,
    /// Profile breakpoints dropped by watermark GC over the daemon
    /// lifetime (live sweeps plus recovery replay).
    pub gc_truncated_bps: AtomicU64,
    /// Breakpoints currently held across all port profiles (gauge,
    /// refreshed each admission round). The soak gate watches this stay
    /// flat under watermark GC.
    pub breakpoints_live: AtomicU64,
    /// Current GC watermark (gauge; unset until the first sweep).
    pub gc_watermark: TimeGauge,
    /// Engine replies dropped because a connection's reply queue was
    /// full (a client submitting without reading its socket).
    pub replies_dropped: AtomicU64,
    /// Records appended to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// Framed bytes appended to the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// Snapshots installed (each truncates the log).
    pub snapshots_written: AtomicU64,
    /// WAL records replayed during recovery at startup.
    pub recovery_replayed_records: AtomicU64,
    /// Submit → decision latency.
    pub decision_latency: LatencyHistogram,
    /// WAL fsync latency (per append or per round, by policy).
    pub fsync: LatencyHistogram,
    /// Replication role (see [`Role`]; gauge, stored as its `as_u64`).
    pub role: AtomicU64,
    /// Primary side: WAL records shipped to the follower.
    pub repl_records_shipped: AtomicU64,
    /// Primary side: framed record bytes shipped.
    pub repl_bytes_shipped: AtomicU64,
    /// Primary side: snapshots shipped (initial sync and re-syncs).
    pub repl_snapshots_shipped: AtomicU64,
    /// Primary side: sequence number of the last frame sent (gauge).
    pub repl_shipped_seq: AtomicU64,
    /// Primary side: sequence number of the last follower ack (gauge).
    pub repl_acked_seq: AtomicU64,
    /// Primary side: 1 while the follower's last ack matched our ship
    /// cursor exactly — everything durable has been applied remotely —
    /// 0 whenever new content goes out (gauge).
    pub repl_synced: AtomicU64,
    /// Follower side: records applied to the local mirror.
    pub repl_records_applied: AtomicU64,
    /// Follower side: framed record bytes applied.
    pub repl_bytes_applied: AtomicU64,
    /// Follower side: snapshots installed from the stream.
    pub repl_snapshots_applied: AtomicU64,
    /// Follower side: resync requests sent after a gap or loss.
    pub repl_resyncs: AtomicU64,
    /// Follower side: duplicate/stale frames discarded.
    pub repl_frames_discarded: AtomicU64,
    /// Follower side: frames dropped for CRC or decode damage.
    pub repl_frames_damaged: AtomicU64,
    /// Follower side: state-hash beacons verified against local replay.
    pub repl_beacons_checked: AtomicU64,
    /// Follower side: beacon mismatches — replica state diverged from
    /// the primary. Must stay 0; anything else is a replication bug.
    pub repl_divergence: AtomicU64,
    /// Two-phase holds placed on this shard (prepare steps).
    pub holds_placed: AtomicU64,
    /// Two-phase holds committed.
    pub holds_committed: AtomicU64,
    /// Two-phase holds released by an explicit abort.
    pub holds_released: AtomicU64,
    /// Two-phase holds released by the expiry sweep — a lost `HoldAck`
    /// or commit surfaced as a timeout rather than a rejection.
    pub holds_expired: AtomicU64,
    /// Accepted submissions whose class was `Gold`.
    pub accepted_gold: AtomicU64,
    /// Accepted submissions whose class was `Silver` (the default).
    pub accepted_silver: AtomicU64,
    /// Accepted submissions whose class was `BestEffort`.
    pub accepted_besteffort: AtomicU64,
    /// QoS overlay: rounds that granted at least one boost.
    pub qos_boost_rounds: AtomicU64,
    /// QoS overlay: megabytes moved above guaranteed rates (gauge,
    /// rounded down from the redistributor's running total).
    pub qos_boosted_mb: AtomicU64,
    /// QoS overlay: transfers that finished before their guaranteed
    /// finish thanks to boosting.
    pub qos_early_releases: AtomicU64,
    /// QoS overlay: guaranteed-finish violations detected by the
    /// conservation verifier. Must stay 0; anything else is a bug.
    pub qos_finish_violations: AtomicU64,
    /// QoS overlay: port oversubscriptions detected by the conservation
    /// verifier. Must stay 0; anything else is a bug.
    pub qos_oversubscriptions: AtomicU64,
    /// Submissions that asked for a malleable (variable-rate) reservation.
    pub submitted_malleable: AtomicU64,
    /// Malleable submissions granted a segmented plan.
    pub accepted_malleable: AtomicU64,
    /// Malleable submissions refused by an admission round.
    pub rejected_malleable: AtomicU64,
    /// `Amend` requests received (mid-flight renegotiations).
    pub amend_requests: AtomicU64,
    /// Amends granted (plan atomically replaced).
    pub amends_granted: AtomicU64,
    /// Amends rejected (original plan left untouched).
    pub amends_rejected: AtomicU64,
    /// Process start, for `uptime_s`.
    started: StartClock,
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
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            role: self.get_role().as_str().to_string(),
            uptime_s: self.uptime_s(),
            protocol_version: PROTOCOL_VERSION,
            submitted: ld(&self.submitted),
            accepted: ld(&self.accepted),
            rejected: ld(&self.rejected),
            refused_early: ld(&self.refused_early),
            cancelled: ld(&self.cancelled),
            queries: ld(&self.queries),
            queue_full: ld(&self.queue_full),
            protocol_errors: ld(&self.protocol_errors),
            connections: ld(&self.connections),
            conns_json: ld(&self.conns_json),
            conns_binary: ld(&self.conns_binary),
            ticks: ld(&self.ticks),
            gc_reclaimed: ld(&self.gc_reclaimed),
            replies_dropped: ld(&self.replies_dropped),
            wal_appends: ld(&self.wal_appends),
            wal_bytes: ld(&self.wal_bytes),
            snapshots_written: ld(&self.snapshots_written),
            recovery_replayed_records: ld(&self.recovery_replayed_records),
            admit_threads: 1,
            shards: 0,
            largest_shard: 0,
            repl_records_shipped: ld(&self.repl_records_shipped),
            repl_bytes_shipped: ld(&self.repl_bytes_shipped),
            repl_snapshots_shipped: ld(&self.repl_snapshots_shipped),
            repl_shipped_seq: ld(&self.repl_shipped_seq),
            repl_acked_seq: ld(&self.repl_acked_seq),
            repl_synced: ld(&self.repl_synced),
            repl_records_applied: ld(&self.repl_records_applied),
            repl_bytes_applied: ld(&self.repl_bytes_applied),
            repl_snapshots_applied: ld(&self.repl_snapshots_applied),
            repl_resyncs: ld(&self.repl_resyncs),
            repl_frames_discarded: ld(&self.repl_frames_discarded),
            repl_frames_damaged: ld(&self.repl_frames_damaged),
            repl_beacons_checked: ld(&self.repl_beacons_checked),
            repl_divergence: ld(&self.repl_divergence),
            holds_placed: ld(&self.holds_placed),
            holds_committed: ld(&self.holds_committed),
            holds_released: ld(&self.holds_released),
            holds_expired: ld(&self.holds_expired),
            accepted_gold: ld(&self.accepted_gold),
            accepted_silver: ld(&self.accepted_silver),
            accepted_besteffort: ld(&self.accepted_besteffort),
            qos_boost_rounds: ld(&self.qos_boost_rounds),
            qos_boosted_mb: ld(&self.qos_boosted_mb),
            qos_early_releases: ld(&self.qos_early_releases),
            qos_finish_violations: ld(&self.qos_finish_violations),
            qos_oversubscriptions: ld(&self.qos_oversubscriptions),
            submitted_malleable: ld(&self.submitted_malleable),
            accepted_malleable: ld(&self.accepted_malleable),
            rejected_malleable: ld(&self.rejected_malleable),
            amend_requests: ld(&self.amend_requests),
            amends_granted: ld(&self.amends_granted),
            amends_rejected: ld(&self.amends_rejected),
            pending,
            live_reservations,
            gc_truncated_bps: ld(&self.gc_truncated_bps),
            breakpoints_live: ld(&self.breakpoints_live),
            virtual_time,
            gc_watermark: self.gc_watermark.get(),
            decision_latency: self.decision_latency.snapshot(),
            fsync: self.fsync.snapshot(),
        }
    }
}

/// Serializable metrics snapshot returned by the `Stats` RPC and written
/// by the periodic JSON dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Replication role: `solo`, `primary`, `follower`, or `shard`.
    pub role: String,
    /// Seconds this daemon has been up.
    pub uptime_s: u64,
    /// Wire protocol version the daemon speaks.
    pub protocol_version: u32,
    /// Submissions received.
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions refused by an admission round.
    pub rejected: u64,
    /// Submissions refused before queueing.
    pub refused_early: u64,
    /// Cancels that took effect (reservation freed or pending voided).
    pub cancelled: u64,
    /// Queries served.
    pub queries: u64,
    /// Queue-full bounces.
    pub queue_full: u64,
    /// Parse/version failures.
    pub protocol_errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that spoke the JSON-lines codec.
    pub conns_json: u64,
    /// Connections that spoke the binary codec.
    pub conns_binary: u64,
    /// Admission rounds executed.
    pub ticks: u64,
    /// Expired reservations garbage-collected.
    pub gc_reclaimed: u64,
    /// Replies dropped on full per-connection reply queues.
    pub replies_dropped: u64,
    /// Records appended to the write-ahead log.
    pub wal_appends: u64,
    /// Framed bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Snapshots installed.
    pub snapshots_written: u64,
    /// WAL records replayed during recovery at startup.
    pub recovery_replayed_records: u64,
    /// Always 1. Reserved; removed by ROADMAP 1(d)'s self-describing Stats.
    pub admit_threads: u64,
    /// Always 0. Reserved; removed by ROADMAP 1(d)'s self-describing Stats.
    pub shards: u64,
    /// Always 0. Reserved; removed by ROADMAP 1(d)'s self-describing Stats.
    pub largest_shard: u64,
    /// Primary: WAL records shipped to the follower.
    pub repl_records_shipped: u64,
    /// Primary: framed record bytes shipped.
    pub repl_bytes_shipped: u64,
    /// Primary: snapshots shipped.
    pub repl_snapshots_shipped: u64,
    /// Primary: sequence number of the last frame sent.
    pub repl_shipped_seq: u64,
    /// Primary: sequence number of the last follower ack.
    pub repl_acked_seq: u64,
    /// Primary: 1 when the follower has applied everything shipped.
    pub repl_synced: u64,
    /// Follower: records applied to the local mirror.
    pub repl_records_applied: u64,
    /// Follower: framed record bytes applied.
    pub repl_bytes_applied: u64,
    /// Follower: snapshots installed from the stream.
    pub repl_snapshots_applied: u64,
    /// Follower: resync requests sent.
    pub repl_resyncs: u64,
    /// Follower: duplicate/stale frames discarded.
    pub repl_frames_discarded: u64,
    /// Follower: frames dropped for CRC/decode damage.
    pub repl_frames_damaged: u64,
    /// Follower: state-hash beacons verified.
    pub repl_beacons_checked: u64,
    /// Follower: beacon mismatches (must be 0).
    pub repl_divergence: u64,
    /// Two-phase holds placed on this shard.
    pub holds_placed: u64,
    /// Two-phase holds committed.
    pub holds_committed: u64,
    /// Two-phase holds released by an explicit abort.
    pub holds_released: u64,
    /// Two-phase holds released by the expiry sweep (timeouts).
    pub holds_expired: u64,
    /// Accepted submissions whose class was `Gold`.
    pub accepted_gold: u64,
    /// Accepted submissions whose class was `Silver`.
    pub accepted_silver: u64,
    /// Accepted submissions whose class was `BestEffort`.
    pub accepted_besteffort: u64,
    /// QoS rounds that granted at least one boost.
    pub qos_boost_rounds: u64,
    /// Megabytes moved above guaranteed rates (rounded down).
    pub qos_boosted_mb: u64,
    /// Transfers finished early under boost (reservation resold).
    pub qos_early_releases: u64,
    /// Guaranteed-finish violations found by the verifier (must be 0).
    pub qos_finish_violations: u64,
    /// Port oversubscriptions found by the verifier (must be 0).
    pub qos_oversubscriptions: u64,
    /// Submissions that asked for a malleable reservation.
    pub submitted_malleable: u64,
    /// Malleable submissions granted a segmented plan.
    pub accepted_malleable: u64,
    /// Malleable submissions refused by an admission round.
    pub rejected_malleable: u64,
    /// `Amend` requests received.
    pub amend_requests: u64,
    /// Amends granted.
    pub amends_granted: u64,
    /// Amends rejected (original untouched).
    pub amends_rejected: u64,
    /// Submissions awaiting the next round.
    pub pending: u64,
    /// Live (unexpired, uncancelled) reservations.
    pub live_reservations: u64,
    /// Profile breakpoints dropped by watermark GC.
    pub gc_truncated_bps: u64,
    /// Breakpoints currently held across all port profiles.
    pub breakpoints_live: u64,
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
