//! The per-round redistribution engine.
//!
//! [`Redistributor`] shadows the admission engine's round loop: accepts
//! are registered as they commit, and once per round the engine hands
//! it the upcoming interval plus the ledger's per-port residuals. It
//! settles the interval that just elapsed (moving bytes, detecting
//! early completions), turns completed-but-still-charged reservations
//! into residual credits, and plans the next interval's boosts by
//! class-tiered progressive filling under allowance and token-bucket
//! caps.

use std::collections::BTreeMap;

use gridband_control::TokenBucket;
use gridband_maxmin::{progressive_fill, FillFlow};
use gridband_net::units::{Bandwidth, Time, Volume};
use gridband_workload::ServiceClass;

/// Rates below this (MB/s) are treated as zero.
const EPS_RATE: f64 = 1e-9;
/// Volumes below this (MB) are treated as zero.
const EPS_VOL: f64 = 1e-6;
/// Slack for the guaranteed-finish check (virtual seconds).
const EPS_TIME: f64 = 1e-6;

/// Tuning knobs of the overlay. The defaults boost as aggressively as
/// feasibility allows while still shaping per-transfer shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// How many seconds of banked fair-share credit a transfer may
    /// hold. The bank is capped at `headroom × allowance_horizon`, so a
    /// transfer can catch up after at most this long a starvation
    /// stretch at full headroom.
    pub allowance_horizon: f64,
    /// Per-tenant (ingress port) sustained boost-rate cap in MB/s;
    /// `None` leaves tenants unpoliced.
    pub tenant_rate: Option<Bandwidth>,
    /// Per-tenant bucket depth in MB; defaults to one round at
    /// `tenant_rate` when unset.
    pub tenant_burst: Option<Volume>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            allowance_horizon: 200.0,
            tenant_rate: None,
            tenant_burst: None,
        }
    }
}

/// One admitted transfer, as the engine registers it at decision time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptedTransfer {
    /// Request id.
    pub id: u64,
    /// Ingress port index (the tenant).
    pub ingress: usize,
    /// Egress port index.
    pub egress: usize,
    /// Service class carried on the submit.
    pub class: ServiceClass,
    /// Guaranteed constant rate (MB/s).
    pub bw: Bandwidth,
    /// Scheduled start (virtual seconds).
    pub start: Time,
    /// Guaranteed finish (virtual seconds).
    pub finish: Time,
    /// Host rate limit `MaxRate` — the boost ceiling.
    pub max_rate: Bandwidth,
    /// Transfer volume (MB).
    pub volume: Volume,
}

/// One transfer's boost grant for a round interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boost {
    /// Request id.
    pub id: u64,
    /// Ingress port index.
    pub ingress: usize,
    /// Egress port index.
    pub egress: usize,
    /// Service class the grant was filled under.
    pub class: ServiceClass,
    /// Extra rate on top of the guarantee (MB/s), constant over the
    /// round interval (or until the transfer completes).
    pub rate: Bandwidth,
}

/// What one call to [`Redistributor::round`] planned.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// Interval start (virtual seconds).
    pub t0: Time,
    /// Interval end.
    pub t1: Time,
    /// Boost grants, ordered by request id.
    pub boosts: Vec<Boost>,
    /// Effective per-ingress residual the fill ran against (ledger
    /// residual plus early-release credits, tenant caps folded in).
    pub residual_in: Vec<Bandwidth>,
    /// Effective per-egress residual.
    pub residual_out: Vec<Bandwidth>,
    /// Guaranteed rate (MB/s), per ingress port, of transfers that
    /// completed early and whose silent reservation backs part of the
    /// residual this round.
    pub credits_in: Vec<Bandwidth>,
    /// Same, per egress port.
    pub credits_out: Vec<Bandwidth>,
}

/// A transfer's observed completion, for completion-time studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Service class.
    pub class: ServiceClass,
    /// When the last byte moved (virtual seconds).
    pub done_at: Time,
    /// The guaranteed finish the admission decision promised.
    pub guaranteed_finish: Time,
}

/// Counters the overlay accumulates across rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QosStats {
    /// Rounds in which at least one boost was granted.
    pub boost_rounds: u64,
    /// Volume actually moved above guarantees (MB).
    pub boosted_mb: f64,
    /// Transfers that completed before their guaranteed finish.
    pub early_releases: u64,
    /// Transfers observed completing *after* their guaranteed finish —
    /// must stay zero; a boost can only add bandwidth.
    pub finish_violations: u64,
    /// Rounds where planned boosts exceeded the effective residual on
    /// some port — must stay zero; the fill is feasible by
    /// construction and this counter is the built-in audit of that.
    pub oversubscriptions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    ingress: usize,
    egress: usize,
    class: ServiceClass,
    bw: Bandwidth,
    start: Time,
    finish: Time,
    max_rate: Bandwidth,
    remaining: Volume,
    /// Banked fair-share credit (MB).
    allowance: Volume,
    /// Boost granted for the currently planned interval.
    boost: Bandwidth,
    done_at: Option<Time>,
}

/// The redistribution engine. See the crate docs for the model.
#[derive(Debug)]
pub struct Redistributor {
    cfg: QosConfig,
    num_ingress: usize,
    num_egress: usize,
    transfers: BTreeMap<u64, Transfer>,
    buckets: BTreeMap<usize, TokenBucket>,
    /// The interval the current `boost` values were planned for.
    planned: Option<(Time, Time)>,
    stats: QosStats,
    completions: Vec<Completion>,
}

impl Redistributor {
    /// A fresh overlay over `num_ingress × num_egress` ports.
    pub fn new(num_ingress: usize, num_egress: usize, cfg: QosConfig) -> Redistributor {
        assert!(
            cfg.allowance_horizon.is_finite() && cfg.allowance_horizon >= 0.0,
            "allowance horizon must be finite and non-negative"
        );
        Redistributor {
            cfg,
            num_ingress,
            num_egress,
            transfers: BTreeMap::new(),
            buckets: BTreeMap::new(),
            planned: None,
            stats: QosStats::default(),
            completions: Vec::new(),
        }
    }

    /// Register an admitted transfer. Call at decision-commit time;
    /// re-registering an id replaces the old entry.
    pub fn on_accept(&mut self, a: AcceptedTransfer) {
        debug_assert!(a.ingress < self.num_ingress && a.egress < self.num_egress);
        self.transfers.insert(
            a.id,
            Transfer {
                ingress: a.ingress,
                egress: a.egress,
                class: a.class,
                bw: a.bw,
                start: a.start,
                finish: a.finish,
                max_rate: a.max_rate,
                remaining: a.volume,
                allowance: 0.0,
                boost: 0.0,
                done_at: None,
            },
        );
    }

    /// Drop a transfer whose reservation was cancelled (its capacity
    /// returns through the ledger's own residuals, not as a credit).
    pub fn on_cancel(&mut self, id: u64) {
        self.transfers.remove(&id);
    }

    /// Transfers currently tracked (live or completed-but-charged).
    pub fn tracked(&self) -> usize {
        self.transfers.len()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> QosStats {
        self.stats
    }

    /// Every completion observed so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Move bytes for `[a, b)` where boosts from the last plan apply up
    /// to `cut` (= the planned interval's end) and only guarantees
    /// apply after it.
    fn drain(&mut self, a: Time, b: Time, cut: Time) {
        for (&id, tr) in self.transfers.iter_mut() {
            if tr.done_at.is_some() || tr.remaining <= EPS_VOL {
                continue;
            }
            let mut at = a.max(tr.start);
            let mut boosted_mb = 0.0;
            // Two segments: [at, cut) with boost, [cut, b) without.
            for (seg_end, boost) in [(b.min(cut), tr.boost), (b, 0.0)] {
                if at >= seg_end || tr.remaining <= EPS_VOL {
                    continue;
                }
                let rate = tr.bw + boost;
                if rate <= EPS_RATE {
                    at = seg_end;
                    continue;
                }
                let span = seg_end - at;
                let sent = rate * span;
                if sent + EPS_VOL >= tr.remaining {
                    let used = tr.remaining / rate;
                    boosted_mb += boost * used;
                    tr.done_at = Some(at + used);
                    tr.remaining = 0.0;
                } else {
                    boosted_mb += boost * span;
                    tr.remaining -= sent;
                }
                at = seg_end;
            }
            self.stats.boosted_mb += boosted_mb;
            if let Some(done) = tr.done_at {
                if done + EPS_TIME < tr.finish {
                    self.stats.early_releases += 1;
                } else if done > tr.finish + EPS_TIME {
                    self.stats.finish_violations += 1;
                }
                self.completions.push(Completion {
                    id,
                    class: tr.class,
                    done_at: done,
                    guaranteed_finish: tr.finish,
                });
            }
        }
    }

    /// Settle elapsed time up to `now` and plan boosts for `[t0, t1)`
    /// against the ledger's per-port residuals for that interval
    /// (`residuals = ledger.residuals(t0, t1)`), then return the plan.
    ///
    /// `t0` must be non-decreasing across calls and `t1 > t0`.
    pub fn round(
        &mut self,
        t0: Time,
        t1: Time,
        residual_in: &[Bandwidth],
        residual_out: &[Bandwidth],
    ) -> RoundPlan {
        assert!(t1 > t0, "round interval [{t0}, {t1}) is empty");
        assert_eq!(residual_in.len(), self.num_ingress);
        assert_eq!(residual_out.len(), self.num_egress);

        // 1. Settle the interval that just elapsed: the previous plan's
        // boosts apply up to its own end, guarantees alone after that
        // (rounds the engine fast-forwarded past never had boosts).
        if let Some((p0, p1)) = self.planned {
            assert!(t0 + EPS_TIME >= p0, "rounds moved backwards");
            self.drain(p0, t0.max(p0), p1);
        }
        for tr in self.transfers.values_mut() {
            tr.boost = 0.0;
        }
        // A transfer whose guaranteed window has fully passed no longer
        // charges the ledger; nothing left to track or credit.
        self.transfers.retain(|_, tr| tr.finish > t0 + EPS_TIME);

        // 2. Early-release credits: a completed transfer's reservation
        // still charges the ledger until its guaranteed finish, but
        // moves no bytes. Credit it back only when the charge covers
        // the whole interval — crediting a partial overlap could lend
        // capacity to the uncovered tail.
        let dt = t1 - t0;
        let mut credits_in = vec![0.0; self.num_ingress];
        let mut credits_out = vec![0.0; self.num_egress];
        for tr in self.transfers.values() {
            if tr.done_at.is_some() && tr.start <= t0 + EPS_TIME && tr.finish + EPS_TIME >= t1 {
                credits_in[tr.ingress] += tr.bw;
                credits_out[tr.egress] += tr.bw;
            }
        }
        let mut pool_in: Vec<f64> = residual_in
            .iter()
            .zip(&credits_in)
            .map(|(r, c)| (r + c).max(0.0))
            .collect();
        let mut pool_out: Vec<f64> = residual_out
            .iter()
            .zip(&credits_out)
            .map(|(r, c)| (r + c).max(0.0))
            .collect();

        // 3. Candidates: live transfers active at t0 with headroom.
        let ids: Vec<u64> = self
            .transfers
            .iter()
            .filter(|(_, tr)| {
                tr.done_at.is_none()
                    && tr.remaining > EPS_VOL
                    && tr.start <= t0 + EPS_TIME
                    && tr.max_rate - tr.bw > EPS_RATE
            })
            .map(|(&id, _)| id)
            .collect();

        // 4. Accrue allowance in class order: gold candidates split the
        // bottleneck pool's estimate first, silver banks from what gold
        // could not use, best-effort from what is left after both —
        // "drinks first" applies to the bank, not just the fill. Each
        // bank is capped at headroom × horizon. Unused credit is what
        // lets a starved transfer catch up later (snippet-3's
        // accumulated allowance).
        let mut est = pool_in
            .iter()
            .sum::<f64>()
            .min(pool_out.iter().sum::<f64>());
        for class in ServiceClass::ALL {
            let tier: Vec<u64> = ids
                .iter()
                .copied()
                .filter(|id| self.transfers[id].class == class)
                .collect();
            if tier.is_empty() {
                continue;
            }
            let grant_rate = est / tier.len() as f64;
            for id in &tier {
                let tr = self.transfers.get_mut(id).expect("candidate exists");
                let headroom = tr.max_rate - tr.bw;
                let usable = grant_rate.min(headroom.min((tr.remaining / dt - tr.bw).max(0.0)));
                tr.allowance =
                    (tr.allowance + grant_rate * dt).min(headroom * self.cfg.allowance_horizon);
                est = (est - usable).max(0.0);
            }
        }

        // 5. Fold per-tenant policing into the ingress pool: the
        // bucket's balance is the most boost volume the tenant may draw
        // this round, i.e. an extra rate bound of balance / dt.
        if let Some(rate) = self.cfg.tenant_rate {
            let burst = self.cfg.tenant_burst.unwrap_or(rate * dt);
            for id in &ids {
                let p = self.transfers[id].ingress;
                let bucket = self
                    .buckets
                    .entry(p)
                    .or_insert_with(|| TokenBucket::new(rate, burst, t0));
                pool_in[p] = pool_in[p].min(bucket.available(t0) / dt);
            }
        }

        // 6. Class-tiered progressive fill: gold drinks first; each
        // tier runs max-min over what the previous tiers left.
        let mut boosts: Vec<Boost> = Vec::new();
        for class in ServiceClass::ALL {
            let tier: Vec<u64> = ids
                .iter()
                .copied()
                .filter(|id| self.transfers[id].class == class)
                .collect();
            if tier.is_empty() {
                continue;
            }
            let flows: Vec<FillFlow> = tier
                .iter()
                .map(|id| {
                    let tr = &self.transfers[id];
                    // No more than the host can push, no more than the
                    // transfer still needs by t1, no more than the bank
                    // covers.
                    let cap = (tr.max_rate - tr.bw)
                        .min((tr.remaining / dt - tr.bw).max(0.0))
                        .min(tr.allowance / dt);
                    FillFlow {
                        ingress: tr.ingress,
                        egress: tr.egress,
                        cap,
                    }
                })
                .collect();
            let rates = progressive_fill(&pool_in, &pool_out, &flows);
            for (id, (flow, rate)) in tier.iter().zip(flows.iter().zip(&rates)) {
                if *rate <= EPS_RATE {
                    continue;
                }
                pool_in[flow.ingress] = (pool_in[flow.ingress] - rate).max(0.0);
                pool_out[flow.egress] = (pool_out[flow.egress] - rate).max(0.0);
                let tr = self.transfers.get_mut(id).expect("candidate exists");
                tr.boost = *rate;
                tr.allowance = (tr.allowance - rate * dt).max(0.0);
                boosts.push(Boost {
                    id: *id,
                    ingress: tr.ingress,
                    egress: tr.egress,
                    class,
                    rate: *rate,
                });
            }
        }

        // 7. Charge tenant buckets for what the fill actually granted.
        if self.cfg.tenant_rate.is_some() {
            let mut spent = vec![0.0f64; self.num_ingress];
            for b in &boosts {
                spent[b.ingress] += b.rate * dt;
            }
            for (p, &v) in spent.iter().enumerate() {
                if v > 0.0 {
                    let bucket = self.buckets.get_mut(&p).expect("bucket exists");
                    let admitted = bucket.offer(t0, v);
                    debug_assert!(
                        admitted + EPS_VOL >= v,
                        "fill exceeded tenant bucket: {v} > {admitted}"
                    );
                }
            }
        }

        if !boosts.is_empty() {
            self.stats.boost_rounds += 1;
        }
        self.planned = Some((t0, t1));

        let plan = RoundPlan {
            t0,
            t1,
            boosts,
            residual_in: residual_in.to_vec(),
            residual_out: residual_out.to_vec(),
            credits_in,
            credits_out,
        };
        // 8. Audit the invariant the fill guarantees by construction.
        self.stats.oversubscriptions += crate::verify::check_round(&plan).len() as u64;
        plan
    }

    /// Settle everything up to `now` without planning a new interval —
    /// the end-of-run flush (a drained engine, the end of a bench).
    pub fn finish(&mut self, now: Time) {
        if let Some((p0, p1)) = self.planned {
            self.drain(p0, now.max(p0), p1);
        }
        // Anything still unfinished completes at its guaranteed rate.
        self.drain(now, f64::INFINITY, now);
        self.planned = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept(
        id: u64,
        class: ServiceClass,
        bw: f64,
        max_rate: f64,
        volume: f64,
    ) -> AcceptedTransfer {
        AcceptedTransfer {
            id,
            ingress: 0,
            egress: 0,
            class,
            bw,
            start: 0.0,
            finish: volume / bw,
            max_rate,
            volume,
        }
    }

    #[test]
    fn lone_transfer_takes_all_residual_up_to_max_rate() {
        // Port capacity 100, guarantee 20, MaxRate 60: residual 80 but
        // the host can only add 40.
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        rd.on_accept(accept(1, ServiceClass::Silver, 20.0, 60.0, 2000.0));
        let plan = rd.round(0.0, 10.0, &[80.0], &[80.0]);
        assert_eq!(plan.boosts.len(), 1);
        assert!((plan.boosts[0].rate - 40.0).abs() < 1e-6, "{plan:?}");
    }

    #[test]
    fn boost_is_limited_by_remaining_volume() {
        // 50 MB left, guarantee 20 MB/s over a 10 s round: the transfer
        // can use at most 5 MB/s total, so no boost is useful... and a
        // tiny one would still finish it inside the round. remaining/dt
        // (5) < bw (20) → cap 0.
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        let mut a = accept(1, ServiceClass::Silver, 20.0, 100.0, 50.0);
        a.finish = 2.5;
        rd.on_accept(a);
        let plan = rd.round(0.0, 10.0, &[80.0], &[80.0]);
        assert!(plan.boosts.is_empty(), "{plan:?}");
    }

    #[test]
    fn gold_drinks_before_best_effort() {
        // Two transfers share one port with 30 residual; both could take
        // 30. Gold gets it all, best-effort rides on nothing.
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        rd.on_accept(accept(1, ServiceClass::BestEffort, 10.0, 100.0, 10_000.0));
        rd.on_accept(accept(2, ServiceClass::Gold, 10.0, 100.0, 10_000.0));
        let plan = rd.round(0.0, 10.0, &[30.0], &[30.0]);
        let by_id: BTreeMap<u64, f64> = plan.boosts.iter().map(|b| (b.id, b.rate)).collect();
        assert!(
            (by_id.get(&2).copied().unwrap_or(0.0) - 30.0).abs() < 1e-6,
            "{plan:?}"
        );
        assert_eq!(by_id.get(&1), None, "{plan:?}");
    }

    #[test]
    fn same_class_shares_maxmin_fairly() {
        let mut rd = Redistributor::new(2, 1, QosConfig::default());
        let mut a = accept(1, ServiceClass::Silver, 10.0, 1000.0, 100_000.0);
        a.finish = 10_000.0;
        let mut b = a;
        b.id = 2;
        b.ingress = 1;
        rd.on_accept(a);
        rd.on_accept(b);
        // Shared egress of 60 residual; ample ingress on both sides.
        let plan = rd.round(0.0, 10.0, &[500.0, 500.0], &[60.0]);
        assert_eq!(plan.boosts.len(), 2);
        assert!((plan.boosts[0].rate - 30.0).abs() < 1e-6, "{plan:?}");
        assert!((plan.boosts[1].rate - 30.0).abs() < 1e-6, "{plan:?}");
    }

    #[test]
    fn early_finish_turns_into_credit_and_release() {
        // Guarantee 10 MB/s for 100 s (1000 MB). Boosted by 90 → done
        // in 10 s. The next full round inside [start, finish) must see
        // the 10 MB/s charge credited back, and stats must count one
        // early release with zero violations.
        let cfg = QosConfig::default();
        let mut rd = Redistributor::new(1, 1, cfg);
        rd.on_accept(accept(1, ServiceClass::Gold, 10.0, 100.0, 1000.0));
        let plan = rd.round(0.0, 10.0, &[90.0], &[90.0]);
        assert!((plan.boosts[0].rate - 90.0).abs() < 1e-6);
        let plan = rd.round(10.0, 20.0, &[90.0], &[90.0]);
        assert_eq!(plan.credits_in, vec![10.0]);
        assert_eq!(plan.credits_out, vec![10.0]);
        assert!(plan.boosts.is_empty(), "nobody left to boost");
        let st = rd.stats();
        assert_eq!(st.early_releases, 1);
        assert_eq!(st.finish_violations, 0);
        assert_eq!(st.oversubscriptions, 0);
        assert_eq!(st.boost_rounds, 1);
        assert!((st.boosted_mb - 900.0).abs() < 1e-6, "{st:?}");
        let c = rd.completions();
        assert_eq!(c.len(), 1);
        assert!((c[0].done_at - 10.0).abs() < 1e-6);
        assert_eq!(c[0].guaranteed_finish, 100.0);
    }

    #[test]
    fn unboosted_transfer_completes_exactly_at_guaranteed_finish() {
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        rd.on_accept(accept(1, ServiceClass::Silver, 10.0, 10.0, 100.0));
        for k in 0..11 {
            let t = k as f64;
            rd.round(t, t + 1.0, &[0.0], &[0.0]);
        }
        rd.finish(11.0);
        let c = rd.completions();
        assert_eq!(c.len(), 1);
        assert!((c[0].done_at - 10.0).abs() < 1e-6, "{c:?}");
        assert_eq!(rd.stats().finish_violations, 0);
        assert_eq!(rd.stats().early_releases, 0);
    }

    #[test]
    fn allowance_lets_a_starved_transfer_catch_up() {
        // Two silver transfers on separate ingress ports, shared egress.
        // For 5 rounds transfer 2's ingress is dead, so transfer 1
        // drinks alone — but both bank the same fair grant (the
        // bottleneck pool is 10, i.e. 50 MB per round each). When the
        // roles flip, transfer 2's boost cap is its bank plus the fresh
        // grant, so it out-boosts what a freshly fair share would be.
        let cfg = QosConfig {
            allowance_horizon: 1000.0,
            ..QosConfig::default()
        };
        let mut rd = Redistributor::new(2, 1, cfg);
        let mut a = accept(1, ServiceClass::Silver, 5.0, 1000.0, 1_000_000.0);
        a.finish = 200_000.0;
        let mut b = a;
        b.id = 2;
        b.ingress = 1;
        rd.on_accept(a);
        rd.on_accept(b);
        for k in 0..5 {
            let t = 10.0 * k as f64;
            let plan = rd.round(t, t + 10.0, &[100.0, 0.0], &[10.0]);
            let by_id: BTreeMap<u64, f64> = plan.boosts.iter().map(|b| (b.id, b.rate)).collect();
            assert!(!by_id.contains_key(&2), "starved behind its dead port");
            assert!((by_id[&1] - 5.0).abs() < 1e-6, "{plan:?}");
        }
        let banked = rd.transfers[&2].allowance;
        assert!((banked - 250.0).abs() < 1e-6, "5 rounds × 50 MB banked");
        // Roles flip: the fresh grant alone would cap the round at
        // 50 MB/s; the bank lifts transfer 2 to 75.
        let plan = rd.round(50.0, 60.0, &[0.0, 100.0], &[100.0]);
        let by_id: BTreeMap<u64, f64> = plan.boosts.iter().map(|b| (b.id, b.rate)).collect();
        let r2 = by_id[&2];
        assert!(
            (r2 - 75.0).abs() < 1e-6,
            "catch-up boost {r2} should spend the {banked} MB bank"
        );
        assert!(rd.transfers[&2].allowance < 1e-6, "bank spent");
    }

    #[test]
    fn tenant_bucket_caps_a_port_hog() {
        // One tenant, huge residual, but policed to 5 MB/s of boost.
        let cfg = QosConfig {
            tenant_rate: Some(5.0),
            tenant_burst: Some(50.0),
            ..QosConfig::default()
        };
        let mut rd = Redistributor::new(1, 1, cfg);
        rd.on_accept(accept(1, ServiceClass::Gold, 10.0, 1000.0, 1_000_000.0));
        // Round 1: full bucket (50 MB) over 10 s → 5 MB/s boost.
        let plan = rd.round(0.0, 10.0, &[500.0], &[500.0]);
        assert!((plan.boosts[0].rate - 5.0).abs() < 1e-6, "{plan:?}");
        // Round 2: the bucket refilled exactly what was spent → same.
        let plan = rd.round(10.0, 20.0, &[500.0], &[500.0]);
        assert!((plan.boosts[0].rate - 5.0).abs() < 1e-6, "{plan:?}");
        assert_eq!(rd.stats().oversubscriptions, 0);
    }

    #[test]
    fn cancel_withdraws_the_transfer() {
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        rd.on_accept(accept(1, ServiceClass::Gold, 10.0, 100.0, 1000.0));
        rd.on_cancel(1);
        let plan = rd.round(0.0, 10.0, &[90.0], &[90.0]);
        assert!(plan.boosts.is_empty());
        assert_eq!(rd.tracked(), 0);
    }

    #[test]
    fn fast_forward_gap_settles_at_guaranteed_rate() {
        // Plan a boosted round [0, 10), then jump to t=50: the boost
        // applies only inside its own interval, the gap drains at the
        // guarantee, so 10×(10+40) + 40×10 = 900 of 1000 MB are done.
        let mut rd = Redistributor::new(1, 1, QosConfig::default());
        let mut a = accept(1, ServiceClass::Silver, 10.0, 50.0, 1000.0);
        a.finish = 100.0;
        rd.on_accept(a);
        let plan = rd.round(0.0, 10.0, &[40.0], &[40.0]);
        assert!((plan.boosts[0].rate - 40.0).abs() < 1e-6);
        rd.round(50.0, 60.0, &[40.0], &[40.0]);
        let tr = rd.transfers[&1];
        assert!((tr.remaining - 100.0).abs() < 1e-6, "{tr:?}");
    }
}
