//! Adaptive admission control: a latency-target capacity controller plus
//! per-tenant token quotas.
//!
//! The static `queue_cap` bound sheds only when a shard's channel is
//! *full* — by which point every queued request is already doomed to a
//! latency of `depth × service_time`. Under sustained overload that is
//! exactly the wrong shape: the queue pins at its cap and p99 collapses
//! to the worst tolerable value instead of the target one. The
//! [`AdmissionController`] layered here fixes both failure modes the
//! ROADMAP names:
//!
//! * **Latency**: an AIMD control loop watches a rolling window of served
//!   latencies. Each tick, if the window p99 exceeds
//!   [`AdmissionConfig::target_p99`] the *effective* capacity shrinks
//!   multiplicatively (`cap × decrease`); if under (or the window is
//!   idle) it grows additively (`cap + increase`), clamped to
//!   `[floor, queue_cap]`. Requests arriving when the shard's depth
//!   gauge has reached the effective capacity shed as
//!   [`Busy`](crate::ServeError::Busy) — the queue is kept short enough
//!   that what *is* admitted meets the target.
//! * **Fairness**: every tenant gets a token bucket refilled at
//!   [`AdmissionConfig::tenant_rate`] with burst
//!   [`AdmissionConfig::tenant_burst`]. A tenant over its quota sheds as
//!   [`Throttled`](crate::ServeError::Throttled) *before* the capacity
//!   check — shedding is priority-aware: over-quota traffic is refused
//!   first, so a flooding tenant exhausts its own bucket while
//!   well-behaved tenants ride the adaptive bound untouched.
//!
//! The controller starts at the floor and proves capacity upward (TCP
//! slow-start shape): growth only happens while the observed p99 stays
//! under target, so a cold start under overload never builds the long
//! queue it would then have to drain. Ticks are driven by traffic — both
//! `admit` and `record_latency` poll the tick deadline — and all timing
//! goes through the [`Clock`] seam from [`crate::cache`], so every
//! control transition is unit-testable with a
//! [`ManualClock`](crate::testing::ManualClock) and no sleeps.
//!
//! Edge cases are pinned by tests: `queue_cap == 0` keeps an effective
//! capacity of exactly 0 (nothing is admitted, nothing "adapts" it up),
//! while any `queue_cap > 0` keeps a floor of at least 1 so the
//! controller can never adapt a live service into a black hole.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::Clock;
use crate::metrics::{AdmissionStats, LatencyHistogram};

/// Stripes for the tenant token-bucket map.
const BUCKET_STRIPES: usize = 8;
/// Max token buckets per stripe; at the cap the fullest bucket is evicted
/// (the cheapest casualty — a full bucket re-created later is
/// indistinguishable from an untouched one).
const BUCKETS_PER_STRIPE: usize = 1024;

/// Tuning for an [`AdmissionController`]. Plugged into
/// [`ServeConfig::admission`](crate::ServeConfig::admission).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// The latency SLO: when the rolling window's p99 exceeds this the
    /// effective capacity shrinks.
    pub target_p99: Duration,
    /// Lower clamp for the effective capacity. Normalized to at least 1
    /// when `queue_cap > 0` (a live service can always admit *something*);
    /// irrelevant when `queue_cap == 0`.
    pub min_cap: usize,
    /// Additive step applied each under-target tick.
    pub increase: usize,
    /// Multiplicative factor applied each over-target tick; must be in
    /// `(0, 1)`.
    pub decrease: f64,
    /// Control-loop period: how often the window is evaluated and reset.
    pub tick: Duration,
    /// Per-tenant sustained admission rate in requests/second; `<= 0`
    /// disables tenant quotas entirely.
    pub tenant_rate: f64,
    /// Per-tenant burst allowance in requests (bucket size). A fresh
    /// tenant starts with a full bucket.
    pub tenant_burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            target_p99: Duration::from_millis(25),
            min_cap: 4,
            increase: 4,
            decrease: 0.5,
            tick: Duration::from_millis(20),
            tenant_rate: 0.0,
            tenant_burst: 256.0,
        }
    }
}

/// What the controller decided about one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue it.
    Admit,
    /// Shed it as `Busy`: depth has reached the effective capacity (or
    /// `queue_cap` is 0).
    Shed,
    /// Refuse it as `Throttled`: the tenant is over its quota.
    Throttle,
}

/// One tenant's token bucket (only touched under its stripe lock).
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// The adaptive admission controller; one per service, shared by every
/// local shard's submit path.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    queue_cap: usize,
    floor: usize,
    /// Rolling window of served latencies, reset each tick.
    window: LatencyHistogram,
    /// Deadline of the next control tick.
    next_tick: Mutex<Instant>,
    clock: Arc<dyn Clock>,
    buckets: Vec<Mutex<HashMap<u64, TokenBucket>>>,
    stats: Arc<AdmissionStats>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("cfg", &self.cfg)
            .field("queue_cap", &self.queue_cap)
            .field("effective_cap", &self.effective_cap())
            .finish()
    }
}

impl AdmissionController {
    /// Build a controller for a service whose shard channels are bounded
    /// at `queue_cap`. A service start checks the config's knobs before it
    /// builds one.
    pub fn new(
        cfg: AdmissionConfig,
        queue_cap: usize,
        clock: Arc<dyn Clock>,
        stats: Arc<AdmissionStats>,
    ) -> AdmissionController {
        // queue_cap == 0 means "admit nothing" and must stay exactly 0;
        // otherwise the floor is at least 1 so adaptation can never close
        // the service entirely.
        let floor = if queue_cap == 0 {
            0
        } else {
            cfg.min_cap.clamp(1, queue_cap)
        };
        let next = clock.now() + cfg.tick;
        // `stats.effective_cap` is the one copy of the current capacity:
        // `admit` sheds when a shard's depth gauge has reached it.
        stats.effective_cap.store(floor as u64, Ordering::Relaxed);
        AdmissionController {
            cfg,
            queue_cap,
            floor,
            window: LatencyHistogram::new(),
            next_tick: Mutex::new(next),
            clock,
            buckets: (0..BUCKET_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            stats,
        }
    }

    /// The capacity the controller is currently willing to queue.
    pub fn effective_cap(&self) -> usize {
        self.stats.effective_cap.load(Ordering::Relaxed) as usize
    }

    /// Feed one served request's end-to-end latency into the rolling
    /// window (also drives the tick clock, so a draining queue keeps
    /// adapting even if arrivals stop).
    pub fn record_latency(&self, latency: Duration) {
        self.window.record(latency);
        self.maybe_tick();
    }

    /// Decide one arriving request given its tenant and the target
    /// shard's current queue depth. Counts the outcome into
    /// [`AdmissionStats`] (global and per-tenant).
    pub fn admit(&self, tenant: u64, depth: u64) -> AdmissionDecision {
        self.maybe_tick();
        // quota first: over-quota traffic is shed before it can compete
        // for capacity (priority-aware shedding)
        if self.cfg.tenant_rate > 0.0 && !self.take_token(tenant) {
            self.stats.throttled.fetch_add(1, Ordering::Relaxed);
            self.stats.tenant_throttled(tenant);
            return AdmissionDecision::Throttle;
        }
        if depth >= self.stats.effective_cap.load(Ordering::Relaxed) {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            self.stats.tenant_shed(tenant);
            return AdmissionDecision::Shed;
        }
        self.stats.tenant_admitted(tenant);
        AdmissionDecision::Admit
    }

    /// Run the control loop if a tick deadline has passed. At most one
    /// step per call: a long idle gap does not replay missed ticks,
    /// because with no traffic there is nothing to adapt *to*.
    fn maybe_tick(&self) {
        let now = self.clock.now();
        let Ok(mut due) = self.next_tick.try_lock() else {
            return; // another thread is ticking; this sample still counted
        };
        if now < *due {
            return;
        }
        *due = now + self.cfg.tick;
        drop(due);
        self.tick_once();
    }

    fn tick_once(&self) {
        let over = match self.window.quantile(0.99) {
            Some(p99) => p99 > self.cfg.target_p99,
            None => false, // idle window: probe upward
        };
        self.window.reset();
        let cap = self.effective_cap();
        let next = if over {
            self.stats.shrinks.fetch_add(1, Ordering::Relaxed);
            ((cap as f64 * self.cfg.decrease).floor() as usize).max(self.floor)
        } else {
            self.stats.grows.fetch_add(1, Ordering::Relaxed);
            cap.saturating_add(self.cfg.increase).min(self.queue_cap)
        };
        self.stats.ticks.fetch_add(1, Ordering::Relaxed);
        self.stats
            .effective_cap
            .store(next as u64, Ordering::Relaxed);
    }

    /// Take one token from `tenant`'s bucket, refilling it first.
    fn take_token(&self, tenant: u64) -> bool {
        let stripe = &self.buckets[(tenant as usize) % BUCKET_STRIPES];
        let mut map = stripe.lock().expect("bucket stripe lock");
        let now = self.clock.now();
        if !map.contains_key(&tenant) && map.len() >= BUCKETS_PER_STRIPE {
            let fullest = map
                .iter()
                .max_by(|a, b| a.1.tokens.total_cmp(&b.1.tokens))
                .map(|(&id, _)| id);
            if let Some(id) = fullest {
                map.remove(&id);
            }
        }
        let bucket = map.entry(tenant).or_insert(TokenBucket {
            tokens: self.cfg.tenant_burst,
            last_refill: now,
        });
        let dt = now.saturating_duration_since(bucket.last_refill);
        bucket.tokens =
            (bucket.tokens + dt.as_secs_f64() * self.cfg.tenant_rate).min(self.cfg.tenant_burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ManualClock;

    fn controller(
        cfg: AdmissionConfig,
        queue_cap: usize,
    ) -> (Arc<ManualClock>, Arc<AdmissionStats>, AdmissionController) {
        let clock = Arc::new(ManualClock::new());
        let stats = Arc::new(AdmissionStats::default());
        let c = AdmissionController::new(
            cfg,
            queue_cap,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&stats),
        );
        (clock, stats, c)
    }

    fn base_cfg() -> AdmissionConfig {
        AdmissionConfig {
            target_p99: Duration::from_millis(10),
            min_cap: 2,
            increase: 4,
            decrease: 0.5,
            tick: Duration::from_millis(20),
            tenant_rate: 0.0,
            tenant_burst: 8.0,
        }
    }

    /// Drive exactly one tick after loading the window with `latency`
    /// samples.
    fn tick_with(c: &AdmissionController, clock: &ManualClock, latency: Duration, samples: usize) {
        for _ in 0..samples {
            c.record_latency(latency);
        }
        clock.advance(c.cfg.tick + Duration::from_nanos(1));
        c.record_latency(latency); // the sample that crosses the deadline
    }

    #[test]
    fn starts_at_floor_and_grows_additively_while_under_target() {
        let (clock, stats, c) = controller(base_cfg(), 64);
        assert_eq!(c.effective_cap(), 2);
        tick_with(&c, &clock, Duration::from_millis(1), 10);
        assert_eq!(c.effective_cap(), 6); // 2 + 4
        tick_with(&c, &clock, Duration::from_millis(1), 10);
        assert_eq!(c.effective_cap(), 10);
        assert_eq!(stats.grows.load(Ordering::Relaxed), 2);
        assert_eq!(stats.shrinks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shrinks_multiplicatively_when_p99_over_target() {
        let (clock, stats, c) = controller(base_cfg(), 64);
        for _ in 0..20 {
            tick_with(&c, &clock, Duration::from_millis(1), 10);
        }
        assert_eq!(c.effective_cap(), 64); // clamped at queue_cap
        tick_with(&c, &clock, Duration::from_millis(50), 10);
        assert_eq!(c.effective_cap(), 32);
        tick_with(&c, &clock, Duration::from_millis(50), 10);
        assert_eq!(c.effective_cap(), 16);
        assert_eq!(stats.shrinks.load(Ordering::Relaxed), 2);
        assert_eq!(stats.effective_cap.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn idle_window_probes_upward() {
        let (clock, _, c) = controller(base_cfg(), 64);
        clock.advance(Duration::from_millis(21));
        // an admit crosses the tick deadline with an empty window: the
        // controller probes upward rather than freezing on no data
        assert_eq!(c.admit(0, 0), AdmissionDecision::Admit);
        assert_eq!(c.effective_cap(), 6);
    }

    #[test]
    fn shrink_clamps_at_floor_and_floor_is_at_least_one() {
        let mut cfg = base_cfg();
        cfg.min_cap = 0; // pathological floor request
        let (clock, _, c) = controller(cfg, 64);
        // repeated over-target ticks can never push the cap below 1
        for _ in 0..30 {
            tick_with(&c, &clock, Duration::from_millis(50), 5);
        }
        assert_eq!(c.effective_cap(), 1);
        assert_eq!(c.admit(0, 0), AdmissionDecision::Admit);
        assert_eq!(c.admit(0, 1), AdmissionDecision::Shed);
    }

    #[test]
    fn zero_queue_cap_stays_zero_and_admits_nothing() {
        let (clock, _, c) = controller(base_cfg(), 0);
        assert_eq!(c.effective_cap(), 0);
        // neither idle growth nor over-target shrink moves it
        tick_with(&c, &clock, Duration::from_millis(1), 5);
        assert_eq!(c.effective_cap(), 0);
        tick_with(&c, &clock, Duration::from_millis(50), 5);
        assert_eq!(c.effective_cap(), 0);
        assert_eq!(c.admit(1, 0), AdmissionDecision::Shed);
    }

    #[test]
    fn min_cap_above_queue_cap_clamps_down() {
        let mut cfg = base_cfg();
        cfg.min_cap = 1000;
        let (_, _, c) = controller(cfg, 8);
        assert_eq!(c.effective_cap(), 8);
    }

    #[test]
    fn growth_clamps_at_queue_cap() {
        let (clock, _, c) = controller(base_cfg(), 7);
        for _ in 0..10 {
            tick_with(&c, &clock, Duration::from_millis(1), 5);
        }
        assert_eq!(c.effective_cap(), 7);
    }

    #[test]
    fn admit_sheds_at_effective_cap_not_queue_cap() {
        let (clock, stats, c) = controller(base_cfg(), 64);
        tick_with(&c, &clock, Duration::from_millis(1), 5);
        let cap = c.effective_cap() as u64; // 6, well under queue_cap 64
        assert_eq!(c.admit(0, cap - 1), AdmissionDecision::Admit);
        assert_eq!(c.admit(0, cap), AdmissionDecision::Shed);
        assert_eq!(c.admit(0, cap + 10), AdmissionDecision::Shed);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.tenant(0).unwrap().admitted, 1);
        assert_eq!(snap.tenant(0).unwrap().shed, 2);
    }

    #[test]
    fn token_bucket_throttles_after_burst_and_refills_with_time() {
        let mut cfg = base_cfg();
        cfg.tenant_rate = 2.0; // 2 tokens/second
        cfg.tenant_burst = 3.0;
        let (clock, stats, c) = controller(cfg, 64);
        for _ in 0..3 {
            assert_eq!(c.admit(7, 0), AdmissionDecision::Admit);
        }
        assert_eq!(c.admit(7, 0), AdmissionDecision::Throttle);
        assert_eq!(stats.throttled.load(Ordering::Relaxed), 1);
        // half a second refills one token
        clock.advance(Duration::from_millis(500));
        assert_eq!(c.admit(7, 0), AdmissionDecision::Admit);
        assert_eq!(c.admit(7, 0), AdmissionDecision::Throttle);
        let snap = stats.snapshot();
        assert_eq!(snap.tenant(7).unwrap().admitted, 4);
        assert_eq!(snap.tenant(7).unwrap().throttled, 2);
    }

    #[test]
    fn refill_clamps_at_burst() {
        let mut cfg = base_cfg();
        cfg.tenant_rate = 100.0;
        cfg.tenant_burst = 2.0;
        let (clock, _, c) = controller(cfg, 64);
        assert_eq!(c.admit(1, 0), AdmissionDecision::Admit);
        clock.advance(Duration::from_secs(3600)); // an hour of credit...
        for _ in 0..2 {
            assert_eq!(c.admit(1, 0), AdmissionDecision::Admit); // ...is still 2 tokens
        }
        assert_eq!(c.admit(1, 0), AdmissionDecision::Throttle);
    }

    #[test]
    fn one_tenant_over_quota_does_not_throttle_another() {
        let mut cfg = base_cfg();
        cfg.tenant_rate = 1.0;
        cfg.tenant_burst = 2.0;
        let (_, _, c) = controller(cfg, 64);
        for _ in 0..10 {
            let _ = c.admit(1, 0); // tenant 1 floods
        }
        assert_eq!(c.admit(2, 0), AdmissionDecision::Admit); // tenant 2 unaffected
        assert_eq!(c.admit(1, 0), AdmissionDecision::Throttle);
    }

    #[test]
    fn over_quota_throttles_even_at_zero_depth() {
        // hard quotas: an idle service still refuses over-quota traffic,
        // which is what makes the isolation tests deterministic
        let mut cfg = base_cfg();
        cfg.tenant_rate = 1.0;
        cfg.tenant_burst = 1.0;
        let (_, _, c) = controller(cfg, 64);
        assert_eq!(c.admit(5, 0), AdmissionDecision::Admit);
        assert_eq!(c.admit(5, 0), AdmissionDecision::Throttle);
    }

    #[test]
    fn bucket_map_bounded_by_eviction() {
        let mut cfg = base_cfg();
        cfg.tenant_rate = 1.0;
        cfg.tenant_burst = 4.0;
        let (_, _, c) = controller(cfg, 64);
        // spray far more tenants than the bucket map can hold: every call
        // still gets a decision and the map stays bounded
        for id in 0..(BUCKET_STRIPES * BUCKETS_PER_STRIPE * 2) as u64 {
            assert_eq!(c.admit(id, 0), AdmissionDecision::Admit);
        }
        let held: usize = c.buckets.iter().map(|s| s.lock().unwrap().len()).sum();
        assert!(held <= BUCKET_STRIPES * BUCKETS_PER_STRIPE);
    }

    #[test]
    fn ticks_do_not_replay_idle_gaps() {
        let (clock, stats, c) = controller(base_cfg(), 64);
        clock.advance(Duration::from_secs(10)); // 500 tick periods pass idle
        c.record_latency(Duration::from_millis(1));
        // exactly one control step ran, not 500
        assert_eq!(stats.ticks.load(Ordering::Relaxed), 1);
        assert_eq!(c.effective_cap(), 6);
    }
}
