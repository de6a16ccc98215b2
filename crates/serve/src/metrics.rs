//! Lock-free serving observability.
//!
//! Every hot-path record is a relaxed atomic operation: counters are
//! [`AtomicU64`]s, the latency histogram is a fixed array of log-linear
//! buckets (each power-of-two octave split into 4 linear sub-buckets), and
//! queue depth is a gauge updated with `fetch_add`/`fetch_sub`.
//! Snapshots read the atomics without stopping traffic, so a reported
//! snapshot is a *consistent-enough* view (individual cells are exact; the
//! set is not taken under a global lock — standard practice for serving
//! metrics).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets (4), bounding quantile error at 25%.
const SUB_BITS: usize = 2;
/// Nanosecond octaves covered; the top one reaches ~9.2 minutes.
const OCTAVES: usize = 40;
/// Total fixed buckets in the log-linear latency histogram.
pub const LATENCY_BUCKETS: usize = OCTAVES << SUB_BITS;

/// A fixed-bucket, lock-free latency histogram: log-linear buckets
/// (power-of-two octaves, 4 linear sub-buckets each) over nanoseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_index(nanos: u64) -> usize {
        let n = nanos.max(1);
        let octave = (63 - u64::leading_zeros(n) as usize).min(OCTAVES - 1);
        let sub = if octave >= SUB_BITS {
            ((n >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize
        } else {
            0 // octaves below 2^SUB_BITS ns have no sub-resolution
        };
        (octave << SUB_BITS) + sub
    }

    /// Upper edge (exclusive) of bucket `i`, in nanoseconds.
    fn bucket_upper(i: usize) -> u64 {
        let octave = i >> SUB_BITS;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        if octave >= SUB_BITS {
            (1u64 << octave) + ((sub + 1) << (octave - SUB_BITS))
        } else {
            1u64 << (octave + 1)
        }
    }

    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let idx = Self::bucket_index(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Zero every bucket. Concurrent `record`s land in either the old or
    /// the new window — fine for the rolling-window use the admission
    /// controller puts this to, where a sample's window is advisory.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the upper edge of the bucket that
    /// contains it, or `None` if the histogram is empty. Log-linear edges
    /// bound the true quantile within 25% — the usual trade for a lock-free
    /// fixed-size histogram.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(Self::bucket_upper(i)));
            }
        }
        Some(Duration::from_nanos(u64::MAX))
    }
}

/// Per-shard counters (all relaxed atomics).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Requests accepted into the shard's queue.
    pub enqueued: AtomicU64,
    /// Decisions served (replied to).
    pub served: AtomicU64,
    /// Requests shed at admission (queue full or adaptive bound → `Busy`).
    pub shed: AtomicU64,
    /// Requests refused because their tenant was over quota (`Throttled`).
    pub throttled: AtomicU64,
    /// Requests whose caller gave up waiting (`Timeout`).
    pub timeouts: AtomicU64,
    /// Requests hard-rejected by a tripped guard policy.
    pub rejected: AtomicU64,
    /// Decisions served in degraded audit-and-flag mode.
    pub flagged: AtomicU64,
    /// Micro-batches executed.
    pub batches: AtomicU64,
    /// Sum of batch sizes (mean batch = batch_items / batches).
    pub batch_items: AtomicU64,
    /// Current queue depth (gauge).
    pub depth: AtomicU64,
    /// High-water mark of the queue depth.
    pub depth_max: AtomicU64,
    /// Guard alerts forwarded to the global channel (after debouncing).
    pub alerts: AtomicU64,
    /// Guard checkpoints durably written (periodic + final).
    pub checkpoints: AtomicU64,
    /// Guard checkpoints that failed to capture or write; the previous
    /// guard-state document stays in place.
    pub checkpoint_failures: AtomicU64,
    /// Lifetime decision count restored from a checkpoint at spawn (zero
    /// on first boot or when checkpointing is off).
    pub resumed_at: AtomicU64,
    /// The shard's ε ledger total, as `f64` bits.
    epsilon_bits: AtomicU64,
}

impl ShardMetrics {
    /// Store the shard accountant's own ε total: at spawn, after any
    /// checkpoint restore, and again after each DP release. It is the
    /// ledger, so it does not restart at a reshard.
    pub(crate) fn set_epsilon_spent(&self, epsilon: f64) {
        self.epsilon_bits
            .store(epsilon.to_bits(), Ordering::Relaxed);
    }

    /// Bump the depth gauge (on successful enqueue).
    pub fn depth_inc(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_max.fetch_max(d, Ordering::Relaxed);
    }

    /// Drop the depth gauge (on dequeue).
    pub fn depth_dec(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Feature-cache counters (all relaxed atomics), shared between a
/// [`CachedFeatureSource`](crate::cache::CachedFeatureSource) and the
/// registry that reports it. All zeros when no cache is configured.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Keys answered from a fresh positive entry (no upstream work).
    pub hits: AtomicU64,
    /// Keys absent or expired at lookup time (an upstream fetch followed).
    pub misses: AtomicU64,
    /// Keys answered from a fresh *negative* entry: the upstream recently
    /// failed for them, so the batch failed fast without an upstream call.
    pub negative_hits: AtomicU64,
    /// Entries removed to make room for an insert at capacity (lazy drops
    /// of already-expired entries are not counted).
    pub evictions: AtomicU64,
    /// Cold-key fetches that joined another batch's in-flight upstream
    /// call instead of issuing their own (single-flight coalescing).
    pub coalesced: AtomicU64,
    /// Batched calls actually forwarded upstream.
    pub upstream_batches: AtomicU64,
    /// Entries dropped because they were stamped before the last
    /// [`invalidate`](crate::cache::CachedFeatureSource::invalidate) —
    /// stale-generation rows lazily discarded on access.
    pub invalidated: AtomicU64,
}

impl CacheStats {
    /// An instantaneous plain-data copy of every counter.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            upstream_batches: self.upstream_batches.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of [`CacheStats`] at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Keys served from a fresh positive entry.
    pub hits: u64,
    /// Keys that had to go upstream.
    pub misses: u64,
    /// Keys failed fast from a fresh negative entry.
    pub negative_hits: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Fetches coalesced onto another batch's in-flight upstream call.
    pub coalesced: u64,
    /// Batched calls forwarded upstream.
    pub upstream_batches: u64,
    /// Stale-generation entries dropped after an invalidation.
    pub invalidated: u64,
}

impl CacheSnapshot {
    /// Hit fraction over all positive-path lookups (hits + misses);
    /// zero when the cache saw no traffic.
    pub fn hit_rate(&self) -> f64 {
        let looked = self.hits + self.misses;
        if looked == 0 {
            0.0
        } else {
            self.hits as f64 / looked as f64
        }
    }
}

/// Stripes for the per-tenant counter map: bounds lock contention without
/// a per-tenant allocation on the hot path.
const TENANT_STRIPES: usize = 8;
/// Max tenants tracked per stripe; ids beyond the cap fold into
/// [`AdmissionStats::untracked`] so an id-spraying tenant cannot grow the
/// map without bound.
const TENANTS_PER_STRIPE: usize = 64;

/// Per-tenant admission outcomes (plain integers; only ever touched under
/// their stripe lock).
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    admitted: u64,
    shed: u64,
    throttled: u64,
}

/// Admission-control counters, shared between the
/// [`AdmissionController`](crate::admission::AdmissionController) and the
/// registry that reports it. All zeros when admission control is not
/// configured.
#[derive(Debug)]
pub struct AdmissionStats {
    /// Requests refused because their tenant was over quota.
    pub throttled: AtomicU64,
    /// Requests shed by the *adaptive* bound (depth ≥ effective capacity);
    /// a subset of the shard-level `shed` counters, which also count
    /// channel-full sheds.
    pub shed: AtomicU64,
    /// Control-loop ticks executed.
    pub ticks: AtomicU64,
    /// Ticks that shrank effective capacity (window p99 over target).
    pub shrinks: AtomicU64,
    /// Ticks that grew effective capacity (window p99 under target, or an
    /// idle window).
    pub grows: AtomicU64,
    /// Current effective queue capacity (gauge; 0 when admission control
    /// is off or `queue_cap` is 0). The controller keeps no other copy:
    /// its admit path and its control tick read and write this cell.
    pub effective_cap: AtomicU64,
    tenants: Vec<Mutex<HashMap<u64, TenantCounters>>>,
    /// Admission outcomes for tenants beyond the tracking cap (counted,
    /// never dropped silently).
    pub untracked: AtomicU64,
}

impl Default for AdmissionStats {
    fn default() -> Self {
        AdmissionStats {
            throttled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            effective_cap: AtomicU64::new(0),
            tenants: (0..TENANT_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            untracked: AtomicU64::new(0),
        }
    }
}

impl AdmissionStats {
    fn with_tenant(&self, tenant: u64, f: impl FnOnce(&mut TenantCounters)) {
        let stripe = &self.tenants[(tenant as usize) % TENANT_STRIPES];
        let mut map = stripe.lock().expect("tenant stripe lock");
        if let Some(c) = map.get_mut(&tenant) {
            f(c);
            return;
        }
        if map.len() >= TENANTS_PER_STRIPE {
            self.untracked.fetch_add(1, Ordering::Relaxed);
            return;
        }
        f(map.entry(tenant).or_default());
    }

    /// Count one admitted request for `tenant`.
    pub fn tenant_admitted(&self, tenant: u64) {
        self.with_tenant(tenant, |c| c.admitted += 1);
    }

    /// Count one adaptive-bound shed for `tenant`.
    pub fn tenant_shed(&self, tenant: u64) {
        self.with_tenant(tenant, |c| c.shed += 1);
    }

    /// Count one quota throttle for `tenant`.
    pub fn tenant_throttled(&self, tenant: u64) {
        self.with_tenant(tenant, |c| c.throttled += 1);
    }

    /// An instantaneous plain-data copy, tenants sorted by id.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let mut tenants: Vec<TenantSnapshot> = Vec::new();
        for stripe in &self.tenants {
            let map = stripe.lock().expect("tenant stripe lock");
            tenants.extend(map.iter().map(|(&tenant, c)| TenantSnapshot {
                tenant,
                admitted: c.admitted,
                shed: c.shed,
                throttled: c.throttled,
            }));
        }
        tenants.sort_by_key(|t| t.tenant);
        AdmissionSnapshot {
            throttled: self.throttled.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            effective_cap: self.effective_cap.load(Ordering::Relaxed),
            untracked: self.untracked.load(Ordering::Relaxed),
            tenants,
        }
    }
}

/// One tenant's admission outcomes at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant id (as carried on [`DecisionRequest`](crate::DecisionRequest)).
    pub tenant: u64,
    /// Requests this tenant got past admission.
    pub admitted: u64,
    /// Requests shed for this tenant by the adaptive bound.
    pub shed: u64,
    /// Requests throttled for this tenant by its quota.
    pub throttled: u64,
}

/// Plain-data copy of [`AdmissionStats`] at one instant.
#[derive(Debug, Clone, Default)]
pub struct AdmissionSnapshot {
    /// Quota throttles across all tenants.
    pub throttled: u64,
    /// Adaptive-bound sheds across all tenants.
    pub shed: u64,
    /// Control-loop ticks executed.
    pub ticks: u64,
    /// Capacity-shrinking ticks.
    pub shrinks: u64,
    /// Capacity-growing ticks.
    pub grows: u64,
    /// Effective queue capacity at snapshot time.
    pub effective_cap: u64,
    /// Outcomes attributed to tenants beyond the tracking cap.
    pub untracked: u64,
    /// Per-tenant outcomes, sorted by tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

impl AdmissionSnapshot {
    /// The snapshot for one tenant, if tracked.
    pub fn tenant(&self, tenant: u64) -> Option<&TenantSnapshot> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// The service-wide registry: one [`ShardMetrics`] per shard plus global
/// latency, guard, and feature-cache counters. Shared via `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardMetrics>,
    /// End-to-end decision latency (enqueue → reply).
    pub latency: LatencyHistogram,
    /// Feature-cache counters; all zeros unless `ServeConfig.cache` wired
    /// a [`CachedFeatureSource`](crate::cache::CachedFeatureSource) in.
    pub cache: Arc<CacheStats>,
    /// Admission-control counters; all zeros unless `ServeConfig.admission`
    /// wired an [`AdmissionController`](crate::admission::AdmissionController) in.
    pub admission: Arc<AdmissionStats>,
    /// Audit-archiver counters; all zeros unless the audit sink was
    /// configured with [`AuditSinkConfig::archive`](crate::AuditSinkConfig::archive)
    /// (the sink's own [`ArchiveStats`](crate::archive::ArchiveStats) is
    /// shared in via [`with_archive_stats`](MetricsRegistry::with_archive_stats)).
    pub archive: Arc<crate::archive::ArchiveStats>,
}

impl MetricsRegistry {
    /// A registry for `shards` worker shards.
    pub fn new(shards: usize) -> Self {
        Self::with_archive_stats(shards, Arc::new(crate::archive::ArchiveStats::default()))
    }

    /// A registry for `shards` worker shards that reports `archive` — the
    /// live counter block owned by an audit sink's background archiver —
    /// alongside the serving counters.
    pub fn with_archive_stats(shards: usize, archive: Arc<crate::archive::ArchiveStats>) -> Self {
        MetricsRegistry {
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
            latency: LatencyHistogram::new(),
            cache: Arc::new(CacheStats::default()),
            admission: Arc::new(AdmissionStats::default()),
            archive,
        }
    }

    /// A fresh registry for a new topology epoch of `shards` shards. The
    /// cache, admission and archive counter blocks are shared with `self`,
    /// because those layers outlive a reshard.
    pub(crate) fn next_epoch(&self, shards: usize) -> Self {
        MetricsRegistry {
            cache: Arc::clone(&self.cache),
            admission: Arc::clone(&self.admission),
            ..Self::with_archive_stats(shards, Arc::clone(&self.archive))
        }
    }

    /// The counters for one shard.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// An instantaneous copy of every counter plus latency quantiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .map(|s| ShardSnapshot {
                enqueued: s.enqueued.load(Ordering::Relaxed),
                served: s.served.load(Ordering::Relaxed),
                shed: s.shed.load(Ordering::Relaxed),
                throttled: s.throttled.load(Ordering::Relaxed),
                timeouts: s.timeouts.load(Ordering::Relaxed),
                rejected: s.rejected.load(Ordering::Relaxed),
                flagged: s.flagged.load(Ordering::Relaxed),
                batches: s.batches.load(Ordering::Relaxed),
                batch_items: s.batch_items.load(Ordering::Relaxed),
                depth: s.depth.load(Ordering::Relaxed),
                depth_max: s.depth_max.load(Ordering::Relaxed),
                alerts: s.alerts.load(Ordering::Relaxed),
                checkpoints: s.checkpoints.load(Ordering::Relaxed),
                checkpoint_failures: s.checkpoint_failures.load(Ordering::Relaxed),
                resumed_at: s.resumed_at.load(Ordering::Relaxed),
                epsilon_spent: f64::from_bits(s.epsilon_bits.load(Ordering::Relaxed)),
            })
            .collect();
        MetricsSnapshot {
            latency_count: self.latency.count(),
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
            alerts: shards.iter().map(|s| s.alerts).sum(),
            epsilon_spent: shards.iter().map(|s| s.epsilon_spent).sum(),
            shards,
            cache: self.cache.snapshot(),
            admission: self.admission.snapshot(),
            archive: self.archive.snapshot(),
        }
    }
}

/// Plain-data copy of one shard's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Requests accepted into the queue.
    pub enqueued: u64,
    /// Decisions served.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests throttled by a tenant quota.
    pub throttled: u64,
    /// Caller-side timeouts.
    pub timeouts: u64,
    /// Hard rejections from a tripped guard.
    pub rejected: u64,
    /// Audit-and-flag decisions.
    pub flagged: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Sum of batch sizes.
    pub batch_items: u64,
    /// Queue depth at snapshot time.
    pub depth: u64,
    /// Queue-depth high-water mark.
    pub depth_max: u64,
    /// Alerts forwarded to the global channel.
    pub alerts: u64,
    /// Guard checkpoints durably written.
    pub checkpoints: u64,
    /// Guard checkpoints that failed.
    pub checkpoint_failures: u64,
    /// Lifetime decision count restored from a checkpoint at spawn.
    pub resumed_at: u64,
    /// The shard's ε ledger total, restored history included.
    pub epsilon_spent: f64,
}

impl ShardSnapshot {
    /// Mean micro-batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_items as f64 / self.batches as f64
        }
    }
}

/// Plain-data copy of the whole registry at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-shard counters.
    pub shards: Vec<ShardSnapshot>,
    /// Latency samples recorded.
    pub latency_count: u64,
    /// Median end-to-end latency (bucket upper edge).
    pub p50: Option<Duration>,
    /// 95th-percentile latency.
    pub p95: Option<Duration>,
    /// 99th-percentile latency.
    pub p99: Option<Duration>,
    /// Alerts forwarded to the global channel, summed over the shards.
    pub alerts: u64,
    /// Differential-privacy ε spent, summed over the shards' ledgers.
    pub epsilon_spent: f64,
    /// Feature-cache counters (all zero when no cache is configured).
    pub cache: CacheSnapshot,
    /// Admission-control counters (all zero when admission is off).
    pub admission: AdmissionSnapshot,
    /// Audit-archiver counters (all zero when archiving is off).
    pub archive: crate::archive::ArchiveSnapshot,
}

impl MetricsSnapshot {
    /// Total decisions served across shards.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Total requests shed across shards.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Total quota throttles across shards.
    pub fn throttled(&self) -> u64 {
        self.shards.iter().map(|s| s.throttled).sum()
    }

    /// Render as a plain-text block: the shard table, one totals line,
    /// then the cache, admission, tenant and archive lines. Suitable for
    /// logs or a `/metrics`-style endpoint; the shutdown report prints
    /// the sections they share through the same line writers.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        write_shard_table(&mut out, &self.shards);
        let fmt = |d: Option<Duration>| match d {
            Some(d) => format!("{:.1}us", d.as_nanos() as f64 / 1e3),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "total served={} shed={} alerts={} eps_spent={:.4} p50={} p95={} p99={}\n",
            self.served(),
            self.shed(),
            self.alerts,
            self.epsilon_spent,
            fmt(self.p50),
            fmt(self.p95),
            fmt(self.p99),
        ));
        write_layer_lines(&mut out, &self.cache, &self.admission, &self.archive);
        out
    }
}

/// Append the shard table: a header, then one row per slot.
pub(crate) fn write_shard_table(out: &mut String, shards: &[ShardSnapshot]) {
    out.push_str(
        "shard  served  shed  throttle  timeout  reject  flagged  depth  depth_max  mean_batch  \
         batches  alerts  eps_spent  checkpoints  ckpt_failed  resumed_at\n",
    );
    for (i, s) in shards.iter().enumerate() {
        out.push_str(&format!(
            "{:>5}  {:>6}  {:>4}  {:>8}  {:>7}  {:>6}  {:>7}  {:>5}  {:>9}  {:>10.2}  \
             {:>7}  {:>6}  {:>9.4}  {:>11}  {:>11}  {:>10}\n",
            i,
            s.served,
            s.shed,
            s.throttled,
            s.timeouts,
            s.rejected,
            s.flagged,
            s.depth,
            s.depth_max,
            s.mean_batch(),
            s.batches,
            s.alerts,
            s.epsilon_spent,
            s.checkpoints,
            s.checkpoint_failures,
            s.resumed_at,
        ));
    }
}

/// Append the feature-cache line, the admission line with one line per
/// tracked tenant after it, and the archive line.
pub(crate) fn write_layer_lines(
    out: &mut String,
    cache: &CacheSnapshot,
    admission: &AdmissionSnapshot,
    archive: &crate::archive::ArchiveSnapshot,
) {
    out.push_str(&format!(
        "cache hits={} misses={} neg_hits={} evictions={} coalesced={} upstream={} \
         invalidated={} hit_rate={:.3}\n",
        cache.hits,
        cache.misses,
        cache.negative_hits,
        cache.evictions,
        cache.coalesced,
        cache.upstream_batches,
        cache.invalidated,
        cache.hit_rate(),
    ));
    let a = admission;
    out.push_str(&format!(
        "admission cap={} ticks={} shrinks={} grows={} throttled={} adm_shed={} untracked={}\n",
        a.effective_cap, a.ticks, a.shrinks, a.grows, a.throttled, a.shed, a.untracked,
    ));
    for t in &a.tenants {
        out.push_str(&format!(
            "tenant {}: admitted={} shed={} throttled={}\n",
            t.tenant, t.admitted, t.shed, t.throttled,
        ));
    }
    let ar = archive;
    out.push_str(&format!(
        "archive segments={} bytes_before={} bytes_after={} ratio={:.3} \
         verify_failures={} io_errors={} deletes={} ticks={}\n",
        ar.segments_archived,
        ar.bytes_before,
        ar.bytes_after,
        ar.ratio(),
        ar.verify_failures,
        ar.io_errors,
        ar.deletes_completed,
        ar.ticks,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // ~2^17 ns
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10)); // ~2^23 ns
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 < Duration::from_millis(1), "p50 {p50:?}");
        assert!(p99 >= Duration::from_millis(8), "p99 {p99:?}");
        assert!(h.quantile(0.0).unwrap() <= p50);
    }

    #[test]
    fn quantile_upper_edge_bounds_sample() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1000));
        // 1000 ns is in [512, 1024): upper edge 1024
        assert_eq!(h.quantile(1.0).unwrap(), Duration::from_nanos(1024));
    }

    #[test]
    fn registry_snapshot_reads_counters() {
        let m = MetricsRegistry::new(2);
        m.shard(0).served.fetch_add(3, Ordering::Relaxed);
        m.shard(1).shed.fetch_add(2, Ordering::Relaxed);
        m.shard(0).depth_inc();
        m.shard(0).depth_inc();
        m.shard(0).depth_dec();
        m.shard(1).set_epsilon_spent(0.25);
        let snap = m.snapshot();
        assert_eq!(snap.served(), 3);
        assert_eq!(snap.shed(), 2);
        assert_eq!(snap.shards[0].depth, 1);
        assert_eq!(snap.shards[0].depth_max, 2);
        assert!((snap.epsilon_spent - 0.25).abs() < 1e-9);
        let text = snap.render_text();
        assert!(text.contains("total served=3"));
        assert!(text.contains("cache hits=0"));
        assert!(text.contains("admission cap=0"));
        assert!(text.contains("archive segments=0"));
        // header + 2 shards + totals + cache + admission + archive
        // (no tenants seen)
        assert!(text.lines().count() == 7);
    }

    #[test]
    fn histogram_reset_zeroes_counts() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(50));
        h.record(Duration::from_micros(500));
        assert_eq!(h.count(), 2);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
    }

    #[test]
    fn admission_stats_track_tenants_with_bounded_map() {
        let a = AdmissionStats::default();
        a.tenant_admitted(7);
        a.tenant_admitted(7);
        a.tenant_throttled(7);
        a.tenant_shed(9);
        let snap = a.snapshot();
        let t7 = snap.tenant(7).unwrap();
        assert_eq!((t7.admitted, t7.shed, t7.throttled), (2, 0, 1));
        assert_eq!(snap.tenant(9).unwrap().shed, 1);
        assert!(snap.tenant(1).is_none());
        // spray ids far beyond the cap: map stays bounded, spill is counted
        for id in 0..10_000u64 {
            a.tenant_admitted(id);
        }
        let snap = a.snapshot();
        assert!(snap.tenants.len() <= TENANT_STRIPES * TENANTS_PER_STRIPE);
        // every tracked tenant absorbed exactly one spray call; the rest spilled
        let tracked = snap.tenants.iter().map(|t| t.admitted).sum::<u64>() - 2;
        assert_eq!(snap.untracked, 10_000 - tracked);
    }

    #[test]
    fn cache_stats_snapshot_and_hit_rate() {
        let stats = CacheStats::default();
        assert_eq!(stats.snapshot(), CacheSnapshot::default());
        assert_eq!(stats.snapshot().hit_rate(), 0.0);
        stats.hits.fetch_add(3, Ordering::Relaxed);
        stats.misses.fetch_add(1, Ordering::Relaxed);
        stats.negative_hits.fetch_add(2, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.negative_hits, 2);
        assert!((snap.hit_rate() - 0.75).abs() < 1e-12);
    }
}
