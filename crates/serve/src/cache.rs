//! A sharded TTL feature cache with negative caching and single-flight
//! stampede protection — a decorator over any [`FeatureSource`].
//!
//! Experiment E11 prices the remote feature fetch at ~1 ms per micro-batch:
//! every batch pays it, even when the same users decide again seconds
//! later, and a store outage hits the [`DegradePolicy`] on the very first
//! batch. [`CachedFeatureSource`] sits between the shard workers and the
//! store so that
//!
//! * **repeat keys are free** — a fresh positive entry answers without any
//!   upstream work, so steady-state batch latency drops from one round
//!   trip to a map lookup (measured ≥5× in `exp_e14`);
//! * **outages are bridged** — recently fetched rows keep serving while
//!   the store is down, and keys that just *failed* are negative-cached so
//!   a dead store is not hammered once per batch;
//! * **cold-key stampedes collapse** — concurrent micro-batches missing on
//!   the same key issue **one** upstream call; the rest wait for the
//!   leader's result (single-flight).
//!
//! ## Lookup semantics
//!
//! Each key in a batch resolves against its lock stripe as follows:
//!
//! | entry found            | age               | action                                   | counter         |
//! |------------------------|-------------------|------------------------------------------|-----------------|
//! | positive (feature row) | `< positive_ttl`  | serve cached row, no upstream call       | `hits`          |
//! | positive (feature row) | `≥ positive_ttl`  | drop entry, treat as miss                | `misses`        |
//! | negative (recent error)| `< negative_ttl`  | fail the whole batch fast, no upstream   | `negative_hits` |
//! | negative (recent error)| `≥ negative_ttl`  | drop entry, retry upstream (miss)        | `misses`        |
//! | none                   | —                 | claim or join an in-flight upstream call | `misses`        |
//!
//! Ahead of the table, one check applies to *every* entry: an entry
//! stamped before the last [`invalidate`](CachedFeatureSource::invalidate)
//! call is stale regardless of TTL — it is dropped on access, counted in
//! `CacheStats::invalidated`, and the key treated as a miss. This is the
//! O(1) rollout hook: bumping a generation counter invalidates every
//! resident row without touching a single stripe lock.
//!
//! A batch with any fresh **negative** key fails with the cached error
//! before any upstream call is issued: during an outage the store sees at
//! most one probe per key per `negative_ttl`, and recovery is automatic —
//! the short TTL expires and the next batch retries, so the cache never
//! serves stale absence forever. Misses are fetched **in one upstream
//! call per batch** (the cached slice and the fetched slice are merged
//! back in request order), and an upstream *error* negative-caches every
//! key of that fetch for `negative_ttl`.
//!
//! ## Soundness contract
//!
//! Caching is keyed by `route_key` alone, so it is transparent only when
//! the upstream source is **key-deterministic within a TTL window**: equal
//! keys must map to equal rows, as a real feature store keyed by entity id
//! does. ([`InlineFeatures`] qualifies whenever requests carry
//! key-consistent vectors; the transparency property test in
//! `crates/serve/tests/cache_transparency.rs` holds the decorator to
//! row-for-row identity under exactly that contract.)
//!
//! ## Time
//!
//! All expiry decisions go through a [`Clock`], so TTL expiry, negative-
//! cache recovery, and outage bridging are deterministically testable with
//! a [`ManualClock`](crate::testing::ManualClock) — no sleeps, no
//! wall-clock flakiness. Production uses
//! the zero-cost [`SystemClock`].
//!
//! [`DegradePolicy`]: crate::guards::DegradePolicy
//! [`InlineFeatures`]: crate::source::InlineFeatures

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fact_data::{FactError, Matrix, Result};

use crate::metrics::CacheStats;
use crate::source::FeatureSource;

/// An injectable time source for TTL decisions.
///
/// The cache never calls `Instant::now()` directly; every expiry check
/// asks the clock, which is what makes TTL behaviour reproducible in
/// tests ([`ManualClock`](crate::testing::ManualClock)) and free in
/// production ([`SystemClock`]).
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The production clock: `Instant::now()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Tuning for a [`CachedFeatureSource`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Lock stripes the key space is sharded over; concurrent batches on
    /// different stripes never contend.
    pub stripes: usize,
    /// How long a fetched feature row stays servable.
    pub positive_ttl: Duration,
    /// How long a failed key fails fast before the upstream is probed
    /// again. Keep this short: it is the outage's re-probe interval.
    pub negative_ttl: Duration,
    /// Entries one stripe holds before inserting evicts the entry closest
    /// to expiry.
    pub capacity_per_stripe: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            stripes: 16,
            positive_ttl: Duration::from_secs(60),
            negative_ttl: Duration::from_secs(2),
            capacity_per_stripe: 4_096,
        }
    }
}

/// What a cache entry remembers about a key.
#[derive(Debug, Clone)]
enum Cached {
    /// A feature row fetched from upstream.
    Row(Vec<f64>),
    /// The upstream recently failed for this key; the string is the error
    /// replayed to fast-failing batches.
    Negative(String),
}

#[derive(Debug)]
struct Entry {
    value: Cached,
    expires_at: Instant,
    /// The cache generation this entry was fetched under; entries from an
    /// older generation are stale regardless of TTL and are dropped lazily.
    generation: u64,
}

/// One single-flight ticket: the leader completes it once its upstream
/// call has been published to the map (success *or* failure).
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn complete(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        self.cv.notify_all();
    }

    /// Wait until the leader publishes, bounded by `timeout` so a leader
    /// that died mid-fetch (panicked upstream) degrades to a retry instead
    /// of a hang.
    fn wait(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
        }
    }
}

#[derive(Default)]
struct Stripe {
    map: HashMap<u64, Entry>,
    /// Keys a leader batch is currently fetching upstream.
    inflight: HashMap<u64, Arc<Flight>>,
}

/// How one key classified during the lookup pass.
enum Lookup {
    Hit(Vec<f64>),
    NegativeHit(String),
    Miss,
}

/// A caching decorator over any [`FeatureSource`]: sharded TTL map,
/// negative caching, single-flight stampede protection. See the module
/// docs for semantics; construction:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use fact_serve::{CacheConfig, CachedFeatureSource, FeatureSource, InlineFeatures};
///
/// let cached = CachedFeatureSource::new(
///     Arc::new(InlineFeatures),
///     CacheConfig { positive_ttl: Duration::from_secs(30), ..CacheConfig::default() },
/// );
/// let m = cached.fetch_batch(&[1, 2, 1], &[vec![0.1], vec![0.2], vec![0.1]]).unwrap();
/// assert_eq!(m.rows(), 3);
/// assert_eq!(cached.stats().snapshot().misses, 2); // key 1 deduplicated
/// ```
///
/// Inside the service, set [`ServeConfig::cache`] instead and
/// [`DecisionService::start_with_source`] wraps whatever source you give
/// it, wiring the counters into the service metrics and final report.
///
/// [`ServeConfig::cache`]: crate::service::ServeConfig::cache
/// [`DecisionService::start_with_source`]: crate::service::DecisionService::start_with_source
pub struct CachedFeatureSource {
    inner: Arc<dyn FeatureSource>,
    stripes: Vec<Mutex<Stripe>>,
    config: CacheConfig,
    clock: Arc<dyn Clock>,
    stats: Arc<CacheStats>,
    /// Bumped by [`invalidate`](CachedFeatureSource::invalidate); entries
    /// stamped with an older value are dropped on their next access.
    generation: AtomicU64,
}

impl CachedFeatureSource {
    /// Wrap `inner` with the system clock and fresh counters.
    pub fn new(inner: Arc<dyn FeatureSource>, config: CacheConfig) -> Self {
        Self::with_clock_and_stats(
            inner,
            config,
            Arc::new(SystemClock),
            Arc::new(CacheStats::default()),
        )
    }

    /// Wrap `inner` with an explicit [`Clock`] — the deterministic-test
    /// entry point.
    pub fn with_clock(
        inner: Arc<dyn FeatureSource>,
        config: CacheConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self::with_clock_and_stats(inner, config, clock, Arc::new(CacheStats::default()))
    }

    /// Wrap `inner` with an explicit clock *and* externally shared
    /// counters (how the service wires the cache into its
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry)).
    pub fn with_clock_and_stats(
        inner: Arc<dyn FeatureSource>,
        config: CacheConfig,
        clock: Arc<dyn Clock>,
        stats: Arc<CacheStats>,
    ) -> Self {
        let stripes = config.stripes.max(1);
        CachedFeatureSource {
            inner,
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            config,
            clock,
            stats,
            generation: AtomicU64::new(0),
        }
    }

    /// The shared counters (hits, misses, negative hits, evictions,
    /// coalesced flights, upstream batches).
    pub fn stats(&self) -> &Arc<CacheStats> {
        &self.stats
    }

    /// Entries currently resident (positive and negative, fresh or not —
    /// expired entries are dropped lazily on access).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (e.g. after a model or schema rollout invalidates
    /// the feature space).
    pub fn clear(&self) {
        for s in &self.stripes {
            let mut s = s.lock().unwrap_or_else(|e| e.into_inner());
            s.map.clear();
        }
    }

    /// Invalidate every resident entry **without** taking the stripe locks:
    /// bumps the generation counter, so entries stamped before the bump are
    /// dropped lazily the next time they are looked at (and counted in
    /// [`CacheStats::invalidated`]). O(1), safe to call from any thread mid-
    /// traffic — the hook a model or schema rollout uses when cached rows
    /// must not outlive the rollout. Unlike [`clear`](Self::clear) it also
    /// stales entries a concurrent batch is *about to insert*: inserts are
    /// stamped with the generation read at batch start, so a fetch that
    /// raced the invalidation publishes rows that are already stale.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The current cache generation (bumps once per
    /// [`invalidate`](Self::invalidate) call).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn stripe(&self, key: u64) -> &Mutex<Stripe> {
        // splitmix64-style scramble so sequential keys spread over stripes
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        &self.stripes[(h % self.stripes.len() as u64) as usize]
    }

    /// Classify `key` against its stripe, dropping an entry that is expired
    /// or stamped before generation `gen` (invalidated).
    fn lookup(&self, key: u64, now: Instant, gen: u64) -> Lookup {
        let mut s = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
        match s.map.get(&key) {
            Some(e) if e.generation < gen => {
                s.map.remove(&key);
                self.stats.invalidated.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
            Some(e) if e.expires_at > now => match &e.value {
                Cached::Row(row) => Lookup::Hit(row.clone()),
                Cached::Negative(reason) => Lookup::NegativeHit(reason.clone()),
            },
            Some(_) => {
                s.map.remove(&key);
                Lookup::Miss
            }
            None => Lookup::Miss,
        }
    }

    /// Insert under the stripe lock, evicting the entry closest to expiry
    /// when the stripe is at capacity.
    fn insert(&self, key: u64, value: Cached, ttl: Duration, now: Instant, gen: u64) {
        let cap = self.config.capacity_per_stripe.max(1);
        let mut s = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
        if s.map.len() >= cap && !s.map.contains_key(&key) {
            // free drops first: expired entries are not worth an eviction
            s.map.retain(|_, e| e.expires_at > now);
            while s.map.len() >= cap {
                let victim = s
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.expires_at)
                    .map(|(&k, _)| k);
                match victim {
                    Some(k) => {
                        s.map.remove(&k);
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        s.map.insert(
            key,
            Entry {
                value,
                expires_at: now + ttl,
                generation: gen,
            },
        );
    }

    /// Fetch `keys` (with their first-occurrence inline rows) upstream and
    /// publish the outcome: rows on success, negatives on failure. Returns
    /// the upstream error, if any.
    fn fetch_and_publish(
        &self,
        keys: &[u64],
        inline: &[Vec<f64>],
        now: Instant,
        gen: u64,
        resolved: &mut HashMap<u64, Vec<f64>>,
    ) -> Option<FactError> {
        self.stats.upstream_batches.fetch_add(1, Ordering::Relaxed);
        match self.inner.fetch_batch(keys, inline) {
            Ok(m) if m.rows() == keys.len() => {
                for (i, &k) in keys.iter().enumerate() {
                    let row = m.row(i).to_vec();
                    self.insert(
                        k,
                        Cached::Row(row.clone()),
                        self.config.positive_ttl,
                        now,
                        gen,
                    );
                    resolved.insert(k, row);
                }
                None
            }
            Ok(m) => {
                let err = FactError::InvalidArgument(format!(
                    "feature source returned {} rows for {} keys",
                    m.rows(),
                    keys.len()
                ));
                let reason = err.to_string();
                for &k in keys {
                    self.insert(
                        k,
                        Cached::Negative(reason.clone()),
                        self.config.negative_ttl,
                        now,
                        gen,
                    );
                }
                Some(err)
            }
            Err(err) => {
                let reason = err.to_string();
                for &k in keys {
                    self.insert(
                        k,
                        Cached::Negative(reason.clone()),
                        self.config.negative_ttl,
                        now,
                        gen,
                    );
                }
                Some(err)
            }
        }
    }

    fn negative_error(reason: &str) -> FactError {
        FactError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!("negative-cached feature fetch: {reason}"),
        ))
    }
}

/// How long a follower waits on a leader's in-flight fetch before falling
/// back to its own upstream call. Generous: it only binds if a leader
/// *panicked* between claiming and publishing.
const FLIGHT_TIMEOUT: Duration = Duration::from_secs(30);

impl FeatureSource for CachedFeatureSource {
    fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
        if keys.len() != inline.len() {
            return Err(FactError::LengthMismatch {
                expected: keys.len(),
                actual: inline.len(),
            });
        }
        let now = self.clock.now();
        // One generation per batch: entries this batch inserts carry it, so
        // an invalidation that lands mid-batch stales them retroactively.
        let gen = self.generation.load(Ordering::SeqCst);

        // Deduplicate keys, remembering each key's first row index so the
        // upstream sees one (key, inline) pair per distinct key.
        let mut first_idx: HashMap<u64, usize> = HashMap::with_capacity(keys.len());
        let mut uniq: Vec<u64> = Vec::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            first_idx.entry(k).or_insert_with(|| {
                uniq.push(k);
                i
            });
        }

        // Pass 1 — classify every distinct key.
        let mut resolved: HashMap<u64, Vec<f64>> = HashMap::with_capacity(uniq.len());
        let mut missing: Vec<u64> = Vec::new();
        for &k in &uniq {
            match self.lookup(k, now, gen) {
                Lookup::Hit(row) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    resolved.insert(k, row);
                }
                Lookup::NegativeHit(reason) => {
                    self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
                    return Err(Self::negative_error(&reason));
                }
                Lookup::Miss => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    missing.push(k);
                }
            }
        }

        // Pass 2 — for each miss, claim the flight (we will fetch it) or
        // join one already in the air (another batch is fetching it).
        let mut claimed: Vec<u64> = Vec::new();
        let mut joined: Vec<(u64, Arc<Flight>)> = Vec::new();
        for &k in &missing {
            let mut s = self.stripe(k).lock().unwrap_or_else(|e| e.into_inner());
            // the key may have landed while we classified other stripes
            if let Some(e) = s.map.get(&k) {
                if e.generation < gen {
                    s.map.remove(&k);
                    self.stats.invalidated.fetch_add(1, Ordering::Relaxed);
                } else if e.expires_at > now {
                    match &e.value {
                        Cached::Row(row) => {
                            resolved.insert(k, row.clone());
                            continue;
                        }
                        Cached::Negative(reason) => {
                            let reason = reason.clone();
                            drop(s);
                            self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
                            self.release_claims(&claimed);
                            return Err(Self::negative_error(&reason));
                        }
                    }
                }
            }
            match s.inflight.get(&k) {
                Some(f) => {
                    self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    joined.push((k, Arc::clone(f)));
                }
                None => {
                    s.inflight.insert(k, Arc::new(Flight::default()));
                    claimed.push(k);
                }
            }
        }

        // Pass 3 — leader fetch: one upstream call for everything we
        // claimed, publish, then land the flights (success or failure).
        let mut upstream_err: Option<FactError> = None;
        if !claimed.is_empty() {
            let claimed_inline: Vec<Vec<f64>> = claimed
                .iter()
                .map(|k| inline[first_idx[k]].clone())
                .collect();
            upstream_err =
                self.fetch_and_publish(&claimed, &claimed_inline, now, gen, &mut resolved);
            self.release_claims(&claimed);
        }
        if let Some(err) = upstream_err {
            return Err(err);
        }

        // Pass 4 — wait out flights other batches are leading, then read
        // what they published. A vanished entry (evicted, or the leader
        // died) falls back to a retry fetch of our own.
        let mut retry: Vec<u64> = Vec::new();
        for (k, flight) in joined {
            flight.wait(FLIGHT_TIMEOUT);
            match self.lookup(k, now, gen) {
                Lookup::Hit(row) => {
                    resolved.insert(k, row);
                }
                Lookup::NegativeHit(reason) => {
                    self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
                    return Err(Self::negative_error(&reason));
                }
                Lookup::Miss => retry.push(k),
            }
        }
        if !retry.is_empty() {
            let retry_inline: Vec<Vec<f64>> =
                retry.iter().map(|k| inline[first_idx[k]].clone()).collect();
            if let Some(err) =
                self.fetch_and_publish(&retry, &retry_inline, now, gen, &mut resolved)
            {
                return Err(err);
            }
        }

        // Reassemble in request order (duplicates included).
        let rows: Vec<Vec<f64>> = keys
            .iter()
            .map(|k| resolved.get(k).cloned().expect("every key resolved"))
            .collect();
        Matrix::from_rows(&rows)
    }
}

impl CachedFeatureSource {
    /// Land every claimed flight: remove it from the stripe and wake the
    /// batches that joined it.
    fn release_claims(&self, claimed: &[u64]) {
        for &k in claimed {
            let flight = {
                let mut s = self.stripe(k).lock().unwrap_or_else(|e| e.into_inner());
                s.inflight.remove(&k)
            };
            if let Some(f) = flight {
                f.complete();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InlineFeatures;
    use crate::testing::{FailingFeatureSource, ManualClock};
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    /// Key-deterministic upstream: row = [key/100, key/100 + 1], counting
    /// calls and optionally stalling (for stampede tests).
    struct KeyedSource {
        calls: AtomicU64,
        keys_fetched: AtomicU64,
        stall: Duration,
    }

    impl KeyedSource {
        fn new() -> Self {
            KeyedSource {
                calls: AtomicU64::new(0),
                keys_fetched: AtomicU64::new(0),
                stall: Duration::ZERO,
            }
        }

        fn slow(stall: Duration) -> Self {
            KeyedSource {
                stall,
                ..KeyedSource::new()
            }
        }

        fn row_for(k: u64) -> Vec<f64> {
            vec![k as f64 / 100.0, k as f64 / 100.0 + 1.0]
        }
    }

    impl FeatureSource for KeyedSource {
        fn fetch_batch(&self, keys: &[u64], _inline: &[Vec<f64>]) -> Result<Matrix> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.keys_fetched
                .fetch_add(keys.len() as u64, Ordering::SeqCst);
            if !self.stall.is_zero() {
                std::thread::sleep(self.stall);
            }
            let rows: Vec<Vec<f64>> = keys.iter().map(|&k| Self::row_for(k)).collect();
            Matrix::from_rows(&rows)
        }
    }

    fn small_config() -> CacheConfig {
        CacheConfig {
            stripes: 4,
            positive_ttl: Duration::from_secs(10),
            negative_ttl: Duration::from_secs(1),
            capacity_per_stripe: 64,
        }
    }

    fn inline_for(keys: &[u64]) -> Vec<Vec<f64>> {
        keys.iter().map(|&k| vec![k as f64]).collect()
    }

    #[test]
    fn second_fetch_is_served_from_cache() {
        let upstream = Arc::new(KeyedSource::new());
        let cache = CachedFeatureSource::new(Arc::clone(&upstream) as Arc<_>, small_config());
        let keys = [1u64, 2, 3];
        let a = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        let b = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 1);
        let snap = cache.stats().snapshot();
        assert_eq!(snap.misses, 3);
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.upstream_batches, 1);
    }

    #[test]
    fn partial_hit_fetches_only_the_misses_and_preserves_row_order() {
        let upstream = Arc::new(KeyedSource::new());
        let cache = CachedFeatureSource::new(Arc::clone(&upstream) as Arc<_>, small_config());
        cache
            .fetch_batch(&[10, 20], &inline_for(&[10, 20]))
            .unwrap();
        assert_eq!(upstream.keys_fetched.load(Ordering::SeqCst), 2);
        // 30 and 40 are cold; 10 and 20 are warm; order must be preserved
        let keys = [30u64, 10, 40, 20];
        let m = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 2);
        assert_eq!(upstream.keys_fetched.load(Ordering::SeqCst), 4);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.row(i), KeyedSource::row_for(k).as_slice(), "row {i}");
        }
    }

    #[test]
    fn duplicate_keys_in_one_batch_fetch_once() {
        let upstream = Arc::new(KeyedSource::new());
        let cache = CachedFeatureSource::new(Arc::clone(&upstream) as Arc<_>, small_config());
        let keys = [7u64, 7, 7, 8];
        let m = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(upstream.keys_fetched.load(Ordering::SeqCst), 2);
        assert_eq!(m.row(0), m.row(1));
        assert_eq!(cache.stats().snapshot().misses, 2);
    }

    #[test]
    fn positive_ttl_expiry_refetches() {
        let clock = Arc::new(ManualClock::new());
        let upstream = Arc::new(KeyedSource::new());
        let cache = CachedFeatureSource::with_clock(
            Arc::clone(&upstream) as Arc<_>,
            small_config(),
            Arc::clone(&clock) as Arc<_>,
        );
        cache.fetch_batch(&[5], &inline_for(&[5])).unwrap();
        clock.advance(Duration::from_secs(9));
        cache.fetch_batch(&[5], &inline_for(&[5])).unwrap();
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 1, "still fresh");
        clock.advance(Duration::from_secs(2)); // now 11s > 10s ttl
        cache.fetch_batch(&[5], &inline_for(&[5])).unwrap();
        assert_eq!(
            upstream.calls.load(Ordering::SeqCst),
            2,
            "expired → refetch"
        );
    }

    #[test]
    fn negative_cache_fails_fast_then_recovers_after_its_ttl() {
        let clock = Arc::new(ManualClock::new());
        let failing =
            Arc::new(FailingFeatureSource::new(Arc::new(KeyedSource::new())).fail_window(0, 1));
        let cache = CachedFeatureSource::with_clock(
            Arc::clone(&failing) as Arc<_>,
            small_config(),
            Arc::clone(&clock) as Arc<_>,
        );
        // first fetch hits the injected outage and is negative-cached
        assert!(cache.fetch_batch(&[9], &inline_for(&[9])).is_err());
        assert_eq!(failing.fetches(), 1);
        // fast-fail without touching the upstream while the entry is fresh
        for _ in 0..5 {
            assert!(cache.fetch_batch(&[9], &inline_for(&[9])).is_err());
        }
        assert_eq!(failing.fetches(), 1, "outage must not be hammered");
        assert_eq!(cache.stats().snapshot().negative_hits, 5);
        // after negative_ttl the upstream (now healed) is probed again
        clock.advance(Duration::from_secs(2));
        let m = cache.fetch_batch(&[9], &inline_for(&[9])).unwrap();
        assert_eq!(m.rows(), 1);
        assert_eq!(failing.fetches(), 2);
    }

    #[test]
    fn warm_entries_bridge_an_outage() {
        let clock = Arc::new(ManualClock::new());
        let failing =
            Arc::new(FailingFeatureSource::new(Arc::new(KeyedSource::new())).fail_from(1));
        let cache = CachedFeatureSource::with_clock(
            Arc::clone(&failing) as Arc<_>,
            small_config(),
            Arc::clone(&clock) as Arc<_>,
        );
        // warm while healthy (fetch 0 succeeds), then the store dies
        let keys = [1u64, 2, 3, 4];
        cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        for _ in 0..10 {
            let m = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
            assert_eq!(m.rows(), 4);
        }
        assert_eq!(failing.fetches(), 1, "outage never even observed");
        // a cold key during the outage fails (and is negative-cached) …
        assert!(cache.fetch_batch(&[99], &inline_for(&[99])).is_err());
        assert_eq!(failing.failures(), 1);
        // … but the warm keys keep serving
        assert!(cache.fetch_batch(&keys, &inline_for(&keys)).is_ok());
    }

    #[test]
    fn capacity_evicts_the_entry_closest_to_expiry() {
        let cfg = CacheConfig {
            stripes: 1,
            capacity_per_stripe: 2,
            ..small_config()
        };
        let upstream = Arc::new(KeyedSource::new());
        let clock = Arc::new(ManualClock::new());
        let cache = CachedFeatureSource::with_clock(
            Arc::clone(&upstream) as Arc<_>,
            cfg,
            Arc::clone(&clock) as Arc<_>,
        );
        cache.fetch_batch(&[1], &inline_for(&[1])).unwrap();
        clock.advance(Duration::from_secs(1)); // key 1 now expires first
        cache.fetch_batch(&[2], &inline_for(&[2])).unwrap();
        cache.fetch_batch(&[3], &inline_for(&[3])).unwrap(); // evicts 1
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().snapshot().evictions, 1);
        cache.fetch_batch(&[2], &inline_for(&[2])).unwrap(); // still warm
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 3);
        cache.fetch_batch(&[1], &inline_for(&[1])).unwrap(); // was evicted
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn stampede_on_one_cold_key_issues_one_upstream_call() {
        let upstream = Arc::new(KeyedSource::slow(Duration::from_millis(30)));
        let cache = Arc::new(CachedFeatureSource::new(
            Arc::clone(&upstream) as Arc<_>,
            small_config(),
        ));
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let mut handles = Vec::new();
        for _ in 0..n {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache.fetch_batch(&[42], &inline_for(&[42])).unwrap()
            }));
        }
        for h in handles {
            let m = h.join().unwrap();
            assert_eq!(m.row(0), KeyedSource::row_for(42).as_slice());
        }
        assert_eq!(
            upstream.calls.load(Ordering::SeqCst),
            1,
            "single-flight must collapse the stampede"
        );
        assert!(cache.stats().snapshot().coalesced >= 1);
    }

    #[test]
    fn invalidate_drops_entries_lazily_and_counts_them() {
        let upstream = Arc::new(KeyedSource::new());
        let cache = CachedFeatureSource::new(Arc::clone(&upstream) as Arc<_>, small_config());
        let keys = [1u64, 2, 3];
        cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.generation(), 0);

        // invalidate is O(1): entries stay resident until touched
        cache.invalidate();
        assert_eq!(cache.generation(), 1);
        assert_eq!(cache.len(), 3, "drop is lazy, not eager");
        assert_eq!(cache.stats().snapshot().invalidated, 0);

        // the next batch must refetch — TTL-fresh entries are still stale
        let m = cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 2, "refetched");
        let snap = cache.stats().snapshot();
        assert_eq!(snap.invalidated, 3);
        assert_eq!(snap.hits, 0, "nothing survived the invalidation");

        // freshly restamped entries serve normally again
        cache.fetch_batch(&keys, &inline_for(&keys)).unwrap();
        assert_eq!(upstream.calls.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().snapshot().hits, 3);
        assert_eq!(cache.stats().snapshot().invalidated, 3);
    }

    /// An upstream whose *first* fetch parks on a two-phase gate, so a test
    /// can interleave an action between a batch's generation read (which
    /// happens before the upstream call) and its publish (after).
    struct GatedSource {
        inner: KeyedSource,
        entered: Arc<Barrier>,
        release: Arc<Barrier>,
        first: std::sync::atomic::AtomicBool,
    }

    impl FeatureSource for GatedSource {
        fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
            if self.first.swap(false, Ordering::SeqCst) {
                self.entered.wait();
                self.release.wait();
            }
            self.inner.fetch_batch(keys, inline)
        }
    }

    #[test]
    fn invalidate_stales_rows_inserted_by_an_in_flight_batch() {
        // A batch that *started* before the invalidation must not publish
        // rows that survive it: inserts carry the generation read at batch
        // start, so the racing batch's rows land already-stale.
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let upstream = Arc::new(GatedSource {
            inner: KeyedSource::new(),
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
            first: std::sync::atomic::AtomicBool::new(true),
        });
        let cache = Arc::new(CachedFeatureSource::new(
            Arc::clone(&upstream) as Arc<_>,
            small_config(),
        ));
        let worker = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.fetch_batch(&[77], &inline_for(&[77])).unwrap();
            })
        };
        // Once `entered` trips, the worker has read generation 0 and is
        // parked inside its upstream call; invalidate, then let it publish.
        entered.wait();
        cache.invalidate();
        release.wait();
        worker.join().unwrap();
        assert_eq!(cache.len(), 1, "the stale row was still published");
        // the published row is from generation 0 < 1 → dropped on access
        cache.fetch_batch(&[77], &inline_for(&[77])).unwrap();
        assert_eq!(
            upstream.inner.calls.load(Ordering::SeqCst),
            2,
            "stale published row must be refetched"
        );
        assert_eq!(cache.stats().snapshot().invalidated, 1);
    }

    #[test]
    fn clear_empties_and_mismatched_lengths_error() {
        let cache = CachedFeatureSource::new(Arc::new(InlineFeatures), small_config());
        cache.fetch_batch(&[1, 2], &inline_for(&[1, 2])).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(matches!(
            cache.fetch_batch(&[1, 2], &inline_for(&[1])),
            Err(FactError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn manual_clock_advances_monotonically() {
        let c = ManualClock::new();
        let t0 = c.now();
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now() - t0, Duration::from_millis(5));
        assert!(SystemClock.now() <= SystemClock.now());
    }
}
