//! E14 — feature caching: steady-state speedup and outage bridging
//! (EXPERIMENTS.md, E14).
//!
//! Two scenarios over the E11 workload shape (a remote feature store
//! charging a 1 ms round trip per batched fetch, key-deterministic
//! feature rows):
//!
//! * **Steady state** — the same batch stream is driven through the bare
//!   [`SimulatedRemoteSource`] and through a [`CachedFeatureSource`] over
//!   it. After one warming pass the cached path serves every batch from
//!   memory; the claim under test is a ≥5× lower mean batch-assembly
//!   latency (it lands near the full 1 ms round trip, ~100×).
//! * **Outage** — a [`DecisionService`] warms a keyspace, then the store
//!   goes hard down ([`FailingFeatureSource::fail_from`]). With the cache
//!   the warm keyspace keeps serving (bridged fraction ≈ 1.0) and cold
//!   keys fail fast from the negative cache with at most one upstream
//!   probe each per negative TTL; without it every request fails.
//!
//! `--smoke` shrinks the trial for CI; full mode writes `results/e14.txt`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::kit::{self, PassThrough};
use fact_serve::{
    CacheConfig, CachedFeatureSource, DecisionRequest, DecisionService, DegradePolicy,
    FailingFeatureSource, FeatureSource, ServeConfig, SimulatedRemoteSource,
};

const N_FEATURES: usize = 8;
/// Simulated feature-store round trip, paid once per uncached batch.
const FETCH: Duration = Duration::from_millis(1);
/// Distinct route keys the workload cycles over.
const KEYSPACE: u64 = 64;
const BATCH: usize = 8;

/// The key-deterministic feature row the cache contract requires: every
/// request for a key carries this exact row, so cached replay is sound.
fn row_for(key: u64) -> Vec<f64> {
    (0..N_FEATURES)
        .map(|j| ((key as f64 + 1.0) * (j as f64 + 1.0) * 0.618).fract())
        .collect()
}

fn request(key: u64) -> DecisionRequest {
    DecisionRequest {
        features: row_for(key),
        group_b: key.is_multiple_of(2),
        route_key: key,
        tenant: 0,
    }
}

/// Mean `fetch_batch` latency in microseconds over `batches` batches of
/// `BATCH` keys cycling through the keyspace.
fn mean_fetch_us(source: &dyn FeatureSource, batches: usize) -> f64 {
    let mut key = 0u64;
    let mut total = Duration::ZERO;
    for _ in 0..batches {
        let keys: Vec<u64> = (0..BATCH)
            .map(|_| {
                key = (key + 1) % KEYSPACE;
                key
            })
            .collect();
        let inline: Vec<Vec<f64>> = keys.iter().map(|&k| row_for(k)).collect();
        let start = Instant::now();
        source.fetch_batch(&keys, &inline).expect("fetch");
        total += start.elapsed();
    }
    total.as_secs_f64() * 1e6 / batches as f64
}

struct SteadyState {
    uncached_us: f64,
    cached_us: f64,
    speedup: f64,
    hit_rate: f64,
}

/// Scenario 1: identical batch streams through the bare remote source and
/// through the cache over it.
fn steady_state(batches: usize) -> SteadyState {
    let remote = SimulatedRemoteSource::new(FETCH);
    let uncached_us = mean_fetch_us(&remote, batches);

    let cached = CachedFeatureSource::new(
        Arc::new(remote),
        CacheConfig {
            positive_ttl: Duration::from_secs(600),
            ..CacheConfig::default()
        },
    );
    // one warming pass over the keyspace, then measure the steady state
    mean_fetch_us(&cached, KEYSPACE as usize / BATCH);
    let cached_us = mean_fetch_us(&cached, batches);
    SteadyState {
        uncached_us,
        cached_us,
        speedup: uncached_us / cached_us,
        hit_rate: cached.stats().snapshot().hit_rate(),
    }
}

struct Outage {
    served: u64,
    failed: u64,
    bridged_fraction: f64,
    upstream_probes: u64,
    negative_hits: u64,
}

/// Scenario 2: warm a service's keyspace, kill the store, keep serving.
/// `batch_max: 1` on one shard makes the Nth decide the Nth upstream
/// fetch, so `fail_from(KEYSPACE)` starts the outage exactly when warming
/// ends.
fn outage(rounds: u64, with_cache: bool) -> Outage {
    let source = Arc::new(
        FailingFeatureSource::new(Arc::new(SimulatedRemoteSource::new(FETCH))).fail_from(KEYSPACE),
    );
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        ServeConfig {
            shards: 1,
            n_features: N_FEATURES,
            batch_max: 1,
            batch_linger: Duration::ZERO,
            default_timeout: Duration::from_secs(5),
            policy: DegradePolicy::Off,
            guards: None,
            cache: with_cache.then(|| CacheConfig {
                positive_ttl: Duration::from_secs(600),
                negative_ttl: Duration::from_secs(600),
                ..CacheConfig::default()
            }),
            ..ServeConfig::default()
        },
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .expect("service start");

    for key in 0..KEYSPACE {
        service.decide(request(key)).expect("warm fetch");
    }

    // the store is now hard down; replay the warm keyspace plus two
    // probes per round at one never-warmed key
    let (mut served, mut failed) = (0u64, 0u64);
    for round in 0..rounds {
        for key in 0..KEYSPACE {
            match service.decide(request(key)) {
                Ok(_) => served += 1,
                Err(_) => failed += 1,
            }
        }
        for _ in 0..2 {
            let _ = service.decide(request(10_000 + round));
        }
    }
    let report = service.shutdown();
    Outage {
        served,
        failed,
        bridged_fraction: served as f64 / (served + failed) as f64,
        upstream_probes: source.fetches() - KEYSPACE,
        negative_hits: report.cache.negative_hits,
    }
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let (batches, rounds) = if smoke { (40, 2) } else { (400, 10) };

    println!(
        "E14: feature caching over a {}ms remote store ({} keys, batches of {})\n",
        FETCH.as_millis(),
        KEYSPACE,
        BATCH
    );
    let mut out = String::new();
    let mut emit = |line: &str| {
        println!("{line}");
        out.push_str(line);
        out.push('\n');
    };

    let ss = steady_state(batches);
    emit(&format!(
        "steady state ({batches} batches): uncached {:.1}us/batch, cached {:.1}us/batch",
        ss.uncached_us, ss.cached_us
    ));
    emit(&format!(
        "  speedup {:.0}x (claim: >=5x), cache hit rate {:.3}",
        ss.speedup, ss.hit_rate
    ));
    assert!(
        ss.speedup >= 5.0,
        "cached steady state must be >=5x faster (got {:.1}x)",
        ss.speedup
    );

    let bridged = outage(rounds, true);
    let dark = outage(rounds, false);
    emit(&format!(
        "\noutage ({rounds} rounds over the warm keyspace, store hard down):"
    ));
    emit(&format!(
        "  cached:   served {}/{} warm requests (bridged fraction {:.3}), \
         {} upstream probes, {} negative-cache fast-fails",
        bridged.served,
        bridged.served + bridged.failed,
        bridged.bridged_fraction,
        bridged.upstream_probes,
        bridged.negative_hits,
    ));
    emit(&format!(
        "  uncached: served {}/{} warm requests (bridged fraction {:.3})",
        dark.served,
        dark.served + dark.failed,
        dark.bridged_fraction,
    ));
    assert!(
        bridged.bridged_fraction > 0.99,
        "warm keyspace must be fully bridged (got {:.3})",
        bridged.bridged_fraction
    );
    assert_eq!(dark.served, 0, "no cache, no bridging");
    assert!(
        bridged.upstream_probes <= rounds,
        "negative cache must bound outage probes to one per cold key \
         (got {} for {} cold keys)",
        bridged.upstream_probes,
        rounds,
    );

    if smoke {
        println!("\nsmoke ok");
    } else {
        kit::write_results("e14", &out);
    }
}
