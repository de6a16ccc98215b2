//! Cache transparency: for a key-deterministic upstream,
//! [`CachedFeatureSource`] is row-for-row indistinguishable from the
//! uncached source — for *any* key sequence, TTL schedule, stripe count,
//! capacity (eviction pressure included), and worker count.
//!
//! This is the soundness contract from the cache's module docs, checked as
//! a property rather than by example: whatever mix of hits, misses,
//! expiries, evictions, and coalesced flights a workload produces, the
//! rows that come back must be exactly what the upstream would have
//! returned. [`InlineFeatures`] qualifies as key-deterministic here
//! because every request derives its inline row from its key.

use std::sync::Arc;
use std::time::Duration;

use fact_serve::testing::ManualClock;
use fact_serve::{CacheConfig, CachedFeatureSource, Clock, FeatureSource, InlineFeatures};
use proptest::prelude::*;

/// The key-deterministic feature row: any pure function of the key works;
/// this one varies every component so row mix-ups can't cancel out.
fn row_for(key: u64) -> Vec<f64> {
    vec![
        key as f64 * 0.25,
        ((key % 7) as f64).sin(),
        (key ^ (key >> 3)) as f64,
    ]
}

fn assert_transparent(
    cache: &CachedFeatureSource,
    keys: &[u64],
) -> std::result::Result<(), TestCaseError> {
    let inline: Vec<Vec<f64>> = keys.iter().map(|&k| row_for(k)).collect();
    let expected = InlineFeatures.fetch_batch(keys, &inline).unwrap();
    let got = cache.fetch_batch(keys, &inline).unwrap();
    prop_assert_eq!(got.rows(), expected.rows());
    prop_assert_eq!(got.cols(), expected.cols());
    for i in 0..expected.rows() {
        prop_assert_eq!(got.row(i), expected.row(i));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch/TTL sequence against any cache shape: rows identical to
    /// the uncached source. Tiny capacities force evictions, tiny TTLs
    /// force expiries, duplicate keys in a batch exercise dedup — none of
    /// it may be observable in the returned matrices.
    #[test]
    fn cached_rows_equal_uncached_rows_for_any_sequence(
        stripes in 1usize..5,
        positive_ttl_ms in 1u64..2_000,
        negative_ttl_ms in 1u64..500,
        capacity in 1usize..8,
        steps in prop::collection::vec(
            (prop::collection::vec(0u64..24, 1..10), 0u64..1_500),
            1..30,
        ),
    ) {
        let clock = Arc::new(ManualClock::new());
        let cache = CachedFeatureSource::with_clock(
            Arc::new(InlineFeatures),
            CacheConfig {
                stripes,
                positive_ttl: Duration::from_millis(positive_ttl_ms),
                negative_ttl: Duration::from_millis(negative_ttl_ms),
                capacity_per_stripe: capacity,
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for (keys, advance_ms) in steps {
            assert_transparent(&cache, &keys)?;
            clock.advance(Duration::from_millis(advance_ms));
        }
    }
}

/// The same invariant under real concurrency: 1, 2, and 4 workers hammer
/// one shared cache (small capacity, so eviction and re-fetch race with
/// hits and coalesced flights) and every returned row must still be the
/// upstream's. Per-thread key streams are deterministic, so any failure
/// reproduces.
#[test]
fn cached_rows_equal_uncached_rows_at_any_worker_count() {
    for workers in [1usize, 2, 4] {
        let cache = Arc::new(CachedFeatureSource::new(
            Arc::new(InlineFeatures),
            CacheConfig {
                stripes: 4,
                positive_ttl: Duration::from_millis(5),
                negative_ttl: Duration::from_millis(1),
                capacity_per_stripe: 4,
            },
        ));
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    // splitmix64-style per-thread key stream
                    let mut state = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..300 {
                        let keys: Vec<u64> = (0..4)
                            .map(|_| {
                                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                                let mut z = state;
                                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                                z ^ (z >> 27)
                            })
                            .map(|z| z % 32)
                            .collect();
                        let inline: Vec<Vec<f64>> = keys.iter().map(|&k| row_for(k)).collect();
                        let got = cache.fetch_batch(&keys, &inline).unwrap();
                        for (i, &k) in keys.iter().enumerate() {
                            assert_eq!(got.row(i), row_for(k).as_slice(), "key {k}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            cache.stats().snapshot().evictions > 0,
            "stress must actually exercise eviction at {workers} workers"
        );
    }
}
