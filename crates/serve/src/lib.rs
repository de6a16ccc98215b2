//! # fact-serve — concurrent FACT-guarded decision serving
//!
//! §3 of the paper frames the scale problem with the "Internet Minute":
//! responsible data science has to hold *while decisions are being served*,
//! millions per minute, not only in offline audits. This crate is the
//! serving fabric for that regime, built on `std` alone (threads + mpsc —
//! the build environment has no async runtime):
//!
//! * **Sharding** — [`DecisionService::start`] spins up one worker thread
//!   per shard; requests are routed by key hash so a user's decisions stay
//!   on one shard (and one guard window).
//! * **Admission control** — every shard queue is *bounded*. A full queue
//!   sheds the request immediately with [`ServeError::Busy`] rather than
//!   buffering into latency collapse; callers that wait bound their own
//!   exposure with [`ServeError::Timeout`]. Setting
//!   [`ServeConfig::admission`] layers an *adaptive* bound on top: an
//!   AIMD latency-target controller shrinks the effective capacity when
//!   the rolling p99 exceeds [`AdmissionConfig::target_p99`] and grows it
//!   back when under, while per-tenant token quotas shed a flooding
//!   tenant with [`ServeError::Throttled`] before it can starve anyone
//!   else (see [`admission`]).
//! * **Micro-batching** — workers drain their queue into batches (up to
//!   `batch_max`, lingering `batch_linger` for stragglers) so one
//!   matrix-level [`Classifier::predict_proba`] call amortizes model
//!   overhead across requests.
//! * **Feature sources** — each micro-batch's feature matrix is assembled
//!   by a [`FeatureSource`] (one `fetch_batch` call per batch, ahead of the
//!   model): [`InlineFeatures`] by default, or a remote store —
//!   [`SimulatedRemoteSource`] in the experiments — via
//!   [`DecisionService::start_with_source`], so a fetch round trip is paid
//!   per batch, not per request.
//! * **Feature caching** — setting [`ServeConfig::cache`] wraps the source
//!   in a [`CachedFeatureSource`]: a sharded TTL map with negative caching
//!   (recently failed keys fail fast instead of hammering a dead store)
//!   and single-flight stampede protection (concurrent batches missing on
//!   one key issue one upstream call). Warm entries bridge store outages;
//!   hit/miss/negative-hit/eviction counters land in the metrics and the
//!   final report.
//! * **Streaming guards** — each shard owns one [`Guards`], as E9's
//!   [`GuardedStream`] does: a [`StreamingFairnessMonitor`], an optional
//!   [`DriftMonitor`] over the decision scores, and a [`StreamingDpCounter`]
//!   spending a per-shard ε budget. Alerts are debounced per kind, DP
//!   releases excepted, and merged into one channel ([`DecisionService::drain_alerts`]). A trip engages the
//!   [`DegradePolicy`]: keep serving but flag decisions for audit, or
//!   hard-reject until the cooldown passes — responsibility degrades the
//!   service, never silently disables itself.
//! * **Observability** — a lock-free
//!   [`MetricsRegistry`](metrics::MetricsRegistry), the one tally of every
//!   serving fact: relaxed-atomic counters, log-linear latency buckets (4
//!   linear sub-buckets per octave) with p50/p95/p99, and per shard the
//!   queue depth, shed/timeout/alert counts and ε ledger total. Live
//!   snapshots and the final [`ServiceReport`] read it and render text
//!   through one set of line writers.
//! * **Graceful shutdown** — [`DecisionService::shutdown`] stops admission,
//!   lets every shard serve what it already accepted, and returns a
//!   [`ServiceReport`] with decisions served, alerts raised, and ε spent.
//!
//! ```
//! use std::sync::Arc;
//! use fact_data::{Matrix, Result};
//! use fact_ml::Classifier;
//! use fact_serve::{DecisionRequest, DecisionService, ServeConfig};
//!
//! struct Threshold;
//! impl Classifier for Threshold {
//!     fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
//!         Ok((0..x.rows()).map(|i| x.get(i, 0)).collect())
//!     }
//! }
//!
//! let service = DecisionService::start(
//!     Arc::new(Threshold),
//!     ServeConfig { shards: 2, n_features: 1, ..ServeConfig::default() },
//! ).unwrap();
//! let decision = service.decide(DecisionRequest {
//!     features: vec![0.9],
//!     group_b: false,
//!     route_key: 17,
//!     tenant: 0,
//! }).unwrap();
//! assert!(decision.favorable);
//! let report = service.shutdown();
//! assert_eq!(report.decisions_served, 1);
//! ```
//!
//! [`Classifier::predict_proba`]: fact_ml::Classifier::predict_proba
//! [`Guards`]: fact_core::runtime::Guards
//! [`GuardedStream`]: fact_core::runtime::GuardedStream
//! [`StreamingFairnessMonitor`]: fact_core::runtime::StreamingFairnessMonitor
//! [`StreamingDpCounter`]: fact_core::runtime::StreamingDpCounter
//! [`DriftMonitor`]: fact_core::drift::DriftMonitor

#![warn(missing_docs)]

pub mod admission;
pub mod archive;
pub mod audit_sink;
pub mod cache;
pub mod checkpoint;
pub mod guards;
pub mod metrics;
pub mod service;
pub mod source;
pub mod testing;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
pub use archive::{
    decode_archive, encode_archive, run_once as archive_run_once, ArchiveConfig, ArchiveManifest,
    ArchiveStats,
};
pub use audit_sink::{
    read_segment_or_archive, verify_all_segments, verify_segment, AuditEvent, AuditSink,
    AuditSinkConfig, AuditSinkHandle, AuditStorage, FileStorage, SinkReport,
};
pub use cache::{CacheConfig, CachedFeatureSource, Clock};
pub use checkpoint::{
    transform_checkpoints, CheckpointConfig, GuardCheckpoint, GuardState, LedgerEntry,
};
pub use guards::{DegradePolicy, GuardConfig};
pub use metrics::{AdmissionStats, MetricsSnapshot, ShardSnapshot};
pub use service::{
    Decision, DecisionHandle, DecisionRequest, DecisionService, NetShardHandler, ServeConfig,
    ServeError, ServiceReport, ShardSlot,
};
pub use source::{FeatureSource, InlineFeatures, SimulatedRemoteSource};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemStorage;
    use fact_data::{Matrix, Result};
    use fact_ml::Classifier;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Probability = first feature; optionally stalls per batch so tests
    /// can fill queues deterministically.
    struct StubModel {
        stall: Duration,
        batches: AtomicU64,
    }

    impl StubModel {
        fn instant() -> Self {
            StubModel {
                stall: Duration::ZERO,
                batches: AtomicU64::new(0),
            }
        }

        fn slow(stall: Duration) -> Self {
            StubModel {
                stall,
                batches: AtomicU64::new(0),
            }
        }
    }

    impl Classifier for StubModel {
        fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            if !self.stall.is_zero() {
                std::thread::sleep(self.stall);
            }
            Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
        }
    }

    fn request(p: f64, key: u64) -> DecisionRequest {
        DecisionRequest {
            features: vec![p],
            group_b: key % 2 == 0,
            route_key: key,
            tenant: 0,
        }
    }

    fn base_config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            n_features: 1,
            queue_cap: 64,
            batch_max: 8,
            batch_linger: Duration::from_micros(100),
            default_timeout: Duration::from_secs(5),
            guards: None,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn batching_returns_each_caller_its_own_prediction() {
        let model = Arc::new(StubModel::slow(Duration::from_millis(2)));
        let service = DecisionService::start(
            Arc::clone(&model) as Arc<dyn Classifier + Send + Sync>,
            ServeConfig {
                shards: 1,
                batch_max: 16,
                batch_linger: Duration::from_millis(5),
                ..base_config()
            },
        )
        .unwrap();
        // enqueue k requests with distinct known probabilities, then reap:
        // micro-batching must not permute replies across callers
        let k = 32;
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let p = i as f64 / k as f64;
                (p, service.submit(request(p, i as u64)).unwrap())
            })
            .collect();
        for (p, h) in handles {
            let d = h.wait(Duration::from_secs(10)).unwrap();
            assert!(
                (d.probability - p).abs() < 1e-12,
                "got {} want {p}",
                d.probability
            );
            assert_eq!(d.favorable, p >= 0.5);
            assert_eq!(d.shard, 0);
        }
        let report = service.shutdown();
        assert_eq!(report.decisions_served, k as u64);
        // the slow model forces queue build-up, so batching must have kicked
        // in: far fewer batches than requests
        assert!(
            model.batches.load(Ordering::Relaxed) < k as u64,
            "expected micro-batches, got one call per request"
        );
    }

    #[test]
    fn bounded_queue_sheds_with_busy() {
        // one shard, tiny queue, model stalled long enough that nothing
        // drains while we flood
        let service = DecisionService::start(
            Arc::new(StubModel::slow(Duration::from_millis(200))),
            ServeConfig {
                shards: 1,
                queue_cap: 4,
                batch_max: 1,
                batch_linger: Duration::ZERO,
                ..base_config()
            },
        )
        .unwrap();
        let mut accepted = Vec::new();
        let mut busy = 0;
        for i in 0..64 {
            match service.submit(request(0.5, i)) {
                Ok(h) => accepted.push(h),
                Err(ServeError::Busy { shard }) => {
                    assert_eq!(shard, 0);
                    busy += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(busy > 0, "flooding a capacity-4 queue must shed");
        // capacity + at most a couple in flight
        assert!(accepted.len() <= 8, "accepted {}", accepted.len());
        let snap = service.metrics();
        assert_eq!(snap.shed(), busy);
        // every accepted request is still answered
        for h in accepted {
            h.wait(Duration::from_secs(30)).unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn caller_timeout_is_typed_and_counted() {
        let service = DecisionService::start(
            Arc::new(StubModel::slow(Duration::from_millis(100))),
            ServeConfig {
                shards: 1,
                ..base_config()
            },
        )
        .unwrap();
        let h = service.submit(request(0.5, 1)).unwrap();
        match h.wait(Duration::from_millis(1)) {
            Err(ServeError::Timeout { waited }) => {
                assert_eq!(waited, Duration::from_millis(1))
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        let snap = service.metrics();
        assert_eq!(snap.shards[0].timeouts, 1);
        let report = service.shutdown();
        // the timed-out request was still served after the caller left
        assert_eq!(report.decisions_served, 1);
        assert_eq!(report.timed_out, 1);
    }

    fn disparity_config(policy: DegradePolicy) -> ServeConfig {
        ServeConfig {
            shards: 1,
            policy,
            trip_cooldown: 10_000,
            guards: Some(GuardConfig {
                fairness_window: 100,
                min_di: 0.8,
                min_samples_per_group: 10,
                dp_interval: 1_000_000, // keep DP quiet for this test
                ..GuardConfig::default()
            }),
            ..base_config()
        }
    }

    /// Group B requests get low scores, group A high: trips the fairness
    /// guard quickly.
    fn run_disparity_traffic(
        service: &DecisionService,
        n: u64,
    ) -> Vec<std::result::Result<Decision, ServeError>> {
        (0..n)
            .map(|i| {
                let group_b = i % 2 == 0;
                let p = if group_b { 0.1 } else { 0.9 };
                service.decide(DecisionRequest {
                    features: vec![p],
                    group_b,
                    route_key: i,
                    tenant: 0,
                })
            })
            .collect()
    }

    #[test]
    fn guard_trip_degrades_to_audit_and_flag() {
        let service = DecisionService::start(
            Arc::new(StubModel::instant()),
            disparity_config(DegradePolicy::AuditAndFlag),
        )
        .unwrap();
        let results = run_disparity_traffic(&service, 400);
        let flagged = results
            .iter()
            .filter(|r| matches!(r, Ok(d) if d.flagged))
            .count();
        assert!(flagged > 0, "sustained disparity must flag decisions");
        assert!(
            results.iter().all(|r| r.is_ok()),
            "audit-and-flag keeps serving"
        );
        let alerts = service.drain_alerts();
        assert!(
            alerts
                .iter()
                .any(|a| a.shard == 0 && matches!(a.alert, Alert::FairnessViolation { .. })),
            "alert channel must carry the violation"
        );
        let report = service.shutdown();
        assert_eq!(report.decisions_served, 400);
        assert!(report.flagged > 0);
        assert!(report.alerts_raised > 0);
        assert_eq!(report.rejected, 0);
    }

    use fact_core::runtime::Alert;

    #[test]
    fn guard_trip_hard_rejects_until_cooldown() {
        let service = DecisionService::start(
            Arc::new(StubModel::instant()),
            disparity_config(DegradePolicy::HardReject),
        )
        .unwrap();
        let results = run_disparity_traffic(&service, 400);
        let rejected = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Rejected { .. })))
            .count();
        assert!(rejected > 0, "hard-reject must refuse after the trip");
        // requests before the trip were served normally
        assert!(matches!(&results[0], Ok(d) if !d.flagged));
        let report = service.shutdown();
        assert_eq!(report.rejected, rejected as u64);
        assert_eq!(
            report.decisions_served, 400,
            "rejections are still decisions served"
        );
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let service = DecisionService::start(
            Arc::new(StubModel::slow(Duration::from_millis(1))),
            ServeConfig {
                shards: 2,
                queue_cap: 128,
                batch_max: 4,
                ..base_config()
            },
        )
        .unwrap();
        let handles: Vec<_> = (0..100)
            .filter_map(|i| service.submit(request(0.7, i)).ok())
            .collect();
        let accepted = handles.len() as u64;
        assert!(accepted > 0);
        // shut down from a clone while requests are still queued
        let report = service.clone().shutdown();
        assert_eq!(
            report.decisions_served, accepted,
            "drain must answer everything"
        );
        for h in handles {
            assert!(h.wait(Duration::from_secs(1)).is_ok());
        }
        // post-shutdown submissions are refused, and shutdown is idempotent
        assert!(matches!(
            service.submit(request(0.5, 0)),
            Err(ServeError::ShuttingDown)
        ));
        let again = service.shutdown();
        assert_eq!(again.decisions_served, accepted);
    }

    #[test]
    fn epsilon_is_accounted_in_the_report() {
        let service = DecisionService::start(
            Arc::new(StubModel::instant()),
            ServeConfig {
                shards: 1,
                policy: DegradePolicy::Off,
                guards: Some(GuardConfig {
                    dp_interval: 50,
                    epsilon_per_release: 0.01,
                    epsilon_budget: 1.0,
                    ..GuardConfig::default()
                }),
                ..base_config()
            },
        )
        .unwrap();
        for i in 0..500 {
            service.decide(request(0.5, i)).unwrap();
        }
        let snap = service.metrics();
        let report = service.shutdown();
        // 500 decisions at one release per 50 → 10 releases of ε=0.01
        assert!(
            (report.epsilon_spent - 0.10).abs() < 1e-9,
            "{}",
            report.epsilon_spent
        );
        assert!((snap.epsilon_spent - report.epsilon_spent).abs() < 1e-9);
        let text = report.render_text();
        assert!(text.contains("eps_spent=0.1000"), "{text}");
    }

    #[test]
    fn config_validation() {
        let model: Arc<dyn Classifier + Send + Sync> = Arc::new(StubModel::instant());
        for bad in [
            ServeConfig {
                shards: 0,
                ..base_config()
            },
            ServeConfig {
                queue_cap: 0,
                ..base_config()
            },
            ServeConfig {
                batch_max: 0,
                ..base_config()
            },
            ServeConfig {
                n_features: 0,
                ..base_config()
            },
            ServeConfig {
                threshold: 1.5,
                ..base_config()
            },
        ] {
            assert!(matches!(
                DecisionService::start(Arc::clone(&model), bad),
                Err(ServeError::BadRequest(_))
            ));
        }
        let service = DecisionService::start(model, base_config()).unwrap();
        assert!(matches!(
            service.submit(DecisionRequest {
                features: vec![0.1, 0.2],
                group_b: false,
                route_key: 0,
                tenant: 0,
            }),
            Err(ServeError::BadRequest(_))
        ));
        service.shutdown();
    }

    #[test]
    fn custom_feature_source_feeds_the_model() {
        /// Ignores the inline features and serves `route_key / 100`.
        struct KeyedSource {
            fetches: AtomicU64,
        }
        impl FeatureSource for KeyedSource {
            fn fetch_batch(&self, keys: &[u64], _inline: &[Vec<f64>]) -> Result<Matrix> {
                self.fetches.fetch_add(1, Ordering::Relaxed);
                let rows: Vec<Vec<f64>> = keys.iter().map(|&k| vec![k as f64 / 100.0]).collect();
                Matrix::from_rows(&rows)
            }
        }
        let source = Arc::new(KeyedSource {
            fetches: AtomicU64::new(0),
        });
        let service = DecisionService::start_with_source(
            Arc::new(StubModel::instant()),
            ServeConfig {
                shards: 1,
                ..base_config()
            },
            Arc::clone(&source) as Arc<dyn FeatureSource>,
        )
        .unwrap();
        // inline feature says 0.9, but the source must win with key/100
        let d = service
            .decide(DecisionRequest {
                features: vec![0.9],
                group_b: false,
                route_key: 20,
                tenant: 0,
            })
            .unwrap();
        assert!((d.probability - 0.2).abs() < 1e-12, "{}", d.probability);
        assert!(!d.favorable);
        assert!(source.fetches.load(Ordering::Relaxed) >= 1);
        service.shutdown();
    }

    #[test]
    fn try_wait_polls_none_then_decision_then_disconnected() {
        use std::time::Instant;
        let service = DecisionService::start(
            Arc::new(StubModel::slow(Duration::from_millis(50))),
            ServeConfig {
                shards: 1,
                ..base_config()
            },
        )
        .unwrap();
        let h = service.submit(request(0.9, 1)).unwrap();
        // in flight: polling must neither block nor consume anything
        assert!(h.try_wait().is_none());
        let deadline = Instant::now() + Duration::from_secs(10);
        let d = loop {
            match h.try_wait() {
                Some(Ok(d)) => break d,
                Some(Err(e)) => panic!("unexpected error: {e}"),
                None => {
                    assert!(Instant::now() < deadline, "decision never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        assert!(d.favorable);
        // the reply slot is one-shot: once the decision is taken further
        // polls say so
        assert!(matches!(h.try_wait(), Some(Err(ServeError::ShuttingDown))));
        service.shutdown();
    }

    #[test]
    fn concurrent_submit_and_shutdown_never_loses_an_accepted_request() {
        // submit from one thread while another shuts down: every accepted
        // request must resolve to a decision (no hangs, no dropped reply
        // channels), everything after the cut must be refused as
        // ShuttingDown, and the report must account exactly the accepted.
        let service = DecisionService::start(
            Arc::new(StubModel::slow(Duration::from_millis(1))),
            ServeConfig {
                shards: 2,
                queue_cap: 256,
                batch_max: 8,
                ..base_config()
            },
        )
        .unwrap();
        let svc = service.clone();
        let submitter = std::thread::spawn(move || {
            let mut handles = Vec::new();
            let mut refused = 0u64;
            for i in 0..2_000u64 {
                match svc.submit(request(0.6, i)) {
                    Ok(h) => handles.push(h),
                    Err(ServeError::ShuttingDown) | Err(ServeError::Busy { .. }) => refused += 1,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            (handles, refused)
        });
        std::thread::sleep(Duration::from_millis(5));
        let report = service.shutdown();
        let (handles, _refused) = submitter.join().unwrap();
        let accepted = handles.len() as u64;
        for h in handles {
            assert!(
                h.wait(Duration::from_secs(10)).is_ok(),
                "an accepted request was never answered"
            );
        }
        assert_eq!(report.decisions_served, accepted);
        // the cut is clean: after shutdown returned, submission is refused
        assert!(matches!(
            service.submit(request(0.5, 0)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn audited_service_persists_flagged_decisions_across_restart() {
        use fact_transparency::{verify_chain_from, ChainHead};
        let storage = MemStorage::new();
        // first run: disparity traffic trips the guard, flags get audited
        let service = DecisionService::start_with_audit_storage(
            Arc::new(StubModel::instant()),
            disparity_config(DegradePolicy::AuditAndFlag),
            Arc::new(InlineFeatures),
            Box::new(storage.clone()),
        )
        .unwrap();
        assert_eq!(service.audit_recovery().unwrap().recovered, 0);
        run_disparity_traffic(&service, 400);
        let report = service.shutdown();
        assert!(report.flagged > 0);
        // sink_start + sink_stop + every flag + forwarded alerts
        assert!(report.audited >= report.flagged + 2, "{report:?}");
        assert_eq!(report.lost_on_recovery, 0);
        let first_run_entries = audit_sink::parse_log(&storage.log_bytes()).len() as u64;
        assert_eq!(first_run_entries, report.audited);

        // second run over the same storage: recovery sees the intact chain
        // and appends with prev_hash continuity across the restart
        let service = DecisionService::start_with_audit_storage(
            Arc::new(StubModel::instant()),
            disparity_config(DegradePolicy::AuditAndFlag),
            Arc::new(InlineFeatures),
            Box::new(storage.clone()),
        )
        .unwrap();
        let rec = service.audit_recovery().unwrap();
        assert_eq!(rec.recovered, first_run_entries);
        assert_eq!(rec.lost, 0);
        run_disparity_traffic(&service, 400);
        let report2 = service.shutdown();
        assert!(report2.flagged > 0);
        let entries = audit_sink::parse_log(&storage.log_bytes());
        assert_eq!(
            entries.len() as u64,
            report.audited + report2.audited,
            "both runs must share one log"
        );
        assert_eq!(
            verify_chain_from(ChainHead::genesis(), &entries),
            None,
            "the chain must verify across the restart boundary"
        );
        let text = report2.render_text();
        assert!(text.contains("audited="), "{text}");
    }

    #[test]
    fn serve_config_cache_wires_counters_into_metrics_and_report() {
        /// Key-deterministic source (required for caching to be sound):
        /// probability = (route_key % 100) / 100.
        struct KeyedSource {
            fetches: AtomicU64,
        }
        impl FeatureSource for KeyedSource {
            fn fetch_batch(&self, keys: &[u64], _inline: &[Vec<f64>]) -> Result<Matrix> {
                self.fetches.fetch_add(1, Ordering::Relaxed);
                let rows: Vec<Vec<f64>> = keys
                    .iter()
                    .map(|&k| vec![(k % 100) as f64 / 100.0])
                    .collect();
                Matrix::from_rows(&rows)
            }
        }
        let source = Arc::new(KeyedSource {
            fetches: AtomicU64::new(0),
        });
        let service = DecisionService::start_with_source(
            Arc::new(StubModel::instant()),
            ServeConfig {
                shards: 1,
                cache: Some(CacheConfig::default()),
                ..base_config()
            },
            Arc::clone(&source) as Arc<dyn FeatureSource>,
        )
        .unwrap();
        // the same 8 users decide 50 times each: after the cold pass every
        // fetch is a cache hit and the upstream is never called again
        for round in 0..50 {
            for user in 0..8u64 {
                let d = service.decide(request(0.9, user)).unwrap();
                assert!(
                    (d.probability - (user % 100) as f64 / 100.0).abs() < 1e-12,
                    "round {round}: cached row must equal the source's row"
                );
            }
        }
        let snap = service.metrics();
        assert_eq!(snap.cache.misses, 8);
        assert!(snap.cache.hits >= 8 * 49, "hits={}", snap.cache.hits);
        assert!(snap.cache.hit_rate() > 0.9);
        let upstream_calls = source.fetches.load(Ordering::Relaxed);
        assert!(upstream_calls <= 8, "upstream saw {upstream_calls} calls");
        let report = service.shutdown();
        assert_eq!(report.cache.misses, 8);
        assert_eq!(report.cache.hits, snap.cache.hits);
        let text = report.render_text();
        assert!(text.contains("cache hits="), "{text}");
    }

    #[test]
    fn invalidate_features_forces_a_refetch_and_counts_stale_drops() {
        struct KeyedSource {
            fetches: AtomicU64,
        }
        impl FeatureSource for KeyedSource {
            fn fetch_batch(&self, keys: &[u64], _inline: &[Vec<f64>]) -> Result<Matrix> {
                self.fetches.fetch_add(1, Ordering::Relaxed);
                let rows: Vec<Vec<f64>> = keys
                    .iter()
                    .map(|&k| vec![(k % 100) as f64 / 100.0])
                    .collect();
                Matrix::from_rows(&rows)
            }
        }
        let source = Arc::new(KeyedSource {
            fetches: AtomicU64::new(0),
        });
        let service = DecisionService::start_with_source(
            Arc::new(StubModel::instant()),
            ServeConfig {
                shards: 1,
                cache: Some(CacheConfig::default()),
                ..base_config()
            },
            Arc::clone(&source) as Arc<dyn FeatureSource>,
        )
        .unwrap();
        for user in 0..4u64 {
            service.decide(request(0.9, user)).unwrap();
            service.decide(request(0.9, user)).unwrap();
        }
        let warm_fetches = source.fetches.load(Ordering::Relaxed);
        assert!(service.metrics().cache.hits >= 4, "cache is warm");

        // the rollout hook: every cached row is stale from here on
        assert!(service.invalidate_features(), "a cache is configured");
        for user in 0..4u64 {
            service.decide(request(0.9, user)).unwrap();
        }
        assert!(
            source.fetches.load(Ordering::Relaxed) > warm_fetches,
            "post-invalidation decisions must refetch upstream"
        );
        let report = service.shutdown();
        assert_eq!(report.cache.invalidated, 4, "{:?}", report.cache);

        // without a cache the hook reports there was nothing to invalidate
        let plain = DecisionService::start(Arc::new(StubModel::instant()), base_config()).unwrap();
        assert!(!plain.invalidate_features());
        plain.shutdown();
    }

    #[test]
    fn invalid_cache_config_is_rejected() {
        let model: Arc<dyn Classifier + Send + Sync> = Arc::new(StubModel::instant());
        for bad in [
            CacheConfig {
                stripes: 0,
                ..CacheConfig::default()
            },
            CacheConfig {
                capacity_per_stripe: 0,
                ..CacheConfig::default()
            },
        ] {
            assert!(matches!(
                DecisionService::start(
                    Arc::clone(&model),
                    ServeConfig {
                        cache: Some(bad),
                        ..base_config()
                    },
                ),
                Err(ServeError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn route_key_is_sticky() {
        let service = DecisionService::start(
            Arc::new(StubModel::instant()),
            ServeConfig {
                shards: 4,
                ..base_config()
            },
        )
        .unwrap();
        let a = service.decide(request(0.5, 42)).unwrap().shard;
        for _ in 0..10 {
            assert_eq!(service.decide(request(0.5, 42)).unwrap().shard, a);
        }
        service.shutdown();
    }
}
