//! Feature-store outage resilience: every [`DegradePolicy`] exercised
//! while the [`FeatureSource`] is failing or slow.
//!
//! The contract under test: a failed batched fetch fails *that batch's*
//! requests with [`ServeError::Internal`] — it never panics a worker,
//! never wedges the queue, and never silently serves stale features. When
//! the store heals, serving (and the degrade policy's own behavior:
//! flagging or hard-rejecting after a guard trip) resumes unchanged.

use std::sync::Arc;
use std::time::Duration;

use fact_core::runtime::Alert;
use fact_data::{Matrix, Result};
use fact_ml::Classifier;
use fact_serve::testing::{FailingFeatureSource, MemStorage};
use fact_serve::{
    CacheConfig, Decision, DecisionRequest, DecisionService, DegradePolicy, FeatureSource,
    GuardConfig, InlineFeatures, ServeConfig, ServeError,
};

/// Probability = first feature, clamped.
struct PassThrough;

impl Classifier for PassThrough {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
    }
}

/// Single shard + single-request batches: the Nth decide() call is exactly
/// the Nth batched fetch, so a fail window is a deterministic outage.
fn config(policy: DegradePolicy, guards: Option<GuardConfig>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        n_features: 1,
        queue_cap: 64,
        batch_max: 1,
        batch_linger: Duration::ZERO,
        default_timeout: Duration::from_secs(5),
        policy,
        trip_cooldown: 10_000,
        guards,
        ..ServeConfig::default()
    }
}

/// Guards that trip the fairness monitor quickly under disparity traffic.
fn quick_trip_guards() -> GuardConfig {
    GuardConfig {
        fairness_window: 100,
        min_di: 0.8,
        min_samples_per_group: 10,
        dp_interval: 1_000_000,
        ..GuardConfig::default()
    }
}

/// Group B scores low, group A high: sustained disparate impact.
fn disparity_request(i: u64) -> DecisionRequest {
    let group_b = i.is_multiple_of(2);
    DecisionRequest {
        features: vec![if group_b { 0.1 } else { 0.9 }],
        group_b,
        route_key: i,
        tenant: 0,
    }
}

fn run_traffic(
    service: &DecisionService,
    n: u64,
) -> Vec<std::result::Result<Decision, ServeError>> {
    (0..n)
        .map(|i| service.decide(disparity_request(i)))
        .collect()
}

fn internal_errors(results: &[std::result::Result<Decision, ServeError>]) -> usize {
    results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Internal(_))))
        .count()
}

#[test]
fn outage_fails_only_its_own_batches_and_heals() {
    let source = Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_window(10, 20));
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        config(DegradePolicy::Off, None),
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .unwrap();
    let results = run_traffic(&service, 40);
    for (i, r) in results.iter().enumerate() {
        if (10..20).contains(&i) {
            assert!(
                matches!(r, Err(ServeError::Internal(_))),
                "request {i} during the outage must fail: {r:?}"
            );
        } else {
            assert!(
                r.is_ok(),
                "request {i} outside the outage must serve: {r:?}"
            );
        }
    }
    assert_eq!(source.fetches(), 40);
    assert_eq!(source.failures(), 10);
    let report = service.shutdown();
    // failed batches are answered but not *served*
    assert_eq!(report.decisions_served, 30);
}

#[test]
fn audit_and_flag_keeps_flagging_after_the_store_heals() {
    let source = Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_window(50, 60));
    let storage = MemStorage::new();
    let service = DecisionService::start_with_audit_storage(
        Arc::new(PassThrough),
        config(DegradePolicy::AuditAndFlag, Some(quick_trip_guards())),
        Arc::clone(&source) as Arc<dyn FeatureSource>,
        Box::new(storage.clone()),
    )
    .unwrap();
    let results = run_traffic(&service, 400);
    assert_eq!(internal_errors(&results), 10);
    let flagged_after_outage = results[60..]
        .iter()
        .filter(|r| matches!(r, Ok(d) if d.flagged))
        .count();
    assert!(
        flagged_after_outage > 0,
        "flagging must resume once the store heals"
    );
    let report = service.shutdown();
    assert_eq!(report.decisions_served, 390);
    assert!(report.flagged > 0);
    // the outage must not have poisoned the durable audit trail
    assert!(
        report.audited >= report.flagged,
        "audited={} flagged={}",
        report.audited,
        report.flagged
    );
    let entries = fact_serve::audit_sink::parse_log(&storage.log_bytes());
    assert_eq!(
        fact_transparency::verify_chain_from(fact_transparency::ChainHead::genesis(), &entries),
        None,
        "audit chain must verify end-to-end"
    );
}

#[test]
fn hard_reject_still_refuses_after_the_store_heals() {
    let source = Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_window(50, 60));
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        config(DegradePolicy::HardReject, Some(quick_trip_guards())),
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .unwrap();
    let results = run_traffic(&service, 400);
    assert_eq!(internal_errors(&results), 10);
    let rejected_after_outage = results[60..]
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Rejected { .. })))
        .count();
    assert!(
        rejected_after_outage > 0,
        "hard-reject must stay engaged across the outage"
    );
    let report = service.shutdown();
    assert!(report.rejected > 0);
    assert_eq!(report.decisions_served, 390);
}

#[test]
fn permanent_outage_fails_everything_but_shutdown_still_drains() {
    let source = Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_from(0));
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        config(DegradePolicy::AuditAndFlag, Some(quick_trip_guards())),
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .unwrap();
    let results = run_traffic(&service, 50);
    assert_eq!(internal_errors(&results), 50);
    let report = service.shutdown();
    assert_eq!(report.decisions_served, 0);
    assert_eq!(report.flagged, 0);
}

/// TTLs long enough that nothing expires mid-test: the outage is bridged
/// (or not) purely by what the warm phase cached.
fn long_lived_cache() -> CacheConfig {
    CacheConfig {
        stripes: 4,
        positive_ttl: Duration::from_secs(3_600),
        negative_ttl: Duration::from_secs(3_600),
        capacity_per_stripe: 1_024,
    }
}

/// Keys the warm phase touches; with `batch_max: 1` each costs exactly one
/// upstream fetch, so `fail_from(WARM_KEYS)` starts the outage the moment
/// warming ends.
const WARM_KEYS: u64 = 40;

#[test]
fn warm_cache_bridges_a_permanent_store_outage() {
    let source = Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_from(WARM_KEYS));
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        ServeConfig {
            cache: Some(long_lived_cache()),
            ..config(DegradePolicy::Off, None)
        },
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .unwrap();

    // Warm: every key misses once and is fetched from the (healthy) store.
    assert!(run_traffic(&service, WARM_KEYS).iter().all(|r| r.is_ok()));
    assert_eq!(source.fetches(), WARM_KEYS);

    // Outage: the store now fails every fetch, but five full rounds over
    // the warm keyspace are served entirely from cache — the store is not
    // even probed.
    for _ in 0..5 {
        let results = run_traffic(&service, WARM_KEYS);
        assert!(results.iter().all(|r| r.is_ok()), "warm keys must serve");
    }
    assert_eq!(
        source.fetches(),
        WARM_KEYS,
        "no upstream probes for warm keys"
    );
    assert_eq!(source.failures(), 0);

    // A cold key hits the dead store once, then fails fast from the
    // negative cache without another probe.
    let cold = disparity_request(1_000);
    for _ in 0..3 {
        assert!(matches!(
            service.decide(cold.clone()),
            Err(ServeError::Internal(_))
        ));
    }
    assert_eq!(source.fetches(), WARM_KEYS + 1, "one probe, then fail-fast");
    assert_eq!(source.failures(), 1);

    let report = service.shutdown();
    assert_eq!(report.decisions_served, WARM_KEYS * 6);
    assert!(report.cache.hits >= WARM_KEYS * 5);
    assert!(report.cache.negative_hits >= 2);
}

#[test]
fn every_degrade_policy_survives_an_outage_on_a_warm_cache() {
    for policy in [
        DegradePolicy::Off,
        DegradePolicy::AuditAndFlag,
        DegradePolicy::HardReject,
    ] {
        let source =
            Arc::new(FailingFeatureSource::new(Arc::new(InlineFeatures)).fail_from(WARM_KEYS));
        let service = DecisionService::start_with_source(
            Arc::new(PassThrough),
            ServeConfig {
                cache: Some(long_lived_cache()),
                ..config(policy, Some(quick_trip_guards()))
            },
            Arc::clone(&source) as Arc<dyn FeatureSource>,
        )
        .unwrap();

        // Warm phase populates the cache; the disparity traffic also trips
        // the fairness guard, engaging the policy. Features are fetched
        // before the policy is applied, so even hard-rejected warm
        // requests fill the cache.
        run_traffic(&service, WARM_KEYS);
        assert_eq!(source.fetches(), WARM_KEYS, "{policy:?}: warm fetches");

        // Outage over warm keys: the store is dead, yet not a single
        // request fails with Internal — the cache bridges it, and the
        // degrade policy's own behavior stays intact throughout.
        let mut results = Vec::new();
        for _ in 0..5 {
            results.extend(run_traffic(&service, WARM_KEYS));
        }
        assert_eq!(
            internal_errors(&results),
            0,
            "{policy:?}: outage must be invisible on warm keys"
        );
        assert_eq!(source.failures(), 0, "{policy:?}: store never probed");
        match policy {
            DegradePolicy::Off => assert!(results.iter().all(|r| r.is_ok())),
            DegradePolicy::AuditAndFlag => assert!(
                results.iter().any(|r| matches!(r, Ok(d) if d.flagged)),
                "flagging must continue through the outage"
            ),
            DegradePolicy::HardReject => assert!(
                results
                    .iter()
                    .any(|r| matches!(r, Err(ServeError::Rejected { .. }))),
                "hard-reject must stay engaged through the outage"
            ),
        }
        let report = service.shutdown();
        assert!(report.cache.hits >= WARM_KEYS * 5, "{policy:?}: cache hits");
    }
}

#[test]
fn slow_store_degrades_latency_not_correctness() {
    let source = Arc::new(
        FailingFeatureSource::new(Arc::new(InlineFeatures)).with_latency(Duration::from_millis(2)),
    );
    let service = DecisionService::start_with_source(
        Arc::new(PassThrough),
        config(DegradePolicy::Off, None),
        Arc::clone(&source) as Arc<dyn FeatureSource>,
    )
    .unwrap();
    let results = run_traffic(&service, 20);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(source.failures(), 0);
    let report = service.shutdown();
    assert_eq!(report.decisions_served, 20);
}

#[test]
fn every_forwarded_alert_is_audited_once_with_its_debug_summary() {
    let storage = MemStorage::new();
    let guards = GuardConfig {
        dp_interval: 300,
        ..quick_trip_guards()
    };
    let service = DecisionService::start_with_audit_storage(
        Arc::new(PassThrough),
        ServeConfig {
            alert_debounce: 200,
            ..config(DegradePolicy::AuditAndFlag, Some(guards))
        },
        Arc::new(InlineFeatures),
        Box::new(storage.clone()),
    )
    .unwrap();
    let results = run_traffic(&service, 2_000);
    assert!(results.iter().all(|r| r.is_ok()));
    let report = service.shutdown();
    let forwarded = service.drain_alerts();
    // the fairness guard trips on nearly every decision and the DP counter
    // releases every 300: both kinds are debounced, neither is lost
    assert!(forwarded
        .iter()
        .any(|a| matches!(a.alert, Alert::FairnessViolation { .. })));
    assert!(forwarded
        .iter()
        .any(|a| matches!(a.alert, Alert::DpRelease { .. })));
    assert_eq!(forwarded.len() as u64, report.alerts_raised);

    let audited: Vec<String> = fact_serve::audit_sink::parse_log(&storage.log_bytes())
        .into_iter()
        .filter(|e| e.action == "guard_alert")
        .map(|e| e.details)
        .collect();
    let expected: Vec<String> = forwarded
        .iter()
        .map(|a| format!("at={} {:?}", a.at_decision, a.alert))
        .collect();
    assert_eq!(audited.len() as u64, report.alerts_raised);
    assert_eq!(audited, expected);
}
