//! Property and regression tests for the adaptive admission controller.
//!
//! The proptest half drives an [`AdmissionController`] through arbitrary
//! interleavings of latency samples, admit calls, and clock advances on a
//! [`ManualClock`] — no sleeps, no real time — and pins the two invariants
//! the ISSUE names:
//!
//! 1. the effective capacity never leaves `[floor, queue_cap]`, and
//! 2. while the observed p99 stays above target, the capacity sequence is
//!    non-increasing: more load can never buy more admitted concurrency.
//!
//! The service-level half pins the config edge cases (`queue_cap: 0`,
//! `capacity_per_stripe: 0`, malformed admission knobs) as loud
//! `BadRequest`s at startup, and tenant quotas as typed `Throttled`
//! errors end to end.

use std::sync::Arc;
use std::time::Duration;

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_serve::cache::Clock;
use fact_serve::testing::ManualClock;
use fact_serve::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, CacheConfig,
    DecisionRequest, DecisionService, ServeConfig, ServeError,
};
use proptest::prelude::*;

/// Scores 0.9 for everything, instantly.
struct FastModel;

impl Classifier for FastModel {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok(vec![0.9; x.rows()])
    }
}

fn controller(cfg: AdmissionConfig, queue_cap: usize) -> (Arc<ManualClock>, AdmissionController) {
    let clock = Arc::new(ManualClock::new());
    let c = AdmissionController::new(
        cfg,
        queue_cap,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::new(AdmissionStats::default()),
    );
    (clock, c)
}

/// One step of an arbitrary interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Feed a served latency (microseconds) into the rolling window.
    Record(u64),
    /// An arrival for `tenant` with the shard at `depth`.
    Admit(u64, u64),
    /// Let `ms` of manual-clock time pass.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // the vendored proptest has no prop_oneof!: select the variant with a
    // discriminant drawn alongside the payloads
    (0u8..3, 0u64..100_000, (0u64..8, 0u64..512)).prop_map(|(sel, us, (tenant, depth))| match sel {
        0 => Op::Record(us),
        1 => Op::Admit(tenant, depth),
        _ => Op::Advance(us % 50),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under ANY interleaving of samples, arrivals, and time, the
    /// effective capacity stays inside `[floor, queue_cap]` — the
    /// controller can neither black-hole a live service nor admit past
    /// the queue bound.
    #[test]
    fn effective_cap_never_leaves_its_bounds(
        queue_cap in 1usize..300,
        min_cap in 0usize..400, // deliberately allowed to exceed queue_cap
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let cfg = AdmissionConfig {
            target_p99: Duration::from_millis(10),
            min_cap,
            tick: Duration::from_millis(5),
            ..AdmissionConfig::default()
        };
        let floor = min_cap.clamp(1, queue_cap);
        let (clock, c) = controller(cfg, queue_cap);
        prop_assert_eq!(c.effective_cap(), floor);
        for op in ops {
            match op {
                Op::Record(us) => c.record_latency(Duration::from_micros(us)),
                Op::Admit(tenant, depth) => { let _ = c.admit(tenant, depth); }
                Op::Advance(ms) => clock.advance(Duration::from_millis(ms)),
            }
            let cap = c.effective_cap();
            prop_assert!(
                (floor..=queue_cap).contains(&cap),
                "cap {} escaped [{}, {}]", cap, floor, queue_cap
            );
        }
    }

    /// While every control window observes a p99 above target, capacity
    /// is non-increasing tick after tick: ramping load harder never
    /// increases admitted concurrency.
    #[test]
    fn over_target_windows_never_grow_capacity(
        rounds in 1usize..40,
        samples_per_round in 1usize..20,
        over_by_us in 1u64..1_000_000,
    ) {
        let cfg = AdmissionConfig {
            target_p99: Duration::from_millis(10),
            min_cap: 1,
            tick: Duration::from_millis(5),
            ..AdmissionConfig::default()
        };
        let tick = cfg.tick;
        let over = cfg.target_p99 + Duration::from_micros(over_by_us);
        let (clock, c) = controller(cfg, 256);
        // warm the controller up first so there is capacity to lose
        for _ in 0..10 {
            clock.advance(tick + Duration::from_nanos(1));
            let _ = c.admit(0, 0); // idle-window probe tick
        }
        let mut prev = c.effective_cap();
        for _ in 0..rounds {
            for _ in 0..samples_per_round {
                c.record_latency(over);
            }
            clock.advance(tick + Duration::from_nanos(1));
            c.record_latency(over); // crosses the tick deadline
            let cap = c.effective_cap();
            prop_assert!(
                cap <= prev,
                "cap grew {} -> {} with p99 over target", prev, cap
            );
            prev = cap;
        }
    }

    /// Shedding honors the adaptive bound exactly: a request is admitted
    /// iff depth < effective capacity (quotas off).
    #[test]
    fn admit_matches_effective_cap_exactly(
        warm_ticks in 0usize..20,
        depth in 0u64..512,
    ) {
        let cfg = AdmissionConfig {
            target_p99: Duration::from_millis(10),
            min_cap: 2,
            tick: Duration::from_millis(5),
            ..AdmissionConfig::default()
        };
        let tick = cfg.tick;
        let (clock, c) = controller(cfg, 64);
        for _ in 0..warm_ticks {
            clock.advance(tick + Duration::from_nanos(1));
            let _ = c.admit(0, 0);
        }
        let cap = c.effective_cap() as u64;
        let expect = if depth < cap {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Shed
        };
        prop_assert_eq!(c.admit(0, depth), expect);
    }
}

// ---- service-level regressions ----

fn admitted_config(admission: AdmissionConfig) -> ServeConfig {
    ServeConfig {
        shards: 2,
        n_features: 1,
        guards: None,
        admission: Some(admission),
        ..ServeConfig::default()
    }
}

fn request(tenant: u64, key: u64) -> DecisionRequest {
    DecisionRequest {
        features: vec![0.9],
        group_b: false,
        route_key: key,
        tenant,
    }
}

#[test]
fn zero_queue_cap_with_admission_is_rejected_at_startup() {
    let cfg = ServeConfig {
        queue_cap: 0,
        ..admitted_config(AdmissionConfig::default())
    };
    let err = match DecisionService::start(Arc::new(FastModel), cfg) {
        Ok(_) => panic!("queue_cap 0 must not start"),
        Err(e) => e,
    };
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
}

#[test]
fn zero_capacity_per_stripe_is_rejected_at_startup() {
    let cfg = ServeConfig {
        cache: Some(CacheConfig {
            capacity_per_stripe: 0,
            ..CacheConfig::default()
        }),
        guards: None,
        ..ServeConfig::default()
    };
    let err = match DecisionService::start(Arc::new(FastModel), cfg) {
        Ok(_) => panic!("capacity_per_stripe 0 must not start"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, ServeError::BadRequest(msg) if msg.contains("capacity_per_stripe")),
        "{err:?}"
    );
}

#[test]
fn malformed_admission_knobs_are_rejected_at_startup() {
    for bad in [
        AdmissionConfig {
            decrease: 1.5,
            ..AdmissionConfig::default()
        },
        AdmissionConfig {
            increase: 0,
            ..AdmissionConfig::default()
        },
        AdmissionConfig {
            target_p99: Duration::ZERO,
            ..AdmissionConfig::default()
        },
        AdmissionConfig {
            tenant_rate: f64::NAN,
            ..AdmissionConfig::default()
        },
    ] {
        let err = match DecisionService::start(Arc::new(FastModel), admitted_config(bad.clone())) {
            Ok(_) => panic!("bad admission config must not start: {bad:?}"),
            Err(e) => e,
        };
        assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    }
}

#[test]
fn over_quota_tenant_gets_typed_throttled_and_counters() {
    // hard quotas make this deterministic: burst 4 at a slow refill means
    // the fifth back-to-back request throttles no matter how fast the
    // service is
    let service = DecisionService::start(
        Arc::new(FastModel),
        admitted_config(AdmissionConfig {
            tenant_rate: 0.001,
            tenant_burst: 4.0,
            ..AdmissionConfig::default()
        }),
    )
    .unwrap();

    for i in 0..4 {
        service.decide(request(9, i)).unwrap();
    }
    let err = service.decide(request(9, 4)).unwrap_err();
    assert!(
        matches!(err, ServeError::Throttled { tenant: 9 }),
        "{err:?}"
    );
    // a different tenant has its own untouched bucket
    service.decide(request(3, 5)).unwrap();

    let snap = service.metrics();
    assert_eq!(snap.throttled(), 1);
    let t9 = snap.admission.tenant(9).expect("tenant 9 tracked");
    assert_eq!(t9.admitted, 4);
    assert_eq!(t9.throttled, 1);
    let t3 = snap.admission.tenant(3).expect("tenant 3 tracked");
    assert_eq!(t3.admitted, 1);
    assert_eq!(t3.throttled, 0);

    let report = service.shutdown();
    assert_eq!(report.throttled, 1);
    let text = report.render_text();
    assert!(text.contains("throttled=1"), "{text}");
    assert!(text.contains("tenant 9:"), "{text}");
}

#[test]
fn admission_off_keeps_the_legacy_static_bound() {
    // no admission config: tenants are ignored and nothing throttles
    let service = DecisionService::start(
        Arc::new(FastModel),
        ServeConfig {
            shards: 2,
            n_features: 1,
            guards: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for i in 0..50 {
        service.decide(request(i % 3, i)).unwrap();
    }
    let snap = service.metrics();
    assert_eq!(snap.throttled(), 0);
    assert_eq!(snap.admission.ticks, 0, "no controller, no ticks");
    let report = service.shutdown();
    assert_eq!(report.decisions_served, 50);
    assert_eq!(report.throttled, 0);
}

#[test]
fn slow_start_ramps_to_queue_cap_under_light_load() {
    // with real traffic comfortably under target, the controller must
    // open up from its floor instead of pinning throughput at min_cap
    let service = DecisionService::start(
        Arc::new(FastModel),
        admitted_config(AdmissionConfig {
            min_cap: 1,
            increase: 64,
            tick: Duration::from_millis(1),
            target_p99: Duration::from_secs(1), // everything is under target
            ..AdmissionConfig::default()
        }),
    )
    .unwrap();
    for i in 0..2_000 {
        service.decide(request(0, i)).unwrap();
    }
    let snap = service.metrics();
    assert!(
        snap.admission.ticks > 0,
        "2k decisions must cross some 1ms ticks"
    );
    assert!(
        snap.admission.effective_cap > 1,
        "capacity must grow off the floor: {:?}",
        snap.admission
    );
    service.shutdown();
}
