//! E9 runs what serving runs: a one-shard `DecisionService` and a
//! `GuardedStream` fed the same decisions hold the same guard set, so they
//! release the same DP noise in the same order and end with the same
//! fairness window and ε ledger. Neither debounces a DP release: every ε
//! spent is published and, in serving, audited.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{guard_slots, temp_dir, StubModel};
use fact_core::runtime::{Alert, GuardedStream};
use fact_data::stream::InternetMinute;
use fact_serve::audit_sink::parse_log;
use fact_serve::testing::MemStorage;
use fact_serve::{
    AuditSinkConfig, CheckpointConfig, DecisionRequest, DecisionService, DegradePolicy,
    GuardCheckpoint, GuardConfig, InlineFeatures, ServeConfig,
};

const SEED: u64 = 42;
const WINDOW: usize = 1_000;
const MIN_DI: f64 = 0.8;
const DP_INTERVAL: usize = 200;
const BUDGET: f64 = 1.0;
const N: u64 = 3_000;

fn noisy_counts(alerts: impl IntoIterator<Item = Alert>) -> Vec<u64> {
    alerts
        .into_iter()
        .filter_map(|a| match a {
            Alert::DpRelease { noisy_count, .. } => Some(noisy_count.to_bits()),
            _ => None,
        })
        .collect()
}

#[test]
fn e9_stream_and_a_serving_shard_run_the_same_guards() {
    let events: Vec<_> = InternetMinute::new(SEED)
        .with_disparity(0.85, 0.65)
        .take(N as usize)
        .collect();

    let mut stream =
        GuardedStream::guarded(WINDOW, MIN_DI, DP_INTERVAL, BUDGET, 100, SEED).unwrap();
    for ev in &events {
        stream.process(ev);
    }

    let dir = temp_dir("guard-parity");
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            shards: 1,
            n_features: 1,
            batch_linger: Duration::ZERO,
            policy: DegradePolicy::Off,
            // forward every alert, so every DP release reaches the channel
            alert_debounce: 1,
            guards: Some(GuardConfig {
                fairness_window: WINDOW,
                min_di: MIN_DI,
                dp_interval: DP_INTERVAL,
                epsilon_budget: BUDGET,
                ..GuardConfig::default()
            }),
            // shard 0 seeds its DP noise with `seed + 0`
            seed: SEED,
            checkpoint: Some(CheckpointConfig::new(&dir, u64::MAX)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for (i, ev) in events.iter().enumerate() {
        let decision = service
            .decide(DecisionRequest {
                // probability = first feature: 1 is favorable, 0 is not
                features: vec![if ev.decision_favorable { 1.0 } else { 0.0 }],
                group_b: ev.group_b,
                route_key: i as u64,
                tenant: 0,
            })
            .unwrap();
        assert_eq!(decision.favorable, ev.decision_favorable);
    }
    let report = service.shutdown();
    assert_eq!(report.decisions_served, N);

    let served = noisy_counts(service.drain_alerts().into_iter().map(|a| a.alert));
    let streamed = noisy_counts(stream.alerts.iter().cloned());
    assert_eq!(streamed.len(), N as usize / DP_INTERVAL);
    assert_eq!(served, streamed, "DP noisy counts, bit for bit, in order");

    // the shard's final checkpoint and one captured from the stream agree
    // on the fairness window, the ε ledger and the DP counters
    let shard = guard_slots(&dir)[0].clone().expect("final checkpoint");
    let guards = stream.guards().expect("guarded stream");
    let captured = GuardCheckpoint::capture(guards, 0, N);
    assert_eq!(shard.window, captured.window);
    assert_eq!(shard.ledger, captured.ledger);
    assert_eq!(shard, captured);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Releases closer together than the alert debounce are each forwarded and
/// audited, and the ledger charges exactly those releases.
#[test]
fn a_dp_release_is_never_debounced() {
    const INTERVAL: usize = 50;
    const RELEASES: usize = 20;
    const EPS: f64 = 0.01;
    let storage = MemStorage::new();
    let service = DecisionService::start_with_audit_storage(
        Arc::new(StubModel),
        ServeConfig {
            shards: 1,
            batch_linger: Duration::ZERO,
            policy: DegradePolicy::Off,
            alert_debounce: 500,
            guards: Some(GuardConfig {
                dp_interval: INTERVAL,
                epsilon_per_release: EPS,
                ..GuardConfig::default()
            }),
            audit: Some(AuditSinkConfig {
                flush_interval: Duration::from_millis(1),
                ..AuditSinkConfig::default()
            }),
            ..ServeConfig::default()
        },
        Arc::new(InlineFeatures),
        Box::new(storage.clone()),
    )
    .unwrap();
    // equal favorable rates in both groups: no fairness or drift alert
    for key in 0..(INTERVAL * RELEASES) as u64 {
        service
            .decide(DecisionRequest {
                features: vec![if key % 4 < 2 { 1.0 } else { 0.0 }],
                group_b: key % 2 == 0,
                route_key: key,
                tenant: 0,
            })
            .unwrap();
    }
    let report = service.shutdown();
    let forwarded = service.drain_alerts();
    assert_eq!(forwarded.len(), RELEASES, "{forwarded:?}");
    assert!(forwarded
        .iter()
        .all(|a| matches!(a.alert, Alert::DpRelease { .. })));
    assert_eq!(report.alerts_raised, RELEASES as u64);
    let audited = parse_log(&storage.log_bytes())
        .into_iter()
        .filter(|e| e.action == "guard_alert" && e.details.contains("DpRelease"))
        .count();
    assert_eq!(audited, RELEASES);
    assert!((report.epsilon_spent - RELEASES as f64 * EPS).abs() < 1e-12);
}
