//! Online serving: a FACT-guarded decision service on a lending workload.
//!
//! The audits in the other examples certify a model *before* deployment;
//! this one keeps the guarantees *while decisions are served*. A logistic
//! model trained on the synthetic loans world goes behind a sharded
//! [`DecisionService`]; live traffic with a mid-run "bad deployment"
//! (group-B score suppression) then flows through it. The per-shard
//! fairness guards catch the disparity, the service degrades to
//! audit-and-flag, and shutdown returns the final accounting.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::Duration;

use fact_data::synth::loans::generate_loans;
use fact_serve::{DecisionRequest, DecisionService, DegradePolicy, GuardConfig, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use responsible_data_science::prelude::*;

fn main() -> Result<()> {
    // 1. Train on the historical lending world (legitimate features only).
    let ds = generate_loans(&LoanConfig {
        n: 8_000,
        seed: 42,
        bias_strength: 0.0, // train on a fair world; bias arrives at serving time
        ..LoanConfig::default()
    });
    let x = ds.to_matrix(&LEGIT_FEATURES)?;
    let y = ds.bool_column("approved")?;
    let model = LogisticRegression::fit(
        &x,
        y,
        None,
        &LogisticConfig {
            seed: 42,
            ..LogisticConfig::default()
        },
    )?;
    let n_features = LEGIT_FEATURES.len();

    // 2. Stand the service up: 4 shards, bounded queues, full guard set,
    //    audit-and-flag on guard trip.
    let service = DecisionService::start(
        Arc::new(model),
        ServeConfig {
            shards: 4,
            n_features,
            queue_cap: 128,
            batch_max: 16,
            batch_linger: Duration::from_micros(200),
            default_timeout: Duration::from_secs(2),
            threshold: 0.5,
            policy: DegradePolicy::AuditAndFlag,
            trip_cooldown: 2_000,
            alert_debounce: 1_000,
            guards: Some(GuardConfig {
                fairness_window: 1_000,
                min_di: 0.8,
                min_samples_per_group: 50,
                dp_interval: 2_000,
                epsilon_per_release: 0.01,
                epsilon_budget: 1.0,
                drift: None,
            }),
            seed: 7,
            audit: None,
            cache: None,
            topology: None,
            checkpoint: None,
            admission: None,
            reshard_hold: Duration::from_secs(5),
        },
    )
    .expect("service start");

    // Serving traffic: draw applicants from the same world the model was
    // trained on, replaying each one's feature row through the service.
    let traffic = generate_loans(&LoanConfig {
        n: 24_000,
        seed: 1_234,
        bias_strength: 0.0,
        ..LoanConfig::default()
    });
    let rows = traffic.to_matrix(&LEGIT_FEATURES)?;
    let groups = protected_mask(&traffic, "group", "B")?;
    let mut rng = StdRng::seed_from_u64(9);

    let mut serve = |range: std::ops::Range<usize>, suppress_b: bool| {
        let mut flagged = 0u64;
        let mut favorable = 0u64;
        for i in range {
            let mut features: Vec<f64> = (0..n_features).map(|j| rows.get(i, j)).collect();
            if suppress_b && groups[i] {
                // the "bad deployment": an upstream feature pipeline starts
                // zeroing group B's strongest qualifying signal
                features[0] = features[0].min(rng.gen_range(0.0..0.2));
            }
            match service.decide(DecisionRequest {
                features,
                group_b: groups[i],
                route_key: i as u64,
                tenant: 0,
            }) {
                Ok(d) => {
                    flagged += u64::from(d.flagged);
                    favorable += u64::from(d.favorable);
                }
                Err(e) => println!("  request {i}: {e}"),
            }
        }
        (favorable, flagged)
    };

    println!("== Phase 1: healthy traffic (12k decisions) ==");
    let (fav, flagged) = serve(0..12_000, false);
    println!("  favorable={fav} flagged={flagged}");
    println!("{}", service.metrics().render_text());

    println!("== Phase 2: bad deployment — group-B signal suppressed (12k decisions) ==");
    let (fav, flagged) = serve(12_000..24_000, true);
    println!("  favorable={fav} flagged={flagged}  <- degraded to audit-and-flag");

    println!("\n== Alerts on the global channel ==");
    for a in service.drain_alerts() {
        println!(
            "  shard {} @ decision {}: {:?}",
            a.shard, a.at_decision, a.alert
        );
    }

    println!("\n== Metrics snapshot ==");
    println!("{}", service.metrics().render_text());

    println!("== Final ServiceReport (graceful shutdown) ==");
    let report = service.shutdown();
    print!("{}", report.render_text());
    assert_eq!(report.decisions_served, 24_000);
    Ok(())
}
