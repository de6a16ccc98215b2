//! Integration coverage for the fact-net serving path and guard-state
//! checkpointing: a service resumes its fairness window and ε ledger
//! across a restart, and a remote topology serves decisions through a
//! worker-hosted service — including healing across a worker restart
//! that restores from checkpoint.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{guard_slots, temp_dir, StubModel};
use fact_core::runtime::Guards;
use fact_data::FactError;
use fact_net::{Server, ShardHandler};
use fact_serve::service::NetShardHandler;
use fact_serve::{
    CheckpointConfig, DecisionRequest, DecisionService, GuardConfig, ServeConfig, ServeError,
    ShardSlot,
};

/// Probability = first feature.
fn guarded_config(ckpt_dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        shards: 1,
        n_features: 1,
        guards: Some(GuardConfig {
            fairness_window: 500,
            min_samples_per_group: 20,
            dp_interval: 100,
            ..GuardConfig::default()
        }),
        checkpoint: Some(CheckpointConfig::new(ckpt_dir, 200)),
        ..ServeConfig::default()
    }
}

fn drive(service: &DecisionService, n: u64) {
    for i in 0..n {
        let group_b = i % 2 == 0;
        service
            .decide(DecisionRequest {
                features: vec![if group_b { 0.3 } else { 0.7 }],
                group_b,
                route_key: i,
                tenant: 0,
            })
            .unwrap();
    }
}

#[test]
fn restart_resumes_fairness_window_and_epsilon_ledger() {
    let dir = temp_dir("resume");

    // run 1: 1000 decisions → periodic checkpoints plus a final one
    let service = DecisionService::start(Arc::new(StubModel), guarded_config(&dir)).unwrap();
    drive(&service, 1000);
    let report1 = service.shutdown();
    assert_eq!(report1.decisions_served, 1000);
    assert!(report1.checkpoints_written >= 5, "{report1:?}");
    assert_eq!(report1.shards[0].resumed_at, 0, "first boot starts fresh");
    // 1000 decisions at dp_interval 100 → ε was spent
    assert!(report1.epsilon_spent > 0.0);

    let ck = guard_slots(&dir)[0].clone().expect("final checkpoint");
    assert_eq!(ck.decisions, 1000);
    assert_eq!(ck.ledger.len(), 10);
    // the window carries the last 500 events, one code each
    assert_eq!(ck.window.len(), 500);

    // run 2 over the same sidecar dir: the shard resumes, not resets
    let service = DecisionService::start(Arc::new(StubModel), guarded_config(&dir)).unwrap();
    let ds = service.clone();
    drive(&ds, 250);
    let report2 = service.shutdown();
    assert_eq!(report2.shards[0].resumed_at, 1000, "{report2:?}");
    // ε is *lifetime*: the replayed ledger plus run 2's releases
    assert!(
        report2.epsilon_spent > report1.epsilon_spent,
        "ledger must survive the restart: {} vs {}",
        report2.epsilon_spent,
        report1.epsilon_spent
    );
    let ck2 = guard_slots(&dir)[0].clone().unwrap();
    assert_eq!(
        ck2.decisions, 1250,
        "lifetime decision count survives restarts"
    );
    assert!(ck2.ledger.len() > ck.ledger.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_fails_startup_loudly() {
    let dir = temp_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("guards.json"), b"{ torn").unwrap();
    let err = match DecisionService::start(Arc::new(StubModel), guarded_config(&dir)) {
        Ok(_) => panic!("startup over a torn checkpoint must fail"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("checkpoint"),
        "a torn checkpoint must not silently reset guard state: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `guarded_config` with the ε budget set to `budget`.
fn budget_config(dir: &std::path::Path, budget: f64) -> ServeConfig {
    let mut cfg = guarded_config(dir);
    if let Some(g) = &mut cfg.guards {
        g.epsilon_budget = budget;
    }
    cfg
}

#[test]
fn restore_replays_the_ledger_into_the_configured_budget() {
    let dir = temp_dir("budget");
    // run 1: 1000 decisions at dp_interval 100 spend 10 × 0.01 ε
    let service = DecisionService::start(Arc::new(StubModel), guarded_config(&dir)).unwrap();
    drive(&service, 1000);
    let spent = service.shutdown().epsilon_spent;
    let ck = guard_slots(&dir)[0].clone().unwrap();
    assert_eq!(ck.ledger.len(), 10);

    // the ledger does not fit a budget below what it spent: the guard set
    // refuses it with a typed error, and startup fails instead of
    // refunding ε
    let mut guards = Guards::new(budget_config(&dir, 0.05).guards.as_ref().unwrap(), 0).unwrap();
    assert!(matches!(
        ck.restore_into(&mut guards),
        Err(FactError::BudgetExhausted { .. })
    ));
    match DecisionService::start(Arc::new(StubModel), budget_config(&dir, 0.05)) {
        Ok(_) => panic!("a budget below the spent ε must fail startup"),
        Err(e) => assert!(
            matches!(&e, ServeError::Internal(msg) if msg.contains("checkpoint restore")),
            "{e}"
        ),
    }

    // a larger budget keeps the spent ε
    let service = DecisionService::start(Arc::new(StubModel), budget_config(&dir, 2.0)).unwrap();
    let report = service.shutdown();
    assert_eq!(report.shards[0].resumed_at, 1000);
    assert_eq!(report.epsilon_spent, spent);
    let ck2 = guard_slots(&dir)[0].clone().unwrap();
    assert_eq!(ck2.ledger, ck.ledger);
    assert_eq!(ck2.budget_epsilon, 2.0);
    let _ = std::fs::remove_dir_all(&dir);
}

fn start_worker(sock: &std::path::Path, ckpt_dir: &std::path::Path) -> (DecisionService, Server) {
    let service = DecisionService::start(Arc::new(StubModel), guarded_config(ckpt_dir)).unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let server = Server::bind(sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();
    (service, server)
}

#[test]
fn remote_topology_serves_and_heals_across_worker_restart() {
    let ckpt_dir = temp_dir("remote-ck");
    let sock = std::env::temp_dir().join(format!("fact-serve-rt-{}.sock", std::process::id()));

    // worker process stand-in: a guarded service behind a fact-net server
    let (worker, mut server) = start_worker(&sock, &ckpt_dir);

    // client: same routing fabric, but shard 0 lives behind the socket
    let client = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            shards: 1,
            n_features: 1,
            guards: None,
            topology: Some(vec![ShardSlot::Remote(sock.clone())]),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    for i in 0..300u64 {
        let group_b = i % 2 == 0;
        let d = client
            .decide(DecisionRequest {
                features: vec![if group_b { 0.3 } else { 0.7 }],
                group_b,
                route_key: i,
                tenant: 0,
            })
            .unwrap();
        assert_eq!(d.favorable, !group_b);
        assert_eq!(d.shard, 0, "client-side slot index");
    }
    let live = client.remote_stats();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].requests, 300);
    assert_eq!(live[0].served, 300);
    assert!(live[0].rtt_mean_micros > 0.0);

    // worker "dies" (graceful here; the process-level kill lives in E16):
    // its final checkpoint lands in ckpt_dir
    server.shutdown();
    let worker_report = worker.shutdown();
    assert_eq!(worker_report.decisions_served, 300);
    assert!(worker_report.checkpoints_written >= 1);

    // while the worker is down, decisions fail with a typed remote error
    let err = client
        .decide(DecisionRequest {
            features: vec![0.5],
            group_b: false,
            route_key: 1,
            tenant: 0,
        })
        .unwrap_err();
    assert!(matches!(err, fact_serve::ServeError::Remote(_)), "{err:?}");

    // respawn: the worker restores lifetime state from the checkpoint and
    // the client heals on its next request (reconnect counted)
    let (worker2, mut server2) = start_worker(&sock, &ckpt_dir);
    let mut healed = false;
    for _ in 0..100 {
        match client.decide(DecisionRequest {
            features: vec![0.9],
            group_b: false,
            route_key: 7,
            tenant: 0,
        }) {
            Ok(d) => {
                assert!(d.favorable);
                healed = true;
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(healed, "client never healed after worker restart");
    assert!(client.remote_stats()[0].reconnects >= 1);

    let client_report = client.shutdown();
    assert_eq!(client_report.remotes.len(), 1);
    assert!(client_report.decisions_served >= 301);
    let text = client_report.render_text();
    assert!(text.contains("remote shard 0:"), "{text}");

    server2.shutdown();
    let report2 = worker2.shutdown();
    assert_eq!(
        report2.shards[0].resumed_at, 300,
        "worker resumed from the checkpoint, not from zero"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
