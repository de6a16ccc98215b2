//! Live-reshard coverage: the checkpoint transform conserves every count,
//! `DecisionService::reshard` holds and replays concurrent submits, the
//! hold window is bounded by a typed refusal, and the `"reshard <M>"`
//! control command works end to end over fact-net.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{guard_slots, temp_dir, tree, write_guard_state, StubModel};
use fact_net::{RemoteShard, Server, ShardHandler};
use fact_serve::{
    transform_checkpoints, CheckpointConfig, DecisionRequest, DecisionService, GuardCheckpoint,
    GuardConfig, LedgerEntry, NetShardHandler, ServeConfig, ServeError,
};

/// Probability = first feature.
fn config(shards: usize, ckpt_dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        shards,
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

fn request(i: u64) -> DecisionRequest {
    let group_b = i % 2 == 0;
    DecisionRequest {
        features: vec![if group_b { 0.3 } else { 0.7 }],
        group_b,
        route_key: i,
        tenant: 0,
    }
}

fn sidecar(shard: u64, decisions: u64, n_ledger: usize, eps_each: f64) -> GuardCheckpoint {
    let code = |i: u64| char::from(b'0' + 2 * u8::from(i % 2 == 0) + u8::from(i % 3 == 0));
    let window = (0..decisions.min(500)).map(code).collect();
    GuardCheckpoint {
        shard,
        decisions,
        window,
        ledger: (0..n_ledger)
            .map(|_| LedgerEntry {
                label: "dp-release".into(),
                epsilon: eps_each,
                delta: 0.0,
            })
            .collect(),
        budget_epsilon: 1.0,
        budget_delta: 0.0,
        dp_pending: decisions % 100,
        dp_exhausted: false,
    }
}

#[test]
fn transform_conserves_counts_ledger_and_decisions() {
    let dir = temp_dir("transform");
    std::fs::create_dir_all(&dir).unwrap();
    // 4 uneven shards, shrink to 3 then grow to 8
    let mut pre_decisions = 0;
    let mut pre_ledger = 0;
    let mut cks = Vec::new();
    for shard in 0..4u64 {
        let ck = sidecar(shard, 100 + shard * 37, 3 + shard as usize, 0.01);
        pre_decisions += ck.decisions;
        pre_ledger += ck.ledger.len() as u64;
        cks.push(ck);
    }
    write_guard_state(&dir, cks);

    let shrink = transform_checkpoints(&dir, 3, 1.0).unwrap();
    assert_eq!(shrink.pre_counts, shrink.post_counts, "window conservation");
    assert_eq!(shrink.pre_decisions, pre_decisions);
    assert_eq!(shrink.post_decisions, pre_decisions);
    assert_eq!(shrink.ledger_entries, pre_ledger);
    // the 4th slot is gone so a later grow cannot resurrect it
    assert_eq!(guard_slots(&dir).len(), 3);

    // every surviving slot is loadable and the ledgers sum back
    let total_ledger: usize = (guard_slots(&dir).into_iter())
        .map(|ck| ck.unwrap().ledger.len())
        .sum();
    assert_eq!(total_ledger as u64, pre_ledger);

    let grow = transform_checkpoints(&dir, 8, 1.0).unwrap();
    assert_eq!(grow.pre_counts, shrink.post_counts, "chained transforms");
    assert_eq!(grow.pre_counts, grow.post_counts);
    assert_eq!(grow.post_decisions, pre_decisions);
    assert_eq!(grow.ledger_entries, pre_ledger);
    let slots = guard_slots(&dir);
    assert_eq!(slots.len(), 8);
    for (s, ck) in slots.iter().enumerate() {
        assert!(ck.is_some(), "slot {s}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transform_refuses_over_budget_successor_without_writing() {
    let dir = temp_dir("budget");
    std::fs::create_dir_all(&dir).unwrap();
    // 4 shards × 30 entries × 0.01 ε = 1.2 ε total; into 1 successor that
    // exceeds the 1.0 budget, so the shrink must refuse
    write_guard_state(&dir, (0..4).map(|s| sidecar(s, 200, 30, 0.01)).collect());
    let before = guard_slots(&dir);
    let err = transform_checkpoints(&dir, 1, 1.0).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    assert!(err.to_string().contains("budget"), "{err}");
    // nothing was written: all 4 slots are untouched
    assert_eq!(guard_slots(&dir), before);
    // spreading the same ledger over 2 successors fits (0.6 each)
    transform_checkpoints(&dir, 2, 1.0).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transform_judges_successors_against_the_configured_budget() {
    let dir = temp_dir("configured-budget");
    std::fs::create_dir_all(&dir).unwrap();
    // sidecars written under ε-budget 1.0 holding 4 × 30 × 0.01 = 1.2 ε
    write_guard_state(&dir, (0..4).map(|s| sidecar(s, 200, 30, 0.01)).collect());
    let before = guard_slots(&dir);
    // configured at 0.3, a split into 2 replays 0.6 into each successor:
    // refused although the sidecars' own budget of 1.0 would allow it
    let err = transform_checkpoints(&dir, 2, 0.3).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    assert!(err.to_string().contains("budget 0.3000"), "{err}");
    assert_eq!(guard_slots(&dir), before);
    // one successor holding all 1.2 ε: over 1.0, within a configured 2.0
    assert!(transform_checkpoints(&dir, 1, 1.0).is_err());
    transform_checkpoints(&dir, 1, 2.0).unwrap();
    let slots = guard_slots(&dir);
    let merged = slots[0].clone().unwrap();
    assert_eq!(merged.ledger.len(), 120);
    assert_eq!(
        merged.budget_epsilon, 2.0,
        "the successor records the budget"
    );
    assert_eq!(slots.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_grows_and_shrinks_under_concurrent_load_without_losing_decisions() {
    let dir = temp_dir("live");
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            reshard_hold: Duration::from_secs(30),
            ..config(4, &dir)
        },
    )
    .unwrap();
    assert_eq!(service.shards(), 4);

    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let drivers: Vec<_> = (0..2)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let issued = Arc::clone(&issued);
            let ok = Arc::clone(&ok);
            std::thread::spawn(move || {
                let mut i = t * 1_000_000u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    issued.fetch_add(1, Ordering::Relaxed);
                    service.decide(request(i)).unwrap();
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // let the drivers build real guard state, then cut over twice
    // a load thread that died on an error would stall the count forever;
    // fail instead of hanging
    let wait_for = |target: u64| {
        while ok.load(Ordering::Relaxed) < target {
            assert!(
                drivers.iter().all(|d| !d.is_finished()),
                "a load thread saw an error — a decision was lost"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_for(500);
    let grow = service.reshard(8).unwrap();
    assert_eq!((grow.from, grow.to), (4, 8));
    assert_eq!(
        grow.transform.pre_counts, grow.transform.post_counts,
        "window conservation"
    );
    assert_eq!(grow.transform.pre_decisions, grow.transform.post_decisions);
    assert_eq!(service.shards(), 8);

    let mid = ok.load(Ordering::Relaxed);
    wait_for(mid + 500);
    let shrink = service.reshard(3).unwrap();
    assert_eq!((shrink.from, shrink.to), (8, 3));
    assert_eq!(shrink.transform.pre_counts, shrink.transform.post_counts);
    assert_eq!(service.shards(), 3);
    // the drained epoch between the two cutovers is accounted for
    assert!(shrink.epoch.decisions_served >= 500, "{:?}", shrink.epoch);

    stop.store(true, Ordering::Relaxed);
    for d in drivers {
        d.join().expect("driver saw an error — a decision was lost");
    }
    let report = service.shutdown();
    assert_eq!(report.epochs, 3, "one topology epoch per cutover plus one");
    let served = report.decisions_served;
    assert_eq!(issued.load(Ordering::Relaxed), ok.load(Ordering::Relaxed));
    assert_eq!(served, ok.load(Ordering::Relaxed), "zero lost decisions");
    // lifetime decisions survived both transforms into the final sidecars
    let slots = guard_slots(&dir);
    assert_eq!(slots.len(), 3);
    let ck_total: u64 = slots.into_iter().map(|ck| ck.unwrap().decisions).sum();
    assert_eq!(ck_total, served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `config` with one DP release per 300 decisions. After a 2 → 3
/// cutover each successor holds at most ⌈2·299/3⌉ = 200 pending
/// decisions, so it makes no release in its first 100.
fn slow_release_config(shards: usize, ckpt_dir: &std::path::Path) -> ServeConfig {
    let mut cfg = config(shards, ckpt_dir);
    if let Some(g) = cfg.guards.as_mut() {
        g.dp_interval = 300;
    }
    ServeConfig {
        reshard_hold: Duration::from_secs(30),
        ..cfg
    }
}

/// ε of every ledger in `dir`'s `shards` slots, summed shard by shard.
fn sidecar_epsilon(dir: &std::path::Path, shards: usize) -> f64 {
    let slots = guard_slots(dir);
    assert_eq!(slots.len(), shards);
    (slots.into_iter())
        .map(|ck| ck.unwrap().ledger.iter().map(|e| e.epsilon).sum::<f64>())
        .sum()
}

#[test]
fn live_epsilon_is_the_ledger_across_restart_and_reshard() {
    let dir = temp_dir("live-eps");
    // run 1: one shard spends ε, and its final checkpoint keeps the ledger
    let first = DecisionService::start(Arc::new(StubModel), slow_release_config(1, &dir)).unwrap();
    for i in 0..1_000 {
        first.decide(request(i)).unwrap();
    }
    let spent = first.shutdown().epsilon_spent;
    assert!(spent > 0.0);

    // run 2 restarts on that ledger: before any new release the live view
    // already carries it, bit for bit
    let service =
        DecisionService::start(Arc::new(StubModel), slow_release_config(1, &dir)).unwrap();
    let restored = sidecar_epsilon(&dir, 1);
    assert_eq!(restored, spent);
    assert_eq!(service.metrics().epsilon_spent, restored);
    let grow = service.reshard(2).unwrap();
    assert_eq!(grow.epoch.epsilon_spent, restored);

    // load on 2 shards up to the cutover to 3: a submit the cutover parks
    // is replayed into the new epoch, then its load thread stops
    let load: Vec<_> = (1..=2u64)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                while service.shards() == 2 {
                    service.decide(request(t * 1_000_000 + served)).unwrap();
                    served += 1;
                }
                served
            })
        })
        .collect();
    while service.metrics().served() < 1_500 {
        assert!(
            load.iter().all(|d| !d.is_finished()),
            "a load thread saw an error"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let cut = service.reshard(3).unwrap();
    let live = service.metrics().epsilon_spent;
    assert!(cut.epoch.epsilon_spent > restored, "the load spent ε");
    // the transform moves ledger entries between shards, so the sums
    // group the same entries differently
    let before = cut.epoch.epsilon_spent;
    assert!(
        (live - before).abs() < 1e-12,
        "live {live} vs ledger {before}"
    );
    let moved = sidecar_epsilon(&dir, 3);
    assert!(
        (moved - before).abs() < 1e-12,
        "sidecars {moved} vs {before}"
    );

    let served: u64 = load.into_iter().map(|d| d.join().unwrap()).sum();
    let report = service.shutdown();
    let snap = service.metrics();
    // the report is the final snapshot, summed, plus the drained epochs
    assert_eq!(report.epsilon_spent.to_bits(), snap.epsilon_spent.to_bits());
    assert_eq!(
        report.epsilon_spent.to_bits(),
        sidecar_epsilon(&dir, 3).to_bits()
    );
    assert_eq!(report.shards, snap.shards);
    assert_eq!(report.epochs, 3);
    let drained = [&grow.epoch, &cut.epoch];
    assert_eq!(
        report.decisions_served,
        drained.iter().map(|e| e.decisions_served).sum::<u64>() + snap.served()
    );
    assert_eq!(report.decisions_served, served, "zero lost decisions");
    assert_eq!(
        report.checkpoints_written,
        drained.iter().map(|e| e.checkpoints_written).sum::<u64>()
            + snap.shards.iter().map(|s| s.checkpoints).sum::<u64>()
    );
    assert_eq!(
        report.alerts_raised,
        drained.iter().map(|e| e.alerts_raised).sum::<u64>() + snap.alerts
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_with_fewer_shards_than_sidecars_is_refused() {
    let dir = temp_dir("stale");
    let first = DecisionService::start(Arc::new(StubModel), config(2, &dir)).unwrap();
    for i in 0..1_000 {
        first.decide(request(i)).unwrap();
    }
    let spent = first.shutdown().epsilon_spent;
    assert!(spent > 0.0);
    let sidecars = || -> Vec<u8> { std::fs::read(dir.join("guards.json")).unwrap() };
    let written = sidecars();

    // one shard would drop shard 1's ledger and refund its ε
    let err = DecisionService::start(Arc::new(StubModel), config(1, &dir))
        .err()
        .expect("a 1-shard start on a 2-shard set is refused");
    assert!(
        matches!(&err, ServeError::BadRequest(msg)
            if msg.contains("written by 2 shard(s)") && msg.contains("asks for 1")
                && msg.contains("reshard")),
        "{err}"
    );
    assert_eq!(sidecars(), written, "the refusal touches no sidecar");
    // without guards no sidecar is read, so there is nothing to drop
    let unguarded = ServeConfig {
        guards: None,
        ..config(1, &dir)
    };
    DecisionService::start(Arc::new(StubModel), unguarded)
        .unwrap()
        .shutdown();
    assert_eq!(sidecars(), written);

    // the full count resumes every ledger
    let service = DecisionService::start(Arc::new(StubModel), config(2, &dir)).unwrap();
    assert_eq!(service.metrics().epsilon_spent, sidecar_epsilon(&dir, 2));
    assert_eq!(service.metrics().epsilon_spent, spent);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submits_past_the_hold_window_get_a_typed_retryable_refusal() {
    let dir = temp_dir("hold");
    // a reshard against a service whose guards/checkpoints are off fails
    // fast — but first, pin the gate semantics with a zero hold window by
    // racing a submit against a real (slow) cutover
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            reshard_hold: Duration::ZERO,
            ..config(2, &dir)
        },
    )
    .unwrap();
    for i in 0..100 {
        service.decide(request(i)).unwrap();
    }
    // run the cutover on another thread; with a zero hold any submit that
    // lands mid-cutover must see Resharding, never a hang or a drop
    let svc = service.clone();
    let cutover = std::thread::spawn(move || svc.reshard(5).unwrap());
    let mut saw_refusal = false;
    for i in 0..10_000u64 {
        match service.submit(request(1_000 + i)) {
            Ok(h) => {
                h.wait(Duration::from_secs(5)).unwrap();
            }
            Err(ServeError::Resharding) => {
                saw_refusal = true;
                break;
            }
            Err(e) => panic!("only Resharding is acceptable mid-cutover: {e:?}"),
        }
    }
    let report = cutover.join().unwrap();
    assert_eq!(report.to, 5);
    assert!(
        saw_refusal,
        "a zero hold window during a cutover must refuse at least one submit"
    );
    // after the cutover the same caller succeeds on retry — the refusal
    // was transient back-pressure, not a lost request
    service.decide(request(77)).unwrap();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reshard_without_checkpointing_is_a_typed_error() {
    let service = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            shards: 2,
            n_features: 1,
            guards: None,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    service.decide(request(1)).unwrap();
    let err = service.reshard(4).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)), "{err:?}");
    // the refusal must not have disturbed the running service
    service.decide(request(2)).unwrap();
    service.shutdown();
}

#[test]
fn over_budget_shrink_rolls_back_and_keeps_serving() {
    let dir = temp_dir("rollback");
    // fat ε releases: 4 shards spending 0.3 per release soon carry more
    // ledger ε than one successor's 1.0 budget can replay
    let mut cfg = config(4, &dir);
    cfg.guards = Some(GuardConfig {
        fairness_window: 500,
        min_samples_per_group: 20,
        dp_interval: 50,
        epsilon_per_release: 0.3,
        ..GuardConfig::default()
    });
    let service = DecisionService::start(Arc::new(StubModel), cfg).unwrap();
    // ~600 decisions → ≥ 12 releases → ≥ 3.6 ε in the combined ledger
    for i in 0..600 {
        service.decide(request(i)).unwrap();
    }
    let err = service.reshard(1).unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
    // the refusal rolled back: still 4 shards, still serving, and the
    // sidecars still carry the full 4-shard state
    assert_eq!(service.shards(), 4);
    service.decide(request(9_999)).unwrap();
    let slots = guard_slots(&dir);
    assert_eq!(slots.len(), 4);
    let total: u64 = slots.into_iter().map(|ck| ck.unwrap().decisions).sum();
    assert_eq!(total, 600, "drained sidecars survive the refusal untouched");
    // a feasible target still works after the refusal
    let report = service.reshard(8).unwrap();
    assert_eq!(report.transform.pre_counts, report.transform.post_counts);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run 1 of a restart test: `shards` shards serve 1,000 decisions, spend
/// ε, and leave their final state in `dir`.
fn serve_and_stop(shards: usize, dir: &std::path::Path) {
    let first = DecisionService::start(Arc::new(StubModel), config(shards, dir)).unwrap();
    for i in 0..1_000 {
        first.decide(request(i)).unwrap();
    }
    assert!(first.shutdown().epsilon_spent > 0.0);
}

/// Wait up to 10 s for `done` to hold over the service's metrics.
fn wait_until(service: &DecisionService, done: impl Fn(&fact_serve::MetricsSnapshot) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done(&service.metrics()) {
        assert!(std::time::Instant::now() < deadline, "timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_failed_transform_write_leaves_the_document_and_rolls_back() {
    let dir = temp_dir("failed-write");
    serve_and_stop(2, &dir);
    let service = DecisionService::start(Arc::new(StubModel), config(2, &dir)).unwrap();
    let live = service.metrics().epsilon_spent;
    // a directory where the document's temp file goes fails every write
    // of the document: the drained shards' final ones and the transform's
    std::fs::create_dir(dir.join("guards.json.tmp")).unwrap();
    let before = tree(&dir);

    let err = service.reshard(3).unwrap_err();
    assert!(
        matches!(&err, ServeError::Internal(msg) if msg.contains("guards.json")),
        "{err}"
    );
    assert!(tree(&dir) == before, "the failed transform changed a file");
    // rolled back onto the drained shards' state: 2 shards, the same ε
    assert_eq!(service.shards(), 2);
    assert_eq!(service.metrics().epsilon_spent.to_bits(), live.to_bits());

    // a failed periodic write is counted, and serving goes on
    service.request_checkpoint();
    for i in 0..20 {
        service.decide(request(i)).unwrap();
    }
    wait_until(&service, |m| {
        m.shards.iter().any(|s| s.checkpoint_failures > 0)
    });
    assert!(tree(&dir) == before);

    std::fs::remove_dir(dir.join("guards.json.tmp")).unwrap();
    let grow = service.reshard(3).unwrap();
    assert_eq!(grow.transform.pre_counts, grow.transform.post_counts);
    let report = service.shutdown();
    assert_eq!(report.epsilon_spent, sidecar_epsilon(&dir, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drained shard whose final write fails hands its final state to the
/// rollback all the same: the document on disk is older than the service,
/// yet no ε spent before the cutover is refunded.
#[test]
fn a_failed_final_write_refunds_no_epsilon_on_rollback() {
    let dir = temp_dir("failed-final-write");
    let service = DecisionService::start(Arc::new(StubModel), config(2, &dir)).unwrap();
    for i in 0..1_000 {
        service.decide(request(i)).unwrap();
    }
    let spent = service.metrics().epsilon_spent;
    let on_disk = sidecar_epsilon(&dir, 2);
    assert!(on_disk < spent, "the document lags: {on_disk} vs {spent}");
    // every write of the document fails from here: the drained shards'
    // final ones and the transform's
    std::fs::create_dir(dir.join("guards.json.tmp")).unwrap();

    service.reshard(3).unwrap_err();
    assert_eq!(service.shards(), 2);
    assert_eq!(service.metrics().epsilon_spent.to_bits(), spent.to_bits());
    assert_eq!(
        sidecar_epsilon(&dir, 2),
        on_disk,
        "the document is unchanged"
    );

    // once writes succeed again, the reshard carries everything spent
    std::fs::remove_dir(dir.join("guards.json.tmp")).unwrap();
    service.reshard(3).unwrap();
    let report = service.shutdown();
    assert!((report.epsilon_spent - spent).abs() < 1e-12, "{report:?}");
    assert!((sidecar_epsilon(&dir, 3) - spent).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_that_has_not_checkpointed_keeps_its_restored_state_in_the_document() {
    let dir = temp_dir("idle-slot");
    serve_and_stop(2, &dir);
    let restored = guard_slots(&dir);
    let service = DecisionService::start(Arc::new(StubModel), config(2, &dir)).unwrap();
    // a key routed to shard 0 (a probe served by shard 1 stays far below
    // its 200-decision cadence)
    let key = (0u64..)
        .find(|&k| service.decide(request(k)).unwrap().shard == 0)
        .unwrap();
    for _ in 0..400 {
        service.decide(request(key)).unwrap();
    }
    wait_until(&service, |m| m.shards[0].checkpoints > 0);
    assert_eq!(service.metrics().shards[1].checkpoints, 0);

    // shard 0 rewrote the document; shard 1's slot is still its restored
    // ledger and window
    let slots = guard_slots(&dir);
    assert!(slots[0].as_ref().unwrap().decisions > restored[0].as_ref().unwrap().decisions);
    assert_eq!(slots[1], restored[1]);
    assert!(!restored[1].as_ref().unwrap().ledger.is_empty());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One decision over the wire, unwrapped.
fn decide_over(client: &RemoteShard, features: f64, group_b: bool, route_key: u64) -> bool {
    let wire = fact_net::RequestWire {
        features: vec![features],
        group_b,
        route_key,
        tenant: None,
    };
    let frame = client
        .send(
            fact_net::FrameKind::Request,
            fact_net::encode(&wire).unwrap(),
        )
        .unwrap()
        .wait(Duration::from_secs(5))
        .unwrap();
    let resp: fact_net::ResponseWire = fact_net::decode(&frame.payload).unwrap();
    resp.into_result().unwrap().favorable
}

fn control_ack(client: &RemoteShard, command: &str) -> fact_net::ControlAckWire {
    let ack = client.control(command, Duration::from_secs(30)).unwrap();
    fact_net::decode(&ack.payload).unwrap()
}

#[test]
fn reshard_control_command_works_over_fact_net() {
    let dir = temp_dir("wire");
    let sock = std::env::temp_dir().join(format!("fact-reshard-wire-{}.sock", std::process::id()));
    let service = DecisionService::start(Arc::new(StubModel), config(4, &dir)).unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();

    let client = RemoteShard::connect(&sock).unwrap();
    for i in 0..300u64 {
        decide_over(&client, 0.4, i % 2 == 0, i);
    }

    let wire = control_ack(&client, "reshard 2");
    assert!(wire.ok, "{}", wire.info);
    assert!(wire.info.contains("resharded 4 -> 2"), "{}", wire.info);
    assert_eq!(service.shards(), 2);

    // the worker keeps serving after the cutover
    assert!(decide_over(&client, 0.9, false, 9));

    // a malformed count and a plain-host reshard are refusals, not panics
    let wire = control_ack(&client, "reshard nope");
    assert!(!wire.ok);

    // a service configured without checkpoints cannot carry its guard
    // state across a cutover: the wire refusal names the reason, and the
    // worker keeps serving
    let plain_sock =
        std::env::temp_dir().join(format!("fact-reshard-plain-{}.sock", std::process::id()));
    let plain = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            checkpoint: None,
            ..config(2, &dir)
        },
    )
    .unwrap();
    let handler = NetShardHandler::new(plain.clone(), Duration::from_secs(5));
    let mut plain_server =
        Server::bind(&plain_sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();
    let plain_client = RemoteShard::connect(&plain_sock).unwrap();
    let wire = control_ack(&plain_client, "reshard 2");
    assert!(!wire.ok);
    assert!(
        wire.info.contains("requires guards and checkpoint"),
        "{}",
        wire.info
    );
    assert!(decide_over(&plain_client, 0.9, false, 10));
    assert_eq!(plain.shards(), 2);

    plain_server.shutdown();
    plain.shutdown();
    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `Checkpoint` frame's ack counts lifetime decisions: what each
/// shard restored from its sidecar plus what it served since, across a
/// restart and a reshard.
#[test]
fn checkpoint_ack_counts_lifetime_decisions_across_restart_and_reshard() {
    let dir = temp_dir("ack");
    let sock = std::env::temp_dir().join(format!("fact-reshard-ack-{}.sock", std::process::id()));
    let first = DecisionService::start(Arc::new(StubModel), config(1, &dir)).unwrap();
    for i in 0..300 {
        first.decide(request(i)).unwrap();
    }
    first.shutdown();

    let service = DecisionService::start(Arc::new(StubModel), config(1, &dir)).unwrap();
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(5));
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();
    let client = RemoteShard::connect(&sock).unwrap();
    let ack = || -> fact_net::CheckpointAckWire {
        let frame = client
            .send(fact_net::FrameKind::Checkpoint, Vec::new())
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        fact_net::decode(&frame.payload).unwrap()
    };
    for i in 300..500u64 {
        decide_over(&client, 0.4, i % 2 == 0, i);
    }
    let restored = ack();
    assert_eq!((restored.shards, restored.decisions), (1, 500));

    let wire = control_ack(&client, "reshard 2");
    assert!(wire.ok, "{}", wire.info);
    for i in 500..600u64 {
        decide_over(&client, 0.4, i % 2 == 0, i);
    }
    let resharded = ack();
    assert_eq!((resharded.shards, resharded.decisions), (2, 600));

    server.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
