//! E16 — cross-process shard serving: kill-and-restart under load, and the
//! cost of going remote (EXPERIMENTS.md, E16).
//!
//! Two questions, one harness:
//!
//! 1. **Does guard state survive a worker crash?** Spawns a real
//!    `fact-shardd` process, routes a disparate lending workload to it
//!    through a `ShardSlot::Remote` topology, then SIGKILLs the worker
//!    mid-load. Hard-asserts the periodic checkpoints bound the loss
//!    (decisions lost < shards × checkpoint interval, never a silent
//!    reset to zero), respawns the worker over the same checkpoint
//!    directory, and verifies it *resumes*: lifetime decision counts,
//!    fairness window, and ε ledger all continue from the checkpoint.
//!    The worker's durable audit log must verify segment-by-segment
//!    across the crash. `--smoke` runs only this phase (the CI gate).
//! 2. **What does a socket hop cost?** Closed-loop throughput/latency of
//!    the same guarded workload against in-process shards vs. a
//!    `fact-shardd` worker over a Unix socket.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bench::header;
use bench::kit::{self, disparate_request, MeanScorer, ScratchDir, Shardd};
use fact_serve::{DecisionService, DegradePolicy, GuardConfig, GuardState, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_FEATURES: usize = 4;
const WORKER_SHARDS: usize = 2;
const CHECKPOINT_EVERY: u64 = 200;
const DP_INTERVAL: usize = 100;
const FAIRNESS_WINDOW: usize = 800;

fn spawn_worker(dir: &ScratchDir, with_audit: bool) -> Shardd {
    Shardd::unix(&kit::shardd_path(), &dir.join("shardd.sock"), |cmd| {
        cmd.arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .args(["--shards", &WORKER_SHARDS.to_string()])
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .args(["--dp-interval", &DP_INTERVAL.to_string()])
            .args(["--fairness-window", &FAIRNESS_WINDOW.to_string()]);
        if with_audit {
            cmd.arg("--audit").arg(dir.join("audit.jsonl"));
        }
    })
}

fn checkpoint_totals(dir: &Path) -> (u64, usize, f64) {
    let mut decisions = 0;
    let mut ledger = 0;
    let mut window_events = 0f64;
    let state = GuardState::load(dir).expect("readable checkpoint");
    for ck in state.into_iter().flat_map(|s| s.shards).flatten() {
        decisions += ck.decisions;
        ledger += ck.ledger.len();
        window_events += ck.window.len() as f64;
    }
    (decisions, ledger, window_events)
}

fn kill_restart_phase(n_load: u64, n_resume: u64) {
    println!("## E16a: kill-and-restart a remote shard worker under load\n");
    let dir = ScratchDir::new("e16-recovery");
    let mut rng = StdRng::seed_from_u64(16);

    // --- run 1: load, then SIGKILL mid-flight ---------------------------
    let mut worker = spawn_worker(&dir, true);
    let client = kit::remote_client(worker.slot(), N_FEATURES);
    let served1 = kit::drive(&client, &mut rng, n_load, 0, N_FEATURES);
    assert_eq!(served1, n_load, "healthy worker must serve everything");
    // a silent fallback to JSON would cost the binary payloads' gain with
    // every decision still served
    let wire = client.remote_stats()[0].wire_version;
    assert_eq!(wire, 2, "the connection must negotiate binary payloads");

    worker.kill();
    let (ck_decisions, ck_ledger, ck_window) = checkpoint_totals(&dir.join("checkpoints"));
    let lost = served1 - ck_decisions;
    println!("served before kill            : {served1}");
    println!("negotiated wire version       : {wire}");
    println!("checkpointed decisions        : {ck_decisions}");
    println!("decisions lost to the kill    : {lost}");
    println!("ε-ledger entries checkpointed : {ck_ledger}");
    println!("fairness-window events        : {ck_window}");
    assert!(ck_decisions > 0, "silent reset: checkpoints hold nothing");
    let bound = WORKER_SHARDS as u64 * CHECKPOINT_EVERY;
    assert!(
        lost < bound,
        "loss must be bounded by shards × interval: lost {lost}, bound {bound}"
    );
    assert!(ck_ledger > 0, "ε ledger must be checkpointed");

    // the dead worker surfaces as a typed error, not a hang
    let dead = client.decide(disparate_request(&mut rng, 999_999, N_FEATURES));
    assert!(dead.is_err(), "decisions against a dead worker must fail");

    // --- run 2: respawn over the same guard state, resume, drain cleanly ---
    let mut worker = spawn_worker(&dir, true);
    let served2 = kit::drive(&client, &mut rng, n_resume, n_load, N_FEATURES);
    assert_eq!(served2, n_resume, "respawned worker must serve everything");
    let remote = &client.remote_stats()[0];
    let reconnects = remote.reconnects;
    assert!(reconnects >= 1, "client must have healed the connection");
    assert_eq!(
        remote.wire_version, 2,
        "the healed connection must negotiate binary payloads again"
    );
    worker.shutdown();

    let (final_decisions, final_ledger, final_window) = checkpoint_totals(&dir.join("checkpoints"));
    println!("served after respawn          : {served2}");
    println!("client reconnects             : {reconnects}");
    println!("wire version after reconnect  : {}", remote.wire_version);
    println!("final lifetime decisions      : {final_decisions}");
    println!("final ε-ledger entries        : {final_ledger}");
    println!("final fairness-window events  : {final_window}");
    assert_eq!(
        final_decisions,
        ck_decisions + served2,
        "lifetime count must resume from the checkpoint, not from zero"
    );
    assert!(
        final_ledger >= ck_ledger,
        "ε ledger must grow monotonically across the restart"
    );
    assert!(final_window > 0.0);

    // --- the audit log must verify across the crash ---------------------
    let (segments, entries) = kit::verify_audit_log(&dir.join("audit.jsonl"));
    println!("audit segments verified       : {segments}");
    println!("audit entries across restart  : {entries}");
    assert!(entries > 0, "disparate traffic must have flagged decisions");
    println!("\nPASS: window + ε ledger survive a SIGKILL with bounded loss\n");
    let _ = client.shutdown();
}

// ---------------------------------------------------------------------------
// E16b: local vs remote throughput/latency
// ---------------------------------------------------------------------------

struct Measured {
    throughput: f64,
    mean_us: f64,
    p99_us: f64,
}

fn measure(client: &DecisionService, total: u64, threads: u64, seed: u64) -> Measured {
    let per = total / threads;
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ t);
                    let mut lat = Vec::with_capacity(per as usize);
                    for i in 0..per {
                        let req = disparate_request(&mut rng, t * per + i, N_FEATURES);
                        let sent = Instant::now();
                        client.decide(req).expect("decision");
                        lat.push(sent.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread"))
            .collect()
    });
    let wall = start.elapsed();
    let n = latencies.len();
    Measured {
        throughput: n as f64 / wall.as_secs_f64(),
        mean_us: latencies.iter().sum::<u64>() as f64 / n as f64,
        p99_us: kit::percentile(&mut latencies, 99) as f64,
    }
}

fn comparison_phase(total: u64) {
    println!(
        "## E16b: in-process vs cross-process serving ({total} decisions, 4 driver threads)\n"
    );
    let guard = GuardConfig {
        fairness_window: FAIRNESS_WINDOW,
        dp_interval: DP_INTERVAL,
        ..GuardConfig::default()
    };

    let local = DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: WORKER_SHARDS,
            n_features: N_FEATURES,
            policy: DegradePolicy::AuditAndFlag,
            guards: Some(guard),
            ..ServeConfig::default()
        },
    )
    .expect("start local service");
    let local_m = measure(&local, total, 4, 7);
    let _ = local.shutdown();

    let dir = ScratchDir::new("e16-compare");
    let mut worker = spawn_worker(&dir, false);
    let remote = kit::remote_client(worker.slot(), N_FEATURES);
    let remote_m = measure(&remote, total, 4, 7);
    let rtt = remote.remote_stats()[0].rtt_mean_micros;
    let _ = remote.shutdown();
    worker.shutdown();

    header(&["mode", "req/s", "mean_us", "p99_us"], &[10, 12, 10, 10]);
    for (mode, m) in [("local", &local_m), ("remote", &remote_m)] {
        println!(
            "{mode:>10} {:>12.0} {:>10.1} {:>10.1}",
            m.throughput, m.mean_us, m.p99_us
        );
    }
    println!("\nremote wire RTT (client-measured): {rtt:.1} µs mean");
    println!(
        "socket-hop slowdown: {:.2}x throughput, {:.2}x mean latency",
        local_m.throughput / remote_m.throughput,
        remote_m.mean_us / local_m.mean_us
    );
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    println!("# E16 — cross-process shard serving with guard-state checkpoint/merge\n");
    if smoke {
        kill_restart_phase(1_200, 600);
        println!("E16 smoke: OK");
    } else {
        kill_restart_phase(6_000, 3_000);
        comparison_phase(20_000);
    }
}
