//! E19 — live resharding under sustained load (EXPERIMENTS.md, E19).
//!
//! Takes a guarded serving topology from 4 shards to 8 to 3 while driver
//! threads keep a closed loop of disparate lending traffic running, and
//! hard-asserts the three continuity properties the reshard orchestrator
//! promises:
//!
//! 1. **Zero lost decisions** — every request issued is served; submits
//!    that land mid-cutover park and replay into the new topology (the hold window is set above the cutover time, so no
//!    request sees `ServeError::Resharding`).
//! 2. **Window-state continuity** — per cutover, the fairness-window
//!    counts summed over the post-split checkpoints are cell-for-cell
//!    equal to the pre-merge sum, and lifetime decision counts conserve
//!    exactly; the final guard-state document holds one slot per final
//!    shard and accounts for every decision served.
//! 3. **Audit-chain continuity** — the hash-chained audit log verifies
//!    segment-by-segment and `continuous` across both cutovers (the audit
//!    sink stays open while the topology epochs change).
//!
//! `--smoke` runs the in-process phase only (the CI gate). The full run
//! adds the wire phase: the same 4→8→3 schedule driven through a real
//! `fact-shardd` process over TCP via `Control {"command":"reshard <M>"}`
//! frames, proving the cutover holds across the socket too.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bench::kit::{self, disparate_request, MeanScorer, ScratchDir, Shardd};
use fact_serve::{
    AuditSinkConfig, CheckpointConfig, DecisionService, DegradePolicy, GuardConfig, GuardState,
    ServeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_FEATURES: usize = 4;
const CHECKPOINT_EVERY: u64 = 200;
const DP_INTERVAL: usize = 100;
const FAIRNESS_WINDOW: usize = 800;
/// The reshard schedule both phases run: grow, then shrink below start.
const SCHEDULE: [usize; 2] = [8, 3];
const START_SHARDS: usize = 4;

fn sidecar_decisions(dir: &Path, shards: usize) -> u64 {
    let state = (GuardState::load(dir).expect("readable guard state"))
        .expect("guard state written by the reshard");
    assert_eq!(state.shards.len(), shards, "the document's shard count");
    (state.shards.into_iter().enumerate())
        .map(|(s, ck)| {
            ck.unwrap_or_else(|| panic!("shard {s}'s checkpoint missing after reshard"))
                .decisions
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Phase A: in-process reshard under closed-loop load
// ---------------------------------------------------------------------------

fn local_phase(per_epoch: u64) {
    println!("## E19a: in-process 4 -> 8 -> 3 under sustained load\n");
    let dir = ScratchDir::new("e19-local");
    let service = DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: START_SHARDS,
            n_features: N_FEATURES,
            policy: DegradePolicy::AuditAndFlag,
            guards: Some(GuardConfig {
                fairness_window: FAIRNESS_WINDOW,
                dp_interval: DP_INTERVAL,
                ..GuardConfig::default()
            }),
            checkpoint: Some(CheckpointConfig::new(
                dir.join("checkpoints"),
                CHECKPOINT_EVERY,
            )),
            audit: Some(AuditSinkConfig {
                path: dir.join("audit.jsonl"),
                ..AuditSinkConfig::default()
            }),
            default_timeout: Duration::from_secs(30),
            // generous: the point of this phase is zero refusals, so the
            // hold window must dominate any cutover on a loaded box
            reshard_hold: Duration::from_secs(120),
            ..ServeConfig::default()
        },
    )
    .expect("start service");

    let stop = Arc::new(AtomicBool::new(false));
    let issued = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let drivers: Vec<_> = (0..2u64)
        .map(|t| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            let issued = Arc::clone(&issued);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(19 + t);
                let mut key = t * 10_000_000;
                while !stop.load(Ordering::Relaxed) {
                    key += 1;
                    issued.fetch_add(1, Ordering::Relaxed);
                    service
                        .decide(disparate_request(&mut rng, key, N_FEATURES))
                        .expect("no decision may be lost to a cutover");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    let wait_for = |target: u64| {
        while served.load(Ordering::Relaxed) < target {
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    bench::header(
        &["cutover", "pre_decisions", "held", "cutover_ms"],
        &[12, 14, 6, 10],
    );
    let mut marks = Vec::new();
    for (i, &to) in SCHEDULE.iter().enumerate() {
        wait_for(per_epoch * (i as u64 + 1));
        let report = service.reshard(to).expect("reshard");
        assert_eq!(
            report.transform.pre_counts, report.transform.post_counts,
            "fairness-window counts must conserve across {} -> {}",
            report.from, report.to
        );
        assert_eq!(
            report.transform.pre_decisions, report.transform.post_decisions,
            "lifetime decision counts must conserve across {} -> {}",
            report.from, report.to
        );
        assert_eq!(service.shards(), to);
        println!(
            "{:>12} {:>14} {:>6} {:>10.1}",
            format!("{} -> {}", report.from, report.to),
            report.transform.pre_decisions,
            report.held,
            report.cutover.as_secs_f64() * 1e3,
        );
        marks.push(report);
    }

    wait_for(per_epoch * (SCHEDULE.len() as u64 + 1));
    stop.store(true, Ordering::Relaxed);
    for d in drivers {
        d.join().expect("driver panicked — a decision was lost");
    }
    let report = service.shutdown();

    let issued = issued.load(Ordering::Relaxed);
    let served = served.load(Ordering::Relaxed);
    assert_eq!(issued, served, "zero lost decisions (caller side)");
    assert_eq!(
        report.decisions_served, served,
        "zero lost decisions (epoch accounting)"
    );
    assert_eq!(
        report.epochs,
        SCHEDULE.len() as u64 + 1,
        "one topology epoch per cutover plus one"
    );
    let final_sidecars = sidecar_decisions(&dir.join("checkpoints"), SCHEDULE[SCHEDULE.len() - 1]);
    assert_eq!(
        final_sidecars, served,
        "final sidecars must account for every decision across both transforms"
    );
    let (segments, entries) = kit::verify_audit_log(&dir.join("audit.jsonl"));
    assert!(entries > 0, "disparate traffic must have flagged decisions");

    println!("\ndecisions issued = served     : {served}");
    println!("epoch reports                 : {}", report.epochs);
    println!("final sidecar decision total  : {final_sidecars}");
    println!("audit segments verified       : {segments} ({entries} entries, continuous)");
    println!("\nPASS: 4 -> 8 -> 3 with zero lost decisions, conserved windows, continuous audit\n");
}

// ---------------------------------------------------------------------------
// Phase B: the same schedule over TCP against a real fact-shardd
// ---------------------------------------------------------------------------

fn wire_phase(per_epoch: u64) {
    println!("## E19b: the same schedule over TCP via reshard control frames\n");
    let dir = ScratchDir::new("e19-wire");
    let mut worker = Shardd::tcp(&kit::shardd_path(), |cmd| {
        cmd.arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .args(["--shards", &START_SHARDS.to_string()])
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .args(["--dp-interval", &DP_INTERVAL.to_string()])
            .args(["--fairness-window", &FAIRNESS_WINDOW.to_string()])
            .args(["--reshard-hold-ms", "120000"])
            .arg("--audit")
            .arg(dir.join("audit.jsonl"));
    });
    println!("worker listening on {}", worker.endpoint());

    // front-end: one remote slot over TCP, same routing fabric as local
    let client = DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: 1,
            n_features: N_FEATURES,
            guards: None,
            topology: Some(vec![worker.slot()]),
            default_timeout: Duration::from_secs(150),
            ..ServeConfig::default()
        },
    )
    .expect("start remote client");

    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let driver = {
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        let client = client.clone();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(119);
            let mut key = 0u64;
            while !stop.load(Ordering::Relaxed) {
                key += 1;
                client
                    .decide(disparate_request(&mut rng, key, N_FEATURES))
                    .expect("no decision may be lost to a remote cutover");
                served.fetch_add(1, Ordering::Relaxed);
            }
            key
        })
    };

    let wait_for = |target: u64| {
        while served.load(Ordering::Relaxed) < target {
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    for (i, &to) in SCHEDULE.iter().enumerate() {
        wait_for(per_epoch * (i as u64 + 1));
        // control frames ride their own connection, so cutover acks don't
        // queue behind held decision replies
        let wire = worker.control(&format!("reshard {to}"), Duration::from_secs(150));
        assert!(wire.ok, "remote reshard failed: {}", wire.info);
        println!("cutover {i}: {}", wire.info);
    }

    wait_for(per_epoch * (SCHEDULE.len() as u64 + 1));
    stop.store(true, Ordering::Relaxed);
    let issued = driver
        .join()
        .expect("driver panicked — a decision was lost");
    let served = served.load(Ordering::Relaxed);
    assert_eq!(issued, served, "zero lost decisions across the wire");

    // graceful worker shutdown → final sidecars + audit chain on disk
    worker.shutdown();

    let final_sidecars = sidecar_decisions(&dir.join("checkpoints"), SCHEDULE[SCHEDULE.len() - 1]);
    assert_eq!(
        final_sidecars, served,
        "worker sidecars must account for every decision served over TCP"
    );
    let (segments, entries) = kit::verify_audit_log(&dir.join("audit.jsonl"));
    let stats = client.remote_stats();
    println!("\ndecisions issued = served     : {served}");
    println!("final sidecar decision total  : {final_sidecars}");
    println!("audit segments verified       : {segments} ({entries} entries, continuous)");
    println!(
        "client transport              : requests={} reconnects={} errors={} rtt_mean={:.1}us",
        stats[0].requests, stats[0].reconnects, stats[0].errors, stats[0].rtt_mean_micros
    );
    client.shutdown();
    println!("\nPASS: remote 4 -> 8 -> 3 over TCP with zero lost decisions and a continuous audit chain\n");
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    println!("# E19 — live resharding under sustained load\n");
    if smoke {
        local_phase(600);
        println!("E19 smoke: OK");
    } else {
        local_phase(2_500);
        wire_phase(1_500);
    }
}
