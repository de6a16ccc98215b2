//! E13 — durable audit sink: serving overhead and crash recovery
//! (EXPERIMENTS.md, E13).
//!
//! Two questions, one harness:
//!
//! 1. **What does durable auditing cost?** Replays the E11 open-loop
//!    lending workload (1 ms simulated feature-store fetch per micro-batch,
//!    40k req/s offered) with the guards tripped into sustained
//!    audit-and-flag mode — so *every* decision is flagged and written to
//!    the sink — and compares throughput with the sink on (file-backed,
//!    fsync per batch) vs. off. Claim: within 10% at the E11 workload.
//! 2. **Does recovery hold under a crash?** Replays a deterministic
//!    kill-restart-verify cycle over fault-injected storage: kill the
//!    writer mid-batch, restart over the torn bytes, and hard-assert the
//!    recovered chain verifies, at most one batch was torn, nothing
//!    head-committed was lost, and post-restart entries chain onto the
//!    recovered head. `--smoke` runs only this phase (the CI gate).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::header;
use bench::kit::{self, lending_request, train_model, ScratchDir};
use fact_ml::logistic::LogisticRegression;
use fact_serve::audit_sink::{
    parse_log, verify_all_segments, AuditEvent, AuditSink, AuditSinkConfig, AuditStorage,
    FileStorage, MemStorage,
};
use fact_serve::{DecisionService, DegradePolicy, GuardConfig, ServeConfig, SimulatedRemoteSource};
use fact_transparency::{verify_chain_from, ChainHead};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_FEATURES: usize = 8;
const FETCH: Duration = Duration::from_millis(1);
const OFFERED_PER_MS: usize = 40;
const TRIAL: Duration = Duration::from_millis(1200);

struct Trial {
    throughput: f64,
    p99_us: f64,
    flagged: u64,
    audited: u64,
}

/// The E11 workload, with the fairness guard tripping into a practically
/// permanent audit-and-flag degrade — worst-case audit volume: every
/// decision after the trip is flagged and (when `audit_path` is set)
/// written + fsynced by the sink.
fn run_trial(
    model: Arc<LogisticRegression>,
    shards: usize,
    audit_path: Option<std::path::PathBuf>,
    seed: u64,
) -> Trial {
    let audit = audit_path.map(|path| AuditSinkConfig {
        path,
        ..AuditSinkConfig::default()
    });
    let service = DecisionService::start_with_source(
        model,
        ServeConfig {
            shards,
            n_features: N_FEATURES,
            queue_cap: 256,
            batch_max: 8,
            batch_linger: Duration::from_micros(200),
            default_timeout: Duration::from_secs(5),
            threshold: 0.5,
            policy: DegradePolicy::AuditAndFlag,
            trip_cooldown: u64::MAX / 2, // once tripped, flag everything
            alert_debounce: 1_000,
            guards: Some(GuardConfig {
                fairness_window: 500,
                min_di: 0.95, // trips fast under the mild disparity
                min_samples_per_group: 50,
                dp_interval: 1_000,
                epsilon_per_release: 0.01,
                epsilon_budget: 5.0,
                drift: None,
            }),
            seed,
            audit,
            cache: None,
            topology: None,
            checkpoint: None,
            admission: None,
            reshard_hold: Duration::from_secs(5),
        },
        Arc::new(SimulatedRemoteSource::new(FETCH)),
    )
    .expect("service start");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let start = Instant::now();
    let mut key = 0u64;
    while start.elapsed() < TRIAL {
        for _ in 0..OFFERED_PER_MS {
            key += 1;
            match service.submit(lending_request(&mut rng, key, N_FEATURES)) {
                Ok(handle) => drop(handle),
                Err(_) => {}
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = service.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    let snap = service.metrics();
    Trial {
        throughput: report.decisions_served as f64 / elapsed,
        p99_us: snap.p99.map_or(0.0, |d| d.as_nanos() as f64 / 1e3),
        flagged: report.flagged,
        audited: report.audited,
    }
}

fn overhead_phase(out: &mut String) {
    let model = Arc::new(train_model(13, N_FEATURES));
    let dir = ScratchDir::new("e13");

    println!(
        "E13a: audited vs unaudited serving, flag-everything degrade \
         ({} req/s offered, {}ms fetch per batch)\n",
        OFFERED_PER_MS * 1000,
        FETCH.as_millis()
    );
    // warm-up
    run_trial(Arc::clone(&model), 1, None, 99);

    let columns = ["shards", "config", "req/s", "p99(us)", "flagged", "audited"];
    let widths = [6, 10, 10, 10, 9, 9];
    out.push_str(&header(&columns, &widths));
    out.push('\n');

    let mut worst = 0.0f64;
    for &shards in &[1usize, 2, 4] {
        let base = run_trial(Arc::clone(&model), shards, None, 7 + shards as u64);
        let path = dir.join(format!("audit-{shards}.jsonl"));
        let audited = run_trial(
            Arc::clone(&model),
            shards,
            Some(path.clone()),
            7 + shards as u64,
        );
        for (label, t) in [("unaudited", &base), ("audited", &audited)] {
            let line = format!(
                "{shards:>6} {label:>10} {:>10.0} {:>10.1} {:>9} {:>9}",
                t.throughput, t.p99_us, t.flagged, t.audited
            );
            println!("{line}");
            out.push_str(&line);
            out.push('\n');
        }
        assert!(
            audited.audited > audited.flagged / 2,
            "the sink must actually be receiving the flags"
        );
        // the durable log the trial produced must verify — enumerate the
        // segments on disk rather than assuming a single-file layout (the
        // sink rolls past max_segment_bytes)
        let mut disk: Box<dyn AuditStorage> =
            Box::new(FileStorage::open(&path).expect("open audit log"));
        let segments = disk.list_segments().expect("list segments");
        assert!(!segments.is_empty(), "the trial must have left a log");
        let mut entries = Vec::new();
        for &seg in &segments {
            entries.extend(parse_log(&disk.read_segment(seg).expect("read segment")));
        }
        assert_eq!(
            verify_chain_from(ChainHead::genesis(), &entries),
            None,
            "audit chain from the throughput trial must verify"
        );
        let audit_check = verify_all_segments(disk.as_mut()).expect("segment audit");
        assert!(
            audit_check.continuous,
            "every segment must verify standalone and stitch: {audit_check:?}"
        );
        let overhead = 100.0 * (1.0 - audited.throughput / base.throughput);
        worst = worst.max(overhead);
        let line = format!("{shards:>6} {:>10} overhead {overhead:>5.1}%", "audit");
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    }
    let summary = format!("\nworst audit overhead: {worst:.1}% (claim: <10%)\n");
    print!("{summary}");
    out.push_str(&summary);
}

fn flagged_event(key: u64) -> AuditEvent {
    AuditEvent::Flagged {
        shard: 0,
        route_key: key,
        probability: 0.2,
        favorable: false,
        group_b: key.is_multiple_of(2),
    }
}

/// Deterministic kill-restart-verify cycle over fault-injected storage.
/// Hard-asserts the recovery contract; this is what `--smoke` (the CI
/// gate) runs.
fn recovery_phase(out: &mut String) {
    const BATCH: usize = 8;
    let cfg = AuditSinkConfig {
        batch_max: BATCH,
        flush_interval: Duration::from_millis(1),
        ..AuditSinkConfig::default()
    };
    let storage = MemStorage::new();

    // phase 1: land synced batches, then die mid-batch
    let sink = AuditSink::open_with_storage(&cfg, Box::new(storage.clone())).unwrap();
    let handle = sink.handle();
    for k in 0..32u64 {
        handle.record(flagged_event(k));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.audited() < 33 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let synced_entries = parse_log(&storage.log_bytes()).len();
    let synced_bytes = storage.log_bytes().len();
    storage.kill_at_byte(synced_bytes as u64 + 200);
    for k in 32..40u64 {
        handle.record(flagged_event(k));
    }
    drop(handle);
    let r1 = sink.finish();
    assert!(r1.io_errors >= 1, "the kill must surface as an io error");
    let torn_bytes = storage.log_bytes().len() - synced_bytes;

    // phase 2: restart over the torn bytes
    let storage = storage.restart();
    let sink = AuditSink::open_with_storage(&cfg, Box::new(storage.clone())).unwrap();
    let rec = sink.recovery().clone();
    assert!(rec.truncated_bytes > 0, "torn tail must be cut: {rec:?}");
    assert_eq!(
        rec.cut_seq, None,
        "a kill is a tear, not tampering: {rec:?}"
    );
    assert!(rec.recovered as usize >= synced_entries, "{rec:?}");
    assert_eq!(
        rec.lost, 0,
        "nothing head-committed may be missing: {rec:?}"
    );
    assert!(
        (rec.cut_lines as usize) < BATCH,
        "at most one torn batch: {rec:?}"
    );
    let resumed = rec.resumed;
    let handle = sink.handle();
    for k in 100..108u64 {
        handle.record(flagged_event(k));
    }
    drop(handle);
    let r2 = sink.finish();
    assert!(r2.audited >= 9, "restart must keep appending: {r2:?}");

    // phase 3: the log spanning the crash verifies as one chain, and the
    // restart marker sits exactly on the recovered head
    let entries = parse_log(&storage.log_bytes());
    assert_eq!(
        verify_chain_from(ChainHead::genesis(), &entries),
        None,
        "chain must verify across the crash"
    );
    let marker = entries
        .iter()
        .find(|e| e.action == "sink_start" && e.seq == resumed.next_seq)
        .expect("restart marker chained at the recovered head");
    assert_eq!(marker.prev_hash, resumed.hash, "prev_hash continuity");

    println!("E13b: kill-restart-verify replay (batch_max={BATCH})\n");
    let columns = ["phase", "entries", "bytes", "cut", "lost"];
    let widths = [22, 8, 8, 6, 5];
    out.push_str(&header(&columns, &widths));
    out.push('\n');
    for (phase, e, b, cut, lost) in [
        (
            "synced before kill",
            synced_entries,
            synced_bytes,
            0u64,
            0u64,
        ),
        (
            "on disk after kill",
            synced_entries,
            synced_bytes + torn_bytes,
            0,
            0,
        ),
        (
            "recovered at restart",
            rec.recovered as usize,
            rec.cut_offset as usize,
            rec.truncated_bytes,
            rec.lost,
        ),
        (
            "final verified chain",
            entries.len(),
            storage.log_bytes().len(),
            0,
            0,
        ),
    ] {
        let line = format!("{phase:>22} {e:>8} {b:>8} {cut:>6} {lost:>5}");
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    }
    let summary = format!(
        "\nkill tore {torn_bytes} bytes mid-batch; recovery cut {} bytes \
         ({} lines), lost 0 head-committed entries; chain verified across restart\n",
        rec.truncated_bytes, rec.cut_lines
    );
    print!("{summary}");
    out.push_str(&summary);
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let mut out = String::new();
    out.push_str("E13: durable audit sink — overhead and crash recovery\n\n");

    if !smoke {
        overhead_phase(&mut out);
        println!();
        out.push('\n');
    }
    recovery_phase(&mut out);

    if smoke {
        println!("\nE13 smoke passed: recovery contract holds");
    } else {
        kit::write_results("e13", &out);
    }
}
