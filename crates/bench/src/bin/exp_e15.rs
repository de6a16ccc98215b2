//! E15 — segmented audit rotation: restart cost is O(segment), not
//! O(history) (EXPERIMENTS.md, E15).
//!
//! The E13 sink wrote one ever-growing JSONL file, so startup recovery
//! replayed the *entire* history — a service with a year of audit log paid
//! a year of hashing before serving its first decision. The segmented sink
//! rolls to a new file past `max_segment_bytes`, opening each segment with
//! a chain-head handoff record so every segment verifies standalone. Three
//! phases pin the design down:
//!
//! 1. **Recovery scaling** — grow the log ≥10× while recovery's bytes-read
//!    (counted by an instrumented storage, not a stopwatch) stays bounded
//!    by one segment. The full-history audit, by contrast, grows linearly
//!    — that is exactly the work rotation moved off the restart path.
//! 2. **Standalone verification** — every segment of the largest log
//!    verifies on its own from its handoff record, and the segments stitch
//!    into one continuous chain.
//! 3. **Crash at the segment boundary** — a whole `DecisionService` is
//!    killed as the sink rolls (the torn handoff is the worst case: the
//!    newest segment is unusable), restarted, and must report **zero
//!    silent loss**: nothing head-committed missing, and a deliberately
//!    deleted middle segment shows up as exactly its entry count in
//!    `ServiceReport::lost_on_recovery` — provable, quantified, never
//!    papered over.
//!
//! `--smoke` runs reduced sizes with every hard assertion active (the CI
//! gate); the full run also writes `results/e15.txt`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::header;
use bench::kit::{self, flagged, run_disparity, PassThrough};
use fact_serve::audit_sink::{recover, AuditSink, AuditSinkConfig, MemStorage};
use fact_serve::{
    verify_all_segments, AuditStorage, DecisionService, DegradePolicy, GuardConfig, InlineFeatures,
    ServeConfig,
};

/// Small segments so modest event counts produce deep segment chains.
const SEGMENT_BYTES: u64 = 8 * 1024;

fn sink_config(batch_max: usize) -> AuditSinkConfig {
    AuditSinkConfig {
        max_segment_bytes: SEGMENT_BYTES,
        ..kit::sink_config(batch_max)
    }
}

/// An [`AuditStorage`] decorator that counts the bytes every
/// `read_segment` call returns — recovery cost measured in work, not
/// wall-clock, so the scaling claim is deterministic in CI.
struct CountingStorage {
    inner: MemStorage,
    read_bytes: Arc<AtomicU64>,
    reads: Arc<AtomicU64>,
}

impl AuditStorage for CountingStorage {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_segments()
    }
    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read_segment(segment)?;
        self.read_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }
    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        self.inner.open_segment(segment)
    }
    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.append_log(buf)
    }
    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        self.inner.truncate_segment(segment, len)
    }
    fn sync_log(&mut self) -> io::Result<()> {
        self.inner.sync_log()
    }
    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_head()
    }
    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_head(buf)
    }
}

/// Fill `storage` with `events` flagged decisions through a rotating sink
/// and return (total log bytes, segments present).
fn fill(storage: &MemStorage, events: u64) -> (u64, u64) {
    let sink = AuditSink::open_with_storage(&sink_config(64), Box::new(storage.clone()))
        .expect("open sink");
    let handle = sink.handle();
    for k in 0..events {
        handle.record(flagged(k));
    }
    drop(handle);
    let report = sink.finish();
    assert_eq!(report.dropped, 0, "healthy storage drops nothing");
    (
        storage.log_bytes().len() as u64,
        storage.segment_ids().len() as u64,
    )
}

struct ScalePoint {
    events: u64,
    log_bytes: u64,
    segments: u64,
    recovery_read: u64,
    recovery_us: f64,
    full_audit_read: u64,
}

/// Phase 1: recovery bytes-read must stay ~one segment while the log (and
/// the full-history audit's bytes-read) grows ≥10×.
fn scaling_phase(out: &mut String, sizes: &[u64]) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &events in sizes {
        let storage = MemStorage::new();
        let (log_bytes, segments) = fill(&storage, events);

        let read_bytes = Arc::new(AtomicU64::new(0));
        let reads = Arc::new(AtomicU64::new(0));
        let mut counting = CountingStorage {
            inner: storage.restart(),
            read_bytes: Arc::clone(&read_bytes),
            reads: Arc::clone(&reads),
        };
        let t0 = Instant::now();
        let rec = recover(&mut counting).expect("recover");
        let recovery_us = t0.elapsed().as_nanos() as f64 / 1e3;
        assert_eq!(rec.lost, 0, "clean shutdown loses nothing: {rec:?}");
        assert_eq!(
            rec.replayed_segments, 1,
            "recovery must replay exactly the newest segment: {rec:?}"
        );
        let recovery_read = read_bytes.load(Ordering::Relaxed);

        read_bytes.store(0, Ordering::Relaxed);
        let audit = verify_all_segments(&mut counting).expect("full audit");
        assert!(audit.continuous, "clean log must audit continuous");
        let full_audit_read = read_bytes.load(Ordering::Relaxed);

        points.push(ScalePoint {
            events,
            log_bytes,
            segments,
            recovery_read,
            recovery_us,
            full_audit_read,
        });
    }

    println!(
        "E15a: restart cost vs log size (segment cap {} KiB)\n",
        SEGMENT_BYTES / 1024
    );
    let columns = [
        "events",
        "log(KiB)",
        "segments",
        "rec(KiB)",
        "rec(us)",
        "full(KiB)",
    ];
    let widths = [8, 9, 9, 9, 9, 10];
    out.push_str(&header(&columns, &widths));
    out.push('\n');
    for p in &points {
        let line = format!(
            "{:>8} {:>9.1} {:>9} {:>9.1} {:>9.1} {:>10.1}",
            p.events,
            p.log_bytes as f64 / 1024.0,
            p.segments,
            p.recovery_read as f64 / 1024.0,
            p.recovery_us,
            p.full_audit_read as f64 / 1024.0,
        );
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    }

    // the claims, hard-asserted
    let (first, last) = (&points[0], &points[points.len() - 1]);
    // 10× the events should grow the log ~10×; constant per-line overhead
    // (digest, framing) pulls the byte ratio toward 10 from either side, so
    // the floor carries a 2% tolerance rather than demanding exactly ≥10×.
    assert!(
        last.log_bytes * 50 >= first.log_bytes * 49 * 10,
        "the log must grow ~10× (≥9.8×): {} → {}",
        first.log_bytes,
        last.log_bytes
    );
    assert!(
        last.full_audit_read >= first.full_audit_read * 5,
        "full-history audit work must grow with the log"
    );
    // one segment plus at most one batch of overshoot, at any history size
    for p in &points {
        assert!(
            p.recovery_read <= 3 * SEGMENT_BYTES,
            "recovery read {} bytes at {} events — not O(segment)",
            p.recovery_read,
            p.events
        );
    }
    let summary = format!(
        "\nlog grew {:.1}×; recovery stayed ≤{:.1} KiB (one segment) while \
         the full audit grew to {:.1} KiB — restart is O(segment)\n",
        last.log_bytes as f64 / first.log_bytes as f64,
        points
            .iter()
            .map(|p| p.recovery_read)
            .max()
            .unwrap_or_default() as f64
            / 1024.0,
        last.full_audit_read as f64 / 1024.0,
    );
    print!("{summary}");
    out.push_str(&summary);
    points
}

/// Phase 2: every segment of the deepest log verifies standalone from its
/// handoff record, and adjacent segments stitch continuously.
fn standalone_phase(out: &mut String, events: u64) {
    let storage = MemStorage::new();
    let (_, segments) = fill(&storage, events);
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.restart());
    let audit = verify_all_segments(probe.as_mut()).expect("audit");
    assert_eq!(audit.segments.len() as u64, segments);
    let mut entries_total = 0u64;
    for (id, verdict) in &audit.segments {
        let check = verdict
            .as_ref()
            .unwrap_or_else(|e| panic!("segment {id} failed standalone verification: {e}"));
        entries_total += check.entries;
    }
    assert!(audit.continuous, "segments must stitch into one chain");
    let summary = format!(
        "\nE15b: {} segments verified standalone ({} chained entries), \
         continuity confirmed across every boundary\n",
        segments, entries_total
    );
    print!("{summary}");
    out.push_str(&summary);
}

fn service_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        n_features: 1,
        queue_cap: 256,
        batch_max: 8,
        batch_linger: Duration::from_micros(100),
        default_timeout: Duration::from_secs(5),
        policy: DegradePolicy::AuditAndFlag,
        trip_cooldown: 10_000,
        guards: Some(GuardConfig {
            fairness_window: 100,
            min_di: 0.8,
            min_samples_per_group: 10,
            dp_interval: 1_000_000,
            ..GuardConfig::default()
        }),
        audit: Some(AuditSinkConfig {
            // tiny cap: every flush rolls, so the kill lands on a boundary
            max_segment_bytes: 1,
            ..sink_config(8)
        }),
        ..ServeConfig::default()
    }
}

fn start_service(storage: &MemStorage) -> DecisionService {
    DecisionService::start_with_audit_storage(
        Arc::new(PassThrough),
        service_config(),
        Arc::new(InlineFeatures),
        Box::new(storage.clone()),
    )
    .expect("service start")
}

/// Phase 3: kill a whole service exactly as the sink rolls, restart, and
/// account for every entry — zero silent loss, and deliberate destruction
/// shows up as a quantified `lost_on_recovery`, not a panic.
fn boundary_phase(out: &mut String, requests: u64) {
    let storage = MemStorage::new();

    // run 1: serve with every decision flagged, storage dying 10 bytes
    // into a segment roll (the torn line is the new segment's handoff)
    let service = start_service(&storage);
    let served = run_disparity(&service, requests);
    assert_eq!(served, requests);
    storage.kill_at_byte(storage.log_bytes().len() as u64 + 10);
    let served2 = run_disparity(&service, requests);
    assert_eq!(served2, requests, "a dead audit disk must not stop serving");
    service.shutdown();
    let segments_after_kill = storage.segment_ids().len() as u64;

    // run 2: recovery wipes the torn roll, falls back one segment, and
    // promises that nothing head-committed is gone
    let storage = storage.restart();
    let service = start_service(&storage);
    let rec = service.audit_recovery().expect("sink configured").clone();
    assert_eq!(
        rec.lost, 0,
        "kill at the boundary must cost nothing promised: {rec:?}"
    );
    assert!(
        rec.replayed_segments <= 2,
        "recovery is O(segment) even at a torn boundary: {rec:?}"
    );
    run_disparity(&service, requests);
    let report = service.shutdown();
    assert_eq!(report.lost_on_recovery, 0);
    assert!(report.audit_segments > 1, "rotation must have happened");

    // the full history spanning both runs still audits continuous
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let audit = verify_all_segments(probe.as_mut()).expect("audit");
    assert!(audit.continuous, "{audit:?}");

    // run 3: destroy a middle segment outright; the loss must be provable
    // and exactly quantified by the neighbors' handoff claims
    let ids = storage.segment_ids();
    let mid = ids[ids.len() / 2];
    let swallowed = {
        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        fact_serve::verify_segment(probe.as_mut(), mid)
            .expect("io")
            .expect("intact before removal")
            .entries
    };
    assert!(storage.remove_segment(mid));
    let storage = storage.restart();
    let service = start_service(&storage);
    let rec3 = service.audit_recovery().expect("sink configured").clone();
    assert_eq!(rec3.missing_segments, 1, "{rec3:?}");
    assert_eq!(
        rec3.lost, swallowed,
        "loss must equal the destroyed segment's entries: {rec3:?}"
    );
    let report3 = service.shutdown();
    assert_eq!(report3.lost_on_recovery, swallowed);

    let summary = format!(
        "\nE15c: killed mid-roll at segment {} → recovered with 0 lost \
         (fallback replayed {} segments); destroying segment {} surfaced \
         exactly {} lost entries in the service report — no silent loss\n",
        segments_after_kill, rec.replayed_segments, mid, swallowed
    );
    print!("{summary}");
    out.push_str(&summary);
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let mut out = String::new();
    out.push_str("E15: segmented audit rotation — O(segment) restart, standalone segments\n\n");

    let (sizes, deep, requests): (&[u64], u64, u64) = if smoke {
        (&[150, 1_500], 1_500, 60)
    } else {
        (&[500, 1_000, 2_500, 5_000], 5_000, 200)
    };

    scaling_phase(&mut out, sizes);
    println!();
    out.push('\n');
    standalone_phase(&mut out, deep);
    boundary_phase(&mut out, requests);

    if smoke {
        println!("\nE15 smoke passed: rotation and recovery contracts hold");
    } else {
        kit::write_results("e15", &out);
    }
}
