//! E20 — background audit-segment archiving: hot-path cost and crash
//! safety (EXPERIMENTS.md, E20).
//!
//! Two questions, one harness:
//!
//! 1. **Does the archiver stay off the writer hot path?** Runs the same
//!    paced flagged-event workload through an `AuditSink` twice — archiver
//!    off vs. on — over a timing-instrumented `FileStorage` that stamps
//!    every append+fsync batch. The log rotates 10×+ in both modes so the
//!    archiver has a steady diet of sealed segments to verify, compress,
//!    and delete *while* the writer flushes. Hard-asserts the writer's
//!    batch p99 stays within 5% of the archiver-off baseline (plus a small
//!    absolute floor that absorbs single-core scheduler quantization when
//!    the baseline fsync is tens of microseconds), that every archive
//!    container decodes back byte-identically (sha256-checked), and that
//!    the compacted store still verifies as one continuous chain.
//! 2. **Does a SIGKILL mid-archive lose or double-count anything?** Spawns
//!    a real `fact-shardd` with `--archive-retain`/`--archive-tick-ms`
//!    over a tiny segment cap, drives disparate lending load so flagged
//!    decisions rotate the log while the archiver compacts it, SIGKILLs
//!    the worker, and inspects the store offline: recovery reports zero
//!    provably-lost entries and zero missing segments, every segment is
//!    present as the original xor a verified archive, and after a respawn
//!    + graceful drain the whole history still verifies from genesis.
//!
//! `--smoke` runs reduced sizes of both phases (the CI gate).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::header;
use bench::kit::{self, ScratchDir, Shardd};
use fact_serve::audit_sink::{parse_log, recover};
use fact_serve::{
    decode_archive, read_segment_or_archive, verify_all_segments, ArchiveConfig, AuditEvent,
    AuditSink, AuditSinkConfig, AuditStorage, FileStorage,
};
use fact_transparency::{verify_chain_from, ChainHead};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_FEATURES: usize = 4;
const WORKER_SHARDS: usize = 2;

/// Absolute slack (µs) added to the 5% bound. On a single-core runner over
/// tmpfs the baseline batch fsync is tens of microseconds, so one scheduler
/// quantum of wakeup jitter would dwarf a pure percentage bound; on any
/// real disk the 5% term dominates and this floor is noise.
const P99_SLACK_US: f64 = 50.0;

// ---------------------------------------------------------------------------
// Phase A: writer hot-path p99, archiver off vs. on
// ---------------------------------------------------------------------------

/// `FileStorage` wrapper that times each append+fsync pair — the writer's
/// per-batch hot path. The archiver runs on its own handle
/// ([`AuditStorage::archive_handle`] delegates to the inner store), so its
/// I/O is never stamped: only writer-side latency lands in `samples`.
struct TimingStorage {
    inner: FileStorage,
    pending: Option<Instant>,
    samples: Arc<Mutex<Vec<u64>>>,
}

impl AuditStorage for TimingStorage {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_segments()
    }
    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        self.inner.read_segment(segment)
    }
    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        self.inner.open_segment(segment)
    }
    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        self.pending = Some(Instant::now());
        self.inner.append_log(buf)
    }
    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        self.inner.truncate_segment(segment, len)
    }
    fn sync_log(&mut self) -> io::Result<()> {
        self.inner.sync_log()?;
        if let Some(t0) = self.pending.take() {
            self.samples
                .lock()
                .unwrap()
                .push(t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }
    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_head()
    }
    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_head(buf)
    }
    fn list_archives(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_archives()
    }
    fn read_archive(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        self.inner.read_archive(segment)
    }
    fn write_archive(&mut self, segment: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_archive(segment, buf)
    }
    fn remove_segment_file(&mut self, segment: u64) -> io::Result<()> {
        self.inner.remove_segment_file(segment)
    }
    fn read_manifest(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_manifest()
    }
    fn write_manifest(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_manifest(buf)
    }
    fn archive_handle(&self) -> Option<Box<dyn AuditStorage>> {
        self.inner.archive_handle()
    }
}

struct Trial {
    p99_us: f64,
    mean_us: f64,
    batches: usize,
    rolls: u64,
    archived: u64,
    ratio: f64,
}

/// Phase A runs on tmpfs when the host has one. The gate is about the
/// *design* — the archiver owns a second storage handle and never takes
/// the writer's locks — so the measured interference should be scheduler
/// and lock time, not two fsync streams queueing in one ext4 journal.
/// This harness forces a rotation every ~8 KiB to compact a 10×-rotated
/// log within seconds, inflating the archiver's fsync duty cycle ~1000×
/// over the 64 MiB default; on a journaled disk that artifact measures
/// the device, not the hot path. Phase B keeps real durable storage.
fn phase_a_root() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// One paced run: `events` flagged records through a rotating sink, with or
/// without the background archiver, over a fresh tempdir. Returns writer
/// batch-latency stats and verifies the store end-to-end afterwards.
fn run_trial(events: u64, seg_bytes: u64, archive_on: bool, tag: &str) -> Trial {
    let dir = ScratchDir::under(&phase_a_root(), &format!("e20-{tag}"));
    let path = dir.join("audit.jsonl");

    let samples = Arc::new(Mutex::new(Vec::new()));
    let storage = TimingStorage {
        inner: FileStorage::open(&path).expect("open file storage"),
        pending: None,
        samples: Arc::clone(&samples),
    };
    let config = AuditSinkConfig {
        path: path.clone(),
        batch_max: 16,
        flush_interval: Duration::from_millis(1),
        max_segment_bytes: seg_bytes,
        archive: archive_on.then(|| ArchiveConfig {
            retain_segments: 1,
            tick: Duration::from_millis(10),
            ..ArchiveConfig::default()
        }),
        ..AuditSinkConfig::default()
    };
    let sink = AuditSink::open_with_storage(&config, Box::new(storage)).expect("open sink");

    // Paced producer: ~20k events/s, so the archiver has idle slack to run
    // in — sustained load, not a closed-loop stampede that would starve a
    // single-core runner of the CPU the background thread needs.
    let handle = sink.handle();
    for k in 0..events {
        handle.record(AuditEvent::Flagged {
            shard: (k % WORKER_SHARDS as u64) as usize,
            route_key: k,
            probability: 0.25 + (k % 50) as f64 / 100.0,
            favorable: k % 3 == 0,
            group_b: k % 10 < 3,
        });
        if k % 20 == 19 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(handle);
    let report = sink.finish();
    assert_eq!(report.dropped, 0, "healthy sink must not shed events");
    assert_eq!(report.io_errors, 0, "tempdir storage must not error");
    assert!(
        report.rolls >= 10,
        "the log must rotate 10x+ to exercise archiving: {} rolls",
        report.rolls
    );

    // Post-run: the store — live, compacted, or mixed — must still verify
    // as one continuous chain, and every archive must decode back to the
    // exact original bytes (the container's sha256 is checked on decode).
    let mut check = FileStorage::open(&path).expect("reopen");
    let audit = verify_all_segments(&mut check as &mut dyn AuditStorage).expect("verify");
    assert!(audit.continuous, "chain must stay continuous: {audit:?}");
    let archives = check.list_archives().expect("list archives");
    for &id in &archives {
        let container = check.read_archive(id).expect("read archive");
        let (seg, bytes) = decode_archive(&container)
            .unwrap_or_else(|e| panic!("archive {id} failed byte-identical decode: {e}"));
        assert_eq!(seg, id);
        assert!(!bytes.is_empty());
    }
    if archive_on {
        assert!(
            report.archive.segments_archived >= 1,
            "archiver must make progress under load: {:?}",
            report.archive
        );
        assert_eq!(report.archive.verify_failures, 0);
        assert!(
            report.archive.bytes_after < report.archive.bytes_before,
            "JSONL must compress: {:?}",
            report.archive
        );
    } else {
        assert!(archives.is_empty(), "archiver-off run must not compact");
    }

    let mut lat = samples.lock().unwrap().clone();
    let n = lat.len();
    assert!(n >= 100, "need enough batches for a stable p99: {n}");
    Trial {
        p99_us: kit::percentile(&mut lat, 99) as f64,
        mean_us: lat.iter().sum::<u64>() as f64 / n as f64,
        batches: n,
        rolls: report.rolls,
        archived: report.archive.segments_archived,
        ratio: report.archive.ratio(),
    }
}

fn hot_path_phase(events: u64, seg_bytes: u64, trials: usize) {
    println!("## E20a: writer batch p99, archiver off vs. on ({events} events/trial)\n");
    header(
        &[
            "trial", "mode", "batches", "mean_us", "p99_us", "archived", "ratio",
        ],
        &[6, 6, 8, 9, 9, 9, 7],
    );

    // Interleave off/on trials and take the min-of-trials p99 per mode:
    // min is the right estimator for "what does the hot path cost when the
    // machine is not doing something else", which is the quantity the 5%
    // bound is about.
    let (mut best_off, mut best_on) = (f64::MAX, f64::MAX);
    for t in 0..trials {
        for (mode, on) in [("off", false), ("on", true)] {
            let r = run_trial(events, seg_bytes, on, &format!("{mode}{t}"));
            println!(
                "{t:>6} {mode:>6} {:>8} {:>9.1} {:>9.1} {:>9} {:>7.3}",
                r.batches, r.mean_us, r.p99_us, r.archived, r.ratio
            );
            if on {
                best_on = best_on.min(r.p99_us);
                assert!(r.rolls >= 10 && r.archived >= 1);
            } else {
                best_off = best_off.min(r.p99_us);
            }
        }
    }

    let bound = best_off * 1.05 + P99_SLACK_US;
    println!(
        "\nwriter batch p99: off {best_off:.1} µs, on {best_on:.1} µs \
         (bound {bound:.1} µs = 1.05x + {P99_SLACK_US:.0} µs floor)"
    );
    assert!(
        best_on <= bound,
        "archiver leaked onto the writer hot path: p99 on {best_on:.1} µs \
         vs off {best_off:.1} µs (bound {bound:.1} µs)"
    );
    println!("\nPASS: background compaction leaves the writer hot-path p99 within bounds\n");
}

// ---------------------------------------------------------------------------
// Phase B: SIGKILL a compacting fact-shardd, recover offline, resume
// ---------------------------------------------------------------------------

/// Spawn a worker that rotates its audit log every 4 KiB and compacts all
/// but the newest sealed segment on a 25 ms tick — aggressive enough that
/// a SIGKILL lands while segments are mid-flight through the archiver.
fn spawn_worker(dir: &ScratchDir) -> Shardd {
    Shardd::unix(&kit::shardd_path(), &dir.join("shardd.sock"), |cmd| {
        cmd.arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .args(["--shards", &WORKER_SHARDS.to_string()])
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--checkpoint-every", "200"])
            .args(["--dp-interval", "100"])
            .args(["--fairness-window", "800"])
            .arg("--audit")
            .arg(dir.join("audit.jsonl"))
            .args(["--audit-segment-bytes", "4096"])
            .args(["--archive-retain", "1"])
            .args(["--archive-tick-ms", "25"]);
    })
}

struct StoreState {
    live: Vec<u64>,
    archived: Vec<u64>,
    entries: u64,
    lost: u64,
}

/// Offline inspection of the audit store: recover first (cut the torn tail
/// a SIGKILL leaves, quantify any provable loss), then demand the mixed
/// live/archived history verifies from genesis with every segment present
/// as the original xor a decodable archive — never neither, never a torn
/// hybrid.
fn inspect_store(audit: &Path, label: &str) -> StoreState {
    let mut storage = FileStorage::open(audit).expect("open audit store");
    let rec = recover(&mut storage as &mut dyn AuditStorage).expect("offline recovery");
    assert_eq!(
        rec.missing_segments, 0,
        "{label}: no segment may vanish mid-archive: {rec:?}"
    );
    assert_eq!(
        rec.lost, 0,
        "{label}: nothing the chain head promised may be missing: {rec:?}"
    );

    let audit_report = verify_all_segments(&mut storage as &mut dyn AuditStorage).expect("verify");
    assert!(
        audit_report.continuous,
        "{label}: chain must be continuous: {audit_report:?}"
    );
    let live = storage.list_segments().expect("list segments");
    let archived = storage.list_archives().expect("list archives");
    for &id in &archived {
        let container = storage.read_archive(id).expect("read archive");
        let (seg, bytes) = decode_archive(&container)
            .unwrap_or_else(|e| panic!("{label}: archive {id} failed verified decode: {e}"));
        assert_eq!(seg, id);
        assert!(!bytes.is_empty());
        assert!(
            !live.contains(&id),
            "{label}: segment {id} double-present as original and archive \
             past the commit point is fine, but only pre-delete — recovery \
             must still read it exactly once"
        );
    }

    // Replay the whole history — archived or live — and verify the chain
    // from genesis, counting entries exactly once.
    let mut ids: Vec<u64> = live.iter().chain(archived.iter()).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut all = Vec::new();
    for &id in &ids {
        all.extend(
            read_segment_or_archive(&mut storage as &mut dyn AuditStorage, id).expect("read"),
        );
    }
    let entries = parse_log(&all);
    assert_eq!(
        verify_chain_from(ChainHead::genesis(), &entries),
        None,
        "{label}: full replay must verify from genesis"
    );
    StoreState {
        live,
        archived,
        entries: entries.len() as u64,
        lost: rec.lost,
    }
}

fn crash_phase(n_load: u64, n_resume: u64) {
    println!("## E20b: SIGKILL a fact-shardd mid-compaction, recover, resume\n");
    let dir = ScratchDir::new("e20-crash");
    let audit = dir.join("audit.jsonl");
    let mut rng = StdRng::seed_from_u64(20);

    // --- run 1: rotate + compact under load, then SIGKILL ---------------
    let mut worker = spawn_worker(&dir);
    let client = kit::remote_client(worker.slot(), N_FEATURES);
    let served1 = kit::drive(&client, &mut rng, n_load, 0, N_FEATURES);
    assert_eq!(served1, n_load, "healthy worker must serve everything");
    // let the 25 ms archiver bite into the rotated backlog before the kill
    std::thread::sleep(Duration::from_millis(300));
    worker.kill();

    let after_kill = inspect_store(&audit, "after SIGKILL");
    println!("served before kill      : {served1}");
    println!("live segments           : {}", after_kill.live.len());
    println!("archived segments       : {}", after_kill.archived.len());
    println!("chained entries intact  : {}", after_kill.entries);
    println!("provably lost entries   : {}", after_kill.lost);
    assert!(
        !after_kill.archived.is_empty(),
        "the archiver must have compacted sealed segments before the kill"
    );
    assert!(after_kill.entries > 0, "flagged traffic must be on disk");

    // --- run 2: respawn over the compacted store, drain gracefully ------
    let mut worker = spawn_worker(&dir);
    let served2 = kit::drive(&client, &mut rng, n_resume, n_load, N_FEATURES);
    assert_eq!(served2, n_resume, "respawned worker must serve everything");
    worker.shutdown();

    let final_state = inspect_store(&audit, "after resume");
    println!("served after respawn    : {served2}");
    println!("final live segments     : {}", final_state.live.len());
    println!("final archived segments : {}", final_state.archived.len());
    println!("final chained entries   : {}", final_state.entries);
    assert!(
        final_state.entries > after_kill.entries,
        "the respawned worker must extend the same chain, not restart it"
    );
    assert!(!final_state.archived.is_empty());
    println!("\nPASS: SIGKILL mid-archive loses nothing and double-counts nothing\n");
    let _ = client.shutdown();
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    println!("# E20 — background audit archiving: hot-path cost and crash safety\n");
    if smoke {
        hot_path_phase(3_000, 8 * 1024, 2);
        crash_phase(1_200, 600);
        println!("E20 smoke: OK");
    } else {
        hot_path_phase(20_000, 32 * 1024, 5);
        crash_phase(4_000, 2_000);
    }
}
