//! Crash/fault-injection suite for the durable audit sink.
//!
//! Every test drives the sink, the archiver or a whole audited
//! `DecisionService` against a fault injected into [`MemStorage`] — one
//! rule that may fail, tear, kill or lie about any mutating storage call:
//! an append failure, a short write, a kill mid-batch or mid-roll, a
//! reverted head rename, a crash at any archiver step — then restarts
//! over whatever the fault left behind and asserts the recovery contract:
//!
//! * the persisted prefix always verifies as one hash chain from genesis;
//! * a torn tail is truncated at the exact cut point, costing at most one
//!   batch;
//! * the restarted sink resumes appending with `prev_hash` continuity, so
//!   the log spanning the crash still verifies end to end;
//! * provable loss (persisted chain head ahead of the recovered log) is
//!   detected and reported, never papered over.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::kit::{flagged, run_disparity, sink_config, PassThrough};
use fact_serve::audit_sink::{parse_log, recover, AuditStorage};
use fact_serve::testing::{kill_at_byte, Fault, MemStorage, Op};
use fact_serve::{
    archive_run_once, encode_archive, read_segment_or_archive, verify_all_segments, ArchiveConfig,
    ArchiveManifest, ArchiveStats, AuditSink, AuditSinkConfig, AuditSinkHandle, DecisionService,
    DegradePolicy, GuardConfig, InlineFeatures, ServeConfig,
};
use fact_transparency::{verify_chain_from, AuditEntry, ChainHead};

fn open(storage: &MemStorage, batch_max: usize) -> AuditSink {
    AuditSink::open_with_storage(&sink_config(batch_max), Box::new(storage.clone())).unwrap()
}

/// Send `events` and wait until the sink has durably audited (or given up
/// on) everything outstanding — makes batch boundaries deterministic.
fn feed_and_settle(sink: &AuditSink, handle: &AuditSinkHandle, keys: std::ops::Range<u64>) {
    let n = keys.end - keys.start;
    let target = sink.audited() + n;
    for k in keys {
        handle.record(flagged(k));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while sink.audited() < target {
        if Instant::now() > deadline {
            // a poisoned sink will never reach the target; the caller's
            // assertions decide whether that is the expected outcome
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn verified_entries(storage: &MemStorage) -> Vec<AuditEntry> {
    let entries = parse_log(&storage.log_bytes());
    assert_eq!(
        verify_chain_from(ChainHead::genesis(), &entries),
        None,
        "persisted chain must verify from genesis"
    );
    entries
}

/// The CI smoke: kill the writer mid-batch, restart, assert the chain
/// verifies, the torn tail is truncated, loss is bounded by one batch, and
/// appending resumes with `prev_hash` continuity across the restart.
#[test]
fn kill_mid_batch_recovery_is_deterministic() {
    const BATCH: usize = 4;
    let storage = MemStorage::new();

    // run 1: land two clean batches, then die partway into the third line
    // of the next batch's single append
    let sink = open(&storage, BATCH);
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 0..8);
    let synced_len = storage.log_bytes().len();
    let synced_entries = parse_log(&storage.log_bytes()).len();
    storage.inject(kill_at_byte(synced_len as u64 + 300));
    for k in 8..12 {
        handle.record(flagged(k));
    }
    drop(handle);
    let report = sink.finish();
    assert!(
        report.io_errors >= 1,
        "the kill must surface as an io error"
    );
    assert!(report.dropped >= 1, "the killed batch is accounted dropped");

    // what the "disk" holds: the synced prefix plus a torn fragment
    let storage = storage.restart();
    let on_disk = storage.log_bytes();
    assert!(
        on_disk.len() > synced_len,
        "the kill persisted a partial batch"
    );

    // run 2: recovery must truncate the tear and resume the same chain
    let sink = open(&storage, BATCH);
    let rec = sink.recovery().clone();
    assert!(
        rec.truncated_bytes > 0,
        "the torn tail must be cut: {rec:?}"
    );
    assert_eq!(
        rec.cut_seq, None,
        "a kill tears bytes, it does not break the chain: {rec:?}"
    );
    assert!(
        rec.recovered as usize >= synced_entries,
        "everything synced before the kill survives: {rec:?}"
    );
    assert_eq!(
        rec.lost, 0,
        "the killed batch was never head-committed, so nothing *promised* is missing: {rec:?}"
    );
    // loss is bounded by the one killed batch
    let written_total = synced_entries + 1; // + this run's sink_start not yet counted
    let _ = written_total;
    assert!(
        (rec.cut_lines as usize) < BATCH,
        "at most one torn batch: {rec:?}"
    );

    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 100..104);
    drop(handle);
    sink.finish();

    // the log spanning the crash verifies as ONE chain, and the entries
    // appended after restart sit directly on the recovered head
    let entries = verified_entries(&storage);
    assert!(entries.iter().any(|e| e.details.contains("key=100")));
    let resumed_at = entries
        .iter()
        .position(|e| e.action == "sink_start" && e.seq == rec.resumed.next_seq)
        .expect("restart marker chained at the recovered head");
    assert_eq!(entries[resumed_at].seq, rec.resumed.next_seq);
    assert_eq!(entries[resumed_at].prev_hash, rec.resumed.hash);

    // determinism: recovering the same bytes again reports the same thing
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.restart());
    let again = recover(probe.as_mut()).unwrap();
    assert_eq!(again.truncated_bytes, 0, "recovery already cleaned the log");
    assert_eq!(again.recovered, entries.len() as u64);
}

#[test]
fn append_failure_preserves_the_synced_prefix() {
    let storage = MemStorage::new();
    let sink = open(&storage, 4);
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 0..4);
    let good = parse_log(&storage.log_bytes()).len();
    // every append from here on fails, persisting nothing; don't wait for
    // a settle that can never come — finish() flushes and surfaces it
    storage.inject(|op| matches!(op, Op::Append { .. }).then_some(Fault::Fail(0)));
    for k in 4..12 {
        handle.record(flagged(k));
    }
    drop(handle);
    let report = sink.finish();
    assert!(report.io_errors >= 1);
    assert!(report.dropped >= 8);
    // nothing after the failure leaked into the log, and the prefix is intact
    let entries = verified_entries(&storage);
    assert_eq!(entries.len(), good);
    assert_eq!(report.audited, good as u64);
}

#[test]
fn short_write_tears_one_line_and_recovery_cuts_it() {
    let storage = MemStorage::new();
    let sink = open(&storage, 4);
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 0..4);
    let good_len = storage.log_bytes().len();
    let good = parse_log(&storage.log_bytes()).len();
    // next batch persists 20 bytes of its first line, then errors
    let mut short = Some(Fault::Fail(20));
    storage.inject(move |op| match op {
        Op::Append { .. } => short.take(),
        _ => None,
    });
    for k in 4..8 {
        handle.record(flagged(k));
    }
    drop(handle);
    sink.finish();
    assert_eq!(storage.log_bytes().len(), good_len + 20);

    let storage = storage.restart();
    let sink = open(&storage, 4);
    let rec = sink.recovery().clone();
    assert_eq!(rec.truncated_bytes, 20);
    assert_eq!(rec.recovered as usize, good);
    assert_eq!(rec.lost, 0);
    sink.finish();
    verified_entries(&storage);
}

#[test]
fn destroyed_synced_tail_is_reported_as_loss() {
    let storage = MemStorage::new();
    let sink = open(&storage, 2);
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 0..6);
    drop(handle);
    let report = sink.finish();

    // simulate the disk losing the last two synced entries: cut the log at
    // an exact line boundary while the head file still promises them
    let bytes = storage.log_bytes();
    let keep = {
        let mut line_starts: Vec<usize> = vec![0];
        line_starts.extend(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        line_starts[line_starts.len() - 3]
    };
    {
        let mut s: Box<dyn AuditStorage> = Box::new(storage.clone());
        s.truncate_segment(0, keep as u64).unwrap();
    }

    let sink = open(&storage, 2);
    let rec = sink.recovery().clone();
    assert_eq!(
        rec.lost, 2,
        "the head promised {} entries; the log lost two: {rec:?}",
        report.audited
    );
    assert_eq!(rec.recovered, report.audited - 2);
    assert_eq!(rec.truncated_bytes, 0, "a clean cut needs no truncation");
    let report2 = sink.finish();
    assert_eq!(report2.recovery.lost, 2);
    verified_entries(&storage);
}

#[test]
fn tampered_middle_entry_cuts_the_chain_at_the_tamper_point() {
    let storage = MemStorage::new();
    let sink = open(&storage, 4);
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 0..8);
    drop(handle);
    sink.finish();

    // flip a digit inside an entry's details, deep in the middle
    let mut bytes = storage.log_bytes();
    let at = bytes
        .windows(6)
        .position(|w| w == b"key=3 ".as_slice())
        .expect("key=3 entry present");
    bytes[at + 4] = b'7';
    {
        let mut s: Box<dyn AuditStorage> = Box::new(storage.clone());
        s.open_segment(0).unwrap();
        s.truncate_segment(0, 0).unwrap();
        s.append_log(&bytes).unwrap();
    }

    let sink = open(&storage, 4);
    let rec = sink.recovery().clone();
    assert!(rec.cut_seq.is_some(), "tampering is a chain break: {rec:?}");
    assert!(
        rec.lost > 0,
        "entries beyond the tamper point are reported lost: {rec:?}"
    );
    sink.finish();
    verified_entries(&storage);
}

// ---------------------------------------------------------------------------
// segment-rotation fault matrix
// ---------------------------------------------------------------------------

/// `max_segment_bytes: 1` forces a roll on every flush after the first, so
/// a handful of batches deterministically produce a multi-segment log.
fn rotating_config(batch_max: usize) -> AuditSinkConfig {
    AuditSinkConfig {
        max_segment_bytes: 1,
        ..sink_config(batch_max)
    }
}

fn open_rotating(storage: &MemStorage, batch_max: usize) -> AuditSink {
    AuditSink::open_with_storage(&rotating_config(batch_max), Box::new(storage.clone())).unwrap()
}

/// Build a clean multi-segment log: every flush after the first rolls, so
/// `batches` batches leave at least that many segments, each standalone-
/// verifiable. Returns the finished report.
fn build_segmented_log(storage: &MemStorage, batches: u64) -> fact_serve::SinkReport {
    let sink = open_rotating(storage, 2);
    let handle = sink.handle();
    for b in 0..batches {
        feed_and_settle(&sink, &handle, b * 2..b * 2 + 2);
    }
    drop(handle);
    sink.finish()
}

#[test]
fn kill_mid_handoff_record_falls_back_one_segment_without_silent_loss() {
    let storage = MemStorage::new();
    let report = build_segmented_log(&storage, 3);
    assert!(report.rolls >= 2, "rotation must have happened: {report:?}");

    // run 2: die 10 bytes into the next flush. The active segment is over
    // the 1-byte cap, so that flush rolls first — the 10 bytes are the
    // torn opening *handoff record* of the freshly created segment.
    let sink = open_rotating(&storage, 2);
    let handle = sink.handle();
    let segments_before = storage.segment_ids().len();
    storage.inject(kill_at_byte(storage.log_bytes().len() as u64 + 10));
    for k in 100..102 {
        handle.record(flagged(k));
    }
    drop(handle);
    let killed = sink.finish();
    assert!(killed.io_errors >= 1, "the kill must surface: {killed:?}");

    // run 3: the newest segment holds only a torn handoff → recovery wipes
    // it and falls back exactly one segment; nothing promised is missing.
    let storage = storage.restart();
    let sink = open_rotating(&storage, 2);
    let rec = sink.recovery().clone();
    assert!(
        rec.needs_handoff,
        "a wiped roll must be re-opened with a fresh handoff: {rec:?}"
    );
    assert_eq!(
        rec.replayed_segments, 2,
        "fallback reads the wiped segment plus one: {rec:?}"
    );
    assert_eq!(rec.lost, 0, "the torn handoff was never promised: {rec:?}");
    assert_eq!(rec.missing_segments, 0, "{rec:?}");

    // resume: the first flush re-emits the handoff and the whole history
    // still verifies segment by segment AND as one continuous chain
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 200..204);
    drop(handle);
    let final_report = sink.finish();
    assert!(final_report.segments as usize >= segments_before);
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let audit = fact_serve::verify_all_segments(probe.as_mut()).unwrap();
    assert!(audit.continuous, "{audit:?}");
    for (id, verdict) in &audit.segments {
        assert!(verdict.is_ok(), "segment {id} must verify: {verdict:?}");
    }
    verified_entries(&storage);
}

#[test]
fn kill_after_roll_creates_the_segment_falls_back_over_the_empty_segment() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 3);
    let newest = *storage.segment_ids().last().unwrap();

    // run 2: the first flush rolls (the active segment is over the 1-byte
    // cap). The storage dies right after the roll creates the new
    // segment's directory entry, before its handoff record is written.
    storage.inject(move |op| matches!(op, Op::Open(id) if id > newest).then_some(Fault::Kill(1)));
    let sink = open_rotating(&storage, 2);
    let handle = sink.handle();
    for k in 100..102 {
        handle.record(flagged(k));
    }
    drop(handle);
    let killed = sink.finish();
    assert!(killed.io_errors >= 1, "the kill must surface: {killed:?}");
    assert_eq!(
        storage.segment_bytes(newest + 1),
        Some(Vec::new()),
        "the roll left an empty newest segment"
    );

    // run 3: recovery falls back over the empty segment to the one before
    // it; nothing promised is missing and nothing needs cutting
    let storage = storage.restart();
    let sink = open_rotating(&storage, 2);
    let rec = sink.recovery().clone();
    assert!(rec.needs_handoff, "{rec:?}");
    assert_eq!(rec.replayed_segments, 2, "{rec:?}");
    assert_eq!(rec.lost, 0, "{rec:?}");
    assert_eq!(rec.truncated_bytes, 0, "{rec:?}");

    // resume: the re-opened segment gets its handoff and the history
    // stays one continuous chain
    let handle = sink.handle();
    feed_and_settle(&sink, &handle, 200..204);
    drop(handle);
    sink.finish();
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let audit = verify_all_segments(probe.as_mut()).unwrap();
    assert!(audit.continuous, "{audit:?}");
    verified_entries(&storage);
}

#[test]
fn torn_tail_in_a_non_final_segment_is_caught_lazily_not_on_restart() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let ids = storage.segment_ids();
    assert!(ids.len() >= 3, "need a middle segment: {ids:?}");
    let mid = ids[ids.len() / 2];

    // tear the middle segment's tail (lose its trailing newline + bytes)
    let mid_len = storage.segment_bytes(mid).unwrap().len() as u64;
    {
        let mut s: Box<dyn AuditStorage> = Box::new(storage.clone());
        s.truncate_segment(mid, mid_len - 5).unwrap();
    }

    // restart: recovery replays ONLY the newest segment, so the damage is
    // invisible to the O(segment) startup path — by design
    let storage = storage.restart();
    let sink = open_rotating(&storage, 2);
    let rec = sink.recovery().clone();
    assert_eq!(rec.replayed_segments, 1, "{rec:?}");
    assert_eq!(rec.lost, 0, "the newest segment is intact: {rec:?}");
    sink.finish();

    // …and the lazy full audit is what flags it
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let verdict = fact_serve::verify_segment(probe.as_mut(), mid).unwrap();
    assert!(
        matches!(verdict, Err(fact_transparency::SegmentError::TornTail(_))),
        "torn middle segment must be flagged: {verdict:?}"
    );
    let audit = fact_serve::verify_all_segments(probe.as_mut()).unwrap();
    assert!(!audit.continuous, "{audit:?}");
}

#[test]
fn missing_middle_segment_is_provable_loss_not_a_panic() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let ids = storage.segment_ids();
    assert!(ids.len() >= 3, "need a middle segment: {ids:?}");
    let mid = ids[ids.len() / 2];
    let swallowed = {
        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        fact_serve::verify_segment(probe.as_mut(), mid)
            .unwrap()
            .expect("intact before removal")
            .entries
    };
    assert!(storage.remove_segment(mid));

    let storage = storage.restart();
    let sink = open_rotating(&storage, 2);
    let rec = sink.recovery().clone();
    assert_eq!(rec.missing_segments, 1, "{rec:?}");
    assert_eq!(
        rec.missing_entries, swallowed,
        "the neighbors' handoff claims quantify the hole exactly: {rec:?}"
    );
    assert_eq!(rec.lost, swallowed, "{rec:?}");
    sink.finish();

    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let audit = fact_serve::verify_all_segments(probe.as_mut()).unwrap();
    assert!(!audit.continuous, "a hole can never audit continuous");
}

#[test]
fn head_sidecar_stale_by_a_segment_is_lag_not_loss() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 2);
    let head_then = storage.head_bytes().expect("head persisted");

    // from here every head rename silently reverts (the failure mode the
    // missing parent-dir fsync allowed): more segments land, but the
    // sidecar stays a full segment behind
    storage.inject(|op| (op == Op::WriteHead).then_some(Fault::Lie(0)));
    {
        let sink = open_rotating(&storage, 2);
        let handle = sink.handle();
        feed_and_settle(&sink, &handle, 50..54);
        drop(handle);
        sink.finish();
    }
    assert_eq!(
        storage.head_bytes().expect("head still present"),
        head_then,
        "reverted renames must leave the old head"
    );

    // a lagging head is advisory lag, never counted as loss
    let storage = storage.restart();
    let sink = open_rotating(&storage, 2);
    let rec = sink.recovery().clone();
    assert_eq!(rec.lost, 0, "head lag is not loss: {rec:?}");
    assert!(rec.recovered > 0);
    sink.finish();
    verified_entries(&storage);
}

// ---------------------------------------------------------------------------
// whole-service crash cycle
// ---------------------------------------------------------------------------

fn audited_disparity_config() -> ServeConfig {
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
        audit: Some(sink_config(8)),
        ..ServeConfig::default()
    }
}

#[test]
fn audited_service_survives_a_storage_kill_and_restart_verifies() {
    let storage = MemStorage::new();

    // run 1: the storage dies partway through; serving must be unaffected
    let service = DecisionService::start_with_audit_storage(
        Arc::new(PassThrough),
        audited_disparity_config(),
        Arc::new(InlineFeatures),
        Box::new(storage.clone()),
    )
    .unwrap();
    // let some audit batches land, then schedule the kill
    let served_warmup = run_disparity(&service, 200);
    assert_eq!(served_warmup, 200);
    storage.inject(kill_at_byte(storage.log_bytes().len() as u64 + 120));
    let served_after = run_disparity(&service, 200);
    assert_eq!(served_after, 200, "a dead audit disk must not stop serving");
    let report = service.shutdown();
    assert!(report.flagged > 0);

    // run 2 over the same (revived) bytes: recovery truncates at most the
    // one torn batch and the combined log verifies as a single chain
    let storage = storage.restart();
    let service = DecisionService::start_with_audit_storage(
        Arc::new(PassThrough),
        audited_disparity_config(),
        Arc::new(InlineFeatures),
        Box::new(storage.clone()),
    )
    .unwrap();
    let rec = service.audit_recovery().unwrap().clone();
    assert!(rec.recovered > 0);
    assert!(
        (rec.cut_lines as usize) < 8,
        "at most one torn batch (batch_max=8): {rec:?}"
    );
    assert_eq!(rec.lost, 0, "only the unsynced tail was torn: {rec:?}");
    run_disparity(&service, 200);
    let report2 = service.shutdown();
    assert!(report2.flagged > 0);
    assert!(report2.audited > 0);
    assert_eq!(report2.lost_on_recovery, 0);

    let entries = verified_entries(&storage);
    // both runs' lifecycle markers are present in one verified chain
    let starts = entries.iter().filter(|e| e.action == "sink_start").count();
    assert_eq!(starts, 2, "one start marker per run");
}

// ---------------------------------------------------------------------------
// archive fault matrix
// ---------------------------------------------------------------------------
//
// A crash at every step of the archiver's verify → compress → write →
// re-verify → commit → delete protocol must leave each segment as the
// original xor a verified archive — never neither — and a restarted
// archiver must converge without losing or double-counting an entry.
// Each crash is one injected rule keyed on the archiver's storage call:
// `Kill(0)` at `WriteArchive` is a crash before the atomic rename lands
// the container, at `WriteManifest` a crash after it landed but before
// the commit, at `Remove` a crash after the commit with the source
// retained; `Lie` at `WriteArchive` is a disk that reports a torn
// container as written. The storage shares one Arc with the writer — one
// kill takes both down, like a dead process.

fn retain_none() -> ArchiveConfig {
    ArchiveConfig {
        retain_segments: 0,
        ..ArchiveConfig::default()
    }
}

/// Every present segment (live or archived) decoded and concatenated must
/// still be one unbroken chain from genesis with `total` entries.
fn assert_whole_chain(storage: &MemStorage, total: usize) {
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let audit = verify_all_segments(probe.as_mut()).unwrap();
    assert!(audit.continuous, "{audit:?}");
    let mut ids = storage.segment_ids();
    ids.extend(storage.archive_ids());
    ids.sort_unstable();
    ids.dedup();
    let mut all = Vec::new();
    for id in ids {
        all.extend(read_segment_or_archive(probe.as_mut(), id).unwrap());
    }
    let entries = parse_log(&all);
    assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    assert_eq!(entries.len(), total, "no entry lost, none double-counted");
}

#[test]
fn crash_before_archive_rename_leaves_the_original_intact() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let live = storage.segment_ids();
    let newest = *live.last().unwrap();
    let victim = live[1];
    let original = storage.segment_bytes(victim).unwrap();
    let total = parse_log(&storage.log_bytes()).len();

    // the kill fires inside write_archive for `victim`: the container
    // never lands (crash before the atomic rename), storage dies
    storage.inject(move |op| (op == Op::WriteArchive(victim)).then_some(Fault::Kill(0)));
    let stats = ArchiveStats::default();
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    archive_run_once(probe.as_mut(), &retain_none(), newest, &stats)
        .expect_err("the kill must surface as an error");

    // segments before the victim archived; the victim kept its original
    // and has no archive — original xor archive, never neither
    assert!(storage.segment_ids().contains(&victim));
    assert!(!storage.archive_ids().contains(&victim));
    assert_eq!(storage.segment_bytes(victim).unwrap(), original);

    // restart: the next pass picks up exactly where the crash left off
    let revived = storage.restart();
    let mut probe2: Box<dyn AuditStorage> = Box::new(revived.clone());
    let pass = archive_run_once(probe2.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.archived.contains(&victim), "{pass:?}");
    assert!(pass.skipped.is_empty(), "{pass:?}");
    assert!(!storage.segment_ids().contains(&victim));
    assert!(storage.archive_ids().contains(&victim));
    assert_eq!(
        read_segment_or_archive(probe2.as_mut(), victim).unwrap(),
        original,
        "the archive restores byte-identical content"
    );
    assert_whole_chain(&storage, total);
}

#[test]
fn crash_before_source_delete_completes_without_double_counting() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let live = storage.segment_ids();
    let newest = *live.last().unwrap();
    let victim = live[1];
    let original = storage.segment_bytes(victim).unwrap();
    let total = parse_log(&storage.log_bytes()).len();

    // the kill fires inside remove_segment_file for `victim`: the archive
    // landed and the manifest committed, but the original survives
    storage.inject(move |op| (op == Op::Remove(victim)).then_some(Fault::Kill(0)));
    let stats = ArchiveStats::default();
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    archive_run_once(probe.as_mut(), &retain_none(), newest, &stats)
        .expect_err("the kill must surface as an error");

    // both copies present, manifest committed — the delete is the only
    // outstanding step
    assert!(storage.segment_ids().contains(&victim));
    assert!(storage.archive_ids().contains(&victim));
    let revived = storage.restart();
    let mut probe2: Box<dyn AuditStorage> = Box::new(revived.clone());
    let manifest = ArchiveManifest::load(probe2.as_mut()).unwrap();
    assert!(manifest.record(victim).is_some(), "commit point persisted");

    // restart: the pass *completes* the interrupted archive (adopting the
    // committed container) instead of re-archiving and re-counting it
    let archived_before = stats.snapshot().segments_archived;
    let pass = archive_run_once(probe2.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.completed.contains(&victim), "{pass:?}");
    assert!(!pass.archived.contains(&victim), "{pass:?}");
    assert_eq!(
        stats.snapshot().segments_archived,
        archived_before + pass.archived.len() as u64,
        "a completed handoff must not re-count the victim"
    );
    assert!(!storage.segment_ids().contains(&victim));
    assert_eq!(
        read_segment_or_archive(probe2.as_mut(), victim).unwrap(),
        original
    );
    assert_whole_chain(&storage, total);
}

#[test]
fn crash_before_manifest_commit_adopts_the_landed_archive_once() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let live = storage.segment_ids();
    let newest = *live.last().unwrap();
    let victim = live[1];
    let original = storage.segment_bytes(victim).unwrap();
    let total = parse_log(&storage.log_bytes()).len();

    // the kill fires at the manifest write that follows the victim's
    // container: the archive landed, its commit never did
    let mut victim_written = false;
    storage.inject(move |op| {
        victim_written |= op == Op::WriteArchive(victim);
        (victim_written && op == Op::WriteManifest).then_some(Fault::Kill(0))
    });
    let stats = ArchiveStats::default();
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    archive_run_once(probe.as_mut(), &retain_none(), newest, &stats)
        .expect_err("the kill must surface as an error");
    assert!(storage.segment_ids().contains(&victim));
    assert!(storage.archive_ids().contains(&victim));
    let revived = storage.restart();
    let mut probe2: Box<dyn AuditStorage> = Box::new(revived.clone());
    let manifest = ArchiveManifest::load(probe2.as_mut()).unwrap();
    assert!(manifest.record(victim).is_none(), "the commit never landed");

    // restart: the pass adopts the landed container (a second write of it
    // would fail the pass) and commits it, counting the victim once
    revived.inject(move |op| (op == Op::WriteArchive(victim)).then_some(Fault::Fail(0)));
    let pass = archive_run_once(probe2.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.archived.contains(&victim), "{pass:?}");
    assert!(!pass.completed.contains(&victim), "{pass:?}");
    assert_eq!(
        stats.snapshot().segments_archived,
        storage.archive_ids().len() as u64,
        "every archive is counted exactly once"
    );
    let manifest = ArchiveManifest::load(probe2.as_mut()).unwrap();
    assert!(manifest.record(victim).is_some(), "{manifest:?}");
    assert!(!storage.segment_ids().contains(&victim));
    assert_eq!(
        read_segment_or_archive(probe2.as_mut(), victim).unwrap(),
        original
    );
    assert_whole_chain(&storage, total);
}

#[test]
fn torn_archive_reported_as_written_is_skipped_then_rearchived() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let live = storage.segment_ids();
    let newest = *live.last().unwrap();
    let victim = live[1];
    let original = storage.segment_bytes(victim).unwrap();
    let total = parse_log(&storage.log_bytes()).len();

    // the disk reports the victim's container written but keeps only its
    // first 16 bytes: step 4's read-back must catch it
    storage.inject(move |op| (op == Op::WriteArchive(victim)).then_some(Fault::Lie(16)));
    let stats = ArchiveStats::default();
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    let pass = archive_run_once(probe.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.skipped.contains(&victim), "{pass:?}");
    assert!(!pass.archived.contains(&victim), "{pass:?}");
    assert_eq!(stats.snapshot().verify_failures, 1);
    assert_eq!(probe.read_archive(victim).unwrap().len(), 16);
    assert_eq!(storage.segment_bytes(victim).unwrap(), original);
    let manifest = ArchiveManifest::load(probe.as_mut()).unwrap();
    assert!(manifest.record(victim).is_none(), "{manifest:?}");

    // the next clean pass replaces the torn container and archives it
    let revived = storage.restart();
    let mut probe2: Box<dyn AuditStorage> = Box::new(revived.clone());
    let pass = archive_run_once(probe2.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.archived.contains(&victim), "{pass:?}");
    assert!(pass.skipped.is_empty(), "{pass:?}");
    assert!(!storage.segment_ids().contains(&victim));
    assert_eq!(
        read_segment_or_archive(probe2.as_mut(), victim).unwrap(),
        original
    );
    assert_whole_chain(&storage, total);
}

#[test]
fn tampered_source_segment_is_never_compacted_away() {
    let storage = MemStorage::new();
    build_segmented_log(&storage, 4);
    let live = storage.segment_ids();
    let newest = *live.last().unwrap();
    let victim = live[1];

    // tear the victim mid-entry: it no longer verifies standalone, so the
    // archiver must refuse to compact it and keep the evidence in place
    let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
    probe.as_mut().truncate_segment(victim, 20).unwrap();

    let stats = ArchiveStats::default();
    let pass = archive_run_once(probe.as_mut(), &retain_none(), newest, &stats).unwrap();
    assert!(pass.skipped.contains(&victim), "{pass:?}");
    assert!(!pass.archived.contains(&victim), "{pass:?}");
    assert!(stats.snapshot().verify_failures >= 1);
    // the damaged original is still there for forensics; no archive
    // claims to replace it
    assert!(storage.segment_ids().contains(&victim));
    assert!(!storage.archive_ids().contains(&victim));
}

#[test]
fn archived_middle_is_gap_free_but_a_missing_middle_is_loss() {
    // two identical stores; in one the middle segment is archived, in the
    // other it is simply deleted — recovery must tell them apart
    let archived = MemStorage::new();
    let lost = MemStorage::new();
    build_segmented_log(&archived, 4);
    build_segmented_log(&lost, 4);
    let ids = archived.segment_ids();
    assert_eq!(ids, lost.segment_ids());
    let middle = ids[ids.len() / 2];

    let bytes = archived.segment_bytes(middle).unwrap();
    let mut probe: Box<dyn AuditStorage> = Box::new(archived.clone());
    probe
        .as_mut()
        .write_archive(middle, &encode_archive(middle, &bytes))
        .unwrap();
    assert!(archived.remove_segment(middle));
    assert!(lost.remove_segment(middle));

    // archived middle: continuous, and a restarted sink sees no loss
    let audit = verify_all_segments(probe.as_mut()).unwrap();
    assert!(audit.continuous, "{audit:?}");
    let sink = open_rotating(&archived, 2);
    let rec = sink.recovery().clone();
    sink.finish();
    assert_eq!(rec.lost, 0, "{rec:?}");
    assert_eq!(rec.missing_segments, 0);

    // deleted middle: the gap is provable loss
    let mut probe_l: Box<dyn AuditStorage> = Box::new(lost.clone());
    let audit_l = verify_all_segments(probe_l.as_mut()).unwrap();
    assert!(!audit_l.continuous, "{audit_l:?}");
    let sink_l = open_rotating(&lost, 2);
    let rec_l = sink_l.recovery().clone();
    sink_l.finish();
    assert_eq!(rec_l.missing_segments, 1, "{rec_l:?}");
    assert!(rec_l.lost > 0, "a swallowed segment is quantified loss");
}

#[test]
fn background_archiver_compacts_a_live_sink_with_zero_loss() {
    let storage = MemStorage::new();
    let sink = AuditSink::open_with_storage(
        &AuditSinkConfig {
            archive: Some(ArchiveConfig {
                retain_segments: 1,
                tick: Duration::from_millis(5),
            }),
            ..rotating_config(2)
        },
        Box::new(storage.clone()),
    )
    .unwrap();
    let h = sink.handle();
    for k in 0..30 {
        h.record(flagged(k));
        if k.is_multiple_of(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    drop(h);
    let report = sink.finish();
    assert_eq!(report.dropped, 0);
    // finish() runs one final pass, so everything sealed past the horizon
    // is compacted even if the ticks never caught up under load
    assert!(
        report.archive.segments_archived >= 1,
        "{:?}",
        report.archive
    );
    assert!(report.archive.bytes_after < report.archive.bytes_before);
    assert!(!storage.archive_ids().is_empty());

    let total = report.audited + report.rolls;
    assert_whole_chain(&storage, total as usize);

    // a restart over the mixed live/archived store resumes with no loss
    let sink2 = open_rotating(&storage, 2);
    let rec = sink2.recovery().clone();
    sink2.finish();
    assert_eq!(rec.lost, 0, "{rec:?}");
    assert_eq!(rec.missing_segments, 0);
}
