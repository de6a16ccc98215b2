//! Durable, hash-chained audit sink: the persistence layer behind
//! audit-and-flag serving.
//!
//! `fact-serve` used to *count* flagged decisions; a crash erased exactly
//! the evidence the audit-and-flag degrade policy exists to preserve. This
//! module makes the trail durable and tamper-evident. It has three parts:
//! `mod.rs` holds the events, the configuration and the writer;
//! `storage.rs` is where the bytes live ([`AuditStorage`],
//! [`FileStorage`]); `recovery.rs` reads them back ([`recover`],
//! [`verify_segment`], [`verify_all_segments`], [`parse_log`]).
//!
//! * **One writer thread** is fed by an `std::sync::mpsc` channel from all
//!   shard workers. Events are batched (up to `batch_max`, or after
//!   `flush_interval` of quiet) and each batch becomes one storage append
//!   followed by one fsync — so a crash can tear at most the last batch.
//! * **Every entry extends the [`fact_transparency`] hash chain**: the
//!   writer carries a [`ChainHead`] and serializes chained
//!   [`AuditEntry`](fact_transparency::audit::AuditEntry)s as JSONL, one
//!   line per entry. The file itself *is* the chain; any edit, deletion,
//!   or reorder is detectable offline with
//!   [`verify_chain_from`](fact_transparency::audit::verify_chain_from).
//! * **The chain head is persisted** after every synced batch (a small
//!   sidecar the storage keeps next to the log). It is advisory: losing it
//!   never loses decisions, but comparing it against the recovered log
//!   bounds and *reports* what a crash took.
//! * **The log is segmented.** The writer rolls to a new segment
//!   (`<path>.000001.jsonl`, `<path>.000002.jsonl`, …) once the active one
//!   exceeds [`AuditSinkConfig::max_segment_bytes`], and opens each new
//!   segment with a **handoff record**: a normal chained entry whose
//!   `details` restate the head it continues
//!   ([`ChainHead::handoff_details`]). Because the claim is covered by the
//!   entry's own digest, every segment verifies **standalone** — no need
//!   to replay history from genesis — and old segments can be archived or
//!   verified lazily.
//! * **Sealed segments can be archived.** When
//!   [`AuditSinkConfig::archive`] is set, a background [`Archiver`] thread
//!   (never the writer hot path) compresses sealed segments past a
//!   retention horizon into verified `.facz` containers and deletes the
//!   originals — see [`crate::archive`] for the crash-safe protocol.

mod recovery;
mod storage;

pub(crate) use recovery::replay_bytes;
pub use recovery::{
    parse_log, read_segment_or_archive, recover, verify_all_segments, verify_segment,
    RecoveryReport, SegmentAudit,
};
pub use storage::{AuditStorage, FileStorage};

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fact_transparency::audit::{ChainHead, SEGMENT_HANDOFF_ACTION};

use crate::archive::{ArchiveConfig, ArchiveSnapshot, ArchiveStats, Archiver};

// ---------------------------------------------------------------------------
// events, config, reports
// ---------------------------------------------------------------------------

/// One auditable occurrence, as sent from shard workers to the writer.
#[derive(Debug, Clone)]
pub enum AuditEvent {
    /// A decision served in degraded audit-and-flag mode.
    Flagged {
        /// Shard that served it.
        shard: usize,
        /// Routing key of the request.
        route_key: u64,
        /// Model probability of the favorable class.
        probability: f64,
        /// The decision at the configured threshold.
        favorable: bool,
        /// Protected-group membership observed by the fairness guard.
        group_b: bool,
    },
    /// A decision refused under the hard-reject policy.
    Rejected {
        /// Shard that refused it.
        shard: usize,
        /// Routing key of the request.
        route_key: u64,
    },
    /// A guard alert forwarded to the global channel.
    Alert {
        /// Shard that raised it.
        shard: usize,
        /// The shard's decision count when it was raised.
        at_decision: u64,
        /// Human-readable rendering of the alert.
        summary: String,
    },
    /// A sink lifecycle marker (start/stop), written by the sink itself.
    Lifecycle {
        /// The marker action (e.g. `sink_start`).
        what: String,
        /// Free-form detail.
        detail: String,
    },
}

impl AuditEvent {
    /// Write the event's audit-entry actor and details into the two scratch
    /// buffers (clearing them first) and return its action.
    fn render(&self, actor: &mut String, details: &mut String) -> &str {
        const INFALLIBLE: &str = "formatting into a String cannot fail";
        actor.clear();
        details.clear();
        match self {
            AuditEvent::Flagged {
                shard,
                route_key,
                probability,
                favorable,
                group_b,
            } => {
                write!(actor, "shard-{shard}").expect(INFALLIBLE);
                write!(
                    details,
                    "key={route_key} p={probability:.6} favorable={favorable} group_b={group_b}"
                )
                .expect(INFALLIBLE);
                "flagged_decision"
            }
            AuditEvent::Rejected { shard, route_key } => {
                write!(actor, "shard-{shard}").expect(INFALLIBLE);
                write!(details, "key={route_key} policy=hard_reject").expect(INFALLIBLE);
                "rejected_decision"
            }
            AuditEvent::Alert {
                shard,
                at_decision,
                summary,
            } => {
                write!(actor, "shard-{shard}").expect(INFALLIBLE);
                write!(details, "at={at_decision} {summary}").expect(INFALLIBLE);
                "guard_alert"
            }
            AuditEvent::Lifecycle { what, detail } => {
                actor.push_str("fact-serve");
                details.push_str(detail);
                what
            }
        }
    }
}

/// Sink configuration.
#[derive(Debug, Clone)]
pub struct AuditSinkConfig {
    /// JSONL log path (the chain head sidecar sits next to it). Ignored
    /// when storage is injected explicitly.
    pub path: PathBuf,
    /// Largest batch the writer accumulates before an append+fsync.
    pub batch_max: usize,
    /// How long a partial batch may wait before it is flushed anyway.
    pub flush_interval: Duration,
    /// Bounded capacity of the worker→writer channel. Workers block when
    /// it fills (audit events are evidence, not telemetry — they are never
    /// silently shed while the sink is healthy).
    pub queue_cap: usize,
    /// Roll to a new segment *before* appending a batch that would push
    /// the active one past this many bytes. A segment exceeds the cap
    /// only when one single batch is alone larger than it (the batch is
    /// never split across segments).
    pub max_segment_bytes: u64,
    /// Background archiving of sealed segments; `None` (the default)
    /// disables it and segments accumulate until pruned out of band. See
    /// [`crate::archive`] for the verify → compress → commit → delete
    /// protocol and its crash-safety guarantees.
    pub archive: Option<ArchiveConfig>,
}

impl Default for AuditSinkConfig {
    fn default() -> Self {
        AuditSinkConfig {
            path: PathBuf::from("audit.jsonl"),
            batch_max: 64,
            flush_interval: Duration::from_millis(5),
            queue_cap: 8_192,
            max_segment_bytes: 64 * 1024 * 1024,
            archive: None,
        }
    }
}

impl AuditSinkConfig {
    /// Refuse a zero batch, queue, segment cap or archive tick with
    /// [`io::ErrorKind::InvalidInput`], before anything touches storage.
    fn validate(&self) -> io::Result<()> {
        let tick = self.archive.as_ref().map_or(1, |a| a.tick.as_nanos());
        for (knob, value) in [
            ("batch_max", self.batch_max as u128),
            ("queue_cap", self.queue_cap as u128),
            ("max_segment_bytes", u128::from(self.max_segment_bytes)),
            ("archive tick", tick),
        ] {
            if value == 0 {
                let msg = format!("{knob} must be positive");
                return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
            }
        }
        Ok(())
    }
}

/// Final accounting returned by [`AuditSink::finish`].
#[derive(Debug, Clone)]
pub struct SinkReport {
    /// Event entries appended *and* fsynced during this run (including
    /// lifecycle markers; handoff records are counted in `rolls` instead,
    /// so total chain entries written = `audited + rolls` + any handoff
    /// re-emitted after a fallback recovery).
    pub audited: u64,
    /// Events dropped because the storage had failed (poisoned sink).
    pub dropped: u64,
    /// Storage errors observed (append/sync/head-write/roll).
    pub io_errors: u64,
    /// Segment rolls performed this run.
    pub rolls: u64,
    /// Segments present at the end of the run.
    pub segments: u64,
    /// What recovery found at startup.
    pub recovery: RecoveryReport,
    /// What the background archiver did this run (all-zero when archiving
    /// is off).
    pub archive: ArchiveSnapshot,
}

#[derive(Debug, Default)]
struct SinkShared {
    audited: AtomicU64,
    dropped: AtomicU64,
    io_errors: AtomicU64,
    rolls: AtomicU64,
    active_segment: AtomicU64,
}

/// A cheap, cloneable sender side of the sink: shard workers hold one and
/// [`record`](AuditSinkHandle::record) events into it.
#[derive(Clone)]
pub struct AuditSinkHandle {
    tx: SyncSender<AuditEvent>,
    shared: Arc<SinkShared>,
}

impl AuditSinkHandle {
    /// Enqueue one event. Blocks while the writer's queue is full; if the
    /// writer is gone (sink finished early), the event is counted dropped.
    pub fn record(&self, event: AuditEvent) {
        if self.tx.send(event).is_err() {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// the sink
// ---------------------------------------------------------------------------

/// The durable audit sink: owns the writer thread and the storage moved
/// into it. Create with [`open`](AuditSink::open) (file-backed) or
/// [`open_with_storage`](AuditSink::open_with_storage) (anything,
/// including fault-injecting test storage); hand
/// [`handle`](AuditSink::handle)s to producers; call
/// [`finish`](AuditSink::finish) to drain, write the stop marker, fsync,
/// and collect the [`SinkReport`].
pub struct AuditSink {
    tx: Option<SyncSender<AuditEvent>>,
    writer: Option<JoinHandle<()>>,
    shared: Arc<SinkShared>,
    recovery: RecoveryReport,
    archiver: Option<Archiver>,
    archive_stats: Arc<ArchiveStats>,
}

impl AuditSink {
    /// Open a file-backed sink at `config.path`, running recovery first.
    /// A zero batch, queue, segment cap or archive tick fails with
    /// [`io::ErrorKind::InvalidInput`] before anything is created.
    pub fn open(config: &AuditSinkConfig) -> io::Result<AuditSink> {
        config.validate()?;
        let storage = FileStorage::open(&config.path)?;
        Self::open_with_storage(config, Box::new(storage))
    }

    /// Open over explicit storage (`config.path` is ignored), checking the
    /// configuration as [`open`](AuditSink::open) does, then recovering.
    pub fn open_with_storage(
        config: &AuditSinkConfig,
        mut storage: Box<dyn AuditStorage>,
    ) -> io::Result<AuditSink> {
        config.validate()?;
        // take the archiver's independent handle *before* the writer owns
        // the storage; refuse up front rather than silently not archiving
        let archiver_storage = match &config.archive {
            Some(_) => Some(storage.archive_handle().ok_or_else(|| {
                io::Error::other("archive configured but storage offers no archive handle")
            })?),
            None => None,
        };
        let recovery = recover(storage.as_mut())?;
        let shared = Arc::new(SinkShared::default());
        shared
            .active_segment
            .store(recovery.active_segment, Ordering::Relaxed);
        let (tx, rx) = sync_channel::<AuditEvent>(config.queue_cap);
        let writer = Writer {
            rx,
            storage,
            head: recovery.resumed,
            batch_max: config.batch_max,
            flush_interval: config.flush_interval,
            max_segment_bytes: config.max_segment_bytes,
            active_segment: recovery.active_segment,
            active_bytes: recovery.cut_offset,
            needs_handoff: recovery.needs_handoff,
            shared: Arc::clone(&shared),
            recovery: recovery.clone(),
            poisoned: false,
        };
        let writer = std::thread::Builder::new()
            .name("fact-audit-sink".into())
            .spawn(move || writer.run())
            .map_err(io::Error::other)?;
        let archive_stats = Arc::new(ArchiveStats::default());
        let archiver = match (&config.archive, archiver_storage) {
            (Some(acfg), Some(handle)) => {
                let watcher = Arc::clone(&shared);
                Some(Archiver::spawn(
                    acfg.clone(),
                    handle,
                    move || watcher.active_segment.load(Ordering::Relaxed),
                    Arc::clone(&archive_stats),
                )?)
            }
            _ => None,
        };
        Ok(AuditSink {
            tx: Some(tx),
            writer: Some(writer),
            shared,
            recovery,
            archiver,
            archive_stats,
        })
    }

    /// A sender handle for one producer (clone freely).
    pub fn handle(&self) -> AuditSinkHandle {
        AuditSinkHandle {
            tx: self.tx.clone().expect("sink not finished"),
            shared: Arc::clone(&self.shared),
        }
    }

    /// What the startup recovery pass found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Entries durably synced so far this run.
    pub fn audited(&self) -> u64 {
        self.shared.audited.load(Ordering::Relaxed)
    }

    /// Segment rolls performed so far this run.
    pub fn rolls(&self) -> u64 {
        self.shared.rolls.load(Ordering::Relaxed)
    }

    /// Segment id currently being appended to.
    pub fn active_segment(&self) -> u64 {
        self.shared.active_segment.load(Ordering::Relaxed)
    }

    /// The live archiver counters (all-zero, never advancing, when
    /// archiving is off). The same `Arc` can be handed to a metrics
    /// registry so operators watch archiving progress in-flight.
    pub fn archive_stats(&self) -> Arc<ArchiveStats> {
        Arc::clone(&self.archive_stats)
    }

    /// Stop the sink (see `stop`) and collect its [`SinkReport`].
    pub fn finish(mut self) -> SinkReport {
        self.stop();
        let rolls = self.shared.rolls.load(Ordering::Relaxed);
        SinkReport {
            audited: self.shared.audited.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            io_errors: self.shared.io_errors.load(Ordering::Relaxed),
            rolls,
            segments: self.recovery.segments + rolls,
            recovery: self.recovery.clone(),
            archive: self.archive_stats.snapshot(),
        }
    }

    /// Drop the sender, let the writer drain, stamp the stop marker, and
    /// join; then stop the archiver (it runs one final pass first).
    /// (Outstanding [`AuditSinkHandle`]s keep the writer alive until they
    /// are dropped too.) Idempotent: `finish` runs it, then `Drop` again.
    fn stop(&mut self) {
        self.tx.take();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        if let Some(a) = self.archiver.take() {
            a.stop();
        }
    }
}

impl Drop for AuditSink {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Writer {
    rx: Receiver<AuditEvent>,
    storage: Box<dyn AuditStorage>,
    head: ChainHead,
    batch_max: usize,
    flush_interval: Duration,
    max_segment_bytes: u64,
    active_segment: u64,
    active_bytes: u64,
    /// The active segment is freshly opened and its first entry must be a
    /// handoff record restating the current head, so the segment verifies
    /// standalone. Set by a roll, or by recovery after wiping a torn roll.
    needs_handoff: bool,
    shared: Arc<SinkShared>,
    recovery: RecoveryReport,
    poisoned: bool,
}

impl Writer {
    fn run(mut self) {
        // the restart itself is an auditable event, chained like any other
        let mut batch = vec![AuditEvent::Lifecycle {
            what: "sink_start".into(),
            detail: format!(
                "recovered={} truncated_bytes={} lost={}",
                self.recovery.recovered, self.recovery.truncated_bytes, self.recovery.lost
            ),
        }];
        self.flush(&mut batch);

        let mut deadline: Option<Instant> = None;
        loop {
            let received = match deadline {
                None => match self.rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                },
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.flush(&mut batch);
                        deadline = None;
                        continue;
                    }
                    match self.rx.recv_timeout(d - now) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => {
                            self.flush(&mut batch);
                            deadline = None;
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            if let Some(ev) = received {
                batch.push(ev);
                if deadline.is_none() {
                    deadline = Some(Instant::now() + self.flush_interval);
                }
                if batch.len() >= self.batch_max {
                    self.flush(&mut batch);
                    deadline = None;
                }
            }
        }

        // channel disconnected: whatever is pending plus the stop marker
        let audited_so_far = self.shared.audited.load(Ordering::Relaxed) + batch.len() as u64 + 1;
        batch.push(AuditEvent::Lifecycle {
            what: "sink_stop".into(),
            detail: format!("audited={audited_so_far}"),
        });
        self.flush(&mut batch);
    }

    /// Turn the batch into chained JSONL lines, append them in ONE storage
    /// call, fsync, then persist the advanced head. When the batch would
    /// push the active segment past its byte budget, roll to a fresh
    /// segment *before* appending and open it with a handoff record (so a
    /// flush never splits across segments, every segment's first entry
    /// carries its resume point, and a segment exceeds the cap only when
    /// a single batch is alone larger than it). A failure poisons the
    /// sink: later events are counted dropped instead of risking a forked
    /// chain on storage that already tore.
    fn flush(&mut self, batch: &mut Vec<AuditEvent>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        if self.poisoned {
            self.shared.dropped.fetch_add(n, Ordering::Relaxed);
            batch.clear();
            return;
        }
        let mut head = self.head;
        let mut buf = build_lines(&mut head, self.needs_handoff, self.active_segment, batch);
        let mut handoff_written = self.needs_handoff;
        // Pre-append roll: this batch would overflow the segment, so it
        // goes into a fresh one instead. A freshly opened segment
        // (needs_handoff) or an empty one never rolls again — that is
        // where an over-cap single batch is allowed to land, bounding the
        // overshoot at exactly one batch.
        if !self.needs_handoff
            && self.active_bytes > 0
            && self.active_bytes + buf.len() as u64 > self.max_segment_bytes
        {
            match self.storage.open_segment(self.active_segment + 1) {
                Ok(()) => {
                    self.active_segment += 1;
                    self.active_bytes = 0;
                    self.needs_handoff = true;
                    self.shared.rolls.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .active_segment
                        .store(self.active_segment, Ordering::Relaxed);
                    // re-serialize: the new segment opens with a handoff
                    // and every entry's digest chains past it
                    head = self.head;
                    buf = build_lines(&mut head, true, self.active_segment, batch);
                    handoff_written = true;
                }
                Err(_) => {
                    // soft failure: keep appending to the oversized
                    // current segment rather than lose evidence
                    self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        batch.clear();
        let written = self
            .storage
            .append_log(&buf)
            .and_then(|()| self.storage.sync_log());
        match written {
            Ok(()) => {
                self.head = head;
                self.active_bytes += buf.len() as u64;
                if handoff_written {
                    self.needs_handoff = false;
                }
                self.shared.audited.fetch_add(n, Ordering::Relaxed);
                // the head sidecar is advisory (loss *reporting*); its
                // failure must not stop the log itself
                let head_json = serde_json::to_string(&head).expect("chain head serializes");
                if self.storage.write_head(head_json.as_bytes()).is_err() {
                    self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                self.shared.dropped.fetch_add(n, Ordering::Relaxed);
                self.poisoned = true;
            }
        }
    }
}

/// Serialize `events` as chained JSONL, optionally preceded by a handoff
/// record for `segment`, advancing `head` past everything serialized. Each
/// event's actor and details are formatted into two reused scratch strings
/// and hashed and written straight into the returned buffer by
/// [`ChainHead::extend_line`].
fn build_lines(
    head: &mut ChainHead,
    with_handoff: bool,
    segment: u64,
    events: &[AuditEvent],
) -> Vec<u8> {
    // a v2 flagged-decision line is ~280 bytes
    let mut buf = Vec::with_capacity(events.len() * 288 + 320);
    if with_handoff {
        let claim = *head;
        let details = claim.handoff_details(segment);
        head.extend_line("fact-serve", SEGMENT_HANDOFF_ACTION, &details, &mut buf);
    }
    let (mut actor, mut details) = (String::new(), String::new());
    for event in events {
        let action = event.render(&mut actor, &mut details);
        head.extend_line(&actor, action, &details, &mut buf);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Fault, MemStorage, Op};
    use fact_transparency::audit::{is_handoff, verify_chain_from};

    fn flagged(shard: usize, key: u64) -> AuditEvent {
        AuditEvent::Flagged {
            shard,
            route_key: key,
            probability: 0.25,
            favorable: false,
            group_b: key.is_multiple_of(2),
        }
    }

    fn open_mem(storage: &MemStorage, batch_max: usize) -> AuditSink {
        AuditSink::open_with_storage(
            &AuditSinkConfig {
                batch_max,
                flush_interval: Duration::from_millis(1),
                ..AuditSinkConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap()
    }

    /// `max_segment_bytes = 1` makes every flush after the first roll to a
    /// fresh segment — the deterministic way to exercise rotation.
    fn open_mem_rotating(storage: &MemStorage, batch_max: usize) -> AuditSink {
        AuditSink::open_with_storage(
            &AuditSinkConfig {
                batch_max,
                flush_interval: Duration::from_millis(1),
                max_segment_bytes: 1,
                ..AuditSinkConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap()
    }

    #[test]
    fn events_become_a_verifiable_chain() {
        let storage = MemStorage::new();
        let sink = open_mem(&storage, 4);
        let h = sink.handle();
        for k in 0..10 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        // 10 events + sink_start + sink_stop
        assert_eq!(report.audited, 12);
        assert_eq!(report.dropped, 0);
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(entries.len(), 12);
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
        assert_eq!(entries[0].action, "sink_start");
        assert_eq!(entries[11].action, "sink_stop");
        assert_eq!(entries[1].actor, "shard-0");
        assert!(entries[1].details.contains("key=0"));
        // the persisted head matches the file's last entry
        let head: ChainHead =
            serde_json::from_str(&String::from_utf8(storage.head_bytes().unwrap()).unwrap())
                .unwrap();
        assert_eq!(head, ChainHead::advanced_past(entries.last().unwrap()));
    }

    #[test]
    fn restart_resumes_the_same_chain() {
        let storage = MemStorage::new();
        let sink = open_mem(&storage, 4);
        let h = sink.handle();
        for k in 0..5 {
            h.record(flagged(0, k));
        }
        drop(h);
        sink.finish();

        let sink2 = open_mem(&storage, 4);
        assert_eq!(sink2.recovery().recovered, 7); // 5 + start/stop
        assert_eq!(sink2.recovery().truncated_bytes, 0);
        assert_eq!(sink2.recovery().lost, 0);
        let h2 = sink2.handle();
        for k in 5..8 {
            h2.record(flagged(1, k));
        }
        drop(h2);
        sink2.finish();

        let entries = parse_log(&storage.log_bytes());
        assert_eq!(entries.len(), 12); // 7 + start + 3 + stop
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn append_failure_poisons_but_does_not_wedge() {
        let storage = MemStorage::new();
        // sink_start succeeds, then every append fails
        storage.inject(|op| matches!(op, Op::Append { index: 1.., .. }).then_some(Fault::Fail(0)));
        let sink = open_mem(&storage, 2);
        let h = sink.handle();
        for k in 0..20 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        assert_eq!(report.audited, 1); // only sink_start landed
        assert!(report.io_errors >= 1);
        // every event after the poison (incl. sink_stop) is counted dropped
        assert_eq!(report.dropped, 21);
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let storage = MemStorage::new();
        let sink = open_mem(&storage, 4);
        let h = sink.handle();
        for k in 0..6 {
            h.record(flagged(0, k));
        }
        drop(h);
        sink.finish();
        // tear the file mid-line, as a kill between write and sync would
        let full = storage.log_bytes();
        let cut = full.len() - 17;
        let mut s = storage.clone();
        s.truncate_segment(0, cut as u64).unwrap();

        let sink2 = open_mem(&storage, 4);
        let rec = sink2.recovery().clone();
        assert!(rec.truncated_bytes > 0, "{rec:?}");
        assert_eq!(rec.cut_seq, None, "a torn line is not a chain break");
        // the head sidecar still said 8 entries: the tear cost exactly one
        assert_eq!(rec.recovered, 7);
        assert_eq!(rec.lost, 1);
        sink2.finish();
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn mid_chain_corruption_cuts_at_the_tamper_point() {
        let storage = MemStorage::new();
        let sink = open_mem(&storage, 4);
        let h = sink.handle();
        for k in 0..6 {
            h.record(flagged(0, k));
        }
        drop(h);
        sink.finish();
        // flip one byte inside the details of an entry in the middle
        let mut bytes = storage.log_bytes();
        let target = bytes
            .windows(7)
            .position(|w| w == b"key=3 p".as_slice())
            .expect("entry for key 3 present");
        bytes[target + 4] = b'9';
        let mut s = storage.clone();
        s.open_segment(0).unwrap();
        s.truncate_segment(0, 0).unwrap();
        s.append_log(&bytes).unwrap();

        let sink2 = open_mem(&storage, 4);
        let rec = sink2.recovery().clone();
        assert_eq!(rec.cut_seq, Some(4), "{rec:?}"); // entry 4 = key=3 (after sink_start)
        assert_eq!(rec.recovered, 4);
        assert!(rec.cut_lines >= 1);
        sink2.finish();
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn file_storage_round_trips_and_recovers() {
        let dir = std::env::temp_dir().join(format!(
            "fact-audit-sink-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let path = dir.join("audit.jsonl");
        let cfg = AuditSinkConfig {
            path: path.clone(),
            batch_max: 4,
            flush_interval: Duration::from_millis(1),
            ..AuditSinkConfig::default()
        };
        let sink = AuditSink::open(&cfg).unwrap();
        let h = sink.handle();
        for k in 0..5 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        assert_eq!(report.audited, 7);

        // reopen: chain intact, appending resumes
        let sink2 = AuditSink::open(&cfg).unwrap();
        assert_eq!(sink2.recovery().recovered, 7);
        assert_eq!(sink2.recovery().lost, 0);
        sink2.finish();
        let entries = parse_log(&std::fs::read(&path).unwrap());
        assert_eq!(entries.len(), 9);
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rolls_segments_and_each_verifies_standalone() {
        let storage = MemStorage::new();
        let sink = open_mem_rotating(&storage, 2);
        let h = sink.handle();
        for k in 0..10 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        assert_eq!(report.audited, 12); // handoffs are counted in rolls
        assert!(report.rolls >= 2, "{report:?}");
        assert_eq!(report.segments, report.rolls + 1);
        assert_eq!(storage.segment_ids().len() as u64, report.segments);

        // every segment verifies standalone and the set stitches
        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let audit = verify_all_segments(probe.as_mut()).unwrap();
        assert!(audit.continuous, "{audit:?}");
        assert_eq!(audit.segments.len() as u64, report.segments);
        for (id, verdict) in &audit.segments {
            let check = verdict.as_ref().unwrap_or_else(|e| panic!("seg {id}: {e}"));
            if *id == 0 {
                assert_eq!(check.handoff_segment, None);
            } else {
                assert_eq!(check.handoff_segment, Some(*id));
            }
        }
        // the concatenation is still one chain from genesis
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(entries.len() as u64, report.audited + report.rolls);
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn every_stored_line_is_what_serde_json_renders_for_it() {
        let storage = MemStorage::new();
        let sink = open_mem_rotating(&storage, 3);
        let h = sink.handle();
        for k in 0..4 {
            h.record(flagged(k as usize, k));
            h.record(AuditEvent::Rejected {
                shard: 1,
                route_key: 100 + k,
            });
            h.record(AuditEvent::Alert {
                shard: 2,
                at_decision: k,
                summary: format!("FairnessAlert {{ di: 0.{k} }}"),
            });
            h.record(AuditEvent::Lifecycle {
                what: "operator_note".into(),
                detail: format!("quote=\" backslash=\\ newline=\n caf\u{e9} \u{2615} n={k}"),
            });
        }
        drop(h);
        let report = sink.finish();
        assert!(report.rolls >= 2, "{report:?}");
        let mut kinds = std::collections::BTreeSet::new();
        for id in storage.segment_ids() {
            let bytes = storage.segment_bytes(id).unwrap();
            let mut rendered = Vec::new();
            for entry in parse_log(&bytes) {
                kinds.insert(entry.action.clone());
                rendered.extend_from_slice(serde_json::to_string(&entry).unwrap().as_bytes());
                rendered.push(b'\n');
            }
            assert_eq!(
                String::from_utf8(rendered).unwrap(),
                String::from_utf8(bytes).unwrap(),
                "segment {id}"
            );
        }
        for action in [
            "flagged_decision",
            "rejected_decision",
            "guard_alert",
            "operator_note",
            "sink_start",
            "sink_stop",
            SEGMENT_HANDOFF_ACTION,
        ] {
            assert!(kinds.contains(action), "{action} missing from {kinds:?}");
        }
    }

    #[test]
    fn recovery_replays_only_the_newest_segment() {
        let storage = MemStorage::new();
        let sink = open_mem_rotating(&storage, 2);
        let h = sink.handle();
        for k in 0..10 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        let total = report.audited + report.rolls;
        let newest = *storage.segment_ids().last().unwrap();
        let newest_entries = parse_log(&storage.segment_bytes(newest).unwrap()).len() as u64;

        let sink2 = open_mem_rotating(&storage, 2);
        let rec = sink2.recovery().clone();
        assert_eq!(rec.replayed_segments, 1, "{rec:?}");
        assert_eq!(rec.recovered, newest_entries);
        assert!(rec.recovered < total, "recovery must not replay history");
        assert_eq!(rec.lost, 0);
        assert_eq!(rec.active_segment, newest);
        assert!(!rec.needs_handoff);
        let h2 = sink2.handle();
        for k in 10..13 {
            h2.record(flagged(1, k));
        }
        drop(h2);
        sink2.finish();
        // appends resumed the same chain across the restart
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn file_storage_rotates_lists_and_reopens() {
        let dir = std::env::temp_dir().join(format!(
            "fact-audit-rotate-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let path = dir.join("audit.jsonl");
        let cfg = AuditSinkConfig {
            path: path.clone(),
            batch_max: 2,
            flush_interval: Duration::from_millis(1),
            max_segment_bytes: 1,
            ..AuditSinkConfig::default()
        };
        let sink = AuditSink::open(&cfg).unwrap();
        let h = sink.handle();
        for k in 0..8 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        assert!(report.rolls >= 2, "{report:?}");
        assert!(path.exists());
        assert!(dir.join("audit.jsonl.000001.jsonl").exists());

        let mut fs: Box<dyn AuditStorage> = Box::new(FileStorage::open(&path).unwrap());
        let listed = fs.list_segments().unwrap();
        assert_eq!(listed.len() as u64, report.segments);
        assert_eq!(listed[0], 0);
        let audit = verify_all_segments(fs.as_mut()).unwrap();
        assert!(audit.continuous, "{audit:?}");

        let sink2 = AuditSink::open(&cfg).unwrap();
        assert_eq!(sink2.recovery().replayed_segments, 1);
        assert_eq!(sink2.recovery().lost, 0);
        sink2.finish();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_lists_wide_segment_ids_numerically() {
        let dir = std::env::temp_dir().join(format!(
            "fact-audit-wide-id-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.jsonl");
        std::fs::write(&path, b"").unwrap();
        // the zero-pad stops at six digits: the next id is seven wide, and
        // sorts lexicographically *before* 999999 — the bug being pinned
        std::fs::write(dir.join("audit.jsonl.999999.jsonl"), b"nine").unwrap();
        std::fs::write(dir.join("audit.jsonl.1000000.jsonl"), b"wide").unwrap();
        // neighbors that must not parse as segments
        std::fs::write(dir.join("audit.jsonl.head"), b"").unwrap();
        std::fs::write(dir.join("audit.jsonl.archive"), b"").unwrap();
        std::fs::write(dir.join("audit.jsonl.12x.jsonl"), b"").unwrap();
        std::fs::write(dir.join("audit.jsonl.999999.jsonl.facz"), b"").unwrap();
        std::fs::write(dir.join("audit.jsonl.1000000.jsonl.facz"), b"").unwrap();

        let mut fs = FileStorage::open(&path).unwrap();
        assert_eq!(fs.list_segments().unwrap(), vec![0, 999_999, 1_000_000]);
        assert_eq!(fs.list_archives().unwrap(), vec![999_999, 1_000_000]);
        // wide ids resolve to their (naturally widened) paths on read
        assert_eq!(fs.read_segment(999_999).unwrap(), b"nine");
        assert_eq!(fs.read_segment(1_000_000).unwrap(), b"wide");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_batch_rolls_to_a_fresh_segment_before_appending() {
        let storage = MemStorage::new();
        let cap = 4096u64;
        // a huge flush_interval means the only flushes are batch_max fills
        // and lifecycle markers: sink_start lands alone in segment 0, then
        // one 64-event batch (~9 KiB serialized, over the cap) arrives
        let sink = AuditSink::open_with_storage(
            &AuditSinkConfig {
                batch_max: 64,
                flush_interval: Duration::from_secs(3600),
                max_segment_bytes: cap,
                ..AuditSinkConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap();
        let h = sink.handle();
        for k in 0..64 {
            h.record(flagged(0, k));
        }
        drop(h);
        let report = sink.finish();
        assert_eq!(report.audited, 66); // start + 64 + stop
        assert_eq!(report.dropped, 0);

        // the batch rolled *before* appending: segment 0 stays under the
        // cap, and the whole batch landed together in segment 1 (the one
        // place an over-cap batch may overshoot)
        assert!(report.rolls >= 1, "{report:?}");
        let seg0 = storage.segment_bytes(0).unwrap();
        assert!(
            seg0.len() as u64 <= cap,
            "pre-append roll must keep sealed segments under the cap \
             ({} > {cap})",
            seg0.len()
        );
        let seg1 = storage.segment_bytes(1).unwrap();
        assert!(seg1.len() as u64 > cap, "the big batch lands whole");
        let seg1_entries = parse_log(&seg1);
        assert_eq!(seg1_entries.len(), 65); // handoff + all 64 events
        assert!(is_handoff(&seg1_entries[0]));

        // the rotated set still stitches into one chain
        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let audit = verify_all_segments(probe.as_mut()).unwrap();
        assert!(audit.continuous, "{audit:?}");
        let entries = parse_log(&storage.log_bytes());
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }

    #[test]
    fn archived_segments_read_verify_and_recover_transparently() {
        use crate::archive::{run_once, ArchiveConfig, ArchiveStats};

        let storage = MemStorage::new();
        let sink = open_mem_rotating(&storage, 2);
        let h = sink.handle();
        for k in 0..10 {
            h.record(flagged(0, k));
        }
        drop(h);
        sink.finish();
        let live_before = storage.segment_ids();
        let newest = *live_before.last().unwrap();
        assert!(live_before.len() >= 3, "{live_before:?}");
        let originals: Vec<(u64, Vec<u8>)> = live_before
            .iter()
            .map(|&id| (id, storage.segment_bytes(id).unwrap()))
            .collect();

        // compact every sealed segment, retaining none
        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let stats = ArchiveStats::default();
        let cfg = ArchiveConfig {
            retain_segments: 0,
            ..ArchiveConfig::default()
        };
        let pass = run_once(probe.as_mut(), &cfg, newest, &stats).unwrap();
        assert_eq!(pass.archived, live_before[..live_before.len() - 1]);
        assert!(pass.skipped.is_empty(), "{pass:?}");
        assert_eq!(storage.segment_ids(), vec![newest]);
        assert_eq!(storage.archive_ids(), pass.archived);
        assert!(
            stats.snapshot().bytes_after < stats.snapshot().bytes_before,
            "JSONL must compress"
        );

        // reads fall through to the archive, byte-identical
        for (id, bytes) in &originals {
            assert_eq!(
                &read_segment_or_archive(probe.as_mut(), *id).unwrap(),
                bytes
            );
        }
        // verification spans the live/archived boundary
        let audit = verify_all_segments(probe.as_mut()).unwrap();
        assert!(audit.continuous, "{audit:?}");
        assert_eq!(audit.segments.len(), live_before.len());

        // a restart over the compacted store sees zero loss and resumes
        let sink2 = open_mem_rotating(&storage, 2);
        let rec = sink2.recovery().clone();
        assert_eq!(rec.lost, 0, "{rec:?}");
        assert_eq!(rec.missing_segments, 0);
        assert_eq!(rec.active_segment, newest);
        let h2 = sink2.handle();
        for k in 10..13 {
            h2.record(flagged(1, k));
        }
        drop(h2);
        sink2.finish();
        let mut probe2: Box<dyn AuditStorage> = Box::new(storage.clone());
        let audit2 = verify_all_segments(probe2.as_mut()).unwrap();
        assert!(audit2.continuous, "{audit2:?}");
    }

    #[test]
    fn fully_archived_store_resumes_in_a_fresh_segment() {
        use crate::archive::{encode_archive, run_once, ArchiveConfig, ArchiveStats};

        let storage = MemStorage::new();
        let sink = open_mem_rotating(&storage, 2);
        let h = sink.handle();
        for k in 0..6 {
            h.record(flagged(0, k));
        }
        drop(h);
        sink.finish();
        let live = storage.segment_ids();
        let newest = *live.last().unwrap();

        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let stats = ArchiveStats::default();
        let cfg = ArchiveConfig {
            retain_segments: 0,
            ..ArchiveConfig::default()
        };
        run_once(probe.as_mut(), &cfg, newest, &stats).unwrap();
        // the operator compacts the closed log's final segment by hand
        let bytes = storage.segment_bytes(newest).unwrap();
        probe
            .as_mut()
            .write_archive(newest, &encode_archive(newest, &bytes))
            .unwrap();
        assert!(storage.remove_segment(newest));
        assert!(storage.segment_ids().is_empty());

        // recovery resumes past the newest archive, opening with a handoff
        let sink2 = open_mem_rotating(&storage, 2);
        let rec = sink2.recovery().clone();
        assert_eq!(rec.lost, 0, "{rec:?}");
        assert_eq!(rec.active_segment, newest + 1);
        assert!(rec.needs_handoff);
        let h2 = sink2.handle();
        h2.record(flagged(1, 99));
        drop(h2);
        sink2.finish();

        let mut probe2: Box<dyn AuditStorage> = Box::new(storage.clone());
        let audit = verify_all_segments(probe2.as_mut()).unwrap();
        assert!(audit.continuous, "{audit:?}");
        // the whole history — every archive plus the new live tail — is
        // still one unbroken chain from genesis
        let mut all = Vec::new();
        for id in 0..=newest + 1 {
            all.extend(read_segment_or_archive(probe2.as_mut(), id).unwrap());
        }
        let entries = parse_log(&all);
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
    }
}
