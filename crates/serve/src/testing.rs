//! Test doubles: in-memory audit storage with one fault rule (the double
//! behind the audit crash/fault-injection suites and the `exp_e13`/`exp_e15`
//! recovery phases), a [`ManualClock`] for the feature cache and the
//! admission controller, and a [`FailingFeatureSource`] for feature-store
//! outages.
//!
//! [`MemStorage`] keeps the segments, head sidecar, archives and archive
//! manifest in memory. [`MemStorage::inject`] installs a rule that sees
//! every mutating call as an [`Op`] and may answer with a [`Fault`]: fail
//! the call, kill the storage like a dead process, or lie about what
//! landed. A crash at any storage step is one rule; [`kill_at_byte`] is
//! the common one, a process killed partway through a batch.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fact_data::{FactError, Matrix, Result};

use crate::audit_sink::AuditStorage;
use crate::cache::Clock;
use crate::source::FeatureSource;

/// One mutating storage call, as a fault rule sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`open_segment`](AuditStorage::open_segment) of this segment id.
    Open(u64),
    /// [`append_log`](AuditStorage::append_log).
    Append {
        /// 0-based number of this append among all appends so far.
        index: u64,
        /// Log length (summed across segments) before this append.
        log_len: u64,
        /// This append's own length.
        len: u64,
    },
    /// [`write_head`](AuditStorage::write_head).
    WriteHead,
    /// [`write_archive`](AuditStorage::write_archive) of this segment id.
    WriteArchive(u64),
    /// [`write_manifest`](AuditStorage::write_manifest).
    WriteManifest,
    /// [`remove_segment_file`](AuditStorage::remove_segment_file) of this
    /// segment id.
    Remove(u64),
}

/// What a rule does to the call it hits. Every fault first lands the
/// first `n` bytes of the call's payload, then takes effect. A call that
/// lands no byte changes nothing: an append adds nothing, and a head,
/// archive or manifest replace keeps the old file, as if the rename never
/// happened. A call without a payload (open, remove) lands for any
/// `n >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Return an error; the storage stays up (a failed or short write).
    Fail(usize),
    /// Return an error and die: every later call fails until
    /// [`MemStorage::restart`] (a killed process and its dead fds).
    Kill(usize),
    /// Report success anyway (a lying disk, or a rename that a power cut
    /// reverts because the directory was never fsynced).
    Lie(usize),
}

/// The rule for a process killed once the log (summed across segments)
/// reaches `cap` bytes: the append that would cross it lands only up to
/// the cap — a torn line — and the storage dies.
pub fn kill_at_byte(cap: u64) -> impl FnMut(Op) -> Option<Fault> + Send {
    move |op| match op {
        Op::Append { log_len, len, .. } if log_len + len > cap => {
            Some(Fault::Kill(cap.saturating_sub(log_len) as usize))
        }
        _ => None,
    }
}

type Rule = Box<dyn FnMut(Op) -> Option<Fault> + Send>;

#[derive(Default)]
struct MemInner {
    segments: BTreeMap<u64, Vec<u8>>,
    active: Option<u64>,
    head: Option<Vec<u8>>,
    /// Archive containers, keyed by segment id.
    archives: BTreeMap<u64, Vec<u8>>,
    /// The archive-manifest sidecar.
    manifest: Option<Vec<u8>>,
    appends: u64,
    rule: Option<Rule>,
    dead: bool,
}

impl MemInner {
    fn total_len(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Show `op` to the rule, `land` as many payload bytes as the fault
    /// lets through (all of them when none hits, nothing at all when it
    /// lets none), then report what the fault says.
    fn apply(&mut self, op: Op, land: impl FnOnce(&mut MemInner, usize)) -> io::Result<()> {
        let (landed, result) = match self.rule.as_mut().and_then(|rule| rule(op)) {
            None => (usize::MAX, Ok(())),
            Some(Fault::Fail(n)) => (n, Err(io::Error::other("injected failure"))),
            Some(Fault::Kill(n)) => {
                self.dead = true;
                (n, Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed")))
            }
            Some(Fault::Lie(n)) => (n, Ok(())),
        };
        if landed > 0 {
            land(self, landed);
        }
        result
    }
}

/// The first `landed` bytes of `buf`.
fn prefix(buf: &[u8], landed: usize) -> &[u8] {
    &buf[..landed.min(buf.len())]
}

fn not_found(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such {what}"))
}

/// In-memory [`AuditStorage`] shared through an `Arc`: cloning yields a
/// second handle onto the *same* bytes, which is how tests "restart" a
/// sink over whatever a fault left behind. Faults come from one rule,
/// installed with [`inject`](MemStorage::inject).
#[derive(Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    /// Fresh, empty, fault-free storage.
    pub fn new() -> Self {
        MemStorage::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The one gate every storage call passes: a dead storage refuses it.
    fn live(&self) -> io::Result<MutexGuard<'_, MemInner>> {
        let g = self.lock();
        if g.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "storage dead"));
        }
        Ok(g)
    }

    /// Install `rule` (replacing any earlier one): every later mutating
    /// call on any handle is shown to it as an [`Op`], and a returned
    /// [`Fault`] hits that call. The rule runs under the storage's lock,
    /// so it must not call back into the storage.
    pub fn inject(&self, rule: impl FnMut(Op) -> Option<Fault> + Send + 'static) {
        self.lock().rule = Some(Box::new(rule));
    }

    /// Drop the rule and revive a killed storage — the "restart".
    pub fn restart(&self) -> MemStorage {
        let mut g = self.lock();
        g.rule = None;
        g.dead = false;
        MemStorage {
            inner: Arc::clone(&self.inner),
        }
    }

    /// All segments' bytes concatenated in segment order (inspection).
    pub fn log_bytes(&self) -> Vec<u8> {
        let g = self.lock();
        let mut out = Vec::with_capacity(g.total_len());
        for bytes in g.segments.values() {
            out.extend_from_slice(bytes);
        }
        out
    }

    /// One segment's bytes, if it exists (inspection).
    pub fn segment_bytes(&self, segment: u64) -> Option<Vec<u8>> {
        self.lock().segments.get(&segment).cloned()
    }

    /// Segment ids currently present (inspection).
    pub fn segment_ids(&self) -> Vec<u64> {
        self.lock().segments.keys().copied().collect()
    }

    /// Delete a segment outright — the "operator removed a middle file"
    /// fault. Returns whether it existed.
    pub fn remove_segment(&self, segment: u64) -> bool {
        self.lock().segments.remove(&segment).is_some()
    }

    /// Current persisted head bytes (inspection).
    pub fn head_bytes(&self) -> Option<Vec<u8>> {
        self.lock().head.clone()
    }

    /// Archived segment ids currently present (inspection).
    pub fn archive_ids(&self) -> Vec<u64> {
        self.lock().archives.keys().copied().collect()
    }

    /// Delete an archive outright — the "operator removed an archive"
    /// fault. Returns whether it existed.
    pub fn remove_archive(&self, segment: u64) -> bool {
        self.lock().archives.remove(&segment).is_some()
    }
}

impl AuditStorage for MemStorage {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        Ok(self.live()?.segments.keys().copied().collect())
    }

    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        let g = self.live()?;
        g.segments
            .get(&segment)
            .cloned()
            .ok_or_else(|| not_found("segment"))
    }

    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        self.live()?.apply(Op::Open(segment), |g, _| {
            g.segments.entry(segment).or_default();
            g.active = Some(segment);
        })
    }

    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut g = self.live()?;
        let active = g
            .active
            .ok_or_else(|| io::Error::other("no active segment"))?;
        let op = Op::Append {
            index: g.appends,
            log_len: g.total_len() as u64,
            len: buf.len() as u64,
        };
        g.appends += 1;
        g.apply(op, |g, n| {
            let log = g.segments.entry(active).or_default();
            log.extend_from_slice(prefix(buf, n));
        })
    }

    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        let mut g = self.live()?;
        let bytes = g
            .segments
            .get_mut(&segment)
            .ok_or_else(|| not_found("segment"))?;
        bytes.truncate(len as usize);
        Ok(())
    }

    fn sync_log(&mut self) -> io::Result<()> {
        self.live().map(drop)
    }

    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.live()?.head.clone())
    }

    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        self.live()?
            .apply(Op::WriteHead, |g, n| g.head = Some(prefix(buf, n).to_vec()))
    }

    fn list_archives(&mut self) -> io::Result<Vec<u64>> {
        Ok(self.live()?.archives.keys().copied().collect())
    }

    fn read_archive(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        let g = self.live()?;
        g.archives
            .get(&segment)
            .cloned()
            .ok_or_else(|| not_found("archive"))
    }

    fn write_archive(&mut self, segment: u64, buf: &[u8]) -> io::Result<()> {
        self.live()?.apply(Op::WriteArchive(segment), |g, n| {
            g.archives.insert(segment, prefix(buf, n).to_vec());
        })
    }

    fn remove_segment_file(&mut self, segment: u64) -> io::Result<()> {
        let mut g = self.live()?;
        if g.active == Some(segment) {
            return Err(io::Error::other("refusing to remove the active segment"));
        }
        if !g.segments.contains_key(&segment) {
            return Err(not_found("segment"));
        }
        g.apply(Op::Remove(segment), |g, _| {
            g.segments.remove(&segment);
        })
    }

    fn read_manifest(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.live()?.manifest.clone())
    }

    fn write_manifest(&mut self, buf: &[u8]) -> io::Result<()> {
        self.live()?.apply(Op::WriteManifest, |g, n| {
            g.manifest = Some(prefix(buf, n).to_vec())
        })
    }

    fn archive_handle(&self) -> Option<Box<dyn AuditStorage>> {
        // the same Arc: a kill kills both handles at once, exactly the
        // way one dead process takes the writer and archiver together
        Some(Box::new(self.clone()))
    }
}

/// A test clock that only moves when [`advance`](ManualClock::advance) is
/// called, so TTL expiry and negative-cache recovery replay exactly.
#[derive(Debug)]
pub struct ManualClock {
    base: Instant,
    offset_nanos: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at construction time.
    pub fn new() -> Self {
        ManualClock {
            base: Instant::now(),
            offset_nanos: AtomicU64::new(0),
        }
    }

    /// Move the clock forward by `by` (never backward).
    pub fn advance(&self, by: Duration) {
        self.offset_nanos.fetch_add(
            by.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.offset_nanos.load(Ordering::SeqCst))
    }
}

/// A fault-injecting wrapper around another [`FeatureSource`], for
/// resilience tests: a configurable window of batched fetches fails (as a
/// feature store outage would), and every fetch can be stalled by an extra
/// latency. Failure is by *fetch index* — deterministic under a
/// single-shard service — and the wrapper counts fetches and failures so
/// tests can assert the outage actually happened.
pub struct FailingFeatureSource {
    inner: Arc<dyn FeatureSource>,
    fetches: AtomicU64,
    failures: AtomicU64,
    /// Fetch indices in `fail_from..fail_until` (0-based, half-open) fail.
    fail_from: u64,
    fail_until: u64,
    extra_latency: Duration,
}

impl FailingFeatureSource {
    /// Wrap `inner` with no faults configured (a passthrough).
    pub fn new(inner: Arc<dyn FeatureSource>) -> Self {
        FailingFeatureSource {
            inner,
            fetches: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            fail_from: 0,
            fail_until: 0,
            extra_latency: Duration::ZERO,
        }
    }

    /// Fail every batched fetch whose 0-based index falls in
    /// `from..until` — a bounded outage.
    pub fn fail_window(mut self, from: u64, until: u64) -> Self {
        self.fail_from = from;
        self.fail_until = until;
        self
    }

    /// Fail every fetch from `from` on — an outage that never heals.
    pub fn fail_from(self, from: u64) -> Self {
        self.fail_window(from, u64::MAX)
    }

    /// Stall every fetch (failing or not) by `latency` — a degraded, slow
    /// store rather than a dead one.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.extra_latency = latency;
        self
    }

    /// Batched fetches attempted so far.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }

    /// Fetches that were failed by injection.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
}

impl FeatureSource for FailingFeatureSource {
    fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
        let n = self.fetches.fetch_add(1, Ordering::Relaxed);
        if !self.extra_latency.is_zero() {
            std::thread::sleep(self.extra_latency);
        }
        if (self.fail_from..self.fail_until).contains(&n) {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(FactError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                format!("injected feature-store failure (fetch {n})"),
            )));
        }
        self.inner.fetch_batch(keys, inline)
    }
}
