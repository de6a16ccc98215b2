//! Timing wrappers around the public seams the program already exposes:
//! [`Classifier`], [`FeatureSource`] and [`AuditStorage`]. They forward
//! every call unchanged and record one span per call, so the traced run
//! differs from the untraced one only by these wrappers.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fact_data::{Matrix, Result};
use fact_ml::Classifier;
use fact_serve::{AuditStorage, FeatureSource};

use crate::trace::{Recorder, Span};

thread_local! {
    /// Route keys of the micro-batch whose features this thread fetched
    /// last: the model call that follows on the same worker thread links
    /// to the same requests.
    static BATCH_KEYS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct TimedSource {
    pub inner: Arc<dyn FeatureSource>,
    pub rec: Arc<Recorder>,
}

impl FeatureSource for TimedSource {
    fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
        let start = self.rec.now();
        let out = self.inner.fetch_batch(keys, inline);
        let end = self.rec.now();
        BATCH_KEYS.with(|k| {
            let mut k = k.borrow_mut();
            k.clear();
            k.extend_from_slice(keys);
        });
        self.rec.record(Span {
            name: "source.fetch",
            start,
            end,
            parent: None,
            id: self.rec.fresh_id(),
            links: keys.to_vec(),
        });
        out
    }
}

pub struct TimedClassifier {
    pub inner: Arc<dyn Classifier + Send + Sync>,
    pub rec: Arc<Recorder>,
}

impl Classifier for TimedClassifier {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let start = self.rec.now();
        let out = self.inner.predict_proba(x);
        let end = self.rec.now();
        let links = BATCH_KEYS.with(|k| std::mem::take(&mut *k.borrow_mut()));
        self.rec.record(Span {
            name: "ml.predict",
            start,
            end,
            parent: None,
            id: self.rec.fresh_id(),
            links,
        });
        out
    }
}

/// What the audit writer pushed through its storage.
#[derive(Default)]
pub struct AuditCounters {
    pub bytes: AtomicU64,
    pub entries: AtomicU64,
    pub segments_opened: AtomicU64,
}

pub struct TimedStorage<S> {
    pub inner: S,
    pub rec: Arc<Recorder>,
    pub counters: Arc<AuditCounters>,
}

impl<S: AuditStorage> TimedStorage<S> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let start = self.rec.now();
        let out = f(&mut self.inner);
        self.rec.leaf(name, start, self.rec.now(), None);
        out
    }
}

impl<S: AuditStorage> AuditStorage for TimedStorage<S> {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        self.inner.list_segments()
    }
    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        self.inner.read_segment(segment)
    }
    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        self.counters
            .segments_opened
            .fetch_add(1, Ordering::Relaxed);
        self.timed("audit_sink.open", |s| s.open_segment(segment))
    }
    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.counters.entries.fetch_add(lines, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.timed("audit_sink.append", |s| s.append_log(buf))
    }
    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        self.inner.truncate_segment(segment, len)
    }
    fn sync_log(&mut self) -> io::Result<()> {
        self.timed("audit_sink.sync", |s| s.sync_log())
    }
    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_head()
    }
    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        self.timed("audit_sink.head", |s| s.write_head(buf))
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
