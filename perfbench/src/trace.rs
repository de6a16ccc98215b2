//! Spans recorded from outside the program, and the per-layer self-time
//! report built from them.
//!
//! A span is `{name, start, end, parent, id}` plus optional `links`: a
//! micro-batch span (feature fetch, model call) links to the request ids
//! it served, which makes it a child of each of those requests. A layer's
//! self time is its spans' duration minus the time their children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::percentile;

/// Ids at or above this are span-local; below it they are request ids
/// (route keys), so the two never collide.
const LOCAL_ID_BASE: u64 = 1 << 62;

/// Most spans kept in memory per recorder; later ones are counted, not
/// stored, so a long traced window cannot exhaust memory.
const SPAN_CAP: usize = 1_500_000;

/// Spans written to the trace file at the end of a run (the report always
/// covers every stored span).
const SPANS_WRITTEN: usize = 100_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u64>,
    pub id: u64,
    pub links: Vec<u64>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store shared by the caller thread and the wrappers.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: AtomicU64::new(LOCAL_ID_BASE),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span-local id.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span store");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a span with a fresh id.
    pub fn leaf(&self, name: &'static str, start: u64, end: u64, parent: Option<u64>) {
        let id = self.fresh_id();
        self.record(Span {
            name,
            start,
            end,
            parent,
            id,
            links: Vec::new(),
        });
    }

    pub fn take(&self) -> (Vec<Span>, u64) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span store"));
        (spans, self.dropped.load(Ordering::Relaxed))
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to that interval.
pub fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus what its children cover.
/// A span's children are the spans naming it as `parent` or in `links`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        for &p in s.parent.iter().chain(&s.links) {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| match children.get_mut(&s.id) {
            Some(c) => s.duration() - covered(s.start, s.end, c),
            None => s.duration(),
        })
        .collect()
}

/// Per-layer summary of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub calls: usize,
    pub median_us: f64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn layers(spans: &[Span]) -> Vec<Layer> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&'static str, Vec<f64>, f64)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let i = match by_name.iter().position(|(n, _, _)| *n == s.name) {
            Some(i) => i,
            None => {
                by_name.push((s.name, Vec::new(), 0.0));
                by_name.len() - 1
            }
        };
        by_name[i].1.push(s.duration() as f64);
        by_name[i].2 += own as f64;
    }
    by_name
        .into_iter()
        .map(|(name, mut durs, own)| {
            durs.sort_by(f64::total_cmp);
            Layer {
                name,
                calls: durs.len(),
                median_us: percentile(&durs, 0.5) / 1e3,
                total_ms: durs.iter().sum::<f64>() / 1e6,
                self_ms: own / 1e6,
            }
        })
        .collect()
}

impl Layer {
    pub fn find<'a>(layers: &'a [Layer], name: &str) -> Option<&'a Layer> {
        layers.iter().find(|l| l.name == name)
    }

    /// Median duration of one call, or 0 when the layer never ran.
    pub fn median(layers: &[Layer], name: &str) -> f64 {
        Self::find(layers, name).map_or(0.0, |l| l.median_us)
    }

    pub fn total_ms(layers: &[Layer], name: &str) -> f64 {
        Self::find(layers, name).map_or(0.0, |l| l.total_ms)
    }
}

/// The self-time table printed before the result line.
pub fn render(layers: &[Layer]) -> String {
    let mut out = format!(
        "trace {:<26} {:>9} {:>11} {:>11} {:>11} {:>13}\n",
        "layer", "calls", "median_us", "total_ms", "self_ms", "self_mean_us"
    );
    for l in layers {
        out.push_str(&format!(
            "trace {:<26} {:>9} {:>11.3} {:>11.1} {:>11.1} {:>13.3}\n",
            l.name,
            l.calls,
            l.median_us,
            l.total_ms,
            l.self_ms,
            1e3 * l.self_ms / l.calls.max(1) as f64
        ));
    }
    out
}

/// Write the first spans as JSON lines (`{name,start,end,parent,id,links}`,
/// times in ns since the recorder's origin).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(SPANS_WRITTEN) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let links: Vec<String> = s.links.iter().map(u64::to_string).collect();
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"id\":{},\"links\":[{}]}}",
            s.name,
            s.start,
            s.end,
            s.id,
            links.join(",")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u64>, id: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id,
            links: Vec::new(),
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut c = vec![(15, 30), (10, 20), (40, 60), (95, 120)];
        // [10,30) ∪ [40,60) ∪ [95,100) clipped to [0,100)
        assert_eq!(covered(0, 100, &mut c), 20 + 20 + 5);
        let mut nested = vec![(10, 50), (20, 30)];
        assert_eq!(covered(0, 100, &mut nested), 40);
        assert_eq!(covered(0, 100, &mut []), 0);
    }

    #[test]
    fn self_time_subtracts_parented_and_linked_children() {
        let mut batch = span("source.fetch", 40, 70, None, LOCAL_ID_BASE + 9);
        batch.links = vec![1, 2];
        let spans = vec![
            span("request", 0, 100, None, 1),
            span("service.submit", 0, 10, Some(1), LOCAL_ID_BASE),
            span("service.wait", 30, 100, Some(1), LOCAL_ID_BASE + 1),
            span("request", 20, 80, None, 2),
            batch,
        ];
        let selfs = self_times(&spans);
        // request 1: 100 − ([0,10) ∪ [30,100)) = 20; batch inside wait
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 70);
        // request 2: 60 − [40,70) = 30
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 30);

        let l = layers(&spans);
        let req = Layer::find(&l, "request").unwrap();
        assert_eq!(req.calls, 2);
        assert_eq!(req.self_ms, 50.0 / 1e6);
        assert_eq!(Layer::median(&l, "service.wait"), 0.07);
        assert_eq!(Layer::median(&l, "absent"), 0.0);
    }

    #[test]
    fn recorder_caps_nothing_below_the_limit() {
        let r = Recorder::new();
        let id = r.fresh_id();
        assert!(id >= LOCAL_ID_BASE);
        r.leaf("x", 1, 2, Some(7));
        let (spans, dropped) = r.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(dropped, 0);
        assert_eq!(spans[0].parent, Some(7));
    }
}
