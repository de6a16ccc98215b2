//! `offline_audit`: E17's wide table spilled to a segment set, audited
//! repeatedly, plus one E9 guarded-stream pass per op. It runs
//! `fact-data` segments, `fact-par`, `fact-fairness` and the `fact-core`
//! runtime, and none of `fact-serve` or `fact-net` — the control for every
//! serving change.

use std::path::Path;
use std::time::Instant;

use fact_core::runtime::GuardedStream;
use fact_data::agg::{aggregate, aggregate_segments, AggFn, AggSpec};
use fact_data::bias::{group_rates, group_rates_segments, GroupRate};
use fact_data::stream::{Event, InternetMinute};
use fact_data::{Dataset, Predicate, ScanStats, SegmentSet, SegmentWriteConfig};
use fact_fairness::intersectional::IntersectionalReport;
use fact_fairness::intersectional::{intersectional_audit, intersectional_audit_segments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{peak_rss_mib, steal_ticks, RunDir};
use crate::stats::{median, percentile, quiet_half, Outcome};
use crate::trace::{self, Layer, Recorder};
use crate::{Args, SUBRUNS};

const ROWS: usize = 50_000;
const FILLER_COLS: usize = 28;
const ROWS_PER_SEGMENT: usize = 2_048;
const EVENTS: usize = 100_000;
const WARMUP_PASSES: u64 = 2;
/// The range predicate keeps the first tenth of the event-time column,
/// so zone maps prune most segments.
const PRUNED_SHARE: f64 = 0.10;
const MIN_CELL: usize = 30;
const GROUPS: [&str; 6] = ["asia", "europe", "africa", "americas", "oceania", "other"];
const GENDERS: [&str; 3] = ["f", "m", "x"];
const ATTRIBUTES: [&str; 2] = ["group", "gender"];
const SPECS: [AggSpec<'static>; 4] = [
    ("score", AggFn::Mean),
    ("score", AggFn::Sum),
    ("won", AggFn::Count),
    ("won", AggFn::Mean),
];

/// E17's wide shape with a second protected attribute: two categoricals,
/// a monotonic event time, a score, a boolean outcome and filler columns
/// no audit reads.
fn wide_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe17);
    let groups: Vec<&str> = (0..ROWS)
        .map(|_| GROUPS[rng.gen_range(0..GROUPS.len())])
        .collect();
    let genders: Vec<&str> = (0..ROWS)
        .map(|_| GENDERS[(rng.gen::<f64>() * 2.1) as usize])
        .collect();
    let ts: Vec<f64> = (0..ROWS).map(|i| i as f64).collect();
    let score: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let won: Vec<bool> = groups
        .iter()
        .map(|g| rng.gen_bool(if *g == "africa" { 0.3 } else { 0.4 }))
        .collect();
    let mut b = Dataset::builder()
        .cat("group", &groups)
        .cat("gender", &genders)
        .f64("ts", ts)
        .f64("score", score)
        .boolean("won", won);
    for c in 0..FILLER_COLS {
        let col: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(0.0..1.0)).collect();
        b = b.f64(format!("filler_{c:02}"), col);
    }
    b.build().expect("valid wide dataset")
}

fn pruning_predicate() -> Predicate {
    Predicate::Range {
        column: "ts".into(),
        min: 0.0,
        max: ROWS as f64 * PRUNED_SHARE,
    }
}

/// What one audit pass returns, kept for the checks after the window.
struct PassOutput {
    rates_full: Vec<GroupRate>,
    rates_pruned: Vec<GroupRate>,
    agg: Dataset,
    inter: IntersectionalReport,
    stream_audit_entries: u64,
    stream_alerts: usize,
    bytes_read: u64,
    segments_pruned: usize,
}

/// One op: four segment audits and one guarded-stream pass. With a
/// recorder, the pass is a root span and each call a child span.
fn audit_pass(set: &SegmentSet, events: &[Event], seed: u64, rec: Option<&Recorder>) -> PassOutput {
    let pass_id = rec.map(Recorder::fresh_id);
    let pass_start = rec.map_or(0, Recorder::now);
    let timed = |name: &'static str, f: &mut dyn FnMut()| {
        let start = rec.map_or(0, Recorder::now);
        f();
        if let Some(r) = rec {
            r.leaf(name, start, r.now(), pass_id);
        }
    };
    let mut scans: Vec<ScanStats> = Vec::with_capacity(4);
    let mut rates_full = Vec::new();
    timed("segment.rates_full", &mut || {
        let (r, s) = group_rates_segments(set, "won", "group", &Predicate::All).expect("rates");
        rates_full = r;
        scans.push(s);
    });
    let mut rates_pruned = Vec::new();
    let zone = pruning_predicate();
    let mut segments_pruned = 0;
    timed("segment.rates_pruned", &mut || {
        let (r, s) = group_rates_segments(set, "won", "group", &zone).expect("pruned rates");
        rates_pruned = r;
        segments_pruned = s.segments_pruned;
        scans.push(s);
    });
    let mut agg = None;
    timed("agg.aggregate", &mut || {
        let (a, s) = aggregate_segments(set, "group", &SPECS, &Predicate::All).expect("aggregate");
        agg = Some(a);
        scans.push(s);
    });
    let mut inter = None;
    timed("fairness.intersectional", &mut || {
        let (r, s) = intersectional_audit_segments(set, "won", &ATTRIBUTES, MIN_CELL)
            .expect("intersectional");
        inter = Some(r);
        scans.push(s);
    });
    let mut stream = None;
    timed("runtime.stream", &mut || {
        let mut g = GuardedStream::guarded(5_000, 0.8, 10_000, 50.0, 100, seed).expect("guards");
        for ev in events {
            g.process(ev);
        }
        std::hint::black_box(g.value_sum());
        stream = Some(g);
    });
    if let Some(r) = rec {
        r.record(trace::Span {
            name: "pass",
            start: pass_start,
            end: r.now(),
            parent: None,
            id: pass_id.expect("traced pass id"),
            links: Vec::new(),
        });
    }
    let stream = stream.expect("stream ran");
    PassOutput {
        rates_full,
        rates_pruned,
        agg: agg.expect("aggregate ran"),
        inter: inter.expect("intersectional ran"),
        stream_audit_entries: stream.audit_entries,
        stream_alerts: stream.alerts.len(),
        bytes_read: scans.iter().map(|s| s.bytes_read).sum(),
        segments_pruned,
    }
}

/// The in-memory results every pass must reproduce, computed once.
struct Expected {
    rates_full: Vec<GroupRate>,
    rates_pruned: Vec<GroupRate>,
    agg: Dataset,
    inter: IntersectionalReport,
    stream_audit_entries: u64,
    stream_alerts: usize,
}

fn expected(ds: &Dataset, events: &[Event], seed: u64) -> Expected {
    let hi = ROWS as f64 * PRUNED_SHARE;
    let mask: Vec<bool> = ds
        .f64_slice("ts")
        .expect("ts")
        .iter()
        .map(|&t| (0.0..=hi).contains(&t))
        .collect();
    let won = ds.bool_column("won").expect("won").to_vec();
    let mut g = GuardedStream::guarded(5_000, 0.8, 10_000, 50.0, 100, seed).expect("guards");
    for ev in events {
        g.process(ev);
    }
    Expected {
        rates_full: group_rates(ds, "won", "group").expect("rates"),
        rates_pruned: group_rates(&ds.filter(&mask).expect("filter"), "won", "group")
            .expect("pruned rates"),
        agg: aggregate(ds, "group", &SPECS).expect("aggregate"),
        inter: intersectional_audit(ds, &won, &ATTRIBUTES, MIN_CELL).expect("intersectional"),
        stream_audit_entries: g.audit_entries,
        stream_alerts: g.alerts.len(),
    }
}

/// Mismatches between one pass and the in-memory results.
fn check(got: &PassOutput, want: &Expected) -> Vec<String> {
    let mut bad = Vec::new();
    if got.rates_full != want.rates_full {
        bad.push("group rates differ".to_string());
    }
    if got.rates_pruned != want.rates_pruned {
        bad.push("pruned group rates differ".to_string());
    }
    if let Err(e) = same_aggregates(&got.agg, &want.agg) {
        bad.push(e);
    }
    let cells = |r: &IntersectionalReport| {
        let mut c: Vec<(Vec<String>, usize, u64, u64, bool)> = r
            .subgroups
            .iter()
            .map(|s| {
                (
                    s.labels.clone(),
                    s.n,
                    s.selection_rate.to_bits(),
                    s.impact_ratio.to_bits(),
                    s.small_cell,
                )
            })
            .collect();
        c.sort();
        (c, r.overall_rate.to_bits())
    };
    if cells(&got.inter) != cells(&want.inter) {
        bad.push("intersectional cells differ".to_string());
    }
    if (got.stream_audit_entries, got.stream_alerts)
        != (want.stream_audit_entries, want.stream_alerts)
    {
        bad.push(format!(
            "guarded stream audit/alerts {}/{} != {}/{}",
            got.stream_audit_entries,
            got.stream_alerts,
            want.stream_audit_entries,
            want.stream_alerts
        ));
    }
    bad
}

/// Same groups; counts exact, float aggregates equal up to summation
/// order.
fn same_aggregates(got: &Dataset, want: &Dataset) -> Result<(), String> {
    let labels = |d: &Dataset| d.labels("group").expect("key column");
    let (gl, wl) = (labels(got), labels(want));
    let mut sorted_g = gl.clone();
    let mut sorted_w = wl.clone();
    sorted_g.sort();
    sorted_w.sort();
    if sorted_g != sorted_w {
        return Err("aggregate groups differ".into());
    }
    for (wi, label) in wl.iter().enumerate() {
        let gi = gl.iter().position(|l| l == label).expect("label present");
        for col in ["score_mean", "score_sum", "won_count", "won_mean"] {
            let w = want.f64_column(col).expect("agg column")[wi];
            let g = got.f64_column(col).expect("agg column")[gi];
            let exact = col == "won_count";
            if (exact && g != w) || (g - w).abs() > 1e-9 * w.abs().max(1.0) {
                return Err(format!("aggregate {label}/{col}: {g} vs {w}"));
            }
        }
    }
    Ok(())
}

/// Passes per second from the interquartile mean of sorted pass times
/// (ms): the rate the loop sustains, unmoved by a few passes a burst of
/// host steal stretched.
fn steady_rate(sorted_ms: &[f64]) -> f64 {
    let n = sorted_ms.len();
    let mid = &sorted_ms[n / 4..(n - n / 4).max(n / 4 + 1).min(n)];
    1e3 * mid.len() as f64 / mid.iter().sum::<f64>().max(1e-9)
}

/// Passes run until a window elapsed.
struct Timed {
    /// Latency (ms) of each pass.
    lat_ms: Vec<f64>,
    /// Host steal ticks during each pass.
    steal: Vec<u64>,
    outs: Vec<PassOutput>,
    wall_s: f64,
}

impl Timed {
    /// Sorted latencies (ms) of the quietest half of the passes by host
    /// steal: time the hypervisor gave to other guests is noise from
    /// outside the program.
    fn quiet_sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = quiet_half(&self.steal)
            .into_iter()
            .map(|i| self.lat_ms[i])
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs passes until `window` has elapsed, then checks every pass's
/// outputs against `want`: passes count as attempted, and as failed when
/// a check fails.
#[allow(clippy::too_many_arguments)]
fn measured(
    set: &SegmentSet,
    events: &[Event],
    seed: u64,
    window: std::time::Duration,
    rec: Option<&Recorder>,
    want: &Expected,
    out: &mut Outcome,
    failures: &mut Vec<String>,
) -> Timed {
    let mut timed = Timed {
        lat_ms: Vec::new(),
        steal: Vec::new(),
        outs: Vec::new(),
        wall_s: 0.0,
    };
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let steal0 = steal_ticks().unwrap_or(0);
        let t = Instant::now();
        timed.outs.push(audit_pass(set, events, seed, rec));
        timed.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        timed
            .steal
            .push(steal_ticks().unwrap_or(0).saturating_sub(steal0));
    }
    timed.wall_s = t0.elapsed().as_secs_f64();
    for o in &timed.outs {
        let bad = check(o, want);
        if !bad.is_empty() {
            out.failed += 1;
            if failures.len() < 5 {
                failures.extend(bad);
            }
        }
    }
    out.attempted += timed.outs.len() as u64;
    timed
}

pub fn run(args: &Args) -> Outcome {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    fact_par::set_workers(workers);
    let dir = RunDir::new("offline_audit").expect("run directory");
    let ds = wide_dataset(args.seed);
    let events: Vec<Event> = InternetMinute::new(args.seed)
        .with_disparity(0.85, 0.65)
        .take(EVENTS)
        .collect();
    let want = expected(&ds, &events, args.seed);
    let cfg = SegmentWriteConfig {
        rows_per_segment: ROWS_PER_SEGMENT,
        ..Default::default()
    };

    let mut out = Outcome::new();
    let mut failures = Vec::new();
    // Several short runs, each on a freshly written segment set, whose
    // medians are reported, like the serving workloads' fresh starts.
    let sub_window = args.window(args.trace) / SUBRUNS as u32;
    let mut setups = Vec::new();
    let mut figures = Vec::new();
    let mut set = None;
    for sub in 0..SUBRUNS {
        let seg_dir = dir.sub(&format!("segments{sub}"));
        let t0 = Instant::now();
        ds.to_segments(&seg_dir, &cfg).expect("spill to segments");
        let opened = SegmentSet::open(&seg_dir).expect("open segment set");
        setups.push(t0.elapsed().as_secs_f64());
        for _ in 0..WARMUP_PASSES {
            failures.extend(check(&audit_pass(&opened, &events, args.seed, None), &want));
        }
        let timed = measured(
            &opened,
            &events,
            args.seed,
            sub_window,
            None,
            &want,
            &mut out,
            &mut failures,
        );
        let lat = timed.quiet_sorted_ms();
        let f = [
            steady_rate(&lat),
            percentile(&lat, 0.5) * 1e3,
            percentile(&lat, 0.9) * 1e3,
        ];
        println!(
            "meta run={sub} passes={} ops_per_s={:.3} p50_us={:.1} p90_us={:.1} whole_window_ops_per_s={:.3} \
             segments={} par_workers={} bytes_read_per_pass={} segments_pruned={}",
            timed.outs.len(),
            f[0],
            f[1],
            f[2],
            timed.outs.len() as f64 / timed.wall_s,
            opened.n_segments(),
            fact_par::workers(),
            timed.outs.first().map_or(0, |o| o.bytes_read),
            timed.outs.first().map_or(0, |o| o.segments_pruned),
        );
        figures.push(f);
        set = Some(opened);
    }
    let set = set.expect("at least one run");
    let med = |i: usize| median(&figures.iter().map(|f| f[i]).collect::<Vec<_>>());
    let ops_per_s = med(0);

    if !args.trace {
        out.push("setup_s", median(&setups), "s");
        out.push("ops_per_s", ops_per_s, "ops/s");
        out.push("latency_p50_us", med(1), "us");
        out.push("latency_p90_us", med(2), "us");
        out.push("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
    } else {
        let rec = Recorder::new();
        let traced = measured(
            &set,
            &events,
            args.seed,
            args.window(true),
            Some(&rec),
            &want,
            &mut out,
            &mut failures,
        );
        let touts = &traced.outs;
        let (spans, dropped) = rec.take();
        let layers = trace::layers(&spans);
        print!("{}", trace::render(&layers));
        println!("meta spans={} spans_dropped={dropped}", spans.len());
        let _ = trace::write_spans(Path::new(".bench_out/spans-offline_audit.jsonl"), &spans);
        let first = &touts[0];

        let mut m = crate::PerLayer::default();
        m.set(
            "segment.rates_full_us",
            Layer::median(&layers, "segment.rates_full"),
        );
        m.set(
            "segment.rates_pruned_us",
            Layer::median(&layers, "segment.rates_pruned"),
        );
        m.set("segment.bytes_read", first.bytes_read as f64);
        m.set("segment.segments_pruned", first.segments_pruned as f64);
        m.set("agg.aggregate_us", Layer::median(&layers, "agg.aggregate"));
        m.set(
            "fairness.intersectional_us",
            Layer::median(&layers, "fairness.intersectional"),
        );
        m.set(
            "runtime.stream_us",
            Layer::median(&layers, "runtime.stream"),
        );
        m.set("runtime.audit_entries", first.stream_audit_entries as f64);
        m.set("runtime.alerts", first.stream_alerts as f64);
        m.set("par.workers", fact_par::workers() as f64);
        let mut all = traced.lat_ms.clone();
        all.sort_by(f64::total_cmp);
        m.set("latency_p99_us", percentile(&all, 0.99) * 1e3);
        m.set("warmup.ops", WARMUP_PASSES as f64);
        m.overhead(ops_per_s, steady_rate(&traced.quiet_sorted_ms()));
        m.emit(&mut out);
    }
    out.correct = failures.is_empty();
    for f in &failures {
        println!("check FAILED: {f}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_uses_the_interquartile_mean() {
        // 8 passes: the middle four take 10 ms each
        let ms = [1.0, 2.0, 10.0, 10.0, 10.0, 10.0, 90.0, 99.0];
        assert!((steady_rate(&ms) - 100.0).abs() < 1e-9);
        assert!((steady_rate(&[20.0]) - 50.0).abs() < 1e-9);
    }
}
