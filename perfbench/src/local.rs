//! `local_flagged`: one in-process shard, a logistic model over the E11
//! lending population with a disparate group B, guards on and
//! `DegradePolicy::AuditAndFlag`. The fairness guard keeps tripping, so
//! nearly every decision is flagged and written through the hash-chained
//! `FileStorage` audit log, which rolls several segments per run while
//! guard checkpoints are written every `CHECKPOINT_EVERY` decisions.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fact_core::runtime::Alert;
use fact_data::Matrix;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::Classifier;
use fact_serve::{
    verify_all_segments, AuditSinkConfig, AuditStorage, CheckpointConfig, DecisionService,
    DegradePolicy, FeatureSource, FileStorage, GuardConfig, InlineFeatures, MetricsSnapshot,
    ServeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{self, Pass, PoolItem, Stop, LOCAL_SPANS};
use crate::host::{peak_rss_mib, RunDir};
use crate::layers::{AuditCounters, TimedClassifier, TimedSource, TimedStorage};
use crate::stats::{median, Outcome};
use crate::trace::{self, Layer, Recorder};
use crate::{Args, SUBRUNS};

const N_FEATURES: usize = 8;
const POOL: usize = 1 << 16;
const TRAIN_ROWS: usize = 20_000;
/// In flight at once: one full micro-batch. Deeper windows saturate the
/// audit writer and the run flips between a stalled and an unstalled
/// mode from one run to the next.
const WINDOW: usize = 32;
const WARMUP_OPS: u64 = 10_000;
const BATCH_MAX: usize = 32;
const CHECKPOINT_EVERY: u64 = 10_000;
const DP_INTERVAL: usize = 50_000;
const EPSILON_BUDGET: f64 = 5.0;
const SEGMENT_BYTES: u64 = 8 << 20;
/// Regime floors: below these the run is not the workload it claims.
const MIN_FLAGGED_RATIO: f64 = 0.9;
const MIN_BATCH_FILL: f64 = 0.5;

/// E11's model: a logistic regression on uniform features whose label
/// leans on the first two.
fn train(seed: u64) -> LogisticRegression {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(TRAIN_ROWS);
    let mut y = Vec::with_capacity(TRAIN_ROWS);
    for _ in 0..TRAIN_ROWS {
        let row: Vec<f64> = (0..N_FEATURES).map(|_| rng.gen::<f64>()).collect();
        y.push(row[0] + 0.2 * row[1] + 0.1 * rng.gen::<f64>() > 0.65);
        rows.push(row);
    }
    let x = Matrix::from_rows(&rows).expect("training matrix");
    let cfg = LogisticConfig {
        seed,
        ..LogisticConfig::default()
    };
    LogisticRegression::fit(&x, &y, None, &cfg).expect("model fit")
}

/// E11's lending population with group B's qualifying feature pushed far
/// enough down that the windowed disparate impact stays below 0.8.
fn lending_pool(seed: u64) -> Vec<PoolItem> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1e4d);
    (0..POOL)
        .map(|_| {
            let group_b = rng.gen_bool(0.3);
            let mut features: Vec<f64> = (0..N_FEATURES).map(|_| rng.gen::<f64>()).collect();
            features[0] = if group_b {
                rng.gen_range(0.0..0.6)
            } else {
                rng.gen_range(0.15..1.0)
            };
            (features, group_b)
        })
        .collect()
}

fn config(seed: u64, checkpoints: &Path, audit: &Path) -> ServeConfig {
    ServeConfig {
        shards: 1,
        n_features: N_FEATURES,
        queue_cap: 1_024,
        batch_max: BATCH_MAX,
        batch_linger: Duration::from_micros(200),
        default_timeout: Duration::from_secs(10),
        threshold: 0.5,
        policy: DegradePolicy::AuditAndFlag,
        trip_cooldown: 1_000,
        alert_debounce: 500,
        guards: Some(GuardConfig {
            fairness_window: 2_000,
            min_di: 0.8,
            min_samples_per_group: 50,
            dp_interval: DP_INTERVAL,
            epsilon_per_release: 0.01,
            epsilon_budget: EPSILON_BUDGET,
            drift: None,
        }),
        seed,
        audit: Some(AuditSinkConfig {
            path: audit.to_path_buf(),
            batch_max: 2_048,
            max_segment_bytes: SEGMENT_BYTES,
            ..AuditSinkConfig::default()
        }),
        checkpoint: Some(CheckpointConfig::new(checkpoints, CHECKPOINT_EVERY)),
        ..ServeConfig::default()
    }
}

/// One started service and where its audit log lives.
struct Started {
    service: DecisionService,
    model: Arc<LogisticRegression>,
    audit: PathBuf,
}

/// The system's own start path: model fit, then `DecisionService` start
/// (audit sink open and recovery, shard spawn). Every start gets fresh
/// checkpoint and audit directories.
fn start(
    args: &Args,
    dir: &RunDir,
    label: &str,
    traced: Option<(&Arc<Recorder>, &Arc<AuditCounters>)>,
) -> (Started, f64) {
    let checkpoints = dir.sub(&format!("{label}-checkpoints"));
    let audit = dir.sub(&format!("{label}-audit")).join("audit.jsonl");
    let cfg = config(args.seed, &checkpoints, &audit);
    let t0 = Instant::now();
    let model = Arc::new(train(args.seed));
    let storage = FileStorage::open(&audit).expect("open audit storage");
    let service = match traced {
        None => DecisionService::start_with_audit_storage(
            Arc::clone(&model) as Arc<dyn Classifier + Send + Sync>,
            cfg,
            Arc::new(InlineFeatures),
            Box::new(storage),
        ),
        Some((rec, counters)) => DecisionService::start_with_audit_storage(
            Arc::new(TimedClassifier {
                inner: Arc::clone(&model) as Arc<dyn Classifier + Send + Sync>,
                rec: Arc::clone(rec),
            }),
            cfg,
            Arc::new(TimedSource {
                inner: Arc::new(InlineFeatures) as Arc<dyn FeatureSource>,
                rec: Arc::clone(rec),
            }),
            Box::new(TimedStorage {
                inner: storage,
                rec: Arc::clone(rec),
                counters: Arc::clone(counters),
            }),
        ),
    }
    .expect("service start");
    let secs = t0.elapsed().as_secs_f64();
    (
        Started {
            service,
            model,
            audit,
        },
        secs,
    )
}

/// A warm-up pass and a timed pass against one service, its metrics
/// deltas over the timed pass, and the output checks once it shut down.
struct Served {
    warm: Pass,
    pass: Pass,
    batch_fill: f64,
    alerts: u64,
    epsilon_spent: f64,
    checkpoints: u64,
    /// Traced runs: the timed window in recorder time, and what the audit
    /// storage took in during it.
    audit_window: Option<AuditWindow>,
}

struct AuditWindow {
    start_ns: u64,
    end_ns: u64,
    entries: u64,
    bytes: u64,
    segments_opened: u64,
}

fn counters_now(c: &AuditCounters) -> [u64; 3] {
    [
        c.entries.load(Ordering::Relaxed),
        c.bytes.load(Ordering::Relaxed),
        c.segments_opened.load(Ordering::Relaxed),
    ]
}

fn serve(
    started: Started,
    pool: &[PoolItem],
    next_key: &mut u64,
    window: Duration,
    traced: Option<(&Recorder, &AuditCounters)>,
    failures: &mut Vec<String>,
) -> Served {
    let Started {
        service,
        model,
        audit,
    } = started;
    let warm = drive::run(
        &service,
        pool,
        next_key,
        WINDOW,
        Stop::Ops(WARMUP_OPS),
        None,
        &LOCAL_SPANS,
    );
    let before = service.metrics();
    let audit_before = traced.map(|(rec, c)| (rec.now(), counters_now(c)));
    let mut pass = drive::run(
        &service,
        pool,
        next_key,
        WINDOW,
        Stop::After(window),
        traced.map(|(rec, _)| rec),
        &LOCAL_SPANS,
    );
    let audit_window = traced.zip(audit_before).map(|((rec, c), (start_ns, b))| {
        let a = counters_now(c);
        AuditWindow {
            start_ns,
            end_ns: rec.now(),
            entries: a[0] - b[0],
            bytes: a[1] - b[1],
            segments_opened: a[2] - b[2],
        }
    });
    let after = service.metrics();
    let report = service.shutdown();
    let alerts = service.drain_alerts();

    let (items, batches) = batch_delta(&before, &after);
    let batch_fill = items as f64 / batches.max(1) as f64 / BATCH_MAX as f64;

    // --- regime guards ---
    if pass.flagged_ratio() < MIN_FLAGGED_RATIO {
        failures.push(format!(
            "flagged ratio {:.3} below the {MIN_FLAGGED_RATIO} floor",
            pass.flagged_ratio()
        ));
    }
    if batch_fill < MIN_BATCH_FILL {
        failures.push(format!(
            "batch fill {batch_fill:.3} below the {MIN_BATCH_FILL} floor"
        ));
    }
    if alerts
        .iter()
        .any(|a| matches!(a.alert, Alert::BudgetExhausted))
        || report.epsilon_spent >= EPSILON_BUDGET
    {
        failures.push(format!(
            "ε budget exhausted ({} of {EPSILON_BUDGET})",
            report.epsilon_spent
        ));
    }

    // --- output checks ---
    let mut bad_samples = 0;
    for (idx, decision) in &pass.samples {
        let x = Matrix::from_rows(std::slice::from_ref(&pool[*idx].0)).expect("row");
        let p = model.predict_proba(&x).expect("direct predict")[0];
        if p.to_bits() != decision.probability.to_bits() || decision.favorable != (p >= 0.5) {
            bad_samples += 1;
        }
    }
    if bad_samples > 0 {
        failures.push(format!(
            "{bad_samples} sampled decisions differ from a direct predict_proba"
        ));
        pass.failed += bad_samples;
    }
    if report.decisions_served != warm.succeeded() + pass.succeeded() {
        failures.push(format!(
            "decisions_served {} != warm-up {} + timed {}",
            report.decisions_served,
            warm.succeeded(),
            pass.succeeded()
        ));
    }
    if report.audited < report.flagged {
        failures.push(format!(
            "audited {} < flagged {}",
            report.audited, report.flagged
        ));
    }
    match FileStorage::open(&audit)
        .map(|mut s| verify_all_segments(&mut s as &mut dyn AuditStorage))
    {
        Ok(Ok(v)) if v.continuous && v.segments.len() >= 2 => {}
        Ok(Ok(v)) => failures.push(format!(
            "audit store: continuous={} over {} segments",
            v.continuous,
            v.segments.len()
        )),
        Ok(Err(e)) | Err(e) => failures.push(format!("audit verify: {e}")),
    }
    Served {
        warm,
        pass,
        batch_fill,
        alerts: after.alerts - before.alerts,
        epsilon_spent: report.epsilon_spent,
        checkpoints: report.checkpoints_written,
        audit_window,
    }
}

fn batch_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> (u64, u64) {
    let sum = |m: &MetricsSnapshot, f: fn(&fact_serve::ShardSnapshot) -> u64| -> u64 {
        m.shards.iter().map(f).sum()
    };
    (
        sum(after, |s| s.batch_items) - sum(before, |s| s.batch_items),
        sum(after, |s| s.batches) - sum(before, |s| s.batches),
    )
}

pub fn run(args: &Args) -> Outcome {
    let pool = lending_pool(args.seed);
    let mut out = Outcome::new();
    let mut failures = Vec::new();
    let mut next_key = 1u64;

    // Several short runs, each on a freshly started service, rather than
    // one long one: how the shard, audit writer and generator threads
    // share the two cores settles differently per start, so the median
    // over starts is what repeats.
    let sub_window = args.window(args.trace) / SUBRUNS as u32;
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    for sub in 0..SUBRUNS {
        let dir = RunDir::new("local_flagged").expect("run directory");
        let (started, secs) = start(args, &dir, &format!("run{sub}"), None);
        setups.push(secs);
        let plain = serve(
            started,
            &pool,
            &mut next_key,
            sub_window,
            None,
            &mut failures,
        );
        out.attempted += plain.pass.attempted;
        out.failed += plain.pass.failed;
        println!(
            "meta run={sub} warmup_ops={} warmup_failed={} mean_batch={:.2} flagged_ratio={:.4} alerts={} checkpoints={}",
            plain.warm.attempted,
            plain.warm.failed,
            plain.batch_fill * BATCH_MAX as f64,
            plain.pass.flagged_ratio(),
            plain.alerts,
            plain.checkpoints
        );
        runs.push(plain.pass.finish(sub));
    }

    if !args.trace {
        drive::report(&mut out, median(&setups), &runs);
        out.push("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
    } else {
        let dir = RunDir::new("local_flagged").expect("run directory");
        let rec = Arc::new(Recorder::new());
        let counters = Arc::new(AuditCounters::default());
        let (started, _) = start(args, &dir, "traced", Some((&rec, &counters)));
        let mut traced = serve(
            started,
            &pool,
            &mut next_key,
            args.window(true),
            Some((&rec, &counters)),
            &mut failures,
        );
        out.attempted += traced.pass.attempted;
        out.failed += traced.pass.failed;
        let w = traced.audit_window.take().expect("traced window");
        let window_s = (w.end_ns - w.start_ns) as f64 / 1e9;
        // wrappers also ran during start, warm-up and drain: keep the
        // timed window's spans only
        let (mut spans, dropped) = rec.take();
        spans.retain(|s| s.start >= w.start_ns && s.end <= w.end_ns);
        let layers = trace::layers(&spans);
        print!("{}", trace::render(&layers));
        println!("meta spans={} spans_dropped={dropped}", spans.len());
        let _ = trace::write_spans(Path::new(".bench_out/spans-local_flagged.jsonl"), &spans);

        let append_ms = Layer::total_ms(&layers, "audit_sink.append");
        let sync_ms = Layer::total_ms(&layers, "audit_sink.sync");
        let mut m = crate::PerLayer::default();
        m.set(
            "service.submit_us",
            Layer::median(&layers, "service.submit"),
        );
        m.set("service.wait_us", Layer::median(&layers, "service.wait"));
        m.set("service.batch_fill", traced.batch_fill);
        m.set("source.fetch_us", Layer::median(&layers, "source.fetch"));
        m.set("ml.predict_us", Layer::median(&layers, "ml.predict"));
        m.set("guards.flagged_ratio", traced.pass.flagged_ratio());
        m.set("guards.alerts", traced.alerts as f64);
        m.set("guards.epsilon_spent", traced.epsilon_spent);
        m.set(
            "audit_sink.append_us",
            Layer::median(&layers, "audit_sink.append"),
        );
        m.set(
            "audit_sink.sync_us",
            Layer::median(&layers, "audit_sink.sync"),
        );
        m.set(
            "audit_sink.busy_ratio",
            (append_ms + sync_ms) / 1e3 / window_s,
        );
        m.set("audit_sink.entries_per_s", w.entries as f64 / window_s);
        m.set(
            "audit_sink.bytes_per_entry",
            w.bytes as f64 / w.entries.max(1) as f64,
        );
        m.set("audit_sink.segments_opened", w.segments_opened as f64);
        m.set("checkpoint.writes", traced.checkpoints as f64);
        m.set("latency_p99_us", traced.pass.latency_us(0.99));
        m.set("warmup.ops", traced.warm.attempted as f64);
        m.overhead(drive::median_rate(&runs), traced.pass.sliced().ops_per_s);
        m.emit(&mut out);
    }
    out.correct = failures.is_empty();
    for f in &failures {
        println!("check FAILED: {f}");
    }
    out
}
