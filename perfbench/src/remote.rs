//! `remote_tcp`: a front-end `DecisionService` whose only shard is a
//! `ShardSlot::RemoteTcp` slot — one connection — to a `fact-shardd`
//! spawned per run on `127.0.0.1:0`. The worker hosts its default two
//! shards with its audit log and checkpoints in the run directory. The
//! population is at parity and the worker scores with its mean-of-features
//! model, so the guards stay quiet and the audit log is near idle.

use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_net::{Endpoint, RemoteShard};
use fact_serve::{DecisionRequest, DecisionService, ServeConfig, ShardSlot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::drive::{self, Pass, PoolItem, Stop, REMOTE_SPANS};
use crate::host::{peak_rss_mib, RunDir};
use crate::stats::{median, Outcome};
use crate::trace::{self, Layer, Recorder};
use crate::{Args, SUBRUNS};

const N_FEATURES: usize = 8;
const POOL: usize = 1 << 16;
/// In flight at once; below the worker's per-shard queue bound (64).
const WINDOW: usize = 32;
const WARMUP_OPS: u64 = 5_000;
const CHECKPOINT_EVERY: u64 = 10_000;
/// Sized so the worker's default per-shard ε budget (1.0 at 0.01 per
/// release) outlasts any run: 100 releases × 20k decisions per shard.
const DP_INTERVAL: u64 = 20_000;
/// Long enough that the disparate-impact estimate of a parity population
/// stays well clear of the 0.8 floor; the worker's default window (1000)
/// trips on sampling noise now and then.
const FAIRNESS_WINDOW: u64 = 5_000;
/// Regime ceiling: above it the guards are not quiet.
const MAX_FLAGGED_RATIO: f64 = 0.05;
const BANNER_WAIT: Duration = Duration::from_secs(30);
const EXIT_WAIT: Duration = Duration::from_secs(60);

/// The worker's model, restated: probability is the clamped mean of the
/// feature vector. The front-end never calls it (its only slot is
/// remote); the output check does.
struct MeanScorer;

impl Classifier for MeanScorer {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| mean_score(x.row(i))).collect())
    }
}

fn mean_score(row: &[f64]) -> f64 {
    let mean = row.iter().sum::<f64>() / row.len().max(1) as f64;
    mean.clamp(0.0, 1.0)
}

/// Both groups drawn from one distribution.
fn parity_pool(seed: u64) -> Vec<PoolItem> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c9);
    (0..POOL)
        .map(|_| {
            let group_b = rng.gen_bool(0.3);
            let features = (0..N_FEATURES).map(|_| rng.gen::<f64>()).collect();
            (features, group_b)
        })
        .collect()
}

/// The worker's exit line: `fact-shardd: drained; epochs=.. served=..
/// checkpoints=.. eps_spent=.. throttled=..`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitLine {
    pub served: u64,
    pub checkpoints: u64,
    pub eps_spent: f64,
    pub throttled: u64,
}

pub fn parse_exit_line(line: &str) -> Option<ExitLine> {
    let rest = line.strip_prefix("fact-shardd: drained;")?;
    let field = |key: &str| {
        rest.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    Some(ExitLine {
        served: field("served")?.parse().ok()?,
        checkpoints: field("checkpoints")?.parse().ok()?,
        eps_spent: field("eps_spent")?.parse().ok()?,
        throttled: field("throttled")?.parse().ok()?,
    })
}

/// A spawned `fact-shardd`, killed and reaped on drop unless it was shut
/// down cleanly first.
struct Worker {
    child: Child,
    addr: String,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    reaped: bool,
}

impl Worker {
    fn spawn(shardd: &Path, dir: &RunDir, label: &str) -> Result<Worker, String> {
        let checkpoints = dir.sub(&format!("{label}-checkpoints"));
        let audit = dir.sub(&format!("{label}-audit")).join("audit.jsonl");
        let mut child = Command::new(shardd)
            .args(["--tcp", "127.0.0.1:0", "--checkpoint-dir"])
            .arg(&checkpoints)
            .arg("--audit")
            .arg(&audit)
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .args(["--dp-interval", &DP_INTERVAL.to_string()])
            .args(["--fairness-window", &FAIRNESS_WINDOW.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", shardd.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
            {
                let _ = tx.send(line);
            }
        });
        let mut worker = Worker {
            child,
            addr: String::new(),
            lines,
            reader: Some(reader),
            reaped: false,
        };
        let deadline = Instant::now() + BANNER_WAIT;
        while worker.addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match worker.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("fact-shardd: listening on tcp:") {
                        worker.addr = addr.trim().to_string();
                    }
                }
                Err(_) => return Err("worker never announced its TCP address".into()),
            }
        }
        Ok(worker)
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Graceful stop through a `shutdown` control frame; returns the
    /// worker's exit line.
    fn shutdown(&mut self) -> Result<ExitLine, String> {
        let control = RemoteShard::connect_endpoint(Endpoint::Tcp(self.addr.clone()))
            .map_err(|e| format!("control connect: {e}"))?;
        control
            .control("shutdown", Duration::from_secs(30))
            .map_err(|e| format!("shutdown control: {e}"))?;
        drop(control);
        let deadline = Instant::now() + EXIT_WAIT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("worker did not exit after shutdown".into()),
            }
        };
        self.reaped = true;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            return Err(format!("worker exited with {status}"));
        }
        self.lines
            .try_iter()
            .find_map(|l| parse_exit_line(&l))
            .ok_or_else(|| "worker printed no exit line".into())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn front_end(addr: &str) -> Result<DecisionService, String> {
    DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: 1,
            n_features: N_FEATURES,
            guards: None,
            topology: Some(vec![ShardSlot::RemoteTcp(addr.to_string())]),
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("front-end start: {e}"))
}

/// The system's start path: worker spawn, its listening banner, then the
/// first answered decision through a fresh front-end.
fn start(
    args: &Args,
    dir: &RunDir,
    label: &str,
    pool: &[PoolItem],
    next_key: &mut u64,
) -> (Worker, DecisionService, f64) {
    let t0 = Instant::now();
    let worker = Worker::spawn(&args.shardd, dir, label).unwrap_or_else(|e| panic!("{e}"));
    let front = front_end(&worker.addr).unwrap_or_else(|e| panic!("{e}"));
    let (features, group_b) = &pool[0];
    front
        .decide(DecisionRequest {
            features: features.clone(),
            group_b: *group_b,
            route_key: *next_key,
            tenant: 0,
        })
        .expect("first decision");
    *next_key += 1;
    (worker, front, t0.elapsed().as_secs_f64())
}

/// One worker's warm-up and timed pass, its transport counters, and the
/// output checks after the worker drained.
struct Served {
    warm: Pass,
    pass: Pass,
    rtt_mean_us: f64,
    requests: u64,
    errors: u64,
    reconnects: u64,
    worker_served: u64,
    worker_checkpoints: u64,
    worker_eps_spent: f64,
    worker_rss_mib: f64,
}

fn serve(
    mut worker: Worker,
    front: DecisionService,
    pool: &[PoolItem],
    next_key: &mut u64,
    window: Duration,
    rec: Option<&Recorder>,
    failures: &mut Vec<String>,
) -> Served {
    let warm = drive::run(
        &front,
        pool,
        next_key,
        WINDOW,
        Stop::Ops(WARMUP_OPS),
        None,
        &REMOTE_SPANS,
    );
    let mut pass = drive::run(
        &front,
        pool,
        next_key,
        WINDOW,
        Stop::After(window),
        rec,
        &REMOTE_SPANS,
    );
    let stats = front.remote_stats().into_iter().next().expect("one remote");
    let worker_rss_mib = worker.peak_rss_mib().unwrap_or(0.0);
    front.shutdown();
    let exit = worker.shutdown();

    if pass.flagged_ratio() > MAX_FLAGGED_RATIO {
        failures.push(format!(
            "flagged ratio {:.4} above the {MAX_FLAGGED_RATIO} ceiling",
            pass.flagged_ratio()
        ));
    }
    let mut bad_samples = 0;
    for (idx, decision) in &pass.samples {
        let p = mean_score(&pool[*idx].0);
        if p.to_bits() != decision.probability.to_bits() {
            bad_samples += 1;
        }
    }
    if bad_samples > 0 {
        failures.push(format!(
            "{bad_samples} sampled probabilities differ from the clamped row mean"
        ));
        pass.failed += bad_samples;
    }
    if stats.errors != 0 || stats.reconnects != 0 {
        failures.push(format!(
            "transport errors={} reconnects={}",
            stats.errors, stats.reconnects
        ));
    }
    let (worker_served, worker_checkpoints, worker_eps_spent) = match exit {
        Ok(exit) => {
            // the set-up decision, the warm-up and the timed pass
            let expected = 1 + warm.succeeded() + pass.succeeded();
            if exit.served != expected {
                failures.push(format!(
                    "worker served {} != 1 + warm-up {} + timed {}",
                    exit.served,
                    warm.succeeded(),
                    pass.succeeded()
                ));
            }
            // below one shard's whole budget, so no shard can have run out
            if exit.eps_spent >= 1.0 {
                failures.push(format!("ε spent {} reaches a shard budget", exit.eps_spent));
            }
            (exit.served, exit.checkpoints, exit.eps_spent)
        }
        Err(e) => {
            failures.push(e);
            (0, 0, 0.0)
        }
    };
    Served {
        warm,
        pass,
        rtt_mean_us: stats.rtt_mean_micros,
        requests: stats.requests,
        errors: stats.errors,
        reconnects: stats.reconnects,
        worker_served,
        worker_checkpoints,
        worker_eps_spent,
        worker_rss_mib,
    }
}

pub fn run(args: &Args) -> Outcome {
    let pool = parity_pool(args.seed);
    let mut out = Outcome::new();
    let mut failures = Vec::new();
    let mut next_key = 1u64;

    // Several short runs, each against a freshly spawned worker: how the
    // front-end's and worker's threads share the two cores settles
    // differently per start, so the median over starts is what repeats.
    let sub_window = args.window(args.trace) / SUBRUNS as u32;
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut worker_rss_mib: f64 = 0.0;
    for sub in 0..SUBRUNS {
        let dir = RunDir::new("remote_tcp").expect("run directory");
        let (worker, front, secs) = start(args, &dir, &format!("run{sub}"), &pool, &mut next_key);
        setups.push(secs);
        let plain = serve(
            worker,
            front,
            &pool,
            &mut next_key,
            sub_window,
            None,
            &mut failures,
        );
        out.attempted += plain.pass.attempted;
        out.failed += plain.pass.failed;
        println!(
            "meta run={sub} warmup_ops={} warmup_failed={} flagged_ratio={:.4} rtt_mean_us={:.1} worker_served={}",
            plain.warm.attempted,
            plain.warm.failed,
            plain.pass.flagged_ratio(),
            plain.rtt_mean_us,
            plain.worker_served
        );
        worker_rss_mib = worker_rss_mib.max(plain.worker_rss_mib);
        runs.push(plain.pass.finish(sub));
    }

    if !args.trace {
        let own = peak_rss_mib("self").unwrap_or(0.0);
        drive::report(&mut out, median(&setups), &runs);
        out.push("peak_rss_mb", own + worker_rss_mib, "MiB");
    } else {
        let dir = RunDir::new("remote_tcp").expect("run directory");
        let rec = Recorder::new();
        let (worker, front, _) = start(args, &dir, "traced", &pool, &mut next_key);
        let traced = serve(
            worker,
            front,
            &pool,
            &mut next_key,
            args.window(true),
            Some(&rec),
            &mut failures,
        );
        out.attempted += traced.pass.attempted;
        out.failed += traced.pass.failed;
        let (spans, dropped) = rec.take();
        let layers = trace::layers(&spans);
        print!("{}", trace::render(&layers));
        println!("meta spans={} spans_dropped={dropped}", spans.len());
        let _ = trace::write_spans(Path::new(".bench_out/spans-remote_tcp.jsonl"), &spans);

        let mut m = crate::PerLayer::default();
        m.set("net.submit_us", Layer::median(&layers, "net.submit"));
        m.set("net.wait_us", Layer::median(&layers, "net.wait"));
        m.set("net.rtt_mean_us", traced.rtt_mean_us);
        m.set("net.requests", traced.requests as f64);
        m.set("net.errors", traced.errors as f64);
        m.set("net.reconnects", traced.reconnects as f64);
        m.set("worker.served", traced.worker_served as f64);
        m.set("worker.peak_rss_mb", traced.worker_rss_mib);
        m.set("guards.flagged_ratio", traced.pass.flagged_ratio());
        m.set("guards.epsilon_spent", traced.worker_eps_spent);
        m.set("checkpoint.writes", traced.worker_checkpoints as f64);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_line_parse() {
        let line = "fact-shardd: drained; epochs=1 served=123456 checkpoints=27 \
                    eps_spent=0.1200 throttled=0";
        assert_eq!(
            parse_exit_line(line),
            Some(ExitLine {
                served: 123_456,
                checkpoints: 27,
                eps_spent: 0.12,
                throttled: 0,
            })
        );
        assert_eq!(
            parse_exit_line("fact-shardd: listening on tcp:1.2.3.4:5"),
            None
        );
        assert_eq!(
            parse_exit_line("fact-shardd: drained; epochs=1 served=x checkpoints=1"),
            None
        );
    }

    #[test]
    fn mean_score_clamps() {
        assert_eq!(mean_score(&[0.2, 0.4]), 0.30000000000000004);
        assert_eq!(mean_score(&[2.0, 4.0]), 1.0);
        assert_eq!(mean_score(&[]), 0.0);
    }
}
