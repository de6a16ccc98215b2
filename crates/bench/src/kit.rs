//! The experiment-harness kit: the worker process, scratch directories,
//! workloads, models and run plumbing that the `exp_e*` binaries and the
//! root integration tests share.
//!
//! The kit owns no configuration. Every helper takes the values its
//! caller already owns — `fact-shardd` flag lists, feature counts, tags —
//! so a harness reads the same as when it carried its own copy.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fact_data::Matrix;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::Classifier;
use fact_net::{ControlAckWire, Endpoint, RemoteShard};
use fact_serve::audit_sink::{verify_all_segments, AuditStorage, FileStorage};
use fact_serve::{
    AuditEvent, AuditSinkConfig, DecisionRequest, DecisionService, ServeConfig, ShardSlot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Run plumbing
// ---------------------------------------------------------------------------

/// How much of an experiment to run: `--smoke` is the reduced CI gate,
/// no argument the full run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Smoke,
    Full,
}

impl Mode {
    /// Parse the arguments after the program name. `--smoke` is the only
    /// one there is; anything else is an error that names it.
    pub fn parse<I, S>(args: I) -> Result<Mode, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut mode = Mode::Full;
        for arg in args {
            match arg.as_ref() {
                "--smoke" => mode = Mode::Smoke,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(mode)
    }

    /// This process's mode. Any argument but `--smoke` prints a usage line
    /// and exits 2, so a typo never runs the full experiment and rewrites
    /// its committed `results/*.txt`. Every `exp_*` binary calls it;
    /// one without a reduced run (E1–E8, E10, the ablations) calls it only
    /// to refuse stray arguments and runs in full under `--smoke` too.
    pub fn from_args() -> Mode {
        let mut args = std::env::args();
        let program = args
            .next()
            .as_deref()
            .and_then(|p| Path::new(p).file_name())
            .map_or_else(|| "exp".into(), |n| n.to_string_lossy().into_owned());
        Mode::parse(args).unwrap_or_else(|e| {
            eprintln!("{program}: {e}\nusage: {program} [--smoke]");
            std::process::exit(2)
        })
    }

    pub fn is_smoke(self) -> bool {
        self == Mode::Smoke
    }
}

/// Write a full run's table to `results/<name>.txt` and say so.
pub fn write_results(name: &str, table: &str) {
    let path = format!("results/{name}.txt");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, table).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Nearest-rank percentile: sorts `samples` and returns
/// `sorted[ceil(pct·n/100) − 1]`, the smallest sample with at least
/// `pct`% of the samples at or below it.
///
/// # Panics
/// On an empty sample set, or `pct` outside `1..=100`.
pub fn percentile<T: Ord + Copy>(samples: &mut [T], pct: usize) -> T {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    samples.sort_unstable();
    samples[(pct * samples.len()).div_ceil(100) - 1]
}

/// A pid-tagged scratch directory, created empty and removed on drop —
/// also when a failed assert unwinds through its owner.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `fact-<tag>-<pid>` under the system temp dir.
    pub fn new(tag: &str) -> ScratchDir {
        ScratchDir::under(&std::env::temp_dir(), tag)
    }

    /// `fact-<tag>-<pid>` under `parent`.
    pub fn under(parent: &Path, tag: &str) -> ScratchDir {
        let root = parent.join(format!("fact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap_or_else(|e| panic!("create {}: {e}", root.display()));
        ScratchDir(root)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// The fact-shardd worker process
// ---------------------------------------------------------------------------

const TCP_BANNER: &str = "fact-shardd: listening on tcp:";
const EXIT_LINE: &str = "fact-shardd: drained;";

/// The `fact-shardd` binary next to the running experiment binary: cargo
/// builds both into the same target directory.
pub fn shardd_path() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let path = me.parent().expect("bin dir").join("fact-shardd");
    assert!(
        path.exists(),
        "fact-shardd not found at {} — build it first (cargo build --release --bin fact-shardd)",
        path.display()
    );
    path
}

/// A spawned `fact-shardd` worker. `std::process::Child` does not kill on
/// drop, so dropping a `Shardd` whose worker still runs kills and reaps
/// it: a failed assert never leaves an orphan worker behind.
pub struct Shardd {
    child: Child,
    endpoint: Endpoint,
    /// TCP workers only: stdout after the banner, drained by a background
    /// thread so the worker never blocks on a full pipe.
    stdout: Option<mpsc::Receiver<String>>,
}

impl Shardd {
    /// Spawn `bin` on the Unix socket `socket` with the flags `flags` adds;
    /// returns once the worker accepts connections.
    pub fn unix(bin: &Path, socket: &Path, flags: impl FnOnce(&mut Command)) -> Shardd {
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(socket);
        flags(&mut cmd);
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fact-shardd");
        let mut worker = Shardd {
            child,
            endpoint: Endpoint::Unix(socket.to_path_buf()),
            stdout: None,
        };
        worker.wait_listening();
        worker
    }

    /// Spawn `bin` on an ephemeral TCP port with the flags `flags` adds;
    /// returns once the worker has announced its resolved address.
    pub fn tcp(bin: &Path, flags: impl FnOnce(&mut Command)) -> Shardd {
        let mut cmd = Command::new(bin);
        cmd.args(["--tcp", "127.0.0.1:0"]);
        flags(&mut cmd);
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fact-shardd");
        let out = BufReader::new(child.stdout.take().expect("worker stdout"));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in out.lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        // own the child before waiting on its banner, so a worker that
        // never announces an address is killed by the panic's unwind
        let mut worker = Shardd {
            child,
            endpoint: Endpoint::Tcp(String::new()),
            stdout: Some(rx),
        };
        worker.endpoint = Endpoint::Tcp(worker.line_after(TCP_BANNER).trim().to_string());
        worker
    }

    /// Where the worker listens (for TCP, the resolved address).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The front-end topology slot that dials this worker.
    pub fn slot(&self) -> ShardSlot {
        match &self.endpoint {
            Endpoint::Unix(path) => ShardSlot::Remote(path.clone()),
            Endpoint::Tcp(addr) => ShardSlot::RemoteTcp(addr.clone()),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh client connection to the worker.
    pub fn connect(&self) -> RemoteShard {
        RemoteShard::connect_endpoint(self.endpoint.clone()).expect("connect to fact-shardd")
    }

    /// Send one control command over a fresh connection; returns the ack.
    pub fn control(&self, command: &str, timeout: Duration) -> ControlAckWire {
        let ack = self
            .connect()
            .control(command, timeout)
            .unwrap_or_else(|e| panic!("control {command:?}: {e}"));
        fact_net::decode(&ack.payload).expect("control ack")
    }

    /// SIGKILL the worker and reap it — the crash a recovery phase injects.
    pub fn kill(&mut self) {
        self.child.kill().expect("SIGKILL worker");
        self.child.wait().expect("reap worker");
    }

    /// Drain the worker: send `shutdown`, then demand it exits 0.
    pub fn shutdown(&mut self) {
        let ack = self.control("shutdown", Duration::from_secs(30));
        assert!(ack.ok, "shutdown refused: {}", ack.info);
        let status = self.child.wait().expect("reap worker");
        assert!(status.success(), "graceful shutdown must exit 0: {status}");
    }

    /// The exit line a drained TCP worker prints, whole.
    pub fn exit_line(&self) -> String {
        format!("{EXIT_LINE}{}", self.line_after(EXIT_LINE))
    }

    /// The rest of the next stdout line that starts with `prefix`.
    fn line_after(&self, prefix: &str) -> String {
        let lines = self
            .stdout
            .as_ref()
            .expect("only TCP workers capture stdout");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return rest.to_string();
                    }
                }
                Err(e) => panic!("fact-shardd printed no {prefix:?} line: {e}"),
            }
        }
    }

    /// Block until the worker accepts connections (bounded).
    fn wait_listening(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let Err(e) = RemoteShard::connect_endpoint(self.endpoint.clone()) else {
                return;
            };
            if let Some(status) = self.child.try_wait().expect("poll worker") {
                panic!(
                    "fact-shardd exited before listening on {}: {status}",
                    self.endpoint
                );
            }
            assert!(
                Instant::now() < deadline,
                "worker never came up on {}: {e}",
                self.endpoint
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Models and workloads
// ---------------------------------------------------------------------------

/// The model `fact-shardd` hosts: probability is the mean of the feature
/// vector, clamped to [0, 1], so local and remote harness columns score
/// identical work. `tests/shardd_cli.rs` pins the worker to this copy.
pub struct MeanScorer;

impl Classifier for MeanScorer {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mean = row.iter().sum::<f64>() / row.len().max(1) as f64;
                mean.clamp(0.0, 1.0)
            })
            .collect())
    }
}

/// Probability = first feature, clamped — for harnesses where the model is
/// beside the point.
pub struct PassThrough;

impl Classifier for PassThrough {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
    }
}

/// A disparate lending request for [`MeanScorer`]: group B (30% of
/// traffic) scores low, so the fairness monitor trips and flagged
/// decisions flow to the audit log.
pub fn disparate_request(rng: &mut StdRng, key: u64, n_features: usize) -> DecisionRequest {
    let group_b = rng.gen_bool(0.3);
    let center = if group_b { 0.30 } else { 0.70 };
    let features: Vec<f64> = (0..n_features)
        .map(|_| (center + rng.gen_range(-0.15f64..0.15)).clamp(0.0, 1.0))
        .collect();
    DecisionRequest {
        features,
        group_b,
        route_key: key,
        tenant: 0,
    }
}

/// A logistic model fit on 2 000 rows of the synthetic lending population
/// that [`lending_request`] samples.
pub fn train_model(seed: u64, n_features: usize) -> LogisticRegression {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2_000;
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..n_features).map(|_| rng.gen::<f64>()).collect();
        let score = row[0] + 0.2 * row[1] + 0.1 * rng.gen::<f64>();
        y.push(score > 0.65);
        rows.push(row);
    }
    let x = Matrix::from_rows(&rows).unwrap();
    let cfg = LogisticConfig {
        seed,
        ..LogisticConfig::default()
    };
    LogisticRegression::fit(&x, &y, None, &cfg).unwrap()
}

/// One serving request from the synthetic lending population: group B's
/// qualifying feature is mildly depressed, so the fairness guard has real
/// work to do.
pub fn lending_request(rng: &mut StdRng, key: u64, n_features: usize) -> DecisionRequest {
    let group_b = rng.gen_bool(0.3);
    let mut features: Vec<f64> = (0..n_features).map(|_| rng.gen::<f64>()).collect();
    features[0] = if group_b {
        rng.gen_range(0.0..0.85)
    } else {
        rng.gen_range(0.15..1.0)
    };
    DecisionRequest {
        features,
        group_b,
        route_key: key,
        tenant: 0,
    }
}

/// An unguarded front-end whose one shard is the remote worker at `slot`.
pub fn remote_client(slot: ShardSlot, n_features: usize) -> DecisionService {
    DecisionService::start(
        Arc::new(MeanScorer),
        ServeConfig {
            shards: 1,
            n_features,
            guards: None,
            topology: Some(vec![slot]),
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("start remote client")
}

/// Drive `n` [`disparate_request`]s; returns how many were served (errors
/// tolerated — under a kill some in-flight requests die with the worker).
pub fn drive(
    client: &DecisionService,
    rng: &mut StdRng,
    n: u64,
    key_base: u64,
    n_features: usize,
) -> u64 {
    let mut served = 0;
    for i in 0..n {
        if client
            .decide(disparate_request(rng, key_base + i, n_features))
            .is_ok()
        {
            served += 1;
        }
    }
    served
}

/// Serve `n` decisions with maximal disparity under [`PassThrough`]: group
/// B (even keys) scores 0.1, group A 0.9. Returns how many were served.
pub fn run_disparity(service: &DecisionService, n: u64) -> u64 {
    let mut served = 0;
    for i in 0..n {
        let group_b = i.is_multiple_of(2);
        let ok = service
            .decide(DecisionRequest {
                features: vec![if group_b { 0.1 } else { 0.9 }],
                group_b,
                route_key: i,
                tenant: 0,
            })
            .is_ok();
        served += u64::from(ok);
    }
    served
}

/// A flagged-decision audit event for route `key`.
pub fn flagged(key: u64) -> AuditEvent {
    AuditEvent::Flagged {
        shard: 0,
        route_key: key,
        probability: 0.125,
        favorable: false,
        group_b: key.is_multiple_of(2),
    }
}

/// An audit sink flushing batches of up to `batch_max` every millisecond.
pub fn sink_config(batch_max: usize) -> AuditSinkConfig {
    AuditSinkConfig {
        batch_max,
        flush_interval: Duration::from_millis(1),
        ..AuditSinkConfig::default()
    }
}

/// Verify the on-disk audit log at `path` segment by segment: it must be
/// non-empty, every segment must verify and the chain must be continuous.
/// Returns (segments, entries).
pub fn verify_audit_log(path: &Path) -> (usize, u64) {
    let mut storage = FileStorage::open(path).expect("open audit log");
    let report = verify_all_segments(&mut storage as &mut dyn AuditStorage).expect("verify");
    assert!(
        !report.segments.is_empty(),
        "flagged decisions must be logged"
    );
    assert!(report.continuous, "audit chain must be continuous");
    let mut entries = 0u64;
    for (id, verdict) in &report.segments {
        let check = verdict
            .as_ref()
            .unwrap_or_else(|e| panic!("audit segment {id} failed verification: {e:?}"));
        entries += check.entries;
    }
    (report.segments.len(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let p99 = |n: u64| percentile(&mut (0..n).rev().collect::<Vec<_>>(), 99);
        assert_eq!(p99(1), 0);
        assert_eq!(p99(2), 1);
        assert_eq!(p99(100), 98);
        assert_eq!(p99(101), 99);
        assert_eq!(p99(1000), 989);
        assert_eq!(percentile(&mut [3, 1, 2], 50), 2);
        assert_eq!(percentile(&mut [3, 1, 2], 100), 3);
    }

    #[test]
    #[should_panic(expected = "percentile of an empty sample set")]
    fn percentile_of_nothing_panics() {
        percentile::<u64>(&mut [], 99);
    }

    #[test]
    fn mode_accepts_only_smoke() {
        assert_eq!(Mode::parse([] as [&str; 0]), Ok(Mode::Full));
        assert_eq!(Mode::parse(["--smoke"]), Ok(Mode::Smoke));
        assert_eq!(
            Mode::parse(["--smok"]),
            Err("unknown argument \"--smok\"".to_string())
        );
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = ScratchDir::new("kit-scratch-test");
        let path = dir.path().to_path_buf();
        std::fs::write(dir.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }
}
