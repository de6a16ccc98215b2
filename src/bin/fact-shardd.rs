//! `fact-shardd` — a FACT shard worker process.
//!
//! Hosts N guarded decision shards behind a Unix-domain socket and/or a
//! TCP listener speaking the fact-net frame protocol (the normative wire
//! spec is `PROTOCOL.md` at the repository root; the operator runbook is
//! `OPERATIONS.md`). A front-end `DecisionService` configured with
//! `ShardSlot::Remote(socket)` or `ShardSlot::RemoteTcp(addr)` routes
//! decisions here exactly as it would to an in-process worker thread.
//!
//! Guard state (fairness window, ε ledger, DP counters) is checkpointed to
//! sidecar files in `--checkpoint-dir` every `--checkpoint-every` decisions
//! and on graceful shutdown. On startup each shard restores from its
//! sidecar if one exists, so a respawned worker *resumes* its monitors
//! instead of silently resetting them — after a hard kill the loss is
//! bounded by the checkpoint interval.
//!
//! A `Control {"command":"reshard <M>"}` frame runs
//! `DecisionService::reshard` on the hosted service: it drains the current
//! topology, transforms the checkpoint sidecars from N to M shards
//! (conserving the fairness windows and ε ledgers), and restarts with M
//! shards while the audit log stays open — requests that arrive during the
//! cutover are held up to `--reshard-hold-ms` and replayed, never silently
//! dropped.
//!
//! Shutdown paths:
//! - `Control {"command":"shutdown"}` frame: acked first, then the worker
//!   drains, writes final checkpoints, and exits 0.
//! - SIGKILL: no cleanup (that is the point); the next start restores the
//!   last periodic checkpoint.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use fact_data::Matrix;
use fact_ml::Classifier;
use fact_net::{Endpoint, Server, ShardHandler, DEFAULT_FRAME_DEADLINE};
use fact_serve::{
    AdmissionConfig, ArchiveConfig, AuditSinkConfig, CheckpointConfig, DecisionService,
    DegradePolicy, GuardConfig, NetShardHandler, ServeConfig,
};

const USAGE: &str = "\
usage: fact-shardd (--socket PATH | --tcp ADDR) --checkpoint-dir DIR [options]

options:
  --socket PATH            Unix socket to listen on
  --tcp ADDR               TCP host:port to listen on (port 0 picks one;
                           the resolved address is printed at startup);
                           may be combined with --socket
  --checkpoint-dir DIR     guard-state sidecar directory (required)
  --shards N               worker shards to host            [default: 2]
  --n-features N           feature-vector length            [default: 8]
  --checkpoint-every N     decisions between checkpoints    [default: 500]
  --dp-interval N          decisions between DP releases    [default: 200]
  --fairness-window N      fairness monitor window          [default: 1000]
  --audit PATH             durable audit log (JSONL); off when absent
  --audit-segment-bytes N  roll the audit log to a new segment past this
                           size                             [default: 67108864]
  --archive-retain N       background-archive sealed audit segments,
                           keeping the newest N uncompressed; requires
                           --audit; archiving off when absent
  --archive-tick-ms MS     archiver scan interval           [default: 500]
  --queue-cap N            per-shard queue bound            [default: 64]
  --reshard-hold-ms MS     longest a request parks at the cutover gate
                           during a live reshard            [default: 5000]
  --target-p99-us MICROS   enable adaptive admission control with this
                           latency target; off when absent
  --tenant-rate R          per-tenant admitted req/s quota  [default: 0 = off]
  --tenant-burst B         per-tenant burst allowance       [default: 256]
";

/// The worker's deterministic demo model: probability is the mean of the
/// feature vector, clamped to [0, 1]. The experiment harnesses score with
/// `bench::kit::MeanScorer`; `tests/shardd_cli.rs`
/// (`worker_model_is_the_kit_mean_scorer`) pins the two together.
struct MeanScorer;

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

struct Args {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    checkpoint_dir: PathBuf,
    shards: usize,
    n_features: usize,
    checkpoint_every: u64,
    dp_interval: usize,
    fairness_window: usize,
    audit: Option<PathBuf>,
    audit_segment_bytes: Option<u64>,
    archive_retain: Option<u64>,
    archive_tick_ms: u64,
    queue_cap: usize,
    reshard_hold_ms: u64,
    target_p99_us: Option<u64>,
    tenant_rate: f64,
    tenant_burst: f64,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut socket = None;
    let mut tcp = None;
    let mut checkpoint_dir = None;
    let mut shards = 2usize;
    let mut n_features = 8usize;
    let mut checkpoint_every = 500u64;
    let mut dp_interval = 200usize;
    let mut fairness_window = 1_000usize;
    let mut audit = None;
    let mut audit_segment_bytes = None;
    let mut archive_retain = None;
    let mut archive_tick_ms = 500u64;
    let mut queue_cap = 64usize;
    let mut reshard_hold_ms = 5_000u64;
    let mut target_p99_us = None;
    let mut tenant_rate = 0.0f64;
    let mut tenant_burst = 256.0f64;

    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--tcp" => tcp = Some(value("--tcp")?),
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?)),
            "--shards" => shards = parse_num(&value("--shards")?, "--shards")?,
            "--n-features" => n_features = parse_num(&value("--n-features")?, "--n-features")?,
            "--checkpoint-every" => {
                checkpoint_every = parse_num(&value("--checkpoint-every")?, "--checkpoint-every")?
            }
            "--dp-interval" => dp_interval = parse_num(&value("--dp-interval")?, "--dp-interval")?,
            "--fairness-window" => {
                fairness_window = parse_num(&value("--fairness-window")?, "--fairness-window")?
            }
            "--audit" => audit = Some(PathBuf::from(value("--audit")?)),
            "--audit-segment-bytes" => {
                audit_segment_bytes = Some(parse_num(
                    &value("--audit-segment-bytes")?,
                    "--audit-segment-bytes",
                )?)
            }
            "--archive-retain" => {
                archive_retain = Some(parse_num(&value("--archive-retain")?, "--archive-retain")?)
            }
            "--archive-tick-ms" => {
                archive_tick_ms = parse_num(&value("--archive-tick-ms")?, "--archive-tick-ms")?
            }
            "--queue-cap" => queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?,
            "--reshard-hold-ms" => {
                reshard_hold_ms = parse_num(&value("--reshard-hold-ms")?, "--reshard-hold-ms")?
            }
            "--target-p99-us" => {
                target_p99_us = Some(parse_num(&value("--target-p99-us")?, "--target-p99-us")?)
            }
            "--tenant-rate" => tenant_rate = parse_num(&value("--tenant-rate")?, "--tenant-rate")?,
            "--tenant-burst" => {
                tenant_burst = parse_num(&value("--tenant-burst")?, "--tenant-burst")?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if socket.is_none() && tcp.is_none() {
        return Err("at least one of --socket or --tcp is required".into());
    }
    Ok(Args {
        socket,
        tcp,
        checkpoint_dir: checkpoint_dir.ok_or("--checkpoint-dir is required")?,
        shards,
        n_features,
        checkpoint_every,
        dp_interval,
        fairness_window,
        audit,
        audit_segment_bytes,
        archive_retain,
        archive_tick_ms,
        queue_cap,
        reshard_hold_ms,
        target_p99_us,
        tenant_rate,
        tenant_burst,
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: not a number: {s:?}"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fact-shardd: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let admission = args.target_p99_us.map(|us| AdmissionConfig {
        target_p99: Duration::from_micros(us),
        tenant_rate: args.tenant_rate,
        tenant_burst: args.tenant_burst,
        ..AdmissionConfig::default()
    });

    let cfg = ServeConfig {
        shards: args.shards,
        n_features: args.n_features,
        queue_cap: args.queue_cap,
        admission,
        reshard_hold: Duration::from_millis(args.reshard_hold_ms),
        policy: DegradePolicy::AuditAndFlag,
        guards: Some(GuardConfig {
            fairness_window: args.fairness_window,
            dp_interval: args.dp_interval,
            ..GuardConfig::default()
        }),
        checkpoint: Some(CheckpointConfig::new(
            args.checkpoint_dir.clone(),
            args.checkpoint_every,
        )),
        audit: args.audit.clone().map(|path| {
            let defaults = AuditSinkConfig::default();
            AuditSinkConfig {
                path,
                max_segment_bytes: args
                    .audit_segment_bytes
                    .unwrap_or(defaults.max_segment_bytes),
                archive: args.archive_retain.map(|retain_segments| ArchiveConfig {
                    retain_segments,
                    tick: Duration::from_millis(args.archive_tick_ms),
                    ..ArchiveConfig::default()
                }),
                ..defaults
            }
        }),
        ..ServeConfig::default()
    };

    let service = match DecisionService::start(Arc::new(MeanScorer), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fact-shardd: failed to start shards: {e}");
            std::process::exit(1);
        }
    };
    let handler = NetShardHandler::new(service.clone(), Duration::from_secs(10));
    let shutdown = handler.shutdown_flag();
    let handler: Arc<dyn ShardHandler> = Arc::new(handler);

    // Both listeners (when both are requested) share the one handler, so a
    // mixed Unix + TCP front-end fleet addresses the same shards.
    let mut endpoints = Vec::new();
    if let Some(path) = &args.socket {
        endpoints.push(Endpoint::Unix(path.clone()));
    }
    if let Some(addr) = &args.tcp {
        endpoints.push(Endpoint::Tcp(addr.clone()));
    }
    let mut servers = Vec::new();
    for endpoint in endpoints {
        match Server::bind_endpoint(
            endpoint.clone(),
            Arc::clone(&handler),
            DEFAULT_FRAME_DEADLINE,
        ) {
            Ok(s) => {
                println!("fact-shardd: listening on {}", s.endpoint());
                servers.push(s);
            }
            Err(e) => {
                eprintln!("fact-shardd: failed to bind {endpoint}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "fact-shardd: {} shard(s) (checkpoints: {} every {}; reshard hold: {}ms; admission: {})",
        args.shards,
        args.checkpoint_dir.display(),
        args.checkpoint_every,
        args.reshard_hold_ms,
        match args.target_p99_us {
            Some(us) => format!("target_p99={us}us tenant_rate={}", args.tenant_rate),
            None => "off".into(),
        },
    );

    while !shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(25));
    }
    // the ack for the shutdown control rides the connection's writer
    // thread; give it a beat to flush before tearing the sockets down
    std::thread::sleep(Duration::from_millis(100));
    for mut server in servers {
        server.shutdown();
    }
    let report = service.shutdown();
    println!(
        "fact-shardd: drained; epochs={} served={} checkpoints={} eps_spent={:.4} throttled={}",
        report.epochs,
        report.decisions_served,
        report.checkpoints_written,
        report.epsilon_spent,
        report.throttled,
    );
}
