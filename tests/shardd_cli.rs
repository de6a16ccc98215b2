//! `fact-shardd` CLI contract: malformed invocations must die loudly —
//! usage banner on stderr, exit code 2 — before any socket is bound or
//! sidecar touched. A daemon that half-starts on a typoed flag is how an
//! operator ends up with an unarchived audit log and no error to show
//! for it. A well-formed worker, once drained, prints one exit line whose
//! counts span every topology epoch it ran.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use bench::kit::{self, MeanScorer, ScratchDir, Shardd};
use fact_core::runtime::Guards;
use fact_data::Matrix;
use fact_ml::Classifier;
use fact_net::{ControlAckWire, FrameKind, RemoteShard, RequestWire, ResponseWire};
use fact_serve::{GuardCheckpoint, GuardConfig, GuardState};

fn shardd() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_fact-shardd"))
}

fn run(args: &[&str]) -> Output {
    Command::new(shardd())
        .args(args)
        .output()
        .expect("spawn fact-shardd")
}

fn assert_usage_exit(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad flags must exit 2, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("usage: fact-shardd"),
        "stderr must carry the usage banner:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr must name the offending input {needle:?}:\n{stderr}"
    );
}

#[test]
fn malformed_numeric_flags_print_usage_and_exit_2() {
    // every numeric flag rejects a non-number with the flag named
    for flag in [
        "--shards",
        "--audit-segment-bytes",
        "--archive-retain",
        "--archive-tick-ms",
        "--tenant-rate",
    ] {
        let out = run(&[
            "--socket",
            "/tmp/x.sock",
            "--checkpoint-dir",
            "/tmp",
            flag,
            "abc",
        ]);
        assert_usage_exit(&out, &format!("{flag}: not a number"));
    }
}

#[test]
fn unknown_flags_print_usage_and_exit_2() {
    let out = run(&[
        "--socket",
        "/tmp/x.sock",
        "--checkpoint-dir",
        "/tmp",
        "--bogus",
    ]);
    assert_usage_exit(&out, "unknown flag");
}

#[test]
fn missing_required_args_print_usage_and_exit_2() {
    // no listener at all
    assert_usage_exit(&run(&["--checkpoint-dir", "/tmp"]), "--socket");
    // no checkpoint dir
    assert_usage_exit(&run(&["--socket", "/tmp/x.sock"]), "--checkpoint-dir");
}

/// A zero audit segment cap or archive tick is a configuration error:
/// the worker prints it and exits 1 before recovery creates the log.
#[test]
fn zero_audit_knobs_exit_1_before_the_log_exists() {
    let dir = ScratchDir::new("shardd-knobs");
    let audit = dir.join("audit.jsonl");
    let (sock, ckpt) = (dir.join("worker.sock"), dir.join("checkpoints"));
    let path = |p: &Path| p.to_str().expect("utf-8 scratch path").to_string();
    for (flags, needle) in [
        (
            &["--audit-segment-bytes", "0"][..],
            "max_segment_bytes must be positive",
        ),
        (
            &["--archive-retain", "1", "--archive-tick-ms", "0"][..],
            "archive tick must be positive",
        ),
    ] {
        let mut args = vec![
            "--socket".to_string(),
            path(&sock),
            "--checkpoint-dir".to_string(),
            path(&ckpt),
            "--audit".to_string(),
            path(&audit),
        ];
        args.extend(flags.iter().map(|f| f.to_string()));
        let out = Command::new(shardd())
            .args(&args)
            .output()
            .expect("spawn fact-shardd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(needle), "{flags:?}: {stderr}");
        assert!(!audit.exists(), "{flags:?}: the audit log was created");
    }
}

/// Every file under `dir` with its bytes, by path.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("list scratch dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read scratch file");
            files.insert(path, bytes);
        }
    }
    files
}

/// A start whose `--shards` differs from the shard count that wrote the
/// guard-state document, fewer or more, is refused before the audit log
/// opens: exit 1 naming both counts, no audit log created, the document
/// byte-identical, and no file written, even some time after the exit. A
/// directory in the per-shard layout (`shard-N.json`, no document) is
/// refused the same way, naming its files.
#[test]
fn sidecars_past_shards_exit_1_without_touching_a_file() {
    let dir = ScratchDir::new("shardd-past-shards");
    let (sock, ckpt, audit) = (
        dir.join("worker.sock"),
        dir.join("checkpoints"),
        dir.join("audit.jsonl"),
    );
    let guards = Guards::new(&GuardConfig::default(), 0).expect("default guards");
    let shards = (0..4)
        .map(|shard| Some(GuardCheckpoint::capture(&guards, shard, 10 * shard as u64)))
        .collect();
    GuardState { shards }
        .write(&ckpt)
        .expect("write guard state");
    let path = |p: &Path| p.to_str().expect("utf-8 scratch path").to_string();
    let refused = |shards: &str, needles: &[&str]| {
        let before = tree(dir.path());
        let out = Command::new(shardd())
            .args(["--socket", &path(&sock), "--checkpoint-dir", &path(&ckpt)])
            .args(["--shards", shards, "--audit", &path(&audit)])
            .output()
            .expect("spawn fact-shardd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        for needle in needles {
            assert!(stderr.contains(needle), "{stderr}");
        }
        std::thread::sleep(Duration::from_millis(300));
        assert!(!audit.exists(), "the audit log was created");
        let after = tree(dir.path());
        assert!(after.keys().eq(before.keys()), "{:?}", after.keys());
        assert!(after == before, "a refused start changed the guard state");
    };
    refused("2", &["written by 4 shard(s)", "asks for 2"]);
    refused("6", &["written by 4 shard(s)", "asks for 6"]);

    std::fs::remove_file(ckpt.join("guards.json")).expect("remove the document");
    for k in 0..2 {
        std::fs::write(ckpt.join(format!("shard-{k}.json")), b"{}").expect("write old file");
    }
    refused("2", &["shard-0.json, shard-1.json", "guards.json"]);
}

/// Decide `features` for `key` through `client`; returns the worker's
/// probability.
fn decide(client: &RemoteShard, features: Vec<f64>, group_b: bool, key: u64) -> f64 {
    let payload = fact_net::encode(&RequestWire {
        features,
        group_b,
        route_key: key,
        tenant: None,
    })
    .unwrap();
    let frame = client
        .send(FrameKind::Request, payload)
        .unwrap()
        .wait(Duration::from_secs(10))
        .unwrap();
    let resp: ResponseWire = fact_net::decode(&frame.payload).unwrap();
    resp.into_result().expect("decision served").probability
}

/// A spawned worker reshards live over TCP and its exit line — the one
/// operators and the benchmark parse — counts both topology epochs and
/// every decision served across them, while the audit chain it kept open
/// through the cutover verifies as one continuous chain.
#[test]
fn spawned_worker_reshards_over_tcp_and_reports_both_epochs() {
    const BEFORE: u64 = 400;
    const AFTER: u64 = 300;

    let dir = ScratchDir::new("shardd-reshard");
    let mut worker = Shardd::tcp(shardd(), |cmd| {
        cmd.args(["--n-features", "1"])
            .args(["--checkpoint-every", "100", "--dp-interval", "100"])
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .arg("--audit")
            .arg(dir.join("audit.jsonl"));
    });
    let client = worker.connect();
    // group B scores low, so the fairness guard trips and flagged
    // decisions reach the audit log on both sides of the cutover
    let decide = |key: u64| {
        let group_b = key.is_multiple_of(2);
        decide(&client, vec![if group_b { 0.2 } else { 0.8 }], group_b, key);
    };

    (0..BEFORE).for_each(decide);
    let ack = worker.control("reshard 3", Duration::from_secs(30));
    assert!(ack.ok, "{}", ack.info);
    assert!(ack.info.contains("resharded 2 -> 3"), "{}", ack.info);
    (BEFORE..BEFORE + AFTER).for_each(decide);
    worker.shutdown();

    let exit = worker.exit_line();
    assert!(
        exit.contains(&format!("epochs=2 served={} ", BEFORE + AFTER)),
        "{exit}"
    );
    kit::verify_audit_log(&dir.join("audit.jsonl"));
}

/// Decide over the payload encoding the connection negotiated; returns
/// the reply's frame version and the worker's probability.
fn decide_negotiated(client: &RemoteShard, features: Vec<f64>, key: u64) -> (u8, f64) {
    let wire = RequestWire {
        features,
        group_b: false,
        route_key: key,
        tenant: Some(0),
    };
    let frame = client
        .request(&wire)
        .unwrap()
        .wait(Duration::from_secs(10))
        .unwrap();
    let resp = fact_net::decode_response(frame.version, &frame.payload).unwrap();
    (
        frame.version,
        resp.into_result().expect("decision served").probability,
    )
}

/// The worker serves exactly the model the harnesses score with locally:
/// each probability it returns — to a JSON client and over the binary
/// payloads a current client negotiates — equals `kit::MeanScorer` on the
/// same row, bit for bit.
#[test]
fn worker_model_is_the_kit_mean_scorer() {
    let dir = ScratchDir::new("shardd-model");
    let mut worker = Shardd::tcp(shardd(), |cmd| {
        cmd.args(["--n-features", "4"])
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"));
    });
    let rows = [
        vec![0.0, 0.0, 0.0, 0.0],
        vec![0.1, 0.2, 0.3, 0.4],
        vec![0.7, 0.65, 0.9, 0.55],
        vec![1.0, 1.0, 1.0, 0.999],
        vec![0.333, 0.1, 0.05, 0.6],
    ];
    let expected = MeanScorer
        .predict_proba(&Matrix::from_rows(&rows).unwrap())
        .unwrap();
    let client = worker.connect();
    for (key, (row, want)) in rows.iter().zip(expected).enumerate() {
        let got = decide(&client, row.clone(), key % 2 == 0, key as u64);
        assert_eq!(got.to_bits(), want.to_bits(), "row {row:?}");
        // the JSON reply above came after the hello ack, so this is binary
        let (version, got) = decide_negotiated(&client, row.clone(), key as u64);
        assert_eq!(version, 2, "row {row:?}");
        assert_eq!(got.to_bits(), want.to_bits(), "row {row:?}");
    }
    assert_eq!(client.stats().wire_version, 2);
    worker.shutdown();
}

/// A JSON nesting bomb — 100,000 `[`, a tenth of the frame cap — in a
/// control frame or a request is refused, not a stack overflow: the
/// worker stays up and answers the next decision.
#[test]
fn a_nesting_bomb_does_not_kill_the_worker() {
    let dir = ScratchDir::new("shardd-bomb");
    let mut worker = Shardd::tcp(shardd(), |cmd| {
        cmd.args(["--n-features", "2"])
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"));
    });
    let client = worker.connect();
    let bomb = "[".repeat(100_000).into_bytes();
    let wait = Duration::from_secs(10);

    let ack = client.send(FrameKind::Control, bomb.clone()).unwrap();
    let ack: ControlAckWire = fact_net::decode(&ack.wait(wait).unwrap().payload).unwrap();
    assert!(!ack.ok, "{}", ack.info);
    let reply = client.send(FrameKind::Request, bomb).unwrap();
    let resp: ResponseWire = fact_net::decode(&reply.wait(wait).unwrap().payload).unwrap();
    assert!(resp.into_result().is_err());

    assert_eq!(decide(&client, vec![0.25, 0.75], false, 1), 0.5);
    worker.shutdown();
}

/// Client churn leaves a spawned worker as it found it: 10,000 connect /
/// ping / drop cycles over its Unix socket end with the worker's open
/// descriptors and threads where they started, and it still decides. (Over
/// TCP the same churn would park as many client ports in `TIME_WAIT`.)
#[test]
fn client_churn_leaves_the_worker_flat() {
    const CYCLES: usize = 10_000;
    /// The last connections' threads may still be exiting when counted.
    const SLACK: usize = 4;
    let dir = ScratchDir::new("shardd-churn");
    let mut worker = Shardd::unix(shardd(), &dir.join("worker.sock"), |cmd| {
        cmd.args(["--n-features", "2"])
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"));
    });
    let proc_dir = format!("/proc/{}", worker.pid());
    let counts = || {
        let count = |what: &str| {
            std::fs::read_dir(format!("{proc_dir}/{what}"))
                .unwrap_or_else(|e| panic!("{proc_dir}/{what}: {e}"))
                .count()
        };
        (count("fd"), count("task"))
    };
    let cycle = || {
        let ack = worker
            .connect()
            .control("ping", Duration::from_secs(10))
            .unwrap();
        let ack: ControlAckWire = fact_net::decode(&ack.payload).unwrap();
        assert!(ack.ok, "{}", ack.info);
    };
    (0..8).for_each(|_| cycle());
    let baseline = counts();
    let grown =
        |(fds, tasks): (usize, usize)| fds > baseline.0 + SLACK || tasks > baseline.1 + SLACK;

    (0..CYCLES).for_each(|_| cycle());
    // the worker's connection threads exit after each client hangs up
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut now = counts();
    while grown(now) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = counts();
    }
    assert!(
        !grown(now),
        "{CYCLES} client cycles grew the worker's (fds, threads) from {baseline:?} to {now:?}"
    );
    assert_eq!(decide(&worker.connect(), vec![0.25, 0.75], false, 1), 0.5);
    worker.shutdown();
}

/// `std::process::Child` does not kill on drop; the kit's handle does, so
/// a harness that panics mid-run leaves no `fact-shardd` behind.
#[test]
fn a_panicking_harness_leaves_no_orphan_worker() {
    let dir = ScratchDir::new("shardd-orphan");
    let pid = std::panic::catch_unwind(|| {
        let worker = Shardd::tcp(shardd(), |cmd| {
            cmd.arg("--checkpoint-dir").arg(dir.join("checkpoints"));
        });
        std::panic::panic_any(worker.pid());
    })
    .expect_err("the harness panics")
    .downcast::<u32>()
    .expect("the panic carries the worker pid");
    let alive = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -0 {pid}"))
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!alive.success(), "fact-shardd {pid} outlived its handle");
}
