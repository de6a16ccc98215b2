//! `fact-shardd` CLI contract: malformed invocations must die loudly —
//! usage banner on stderr, exit code 2 — before any socket is bound or
//! sidecar touched. A daemon that half-starts on a typoed flag is how an
//! operator ends up with an unarchived audit log and no error to show
//! for it. A well-formed worker, once drained, prints one exit line whose
//! counts span every topology epoch it ran.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use bench::kit::{self, MeanScorer, ScratchDir, Shardd};
use fact_data::Matrix;
use fact_ml::Classifier;
use fact_net::{FrameKind, RemoteShard, RequestWire, ResponseWire};

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

/// The worker serves exactly the model the harnesses score with locally:
/// each probability it returns equals `kit::MeanScorer` on the same row.
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
        assert_eq!(got, want, "row {row:?}");
    }
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
