//! `fact-shardd` CLI contract: malformed invocations must die loudly —
//! usage banner on stderr, exit code 2 — before any socket is bound or
//! sidecar touched. A daemon that half-starts on a typoed flag is how an
//! operator ends up with an unarchived audit log and no error to show
//! for it. A well-formed worker, once drained, prints one exit line whose
//! counts span every topology epoch it ran.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fact-shardd"))
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

/// A spawned worker reshards live over TCP and its exit line — the one
/// operators and the benchmark parse — counts both topology epochs and
/// every decision served across them, while the audit chain it kept open
/// through the cutover verifies as one continuous chain.
#[test]
fn spawned_worker_reshards_over_tcp_and_reports_both_epochs() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::Duration;

    use fact_net::{ControlAckWire, Endpoint, FrameKind, RemoteShard, RequestWire, ResponseWire};
    use fact_serve::{verify_all_segments, AuditStorage, FileStorage};

    const BEFORE: u64 = 400;
    const AFTER: u64 = 300;

    let dir = std::env::temp_dir().join(format!("fact-shardd-reshard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let audit = dir.join("audit.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fact-shardd"))
        .args(["--tcp", "127.0.0.1:0", "--n-features", "1"])
        .args(["--checkpoint-every", "100", "--dp-interval", "100"])
        .arg("--checkpoint-dir")
        .arg(dir.join("checkpoints"))
        .arg("--audit")
        .arg(&audit)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fact-shardd");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let addr = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| {
            l.strip_prefix("fact-shardd: listening on tcp:")
                .map(str::to_owned)
        })
        .expect("worker announces its TCP address");

    let client = RemoteShard::connect_endpoint(Endpoint::Tcp(addr)).unwrap();
    let decide = |key: u64| {
        // group B scores low, so the fairness guard trips and flagged
        // decisions reach the audit log on both sides of the cutover
        let group_b = key.is_multiple_of(2);
        let payload = fact_net::encode(&RequestWire {
            features: vec![if group_b { 0.2 } else { 0.8 }],
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
        resp.into_result().expect("decision served");
    };
    let control = |command: &str| -> ControlAckWire {
        let ack = client.control(command, Duration::from_secs(30)).unwrap();
        fact_net::decode(&ack.payload).unwrap()
    };

    (0..BEFORE).for_each(decide);
    let ack = control("reshard 3");
    assert!(ack.ok, "{}", ack.info);
    assert!(ack.info.contains("resharded 2 -> 3"), "{}", ack.info);
    (BEFORE..BEFORE + AFTER).for_each(decide);
    assert!(control("shutdown").ok);

    let exit = lines
        .map_while(Result::ok)
        .find(|l| l.starts_with("fact-shardd: drained;"))
        .expect("worker prints its exit line");
    assert!(child.wait().unwrap().success());
    assert!(
        exit.contains(&format!("epochs=2 served={} ", BEFORE + AFTER)),
        "{exit}"
    );

    let mut storage = FileStorage::open(&audit).unwrap();
    let report = verify_all_segments(&mut storage as &mut dyn AuditStorage).unwrap();
    assert!(!report.segments.is_empty());
    assert!(
        report.continuous,
        "audit chain must run through the cutover"
    );
    for (id, verdict) in &report.segments {
        assert!(verdict.is_ok(), "segment {id}: {verdict:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
