//! Client churn must not leak resources on either end: a server releases
//! each connection's stream clone and thread handle when it ends, and a
//! dropped [`RemoteShard`] shuts its socket down so its reader and writer
//! threads — and the server's two threads for it — exit. The process's
//! open descriptors and threads stay flat however many clients come and
//! go.
//!
//! This is its own test binary because it counts `/proc/self/fd` and
//! `/proc/self/task`, which tests running in parallel in the same process
//! would disturb; the tests in it take turns through [`SERIAL`].

mod common;

use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{start_echo, Transport};
use fact_net::frame::{encode_frame, read_frame, Frame};
use fact_net::{FrameKind, RemoteShard, DEFAULT_FRAME_DEADLINE};

const CYCLES: usize = 2_000;
/// Descriptors or threads a settled process may hold beyond the baseline:
/// the last connection's threads can still be exiting when the count is
/// taken.
const SLACK: usize = 4;
/// Mid-churn ceiling on growth: connections that have not finished tearing
/// down yet, far below what a leak of a few threads per cycle reaches.
const IN_FLIGHT: usize = 200;
const WAIT: Duration = Duration::from_secs(5);

static SERIAL: Mutex<()> = Mutex::new(());

fn count(dir: &str) -> usize {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .count()
}

fn open_fds() -> usize {
    count("/proc/self/fd")
}

fn threads() -> usize {
    count("/proc/self/task")
}

/// Run `cycle` [`CYCLES`] times after a warm-up and assert that open
/// descriptors and threads come back to within [`SLACK`] of the baseline.
fn stays_flat(what: &str, mut cycle: impl FnMut()) {
    // warm up: lazily created descriptors (e.g. the first thread's) are
    // part of the baseline, not a leak
    (0..8).for_each(|_| cycle());
    let baseline = (open_fds(), threads());
    let grown =
        |(fds, tasks): (usize, usize), by: usize| fds > baseline.0 + by || tasks > baseline.1 + by;

    for i in 0..CYCLES {
        cycle();
        if i % 100 == 99 {
            let now = (open_fds(), threads());
            assert!(
                !grown(now, IN_FLIGHT),
                "{what}: after {} cycles (fds, threads) grew from {baseline:?} to {now:?}",
                i + 1
            );
        }
    }

    // connection threads finish asynchronously after the client hangs up
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = (open_fds(), threads());
    while grown(now, SLACK) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = (open_fds(), threads());
    }
    assert!(
        !grown(now, SLACK),
        "{what}: {CYCLES} cycles grew (fds, threads) from {baseline:?} to {now:?}"
    );
}

fn raw_churn(transport: Transport) {
    let (mut server, endpoint, _) = start_echo(transport, "churn", DEFAULT_FRAME_DEADLINE);
    let ping = encode_frame(&Frame::new(FrameKind::Control, 1, b"ping".to_vec())).unwrap();
    stays_flat("raw stream churn", || {
        let mut stream = endpoint.dial().unwrap();
        std::io::Write::write_all(&mut stream, &ping).unwrap();
        // the answer proves the server accepted and served this connection
        let ack = read_frame(&mut stream).unwrap().expect("ping answered");
        assert_eq!(ack.payload, b"ping");
    });
    server.shutdown();
}

#[test]
fn open_descriptors_stay_flat_across_client_churn() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    raw_churn(Transport::Unix);
    raw_churn(Transport::Tcp);
}

fn remote_shard_churn(transport: Transport) {
    let (mut server, endpoint, _) = start_echo(transport, "shard-churn", DEFAULT_FRAME_DEADLINE);
    stays_flat("RemoteShard churn", || {
        let shard = RemoteShard::connect_endpoint(endpoint.clone()).unwrap();
        let ack = shard.control("ping", WAIT).unwrap();
        assert_eq!(ack.kind, FrameKind::Control);
        drop(shard);
    });
    server.shutdown();
}

#[test]
fn dropped_remote_shards_leave_no_threads_or_descriptors() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    remote_shard_churn(Transport::Unix);
    remote_shard_churn(Transport::Tcp);
}
