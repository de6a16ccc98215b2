//! Client churn must not leak server resources: each connection's stream
//! clone and thread handle are released when it ends, so the process's
//! open descriptors stay flat however many clients come and go.
//!
//! This is its own test binary because it counts `/proc/self/fd`, which
//! tests running in parallel in the same process would disturb.

mod common;

use std::time::{Duration, Instant};

use common::{start_echo, Transport};
use fact_net::frame::{encode_frame, read_frame, Frame};
use fact_net::{FrameKind, DEFAULT_FRAME_DEADLINE};

const CYCLES: usize = 2_000;
/// Descriptors a settled server may hold beyond the baseline: the last
/// connection's thread can still be exiting when the count is taken.
const SLACK: usize = 4;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd lists open descriptors")
        .count()
}

fn fds_stay_flat_across_churn(transport: Transport) {
    let (mut server, endpoint, _) = start_echo(transport, "churn", DEFAULT_FRAME_DEADLINE);
    let ping = encode_frame(&Frame::new(FrameKind::Control, 1, b"ping".to_vec())).unwrap();
    let cycle = || {
        let mut stream = endpoint.dial().unwrap();
        std::io::Write::write_all(&mut stream, &ping).unwrap();
        // the answer proves the server accepted and served this connection
        let ack = read_frame(&mut stream).unwrap().expect("ping answered");
        assert_eq!(ack.payload, b"ping");
    };
    // warm up: lazily created descriptors (e.g. the first thread's) are
    // part of the baseline, not a leak
    (0..8).for_each(|_| cycle());
    let baseline = open_fds();

    (0..CYCLES).for_each(|_| cycle());

    // connection threads finish asynchronously after the client hangs up
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds();
    }
    assert!(
        now <= baseline + SLACK,
        "{CYCLES} connect/disconnect cycles grew open descriptors from {baseline} to {now}"
    );
    server.shutdown();
}

#[test]
fn open_descriptors_stay_flat_across_client_churn() {
    fds_stay_flat_across_churn(Transport::Unix);
    fds_stay_flat_across_churn(Transport::Tcp);
}
