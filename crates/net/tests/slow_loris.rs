//! Slow-loris / partial-write defense over real sockets.
//!
//! A peer that dribbles a frame header byte-at-a-time, or stalls after
//! the header, must not wedge the server's reader thread: once the
//! per-frame delivery deadline passes, the connection is torn down (the
//! codec reports `FrameError::Truncated` internally) and the server keeps
//! serving other connections. An *idle* connection — no frame in
//! progress — is never torn down, however long it sits.
//!
//! The deterministic byte-level cases (timeout-with-no-bytes → `Idle`,
//! dribble-past-deadline → `Truncated`) live in `frame.rs` unit tests on
//! a scripted reader; these tests pin the socket-level behavior with a
//! short real deadline and generous upper bounds, asserting "tears down
//! promptly" and "never hangs", not exact timings. Every scenario runs
//! over both the Unix-domain and TCP transports — the deadline is a
//! protocol property, not a transport property (`PROTOCOL.md` §5).

mod common;

use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use common::{start_echo, Transport};
use fact_net::frame::{encode_frame, read_frame, Frame, HEADER_LEN};
use fact_net::{Endpoint, FrameKind, NetStream};

/// Deadline used by these tests: long enough that a healthy writer never
/// trips it, short enough that the tests stay fast.
const DEADLINE: Duration = Duration::from_millis(300);
/// The server must have cut a stalled peer off well within this bound
/// (deadline + poll interval + scheduling slack).
const CUTOFF: Duration = Duration::from_secs(5);

/// Block until the server closes `stream` (read returns EOF) or `CUTOFF`
/// passes; returns how long it took.
fn wait_for_disconnect(stream: &mut NetStream) -> Duration {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    while started.elapsed() < CUTOFF {
        match stream.read(&mut buf) {
            Ok(0) => return started.elapsed(), // server hung up
            Ok(_) => continue,                 // stray reply bytes
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return started.elapsed(), // reset also counts as cut off
        }
    }
    panic!("server never disconnected the stalled peer within {CUTOFF:?}");
}

/// Round-trip one echo frame on a fresh connection to prove the server is
/// still serving.
fn assert_still_serving(endpoint: &Endpoint) {
    let mut healthy = endpoint.dial().unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = Frame::new(FrameKind::Control, 42, b"ping".to_vec());
    healthy.write_all(&encode_frame(&frame).unwrap()).unwrap();
    let reply = read_frame(&mut healthy).unwrap().expect("echo reply");
    assert_eq!(reply.corr_id, 42);
    assert_eq!(reply.payload, b"ping");
}

fn header_dribbler_is_cut_off(transport: Transport) {
    let (mut server, endpoint, handler) = start_echo(transport, "dribble", DEADLINE);

    // attacker: one header byte, then silence
    let mut loris = endpoint.dial().unwrap();
    let frame = encode_frame(&Frame::new(FrameKind::Request, 1, b"x".to_vec())).unwrap();
    loris.write_all(&frame[..1]).unwrap();
    loris.flush().unwrap();

    let took = wait_for_disconnect(&mut loris);
    assert!(took < CUTOFF, "disconnect took {took:?}");
    assert_eq!(
        handler.seen.load(Ordering::Relaxed),
        0,
        "a torn header must never reach the handler"
    );

    assert_still_serving(&endpoint);
    server.shutdown();
}

#[test]
fn header_dribbler_is_cut_off_and_server_keeps_serving() {
    header_dribbler_is_cut_off(Transport::Unix);
}

#[test]
fn header_dribbler_is_cut_off_and_server_keeps_serving_tcp() {
    header_dribbler_is_cut_off(Transport::Tcp);
}

fn mid_payload_staller_is_cut_off_on(transport: Transport) {
    let (mut server, endpoint, handler) = start_echo(transport, "stall", DEADLINE);

    // attacker: a complete, valid header promising 64 payload bytes, then
    // only 8 of them
    let frame = encode_frame(&Frame::new(FrameKind::Request, 7, vec![0xab; 64])).unwrap();
    let mut loris = endpoint.dial().unwrap();
    loris.write_all(&frame[..HEADER_LEN + 8]).unwrap();
    loris.flush().unwrap();

    let took = wait_for_disconnect(&mut loris);
    assert!(took < CUTOFF, "disconnect took {took:?}");
    assert_eq!(
        handler.seen.load(Ordering::Relaxed),
        0,
        "a torn payload must never reach the handler"
    );

    assert_still_serving(&endpoint);
    server.shutdown();
}

#[test]
fn mid_payload_staller_is_cut_off() {
    mid_payload_staller_is_cut_off_on(Transport::Unix);
}

#[test]
fn mid_payload_staller_is_cut_off_tcp() {
    mid_payload_staller_is_cut_off_on(Transport::Tcp);
}

fn idle_connection_is_not_torn_down_on(transport: Transport) {
    let (mut server, endpoint, _handler) = start_echo(transport, "idle", DEADLINE);

    // a connection that sits quiet for several deadlines, with no frame in
    // progress, must stay usable
    let mut conn = endpoint.dial().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    std::thread::sleep(DEADLINE * 3);

    let frame = Frame::new(FrameKind::Control, 9, b"late".to_vec());
    conn.write_all(&encode_frame(&frame).unwrap()).unwrap();
    let reply = read_frame(&mut conn)
        .unwrap()
        .expect("idle conn still live");
    assert_eq!(reply.corr_id, 9);
    assert_eq!(reply.payload, b"late");
    server.shutdown();
}

#[test]
fn idle_connection_is_not_torn_down() {
    idle_connection_is_not_torn_down_on(Transport::Unix);
}

#[test]
fn idle_connection_is_not_torn_down_tcp() {
    idle_connection_is_not_torn_down_on(Transport::Tcp);
}

fn slow_but_live_writer_is_served(transport: Transport) {
    let (mut server, endpoint, _handler) = start_echo(transport, "slow-ok", DEADLINE);

    // a legitimately slow peer: the whole frame lands in small chunks but
    // comfortably inside the per-frame deadline
    let mut conn = endpoint.dial().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let bytes = encode_frame(&Frame::new(FrameKind::Control, 3, b"chunks".to_vec())).unwrap();
    for chunk in bytes.chunks(5) {
        conn.write_all(chunk).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = read_frame(&mut conn)
        .unwrap()
        .expect("chunked frame served");
    assert_eq!(reply.corr_id, 3);
    assert_eq!(reply.payload, b"chunks");
    server.shutdown();
}

#[test]
fn slow_but_live_writer_inside_deadline_is_served() {
    slow_but_live_writer_is_served(Transport::Unix);
}

#[test]
fn slow_but_live_writer_inside_deadline_is_served_tcp() {
    slow_but_live_writer_is_served(Transport::Tcp);
}
