//! End-to-end exercises of the client/server pair over real sockets:
//! pipelined round trips, mid-stream disconnects surfacing as typed errors
//! (never a panic or a hang), reconnect-after-restart, and a peer that
//! writes garbage.
//!
//! Every scenario runs twice — once over a Unix-domain socket and once
//! over TCP loopback — through the same assertions: the transport is a
//! byte pipe and must change nothing about the protocol (`PROTOCOL.md`
//! §2 — Transports).

mod common;

use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{fresh_endpoint, start_echo, EchoHandler, Transport};
use fact_net::{
    decode, encode, FrameKind, NetError, RemoteShard, RequestWire, ResponseWire, Server,
    ShardHandler, DEFAULT_FRAME_DEADLINE,
};

const WAIT: Duration = Duration::from_secs(5);

fn request(route_key: u64, p: f64) -> Vec<u8> {
    encode(&RequestWire {
        features: vec![p, 1.0],
        group_b: route_key % 2 == 0,
        route_key,
        tenant: None,
    })
    .unwrap()
}

fn pipelined_requests_all_answer(transport: Transport) {
    let (mut server, endpoint, handler) = start_echo(transport, "pipeline", DEFAULT_FRAME_DEADLINE);
    let shard = RemoteShard::connect_endpoint(endpoint).unwrap();

    // fire 64 requests before waiting on any reply
    let pending: Vec<_> = (0..64u64)
        .map(|i| {
            shard
                .send(FrameKind::Request, request(i, i as f64 / 64.0))
                .unwrap()
        })
        .collect();
    for (i, reply) in pending.into_iter().enumerate() {
        let frame = reply.wait(WAIT).unwrap();
        assert_eq!(frame.kind, FrameKind::Response);
        let resp: ResponseWire = decode(&frame.payload).unwrap();
        let decision = resp.into_result().unwrap();
        assert!((decision.probability - i as f64 / 64.0).abs() < 1e-12);
        assert_eq!(decision.shard, (i % 4) as usize);
    }

    let stats = shard.stats();
    assert_eq!(stats.requests, 64);
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.rtt_count, 64);
    assert!(stats.rtt_mean_micros > 0.0);
    assert_eq!(handler.seen.load(Ordering::Relaxed), 64);
    server.shutdown();
}

#[test]
fn pipelined_requests_all_answer_with_matching_ids() {
    pipelined_requests_all_answer(Transport::Unix);
}

#[test]
fn pipelined_requests_all_answer_with_matching_ids_tcp() {
    pipelined_requests_all_answer(Transport::Tcp);
}

fn control_frames_ack(transport: Transport) {
    let (mut server, endpoint, _) = start_echo(transport, "control", DEFAULT_FRAME_DEADLINE);
    let shard = RemoteShard::connect_endpoint(endpoint).unwrap();
    let ack = shard.control("ping", WAIT).unwrap();
    assert_eq!(ack.kind, FrameKind::Control);
    let wire: fact_net::ControlWire = decode(&ack.payload).unwrap();
    assert_eq!(wire.command, "ping"); // echo handler reflects the payload
    server.shutdown();
}

#[test]
fn control_frames_ack_with_their_own_kind() {
    control_frames_ack(Transport::Unix);
}

#[test]
fn control_frames_ack_with_their_own_kind_tcp() {
    control_frames_ack(Transport::Tcp);
}

fn server_death_fails_pending_replies(transport: Transport) {
    /// Never answers: thunks block until the connection is severed.
    struct StallHandler;
    impl ShardHandler for StallHandler {
        fn submit(&self, _: FrameKind, _: Vec<u8>) -> Box<dyn FnOnce() -> Vec<u8> + Send> {
            Box::new(|| {
                std::thread::sleep(Duration::from_secs(30));
                Vec::new()
            })
        }
    }

    let mut server = Server::bind_endpoint(
        fresh_endpoint(transport, "death"),
        Arc::new(StallHandler),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    let shard = RemoteShard::connect_endpoint(server.endpoint().clone()).unwrap();
    let reply = shard.send(FrameKind::Request, request(1, 0.5)).unwrap();

    // sever (not shutdown): the writer thread is wedged in the 30 s thunk,
    // and the client must see Disconnected as soon as the socket drops
    let killer = std::thread::spawn(move || server.sever());
    match reply.wait(WAIT) {
        Err(NetError::Disconnected) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
    assert_eq!(shard.stats().errors, 1);
    killer.join().unwrap();
}

#[test]
fn server_death_fails_pending_replies_with_typed_error() {
    server_death_fails_pending_replies(Transport::Unix);
}

#[test]
fn server_death_fails_pending_replies_with_typed_error_tcp() {
    server_death_fails_pending_replies(Transport::Tcp);
}

fn client_reconnects_after_restart(transport: Transport) {
    let (mut server, endpoint, _) = start_echo(transport, "restart", DEFAULT_FRAME_DEADLINE);
    let shard = RemoteShard::connect_endpoint(endpoint.clone()).unwrap();
    shard
        .send(FrameKind::Request, request(1, 0.25))
        .unwrap()
        .wait(WAIT)
        .unwrap();
    server.shutdown();

    // in-flight-free death: the next send fails (worker gone)...
    let err = match shard.send(FrameKind::Request, request(2, 0.5)) {
        Ok(reply) => reply.wait(WAIT).unwrap_err(),
        Err(e) => e,
    };
    assert!(
        matches!(err, NetError::Io(_) | NetError::Disconnected),
        "{err:?}"
    );

    // ...and once a new worker binds the same endpoint, sends heal
    // transparently (for TCP that means the same resolved host:port)
    let mut server2 = Server::bind_endpoint(
        endpoint,
        Arc::new(EchoHandler::default()),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    let mut healed = false;
    for _ in 0..50 {
        match shard.send(FrameKind::Request, request(3, 0.75)) {
            Ok(reply) => {
                if reply.wait(WAIT).is_ok() {
                    healed = true;
                    break;
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(healed, "client never healed after restart");
    assert!(shard.stats().reconnects >= 1);
    server2.shutdown();
}

#[test]
fn client_reconnects_after_server_restart() {
    client_reconnects_after_restart(Transport::Unix);
}

#[test]
fn client_reconnects_after_server_restart_tcp() {
    client_reconnects_after_restart(Transport::Tcp);
}

fn garbage_peer_drops_connection(transport: Transport) {
    let (mut server, endpoint, handler) = start_echo(transport, "garbage", DEFAULT_FRAME_DEADLINE);

    // a raw peer writes a torn header then vanishes
    let mut raw = endpoint.dial().unwrap();
    raw.write_all(b"FNE").unwrap();
    drop(raw);

    // another writes a bad magic
    let mut raw = endpoint.dial().unwrap();
    raw.write_all(&[0u8; 32]).unwrap();
    drop(raw);

    // the server keeps serving well-formed clients
    let shard = RemoteShard::connect_endpoint(endpoint).unwrap();
    let frame = shard
        .send(FrameKind::Request, request(9, 0.125))
        .unwrap()
        .wait(WAIT)
        .unwrap();
    let resp: ResponseWire = decode(&frame.payload).unwrap();
    assert!(resp.into_result().is_ok());
    assert_eq!(handler.seen.load(Ordering::Relaxed), 1); // garbage never reached the handler
    server.shutdown();
}

#[test]
fn garbage_peer_drops_connection_without_killing_server() {
    garbage_peer_drops_connection(Transport::Unix);
}

#[test]
fn garbage_peer_drops_connection_without_killing_server_tcp() {
    garbage_peer_drops_connection(Transport::Tcp);
}
