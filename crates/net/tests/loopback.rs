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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use common::{echo_response, fresh_endpoint, start_echo, EchoHandler, Transport};
use fact_net::{
    decode, encode, Frame, FrameKind, NetError, PendingPayload, RemoteShard, Reply, RequestWire,
    ResponseWire, Server, ShardHandler, DEFAULT_FRAME_DEADLINE,
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
    /// Never answers: replies block until the connection is severed.
    struct StallHandler;
    impl ShardHandler for StallHandler {
        fn submit(&self, _: Frame) -> Reply {
            Reply::blocking(|| {
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

    // sever (not shutdown): the writer thread is wedged in the 30 s reply,
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
    // the redial negotiated afresh: its hello was acked ahead of the reply
    assert_eq!(shard.stats().wire_version, 2);
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

fn decision(frame: &Frame) -> fact_net::DecisionWire {
    fact_net::decode_response(frame.version, &frame.payload)
        .unwrap()
        .into_result()
        .unwrap()
}

fn wire(route_key: u64, p: f64) -> RequestWire {
    RequestWire {
        features: vec![p, 1.0],
        group_b: route_key.is_multiple_of(2),
        route_key,
        tenant: Some(route_key),
    }
}

fn client_negotiates_binary_payloads(transport: Transport) {
    let (mut server, endpoint, handler) = start_echo(transport, "binary", DEFAULT_FRAME_DEADLINE);
    let shard = RemoteShard::connect_endpoint(endpoint).unwrap();
    // the first request may beat the hello ack and go as JSON; its reply
    // cannot beat the ack, which the worker wrote first
    let first = shard.request(&wire(1, 0.25)).unwrap().wait(WAIT).unwrap();
    assert_eq!(decision(&first).probability, 0.25);
    assert_eq!(shard.stats().wire_version, 2);
    for i in 2..34u64 {
        let reply = shard
            .request(&wire(i, i as f64 / 64.0))
            .unwrap()
            .wait(WAIT)
            .unwrap();
        assert_eq!(
            reply.version, 2,
            "the worker answers in the request's version"
        );
        assert_eq!(decision(&reply).probability, i as f64 / 64.0);
        assert_eq!(decision(&reply).shard, (i % 4) as usize);
    }
    let stats = shard.stats();
    assert_eq!((stats.requests, stats.errors), (33, 0));
    assert_eq!(handler.seen.load(Ordering::Relaxed), 33); // hello never reached it
    server.shutdown();
}

#[test]
fn client_negotiates_binary_payloads_with_a_new_worker() {
    client_negotiates_binary_payloads(Transport::Unix);
}

#[test]
fn client_negotiates_binary_payloads_with_a_new_worker_tcp() {
    client_negotiates_binary_payloads(Transport::Tcp);
}

/// A worker built before version 2: it decodes only JSON and acks every
/// control verb it does not know — `hello` included — with `ok=false`.
#[derive(Default)]
struct JsonOnlyHandler {
    seen_v2: AtomicBool,
}

impl ShardHandler for JsonOnlyHandler {
    fn submit(&self, frame: Frame) -> Reply {
        if frame.version != 1 {
            self.seen_v2.store(true, Ordering::Relaxed);
        }
        Reply::Ready(match frame.kind {
            FrameKind::Request => {
                let req: RequestWire = decode(&frame.payload).unwrap();
                encode(&ResponseWire::success(fact_net::DecisionWire {
                    probability: req.features[0],
                    favorable: false,
                    flagged: false,
                    shard: 0,
                }))
                .unwrap()
            }
            _ => {
                let command: fact_net::ControlWire = decode(&frame.payload).unwrap();
                encode(&fact_net::ControlAckWire {
                    ok: false,
                    info: format!("unknown command {:?}", command.command),
                })
                .unwrap()
            }
        })
    }
}

fn client_stays_on_json_with_an_old_worker(transport: Transport) {
    let handler = Arc::new(JsonOnlyHandler::default());
    let mut server = Server::bind_endpoint(
        fresh_endpoint(transport, "json-only"),
        Arc::clone(&handler) as Arc<dyn ShardHandler>,
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();

    // a peer that sends version 2 unasked is dropped before the handler
    // sees the frame
    let mut raw = server.endpoint().dial().unwrap();
    let v2 = Frame {
        version: 2,
        ..Frame::new(
            FrameKind::Request,
            1,
            fact_net::encode_request(2, &wire(1, 0.5)).unwrap(),
        )
    };
    raw.write_all(&fact_net::frame::encode_frame(&v2).unwrap())
        .unwrap();
    assert!(matches!(fact_net::read_frame(&mut raw), Ok(None) | Err(_)));

    let shard = RemoteShard::connect_endpoint(server.endpoint().clone()).unwrap();
    for i in 0..16u64 {
        let reply = shard
            .request(&wire(i, i as f64 / 16.0))
            .unwrap()
            .wait(WAIT)
            .unwrap();
        assert_eq!(reply.version, 1);
        assert_eq!(decision(&reply).probability, i as f64 / 16.0);
    }
    let stats = shard.stats();
    assert_eq!(stats.wire_version, 1);
    assert_eq!((stats.requests, stats.errors), (16, 0));
    assert!(!handler.seen_v2.load(Ordering::Relaxed));
    server.shutdown();
}

#[test]
fn client_stays_on_json_with_a_worker_that_refuses_hello() {
    client_stays_on_json_with_an_old_worker(Transport::Unix);
}

#[test]
fn client_stays_on_json_with_a_worker_that_refuses_hello_tcp() {
    client_stays_on_json_with_an_old_worker(Transport::Tcp);
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

/// Answers route key 0 at once and holds every other request until the
/// test opens the gate (or ten seconds pass, so a failing test ends).
struct GateHandler {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

/// A reply that is not ready until its handler's gate opens.
struct Gated {
    gate: Arc<(Mutex<bool>, Condvar)>,
    payload: Vec<u8>,
}

impl PendingPayload for Gated {
    fn try_take(&mut self) -> Option<Vec<u8>> {
        let open = *self.gate.0.lock().unwrap();
        open.then(|| std::mem::take(&mut self.payload))
    }

    fn take(self: Box<Self>) -> Vec<u8> {
        let (lock, opened) = &*self.gate;
        let _open = opened
            .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(10), |open| !*open)
            .unwrap();
        self.payload
    }
}

impl ShardHandler for GateHandler {
    fn wire_version(&self) -> u8 {
        fact_net::frame::VERSION
    }

    fn submit(&self, frame: Frame) -> Reply {
        let req = fact_net::decode_request(frame.version, &frame.payload).unwrap();
        let payload = echo_response(frame.version, &req);
        if req.route_key == 0 {
            return Reply::Ready(payload);
        }
        Reply::Pending(Box::new(Gated {
            gate: Arc::clone(&self.gate),
            payload,
        }))
    }
}

/// The worker's writer must send a finished reply before it blocks on the
/// next one: reply 1 is held until the client has *received* reply 0, so a
/// writer that sits on reply 0 while it waits deadlocks here.
fn finished_replies_go_out_before_the_writer_blocks(transport: Transport) {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut server = Server::bind_endpoint(
        fresh_endpoint(transport, "held"),
        Arc::new(GateHandler {
            gate: Arc::clone(&gate),
        }),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    let shard = RemoteShard::connect_endpoint(server.endpoint().clone()).unwrap();
    let first = shard.request(&wire(0, 0.25)).unwrap();
    let second = shard.request(&wire(1, 0.75)).unwrap();

    let reply = first
        .wait(WAIT)
        .expect("reply 0 must not wait behind the held reply 1");
    assert_eq!(decision(&reply).probability, 0.25);
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    assert_eq!(decision(&second.wait(WAIT).unwrap()).probability, 0.75);
    server.shutdown();
}

#[test]
fn finished_replies_go_out_before_the_writer_blocks_on_a_held_one() {
    finished_replies_go_out_before_the_writer_blocks(Transport::Unix);
}

#[test]
fn finished_replies_go_out_before_the_writer_blocks_on_a_held_one_tcp() {
    finished_replies_go_out_before_the_writer_blocks(Transport::Tcp);
}

/// Each reply becomes ready a pseudo-random 0–2 ms after its request
/// arrived, so replies finish out of request order.
struct ShuffledHandler;

struct ReadyAt {
    at: Instant,
    payload: Vec<u8>,
}

impl PendingPayload for ReadyAt {
    fn try_take(&mut self) -> Option<Vec<u8>> {
        (Instant::now() >= self.at).then(|| std::mem::take(&mut self.payload))
    }

    fn take(self: Box<Self>) -> Vec<u8> {
        std::thread::sleep(self.at.saturating_duration_since(Instant::now()));
        self.payload
    }
}

impl ShardHandler for ShuffledHandler {
    fn wire_version(&self) -> u8 {
        fact_net::frame::VERSION
    }

    fn submit(&self, frame: Frame) -> Reply {
        let req = fact_net::decode_request(frame.version, &frame.payload).unwrap();
        let delay_us = frame.corr_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53; // 0..2048
        Reply::Pending(Box::new(ReadyAt {
            at: Instant::now() + Duration::from_micros(delay_us),
            payload: echo_response(frame.version, &req),
        }))
    }
}

/// 1,000 pipelined requests whose replies finish out of order come back in
/// request order, each payload bit-equal to the one the handler made. The
/// peer is a raw socket, so nothing but the wire decides the order seen.
fn replies_keep_request_order(transport: Transport) {
    const N: u64 = 1_000;
    let mut server = Server::bind_endpoint(
        fresh_endpoint(transport, "fifo"),
        Arc::new(ShuffledHandler),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    // bit patterns a lossy path would disturb: subnormals, ±0, extremes
    let odd = [
        f64::MIN_POSITIVE / 3.0,
        -0.0,
        0.0,
        f64::MAX,
        f64::MIN,
        1.0 / 3.0,
    ];
    let requests: Vec<RequestWire> = (0..N)
        .map(|i| wire(i, odd[i as usize % odd.len()]))
        .collect();
    let mut bytes = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let payload = fact_net::encode_request(2, req).unwrap();
        let frame = Frame {
            version: 2,
            ..Frame::new(FrameKind::Request, i as u64, payload)
        };
        fact_net::frame::encode_frame_into(&frame, &mut bytes).unwrap();
    }
    let mut raw = server.endpoint().dial().unwrap();
    raw.write_all(&bytes).unwrap();
    let mut replies = std::io::BufReader::new(raw);
    for (i, req) in requests.iter().enumerate() {
        let reply = fact_net::read_frame(&mut replies).unwrap().expect("reply");
        assert_eq!(reply.corr_id, i as u64, "reply {i} out of order");
        assert_eq!((reply.kind, reply.version), (FrameKind::Response, 2));
        assert_eq!(reply.payload, echo_response(2, req), "reply {i} payload");
    }
    server.shutdown();
}

#[test]
fn out_of_order_completions_reply_in_request_order() {
    replies_keep_request_order(Transport::Unix);
}

#[test]
fn out_of_order_completions_reply_in_request_order_tcp() {
    replies_keep_request_order(Transport::Tcp);
}

/// Holds the connection's reader thread in `submit` on its first frame, so
/// the worker stops reading and the client's frames back up: first in the
/// socket buffers, then in the client's outbox.
struct WedgedReader {
    release: Mutex<mpsc::Receiver<()>>,
}

impl ShardHandler for WedgedReader {
    fn wire_version(&self) -> u8 {
        fact_net::frame::VERSION
    }

    fn submit(&self, _: Frame) -> Reply {
        let _ = self
            .release
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(30));
        Reply::Ready(Vec::new())
    }
}

/// A worker killed while the client still holds queued frames fails every
/// waiter with `Disconnected` within its timeout, and the next request
/// re-dials and negotiates version 2 afresh.
fn worker_death_fails_queued_frames(transport: Transport) {
    // more than the socket buffers of both ends can hold, so the rest
    // waits in the client's outbox behind a blocked write
    const FRAMES: usize = 48;
    const FRAME_BYTES: usize = 512 * 1024;
    let (release, released) = mpsc::channel();
    let mut server = Server::bind_endpoint(
        fresh_endpoint(transport, "queued"),
        Arc::new(WedgedReader {
            release: Mutex::new(released),
        }),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    let shard = RemoteShard::connect_endpoint(endpoint.clone()).unwrap();
    let waiters: Vec<_> = (0..FRAMES)
        .map(|_| {
            shard
                .send(FrameKind::Request, vec![0x5a; FRAME_BYTES])
                .unwrap()
        })
        .collect();

    server.sever();
    drop(release); // let the detached connection thread finish
    for (i, waiter) in waiters.into_iter().enumerate() {
        match waiter.wait(WAIT) {
            Err(NetError::Disconnected) => {}
            other => panic!("waiter {i}: expected Disconnected, got {other:?}"),
        }
    }
    assert_eq!(shard.stats().errors, FRAMES as u64);

    let mut server2 = Server::bind_endpoint(
        endpoint,
        Arc::new(EchoHandler::default()),
        DEFAULT_FRAME_DEADLINE,
    )
    .unwrap();
    let reply = shard.request(&wire(7, 0.5)).unwrap().wait(WAIT).unwrap();
    assert_eq!(decision(&reply).probability, 0.5);
    let stats = shard.stats();
    assert_eq!((stats.reconnects, stats.wire_version), (1, 2));
    server2.shutdown();
}

#[test]
fn worker_death_fails_frames_still_queued_in_the_client() {
    worker_death_fails_queued_frames(Transport::Unix);
}

#[test]
fn worker_death_fails_frames_still_queued_in_the_client_tcp() {
    worker_death_fails_queued_frames(Transport::Tcp);
}
