//! Helpers the `fact-net` socket tests share: the two transports every
//! scenario runs over and an echo server to run them against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fact_net::{
    decode_request, encode_response, Endpoint, Frame, FrameKind, Reply, RequestWire, ResponseWire,
    Server, ShardHandler,
};

/// The two transport families every scenario must behave identically on.
#[derive(Clone, Copy)]
pub enum Transport {
    Unix,
    Tcp,
}

/// An unbound endpoint of the given family; TCP picks an ephemeral port.
pub fn fresh_endpoint(transport: Transport, tag: &str) -> Endpoint {
    match transport {
        Transport::Unix => Endpoint::unix(
            std::env::temp_dir().join(format!("fact-net-{tag}-{}.sock", std::process::id())),
        ),
        Transport::Tcp => Endpoint::tcp("127.0.0.1:0"),
    }
}

/// Answers requests — JSON or binary, per frame version — with decisions
/// whose probability is the first feature, echoes every other frame's
/// payload back unchanged, and counts the frames it sees (the server
/// answers `hello` itself, so those never reach it).
#[derive(Default)]
pub struct EchoHandler {
    pub seen: AtomicU64,
}

impl ShardHandler for EchoHandler {
    fn wire_version(&self) -> u8 {
        fact_net::frame::VERSION
    }

    fn submit(&self, frame: Frame) -> Reply {
        self.seen.fetch_add(1, Ordering::Relaxed);
        Reply::Ready(match frame.kind {
            FrameKind::Request => match decode_request(frame.version, &frame.payload) {
                Ok(req) => echo_response(frame.version, &req),
                Err(e) => {
                    encode_response(frame.version, &ResponseWire::failure(e.to_string())).unwrap()
                }
            },
            _ => frame.payload,
        })
    }
}

/// The echo handler's answer to `req`, encoded for frame version
/// `version`: a decision whose probability is the first feature.
pub fn echo_response(version: u8, req: &RequestWire) -> Vec<u8> {
    let resp = ResponseWire::success(fact_net::DecisionWire {
        probability: req.features.first().copied().unwrap_or(0.0),
        favorable: req.group_b,
        flagged: false,
        shard: (req.route_key % 4) as usize,
    });
    encode_response(version, &resp).unwrap()
}

/// Bind an echo server on the given transport with per-frame delivery
/// deadline `deadline`; returns the *resolved* endpoint (TCP's ephemeral
/// port filled in).
pub fn start_echo(
    transport: Transport,
    tag: &str,
    deadline: Duration,
) -> (Server, Endpoint, Arc<EchoHandler>) {
    let handler = Arc::new(EchoHandler::default());
    let server = Server::bind_endpoint(
        fresh_endpoint(transport, tag),
        Arc::clone(&handler) as Arc<dyn ShardHandler>,
        deadline,
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    (server, endpoint, handler)
}
