//! Helpers the `fact-net` socket tests share: the two transports every
//! scenario runs over and an echo server to run them against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fact_net::{
    decode, encode, Endpoint, FrameKind, RequestWire, ResponseWire, Server, ShardHandler,
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

/// Answers requests with decisions whose probability is the first
/// feature, echoes every other frame's payload back unchanged, and counts
/// the frames it sees.
#[derive(Default)]
pub struct EchoHandler {
    pub seen: AtomicU64,
}

impl ShardHandler for EchoHandler {
    fn submit(&self, kind: FrameKind, payload: Vec<u8>) -> Box<dyn FnOnce() -> Vec<u8> + Send> {
        self.seen.fetch_add(1, Ordering::Relaxed);
        Box::new(move || match kind {
            FrameKind::Request => {
                let resp = match decode::<RequestWire>(&payload) {
                    Ok(req) => ResponseWire::success(fact_net::DecisionWire {
                        probability: req.features.first().copied().unwrap_or(0.0),
                        favorable: req.group_b,
                        flagged: false,
                        shard: (req.route_key % 4) as usize,
                    }),
                    Err(e) => ResponseWire::failure(e.to_string()),
                };
                encode(&resp).unwrap()
            }
            _ => payload,
        })
    }
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
