//! [`RemoteShard`]: the client side of a worker connection.
//!
//! One `RemoteShard` owns one connection — Unix-domain or TCP, see
//! [`Endpoint`] — to one `fact-shardd` worker. Sends happen on the
//! caller's thread under a short lock; a dedicated reader thread matches
//! response frames back to waiters through a correlation-id map, so many
//! requests can be in flight at once and replies may arrive in any order.
//!
//! When the worker dies the reader thread fails every pending waiter with
//! [`NetError::Disconnected`] and marks the connection dead; the *next*
//! send transparently reconnects (and counts it), which is exactly the
//! shape a kill-and-respawn experiment needs. The waiter map lives on the
//! connection, not the client, so a late drain from a dying reader can
//! never fail requests already riding the replacement connection. Both
//! behaviors are transport-independent (`PROTOCOL.md` §2).
//!
//! Every dial — the first and each reconnect — writes a `hello` control
//! frame and does not wait for its ack. Requests go out as version-1 JSON
//! until the ack arrives; the reader thread then flips the connection to
//! the version the worker advertised, and [`RemoteShard::request`] encodes
//! from then on in binary. A worker that predates version 2 refuses the
//! unknown verb, and the connection simply stays on JSON (`PROTOCOL.md`
//! §7 — Version negotiation).

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::endpoint::{Endpoint, NetStream};
use crate::frame::{encode_frame, read_frame, Frame, FrameKind, MIN_VERSION};
use crate::payload::{self, RequestWire};
use crate::NetError;

type PendingMap = Arc<Mutex<HashMap<u64, ReplySender>>>;

/// Where one reply meets its waiter: the reader thread fills it once, the
/// waiter takes it once. Per request this is one small allocation by the
/// caller; a std channel would add a cache-aligned allocation plus a block
/// the reader thread allocates and the caller frees, which cost CPU and
/// fragmented the caller's heap under load.
struct ReplySlot {
    state: Mutex<Reply>,
    arrived: Condvar,
}

enum Reply {
    Pending,
    Arrived(Result<Frame, NetError>),
    Taken,
}

impl ReplySlot {
    /// Settle the slot; a slot settles once, later results are ignored.
    /// Runs from `Drop`, so it must not panic: every update of the state
    /// is one assignment, so a poisoned lock still guards a valid state.
    fn fill(&self, result: Result<Frame, NetError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, Reply::Pending) {
            *state = Reply::Arrived(result);
            self.arrived.notify_one();
        }
    }
}

/// The reader's end of a [`ReplySlot`]. Dropping it unfilled fails the
/// waiter with [`NetError::Disconnected`], as a dropped channel sender
/// would, so no waiter outlives its connection.
struct ReplySender(Option<Arc<ReplySlot>>);

impl ReplySender {
    fn send(mut self, result: Result<Frame, NetError>) {
        if let Some(slot) = self.0.take() {
            slot.fill(result);
        }
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.fill(Err(NetError::Disconnected));
        }
    }
}

/// Live counters for one remote connection.
#[derive(Debug, Default)]
struct RemoteStats {
    requests: AtomicU64,
    reconnects: AtomicU64,
    errors: AtomicU64,
    rtt_micros_total: AtomicU64,
    rtt_count: AtomicU64,
}

/// Point-in-time view of a connection's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteStatsSnapshot {
    /// Frames sent (all kinds), not counting the `hello` each dial sends.
    pub requests: u64,
    /// Times the connection was re-established after the first connect.
    pub reconnects: u64,
    /// Sends or waits that surfaced an error (including timeouts).
    pub errors: u64,
    /// Completed request/response round trips measured.
    pub rtt_count: u64,
    /// Mean round-trip time over measured round trips.
    pub rtt_mean_micros: f64,
    /// Frame version the most recent connection negotiated: 1 until the
    /// worker's `hello` ack advertises more, and for good with a worker
    /// that predates version 2.
    pub wire_version: u8,
}

/// A reply that has been sent but not yet received.
///
/// Mirrors `fact-serve`'s `DecisionHandle`: the caller chooses when (and
/// whether) to block.
pub struct PendingReply {
    slot: Arc<ReplySlot>,
    sent_at: Instant,
    stats: Arc<RemoteStats>,
}

impl PendingReply {
    /// Block until the reply arrives or `timeout` passes.
    pub fn wait(self, timeout: Duration) -> Result<Frame, NetError> {
        // an unrepresentable deadline waits without one
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.slot.state.lock().expect("reply slot lock");
        while matches!(*state, Reply::Pending) {
            state = match deadline {
                None => self.slot.arrived.wait(state).expect("reply slot lock"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        self.stats.errors.fetch_add(1, Ordering::Relaxed);
                        return Err(NetError::Timeout);
                    }
                    let (state, _) = self
                        .slot
                        .arrived
                        .wait_timeout(state, left)
                        .expect("reply slot lock");
                    state
                }
            };
        }
        let reply = std::mem::replace(&mut *state, Reply::Taken);
        drop(state);
        match reply {
            Reply::Arrived(result) => self.count(result),
            // an earlier try_wait already took it
            _ => self.count(Err(NetError::Disconnected)),
        }
    }

    /// Non-blocking poll; `None` while the reply is still in flight. A
    /// reply already consumed (or failed) polls as `Some(Err(Disconnected))`
    /// afterwards, mirroring a one-shot channel.
    pub fn try_wait(&self) -> Option<Result<Frame, NetError>> {
        let mut state = self.slot.state.lock().expect("reply slot lock");
        match std::mem::replace(&mut *state, Reply::Taken) {
            Reply::Pending => {
                *state = Reply::Pending;
                None
            }
            Reply::Arrived(result) => {
                drop(state);
                Some(self.count(result))
            }
            Reply::Taken => Some(Err(NetError::Disconnected)),
        }
    }

    /// Record a received reply in the connection counters.
    fn count(&self, result: Result<Frame, NetError>) -> Result<Frame, NetError> {
        match &result {
            Ok(_) => {
                let rtt = self.sent_at.elapsed();
                self.stats
                    .rtt_micros_total
                    .fetch_add(rtt.as_micros() as u64, Ordering::Relaxed);
                self.stats.rtt_count.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

struct Conn {
    stream: NetStream,
    alive: Arc<AtomicBool>,
    pending: PendingMap,
    /// The negotiated frame version; the reader thread raises it when the
    /// `hello` ack arrives. It publishes no other data, so `Relaxed`.
    version: Arc<AtomicU8>,
}

/// A connection to one remote worker process.
pub struct RemoteShard {
    endpoint: Endpoint,
    conn: Mutex<Option<Conn>>,
    /// The newest connection's negotiated version, behind its own lock so
    /// [`stats`](RemoteShard::stats) never waits on a send.
    version: Mutex<Arc<AtomicU8>>,
    next_corr: AtomicU64,
    ever_connected: AtomicBool,
    stats: Arc<RemoteStats>,
}

impl RemoteShard {
    /// Connect to the worker listening on the Unix socket at `path`. Fails
    /// fast if the worker is not up yet; later disconnects are healed
    /// lazily by [`send`].
    ///
    /// [`send`]: RemoteShard::send
    pub fn connect(path: impl Into<PathBuf>) -> Result<RemoteShard, NetError> {
        Self::connect_endpoint(Endpoint::Unix(path.into()))
    }

    /// Connect to the worker at `endpoint` — either transport family.
    /// Failure, reconnect, and pipelining semantics are identical to
    /// [`connect`](RemoteShard::connect).
    pub fn connect_endpoint(endpoint: Endpoint) -> Result<RemoteShard, NetError> {
        let shard = RemoteShard {
            endpoint,
            conn: Mutex::new(None),
            version: Mutex::default(),
            next_corr: AtomicU64::new(1),
            ever_connected: AtomicBool::new(false),
            stats: Arc::new(RemoteStats::default()),
        };
        {
            let mut guard = shard.conn.lock().expect("conn lock");
            shard.ensure_connected(&mut guard)?;
        }
        Ok(shard)
    }

    /// The endpoint this shard dials.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn ensure_connected(&self, guard: &mut Option<Conn>) -> Result<(), NetError> {
        if let Some(conn) = guard.as_ref() {
            if conn.alive.load(Ordering::Acquire) {
                return Ok(());
            }
            *guard = None; // its reader fails that connection's waiters
        }
        let mut stream = self.endpoint.dial()?;
        // negotiate without a round trip: the ack is the reader's to handle
        let hello_corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let hello = Frame::new(FrameKind::Control, hello_corr, payload::hello());
        stream.write_all(&encode_frame(&hello)?)?;
        let alive = Arc::new(AtomicBool::new(true));
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let version = Arc::new(AtomicU8::new(MIN_VERSION));
        let reader = Reader {
            stream: stream.try_clone()?,
            pending: Arc::clone(&pending),
            alive: Arc::clone(&alive),
            version: Arc::clone(&version),
            hello_corr,
        };
        thread::Builder::new()
            .name("fact-net-reader".into())
            .spawn(move || reader.run())
            .map_err(NetError::Io)?;
        if self.ever_connected.swap(true, Ordering::AcqRel) {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        *self.version.lock().expect("version lock") = Arc::clone(&version);
        *guard = Some(Conn {
            stream,
            alive,
            pending,
            version,
        });
        Ok(())
    }

    /// Send one version-1 frame carrying `payload` as given (JSON, for the
    /// payload kinds that have one) and return a handle for its reply.
    /// Reconnects first if the previous connection died.
    pub fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<PendingReply, NetError> {
        self.send_with(kind, |_| Ok((MIN_VERSION, payload)))
    }

    /// Send one decision request in the encoding this connection has
    /// negotiated — binary once the worker's `hello` ack advertised
    /// version 2, JSON before that. The reply frame carries the same
    /// version; decode it with [`payload::decode_response`].
    pub fn request(&self, request: &RequestWire) -> Result<PendingReply, NetError> {
        self.send_with(FrameKind::Request, |version| {
            Ok((version, payload::encode_request(version, request)?))
        })
    }

    /// Frame and write one payload, built by `payload` from the live
    /// connection's negotiated version under the connection lock, so a
    /// reconnect in between can never pair a payload with the wrong peer.
    fn send_with(
        &self,
        kind: FrameKind,
        payload: impl FnOnce(u8) -> Result<(u8, Vec<u8>), NetError>,
    ) -> Result<PendingReply, NetError> {
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ReplySlot {
            state: Mutex::new(Reply::Pending),
            arrived: Condvar::new(),
        });
        let mut guard = self.conn.lock().expect("conn lock");
        let framed = self.ensure_connected(&mut guard).and_then(|()| {
            let conn = guard.as_ref().expect("connected above");
            let (version, payload) = payload(conn.version.load(Ordering::Relaxed))?;
            Ok(encode_frame(&Frame {
                version,
                kind,
                corr_id,
                payload,
            })?)
        });
        let bytes = match framed {
            Ok(bytes) => bytes,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let conn = guard.as_mut().expect("connected above");
        // register before writing: the reply can race back before we would
        // get another chance to insert
        conn.pending
            .lock()
            .expect("pending lock")
            .insert(corr_id, ReplySender(Some(Arc::clone(&slot))));
        let sent_at = Instant::now();
        if let Err(e) = conn.stream.write_all(&bytes) {
            conn.pending.lock().expect("pending lock").remove(&corr_id);
            conn.alive.store(false, Ordering::Release);
            *guard = None;
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Io(e));
        }
        drop(guard);
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        Ok(PendingReply {
            slot,
            sent_at,
            stats: Arc::clone(&self.stats),
        })
    }

    /// Convenience: send a control command and wait for its raw ack frame.
    pub fn control(&self, command: &str, timeout: Duration) -> Result<Frame, NetError> {
        let payload = crate::payload::encode(&crate::payload::ControlWire {
            command: command.to_string(),
        })?;
        self.send(FrameKind::Control, payload)?.wait(timeout)
    }

    /// Snapshot the connection counters.
    pub fn stats(&self) -> RemoteStatsSnapshot {
        let wire_version = self
            .version
            .lock()
            .expect("version lock")
            .load(Ordering::Relaxed);
        let rtt_count = self.stats.rtt_count.load(Ordering::Relaxed);
        let rtt_total = self.stats.rtt_micros_total.load(Ordering::Relaxed);
        RemoteStatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            rtt_count,
            rtt_mean_micros: if rtt_count == 0 {
                0.0
            } else {
                rtt_total as f64 / rtt_count as f64
            },
            wire_version,
        }
    }
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard")
            .field("endpoint", &self.endpoint)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The reader half of one connection: matches replies to waiters and
/// settles the negotiated version from the `hello` ack.
struct Reader {
    stream: NetStream,
    pending: PendingMap,
    alive: Arc<AtomicBool>,
    version: Arc<AtomicU8>,
    hello_corr: u64,
}

impl Reader {
    fn run(mut self) {
        // a clean close (Ok(None)) or a torn stream (Err) both end the
        // loop: either way this connection is done
        while let Ok(Some(frame)) = read_frame(&mut self.stream) {
            if frame.corr_id == self.hello_corr {
                if let Some(v) = payload::hello_version(&frame.payload) {
                    self.version.store(v, Ordering::Relaxed);
                }
                continue;
            }
            let waiter = self
                .pending
                .lock()
                .expect("pending lock")
                .remove(&frame.corr_id);
            if let Some(reply) = waiter {
                reply.send(Ok(frame)); // the waiter may have timed out and gone
            }
        }
        self.alive.store(false, Ordering::Release);
        for (_, reply) in self.pending.lock().expect("pending lock").drain() {
            reply.send(Err(NetError::Disconnected));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending() -> (ReplySender, PendingReply) {
        let slot = Arc::new(ReplySlot {
            state: Mutex::new(Reply::Pending),
            arrived: Condvar::new(),
        });
        let reply = PendingReply {
            slot: Arc::clone(&slot),
            sent_at: Instant::now(),
            stats: Arc::new(RemoteStats::default()),
        };
        (ReplySender(Some(slot)), reply)
    }

    fn frame() -> Frame {
        Frame::new(FrameKind::Response, 7, b"ok".to_vec())
    }

    #[test]
    fn a_reply_sent_from_another_thread_wakes_its_waiter() {
        let (tx, reply) = pending();
        let sender = thread::spawn(move || tx.send(Ok(frame())));
        assert_eq!(reply.wait(Duration::from_secs(10)).unwrap(), frame());
        sender.join().unwrap();
    }

    #[test]
    fn a_reply_is_taken_once() {
        let (tx, reply) = pending();
        assert!(reply.try_wait().is_none());
        tx.send(Ok(frame()));
        assert_eq!(reply.try_wait().unwrap().unwrap(), frame());
        assert!(matches!(
            reply.try_wait(),
            Some(Err(NetError::Disconnected))
        ));
        assert!(matches!(
            reply.wait(Duration::ZERO),
            Err(NetError::Disconnected)
        ));
    }

    #[test]
    fn a_dropped_sender_disconnects_and_silence_times_out() {
        let (tx, reply) = pending();
        drop(tx);
        assert!(matches!(
            reply.wait(Duration::from_secs(10)),
            Err(NetError::Disconnected)
        ));

        let (_tx, reply) = pending();
        let stats = Arc::clone(&reply.stats);
        assert!(matches!(
            reply.wait(Duration::from_millis(5)),
            Err(NetError::Timeout)
        ));
        assert_eq!(stats.errors.load(Ordering::Relaxed), 1);
        // an unrepresentable timeout still returns once the reply arrives
        let (tx, reply) = pending();
        tx.send(Ok(frame()));
        assert!(reply.wait(Duration::MAX).is_ok());
    }
}
