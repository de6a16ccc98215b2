//! [`RemoteShard`]: the client side of a worker connection.
//!
//! One `RemoteShard` owns one connection — Unix-domain or TCP, see
//! [`Endpoint`] — to one `fact-shardd` worker, served by two threads:
//!
//! * callers encode each frame straight into the connection's *outbox*
//!   under a short lock, and a **writer** thread takes the whole outbox
//!   and sends it with one write whenever it is free, so a burst of
//!   requests from many callers costs one write;
//! * a **reader** thread decodes reply frames out of a read buffer and
//!   matches them back to waiters through a correlation-id map, so many
//!   requests can be in flight at once and replies may arrive in any
//!   order. Each waiter is a [`oneshot`] slot: the reader settles it and
//!   the caller's [`PendingReply`] takes the reply from it.
//!
//! When the worker dies the reader thread fails every pending waiter with
//! [`NetError::Disconnected`] and marks the connection dead; a failed
//! write does the same by shutting the socket down under the reader. The
//! *next* send transparently reconnects (and counts it), which is exactly
//! the shape a kill-and-respawn experiment needs. The waiter map lives on
//! the connection, not the client, so a late drain from a dying reader can
//! never fail requests already riding the replacement connection. Both
//! behaviors are transport-independent (`PROTOCOL.md` §2).
//!
//! Dropping a `RemoteShard` (or replacing a dead connection) stops its
//! writer, which sends what is still queued and half-closes the socket;
//! the worker answers what it received and closes its end, which ends the
//! reader. No thread or descriptor outlives the connection.
//!
//! Every dial — the first and each reconnect — queues a `hello` control
//! frame ahead of everything else and does not wait for its ack. Requests
//! go out as version-1 JSON until the ack arrives; the reader thread then
//! flips the connection to the version the worker advertised, and
//! [`RemoteShard::request`] encodes from then on in binary. A worker that
//! predates version 2 refuses the unknown verb, and the connection simply
//! stays on JSON (`PROTOCOL.md` §7 — Version negotiation).

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::endpoint::{Endpoint, NetStream};
use crate::frame::{encode_frame_into, read_frame, Frame, FrameKind, MIN_VERSION};
use crate::oneshot::{self, RecvError};
use crate::payload::{self, RequestWire};
use crate::NetError;

/// The waiters of one connection by correlation id; `None` once its reader
/// has exited and failed them all, so a late send can never register a
/// waiter nobody would answer.
type PendingMap = Arc<Mutex<Option<HashMap<u64, ReplySender>>>>;

/// Where the reader thread settles one reply; [`PendingReply`] holds the
/// other end.
type ReplySender = oneshot::Sender<Result<Frame, NetError>>;

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

/// A reply that has been sent but not yet received: the waiting end of a
/// [`oneshot`] slot the connection's reader thread settles.
///
/// Mirrors `fact-serve`'s `DecisionHandle`: the caller chooses when (and
/// whether) to block.
pub struct PendingReply {
    slot: oneshot::Receiver<Result<Frame, NetError>>,
    sent_at: Instant,
    stats: Arc<RemoteStats>,
}

impl PendingReply {
    /// Block until the reply arrives or `timeout` passes.
    pub fn wait(mut self, timeout: Duration) -> Result<Frame, NetError> {
        match self.slot.wait(timeout) {
            Ok(result) => self.count(result),
            Err(RecvError::Timeout) => self.count(Err(NetError::Timeout)),
            // an earlier try_wait already took it, or the reader dropped
            // the waiter unanswered
            Err(RecvError::Closed) => self.count(Err(NetError::Disconnected)),
        }
    }

    /// Non-blocking poll; `None` while the reply is still in flight. A
    /// reply already consumed (or failed) polls as `Some(Err(Disconnected))`
    /// afterwards, mirroring a one-shot channel.
    pub fn try_wait(&self) -> Option<Result<Frame, NetError>> {
        match self.slot.try_wait()? {
            Ok(result) => Some(self.count(result)),
            Err(_) => Some(Err(NetError::Disconnected)),
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
    pending: PendingMap,
    /// The negotiated frame version; the reader thread raises it when the
    /// `hello` ack arrives. It publishes no other data, so `Relaxed`.
    version: Arc<AtomicU8>,
    outbox: Arc<Outbox>,
}

impl Conn {
    /// Whether the reader still answers waiters on this connection.
    fn alive(&self) -> bool {
        self.pending.lock().expect("pending lock").is_some()
    }
}

impl Drop for Conn {
    /// Stop the writer: it sends what is queued and half-closes the socket.
    fn drop(&mut self) {
        let mut queue = self.outbox.lock();
        queue.closed = true;
        if queue.parked {
            self.outbox.ready.notify_one();
        }
    }
}

/// Frames encoded by callers and not yet written, shared with the
/// connection's writer thread.
struct Outbox {
    queue: Mutex<Queue>,
    ready: Condvar,
}

struct Queue {
    bytes: Vec<u8>,
    /// The writer is waiting on `ready`; callers signal only then.
    parked: bool,
    /// The connection was dropped: the writer sends what is left and exits.
    closed: bool,
}

impl Outbox {
    /// Runs from `Drop`, so it must not panic: every update of the queue
    /// leaves it valid, so a poisoned lock still guards a usable queue.
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
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
            if conn.alive() {
                return Ok(());
            }
            *guard = None; // its reader already failed that connection's waiters
        }
        let stream = self.endpoint.dial()?;
        let read_half = stream.try_clone()?;
        // negotiate without a round trip: the hello goes out first, and its
        // ack is the reader's to handle
        let hello_corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let hello = Frame::new(FrameKind::Control, hello_corr, payload::hello());
        let mut bytes = Vec::new();
        encode_frame_into(&hello, &mut bytes)?;
        let outbox = Arc::new(Outbox {
            queue: Mutex::new(Queue {
                bytes,
                parked: false,
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let pending: PendingMap = Arc::new(Mutex::new(Some(HashMap::new())));
        let version = Arc::new(AtomicU8::new(MIN_VERSION));
        let reader = Reader {
            stream: BufReader::new(read_half),
            pending: Arc::clone(&pending),
            version: Arc::clone(&version),
            hello_corr,
        };
        // both threads are detached: they end on their own once the socket
        // is shut down, and joining them could wait on a peer that never
        // reads or never closes
        let writer_outbox = Arc::clone(&outbox);
        thread::Builder::new()
            .name("fact-net-sender".into())
            .spawn(move || write_outbox(stream, &writer_outbox))
            .map_err(NetError::Io)?;
        // from here on, dropping the connection stops its writer
        let conn = Conn {
            pending,
            version: Arc::clone(&version),
            outbox,
        };
        thread::Builder::new()
            .name("fact-net-reader".into())
            .spawn(move || reader.run())
            .map_err(NetError::Io)?;
        if self.ever_connected.swap(true, Ordering::AcqRel) {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        *self.version.lock().expect("version lock") = version;
        *guard = Some(conn);
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

    /// Frame one payload into the outbox, built by `payload` from the live
    /// connection's negotiated version under the connection lock, so a
    /// reconnect in between can never pair a payload with the wrong peer.
    fn send_with(
        &self,
        kind: FrameKind,
        payload: impl FnOnce(u8) -> Result<(u8, Vec<u8>), NetError>,
    ) -> Result<PendingReply, NetError> {
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (reply, slot) = oneshot::channel();
        let mut guard = self.conn.lock().expect("conn lock");
        let queued = self.ensure_connected(&mut guard).and_then(|()| {
            let conn = guard.as_ref().expect("connected above");
            let (version, payload) = payload(conn.version.load(Ordering::Relaxed))?;
            let frame = Frame {
                version,
                kind,
                corr_id,
                payload,
            };
            // hold the waiter map until the waiter is in it: the reply can
            // race back as soon as the frame is queued
            let mut pending = conn.pending.lock().expect("pending lock");
            let waiters = pending.as_mut().ok_or(NetError::Disconnected)?; // reader just exited
            let mut queue = conn.outbox.lock();
            encode_frame_into(&frame, &mut queue.bytes)?;
            if queue.parked {
                queue.parked = false;
                conn.outbox.ready.notify_one();
            }
            waiters.insert(corr_id, reply);
            Ok(())
        });
        drop(guard);
        if let Err(e) = queued {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        Ok(PendingReply {
            slot,
            sent_at: Instant::now(),
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

/// The writer half of one connection: whenever the outbox holds frames,
/// take them all and send them with one write. A failed write shuts the
/// socket down, so the reader fails every waiter and the next send
/// re-dials. It swaps buffers with the outbox rather than allocating, so
/// it sends any number of frames without a heap allocation of its own.
fn write_outbox(mut stream: NetStream, outbox: &Outbox) {
    let mut batch = Vec::new();
    loop {
        let closed = {
            let mut queue = outbox.lock();
            while queue.bytes.is_empty() && !queue.closed {
                queue.parked = true;
                queue = outbox.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
            queue.parked = false;
            std::mem::swap(&mut queue.bytes, &mut batch);
            queue.closed
        };
        if stream.write_all(&batch).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        batch.clear();
        if closed {
            // the worker answers what it got, then closes, ending the reader
            let _ = stream.shutdown(Shutdown::Write);
            return;
        }
    }
}

/// The reader half of one connection: matches replies to waiters and
/// settles the negotiated version from the `hello` ack.
struct Reader {
    stream: BufReader<NetStream>,
    pending: PendingMap,
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
                .as_mut()
                .and_then(|waiters| waiters.remove(&frame.corr_id));
            if let Some(reply) = waiter {
                reply.send(Ok(frame)); // the waiter may have timed out and gone
            }
        }
        let waiters = self.pending.lock().expect("pending lock").take();
        for (_, reply) in waiters.into_iter().flatten() {
            reply.send(Err(NetError::Disconnected));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending() -> (ReplySender, PendingReply) {
        let (tx, slot) = oneshot::channel();
        let reply = PendingReply {
            slot,
            sent_at: Instant::now(),
            stats: Arc::new(RemoteStats::default()),
        };
        (tx, reply)
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
