//! [`Server`]: the worker-side acceptor.
//!
//! Each accepted connection gets two threads, mirroring the single-writer
//! shape used by the serve-side audit sink:
//!
//! * a **reader** that decodes frames out of a per-connection read buffer
//!   and immediately hands each one to the [`ShardHandler`], which returns
//!   a [`Reply`] — enqueue fast, never block the socket on shard work;
//! * a **writer** that drains replies in FIFO order, appends each finished
//!   reply frame to one reused buffer, and writes that buffer with a single
//!   write just before it would block: on an empty queue, or on a reply
//!   that is not ready yet. It never holds a finished reply while it waits.
//!
//! Because the replies are drained in submission order by a single writer,
//! responses pipeline (many in flight) without interleaving partial frames,
//! and per-connection reply order matches request order even though the
//! correlation id would tolerate reordering. A burst of finished replies
//! costs one write, and the peer may read several frames with one read
//! (`PROTOCOL.md` §2).
//!
//! The server listens on either transport family — a Unix-domain socket or
//! a TCP address — via [`Server::bind_endpoint`]; [`Server::bind`] keeps
//! the original Unix-path signature. Framing, deadlines, and teardown are
//! identical across both (see `PROTOCOL.md` §2).
//!
//! The server answers a client's `hello` itself when the handler speaks
//! binary payloads ([`ShardHandler::wire_version`] above 1), and passes it
//! to the handler — which refuses it like any unknown verb — when it does
//! not. Each reply frame carries the version of the frame it answers
//! (`PROTOCOL.md` §7 — Version negotiation).
//!
//! A connection's bookkeeping — the stream clone kept for shutdown and the
//! thread handle — is released when the connection ends, so client churn
//! holds no descriptors or threads beyond the live connections.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::Shutdown;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::endpoint::{Endpoint, NetStream};
use crate::frame::{
    encode_frame_into, read_frame_deadline, DeadlineRead, Frame, FrameKind, MIN_VERSION,
};
use crate::payload;

/// Default per-frame delivery deadline: once a frame's first byte arrives,
/// the rest must follow within this budget or the connection is torn down
/// (`PROTOCOL.md §5 — Deadlines`; idle connections are never torn down).
pub const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(30);

/// How often a blocked reader wakes to re-check its frame deadline.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Pause after a failed `accept` (e.g. `EMFILE`), so a persistent error
/// does not spin the accept thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A connection's writer sends what it has gathered once it holds this
/// many bytes, even if more finished replies are queued, which bounds its
/// reused buffer under a long burst.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// What a worker process plugs into the server: turn one request frame
/// into the [`Reply`] that answers it.
///
/// `submit` runs on the connection's reader thread and must return
/// quickly (enqueue, don't compute); a pending reply is finished on the
/// connection's writer thread. The reply payload goes out in a frame of
/// the same version as `frame`, so it must be encoded for `frame.version`.
pub trait ShardHandler: Send + Sync + 'static {
    /// Highest frame version whose request/response payloads this handler
    /// decodes and encodes. The default, 1, is a JSON-only handler: the
    /// server hands it `hello` like any other control verb, and drops a
    /// connection that sends it a higher version.
    fn wire_version(&self) -> u8 {
        MIN_VERSION
    }

    /// Accept one frame and return its reply.
    fn submit(&self, frame: Frame) -> Reply;
}

/// The answer a [`ShardHandler`] owes one frame.
pub enum Reply {
    /// The payload is ready now.
    Ready(Vec<u8>),
    /// The payload is still being produced. The writer polls it and blocks
    /// on it only after it has written every finished reply ahead of it.
    Pending(Box<dyn PendingPayload>),
}

impl Reply {
    /// A payload that only `produce` can make, blocking as long as it
    /// needs. It never polls ready, so the writer first sends everything
    /// queued ahead of it, then runs `produce`.
    pub fn blocking(produce: impl FnOnce() -> Vec<u8> + Send + 'static) -> Reply {
        struct Blocking<F>(F);
        impl<F: FnOnce() -> Vec<u8> + Send> PendingPayload for Blocking<F> {
            fn try_take(&mut self) -> Option<Vec<u8>> {
                None
            }
            fn take(self: Box<Self>) -> Vec<u8> {
                (self.0)()
            }
        }
        Reply::Pending(Box::new(Blocking(produce)))
    }
}

/// A reply payload that is not ready yet (see [`Reply::Pending`]).
pub trait PendingPayload: Send {
    /// The payload if it is ready, without blocking; `None` otherwise.
    fn try_take(&mut self) -> Option<Vec<u8>>;

    /// Block until the payload is ready and return it.
    fn take(self: Box<Self>) -> Vec<u8>;
}

/// A listening fact-net endpoint (Unix-domain socket or TCP address).
pub struct Server {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// A clone of each live connection's stream, by connection id, so
    /// shutdown can sever them; a connection removes its own on exit.
    conns: Arc<Mutex<HashMap<u64, NetStream>>>,
    /// Connection threads not yet joined; finished ones are joined as new
    /// connections arrive, the rest at teardown.
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind the Unix socket at `path` and start accepting connections,
    /// dispatching frames to `handler`. A stale socket file at `path` is
    /// removed first. Peers get [`DEFAULT_FRAME_DEADLINE`] to deliver each
    /// started frame.
    pub fn bind(path: impl Into<PathBuf>, handler: Arc<dyn ShardHandler>) -> io::Result<Server> {
        Server::bind_with_deadline(path, handler, DEFAULT_FRAME_DEADLINE)
    }

    /// Like [`bind`], but with an explicit per-frame delivery deadline: a
    /// peer that dribbles a header byte-at-a-time or stalls mid-payload
    /// for longer than `frame_deadline` is disconnected (the torn frame
    /// surfaces as `FrameError::Truncated` on the reader) instead of
    /// wedging the connection's reader thread forever. Idle connections
    /// with no frame in progress are never torn down.
    ///
    /// [`bind`]: Server::bind
    pub fn bind_with_deadline(
        path: impl Into<PathBuf>,
        handler: Arc<dyn ShardHandler>,
        frame_deadline: Duration,
    ) -> io::Result<Server> {
        Server::bind_endpoint(Endpoint::Unix(path.into()), handler, frame_deadline)
    }

    /// Bind either transport family. `Endpoint::Tcp` with port 0 binds an
    /// ephemeral port; [`endpoint`](Server::endpoint) reports the resolved
    /// address. Deadline semantics match [`bind_with_deadline`] exactly —
    /// the transport changes nothing about the protocol.
    ///
    /// [`bind_with_deadline`]: Server::bind_with_deadline
    pub fn bind_endpoint(
        endpoint: Endpoint,
        handler: Arc<dyn ShardHandler>,
        frame_deadline: Duration,
    ) -> io::Result<Server> {
        let listener = endpoint.bind()?;
        let endpoint = listener.endpoint(); // ephemeral TCP ports resolved
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, NetStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conns);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("fact-net-accept".into())
            .spawn(move || {
                for id in 0u64.. {
                    let stream = match listener.accept() {
                        Ok(s) => s,
                        Err(_) => {
                            if accept_stop.load(Ordering::Acquire) {
                                break;
                            }
                            thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        }
                    };
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(clone) = stream.try_clone() {
                        accept_conns.lock().expect("conns lock").insert(id, clone);
                    }
                    let handler = Arc::clone(&handler);
                    let conns = Arc::clone(&accept_conns);
                    let spawned =
                        thread::Builder::new()
                            .name("fact-net-conn".into())
                            .spawn(move || {
                                serve_conn(stream, handler, frame_deadline);
                                conns.lock().expect("conns lock").remove(&id);
                            });
                    let mut threads = accept_threads.lock().expect("threads lock");
                    let (done, live) = threads.drain(..).partition(|h| h.is_finished());
                    *threads = live;
                    for h in done {
                        let _ = h.join();
                    }
                    match spawned {
                        Ok(h) => threads.push(h),
                        Err(_) => drop(accept_conns.lock().expect("conns lock").remove(&id)),
                    }
                }
            })?;

        Ok(Server {
            endpoint,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            conn_threads,
        })
    }

    /// The endpoint this server listens on (ephemeral TCP ports resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The socket path this server listens on; panics for TCP servers
    /// (kept for Unix-only callers — prefer [`endpoint`](Server::endpoint)).
    pub fn local_path(&self) -> &Path {
        match &self.endpoint {
            Endpoint::Unix(path) => path,
            Endpoint::Tcp(addr) => panic!("local_path() on a TCP server ({addr})"),
        }
    }

    /// Stop accepting, sever live connections, and join all threads.
    /// Idempotent via drop; callable explicitly for deterministic teardown.
    pub fn shutdown(&mut self) {
        self.teardown(true);
    }

    /// Like [`shutdown`], but detaches connection threads instead of
    /// joining them — for kill paths where a connection thread may be
    /// wedged in shard work and the caller cannot afford to wait it out.
    ///
    /// [`shutdown`]: Server::shutdown
    pub fn sever(&mut self) {
        self.teardown(false);
    }

    fn teardown(&mut self, join_conns: bool) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = self.endpoint.dial();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for (_, conn) in self.conns.lock().expect("conns lock").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self
            .conn_threads
            .lock()
            .expect("threads lock")
            .drain(..)
            .collect();
        if join_conns {
            for h in threads {
                let _ = h.join();
            }
        } // else: handles drop here, detaching the threads
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A request frame is answered with a `Response` frame; checkpoint and
/// control frames are acked with their own kind.
fn reply_kind(request: FrameKind) -> FrameKind {
    match request {
        FrameKind::Request => FrameKind::Response,
        other => other,
    }
}

fn serve_conn(stream: NetStream, handler: Arc<dyn ShardHandler>, frame_deadline: Duration) {
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let max_version = handler.wire_version();

    // the read timeout is the *poll* interval, not the deadline: each
    // timeout wakes read_frame_deadline to re-check elapsed time against
    // the per-frame budget (and lets a torn-down socket error out)
    let _ = stream.set_read_timeout(Some(
        READ_POLL_INTERVAL.min(frame_deadline.max(Duration::from_millis(1))),
    ));

    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let writer_thread = thread::Builder::new()
        .name("fact-net-writer".into())
        .spawn(move || write_replies(writer, job_rx));
    let writer_thread = match writer_thread {
        Ok(h) => h,
        Err(_) => return,
    };

    let mut reader = BufReader::new(stream);
    // a clean close (Closed), torn frame (incl. a slow-loris peer blowing
    // its delivery deadline), malformed header, or a version the handler
    // never advertised all end the loop: the codec already typed the
    // error, and a protocol violation is not recoverable mid-stream. Idle
    // polls just loop.
    loop {
        match read_frame_deadline(&mut reader, frame_deadline) {
            Ok(DeadlineRead::Idle) => continue,
            Ok(DeadlineRead::Frame(frame)) if frame.version <= max_version => {
                let (version, kind, corr_id) = (frame.version, frame.kind, frame.corr_id);
                let hello = match kind {
                    FrameKind::Control if max_version > MIN_VERSION => {
                        payload::hello_ack(&frame.payload, max_version)
                    }
                    _ => None,
                };
                let reply = match hello {
                    Some(ack) => Reply::Ready(ack),
                    None => handler.submit(frame),
                };
                let job = Job {
                    version,
                    kind,
                    corr_id,
                    reply,
                };
                if job_tx.send(job).is_err() {
                    break;
                }
            }
            Ok(_) | Err(_) => break,
        }
    }
    drop(job_tx); // writer drains queued work, then exits
    let _ = writer_thread.join();
    // actively sever the socket: the server's shutdown bookkeeping holds a
    // clone of this stream, so without an explicit shutdown a cut-off peer
    // (e.g. a slow-loris dribbler) would never observe the disconnect
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// One answer owed, in arrival order: the frame it answers and its reply.
struct Job {
    version: u8,
    kind: FrameKind,
    corr_id: u64,
    reply: Reply,
}

/// The writer half of one connection: answer jobs in FIFO order, gathering
/// finished reply frames into one buffer that goes out with a single write
/// before any blocking step, and once more on exit so a last ack (e.g. to
/// `shutdown`) still reaches the client.
fn write_replies(mut stream: NetStream, jobs: mpsc::Receiver<Job>) {
    let mut out = Vec::new();
    let mut flush = |out: &mut Vec<u8>| -> io::Result<()> {
        if !out.is_empty() {
            stream.write_all(out)?;
            out.clear();
        }
        Ok(())
    };
    loop {
        let job = match jobs.try_recv() {
            Ok(job) => job,
            Err(TryRecvError::Empty) => {
                if flush(&mut out).is_err() {
                    return; // client gone; drop remaining replies unsent
                }
                match jobs.recv() {
                    Ok(job) => job,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let payload = match job.reply {
            Reply::Ready(payload) => payload,
            Reply::Pending(mut pending) => match pending.try_take() {
                Some(payload) => payload,
                None => {
                    if flush(&mut out).is_err() {
                        return;
                    }
                    pending.take()
                }
            },
        };
        let frame = Frame {
            version: job.version,
            kind: reply_kind(job.kind),
            corr_id: job.corr_id,
            payload,
        };
        // a payload the codec refuses ends the connection after the
        // replies ahead of it
        if encode_frame_into(&frame, &mut out).is_err() {
            break;
        }
        if out.len() >= WRITE_BATCH_BYTES && flush(&mut out).is_err() {
            return;
        }
    }
    let _ = flush(&mut out);
}
