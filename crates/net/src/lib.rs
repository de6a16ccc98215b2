//! # fact-net — cross-process shard serving
//!
//! The decision service in `fact-serve` runs all shards as threads in one
//! process. This crate is the wire layer that lets the same routing hash
//! dispatch to shards hosted in *other* processes — over Unix-domain
//! sockets on one host, or TCP across a fleet:
//!
//! * [`endpoint`] — the transport abstraction: an [`Endpoint`] names where
//!   a worker listens (`Unix(path)` or `Tcp(addr)`); both families carry
//!   the identical frame protocol with identical deadline and reconnect
//!   semantics.
//! * [`frame`] — a length-prefixed binary frame codec (request / response /
//!   checkpoint / control frames) whose header carries a version byte.
//!   Std-only, no async runtime: blocking I/O with one reader and one
//!   writer thread per connection end, mirroring the single-writer shape
//!   of the serve-side audit sink. Each writer sends every frame ready at
//!   that moment with one write ([`frame::encode_frame_into`] gathers
//!   them), and each reader decodes frames out of a read buffer.
//! * [`payload`] — the wire payloads carried inside frames: plain
//!   named-field structs with `Option` fields (the vendored serde derives
//!   support nothing fancier, which keeps the wire format boring on
//!   purpose). Version-1 frames carry them as JSON; version-2 frames
//!   carry the decision request and response in a fixed-width
//!   little-endian layout and everything else as JSON.
//! * [`client`] — [`RemoteShard`], a connection to one worker process:
//!   callers queue frames into an outbox a writer thread drains, and a
//!   reader thread matches replies to waiters by correlation id; `hello`
//!   version negotiation on every dial, reconnect-on-next-request after a
//!   worker dies, RTT / reconnect / error counters and the negotiated
//!   version. Dropping it closes the connection and ends both threads.
//! * [`oneshot`] — the one-shot reply slot a decision's answer travels
//!   through: the client's reader thread settles it for a
//!   [`PendingReply`], and `fact-serve`'s shard workers settle it for a
//!   local decision handle.
//! * [`server`] — [`Server`], the worker-side acceptor: each connection
//!   gets a reader thread that hands each frame to the [`ShardHandler`]
//!   and a writer thread that drains the resulting [`Reply`]s in FIFO
//!   order, so responses pipeline without reordering, each in the version
//!   of the frame it answers.
//!   Each started frame must be delivered within a per-frame deadline
//!   ([`server::DEFAULT_FRAME_DEADLINE`], tunable via
//!   [`Server::bind_with_deadline`]) so a slow-loris peer cannot wedge a
//!   reader thread.
//!
//! The crate knows nothing about `fact-serve`'s `Decision` types: the
//! payload structs are the protocol, and both ends convert at the edge.
//!
//! ## Wire-format specification
//!
//! The normative specification of the wire format — frame header layout,
//! kind and correlation-id semantics, version negotiation, optional-field
//! interop rules, deadline behavior, and the reshard control commands —
//! lives in `PROTOCOL.md` at the repository root. Where this rustdoc and
//! that document disagree, `PROTOCOL.md` wins; this crate is one
//! implementation of it. Section references in this crate's docs
//! (`PROTOCOL.md §2 — Transports`, `§3 — Frame header`, `§4 — Frame kinds
//! and payloads`, `§5 — Deadlines`, `§6 — Control commands`, `§7 — Version
//! negotiation`) name anchors in that document;
//! `scripts/ci.sh` checks they resolve.

#![warn(missing_docs)]

pub mod client;
pub mod endpoint;
pub mod frame;
pub mod oneshot;
pub mod payload;
pub mod server;

pub use client::{PendingReply, RemoteShard, RemoteStatsSnapshot};
pub use endpoint::{Endpoint, NetListener, NetStream};
pub use frame::{
    read_frame, read_frame_deadline, DeadlineRead, Frame, FrameError, FrameKind, HEADER_LEN,
    MAX_PAYLOAD,
};
pub use payload::{
    decode, decode_request, decode_response, encode, encode_request, encode_response,
    CheckpointAckWire, ControlAckWire, ControlWire, DecisionWire, RequestWire, ResponseWire,
};
pub use server::{PendingPayload, Reply, Server, ShardHandler, DEFAULT_FRAME_DEADLINE};

use std::fmt;
use std::io;

/// Errors surfaced by the client/payload layers.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level I/O failure (connect, write).
    Io(io::Error),
    /// The frame codec rejected bytes on the wire.
    Frame(FrameError),
    /// The connection dropped while a reply was still pending.
    Disconnected,
    /// No reply arrived within the caller's deadline.
    Timeout,
    /// A payload failed to parse as the expected wire type.
    Decode(String),
    /// The remote worker answered with an application-level error.
    Remote(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net i/o error: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Disconnected => write!(f, "connection closed with reply pending"),
            NetError::Timeout => write!(f, "timed out waiting for reply"),
            NetError::Decode(msg) => write!(f, "payload decode error: {msg}"),
            NetError::Remote(msg) => write!(f, "remote error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}
