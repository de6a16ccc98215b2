//! Length-prefixed binary frame codec.
//!
//! Every message on a fact-net socket is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "FNET"
//! 4       1     version (1 = JSON payloads, 2 = binary decision payloads)
//! 5       1     kind    (1=request 2=response 3=checkpoint 4=control)
//! 6       8     corr_id (u64 LE) — matches a response to its request
//! 14      4     len     (u32 LE) — payload byte count, <= MAX_PAYLOAD
//! 18      len   payload
//! ```
//!
//! [`read_frame`] distinguishes a *clean* close (EOF exactly on a frame
//! boundary → `Ok(None)`) from a *torn* one (EOF mid-header or mid-payload
//! → [`FrameError::Truncated`]), and rejects oversized length prefixes
//! before allocating, so a corrupt or malicious peer cannot balloon memory.
//!
//! The version byte selects how [`crate::payload`] encodes `Request` and
//! `Response` payloads; a peer only sends version 2 after the other side
//! advertised it (`PROTOCOL.md §7 — Version negotiation`), and a reply
//! always carries the version of the frame it answers.

use std::fmt;
use std::io::{self, Read};
use std::time::{Duration, Instant};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FNET";
/// Lowest protocol version (byte 4): JSON payloads in every frame kind.
pub const MIN_VERSION: u8 = 1;
/// Highest protocol version this implementation speaks: fixed-width binary
/// `Request` / `Response` payloads, JSON for the other kinds.
pub const VERSION: u8 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 18;
/// Hard cap on payload size; larger length prefixes are rejected unread.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// What a frame carries; the discriminant is the on-wire kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A decision request (client → worker).
    Request = 1,
    /// A decision response (worker → client).
    Response = 2,
    /// A checkpoint flush command or its acknowledgement.
    Checkpoint = 3,
    /// An out-of-band control command ("ping", "shutdown") or its ack.
    Control = 4,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Checkpoint),
            4 => Some(FrameKind::Control),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version, [`MIN_VERSION`]`..=`[`VERSION`]: says how the
    /// payload is encoded.
    pub version: u8,
    /// Message kind.
    pub kind: FrameKind,
    /// Correlation id: a response echoes its request's id.
    pub corr_id: u64,
    /// Payload bytes, encoded per `version` at the [`crate::payload`]
    /// layer.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a version-1 (JSON payload) frame.
    pub fn new(kind: FrameKind, corr_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            version: MIN_VERSION,
            kind,
            corr_id,
            payload,
        }
    }
}

/// Ways the codec can reject bytes.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying read/write failed.
    Io(io::Error),
    /// The stream ended mid-frame: `got` of `needed` bytes arrived.
    Truncated {
        /// Bytes the frame section required.
        needed: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown kind byte.
    BadKind(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "stream truncated mid-frame: got {got} of {needed} bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind byte {k}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode `frame` to its wire bytes.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    encode_frame_into(frame, &mut out)?;
    Ok(out)
}

/// Append `frame`'s wire bytes to `out`, so a writer can gather several
/// frames into one buffer and send them with one write. On error nothing
/// is appended.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) -> Result<(), FrameError> {
    if !(MIN_VERSION..=VERSION).contains(&frame.version) {
        return Err(FrameError::BadVersion(frame.version));
    }
    if frame.payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversized {
            len: frame.payload.len() as u32,
            max: MAX_PAYLOAD,
        });
    }
    out.reserve(HEADER_LEN + frame.payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(frame.version);
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.corr_id.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
    Ok(())
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` when the stream closes cleanly on a frame boundary,
/// `Err(Truncated)` when it closes mid-frame, and the other [`FrameError`]
/// variants for malformed headers. With no deadline a timeout-type I/O
/// error is [`FrameError::Io`] like any other.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    match read_frame_within(r, None)? {
        DeadlineRead::Frame(frame) => Ok(Some(frame)),
        DeadlineRead::Closed => Ok(None),
        DeadlineRead::Idle => unreachable!("only a deadline read polls idle"),
    }
}

/// Validate a raw header and extract `(version, kind, corr_id, len)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, FrameKind, u64, u32), FrameError> {
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic(
            header[..4].try_into().expect("4-byte slice"),
        ));
    }
    let version = header[4];
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(FrameError::BadVersion(version));
    }
    let kind = FrameKind::from_byte(header[5]).ok_or(FrameError::BadKind(header[5]))?;
    let corr_id = u64::from_le_bytes(header[6..14].try_into().expect("8-byte slice"));
    let len = u32::from_le_bytes(header[14..18].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((version, kind, corr_id, len))
}

/// Outcome of one [`read_frame_deadline`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum DeadlineRead {
    /// A complete frame arrived within the deadline.
    Frame(Frame),
    /// The peer closed cleanly on a frame boundary.
    Closed,
    /// The read timed out with *zero* bytes of the next frame buffered:
    /// the connection is idle, not torn. The caller may poll again (e.g.
    /// after checking a shutdown flag).
    Idle,
}

/// How one header/payload section of a frame ended.
enum SectionRead {
    /// The buffer was filled.
    Full,
    /// The stream closed after `got` bytes.
    Eof(usize),
    /// The frame deadline expired after `got` bytes (0 means the section
    /// never started).
    TimedOut(usize),
}

/// Read until `buf` is full, EOF, or the frame deadline expires.
///
/// `started` is the arrival time of the frame's first byte, shared across
/// the header and payload sections so a peer cannot reset the clock at a
/// section boundary. Under a `deadline`, timeout-flavoured io errors
/// (`WouldBlock` / `TimedOut`, produced by a socket `read_timeout`) are
/// polls, not failures: with no frame in progress they report an idle
/// connection; mid-frame they only fail once `deadline` has elapsed since
/// the first byte. With no deadline they fail like any other io error.
fn read_section<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    started: &mut Option<Instant>,
    deadline: Option<Duration>,
) -> Result<SectionRead, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Ok(SectionRead::Eof(got)),
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => match (deadline, e.kind()) {
                (Some(deadline), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    match started {
                        None => return Ok(SectionRead::TimedOut(0)),
                        Some(t) if t.elapsed() >= deadline => {
                            return Ok(SectionRead::TimedOut(got));
                        }
                        Some(_) => continue,
                    }
                }
                _ => return Err(FrameError::Io(e)),
            },
        }
    }
    Ok(SectionRead::Full)
}

/// Read one frame from `r`, bounding how long a peer may take to deliver
/// it once its first byte has arrived.
///
/// `r` should have a socket `read_timeout` set (see
/// [`crate::Server::bind_with_deadline`]) so that reads return
/// `WouldBlock`/`TimedOut` periodically; each such poll re-checks the
/// per-frame `deadline`. A peer that dribbles header bytes or stalls
/// mid-payload past the deadline surfaces as [`FrameError::Truncated`] —
/// never as an unbounded blocking read. A timeout with *no* frame in
/// progress is [`DeadlineRead::Idle`], letting the caller poll without
/// tearing down healthy-but-quiet connections.
pub fn read_frame_deadline<R: Read>(
    r: &mut R,
    deadline: Duration,
) -> Result<DeadlineRead, FrameError> {
    read_frame_within(r, Some(deadline))
}

/// The one frame reader behind [`read_frame`] (no deadline) and
/// [`read_frame_deadline`].
fn read_frame_within<R: Read>(
    r: &mut R,
    deadline: Option<Duration>,
) -> Result<DeadlineRead, FrameError> {
    let mut started: Option<Instant> = None;
    let mut header = [0u8; HEADER_LEN];
    match read_section(r, &mut header, &mut started, deadline)? {
        SectionRead::Full => {}
        SectionRead::Eof(0) => return Ok(DeadlineRead::Closed),
        SectionRead::TimedOut(0) => return Ok(DeadlineRead::Idle),
        SectionRead::Eof(got) | SectionRead::TimedOut(got) => {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                got,
            });
        }
    }
    let (version, kind, corr_id, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    match read_section(r, &mut payload, &mut started, deadline)? {
        SectionRead::Full => {}
        // the header arrived, so even a 0-byte payload section is torn
        SectionRead::Eof(got) | SectionRead::TimedOut(got) => {
            return Err(FrameError::Truncated {
                needed: len as usize,
                got,
            });
        }
    }
    Ok(DeadlineRead::Frame(Frame {
        version,
        kind,
        corr_id,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame).unwrap();
        let mut cur = Cursor::new(bytes);
        let back = read_frame(&mut cur).unwrap().unwrap();
        // and the stream is now cleanly empty
        assert!(read_frame(&mut cur).unwrap().is_none());
        back
    }

    #[test]
    fn roundtrip_each_kind() {
        for kind in [
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Checkpoint,
            FrameKind::Control,
        ] {
            let f = Frame::new(kind, 0xdead_beef_0042, b"hello".to_vec());
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = Frame::new(FrameKind::Control, 7, Vec::new());
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let a = Frame::new(FrameKind::Request, 1, b"one".to_vec());
        let b = Frame::new(FrameKind::Response, 2, b"two".to_vec());
        let mut bytes = encode_frame(&a).unwrap();
        bytes.extend(encode_frame(&b).unwrap());
        let mut cur = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b);
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn frames_appended_to_one_buffer_equal_their_separate_encodings() {
        let a = Frame::new(FrameKind::Request, 1, b"one".to_vec());
        let b = Frame::new(FrameKind::Response, 2, Vec::new());
        let mut out = b"tail of an earlier batch".to_vec();
        let before = out.clone();
        encode_frame_into(&a, &mut out).unwrap();
        encode_frame_into(&b, &mut out).unwrap();
        let mut expected = before.clone();
        expected.extend(encode_frame(&a).unwrap());
        expected.extend(encode_frame(&b).unwrap());
        assert_eq!(out, expected);
        // a refused frame leaves the buffer as it was
        let len = out.len();
        let big = Frame::new(FrameKind::Request, 3, vec![0u8; MAX_PAYLOAD as usize + 1]);
        assert!(encode_frame_into(&big, &mut out).is_err());
        let bad = Frame {
            version: 0,
            ..Frame::new(FrameKind::Request, 4, Vec::new())
        };
        assert!(encode_frame_into(&bad, &mut out).is_err());
        assert_eq!(out.len(), len);
    }

    #[test]
    fn truncated_header_and_payload_are_torn_not_clean() {
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 9, b"payload".to_vec())).unwrap();
        // every strict prefix except the empty one is a torn frame
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            match read_frame(&mut cur) {
                Err(FrameError::Truncated { needed, got }) => {
                    assert!(got < needed, "cut at {cut}: got {got} needed {needed}")
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        // the empty prefix is a clean close
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::new(FrameKind::Request, 1, Vec::new())).unwrap();
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = Cursor::new(bytes);
        match read_frame(&mut cur) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // encoding an oversized payload is refused symmetrically
        let big = Frame::new(FrameKind::Request, 1, vec![0u8; MAX_PAYLOAD as usize + 1]);
        assert!(matches!(
            encode_frame(&big),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn bad_magic_version_and_kind_are_typed_errors() {
        let good = encode_frame(&Frame::new(FrameKind::Request, 1, b"x".to_vec())).unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(FrameError::BadMagic(_))
        ));

        for version in [0, VERSION + 1, 99] {
            let mut bad = good.clone();
            bad[4] = version;
            assert!(matches!(
                read_frame(&mut Cursor::new(bad)),
                Err(FrameError::BadVersion(v)) if v == version
            ));
            let unsendable = Frame {
                version,
                ..Frame::new(FrameKind::Request, 1, Vec::new())
            };
            assert!(matches!(
                encode_frame(&unsendable),
                Err(FrameError::BadVersion(v)) if v == version
            ));
        }

        let mut bad = good;
        bad[5] = 0;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)),
            Err(FrameError::BadKind(0))
        ));
    }

    /// Scripted reader: each step yields some bytes or a timeout error,
    /// then the stream reports EOF. Drives `read_frame_deadline`
    /// deterministically — no sockets, no sleeps.
    struct Scripted {
        steps: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Scripted {
        fn new(steps: Vec<Result<Vec<u8>, io::ErrorKind>>) -> Scripted {
            Scripted {
                steps: steps.into(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                Some(Ok(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script step larger than request");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(kind)) => Err(io::Error::new(kind, "scripted timeout")),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn deadline_read_completes_a_dribbled_frame_within_budget() {
        // one byte per read step, no timeouts: slow but inside the deadline
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 3, b"ok".to_vec())).unwrap();
        let steps = bytes.iter().map(|b| Ok(vec![*b])).collect();
        let mut r = Scripted::new(steps);
        match read_frame_deadline(&mut r, Duration::from_secs(60)).unwrap() {
            DeadlineRead::Frame(f) => {
                assert_eq!(f.corr_id, 3);
                assert_eq!(f.payload, b"ok");
            }
            other => panic!("expected Frame, got {other:?}"),
        }
    }

    #[test]
    fn timeout_with_no_bytes_is_idle_not_an_error() {
        let mut r = Scripted::new(vec![Err(io::ErrorKind::WouldBlock)]);
        assert_eq!(
            read_frame_deadline(&mut r, Duration::ZERO).unwrap(),
            DeadlineRead::Idle
        );
        let mut r = Scripted::new(vec![Err(io::ErrorKind::TimedOut)]);
        assert_eq!(
            read_frame_deadline(&mut r, Duration::ZERO).unwrap(),
            DeadlineRead::Idle
        );
    }

    #[test]
    fn without_a_deadline_a_timeout_is_an_io_error_not_a_poll() {
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 5, b"x".to_vec())).unwrap();
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            // before the first byte and mid-frame alike; the scripted frame
            // after the error is never read
            for prefix in [Vec::new(), bytes[..3].to_vec()] {
                let mut steps = vec![Err(kind), Ok(bytes.clone())];
                if !prefix.is_empty() {
                    steps.insert(0, Ok(prefix));
                }
                let mut r = Scripted::new(steps);
                match read_frame(&mut r) {
                    Err(FrameError::Io(e)) => assert_eq!(e.kind(), kind),
                    other => panic!("expected Io({kind:?}), got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut r = Scripted::new(Vec::new());
        assert_eq!(
            read_frame_deadline(&mut r, Duration::from_secs(1)).unwrap(),
            DeadlineRead::Closed
        );
    }

    #[test]
    fn header_dribble_past_deadline_is_truncated_not_a_hang() {
        // slow-loris: one header byte arrives, then the peer stalls. With a
        // zero deadline the first post-byte timeout poll tears the frame.
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 1, b"x".to_vec())).unwrap();
        let mut r = Scripted::new(vec![
            Ok(bytes[..1].to_vec()),
            Err(io::ErrorKind::WouldBlock),
        ]);
        match read_frame_deadline(&mut r, Duration::ZERO) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(got, 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn mid_payload_stall_past_deadline_is_truncated() {
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 2, b"abcdef".to_vec())).unwrap();
        // full header + half the payload, then a stall
        let mut r = Scripted::new(vec![
            Ok(bytes[..HEADER_LEN].to_vec()),
            Ok(bytes[HEADER_LEN..HEADER_LEN + 3].to_vec()),
            Err(io::ErrorKind::TimedOut),
        ]);
        match read_frame_deadline(&mut r, Duration::ZERO) {
            Err(FrameError::Truncated { needed, got }) => {
                assert_eq!(needed, 6);
                assert_eq!(got, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_truncated_under_deadline_reader_too() {
        let bytes = encode_frame(&Frame::new(FrameKind::Request, 4, b"zz".to_vec())).unwrap();
        let mut r = Scripted::new(vec![Ok(bytes[..HEADER_LEN].to_vec())]);
        assert!(matches!(
            read_frame_deadline(&mut r, Duration::from_secs(1)),
            Err(FrameError::Truncated { needed: 2, got: 0 })
        ));
    }

    #[test]
    fn deadline_reader_rejects_malformed_headers_like_the_plain_reader() {
        let mut bytes = encode_frame(&Frame::new(FrameKind::Request, 1, Vec::new())).unwrap();
        bytes[0] = b'X';
        let mut r = Scripted::new(vec![Ok(bytes)]);
        assert!(matches!(
            read_frame_deadline(&mut r, Duration::from_secs(1)),
            Err(FrameError::BadMagic(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any frame of either version round-trips bit-exactly through
        /// encode + read.
        #[test]
        fn arbitrary_frames_roundtrip(
            version in MIN_VERSION..=VERSION,
            kind_byte in 1u8..=4,
            corr_id in any::<u64>(),
            payload in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            let kind = FrameKind::from_byte(kind_byte).unwrap();
            let f = Frame { version, ..Frame::new(kind, corr_id, payload) };
            prop_assert_eq!(roundtrip(&f), f);
        }

        /// Any strict prefix of a frame reads as Truncated, never as a
        /// clean close, a panic, or a bogus frame.
        #[test]
        fn arbitrary_truncations_are_typed(
            corr_id in any::<u64>(),
            payload in prop::collection::vec(any::<u8>(), 1..256),
            cut_frac in 0.0f64..1.0,
        ) {
            let f = Frame::new(FrameKind::Request, corr_id, payload);
            let bytes = encode_frame(&f).unwrap();
            let cut = 1 + ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assume!(cut < bytes.len());
            let res = read_frame(&mut Cursor::new(bytes[..cut].to_vec()));
            prop_assert!(matches!(res, Err(FrameError::Truncated { .. })), "cut={} res={:?}", cut, res);
        }
    }
}
