//! Wire payloads carried inside frames.
//!
//! The frame version says how a payload is encoded (`PROTOCOL.md` §4 —
//! Frame kinds and payloads):
//!
//! * **Version 1** carries every payload as JSON ([`encode`] / [`decode`]).
//! * **Version 2** carries the two payloads every decision pays for —
//!   [`RequestWire`] and [`ResponseWire`] — in a fixed-width little-endian
//!   layout: fixed-width fields in binary, the one string length-prefixed.
//!   Checkpoint and control payloads stay JSON in either version.
//!
//! [`encode_request`] / [`decode_request`] and [`encode_response`] /
//! [`decode_response`] dispatch on the frame version. The binary decoders
//! are non-recursive and bounds-checked against the payload length; they
//! reject trailing bytes, unknown flag bits and non-finite floats (which
//! JSON cannot carry either) with [`NetError::Decode`].
//!
//! The vendored serde derives support named-field structs and `Option`
//! fields only, so success/failure is expressed as paired `Option`s
//! (`ok` / `error`) rather than a tagged enum. Exactly one should be
//! `Some`; [`ResponseWire::into_result`] enforces that at the edge.

use serde::{Deserialize, Serialize};

use crate::frame::{MIN_VERSION, VERSION};
use crate::NetError;

/// A decision request: client → worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestWire {
    /// Feature vector for the model hosted by the worker shard.
    pub features: Vec<f64>,
    /// Protected-group membership for the fairness guard.
    pub group_b: bool,
    /// Routing key; the worker uses it to pick its local shard.
    pub route_key: u64,
    /// Tenant id for per-tenant admission quotas. `None` (a pre-tenant
    /// peer) decodes as tenant 0 at the serve edge, so old clients and
    /// workers interoperate with new ones.
    pub tenant: Option<u64>,
}

/// A served decision (mirrors `fact-serve`'s `Decision`, converted at the
/// edge so this crate stays serve-agnostic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionWire {
    /// Model score in `[0, 1]`.
    pub probability: f64,
    /// Whether the score cleared the favorable threshold.
    pub favorable: bool,
    /// Whether any guard flagged the decision.
    pub flagged: bool,
    /// Worker-local shard that served it.
    pub shard: usize,
}

/// A decision response: worker → client. Exactly one of `ok` / `error`
/// is `Some`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseWire {
    /// The decision, when the worker served it.
    pub ok: Option<DecisionWire>,
    /// The worker-side error, when it did not.
    pub error: Option<String>,
    /// Machine-readable error class (`"busy"`, `"throttled"`,
    /// `"rejected"`), so the client can rebuild a typed error instead of
    /// collapsing everything to an opaque remote failure. `None` on
    /// success and for untyped errors (including pre-tenant workers).
    pub code: Option<String>,
    /// The tenant an error was attributed to (set for `"throttled"`).
    pub tenant: Option<u64>,
}

impl ResponseWire {
    /// Wrap a served decision.
    pub fn success(decision: DecisionWire) -> ResponseWire {
        ResponseWire {
            ok: Some(decision),
            error: None,
            code: None,
            tenant: None,
        }
    }

    /// Wrap a worker-side failure.
    pub fn failure(msg: impl Into<String>) -> ResponseWire {
        ResponseWire {
            ok: None,
            error: Some(msg.into()),
            code: None,
            tenant: None,
        }
    }

    /// Wrap a worker-side failure with a machine-readable class and an
    /// optional tenant attribution.
    pub fn failure_coded(
        msg: impl Into<String>,
        code: impl Into<String>,
        tenant: Option<u64>,
    ) -> ResponseWire {
        ResponseWire {
            ok: None,
            error: Some(msg.into()),
            code: Some(code.into()),
            tenant,
        }
    }

    /// Collapse the option pair back into a result, treating a malformed
    /// both-`None` response as a remote error.
    pub fn into_result(self) -> Result<DecisionWire, NetError> {
        match (self.ok, self.error) {
            (Some(d), _) => Ok(d),
            (None, Some(msg)) => Err(NetError::Remote(msg)),
            (None, None) => Err(NetError::Decode(
                "response carried neither ok nor error".into(),
            )),
        }
    }
}

/// An out-of-band control command ("ping", "shutdown", "checkpoint").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlWire {
    /// Command verb.
    pub command: String,
}

/// Acknowledgement for a control command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlAckWire {
    /// Whether the worker accepted the command.
    pub ok: bool,
    /// Human-readable detail (e.g. why a command was refused).
    pub info: String,
}

/// Acknowledgement for a checkpoint flush: what was durably written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointAckWire {
    /// Shards whose guard state was checkpointed.
    pub shards: usize,
    /// Total decisions covered by the checkpoints.
    pub decisions: u64,
}

/// The control payload a client sends right after dialing: `hello <v>`
/// offers every frame version up to `v` (`PROTOCOL.md` §7 — Version
/// negotiation).
pub(crate) fn hello() -> Vec<u8> {
    encode(&ControlWire {
        command: format!("hello {VERSION}"),
    })
    .expect("a control command always encodes")
}

/// Worker side: when `payload` is a `hello <v>` control command, the JSON
/// ack a worker speaking up to version `max` answers it with; `None` for
/// any other payload.
pub(crate) fn hello_ack(payload: &[u8], max: u8) -> Option<Vec<u8>> {
    let offered: u8 = decode::<ControlWire>(payload)
        .ok()?
        .command
        .strip_prefix("hello ")?
        .parse()
        .ok()?;
    let version = offered.clamp(MIN_VERSION, max);
    encode(&ControlAckWire {
        ok: true,
        info: format!("version {version}"),
    })
    .ok()
}

/// Client side: the version a `hello` ack settles the connection on.
/// `None` — stay on version 1 — for a refusal (a worker that predates
/// `hello` acks it as an unknown verb) or anything unparseable.
pub(crate) fn hello_version(ack: &[u8]) -> Option<u8> {
    let ack: ControlAckWire = decode(ack).ok()?;
    let version = ack.info.strip_prefix("version ")?.parse().ok()?;
    (ack.ok && (MIN_VERSION..=VERSION).contains(&version)).then_some(version)
}

/// Encode a wire type as JSON payload bytes.
pub fn encode<T: Serialize>(value: &T) -> Result<Vec<u8>, NetError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| NetError::Decode(e.to_string()))
}

/// Decode JSON payload bytes into a wire type.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, NetError> {
    let s = std::str::from_utf8(bytes).map_err(|e| NetError::Decode(e.to_string()))?;
    serde_json::from_str(s).map_err(|e| NetError::Decode(e.to_string()))
}

/// Encode a decision request for a frame of `version`.
pub fn encode_request(version: u8, req: &RequestWire) -> Result<Vec<u8>, NetError> {
    match version {
        1 => encode(req),
        2 => binary::encode_request(req),
        v => Err(unsupported(v)),
    }
}

/// Decode a decision request from a frame of `version`.
pub fn decode_request(version: u8, bytes: &[u8]) -> Result<RequestWire, NetError> {
    match version {
        1 => decode(bytes),
        2 => binary::decode_request(bytes),
        v => Err(unsupported(v)),
    }
}

/// Encode a decision response for a frame of `version`. Version 2 cannot
/// carry an error code outside PROTOCOL §4's defined set; such a code
/// travels as an untyped error, which is how a receiver treats an unknown
/// code anyway.
pub fn encode_response(version: u8, resp: &ResponseWire) -> Result<Vec<u8>, NetError> {
    match version {
        1 => encode(resp),
        2 => binary::encode_response(resp),
        v => Err(unsupported(v)),
    }
}

/// Decode a decision response from a frame of `version`.
pub fn decode_response(version: u8, bytes: &[u8]) -> Result<ResponseWire, NetError> {
    match version {
        1 => decode(bytes),
        2 => binary::decode_response(bytes),
        v => Err(unsupported(v)),
    }
}

fn unsupported(version: u8) -> NetError {
    NetError::Decode(format!("no payload encoding for frame version {version}"))
}

/// The version-2 layouts (`PROTOCOL.md` §4 gives the offset tables).
mod binary {
    use super::{DecisionWire, RequestWire, ResponseWire};
    use crate::NetError;

    /// Request flag bits; every other bit must be zero.
    const GROUP_B: u8 = 1;
    const HAS_TENANT: u8 = 2;
    /// Response decision flag bits.
    const FAVORABLE: u8 = 1;
    const FLAGGED: u8 = 2;
    /// Response tags.
    const TAG_OK: u8 = 0;
    const TAG_ERROR: u8 = 1;
    /// Error codes by wire byte: byte `i + 1` is `CODES[i]`, byte 0 (and
    /// any byte past the table) an untyped error.
    pub(super) const CODES: [&str; 4] = ["busy", "throttled", "rejected", "resharding"];

    const REQUEST_FIXED: usize = 8 + 1 + 8 + 2;
    const OK_LEN: usize = 1 + 8 + 1 + 4;
    const ERROR_FIXED: usize = 1 + 1 + 1 + 8 + 4;

    pub(super) fn encode_request(req: &RequestWire) -> Result<Vec<u8>, NetError> {
        let n = u16::try_from(req.features.len()).map_err(|_| {
            NetError::Decode(format!(
                "cannot encode {} features: the binary request carries at most {}",
                req.features.len(),
                u16::MAX
            ))
        })?;
        let mut out = Vec::with_capacity(REQUEST_FIXED + 8 * req.features.len());
        out.extend_from_slice(&req.route_key.to_le_bytes());
        let mut flags = 0;
        if req.group_b {
            flags |= GROUP_B;
        }
        if req.tenant.is_some() {
            flags |= HAS_TENANT;
        }
        out.push(flags);
        out.extend_from_slice(&req.tenant.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
        for f in &req.features {
            out.extend_from_slice(&f.to_le_bytes());
        }
        Ok(out)
    }

    pub(super) fn decode_request(bytes: &[u8]) -> Result<RequestWire, NetError> {
        let mut r = Reader::new(bytes, "request");
        let route_key = r.u64()?;
        let flags = r.flags(GROUP_B | HAS_TENANT)?;
        let tenant = r.tenant(flags & HAS_TENANT != 0)?;
        let n = usize::from(r.u16()?);
        // bound the allocation by the bytes actually present
        if r.remaining() != 8 * n {
            return Err(r.error(format!(
                "{n} features need {} bytes, {} remain",
                8 * n,
                r.remaining()
            )));
        }
        let mut features = Vec::with_capacity(n);
        for _ in 0..n {
            features.push(r.f64()?);
        }
        Ok(RequestWire {
            features,
            group_b: flags & GROUP_B != 0,
            route_key,
            tenant,
        })
    }

    pub(super) fn encode_response(resp: &ResponseWire) -> Result<Vec<u8>, NetError> {
        if let Some(d) = &resp.ok {
            let shard = u32::try_from(d.shard)
                .map_err(|_| NetError::Decode(format!("cannot encode shard {} as u32", d.shard)))?;
            let mut out = Vec::with_capacity(OK_LEN);
            out.push(TAG_OK);
            out.extend_from_slice(&d.probability.to_le_bytes());
            let mut flags = 0;
            if d.favorable {
                flags |= FAVORABLE;
            }
            if d.flagged {
                flags |= FLAGGED;
            }
            out.push(flags);
            out.extend_from_slice(&shard.to_le_bytes());
            return Ok(out);
        }
        let msg = resp.error.as_deref().ok_or_else(|| {
            NetError::Decode("cannot encode a response with neither ok nor error".into())
        })?;
        let len = u32::try_from(msg.len())
            .map_err(|_| NetError::Decode("error message too long to encode".into()))?;
        let code = resp
            .code
            .as_deref()
            .and_then(|c| CODES.iter().position(|&known| known == c))
            .map_or(0, |i| i as u8 + 1);
        let mut out = Vec::with_capacity(ERROR_FIXED + msg.len());
        out.push(TAG_ERROR);
        out.push(code);
        out.push(u8::from(resp.tenant.is_some()));
        out.extend_from_slice(&resp.tenant.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(msg.as_bytes());
        Ok(out)
    }

    pub(super) fn decode_response(bytes: &[u8]) -> Result<ResponseWire, NetError> {
        let mut r = Reader::new(bytes, "response");
        let resp = match r.u8()? {
            TAG_OK => {
                let probability = r.f64()?;
                let flags = r.flags(FAVORABLE | FLAGGED)?;
                let shard = r.u32()? as usize;
                ResponseWire::success(DecisionWire {
                    probability,
                    favorable: flags & FAVORABLE != 0,
                    flagged: flags & FLAGGED != 0,
                    shard,
                })
            }
            TAG_ERROR => {
                let code = r.u8()?;
                let has_tenant = r.flags(1)? != 0;
                let tenant = r.tenant(has_tenant)?;
                let len = r.u32()? as usize;
                if r.remaining() != len {
                    return Err(r.error(format!(
                        "message needs {len} bytes, {} remain",
                        r.remaining()
                    )));
                }
                let msg = std::str::from_utf8(r.take(len)?)
                    .map_err(|e| r.error(format!("message is not UTF-8: {e}")))?;
                ResponseWire {
                    ok: None,
                    error: Some(msg.to_string()),
                    code: CODES
                        .get(usize::from(code).wrapping_sub(1))
                        .map(|c| c.to_string()),
                    tenant,
                }
            }
            tag => return Err(r.error(format!("unknown response tag {tag}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// A bounds-checked cursor over one payload. Every read checks the
    /// bytes are there, so no input can index past the end.
    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
        what: &'static str,
    }

    impl<'a> Reader<'a> {
        fn new(bytes: &'a [u8], what: &'static str) -> Self {
            Reader {
                bytes,
                pos: 0,
                what,
            }
        }

        fn error(&self, detail: String) -> NetError {
            NetError::Decode(format!(
                "binary {} at byte {}: {detail}",
                self.what, self.pos
            ))
        }

        fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
            if self.remaining() < n {
                return Err(self.error(format!(
                    "truncated: needs {n} more bytes, {} remain",
                    self.remaining()
                )));
            }
            let out = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
            Ok(self.take(N)?.try_into().expect("take returns N bytes"))
        }

        fn u8(&mut self) -> Result<u8, NetError> {
            Ok(self.array::<1>()?[0])
        }

        fn u16(&mut self) -> Result<u16, NetError> {
            self.array().map(u16::from_le_bytes)
        }

        fn u32(&mut self) -> Result<u32, NetError> {
            self.array().map(u32::from_le_bytes)
        }

        fn u64(&mut self) -> Result<u64, NetError> {
            self.array().map(u64::from_le_bytes)
        }

        fn f64(&mut self) -> Result<f64, NetError> {
            let f = f64::from_le_bytes(self.array()?);
            if !f.is_finite() {
                return Err(self.error(format!("non-finite float {f}")));
            }
            Ok(f)
        }

        /// A flags byte whose bits outside `known` must be zero.
        fn flags(&mut self, known: u8) -> Result<u8, NetError> {
            let flags = self.u8()?;
            if flags & !known != 0 {
                return Err(self.error(format!("unknown flag bits {:#04x}", flags & !known)));
            }
            Ok(flags)
        }

        /// A tenant slot: the id when `present`, else zero bytes, so each
        /// value has exactly one encoding.
        fn tenant(&mut self, present: bool) -> Result<Option<u64>, NetError> {
            let tenant = self.u64()?;
            match (present, tenant) {
                (true, t) => Ok(Some(t)),
                (false, 0) => Ok(None),
                (false, t) => Err(self.error(format!("tenant {t} set without its flag"))),
            }
        }

        fn finish(&self) -> Result<(), NetError> {
            match self.remaining() {
                0 => Ok(()),
                n => Err(self.error(format!("{n} trailing bytes"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request() -> RequestWire {
        RequestWire {
            features: vec![0.5, -2.0],
            group_b: true,
            route_key: 0x0102_0304_0506_0708,
            tenant: Some(9),
        }
    }

    #[test]
    fn request_and_response_roundtrip() {
        let req = RequestWire {
            features: vec![0.25, -1.5, 3.0],
            group_b: true,
            route_key: 42,
            tenant: Some(7),
        };
        let back: RequestWire = decode(&encode(&req).unwrap()).unwrap();
        assert_eq!(back, req);

        let resp = ResponseWire::success(DecisionWire {
            probability: 0.875,
            favorable: true,
            flagged: false,
            shard: 3,
        });
        let back: ResponseWire = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.into_result().unwrap().shard, 3);
    }

    #[test]
    fn failure_and_malformed_responses_surface_as_errors() {
        let resp = ResponseWire::failure("queue full");
        let back: ResponseWire = decode(&encode(&resp).unwrap()).unwrap();
        assert!(matches!(back.into_result(), Err(NetError::Remote(m)) if m == "queue full"));

        let neither = ResponseWire {
            ok: None,
            error: None,
            code: None,
            tenant: None,
        };
        assert!(matches!(neither.into_result(), Err(NetError::Decode(_))));
    }

    #[test]
    fn coded_failure_roundtrips_with_tenant() {
        let resp = ResponseWire::failure_coded("tenant 9 over quota", "throttled", Some(9));
        let back: ResponseWire = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back.code.as_deref(), Some("throttled"));
        assert_eq!(back.tenant, Some(9));
        assert!(matches!(back.into_result(), Err(NetError::Remote(_))));
    }

    #[test]
    fn pre_tenant_payloads_still_decode() {
        // frames from a peer built before the tenant/code fields existed
        let req: RequestWire =
            decode(br#"{"features":[1.0],"group_b":false,"route_key":5}"#).unwrap();
        assert_eq!(req.tenant, None);
        let resp: ResponseWire = decode(br#"{"ok":null,"error":"queue full"}"#).unwrap();
        assert_eq!(resp.code, None);
        assert!(matches!(resp.into_result(), Err(NetError::Remote(_))));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode::<RequestWire>(b"not json").is_err());
        assert!(decode::<RequestWire>(&[0xff, 0xfe]).is_err());
        assert!(decode::<RequestWire>(b"{\"features\": \"nope\"}").is_err());
    }

    /// The version-2 layouts of PROTOCOL.md §4, byte for byte.
    #[test]
    fn binary_layouts_match_the_protocol_golden_bytes() {
        #[rustfmt::skip]
        let request: &[u8] = &[
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // route_key
            0x03,                                           // flags: group_b | tenant
            0x09, 0, 0, 0, 0, 0, 0, 0,                      // tenant 9
            0x02, 0x00,                                     // n = 2
            0, 0, 0, 0, 0, 0, 0xe0, 0x3f,                   // 0.5
            0, 0, 0, 0, 0, 0, 0x00, 0xc0,                   // -2.0
        ];
        assert_eq!(encode_request(2, &sample_request()).unwrap(), request);
        assert_eq!(decode_request(2, request).unwrap(), sample_request());

        let ok = ResponseWire::success(DecisionWire {
            probability: 0.75,
            favorable: true,
            flagged: true,
            shard: 0x0102,
        });
        #[rustfmt::skip]
        let ok_bytes: &[u8] = &[
            0x00,                         // tag: ok
            0, 0, 0, 0, 0, 0, 0xe8, 0x3f, // probability 0.75
            0x03,                         // flags: favorable | flagged
            0x02, 0x01, 0x00, 0x00,       // shard
        ];
        assert_eq!(encode_response(2, &ok).unwrap(), ok_bytes);
        assert_eq!(decode_response(2, ok_bytes).unwrap(), ok);

        let throttled = ResponseWire::failure_coded("over", "throttled", Some(7));
        #[rustfmt::skip]
        let err_bytes: &[u8] = &[
            0x01,                   // tag: error
            0x02,                   // code: throttled
            0x01,                   // tenant present
            0x07, 0, 0, 0, 0, 0, 0, 0, // tenant 7
            0x04, 0x00, 0x00, 0x00, // message length
            b'o', b'v', b'e', b'r',
        ];
        assert_eq!(encode_response(2, &throttled).unwrap(), err_bytes);
        assert_eq!(decode_response(2, err_bytes).unwrap(), throttled);
    }

    #[test]
    fn binary_decoders_reject_malformed_payloads_with_typed_errors() {
        let good = encode_request(2, &sample_request()).unwrap();
        let rejects = |bytes: &[u8]| matches!(decode_request(2, bytes), Err(NetError::Decode(_)));

        // n claims more features than the frame holds, or fewer
        for n in [3u16, 1, u16::MAX] {
            let mut bad = good.clone();
            bad[17..19].copy_from_slice(&n.to_le_bytes());
            assert!(rejects(&bad), "n = {n}");
        }
        // unknown flag bits, and a tenant id without its flag
        for flags in [0x04, 0x80, 0xff] {
            let mut bad = good.clone();
            bad[8] = flags;
            assert!(rejects(&bad), "flags {flags:#x}");
        }
        let mut bad = good.clone();
        bad[8] = 0x01;
        assert!(rejects(&bad), "tenant bytes set, tenant flag clear");
        // non-finite features
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = good.clone();
            bad[27..35].copy_from_slice(&f.to_le_bytes());
            assert!(rejects(&bad), "{f}");
        }

        let ok = encode_response(
            2,
            &ResponseWire::success(DecisionWire {
                probability: 0.5,
                favorable: false,
                flagged: false,
                shard: 1,
            }),
        )
        .unwrap();
        let mut bad = ok.clone();
        bad[1..9].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_response(2, &bad).is_err(), "NaN probability");
        let mut bad = ok.clone();
        bad[9] = 0x04;
        assert!(decode_response(2, &bad).is_err(), "unknown decision flag");
        let mut bad = ok;
        bad[0] = 2;
        assert!(decode_response(2, &bad).is_err(), "unknown tag");

        let err = encode_response(2, &ResponseWire::failure("x")).unwrap();
        let mut bad = err.clone();
        bad[2] = 2;
        assert!(
            decode_response(2, &bad).is_err(),
            "tenant flag other than 0/1"
        );
        let mut bad = err.clone();
        bad[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            decode_response(2, &bad).is_err(),
            "message longer than the frame"
        );
        let mut bad = err;
        *bad.last_mut().unwrap() = 0xff;
        assert!(decode_response(2, &bad).is_err(), "message not UTF-8");

        for version in [0, 3] {
            assert!(decode_request(version, &good).is_err());
            assert!(encode_request(version, &sample_request()).is_err());
        }
    }

    #[test]
    fn unknown_error_codes_decode_as_untyped_remote_errors() {
        let mut bytes = encode_response(2, &ResponseWire::failure("odd")).unwrap();
        for code in [5u8, 77, 255] {
            bytes[1] = code;
            let resp = decode_response(2, &bytes).unwrap();
            assert_eq!(resp.code, None, "code byte {code}");
            assert!(matches!(resp.into_result(), Err(NetError::Remote(m)) if m == "odd"));
        }
        // and a code string version 2 has no byte for travels untyped
        let resp = ResponseWire::failure_coded("odd", "from-the-future", None);
        let back = decode_response(2, &encode_response(2, &resp).unwrap()).unwrap();
        assert_eq!(back, ResponseWire::failure("odd"));
    }

    #[test]
    fn a_json_nesting_bomb_is_a_decode_error() {
        let bomb = "[".repeat(100_000);
        assert!(matches!(
            decode_request(1, bomb.as_bytes()),
            Err(NetError::Decode(_))
        ));
        assert!(hello_ack(bomb.as_bytes(), 2).is_none());
    }

    #[test]
    fn hello_settles_on_the_highest_common_version() {
        let hello = hello();
        assert_eq!(hello_version(&hello_ack(&hello, 2).unwrap()), Some(2));
        // a handler that speaks only JSON would settle on 1
        assert_eq!(hello_version(&hello_ack(&hello, 1).unwrap()), Some(1));
        // a peer offering a future version gets ours
        let future = encode(&ControlWire {
            command: "hello 9".into(),
        })
        .unwrap();
        assert_eq!(hello_version(&hello_ack(&future, 2).unwrap()), Some(2));
        // an old worker refuses the verb; the client stays on JSON
        let refusal = encode(&ControlAckWire {
            ok: false,
            info: "unknown command \"hello 2\"".into(),
        })
        .unwrap();
        assert_eq!(hello_version(&refusal), None);
        assert!(hello_ack(br#"{"command":"ping"}"#, 2).is_none());
    }

    /// Any finite f64, subnormals, signed zeros and extremes included.
    fn finite() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                -0.0
            }
        })
    }

    fn request_strategy() -> impl Strategy<Value = RequestWire> {
        (
            prop::collection::vec(finite(), 0..24),
            any::<bool>(),
            any::<u64>(),
            (any::<bool>(), any::<u64>()),
        )
            .prop_map(
                |(features, group_b, route_key, (has, tenant))| RequestWire {
                    features,
                    group_b,
                    route_key,
                    tenant: has.then_some(tenant),
                },
            )
    }

    fn response_strategy() -> impl Strategy<Value = ResponseWire> {
        const MSG: &[u8] = b"ab \"\\\n\t\x01\x7f";
        (
            (finite(), any::<bool>(), any::<bool>(), any::<u32>()),
            any::<bool>(),
            (0u8..=4, prop::collection::vec(0..MSG.len() + 2, 0..16)),
            (any::<bool>(), any::<u64>()),
        )
            .prop_map(|(ok, is_ok, (code, msg), (has, tenant))| {
                if is_ok {
                    return ResponseWire::success(DecisionWire {
                        probability: ok.0,
                        favorable: ok.1,
                        flagged: ok.2,
                        shard: ok.3 as usize,
                    });
                }
                // ASCII and escapes, plus two multibyte characters
                let msg: String = msg
                    .iter()
                    .map(|&i| match MSG.get(i) {
                        Some(&b) => char::from(b),
                        None if i == MSG.len() => '\u{e9}',
                        None => '\u{1d11e}',
                    })
                    .collect();
                ResponseWire {
                    ok: None,
                    error: Some(msg),
                    code: (code > 0).then(|| binary::CODES[usize::from(code) - 1].to_string()),
                    tenant: has.then_some(tenant),
                }
            })
    }

    fn assert_bit_equal(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert!(x.to_bits() == y.to_bits(), "{} vs {}", x, y);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential: JSON (v1) and binary (v2) carry every request to
        /// the same value, floats bit for bit.
        #[test]
        fn requests_decode_equal_over_json_and_binary(req in request_strategy()) {
            let json = decode_request(1, &encode_request(1, &req).unwrap()).unwrap();
            let bin = decode_request(2, &encode_request(2, &req).unwrap()).unwrap();
            prop_assert_eq!(&json, &req);
            prop_assert_eq!(&bin, &req);
            assert_bit_equal(&json.features, &bin.features)?;
        }

        /// Differential for responses, ok and coded failures alike.
        #[test]
        fn responses_decode_equal_over_json_and_binary(resp in response_strategy()) {
            let json = decode_response(1, &encode_response(1, &resp).unwrap()).unwrap();
            let bin = decode_response(2, &encode_response(2, &resp).unwrap()).unwrap();
            prop_assert_eq!(&json, &resp);
            prop_assert_eq!(&bin, &resp);
            let probability = |r: &ResponseWire| r.ok.as_ref().map(|d| d.probability);
            assert_bit_equal(
                &probability(&json).into_iter().collect::<Vec<_>>(),
                &probability(&bin).into_iter().collect::<Vec<_>>(),
            )?;
        }

        /// Arbitrary bytes never panic a binary decoder; whatever one
        /// accepts re-encodes to exactly those bytes.
        #[test]
        fn arbitrary_bytes_are_rejected_or_canonical(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            head in 0u8..3,
        ) {
            let mut bytes = bytes;
            if let Some(b) = bytes.first_mut() {
                *b = head; // reach both response arms as well as garbage tags
            }
            if let Ok(req) = decode_request(2, &bytes) {
                prop_assert_eq!(encode_request(2, &req).unwrap(), bytes.clone());
            }
            if let Ok(resp) = decode_response(2, &bytes) {
                prop_assert_eq!(encode_response(2, &resp).unwrap(), bytes);
            }
        }

        /// Every strict prefix of a valid payload, and the payload with
        /// bytes appended, is a typed decode error.
        #[test]
        fn truncations_and_trailing_bytes_are_typed_errors(
            req in request_strategy(),
            resp in response_strategy(),
            extra in prop::collection::vec(any::<u8>(), 1..9),
        ) {
            let req_bytes = encode_request(2, &req).unwrap();
            let resp_bytes = encode_response(2, &resp).unwrap();
            for cut in 0..req_bytes.len() {
                prop_assert!(matches!(decode_request(2, &req_bytes[..cut]), Err(NetError::Decode(_))));
            }
            for cut in 0..resp_bytes.len() {
                prop_assert!(matches!(decode_response(2, &resp_bytes[..cut]), Err(NetError::Decode(_))));
            }
            let mut long = req_bytes;
            long.extend_from_slice(&extra);
            prop_assert!(matches!(decode_request(2, &long), Err(NetError::Decode(_))));
            let mut long = resp_bytes;
            long.extend_from_slice(&extra);
            prop_assert!(matches!(decode_response(2, &long), Err(NetError::Decode(_))));
        }
    }
}
