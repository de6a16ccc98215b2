//! Tamper-evident audit log.
//!
//! Accountability (§2) needs more than a log — it needs a log whose
//! alteration is detectable. Entries form a hash chain: each entry's digest
//! covers its content *and* the previous digest, so edits, deletions, or
//! reordering anywhere in the middle break verification from that point on.
//!
//! Two shapes share one hashing rule: [`AuditLog`] holds a whole chain in
//! memory (offline audits), while [`ChainHead`] is the O(1) moving head a
//! durable writer carries — everything needed to extend the chain or check
//! continuity without the entries themselves. `fact-serve`'s audit sink
//! streams entries to disk through a `ChainHead` and re-derives it on
//! restart with [`verify_chain_from`].
//!
//! The digest is SHA-256 ([`mod@crate::sha256`]). Chain format **v2** (the
//! default since this revision) stores the full 256-bit digest, so link
//! forgery requires a second-preimage attack on SHA-256 and collision
//! resistance is the full 2¹²⁸. Format **v1** chains — everything written
//! before the bump — truncated the digest to its leading 64 bits; they
//! remain first-class: a [`Digest`] carries its width, old JSON (numeric
//! digests) deserializes as v1, and a v1 chain keeps extending and
//! verifying at v1 width. The width is fixed at genesis
//! ([`ChainHead::genesis`] vs [`ChainHead::genesis_v1`]) and inherited by
//! every subsequent link; mixed-width links never verify, because digests
//! of different widths are never equal.

use std::fmt;
use std::io::Write as _;

use serde::{Deserialize, Serialize};

use crate::sha256::Sha256;

/// Chain format written by new chains: full-width SHA-256 digests.
pub const CHAIN_FORMAT_VERSION: u16 = 2;

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A chain digest, tagged with its storage width.
///
/// `V1` is the legacy 64-bit truncated form (chain format v1); `V2` is the
/// full SHA-256. JSON keeps the two distinguishable — and v1 logs readable
/// — by writing `V1` as the same unsigned number it always was and `V2` as
/// a 64-character lowercase hex string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Digest {
    /// Leading 64 bits of SHA-256 (legacy chain format v1).
    V1(u64),
    /// Full 256-bit SHA-256 (chain format v2).
    V2([u8; 32]),
}

impl Digest {
    /// The genesis back-link of a v2 (full-width) chain.
    pub fn zero() -> Self {
        Digest::V2([0u8; 32])
    }

    /// The genesis back-link of a legacy v1 chain.
    pub fn zero_v1() -> Self {
        Digest::V1(0)
    }

    /// The chain-format version this digest's width belongs to.
    pub fn version(&self) -> u16 {
        match self {
            Digest::V1(_) => 1,
            Digest::V2(_) => 2,
        }
    }

    /// Whether this is a genesis back-link (all-zero, either width).
    pub fn is_zero(&self) -> bool {
        match self {
            Digest::V1(v) => *v == 0,
            Digest::V2(b) => b.iter().all(|&x| x == 0),
        }
    }

    /// Truncate (or keep) a raw SHA-256 digest to this digest's width.
    fn sibling_of(raw: [u8; 32], width: &Digest) -> Digest {
        match width {
            Digest::V1(_) => Digest::V1(u64::from_le_bytes(raw[..8].try_into().expect("32 bytes"))),
            Digest::V2(_) => Digest::V2(raw),
        }
    }

    /// Lowercase hex, width-length: 16 chars for v1, 64 for v2.
    pub fn to_hex(&self) -> String {
        self.encode_hex(&mut [0; 64]).to_owned()
    }

    /// The one hex encoder behind [`to_hex`](Self::to_hex), `Display` and
    /// the JSON forms: writes the digest's lowercase hex into `buf` and
    /// returns the written prefix. A v1 digest is its `u64` in big-endian
    /// order, so it reads as the number's usual hex rendering.
    fn encode_hex<'a>(&self, buf: &'a mut [u8; 64]) -> &'a str {
        let v1;
        let bytes: &[u8] = match self {
            Digest::V1(v) => {
                v1 = v.to_be_bytes();
                &v1
            }
            Digest::V2(b) => b,
        };
        for (pair, &byte) in buf.chunks_exact_mut(2).zip(bytes) {
            pair[0] = HEX_DIGITS[usize::from(byte >> 4)];
            pair[1] = HEX_DIGITS[usize::from(byte & 0xf)];
        }
        std::str::from_utf8(&buf[..2 * bytes.len()]).expect("hex digits are ASCII")
    }

    /// Append the digest's JSON form to `out`: what its `Serialize` impl
    /// renders through `serde_json`, written without a `Value`.
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            Digest::V1(v) => write!(out, "{v}").expect("writing to a Vec cannot fail"),
            Digest::V2(_) => {
                out.push(b'"');
                out.extend_from_slice(self.encode_hex(&mut [0; 64]).as_bytes());
                out.push(b'"');
            }
        }
    }

    /// Parse hex produced by [`to_hex`](Self::to_hex); the string length
    /// (16 vs 64) selects the width. Anything else is `None`.
    pub fn from_hex(s: &str) -> Option<Digest> {
        match s.len() {
            16 => u64::from_str_radix(s, 16).ok().map(Digest::V1),
            64 => {
                let mut out = [0u8; 32];
                for (i, byte) in out.iter_mut().enumerate() {
                    *byte = u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok()?;
                }
                Some(Digest::V2(out))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.encode_hex(&mut [0; 64]))
    }
}

// Hand-written (not derived) so the wire form stays compatible in both
// directions: v1 digests keep serializing as the bare number every
// pre-existing log and head sidecar stores, v2 digests are hex strings.
impl serde::Serialize for Digest {
    fn to_value(&self) -> serde::Value {
        match self {
            Digest::V1(v) => serde::Value::UInt(*v),
            Digest::V2(_) => serde::Value::String(self.to_hex()),
        }
    }
}

impl serde::Deserialize for Digest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::UInt(u) => Ok(Digest::V1(*u)),
            serde::Value::Int(i) if *i >= 0 => Ok(Digest::V1(*i as u64)),
            serde::Value::String(s) => Digest::from_hex(s)
                .ok_or_else(|| serde::Error::custom(format!("malformed digest hex '{s}'"))),
            other => Err(serde::Error::custom(format!(
                "expected digest number or hex string, got {other:?}"
            ))),
        }
    }
}

/// One audit-log entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Sequence number (0-based).
    pub seq: u64,
    /// Who performed the action.
    pub actor: String,
    /// What was done.
    pub action: String,
    /// Free-form detail (parameters, affected records…).
    pub details: String,
    /// Digest of the previous entry (all-zero for the genesis entry).
    pub prev_hash: Digest,
    /// Digest of this entry (same width as `prev_hash`).
    pub hash: Digest,
}

/// An append-only, hash-chained audit log.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
}

fn entry_hash(seq: u64, actor: &str, action: &str, details: &str, prev: Digest) -> Digest {
    // Fixed-width fields first, then length-prefixed strings: the encoding
    // is injective, so no two distinct entries hash the same input bytes.
    // The previous digest is absorbed at its own width (8 bytes for v1 —
    // byte-identical to the pre-bump format, so old chains still verify —
    // 32 bytes for v2), and the output is truncated to the same width.
    let mut h = Sha256::new();
    match prev {
        Digest::V1(v) => {
            h.update(&v.to_le_bytes());
        }
        Digest::V2(b) => {
            h.update(&b);
        }
    }
    h.update(&seq.to_le_bytes());
    for s in [actor, action, details] {
        h.update(&(s.len() as u64).to_le_bytes());
        h.update(s.as_bytes());
    }
    Digest::sibling_of(h.finalize(), &prev)
}

/// The moving head of an audit hash chain: the sequence number the next
/// entry must carry and the digest it must link back to. A `ChainHead` is
/// all the state a streaming writer needs to extend a chain of any length,
/// and all a verifier needs to check that a later segment continues an
/// earlier one (e.g. across a process restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainHead {
    /// Sequence number of the next entry to be appended.
    pub next_seq: u64,
    /// Digest the next entry must record as its `prev_hash` (all-zero at
    /// genesis). Its width fixes the chain's format for every later link.
    pub hash: Digest,
}

impl Default for ChainHead {
    fn default() -> Self {
        ChainHead::genesis()
    }
}

impl ChainHead {
    /// The head of an empty chain in the current (v2, full-width) format.
    pub fn genesis() -> Self {
        ChainHead {
            next_seq: 0,
            hash: Digest::zero(),
        }
    }

    /// The head of an empty chain in the legacy v1 (64-bit) format. Only
    /// needed to reproduce or extend chains written before the format
    /// bump; new chains should use [`genesis`](Self::genesis).
    pub fn genesis_v1() -> Self {
        ChainHead {
            next_seq: 0,
            hash: Digest::zero_v1(),
        }
    }

    /// The chain-format version this head's digest width belongs to.
    pub fn version(&self) -> u16 {
        self.hash.version()
    }

    /// Build the next chained entry and advance the head past it.
    pub fn extend(
        &mut self,
        actor: impl Into<String>,
        action: impl Into<String>,
        details: impl Into<String>,
    ) -> AuditEntry {
        let actor = actor.into();
        let action = action.into();
        let details = details.into();
        let hash = entry_hash(self.next_seq, &actor, &action, &details, self.hash);
        let entry = AuditEntry {
            seq: self.next_seq,
            actor,
            action,
            details,
            prev_hash: self.hash,
            hash,
        };
        self.next_seq += 1;
        self.hash = hash;
        entry
    }

    /// Extend the chain by one entry and append that entry's JSONL line to
    /// `out`: exactly the bytes of `serde_json::to_string` of what
    /// [`extend`](Self::extend) would return, then `\n`. The line is hashed
    /// and written straight from the borrowed strings, with no
    /// [`AuditEntry`], no copies of them and no JSON value tree. The field
    /// order and escaping are those of the derived `Serialize` and of
    /// [`serde_json::render_string`], so every reader parses it unchanged.
    pub fn extend_line(&mut self, actor: &str, action: &str, details: &str, out: &mut Vec<u8>) {
        let hash = entry_hash(self.next_seq, actor, action, details, self.hash);
        write!(out, "{{\"seq\":{}", self.next_seq).expect("writing to a Vec cannot fail");
        out.extend_from_slice(b",\"actor\":");
        serde_json::render_string(actor, out);
        out.extend_from_slice(b",\"action\":");
        serde_json::render_string(action, out);
        out.extend_from_slice(b",\"details\":");
        serde_json::render_string(details, out);
        out.extend_from_slice(b",\"prev_hash\":");
        self.hash.write_json(out);
        out.extend_from_slice(b",\"hash\":");
        hash.write_json(out);
        out.extend_from_slice(b"}\n");
        self.next_seq += 1;
        self.hash = hash;
    }

    /// Whether `entry` correctly extends this head: right sequence number,
    /// right back-link, and a digest that matches its content.
    ///
    /// At genesis (seq 0, all-zero digest) the back-link check accepts a
    /// zero digest of **either width**: both encode "nothing before me",
    /// and accepting them interchangeably is what lets a v1 log recorded
    /// before the format bump verify from a plain [`genesis`] head. The
    /// chain's width is then fixed by the genesis entry itself and checked
    /// exactly on every later link.
    ///
    /// [`genesis`]: Self::genesis
    pub fn follows(&self, entry: &AuditEntry) -> bool {
        let back_link_ok = if self.next_seq == 0 && self.hash.is_zero() {
            entry.prev_hash.is_zero()
        } else {
            entry.prev_hash == self.hash
        };
        entry.seq == self.next_seq
            && back_link_ok
            && entry.hash
                == entry_hash(
                    entry.seq,
                    &entry.actor,
                    &entry.action,
                    &entry.details,
                    entry.prev_hash,
                )
    }

    /// The head after `entry` (which the caller has already checked with
    /// [`follows`](Self::follows), or trusts).
    pub fn advanced_past(entry: &AuditEntry) -> Self {
        ChainHead {
            next_seq: entry.seq + 1,
            hash: entry.hash,
        }
    }
}

/// Verify that `entries` forms an intact chain continuing `from`. Returns
/// the index (into `entries`) of the first entry that breaks the chain, or
/// `None` when the whole segment verifies.
pub fn verify_chain_from(from: ChainHead, entries: &[AuditEntry]) -> Option<usize> {
    let mut head = from;
    for (i, e) in entries.iter().enumerate() {
        if !head.follows(e) {
            return Some(i);
        }
        head = ChainHead::advanced_past(e);
    }
    None
}

// ---------------------------------------------------------------------------
// segment handoff records
// ---------------------------------------------------------------------------

/// The `action` every segment-handoff record carries. A rotated log writes
/// one of these as the first entry of each new segment: a normal chained
/// entry whose `details` restate the head it continues, so the segment
/// carries its own resume point and verifies standalone.
pub const SEGMENT_HANDOFF_ACTION: &str = "segment_handoff";

impl ChainHead {
    /// The canonical `details` payload of a handoff record that opens
    /// `segment` by continuing this head. The payload restates the head
    /// (`prev_seq`, `prev_hash`) so a verifier holding only the segment's
    /// bytes knows where the chain resumes — and because the details are
    /// covered by the entry's own digest, the claim is tamper-evident.
    pub fn handoff_details(&self, segment: u64) -> String {
        format!(
            "segment={segment} prev_seq={} prev_hash={}",
            self.next_seq,
            self.hash.to_hex()
        )
    }
}

/// Whether `entry` is a segment-handoff record (by action name; its claim
/// still has to check out via [`verify_segment_entries`]).
pub fn is_handoff(entry: &AuditEntry) -> bool {
    entry.action == SEGMENT_HANDOFF_ACTION
}

/// Parse a handoff `details` payload back into `(segment, claimed head)`.
/// Returns `None` when the payload is not in canonical form. The hex length
/// of `prev_hash` (16 vs 64 chars) carries the chain-format width, so v1
/// handoffs written before the bump parse back at v1 width.
pub fn parse_handoff_details(details: &str) -> Option<(u64, ChainHead)> {
    let mut segment = None;
    let mut prev_seq = None;
    let mut prev_hash = None;
    for field in details.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "segment" => segment = Some(value.parse::<u64>().ok()?),
            "prev_seq" => prev_seq = Some(value.parse::<u64>().ok()?),
            "prev_hash" => prev_hash = Some(Digest::from_hex(value)?),
            _ => return None,
        }
    }
    Some((
        segment?,
        ChainHead {
            next_seq: prev_seq?,
            hash: prev_hash?,
        },
    ))
}

/// What standalone verification of one segment established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCheck {
    /// The head the segment continues from: genesis for a segment that
    /// opens at sequence 0, or the handoff record's (verified) claim.
    pub start: ChainHead,
    /// The head after the segment's last entry — what the next segment's
    /// handoff must claim for the pair to be continuous.
    pub end: ChainHead,
    /// Entries the segment holds (including the handoff record itself).
    pub entries: u64,
    /// Segment id the handoff record claims to open; `None` for the
    /// genesis segment.
    pub handoff_segment: Option<u64>,
}

/// Why a segment failed standalone verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The segment holds no entries at all.
    Empty,
    /// The first entry neither starts at genesis nor is a parseable
    /// handoff record — the segment carries no resume point.
    BadStart,
    /// The first entry is a handoff record whose claimed head does not
    /// match the entry's own chain position (or its digest is wrong).
    HandoffMismatch,
    /// The chain breaks at this entry index (0-based into the segment).
    ChainBreak(usize),
    /// The segment's byte tail did not parse into entries (torn write);
    /// the value is the index the intact prefix ends at.
    TornTail(usize),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Empty => write!(f, "segment is empty"),
            SegmentError::BadStart => {
                write!(f, "first entry is neither genesis nor a handoff record")
            }
            SegmentError::HandoffMismatch => {
                write!(f, "handoff claim does not match the entry's chain position")
            }
            SegmentError::ChainBreak(i) => write!(f, "chain breaks at entry {i}"),
            SegmentError::TornTail(i) => write!(f, "torn bytes after entry {i}"),
        }
    }
}

/// Verify one segment **standalone**: establish its start head from its
/// own first entry (genesis, or a handoff record whose claim must match
/// the entry's chain position), then verify every entry from there. No
/// other segment is needed — this is what makes a rotated log's segments
/// independently checkable and recovery O(newest segment).
pub fn verify_segment_entries(entries: &[AuditEntry]) -> Result<SegmentCheck, SegmentError> {
    let first = entries.first().ok_or(SegmentError::Empty)?;
    let (start, handoff_segment) = if is_handoff(first) {
        let (segment, claim) =
            parse_handoff_details(&first.details).ok_or(SegmentError::BadStart)?;
        if !claim.follows(first) {
            return Err(SegmentError::HandoffMismatch);
        }
        (claim, Some(segment))
    } else if first.seq == 0 && first.prev_hash.is_zero() {
        // genesis at the entry's own width, so v1 and v2 segments both
        // verify standalone
        (
            ChainHead {
                next_seq: 0,
                hash: first.prev_hash,
            },
            None,
        )
    } else {
        return Err(SegmentError::BadStart);
    };
    if let Some(i) = verify_chain_from(start, entries) {
        return Err(SegmentError::ChainBreak(i));
    }
    Ok(SegmentCheck {
        start,
        end: ChainHead::advanced_past(entries.last().expect("non-empty")),
        entries: entries.len() as u64,
        handoff_segment,
    })
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an action; returns the new entry's digest.
    pub fn append(
        &mut self,
        actor: impl Into<String>,
        action: impl Into<String>,
        details: impl Into<String>,
    ) -> Digest {
        let mut head = self.head();
        let entry = head.extend(actor, action, details);
        let hash = entry.hash;
        self.entries.push(entry);
        hash
    }

    /// The chain head after the last entry (genesis for an empty log).
    pub fn head(&self) -> ChainHead {
        self.entries
            .last()
            .map(ChainHead::advanced_past)
            .unwrap_or_default()
    }

    /// All entries in order.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verify the whole chain. Returns the index of the first corrupted
    /// entry, or `None` when the log is intact.
    pub fn verify(&self) -> Option<usize> {
        verify_chain_from(ChainHead::genesis(), &self.entries)
    }

    /// Export as JSON for external archiving.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.entries).expect("audit entries are serializable")
    }

    /// Mutable access for tamper simulations. Only compiled into this
    /// crate's own tests or under the opt-in `tamper` feature: the public
    /// API of a release build is append-only, so production code cannot
    /// silently break the chain.
    #[cfg(any(test, feature = "tamper"))]
    #[doc(hidden)]
    pub fn entries_mut(&mut self) -> &mut Vec<AuditEntry> {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.append("pipeline", "load", "loans.csv rows=10000");
        log.append("ml-engineer", "train", "logistic seed=42");
        log.append("auditor", "fairness_audit", "di=0.78 verdict=UNFAIR");
        log.append("ml-engineer", "mitigate", "reweighing");
        log
    }

    #[test]
    fn intact_log_verifies() {
        assert_eq!(sample_log().verify(), None);
        assert_eq!(AuditLog::new().verify(), None);
    }

    #[test]
    fn edit_in_the_middle_is_detected() {
        let mut log = sample_log();
        log.entries_mut()[1].details = "logistic seed=41".into(); // falsify
        assert_eq!(log.verify(), Some(1));
    }

    #[test]
    fn deletion_is_detected() {
        let mut log = sample_log();
        log.entries_mut().remove(1);
        assert_eq!(log.verify(), Some(1));
    }

    #[test]
    fn reordering_is_detected() {
        let mut log = sample_log();
        log.entries_mut().swap(1, 2);
        assert_eq!(log.verify(), Some(1));
    }

    #[test]
    fn recomputed_hash_without_chain_still_detected() {
        // an attacker rewrites an entry AND fixes its own hash, but cannot
        // fix the next entry's prev_hash without rewriting the whole suffix
        let mut log = sample_log();
        let e = &mut log.entries_mut()[1];
        e.details = "logistic seed=41".into();
        e.hash = entry_hash(e.seq, &e.actor, &e.action, &e.details, e.prev_hash);
        assert_eq!(log.verify(), Some(2));
    }

    #[test]
    fn chain_links_prev_hashes() {
        let log = sample_log();
        for w in log.entries().windows(2) {
            assert_eq!(w[1].prev_hash, w[0].hash);
        }
        assert_eq!(log.entries()[0].prev_hash, Digest::zero());
    }

    #[test]
    fn json_export() {
        let log = sample_log();
        let json = log.to_json();
        assert!(json.contains("fairness_audit"));
        assert!(json.contains("prev_hash"));
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    fn chain_head_extends_identically_to_append() {
        let log = sample_log();
        let mut head = ChainHead::genesis();
        for e in log.entries() {
            assert!(head.follows(e));
            let rebuilt = head.extend(e.actor.clone(), e.action.clone(), e.details.clone());
            assert_eq!(&rebuilt, e);
        }
        assert_eq!(head, log.head());
        assert_eq!(AuditLog::new().head(), ChainHead::genesis());
    }

    #[test]
    fn verify_chain_from_checks_continuity_across_a_split() {
        let log = sample_log();
        let (a, b) = log.entries().split_at(2);
        assert_eq!(verify_chain_from(ChainHead::genesis(), a), None);
        let mid = ChainHead::advanced_past(&a[1]);
        assert_eq!(verify_chain_from(mid, b), None);
        // the wrong resume point is rejected at the first entry
        assert_eq!(verify_chain_from(ChainHead::genesis(), b), Some(0));
    }

    // ----- segment handoff records -----

    /// Split a chain into two "segments", opening the second with a
    /// handoff record, the way a rotating writer does.
    fn segmented_chain() -> (Vec<AuditEntry>, Vec<AuditEntry>) {
        let mut head = ChainHead::genesis();
        let seg0: Vec<AuditEntry> = (0..4)
            .map(|i| head.extend("writer", "append", format!("n={i}")))
            .collect();
        let claim = head;
        let mut seg1 =
            vec![head.extend("writer", SEGMENT_HANDOFF_ACTION, claim.handoff_details(1))];
        seg1.extend((4..7).map(|i| head.extend("writer", "append", format!("n={i}"))));
        (seg0, seg1)
    }

    #[test]
    fn handoff_details_round_trip() {
        // legacy v1 head: 16-char hex parses back at v1 width
        let head = ChainHead {
            next_seq: 42,
            hash: Digest::V1(0xdead_beef_0123_4567),
        };
        let details = head.handoff_details(3);
        assert!(details.contains("prev_hash=deadbeef01234567"));
        assert_eq!(parse_handoff_details(&details), Some((3, head)));
        // v2 head: 64-char hex parses back at full width
        let mut raw = [0u8; 32];
        raw[0] = 0xab;
        raw[31] = 0x01;
        let head2 = ChainHead {
            next_seq: 7,
            hash: Digest::V2(raw),
        };
        assert_eq!(
            parse_handoff_details(&head2.handoff_details(9)),
            Some((9, head2))
        );
        assert_eq!(parse_handoff_details("segment=1 prev_seq=x"), None);
        assert_eq!(parse_handoff_details("garbage"), None);
        assert_eq!(parse_handoff_details("segment=1 prev_seq=2"), None);
        // wrong-length hex is rejected
        assert_eq!(
            parse_handoff_details("segment=1 prev_seq=2 prev_hash=abc"),
            None
        );
    }

    #[test]
    fn each_segment_verifies_standalone_and_the_pair_is_continuous() {
        let (seg0, seg1) = segmented_chain();
        let c0 = verify_segment_entries(&seg0).unwrap();
        assert_eq!(c0.start, ChainHead::genesis());
        assert_eq!(c0.handoff_segment, None);
        assert_eq!(c0.entries, 4);
        let c1 = verify_segment_entries(&seg1).unwrap();
        assert_eq!(c1.handoff_segment, Some(1));
        assert_eq!(c1.start, c0.end, "handoff claim stitches the segments");
        assert!(is_handoff(&seg1[0]) && !is_handoff(&seg0[0]));
        // the concatenation is still one plain chain from genesis
        let all: Vec<AuditEntry> = seg0.iter().chain(&seg1).cloned().collect();
        assert_eq!(verify_chain_from(ChainHead::genesis(), &all), None);
    }

    #[test]
    fn segment_faults_are_classified() {
        let (seg0, mut seg1) = segmented_chain();
        assert_eq!(verify_segment_entries(&[]), Err(SegmentError::Empty));
        // a segment starting mid-chain without a handoff carries no
        // resume point
        assert_eq!(
            verify_segment_entries(&seg0[2..]),
            Err(SegmentError::BadStart)
        );
        // a handoff whose details were rewritten (claim no longer matches
        // the entry's own position) is caught even though the rest chains
        let mut forged = seg1.clone();
        forged[0].details = ChainHead {
            next_seq: 99,
            hash: Digest::V1(7),
        }
        .handoff_details(1);
        assert!(matches!(
            verify_segment_entries(&forged),
            // rewriting details breaks the entry digest first; a forged
            // digest would then trip the claim check
            Err(SegmentError::ChainBreak(0) | SegmentError::HandoffMismatch)
        ));
        // tamper deep in the segment: caught at that index, standalone
        seg1[2].details = "n=999".into();
        assert_eq!(
            verify_segment_entries(&seg1),
            Err(SegmentError::ChainBreak(2))
        );
    }

    #[test]
    fn forged_handoff_with_recomputed_hash_is_a_mismatch() {
        let (_, mut seg1) = segmented_chain();
        let wrong = ChainHead {
            next_seq: seg1[0].seq,
            hash: Digest::V2([0x12; 32]),
        };
        seg1[0].details = wrong.handoff_details(1);
        seg1[0].hash = entry_hash(
            seg1[0].seq,
            &seg1[0].actor,
            &seg1[0].action,
            &seg1[0].details,
            seg1[0].prev_hash,
        );
        // its own digest now verifies, but the claim disagrees with the
        // entry's actual back-link
        assert_eq!(
            verify_segment_entries(&seg1[..1]),
            Err(SegmentError::HandoffMismatch)
        );
    }

    // ----- chain format v1/v2 compatibility -----

    #[test]
    fn new_chains_are_full_width() {
        let log = sample_log();
        assert_eq!(log.head().version(), CHAIN_FORMAT_VERSION);
        for e in log.entries() {
            assert!(matches!(e.hash, Digest::V2(_)));
        }
        // and the stored form is a 64-char hex string
        let json = log.to_json();
        assert!(json.contains(&log.entries()[0].hash.to_hex()));
    }

    #[test]
    fn v1_chain_extends_and_verifies_at_v1_width() {
        let mut head = ChainHead::genesis_v1();
        let entries: Vec<AuditEntry> = (0..5)
            .map(|i| head.extend("legacy", "append", format!("n={i}")))
            .collect();
        assert_eq!(head.version(), 1);
        for e in &entries {
            assert!(matches!(e.hash, Digest::V1(_)));
        }
        // verifies from a v1 genesis, and from the default (v2) genesis via
        // the width-flexible zero back-link
        assert_eq!(verify_chain_from(ChainHead::genesis_v1(), &entries), None);
        assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
        // a v1 segment verifies standalone at v1 width
        let check = verify_segment_entries(&entries).unwrap();
        assert_eq!(check.start, ChainHead::genesis_v1());
        assert_eq!(check.end.version(), 1);
    }

    #[test]
    fn v1_digests_keep_their_numeric_wire_form() {
        // the exact JSON shape every pre-bump log stores: digests as bare
        // unsigned numbers
        let mut head = ChainHead::genesis_v1();
        let e = head.extend("legacy", "load", "rows=3");
        let json = serde_json::to_string(&e).expect("serializable");
        let Digest::V1(h) = e.hash else {
            panic!("v1 chain produced a non-v1 digest")
        };
        assert!(json.contains(&format!("\"hash\":{h}")));
        // and it reads back identically
        let back: AuditEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        // a pre-bump head sidecar (numeric hash) also still reads
        let sidecar = format!("{{\"next_seq\":1,\"hash\":{h}}}");
        let parsed: ChainHead = serde_json::from_str(&sidecar).unwrap();
        assert_eq!(parsed, head);
    }

    #[test]
    fn mixed_width_links_never_verify() {
        // a v2 entry cannot claim to extend a v1 head (and vice versa),
        // because digests of different widths are never equal
        let mut v1 = ChainHead::genesis_v1();
        v1.extend("w", "a", "x");
        let mut v2 = ChainHead::genesis();
        let e2 = v2.extend("w", "a", "y");
        assert!(!v1.follows(&e2));
    }

    #[test]
    fn digest_hex_round_trips() {
        let d1 = Digest::V1(0x0123_4567_89ab_cdef);
        assert_eq!(Digest::from_hex(&d1.to_hex()), Some(d1));
        let d2 = Digest::V2(core::array::from_fn(|i| i as u8));
        assert_eq!(d2.to_hex().len(), 64);
        assert_eq!(Digest::from_hex(&d2.to_hex()), Some(d2));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"f".repeat(63)), None);
        assert!(Digest::zero().is_zero() && Digest::zero_v1().is_zero());
        assert_ne!(Digest::zero(), Digest::zero_v1());
    }

    // ----- the on-disk line format -----

    /// The exact JSONL bytes of a v2 genesis entry, the segment handoff
    /// record that continues it, and a v1 entry — each digest computed
    /// independently of this crate (Python `hashlib` over the same injective
    /// hash input). A writer change that forks the on-disk format fails here.
    #[test]
    fn golden_lines_pin_the_on_disk_format() {
        let mut out = Vec::new();
        let mut head = ChainHead::genesis();
        head.extend_line("pipeline", "load", "loans.csv rows=10000", &mut out);
        let claim = head;
        let details = claim.handoff_details(1);
        head.extend_line("fact-serve", SEGMENT_HANDOFF_ACTION, &details, &mut out);
        let mut v1 = ChainHead::genesis_v1();
        v1.extend_line("legacy", "load", "say \"hi\"\tcaf\u{e9}", &mut out);
        let want = concat!(
            r#"{"seq":0,"actor":"pipeline","action":"load","details":"loans.csv rows=10000","#,
            r#""prev_hash":"0000000000000000000000000000000000000000000000000000000000000000","#,
            r#""hash":"a511c1115f225ac2dabf06b50d50fc86a64a75da1c5d00ddce79cfdbfd98cc8e"}"#,
            "\n",
            r#"{"seq":1,"actor":"fact-serve","action":"segment_handoff","#,
            r#""details":"segment=1 prev_seq=1 prev_hash=a511c1115f225ac2dabf06b50d50fc86a64a75da1c5d00ddce79cfdbfd98cc8e","#,
            r#""prev_hash":"a511c1115f225ac2dabf06b50d50fc86a64a75da1c5d00ddce79cfdbfd98cc8e","#,
            r#""hash":"b07ff45d9578faabffdf4b9636c95ecb26c896a340dec68e2b91f5d38888aa92"}"#,
            "\n",
            r#"{"seq":0,"actor":"legacy","action":"load","details":"say \"hi\"\tcafé","#,
            r#""prev_hash":0,"hash":18300265868937798123}"#,
            "\n",
        );
        let got = String::from_utf8(out).expect("the writer emits UTF-8");
        assert_eq!(got, want);
        // the serde path parses every line back and renders the same bytes
        for line in got.lines() {
            let entry: AuditEntry = serde_json::from_str(line).unwrap();
            assert_eq!(serde_json::to_string(&entry).unwrap(), line);
        }
    }

    /// The writer's line for `(actor, action, details)` and the serde
    /// oracle's, advancing both heads.
    fn line_and_oracle(
        head: &mut ChainHead,
        oracle: &mut ChainHead,
        actor: &str,
        action: &str,
        details: &str,
    ) -> (String, String) {
        let mut line = Vec::new();
        head.extend_line(actor, action, details, &mut line);
        let entry = oracle.extend(actor, action, details);
        let want = serde_json::to_string(&entry).expect("serializable") + "\n";
        (
            String::from_utf8(line).expect("the writer emits UTF-8"),
            want,
        )
    }

    #[test]
    fn every_control_character_is_escaped_like_serde() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\u{7f}\"\\/ caf\u{e9} \u{2615} \u{1d11e}");
        for genesis in [ChainHead::genesis(), ChainHead::genesis_v1()] {
            let (mut head, mut oracle) = (genesis, genesis);
            let (got, want) = line_and_oracle(&mut head, &mut oracle, &text, "a\u{0}", &text);
            assert_eq!(got, want);
            let back: AuditEntry = serde_json::from_str(got.trim_end_matches('\n')).unwrap();
            assert_eq!(
                (back.actor.as_str(), back.details.as_str()),
                (&*text, &*text)
            );
            assert!(genesis.follows(&back));
        }
    }

    // ----- property tests: tamper detection over random logs and ops -----

    use proptest::prelude::*;

    fn build_log(rows: &[(String, String, String)]) -> AuditLog {
        let mut log = AuditLog::new();
        for (actor, action, details) in rows {
            log.append(actor.clone(), action.clone(), details.clone());
        }
        log
    }

    /// A string drawn from every character class the JSON escaper treats
    /// differently: control characters, `"`, `\`, DEL, printable ASCII, and
    /// two- to four-byte UTF-8.
    fn json_text() -> impl Strategy<Value = String> {
        prop::collection::vec((0u8..5, 0u32..0x11_0000), 0..24).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(class, n)| match class {
                    0 => char::from((n % 0x20) as u8),
                    1 => ['"', '\\', '\u{7f}'][n as usize % 3],
                    2 => char::from(b' ' + (n % 95) as u8),
                    3 => char::from_u32(0x80 + n % 0xd780).expect("below the surrogates"),
                    _ => char::from_u32(n).unwrap_or('\u{fffd}'),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The direct line writer emits exactly what serializing the entry
        /// `extend` builds would, for v1 and v2 heads at any position and
        /// any strings, and leaves the head where `extend` does.
        #[test]
        fn line_writer_matches_serde_json(
            v1 in any::<bool>(),
            start_seq in 0u64..u64::MAX / 2,
            seed in any::<u64>(),
            rows in prop::collection::vec((json_text(), json_text(), json_text()), 1..6),
        ) {
            let hash = if v1 {
                Digest::V1(seed)
            } else {
                Digest::V2(crate::sha256::sha256(&seed.to_le_bytes()))
            };
            let mut head = ChainHead { next_seq: start_seq, hash };
            let mut oracle = head;
            for (actor, action, details) in &rows {
                let (got, want) = line_and_oracle(&mut head, &mut oracle, actor, action, details);
                prop_assert_eq!(got, want);
                prop_assert_eq!(head, oracle);
            }
        }

        /// The public API is append-only: no sequence of appends can
        /// produce a log that fails verification, and the head always
        /// matches the last entry.
        #[test]
        fn public_api_alone_cannot_break_the_chain(
            rows in prop::collection::vec(
                ("[a-z]{1,8}", "[a-z]{1,8}", "[a-z0-9]{0,16}"), 0..24),
        ) {
            let log = build_log(&rows);
            prop_assert_eq!(log.verify(), None);
            prop_assert_eq!(log.head().next_seq, rows.len() as u64);
            if let Some(last) = log.entries().last() {
                prop_assert_eq!(log.head().hash, last.hash);
            }
        }

        /// Any single-entry mutation, deletion, or reordering is caught at
        /// or before the tampered index; tail truncation (which in-memory
        /// verification alone cannot see) is caught by the recorded head.
        #[test]
        fn any_single_tamper_is_caught(
            rows in prop::collection::vec(
                ("[a-z]{1,8}", "[a-z]{1,8}", "[a-z0-9]{0,16}"), 2..20),
            op_sel in 0usize..5,
            raw_i in 0usize..1000,
            raw_j in 0usize..1000,
        ) {
            let mut log = build_log(&rows);
            let head_before = log.head();
            let n = log.len();
            let i = raw_i % n;
            // plain mutation/deletion/reordering must be caught AT the
            // tampered index or earlier; a recomputed-hash rewrite is only
            // betrayed by the NEXT entry's back-link (+1)
            let mut slack = 0usize;
            let tampered_at = match op_sel {
                0 => {
                    log.entries_mut()[i].details.push('!');
                    i
                }
                1 => {
                    log.entries_mut()[i].actor = "mallory".into();
                    i
                }
                2 => {
                    // rewrite an entry AND recompute its own hash: the next
                    // entry's dangling prev_hash betrays it (or, for the
                    // last entry, the recorded head does)
                    let e = &mut log.entries_mut()[i];
                    e.details.push('!');
                    e.hash = entry_hash(e.seq, &e.actor, &e.action, &e.details, e.prev_hash);
                    slack = 1;
                    i
                }
                3 => {
                    log.entries_mut().remove(i);
                    i
                }
                _ => {
                    let j = raw_j % n;
                    prop_assume!(i != j);
                    log.entries_mut().swap(i, j);
                    i.min(j)
                }
            };
            let caught = log.verify();
            match caught {
                Some(at) => prop_assert!(
                    at <= tampered_at + slack,
                    "caught at {at}, tampered at {tampered_at} (slack {slack})"
                ),
                None => {
                    // only a chain-consistent suffix rewrite can slip past
                    // verify(); the recorded head still exposes it
                    prop_assert!(
                        log.head() != head_before,
                        "tamper op {op_sel} at {tampered_at} invisible to both \
                         verify() and the recorded head"
                    );
                }
            }
        }
    }
}
