//! Reading the audit log back: startup recovery and standalone
//! verification.
//!
//! Every reader of segment bytes goes through one line reader
//! ([`read_entries`]) and one verifier
//! ([`verify_segment_entries`]): startup recovery, lazy
//! verification ([`verify_segment`], [`verify_all_segments`]), the
//! archiver's pre-compaction check and [`parse_log`]. So the rule for
//! where a segment's chain starts — genesis at the entry's own width, or
//! a handoff record whose claim the entry follows — and the rule for what
//! counts as a torn tail are each written once.
//!
//! * **Recovery replays only the newest segment**: its handoff record
//!   says where the chain resumes, so restart work is O(segment), not
//!   O(history). A torn tail is truncated at the exact cut point; a
//!   segment whose opening handoff itself tore (a crash during the roll)
//!   is wiped and recovery falls back one segment. A *missing middle*
//!   segment is reported as provable loss, quantified from the
//!   neighbors' handoff claims — never silently skipped.
//! * **Archived segments count as present.** Recovery and verification
//!   read them transparently via [`read_segment_or_archive`], so history
//!   stays verifiable across the live/archived boundary.

use std::io;

use fact_transparency::audit::{
    verify_segment_entries, AuditEntry, ChainHead, SegmentCheck, SegmentError,
};

use super::AuditStorage;
use crate::archive::decode_archive;

/// What the startup recovery pass found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact chained entries replayed (the newest segment's — recovery
    /// never re-reads older segments unless it has to fall back).
    pub recovered: u64,
    /// Byte offset appending resumes at within the active segment.
    pub cut_offset: u64,
    /// Bytes removed across segments (torn or unverifiable tails).
    pub truncated_bytes: u64,
    /// Complete lines discarded past the cut point (a torn final fragment
    /// without a newline is not counted here).
    pub cut_lines: u64,
    /// Sequence number of the first entry that failed chain verification,
    /// when the cut was a chain break rather than a torn/unparseable tail.
    pub cut_seq: Option<u64>,
    /// Entries provably lost: what the persisted chain head promised
    /// beyond the recovered log, plus entries missing-middle segments
    /// held (quantified from the neighbors' handoff claims). Bounded by
    /// one batch when the only fault was a kill (the unsynced tail).
    pub lost: u64,
    /// The chain head appending resumes from.
    pub resumed: ChainHead,
    /// Segments present after recovery.
    pub segments: u64,
    /// Segment id appending resumes into.
    pub active_segment: u64,
    /// Segments the pass actually read end-to-end: 1 normally, 2 when a
    /// torn/empty newest segment forced a one-segment fallback, 0 for a
    /// fresh log. Gap accounting may read more, but only when segments
    /// are already missing.
    pub replayed_segments: u64,
    /// Segment ids missing between present neighbors (middle gaps; a
    /// leading gap is legitimate archival, not loss).
    pub missing_segments: u64,
    /// Entries those missing segments provably held, per the surviving
    /// neighbors' handoff claims.
    pub missing_entries: u64,
    /// Whether the writer's first flush must open the active segment with
    /// a fresh handoff record (set after a fallback wiped a torn roll).
    pub needs_handoff: bool,
}

/// The one reader of segment bytes: every newline-terminated line that
/// parses as an [`AuditEntry`], in order, each with the byte offset just
/// past its newline. Reading stops at the first line that does not parse
/// or has no newline; any bytes past the last yielded offset are a torn
/// tail.
fn read_entries(bytes: &[u8]) -> impl Iterator<Item = (AuditEntry, usize)> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let nl = bytes[pos..].iter().position(|&b| b == b'\n')?;
        let entry = std::str::from_utf8(&bytes[pos..pos + nl])
            .ok()
            .and_then(|s| serde_json::from_str::<AuditEntry>(s).ok())?;
        pos += nl + 1;
        Some((entry, pos))
    })
}

/// Parse a JSONL log back into entries (verification helper for tests
/// and offline audit tooling): the newline-terminated entries up to the
/// first line that does not parse.
pub fn parse_log(bytes: &[u8]) -> Vec<AuditEntry> {
    read_entries(bytes).map(|(entry, _)| entry).collect()
}

/// One segment's bytes, read by [`read_entries`] and verified standalone
/// by [`verify_segment_entries`].
pub(crate) struct Replay {
    /// Entries in the verified prefix.
    recovered: u64,
    /// Byte length of the verified prefix.
    good_len: usize,
    /// Sequence number of the first parsed entry past the prefix: the
    /// one the verifier rejected.
    cut_seq: Option<u64>,
    /// The head after the prefix; genesis when nothing verified (the
    /// segment then pins no chain position, and the head sidecar reports
    /// the loss).
    end: ChainHead,
    /// Standalone verdict on the whole segment: a verified chain followed
    /// by torn bytes is [`SegmentError::TornTail`].
    pub(crate) verdict: Result<SegmentCheck, SegmentError>,
}

/// Read `bytes` with [`read_entries`] and verify them standalone with
/// [`verify_segment_entries`]; recovery keeps the verified prefix.
pub(crate) fn replay_bytes(bytes: &[u8]) -> Replay {
    let (entries, ends): (Vec<AuditEntry>, Vec<usize>) = read_entries(bytes).unzip();
    let verdict = verify_segment_entries(&entries);
    let recovered = match &verdict {
        Ok(_) => entries.len(),
        Err(SegmentError::ChainBreak(i)) => *i,
        // empty, or no verified start: nothing to keep
        Err(_) => 0,
    };
    let good_len = ends[..recovered].last().copied().unwrap_or(0);
    Replay {
        recovered: recovered as u64,
        good_len,
        cut_seq: entries.get(recovered).map(|e| e.seq),
        end: entries[..recovered]
            .last()
            .map_or_else(ChainHead::genesis, ChainHead::advanced_past),
        verdict: match verdict {
            Ok(_) if good_len < bytes.len() => Err(SegmentError::TornTail(entries.len())),
            verdict => verdict,
        },
    }
}

/// The verified claim of `bytes`' opening handoff record, if it opens
/// with one.
fn handoff_claim(bytes: &[u8]) -> Option<ChainHead> {
    let first: Vec<AuditEntry> = read_entries(bytes).take(1).map(|(e, _)| e).collect();
    match verify_segment_entries(&first) {
        Ok(SegmentCheck {
            start,
            handoff_segment: Some(_),
            ..
        }) => Some(start),
        _ => None,
    }
}

fn count_newlines(bytes: &[u8]) -> u64 {
    bytes.iter().filter(|&&b| b == b'\n').count() as u64
}

/// Replay the **newest live segment** in `storage`, verify it standalone
/// from its own handoff record (or genesis), truncate whatever tail does
/// not verify, and return the head appending should resume from.
///
/// Archived segments count as present: a segment the archiver compacted
/// and deleted is *not* loss — its verified archive is read transparently
/// wherever recovery would have read the live file. Older segments are
/// not re-read — that is what makes restart cost O(segment) instead of
/// O(history) — except when recovery must fall back one segment (the
/// newest is empty or its opening handoff tore: the crash hit the roll
/// itself), or when segments are missing in the middle and their
/// neighbors are consulted to *quantify* the provable loss.
pub fn recover(storage: &mut dyn AuditStorage) -> io::Result<RecoveryReport> {
    let live = storage.list_segments()?;
    let present = union_segments(storage)?;

    // Middle gaps: a leading gap is legitimate archival+pruning of old
    // segments, but a hole between present segments — no live file *and*
    // no archive — is loss. It is *provable* loss: the segment after the
    // gap opens with a handoff claiming the chain position at the end of
    // the segment before it, and the last present segment before the gap
    // replays to its own end — the difference is exactly the entries the
    // hole swallowed.
    let mut missing_segments = 0u64;
    let mut missing_entries = 0u64;
    for w in present.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b > a + 1 {
            missing_segments += b - a - 1;
            let before = replay_bytes(&read_segment_or_archive(storage, a)?).end;
            if let Some(claim) = handoff_claim(&read_segment_or_archive(storage, b)?) {
                missing_entries += claim.next_seq.saturating_sub(before.next_seq);
            }
        }
    }

    // The head sidecar is written after the batch fsync, so it can only
    // lag the log, never legitimately lead it — a lead is tail loss.
    let persisted: Option<ChainHead> = storage
        .read_head()?
        .and_then(|b| String::from_utf8(b).ok())
        .and_then(|s| serde_json::from_str(&s).ok());

    // Appending resumes in the newest live segment. With none — a fresh
    // log, or every segment archived and its live file removed — it
    // resumes in a fresh segment past the newest present one, opened with
    // a handoff exactly as if the writer had just rolled.
    let active = match (live.last(), present.last()) {
        (Some(&newest_live), _) => newest_live,
        (None, Some(&newest)) => newest + 1,
        (None, None) => 0,
    };
    let mut report = RecoveryReport {
        recovered: 0,
        cut_offset: 0,
        truncated_bytes: 0,
        cut_lines: 0,
        cut_seq: None,
        lost: 0,
        resumed: ChainHead::genesis(),
        segments: present.len() as u64 + u64::from(live.is_empty()),
        active_segment: active,
        replayed_segments: 0,
        missing_segments,
        missing_entries,
        needs_handoff: false,
    };

    // Replay the newest present segment. If it is the active one and
    // verifies nothing — it is empty or its opening handoff tore: the
    // crash hit the roll itself — its bytes are wiped and recovery falls
    // back one present segment (live or archived); the writer re-opens
    // the wiped segment with a fresh handoff on its first flush.
    let mut replayed = active;
    if let Some(at) = present.len().checked_sub(1) {
        replayed = present[at];
        let mut scan = replay(storage, &live, replayed, &mut report)?;
        if scan.good_len == 0 && replayed == active && at > 0 {
            replayed = present[at - 1];
            scan = replay(storage, &live, replayed, &mut report)?;
        }
        report.recovered = scan.recovered;
        report.cut_seq = scan.cut_seq;
        report.resumed = scan.end;
        if replayed == active {
            report.cut_offset = scan.good_len as u64;
        }
    }
    storage.open_segment(active)?;
    report.needs_handoff = replayed != active;
    let tail_lost = persisted.map_or(0, |p| p.next_seq.saturating_sub(report.resumed.next_seq));
    report.lost = tail_lost + missing_entries;
    Ok(report)
}

/// Read and verify one present segment, and cut a *live* one back to its
/// verified prefix, counting what the cut removed into `report`. An
/// archived segment is immutable (and was verified when archived), so
/// only a live file can carry — and shed — a tail.
fn replay(
    storage: &mut dyn AuditStorage,
    live: &[u64],
    segment: u64,
    report: &mut RecoveryReport,
) -> io::Result<Replay> {
    let bytes = read_segment_or_archive(storage, segment)?;
    let scan = replay_bytes(&bytes);
    report.replayed_segments += 1;
    if scan.good_len < bytes.len() && live.binary_search(&segment).is_ok() {
        report.truncated_bytes += (bytes.len() - scan.good_len) as u64;
        report.cut_lines += count_newlines(&bytes[scan.good_len..]);
        storage.truncate_segment(segment, scan.good_len as u64)?;
    }
    Ok(scan)
}

/// Read one segment's JSONL content, falling back to its archive when the
/// live file is gone: the container is decoded
/// ([`crate::archive::decode_archive`] verifies magic, length, and
/// SHA-256) and must hold the segment id asked for. This is what keeps
/// history verifiable across the live/archived boundary — callers never
/// care which side a segment is on.
pub fn read_segment_or_archive(
    storage: &mut dyn AuditStorage,
    segment: u64,
) -> io::Result<Vec<u8>> {
    match storage.read_segment(segment) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let container = storage.read_archive(segment)?;
            let (held, bytes) = decode_archive(&container)?;
            if held != segment {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "archive container holds a different segment id",
                ));
            }
            Ok(bytes)
        }
        Err(e) => Err(e),
    }
}

/// All segment ids with *any* surviving copy — live file, archive, or
/// both — ascending.
fn union_segments(storage: &mut dyn AuditStorage) -> io::Result<Vec<u64>> {
    let mut ids = storage.list_segments()?;
    ids.extend(storage.list_archives()?);
    ids.sort_unstable();
    ids.dedup();
    Ok(ids)
}

/// Verify one segment **standalone** against the hash chain: parse its
/// bytes (live or archived — see [`read_segment_or_archive`]) and check
/// it from its own handoff record (or genesis) via
/// [`verify_segment_entries`]. The outer `Result` is storage I/O; the
/// inner one is the verification verdict.
pub fn verify_segment(
    storage: &mut dyn AuditStorage,
    segment: u64,
) -> io::Result<Result<SegmentCheck, SegmentError>> {
    Ok(replay_bytes(&read_segment_or_archive(storage, segment)?).verdict)
}

/// Outcome of verifying every present segment standalone plus stitching
/// adjacent pairs, from [`verify_all_segments`].
#[derive(Debug, Clone)]
pub struct SegmentAudit {
    /// Per-segment verdicts, ascending by segment id.
    pub segments: Vec<(u64, Result<SegmentCheck, SegmentError>)>,
    /// Whether every present segment verified, every adjacent pair is
    /// gap-free, each handoff's claimed segment id matches its file, and
    /// each segment's start equals its predecessor's end.
    pub continuous: bool,
}

/// Verify **every** present segment standalone and check cross-segment
/// continuity. Archived segments participate exactly like live ones
/// (decompressed on demand), so a store the archiver has partially
/// compacted still audits end to end. This is the full-history audit the
/// lazy design defers out of the restart path; run it offline or on
/// demand.
pub fn verify_all_segments(storage: &mut dyn AuditStorage) -> io::Result<SegmentAudit> {
    let present = union_segments(storage)?;
    let mut segments = Vec::with_capacity(present.len());
    let mut continuous = true;
    let mut prev: Option<(u64, ChainHead)> = None;
    for &id in &present {
        let verdict = verify_segment(storage, id)?;
        match &verdict {
            Ok(check) => {
                if id > present[0] && check.handoff_segment != Some(id) {
                    continuous = false; // renamed/transplanted segment file
                }
                if let Some((pid, pend)) = prev {
                    if pid + 1 != id || check.start != pend {
                        continuous = false;
                    }
                }
                prev = Some((id, check.end));
            }
            Err(_) => {
                continuous = false;
                prev = None;
            }
        }
        segments.push((id, verdict));
    }
    Ok(SegmentAudit {
        segments,
        continuous,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::MemStorage;
    use fact_transparency::audit::SEGMENT_HANDOFF_ACTION;
    use proptest::prelude::*;

    /// How a generated segment is damaged before recovery sees it.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        Truncate,
        FlipByte,
        DropLine,
        SwapLines,
        MalformedHandoff,
        HandoffOffByOne,
    }

    const DAMAGES: [Damage; 7] = [
        Damage::None,
        Damage::Truncate,
        Damage::FlipByte,
        Damage::DropLine,
        Damage::SwapLines,
        Damage::MalformedHandoff,
        Damage::HandoffOffByOne,
    ];

    /// `n` chained entries at v1 or v2 width, as segment 0 from genesis or
    /// as segment 3 opened by a handoff record after five entries of
    /// history. The two handoff damages are written in (each record is
    /// hashed correctly over its bad claim); the rest are applied to the
    /// bytes at positions drawn from `a` and `b`.
    fn damaged_segment(
        v1: bool,
        handoff: bool,
        n: usize,
        damage: Damage,
        a: usize,
        b: usize,
    ) -> (u64, Vec<u8>) {
        let mut head = if v1 {
            ChainHead::genesis_v1()
        } else {
            ChainHead::genesis()
        };
        let mut bytes = Vec::new();
        let handoff =
            handoff || matches!(damage, Damage::MalformedHandoff | Damage::HandoffOffByOne);
        if handoff {
            for i in 0..5 {
                head.extend("shard-0", "flagged_decision", format!("key={i}"));
            }
            let details = match damage {
                Damage::MalformedHandoff => "segment=3 prev_seq=oops".to_string(),
                Damage::HandoffOffByOne => ChainHead {
                    next_seq: head.next_seq + 1,
                    ..head
                }
                .handoff_details(3),
                _ => head.handoff_details(3),
            };
            head.extend_line("fact-serve", SEGMENT_HANDOFF_ACTION, &details, &mut bytes);
        }
        for i in 0..n {
            let actor = ["shard-0", "shard-1", "shard-2"][i % 3];
            let details = format!("key={i} p=0.250000 favorable=false group_b={}", i % 2 == 0);
            head.extend_line(actor, "flagged_decision", &details, &mut bytes);
        }
        let mut lines: Vec<Vec<u8>> = bytes
            .split_inclusive(|&c| c == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        match damage {
            // at any byte, or just before one line's newline: the tear
            // that leaves a whole entry without its terminator
            Damage::Truncate if b % 2 == 0 => bytes.truncate(1 + a % (bytes.len() - 1)),
            Damage::Truncate => {
                let line = a % lines.len();
                bytes.truncate(lines[..=line].iter().map(Vec::len).sum::<usize>() - 1);
            }
            Damage::FlipByte => {
                let at = a % bytes.len();
                bytes[at] ^= 1 + (b % 255) as u8;
            }
            Damage::DropLine => {
                lines.remove(a % lines.len());
                bytes = lines.concat();
            }
            Damage::SwapLines => {
                let len = lines.len();
                lines.swap(a % len, b % len);
                bytes = lines.concat();
            }
            Damage::None | Damage::MalformedHandoff | Damage::HandoffOffByOne => {}
        }
        (if handoff { 3 } else { 0 }, bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Recovery, standalone verification and `parse_log` agree on
        /// every damaged segment: recovery keeps exactly the longest
        /// prefix the shared verifier accepts, verification passes exactly
        /// when recovery cuts nothing, and `parse_log` reads back that
        /// prefix.
        #[test]
        fn recovery_and_verification_agree_on_damaged_segments(
            v1 in any::<bool>(),
            handoff in any::<bool>(),
            n in 1usize..8,
            damage in 0usize..DAMAGES.len(),
            a in any::<usize>(),
            b in any::<usize>(),
        ) {
            let (id, bytes) = damaged_segment(v1, handoff, n, DAMAGES[damage], a, b);
            prop_assume!(!bytes.is_empty());
            let mut storage = MemStorage::new();
            storage.open_segment(id).unwrap();
            storage.append_log(&bytes).unwrap();

            // the prefix the shared verifier accepts, found by search
            let entries = parse_log(&bytes);
            let kept = (1..=entries.len())
                .rev()
                .find(|&k| verify_segment_entries(&entries[..k]).is_ok())
                .unwrap_or(0);
            let kept_bytes: usize = bytes
                .split_inclusive(|&c| c == b'\n')
                .take(kept)
                .map(<[u8]>::len)
                .sum();

            let verdict = verify_segment(&mut storage, id).unwrap();
            let rec = recover(&mut storage).unwrap();
            prop_assert_eq!(rec.recovered, kept as u64);
            prop_assert_eq!(rec.cut_offset, kept_bytes as u64);
            prop_assert_eq!(rec.cut_seq, entries.get(kept).map(|e| e.seq));
            prop_assert_eq!(verdict.is_ok(), rec.truncated_bytes == 0);
            prop_assert_eq!(
                parse_log(&storage.segment_bytes(id).unwrap()),
                entries[..kept].to_vec()
            );
        }
    }
}
