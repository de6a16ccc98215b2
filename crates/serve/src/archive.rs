//! Background audit-segment archiver: verified compaction and retention
//! for the rotated audit log, off the writer hot path.
//!
//! The segmented sink ([`crate::audit_sink`]) rolls to a new JSONL file
//! past `max_segment_bytes`, which bounds *restart* cost — but sealed
//! segments then accumulate forever. This module closes that gap with a
//! dedicated archiver thread that never runs on the writer hot path: it
//! watches the segment set and, for every sealed segment past a
//! configurable retention horizon, runs
//!
//! 1. **verify** — the segment must verify standalone against the hash
//!    chain (a segment that does not verify is *never* deleted);
//! 2. **compress** — the bytes are packed into a `FACZ` container
//!    (magic, version, original length, SHA-256 of the original, then an
//!    LZSS/varint-free byte stream in the spirit of
//!    `fact_data::segment::codec`: bit-exact, std-only);
//! 3. **write** — the container lands as `<segment path>.facz` via
//!    write-temp + fsync + rename, so a crash leaves either no archive or
//!    a complete one, never a torn one;
//! 4. **re-verify** — the container is read back from storage and must
//!    decode to **byte-identical** segment content;
//! 5. **commit** — an [`ArchiveManifest`] sidecar records the archive
//!    (this is the commit point);
//! 6. **delete** — only then is the original segment file removed.
//!
//! A crash between any two steps leaves the original, a verified archive,
//! or both — never neither. The fault matrix in `tests/audit_recovery.rs`
//! drives the crash points through one fault rule injected into
//! [`MemStorage`](crate::testing::MemStorage): a kill at the container
//! write, at the manifest commit or at the source delete, and a container
//! write that reports success but lands torn. The next archiver pass
//! completes whatever step the crash interrupted.
//!
//! Recovery and verification read archived segments transparently
//! ([`crate::audit_sink::read_segment_or_archive`] decompresses on
//! demand), so history stays end-to-end verifiable across the
//! live/archived boundary, and a *leading* run of archived-and-deleted
//! segments is archival, not loss.
//!
//! Operator runbook: `OPERATIONS.md` ("Archiving & retention") documents
//! the `fact-shardd` flags (`--archive-retain`, `--archive-tick-ms`),
//! the crash-safety guarantees, and how a leading gap differs from loss.
//! `exp_e20` measures the writer hot-path p99 unchanged while the
//! archiver compacts a 10×-rotated log under sustained load.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fact_transparency::audit::Digest;
use fact_transparency::sha256::sha256;
use serde::{Deserialize, Serialize};

use crate::audit_sink::{replay_bytes, AuditStorage};

// ---------------------------------------------------------------------------
// configuration
// ---------------------------------------------------------------------------

/// Archiver policy, carried in
/// [`AuditSinkConfig::archive`](crate::audit_sink::AuditSinkConfig::archive).
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Sealed segments to keep live (uncompressed) behind the active one.
    /// `0` archives every sealed segment as soon as the writer rolls past
    /// it.
    pub retain_segments: u64,
    /// How often the archiver wakes to scan for eligible segments.
    pub tick: Duration,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            retain_segments: 2,
            tick: Duration::from_millis(500),
        }
    }
}

// ---------------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------------

/// Live archiver counters, shared between the archiver thread, the
/// metrics registry, and the final [`SinkReport`](crate::audit_sink::SinkReport).
#[derive(Debug, Default)]
pub struct ArchiveStats {
    /// Segments archived (verified, compressed, committed) this run.
    pub segments_archived: AtomicU64,
    /// Original segment bytes archived.
    pub bytes_before: AtomicU64,
    /// Container bytes those segments compressed down to.
    pub bytes_after: AtomicU64,
    /// Segments skipped because verification failed (either the original
    /// before compression or the archive on read-back). Skipped originals
    /// are never deleted.
    pub verify_failures: AtomicU64,
    /// Storage errors observed by the archiver.
    pub io_errors: AtomicU64,
    /// Original segment files removed after a committed archive.
    pub deletes_completed: AtomicU64,
    /// Archiver scan passes executed.
    pub ticks: AtomicU64,
}

impl ArchiveStats {
    /// An instantaneous plain-data copy of every counter.
    pub fn snapshot(&self) -> ArchiveSnapshot {
        ArchiveSnapshot {
            segments_archived: self.segments_archived.load(Ordering::Relaxed),
            bytes_before: self.bytes_before.load(Ordering::Relaxed),
            bytes_after: self.bytes_after.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            deletes_completed: self.deletes_completed.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of [`ArchiveStats`] at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchiveSnapshot {
    /// Segments archived this run.
    pub segments_archived: u64,
    /// Original bytes archived.
    pub bytes_before: u64,
    /// Container bytes after compression.
    pub bytes_after: u64,
    /// Verification failures (original or read-back); originals kept.
    pub verify_failures: u64,
    /// Storage errors observed by the archiver.
    pub io_errors: u64,
    /// Original files removed after a committed archive.
    pub deletes_completed: u64,
    /// Scan passes executed.
    pub ticks: u64,
}

impl ArchiveSnapshot {
    /// Compression ratio achieved (`bytes_after / bytes_before`); `1.0`
    /// when nothing was archived.
    pub fn ratio(&self) -> f64 {
        if self.bytes_before == 0 {
            1.0
        } else {
            self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

// ---------------------------------------------------------------------------
// LZSS codec (std-only, bit-exact)
// ---------------------------------------------------------------------------

/// Sliding-window size; match offsets fit 12 bits.
const LZ_WINDOW: usize = 4096;
/// Shortest back-reference worth a 2-byte token.
const LZ_MIN_MATCH: usize = 3;
/// Longest back-reference a 4-bit length field encodes.
const LZ_MAX_MATCH: usize = LZ_MIN_MATCH + 15;
const LZ_HASH_BITS: u32 = 13;
const LZ_HASH_SIZE: usize = 1 << LZ_HASH_BITS;
/// How many chain candidates the compressor tries per position. Bounds
/// worst-case compression cost; decompression is unaffected.
const LZ_MAX_CHAIN: usize = 32;

fn lz_hash(input: &[u8], i: usize) -> usize {
    let k = u32::from(input[i]) | u32::from(input[i + 1]) << 8 | u32::from(input[i + 2]) << 16;
    (k.wrapping_mul(2_654_435_761) >> (32 - LZ_HASH_BITS)) as usize & (LZ_HASH_SIZE - 1)
}

/// Compress `input` with a byte-oriented LZSS: a flag byte announces the
/// next eight tokens LSB-first (`0` = literal byte, `1` = 2-byte match of
/// 12-bit offset / 4-bit length). Bit-exact: [`lz_decompress`] restores
/// the input byte for byte.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; LZ_HASH_SIZE];
    let mut prev = vec![usize::MAX; input.len()];
    let mut flag_pos = 0usize;
    let mut flag_bits = 8u8;
    let mut i = 0usize;
    while i < input.len() {
        // find the longest match ending within the window
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + LZ_MIN_MATCH <= input.len() && i + 2 < input.len() {
            let h = lz_hash(input, i);
            let mut cand = head[h];
            let mut chain = 0usize;
            let max_len = LZ_MAX_MATCH.min(input.len() - i);
            while cand != usize::MAX && chain < LZ_MAX_CHAIN {
                if i - cand > LZ_WINDOW {
                    break; // older candidates are only farther away
                }
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if flag_bits == 8 {
            flag_pos = out.len();
            out.push(0);
            flag_bits = 0;
        }
        if best_len >= LZ_MIN_MATCH {
            out[flag_pos] |= 1 << flag_bits;
            let off = best_off - 1; // 0..4095
            out.push((off & 0xff) as u8);
            out.push((((off >> 8) as u8) << 4) | (best_len - LZ_MIN_MATCH) as u8);
            // index every covered position so later matches can start there
            let end = (i + best_len).min(input.len().saturating_sub(2));
            for (j, slot) in prev.iter_mut().enumerate().take(end).skip(i) {
                let h = lz_hash(input, j);
                *slot = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            out.push(input[i]);
            if i + 2 < input.len() {
                let h = lz_hash(input, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        flag_bits += 1;
    }
    out
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Decompress an [`lz_compress`] stream back to exactly `original_len`
/// bytes. Any malformed token (offset past the start, stream ending
/// mid-token, trailing bytes) is `InvalidData` — never a panic or a
/// silently short result.
pub fn lz_decompress(input: &[u8], original_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(original_len);
    let mut pos = 0usize;
    while out.len() < original_len {
        let Some(&flags) = input.get(pos) else {
            return Err(corrupt("LZSS stream ended before its flag byte"));
        };
        pos += 1;
        for bit in 0..8 {
            if out.len() >= original_len {
                break;
            }
            if flags >> bit & 1 == 0 {
                let Some(&b) = input.get(pos) else {
                    return Err(corrupt("LZSS stream ended inside a literal"));
                };
                out.push(b);
                pos += 1;
            } else {
                let (Some(&b1), Some(&b2)) = (input.get(pos), input.get(pos + 1)) else {
                    return Err(corrupt("LZSS stream ended inside a match token"));
                };
                pos += 2;
                let off = (usize::from(b2 >> 4) << 8 | usize::from(b1)) + 1;
                let len = usize::from(b2 & 0x0f) + LZ_MIN_MATCH;
                if off > out.len() {
                    return Err(corrupt("LZSS match offset reaches before the stream start"));
                }
                if out.len() + len > original_len {
                    return Err(corrupt("LZSS match runs past the original length"));
                }
                let start = out.len() - off;
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
        }
    }
    if pos != input.len() {
        return Err(corrupt("trailing bytes after the LZSS stream"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// FACZ container
// ---------------------------------------------------------------------------

/// Magic bytes opening every archive container.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"FACZ";
/// Container format version this build writes.
pub const ARCHIVE_VERSION: u16 = 1;
/// Fixed container header: magic, version, segment id, original length,
/// SHA-256 of the original bytes.
const HEADER_LEN: usize = 4 + 2 + 8 + 8 + 32;

/// Pack one segment's bytes into a `FACZ` container: header (magic,
/// version, segment id, original length, SHA-256 of the original)
/// followed by the [`lz_compress`] payload.
pub fn encode_archive(segment: u64, original: &[u8]) -> Vec<u8> {
    let payload = lz_compress(original);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&ARCHIVE_MAGIC);
    out.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
    out.extend_from_slice(&segment.to_le_bytes());
    out.extend_from_slice(&(original.len() as u64).to_le_bytes());
    out.extend_from_slice(&sha256(original));
    out.extend_from_slice(&payload);
    out
}

/// Unpack a `FACZ` container back to `(segment id, original bytes)`.
/// Verifies the magic, version, length, and SHA-256 — a container that
/// does not decode to exactly the bytes it was built from is
/// `InvalidData`, so a caller holding a decoded archive holds bytes as
/// trustworthy as the original file.
pub fn decode_archive(container: &[u8]) -> io::Result<(u64, Vec<u8>)> {
    if container.len() < HEADER_LEN {
        return Err(corrupt("archive container shorter than its header"));
    }
    if container[..4] != ARCHIVE_MAGIC {
        return Err(corrupt("archive container has wrong magic"));
    }
    let version = u16::from_le_bytes(container[4..6].try_into().expect("2 bytes"));
    if version != ARCHIVE_VERSION {
        return Err(corrupt("archive container has unsupported version"));
    }
    let segment = u64::from_le_bytes(container[6..14].try_into().expect("8 bytes"));
    let original_len = u64::from_le_bytes(container[14..22].try_into().expect("8 bytes")) as usize;
    let digest: [u8; 32] = container[22..54].try_into().expect("32 bytes");
    let original = lz_decompress(&container[HEADER_LEN..], original_len)?;
    if sha256(&original) != digest {
        return Err(corrupt("archive payload does not match its digest"));
    }
    Ok((segment, original))
}

// ---------------------------------------------------------------------------
// manifest
// ---------------------------------------------------------------------------

/// One committed archive, as recorded in the manifest sidecar.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchiveRecord {
    /// Segment id the archive holds.
    pub segment: u64,
    /// Original segment size in bytes.
    pub original_bytes: u64,
    /// Container size in bytes.
    pub archived_bytes: u64,
    /// Lowercase-hex SHA-256 of the original segment bytes.
    pub sha256_hex: String,
}

/// The archiver's commit log: a small JSON sidecar listing every archive
/// whose read-back re-verified byte-identical. Appending a record here is
/// the **commit point** of the archive protocol — the original is deleted
/// only after its record is durably in the manifest, so a crash at any
/// step leaves the original, a verified archive, or both, never neither.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ArchiveManifest {
    /// Committed archives, ascending by segment id.
    pub records: Vec<ArchiveRecord>,
}

impl ArchiveManifest {
    /// Load the manifest from its storage sidecar. Absent or unreadable
    /// manifests load empty: the manifest is a commit log, and every
    /// record it could hold is re-derivable by re-verifying the archives
    /// themselves.
    pub fn load(storage: &mut dyn AuditStorage) -> io::Result<ArchiveManifest> {
        Ok(storage
            .read_manifest()?
            .and_then(|b| String::from_utf8(b).ok())
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or_default())
    }

    /// Durably replace the storage sidecar with this manifest.
    pub fn store(&self, storage: &mut dyn AuditStorage) -> io::Result<()> {
        let json = serde_json::to_string(self).expect("manifest serializes");
        storage.write_manifest(json.as_bytes())
    }

    /// The committed record for `segment`, if one exists.
    pub fn record(&self, segment: u64) -> Option<&ArchiveRecord> {
        self.records.iter().find(|r| r.segment == segment)
    }

    fn upsert(&mut self, record: ArchiveRecord) {
        match self
            .records
            .iter_mut()
            .find(|r| r.segment == record.segment)
        {
            Some(slot) => *slot = record,
            None => {
                self.records.push(record);
                self.records.sort_unstable_by_key(|r| r.segment);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// one archiver pass
// ---------------------------------------------------------------------------

/// What one [`run_once`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchivePassReport {
    /// Segments newly archived (verify → compress → commit → delete).
    pub archived: Vec<u64>,
    /// Segments whose earlier, interrupted archive this pass completed
    /// (the archive already existed and re-verified; only the commit
    /// and/or delete were outstanding).
    pub completed: Vec<u64>,
    /// Segments skipped because verification failed; their originals are
    /// untouched.
    pub skipped: Vec<u64>,
}

/// Run one archiver pass over `storage`: archive every live segment with
/// id below `active_segment`, excluding the newest
/// [`retain_segments`](ArchiveConfig::retain_segments) sealed ones.
/// `active_segment` must be the writer's current segment (the archiver
/// thread reads it from the sink; offline callers pass
/// `u64::MAX` to compact everything sealed — e.g. after the sink
/// finished). Each segment runs the full verify → compress → write →
/// re-verify → commit → delete protocol; a segment that fails any
/// verification is skipped with its original intact.
pub fn run_once(
    storage: &mut dyn AuditStorage,
    config: &ArchiveConfig,
    active_segment: u64,
    stats: &ArchiveStats,
) -> io::Result<ArchivePassReport> {
    let mut report = ArchivePassReport::default();
    let live = match storage.list_segments() {
        Ok(v) => v,
        Err(e) => {
            stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
    };
    let sealed: Vec<u64> = live.into_iter().filter(|&id| id < active_segment).collect();
    let eligible = sealed.len().saturating_sub(config.retain_segments as usize);
    if eligible == 0 {
        return Ok(report);
    }
    let mut manifest = ArchiveManifest::load(storage)?;
    for &id in &sealed[..eligible] {
        match archive_one(storage, &mut manifest, id, stats) {
            Ok(ArchiveOutcome::Archived) => report.archived.push(id),
            Ok(ArchiveOutcome::Completed) => report.completed.push(id),
            Ok(ArchiveOutcome::Skipped) => report.skipped.push(id),
            Err(e) => {
                stats.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(e); // storage may be dead; stop the pass
            }
        }
    }
    Ok(report)
}

enum ArchiveOutcome {
    Archived,
    Completed,
    Skipped,
}

fn archive_one(
    storage: &mut dyn AuditStorage,
    manifest: &mut ArchiveManifest,
    id: u64,
    stats: &ArchiveStats,
) -> io::Result<ArchiveOutcome> {
    let original = storage.read_segment(id)?;
    // step 1: the original must verify standalone — an unverifiable
    // segment is evidence of a fault and is never compacted away
    if replay_bytes(&original).verdict.is_err() {
        stats.verify_failures.fetch_add(1, Ordering::Relaxed);
        return Ok(ArchiveOutcome::Skipped);
    }
    let digest_hex = Digest::V2(sha256(&original)).to_hex();
    // step 2/3: adopt an existing byte-identical archive (a crash landed
    // between rename and commit), else compress and write a fresh one
    let adopted = match storage.read_archive(id) {
        Ok(existing) => {
            matches!(decode_archive(&existing), Ok((seg, bytes)) if seg == id && bytes == original)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => false,
        Err(e) => return Err(e),
    };
    if !adopted {
        storage.write_archive(id, &encode_archive(id, &original))?;
    }
    // step 4: re-verify from storage — the commit below trusts only what
    // actually landed, decoded back to byte-identical content
    let container = storage.read_archive(id)?;
    match decode_archive(&container) {
        Ok((seg, bytes)) if seg == id && bytes == original => {}
        _ => {
            stats.verify_failures.fetch_add(1, Ordering::Relaxed);
            return Ok(ArchiveOutcome::Skipped);
        }
    }
    // step 5: commit
    let already_committed = manifest
        .record(id)
        .is_some_and(|r| r.sha256_hex == digest_hex);
    if !already_committed {
        manifest.upsert(ArchiveRecord {
            segment: id,
            original_bytes: original.len() as u64,
            archived_bytes: container.len() as u64,
            sha256_hex: digest_hex,
        });
        manifest.store(storage)?;
    }
    // step 6: delete the original
    storage.remove_segment_file(id)?;
    stats.deletes_completed.fetch_add(1, Ordering::Relaxed);
    if already_committed {
        Ok(ArchiveOutcome::Completed)
    } else {
        stats.segments_archived.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_before
            .fetch_add(original.len() as u64, Ordering::Relaxed);
        stats
            .bytes_after
            .fetch_add(container.len() as u64, Ordering::Relaxed);
        Ok(ArchiveOutcome::Archived)
    }
}

// ---------------------------------------------------------------------------
// the archiver thread
// ---------------------------------------------------------------------------

/// The background archiver: its own `std` thread over an independent
/// storage handle, so the writer hot path never compresses, re-reads, or
/// fsyncs an archive. Spawned by the sink when
/// [`AuditSinkConfig::archive`](crate::audit_sink::AuditSinkConfig::archive)
/// is set; stopped (with one final pass) when the sink finishes.
pub struct Archiver {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Archiver {
    /// Spawn the archiver thread. `active_segment` is polled each pass to
    /// learn the writer's current segment — everything below it is sealed
    /// and eligible (minus the retention horizon).
    pub fn spawn(
        config: ArchiveConfig,
        mut storage: Box<dyn AuditStorage>,
        active_segment: impl Fn() -> u64 + Send + 'static,
        stats: Arc<ArchiveStats>,
    ) -> io::Result<Archiver> {
        assert!(
            config.tick > Duration::ZERO,
            "archive tick must be positive"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("fact-audit-archiver".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    stats.ticks.fetch_add(1, Ordering::Relaxed);
                    let _ = run_once(storage.as_mut(), &config, active_segment(), &stats);
                    // sleep in short slices so stop() stays responsive
                    let mut left = config.tick;
                    while left > Duration::ZERO && !stop_flag.load(Ordering::Acquire) {
                        let slice = left.min(Duration::from_millis(10));
                        std::thread::sleep(slice);
                        left = left.saturating_sub(slice);
                    }
                }
                // one final pass so a clean shutdown leaves no segment
                // eligible-but-unarchived (the writer has already drained)
                stats.ticks.fetch_add(1, Ordering::Relaxed);
                let _ = run_once(storage.as_mut(), &config, active_segment(), &stats);
            })
            .map_err(io::Error::other)?;
        Ok(Archiver {
            stop,
            thread: Some(thread),
        })
    }

    /// Signal the thread to stop, let it run its final pass, and join.
    pub fn stop(mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Archiver {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_round_trips_typical_jsonl() {
        let line = br#"{"seq":12,"actor":"shard-0","action":"flagged_decision","details":"key=12 p=0.250000 favorable=false group_b=true"}"#;
        let mut input = Vec::new();
        for _ in 0..64 {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        let packed = lz_compress(&input);
        assert!(
            packed.len() * 2 < input.len(),
            "repetitive JSONL must compress at least 2x ({} -> {})",
            input.len(),
            packed.len()
        );
        assert_eq!(lz_decompress(&packed, input.len()).unwrap(), input);
    }

    #[test]
    fn lz_round_trips_edge_shapes() {
        for input in [
            Vec::new(),
            vec![0u8],
            vec![7u8; 5000],            // one giant run, window-crossing
            (0..=255u8).collect(),      // incompressible ramp
            b"abcabcabcabcab".to_vec(), // overlapping match
        ] {
            let packed = lz_compress(&input);
            assert_eq!(
                lz_decompress(&packed, input.len()).unwrap(),
                input,
                "{input:?}"
            );
        }
    }

    #[test]
    fn lz_decompress_rejects_malformed_streams() {
        let input = b"hello hello hello hello".to_vec();
        let packed = lz_compress(&input);
        // truncated stream
        assert!(lz_decompress(&packed[..packed.len() - 1], input.len()).is_err());
        // trailing garbage
        let mut long = packed.clone();
        long.push(0xff);
        assert!(lz_decompress(&long, input.len()).is_err());
        // a match token pointing before the start
        assert!(lz_decompress(&[0b0000_0001, 0xff, 0xf0], 20).is_err());
    }

    #[test]
    fn container_round_trips_and_rejects_tampering() {
        let original = b"some segment bytes\nmore bytes\n".to_vec();
        let container = encode_archive(7, &original);
        assert_eq!(decode_archive(&container).unwrap(), (7, original.clone()));
        // flip a payload byte: the SHA-256 check refuses
        let mut bad = container.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(decode_archive(&bad).is_err());
        // wrong magic
        let mut bad = container.clone();
        bad[0] = b'X';
        assert!(decode_archive(&bad).is_err());
        // truncated header
        assert!(decode_archive(&container[..10]).is_err());
    }

    #[test]
    fn manifest_upserts_and_round_trips() {
        let mut m = ArchiveManifest::default();
        m.upsert(ArchiveRecord {
            segment: 3,
            original_bytes: 100,
            archived_bytes: 40,
            sha256_hex: "aa".into(),
        });
        m.upsert(ArchiveRecord {
            segment: 1,
            original_bytes: 90,
            archived_bytes: 30,
            sha256_hex: "bb".into(),
        });
        m.upsert(ArchiveRecord {
            segment: 3,
            original_bytes: 100,
            archived_bytes: 41,
            sha256_hex: "cc".into(),
        });
        let ids: Vec<u64> = m.records.iter().map(|r| r.segment).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(m.record(3).unwrap().sha256_hex, "cc");
        let json = serde_json::to_string(&m).unwrap();
        let back: ArchiveManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records, m.records);
    }
}
