//! Property tests for the audit-segment archive: the LZSS codec and the
//! FACZ container must restore **byte-identical** content for arbitrary
//! inputs, and a store the archiver has partially compacted — any mix of
//! live, archived, and legitimately pruned leading segments — must still
//! verify end to end with zero loss.

use std::time::Duration;

use proptest::prelude::*;
use proptest::prop::collection::vec as pvec;

use fact_serve::audit_sink::parse_log;
use fact_serve::testing::MemStorage;
use fact_serve::{
    archive_run_once, decode_archive, encode_archive, read_segment_or_archive, verify_all_segments,
    ArchiveConfig, ArchiveStats, AuditEvent, AuditSink, AuditSinkConfig, AuditStorage,
};
use fact_transparency::{verify_chain_from, ChainHead};

/// Rotate `details` strings through a real sink so every generated batch
/// becomes hash-chained JSONL across several sealed segments.
fn rotated_store(storage: &MemStorage, details: &[String]) {
    let sink = AuditSink::open_with_storage(
        &AuditSinkConfig {
            batch_max: 2,
            flush_interval: Duration::from_millis(1),
            max_segment_bytes: 1,
            ..AuditSinkConfig::default()
        },
        Box::new(storage.clone()),
    )
    .unwrap();
    let h = sink.handle();
    for (k, d) in details.iter().enumerate() {
        // Alert carries an arbitrary string payload — the way to push
        // generated content through the chained-JSONL serialization
        h.record(AuditEvent::Alert {
            shard: k % 3,
            at_decision: k as u64,
            summary: d.clone(),
        });
    }
    drop(h);
    sink.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The raw container roundtrip: arbitrary bytes (including empty and
    /// highly repetitive shapes the LZSS fast path loves) survive
    /// compress → encode → decode byte-identically.
    #[test]
    fn container_roundtrips_arbitrary_bytes(
        segment in 0u64..=u64::MAX,
        bytes in pvec(any::<u8>(), 0..4096),
    ) {
        let container = encode_archive(segment, &bytes);
        let (seg, restored) = decode_archive(&container).unwrap();
        prop_assert_eq!(seg, segment);
        prop_assert_eq!(restored, bytes);
    }

    /// Archive → restore over *chained* content: arbitrary entry batches
    /// rotated into segments, everything sealed compacted, every segment
    /// (live or archived) restored byte-identically, and the whole store
    /// still verifying as one chain with zero loss.
    #[test]
    fn archived_store_restores_and_verifies(
        details in pvec("[ -~]{0,40}", 1..24),
        retain in 0u64..3,
    ) {
        let storage = MemStorage::new();
        rotated_store(&storage, &details);
        let live = storage.segment_ids();
        let newest = *live.last().unwrap();
        let originals: Vec<(u64, Vec<u8>)> = live
            .iter()
            .map(|&id| (id, storage.segment_bytes(id).unwrap()))
            .collect();
        let total = parse_log(&storage.log_bytes()).len();

        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let stats = ArchiveStats::default();
        let cfg = ArchiveConfig { retain_segments: retain, ..ArchiveConfig::default() };
        let pass = archive_run_once(probe.as_mut(), &cfg, newest, &stats).unwrap();
        prop_assert!(pass.skipped.is_empty(), "{:?}", pass);
        let sealed = live.len() - 1;
        prop_assert_eq!(pass.archived.len(), sealed.saturating_sub(retain as usize));

        // every original — compacted or not — restores byte-identically
        for (id, bytes) in &originals {
            prop_assert_eq!(&read_segment_or_archive(probe.as_mut(), *id).unwrap(), bytes);
        }
        // the mixed live/archived store is still one continuous history
        let audit = verify_all_segments(probe.as_mut()).unwrap();
        prop_assert!(audit.continuous, "{:?}", audit);
        prop_assert_eq!(audit.segments.len(), live.len());
        let mut all = Vec::new();
        for &id in &live {
            all.extend(read_segment_or_archive(probe.as_mut(), id).unwrap());
        }
        let entries = parse_log(&all);
        prop_assert_eq!(verify_chain_from(ChainHead::genesis(), &entries), None);
        prop_assert_eq!(entries.len(), total);

        // and a restarted sink over it reports zero loss
        let sink = AuditSink::open_with_storage(
            &AuditSinkConfig {
                batch_max: 2,
                flush_interval: Duration::from_millis(1),
                max_segment_bytes: 1,
                ..AuditSinkConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap();
        let rec = sink.recovery().clone();
        sink.finish();
        prop_assert_eq!(rec.lost, 0);
        prop_assert_eq!(rec.missing_segments, 0);
    }

    /// A leading gap — the oldest archives pruned outright by a retention
    /// policy — is *not* loss: verification over what remains stays
    /// continuous and recovery reports nothing missing.
    #[test]
    fn pruned_leading_archives_are_not_loss(
        details in pvec("[ -~]{0,40}", 6..18),
        prune in 1usize..3,
    ) {
        let storage = MemStorage::new();
        rotated_store(&storage, &details);
        let live = storage.segment_ids();
        let newest = *live.last().unwrap();
        prop_assume!(live.len() > prune + 1);

        let mut probe: Box<dyn AuditStorage> = Box::new(storage.clone());
        let stats = ArchiveStats::default();
        let cfg = ArchiveConfig { retain_segments: 0, ..ArchiveConfig::default() };
        archive_run_once(probe.as_mut(), &cfg, newest, &stats).unwrap();
        // the operator prunes the oldest archives per retention policy
        for &id in &live[..prune] {
            prop_assert!(storage.remove_archive(id));
        }

        let audit = verify_all_segments(probe.as_mut()).unwrap();
        prop_assert!(audit.continuous, "{:?}", audit);
        prop_assert_eq!(audit.segments.len(), live.len() - prune);

        let sink = AuditSink::open_with_storage(
            &AuditSinkConfig {
                batch_max: 2,
                flush_interval: Duration::from_millis(1),
                max_segment_bytes: 1,
                ..AuditSinkConfig::default()
            },
            Box::new(storage.clone()),
        )
        .unwrap();
        let rec = sink.recovery().clone();
        sink.finish();
        prop_assert_eq!(rec.lost, 0);
        prop_assert_eq!(rec.missing_segments, 0);
    }
}
