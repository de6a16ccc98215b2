//! Hostile bytes against the segment decoders: arbitrary bytes, truncations,
//! byte flips, huge declared row, run and buffer counts, wrong RLE flags and
//! wrong dtypes, fed through `SegmentReader::open` + `read_column` for every
//! dtype. Each case must come back as a typed error (or, where the damage
//! happens to leave a consistent file, as values of the declared length),
//! never as a panic or an abort, and no case may allocate more than
//! [`ALLOC_BOUND`] bytes at once: a tracking global allocator records, per
//! thread, the largest allocation that succeeded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use fact_data::agg::{aggregate_segments, AggFn};
use fact_data::column::Column;
use fact_data::segment::{RlePolicy, SegmentHeader, SegmentReader, MANIFEST_FILE};
use fact_data::{Dataset, FactError, Predicate, SegmentSet, SegmentWriteConfig};

/// The largest single allocation any hostile case may make. The images
/// here are a few KiB, so a decoder that sizes a buffer by a declared
/// count it has not checked against its bytes goes far past it.
const ALLOC_BOUND: usize = 1 << 20;

struct Tracking;

thread_local! {
    /// The largest allocation this thread made since [`peak_during`] last
    /// reset it. Per thread, so tests running side by side do not see each
    /// other's buffers; const-initialised, so reading it never allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Record the size of an allocation that succeeded; a refused request
/// holds no memory.
fn record(ptr: *mut u8, size: usize) -> *mut u8 {
    if !ptr.is_null() {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
    ptr
}

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

// SAFETY: every call is forwarded unchanged to the system allocator, and
// its result returned unchanged; the wrapper only records sizes.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(System.alloc(layout), layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(System.alloc_zeroed(layout), layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(System.realloc(ptr, layout, new_size), new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("fseg-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const ROWS: usize = 20;
/// One column per dtype, with and without nulls and runs.
const COLUMNS: [&str; 6] = ["f", "runs", "i", "b", "c", "k"];

/// Every dtype: a float column with nulls, a float column of long runs, an
/// int column, a bool column with nulls, a categorical column with nulls
/// and one of long runs.
fn dataset() -> Dataset {
    let f = Column::from_f64((0..ROWS).map(|i| i as f64 * 0.5).collect())
        .with_validity((0..ROWS).map(|i| i % 3 != 0).collect())
        .unwrap();
    let runs = Column::from_f64((0..ROWS).map(|i| (i / 7) as f64).collect());
    let i = Column::from_i64((0..ROWS).map(|i| i as i64 - 7).collect());
    let b = Column::from_bool((0..ROWS).map(|i| i % 2 == 0).collect())
        .with_validity((0..ROWS).map(|i| i % 5 != 0).collect())
        .unwrap();
    let labels = ["x", "y", "z"];
    let c = Column::from_labels(&(0..ROWS).map(|i| labels[i % 3]).collect::<Vec<_>>())
        .with_validity((0..ROWS).map(|i| i % 4 != 1).collect())
        .unwrap();
    let k = Column::from_labels(&(0..ROWS).map(|i| labels[i / 8]).collect::<Vec<_>>());
    Dataset::from_columns(
        [f, runs, i, b, c, k]
            .into_iter()
            .zip(COLUMNS)
            .map(|(col, name)| (name.to_string(), col))
            .collect(),
    )
    .unwrap()
}

/// A one-segment set of [`dataset`] under `dir`, with its segment's image.
fn valid_set(dir: &Path, rle: RlePolicy) -> (SegmentSet, Vec<u8>) {
    let cfg = SegmentWriteConfig {
        rows_per_segment: ROWS,
        rle,
    };
    let set = dataset().to_segments(dir, &cfg).unwrap();
    let image = std::fs::read(set.segment_path(0)).unwrap();
    (set, image)
}

/// The parsed header of a segment image and its data section.
fn split(image: &[u8]) -> (SegmentHeader, &[u8]) {
    let len = u32::from_le_bytes(image[6..10].try_into().unwrap()) as usize;
    let header = serde_json::from_str(std::str::from_utf8(&image[10..10 + len]).unwrap()).unwrap();
    (header, &image[10 + len..])
}

/// A segment image from a header and a data section.
fn assemble(header: &SegmentHeader, data: &[u8]) -> Vec<u8> {
    let json = serde_json::to_string(header).unwrap();
    let mut out = b"FSEG".to_vec();
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&(json.len() as u32).to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(data);
    out
}

/// What opening `image` and reading every column gives: the first error,
/// or the decoded lengths. A panic fails the test; an allocation past
/// [`ALLOC_BOUND`] fails the caller's check.
fn read_all(dir: &Path, image: &[u8]) -> Result<Vec<usize>, FactError> {
    let path = dir.join("hostile.fseg");
    std::fs::write(&path, image).unwrap();
    let mut reader = SegmentReader::open(&path)?;
    let rows = reader.header().n_rows;
    let names: Vec<String> = reader
        .header()
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut lens = Vec::new();
    for name in names {
        let (values, validity, _) = reader.read_column(&name)?;
        assert_eq!(
            values.len() as u64,
            rows,
            "'{name}' decoded off its row count"
        );
        if let Some(m) = validity {
            assert_eq!(m.len() as u64, rows, "'{name}' validity off its row count");
        }
        lens.push(values.len());
    }
    Ok(lens)
}

/// [`read_all`] under the allocation bound.
fn read_bounded(dir: &Path, image: &[u8]) -> Result<Vec<usize>, FactError> {
    let (out, largest) = peak_during(|| read_all(dir, image));
    assert!(
        largest <= ALLOC_BOUND,
        "a hostile segment made a {largest}-byte allocation"
    );
    out
}

fn is_corrupt<T: std::fmt::Debug>(r: &Result<T, FactError>) -> bool {
    matches!(r, Err(FactError::Corrupt(_)))
}

/// Declared row counts a hostile header may carry.
const HUGE_ROWS: [u64; 6] = [
    1_000_000_000_000,
    1 << 62,
    u64::MAX,
    1 << 32,
    (ROWS as u64) * 1000,
    ROWS as u64 * 8 + 9,
];

/// A 20-row RLE float segment whose header declares 10^12 (and 2^62)
/// rows: `decode_rle` reserved the declared count before it checked the
/// runs, so the reader aborted ("memory allocation of 8000000000000 bytes
/// failed") or panicked ("capacity overflow").
#[test]
fn a_huge_declared_row_count_is_corrupt_not_an_abort() {
    let dir = Scratch::new("huge-rows");
    let ds = Dataset::builder()
        .f64("x", (0..ROWS).map(|i| (i / 5) as f64).collect())
        .build()
        .unwrap();
    let cfg = SegmentWriteConfig {
        rows_per_segment: ROWS,
        rle: RlePolicy::Always,
    };
    let set = ds.to_segments(&dir.0, &cfg).unwrap();
    let image = std::fs::read(set.segment_path(0)).unwrap();
    let (mut header, data) = split(&image);
    assert!(header.columns[0].rle);
    for rows in [1_000_000_000_000u64, 1 << 62] {
        header.n_rows = rows;
        let crafted = assemble(&header, data);
        let got = read_bounded(&dir.0, &crafted);
        assert!(is_corrupt(&got), "{rows} rows: {got:?}");
        // the set refuses it before decoding: the manifest says 20 rows
        std::fs::write(set.segment_path(0), &crafted).unwrap();
        let err = SegmentSet::open(&dir.0).unwrap().to_dataset().unwrap_err();
        assert!(matches!(err, FactError::Corrupt(_)), "{err:?}");
    }
}

/// RLE runs that consistently declare 2^48 rows (2^16 runs of 2^32 − 1
/// plus one short run): the buffer backs the count, but no machine holds
/// 2^51 bytes, so the reservation is refused as corrupt, not an abort.
#[test]
fn rle_runs_past_memory_are_refused_not_an_abort() {
    let dir = Scratch::new("rle-past-memory");
    let (_set, image) = valid_set(&dir.0, RlePolicy::Always);
    let (mut header, data) = split(&image);
    let runs_col = header
        .columns
        .iter()
        .position(|c| c.name == "runs")
        .unwrap();
    let meta = header.columns[runs_col].clone();
    assert!(meta.rle);
    let n_runs: u32 = 1 << 16;
    let rows = u64::from(n_runs) * u64::from(u32::MAX) + 1;
    let mut body = data.to_vec();
    let mut rle = (n_runs + 1).to_le_bytes().to_vec();
    for i in 0..=n_runs {
        rle.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        rle.extend_from_slice(&(if i < n_runs { u32::MAX } else { 1 }).to_le_bytes());
    }
    // the new buffer goes at the end of the data section
    header.columns[runs_col].offset = body.len() as u64;
    header.columns[runs_col].len = rle.len() as u64;
    body.extend_from_slice(&rle);
    header.data_len = body.len() as u64;
    header.n_rows = rows;
    let path = dir.0.join("past-memory.fseg");
    std::fs::write(&path, assemble(&header, &body)).unwrap();
    let mut reader = SegmentReader::open(&path).unwrap();
    let (got, largest) = peak_during(|| reader.read_column("runs"));
    assert!(is_corrupt(&got), "{:?}", got.map(|(v, _, _)| v.len()));
    assert!(largest <= ALLOC_BOUND, "a {largest}-byte allocation");
}

/// A manifest whose segment rows sum past `u64::MAX` is corrupt; the sum
/// used to wrap (release) or panic (debug).
#[test]
fn manifest_row_sum_overflow_is_corrupt() {
    let dir = Scratch::new("manifest-sum");
    valid_set(&dir.0, RlePolicy::Auto);
    let path = dir.0.join(MANIFEST_FILE);
    let mut manifest: fact_data::segment::Manifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let mut second = manifest.segments[0].clone();
    second.rows = u64::MAX;
    manifest.segments.push(second);
    manifest.n_rows = ROWS as u64 - 1; // what the wrapped sum reads
    std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).unwrap();
    let err = SegmentSet::open(&dir.0).unwrap_err();
    assert!(matches!(err, FactError::Corrupt(_)), "{err:?}");
}

/// A segment that stores a column under another dtype than the manifest
/// names is corrupt. An int key relabelled `float` decodes (both are 8-byte
/// lanes), and the aggregate then met a float key it never expected.
#[test]
fn a_column_stored_under_another_dtype_is_corrupt() {
    let dir = Scratch::new("dtype");
    let (set, image) = valid_set(&dir.0, RlePolicy::Never);
    let (mut header, data) = split(&image);
    let meta = header.columns.iter_mut().find(|c| c.name == "i").unwrap();
    meta.dtype = "float".into();
    std::fs::write(set.segment_path(0), assemble(&header, data)).unwrap();
    let set = SegmentSet::open(&dir.0).unwrap();
    let err = aggregate_segments(&set, "i", &[("f", AggFn::Sum)], &Predicate::All).unwrap_err();
    assert!(matches!(err, FactError::Corrupt(_)), "{err:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, every kind of truncation and byte flip, hostile
    /// preambles, declared row counts, run counts and lengths, buffer
    /// offsets, RLE flags and dtypes: each is a typed error or a consistent
    /// decode, within the allocation bound, for every dtype.
    #[test]
    fn hostile_segment_bytes_are_refused_not_panicked_on(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        policy in 0usize..3,
        col in 0usize..COLUMNS.len(),
        cut in any::<usize>(),
        flip in (any::<usize>(), 1u8..=255),
        rows_sel in 0usize..HUGE_ROWS.len() + 1,
        huge in any::<u32>(),
        raw in any::<u64>(),
    ) {
        let dir = Scratch::new("hostile");
        let rle = [RlePolicy::Auto, RlePolicy::Always, RlePolicy::Never][policy];
        let (_set, image) = valid_set(&dir.0, rle);
        prop_assert_eq!(read_bounded(&dir.0, &image).unwrap(), vec![ROWS; COLUMNS.len()]);
        let (header, data) = split(&image);

        // arbitrary bytes, alone and behind a valid preamble
        prop_assert!(read_bounded(&dir.0, &garbage).is_err());
        let mut preamble = image[..6].to_vec();
        preamble.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        preamble.extend_from_slice(&garbage);
        prop_assert!(read_bounded(&dir.0, &preamble).is_err());

        // a truncation, and a flip anywhere
        prop_assert!(is_corrupt(&read_bounded(&dir.0, &image[..cut % image.len()])));
        let mut flipped = image.clone();
        flipped[flip.0 % image.len()] ^= flip.1;
        let _ = read_bounded(&dir.0, &flipped);

        // a declared row count the buffers do not back
        let rows = HUGE_ROWS.get(rows_sel).copied().unwrap_or(raw);
        let mut h = header.clone();
        h.n_rows = rows;
        let got = read_bounded(&dir.0, &assemble(&h, data));
        prop_assert!(rows == ROWS as u64 || got.is_err(), "{} rows read: {:?}", rows, got);

        // a huge data length, offset or buffer length
        let mut h = header.clone();
        h.data_len = u64::MAX - u64::from(huge % 16);
        prop_assert!(is_corrupt(&read_bounded(&dir.0, &assemble(&h, data))));
        for field in 0..4 {
            let mut h = header.clone();
            let m = &mut h.columns[col];
            let slot = [&mut m.offset, &mut m.len, &mut m.validity_offset, &mut m.validity_len];
            *slot.into_iter().nth(field).unwrap() = u64::MAX - u64::from(huge % 16);
            prop_assert!(is_corrupt(&read_bounded(&dir.0, &assemble(&h, data))));
        }

        // the RLE flag toggled, and another dtype named
        let mut h = header.clone();
        h.columns[col].rle ^= true;
        let _ = read_bounded(&dir.0, &assemble(&h, data));
        for dtype in ["float", "int", "bool", "categorical", "complex"] {
            let mut h = header.clone();
            h.columns[col].dtype = dtype.into();
            let _ = read_bounded(&dir.0, &assemble(&h, data));
        }

        // a huge run count, or a huge run length, in an RLE buffer
        let meta = &header.columns[col];
        if meta.rle {
            let at = meta.offset as usize;
            let width = if meta.dtype == "categorical" { 4 } else { 8 };
            let mut d = data.to_vec();
            d[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            let got = read_bounded(&dir.0, &assemble(&header, &d));
            let runs = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
            prop_assert!(huge == runs || is_corrupt(&got), "{:?}", got);
            let mut d = data.to_vec();
            let len_at = at + 4 + width;
            d[len_at..len_at + 4].copy_from_slice(&(u32::MAX - huge % 16).to_le_bytes());
            prop_assert!(is_corrupt(&read_bounded(&dir.0, &assemble(&header, &d))));
        }
    }
}
