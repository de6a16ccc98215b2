//! # Binary columnar segment storage
//!
//! A [`Dataset`] can be spilled to disk as a **segment set**: a directory of
//! fixed-width, column-major binary files plus a JSON manifest. The format
//! is built for the access pattern every FACT audit shares — *scan a few
//! columns of many rows under a selective predicate* — and optimizes three
//! things the in-memory engine cannot:
//!
//! * **Column pruning.** Each column lives in its own contiguous buffer
//!   inside the segment, with byte offsets in the header. A scan that needs
//!   2 of 30 columns reads 2 of 30 buffers; the rest are never touched.
//! * **Zone-map segment pruning.** Every column of every segment carries a
//!   zone map (min/max over valid values, null count, and — for
//!   low-cardinality dictionary columns — the exact set of codes present).
//!   A selective predicate skips whole segments whose zones prove no row
//!   can match, before any data byte is read.
//! * **Parallel, deterministic scans.** Segments are independent units of
//!   work, fanned out on [`fact_par`] and merged **in segment order**, so
//!   every scan result is bit-identical at any worker count.
//!
//! ## On-disk layout
//!
//! ```text
//! dir/
//!   manifest.json        schema + FACT annotations + global cat dictionaries
//!                        + the segment list (commit point: written last)
//!   seg-000000.fseg      magic "FSEG" | version u16 LE | header_len u32 LE
//!   seg-000001.fseg        | header JSON (per-column offsets + zone maps)
//!   ...                    | column value buffers [+ null bitmaps]
//! ```
//!
//! Values are little-endian fixed width: f64/i64 as 8-byte lanes (floats
//! via [`f64::to_bits`], so NaN payloads and null placeholders survive
//! bit-exactly), dictionary codes as 4-byte `u32` lanes, bools bit-packed.
//! Dictionaries are **global** — stored once in the manifest — so codes
//! compare across segments without remapping. Low-cardinality columns may
//! be run-length encoded when runs cover enough of the segment
//! ([`RlePolicy`]). Null bitmaps are LSB-first and stored only for columns
//! that actually contain nulls.
//!
//! Files are written with the same tmp + fsync + rename discipline as the
//! serving checkpoints, and readers validate *exact* file length against
//! the header's declared sizes — truncated headers, torn tails, and
//! trailing garbage are all rejected as [`FactError::Corrupt`].
//!
//! ## Example
//!
//! ```
//! use fact_data::segment::{Predicate, SegmentWriteConfig};
//! use fact_data::synth::loans::{LoanConfig, generate_loans};
//!
//! let ds = generate_loans(&LoanConfig { n: 500, seed: 7, ..LoanConfig::default() });
//! let dir = std::env::temp_dir().join(format!("fseg-doc-{}", std::process::id()));
//! let set = ds.to_segments(&dir, &SegmentWriteConfig { rows_per_segment: 128, ..Default::default() })?;
//!
//! // column-pruned scan: reads only the two named buffers per segment
//! let (sub, stats) = set.scan_columns(
//!     &["income", "approved"],
//!     &Predicate::Range { column: "income".into(), min: 0.0, max: f64::MAX },
//! )?;
//! assert_eq!(sub.n_cols(), 2);
//! assert!(stats.bytes_read < stats.bytes_total);
//! std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fact_data::FactError>(())
//! ```

mod codec;
mod file;
mod scan;

pub use codec::{DecodedValues, RlePolicy, RLE_MIN_ROWS, RLE_RUN_FRACTION};
pub use file::{
    build_zone_map, ColumnMeta, Manifest, ManifestField, ManifestSegment, SegmentHeader,
    SegmentReader, ZoneMap, MANIFEST_FILE, SEGMENT_MAGIC, SEGMENT_VERSION, ZONE_MAP_MAX_CODES,
};
pub use scan::{BatchColumn, Predicate, ScanStats, SegmentBatch, SegmentSet, Selection};

use std::path::Path;

use crate::error::{FactError, Result};
use crate::frame::Dataset;

/// How a [`Dataset`] is sliced and encoded when spilled to segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentWriteConfig {
    /// Rows per segment file (the pruning granule). Smaller segments prune
    /// more precisely but pay more per-file header overhead.
    pub rows_per_segment: usize,
    /// Run-length encoding policy for 8/4-byte lanes.
    pub rle: RlePolicy,
}

impl Default for SegmentWriteConfig {
    fn default() -> Self {
        SegmentWriteConfig {
            rows_per_segment: 65_536,
            rle: RlePolicy::Auto,
        }
    }
}

impl Dataset {
    /// Spill this dataset to a segment set under `dir` (created if absent).
    ///
    /// Segment files are written first, each atomically; the manifest is
    /// written last as the commit point, so a directory with a readable
    /// manifest is always a complete set. Existing files in `dir` from a
    /// previous spill are overwritten.
    pub fn to_segments(
        &self,
        dir: impl AsRef<Path>,
        config: &SegmentWriteConfig,
    ) -> Result<SegmentSet> {
        if config.rows_per_segment == 0 {
            return Err(FactError::InvalidArgument(
                "rows_per_segment must be at least 1".into(),
            ));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let names = self.names();
        let fields = self
            .schema()
            .fields()
            .iter()
            .map(|f| {
                let dict = match self.column(&f.name)?.data() {
                    crate::column::ColumnData::Cat(cat) => Some(cat.dict.clone()),
                    _ => None,
                };
                Ok(file::ManifestField {
                    name: f.name.clone(),
                    dtype: file::dtype_name(f.dtype).to_string(),
                    sensitive: f.sensitive,
                    quasi_identifier: f.quasi_identifier,
                    dict,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let n = self.n_rows();
        let mut segments = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + config.rows_per_segment).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let cols: Vec<crate::column::Column> = names
                .iter()
                .map(|name| self.column(name).expect("name from schema").take(&idx))
                .collect();
            let (image, _header) = file::encode_segment(&names, &cols, config.rle)?;
            let fname = format!("seg-{:06}.fseg", segments.len());
            file::write_segment_file(&dir.join(&fname), &image)?;
            segments.push(file::ManifestSegment {
                file: fname,
                rows: (end - start) as u64,
                bytes: image.len() as u64,
            });
            start = end;
        }
        let manifest = file::Manifest {
            version: file::SEGMENT_VERSION,
            n_rows: n as u64,
            fields,
            segments,
        };
        file::write_manifest(dir, &manifest)?;
        Ok(SegmentSet::from_parts(dir.to_path_buf(), manifest))
    }

    /// Load a full dataset back from a segment set directory.
    ///
    /// The roundtrip is bit-exact: float payloads (including NaN bits under
    /// null slots), dictionary order, validity masks, and FACT schema
    /// annotations all survive `to_segments` → `from_segments`.
    pub fn from_segments(dir: impl AsRef<Path>) -> Result<Dataset> {
        SegmentSet::open(dir)?.to_dataset()
    }
}

impl SegmentSet {
    /// Materialize every column of every segment back into a [`Dataset`].
    pub fn to_dataset(&self) -> Result<Dataset> {
        let names = self.names();
        let (ds, _stats) = self.scan_columns(&names, &Predicate::All)?;
        Ok(ds)
    }
}
