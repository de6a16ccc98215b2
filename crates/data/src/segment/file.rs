//! On-disk layout of segment files and the segment-set manifest.
//!
//! A segment file is one horizontal slice of a dataset, laid out
//! column-major so a scan can read exactly the columns it needs:
//!
//! ```text
//! bytes 0..4    magic  b"FSEG"
//! bytes 4..6    format version (u16 LE)
//! bytes 6..10   header length H (u32 LE)
//! bytes 10..10+H  header JSON  — schema slice, per-column buffer offsets
//!                 and encodings, zone maps
//! bytes 10+H..  data section — per-column value buffers and validity
//!               bitmaps at the offsets the header records
//! ```
//!
//! The header records the exact data-section length, and the reader checks
//! `file size == preamble + header + data` before trusting any offset, so a
//! torn tail or truncated header is rejected up front ([`FactError::Corrupt`])
//! rather than misread — the same stance the `fact-net` frame codec takes
//! on torn frames.
//!
//! Writes are crash-safe through [`write_atomic`]: tmp file, `fsync`,
//! rename, then a directory fsync.

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::column::{Column, ColumnData};
use crate::durable::write_atomic;
use crate::error::{FactError, Result};
use crate::value::DataType;

use super::codec::{self, DecodedValues, RlePolicy};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"FSEG";

/// Current segment format version.
pub const SEGMENT_VERSION: u16 = 1;

/// Preamble size: magic + version + header length.
pub const PREAMBLE_LEN: usize = 10;

/// Name of the manifest file inside a segment-set directory.
pub const MANIFEST_FILE: &str = "manifest.json";

fn corrupt(what: impl Into<String>) -> FactError {
    FactError::Corrupt(what.into())
}

// ---------------------------------------------------------------------------
// header / manifest schema
// ---------------------------------------------------------------------------

/// Per-column zone map: the segment-level statistics a scan consults to
/// prune whole segments without touching their data buffers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoneMap {
    /// Minimum of the valid, non-NaN values viewed as `f64` (ints widened,
    /// bools 0/1). `None` for categorical columns or when no such value
    /// exists in the segment.
    pub min: Option<f64>,
    /// Maximum, same view and caveats as `min`.
    pub max: Option<f64>,
    /// Null rows in this segment's slice.
    pub null_count: u64,
    /// Distinct dictionary codes present (categorical columns only).
    pub distinct: Option<u64>,
    /// The distinct codes themselves, sorted, when at most
    /// [`ZONE_MAP_MAX_CODES`] are present — lets equality predicates prune
    /// segments that never mention a label.
    pub codes: Option<Vec<u32>>,
}

/// Cap on the per-segment code list stored in a categorical zone map.
pub const ZONE_MAP_MAX_CODES: usize = 64;

impl ZoneMap {
    /// Whether a `[min, max]` range predicate can possibly match a row of
    /// this segment. Conservative: `true` unless the zone map proves the
    /// whole segment falls outside the range. NaN values never satisfy a
    /// range predicate, so excluding them from `min`/`max` keeps this exact.
    pub fn may_overlap_range(&self, min: f64, max: f64) -> bool {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => hi >= min && lo <= max,
            // no valid numeric value in the segment: nothing can match
            _ => false,
        }
    }

    /// Whether a dictionary-code equality predicate can match. `true`
    /// unless the zone map carries a code list that excludes `code`.
    pub fn may_contain_code(&self, code: u32) -> bool {
        match &self.codes {
            Some(codes) => codes.binary_search(&code).is_ok(),
            None => true,
        }
    }
}

/// Build the zone map for one column slice.
pub fn build_zone_map(col: &Column) -> ZoneMap {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut saw = false;
    match col.data() {
        ColumnData::Cat(c) => {
            let mut codes: Vec<u32> = (0..col.len())
                .filter(|&i| !col.is_null(i))
                .map(|i| c.codes[i])
                .collect();
            codes.sort_unstable();
            codes.dedup();
            let distinct = codes.len() as u64;
            return ZoneMap {
                min: None,
                max: None,
                null_count: col.null_count() as u64,
                distinct: Some(distinct),
                codes: (codes.len() <= ZONE_MAP_MAX_CODES).then_some(codes),
            };
        }
        _ => {
            // for_each_valid_f64 cannot fail on non-categorical columns
            col.for_each_valid_f64(|x| {
                if !x.is_nan() {
                    min = min.min(x);
                    max = max.max(x);
                    saw = true;
                }
            })
            .expect("numeric/bool column");
        }
    }
    ZoneMap {
        min: saw.then_some(min),
        max: saw.then_some(max),
        null_count: col.null_count() as u64,
        distinct: None,
        codes: None,
    }
}

/// One column's entry in a segment header: where its buffers live in the
/// data section and how they are encoded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Column name (must match the manifest schema order).
    pub name: String,
    /// Logical type, as the `DataType` display string.
    pub dtype: String,
    /// `true` when the value buffer is run-length encoded.
    pub rle: bool,
    /// Value-buffer offset, relative to the data section.
    pub offset: u64,
    /// Value-buffer length in bytes.
    pub len: u64,
    /// Validity-bitmap offset (0 when the slice has no nulls).
    pub validity_offset: u64,
    /// Validity-bitmap length in bytes (0 when the slice has no nulls).
    pub validity_len: u64,
    /// Scan-pruning statistics for this slice.
    pub zone: ZoneMap,
}

/// The JSON header of one segment file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentHeader {
    /// Rows in this segment.
    pub n_rows: u64,
    /// Total data-section length in bytes (used to reject torn tails).
    pub data_len: u64,
    /// Per-column layout, in manifest schema order.
    pub columns: Vec<ColumnMeta>,
}

/// One field of the segment-set schema as stored in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestField {
    /// Column name.
    pub name: String,
    /// Logical type, as the `DataType` display string.
    pub dtype: String,
    /// FACT annotation: protected/sensitive attribute.
    pub sensitive: bool,
    /// FACT annotation: quasi-identifier.
    pub quasi_identifier: bool,
    /// Global dictionary for categorical columns — segment files store raw
    /// codes into this shared dictionary, so codes are comparable across
    /// segments without remapping.
    pub dict: Option<Vec<String>>,
}

/// One segment's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestSegment {
    /// File name within the segment-set directory.
    pub file: String,
    /// Rows in the segment.
    pub rows: u64,
    /// Total file size in bytes (preamble + header + data).
    pub bytes: u64,
}

/// The segment-set manifest: schema plus the ordered list of segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Segment format version the set was written at.
    pub version: u16,
    /// Total rows across all segments.
    pub n_rows: u64,
    /// Schema fields in column order.
    pub fields: Vec<ManifestField>,
    /// Segments in row order.
    pub segments: Vec<ManifestSegment>,
}

pub(super) fn dtype_name(dt: DataType) -> &'static str {
    match dt {
        DataType::Float => "float",
        DataType::Int => "int",
        DataType::Bool => "bool",
        DataType::Cat => "categorical",
    }
}

pub(super) fn parse_dtype(s: &str) -> Result<DataType> {
    match s {
        "float" => Ok(DataType::Float),
        "int" => Ok(DataType::Int),
        "bool" => Ok(DataType::Bool),
        "categorical" => Ok(DataType::Cat),
        other => Err(corrupt(format!("unknown dtype '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// writing
// ---------------------------------------------------------------------------

/// Serialize one segment (a row slice of equal-length columns) to bytes.
/// Returns the file image and the header that describes it.
pub fn encode_segment(
    names: &[&str],
    columns: &[Column],
    rle: RlePolicy,
) -> Result<(Vec<u8>, SegmentHeader)> {
    let n_rows = columns.first().map_or(0, |c| c.len());
    let mut data: Vec<u8> = Vec::new();
    let mut metas = Vec::with_capacity(columns.len());
    for (name, col) in names.iter().zip(columns) {
        debug_assert_eq!(col.len(), n_rows, "segment columns are equal-length");
        let (values, used_rle) = codec::encode_values(col.data(), rle);
        let offset = data.len() as u64;
        data.extend_from_slice(&values);
        let (validity_offset, validity_len) = if col.null_count() > 0 {
            let mask: Vec<bool> = (0..col.len()).map(|i| !col.is_null(i)).collect();
            let packed = codec::pack_bits(&mask);
            let off = data.len() as u64;
            data.extend_from_slice(&packed);
            (off, packed.len() as u64)
        } else {
            (0, 0)
        };
        metas.push(ColumnMeta {
            name: name.to_string(),
            dtype: dtype_name(col.dtype()).to_string(),
            rle: used_rle,
            offset,
            len: values.len() as u64,
            validity_offset,
            validity_len,
            zone: build_zone_map(col),
        });
    }
    let header = SegmentHeader {
        n_rows: n_rows as u64,
        data_len: data.len() as u64,
        columns: metas,
    };
    let header_json = serde_json::to_string(&header)
        .map_err(|e| FactError::InvalidArgument(format!("header serialization: {e}")))?;
    let mut out = Vec::with_capacity(PREAMBLE_LEN + header_json.len() + data.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header_json.len() as u32).to_le_bytes());
    out.extend_from_slice(header_json.as_bytes());
    out.extend_from_slice(&data);
    Ok((out, header))
}

/// Durably write one encoded segment file (tmp + fsync + rename).
pub fn write_segment_file(path: &Path, image: &[u8]) -> Result<()> {
    Ok(write_atomic(path, image)?)
}

/// Durably write the manifest into `dir`.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| FactError::InvalidArgument(format!("manifest serialization: {e}")))?;
    Ok(write_atomic(&dir.join(MANIFEST_FILE), json.as_bytes())?)
}

/// Read and validate the manifest of a segment-set directory.
pub fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = dir.join(MANIFEST_FILE);
    let json = fs::read_to_string(&path)?;
    let manifest: Manifest = serde_json::from_str(&json)
        .map_err(|e| corrupt(format!("manifest {}: {e}", path.display())))?;
    if manifest.version != SEGMENT_VERSION {
        return Err(corrupt(format!(
            "manifest version {} unsupported (reader speaks {SEGMENT_VERSION})",
            manifest.version
        )));
    }
    let seg_rows = manifest
        .segments
        .iter()
        .try_fold(0u64, |total, s| total.checked_add(s.rows));
    if seg_rows != Some(manifest.n_rows) {
        return Err(corrupt(format!(
            "manifest rows {} disagree with segment total {}",
            manifest.n_rows,
            seg_rows.map_or_else(|| "past u64::MAX".to_string(), |r| r.to_string())
        )));
    }
    for f in &manifest.fields {
        parse_dtype(&f.dtype)?;
        if f.dict.is_some() != (f.dtype == "categorical") {
            return Err(corrupt(format!(
                "field '{}': dictionary presence does not match dtype",
                f.name
            )));
        }
    }
    Ok(manifest)
}

// ---------------------------------------------------------------------------
// reading
// ---------------------------------------------------------------------------

/// An open segment file with a validated preamble and header. Column
/// buffers are read on demand ([`SegmentReader::read_column`]), so a scan
/// pays only for the columns it asks for.
#[derive(Debug)]
pub struct SegmentReader {
    file: fs::File,
    header: std::sync::Arc<SegmentHeader>,
    /// Bytes consumed validating the preamble and header.
    overhead_bytes: u64,
    data_start: u64,
}

impl SegmentReader {
    /// Open `path`, validating magic, version, header, and total length.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with(path, None)
    }

    /// [`SegmentReader::open`] with an optional previously-validated header
    /// for this file. On a cache hit the preamble and file length are still
    /// checked against the cached header, but the JSON header is neither
    /// re-read nor re-parsed — the dominant fixed cost of a repeated scan.
    /// `overhead_bytes` stays the full preamble + header size either way,
    /// so scan statistics are identical for cold and warm opens.
    pub(super) fn open_with(
        path: &Path,
        cached: Option<std::sync::Arc<SegmentHeader>>,
    ) -> Result<Self> {
        let mut file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < PREAMBLE_LEN as u64 {
            return Err(corrupt(format!(
                "{}: {file_len} bytes is shorter than the {PREAMBLE_LEN}-byte preamble",
                path.display()
            )));
        }
        let mut preamble = [0u8; PREAMBLE_LEN];
        file.read_exact(&mut preamble)?;
        if preamble[..4] != SEGMENT_MAGIC {
            return Err(corrupt(format!("{}: bad magic", path.display())));
        }
        let version = u16::from_le_bytes(preamble[4..6].try_into().expect("2 bytes"));
        if version != SEGMENT_VERSION {
            return Err(corrupt(format!(
                "{}: version {version} unsupported (reader speaks {SEGMENT_VERSION})",
                path.display()
            )));
        }
        let header_len = u32::from_le_bytes(preamble[6..10].try_into().expect("4 bytes")) as u64;
        if PREAMBLE_LEN as u64 + header_len > file_len {
            return Err(corrupt(format!(
                "{}: truncated header ({header_len} declared, {} available)",
                path.display(),
                file_len - PREAMBLE_LEN as u64
            )));
        }
        let header: std::sync::Arc<SegmentHeader> = match cached {
            Some(h) => {
                file.seek(SeekFrom::Current(header_len as i64))?;
                h
            }
            None => {
                let mut header_bytes = vec![0u8; header_len as usize];
                file.read_exact(&mut header_bytes)?;
                let header_json = std::str::from_utf8(&header_bytes)
                    .map_err(|_| corrupt(format!("{}: header is not UTF-8", path.display())))?;
                std::sync::Arc::new(
                    serde_json::from_str(header_json)
                        .map_err(|e| corrupt(format!("{}: header: {e}", path.display())))?,
                )
            }
        };
        let data_start = PREAMBLE_LEN as u64 + header_len;
        if data_start.checked_add(header.data_len) != Some(file_len) {
            return Err(corrupt(format!(
                "{}: data section is {} bytes, header declares {} (torn tail?)",
                path.display(),
                file_len - data_start,
                header.data_len
            )));
        }
        for c in &header.columns {
            let end = c.offset.checked_add(c.len);
            let vend = c.validity_offset.checked_add(c.validity_len);
            match (end, vend) {
                (Some(e), Some(v)) if e <= header.data_len && v <= header.data_len => {}
                _ => {
                    return Err(corrupt(format!(
                        "{}: column '{}' buffers fall outside the data section",
                        path.display(),
                        c.name
                    )))
                }
            }
        }
        Ok(SegmentReader {
            file,
            header,
            overhead_bytes: data_start,
            data_start,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// A shareable handle to the validated header, for caching across
    /// repeated opens of the same file.
    pub(super) fn shared_header(&self) -> std::sync::Arc<SegmentHeader> {
        std::sync::Arc::clone(&self.header)
    }

    /// Bytes read for the preamble + header (charged once per opened file).
    pub fn overhead_bytes(&self) -> u64 {
        self.overhead_bytes
    }

    /// Locate a column's metadata by name.
    pub fn column_meta(&self, name: &str) -> Result<&ColumnMeta> {
        self.header
            .columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))
    }

    fn read_range(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(self.data_start + offset))?;
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Read and decode one column's slice. Returns the decoded values, the
    /// validity mask (`None` = fully valid), and the data bytes read.
    pub fn read_column(&mut self, name: &str) -> Result<(DecodedValues, Option<Vec<bool>>, u64)> {
        let meta = self.column_meta(name)?.clone();
        let rows = self.header.n_rows as usize;
        let dtype = parse_dtype(&meta.dtype)?;
        let values_bytes = self.read_range(meta.offset, meta.len)?;
        let values = codec::decode_values(&values_bytes, dtype, meta.rle, rows)?;
        let mut bytes_read = meta.len;
        let validity = if meta.validity_len > 0 {
            let mask_bytes = self.read_range(meta.validity_offset, meta.validity_len)?;
            bytes_read += meta.validity_len;
            Some(codec::unpack_bits(&mask_bytes, rows)?)
        } else {
            None
        };
        Ok((values, validity, bytes_read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_image() -> Vec<u8> {
        let cols = vec![
            Column::from_f64(vec![1.0, 2.0, 3.0]),
            Column::from_labels(&["a", "b", "a"]),
        ];
        let (image, _) = encode_segment(&["x", "g"], &cols, RlePolicy::Auto).unwrap();
        image
    }

    #[test]
    fn open_validates_and_reads_single_columns() {
        let dir = std::env::temp_dir().join(format!("fseg-file-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-000000.fseg");
        write_segment_file(&path, &seg_image()).unwrap();
        let mut r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.header().n_rows, 3);
        let (vals, validity, bytes) = r.read_column("x").unwrap();
        assert_eq!(bytes, 24);
        assert!(validity.is_none());
        assert_eq!(vals, DecodedValues::Float(vec![1.0, 2.0, 3.0]));
        let (codes, _, _) = r.read_column("g").unwrap();
        assert_eq!(codes, DecodedValues::Codes(vec![0, 1, 0]));
        assert!(matches!(
            r.read_column("ghost"),
            Err(FactError::ColumnNotFound(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let dir = std::env::temp_dir().join(format!("fseg-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let image = seg_image();
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vec![]),
            ("short-preamble", image[..6].to_vec()),
            ("bad-magic", {
                let mut b = image.clone();
                b[0] = b'X';
                b
            }),
            ("bad-version", {
                let mut b = image.clone();
                b[4] = 99;
                b
            }),
            ("torn-tail", image[..image.len() - 5].to_vec()),
            ("truncated-header", image[..PREAMBLE_LEN + 3].to_vec()),
            ("trailing-garbage", {
                let mut b = image.clone();
                b.extend_from_slice(b"junk");
                b
            }),
        ];
        for (name, bytes) in cases {
            let path = dir.join(format!("{name}.fseg"));
            fs::write(&path, &bytes).unwrap();
            match SegmentReader::open(&path) {
                Err(FactError::Corrupt(_)) => {}
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_maps_cover_numeric_and_cat() {
        let z = build_zone_map(&Column::from_f64(vec![3.0, f64::NAN, -1.0]));
        assert_eq!((z.min, z.max), (Some(-1.0), Some(3.0)));
        assert!(z.may_overlap_range(0.0, 10.0));
        assert!(!z.may_overlap_range(4.0, 9.0));
        let z = build_zone_map(&Column::from_labels(&["a", "b", "a"]));
        assert_eq!(z.distinct, Some(2));
        assert!(z.may_contain_code(1));
        assert!(!z.may_contain_code(2));
        // all-null slice can never match a range
        let z = build_zone_map(&Column::from_f64_opt(vec![None, None]));
        assert!(!z.may_overlap_range(f64::NEG_INFINITY, f64::INFINITY));
    }
}
