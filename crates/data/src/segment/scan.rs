//! Column-pruned, zone-map-accelerated scans over a segment set.
//!
//! [`SegmentSet::scan_fold`] is the primitive every consumer routes
//! through: it opens each segment, consults the predicate column's zone map
//! to **prune** segments that provably hold no matching row, decodes only
//! the **requested columns** of the survivors, and folds per-segment
//! results in segment order. Segments are processed in parallel on
//! [`fact_par::par_map`], and because the fold merges results in segment
//! index order — never completion order — every scan is **bit-identical at
//! any worker count**.
//!
//! [`SegmentSet::scan_columns`] materializes matching rows back into a
//! [`Dataset`]; group-by aggregation ([`crate::agg::aggregate_segments`])
//! and the fairness group scans build directly on `scan_fold`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::column::{check_codes, Column};
use crate::error::{FactError, Result};
use crate::frame::Dataset;
use crate::schema::{Field, Schema};
use crate::value::DataType;

use super::codec::DecodedValues;
use super::file::{self, Manifest, SegmentHeader, SegmentReader};

/// A filter a scan pushes down to the segment level.
///
/// Zone maps answer "can any row of this segment match?" conservatively;
/// rows of surviving segments are then tested exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Every row matches (pure column-pruned scan).
    All,
    /// Numeric/bool column value in `[min, max]` (inclusive). Null and NaN
    /// rows never match.
    Range {
        /// Column the bound applies to.
        column: String,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Categorical column equals `label`. Null rows never match.
    CatIs {
        /// Categorical column to test.
        column: String,
        /// Label a matching row must carry.
        label: String,
    },
}

impl Predicate {
    /// The column the predicate reads, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            Predicate::All => None,
            Predicate::Range { column, .. } | Predicate::CatIs { column, .. } => Some(column),
        }
    }
}

/// What a scan touched and what it skipped — the observability half of the
/// zone-map contract ("provably skipped" is a number, not a hope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Segments in the set.
    pub segments_total: usize,
    /// Segments whose data buffers were decoded.
    pub segments_scanned: usize,
    /// Segments the zone maps pruned without touching their data.
    pub segments_pruned: usize,
    /// Bytes actually read: headers everywhere, data buffers only for
    /// scanned segments' requested columns.
    pub bytes_read: u64,
    /// Total size of all segment files (what a full row-store scan pays).
    pub bytes_total: u64,
    /// Rows in scanned segments.
    pub rows_scanned: u64,
    /// Rows that matched the predicate.
    pub rows_matched: u64,
}

/// One decoded column of one segment, as handed to a `scan_fold` closure.
#[derive(Debug)]
pub struct BatchColumn {
    /// Column name.
    pub name: String,
    /// Decoded values (categoricals as raw dictionary codes).
    pub values: DecodedValues,
    /// Validity mask; `None` = fully valid.
    pub validity: Option<Vec<bool>>,
}

impl BatchColumn {
    /// Whether row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().map(|m| !m[i]).unwrap_or(false)
    }

    /// Numeric view of row `i`; `None` for nulls and categorical codes.
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            None
        } else {
            self.values.as_f64(i)
        }
    }
}

/// The decoded slice of one surviving segment: the requested columns plus
/// the rows the predicate kept.
#[derive(Debug)]
pub struct SegmentBatch {
    /// Index of the segment within the set.
    pub seg_index: usize,
    /// Rows in the segment (before filtering).
    pub n_rows: usize,
    /// Row indices that matched the predicate; `None` when all rows match.
    pub keep: Option<Vec<usize>>,
    columns: Vec<BatchColumn>,
}

impl SegmentBatch {
    /// The decoded column `name` (among the requested columns).
    pub fn column(&self, name: &str) -> Result<&BatchColumn> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))
    }

    /// Number of rows that matched the predicate.
    pub fn n_matching(&self) -> usize {
        self.keep.as_ref().map_or(self.n_rows, |k| k.len())
    }

    /// Iterate the matching row indices in row order.
    pub fn rows(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.keep {
            Some(k) => Box::new(k.iter().copied()),
            None => Box::new(0..self.n_rows),
        }
    }
}

/// A directory of column-major segment files plus their manifest — the
/// on-disk form of a [`Dataset`].
///
/// Segment headers are parsed once per set and cached (clones share the
/// cache), so repeated scans pay for column data, not per-file JSON.
#[derive(Debug, Clone)]
pub struct SegmentSet {
    dir: PathBuf,
    manifest: Manifest,
    headers: Arc<Mutex<HashMap<usize, Arc<SegmentHeader>>>>,
}

enum CompiledPred {
    All,
    Range {
        col: String,
        min: f64,
        max: f64,
    },
    /// Global dictionary code to match; `None` when the label is absent
    /// from the dictionary (no row anywhere can match).
    Code {
        col: String,
        code: Option<u32>,
    },
}

impl SegmentSet {
    pub(super) fn from_parts(dir: PathBuf, manifest: Manifest) -> Self {
        SegmentSet {
            dir,
            manifest,
            headers: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Open an existing segment set, validating its manifest.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = file::read_manifest(&dir)?;
        Ok(SegmentSet::from_parts(dir, manifest))
    }

    /// Open segment `i`, reusing its cached parsed header when available
    /// (the preamble and length checks still run against the live file).
    fn open_segment(&self, i: usize) -> Result<SegmentReader> {
        let cached = self
            .headers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&i)
            .cloned();
        let hit = cached.is_some();
        let reader = SegmentReader::open_with(&self.segment_path(i), cached)?;
        if !hit {
            self.headers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(i, reader.shared_header());
        }
        Ok(reader)
    }

    /// The directory the set lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Total rows across all segments.
    pub fn n_rows(&self) -> usize {
        self.manifest.n_rows as usize
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Column names in schema order.
    pub fn names(&self) -> Vec<&str> {
        self.manifest
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect()
    }

    /// The logical type of a column.
    pub fn dtype(&self, name: &str) -> Result<DataType> {
        file::parse_dtype(&self.field(name)?.dtype)
    }

    /// The global dictionary of a categorical column.
    pub fn dict(&self, name: &str) -> Result<&[String]> {
        let field = self.field(name)?;
        match field.dict.as_deref() {
            Some(d) => Ok(d),
            None => Err(FactError::TypeMismatch {
                column: name.to_string(),
                expected: DataType::Cat,
                actual: file::parse_dtype(&field.dtype)?,
            }),
        }
    }

    /// Reconstruct the schema (names, types, FACT annotations).
    pub fn schema(&self) -> Result<Schema> {
        let mut fields = Vec::with_capacity(self.manifest.fields.len());
        for f in &self.manifest.fields {
            let mut field = Field::new(f.name.clone(), file::parse_dtype(&f.dtype)?);
            field.sensitive = f.sensitive;
            field.quasi_identifier = f.quasi_identifier;
            fields.push(field);
        }
        Ok(Schema::from_fields(fields))
    }

    fn field(&self, name: &str) -> Result<&file::ManifestField> {
        self.manifest
            .fields
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))
    }

    /// Path of segment `i`.
    pub fn segment_path(&self, i: usize) -> PathBuf {
        self.dir.join(&self.manifest.segments[i].file)
    }

    fn compile(&self, pred: &Predicate) -> Result<CompiledPred> {
        Ok(match pred {
            Predicate::All => CompiledPred::All,
            Predicate::Range { column, min, max } => {
                let dt = self.dtype(column)?;
                if dt == DataType::Cat {
                    return Err(FactError::TypeMismatch {
                        column: column.clone(),
                        expected: DataType::Float,
                        actual: dt,
                    });
                }
                CompiledPred::Range {
                    col: column.clone(),
                    min: *min,
                    max: *max,
                }
            }
            Predicate::CatIs { column, label } => {
                let dt = self.dtype(column)?;
                if dt != DataType::Cat {
                    return Err(FactError::TypeMismatch {
                        column: column.clone(),
                        expected: DataType::Cat,
                        actual: dt,
                    });
                }
                let code = self
                    .dict(column)?
                    .iter()
                    .position(|l| l == label)
                    .map(|i| i as u32);
                CompiledPred::Code {
                    col: column.clone(),
                    code,
                }
            }
        })
    }

    /// The scan primitive: prune segments via zone maps, decode only
    /// `columns` (plus the predicate column) of the survivors, apply `map`
    /// to each surviving segment's batch, and fold the results **in segment
    /// order** with `merge`. Returns `Ok((None, stats))` when every segment
    /// was pruned (or the set is empty).
    ///
    /// Segments run in parallel on [`fact_par::par_map`]; the ordered fold
    /// makes the result bit-identical at any worker count. Every decoded
    /// categorical column is checked against the manifest dictionary
    /// before `map` sees it: an out-of-range code is
    /// [`FactError::Corrupt`], so `map` may index with codes unchecked.
    pub fn scan_fold<T, M, R>(
        &self,
        columns: &[&str],
        pred: &Predicate,
        map: M,
        merge: R,
    ) -> Result<(Option<T>, ScanStats)>
    where
        T: Send,
        M: Fn(&SegmentBatch) -> Result<T> + Sync,
        R: Fn(T, T) -> T,
    {
        for &c in columns {
            self.field(c)?;
        }
        let compiled = self.compile(pred)?;
        // decode the predicate column alongside the requested ones
        let mut decode: Vec<&str> = columns.to_vec();
        if let Some(pc) = pred.column() {
            if !decode.contains(&pc) {
                decode.push(pc);
            }
        }
        let n_seg = self.n_segments();
        let per_seg: Vec<Result<(Option<T>, SegScan)>> =
            fact_par::par_map(n_seg, 1, |i| self.scan_one(i, &decode, &compiled, &map));
        let mut stats = ScanStats {
            segments_total: n_seg,
            bytes_total: self.manifest.segments.iter().map(|s| s.bytes).sum(),
            ..ScanStats::default()
        };
        let mut acc: Option<T> = None;
        for r in per_seg {
            let (t, s) = r?;
            stats.bytes_read += s.bytes_read;
            if s.pruned {
                stats.segments_pruned += 1;
            } else {
                stats.segments_scanned += 1;
                stats.rows_scanned += s.rows_scanned;
                stats.rows_matched += s.rows_matched;
            }
            acc = match (acc, t) {
                (Some(a), Some(b)) => Some(merge(a, b)),
                (None, Some(b)) => Some(b),
                (a, None) => a,
            };
        }
        Ok((acc, stats))
    }

    fn scan_one<T, M>(
        &self,
        i: usize,
        decode: &[&str],
        pred: &CompiledPred,
        map: &M,
    ) -> Result<(Option<T>, SegScan)>
    where
        M: Fn(&SegmentBatch) -> Result<T>,
    {
        let mut reader = self.open_segment(i)?;
        let mut scan = SegScan {
            bytes_read: reader.overhead_bytes(),
            ..SegScan::default()
        };
        // zone-map pruning: can any row of this segment match?
        let prunable = match pred {
            CompiledPred::All => false,
            CompiledPred::Range { col, min, max } => {
                !reader.column_meta(col)?.zone.may_overlap_range(*min, *max)
            }
            CompiledPred::Code { col, code } => match code {
                None => true, // label absent from the dictionary entirely
                Some(c) => !reader.column_meta(col)?.zone.may_contain_code(*c),
            },
        };
        if prunable {
            scan.pruned = true;
            return Ok((None, scan));
        }
        let n_rows = reader.header().n_rows as usize;
        let mut cols = Vec::with_capacity(decode.len());
        for &name in decode {
            let (values, validity, bytes) = reader.read_column(name)?;
            scan.bytes_read += bytes;
            // segment bodies carry no checksum
            if let DecodedValues::Codes(codes) = &values {
                check_codes(codes, self.dict(name)?.len())?;
            }
            cols.push(BatchColumn {
                name: name.to_string(),
                values,
                validity,
            });
        }
        let keep = match pred {
            CompiledPred::All => None,
            CompiledPred::Range { col, min, max } => {
                let c = cols.iter().find(|b| b.name == *col).expect("decoded above");
                Some(
                    (0..n_rows)
                        .filter(|&r| c.f64_at(r).is_some_and(|v| v >= *min && v <= *max))
                        .collect::<Vec<usize>>(),
                )
            }
            CompiledPred::Code { col, code } => {
                let c = cols.iter().find(|b| b.name == *col).expect("decoded above");
                let code = code.expect("absent labels prune every segment");
                let codes = match &c.values {
                    DecodedValues::Codes(v) => v,
                    _ => unreachable!("CatIs validated as categorical"),
                };
                Some(
                    (0..n_rows)
                        .filter(|&r| !c.is_null(r) && codes[r] == code)
                        .collect::<Vec<usize>>(),
                )
            }
        };
        scan.rows_scanned = n_rows as u64;
        scan.rows_matched = keep.as_ref().map_or(n_rows, |k| k.len()) as u64;
        let batch = SegmentBatch {
            seg_index: i,
            n_rows,
            keep,
            columns: cols,
        };
        Ok((Some(map(&batch)?), scan))
    }

    /// Materialize the matching rows of the requested columns as a new
    /// [`Dataset`] (columns in the requested order, rows in segment order).
    /// Dictionary columns keep the set's global dictionary, exactly as
    /// [`Dataset::filter`] keeps a filtered column's dictionary.
    pub fn scan_columns(&self, columns: &[&str], pred: &Predicate) -> Result<(Dataset, ScanStats)> {
        let (parts, stats) = self.scan_fold(
            columns,
            pred,
            |batch| {
                let mut out: Vec<(DecodedValues, Option<Vec<bool>>)> =
                    Vec::with_capacity(columns.len());
                for &name in columns {
                    let c = batch.column(name)?;
                    out.push(gather(c, batch));
                }
                Ok(out)
            },
            |mut a: Vec<(DecodedValues, Option<Vec<bool>>)>, b| {
                for (dst, src) in a.iter_mut().zip(b) {
                    concat_part(dst, src);
                }
                a
            },
        )?;
        let mut cols: Vec<Column> = Vec::with_capacity(columns.len());
        let mut fields = Vec::with_capacity(columns.len());
        for (idx, &name) in columns.iter().enumerate() {
            let f = self.field(name)?;
            let dtype = file::parse_dtype(&f.dtype)?;
            let mut field = Field::new(f.name.clone(), dtype);
            field.sensitive = f.sensitive;
            field.quasi_identifier = f.quasi_identifier;
            fields.push(field);
            let (values, validity) = match &parts {
                Some(p) => p[idx].clone(),
                None => (empty_values(dtype), None),
            };
            cols.push(super::codec::rebuild_column(
                values,
                validity,
                f.dict.as_deref(),
            )?);
        }
        let n = cols.first().map_or(0, |c| c.len());
        Ok((
            Dataset::from_parts(Schema::from_fields(fields), cols, n),
            stats,
        ))
    }
}

/// Per-segment scan accounting, merged into [`ScanStats`].
#[derive(Debug, Default)]
struct SegScan {
    bytes_read: u64,
    rows_scanned: u64,
    rows_matched: u64,
    pruned: bool,
}

fn empty_values(dtype: DataType) -> DecodedValues {
    match dtype {
        DataType::Float => DecodedValues::Float(Vec::new()),
        DataType::Int => DecodedValues::Int(Vec::new()),
        DataType::Bool => DecodedValues::Bool(Vec::new()),
        DataType::Cat => DecodedValues::Codes(Vec::new()),
    }
}

/// Gather a batch column's matching rows into an owned part.
fn gather(c: &BatchColumn, batch: &SegmentBatch) -> (DecodedValues, Option<Vec<bool>>) {
    let values = match (&c.values, &batch.keep) {
        (v, None) => v.clone(),
        (DecodedValues::Float(v), Some(k)) => {
            DecodedValues::Float(k.iter().map(|&i| v[i]).collect())
        }
        (DecodedValues::Int(v), Some(k)) => DecodedValues::Int(k.iter().map(|&i| v[i]).collect()),
        (DecodedValues::Bool(v), Some(k)) => DecodedValues::Bool(k.iter().map(|&i| v[i]).collect()),
        (DecodedValues::Codes(v), Some(k)) => {
            DecodedValues::Codes(k.iter().map(|&i| v[i]).collect())
        }
    };
    let validity = match (&c.validity, &batch.keep) {
        (None, _) => None,
        (Some(m), None) => Some(m.clone()),
        (Some(m), Some(k)) => Some(k.iter().map(|&i| m[i]).collect::<Vec<bool>>()),
    }
    // drop masks that became all-true after filtering, matching Column::take
    .filter(|m| m.iter().any(|&v| !v));
    (values, validity)
}

/// Append part `b` onto part `a` (same column, consecutive segments).
fn concat_part(a: &mut (DecodedValues, Option<Vec<bool>>), b: (DecodedValues, Option<Vec<bool>>)) {
    let a_len = a.0.len();
    let b_len = b.0.len();
    match (&mut a.0, b.0) {
        (DecodedValues::Float(x), DecodedValues::Float(y)) => x.extend(y),
        (DecodedValues::Int(x), DecodedValues::Int(y)) => x.extend(y),
        (DecodedValues::Bool(x), DecodedValues::Bool(y)) => x.extend(y),
        (DecodedValues::Codes(x), DecodedValues::Codes(y)) => x.extend(y),
        _ => unreachable!("segments of one column share a dtype"),
    }
    a.1 = match (a.1.take(), b.1) {
        (None, None) => None,
        (av, bv) => {
            let mut mask = av.unwrap_or_else(|| vec![true; a_len]);
            match bv {
                Some(m) => mask.extend(m),
                None => mask.extend(std::iter::repeat_n(true, b_len)),
            }
            Some(mask)
        }
    };
}
