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
//! # The selection contract
//!
//! For each surviving segment the scan builds one [`Selection`] before the
//! fold runs: the rows that pass the predicate (a `Range` row holds a
//! non-null value inside the bounds, a `CatIs` row a non-null code equal to
//! the label's) and are non-null in every column the caller named, either
//! as "all `n` rows" or as an ascending row list. A selection is built by
//! compaction: every row is written to the list, and only a kept row
//! advances the write position. A fold then loops over it with no per-row
//! predicate test, null check or dispatch, counting dictionary codes into
//! dense tables (`pos[code] += label`). Each consumer's null rule is which columns it
//! names; [`SegmentBatch`] lists them. [`ScanStats::rows_matched`] counts
//! the rows the predicate kept, before any null is left out.
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

/// The rows of one segment a fold visits, in ascending order.
///
/// A scan builds one per surviving segment, before the fold runs: the rows
/// that pass the predicate and are non-null in every column the caller
/// named in `non_null`. A fold then loops over the selection with no
/// per-row predicate, null check or dispatch; see [`SegmentBatch`] for
/// each consumer's null rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row `0..n`.
    All(usize),
    /// These rows, ascending; some rows of the segment are left out.
    Rows(Vec<usize>),
}

impl Selection {
    /// The rows of `0..n` that are valid in every given mask (`None` = no
    /// nulls), which is how an in-memory fold builds the selection a
    /// segment scan hands it.
    pub fn valid_in(n: usize, masks: &[Option<&[bool]>]) -> Selection {
        masks
            .iter()
            .fold(Selection::All(n), |sel, m| sel.restrict(*m))
    }

    /// The rows of `0..n` for which `keep` holds, by compaction: every
    /// row is written, and only a kept row advances the write position.
    fn matching(n: usize, keep: impl Fn(usize) -> bool) -> Selection {
        let mut rows = vec![0usize; n];
        let mut len = 0;
        for i in 0..n {
            rows[len] = i;
            len += usize::from(keep(i));
        }
        if len == n {
            return Selection::All(n);
        }
        rows.truncate(len);
        Selection::Rows(rows)
    }

    /// The selected rows that are also valid in `mask`.
    fn restrict(self, mask: Option<&[bool]>) -> Selection {
        match (self, mask) {
            (sel, None) => sel,
            (Selection::All(n), Some(m)) => Selection::matching(n, |i| m[i]),
            (Selection::Rows(mut rows), Some(m)) => {
                let mut len = 0;
                for j in 0..rows.len() {
                    let i = rows[j];
                    rows[len] = i;
                    len += usize::from(m[i]);
                }
                rows.truncate(len);
                Selection::Rows(rows)
            }
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Call `f` with each selected row, ascending. The variant is matched
    /// once, so `f` runs in a loop of its own for each.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            Selection::All(n) => (0..*n).for_each(f),
            Selection::Rows(rows) => rows.iter().for_each(|&i| f(i)),
        }
    }
}

/// The decoded slice of one surviving segment: the requested columns plus
/// the [`Selection`] of rows the fold visits.
///
/// The selection holds the rows that pass the scan's predicate and are
/// non-null in the columns the scan was asked to keep non-null. Each fold
/// names those columns by its own null rule:
///
/// * `group_rates_segments` names the label and the group: a row with
///   either null is not counted;
/// * `intersectional_audit_segments` names the prediction and every
///   attribute; the rows left out are its `skipped_rows`;
/// * `aggregate_segments` and `scan_columns` name none: a null key is its
///   own `null` group and `Count` counts null values, while the other
///   aggregates skip a null value through the column's validity mask.
#[derive(Debug)]
pub struct SegmentBatch {
    /// Index of the segment within the set.
    pub seg_index: usize,
    /// Rows in the segment (before filtering).
    pub n_rows: usize,
    selection: Selection,
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

    /// The rows the fold visits.
    pub fn selection(&self) -> &Selection {
        &self.selection
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
    /// A header whose row count differs from the manifest's entry is
    /// [`FactError::Corrupt`]: every decoder sizes its output by it.
    fn open_segment(&self, i: usize) -> Result<SegmentReader> {
        let cached = self
            .headers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&i)
            .cloned();
        let hit = cached.is_some();
        let reader = SegmentReader::open_with(&self.segment_path(i), cached)?;
        let want = self.manifest.segments[i].rows;
        if reader.header().n_rows != want {
            return Err(FactError::Corrupt(format!(
                "segment {i}: header declares {} rows, the manifest {want}",
                reader.header().n_rows
            )));
        }
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
    /// `columns` (plus the predicate and `non_null` columns) of the
    /// survivors, build each
    /// survivor's [`Selection`] (the rows that pass `pred` and are non-null
    /// in every column of `non_null`), apply `map` to its batch, and fold
    /// the results **in segment order** with `merge`. Returns
    /// `Ok((None, stats))` when every segment was pruned (or the set is
    /// empty).
    ///
    /// Segments run in parallel on [`fact_par::par_map`]; the ordered fold
    /// makes the result bit-identical at any worker count. Every decoded
    /// column is checked against the manifest before `map` sees it: a
    /// segment whose row count or column type disagrees with the manifest,
    /// or whose categorical codes fall outside the manifest dictionary, is
    /// [`FactError::Corrupt`], so `map` may index with codes unchecked and
    /// match on the manifest's types.
    pub fn scan_fold<T, M, R>(
        &self,
        columns: &[&str],
        non_null: &[&str],
        pred: &Predicate,
        map: M,
        merge: R,
    ) -> Result<(Option<T>, ScanStats)>
    where
        T: Send,
        M: Fn(&SegmentBatch) -> Result<T> + Sync,
        R: Fn(T, T) -> T,
    {
        let compiled = self.compile(pred)?;
        // decode the predicate and non-null columns alongside the requested
        // ones
        let mut decode: Vec<&str> = Vec::with_capacity(columns.len() + non_null.len() + 1);
        for &c in columns.iter().chain(non_null).chain(pred.column().as_ref()) {
            self.field(c)?;
            if !decode.contains(&c) {
                decode.push(c);
            }
        }
        let n_seg = self.n_segments();
        let per_seg: Vec<Result<(Option<T>, SegScan)>> = fact_par::par_map(n_seg, 1, |i| {
            self.scan_one(i, &decode, non_null, &compiled, &map)
        });
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
        non_null: &[&str],
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
            let field = self.field(name)?;
            if reader.column_meta(name)?.dtype != field.dtype {
                return Err(FactError::Corrupt(format!(
                    "segment {i}: column '{name}' is stored as {} but the manifest says {}",
                    reader.column_meta(name)?.dtype,
                    field.dtype
                )));
            }
            let (values, validity, bytes) = reader.read_column(name)?;
            scan.bytes_read += bytes;
            // segment bodies carry no checksum
            if let (DecodedValues::Codes(codes), Some(dict)) = (&values, &field.dict) {
                check_codes(codes, dict.len())?;
            }
            cols.push(BatchColumn {
                name: name.to_string(),
                values,
                validity,
            });
        }
        let col = |name: &str| cols.iter().find(|b| b.name == name).expect("decoded above");
        let selection = match pred {
            CompiledPred::All => Selection::All(n_rows),
            CompiledPred::Range {
                col: name,
                min,
                max,
            } => {
                let c = col(name);
                Selection::matching(n_rows, |r| {
                    c.values.as_f64(r).is_some_and(|v| v >= *min && v <= *max)
                })
                .restrict(c.validity.as_deref())
            }
            CompiledPred::Code { col: name, code } => {
                let c = col(name);
                let code = code.expect("absent labels prune every segment");
                let codes = match &c.values {
                    DecodedValues::Codes(v) => v,
                    _ => unreachable!("CatIs validated as categorical"),
                };
                Selection::matching(n_rows, |r| codes[r] == code).restrict(c.validity.as_deref())
            }
        };
        scan.rows_scanned = n_rows as u64;
        scan.rows_matched = selection.len() as u64;
        let selection = non_null.iter().fold(selection, |sel, &name| {
            sel.restrict(col(name).validity.as_deref())
        });
        let batch = SegmentBatch {
            seg_index: i,
            n_rows,
            selection,
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
            &[],
            pred,
            |batch| {
                let mut out: Vec<(DecodedValues, Option<Vec<bool>>)> =
                    Vec::with_capacity(columns.len());
                for &name in columns {
                    let c = batch.column(name)?;
                    out.push(gather(c, batch.selection()));
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

/// Gather a batch column's selected rows into an owned part.
fn gather(c: &BatchColumn, sel: &Selection) -> (DecodedValues, Option<Vec<bool>>) {
    let (values, validity) = match sel {
        Selection::All(_) => (c.values.clone(), c.validity.clone()),
        Selection::Rows(k) => (
            match &c.values {
                DecodedValues::Float(v) => DecodedValues::Float(k.iter().map(|&i| v[i]).collect()),
                DecodedValues::Int(v) => DecodedValues::Int(k.iter().map(|&i| v[i]).collect()),
                DecodedValues::Bool(v) => DecodedValues::Bool(k.iter().map(|&i| v[i]).collect()),
                DecodedValues::Codes(v) => DecodedValues::Codes(k.iter().map(|&i| v[i]).collect()),
            },
            c.validity
                .as_ref()
                .map(|m| k.iter().map(|&i| m[i]).collect()),
        ),
    };
    // drop masks that became all-true after filtering, matching Column::take
    (
        values,
        validity.filter(|m: &Vec<bool>| m.iter().any(|&v| !v)),
    )
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
