//! Multi-column group-by aggregation.
//!
//! A thin analytic layer over [`Dataset::group_by`]: one pass produces a new
//! dataset with one row per group and one column per requested aggregate —
//! the workhorse shape of every audit table in the FACT reports.
//!
//! Two engines share the same aggregate semantics:
//!
//! * [`aggregate`] runs over an in-memory [`Dataset`], accumulating through
//!   borrowed column storage (no per-group materialization);
//! * [`aggregate_segments`] runs over an on-disk [`SegmentSet`] through the
//!   column-pruned, zone-map-accelerated scan — only the key and aggregate
//!   columns are read, segments the predicate's zone maps exclude are
//!   skipped, and per-segment partials are merged in segment order so the
//!   result is bit-identical at any `fact_par` worker count.

use std::collections::HashMap;

use crate::column::{Column, ColumnData};
use crate::error::{FactError, Result};
use crate::frame::Dataset;
use crate::segment::{
    BatchColumn, DecodedValues, Predicate, ScanStats, SegmentBatch, SegmentSet, Selection,
};
use crate::value::DataType;

/// An aggregate function over a numeric/bool column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count of the group (column still required for naming symmetry).
    Count,
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFn {
    fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Mean => "mean",
            AggFn::Min => "min",
            AggFn::Max => "max",
        }
    }
}

/// One aggregation request: `(column, function)`.
pub type AggSpec<'a> = (&'a str, AggFn);

/// Group `ds` by `key` and compute each aggregate. Output columns are named
/// `{column}_{fn}` plus the leading key column; groups appear in
/// first-appearance order.
pub fn aggregate(ds: &Dataset, key: &str, specs: &[AggSpec<'_>]) -> Result<Dataset> {
    if specs.is_empty() {
        return Err(FactError::InvalidArgument(
            "at least one aggregate is required".into(),
        ));
    }
    let groups = ds.group_by(key)?;
    let keys: Vec<String> = groups.keys().iter().map(|k| k.to_string()).collect();
    let mut out = Dataset::builder().cat(key, &keys).build()?;

    for &(col_name, f) in specs {
        let col = ds.column(col_name)?;
        let mut vals = Vec::with_capacity(keys.len());
        if f == AggFn::Count {
            for k in &keys {
                let idx = groups.indices(k).expect("key from groups");
                vals.push(idx.len() as f64);
            }
        } else {
            // borrow the column storage once; accumulate per group without
            // materializing per-group sub-columns
            let view = NumView::of(col, col_name)?;
            let validity = col.validity();
            for k in &keys {
                let idx = groups.indices(k).expect("key from groups");
                let mut acc = Acc::new();
                for &i in idx {
                    acc.push_if(view.get(i), validity.is_none_or(|m| m[i]));
                }
                vals.push(acc.finish(f)?);
            }
        }
        out.add_column(format!("{col_name}_{}", f.name()), Column::from_f64(vals))?;
    }
    Ok(out)
}

/// Borrowed numeric view over a column's storage (ints widened, bools 0/1).
enum NumView<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    B(&'a [bool]),
}

impl<'a> NumView<'a> {
    fn of(col: &'a Column, name: &str) -> Result<NumView<'a>> {
        match col.data() {
            ColumnData::Float(v) => Ok(NumView::F(v)),
            ColumnData::Int(v) => Ok(NumView::I(v)),
            ColumnData::Bool(v) => Ok(NumView::B(v)),
            ColumnData::Cat(_) => Err(FactError::TypeMismatch {
                column: name.to_string(),
                expected: DataType::Float,
                actual: DataType::Cat,
            }),
        }
    }

    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::F(v) => v[i],
            NumView::I(v) => v[i] as f64,
            NumView::B(v) => {
                if v[i] {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Running aggregate state over the valid values of one group.
#[derive(Clone, Copy)]
struct Acc {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    fn new() -> Self {
        Acc {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in `v` when `valid`. An invalid row still runs the same
    /// update, with identities that leave the accumulator bit for bit
    /// unchanged: 0 for `n`, `+0.0` for `sum` (which starts at `+0.0` and
    /// so is never `-0.0`) and `±∞` for `min`/`max` (which are never NaN).
    #[inline]
    fn push_if(&mut self, v: f64, valid: bool) {
        self.n += u64::from(valid);
        self.sum += if valid { v } else { 0.0 };
        self.min = self.min.min(if valid { v } else { f64::INFINITY });
        self.max = self.max.max(if valid { v } else { f64::NEG_INFINITY });
    }

    /// Fold another accumulator in (segment-order merge).
    fn merge(&mut self, other: &Acc) {
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn finish(&self, f: AggFn) -> Result<f64> {
        match f {
            AggFn::Count => unreachable!("Count never builds an Acc"),
            AggFn::Sum => Ok(self.sum),
            AggFn::Mean => {
                if self.n == 0 {
                    Err(FactError::EmptyData("mean of empty column".into()))
                } else {
                    Ok(self.sum / self.n as f64)
                }
            }
            AggFn::Min | AggFn::Max => {
                if self.n == 0 {
                    Err(FactError::EmptyData("reduction over empty column".into()))
                } else {
                    Ok(if f == AggFn::Min { self.min } else { self.max })
                }
            }
        }
    }
}

/// A group key as seen inside a segment scan. Kept typed (not stringified)
/// until finalization so dictionary codes compare as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GKey {
    Code(u32),
    Int(i64),
    Bool(bool),
    Null,
}

/// Per-segment aggregation partial: groups in first-appearance order plus
/// their accumulators (parallel to the spec list; `rows` feeds `Count`).
struct Partial {
    order: Vec<GKey>,
    cells: HashMap<GKey, (u64, Vec<Acc>)>,
}

/// Group an on-disk segment set by `key` and compute each aggregate over
/// the rows matching `pred`, reading **only** the key and aggregate columns
/// and skipping segments whose zone maps exclude the predicate.
///
/// Semantics match [`aggregate`] on the equivalent filtered dataset: same
/// output columns (`{column}_{fn}` after the key), groups in
/// first-appearance (row) order, `Count` counting nulls, the other
/// functions over valid values only. Sums associate per segment rather than
/// globally, so `Sum`/`Mean` can differ from the in-memory engine in the
/// last ulps; the result is still bit-identical at any worker count because
/// partials merge in segment order.
///
/// Errors mirror [`aggregate`] (empty spec list, non-groupable key type,
/// categorical aggregate column, `Mean`/`Min`/`Max` over a group with no
/// valid values) plus scan errors from the segment layer.
pub fn aggregate_segments(
    set: &SegmentSet,
    key: &str,
    specs: &[AggSpec<'_>],
    pred: &Predicate,
) -> Result<(Dataset, ScanStats)> {
    if specs.is_empty() {
        return Err(FactError::InvalidArgument(
            "at least one aggregate is required".into(),
        ));
    }
    let key_dt = set.dtype(key)?;
    if !matches!(key_dt, DataType::Cat | DataType::Bool | DataType::Int) {
        return Err(FactError::TypeMismatch {
            column: key.to_string(),
            expected: DataType::Cat,
            actual: key_dt,
        });
    }
    for &(col, f) in specs {
        let dt = set.dtype(col)?;
        if f != AggFn::Count && dt == DataType::Cat {
            return Err(FactError::TypeMismatch {
                column: col.to_string(),
                expected: DataType::Float,
                actual: dt,
            });
        }
    }
    let mut columns: Vec<&str> = vec![key];
    for &(col, _) in specs {
        if !columns.contains(&col) {
            columns.push(col);
        }
    }
    let n_codes = if key_dt == DataType::Cat {
        set.dict(key)?.len()
    } else {
        0
    };
    let (partial, stats) = set.scan_fold(
        &columns,
        &[],
        pred,
        |batch| partial_of(batch, key, n_codes, specs),
        |mut a: Partial, b: Partial| {
            for k in b.order {
                let (rows, accs) = b.cells.get(&k).expect("key from order");
                match a.cells.get_mut(&k) {
                    Some((a_rows, a_accs)) => {
                        *a_rows += rows;
                        for (x, y) in a_accs.iter_mut().zip(accs) {
                            x.merge(y);
                        }
                    }
                    None => {
                        a.order.push(k);
                        a.cells.insert(k, (*rows, accs.clone()));
                    }
                }
            }
            a
        },
    )?;
    let partial = partial.unwrap_or(Partial {
        order: Vec::new(),
        cells: HashMap::new(),
    });
    let dict = if key_dt == DataType::Cat {
        Some(set.dict(key)?)
    } else {
        None
    };
    let keys: Vec<String> = partial
        .order
        .iter()
        .map(|k| match k {
            GKey::Code(c) => dict.expect("cat key has a dictionary")[*c as usize].clone(),
            GKey::Int(v) => v.to_string(),
            GKey::Bool(b) => b.to_string(),
            GKey::Null => "null".to_string(),
        })
        .collect();
    let mut out = Dataset::builder().cat(key, &keys).build()?;
    for (j, &(col_name, f)) in specs.iter().enumerate() {
        let mut vals = Vec::with_capacity(keys.len());
        for k in &partial.order {
            let (rows, accs) = &partial.cells[k];
            vals.push(match f {
                AggFn::Count => *rows as f64,
                _ => accs[j].finish(f)?,
            });
        }
        out.add_column(format!("{col_name}_{}", f.name()), Column::from_f64(vals))?;
    }
    Ok((out, stats))
}

/// Aggregate the selected rows of one segment batch (`n_codes` is the
/// key's dictionary size when it is categorical).
///
/// Each selected row gets a dense slot for its key, slot 0 being the null
/// key: a code or bool is its own slot, and only an `Int` key is looked up
/// in a map that numbers its values. Row counts and each group's first
/// appearance are tallied over the slots without a data-dependent branch,
/// and each aggregate column is accumulated column-at-a-time with its type
/// dispatch hoisted out of the row loop.
/// Values accumulate in row order per slot, so every float sum associates
/// exactly as a row-at-a-time fold would.
fn partial_of(
    batch: &SegmentBatch,
    key: &str,
    n_codes: usize,
    specs: &[AggSpec<'_>],
) -> Result<Partial> {
    let sel = batch.selection();
    let key_col = batch.column(key)?;
    let (slots, slot_keys) = key_slots(key_col, sel, n_codes);
    let n_slots = slot_keys.len();
    let mut rows_by = vec![0u64; n_slots];
    let mut first = vec![usize::MAX; n_slots];
    for (j, &slot) in slots.iter().enumerate() {
        let slot = slot as usize;
        rows_by[slot] += 1;
        first[slot] = first[slot].min(j);
    }
    let mut order: Vec<usize> = (0..n_slots).filter(|&s| rows_by[s] > 0).collect();
    order.sort_unstable_by_key(|&s| first[s]);

    // one dense accumulator vector per distinct aggregate column
    let mut dense: Vec<(&str, Vec<Acc>)> = Vec::new();
    for &(name, f) in specs {
        if f == AggFn::Count || dense.iter().any(|(n, _)| *n == name) {
            continue;
        }
        let bc = batch.column(name)?;
        let mut accs = vec![Acc::new(); n_slots];
        let valid = bc.validity.as_deref();
        match &bc.values {
            DecodedValues::Float(v) => dense_pass(sel, &slots, valid, &mut accs, |i| v[i]),
            DecodedValues::Int(v) => dense_pass(sel, &slots, valid, &mut accs, |i| v[i] as f64),
            DecodedValues::Bool(v) => {
                dense_pass(sel, &slots, valid, &mut accs, |i| f64::from(u8::from(v[i])))
            }
            DecodedValues::Codes(_) => {
                unreachable!("non-Count aggregate columns are validated as non-categorical")
            }
        }
        dense.push((name, accs));
    }

    let mut partial = Partial {
        order: Vec::with_capacity(order.len()),
        cells: HashMap::with_capacity(order.len()),
    };
    for slot in order {
        let accs: Vec<Acc> = specs
            .iter()
            .map(|&(name, f)| match dense.iter().find(|(n, _)| *n == name) {
                Some((_, accs)) if f != AggFn::Count => accs[slot],
                _ => Acc::new(),
            })
            .collect();
        partial.order.push(slot_keys[slot]);
        partial.cells.insert(slot_keys[slot], (rows_by[slot], accs));
    }
    Ok(partial)
}

/// The slot of each selected row's key, in selection order, and the key of
/// each slot. Slot 0 is the null key; a null row's slot is zeroed by
/// multiplying with its validity bit.
fn key_slots(key_col: &BatchColumn, sel: &Selection, n_codes: usize) -> (Vec<u32>, Vec<GKey>) {
    let mut slots: Vec<u32> = Vec::with_capacity(sel.len());
    let mut keys = vec![GKey::Null];
    match &key_col.values {
        DecodedValues::Codes(v) => {
            sel.for_each(|i| slots.push(v[i] + 1));
            keys.extend((0..n_codes as u32).map(GKey::Code));
        }
        DecodedValues::Bool(v) => {
            sel.for_each(|i| slots.push(u32::from(v[i]) + 1));
            keys.extend([GKey::Bool(false), GKey::Bool(true)]);
        }
        DecodedValues::Int(v) => {
            let mut numbered: HashMap<i64, u32> = HashMap::new();
            sel.for_each(|i| {
                let next = keys.len() as u32;
                let slot = *numbered.entry(v[i]).or_insert_with(|| {
                    keys.push(GKey::Int(v[i]));
                    next
                });
                slots.push(slot);
            });
        }
        DecodedValues::Float(_) => unreachable!("key type validated before the scan"),
    }
    if let Some(m) = &key_col.validity {
        let mut j = 0;
        sel.for_each(|i| {
            slots[j] *= u32::from(m[i]);
            j += 1;
        });
    }
    (slots, keys)
}

/// The accumulation loop of an aggregate column: the value of the `j`-th
/// selected row goes to slot `slots[j]`, as a masked push when the column
/// has nulls.
fn dense_pass(
    sel: &Selection,
    slots: &[u32],
    validity: Option<&[bool]>,
    accs: &mut [Acc],
    value: impl Fn(usize) -> f64,
) {
    let mut j = 0;
    match validity {
        None => sel.for_each(|i| {
            accs[slots[j] as usize].push_if(value(i), true);
            j += 1;
        }),
        Some(m) => sel.for_each(|i| {
            accs[slots[j] as usize].push_if(value(i), m[i]);
            j += 1;
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Dataset {
        Dataset::builder()
            .cat("region", &["n", "s", "n", "s", "n"])
            .f64("amount", vec![10.0, 20.0, 30.0, 40.0, 50.0])
            .boolean("won", vec![true, false, true, true, false])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_aggregates() {
        let out = aggregate(
            &sales(),
            "region",
            &[
                ("amount", AggFn::Sum),
                ("amount", AggFn::Mean),
                ("amount", AggFn::Min),
                ("amount", AggFn::Max),
                ("amount", AggFn::Count),
            ],
        )
        .unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.labels("region").unwrap(), vec!["n", "s"]);
        assert_eq!(out.f64_column("amount_sum").unwrap(), vec![90.0, 60.0]);
        assert_eq!(out.f64_column("amount_mean").unwrap(), vec![30.0, 30.0]);
        assert_eq!(out.f64_column("amount_min").unwrap(), vec![10.0, 20.0]);
        assert_eq!(out.f64_column("amount_max").unwrap(), vec![50.0, 40.0]);
        assert_eq!(out.f64_column("amount_count").unwrap(), vec![3.0, 2.0]);
    }

    #[test]
    fn bool_columns_aggregate_as_rates() {
        let out = aggregate(&sales(), "region", &[("won", AggFn::Mean)]).unwrap();
        let rates = out.f64_column("won_mean").unwrap();
        assert!((rates[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((rates[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(aggregate(&sales(), "region", &[]).is_err());
        assert!(aggregate(&sales(), "amount", &[("amount", AggFn::Sum)]).is_err());
        assert!(aggregate(&sales(), "region", &[("ghost", AggFn::Sum)]).is_err());
        // categorical column cannot be summed
        assert!(aggregate(&sales(), "region", &[("region", AggFn::Sum)]).is_err());
    }
}
