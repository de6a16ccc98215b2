//! Typed, dictionary-encoded columns with null tracking.
//!
//! Storage follows the columnar layout recommended for analytic engines:
//! contiguous `Vec`s per column, dictionary encoding for categoricals, and an
//! optional validity mask (`true` = value present). Operations pre-allocate
//! their outputs.

use std::collections::HashMap;

use crate::error::{FactError, Result};
use crate::value::{DataType, Value};

/// Dictionary-encoded categorical storage: `codes[i]` indexes into `dict`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatData {
    /// Per-row dictionary codes.
    pub codes: Vec<u32>,
    /// Distinct labels; `dict[code]` is the label for `code`.
    pub dict: Vec<String>,
}

impl CatData {
    /// Build categorical storage from string labels, constructing the
    /// dictionary in first-appearance order. Codes are found through a
    /// hash map that borrows the input labels, so n rows cost O(n) however
    /// many of them are distinct.
    pub fn from_labels<S: AsRef<str>>(labels: &[S]) -> Self {
        let mut code_of: HashMap<&str, u32> = HashMap::new();
        let mut dict: Vec<String> = Vec::new();
        let codes = (labels.iter())
            .map(|l| {
                let l = l.as_ref();
                *code_of.entry(l).or_insert_with(|| {
                    dict.push(l.to_string());
                    (dict.len() - 1) as u32
                })
            })
            .collect();
        CatData { codes, dict }
    }

    /// The label for row `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// The dictionary code for `label`, if present.
    pub fn code_of(&self, label: &str) -> Option<u32> {
        self.dict.iter().position(|d| d == label).map(|i| i as u32)
    }

    /// Number of distinct labels.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }
}

/// Check that every code in `codes` indexes an `n_labels`-entry dictionary,
/// in one max-over-slice pass. An out-of-range code is
/// [`FactError::Corrupt`]: consumers index tallies and dictionaries with
/// codes checked here, never per row.
pub fn check_codes(codes: &[u32], n_labels: usize) -> Result<()> {
    let max = codes.iter().copied().fold(0, u32::max);
    if !codes.is_empty() && max as usize >= n_labels {
        return Err(FactError::Corrupt(format!(
            "dictionary code {max} out of range for {n_labels} labels"
        )));
    }
    Ok(())
}

/// The physical storage of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Contiguous `f64` storage.
    Float(Vec<f64>),
    /// Contiguous `i64` storage.
    Int(Vec<i64>),
    /// Contiguous `bool` storage.
    Bool(Vec<bool>),
    /// Dictionary-encoded categorical storage.
    Cat(CatData),
}

/// A typed column: physical storage plus an optional validity mask.
///
/// When `validity` is `None` every value is present. When it is `Some(mask)`,
/// `mask[i] == false` marks row `i` as null; the physical slot then holds an
/// arbitrary placeholder and must not be interpreted.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    /// A fully-valid float column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column {
            data: ColumnData::Float(values),
            validity: None,
        }
    }

    /// A fully-valid integer column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column {
            data: ColumnData::Int(values),
            validity: None,
        }
    }

    /// A fully-valid boolean column.
    pub fn from_bool(values: Vec<bool>) -> Self {
        Column {
            data: ColumnData::Bool(values),
            validity: None,
        }
    }

    /// A fully-valid categorical column built from string labels.
    pub fn from_labels<S: AsRef<str>>(labels: &[S]) -> Self {
        Column {
            data: ColumnData::Cat(CatData::from_labels(labels)),
            validity: None,
        }
    }

    /// A categorical column from pre-built dictionary storage (codes must
    /// index into the dictionary — used by the segment reader, which
    /// validates codes against the manifest dictionary before calling).
    pub fn from_cat(cat: CatData) -> Self {
        Column {
            data: ColumnData::Cat(cat),
            validity: None,
        }
    }

    /// A float column with nulls: `None` entries become null slots.
    pub fn from_f64_opt(values: Vec<Option<f64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut mask = Vec::with_capacity(values.len());
        let mut any_null = false;
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    mask.push(true);
                }
                None => {
                    data.push(f64::NAN);
                    mask.push(false);
                    any_null = true;
                }
            }
        }
        Column {
            data: ColumnData::Float(data),
            validity: if any_null { Some(mask) } else { None },
        }
    }

    /// Attach an explicit validity mask (length must match).
    pub fn with_validity(mut self, validity: Vec<bool>) -> Result<Self> {
        if validity.len() != self.len() {
            return Err(FactError::LengthMismatch {
                expected: self.len(),
                actual: validity.len(),
            });
        }
        self.validity = if validity.iter().all(|&v| v) {
            None
        } else {
            Some(validity)
        };
        Ok(self)
    }

    /// Borrow the physical storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Float(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Cat(c) => c.codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Cat(_) => DataType::Cat,
        }
    }

    /// Whether row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().map(|m| !m[i]).unwrap_or(false)
    }

    /// The validity mask (`false` = null), or `None` when every row is
    /// present.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    /// Count of null rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map(|m| m.iter().filter(|&&v| !v).count())
            .unwrap_or(0)
    }

    /// The value at row `i` (bounds-checked by the underlying `Vec`).
    pub fn get(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Cat(c) => Value::Cat(c.label(i).to_string()),
        }
    }

    /// Borrow float storage; errors on other types.
    pub fn as_f64_slice(&self) -> Result<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Ok(v),
            _ => Err(FactError::TypeMismatch {
                column: String::new(),
                expected: DataType::Float,
                actual: self.dtype(),
            }),
        }
    }

    /// Borrow bool storage; errors on other types.
    pub fn as_bool_slice(&self) -> Result<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Ok(v),
            _ => Err(FactError::TypeMismatch {
                column: String::new(),
                expected: DataType::Bool,
                actual: self.dtype(),
            }),
        }
    }

    /// Borrow int storage; errors on other types.
    pub fn as_i64_slice(&self) -> Result<&[i64]> {
        match &self.data {
            ColumnData::Int(v) => Ok(v),
            _ => Err(FactError::TypeMismatch {
                column: String::new(),
                expected: DataType::Int,
                actual: self.dtype(),
            }),
        }
    }

    /// Borrow categorical storage; errors on other types.
    pub fn as_cat(&self) -> Result<&CatData> {
        match &self.data {
            ColumnData::Cat(c) => Ok(c),
            _ => Err(FactError::TypeMismatch {
                column: String::new(),
                expected: DataType::Cat,
                actual: self.dtype(),
            }),
        }
    }

    /// Materialize the column as `f64` values (ints widened, bools 0/1).
    /// Nulls and categorical columns are rejected.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>> {
        let nulls = self.null_count();
        if nulls > 0 {
            return Err(FactError::NullNotAllowed {
                column: String::new(),
                count: nulls,
            });
        }
        match &self.data {
            ColumnData::Float(v) => Ok(v.clone()),
            ColumnData::Int(v) => Ok(v.iter().map(|&x| x as f64).collect()),
            ColumnData::Bool(v) => Ok(v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()),
            ColumnData::Cat(_) => Err(FactError::TypeMismatch {
                column: String::new(),
                expected: DataType::Float,
                actual: DataType::Cat,
            }),
        }
    }

    /// Materialize labels for a categorical column.
    ///
    /// The validity mask is ignored: a null slot yields the label of the
    /// placeholder code stored under it, indistinguishable from a real
    /// value. Check [`Column::is_null`] alongside, or count on
    /// [`Column::as_cat`] codes and skip nulls.
    pub fn to_labels(&self) -> Result<Vec<String>> {
        let c = self.as_cat()?;
        Ok((0..self.len()).map(|i| c.label(i).to_string()).collect())
    }

    /// Gather rows by index, preserving nulls. Indices must be in bounds.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Cat(c) => ColumnData::Cat(CatData {
                codes: indices.iter().map(|&i| c.codes[i]).collect(),
                dict: c.dict.clone(),
            }),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|m| indices.iter().map(|&i| m[i]).collect::<Vec<bool>>())
            .filter(|m| m.iter().any(|&v| !v));
        Column { data, validity }
    }

    /// Keep rows where `mask[i]` is true. `mask` must match the column length.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(FactError::LengthMismatch {
                expected: self.len(),
                actual: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.take(&indices))
    }

    /// Mean of the non-null values of a numeric/bool column.
    pub fn mean(&self) -> Result<f64> {
        let (sum, n) = self.fold_valid_f64()?;
        if n == 0 {
            return Err(FactError::EmptyData("mean of empty column".into()));
        }
        Ok(sum / n as f64)
    }

    /// Minimum of the non-null values of a numeric/bool column.
    pub fn min(&self) -> Result<f64> {
        self.reduce_valid_f64(f64::INFINITY, f64::min)
    }

    /// Maximum of the non-null values of a numeric/bool column.
    pub fn max(&self) -> Result<f64> {
        self.reduce_valid_f64(f64::NEG_INFINITY, f64::max)
    }

    /// Sample standard deviation (n-1 denominator) of non-null values.
    pub fn std(&self) -> Result<f64> {
        let mean = self.mean()?;
        let mut ss = 0.0;
        let mut n = 0usize;
        self.for_each_valid_f64(|x| {
            ss += (x - mean) * (x - mean);
            n += 1;
        })?;
        if n < 2 {
            return Err(FactError::EmptyData(
                "std requires at least 2 non-null values".into(),
            ));
        }
        Ok((ss / (n - 1) as f64).sqrt())
    }

    /// Counts per distinct value, as `(label, count)` pairs.
    ///
    /// For categorical columns, labels come from the dictionary; for bools,
    /// `"true"`/`"false"`; for numeric columns, the formatted value. Nulls are
    /// reported under `"null"`. Pairs are sorted by descending count, then
    /// label, for deterministic output.
    pub fn value_counts(&self) -> Vec<(String, usize)> {
        use std::collections::HashMap;
        let mut counts: HashMap<String, usize> = HashMap::new();
        for i in 0..self.len() {
            let key = self.get(i).to_string();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut pairs: Vec<(String, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs
    }

    fn fold_valid_f64(&self) -> Result<(f64, usize)> {
        let mut sum = 0.0;
        let mut n = 0usize;
        self.for_each_valid_f64(|x| {
            sum += x;
            n += 1;
        })?;
        Ok((sum, n))
    }

    fn reduce_valid_f64(&self, init: f64, f: fn(f64, f64) -> f64) -> Result<f64> {
        let mut acc = init;
        let mut n = 0usize;
        self.for_each_valid_f64(|x| {
            acc = f(acc, x);
            n += 1;
        })?;
        if n == 0 {
            return Err(FactError::EmptyData("reduction over empty column".into()));
        }
        Ok(acc)
    }

    /// Apply `f` to every non-null value, viewed as `f64`.
    /// Errors for categorical columns.
    pub fn for_each_valid_f64<F: FnMut(f64)>(&self, mut f: F) -> Result<()> {
        match &self.data {
            ColumnData::Float(v) => {
                for (i, &x) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        f(x);
                    }
                }
            }
            ColumnData::Int(v) => {
                for (i, &x) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        f(x as f64);
                    }
                }
            }
            ColumnData::Bool(v) => {
                for (i, &b) in v.iter().enumerate() {
                    if !self.is_null(i) {
                        f(if b { 1.0 } else { 0.0 });
                    }
                }
            }
            ColumnData::Cat(_) => {
                return Err(FactError::TypeMismatch {
                    column: String::new(),
                    expected: DataType::Float,
                    actual: DataType::Cat,
                })
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The linear-scan dictionary build `from_labels` replaced: the oracle.
    fn linear_from_labels(labels: &[String]) -> CatData {
        let mut dict: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(labels.len());
        for l in labels {
            let code = match dict.iter().position(|d| d == l) {
                Some(i) => i as u32,
                None => {
                    dict.push(l.clone());
                    (dict.len() - 1) as u32
                }
            };
            codes.push(code);
        }
        CatData { codes, dict }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hashed build gives the linear scan's dictionary, in
        /// first-appearance order, and its codes, for any label list:
        /// duplicates, the empty string and lookalike labels included.
        #[test]
        fn from_labels_matches_the_linear_scan(
            picks in prop::collection::vec(0usize..1_000, 0..300),
            distinct in 1usize..40,
        ) {
            const POOL: [&str; 6] = ["", "a", "A", "a ", " a", "ä"];
            let labels: Vec<String> = (picks.iter())
                .map(|&p| match p % distinct {
                    k if k < POOL.len() => POOL[k].to_string(),
                    k => format!("label-{k}"),
                })
                .collect();
            prop_assert_eq!(CatData::from_labels(&labels), linear_from_labels(&labels));
        }
    }

    #[test]
    fn cat_dictionary_built_in_first_appearance_order() {
        let c = CatData::from_labels(&["b", "a", "b", "c", "a"]);
        assert_eq!(c.dict, vec!["b", "a", "c"]);
        assert_eq!(c.codes, vec![0, 1, 0, 2, 1]);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.code_of("c"), Some(2));
        assert_eq!(c.code_of("z"), None);
        assert_eq!(c.label(3), "c");
    }

    #[test]
    fn column_basic_accessors() {
        let col = Column::from_f64(vec![1.0, 2.0, 3.0]);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col.dtype(), DataType::Float);
        assert_eq!(col.get(1), Value::Float(2.0));
        assert_eq!(col.null_count(), 0);
    }

    #[test]
    fn null_mask_round_trip() {
        let col = Column::from_f64_opt(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.null_count(), 1);
        assert!(col.is_null(1));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::Float(3.0));
        assert!(col.to_f64_vec().is_err());
    }

    #[test]
    fn all_true_validity_normalizes_to_none() {
        let col = Column::from_i64(vec![1, 2])
            .with_validity(vec![true, true])
            .unwrap();
        assert_eq!(col.null_count(), 0);
    }

    #[test]
    fn with_validity_rejects_wrong_length() {
        let res = Column::from_i64(vec![1, 2]).with_validity(vec![true]);
        assert!(matches!(res, Err(FactError::LengthMismatch { .. })));
    }

    #[test]
    fn take_gathers_and_preserves_nulls() {
        let col = Column::from_f64_opt(vec![Some(0.0), None, Some(2.0), Some(3.0)]);
        let taken = col.take(&[3, 1, 1, 0]);
        assert_eq!(taken.len(), 4);
        assert_eq!(taken.get(0), Value::Float(3.0));
        assert!(taken.is_null(1));
        assert!(taken.is_null(2));
        assert_eq!(taken.get(3), Value::Float(0.0));
    }

    #[test]
    fn take_drops_validity_when_no_nulls_selected() {
        let col = Column::from_f64_opt(vec![Some(0.0), None, Some(2.0)]);
        let taken = col.take(&[0, 2]);
        assert_eq!(taken.null_count(), 0);
    }

    #[test]
    fn filter_by_mask() {
        let col = Column::from_labels(&["x", "y", "z"]);
        let kept = col.filter(&[true, false, true]).unwrap();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept.get(1), Value::Cat("z".into()));
        assert!(col.filter(&[true]).is_err());
    }

    #[test]
    fn numeric_reductions() {
        let col = Column::from_f64(vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(col.mean().unwrap(), 5.0);
        assert_eq!(col.min().unwrap(), 2.0);
        assert_eq!(col.max().unwrap(), 8.0);
        let std = col.std().unwrap();
        assert!((std - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reductions_skip_nulls() {
        let col = Column::from_f64_opt(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.mean().unwrap(), 2.0);
        assert_eq!(col.min().unwrap(), 1.0);
        assert_eq!(col.max().unwrap(), 3.0);
    }

    #[test]
    fn reductions_on_empty_error() {
        let col = Column::from_f64(vec![]);
        assert!(col.mean().is_err());
        assert!(col.min().is_err());
    }

    #[test]
    fn bool_column_numeric_view() {
        let col = Column::from_bool(vec![true, false, true, true]);
        assert_eq!(col.mean().unwrap(), 0.75);
        assert_eq!(col.to_f64_vec().unwrap(), vec![1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn cat_columns_reject_numeric_ops() {
        let col = Column::from_labels(&["a", "b"]);
        assert!(col.mean().is_err());
        assert!(col.to_f64_vec().is_err());
        assert!(col.as_f64_slice().is_err());
    }

    #[test]
    fn value_counts_sorted_desc_then_label() {
        let col = Column::from_labels(&["a", "b", "b", "c", "c"]);
        let counts = col.value_counts();
        assert_eq!(
            counts,
            vec![
                ("b".to_string(), 2),
                ("c".to_string(), 2),
                ("a".to_string(), 1)
            ]
        );
    }

    #[test]
    fn value_counts_reports_nulls() {
        let col = Column::from_f64_opt(vec![Some(1.0), None, None]);
        let counts = col.value_counts();
        assert!(counts.contains(&("null".to_string(), 2)));
    }

    #[test]
    fn int_widening() {
        let col = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(col.to_f64_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(col.as_i64_slice().unwrap(), &[1, 2, 3]);
    }
}
