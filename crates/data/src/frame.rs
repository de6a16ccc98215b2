//! The [`Dataset`]: an ordered collection of equal-length named columns.
//!
//! `Dataset` is immutable-by-convention: transforming operations (`select`,
//! `filter`, `take`, `drop_nulls`, …) return new datasets and never mutate in
//! place, which keeps provenance tracking in `fact-transparency` honest — a
//! recorded step always maps one input dataset to one output dataset.

use std::collections::HashMap;

use crate::builder::DatasetBuilder;
use crate::column::{CatData, Column};
use crate::error::{FactError, Result};
use crate::matrix::Matrix;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

/// Fill in the column name on a type error raised by nameless column APIs.
fn rename_column(e: FactError, name: &str) -> FactError {
    match e {
        FactError::TypeMismatch {
            expected, actual, ..
        } => FactError::TypeMismatch {
            column: name.to_string(),
            expected,
            actual,
        },
        other => other,
    }
}

/// An in-memory columnar dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

/// One row of [`Dataset::summary`]: descriptive statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// Total rows.
    pub count: usize,
    /// Null rows.
    pub nulls: usize,
    /// Mean of non-null values (numeric columns only).
    pub mean: Option<f64>,
    /// Sample standard deviation (numeric columns with ≥ 2 values).
    pub std: Option<f64>,
    /// Minimum (numeric columns only).
    pub min: Option<f64>,
    /// Maximum (numeric columns only).
    pub max: Option<f64>,
    /// Number of distinct values.
    pub distinct: usize,
}

impl Dataset {
    /// Start building a dataset column by column.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder::new()
    }

    /// Construct from `(name, column)` pairs. All columns must have equal
    /// length and names must be unique.
    pub fn from_columns(pairs: Vec<(String, Column)>) -> Result<Self> {
        let mut b = DatasetBuilder::new();
        for (name, col) in pairs {
            b = b.column(name, col);
        }
        b.build()
    }

    /// Internal constructor used by the builder (invariants already checked).
    pub(crate) fn from_parts(schema: Schema, columns: Vec<Column>, n_rows: usize) -> Self {
        Dataset {
            schema,
            columns,
            n_rows,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// The schema (names, types, FACT annotations).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access, e.g. to flag a column sensitive after loading.
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Borrow a column by position.
    pub fn column_at(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Convenience: materialize a named column as `f64`s, with the column
    /// name filled into any error.
    pub fn f64_column(&self, name: &str) -> Result<Vec<f64>> {
        self.column(name)?.to_f64_vec().map_err(|e| match e {
            FactError::NullNotAllowed { count, .. } => FactError::NullNotAllowed {
                column: name.to_string(),
                count,
            },
            FactError::TypeMismatch {
                expected, actual, ..
            } => FactError::TypeMismatch {
                column: name.to_string(),
                expected,
                actual,
            },
            other => other,
        })
    }

    /// Convenience: borrow a named float column's storage without cloning.
    ///
    /// Unlike [`Dataset::f64_column`] this never allocates, but it only
    /// accepts true float columns (no int/bool widening). Columns with
    /// nulls are rejected: the raw buffer holds unspecified placeholder
    /// bits under null slots that must not leak into arithmetic.
    pub fn f64_slice(&self, name: &str) -> Result<&[f64]> {
        let col = self.column(name)?;
        let nulls = col.null_count();
        if nulls > 0 {
            return Err(FactError::NullNotAllowed {
                column: name.to_string(),
                count: nulls,
            });
        }
        col.as_f64_slice().map_err(|e| rename_column(e, name))
    }

    /// Convenience: borrow a named int column's storage without cloning.
    /// Columns with nulls are rejected, as with [`Dataset::f64_slice`].
    pub fn i64_slice(&self, name: &str) -> Result<&[i64]> {
        let col = self.column(name)?;
        let nulls = col.null_count();
        if nulls > 0 {
            return Err(FactError::NullNotAllowed {
                column: name.to_string(),
                count: nulls,
            });
        }
        col.as_i64_slice().map_err(|e| rename_column(e, name))
    }

    /// Convenience: borrow a named bool column's storage.
    pub fn bool_column(&self, name: &str) -> Result<&[bool]> {
        self.column(name)?
            .as_bool_slice()
            .map_err(|e| rename_column(e, name))
    }

    /// Borrow a named categorical column together with its dictionary
    /// codes: metrics count `codes` and skip the rows the column's validity
    /// mask marks null.
    pub fn cat_column(&self, name: &str) -> Result<(&Column, &CatData)> {
        let col = self.column(name)?;
        let cat = col.as_cat().map_err(|e| rename_column(e, name))?;
        Ok((col, cat))
    }

    /// Convenience: materialize a named categorical column's labels.
    ///
    /// Like [`Column::to_labels`], this ignores the validity mask: a null
    /// slot yields its placeholder code's label.
    pub fn labels(&self, name: &str) -> Result<Vec<String>> {
        self.cat_column(name)?.0.to_labels()
    }

    /// Add a column; its length must match the dataset row count (any length
    /// is accepted when the dataset has no columns yet).
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        let name = name.into();
        if self.schema.index_of(&name).is_some() {
            return Err(FactError::InvalidArgument(format!(
                "duplicate column name '{name}'"
            )));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows {
            return Err(FactError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
            });
        }
        if self.columns.is_empty() {
            self.n_rows = col.len();
        }
        self.schema.push(Field::new(name, col.dtype()));
        self.columns.push(col);
        Ok(())
    }

    /// Replace an existing column, keeping its FACT annotations.
    pub fn replace_column(&mut self, name: &str, col: Column) -> Result<()> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))?;
        if col.len() != self.n_rows {
            return Err(FactError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
            });
        }
        self.schema.field_mut(name).expect("index checked").dtype = col.dtype();
        self.columns[idx] = col;
        Ok(())
    }

    /// Return a new dataset without the named column.
    pub fn drop_column(&self, name: &str) -> Result<Dataset> {
        if self.schema.index_of(name).is_none() {
            return Err(FactError::ColumnNotFound(name.to_string()));
        }
        let keep: Vec<&str> = self.names().into_iter().filter(|&n| n != name).collect();
        self.select(&keep)
    }

    /// Project onto the named columns (in the given order), preserving
    /// annotations.
    pub fn select(&self, names: &[&str]) -> Result<Dataset> {
        let mut fields = Vec::with_capacity(names.len());
        let mut cols = Vec::with_capacity(names.len());
        for &name in names {
            let idx = self
                .schema
                .index_of(name)
                .ok_or_else(|| FactError::ColumnNotFound(name.to_string()))?;
            fields.push(self.schema.fields()[idx].clone());
            cols.push(self.columns[idx].clone());
        }
        Ok(Dataset::from_parts(
            Schema::from_fields(fields),
            cols,
            self.n_rows,
        ))
    }

    /// Keep rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Dataset> {
        if mask.len() != self.n_rows {
            return Err(FactError::LengthMismatch {
                expected: self.n_rows,
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

    /// Gather rows by index (duplicates and reordering allowed). Indices must
    /// be in bounds.
    pub fn take(&self, indices: &[usize]) -> Dataset {
        let cols: Vec<Column> = self.columns.iter().map(|c| c.take(indices)).collect();
        Dataset::from_parts(self.schema.clone(), cols, indices.len())
    }

    /// The first `n` rows (or all rows if fewer).
    pub fn head(&self, n: usize) -> Dataset {
        let n = n.min(self.n_rows);
        let idx: Vec<usize> = (0..n).collect();
        self.take(&idx)
    }

    /// Drop every row that has a null in any column.
    pub fn drop_nulls(&self) -> Dataset {
        let mut mask = vec![true; self.n_rows];
        for col in &self.columns {
            for (i, keep) in mask.iter_mut().enumerate() {
                if col.is_null(i) {
                    *keep = false;
                }
            }
        }
        self.filter(&mask)
            .expect("mask length matches by construction")
    }

    /// Total null count across all columns.
    pub fn null_count(&self) -> usize {
        self.columns.iter().map(|c| c.null_count()).sum()
    }

    /// Row `i` as a vector of values, in column order.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Vertically stack another dataset with an identical schema.
    pub fn vstack(&self, other: &Dataset) -> Result<Dataset> {
        if self.names() != other.names() {
            return Err(FactError::InvalidArgument(
                "vstack requires identical column names and order".into(),
            ));
        }
        let n = self.n_rows + other.n_rows;
        let mut cols = Vec::with_capacity(self.columns.len());
        for (idx, name) in self.names().iter().enumerate() {
            let a = &self.columns[idx];
            let b = other.column(name)?;
            if a.dtype() != b.dtype() {
                return Err(FactError::TypeMismatch {
                    column: name.to_string(),
                    expected: a.dtype(),
                    actual: b.dtype(),
                });
            }
            cols.push(concat_columns(a, b));
        }
        Ok(Dataset::from_parts(self.schema.clone(), cols, n))
    }

    /// Indices that sort the dataset ascending by a numeric column
    /// (stable; nulls sort last).
    pub fn argsort_by(&self, name: &str) -> Result<Vec<usize>> {
        let col = self.column(name)?;
        let mut keyed: Vec<(usize, Option<f64>)> = Vec::with_capacity(self.n_rows);
        for i in 0..self.n_rows {
            keyed.push((i, col.get(i).as_f64()));
        }
        keyed.sort_by(|a, b| match (a.1, b.1) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
        Ok(keyed.into_iter().map(|(i, _)| i).collect())
    }

    /// Sort rows ascending by a numeric column (stable; nulls last).
    pub fn sort_by(&self, name: &str) -> Result<Dataset> {
        Ok(self.take(&self.argsort_by(name)?))
    }

    /// Group rows by the distinct values of a column (categorical, bool, or
    /// int). Group keys are the stringified values, ordered by first
    /// appearance.
    pub fn group_by(&self, name: &str) -> Result<GroupBy<'_>> {
        let col = self.column(name)?;
        match col.dtype() {
            DataType::Cat | DataType::Bool | DataType::Int => {}
            other => {
                return Err(FactError::TypeMismatch {
                    column: name.to_string(),
                    expected: DataType::Cat,
                    actual: other,
                })
            }
        }
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
        for i in 0..self.n_rows {
            let key = col.get(i).to_string();
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(i);
        }
        let groups = order
            .into_iter()
            .map(|k| {
                let idx = groups.remove(&k).expect("key inserted above");
                (k, idx)
            })
            .collect();
        Ok(GroupBy { ds: self, groups })
    }

    /// Descriptive statistics for every column.
    pub fn summary(&self) -> Vec<SummaryRow> {
        self.schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| {
                let numeric = !matches!(f.dtype, DataType::Cat);
                SummaryRow {
                    name: f.name.clone(),
                    dtype: f.dtype,
                    count: c.len(),
                    nulls: c.null_count(),
                    mean: if numeric { c.mean().ok() } else { None },
                    std: if numeric { c.std().ok() } else { None },
                    min: if numeric { c.min().ok() } else { None },
                    max: if numeric { c.max().ok() } else { None },
                    distinct: c.value_counts().len(),
                }
            })
            .collect()
    }

    /// Build a dense row-major feature matrix from numeric/bool columns.
    /// Categorical columns are rejected — use [`Dataset::to_matrix_onehot`].
    pub fn to_matrix(&self, feature_names: &[&str]) -> Result<Matrix> {
        let mut cols = Vec::with_capacity(feature_names.len());
        for &name in feature_names {
            cols.push(self.f64_column(name)?);
        }
        Matrix::from_columns(&cols, self.n_rows)
    }

    /// Build a feature matrix where categorical columns are one-hot encoded
    /// (dropping the first category as reference level to avoid collinearity).
    /// Returns the matrix and the generated feature names.
    pub fn to_matrix_onehot(&self, feature_names: &[&str]) -> Result<(Matrix, Vec<String>)> {
        let mut cols: Vec<Vec<f64>> = Vec::new();
        let mut out_names: Vec<String> = Vec::new();
        for &name in feature_names {
            let col = self.column(name)?;
            match col.dtype() {
                DataType::Cat => {
                    let cat = col.as_cat().expect("dtype checked");
                    for (code, label) in cat.dict.iter().enumerate().skip(1) {
                        let mut dummy = vec![0.0; self.n_rows];
                        for (i, &c) in cat.codes.iter().enumerate() {
                            if c as usize == code {
                                dummy[i] = 1.0;
                            }
                        }
                        cols.push(dummy);
                        out_names.push(format!("{name}={label}"));
                    }
                }
                _ => {
                    cols.push(self.f64_column(name)?);
                    out_names.push(name.to_string());
                }
            }
        }
        let m = Matrix::from_columns(&cols, self.n_rows)?;
        Ok((m, out_names))
    }
}

fn concat_columns(a: &Column, b: &Column) -> Column {
    // Gather through take() on a stitched index space by materializing values.
    // Cheap and type-safe: rebuild via indices on each side.
    let idx_a: Vec<usize> = (0..a.len()).collect();
    let idx_b: Vec<usize> = (0..b.len()).collect();
    let left = a.take(&idx_a);
    let right = b.take(&idx_b);
    stitch(left, right)
}

fn stitch(left: Column, right: Column) -> Column {
    use crate::column::{CatData, ColumnData};
    let ln = left.len();
    let rn = right.len();
    let total = ln + rn;
    let mut validity: Option<Vec<bool>> = None;
    if left.null_count() > 0 || right.null_count() > 0 {
        let mut mask = Vec::with_capacity(total);
        for i in 0..ln {
            mask.push(!left.is_null(i));
        }
        for i in 0..rn {
            mask.push(!right.is_null(i));
        }
        validity = Some(mask);
    }
    let data = match (left.data().clone(), right.data().clone()) {
        (ColumnData::Float(mut x), ColumnData::Float(y)) => {
            x.extend(y);
            ColumnData::Float(x)
        }
        (ColumnData::Int(mut x), ColumnData::Int(y)) => {
            x.extend(y);
            ColumnData::Int(x)
        }
        (ColumnData::Bool(mut x), ColumnData::Bool(y)) => {
            x.extend(y);
            ColumnData::Bool(x)
        }
        (ColumnData::Cat(x), ColumnData::Cat(y)) => {
            // Re-map right-hand codes through a merged dictionary.
            let mut dict = x.dict.clone();
            let mut codes = x.codes.clone();
            codes.reserve(y.codes.len());
            let mut remap = Vec::with_capacity(y.dict.len());
            for label in &y.dict {
                let code = match dict.iter().position(|d| d == label) {
                    Some(i) => i as u32,
                    None => {
                        dict.push(label.clone());
                        (dict.len() - 1) as u32
                    }
                };
                remap.push(code);
            }
            for &c in &y.codes {
                codes.push(remap[c as usize]);
            }
            ColumnData::Cat(CatData { codes, dict })
        }
        _ => unreachable!("vstack checks dtype equality before stitching"),
    };
    let col = match data {
        ColumnData::Float(v) => Column::from_f64(v),
        ColumnData::Int(v) => Column::from_i64(v),
        ColumnData::Bool(v) => Column::from_bool(v),
        ColumnData::Cat(c) => {
            let labels: Vec<String> = c
                .codes
                .iter()
                .map(|&i| c.dict[i as usize].clone())
                .collect();
            Column::from_labels(&labels)
        }
    };
    match validity {
        Some(mask) => col.with_validity(mask).expect("mask built to length"),
        None => col,
    }
}

/// The result of [`Dataset::group_by`]: per-key row indices with aggregate
/// helpers.
#[derive(Debug)]
pub struct GroupBy<'a> {
    ds: &'a Dataset,
    groups: Vec<(String, Vec<usize>)>,
}

impl<'a> GroupBy<'a> {
    /// Group keys in first-appearance order.
    pub fn keys(&self) -> Vec<&str> {
        self.groups.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Row indices for a key.
    pub fn indices(&self, key: &str) -> Option<&[usize]> {
        self.groups
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no groups exist (empty input).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// `(key, row count)` per group.
    pub fn counts(&self) -> Vec<(String, usize)> {
        self.groups
            .iter()
            .map(|(k, v)| (k.clone(), v.len()))
            .collect()
    }

    /// `(key, mean of column)` per group; the column must be numeric/bool.
    pub fn mean(&self, column: &str) -> Result<Vec<(String, f64)>> {
        let col = self.ds.column(column)?;
        let mut out = Vec::with_capacity(self.groups.len());
        for (k, idx) in &self.groups {
            let sub = col.take(idx);
            out.push((k.clone(), sub.mean()?));
        }
        Ok(out)
    }

    /// Materialize one group as a standalone dataset.
    pub fn dataset(&self, key: &str) -> Result<Dataset> {
        let idx = self
            .indices(key)
            .ok_or_else(|| FactError::InvalidArgument(format!("no group '{key}'")))?;
        Ok(self.ds.take(idx))
    }

    /// Iterate `(key, sub-dataset)` pairs.
    pub fn iter_datasets(&self) -> impl Iterator<Item = (String, Dataset)> + '_ {
        self.groups
            .iter()
            .map(|(k, idx)| (k.clone(), self.ds.take(idx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::builder()
            .f64("income", vec![50.0, 60.0, 40.0, 80.0])
            .i64("age", vec![30, 40, 25, 55])
            .boolean("approved", vec![true, true, false, true])
            .cat("group", &["A", "B", "B", "A"])
            .build()
            .unwrap()
    }

    #[test]
    fn shape_and_names() {
        let ds = sample();
        assert_eq!(ds.n_rows(), 4);
        assert_eq!(ds.n_cols(), 4);
        assert_eq!(ds.names(), vec!["income", "age", "approved", "group"]);
    }

    #[test]
    fn column_lookup_and_errors() {
        let ds = sample();
        assert!(ds.column("income").is_ok());
        assert!(matches!(
            ds.column("salary"),
            Err(FactError::ColumnNotFound(_))
        ));
        let err = ds.f64_column("group").unwrap_err();
        assert!(err.to_string().contains("group"));
    }

    #[test]
    fn select_projects_in_order() {
        let ds = sample();
        let sub = ds.select(&["group", "income"]).unwrap();
        assert_eq!(sub.names(), vec!["group", "income"]);
        assert_eq!(sub.n_rows(), 4);
    }

    #[test]
    fn filter_and_take() {
        let ds = sample();
        let approved = ds.bool_column("approved").unwrap().to_vec();
        let sub = ds.filter(&approved).unwrap();
        assert_eq!(sub.n_rows(), 3);
        let reordered = ds.take(&[3, 0]);
        assert_eq!(reordered.f64_column("income").unwrap(), vec![80.0, 50.0]);
    }

    #[test]
    fn head_caps_at_len() {
        let ds = sample();
        assert_eq!(ds.head(2).n_rows(), 2);
        assert_eq!(ds.head(99).n_rows(), 4);
    }

    #[test]
    fn add_replace_drop_column() {
        let mut ds = sample();
        ds.add_column("debt", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        assert_eq!(ds.n_cols(), 5);
        assert!(ds
            .add_column("debt", Column::from_f64(vec![0.0; 4]))
            .is_err());
        assert!(ds
            .add_column("short", Column::from_f64(vec![0.0; 2]))
            .is_err());
        ds.replace_column("debt", Column::from_f64(vec![9.0; 4]))
            .unwrap();
        assert_eq!(ds.f64_column("debt").unwrap(), vec![9.0; 4]);
        let dropped = ds.drop_column("debt").unwrap();
        assert_eq!(dropped.n_cols(), 4);
        assert!(dropped.column("debt").is_err());
    }

    #[test]
    fn group_by_means_and_counts() {
        let ds = sample();
        let g = ds.group_by("group").unwrap();
        assert_eq!(g.keys(), vec!["A", "B"]);
        assert_eq!(g.counts(), vec![("A".into(), 2), ("B".into(), 2)]);
        let means = g.mean("income").unwrap();
        assert_eq!(means[0], ("A".to_string(), 65.0));
        assert_eq!(means[1], ("B".to_string(), 50.0));
        let sub = g.dataset("B").unwrap();
        assert_eq!(sub.n_rows(), 2);
    }

    #[test]
    fn group_by_rejects_float_keys() {
        let ds = sample();
        assert!(ds.group_by("income").is_err());
    }

    #[test]
    fn sort_by_numeric() {
        let ds = sample();
        let sorted = ds.sort_by("income").unwrap();
        assert_eq!(
            sorted.f64_column("income").unwrap(),
            vec![40.0, 50.0, 60.0, 80.0]
        );
        // labels follow their rows
        assert_eq!(sorted.labels("group").unwrap()[0], "B");
    }

    #[test]
    fn drop_nulls_removes_rows_with_any_null() {
        let mut ds = sample();
        ds.replace_column(
            "income",
            Column::from_f64_opt(vec![Some(1.0), None, Some(3.0), Some(4.0)]),
        )
        .unwrap();
        assert_eq!(ds.null_count(), 1);
        let clean = ds.drop_nulls();
        assert_eq!(clean.n_rows(), 3);
        assert_eq!(clean.null_count(), 0);
    }

    #[test]
    fn vstack_merges_dictionaries() {
        let a = Dataset::builder()
            .cat("g", &["x", "y"])
            .f64("v", vec![1.0, 2.0])
            .build()
            .unwrap();
        let b = Dataset::builder()
            .cat("g", &["z", "x"])
            .f64("v", vec![3.0, 4.0])
            .build()
            .unwrap();
        let stacked = a.vstack(&b).unwrap();
        assert_eq!(stacked.n_rows(), 4);
        assert_eq!(stacked.labels("g").unwrap(), vec!["x", "y", "z", "x"]);
    }

    #[test]
    fn vstack_rejects_schema_mismatch() {
        let a = sample();
        let b = a.select(&["income", "age", "approved"]).unwrap();
        assert!(a.vstack(&b).is_err());
    }

    #[test]
    fn summary_numeric_and_cat() {
        let ds = sample();
        let rows = ds.summary();
        let income = &rows[0];
        assert_eq!(income.name, "income");
        assert_eq!(income.mean, Some(57.5));
        assert_eq!(income.nulls, 0);
        let group = &rows[3];
        assert_eq!(group.distinct, 2);
        assert!(group.mean.is_none());
    }

    #[test]
    fn to_matrix_numeric_only() {
        let ds = sample();
        let m = ds.to_matrix(&["income", "age"]).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 1), 40.0);
        assert!(ds.to_matrix(&["group"]).is_err());
    }

    #[test]
    fn onehot_drops_reference_level() {
        let ds = sample();
        let (m, names) = ds.to_matrix_onehot(&["income", "group"]).unwrap();
        assert_eq!(names, vec!["income".to_string(), "group=B".to_string()]);
        assert_eq!(m.cols(), 2);
        // rows 1,2 are group B
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(1, 1), 1.0);
        assert_eq!(m.get(2, 1), 1.0);
    }

    #[test]
    fn row_view() {
        let ds = sample();
        let r = ds.row(0);
        assert_eq!(r[0], Value::Float(50.0));
        assert_eq!(r[3], Value::Cat("A".into()));
    }
}
