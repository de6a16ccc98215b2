//! A small predicate-expression layer for row filtering.
//!
//! `col("income").gt(50.0).and(col("group").eq_label("B"))` evaluates to a
//! boolean mask over a dataset — the declarative filter interface audits use
//! to describe *which rows* a check applied to (the predicate's `Display`
//! form goes into audit logs, keeping filters self-documenting).

use std::fmt;

use crate::error::{FactError, Result};
use crate::frame::Dataset;
use crate::value::DataType;

/// A column reference, entry point of the expression builder.
pub fn col(name: &str) -> ColRef {
    ColRef {
        name: name.to_string(),
    }
}

/// A named column to compare against.
#[derive(Debug, Clone)]
pub struct ColRef {
    name: String,
}

impl ColRef {
    /// `column > value`.
    pub fn gt(self, v: f64) -> Predicate {
        Predicate::Cmp(self.name, CmpOp::Gt, v)
    }

    /// `column >= value`.
    pub fn ge(self, v: f64) -> Predicate {
        Predicate::Cmp(self.name, CmpOp::Ge, v)
    }

    /// `column < value`.
    pub fn lt(self, v: f64) -> Predicate {
        Predicate::Cmp(self.name, CmpOp::Lt, v)
    }

    /// `column <= value`.
    pub fn le(self, v: f64) -> Predicate {
        Predicate::Cmp(self.name, CmpOp::Le, v)
    }

    /// `column == value` (numeric).
    pub fn eq_num(self, v: f64) -> Predicate {
        Predicate::Cmp(self.name, CmpOp::Eq, v)
    }

    /// `column == label` (categorical).
    pub fn eq_label(self, label: &str) -> Predicate {
        Predicate::Label(self.name, label.to_string())
    }

    /// `column == true` (boolean column).
    pub fn is_true(self) -> Predicate {
        Predicate::IsTrue(self.name)
    }

    /// `column IS NULL`.
    pub fn is_null(self) -> Predicate {
        Predicate::IsNull(self.name)
    }
}

/// Numeric comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Exactly equal.
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
        })
    }
}

/// A boolean predicate over dataset rows.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Numeric comparison.
    Cmp(String, CmpOp, f64),
    /// Categorical equality.
    Label(String, String),
    /// Boolean column is true.
    IsTrue(String),
    /// Column is null at the row.
    IsNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate to a row mask.
    pub fn eval(&self, ds: &Dataset) -> Result<Vec<bool>> {
        match self {
            Predicate::Cmp(name, op, v) => {
                let c = ds.column(name)?;
                if c.dtype() == DataType::Cat {
                    return Err(FactError::TypeMismatch {
                        column: name.clone(),
                        expected: DataType::Float,
                        actual: DataType::Cat,
                    });
                }
                let mut mask = Vec::with_capacity(ds.n_rows());
                for i in 0..ds.n_rows() {
                    let val = c.get(i).as_f64();
                    mask.push(match val {
                        None => false, // null never matches a comparison
                        Some(x) => match op {
                            CmpOp::Gt => x > *v,
                            CmpOp::Ge => x >= *v,
                            CmpOp::Lt => x < *v,
                            CmpOp::Le => x <= *v,
                            CmpOp::Eq => x == *v,
                        },
                    });
                }
                Ok(mask)
            }
            Predicate::Label(name, label) => {
                // codes plus validity: a null slot never matches, whatever
                // its placeholder code
                let (col, cat) = ds.cat_column(name)?;
                Ok(match cat.code_of(label) {
                    Some(target) => (cat.codes.iter().enumerate())
                        .map(|(i, &c)| c == target && !col.is_null(i))
                        .collect(),
                    None => vec![false; ds.n_rows()],
                })
            }
            Predicate::IsTrue(name) => Ok(ds.bool_column(name)?.to_vec()),
            Predicate::IsNull(name) => {
                let c = ds.column(name)?;
                Ok((0..ds.n_rows()).map(|i| c.is_null(i)).collect())
            }
            Predicate::And(a, b) => {
                let ma = a.eval(ds)?;
                let mb = b.eval(ds)?;
                Ok(ma.into_iter().zip(mb).map(|(x, y)| x && y).collect())
            }
            Predicate::Or(a, b) => {
                let ma = a.eval(ds)?;
                let mb = b.eval(ds)?;
                Ok(ma.into_iter().zip(mb).map(|(x, y)| x || y).collect())
            }
            Predicate::Not(a) => Ok(a.eval(ds)?.into_iter().map(|x| !x).collect()),
        }
    }

    /// Filter a dataset by this predicate.
    pub fn filter(&self, ds: &Dataset) -> Result<Dataset> {
        ds.filter(&self.eval(ds)?)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp(name, op, v) => write!(f, "{name} {op} {v}"),
            Predicate::Label(name, l) => write!(f, "{name} == '{l}'"),
            Predicate::IsTrue(name) => write!(f, "{name}"),
            Predicate::IsNull(name) => write!(f, "{name} IS NULL"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(a) => write!(f, "NOT ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::builder()
            .f64_opt("income", vec![Some(30.0), Some(60.0), None, Some(90.0)])
            .cat("group", &["A", "B", "B", "A"])
            .boolean("approved", vec![false, true, false, true])
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let ds = data();
        assert_eq!(
            col("income").gt(50.0).eval(&ds).unwrap(),
            vec![false, true, false, true]
        );
        assert_eq!(
            col("income").le(60.0).eval(&ds).unwrap(),
            vec![true, true, false, false]
        );
        assert_eq!(
            col("income").eq_num(90.0).eval(&ds).unwrap(),
            vec![false, false, false, true]
        );
    }

    #[test]
    fn nulls_never_match_comparisons_but_match_is_null() {
        let ds = data();
        assert!(!col("income").gt(-1e9).eval(&ds).unwrap()[2]);
        assert_eq!(
            col("income").is_null().eval(&ds).unwrap(),
            vec![false, false, true, false]
        );
    }

    #[test]
    fn label_and_bool_predicates() {
        let ds = data();
        assert_eq!(
            col("group").eq_label("B").eval(&ds).unwrap(),
            vec![false, true, true, false]
        );
        assert_eq!(
            col("approved").is_true().eval(&ds).unwrap(),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn a_null_label_slot_never_matches() {
        // the third row is null over "a"'s dictionary code
        let g = crate::Column::from_labels(&["a", "b", "a"])
            .with_validity(vec![true, true, false])
            .unwrap();
        let ds = Dataset::builder().column("g", g).build().unwrap();
        assert_eq!(
            col("g").eq_label("a").eval(&ds).unwrap(),
            vec![true, false, false]
        );
        assert_eq!(col("g").eq_label("zz").eval(&ds).unwrap(), vec![false; 3]);
    }

    #[test]
    fn boolean_combinators() {
        let ds = data();
        let p = col("income")
            .gt(50.0)
            .and(col("group").eq_label("A"))
            .or(col("approved").is_true().not());
        let mask = p.eval(&ds).unwrap();
        // row0: !approved → true; row1: neither → false;
        // row2: !approved → true; row3: >50 & A → true
        assert_eq!(mask, vec![true, false, true, true]);
        let filtered = p.filter(&ds).unwrap();
        assert_eq!(filtered.n_rows(), 3);
    }

    #[test]
    fn display_is_audit_readable() {
        let p = col("income").ge(50.0).and(col("group").eq_label("B").not());
        assert_eq!(p.to_string(), "(income >= 50 AND NOT (group == 'B'))");
    }

    #[test]
    fn type_errors() {
        let ds = data();
        assert!(col("group").gt(1.0).eval(&ds).is_err());
        assert!(col("income").eq_label("x").eval(&ds).is_err());
        assert!(col("ghost").gt(1.0).eval(&ds).is_err());
    }
}
