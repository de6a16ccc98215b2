//! # fact-fairness — the Fairness pillar (Q1)
//!
//! "Data science without prejudice — how to avoid unfair conclusions even if
//! they are true?" (van der Aalst et al. 2017, §2). The paper warns that
//! training data may encode historical bias, that minorities may be
//! underrepresented, and that *"even if sensitive attributes are omitted,
//! members of certain groups may still be systematically rejected"* through
//! redundant encodings. This crate provides, correspondingly:
//!
//! * [`metrics`] — group fairness measures: statistical parity, disparate
//!   impact, equal opportunity, equalized odds, predictive parity;
//! * [`report`] — a one-call fairness audit with four-fifths-rule verdicts;
//! * [`proxy`] — detection of features that *leak* the protected attribute;
//! * [`consistency`] — individual fairness (similar people, similar scores);
//! * [`intersectional`] — subgroup audits over attribute combinations (the
//!   stigmatized intersections single-attribute audits miss);
//! * [`mitigation`] — pre-processing (reweighing, disparate-impact repair),
//!   in-processing (prejudice-remover regularizer), and post-processing
//!   (per-group threshold optimization) interventions.
//!
//! The protected group is always expressed as a boolean mask (`true` =
//! member of the protected group), constructed from a dataset column with
//! [`protected_mask`].

#![warn(missing_docs)]

pub mod consistency;
pub mod intersectional;
pub mod metrics;
pub mod mitigation;
pub mod proxy;
pub mod report;

pub use report::{FairnessReport, FairnessThresholds};

use fact_data::{Dataset, FactError, Result};

/// Build a protected-group mask from a categorical column: `true` where the
/// row's label equals `protected_label`. Rows are compared by dictionary
/// code; a null row is never protected, whatever its placeholder code.
pub fn protected_mask(ds: &Dataset, column: &str, protected_label: &str) -> Result<Vec<bool>> {
    let (col, cat) = ds.cat_column(column)?;
    let mask: Vec<bool> = match cat.code_of(protected_label) {
        Some(target) => cat
            .codes
            .iter()
            .enumerate()
            .map(|(i, &c)| c == target && !col.is_null(i))
            .collect(),
        None => Vec::new(),
    };
    if !mask.contains(&true) {
        return Err(FactError::InvalidArgument(format!(
            "label '{protected_label}' does not occur in column '{column}'"
        )));
    }
    Ok(mask)
}

/// [`protected_mask`] over an on-disk segment set: builds the mask from the
/// single categorical column, reading nothing else. The mask is in
/// segment/row order, matching `SegmentSet::to_dataset` row order.
pub fn protected_mask_segments(
    set: &fact_data::SegmentSet,
    column: &str,
    protected_label: &str,
) -> Result<(Vec<bool>, fact_data::ScanStats)> {
    let (ds, stats) = set.scan_columns(&[column], &fact_data::Predicate::All)?;
    Ok((protected_mask(&ds, column, protected_label)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_from_column() {
        let ds = Dataset::builder()
            .cat("g", &["A", "B", "B", "A"])
            .build()
            .unwrap();
        assert_eq!(
            protected_mask(&ds, "g", "B").unwrap(),
            vec![false, true, true, false]
        );
        assert!(protected_mask(&ds, "g", "C").is_err());
        assert!(protected_mask(&ds, "nope", "B").is_err());
    }
}
