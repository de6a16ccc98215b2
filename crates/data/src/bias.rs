//! Controlled bias injectors.
//!
//! The paper's fairness pillar (§2, Q1) warns that "the training data may be
//! biased or minorities may be underrepresented or individually
//! discriminated". These functions *create* those conditions on demand, with
//! a known ground truth, so detection and mitigation can be validated
//! quantitatively:
//!
//! * [`flip_labels_against_group`] — historical *label bias*: flip favorable
//!   outcomes to unfavorable for members of a protected group.
//! * [`undersample_group`] — *representation bias*: drop members of a group.
//! * [`inject_proxy`] — *redundant encoding*: add a feature correlated with
//!   the protected attribute, so group membership leaks even after the
//!   sensitive column is removed (the paper's "even if sensitive attributes
//!   are omitted" failure mode).
//!
//! The matching [`group_rates`] / [`group_rates_segments`] probes measure
//! the damage: per-group positive rates of a boolean outcome, computed
//! in-memory over borrowed column storage or on-disk through the
//! column-pruned segment scan.
//!
//! All injectors compare group membership by **dictionary code**, not by
//! materialized label strings, so no per-row `String` allocation happens on
//! the hot path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::column::{check_codes, CatData, Column};
use crate::error::{FactError, Result};
use crate::frame::Dataset;
use crate::segment::{DecodedValues, Predicate, ScanStats, SegmentSet, Selection};
use crate::value::DataType;

/// Borrow a named categorical column's storage, naming the column in errors.
fn cat_of<'a>(ds: &'a Dataset, name: &str) -> Result<&'a CatData> {
    ds.column(name)?.as_cat().map_err(|e| match e {
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

/// Flip `rate` of the `true` labels to `false` for rows whose `group_col`
/// equals `group`. Models historical discrimination in recorded outcomes.
///
/// Returns the biased dataset and the number of labels flipped.
pub fn flip_labels_against_group(
    ds: &Dataset,
    label_col: &str,
    group_col: &str,
    group: &str,
    rate: f64,
    seed: u64,
) -> Result<(Dataset, usize)> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(FactError::InvalidArgument(format!(
            "flip rate must be in [0, 1], got {rate}"
        )));
    }
    let labels = ds.bool_column(label_col)?;
    let cat = cat_of(ds, group_col)?;
    let target = cat.code_of(group);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flipped = 0usize;
    let new_labels: Vec<bool> = labels
        .iter()
        .zip(&cat.codes)
        .map(|(&y, &c)| {
            if y && target == Some(c) && rng.gen::<f64>() < rate {
                flipped += 1;
                false
            } else {
                y
            }
        })
        .collect();
    let mut out = ds.clone();
    out.replace_column(label_col, Column::from_bool(new_labels))?;
    Ok((out, flipped))
}

/// Keep only `keep_frac` of the rows belonging to `group` (all other rows are
/// retained). Models under-representation of a minority in collected data.
pub fn undersample_group(
    ds: &Dataset,
    group_col: &str,
    group: &str,
    keep_frac: f64,
    seed: u64,
) -> Result<Dataset> {
    if !(0.0..=1.0).contains(&keep_frac) {
        return Err(FactError::InvalidArgument(format!(
            "keep_frac must be in [0, 1], got {keep_frac}"
        )));
    }
    let cat = cat_of(ds, group_col)?;
    let target = cat.code_of(group);
    let mut rng = StdRng::seed_from_u64(seed);
    let mask: Vec<bool> = cat
        .codes
        .iter()
        .map(|&c| target != Some(c) || rng.gen::<f64>() < keep_frac)
        .collect();
    ds.filter(&mask)
}

/// Add a numeric column `proxy_name` that encodes group membership with
/// strength `strength ∈ [0, 1]`: the proxy is
/// `strength · 1[group] + (1 − strength) · noise`, so at `strength = 1` it is
/// a perfect surrogate for the protected attribute and at `strength = 0` it
/// is pure noise.
pub fn inject_proxy(
    ds: &Dataset,
    group_col: &str,
    group: &str,
    proxy_name: &str,
    strength: f64,
    seed: u64,
) -> Result<Dataset> {
    if !(0.0..=1.0).contains(&strength) {
        return Err(FactError::InvalidArgument(format!(
            "proxy strength must be in [0, 1], got {strength}"
        )));
    }
    let cat = cat_of(ds, group_col)?;
    let target = cat.code_of(group);
    let mut rng = StdRng::seed_from_u64(seed);
    let proxy: Vec<f64> = cat
        .codes
        .iter()
        .map(|&c| {
            let indicator = if target == Some(c) { 1.0 } else { 0.0 };
            let noise: f64 = rng.gen::<f64>();
            strength * indicator + (1.0 - strength) * noise
        })
        .collect();
    let mut out = ds.clone();
    out.add_column(proxy_name, Column::from_f64(proxy))?;
    Ok(out)
}

/// Positive rate of a boolean outcome within one group — the unit the bias
/// probes report.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRate {
    /// Group label (dictionary entry).
    pub group: String,
    /// Rows in the group (group and label both non-null).
    pub n: usize,
    /// Rows whose label is `true`.
    pub positives: usize,
    /// `positives / n`.
    pub rate: f64,
}

/// Per-group positive rate of boolean `label_col` split by categorical
/// `group_col` — the probe that verifies an injector's damage (or detects
/// it on real data). Groups are reported in dictionary-code order; rows
/// where either column is null are skipped; dictionary entries with no
/// remaining rows are omitted. A code outside the dictionary is
/// [`FactError::Corrupt`].
pub fn group_rates(ds: &Dataset, label_col: &str, group_col: &str) -> Result<Vec<GroupRate>> {
    let labels = ds.bool_column(label_col)?;
    let lcol = ds.column(label_col)?;
    let cat = cat_of(ds, group_col)?;
    check_codes(&cat.codes, cat.dict.len())?;
    let gcol = ds.column(group_col)?;
    let sel = Selection::valid_in(ds.n_rows(), &[lcol.validity(), gcol.validity()]);
    let (n, pos) = tally_rates(&sel, labels, &cat.codes, cat.dict.len());
    Ok(finish_rates(&cat.dict, &n, &pos))
}

/// Per-code row and positive counts over the selected rows, which are
/// non-null in both columns: `pos[code] += label`, no data-dependent
/// branch per row.
fn tally_rates(
    sel: &Selection,
    labels: &[bool],
    codes: &[u32],
    k: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut n = vec![0usize; k];
    let mut pos = vec![0usize; k];
    sel.for_each(|i| {
        let c = codes[i] as usize;
        n[c] += 1;
        pos[c] += usize::from(labels[i]);
    });
    (n, pos)
}

/// [`group_rates`] over an on-disk [`SegmentSet`], restricted to rows
/// matching `pred`. Routed through the column-pruned scan: only the two
/// named columns are read, and segments excluded by `pred`'s zone maps are
/// skipped entirely. The scan's selection leaves out rows where either
/// column is null, so each segment counts its selected rows into per-code
/// tallies with no data-dependent branch. Tallies merge additively, so the
/// result is identical at any `fact_par` worker count.
pub fn group_rates_segments(
    set: &SegmentSet,
    label_col: &str,
    group_col: &str,
    pred: &Predicate,
) -> Result<(Vec<GroupRate>, ScanStats)> {
    let ldt = set.dtype(label_col)?;
    if ldt != DataType::Bool {
        return Err(FactError::TypeMismatch {
            column: label_col.to_string(),
            expected: DataType::Bool,
            actual: ldt,
        });
    }
    let dict: Vec<String> = set.dict(group_col)?.to_vec();
    let k = dict.len();
    let columns = [label_col, group_col];
    let (tallies, stats) = set.scan_fold(
        &columns,
        &columns,
        pred,
        |batch| {
            let labels = match &batch.column(label_col)?.values {
                DecodedValues::Bool(v) => v,
                _ => unreachable!("label dtype validated above"),
            };
            let codes = match &batch.column(group_col)?.values {
                DecodedValues::Codes(v) => v,
                _ => unreachable!("group dtype validated by dict lookup"),
            };
            Ok(tally_rates(batch.selection(), labels, codes, k))
        },
        |(mut an, mut ap): (Vec<usize>, Vec<usize>), (bn, bp)| {
            for (x, y) in an.iter_mut().zip(bn) {
                *x += y;
            }
            for (x, y) in ap.iter_mut().zip(bp) {
                *x += y;
            }
            (an, ap)
        },
    )?;
    let (n, pos) = tallies.unwrap_or((vec![0; k], vec![0; k]));
    Ok((finish_rates(&dict, &n, &pos), stats))
}

fn finish_rates(dict: &[String], n: &[usize], pos: &[usize]) -> Vec<GroupRate> {
    dict.iter()
        .zip(n.iter().zip(pos))
        .filter(|(_, (&n, _))| n > 0)
        .map(|(label, (&n, &positives))| GroupRate {
            group: label.clone(),
            n,
            positives,
            rate: positives as f64 / n as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize) -> Dataset {
        let groups: Vec<String> = (0..n)
            .map(|i| if i % 2 == 0 { "A" } else { "B" }.to_string())
            .collect();
        Dataset::builder()
            .boolean("y", vec![true; n])
            .cat("g", &groups)
            .build()
            .unwrap()
    }

    #[test]
    fn flip_only_targets_group_and_true_labels() {
        let ds = base(1000);
        let (biased, flipped) = flip_labels_against_group(&ds, "y", "g", "B", 0.5, 1).unwrap();
        let y = biased.bool_column("y").unwrap();
        let g = biased.labels("g").unwrap();
        // group A untouched
        assert!(y
            .iter()
            .zip(&g)
            .filter(|(_, gg)| *gg == "A")
            .all(|(&v, _)| v));
        let b_false = y.iter().zip(&g).filter(|(&v, gg)| *gg == "B" && !v).count();
        assert_eq!(b_false, flipped);
        assert!((150..350).contains(&flipped), "≈50% of 500, got {flipped}");
    }

    #[test]
    fn flip_rate_zero_and_one() {
        let ds = base(100);
        let (same, f0) = flip_labels_against_group(&ds, "y", "g", "B", 0.0, 1).unwrap();
        assert_eq!(f0, 0);
        assert_eq!(same.bool_column("y").unwrap(), ds.bool_column("y").unwrap());
        let (all, f1) = flip_labels_against_group(&ds, "y", "g", "B", 1.0, 1).unwrap();
        assert_eq!(f1, 50);
        assert!(all
            .bool_column("y")
            .unwrap()
            .iter()
            .zip(all.labels("g").unwrap())
            .filter(|(_, g)| g == "B")
            .all(|(&v, _)| !v));
    }

    #[test]
    fn flip_validates_rate() {
        let ds = base(10);
        assert!(flip_labels_against_group(&ds, "y", "g", "B", 1.5, 0).is_err());
    }

    #[test]
    fn undersample_shrinks_only_target_group() {
        let ds = base(2000);
        let out = undersample_group(&ds, "g", "B", 0.2, 3).unwrap();
        let g = out.labels("g").unwrap();
        let a = g.iter().filter(|s| *s == "A").count();
        let b = g.iter().filter(|s| *s == "B").count();
        assert_eq!(a, 1000);
        assert!((120..300).contains(&b), "≈20% of 1000, got {b}");
    }

    #[test]
    fn proxy_strength_extremes() {
        let ds = base(500);
        let perfect = inject_proxy(&ds, "g", "B", "zip_risk", 1.0, 1).unwrap();
        let p = perfect.f64_column("zip_risk").unwrap();
        let g = perfect.labels("g").unwrap();
        for (v, gg) in p.iter().zip(&g) {
            assert_eq!(*v, if gg == "B" { 1.0 } else { 0.0 });
        }
        let noise = inject_proxy(&ds, "g", "B", "zip_risk", 0.0, 1).unwrap();
        let p = noise.f64_column("zip_risk").unwrap();
        // pure noise: group means close
        let mean = |f: &dyn Fn(&str) -> bool| {
            let vals: Vec<f64> = p
                .iter()
                .zip(&g)
                .filter(|(_, gg)| f(gg))
                .map(|(&v, _)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let diff = (mean(&|s: &str| s == "A") - mean(&|s: &str| s == "B")).abs();
        assert!(
            diff < 0.1,
            "pure-noise proxy should not separate groups: {diff}"
        );
    }
}
