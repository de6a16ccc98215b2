//! Simpson's-paradox auditor.
//!
//! Given a binary outcome, a two-group comparison attribute, and candidate
//! stratifying variables, the auditor compares the **aggregate** outcome-rate
//! difference with the **per-stratum** differences. A reversal — aggregate
//! trend pointing one way while the (weighted) stratified trend points the
//! other — is exactly the situation the paper warns gives "false advice even
//! in the presence of 'big' data" (§2).

use fact_data::column::check_codes;
use fact_data::{Dataset, FactError, Result};

/// Association within one stratum.
#[derive(Debug, Clone)]
pub struct StratumAssociation {
    /// Stratum label (a value of the stratifying column).
    pub stratum: String,
    /// Rows in the stratum.
    pub n: usize,
    /// Outcome rate for group 1.
    pub rate_group1: f64,
    /// Outcome rate for group 2.
    pub rate_group2: f64,
}

impl StratumAssociation {
    /// `rate_group1 − rate_group2` in this stratum.
    pub fn difference(&self) -> f64 {
        self.rate_group1 - self.rate_group2
    }
}

/// Audit result for one stratifying variable.
#[derive(Debug, Clone)]
pub struct SimpsonReport {
    /// The stratifying column examined.
    pub stratifier: String,
    /// Aggregate `rate(group1) − rate(group2)`.
    pub aggregate_difference: f64,
    /// Per-stratum associations.
    pub strata: Vec<StratumAssociation>,
    /// Stratum-size-weighted mean of per-stratum differences.
    pub adjusted_difference: f64,
    /// True when the aggregate and adjusted differences have opposite signs
    /// (both at magnitude ≥ `0.01`) — a trend reversal.
    pub reversal: bool,
    /// Rows left out because the group or the stratifier is null there.
    pub skipped_rows: usize,
}

/// Compare `group1` vs `group2` of `group_col` on the binary `outcome_col`,
/// stratified by `stratifier`.
///
/// Groups and strata are matched by dictionary code. A row whose group or
/// stratifier is null belongs to no group and no stratum, whatever
/// placeholder code its null slot holds: it is left out of the aggregate
/// and the stratified rates alike, and counted in
/// [`SimpsonReport::skipped_rows`].
pub fn audit_simpson(
    ds: &Dataset,
    outcome_col: &str,
    group_col: &str,
    group1: &str,
    group2: &str,
    stratifier: &str,
) -> Result<SimpsonReport> {
    let outcome = ds.bool_column(outcome_col)?;
    let (group_col, groups) = ds.cat_column(group_col)?;
    let (strata_col, strata_cat) = ds.cat_column(stratifier)?;
    check_codes(&groups.codes, groups.dict.len())?;
    check_codes(&strata_cat.codes, strata_cat.dict.len())?;
    // (group code, stratum code) per row; `None` where either is null
    let rows: Vec<Option<(u32, u32)>> = (0..outcome.len())
        .map(|i| {
            (!group_col.is_null(i) && !strata_col.is_null(i))
                .then(|| (groups.codes[i], strata_cat.codes[i]))
        })
        .collect();
    let rate = |pred: &dyn Fn(u32, u32) -> bool| -> Option<(f64, usize)> {
        let mut pos = 0usize;
        let mut n = 0usize;
        for (row, &y) in rows.iter().zip(outcome) {
            if let Some((g, s)) = *row {
                if pred(g, s) {
                    n += 1;
                    pos += usize::from(y);
                }
            }
        }
        (n > 0).then(|| (pos as f64 / n as f64, n))
    };
    // a label absent from the dictionary matches no row
    let code1 = groups.code_of(group1);
    let code2 = groups.code_of(group2);

    let (r1, _) = rate(&|g, _| Some(g) == code1)
        .ok_or_else(|| FactError::InvalidArgument(format!("group '{group1}' has no rows")))?;
    let (r2, _) = rate(&|g, _| Some(g) == code2)
        .ok_or_else(|| FactError::InvalidArgument(format!("group '{group2}' has no rows")))?;
    let aggregate = r1 - r2;

    // distinct strata in first-appearance order
    let mut seen = vec![false; strata_cat.dict.len()];
    let mut strata_codes: Vec<u32> = Vec::new();
    for &(_, s) in rows.iter().flatten() {
        if !std::mem::replace(&mut seen[s as usize], true) {
            strata_codes.push(s);
        }
    }
    let mut strata = Vec::new();
    let mut weighted = 0.0;
    let mut weight_total = 0.0;
    for &sc in &strata_codes {
        let g1 = rate(&|g, s| s == sc && Some(g) == code1);
        let g2 = rate(&|g, s| s == sc && Some(g) == code2);
        if let (Some((rg1, n1)), Some((rg2, n2))) = (g1, g2) {
            let n = n1 + n2;
            weighted += (rg1 - rg2) * n as f64;
            weight_total += n as f64;
            strata.push(StratumAssociation {
                stratum: strata_cat.dict[sc as usize].clone(),
                n,
                rate_group1: rg1,
                rate_group2: rg2,
            });
        }
    }
    if strata.is_empty() {
        return Err(FactError::InvalidArgument(
            "no stratum contains both groups; cannot stratify".into(),
        ));
    }
    let adjusted = weighted / weight_total;
    let reversal = aggregate.abs() >= 0.01
        && adjusted.abs() >= 0.01
        && aggregate.signum() != adjusted.signum();
    Ok(SimpsonReport {
        stratifier: stratifier.to_string(),
        aggregate_difference: aggregate,
        strata,
        adjusted_difference: adjusted,
        reversal,
        skipped_rows: rows.iter().filter(|r| r.is_none()).count(),
    })
}

/// Scan several candidate stratifiers; returns every report, reversals first.
pub fn scan_stratifiers(
    ds: &Dataset,
    outcome_col: &str,
    group_col: &str,
    group1: &str,
    group2: &str,
    candidates: &[&str],
) -> Result<Vec<SimpsonReport>> {
    let mut out = Vec::with_capacity(candidates.len());
    for &c in candidates {
        out.push(audit_simpson(
            ds,
            outcome_col,
            group_col,
            group1,
            group2,
            c,
        )?);
    }
    out.sort_by_key(|r| !r.reversal);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_data::synth::admissions::{generate_admissions, AdmissionsConfig};

    #[test]
    fn detects_the_berkeley_reversal() {
        let ds = generate_admissions(&AdmissionsConfig::default());
        let rep = audit_simpson(&ds, "admitted", "gender", "male", "female", "department").unwrap();
        assert!(
            rep.aggregate_difference > 0.08,
            "aggregate favors men: {}",
            rep.aggregate_difference
        );
        assert!(
            rep.adjusted_difference < 0.01,
            "department-adjusted difference vanishes/reverses: {}",
            rep.adjusted_difference
        );
        assert!(rep.reversal || rep.adjusted_difference.abs() < 0.01);
        assert_eq!(rep.strata.len(), 6);
    }

    #[test]
    fn no_reversal_in_homogeneous_data() {
        // one group uniformly better, no confounding
        let n = 1000;
        let genders: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "m" } else { "f" }).collect();
        let dept: Vec<&str> = (0..n).map(|i| if i % 3 == 0 { "X" } else { "Y" }).collect();
        let outcome: Vec<bool> = (0..n).map(|i| i % 2 == 0 || i % 5 == 0).collect();
        let ds = Dataset::builder()
            .cat("gender", &genders)
            .cat("dept", &dept)
            .boolean("win", outcome)
            .build()
            .unwrap();
        let rep = audit_simpson(&ds, "win", "gender", "m", "f", "dept").unwrap();
        assert!(!rep.reversal);
        assert!(rep.aggregate_difference > 0.5);
        assert_eq!(
            rep.aggregate_difference.signum(),
            rep.adjusted_difference.signum()
        );
    }

    #[test]
    fn textbook_two_by_two_reversal() {
        // classic counts: group A better in both strata, worse in aggregate.
        // stratum S1: A 80/100 (0.8) vs B 9/10 (0.9)? No — build a real one:
        // S1: A: 81/87 (0.93), B: 234/270 (0.87)
        // S2: A: 192/263 (0.73), B: 55/80 (0.69)
        // aggregate: A: 273/350 (0.78), B: 289/350 (0.826) → B wins aggregate
        let mut gender = Vec::new();
        let mut stratum = Vec::new();
        let mut outcome = Vec::new();
        let mut add = |g: &'static str, s: &'static str, yes: usize, total: usize| {
            for i in 0..total {
                gender.push(g);
                stratum.push(s);
                outcome.push(i < yes);
            }
        };
        add("A", "S1", 81, 87);
        add("B", "S1", 234, 270);
        add("A", "S2", 192, 263);
        add("B", "S2", 55, 80);
        let ds = Dataset::builder()
            .cat("g", &gender)
            .cat("s", &stratum)
            .boolean("y", outcome)
            .build()
            .unwrap();
        let rep = audit_simpson(&ds, "y", "g", "A", "B", "s").unwrap();
        assert!(rep.aggregate_difference < -0.01, "B wins aggregate");
        assert!(rep.adjusted_difference > 0.01, "A wins within strata");
        assert!(rep.reversal);
        for s in &rep.strata {
            assert!(s.difference() > 0.0, "A leads in {}", s.stratum);
        }
    }

    #[test]
    fn null_group_or_stratum_rows_count_nowhere() {
        // the textbook table, optionally with rows whose group is null over
        // group1's code ("A") or whose stratum is null over "S1"'s code
        let table = |with_nulls: bool| {
            let (mut g, mut s, mut y) = (Vec::new(), Vec::new(), Vec::new());
            let (mut g_valid, mut s_valid) = (Vec::new(), Vec::new());
            let mut add = |gl: &'static str, sl: &'static str, yes, total, gv: bool, sv: bool| {
                for i in 0..total {
                    g.push(gl);
                    s.push(sl);
                    y.push(i < yes);
                    g_valid.push(gv);
                    s_valid.push(sv);
                }
            };
            add("A", "S1", 81, 87, true, true);
            add("B", "S1", 234, 270, true, true);
            add("A", "S2", 192, 263, true, true);
            add("B", "S2", 55, 80, true, true);
            if with_nulls {
                add("A", "S1", 0, 100, false, true);
                add("B", "S1", 50, 50, true, false);
            }
            let cat = |labels: &[&str], valid| {
                fact_data::Column::from_labels(labels)
                    .with_validity(valid)
                    .unwrap()
            };
            Dataset::builder()
                .column("g", cat(&g, g_valid))
                .column("s", cat(&s, s_valid))
                .boolean("y", y)
                .build()
                .unwrap()
        };
        let clean = audit_simpson(&table(false), "y", "g", "A", "B", "s").unwrap();
        let nulls = audit_simpson(&table(true), "y", "g", "A", "B", "s").unwrap();
        assert_eq!(
            nulls.aggregate_difference.to_bits(),
            clean.aggregate_difference.to_bits()
        );
        assert_eq!(
            nulls.adjusted_difference.to_bits(),
            clean.adjusted_difference.to_bits()
        );
        assert_eq!(nulls.strata.len(), clean.strata.len());
        for (a, b) in nulls.strata.iter().zip(&clean.strata) {
            assert_eq!((&a.stratum, a.n), (&b.stratum, b.n));
            assert_eq!(a.rate_group1.to_bits(), b.rate_group1.to_bits());
            assert_eq!(a.rate_group2.to_bits(), b.rate_group2.to_bits());
        }
        assert!(nulls.reversal);
        assert_eq!((clean.skipped_rows, nulls.skipped_rows), (0, 150));
    }

    #[test]
    fn scan_orders_reversals_first() {
        let ds = generate_admissions(&AdmissionsConfig::default());
        // add an unconfounded dummy stratifier
        let dummy: Vec<&str> = (0..ds.n_rows())
            .map(|i| if i % 2 == 0 { "p" } else { "q" })
            .collect();
        let mut ds2 = ds.clone();
        ds2.add_column("dummy", fact_data::Column::from_labels(&dummy))
            .unwrap();
        let reports = scan_stratifiers(
            &ds2,
            "admitted",
            "gender",
            "male",
            "female",
            &["dummy", "department"],
        )
        .unwrap();
        // department (reversal or near-vanishing) should sort before dummy
        // when a true reversal is present
        if reports[0].reversal {
            assert_eq!(reports[0].stratifier, "department");
        }
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn validation() {
        let ds = generate_admissions(&AdmissionsConfig { n: 200, seed: 0 });
        assert!(audit_simpson(&ds, "admitted", "gender", "alien", "female", "department").is_err());
        assert!(audit_simpson(&ds, "ghost", "gender", "male", "female", "department").is_err());
    }
}
