//! E4 — Simpson's paradox (EXPERIMENTS.md, Table E4).
//!
//! Paper claim (§2): "a trend appears in different groups of data but
//! disappears or reverses when these groups are combined."
//!
//! Berkeley-style admissions; the auditor must flag the reversal, and a
//! placebo stratifier must not be flagged.
//!
//! The claim's shape is asserted in every mode (`--smoke` runs in full):
//! the aggregate gap favors men by more than 8pp, the department-adjusted
//! gap favors women, the department stratifier reports the reversal and
//! the coin does not.

use fact_accuracy::simpson::{audit_simpson, scan_stratifiers};
use fact_data::synth::admissions::{generate_admissions, AdmissionsConfig};

fn main() {
    bench::kit::Mode::from_args();
    let ds = generate_admissions(&AdmissionsConfig { n: 24_000, seed: 4 });

    let rep = audit_simpson(&ds, "admitted", "gender", "male", "female", "department").unwrap();
    println!("E4: Simpson's paradox — admissions by gender, stratified by department\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>9}",
        "stratum", "n", "male", "female", "gap"
    );
    println!("{}", "-".repeat(54));
    let mut strata = rep.strata.clone();
    strata.sort_by(|a, b| a.stratum.cmp(&b.stratum));
    for s in &strata {
        println!(
            "{:<12} {:>8} {:>10.3} {:>10.3} {:>+9.3}",
            s.stratum,
            s.n,
            s.rate_group1,
            s.rate_group2,
            s.difference()
        );
    }
    println!("{}", "-".repeat(54));
    println!(
        "{:<12} {:>8} aggregate gap {:>+7.3}   adjusted gap {:>+7.3}",
        "ALL",
        ds.n_rows(),
        rep.aggregate_difference,
        rep.adjusted_difference
    );
    println!("\nreversal detected: {}", rep.reversal);

    // placebo control
    let coin: Vec<&str> = (0..ds.n_rows())
        .map(|i| if i % 2 == 0 { "heads" } else { "tails" })
        .collect();
    let mut ds2 = ds.clone();
    ds2.add_column("coin", fact_data::Column::from_labels(&coin))
        .unwrap();
    let scans = scan_stratifiers(
        &ds2,
        "admitted",
        "gender",
        "male",
        "female",
        &["coin", "department"],
    )
    .unwrap();
    println!("\nstratifier scan (reversals first):");
    for s in &scans {
        println!(
            "  {:<12} aggregate {:>+7.3} adjusted {:>+7.3} reversal={}",
            s.stratifier, s.aggregate_difference, s.adjusted_difference, s.reversal
        );
    }
    println!(
        "\nExpected shape: aggregate favors men by >8pp; within departments women\n\
         match or lead; the department stratifier flags the reversal, the coin does not."
    );

    assert!(
        rep.aggregate_difference > 0.08,
        "aggregate gap {:+.3} does not favor men by >8pp",
        rep.aggregate_difference
    );
    assert!(
        rep.adjusted_difference < 0.0,
        "department-adjusted gap {:+.3} does not favor women",
        rep.adjusted_difference
    );
    let reversal = |stratifier: &str| {
        let scan = scans.iter().find(|s| s.stratifier == stratifier);
        scan.unwrap_or_else(|| panic!("no scan of {stratifier}"))
            .reversal
    };
    assert!(reversal("department"), "the department reversal was missed");
    assert!(!reversal("coin"), "the placebo coin reported a reversal");
}
