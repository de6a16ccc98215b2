//! E2 — mitigation comparison (EXPERIMENTS.md, Table E2 / Figure E2).
//!
//! Paper claim (§2): "approaches are needed to detect unfair decisions …
//! and to find ways to ensure fairness." Compares the four mitigation
//! families on one biased world, and traces the fairness/accuracy frontier
//! of the disparate-impact remover.

use fact_data::split::train_test_split;
use fact_data::synth::loans::{generate_loans, LoanConfig};
use fact_fairness::metrics::{
    disparate_impact, equal_opportunity_difference, statistical_parity_difference,
};
use fact_fairness::mitigation::prejudice::{PrejudiceConfig, PrejudiceRemover};
use fact_fairness::mitigation::repair::repair_disparate_impact;
use fact_fairness::mitigation::reweighing::reweighing_weights;
use fact_fairness::mitigation::threshold::equalize_selection_rates;
use fact_fairness::protected_mask;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::metrics::accuracy;
use fact_ml::Classifier;

const FEATURES: [&str; 5] = [
    "income",
    "credit_score",
    "debt_ratio",
    "years_employed",
    "zip_risk",
];

fn main() {
    bench::kit::Mode::from_args();
    let world = generate_loans(&LoanConfig {
        n: 24_000,
        seed: 2,
        bias_strength: 0.45,
        proxy_strength: 0.85,
        feature_gap: 5.0,
        ..LoanConfig::default()
    });
    let (train, test) = train_test_split(&world, 0.3, 7).unwrap();
    let x = train.to_matrix(&FEATURES).unwrap();
    let y = train.bool_column("approved").unwrap().to_vec();
    let xt = test.to_matrix(&FEATURES).unwrap();
    let yt = test.bool_column("approved").unwrap().to_vec();
    let mask_tr = protected_mask(&train, "group", "B").unwrap();
    let mask_te = protected_mask(&test, "group", "B").unwrap();
    let cfg = LogisticConfig::default();

    let report = |name: &str, pred: &[bool]| {
        let acc = accuracy(&yt, pred).unwrap();
        let di = disparate_impact(pred, &mask_te).unwrap();
        let spd = statistical_parity_difference(pred, &mask_te).unwrap();
        let eod = equal_opportunity_difference(&yt, pred, &mask_te).unwrap();
        println!("{name:<30} {acc:>8.3} {di:>8.3} {spd:>+8.3} {eod:>+8.3}");
    };

    println!("E2: mitigation comparison (biased loans, test split)");
    println!(
        "{:<30} {:>8} {:>8} {:>8} {:>8}",
        "method", "acc", "DI", "SPD", "EOD"
    );
    println!("{}", "-".repeat(68));

    let base = LogisticRegression::fit(&x, &y, None, &cfg).unwrap();
    report("unmitigated", &base.predict(&xt).unwrap());

    let w = reweighing_weights(&y, &mask_tr).unwrap();
    let m = LogisticRegression::fit(&x, &y, Some(&w), &cfg).unwrap();
    report("reweighing (pre)", &m.predict(&xt).unwrap());

    let rep_tr = repair_disparate_impact(&train, &FEATURES, &mask_tr, 1.0).unwrap();
    let rep_te = repair_disparate_impact(&test, &FEATURES, &mask_te, 1.0).unwrap();
    let m = LogisticRegression::fit(&rep_tr.to_matrix(&FEATURES).unwrap(), &y, None, &cfg).unwrap();
    report(
        "DI repair λ=1.0 (pre)",
        &m.predict(&rep_te.to_matrix(&FEATURES).unwrap()).unwrap(),
    );

    for eta in [0.5, 2.0] {
        let m = PrejudiceRemover::fit(
            &x,
            &y,
            &mask_tr,
            &PrejudiceConfig {
                eta,
                ..PrejudiceConfig::default()
            },
        )
        .unwrap();
        report(
            &format!("prejudice remover η={eta} (in)"),
            &m.predict(&xt).unwrap(),
        );
    }

    let scores = base.predict_proba(&xt).unwrap();
    let th = equalize_selection_rates(&scores, &mask_te, 0.5).unwrap();
    report(
        "threshold opt (post)",
        &th.apply(&scores, &mask_te).unwrap(),
    );

    println!("\nFigure E2: DI-repair fairness/accuracy frontier");
    println!("{:>6} {:>8} {:>8}", "λ", "acc", "DI");
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let r_tr = repair_disparate_impact(&train, &FEATURES, &mask_tr, lambda).unwrap();
        let r_te = repair_disparate_impact(&test, &FEATURES, &mask_te, lambda).unwrap();
        let m =
            LogisticRegression::fit(&r_tr.to_matrix(&FEATURES).unwrap(), &y, None, &cfg).unwrap();
        let pred = m.predict(&r_te.to_matrix(&FEATURES).unwrap()).unwrap();
        println!(
            "{lambda:>6.2} {:>8.3} {:>8.3}",
            accuracy(&yt, &pred).unwrap(),
            disparate_impact(&pred, &mask_te).unwrap()
        );
    }
}
