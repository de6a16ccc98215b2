//! E10 — green certification end-to-end (EXPERIMENTS.md, Table E10).
//!
//! Paper §3–4: systems should be "green" by design — FACT guards embedded in
//! the pipeline. A biased loan pipeline is certified (fails), remediated
//! (drop proxy, reweigh), and re-certified (passes). The full before/after
//! compliance matrix is the table.

use fact_core::{FactPolicy, GuardedPipeline};
use fact_data::synth::loans::{generate_loans, LoanConfig, LEGIT_FEATURES};
use fact_data::{Dataset, Matrix, Result};
use fact_fairness::mitigation::reweighing::reweighing_weights;
use fact_fairness::protected_mask;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::Classifier;

fn policy() -> FactPolicy {
    let mut p = FactPolicy::strict("group", "B");
    if let Some(f) = p.fairness.as_mut() {
        f.thresholds.max_equalized_odds = 1.0; // labels are bias-corrupted
    }
    if let Some(a) = p.accuracy.as_mut() {
        a.min_accuracy = 0.65;
    }
    p
}

fn plain(x: &Matrix, y: &[bool], _d: &Dataset, seed: u64) -> Result<Box<dyn Classifier>> {
    let cfg = LogisticConfig {
        seed,
        ..LogisticConfig::default()
    };
    Ok(Box::new(LogisticRegression::fit(x, y, None, &cfg)?))
}

fn reweighed(x: &Matrix, y: &[bool], d: &Dataset, seed: u64) -> Result<Box<dyn Classifier>> {
    let mask = protected_mask(d, "group", "B")?;
    let w = reweighing_weights(y, &mask)?;
    let cfg = LogisticConfig {
        seed,
        ..LogisticConfig::default()
    };
    Ok(Box::new(LogisticRegression::fit(x, y, Some(&w), &cfg)?))
}

fn main() -> Result<()> {
    bench::kit::Mode::from_args();
    let world = generate_loans(&LoanConfig {
        n: 16_000,
        seed: 10,
        bias_strength: 0.45,
        proxy_strength: 0.9,
        ..LoanConfig::default()
    });

    println!("E10: green certification — before vs after remediation\n");
    println!("### BEFORE: careless pipeline (proxy feature, no mitigation) ###\n");
    let mut before = GuardedPipeline::new(policy())?;
    before.load_data("loans", "e10", world.clone())?;
    let with_proxy = [
        "income",
        "credit_score",
        "debt_ratio",
        "years_employed",
        "zip_risk",
    ];
    before.train("model-v1", "e10", &with_proxy, "approved", 1, plain)?;
    before.audit_fairness()?;
    if let Some(c) = before.model_card_mut() {
        c.intended_use = "loan approvals".into();
    }
    before.audit_transparency()?;
    before.release_mean("income", 0.0, 250.0, 0.3, 1)?;
    let r1 = before.certify();
    println!("{r1}\n");

    println!("\n### AFTER: remediated pipeline (legit features + reweighing) ###\n");
    let mut after = GuardedPipeline::new(policy())?;
    after.load_data("loans", "e10", world)?;
    after.train("model-v2", "e10", &LEGIT_FEATURES, "approved", 1, reweighed)?;
    after.audit_fairness()?;
    if let Some(c) = after.model_card_mut() {
        c.intended_use = "loan approvals (remediated)".into();
    }
    after.audit_transparency()?;
    after.release_mean("income", 0.0, 250.0, 0.3, 2)?;
    let r2 = after.certify();
    println!("{r2}\n");

    println!(
        "\nsummary: before green={}  after green={}  (expected: false → true)",
        r1.is_green(),
        r2.is_green()
    );
    Ok(())
}
