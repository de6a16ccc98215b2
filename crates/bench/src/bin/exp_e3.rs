//! E3 — multiple testing (EXPERIMENTS.md, Table E3 / Figure E3).
//!
//! Paper claim (§2): "If enough hypotheses are tested, one will eventually
//! be true for the sample data used" — the terrorist/eye-color example.
//!
//! A pure-noise world: binary response, m random predictors, Welch tests.
//! Table: naive vs corrected discovery counts by m. Figure: estimated
//! family-wise error rate vs m, uncorrected vs Holm.
//!
//! The claim's shape is asserted in every mode (`--smoke` runs in full):
//! Holm's FWER stays within α plus a 3σ binomial margin over the 40
//! replications at every m, the uncorrected FWER reaches 0.9 by m = 400,
//! and the naive discoveries at m = 5000 sit within 4σ of α·m.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fact_accuracy::registry::{CorrectionMethod, HypothesisRegistry};
use fact_stats::tests::welch_t_test;

fn null_p_values(n_rows: usize, m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let response: Vec<bool> = (0..n_rows).map(|_| rng.gen_bool(0.5)).collect();
    let mut ps = Vec::with_capacity(m);
    for _ in 0..m {
        let x: Vec<f64> = (0..n_rows).map(|_| rng.gen()).collect();
        let yes: Vec<f64> = x
            .iter()
            .zip(&response)
            .filter(|(_, &r)| r)
            .map(|(&v, _)| v)
            .collect();
        let no: Vec<f64> = x
            .iter()
            .zip(&response)
            .filter(|(_, &r)| !r)
            .map(|(&v, _)| v)
            .collect();
        ps.push(welch_t_test(&yes, &no).unwrap().p_value);
    }
    ps
}

/// Significance level of every test.
const ALPHA: f64 = 0.05;
/// Replications behind each FWER estimate.
const REPS: u64 = 40;

fn main() {
    bench::kit::Mode::from_args();
    println!("E3: multiple testing on pure noise (n=300 rows, α=0.05)\n");
    println!(
        "{:>6} {:>8} {:>11} {:>8} {:>8} {:>8}",
        "m", "naive", "bonferroni", "holm", "BH", "BY"
    );
    println!("{}", "-".repeat(56));
    for m in [10usize, 100, 1_000, 5_000] {
        let ps = null_p_values(300, m, m as u64);
        let mut reg = HypothesisRegistry::new();
        for (i, &p) in ps.iter().enumerate() {
            reg.register(format!("h{i}"), p).unwrap();
        }
        let counts: Vec<usize> = [
            CorrectionMethod::Bonferroni,
            CorrectionMethod::Holm,
            CorrectionMethod::BenjaminiHochberg,
            CorrectionMethod::BenjaminiYekutieli,
        ]
        .iter()
        .map(|&method| reg.report(0.05, method).unwrap().corrected_discoveries)
        .collect();
        let naive = reg
            .report(0.05, CorrectionMethod::Holm)
            .unwrap()
            .naive_discoveries;
        println!(
            "{m:>6} {naive:>8} {:>11} {:>8} {:>8} {:>8}",
            counts[0], counts[1], counts[2], counts[3]
        );
        if m == 5_000 {
            // naive discoveries on noise are Binomial(m, α)
            let (mean, sd) = (m as f64 * ALPHA, (m as f64 * ALPHA * (1.0 - ALPHA)).sqrt());
            assert!(
                (naive as f64 - mean).abs() <= 4.0 * sd,
                "naive discoveries at m = {m}: {naive}, outside {mean} ± 4·{sd:.1}"
            );
        }
    }

    println!("\nFigure E3: family-wise error rate (P[≥1 false discovery], 40 replications)");
    println!("{:>6} {:>12} {:>10}", "m", "uncorrected", "holm");
    for m in [5usize, 20, 100, 400] {
        let mut fw_naive = 0;
        let mut fw_holm = 0;
        for rep in 0..REPS {
            let ps = null_p_values(200, m, 1000 + rep * 7 + m as u64);
            if ps.iter().any(|&p| p <= 0.05) {
                fw_naive += 1;
            }
            let adj = fact_stats::multiple::holm(&ps).unwrap();
            if adj.iter().any(|&p| p <= 0.05) {
                fw_holm += 1;
            }
        }
        let (fw_naive, fw_holm) = (fw_naive as f64 / REPS as f64, fw_holm as f64 / REPS as f64);
        println!("{m:>6} {fw_naive:>12.2} {fw_holm:>10.2}");
        // Holm controls FWER at α; 40 replications estimate it to within
        // a binomial standard error
        let margin = 3.0 * (ALPHA * (1.0 - ALPHA) / REPS as f64).sqrt();
        assert!(
            fw_holm <= ALPHA + margin,
            "Holm FWER at m = {m}: {fw_holm}, over {ALPHA} + {margin:.3}"
        );
        if m == 400 {
            assert!(fw_naive >= 0.9, "uncorrected FWER at m = {m}: {fw_naive}");
        }
    }
    println!("\nExpected shape: uncorrected FWER → 1 as m grows; Holm stays ≤ 0.05.");
}
