//! E5 — privacy-utility under a strict budget (EXPERIMENTS.md, Table E5 /
//! Figure E5).
//!
//! Paper claim (§2): confidentiality-preserving analysis means "techniques
//! that work under a strict privacy budget".
//!
//! Figure: mean-absolute error of a DP mean release vs ε, Laplace vs
//! Gaussian (δ=1e-6). Table: queries affordable at total ε=1 under basic vs
//! advanced composition.

use fact_confidentiality::accountant::{advanced_composition_epsilon, queries_affordable_advanced};
use fact_confidentiality::mechanisms::{dp_mean, gaussian_mechanism};
use fact_data::synth::census::{generate_census, CensusConfig};
use fact_stats::descriptive::mean;

fn main() {
    bench::kit::Mode::from_args();
    let census = generate_census(&CensusConfig {
        n: 10_000,
        seed: 5,
        ..CensusConfig::default()
    });
    let salaries = census.f64_column("salary").unwrap();
    let truth = mean(&salaries).unwrap();
    let n = salaries.len() as f64;
    let reps = 200u64;

    println!("E5: privacy-utility tradeoff — DP mean(salary), n=10k, bounds [0,250]");
    println!("true mean = {truth:.3}\n");
    println!("{:>8} {:>14} {:>14}", "ε", "Laplace MAE", "Gaussian MAE");
    println!("{}", "-".repeat(40));
    for eps in [0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let mut lap = 0.0;
        let mut gau = 0.0;
        for seed in 0..reps {
            lap += (dp_mean(&salaries, 0.0, 250.0, eps, seed).unwrap() - truth).abs();
            // same sensitivity (range/n), Gaussian at δ=1e-6
            let sens = 250.0 / n;
            gau += (gaussian_mechanism(truth, sens, eps, 1e-6, seed).unwrap() - truth).abs();
        }
        println!(
            "{eps:>8.2} {:>14.4} {:>14.4}",
            lap / reps as f64,
            gau / reps as f64
        );
    }

    println!("\nTable E5b: queries affordable within total ε = 1.0 (δ' = 1e-5)");
    println!(
        "{:>10} {:>10} {:>10} {:>14}",
        "ε/query", "basic", "advanced", "adv ε@basic-k"
    );
    println!("{}", "-".repeat(48));
    for eps_step in [0.1f64, 0.05, 0.02, 0.01, 0.005] {
        let basic = (1.0 / eps_step).floor() as usize;
        let adv = queries_affordable_advanced(1.0, eps_step, 1e-5).unwrap();
        let adv_eps_at_basic = advanced_composition_epsilon(basic, eps_step, 1e-5).unwrap();
        println!("{eps_step:>10.3} {basic:>10} {adv:>10} {adv_eps_at_basic:>14.3}");
    }
    println!(
        "\nExpected shape: error ∝ 1/ε; Gaussian pays a √(2 ln(1.25/δ)) premium at\n\
         pure-DP-comparable ε; advanced composition overtakes basic once queries\n\
         are small (crossover where ε√(2k ln 1/δ') < kε, i.e. k > 2 ln(1/δ'))."
    );
}
