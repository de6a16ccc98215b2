//! E1 — proxy discrimination (EXPERIMENTS.md, Table E1 / Figure E1).
//!
//! Paper claim (§2): "Even if sensitive attributes are omitted, members of
//! certain groups may still be systematically rejected."
//!
//! Sweep label-bias strength β; for each β train three models:
//!   (a) WITH the sensitive column,
//!   (b) WITHOUT it, no proxy in the world,
//!   (c) WITHOUT it, but a zip-code proxy (strength 0.8) present.
//! Report held-out disparate impact and accuracy. Expected shape: (a) and
//! (c) discriminate increasingly with β; (b) cannot express the bias and
//! stays near DI = 1.

use fact_data::split::train_test_split;
use fact_data::synth::loans::{generate_loans, LoanConfig};
use fact_fairness::metrics::disparate_impact;
use fact_fairness::protected_mask;
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::metrics::accuracy;
use fact_ml::Classifier;

fn run(ds: &fact_data::Dataset, features: &[&str], seed: u64) -> (f64, f64) {
    let (train, test) = train_test_split(ds, 0.3, seed).unwrap();
    let x = train.to_matrix_onehot(features).unwrap().0;
    let y = train.bool_column("approved").unwrap().to_vec();
    let model = LogisticRegression::fit(
        &x,
        &y,
        None,
        &LogisticConfig {
            seed,
            ..LogisticConfig::default()
        },
    )
    .unwrap();
    let xt = test.to_matrix_onehot(features).unwrap().0;
    let pred = model.predict(&xt).unwrap();
    let yt = test.bool_column("approved").unwrap().to_vec();
    let mask = protected_mask(&test, "group", "B").unwrap();
    (
        disparate_impact(&pred, &mask).unwrap(),
        accuracy(&yt, &pred).unwrap(),
    )
}

fn main() {
    bench::kit::Mode::from_args();
    println!("E1: proxy discrimination — DI (accuracy) by label-bias strength β");
    println!("world: n=20000, group B = 30%, proxy strength 0.8 in column (c)\n");
    println!(
        "{:>5} | {:>22} | {:>22} | {:>22}",
        "β", "(a) with sensitive", "(b) w/o sens, no proxy", "(c) w/o sens, proxy"
    );
    println!("{}", "-".repeat(82));
    for beta in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let seed = (beta * 100.0) as u64 + 1;
        let no_proxy_world = generate_loans(&LoanConfig {
            n: 20_000,
            seed,
            bias_strength: beta,
            proxy_strength: 0.0,
            ..LoanConfig::default()
        });
        let proxy_world = generate_loans(&LoanConfig {
            n: 20_000,
            seed,
            bias_strength: beta,
            proxy_strength: 0.8,
            ..LoanConfig::default()
        });
        let legit = ["income", "credit_score", "debt_ratio", "years_employed"];
        let with_sens = [
            "income",
            "credit_score",
            "debt_ratio",
            "years_employed",
            "group",
        ];
        let with_proxy = [
            "income",
            "credit_score",
            "debt_ratio",
            "years_employed",
            "zip_risk",
        ];
        let (di_a, acc_a) = run(&no_proxy_world, &with_sens, seed);
        let (di_b, acc_b) = run(&no_proxy_world, &legit, seed);
        let (di_c, acc_c) = run(&proxy_world, &with_proxy, seed);
        println!(
            "{beta:>5.1} | {:>12.3} ({acc_a:.3}) | {:>12.3} ({acc_b:.3}) | {:>12.3} ({acc_c:.3})",
            di_a, di_b, di_c
        );
    }
    println!();
    println!("Figure E1: DI of configuration (c) vs proxy strength at fixed β=0.5");
    println!("{:>8} {:>8}", "proxy", "DI");
    for strength in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let world = generate_loans(&LoanConfig {
            n: 20_000,
            seed: 91,
            bias_strength: 0.5,
            proxy_strength: strength,
            ..LoanConfig::default()
        });
        let with_proxy = [
            "income",
            "credit_score",
            "debt_ratio",
            "years_employed",
            "zip_risk",
        ];
        let (di, _) = run(&world, &with_proxy, 91);
        println!("{strength:>8.1} {di:>8.3}");
    }
}
