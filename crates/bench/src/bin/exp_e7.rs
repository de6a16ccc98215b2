//! E7 — black box vs transparency (EXPERIMENTS.md, Table E7 / Figure E7).
//!
//! Paper claim (§2): deep networks are "a black box that apparently makes
//! good decisions, but cannot rationalize them. In several domains, this is
//! unacceptable."
//!
//! Figure: surrogate fidelity (and standalone accuracy) vs tree depth for an
//! MLP hiring model — readable explanations exist, priced in fidelity.
//! Table: permutation-importance stability across seeds.

use fact_data::split::train_test_split;
use fact_data::synth::hiring::{generate_hiring, HiringConfig, HIRING_FEATURES};
use fact_ml::metrics::accuracy;
use fact_ml::mlp::{Mlp, MlpConfig};
use fact_ml::tree::{DecisionTree, TreeConfig};
use fact_ml::Classifier;
use fact_transparency::importance::permutation_importance;
use fact_transparency::surrogate::SurrogateExplainer;

fn main() {
    bench::kit::Mode::from_args();
    let world = generate_hiring(&HiringConfig {
        n: 12_000,
        seed: 7,
        ..HiringConfig::default()
    });
    let (train, test) = train_test_split(&world, 0.3, 3).unwrap();
    let (x_train, names) = train.to_matrix_onehot(&HIRING_FEATURES).unwrap();
    let (x_test, _) = test.to_matrix_onehot(&HIRING_FEATURES).unwrap();
    let y_train = train.bool_column("hired").unwrap().to_vec();
    let y_test = test.bool_column("hired").unwrap().to_vec();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();

    let mlp = Mlp::fit(
        &x_train,
        &y_train,
        &MlpConfig {
            hidden: vec![24, 12],
            epochs: 120,
            ..MlpConfig::default()
        },
    )
    .unwrap();
    let mlp_acc = accuracy(&y_test, &mlp.predict(&x_test).unwrap()).unwrap();
    println!("E7: black box vs transparency (hiring world, nonlinear ground truth)");
    println!(
        "black box: MLP, {} parameters, test accuracy {mlp_acc:.3}\n",
        mlp.n_parameters()
    );

    println!(
        "{:>7} {:>10} {:>12} {:>13} {:>8}",
        "depth", "fidelity", "tree acc", "direct-tree", "leaves"
    );
    println!("{}", "-".repeat(54));
    for depth in 1..=8usize {
        let sur = SurrogateExplainer::distill(&mlp, &x_train, &x_test, &name_refs, depth).unwrap();
        let sur_acc = accuracy(&y_test, &sur.tree().predict(&x_test).unwrap()).unwrap();
        // a tree trained directly on labels, for reference
        let direct = DecisionTree::fit(
            &x_train,
            &y_train,
            &TreeConfig {
                max_depth: depth,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let direct_acc = accuracy(&y_test, &direct.predict(&x_test).unwrap()).unwrap();
        println!(
            "{depth:>7} {:>10.3} {:>12.3} {:>13.3} {:>8}",
            sur.fidelity(),
            sur_acc,
            direct_acc,
            sur.tree().n_leaves()
        );
    }

    println!("\nTable E7b: permutation-importance stability (top feature across 5 shuffle seeds)");
    let mut top_counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for seed in 0..5u64 {
        let imp = permutation_importance(&mlp, &x_test, &y_test, &name_refs, 3, seed).unwrap();
        *top_counts.entry(imp[0].name.clone()).or_insert(0) += 1;
        if seed == 0 {
            for fi in &imp {
                println!("  {:<24} {:+.4} ± {:.4}", fi.name, fi.importance, fi.std);
            }
        }
    }
    println!("  top-1 feature by seed: {top_counts:?}");
    println!(
        "\nExpected shape: fidelity rises monotonically with depth and crosses ~0.9\n\
         by depth 3-4; the same features rank top-1 across seeds (stable explanations)."
    );
}
