//! E12 — thread scaling of the fact-par hot kernels (EXPERIMENTS.md, E12).
//!
//! Runs each parallelized kernel at 1/2/4/8 workers (`fact_par::set_workers`)
//! and reports wall time plus speedup over the 1-worker run. The headline
//! assertion is not the speedup — on a single-core host every column is
//! ~1.0× and that is fine — but the **equality check**: every kernel's
//! output at every worker count must be bit-identical to its 1-worker
//! output, because fact-par chunks by problem size, never by worker count.
//!
//! `--smoke` runs tiny problem sizes at 1–2 workers for CI (seconds, no
//! results file); the full run writes `results/e12.txt`.

use std::time::Instant;

use bench::{header, kit};
use fact_data::Matrix;
use fact_ml::forest::{ForestConfig, RandomForest};
use fact_ml::tree::TreeConfig;
use fact_ml::Classifier;
use fact_stats::ci::bootstrap_ci;
use fact_stats::tests::permutation_test;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Sizes {
    matmul: usize,
    forest_rows: usize,
    forest_trees: usize,
    boot_n: usize,
    boot_reps: usize,
    perm_n: usize,
    perm_reps: usize,
    repeats: usize,
    workers: &'static [usize],
}

const FULL: Sizes = Sizes {
    matmul: 192,
    forest_rows: 1_500,
    forest_trees: 24,
    boot_n: 2_000,
    boot_reps: 2_000,
    perm_n: 400,
    perm_reps: 4_000,
    repeats: 3,
    workers: &[1, 2, 4, 8],
};

const SMOKE: Sizes = Sizes {
    matmul: 48,
    forest_rows: 200,
    forest_trees: 4,
    boot_n: 200,
    boot_reps: 100,
    perm_n: 60,
    perm_reps: 200,
    repeats: 1,
    workers: &[1, 2],
};

/// One kernel: returns an output fingerprint (for the equality check) and
/// runs entirely under whatever worker count is currently configured.
struct Kernel {
    name: &'static str,
    run: Box<dyn Fn() -> Vec<u64>>,
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn gen_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_flat(data, rows, cols).unwrap()
}

fn labeled_world(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a: f64 = rng.gen_range(-2.0..2.0);
        let b: f64 = rng.gen_range(-2.0..2.0);
        y.push((a > 0.0) != (b > 0.0));
        rows.push(vec![a, b, a * b]);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn kernels(s: &Sizes) -> Vec<Kernel> {
    let n = s.matmul;
    let a = gen_matrix(n, n, 1);
    let b = gen_matrix(n, n, 2);
    let (fx, fy) = labeled_world(s.forest_rows, 3);
    let forest_cfg = ForestConfig {
        n_trees: s.forest_trees,
        tree: TreeConfig::default(),
        max_features: None,
        seed: 4,
    };
    let fitted = RandomForest::fit(&fx, &fy, &forest_cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let boot: Vec<f64> = (0..s.boot_n).map(|_| rng.gen_range(0.0..10.0)).collect();
    let boot_reps = s.boot_reps;
    let perm_xs: Vec<f64> = (0..s.perm_n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let perm_ys: Vec<f64> = (0..s.perm_n).map(|_| rng.gen_range(0.1..1.1)).collect();
    let perm_reps = s.perm_reps;

    vec![
        Kernel {
            name: "matmul",
            run: Box::new(move || bits(a.matmul(&b).unwrap().as_slice())),
        },
        Kernel {
            name: "forest_fit",
            run: {
                let (fx, fy) = labeled_world(s.forest_rows, 3);
                let cfg = forest_cfg.clone();
                Box::new(move || {
                    let f = RandomForest::fit(&fx, &fy, &cfg).unwrap();
                    bits(&f.predict_proba(&fx).unwrap())
                })
            },
        },
        Kernel {
            name: "forest_predict",
            run: Box::new(move || bits(&fitted.predict_proba(&fx).unwrap())),
        },
        Kernel {
            name: "bootstrap_ci",
            run: Box::new(move || {
                let ci = bootstrap_ci(
                    &boot,
                    |xs| xs.iter().sum::<f64>() / xs.len() as f64,
                    boot_reps,
                    0.95,
                    6,
                )
                .unwrap();
                bits(&[ci.estimate, ci.lower, ci.upper])
            }),
        },
        Kernel {
            name: "permutation",
            run: Box::new(move || {
                let r = permutation_test(&perm_xs, &perm_ys, perm_reps, 7).unwrap();
                bits(&[r.statistic, r.p_value])
            }),
        },
    ]
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let s = if smoke { &SMOKE } else { &FULL };
    println!(
        "E12: thread scaling of the fact-par kernels ({} mode, host parallelism {})\n",
        if smoke { "smoke" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let ks = kernels(s);
    let mut columns = vec!["kernel", "1w(ms)"];
    for &w in &s.workers[1..] {
        columns.push(match w {
            2 => "2w(x)",
            4 => "4w(x)",
            8 => "8w(x)",
            _ => "nw(x)",
        });
    }
    columns.push("equal");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len().max(10)).collect();
    widths[0] = ks.iter().map(|k| k.name.len()).max().unwrap_or(10).max(10);
    let mut out = header(&columns, &widths);
    out.push('\n');

    let mut all_equal = true;
    let mut best_speedups: Vec<f64> = Vec::new();
    for k in &ks {
        let mut base_ms = 0.0;
        let mut base_bits: Vec<u64> = Vec::new();
        let mut line = format!("{:>width$} ", k.name, width = widths[0]);
        let mut equal = true;
        let mut best = 1.0f64;
        for (wi, &w) in s.workers.iter().enumerate() {
            fact_par::set_workers(w);
            // warm-up, which is also the output the equality check sees
            let result = (k.run)();
            let mut fastest = f64::INFINITY;
            for _ in 0..s.repeats {
                let t0 = Instant::now();
                let r = (k.run)();
                fastest = fastest.min(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(r, result, "{} not deterministic at {w} workers", k.name);
            }
            if wi == 0 {
                base_ms = fastest;
                base_bits = result;
                line.push_str(&format!("{base_ms:>width$.2} ", width = widths[1]));
            } else {
                equal &= result == base_bits;
                let speedup = base_ms / fastest.max(1e-9);
                best = best.max(speedup);
                line.push_str(&format!("{speedup:>width$.2} ", width = widths[wi + 1]));
            }
        }
        fact_par::set_workers(0);
        all_equal &= equal;
        best_speedups.push(best);
        line.push_str(&format!(
            "{:>width$} ",
            if equal { "PASS" } else { "FAIL" },
            width = widths[columns.len() - 1]
        ));
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    }

    let kernels_scaling = best_speedups.iter().filter(|&&v| v >= 1.5).count();
    let summary = format!(
        "\nsequential-equality: {} (parallel output bit-identical to 1 worker on every kernel)\n\
         kernels with >=1.5x best speedup: {kernels_scaling}/{} \
         (expect 0 on a single-core host; >=3 on 4+ cores)\n",
        if all_equal { "PASS" } else { "FAIL" },
        best_speedups.len(),
    );
    print!("{summary}");
    out.push_str(&summary);
    assert!(all_equal, "determinism contract violated");

    if !smoke {
        kit::write_results("e12", &out);
    }
}
