//! Property-based tests (proptest) on cross-crate invariants.

use proptest::prelude::*;

use fact_confidentiality::kanon::mondrian_k_anonymize;
use fact_confidentiality::mechanisms::laplace_mechanism;
use fact_data::csv::{read_csv, write_csv, CsvOptions};
use fact_data::{Column, Dataset, Matrix};
use fact_fairness::mitigation::reweighing::reweighing_weights;
use fact_par::Pool;
use fact_stats::descriptive::{quantile, ranks};
use fact_stats::dist::norm_cdf;
use fact_stats::multiple::{benjamini_hochberg, bonferroni, holm};

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- dataset engine ----------

    #[test]
    fn filter_keeps_exactly_masked_rows(vals in prop::collection::vec(finite_f64(), 1..60),
                                        mask_seed in 0u64..1000) {
        let n = vals.len();
        let ds = Dataset::builder().f64("x", vals.clone()).build().unwrap();
        let mask: Vec<bool> = (0..n).map(|i| !(i as u64).wrapping_mul(mask_seed + 7).is_multiple_of(3)).collect();
        let kept = ds.filter(&mask).unwrap();
        let expect: Vec<f64> = vals.iter().zip(&mask).filter(|(_, &m)| m).map(|(&v, _)| v).collect();
        prop_assert_eq!(kept.f64_column("x").unwrap(), expect);
    }

    #[test]
    fn take_with_permutation_preserves_multiset(vals in prop::collection::vec(finite_f64(), 1..50)) {
        let n = vals.len();
        let ds = Dataset::builder().f64("x", vals.clone()).build().unwrap();
        let perm: Vec<usize> = (0..n).rev().collect();
        let taken = ds.take(&perm);
        let mut a = taken.f64_column("x").unwrap();
        let mut b = vals;
        a.sort_by(|p, q| p.partial_cmp(q).unwrap());
        b.sort_by(|p, q| p.partial_cmp(q).unwrap());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csv_round_trip_preserves_data(vals in prop::collection::vec(-1e4f64..1e4, 1..40),
                                     labels in prop::collection::vec("[a-z]{1,6}", 1..40)) {
        let n = vals.len().min(labels.len());
        let ds = Dataset::builder()
            .f64("x", vals[..n].to_vec())
            .cat("l", &labels[..n])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(buf.as_slice(), &CsvOptions::default()).unwrap();
        prop_assert_eq!(back.n_rows(), n);
        let orig = ds.f64_column("x").unwrap();
        let rt = back.f64_column("x").unwrap();
        for (o, r) in orig.iter().zip(&rt) {
            prop_assert!((o - r).abs() <= o.abs() * 1e-12 + 1e-12);
        }
        prop_assert_eq!(back.labels("l").unwrap(), ds.labels("l").unwrap());
    }

    // ---------- stats ----------

    #[test]
    fn quantile_is_bounded_and_monotone(vals in prop::collection::vec(finite_f64(), 2..80),
                                        q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = quantile(&vals, lo).unwrap();
        let b = quantile(&vals, hi).unwrap();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a <= b + 1e-9);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    #[test]
    fn ranks_are_a_valid_ranking(vals in prop::collection::vec(finite_f64(), 1..60)) {
        let r = ranks(&vals);
        let n = vals.len() as f64;
        let sum: f64 = r.iter().sum();
        // rank sum is invariant: n(n+1)/2
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        for &x in &r {
            prop_assert!(x >= 1.0 && x <= n);
        }
    }

    #[test]
    fn corrections_dominate_raw_p_and_stay_in_unit_interval(
        ps in prop::collection::vec(0.0f64..=1.0, 1..60)
    ) {
        for f in [bonferroni, holm, benjamini_hochberg] {
            let adj = f(&ps).unwrap();
            for (&raw, &a) in ps.iter().zip(&adj) {
                prop_assert!(a >= raw - 1e-12, "adjusted must not fall below raw");
                prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
            }
        }
    }

    #[test]
    fn holm_dominates_bonferroni(ps in prop::collection::vec(0.0f64..=1.0, 1..40)) {
        let b = bonferroni(&ps).unwrap();
        let h = holm(&ps).unwrap();
        for (&bb, &hh) in b.iter().zip(&h) {
            prop_assert!(hh <= bb + 1e-12);
        }
    }

    #[test]
    fn norm_cdf_is_monotone_and_bounded(x in -30.0f64..30.0, dx in 0.0f64..5.0) {
        let a = norm_cdf(x);
        let b = norm_cdf(x + dx);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b >= a - 1e-12);
    }

    // ---------- matrix kernel ----------

    #[test]
    fn solve_inverts_diagonally_dominant_systems(
        off in prop::collection::vec(-1.0f64..1.0, 9),
        b in prop::collection::vec(-10.0f64..10.0, 3)
    ) {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a.set(i, j, off[i * 3 + j]);
            }
            a.set(i, i, 5.0 + off[i * 3 + i]); // dominance ⇒ well-conditioned
        }
        let x = a.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (v, w) in back.iter().zip(&b) {
            prop_assert!((v - w).abs() < 1e-8);
        }
    }

    // ---------- confidentiality ----------

    #[test]
    fn laplace_mechanism_is_translation_equivariant(
        value in -1e3f64..1e3, shift in -1e3f64..1e3, seed in 0u64..500
    ) {
        let a = laplace_mechanism(value, 1.0, 1.0, seed).unwrap();
        let b = laplace_mechanism(value + shift, 1.0, 1.0, seed).unwrap();
        prop_assert!(((b - a) - shift).abs() < 1e-9);
    }

    // ---------- fairness ----------

    #[test]
    fn reweighing_always_balances_weighted_label_mass(
        flags in prop::collection::vec(any::<(bool, bool)>(), 8..120)
    ) {
        let y: Vec<bool> = flags.iter().map(|&(a, _)| a).collect();
        let mask: Vec<bool> = flags.iter().map(|&(_, b)| b).collect();
        // require all four cells non-empty, else the function errors by contract
        let mut cells = [[0; 2]; 2];
        for (&yy, &mm) in y.iter().zip(&mask) {
            cells[usize::from(mm)][usize::from(yy)] += 1;
        }
        prop_assume!(cells.iter().flatten().all(|&c| c > 0));
        let w = reweighing_weights(&y, &mask).unwrap();
        let rate = |want: bool| {
            let num: f64 = y.iter().zip(&mask).zip(&w)
                .filter(|((_, &m), _)| m == want)
                .map(|((&l, _), &wv)| if l { wv } else { 0.0 })
                .sum();
            let den: f64 = mask.iter().zip(&w).filter(|(&m, _)| m == want).map(|(_, &wv)| wv).sum();
            num / den
        };
        prop_assert!((rate(true) - rate(false)).abs() < 1e-9);
        prop_assert!(w.iter().all(|&v| v > 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // expensive case: full anonymization postcondition
    #[test]
    fn mondrian_output_is_always_k_anonymous(
        n in 60usize..240, k in 2usize..12, seed in 0u64..50
    ) {
        let census = fact_data::synth::census::generate_census(
            &fact_data::synth::census::CensusConfig {
                n,
                seed,
                n_zipcodes: 8,
            },
        );
        let anon = mondrian_k_anonymize(&census, &["age", "sex", "zipcode"], k).unwrap();
        prop_assert!(anon.min_class_size() >= k);
        prop_assert!(
            fact_confidentiality::kanon::is_k_anonymous(&anon.data, &["age", "sex", "zipcode"], k)
                .unwrap()
        );
        prop_assert!((0.0..=1.0).contains(&anon.information_loss));
    }

    // tree predictions are total and bounded on arbitrary inputs
    #[test]
    fn tree_predictions_are_total(seed in 0u64..100, probe in prop::collection::vec(-1e5f64..1e5, 2)) {
        use fact_ml::tree::{DecisionTree, TreeConfig};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<bool> = rows.iter().map(|r| r[0] + r[1] > 1.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default()).unwrap();
        let p = tree.predict_row(&probe).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
        let (path, leaf_p) = tree.decision_path(&probe).unwrap();
        prop_assert_eq!(p, leaf_p);
        for c in path {
            if c.is_le {
                prop_assert!(probe[c.feature] <= c.threshold);
            } else {
                prop_assert!(probe[c.feature] > c.threshold);
            }
        }
    }
}

#[test]
fn dataset_column_round_trip_with_nulls() {
    // deterministic companion to the proptest CSV round trip: nullable columns
    let ds = Dataset::builder()
        .f64_opt("x", vec![Some(1.5), None, Some(-2.25), None])
        .cat("g", &["a", "b", "a", "c"])
        .build()
        .unwrap();
    let mut buf = Vec::new();
    write_csv(&ds, &mut buf).unwrap();
    let back = read_csv(buf.as_slice(), &CsvOptions::default()).unwrap();
    assert_eq!(back.column("x").unwrap().null_count(), 2);
    assert_eq!(back.labels("g").unwrap(), ds.labels("g").unwrap());
    // null positions preserved
    assert!(back.column("x").unwrap().is_null(1));
    assert!(back.column("x").unwrap().is_null(3));
}

#[test]
fn column_api_smoke() {
    let c = Column::from_labels(&["x", "y", "x"]);
    assert_eq!(c.value_counts()[0], ("x".to_string(), 2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---------- join invariants ----------

    #[test]
    fn inner_join_row_count_equals_key_match_product(
        left_keys in prop::collection::vec(0u8..5, 1..30),
        right_keys in prop::collection::vec(0u8..5, 1..30)
    ) {
        use fact_data::join::{join, JoinKind};
        let lk: Vec<String> = left_keys.iter().map(|k| format!("k{k}")).collect();
        let rk: Vec<String> = right_keys.iter().map(|k| format!("k{k}")).collect();
        let left = Dataset::builder()
            .cat("key", &lk)
            .f64("lv", (0..lk.len()).map(|i| i as f64).collect())
            .build()
            .unwrap();
        let right = Dataset::builder()
            .cat("key", &rk)
            .f64("rv", (0..rk.len()).map(|i| i as f64).collect())
            .build()
            .unwrap();
        let inner = join(&left, &right, "key", JoinKind::Inner).unwrap();
        // expected: Σ over keys of count_left(k) * count_right(k)
        let mut expected = 0usize;
        for k in 0..5u8 {
            let c_l = left_keys.iter().filter(|&&v| v == k).count();
            let c_r = right_keys.iter().filter(|&&v| v == k).count();
            expected += c_l * c_r;
        }
        prop_assert_eq!(inner.n_rows(), expected);
        // left join: every left row appears at least once
        let lj = join(&left, &right, "key", JoinKind::Left).unwrap();
        prop_assert!(lj.n_rows() >= left.n_rows());
    }

    // ---------- aggregation invariants ----------

    #[test]
    fn group_sums_total_to_global_sum(
        vals in prop::collection::vec(-100.0f64..100.0, 1..50),
        keys in prop::collection::vec(0u8..4, 1..50)
    ) {
        use fact_data::agg::{aggregate, AggFn};
        let n = vals.len().min(keys.len());
        let labels: Vec<String> = keys[..n].iter().map(|k| format!("g{k}")).collect();
        let ds = Dataset::builder()
            .cat("g", &labels)
            .f64("v", vals[..n].to_vec())
            .build()
            .unwrap();
        let agg = aggregate(&ds, "g", &[("v", AggFn::Sum), ("v", AggFn::Count)]).unwrap();
        let group_total: f64 = agg.f64_column("v_sum").unwrap().iter().sum();
        let global: f64 = vals[..n].iter().sum();
        prop_assert!((group_total - global).abs() < 1e-9);
        let count_total: f64 = agg.f64_column("v_count").unwrap().iter().sum();
        prop_assert_eq!(count_total as usize, n);
    }

    // ---------- expression layer ----------

    #[test]
    fn predicate_negation_partitions_rows(
        vals in prop::collection::vec(-10.0f64..10.0, 1..60),
        threshold in -10.0f64..10.0
    ) {
        use fact_data::expr::col;
        let ds = Dataset::builder().f64("x", vals.clone()).build().unwrap();
        let p = col("x").gt(threshold);
        let yes = p.eval(&ds).unwrap();
        let no = p.clone().not().eval(&ds).unwrap();
        for (a, b) in yes.iter().zip(&no) {
            prop_assert!(a ^ b, "p and ¬p partition all rows");
        }
    }

    // ---------- causal sensitivity ----------

    #[test]
    fn e_value_at_least_rr_and_symmetric(rr in 0.01f64..50.0) {
        use fact_causal::sensitivity::e_value;
        let e = e_value(rr).unwrap();
        let folded = if rr >= 1.0 { rr } else { 1.0 / rr };
        prop_assert!(e >= folded - 1e-12);
        let e_inv = e_value(1.0 / rr).unwrap();
        prop_assert!((e - e_inv).abs() < 1e-9);
    }

    // ---------- boosting bounds ----------

    #[test]
    fn boosting_probabilities_bounded(seed in 0u64..30) {
        use fact_ml::boosting::{BoostConfig, GradientBoost};
        use fact_ml::Classifier;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..80).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let y: Vec<bool> = rows.iter().map(|r| r[0] > 0.5).collect();
        prop_assume!(y.iter().any(|&b| b) && y.iter().any(|&b| !b));
        let x = Matrix::from_rows(&rows).unwrap();
        let m = GradientBoost::fit(&x, &y, &BoostConfig {
            n_rounds: 10,
            ..BoostConfig::default()
        }).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }
}

#[test]
fn platt_identity_on_already_calibrated_scores() {
    use fact_ml::calibration::PlattScaler;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..5000 {
        let p: f64 = rng.gen();
        scores.push(p);
        labels.push(rng.gen::<f64>() < p);
    }
    let scaler = PlattScaler::fit(&scores, &labels).unwrap();
    let (a, b) = scaler.coefficients();
    assert!((a - 1.0).abs() < 0.1, "calibrated input ⇒ a≈1, got {a}");
    assert!(b.abs() < 0.1, "calibrated input ⇒ b≈0, got {b}");
}

// ---------- fact-par determinism ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core contract of fact-par: chunk boundaries depend only on
    /// (n, grain), so any pool computes exactly what a sequential map would.
    #[test]
    fn par_map_equals_sequential_for_any_pool(
        vals in prop::collection::vec(finite_f64(), 0..300),
        grain in 1usize..64,
        workers in 1usize..9,
    ) {
        let got = Pool::new(workers).par_map(vals.len(), grain, |i| vals[i].mul_add(1.5, -2.0));
        let want: Vec<f64> = vals.iter().map(|v| v.mul_add(1.5, -2.0)).collect();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// In-place chunk mutation must visit every element exactly once, at
    /// any grain and worker count.
    #[test]
    fn par_for_each_mut_equals_sequential_for_any_pool(
        vals in prop::collection::vec(finite_f64(), 0..300),
        grain in 1usize..64,
        workers in 1usize..9,
    ) {
        let mut got = vals.clone();
        Pool::new(workers).par_for_each_mut(&mut got, grain, |base, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v += (base + k) as f64;
            }
        });
        let want: Vec<f64> = vals.iter().enumerate().map(|(i, v)| v + i as f64).collect();
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// Non-associative float accumulation is the acid test for the fixed
    /// fold order: the reduction must be bit-identical at every worker count.
    #[test]
    fn par_reduce_bits_are_worker_count_invariant(
        vals in prop::collection::vec(finite_f64(), 1..500),
        grain in 1usize..64,
        workers in 2usize..9,
    ) {
        let sum_with = |w: usize| {
            Pool::new(w)
                .par_reduce(vals.len(), grain, |r| r.map(|i| vals[i]).sum::<f64>(), |a, b| a + b)
                .unwrap()
        };
        prop_assert_eq!(sum_with(1).to_bits(), sum_with(workers).to_bits());
    }

    /// The tiled + parallel matmul must agree bitwise with the naive triple
    /// loop on arbitrary shapes, whatever the global worker count is.
    #[test]
    fn matmul_matches_naive_bitwise_at_any_worker_count(
        rows in 1usize..40, inner in 1usize..40, cols in 1usize..40,
        seed in 0u64..1000, workers in 1usize..9,
    ) {
        let fill = |r: usize, c: usize, salt: u64| {
            let data: Vec<f64> = (0..r * c)
                .map(|i| {
                    let h = (i as u64)
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(seed.wrapping_mul(31).wrapping_add(salt));
                    (h % 2003) as f64 / 1001.5 - 1.0
                })
                .collect();
            Matrix::from_flat(data, r, c).unwrap()
        };
        let a = fill(rows, inner, 1);
        let b = fill(inner, cols, 2);
        fact_par::set_workers(workers);
        let par = a.matmul(&b).unwrap();
        fact_par::set_workers(0);
        let naive = a.matmul_naive(&b).unwrap();
        for (x, y) in par.as_slice().iter().zip(naive.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chunk-seeded resampling: the bootstrap interval is bit-identical at
    /// any worker count because each chunk owns its RNG seed.
    #[test]
    fn bootstrap_ci_bits_are_worker_count_invariant(
        vals in prop::collection::vec(0.0f64..100.0, 8..60),
        workers in 2usize..9,
        seed in 0u64..500,
    ) {
        use fact_stats::ci::bootstrap_ci;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        fact_par::set_workers(1);
        let a = bootstrap_ci(&vals, mean, 300, 0.9, seed).unwrap();
        fact_par::set_workers(workers);
        let b = bootstrap_ci(&vals, mean, 300, 0.9, seed).unwrap();
        fact_par::set_workers(0);
        prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        prop_assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        prop_assert_eq!(a.upper.to_bits(), b.upper.to_bits());
    }
}

// ---------- streaming fairness monitor ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The monitor's O(1) sliding-window bookkeeping and its division-free
    /// verdict must agree with a naive recomputation over the last `window`
    /// events, for arbitrary sequences several windows long, windows up to
    /// ~2000, and thresholds that include exact-tie rationals — including
    /// the degenerate zero-rate and empty-group windows.
    #[test]
    fn sliding_window_counts_match_naive_recomputation(
        draws in prop::collection::vec((any::<bool>(), any::<u8>()), 1..6000),
        skew_a in any::<u8>(),
        skew_b in any::<u8>(),
        window in (any::<bool>(), 1usize..64, 64usize..2000)
            .prop_map(|(large, small, big)| if large { big } else { small }),
        min_samples in 0usize..8,
        // half the cases use an exact-tie rational, half a random value
        min_di in (0usize..12, 0.0f64..1.0).prop_map(|(k, x)| {
            [0.0, 0.5, 2.0 / 3.0, 0.75, 0.8, 1.0].get(k).copied().unwrap_or(x)
        }),
    ) {
        use fact_core::runtime::{Alert, StreamingFairnessMonitor};
        // per-group favorable shares, so windows range from fair to
        // one-sided
        let events: Vec<(bool, bool)> = draws
            .iter()
            .map(|&(g, x)| (g, x < if g { skew_b } else { skew_a }))
            .collect();
        let mut monitor = StreamingFairnessMonitor::new(window, min_di, min_samples).unwrap();
        // naive model: window counts as differences of prefix counts over
        // the whole history, indexed [group][favorable]
        let mut prefix = vec![[[0usize; 2]; 2]];
        for &(g, f) in &events {
            let mut next = *prefix.last().unwrap();
            next[usize::from(g)][usize::from(f)] += 1;
            prefix.push(next);
        }
        for (t, &(group_b, favorable)) in events.iter().enumerate() {
            let got = monitor.observe(group_b, favorable);

            let (hi, lo) = (prefix[t + 1], prefix[(t + 1).saturating_sub(window)]);
            let count = |g: usize, f: usize| hi[g][f] - lo[g][f];
            let n_a = count(0, 0) + count(0, 1);
            let n_b = count(1, 0) + count(1, 1);
            let expect = if n_a < min_samples || n_b < min_samples {
                None
            } else {
                let rate_a = count(0, 1) as f64 / n_a as f64;
                let rate_b = count(1, 1) as f64 / n_b as f64;
                let di = if rate_a > 0.0 {
                    rate_b / rate_a
                } else if rate_b > 0.0 {
                    f64::INFINITY
                } else {
                    f64::NAN // sentinel: no evidence, expect None
                };
                if di.is_nan() || (di >= min_di && di.is_finite()) {
                    None
                } else {
                    Some((rate_b, rate_a, di))
                }
            };
            match (got, expect) {
                (None, None) => {}
                (
                    Some(Alert::FairnessViolation {
                        rate_protected,
                        rate_unprotected,
                        disparate_impact,
                    }),
                    Some((eb, ea, edi)),
                ) => {
                    // bitwise equality so the NaN rate of an empty group
                    // (reachable when min_samples == 0) compares equal
                    prop_assert_eq!(rate_protected.to_bits(), eb.to_bits());
                    prop_assert_eq!(rate_unprotected.to_bits(), ea.to_bits());
                    prop_assert_eq!(disparate_impact.to_bits(), edi.to_bits());
                }
                (g, e) => {
                    return Err(TestCaseError::Fail(format!(
                        "monitor and naive model disagree: got {g:?}, expected {e:?}"
                    )));
                }
            }
        }
    }
}
