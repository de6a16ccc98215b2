//! Cross-crate fairness integration: bias injection (fact-data) →
//! detection (fact-fairness metrics/proxy) → mitigation → re-audit,
//! across multiple seeds.

use bench::kit::ScratchDir;
use fact_data::agg::{aggregate_segments, AggFn};
use fact_data::bias::{flip_labels_against_group, group_rates_segments, undersample_group};
use fact_data::segment::{RlePolicy, SegmentReader};
use fact_data::split::train_test_split;
use fact_data::synth::loans::{generate_loans, LoanConfig};
use fact_data::{CatData, Column, Dataset, FactError, Predicate, SegmentSet, SegmentWriteConfig};
use fact_fairness::intersectional::intersectional_audit_segments;
use fact_fairness::metrics::{disparate_impact, statistical_parity_difference};
use fact_fairness::mitigation::repair::repair_disparate_impact;
use fact_fairness::mitigation::reweighing::reweighing_weights;
use fact_fairness::mitigation::threshold::equalize_selection_rates;
use fact_fairness::proxy::{flag_proxies, scan_proxies};
use fact_fairness::{protected_mask, protected_mask_segments};
use fact_ml::logistic::{LogisticConfig, LogisticRegression};
use fact_ml::metrics::accuracy;
use fact_ml::Classifier;

#[test]
fn injected_label_bias_is_detected_across_seeds() {
    for seed in [1u64, 22, 333] {
        let clean = generate_loans(&LoanConfig {
            n: 12_000,
            seed,
            ..LoanConfig::default()
        });
        let (biased, flipped) =
            flip_labels_against_group(&clean, "approved", "group", "B", 0.4, seed).unwrap();
        assert!(flipped > 0);
        let mask = protected_mask(&biased, "group", "B").unwrap();
        let labels = biased.bool_column("approved").unwrap();
        let spd = statistical_parity_difference(labels, &mask).unwrap();
        assert!(
            spd > 0.1,
            "seed {seed}: injected bias visible in labels, spd={spd}"
        );
    }
}

#[test]
fn proxy_pipeline_discriminates_even_without_sensitive_attribute() {
    // the paper's core fairness claim, as an integration test
    let ds = generate_loans(&LoanConfig {
        n: 16_000,
        seed: 77,
        bias_strength: 0.45,
        proxy_strength: 0.9,
        ..LoanConfig::default()
    });
    let (train, test) = train_test_split(&ds, 0.25, 1).unwrap();
    let features = [
        "income",
        "credit_score",
        "debt_ratio",
        "years_employed",
        "zip_risk",
    ]; // NOTE: no "group" column
    let x = train.to_matrix(&features).unwrap();
    let y = train.bool_column("approved").unwrap().to_vec();
    let model = LogisticRegression::fit(&x, &y, None, &LogisticConfig::default()).unwrap();
    let xt = test.to_matrix(&features).unwrap();
    let pred = model.predict(&xt).unwrap();
    let mask = protected_mask(&test, "group", "B").unwrap();
    let di = disparate_impact(&pred, &mask).unwrap();
    assert!(
        di < 0.6,
        "model without the sensitive column still discriminates via the proxy: DI={di}"
    );
    // and the proxy scanner names the culprit
    let mask_tr = protected_mask(&train, "group", "B").unwrap();
    let scores = scan_proxies(&train, &mask_tr, &["group", "approved"]).unwrap();
    let flagged = flag_proxies(&scores, 0.2);
    assert_eq!(flagged[0].feature, "zip_risk");
}

#[test]
fn every_mitigation_improves_di_on_the_same_world() {
    let ds = generate_loans(&LoanConfig {
        n: 16_000,
        seed: 5,
        bias_strength: 0.45,
        proxy_strength: 0.8,
        feature_gap: 5.0,
        ..LoanConfig::default()
    });
    let (train, test) = train_test_split(&ds, 0.25, 2).unwrap();
    let features = [
        "income",
        "credit_score",
        "debt_ratio",
        "years_employed",
        "zip_risk",
    ];
    let x = train.to_matrix(&features).unwrap();
    let y = train.bool_column("approved").unwrap().to_vec();
    let xt = test.to_matrix(&features).unwrap();
    let mask_tr = protected_mask(&train, "group", "B").unwrap();
    let mask_te = protected_mask(&test, "group", "B").unwrap();
    let cfg = LogisticConfig::default();

    let base = LogisticRegression::fit(&x, &y, None, &cfg).unwrap();
    let di_base = disparate_impact(&base.predict(&xt).unwrap(), &mask_te).unwrap();

    // reweighing
    let w = reweighing_weights(&y, &mask_tr).unwrap();
    let m = LogisticRegression::fit(&x, &y, Some(&w), &cfg).unwrap();
    let di_rw = disparate_impact(&m.predict(&xt).unwrap(), &mask_te).unwrap();

    // repair
    let rep_tr = repair_disparate_impact(&train, &features, &mask_tr, 1.0).unwrap();
    let rep_te = repair_disparate_impact(&test, &features, &mask_te, 1.0).unwrap();
    let m = LogisticRegression::fit(&rep_tr.to_matrix(&features).unwrap(), &y, None, &cfg).unwrap();
    let di_rep = disparate_impact(
        &m.predict(&rep_te.to_matrix(&features).unwrap()).unwrap(),
        &mask_te,
    )
    .unwrap();

    // threshold post-processing
    let scores = base.predict_proba(&xt).unwrap();
    let th = equalize_selection_rates(&scores, &mask_te, 0.5).unwrap();
    let di_th = disparate_impact(&th.apply(&scores, &mask_te).unwrap(), &mask_te).unwrap();

    for (name, di) in [
        ("reweighing", di_rw),
        ("repair", di_rep),
        ("threshold", di_th),
    ] {
        assert!(
            di > di_base + 0.1,
            "{name} must improve DI: base {di_base:.3} → {di:.3}"
        );
    }
    assert!(di_th > 0.9, "threshold optimization nails parity: {di_th}");
}

#[test]
fn representation_bias_shrinks_group_and_trips_adequacy() {
    let ds = generate_loans(&LoanConfig {
        n: 2_000,
        seed: 9,
        group_b_frac: 0.5,
        ..LoanConfig::default()
    });
    let shrunk = undersample_group(&ds, "group", "B", 0.02, 3).unwrap();
    let warnings = fact_accuracy::adequacy::check_group_sizes(&shrunk, "group", 50).unwrap();
    assert!(
        !warnings.is_empty(),
        "undersampled group must trip adequacy"
    );
    assert!(warnings[0].subject.contains("B"));
}

#[test]
fn fairness_accuracy_tradeoff_is_monotone_in_repair_amount() {
    let ds = generate_loans(&LoanConfig {
        n: 12_000,
        seed: 11,
        bias_strength: 0.3,
        proxy_strength: 0.8,
        feature_gap: 10.0,
        ..LoanConfig::default()
    });
    let (train, test) = train_test_split(&ds, 0.25, 4).unwrap();
    let features = [
        "income",
        "credit_score",
        "debt_ratio",
        "years_employed",
        "zip_risk",
    ];
    let y = train.bool_column("approved").unwrap().to_vec();
    let yt = test.bool_column("approved").unwrap().to_vec();
    let mask_tr = protected_mask(&train, "group", "B").unwrap();
    let mask_te = protected_mask(&test, "group", "B").unwrap();

    let run = |amount: f64| {
        let r_tr = repair_disparate_impact(&train, &features, &mask_tr, amount).unwrap();
        let r_te = repair_disparate_impact(&test, &features, &mask_te, amount).unwrap();
        let m = LogisticRegression::fit(
            &r_tr.to_matrix(&features).unwrap(),
            &y,
            None,
            &LogisticConfig::default(),
        )
        .unwrap();
        let pred = m.predict(&r_te.to_matrix(&features).unwrap()).unwrap();
        (
            accuracy(&yt, &pred).unwrap(),
            disparate_impact(&pred, &mask_te).unwrap(),
        )
    };
    let (acc0, di0) = run(0.0);
    let (acc1, di1) = run(1.0);
    assert!(di1 > di0, "repair improves DI: {di0:.3} → {di1:.3}");
    // accuracy against (biased) labels may drop — that's the documented trade
    assert!(acc1 <= acc0 + 0.02);
}

#[test]
fn protected_mask_never_marks_a_null_row_in_memory_or_on_disk() {
    // rows 1 and 4 are null with placeholder code 1, the protected label's
    let group = Column::from_cat(CatData {
        codes: vec![0, 1, 1, 0, 1, 1, 0, 0],
        dict: vec!["A".into(), "B".into()],
    })
    .with_validity(vec![true, false, true, true, false, true, true, true])
    .unwrap();
    let ds = Dataset::builder().column("group", group).build().unwrap();
    let in_memory = protected_mask(&ds, "group", "B").unwrap();
    assert_eq!(
        in_memory,
        vec![false, false, true, false, false, true, false, false]
    );
    let dir = ScratchDir::new("protected-mask-nulls");
    let cfg = SegmentWriteConfig {
        rows_per_segment: 3,
        ..SegmentWriteConfig::default()
    };
    let set = ds.to_segments(dir.path(), &cfg).unwrap();
    let (on_disk, _) = protected_mask_segments(&set, "group", "B").unwrap();
    assert_eq!(on_disk, in_memory);
}

#[test]
fn corrupt_segment_code_is_corruption_on_every_scan_path() {
    let n = 64;
    let groups: Vec<&str> = (0..n).map(|i| ["a", "b", "c"][i % 3]).collect();
    let ds = Dataset::builder()
        .cat("group", &groups)
        .f64("score", (0..n).map(|i| i as f64).collect())
        .boolean("won", (0..n).map(|i| i % 2 == 0).collect())
        .build()
        .unwrap();
    let dir = ScratchDir::new("corrupt-segment-code");
    let cfg = SegmentWriteConfig {
        rows_per_segment: 16,
        rle: RlePolicy::Never,
    };
    let set = ds.to_segments(dir.path(), &cfg).unwrap();
    // Overwrite row 5's code in segment 2 (plain cat: one u32 LE per row)
    // with one past the 3-label dictionary. Segment bodies carry no
    // checksum, so the bad code reaches the scan.
    let path = set.segment_path(2);
    let reader = SegmentReader::open(&path).unwrap();
    let at =
        (reader.overhead_bytes() + reader.column_meta("group").unwrap().offset) as usize + 5 * 4;
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes(), "row 37 is 'b'");
    bytes[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let set = SegmentSet::open(dir.path()).unwrap();

    let corrupt = |what: &str, err: FactError| {
        assert!(matches!(err, FactError::Corrupt(_)), "{what}: {err:?}");
    };
    corrupt(
        "group_rates_segments",
        group_rates_segments(&set, "won", "group", &Predicate::All).unwrap_err(),
    );
    corrupt(
        "aggregate_segments",
        aggregate_segments(&set, "group", &[("score", AggFn::Mean)], &Predicate::All).unwrap_err(),
    );
    corrupt(
        "intersectional_audit_segments",
        intersectional_audit_segments(&set, "won", &["group"], 1).unwrap_err(),
    );
    corrupt(
        "protected_mask_segments",
        protected_mask_segments(&set, "group", "b").unwrap_err(),
    );
}
