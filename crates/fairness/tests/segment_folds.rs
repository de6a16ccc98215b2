//! Differential tests for the segment folds: `group_rates_segments`,
//! `aggregate_segments` and `protected_mask_segments` against their
//! in-memory twins on the predicate-filtered dataset, bit for bit.
//!
//! The worlds follow the intersectional tests' `random_world` shape:
//! categorical columns whose rows use only a prefix of the dictionary (the
//! rest stays unused), labels in reverse code order, and random nulls, here
//! in the key, label and value columns alike. Each case runs under the
//! `All`, `Range` and `CatIs` predicates, at a random segment size, on 1, 2
//! and 4 `fact_par` workers.
//!
//! Float values are multiples of 0.5 in [-8, 8] (with `-0.0`), so every
//! sum is exact: `aggregate_segments` sums per segment before it merges
//! (its rustdoc says so), and exact sums make that association invisible,
//! which leaves the comparison free to demand identical bits.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fact_data::agg::{aggregate, aggregate_segments, AggFn, AggSpec};
use fact_data::bias::{group_rates, group_rates_segments};
use fact_data::column::{CatData, Column};
use fact_data::{Dataset, Predicate, SegmentSet, SegmentWriteConfig};
use fact_fairness::{protected_mask, protected_mask_segments};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A dataset spilled to a segment set under a fresh temp directory,
/// removed on drop.
struct Spilled {
    dir: PathBuf,
    set: SegmentSet,
}

impl Drop for Spilled {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spill(ds: &Dataset, rows_per_segment: usize) -> Spilled {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fact-folds-{}-{n}", std::process::id()));
    let cfg = SegmentWriteConfig {
        rows_per_segment,
        ..Default::default()
    };
    let set = ds.to_segments(&dir, &cfg).unwrap();
    Spilled { dir, set }
}

/// `values` with `None` rows null over the placeholder `fill`.
fn nullable<T: Clone>(values: &[Option<T>], fill: T, build: fn(Vec<T>) -> Column) -> Column {
    let raw = values
        .iter()
        .map(|v| v.clone().unwrap_or(fill.clone()))
        .collect();
    build(raw)
        .with_validity(values.iter().map(Option::is_some).collect())
        .unwrap()
}

/// A world of `rows` rows, each slot null with `null_rate`:
/// * `a0`, `a1`: categoricals of `card` entries whose rows use the first
///   `used` (labels `vNN` in reverse code order);
/// * `won`: the boolean outcome; `flag`: a boolean key;
/// * `x`: a float in 0.5 steps; `k`: a small int (a key and a value).
fn random_world(seed: u64, rows: usize, card: usize, used: usize, null_rate: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let maybe = |rng: &mut StdRng| !rng.gen_bool(null_rate);
    let mut b = Dataset::builder();
    for name in ["a0", "a1"] {
        let dict: Vec<String> = (0..card).map(|c| format!("v{:02}", card - 1 - c)).collect();
        let codes: Vec<Option<u32>> = (0..rows)
            .map(|_| {
                let code = rng.gen_range(0..used) as u32;
                maybe(&mut rng).then_some(code)
            })
            .collect();
        let cat = CatData {
            codes: codes.iter().map(|c| c.unwrap_or(0)).collect(),
            dict,
        };
        let col = Column::from_cat(cat)
            .with_validity(codes.iter().map(Option::is_some).collect())
            .unwrap();
        b = b.column(name, col);
    }
    let won: Vec<Option<bool>> = (0..rows)
        .map(|_| {
            let v = rng.gen_bool(0.4);
            maybe(&mut rng).then_some(v)
        })
        .collect();
    let flag: Vec<Option<bool>> = (0..rows)
        .map(|_| {
            let v = rng.gen_bool(0.5);
            maybe(&mut rng).then_some(v)
        })
        .collect();
    let x: Vec<Option<f64>> = (0..rows)
        .map(|_| {
            let v = match rng.gen_range(0..34) {
                33 => -0.0,
                h => (h as f64 - 16.0) * 0.5,
            };
            maybe(&mut rng).then_some(v)
        })
        .collect();
    let k: Vec<Option<i64>> = (0..rows)
        .map(|_| {
            let v = rng.gen_range(-3i64..4);
            maybe(&mut rng).then_some(v)
        })
        .collect();
    b.column("won", nullable(&won, true, Column::from_bool))
        .column("flag", nullable(&flag, false, Column::from_bool))
        .column("x", nullable(&x, f64::NAN, Column::from_f64))
        .column("k", nullable(&k, 99, Column::from_i64))
        .build()
        .unwrap()
}

/// The rows of `ds` that `pred` keeps, by the predicate's own rules: null
/// rows never match, `Range` bounds are inclusive.
fn predicate_mask(ds: &Dataset, pred: &Predicate) -> Vec<bool> {
    let n = ds.n_rows();
    match pred {
        Predicate::All => vec![true; n],
        Predicate::Range { column, min, max } => {
            let col = ds.column(column).unwrap();
            (0..n)
                .map(|i| {
                    let v = match col.get(i) {
                        fact_data::Value::Float(v) => v,
                        fact_data::Value::Int(v) => v as f64,
                        fact_data::Value::Bool(b) => f64::from(u8::from(b)),
                        _ => return false,
                    };
                    v >= *min && v <= *max
                })
                .collect()
        }
        Predicate::CatIs { column, label } => {
            let col = ds.column(column).unwrap();
            (0..n)
                .map(|i| matches!(col.get(i), fact_data::Value::Cat(l) if l == *label))
                .collect()
        }
    }
}

/// An aggregate table as its key labels and each column's bits, or the
/// error's text.
type AggPrint = Result<(Vec<String>, Vec<Vec<u64>>), String>;

fn agg_print(r: fact_data::Result<Dataset>, key: &str) -> AggPrint {
    let ds = r.map_err(|e| e.to_string())?;
    let cols = ds.names()[1..]
        .iter()
        .map(|&c| {
            let v = ds.f64_column(c).unwrap();
            v.iter().map(|x| x.to_bits()).collect()
        })
        .collect();
    Ok((ds.labels(key).unwrap(), cols))
}

/// [`SUMS`] by `key` the slow way, from `Value`s: a group per key value in
/// first-appearance order (nulls in a `null` group), `Count` counting every
/// row, `Sum` the non-null values. The in-memory engine shares its
/// accumulator with the segment engine, so this keeps the pair honest.
fn naive_sums(ds: &Dataset, key: &str) -> AggPrint {
    let mut labels: Vec<String> = Vec::new();
    let mut cells: Vec<[f64; 5]> = Vec::new();
    let num = |name: &str, i: usize| match ds.column(name).unwrap().get(i) {
        fact_data::Value::Float(v) => Some(v),
        fact_data::Value::Int(v) => Some(v as f64),
        fact_data::Value::Bool(b) => Some(f64::from(u8::from(b))),
        _ => None,
    };
    for i in 0..ds.n_rows() {
        let label = ds.column(key).unwrap().get(i).to_string();
        let g = match labels.iter().position(|l| *l == label) {
            Some(g) => g,
            None => {
                labels.push(label);
                cells.push([0.0; 5]);
                cells.len() - 1
            }
        };
        for (j, &(name, f)) in SUMS.iter().enumerate() {
            match (f, num(name, i)) {
                (AggFn::Count, _) => cells[g][j] += 1.0,
                (_, Some(v)) => cells[g][j] += v,
                (_, None) => {}
            }
        }
    }
    let cols = (0..SUMS.len())
        .map(|j| cells.iter().map(|c| c[j].to_bits()).collect())
        .collect();
    Ok((labels, cols))
}

const SUMS: [AggSpec<'static>; 5] = [
    ("x", AggFn::Sum),
    ("x", AggFn::Count),
    ("won", AggFn::Sum),
    ("won", AggFn::Count),
    ("k", AggFn::Sum),
];
const REDUCTIONS: [AggSpec<'static>; 4] = [
    ("x", AggFn::Mean),
    ("x", AggFn::Min),
    ("x", AggFn::Max),
    ("won", AggFn::Mean),
];

/// Every fold on `set` under `pred`, at 1, 2 and 4 workers, equals its
/// in-memory twin on the rows of `ds` that `pred` keeps.
fn assert_folds_match(ds: &Dataset, set: &SegmentSet, pred: &Predicate, protected: &str) {
    let filtered = ds.filter(&predicate_mask(ds, pred)).unwrap();
    let rates = group_rates(&filtered, "won", "a0").map_err(|e| e.to_string());
    let aggs: Vec<(&str, AggPrint, AggPrint)> = ["a0", "k", "flag"]
        .into_iter()
        .map(|key| {
            let sums = agg_print(aggregate(&filtered, key, &SUMS), key);
            assert_eq!(sums, naive_sums(&filtered, key), "in-memory sums by {key}");
            let reductions = agg_print(aggregate(&filtered, key, &REDUCTIONS), key);
            (key, sums, reductions)
        })
        .collect();
    let mask = protected_mask(ds, "a0", protected).map_err(|e| e.to_string());
    for workers in [1usize, 2, 4] {
        fact_par::set_workers(workers);
        let got = group_rates_segments(set, "won", "a0", pred).map(|(r, _)| r);
        assert_eq!(
            got.map_err(|e| e.to_string()),
            rates,
            "group rates under {pred:?} at {workers} workers"
        );
        for (key, sums, reductions) in &aggs {
            let got = aggregate_segments(set, key, &SUMS, pred).map(|(d, _)| d);
            assert_eq!(
                &agg_print(got, key),
                sums,
                "sums by {key} under {pred:?} at {workers} workers"
            );
            let got = aggregate_segments(set, key, &REDUCTIONS, pred).map(|(d, _)| d);
            assert_eq!(
                &agg_print(got, key),
                reductions,
                "reductions by {key} under {pred:?} at {workers} workers"
            );
        }
        let got = protected_mask_segments(set, "a0", protected).map(|(m, _)| m);
        assert_eq!(
            got.map_err(|e| e.to_string()),
            mask,
            "protected mask at {workers} workers"
        );
    }
    fact_par::set_workers(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The segment folds equal the in-memory functions on the filtered
    /// dataset over random nulls, unused dictionary entries, predicates
    /// and segment sizes, at 1, 2 and 4 workers.
    #[test]
    fn segment_folds_match_the_in_memory_functions(
        seed in any::<u64>(),
        rows in 1usize..700,
        card in 1usize..=8,
        used in 0usize..8,
        null_rate in 0.0f64..0.3,
        no_nulls in any::<bool>(),
        rows_per_segment in 1usize..256,
        bounds in (-18i32..18, 0i32..20),
        label in 0usize..10,
    ) {
        let used = 1 + used % card;
        let null_rate = if no_nulls { 0.0 } else { null_rate };
        let ds = random_world(seed, rows, card, used, null_rate);
        // at most 100 segments: each is a file written with fsync
        let spilled = spill(&ds, rows_per_segment.max(rows.div_ceil(100)));
        // a label past the dictionary is absent from it
        let label = format!("v{label:02}");
        let lo = f64::from(bounds.0) * 0.5;
        let preds = [
            Predicate::All,
            Predicate::Range { column: "x".into(), min: lo, max: lo + f64::from(bounds.1) * 0.5 },
            Predicate::Range { column: "k".into(), min: lo, max: lo + f64::from(bounds.1) * 0.5 },
            Predicate::CatIs { column: "a1".into(), label: label.clone() },
        ];
        for pred in &preds {
            assert_folds_match(&ds, &spilled.set, pred, &label);
        }
    }
}
