//! k-anonymity by Mondrian multidimensional partitioning (LeFevre et al.
//! 2006), plus l-diversity and t-closeness checks on the result.
//!
//! Quasi-identifier columns are generalized per equivalence class: numeric
//! QIs become range labels (`"[18-33]"`), categorical QIs become the single
//! shared label or a `|`-joined set. The released dataset is safe to join
//! against external data only up to class resolution — which is the point.

use fact_data::{Column, Dataset, FactError, Result};

/// Result of anonymization: the generalized dataset plus class bookkeeping.
#[derive(Debug, Clone)]
pub struct Anonymized {
    /// Generalized dataset (QI columns replaced by categorical range labels).
    pub data: Dataset,
    /// Equivalence-class index of each row.
    pub class_of: Vec<usize>,
    /// Number of equivalence classes.
    pub n_classes: usize,
    /// The k that was enforced.
    pub k: usize,
    /// Average normalized certainty penalty in `[0, 1]` (0 = no
    /// generalization, 1 = fully suppressed).
    pub information_loss: f64,
}

impl Anonymized {
    /// Average equivalence-class size.
    pub fn mean_class_size(&self) -> f64 {
        self.class_of.len() as f64 / self.n_classes as f64
    }

    /// Size of the smallest equivalence class.
    pub fn min_class_size(&self) -> usize {
        let mut sizes = vec![0usize; self.n_classes];
        for &c in &self.class_of {
            sizes[c] += 1;
        }
        sizes.into_iter().min().unwrap_or(0)
    }
}

/// Mondrian k-anonymization of `ds` over the quasi-identifiers `qis`.
///
/// Numeric and categorical QI columns are both supported (categoricals are
/// partitioned by dictionary code). Errors when `k` is 0 or exceeds the row
/// count, or when any QI column is missing.
///
/// ```
/// use fact_confidentiality::kanon::{is_k_anonymous, mondrian_k_anonymize};
/// use fact_data::synth::census::{generate_census, CensusConfig};
/// let ds = generate_census(&CensusConfig { n: 500, seed: 1, ..CensusConfig::default() });
/// let anon = mondrian_k_anonymize(&ds, &["age", "sex", "zipcode"], 5).unwrap();
/// assert!(anon.min_class_size() >= 5);
/// assert!(is_k_anonymous(&anon.data, &["age", "sex", "zipcode"], 5).unwrap());
/// ```
pub fn mondrian_k_anonymize(ds: &Dataset, qis: &[&str], k: usize) -> Result<Anonymized> {
    if k == 0 {
        return Err(FactError::InvalidArgument("k must be at least 1".into()));
    }
    if ds.n_rows() == 0 {
        return Err(FactError::EmptyData("anonymizing empty dataset".into()));
    }
    if k > ds.n_rows() {
        return Err(FactError::InvalidArgument(format!(
            "k={k} exceeds the number of rows ({})",
            ds.n_rows()
        )));
    }
    if qis.is_empty() {
        return Err(FactError::InvalidArgument(
            "at least one quasi-identifier is required".into(),
        ));
    }

    // numeric view of each QI (cat → code), plus metadata for rendering
    struct Qi {
        name: String,
        numeric: Vec<f64>,
        is_cat: bool,
        dict: Vec<String>,
        global_range: f64,
        global_card: usize,
    }
    let mut qi_cols = Vec::with_capacity(qis.len());
    for &name in qis {
        let col = ds.column(name)?;
        let (numeric, is_cat, dict) = match col.as_cat() {
            Ok(cat) => (
                cat.codes.iter().map(|&c| c as f64).collect::<Vec<f64>>(),
                true,
                cat.dict.clone(),
            ),
            Err(_) => (ds.f64_column(name)?, false, Vec::new()),
        };
        let lo = numeric.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = numeric.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let distinct = {
            let mut v = numeric.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            v.dedup();
            v.len()
        };
        qi_cols.push(Qi {
            name: name.to_string(),
            numeric,
            is_cat,
            dict,
            global_range: (hi - lo).max(1e-300),
            global_card: distinct,
        });
    }

    // Median partitioning, level-synchronous: every partition on the
    // current frontier is split (or finalized) independently, so each
    // level fans out on the fact-par pool. `par_map` returns results in
    // submission order no matter how they were scheduled, and the split
    // decision for a partition depends only on that partition's rows —
    // so class numbering and membership are bit-identical at any worker
    // count (the property `partitioning_is_deterministic_across_worker_counts`
    // pins down).
    enum Node {
        Leaf(Vec<usize>),
        Split(Vec<usize>, Vec<usize>),
    }
    let split_partition = |part: &[usize]| -> Node {
        if part.len() < 2 * k {
            return Node::Leaf(part.to_vec());
        }
        // order dims by normalized range within the partition, widest first
        let mut dims: Vec<(f64, usize)> = qi_cols
            .iter()
            .enumerate()
            .map(|(d, q)| {
                let lo = part
                    .iter()
                    .map(|&i| q.numeric[i])
                    .fold(f64::INFINITY, f64::min);
                let hi = part
                    .iter()
                    .map(|&i| q.numeric[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                ((hi - lo) / q.global_range, d)
            })
            .collect();
        dims.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        for &(range, d) in &dims {
            if range <= 0.0 {
                break; // all dims constant in this partition
            }
            let q = &qi_cols[d];
            let mut vals: Vec<f64> = part.iter().map(|&i| q.numeric[i]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = vals[vals.len() / 2];
            // strict split: ≤ median-but-not-max goes left. Use the largest
            // value strictly below the max as fallback pivot when the median
            // equals the max (to guarantee a non-trivial split).
            let pivot = if median >= vals[vals.len() - 1] {
                // find largest value < max
                match vals.iter().rev().find(|&&v| v < vals[vals.len() - 1]) {
                    Some(&p) => p,
                    None => continue,
                }
            } else {
                median
            };
            let (left, right): (Vec<usize>, Vec<usize>) =
                part.iter().partition(|&&i| q.numeric[i] <= pivot);
            if left.len() >= k && right.len() >= k {
                return Node::Split(left, right);
            }
        }
        Node::Leaf(part.to_vec())
    };

    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut frontier: Vec<Vec<usize>> = vec![(0..ds.n_rows()).collect()];
    while !frontier.is_empty() {
        let level: Vec<Node> =
            fact_par::par_map(frontier.len(), 1, |pi| split_partition(&frontier[pi]));
        frontier.clear();
        for node in level {
            match node {
                Node::Leaf(class) => classes.push(class),
                Node::Split(left, right) => {
                    frontier.push(left);
                    frontier.push(right);
                }
            }
        }
    }

    // build generalized columns + bookkeeping
    let n = ds.n_rows();
    let mut class_of = vec![0usize; n];
    for (ci, class) in classes.iter().enumerate() {
        for &i in class {
            class_of[i] = ci;
        }
    }
    let mut total_ncp = 0.0;
    let mut out = ds.clone();
    for q in &qi_cols {
        // Per-class generalization is independent work: compute each class's
        // label and NCP contribution in parallel, then fold the NCP sum and
        // write the labels sequentially in class order (bit-identical to the
        // sequential class loop at any worker count).
        let per_class: Vec<(String, f64)> = fact_par::par_map(classes.len(), 8, |ci| {
            let class = &classes[ci];
            let lo = class
                .iter()
                .map(|&i| q.numeric[i])
                .fold(f64::INFINITY, f64::min);
            let hi = class
                .iter()
                .map(|&i| q.numeric[i])
                .fold(f64::NEG_INFINITY, f64::max);
            let label = if q.is_cat {
                let mut codes: Vec<usize> = class.iter().map(|&i| q.numeric[i] as usize).collect();
                codes.sort_unstable();
                codes.dedup();
                if codes.len() == 1 {
                    q.dict[codes[0]].clone()
                } else if codes.len() == q.dict.len() {
                    "*".to_string()
                } else {
                    codes
                        .iter()
                        .map(|&c| q.dict[c].as_str())
                        .collect::<Vec<_>>()
                        .join("|")
                }
            } else if (hi - lo).abs() < 1e-12 {
                format_number(lo)
            } else {
                format!("[{}-{}]", format_number(lo), format_number(hi))
            };
            // NCP contribution
            let ncp = if q.is_cat {
                let mut codes: Vec<usize> = class.iter().map(|&i| q.numeric[i] as usize).collect();
                codes.sort_unstable();
                codes.dedup();
                if q.global_card > 1 {
                    (codes.len() - 1) as f64 / (q.global_card - 1) as f64
                } else {
                    0.0
                }
            } else {
                (hi - lo) / q.global_range
            };
            (label, ncp)
        });
        let mut labels = vec![String::new(); n];
        for (class, (label, ncp)) in classes.iter().zip(&per_class) {
            total_ncp += ncp * class.len() as f64;
            for &i in class {
                labels[i] = label.clone();
            }
        }
        out.replace_column(&q.name, Column::from_labels(&labels))?;
        // preserve the quasi-identifier annotation
        if let Some(f) = out.schema_mut().field_mut(&q.name) {
            f.quasi_identifier = true;
        }
    }
    let information_loss = total_ncp / (n as f64 * qi_cols.len() as f64);

    Ok(Anonymized {
        data: out,
        class_of,
        n_classes: classes.len(),
        k,
        information_loss,
    })
}

fn format_number(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Rows per parallel chunk when counting QI combinations.
const KANON_ROW_GRAIN: usize = 512;

/// Verify k-anonymity directly on a released dataset: every combination of
/// the given QI columns must occur at least `k` times.
///
/// Row chunks count combinations in parallel; the per-chunk maps are merged
/// by addition, which is order-independent, so the verdict never depends on
/// the worker count.
pub fn is_k_anonymous(ds: &Dataset, qis: &[&str], k: usize) -> Result<bool> {
    use std::collections::HashMap;
    let mut cols = Vec::with_capacity(qis.len());
    for &q in qis {
        cols.push(ds.column(q)?);
    }
    let counts = fact_par::par_reduce(
        ds.n_rows(),
        KANON_ROW_GRAIN,
        |range| {
            let mut local: HashMap<Vec<String>, usize> = HashMap::new();
            for i in range {
                let key: Vec<String> = cols.iter().map(|c| c.get(i).to_string()).collect();
                *local.entry(key).or_insert(0) += 1;
            }
            local
        },
        |mut a, b| {
            for (key, c) in b {
                *a.entry(key).or_insert(0) += c;
            }
            a
        },
    )
    .unwrap_or_default();
    Ok(counts.values().all(|&c| c >= k))
}

/// Distinct l-diversity: every equivalence class must contain at least `l`
/// distinct values of the sensitive column. Returns the minimum diversity
/// observed (compare with your target `l`). A null sensitive value is
/// skipped, never counted as its placeholder's value, and a class whose
/// sensitive values are all null is skipped as if its rows were filtered
/// out.
pub fn min_l_diversity(anon: &Anonymized, sensitive: &str) -> Result<usize> {
    use std::collections::HashSet;
    let (col, cat) = anon.data.cat_column(sensitive)?;
    let mut per_class: Vec<HashSet<u32>> = vec![HashSet::new(); anon.n_classes];
    for (i, &c) in anon.class_of.iter().enumerate() {
        if !col.is_null(i) {
            per_class[c].insert(cat.codes[i]);
        }
    }
    per_class
        .iter()
        .map(|s| s.len())
        .filter(|&l| l > 0)
        .min()
        .ok_or_else(|| FactError::EmptyData("no equivalence class with a sensitive value".into()))
}

/// t-closeness via total variation distance: the maximum, over equivalence
/// classes, of the TV distance between the class's sensitive-value
/// distribution and the global one. Small values mean classes reveal little
/// beyond the global distribution. Null sensitive values are skipped: the
/// distance equals that of the same data with the null rows filtered out.
pub fn max_t_distance(anon: &Anonymized, sensitive: &str) -> Result<f64> {
    use std::collections::HashMap;
    let (col, cat) = anon.data.cat_column(sensitive)?;
    // per-code counts, globally and per class, over the non-null rows
    let mut global = vec![0usize; cat.dict.len()];
    let mut class_counts: Vec<HashMap<usize, usize>> = vec![HashMap::new(); anon.n_classes];
    let mut class_sizes = vec![0usize; anon.n_classes];
    for (i, &c) in anon.class_of.iter().enumerate() {
        if !col.is_null(i) {
            let code = cat.codes[i] as usize;
            global[code] += 1;
            *class_counts[c].entry(code).or_insert(0) += 1;
            class_sizes[c] += 1;
        }
    }
    let n = class_sizes.iter().sum::<usize>() as f64;
    let mut worst: f64 = 0.0;
    for (counts, &size) in class_counts.iter().zip(&class_sizes) {
        if size == 0 {
            continue;
        }
        let tv: f64 = (global.iter().enumerate())
            .map(|(code, &g)| {
                let c = counts.get(&code).copied().unwrap_or(0);
                (c as f64 / size as f64 - g as f64 / n).abs()
            })
            .sum();
        worst = worst.max(tv / 2.0);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_data::synth::census::{generate_census, CensusConfig};

    fn census(n: usize) -> Dataset {
        generate_census(&CensusConfig {
            n,
            seed: 1,
            ..CensusConfig::default()
        })
    }

    const QIS: [&str; 3] = ["age", "sex", "zipcode"];

    #[test]
    fn output_is_k_anonymous() {
        let ds = census(2000);
        for k in [2, 5, 25] {
            let anon = mondrian_k_anonymize(&ds, &QIS, k).unwrap();
            assert!(anon.min_class_size() >= k, "k={k}");
            assert!(is_k_anonymous(&anon.data, &QIS, k).unwrap());
        }
    }

    #[test]
    fn higher_k_means_more_information_loss() {
        let ds = census(3000);
        let loss = |k| mondrian_k_anonymize(&ds, &QIS, k).unwrap().information_loss;
        let l2 = loss(2);
        let l20 = loss(20);
        let l200 = loss(200);
        assert!(l2 < l20 && l20 < l200, "{l2:.3} < {l20:.3} < {l200:.3}");
        assert!((0.0..=1.0).contains(&l2));
        assert!((0.0..=1.0).contains(&l200));
    }

    #[test]
    fn k_equals_one_changes_nothing_much() {
        let ds = census(500);
        let anon = mondrian_k_anonymize(&ds, &QIS, 1).unwrap();
        // k=1 permits singleton classes: loss is near zero
        assert!(
            anon.information_loss < 0.05,
            "loss {}",
            anon.information_loss
        );
    }

    #[test]
    fn class_bookkeeping_consistent() {
        let ds = census(1000);
        let anon = mondrian_k_anonymize(&ds, &QIS, 10).unwrap();
        assert_eq!(anon.class_of.len(), 1000);
        assert!(anon.class_of.iter().all(|&c| c < anon.n_classes));
        assert!((anon.mean_class_size() - 1000.0 / anon.n_classes as f64).abs() < 1e-9);
        assert_eq!(anon.k, 10);
    }

    #[test]
    fn non_qi_columns_untouched() {
        let ds = census(800);
        let anon = mondrian_k_anonymize(&ds, &QIS, 5).unwrap();
        assert_eq!(
            anon.data.f64_column("salary").unwrap(),
            ds.f64_column("salary").unwrap()
        );
        assert_eq!(
            anon.data.labels("diagnosis").unwrap(),
            ds.labels("diagnosis").unwrap()
        );
    }

    #[test]
    fn generalized_labels_look_like_ranges() {
        let ds = census(400);
        let anon = mondrian_k_anonymize(&ds, &QIS, 20).unwrap();
        let ages = anon.data.labels("age").unwrap();
        assert!(
            ages.iter().any(|a| a.starts_with('[') && a.contains('-')),
            "expected range labels, got e.g. {:?}",
            &ages[..3]
        );
    }

    #[test]
    fn l_diversity_and_t_closeness_improve_with_k() {
        let ds = census(3000);
        let small = mondrian_k_anonymize(&ds, &QIS, 2).unwrap();
        let large = mondrian_k_anonymize(&ds, &QIS, 100).unwrap();
        let ld_small = min_l_diversity(&small, "diagnosis").unwrap();
        let ld_large = min_l_diversity(&large, "diagnosis").unwrap();
        assert!(ld_large >= ld_small);
        assert!(ld_large >= 3, "big classes carry diverse diagnoses");
        let t_small = max_t_distance(&small, "diagnosis").unwrap();
        let t_large = max_t_distance(&large, "diagnosis").unwrap();
        assert!(t_large <= t_small);
        assert!((0.0..=1.0).contains(&t_small));
    }

    /// `sensitive` as a categorical column with `nulls` marked null,
    /// dealt into equivalence classes by `class_of`.
    fn anonymized(sensitive: &[&str], nulls: &[usize], class_of: Vec<usize>) -> Anonymized {
        let valid = (0..sensitive.len()).map(|i| !nulls.contains(&i)).collect();
        let col = Column::from_labels(sensitive).with_validity(valid).unwrap();
        Anonymized {
            data: Dataset::from_columns(vec![("s".into(), col)]).unwrap(),
            n_classes: class_of.iter().max().map_or(0, |&c| c + 1),
            class_of,
            k: 2,
            information_loss: 0.0,
        }
    }

    #[test]
    fn a_null_sensitive_value_raises_no_diversity() {
        // class 0 holds {x, null over y}; class 1 holds {x, y}
        let anon = anonymized(&["x", "y", "x", "y"], &[1], vec![0, 0, 1, 1]);
        assert_eq!(min_l_diversity(&anon, "s").unwrap(), 1);
    }

    #[test]
    fn t_distance_with_nulls_equals_it_with_the_null_rows_filtered_out() {
        let labels = ["x", "y", "x", "z", "y", "y", "x", "z"];
        let class_of = vec![0, 0, 1, 1, 1, 2, 2, 2];
        let nulls = [1, 3, 6];
        let with_nulls = anonymized(&labels, &nulls, class_of.clone());
        let kept: Vec<usize> = (0..labels.len()).filter(|i| !nulls.contains(i)).collect();
        let filtered = anonymized(
            &kept.iter().map(|&i| labels[i]).collect::<Vec<_>>(),
            &[],
            kept.iter().map(|&i| class_of[i]).collect(),
        );
        let (t, t_filtered) = (
            max_t_distance(&with_nulls, "s").unwrap(),
            max_t_distance(&filtered, "s").unwrap(),
        );
        assert!((t - t_filtered).abs() < 1e-12, "{t} vs {t_filtered}");
        assert_eq!(
            min_l_diversity(&with_nulls, "s").unwrap(),
            min_l_diversity(&filtered, "s").unwrap()
        );
    }

    #[test]
    fn validation() {
        let ds = census(100);
        assert!(mondrian_k_anonymize(&ds, &QIS, 0).is_err());
        assert!(mondrian_k_anonymize(&ds, &QIS, 101).is_err());
        assert!(mondrian_k_anonymize(&ds, &[], 5).is_err());
        assert!(mondrian_k_anonymize(&ds, &["ghost"], 5).is_err());
    }

    #[test]
    fn partitioning_is_deterministic_across_worker_counts() {
        let ds = census(2500);
        let reference = mondrian_k_anonymize(&ds, &QIS, 7).unwrap();
        for w in [1, 2, 4] {
            fact_par::set_workers(w);
            let anon = mondrian_k_anonymize(&ds, &QIS, 7).unwrap();
            fact_par::set_workers(0);
            assert_eq!(anon.n_classes, reference.n_classes, "workers={w}");
            assert_eq!(anon.class_of, reference.class_of, "workers={w}");
            assert_eq!(
                anon.information_loss.to_bits(),
                reference.information_loss.to_bits(),
                "workers={w}: information loss must be bit-identical"
            );
            for q in QIS {
                assert_eq!(
                    anon.data.labels(q).unwrap(),
                    reference.data.labels(q).unwrap(),
                    "workers={w} column={q}"
                );
            }
        }
    }

    #[test]
    fn raw_data_is_not_k_anonymous() {
        let ds = census(2000);
        assert!(!is_k_anonymous(&ds, &QIS, 5).unwrap());
    }
}
