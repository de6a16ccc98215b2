//! Intersectional (subgroup) fairness.
//!
//! The paper warns that "profiling may lead to further stigmatization of
//! certain groups" (§2) — and single-attribute audits miss exactly the
//! groups profiling creates: a model can pass parity on gender and on
//! ethnicity while devastating one *intersection* of both. This module
//! audits every combination of one or more categorical attributes against a
//! reference rate, with small-cell flagging (tiny subgroups get warnings,
//! not unstable verdicts).
//!
//! # Counting on dictionary codes
//!
//! Both entry points share one counting core. Every audited attribute is
//! dictionary-encoded, so a row's subgroup is the tuple of its attribute
//! codes. The core maps that tuple to a mixed-radix cell index
//! (`Σ codeⱼ · ∏ₖ₍ₖ>ⱼ₎ |dictₖ|`) into a dense table of `(n, positives)`
//! cells and resolves labels once per non-empty cell at the end, so no
//! string is built or hashed per row. It counts a [`Selection`] of rows,
//! the ones with no null attribute or prediction: cell indices are built
//! column-at-a-time, one multiply-add per attribute, then counted with
//! `positives += prediction`, with no data-dependent branch per row.
//! [`intersectional_audit`] reads a [`Dataset`]'s codes in place;
//! [`intersectional_audit_segments`] streams segment batches through
//! [`SegmentSet::scan_fold`], which builds the selection, and never builds
//! a `Dataset`. Per-chunk and per-batch tables merge by addition, and the
//! final sort (worst impact ratio first, then labels) fixes the order, so
//! both paths give the same report at any `fact_par` worker count.
//!
//! # Null attributes
//!
//! A row whose attribute (or, on segments, whose prediction) is null
//! belongs to no subgroup. It is skipped, counted in
//! [`IntersectionalReport::skipped_rows`], and left out of
//! [`IntersectionalReport::overall_rate`] as well.
//!
//! # Memory bound
//!
//! The dense table has `∏ |dictⱼ|` cells, a number that multiplies with
//! every attribute added. A chunk or batch uses it only while that product
//! is at most its row count. Past that, and when the product overflows
//! `usize`, it counts in a map keyed by the code tuple, looked up through
//! one reused buffer so a row allocates nothing. Either way a chunk holds
//! O(min(cells, rows)) cells.

use std::collections::HashMap;

use fact_data::column::check_codes;
use fact_data::segment::{DecodedValues, Selection};
use fact_data::{DataType, Dataset, FactError, Predicate, Result, ScanStats, SegmentSet};

/// One subgroup's audit row.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgroupOutcome {
    /// Attribute values defining the subgroup, in attribute order.
    pub labels: Vec<String>,
    /// Rows in the subgroup.
    pub n: usize,
    /// Positive-outcome rate within the subgroup.
    pub selection_rate: f64,
    /// Ratio of the subgroup rate to the overall rate.
    pub impact_ratio: f64,
    /// True when `n` is below the small-cell threshold: the ratio is
    /// reported but should not be used as a verdict.
    pub small_cell: bool,
}

/// A full intersectional audit.
#[derive(Debug, Clone, PartialEq)]
pub struct IntersectionalReport {
    /// Attributes the subgroups were formed from.
    pub attributes: Vec<String>,
    /// Overall positive-outcome rate over the counted rows.
    pub overall_rate: f64,
    /// Every non-empty subgroup, worst impact ratio first.
    pub subgroups: Vec<SubgroupOutcome>,
    /// Small-cell threshold used.
    pub min_cell: usize,
    /// Rows left out because an attribute (or, on segments, the
    /// prediction) was null.
    pub skipped_rows: usize,
}

impl IntersectionalReport {
    /// Subgroups (with adequate n) whose impact ratio falls below
    /// `threshold` (e.g. 0.8 for the four-fifths rule).
    pub fn violations(&self, threshold: f64) -> Vec<&SubgroupOutcome> {
        self.subgroups
            .iter()
            .filter(|s| !s.small_cell && s.impact_ratio < threshold)
            .collect()
    }

    /// The worst adequately-sized subgroup, if any.
    pub fn worst(&self) -> Option<&SubgroupOutcome> {
        self.subgroups.iter().find(|s| !s.small_cell)
    }
}

/// Audit predictions across every combination of the given categorical
/// attributes. `min_cell` marks subgroups too small for stable rates; rows
/// with a null attribute are skipped.
pub fn intersectional_audit(
    ds: &Dataset,
    pred: &[bool],
    attributes: &[&str],
    min_cell: usize,
) -> Result<IntersectionalReport> {
    require_attributes(attributes)?;
    if pred.len() != ds.n_rows() {
        return Err(FactError::LengthMismatch {
            expected: ds.n_rows(),
            actual: pred.len(),
        });
    }
    if pred.is_empty() {
        return Err(FactError::EmptyData(
            "intersectional audit on empty data".into(),
        ));
    }
    let mut codes = Vec::with_capacity(attributes.len());
    let mut masks = Vec::with_capacity(attributes.len());
    let mut dicts = Vec::with_capacity(attributes.len());
    for &name in attributes {
        let col = ds.column(name)?;
        let cat = col.as_cat().map_err(|e| match e {
            FactError::TypeMismatch {
                expected, actual, ..
            } => FactError::TypeMismatch {
                column: name.to_string(),
                expected,
                actual,
            },
            other => other,
        })?;
        check_codes(&cat.codes, cat.dict.len())?;
        codes.push(cat.codes.as_slice());
        masks.push(col.validity());
        dicts.push(cat.dict.as_slice());
    }
    let layout = Layout::new(&dicts);
    // Count subgroup cells over row chunks in parallel; the additive merge
    // is order-independent and the final sort fixes the output order, so the
    // report never depends on the worker count.
    let tally = fact_par::par_reduce(
        pred.len(),
        512,
        |rows| {
            let chunk: Vec<&[u32]> = codes.iter().map(|c| &c[rows.clone()]).collect();
            let chunk_masks: Vec<Option<&[bool]>> =
                masks.iter().map(|m| m.map(|m| &m[rows.clone()])).collect();
            let sel = Selection::valid_in(rows.len(), &chunk_masks);
            Tally::count(&layout, &chunk, &pred[rows], &sel)
        },
        |a, b| a.merge(b, &layout),
    )
    .expect("non-empty input has a chunk");
    tally.finish(&layout, &dicts, attributes, min_cell)
}

/// [`intersectional_audit`] over an on-disk [`SegmentSet`], reading the
/// boolean prediction column `prediction` alongside the attributes.
///
/// Streams column-pruned batches through [`SegmentSet::scan_fold`]: only
/// `attributes ∪ {prediction}` are decoded, every other column of the set
/// stays untouched on disk, and each batch is counted on its raw
/// dictionary codes. Rows whose prediction or any attribute is null are
/// skipped. The returned [`ScanStats`] show exactly how many bytes the
/// audit read.
pub fn intersectional_audit_segments(
    set: &SegmentSet,
    prediction: &str,
    attributes: &[&str],
    min_cell: usize,
) -> Result<(IntersectionalReport, ScanStats)> {
    require_attributes(attributes)?;
    let pdt = set.dtype(prediction)?;
    if pdt != DataType::Bool {
        return Err(FactError::TypeMismatch {
            column: prediction.to_string(),
            expected: DataType::Bool,
            actual: pdt,
        });
    }
    let dicts = attributes
        .iter()
        .map(|&a| set.dict(a))
        .collect::<Result<Vec<_>>>()?;
    let layout = Layout::new(&dicts);
    let mut columns: Vec<&str> = Vec::with_capacity(attributes.len() + 1);
    for &c in attributes.iter().chain([&prediction]) {
        if !columns.contains(&c) {
            columns.push(c);
        }
    }
    let (tally, stats) = set.scan_fold(
        &columns,
        &columns,
        &Predicate::All,
        |batch| {
            let pred = match &batch.column(prediction)?.values {
                DecodedValues::Bool(v) => v,
                _ => unreachable!("prediction dtype validated above"),
            };
            let codes = attributes
                .iter()
                .map(|&a| match &batch.column(a)?.values {
                    DecodedValues::Codes(codes) => Ok(codes.as_slice()),
                    _ => unreachable!("attribute dtype validated by dict lookup"),
                })
                .collect::<Result<Vec<_>>>()?;
            // `Predicate::All` selects every row with no null attribute or
            // prediction, so the rows left out are the skipped ones
            Ok(Tally::count(&layout, &codes, pred, batch.selection()))
        },
        |a, b| a.merge(b, &layout),
    )?;
    let tally =
        tally.ok_or_else(|| FactError::EmptyData("intersectional audit on empty data".into()))?;
    Ok((tally.finish(&layout, &dicts, attributes, min_cell)?, stats))
}

fn require_attributes(attributes: &[&str]) -> Result<()> {
    if attributes.is_empty() {
        return Err(FactError::InvalidArgument(
            "at least one attribute required".into(),
        ));
    }
    Ok(())
}

/// One subgroup cell's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cell {
    n: usize,
    positives: usize,
}

impl Cell {
    fn add(&mut self, other: Cell) {
        self.n += other.n;
        self.positives += other.positives;
    }
}

/// The audited attributes' dictionary sizes, which are the radices of a
/// cell's mixed-radix index, and their product (`None` on overflow).
struct Layout {
    radix: Vec<usize>,
    cells: Option<usize>,
}

impl Layout {
    fn new(dicts: &[&[String]]) -> Layout {
        let radix: Vec<usize> = dicts.iter().map(|d| d.len()).collect();
        let cells = radix.iter().try_fold(1usize, |acc, &r| acc.checked_mul(r));
        Layout { radix, cells }
    }

    /// The dense-table index of an in-range code tuple, first attribute
    /// most significant (so index order is code-tuple order).
    fn index(&self, key: &[u32]) -> usize {
        key.iter()
            .zip(&self.radix)
            .fold(0, |idx, (&code, &r)| idx * r + code as usize)
    }

    /// The code tuple of a dense-table index.
    fn key(&self, mut index: usize) -> Vec<u32> {
        let mut key = vec![0u32; self.radix.len()];
        for (slot, &r) in key.iter_mut().zip(&self.radix).rev() {
            *slot = (index % r) as u32;
            index /= r;
        }
        key
    }
}

/// Subgroup cell counts: a dense table indexed by [`Layout::index`], or a
/// map keyed by the code tuple when the dense table would outgrow the rows.
enum Table {
    Dense(Vec<Cell>),
    Sparse(HashMap<Vec<u32>, Cell>),
}

impl Table {
    fn add(&mut self, layout: &Layout, key: &[u32], cell: Cell) {
        match self {
            Table::Dense(cells) => cells[layout.index(key)].add(cell),
            Table::Sparse(map) => match map.get_mut(key) {
                Some(c) => c.add(cell),
                None => {
                    map.insert(key.to_vec(), cell);
                }
            },
        }
    }

    /// The non-empty cells with their code tuples, in no particular order.
    fn into_cells(self, layout: &Layout) -> Vec<(Vec<u32>, Cell)> {
        match self {
            Table::Dense(cells) => cells
                .into_iter()
                .enumerate()
                .filter(|(_, c)| c.n > 0)
                .map(|(i, c)| (layout.key(i), c))
                .collect(),
            Table::Sparse(map) => map.into_iter().collect(),
        }
    }
}

/// The cell counts of one run of rows, plus the rows it skipped for nulls.
struct Tally {
    table: Table,
    skipped: usize,
}

impl Tally {
    /// An empty tally for a run of `rows` rows: dense while that costs at
    /// most one cell per row.
    fn new(layout: &Layout, rows: usize) -> Tally {
        let table = match layout.cells {
            Some(cells) if cells <= rows => Table::Dense(vec![Cell::default(); cells]),
            _ => Table::Sparse(HashMap::new()),
        };
        Tally { table, skipped: 0 }
    }

    /// Count the selected rows of a run of `pred.len()` rows: each
    /// row's attribute codes pick its cell, and its prediction counts
    /// toward the cell's positives. The selection holds the rows whose
    /// attributes and prediction are all non-null; every other row of the
    /// run is skipped. Codes were checked against their dictionaries before
    /// counting (segment codes by the scan).
    ///
    /// A dense table's cell indices are built column-at-a-time, one
    /// multiply-add per attribute per row, and then counted with
    /// `positives += prediction`, no data-dependent branch per row.
    fn count(layout: &Layout, codes: &[&[u32]], pred: &[bool], sel: &Selection) -> Tally {
        let mut tally = Tally::new(layout, pred.len());
        tally.skipped = pred.len() - sel.len();
        if let Table::Dense(cells) = &mut tally.table {
            let mut index = vec![0usize; sel.len()];
            for (c, &r) in codes.iter().zip(&layout.radix) {
                let mut j = 0;
                sel.for_each(|i| {
                    index[j] = index[j] * r + c[i] as usize;
                    j += 1;
                });
            }
            let mut j = 0;
            sel.for_each(|i| {
                let cell = &mut cells[index[j]];
                cell.n += 1;
                cell.positives += usize::from(pred[i]);
                j += 1;
            });
            return tally;
        }
        let mut key = vec![0u32; codes.len()];
        sel.for_each(|i| {
            for (slot, c) in key.iter_mut().zip(codes) {
                *slot = c[i];
            }
            let cell = Cell {
                n: 1,
                positives: usize::from(pred[i]),
            };
            tally.table.add(layout, &key, cell);
        });
        tally
    }

    /// Add two tallies. A sparse table only ever gains non-empty cells,
    /// so the merge stays within O(min(cells, rows)) too.
    fn merge(mut self, other: Tally, layout: &Layout) -> Tally {
        self.skipped += other.skipped;
        match (&mut self.table, other.table) {
            (Table::Dense(a), Table::Dense(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.add(y);
                }
            }
            (table, other) => {
                for (key, cell) in other.into_cells(layout) {
                    table.add(layout, &key, cell);
                }
            }
        }
        self
    }

    /// Resolve the non-empty cells' labels and rates into the report.
    fn finish(
        self,
        layout: &Layout,
        dicts: &[&[String]],
        attributes: &[&str],
        min_cell: usize,
    ) -> Result<IntersectionalReport> {
        let mut cells = self.table.into_cells(layout);
        // code order first, so even equal labels (a dictionary may repeat
        // one) leave the final stable sort nothing to pick by hash order
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let (n, positives) = cells
            .iter()
            .fold((0, 0), |(n, p), (_, c)| (n + c.n, p + c.positives));
        let overall = rate_over_counted(n, positives)?;
        let mut subgroups: Vec<SubgroupOutcome> = cells
            .into_iter()
            .map(|(key, c)| {
                let labels = key
                    .iter()
                    .zip(dicts)
                    .map(|(&code, dict)| dict[code as usize].clone())
                    .collect();
                outcome(labels, c.n, c.positives, overall, min_cell)
            })
            .collect();
        sort_worst_first(&mut subgroups);
        Ok(IntersectionalReport {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            overall_rate: overall,
            subgroups,
            min_cell,
            skipped_rows: self.skipped,
        })
    }
}

/// The overall positive rate of the counted rows, which every impact ratio
/// divides by.
fn rate_over_counted(n: usize, positives: usize) -> Result<f64> {
    if n == 0 {
        return Err(FactError::EmptyData(
            "intersectional audit: every row has a null attribute".into(),
        ));
    }
    let overall = positives as f64 / n as f64;
    if overall <= 0.0 {
        return Err(FactError::Numeric(
            "overall selection rate is zero; impact ratios undefined".into(),
        ));
    }
    Ok(overall)
}

fn outcome(
    labels: Vec<String>,
    n: usize,
    positives: usize,
    overall: f64,
    min_cell: usize,
) -> SubgroupOutcome {
    let rate = positives as f64 / n as f64;
    SubgroupOutcome {
        labels,
        n,
        selection_rate: rate,
        impact_ratio: rate / overall,
        small_cell: n < min_cell,
    }
}

fn sort_worst_first(subgroups: &mut [SubgroupOutcome]) {
    subgroups.sort_by(|a, b| {
        a.impact_ratio
            .partial_cmp(&b.impact_ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.labels.cmp(&b.labels))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use fact_data::column::{CatData, Column};
    use fact_data::SegmentWriteConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The string-keyed counting this module did before it counted on
    /// codes: labels materialised per row and a `Vec<String>` key hashed
    /// per row, with null-attribute rows filtered out. The differential
    /// tests' oracle.
    fn string_keyed_audit(
        ds: &Dataset,
        pred: &[bool],
        attributes: &[&str],
        min_cell: usize,
    ) -> Result<IntersectionalReport> {
        let mut label_cols = Vec::with_capacity(attributes.len());
        let mut cols = Vec::with_capacity(attributes.len());
        for &a in attributes {
            label_cols.push(ds.labels(a)?);
            cols.push(ds.column(a)?);
        }
        let mut cells: HashMap<Vec<String>, (usize, usize)> = HashMap::new();
        let mut skipped_rows = 0;
        for (i, &p) in pred.iter().enumerate() {
            if cols.iter().any(|c| c.is_null(i)) {
                skipped_rows += 1;
                continue;
            }
            let key: Vec<String> = label_cols.iter().map(|c| c[i].clone()).collect();
            let entry = cells.entry(key).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += usize::from(p);
        }
        let n = cells.values().map(|c| c.0).sum();
        let positives = cells.values().map(|c| c.1).sum();
        let overall = rate_over_counted(n, positives)?;
        let mut subgroups: Vec<SubgroupOutcome> = cells
            .into_iter()
            .map(|(labels, (n, pos))| outcome(labels, n, pos, overall, min_cell))
            .collect();
        sort_worst_first(&mut subgroups);
        Ok(IntersectionalReport {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            overall_rate: overall,
            subgroups,
            min_cell,
            skipped_rows,
        })
    }

    /// Everything a report says, floats as bits, subgroups in report order.
    type Fingerprint = (
        Vec<String>,
        u64,
        Vec<(Vec<String>, usize, u64, u64, bool)>,
        usize,
        usize,
    );

    fn fingerprint(r: &IntersectionalReport) -> Fingerprint {
        let cells = r
            .subgroups
            .iter()
            .map(|s| {
                (
                    s.labels.clone(),
                    s.n,
                    s.selection_rate.to_bits(),
                    s.impact_ratio.to_bits(),
                    s.small_cell,
                )
            })
            .collect();
        (
            r.attributes.clone(),
            r.overall_rate.to_bits(),
            cells,
            r.min_cell,
            r.skipped_rows,
        )
    }

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
        let dir =
            std::env::temp_dir().join(format!("fact-intersectional-{}-{n}", std::process::id()));
        let cfg = SegmentWriteConfig {
            rows_per_segment,
            ..Default::default()
        };
        let set = ds.to_segments(&dir, &cfg).unwrap();
        Spilled { dir, set }
    }

    /// A categorical column over `dict` with the given codes; `None` rows
    /// are null (placeholder code 0).
    fn coded(dict: Vec<String>, codes: &[Option<u32>]) -> Column {
        let cat = CatData {
            codes: codes.iter().map(|c| c.unwrap_or(0)).collect(),
            dict,
        };
        Column::from_cat(cat)
            .with_validity(codes.iter().map(Option::is_some).collect())
            .unwrap()
    }

    /// Random coded attributes `a0..` plus a boolean `won`: `cards[j]`
    /// dictionary entries, of which rows use only the first `used[j]`,
    /// labels in reverse code order, and each row null with `null_rate`.
    fn random_world(
        seed: u64,
        rows: usize,
        cards: &[usize],
        used: &[usize],
        null_rate: f64,
    ) -> (Dataset, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = Dataset::builder();
        for (j, (&k, &u)) in cards.iter().zip(used).enumerate() {
            let dict = (0..k).map(|c| format!("v{:02}", k - 1 - c)).collect();
            let codes: Vec<Option<u32>> = (0..rows)
                .map(|_| {
                    let code = rng.gen_range(0..u) as u32;
                    (!rng.gen_bool(null_rate)).then_some(code)
                })
                .collect();
            b = b.column(format!("a{j}"), coded(dict, &codes));
        }
        let pred: Vec<bool> = (0..rows).map(|_| rng.gen_bool(0.4)).collect();
        let ds = b.boolean("won", pred.clone()).build().unwrap();
        (ds, pred)
    }

    /// The in-memory path, the segment path at each of 1, 2 and 4 workers,
    /// and the string-keyed oracle agree bit for bit (or all fail), and
    /// the segment path reads exactly what `scan_columns` reads.
    fn assert_paths_agree(
        ds: &Dataset,
        pred: &[bool],
        attributes: &[&str],
        rows_per_segment: usize,
    ) {
        let oracle = string_keyed_audit(ds, pred, attributes, 5).map(|r| fingerprint(&r));
        let spilled = spill(ds, rows_per_segment);
        let mut columns = attributes.to_vec();
        columns.push("won");
        let (_, scan_stats) = spilled.set.scan_columns(&columns, &Predicate::All).unwrap();
        for workers in [1usize, 2, 4] {
            fact_par::set_workers(workers);
            let mem = intersectional_audit(ds, pred, attributes, 5).map(|r| fingerprint(&r));
            let seg = intersectional_audit_segments(&spilled.set, "won", attributes, 5);
            match (&oracle, mem, seg) {
                (Ok(want), Ok(mem), Ok((seg, stats))) => {
                    assert_eq!(&mem, want, "in-memory at {workers} workers");
                    assert_eq!(&fingerprint(&seg), want, "segments at {workers} workers");
                    assert_eq!(
                        stats, scan_stats,
                        "segment audit bytes at {workers} workers"
                    );
                }
                (Err(_), Err(_), Err(_)) => {}
                (o, m, s) => panic!(
                    "paths disagree at {workers} workers: oracle ok={} memory ok={} segments ok={}",
                    o.is_ok(),
                    m.is_ok(),
                    s.is_ok()
                ),
            }
        }
        fact_par::set_workers(0);
    }

    /// A world fair on gender and on region marginally, but brutal to the
    /// (female, south) intersection.
    fn intersection_trap(n: usize) -> (Dataset, Vec<bool>) {
        let mut gender = Vec::with_capacity(n);
        let mut region = Vec::with_capacity(n);
        let mut pred = Vec::with_capacity(n);
        for i in 0..n {
            let female = i % 2 == 0;
            let south = (i / 2) % 2 == 0;
            gender.push(if female { "female" } else { "male" });
            region.push(if south { "south" } else { "north" });
            // marginal rates equal-ish: female-south punished, male-south boosted
            let p = match (female, south) {
                (true, true) => i % 10 < 2,   // 20%
                (false, true) => i % 10 < 8,  // 80%
                (true, false) => i % 10 < 8,  // 80%
                (false, false) => i % 10 < 2, // 20%
            };
            pred.push(p);
        }
        let ds = Dataset::builder()
            .cat("gender", &gender)
            .cat("region", &region)
            .build()
            .unwrap();
        (ds, pred)
    }

    #[test]
    fn marginal_audits_miss_what_the_intersection_shows() {
        let (ds, pred) = intersection_trap(4000);
        // marginal: both genders ≈ 50%
        let by_gender = intersectional_audit(&ds, &pred, &["gender"], 30).unwrap();
        for g in &by_gender.subgroups {
            assert!(
                (g.impact_ratio - 1.0).abs() < 0.05,
                "marginals look fair: {:?} {}",
                g.labels,
                g.impact_ratio
            );
        }
        // intersection: (female, south) at 0.2/0.5 = 0.4 impact ratio
        let both = intersectional_audit(&ds, &pred, &["gender", "region"], 30).unwrap();
        let worst = both.worst().unwrap();
        assert_eq!(worst.labels, vec!["female", "south"]);
        assert!(worst.impact_ratio < 0.5);
        assert_eq!(both.violations(0.8).len(), 2); // female-south & male-north
    }

    #[test]
    fn small_cells_flagged_not_judged() {
        let gender = vec!["f", "f", "f", "m"];
        let ds = Dataset::builder().cat("g", &gender).build().unwrap();
        let pred = vec![true, true, false, false];
        let rep = intersectional_audit(&ds, &pred, &["g"], 10).unwrap();
        assert!(rep.subgroups.iter().all(|s| s.small_cell));
        assert!(rep.violations(0.8).is_empty(), "small cells never violate");
        assert!(rep.worst().is_none());
    }

    #[test]
    fn sorted_worst_first() {
        let (ds, pred) = intersection_trap(2000);
        let rep = intersectional_audit(&ds, &pred, &["gender", "region"], 30).unwrap();
        for w in rep.subgroups.windows(2) {
            assert!(w[0].impact_ratio <= w[1].impact_ratio + 1e-12);
        }
        assert_eq!(rep.attributes, vec!["gender", "region"]);
        assert!((rep.overall_rate - 0.5).abs() < 0.05);
    }

    #[test]
    fn validation() {
        let (ds, pred) = intersection_trap(100);
        assert!(intersectional_audit(&ds, &pred, &[], 10).is_err());
        assert!(intersectional_audit(&ds, &pred[..50], &["gender"], 10).is_err());
        assert!(intersectional_audit(&ds, &pred, &["ghost"], 10).is_err());
        let none = vec![false; 100];
        assert!(intersectional_audit(&ds, &none, &["gender"], 10).is_err());
    }

    #[test]
    fn null_attribute_is_skipped_not_counted_under_its_placeholder() {
        // ["a", "a", "b", null]: the null slot holds "b"'s code
        let g = Column::from_labels(&["a", "a", "b", "b"])
            .with_validity(vec![true, true, true, false])
            .unwrap();
        let ds = Dataset::builder().column("g", g).build().unwrap();
        let pred = vec![true, false, true, true];
        let rep = intersectional_audit(&ds, &pred, &["g"], 1).unwrap();
        let cells: Vec<(Vec<String>, usize)> = rep
            .subgroups
            .iter()
            .map(|s| (s.labels.clone(), s.n))
            .collect();
        assert_eq!(
            cells,
            vec![(vec!["a".to_string()], 2), (vec!["b".to_string()], 1)]
        );
        assert_eq!(rep.skipped_rows, 1);
        assert_eq!(rep.overall_rate, 2.0 / 3.0, "the null row is not counted");
        assert_eq!(
            fingerprint(&rep),
            fingerprint(&string_keyed_audit(&ds, &pred, &["g"], 1).unwrap())
        );
    }

    #[test]
    fn null_attribute_and_null_prediction_are_skipped_on_segments() {
        let g = Column::from_labels(&["a", "a", "b", "b", "a", "b"])
            .with_validity(vec![true, true, true, false, true, true])
            .unwrap();
        let won = Column::from_bool(vec![true, false, true, true, true, false])
            .with_validity(vec![true, true, true, true, false, true])
            .unwrap();
        let ds = Dataset::builder()
            .column("g", g)
            .column("won", won)
            .build()
            .unwrap();
        let spilled = spill(&ds, 4);
        let (rep, _) = intersectional_audit_segments(&spilled.set, "won", &["g"], 1).unwrap();
        let cells: Vec<(Vec<String>, usize)> = rep
            .subgroups
            .iter()
            .map(|s| (s.labels.clone(), s.n))
            .collect();
        // counted: a(T), a(F), b(T), b(F); skipped: the null g, the null won
        assert_eq!(
            cells,
            vec![(vec!["a".to_string()], 2), (vec!["b".to_string()], 2)]
        );
        assert_eq!(rep.skipped_rows, 2);
        assert_eq!(rep.overall_rate, 0.5);
    }

    #[test]
    fn every_row_null_is_empty_data() {
        let g = coded(vec!["a".into()], &[None, None]);
        let ds = Dataset::builder().column("g", g).build().unwrap();
        let err = intersectional_audit(&ds, &[true, true], &["g"], 1).unwrap_err();
        assert!(matches!(err, FactError::EmptyData(_)), "{err:?}");
    }

    #[test]
    fn out_of_range_code_is_corruption_not_a_panic() {
        let cat = CatData {
            codes: vec![0, 3],
            dict: vec!["a".into(), "b".into()],
        };
        let ds = Dataset::builder()
            .column("g", Column::from_cat(cat))
            .build()
            .unwrap();
        let err = intersectional_audit(&ds, &[true, true], &["g"], 1).unwrap_err();
        assert!(matches!(err, FactError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn dense_table_only_while_cells_fit_the_rows() {
        let dicts: Vec<Vec<String>> = [16usize, 32]
            .iter()
            .map(|&k| (0..k).map(|c| c.to_string()).collect())
            .collect();
        let refs: Vec<&[String]> = dicts.iter().map(Vec::as_slice).collect();
        let layout = Layout::new(&refs);
        assert_eq!(layout.cells, Some(512));
        assert!(matches!(Tally::new(&layout, 512).table, Table::Dense(ref t) if t.len() == 512));
        assert!(matches!(Tally::new(&layout, 511).table, Table::Sparse(_)));
        // a sparse chunk holds at most one entry per row
        let codes: Vec<Vec<u32>> = vec![
            (0..511).map(|i| i % 16).collect(),
            (0..511).map(|i| i % 32).collect(),
        ];
        let codes: Vec<&[u32]> = codes.iter().map(Vec::as_slice).collect();
        let tally = Tally::count(&layout, &codes, &[true; 511], &Selection::All(511));
        match tally.table {
            Table::Sparse(map) => assert!(map.len() <= 511),
            Table::Dense(_) => panic!("511 rows cannot hold 512 dense cells"),
        }
        // both sides of the bound, and chunk mixes across it (par_reduce
        // chunks are 512 rows), report what the oracle reports
        for rows in [511usize, 512, 513, 1100] {
            let (ds, pred) = random_world(rows as u64, rows, &[16, 32], &[16, 32], 0.05);
            assert_paths_agree(&ds, &pred, &["a0", "a1"], 97);
        }
    }

    #[test]
    fn cell_product_overflowing_u64_counts_sparse() {
        // 16^17 = 2^68 cells: no dense table, no overflow panic
        let cards = [16usize; 17];
        let names: Vec<String> = (0..cards.len()).map(|j| format!("a{j}")).collect();
        let attributes: Vec<&str> = names.iter().map(String::as_str).collect();
        let (ds, pred) = random_world(68, 300, &cards, &cards, 0.01);
        let dicts: Vec<&[String]> = attributes
            .iter()
            .map(|&a| ds.column(a).unwrap().as_cat().unwrap().dict.as_slice())
            .collect();
        let layout = Layout::new(&dicts);
        assert_eq!(layout.cells, None);
        assert!(matches!(
            Tally::new(&layout, usize::MAX).table,
            Table::Sparse(_)
        ));
        assert_paths_agree(&ds, &pred, &attributes, 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Codes-based in-memory and segment audits equal the string-keyed
        /// oracle bit for bit, over 1–3 attributes of cardinality 1–12
        /// (with unused dictionary entries), random nulls, random segment
        /// sizes and 1, 2 and 4 workers.
        #[test]
        fn code_counting_matches_the_string_keyed_oracle(
            seed in any::<u64>(),
            rows in 1usize..1500,
            dims in prop::collection::vec((1usize..=12, 0usize..12), 1..=3),
            no_nulls in any::<bool>(),
            null_rate in 0.0f64..0.3,
            rows_per_segment in 16usize..600,
        ) {
            let cards: Vec<usize> = dims.iter().map(|&(k, _)| k).collect();
            // rows use the first `used` entries; the rest stay unused
            let used: Vec<usize> = dims.iter().map(|&(k, u)| 1 + u % k).collect();
            let null_rate = if no_nulls { 0.0 } else { null_rate };
            let (ds, pred) = random_world(seed, rows, &cards, &used, null_rate);
            let names: Vec<String> = (0..cards.len()).map(|j| format!("a{j}")).collect();
            let attributes: Vec<&str> = names.iter().map(String::as_str).collect();
            assert_paths_agree(&ds, &pred, &attributes, rows_per_segment);
        }
    }
}
