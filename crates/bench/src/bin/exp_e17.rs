//! E17 — columnar segment storage: scan + group-by throughput, column
//! pruning, and zone-map segment skipping (EXPERIMENTS.md, E17).
//!
//! A wide synthetic dataset (few useful columns among many filler columns —
//! the shape of every audit over an over-collected feature store) is
//! spilled to the binary segment format, then audited three ways:
//!
//! 1. **Group-by throughput** — `aggregate_segments` (dictionary-code keys,
//!    column-pruned reads) against the pre-PR row-ish engine (string group
//!    keys + a `take()` clone per group per aggregate, preserved verbatim in
//!    [`rowish_aggregate`]) and against this PR's rewritten in-memory
//!    `aggregate`. Full mode asserts the segment engine beats the row-ish
//!    engine by ≥ 3×.
//! 2. **Column pruning** — a two-column scan must read a small fraction of
//!    the stored bytes; a selective range predicate on a monotonic column
//!    must let the per-segment zone maps **prove away at least half the
//!    segments**, asserted on the bytes-read counters the scan reports.
//! 3. **Determinism** — materializing the set and aggregating under the
//!    predicate must be bit-identical at 1/2/4 `fact_par` workers.
//!
//! `--smoke` runs a small dataset in debug builds for CI: all correctness
//! and pruning assertions stay on, only the throughput ratio assert is
//! full-mode (release) only.

use std::time::Instant;

use bench::header;
use bench::kit::{self, ScratchDir};
use fact_data::agg::{aggregate, aggregate_segments, AggFn, AggSpec};
use fact_data::bias::{group_rates, group_rates_segments};
use fact_data::column::ColumnData;
use fact_data::{Column, Dataset, Predicate, Result, SegmentWriteConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Sizes {
    rows: usize,
    filler_cols: usize,
    rows_per_segment: usize,
    repeats: usize,
    assert_speedup: Option<f64>,
}

const FULL: Sizes = Sizes {
    rows: 200_000,
    filler_cols: 28,
    rows_per_segment: 8_192,
    repeats: 5,
    assert_speedup: Some(3.0),
};

const SMOKE: Sizes = Sizes {
    rows: 6_000,
    filler_cols: 12,
    rows_per_segment: 512,
    repeats: 2,
    assert_speedup: None,
};

const GROUPS: [&str; 6] = ["asia", "europe", "africa", "americas", "oceania", "other"];

/// The group-by engine as it stood before the segment storage landed: string
/// group keys materialized per row, then a `take()` **clone of the column per
/// group per aggregate**. Kept here verbatim as the experiment's baseline.
fn agg_name(f: AggFn) -> &'static str {
    match f {
        AggFn::Count => "count",
        AggFn::Sum => "sum",
        AggFn::Mean => "mean",
        AggFn::Min => "min",
        AggFn::Max => "max",
    }
}

fn rowish_aggregate(ds: &Dataset, key: &str, specs: &[AggSpec<'_>]) -> Result<Dataset> {
    let groups = ds.group_by(key)?;
    let keys: Vec<String> = groups.keys().iter().map(|k| k.to_string()).collect();
    let mut out = Dataset::builder().cat(key, &keys).build()?;
    for &(col_name, f) in specs {
        let col = ds.column(col_name)?;
        let mut vals = Vec::with_capacity(keys.len());
        for k in &keys {
            let idx = groups.indices(k).expect("key from groups");
            let sub = col.take(idx);
            let v = match f {
                AggFn::Count => idx.len() as f64,
                AggFn::Sum => {
                    let mut s = 0.0;
                    sub.for_each_valid_f64(|x| s += x)?;
                    s
                }
                AggFn::Mean => sub.mean()?,
                AggFn::Min => sub.min()?,
                AggFn::Max => sub.max()?,
            };
            vals.push(v);
        }
        out.add_column(
            format!("{col_name}_{}", agg_name(f)),
            Column::from_f64(vals),
        )?;
    }
    Ok(out)
}

/// A wide dataset: one categorical group, a monotonic event-time column
/// (the zone-map pruning target), a score, a bool outcome, and a wall of
/// filler features nobody's audit reads.
fn wide_dataset(s: &Sizes, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = s.rows;
    let groups: Vec<&str> = (0..n)
        .map(|_| GROUPS[rng.gen_range(0..GROUPS.len())])
        .collect();
    let ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let score: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let won: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
    let mut b = Dataset::builder()
        .cat("group", &groups)
        .f64("ts", ts)
        .f64("score", score)
        .boolean("won", won);
    for c in 0..s.filler_cols {
        let col: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        b = b.f64(format!("filler_{c:02}"), col);
    }
    b.build().expect("valid wide dataset")
}

/// Fingerprint a dataset bit-exactly (column order, payload bits, codes).
fn fingerprint(ds: &Dataset) -> Vec<u64> {
    let mut out = Vec::new();
    for name in ds.names() {
        let col = ds.column(name).expect("name from schema");
        match col.data() {
            ColumnData::Float(v) => out.extend(v.iter().map(|x| x.to_bits())),
            ColumnData::Int(v) => out.extend(v.iter().map(|&x| x as u64)),
            ColumnData::Bool(v) => out.extend(v.iter().map(|&x| x as u64)),
            ColumnData::Cat(c) => out.extend(c.codes.iter().map(|&x| x as u64)),
        }
        out.push(col.null_count() as u64);
    }
    out
}

fn fastest<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = f();
    for _ in 0..repeats {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, last)
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let s = if smoke { &SMOKE } else { &FULL };
    println!(
        "E17: columnar segments — scan/group-by throughput, column pruning, zone-map skips ({} mode)\n",
        if smoke { "smoke" } else { "full" }
    );

    let ds = wide_dataset(s, 17);
    let total_cols = ds.n_cols();
    let dir = ScratchDir::new("e17");
    let cfg = SegmentWriteConfig {
        rows_per_segment: s.rows_per_segment,
        ..Default::default()
    };
    let t0 = Instant::now();
    let set = ds.to_segments(dir.path(), &cfg).expect("spill to segments");
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n_seg = set.n_segments();

    let specs: [AggSpec<'_>; 4] = [
        ("score", AggFn::Mean),
        ("score", AggFn::Sum),
        ("won", AggFn::Count),
        ("won", AggFn::Mean),
    ];

    // -- 1. group-by throughput: pre-PR row-ish engine (string keys +
    // per-group column clones) vs the rewritten in-memory aggregate vs the
    // column-pruned segment scan --
    let (rowish_ms, mem_out) = fastest(s.repeats, || {
        rowish_aggregate(&ds, "group", &specs).expect("row-ish aggregate")
    });
    let (mem_ms, _) = fastest(s.repeats, || {
        aggregate(&ds, "group", &specs).expect("in-memory aggregate")
    });
    let (seg_ms, seg_out) = fastest(s.repeats, || {
        aggregate_segments(&set, "group", &specs, &Predicate::All).expect("segment aggregate")
    });
    let (seg_agg, agg_stats) = seg_out;
    let speedup = rowish_ms / seg_ms.max(1e-9);

    // same groups, exact count/min/max-family values, float-tolerant sums
    let mut mem_sorted = mem_out.labels("group").expect("key column");
    let mut seg_sorted = seg_agg.labels("group").expect("key column");
    mem_sorted.sort();
    seg_sorted.sort();
    assert_eq!(mem_sorted, seg_sorted, "group sets must agree");
    let index_of = |ds: &Dataset, label: &str| {
        ds.labels("group")
            .expect("key column")
            .iter()
            .position(|l| l == label)
            .expect("label present")
    };
    for label in &mem_sorted {
        let (mi, si) = (index_of(&mem_out, label), index_of(&seg_agg, label));
        for col in ["score_mean", "score_sum", "won_count", "won_mean"] {
            let m = mem_out.f64_column(col).expect("agg column")[mi];
            let g = seg_agg.f64_column(col).expect("agg column")[si];
            assert!(
                (m - g).abs() <= 1e-9 * m.abs().max(1.0),
                "{label}/{col}: {m} vs {g}"
            );
        }
    }

    // -- 2a. column pruning: 2 of N columns read a fraction of the bytes --
    let (_, pruned_scan) = fastest(s.repeats, || {
        set.scan_columns(&["group", "score"], &Predicate::All)
            .expect("pruned scan")
    });
    let (_, col_stats) = pruned_scan;
    let col_fraction = col_stats.bytes_read as f64 / col_stats.bytes_total as f64;
    assert!(
        col_fraction < 0.5,
        "2/{total_cols} columns read {col_fraction:.2} of stored bytes"
    );

    // -- 2b. zone maps: selective range on monotonic ts skips segments --
    let hi = s.rows as f64 * 0.10;
    let zone_pred = Predicate::Range {
        column: "ts".into(),
        min: 0.0,
        max: hi,
    };
    let (_, zone_scan) = fastest(s.repeats, || {
        set.scan_columns(&["group", "score"], &zone_pred)
            .expect("zone scan")
    });
    let (zone_sub, zone_stats) = zone_scan;
    assert!(
        zone_stats.segments_pruned * 2 >= n_seg,
        "zone maps pruned {}/{n_seg} segments — need at least half",
        zone_stats.segments_pruned
    );
    assert!(
        zone_stats.bytes_read * 2 < zone_stats.bytes_total,
        "selective scan read {} of {} bytes — pruning must halve it",
        zone_stats.bytes_read,
        zone_stats.bytes_total
    );
    assert_eq!(
        zone_sub.n_rows() as u64,
        zone_stats.rows_matched,
        "materialized rows equal matched rows"
    );
    let expected_rows = ds
        .f64_slice("ts")
        .expect("ts column")
        .iter()
        .filter(|&&t| (0.0..=hi).contains(&t))
        .count();
    assert_eq!(zone_sub.n_rows(), expected_rows, "no rows lost to pruning");

    // group-rate probe rides the same pruned scan
    let (rates, rate_stats) =
        group_rates_segments(&set, "won", "group", &zone_pred).expect("segment rates");
    let mem_rates = group_rates(
        &ds.filter(
            &ds.f64_slice("ts")
                .expect("ts column")
                .iter()
                .map(|&t| (0.0..=hi).contains(&t))
                .collect::<Vec<bool>>(),
        )
        .expect("filter"),
        "won",
        "group",
    )
    .expect("in-memory rates");
    assert_eq!(rates, mem_rates, "probe parity under the predicate");
    assert!(rate_stats.segments_pruned * 2 >= n_seg);

    // -- 3. bit-identity at 1/2/4 workers --
    let mut prints: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    for workers in [1usize, 2, 4] {
        fact_par::set_workers(workers);
        let back = set.to_dataset().expect("materialize");
        let (agg, _) =
            aggregate_segments(&set, "group", &specs, &zone_pred).expect("agg under pred");
        prints.push((fingerprint(&back), fingerprint(&agg)));
    }
    fact_par::set_workers(0);
    let workers_identical = prints.iter().all(|p| *p == prints[0]);
    assert!(workers_identical, "worker count changed scan output bits");
    assert_eq!(
        fingerprint(&set.to_dataset().expect("materialize")),
        fingerprint(&ds),
        "roundtrip must be bit-identical to the source"
    );

    // -- report --
    let columns = ["metric", "value"];
    let widths = [38usize, 24usize];
    let mut out = String::new();
    let mut push = |label: &str, value: String| {
        let line = format!("{label:>38} {value:>24} ");
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    };
    header(&columns, &widths);
    push("rows x cols", format!("{} x {total_cols}", s.rows));
    push(
        "segments (rows/seg)",
        format!("{n_seg} ({})", s.rows_per_segment),
    );
    push("spill write (ms)", format!("{write_ms:.1}"));
    push("group-by row-ish engine (ms)", format!("{rowish_ms:.2}"));
    push("group-by in-memory rewrite (ms)", format!("{mem_ms:.2}"));
    push("group-by segments (ms)", format!("{seg_ms:.2}"));
    push("segments vs row-ish speedup (x)", format!("{speedup:.2}"));
    push(
        "agg bytes read / stored",
        format!("{} / {}", agg_stats.bytes_read, agg_stats.bytes_total),
    );
    push("2-col scan byte fraction", format!("{col_fraction:.3}"));
    push(
        "zone-pruned segments",
        format!("{} / {n_seg}", zone_stats.segments_pruned),
    );
    push(
        "selective bytes read / stored",
        format!("{} / {}", zone_stats.bytes_read, zone_stats.bytes_total),
    );
    push(
        "rows matched by predicate",
        format!("{}", zone_stats.rows_matched),
    );
    push(
        "bit-identical @ 1/2/4 workers",
        (if workers_identical { "PASS" } else { "FAIL" }).to_string(),
    );

    if let Some(min_speedup) = s.assert_speedup {
        assert!(
            speedup >= min_speedup,
            "segment group-by speedup {speedup:.2}x below required {min_speedup}x"
        );
    }

    let summary = format!(
        "\nsegment group-by runs {speedup:.2}x the pre-PR row-ish engine (the rewritten \
         in-memory aggregate is at {:.2}x); a 2-column scan reads \
         {:.1}% of stored bytes; zone maps prune {}/{n_seg} segments under a 10% range \
         predicate; outputs bit-identical at 1/2/4 workers\n",
        rowish_ms / mem_ms.max(1e-9),
        col_fraction * 100.0,
        zone_stats.segments_pruned,
    );
    print!("{summary}");
    out.push_str(&summary);

    if !smoke {
        kit::write_results("e17", &out);
    }
}
