//! Experiment harness library shared by the `exp_e*` binaries and the
//! Criterion benches.
//!
//! Each binary regenerates one experiment from EXPERIMENTS.md (the
//! evaluation section this vision paper does not have — see DESIGN.md).
//! The helpers here keep table formatting consistent across experiments.
//!
//! [`kit`] is the one experiment-harness kit the serving experiments
//! (E11–E20) and the root integration tests share: a [`kit::Shardd`]
//! worker handle that kills its `fact-shardd` on drop, pid-tagged
//! [`kit::ScratchDir`]s, the [`kit::MeanScorer`] / [`kit::PassThrough`]
//! models and lending workloads, the `--smoke`-only [`kit::Mode`], the
//! nearest-rank [`kit::percentile`] and [`kit::write_results`].

pub mod kit;

/// Print a table header row followed by a separator line sized to it;
/// returns the header row for the caller's results file.
pub fn header(columns: &[&str], widths: &[usize]) -> String {
    let mut line = String::new();
    for (c, w) in columns.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} ", w = w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    line
}

/// Format one f64 cell at a width/precision.
pub fn cell(v: f64, width: usize, precision: usize) -> String {
    format!("{v:>width$.precision$}")
}

/// A deterministic seed stream for experiments that need several seeds.
pub fn seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| base.wrapping_mul(0x9e3779b9).wrapping_add(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_deterministic_and_distinct() {
        let a = seeds(7, 5);
        let b = seeds(7, 5);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(1.23456, 8, 3), "   1.235");
    }
}
