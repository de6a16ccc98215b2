//! Order statistics and the result line the benchmark prints last.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it. Returns
/// 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q`-quantile in a sorted slice of `n > 0`
/// samples.
pub fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The median of `values`: the middle one, or the mean of the middle two
/// for an even count. Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Indices of the quieter half (rounded up) of a run's slices or passes
/// by host steal ticks, ties broken by position, in ascending order.
pub fn quiet_half(steal: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by_key(|&i| (steal[i], i));
    idx.truncate(steal.len().div_ceil(2));
    idx.sort_unstable();
    idx
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The single-line JSON object the benchmark ends its stdout with.
    /// Values keep every digit Rust's shortest round-trip form gives them.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_half_keeps_the_least_stolen() {
        assert_eq!(quiet_half(&[5, 0, 9, 0, 1]), vec![1, 3, 4]);
        assert_eq!(quiet_half(&[2, 2, 2, 2]), vec![0, 1]);
        assert_eq!(quiet_half(&[]), Vec::<usize>::new());
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_keeps_digits_and_shape() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.push("latency_p50_us", 1.203_4, "us");
        o.push("setup_s", 2.0, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 1.2034, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
