//! Benchmark for the FACT serving stack and its offline audit path.
//!
//! ```text
//! perfbench --workload <local_flagged|remote_tcp|offline_audit> --seed N
//!           --seconds S --trace <0|1> [--shardd PATH]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs an untraced and a traced window and reports the
//! per-layer metrics. The last stdout line is the JSON result. See
//! `README.md` next to this crate for the workloads and metrics.

mod drive;
mod host;
mod layers;
mod local;
mod offline;
mod remote;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use stats::Outcome;

/// Fresh starts per run. Each start is timed for `setup_s` and then
/// measures one share of the timed window; the run reports medians over
/// them.
pub const SUBRUNS: usize = 12;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub shardd: PathBuf,
}

impl Args {
    /// Length of one timed window: the whole run, or half of it when the
    /// run times an untraced and a traced window.
    pub fn window(&self, split: bool) -> Duration {
        let total = Duration::from_secs(self.seconds.max(1));
        if split {
            total / 2
        } else {
            total
        }
    }
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut shardd = PathBuf::from(".bench_build/release/fact-shardd");
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)?,
            "--trace" => trace = num(&value)? != 0,
            "--shardd" => shardd = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        shardd,
    })
}

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; layers a workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_us", "us"),
    ("service.wait_us", "us"),
    ("service.batch_fill", "ratio"),
    ("source.fetch_us", "us"),
    ("ml.predict_us", "us"),
    ("guards.flagged_ratio", "ratio"),
    ("guards.alerts", "count"),
    ("guards.epsilon_spent", "epsilon"),
    ("audit_sink.append_us", "us"),
    ("audit_sink.sync_us", "us"),
    ("audit_sink.busy_ratio", "ratio"),
    ("audit_sink.entries_per_s", "entries/s"),
    ("audit_sink.bytes_per_entry", "bytes"),
    ("audit_sink.segments_opened", "count"),
    ("checkpoint.writes", "count"),
    ("net.submit_us", "us"),
    ("net.wait_us", "us"),
    ("net.rtt_mean_us", "us"),
    ("net.requests", "count"),
    ("net.errors", "count"),
    ("net.reconnects", "count"),
    ("worker.served", "count"),
    ("worker.peak_rss_mb", "MiB"),
    ("segment.rates_full_us", "us"),
    ("segment.rates_pruned_us", "us"),
    ("segment.bytes_read", "bytes"),
    ("segment.segments_pruned", "count"),
    ("agg.aggregate_us", "us"),
    ("fairness.intersectional_us", "us"),
    ("runtime.stream_us", "us"),
    ("runtime.audit_entries", "count"),
    ("runtime.alerts", "count"),
    ("par.workers", "count"),
    ("latency_p99_us", "us"),
    ("warmup.ops", "count"),
    ("trace.ops_per_s_untraced", "ops/s"),
    ("trace.ops_per_s_traced", "ops/s"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer values one traced run measured.
#[derive(Default)]
pub struct PerLayer {
    values: Vec<(&'static str, f64)>,
}

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.push((name, value));
    }

    /// Record the traced window's throughput against the untraced one's.
    pub fn overhead(&mut self, untraced: f64, traced: f64) {
        self.set("trace.ops_per_s_untraced", untraced);
        self.set("trace.ops_per_s_traced", traced);
        self.set(
            "trace.overhead_pct",
            100.0 * (1.0 - traced / untraced.max(1e-9)),
        );
    }

    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            let value = self
                .values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            out.push(name, value, unit);
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host_start = host::HostSample::now();
    let outcome = match args.workload.as_str() {
        "local_flagged" => local::run(&args),
        "remote_tcp" => remote::run(&args),
        "offline_audit" => offline::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!(
        "meta workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host_start.describe(&host::HostSample::now())
    );
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_command_line_flags() {
        let argv = "--workload remote_tcp --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(argv).unwrap();
        assert_eq!(a.workload, "remote_tcp");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert_eq!(a.window(true), Duration::from_secs(6));
        assert!(parse_args(vec!["--seed".into()]).is_err());
        assert!(parse_args(vec!["--bogus".into(), "1".into()]).is_err());
    }

    #[test]
    fn per_layer_emits_every_metric_once() {
        let mut m = PerLayer::default();
        m.set("net.requests", 5.0);
        m.overhead(100.0, 90.0);
        let mut out = Outcome::new();
        m.emit(&mut out);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let get = |n: &str| out.metrics.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("net.requests"), 5.0);
        assert_eq!(get("net.errors"), 0.0);
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
    }
}
