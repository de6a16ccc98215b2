//! The closed-loop request generator shared by the serving workloads: one
//! thread keeps a fixed window of requests in flight, submitting ahead and
//! waiting on the oldest.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fact_serve::{Decision, DecisionHandle, DecisionRequest, DecisionService};

use crate::host::{cpu_ticks, StealSampler};
use crate::stats::{median, quiet_half, rank, Outcome};
use crate::trace::{Recorder, Span};

/// How long one decision may take before the generator counts it failed.
const WAIT: Duration = Duration::from_secs(10);

/// Every this many ops, the decision is kept for the output check.
const SAMPLE_EVERY: u64 = 97;

/// A traced pass records caller-side spans for requests whose route key
/// is a multiple of this, which keeps a whole window's spans in memory.
/// Batch spans still link every key they served.
const TRACE_EVERY: u64 = 4;

/// Ceiling on decisions per second the timed pass reserves room for.
const MAX_RATE: f64 = 1e6;

/// A pre-built request: features and protected-group membership.
pub type PoolItem = (Vec<f64>, bool);

/// Caller-side span names for one serving path.
pub struct SpanNames {
    pub submit: &'static str,
    pub wait: &'static str,
}

pub const LOCAL_SPANS: SpanNames = SpanNames {
    submit: "service.submit",
    wait: "service.wait",
};

pub const REMOTE_SPANS: SpanNames = SpanNames {
    submit: "net.submit",
    wait: "net.wait",
};

/// What one generator pass did.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub flagged: u64,
    pub wall_s: f64,
    /// Submit-to-wait-return latency of each succeeded op, in ns.
    pub latencies_ns: Vec<u64>,
    /// When each succeeded op completed, in ns since the pass began
    /// (aligned with `latencies_ns`).
    pub done_ns: Vec<u64>,
    /// (pool index, decision) for every `SAMPLE_EVERY`-th succeeded op.
    pub samples: Vec<(usize, Decision)>,
    /// First few failures, for the log.
    pub errors: Vec<String>,
    /// Host steal ticks during each slice of a timed pass.
    pub slice_steal: Vec<u64>,
    /// CPU ticks this process used during the pass.
    pub cpu_ticks: u64,
}

impl Pass {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ops_per_s(&self) -> f64 {
        self.succeeded() as f64 / self.wall_s.max(1e-9)
    }

    pub fn flagged_ratio(&self) -> f64 {
        self.flagged as f64 / self.succeeded().max(1) as f64
    }

    /// Latency quantile over the whole pass, in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut all = self.latencies_ns.clone();
        all.sort_unstable();
        quantile_us(&all, q)
    }

    /// Throughput and latency quantiles as the median over the quietest
    /// half of the pass's full `SLICE`s, ranked by host steal: time the
    /// hypervisor gave to other guests is noise from outside the program.
    pub fn sliced(&self) -> Sliced {
        let slice = SLICE.as_nanos() as u64;
        let mut per_slice: Vec<Vec<u64>> = Vec::new();
        for (&done, &lat) in self.done_ns.iter().zip(&self.latencies_ns) {
            let k = (done / slice) as usize;
            if per_slice.len() <= k {
                per_slice.resize_with(k + 1, Vec::new);
            }
            per_slice[k].push(lat);
        }
        // only slices wholly inside the pass
        per_slice.truncate((self.wall_s * 1e9) as usize / slice as usize);
        let mut rates = Vec::new();
        let mut p50 = Vec::new();
        let mut p90 = Vec::new();
        let mut steal = self.slice_steal.clone();
        steal.resize(per_slice.len(), u64::MAX);
        let quiet = quiet_half(&steal);
        for &k in &quiet {
            let lats = &mut per_slice[k];
            rates.push(lats.len() as f64 / SLICE.as_secs_f64());
            lats.sort_unstable();
            p50.push(quantile_us(lats, 0.5));
            p90.push(quantile_us(lats, 0.9));
        }
        Sliced {
            slices: steal.len(),
            quiet_steal: quiet.iter().map(|&k| steal[k]).sum(),
            ops_per_s: median(&rates),
            p50_us: median(&p50),
            p90_us: median(&p90),
        }
    }

    /// The sliced figures of sub-run `run`, after printing its metadata:
    /// sample counts, CPU per op, and the whole-window figures next to the
    /// sliced ones.
    pub fn finish(&self, run: usize) -> Sliced {
        let s = self.sliced();
        println!(
            "meta run={run} slices={} ops_per_s={:.1} p50_us={:.1} p90_us={:.1} \
             cpu_us_per_op={:.3} quiet_slice_steal_ticks={} \
             whole_window_ops_per_s={:.1} whole_window_p50_us={:.1} whole_window_p90_us={:.1}",
            s.slices,
            s.ops_per_s,
            s.p50_us,
            s.p90_us,
            self.cpu_ticks as f64 * 1e4 / self.succeeded().max(1) as f64,
            s.quiet_steal,
            self.ops_per_s(),
            self.latency_us(0.5),
            self.latency_us(0.9)
        );
        for e in &self.errors {
            println!("meta op_error {e}");
        }
        s
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Median over sub-runs of their sliced throughput.
pub fn median_rate(runs: &[Sliced]) -> f64 {
    median(&runs.iter().map(|s| s.ops_per_s).collect::<Vec<_>>())
}

/// Push the serving end-to-end metrics other than `peak_rss_mb`: `setup_s`
/// as given, the rest as medians over the sub-runs (one per fresh start)
/// of each sub-run's sliced figures.
pub fn report(out: &mut Outcome, setup_s: f64, runs: &[Sliced]) {
    let med = |f: fn(&Sliced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.push("setup_s", setup_s, "s");
    out.push("ops_per_s", med(|s| s.ops_per_s), "ops/s");
    out.push("latency_p50_us", med(|s| s.p50_us), "us");
    out.push("latency_p90_us", med(|s| s.p90_us), "us");
}

/// Length of one measurement slice of a timed pass.
pub const SLICE: Duration = Duration::from_millis(250);

/// Slice medians of one pass.
pub struct Sliced {
    pub slices: usize,
    /// Steal ticks summed over the slices the figures come from.
    pub quiet_steal: u64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
}

fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    sorted_ns[rank(sorted_ns.len(), q)] as f64 / 1e3
}

/// Where the generator stops submitting.
pub enum Stop {
    Ops(u64),
    After(Duration),
}

/// Drive `service` with requests cycled from `pool`, keeping `window` in
/// flight. Route keys continue from `next_key`, so every request of a run
/// has its own key. With a recorder, each request gets a root span (id =
/// route key) with submit and wait child spans.
pub fn run(
    service: &DecisionService,
    pool: &[PoolItem],
    next_key: &mut u64,
    window: usize,
    stop: Stop,
    rec: Option<&Recorder>,
    names: &SpanNames,
) -> Pass {
    // Sized up front: growing by doubling would make peak RSS jump with
    // throughput. Untouched capacity is never resident.
    let capacity = match stop {
        Stop::Ops(n) => n as usize,
        Stop::After(d) => (d.as_secs_f64() * MAX_RATE) as usize,
    };
    let mut pass = Pass {
        latencies_ns: Vec::with_capacity(capacity),
        done_ns: Vec::with_capacity(capacity),
        ..Pass::default()
    };
    let mut inflight: VecDeque<(Instant, u64, u64, usize, DecisionHandle)> =
        VecDeque::with_capacity(window);
    let t0 = Instant::now();
    let sampler = matches!(stop, Stop::After(_)).then(|| StealSampler::start(t0, SLICE));
    let cpu0 = cpu_ticks("self").unwrap_or(0);
    let mut submitting = true;
    loop {
        if submitting {
            submitting = match stop {
                Stop::Ops(n) => pass.attempted < n,
                Stop::After(d) => t0.elapsed() < d,
            };
        }
        if submitting && inflight.len() < window {
            let key = *next_key;
            *next_key += 1;
            let idx = (key % pool.len() as u64) as usize;
            let (features, group_b) = &pool[idx];
            pass.attempted += 1;
            let request = DecisionRequest {
                features: features.clone(),
                group_b: *group_b,
                route_key: key,
                tenant: 0,
            };
            let rec = rec.filter(|_| key.is_multiple_of(TRACE_EVERY));
            let start = Instant::now();
            let span_start = rec.map_or(0, Recorder::now);
            match service.submit(request) {
                Ok(handle) => {
                    if let Some(r) = rec {
                        r.leaf(names.submit, span_start, r.now(), Some(key));
                    }
                    inflight.push_back((start, span_start, key, idx, handle));
                }
                Err(e) => pass.fail(format!("submit: {e}")),
            }
            continue;
        }
        let Some((start, span_start, key, idx, handle)) = inflight.pop_front() else {
            break;
        };
        let rec = rec.filter(|_| key.is_multiple_of(TRACE_EVERY));
        let wait_start = rec.map_or(0, Recorder::now);
        let result = handle.wait(WAIT);
        let latency = start.elapsed();
        if let Some(r) = rec {
            let end = r.now();
            r.leaf(names.wait, wait_start, end, Some(key));
            r.record(Span {
                name: "request",
                start: span_start,
                end,
                parent: None,
                id: key,
                links: Vec::new(),
            });
        }
        match result {
            Ok(decision) => {
                pass.latencies_ns.push(latency.as_nanos() as u64);
                pass.done_ns.push(t0.elapsed().as_nanos() as u64);
                if decision.flagged {
                    pass.flagged += 1;
                }
                if pass.succeeded().is_multiple_of(SAMPLE_EVERY) {
                    pass.samples.push((idx, decision));
                }
            }
            Err(e) => pass.fail(format!("wait: {e}")),
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_ticks = cpu_ticks("self").unwrap_or(0).saturating_sub(cpu0);
    pass.slice_steal = sampler.map(StealSampler::finish).unwrap_or_default();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_come_from_the_quiet_half() {
        let ms = 1_000_000;
        let mut pass = Pass {
            wall_s: 1.1,
            // four full slices; the partial fifth is dropped
            slice_steal: vec![0, 9, 1, 7, 0],
            ..Pass::default()
        };
        // slice k completes (k + 1) * 100 ops of latency (k + 1) ms
        for k in 0..5u64 {
            for i in 0..(k + 1) * 100 {
                pass.done_ns.push(k * 250 * ms + i);
                pass.latencies_ns.push((k + 1) * ms);
            }
        }
        let s = pass.sliced();
        assert_eq!(s.slices, 4);
        // quiet slices are 0 (steal 0) and 2 (steal 1)
        assert_eq!(s.quiet_steal, 1);
        // medians of slice 0 (100 ops, 1 ms) and slice 2 (300 ops, 3 ms)
        assert_eq!(s.ops_per_s, 800.0);
        assert_eq!(s.p50_us, 2_000.0);
        assert_eq!(s.p90_us, 2_000.0);
        assert_eq!(pass.latency_us(1.0), 5_000.0);
    }
}
