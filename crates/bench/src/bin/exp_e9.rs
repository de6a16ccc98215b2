//! E9 — responsibility at Internet-Minute scale (EXPERIMENTS.md, Table E9).
//!
//! Paper §3 cites ≈13.8M events/minute across seven services. This
//! experiment prices the FACT guards on that mix: throughput of the event
//! pipeline with guards off vs on (fairness monitor + periodic DP release +
//! audit sampling), and how long a paper-scale minute takes to audit.
//!
//! `--smoke` runs a 200k-event stream instead of 2M and writes no results
//! file. Both modes assert the guarded run's exact debounced alert counts,
//! its audit-entry count and the last fairness alert's DI, bit for bit: the
//! guards' verdicts are a pure function of the stream.

use std::time::Instant;

use bench::{header, kit};
use fact_core::runtime::{Alert, GuardedStream};
use fact_data::stream::{InternetMinute, Service};

/// What one pass over the stream produced.
struct Run {
    rate: f64,
    audit_entries: u64,
    alerts: Vec<Alert>,
}

impl Run {
    fn count(&self, kind: fn(&Alert) -> bool) -> usize {
        self.alerts.iter().filter(|a| kind(a)).count()
    }
}

fn is_fairness(a: &Alert) -> bool {
    matches!(a, Alert::FairnessViolation { .. })
}

fn is_dp_release(a: &Alert) -> bool {
    matches!(a, Alert::DpRelease { .. })
}

fn throughput(guarded: bool, n_events: usize, seed: u64) -> Run {
    let events: Vec<_> = InternetMinute::new(seed)
        .with_disparity(0.85, 0.65) // mild disparity so the monitor has work
        .take(n_events)
        .collect();
    let mut proc = if guarded {
        GuardedStream::guarded(5_000, 0.8, 10_000, 50.0, 100, seed).unwrap()
    } else {
        GuardedStream::unguarded()
    };
    let start = Instant::now();
    for ev in &events {
        proc.process(ev);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(proc.value_sum());
    Run {
        rate: n_events as f64 / secs,
        audit_entries: proc.audit_entries,
        alerts: proc.alerts,
    }
}

/// The guarded seed-42 run's verdicts for a stream of `n` events.
struct Expected {
    n: usize,
    fairness_alerts: usize,
    dp_releases: usize,
    audit_entries: u64,
    last_di: f64,
}

const FULL: Expected = Expected {
    n: 2_000_000,
    fairness_alerts: 799,
    dp_releases: 200,
    audit_entries: 20_000,
    last_di: 0.7810728648857846,
};

const SMOKE: Expected = Expected {
    n: 200_000,
    fairness_alerts: 80,
    dp_releases: 20,
    audit_entries: 2_000,
    last_di: 0.7633817193131419,
};

fn check(run: &Run, want: &Expected) {
    assert_eq!(
        run.count(is_fairness),
        want.fairness_alerts,
        "debounced fairness alerts"
    );
    assert_eq!(run.count(is_dp_release), want.dp_releases, "DP releases");
    assert_eq!(run.alerts.len(), want.fairness_alerts + want.dp_releases);
    assert_eq!(
        run.audit_entries, want.audit_entries,
        "sampled audit entries"
    );
    match run.alerts.iter().rev().find(|a| is_fairness(a)) {
        Some(Alert::FairnessViolation {
            disparate_impact, ..
        }) => assert_eq!(
            disparate_impact.to_bits(),
            want.last_di.to_bits(),
            "last fairness alert's DI: {disparate_impact}"
        ),
        other => panic!("no fairness alert: {other:?}"),
    }
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    let want = if smoke { &SMOKE } else { &FULL };
    let mut out = format!(
        "E9: guarded-stream throughput (paper's Internet Minute = {} events/min)\n\n",
        Service::total_per_minute()
    );
    print!("{out}");
    // warm-up
    throughput(false, 100_000, 0);

    let head = header(
        &[
            "config",
            "events/sec",
            "audit entries",
            "alerts",
            "paper-minute cost",
        ],
        &[14, 14, 14, 8, 20],
    );
    out.push_str(&format!("{head}\n{}\n", "-".repeat(head.len())));
    let mut base_rate = 0.0;
    for (label, guarded) in [("unguarded", false), ("guarded", true)] {
        let run = throughput(guarded, want.n, 42);
        if guarded {
            check(&run, want);
        } else {
            base_rate = run.rate;
        }
        let minute_cost = Service::total_per_minute() as f64 / run.rate;
        let line = format!(
            "{label:>14} {:>14.0} {:>14} {:>8} {minute_cost:>18.2}s",
            run.rate,
            run.audit_entries,
            run.alerts.len()
        );
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
        if guarded {
            let line = format!(
                "{:>14} {} debounced fairness alerts + {} DP releases",
                "",
                run.count(is_fairness),
                run.count(is_dp_release)
            );
            println!("{line}");
            out.push_str(&line);
            out.push('\n');
        }
    }
    let guarded_rate = throughput(true, want.n, 43).rate;
    let summary = format!(
        "\nguard overhead: {:.1}% of unguarded throughput\n\
         \nExpected shape: guards cost a constant factor (well under one order of\n\
         magnitude), and one full Internet Minute audits in seconds on one core —\n\
         responsibility does not preclude scale.\n",
        100.0 * (1.0 - guarded_rate / base_rate)
    );
    print!("{summary}");
    out.push_str(&summary);

    if !smoke {
        kit::write_results("e9", &out);
    }
}
