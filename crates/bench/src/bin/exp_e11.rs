//! E11 — FACT-guarded decision serving under load (EXPERIMENTS.md, E11).
//!
//! Drives `fact-serve` with a synthetic open-loop lending workload: a
//! driver thread submits requests on a fixed arrival schedule (arrivals do
//! not wait for completions; a full shard queue sheds), the service
//! micro-batches them through a logistic model, and the FACT guards watch
//! every decision. Reported per shard count: achieved throughput,
//! p50/p95/p99 end-to-end latency, and the guarded-vs-unguarded overhead.
//!
//! A `SimulatedRemoteSource` charges a 1 ms feature-store fetch per batch —
//! the dominant cost of real online inference — through the `FeatureSource`
//! seam the service assembles every micro-batch with. That is what makes
//! shard scaling honest on a single-core host: shards overlap their
//! *waits*, not CPU, so throughput grows with shard count the way a
//! remote-backed service's would, and the guards' CPU cost shows up
//! undiluted in the overhead column.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::header;
use bench::kit::{self, lending_request, train_model};
use fact_ml::logistic::LogisticRegression;
use fact_serve::{DecisionService, DegradePolicy, GuardConfig, ServeConfig, SimulatedRemoteSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_FEATURES: usize = 8;
/// Simulated feature-store round trip, paid once per micro-batch.
const FETCH: Duration = Duration::from_millis(1);
/// Offered load: past saturation even at 4 shards (capacity ≈ 8k/s/shard).
const OFFERED_PER_MS: usize = 40;
const TRIAL: Duration = Duration::from_millis(1200);

struct Trial {
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    shed: u64,
    alerts: u64,
    epsilon: f64,
}

fn run_trial(model: Arc<LogisticRegression>, shards: usize, guarded: bool, seed: u64) -> Trial {
    let guards = guarded.then(|| GuardConfig {
        fairness_window: 2_000,
        min_di: 0.8,
        min_samples_per_group: 100,
        dp_interval: 1_000,
        epsilon_per_release: 0.01,
        epsilon_budget: 5.0,
        // score drift monitored against the serving distribution itself, so
        // it observes every decision without constantly firing
        drift: Some((
            (0..1000).map(|i| i as f64 / 1000.0).collect(),
            10,
            2_000,
            0.25,
        )),
    });
    let service = DecisionService::start_with_source(
        model,
        ServeConfig {
            shards,
            n_features: N_FEATURES,
            queue_cap: 256,
            batch_max: 8,
            batch_linger: Duration::from_micros(200),
            default_timeout: Duration::from_secs(5),
            threshold: 0.5,
            // measure pure observation overhead: guards watch and alert but
            // never change what is served
            policy: DegradePolicy::Off,
            trip_cooldown: 0,
            alert_debounce: 1_000,
            guards,
            seed,
            audit: None,
            cache: None,
            topology: None,
            checkpoint: None,
            admission: None,
            reshard_hold: Duration::from_secs(5),
        },
        Arc::new(SimulatedRemoteSource::new(FETCH)),
    )
    .expect("service start");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let start = Instant::now();
    let mut key = 0u64;
    let mut shed = 0u64;
    // open loop: a fixed arrival schedule, one burst per millisecond tick;
    // completions are reaped by the service, never waited on here
    while start.elapsed() < TRIAL {
        for _ in 0..OFFERED_PER_MS {
            key += 1;
            match service.submit(lending_request(&mut rng, key, N_FEATURES)) {
                Ok(handle) => drop(handle), // fire-and-forget; worker still serves it
                Err(_) => shed += 1,
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = service.shutdown(); // drain what was accepted
    let elapsed = start.elapsed().as_secs_f64();
    let snap = service.metrics();
    let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
    Trial {
        throughput: report.decisions_served as f64 / elapsed,
        p50_us: us(snap.p50),
        p95_us: us(snap.p95),
        p99_us: us(snap.p99),
        shed,
        alerts: report.alerts_raised,
        epsilon: report.epsilon_spent,
    }
}

fn main() {
    let model = Arc::new(train_model(11, N_FEATURES));
    println!(
        "E11: guarded decision serving, open-loop load ({} req/s offered, {}ms fetch per batch)\n",
        OFFERED_PER_MS * 1000,
        FETCH.as_millis()
    );
    // warm-up (thread spawn, allocator, model)
    run_trial(Arc::clone(&model), 1, true, 99);

    let mut out = String::new();
    let columns = [
        "shards", "config", "req/s", "p50(us)", "p95(us)", "p99(us)", "shed", "alerts", "eps",
    ];
    let widths = [6, 10, 10, 10, 10, 10, 8, 7, 6];
    out.push_str(&header(&columns, &widths));
    out.push('\n');

    let mut guarded_rates = Vec::new();
    let mut overheads = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let base = run_trial(Arc::clone(&model), shards, false, 7 + shards as u64);
        let guarded = run_trial(Arc::clone(&model), shards, true, 7 + shards as u64);
        for (label, t) in [("unguarded", &base), ("guarded", &guarded)] {
            let line = format!(
                "{shards:>6} {label:>10} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>7} {:>6.2}",
                t.throughput, t.p50_us, t.p95_us, t.p99_us, t.shed, t.alerts, t.epsilon
            );
            println!("{line}");
            out.push_str(&line);
            out.push('\n');
        }
        let overhead = 100.0 * (1.0 - guarded.throughput / base.throughput);
        overheads.push((shards, overhead));
        guarded_rates.push(guarded.throughput);
        let line = format!("{shards:>6} {:>10} overhead {overhead:>5.1}%", "guard");
        println!("{line}");
        out.push_str(&line);
        out.push('\n');
    }

    let monotone = guarded_rates.windows(2).all(|w| w[1] > w[0]);
    let summary = format!(
        "\nguarded throughput 1→2→4 shards: {:.0} → {:.0} → {:.0} req/s (monotone: {})\n\
         guard overhead at 4 shards: {:.1}% (claim: <15%)\n",
        guarded_rates[0],
        guarded_rates[1],
        guarded_rates[2],
        if monotone { "yes" } else { "NO" },
        overheads.last().unwrap().1,
    );
    print!("{summary}");
    out.push_str(&summary);

    kit::write_results("e11", &out);
}
