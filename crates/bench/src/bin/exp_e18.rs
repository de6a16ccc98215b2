//! E18 — adaptive admission control under open-loop overload
//! (EXPERIMENTS.md, E18).
//!
//! Three questions, one harness:
//!
//! 1. **Does the static bound collapse?** An open-loop arrival process
//!    (requests fired on a clock, not gated on completions) at ~4× a
//!    slow model's service rate drives a `queue_cap`-bounded service.
//!    With admission off, the queue pins at its cap and the client-side
//!    post-warmup p99 collapses to `queue_cap × service_time` — hard
//!    asserted at ≥ 4× the 25 ms target.
//! 2. **Does the AIMD controller hold the target?** The same workload
//!    against the same service with adaptive admission on: the
//!    controller shrinks the effective capacity until the observed p99
//!    sits at the target. Hard-asserted: post-warmup p99 ≤ 2× target,
//!    while still serving (not black-holed).
//! 3. **Do tenant quotas isolate?** A flooding tenant plus a quiet
//!    in-quota tenant share the adaptive service; the quiet tenant must
//!    complete ≥ 95% of its requests with p99 ≤ 2× target while the hot
//!    tenant eats `Throttled`. The same contract is then proven across
//!    the wire against a real spawned `fact-shardd` worker (typed
//!    `Throttled` rebuilt client-side).
//!
//! `--smoke` runs shorter sweeps of all three phases with the same hard
//! asserts (the CI gate).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::kit::{self, ScratchDir, Shardd};
use fact_data::Matrix;
use fact_ml::Classifier;
use fact_serve::{
    AdmissionConfig, DecisionRequest, DecisionService, DegradePolicy, ServeConfig, ServeError,
};

const N_FEATURES: usize = 4;
const TARGET_P99: Duration = Duration::from_millis(25);
const SERVICE_TIME: Duration = Duration::from_millis(1);
const QUEUE_CAP: usize = 512;

/// Scores instantly computable work after a fixed per-batch stall: a
/// deterministic stand-in for a model whose inference budget dominates.
/// With `batch_max: 1` every request costs exactly one stall.
struct SlowModel;

impl Classifier for SlowModel {
    fn predict_proba(&self, x: &Matrix) -> fact_data::Result<Vec<f64>> {
        std::thread::sleep(SERVICE_TIME);
        Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
    }
}

fn request(tenant: u64, key: u64) -> DecisionRequest {
    DecisionRequest {
        features: vec![0.7; N_FEATURES],
        group_b: key % 2 == 0,
        route_key: key,
        tenant,
    }
}

fn overload_config(admission: Option<AdmissionConfig>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        n_features: N_FEATURES,
        queue_cap: QUEUE_CAP,
        batch_max: 1,
        batch_linger: Duration::ZERO,
        default_timeout: Duration::from_secs(10),
        policy: DegradePolicy::Off,
        guards: None,
        admission,
        ..ServeConfig::default()
    }
}

fn adaptive() -> AdmissionConfig {
    AdmissionConfig {
        target_p99: TARGET_P99,
        ..AdmissionConfig::default()
    }
}

struct OpenLoopOutcome {
    served: u64,
    shed: u64,
    throttled: u64,
    /// Client-side completion latencies for requests submitted after the
    /// warmup cutoff.
    post_warmup: Vec<Duration>,
}

/// Fire `total` requests at `rate` arrivals/second regardless of
/// completions (open loop); a collector thread drains the handles.
/// Latency is measured client-side per request, and only requests
/// submitted after `warmup` count toward the reported distribution —
/// the ramp transient is not the steady state under test.
fn open_loop(
    service: &DecisionService,
    tenant: u64,
    rate: f64,
    total: u64,
    warmup: Duration,
) -> OpenLoopOutcome {
    type Pending = (Instant, bool, fact_serve::DecisionHandle);
    let (tx, rx) = mpsc::channel::<Pending>();
    let collector = std::thread::spawn(move || {
        let mut post_warmup = Vec::new();
        let mut served = 0u64;
        for (submitted, counted, handle) in rx {
            match handle.wait(Duration::from_secs(10)) {
                Ok(_) => {
                    served += 1;
                    if counted {
                        post_warmup.push(submitted.elapsed());
                    }
                }
                Err(e) => panic!("admitted request must complete: {e:?}"),
            }
        }
        (served, post_warmup)
    });

    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut shed = 0u64;
    let mut throttled = 0u64;
    for i in 0..total {
        // pace the arrival clock; if we fall behind, submit immediately
        // (open loop: the arrival process never waits for the service)
        let due = start + interval.mul_f64(i as f64);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(200)));
        }
        let submitted = Instant::now();
        let counted = submitted.duration_since(start) >= warmup;
        match service.submit(request(tenant, i)) {
            Ok(handle) => tx.send((submitted, counted, handle)).expect("collector"),
            Err(ServeError::Busy { .. }) => shed += 1,
            Err(ServeError::Throttled { .. }) => throttled += 1,
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    drop(tx);
    let (served, post_warmup) = collector.join().expect("collector thread");
    OpenLoopOutcome {
        served,
        shed,
        throttled,
        post_warmup,
    }
}

/// Phase A: static bound vs adaptive controller under the same overload.
fn overload_phase(rate: f64, total: u64, warmup: Duration) {
    println!("## E18a: open-loop overload, static bound vs adaptive controller\n");
    println!(
        "arrivals {rate:.0}/s, {total} requests, service {SERVICE_TIME:?}, \
         queue_cap {QUEUE_CAP}, target p99 {TARGET_P99:?}\n"
    );

    let report = |label: &str, out: &mut OpenLoopOutcome| -> Duration {
        let p = kit::percentile(&mut out.post_warmup, 99);
        println!(
            "{label:>10}: served={} shed={} throttled={} post-warmup p99={:.1}ms",
            out.served,
            out.shed,
            out.throttled,
            p.as_secs_f64() * 1e3,
        );
        p
    };

    let service = DecisionService::start(Arc::new(SlowModel), overload_config(None)).unwrap();
    let mut stat = open_loop(&service, 0, rate, total, warmup);
    let static_p99 = report("static", &mut stat);
    service.shutdown();

    let service =
        DecisionService::start(Arc::new(SlowModel), overload_config(Some(adaptive()))).unwrap();
    let mut adap = open_loop(&service, 0, rate, total, warmup);
    let adaptive_p99 = report("adaptive", &mut adap);
    let snap = service.metrics();
    println!(
        "{:>10}: cap={} ticks={} shrinks={} grows={}\n",
        "controller",
        snap.admission.effective_cap,
        snap.admission.ticks,
        snap.admission.shrinks,
        snap.admission.grows,
    );
    service.shutdown();

    assert!(
        static_p99 >= TARGET_P99 * 4,
        "static bound must collapse under overload: p99 {static_p99:?} < 4x target"
    );
    assert!(
        adaptive_p99 <= TARGET_P99 * 2,
        "adaptive controller must hold p99 within 2x target: {adaptive_p99:?}"
    );
    assert!(adap.served > 0, "adaptive service must not black-hole");
    assert!(
        adap.shed > 0,
        "holding the target under overload requires shedding"
    );
}

/// Phase B (local): a flooding tenant and an in-quota quiet tenant share
/// the adaptive service.
fn isolation_phase(flood_rate: f64, quiet_total: u64) {
    println!("## E18b: tenant isolation under a flooding neighbor (local)\n");
    let quota = AdmissionConfig {
        target_p99: TARGET_P99,
        tenant_rate: 100.0,
        tenant_burst: 50.0,
        ..AdmissionConfig::default()
    };
    let service =
        DecisionService::start(Arc::new(SlowModel), overload_config(Some(quota))).unwrap();

    // hot tenant: open-loop flood on a background thread
    let hot_service = service.clone();
    let hot_total = (flood_rate / 10.0) as u64 * 10; // ~1s of flood
    let hot = std::thread::spawn(move || {
        open_loop(&hot_service, 1, flood_rate, hot_total, Duration::ZERO)
    });

    // quiet tenant: paced *within* its quota, closed-loop, measured
    let quiet_interval = Duration::from_millis(20); // 50/s against a 100/s quota
    let mut quiet_ok = 0u64;
    let mut quiet_err = 0u64;
    let mut quiet_latency = Vec::new();
    for i in 0..quiet_total {
        let t0 = Instant::now();
        match service.decide(request(2, 1_000_000 + i)) {
            Ok(_) => {
                quiet_ok += 1;
                quiet_latency.push(t0.elapsed());
            }
            Err(_) => quiet_err += 1,
        }
        std::thread::sleep(quiet_interval.saturating_sub(t0.elapsed()));
    }
    let hot_out = hot.join().expect("hot tenant thread");

    let quiet_p99 = kit::percentile(&mut quiet_latency, 99);
    let completion = quiet_ok as f64 / (quiet_ok + quiet_err) as f64;
    println!(
        "hot   : served={} shed={} throttled={}",
        hot_out.served, hot_out.shed, hot_out.throttled
    );
    println!(
        "quiet : completion={:.1}% p99={:.1}ms\n",
        completion * 100.0,
        quiet_p99.as_secs_f64() * 1e3
    );
    let snap = service.metrics();
    let quiet_stats = snap.admission.tenant(2).expect("quiet tenant tracked");
    service.shutdown();

    assert!(
        hot_out.throttled > 0,
        "the flood must exhaust the hot tenant's quota"
    );
    assert!(
        completion >= 0.95,
        "quiet tenant completion {completion:.3} < 95%"
    );
    assert!(
        quiet_p99 <= TARGET_P99 * 2,
        "quiet tenant p99 {quiet_p99:?} blew the SLO"
    );
    assert_eq!(quiet_stats.throttled, 0, "quiet tenant must never throttle");
}

// ---- Phase C: the same quota contract across a real fact-shardd ----

fn remote_phase() {
    println!("## E18c: typed throttling across a real fact-shardd worker\n");
    let dir = ScratchDir::new("e18");
    let mut worker = Shardd::unix(&kit::shardd_path(), &dir.join("shardd.sock"), |cmd| {
        cmd.arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .args(["--shards", "4"])
            .args(["--n-features", &N_FEATURES.to_string()])
            .args(["--queue-cap", "256"])
            .args(["--target-p99-us", "25000"])
            .args(["--tenant-rate", "1"])
            .args(["--tenant-burst", "8"]);
    });

    let client = DecisionService::start(
        Arc::new(SlowModel),
        ServeConfig {
            shards: 4,
            n_features: N_FEATURES,
            guards: None,
            topology: Some(vec![worker.slot(); 4]),
            default_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .expect("start remote client");

    // hot tenant bursts 40 against a burst-8 quota: the worker throttles
    // the excess and the client rebuilds the *typed* error from the wire
    let mut hot_ok = 0u64;
    let mut hot_throttled = 0u64;
    for i in 0..40u64 {
        match client.decide(request(1, i)) {
            Ok(_) => hot_ok += 1,
            Err(ServeError::Throttled { tenant }) => {
                assert_eq!(tenant, 1, "throttle must name the tenant across the wire");
                hot_throttled += 1;
            }
            Err(e) => panic!("unexpected remote error: {e:?}"),
        }
    }
    // quiet tenant: fresh bucket, everything completes
    let mut quiet_ok = 0u64;
    for i in 0..5u64 {
        if client.decide(request(2, 1_000 + i)).is_ok() {
            quiet_ok += 1;
        }
    }
    println!("hot   : served={hot_ok} throttled={hot_throttled}");
    println!("quiet : completion={}/5\n", quiet_ok);

    assert_eq!(hot_ok, 8, "exactly the burst is admitted");
    assert_eq!(hot_throttled, 32, "the rest must throttle, typed");
    assert_eq!(quiet_ok, 5, "quiet tenant completion must be 100%");

    let client_throttled: u64 = client.metrics().shards.iter().map(|s| s.throttled).sum();
    assert_eq!(
        client_throttled, 32,
        "client shard counters must mirror remote throttles"
    );
    client.shutdown();
    worker.shutdown();
}

fn main() {
    let smoke = kit::Mode::from_args().is_smoke();
    println!("# E18: adaptive admission control under open-loop overload\n");

    if smoke {
        overload_phase(4_000.0, 4_800, Duration::from_millis(400));
        isolation_phase(1_000.0, 40);
    } else {
        overload_phase(4_000.0, 12_000, Duration::from_millis(600));
        isolation_phase(2_000.0, 100);
    }
    remote_phase();

    println!(
        "E18: all asserts passed{}",
        if smoke { " (smoke)" } else { "" }
    );
}
