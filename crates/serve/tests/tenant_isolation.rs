//! Per-tenant admission isolation, end to end, in both topologies.
//!
//! A hot tenant that floods past its token quota must be refused with the
//! *typed* `ServeError::Throttled` — and a quiet tenant sharing the same
//! service must see zero sheds and zero throttles — whether the shards
//! are local worker threads or live behind a fact-net socket in a worker
//! process (here: an in-process `Server` + `NetShardHandler`, the exact
//! stack `fact-shardd` runs; the spawned-binary variant is exercised by
//! `exp_e18`).
//!
//! Determinism comes from *hard* token quotas: burst `B` at a near-zero
//! refill rate means request `B + 1` in a back-to-back burst throttles no
//! matter how fast or slow the machine is — no sleeps, no latency
//! assumptions.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::StubModel;
use fact_net::{Server, ShardHandler};
use fact_serve::service::NetShardHandler;
use fact_serve::{
    AdmissionConfig, DecisionRequest, DecisionService, ServeConfig, ServeError, ShardSlot,
};

const HOT: u64 = 1;
const QUIET: u64 = 2;
const BURST: u64 = 8;
const FLOOD: u64 = 40;

/// Probability = first feature.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        // ~zero refill: the burst is the whole budget for this test
        tenant_rate: 0.000_001,
        tenant_burst: BURST as f64,
        ..AdmissionConfig::default()
    }
}

fn worker_config() -> ServeConfig {
    ServeConfig {
        shards: 4,
        n_features: 1,
        guards: None,
        admission: Some(admission()),
        ..ServeConfig::default()
    }
}

fn request(tenant: u64, key: u64) -> DecisionRequest {
    DecisionRequest {
        features: vec![0.9],
        group_b: key % 2 == 0,
        route_key: key,
        tenant,
    }
}

/// Flood with HOT, then drive QUIET; return (hot_ok, hot_throttled).
fn drive(service: &DecisionService) -> (u64, u64) {
    let mut hot_ok = 0;
    let mut hot_throttled = 0;
    for i in 0..FLOOD {
        match service.decide(request(HOT, i)) {
            Ok(_) => hot_ok += 1,
            Err(ServeError::Throttled { tenant }) => {
                assert_eq!(tenant, HOT, "throttle must name the offending tenant");
                hot_throttled += 1;
            }
            Err(e) => panic!("unexpected error for hot tenant: {e:?}"),
        }
    }
    // the quiet tenant's bucket is untouched by the flood
    for i in 0..5 {
        service
            .decide(request(QUIET, 1_000 + i))
            .expect("quiet tenant must be unaffected");
    }
    (hot_ok, hot_throttled)
}

#[test]
fn local_topology_throttles_hot_tenant_and_spares_quiet_one() {
    let service = DecisionService::start(Arc::new(StubModel), worker_config()).unwrap();
    let (hot_ok, hot_throttled) = drive(&service);

    assert_eq!(hot_ok, BURST, "exactly the burst is admitted");
    assert_eq!(hot_throttled, FLOOD - BURST);

    let snap = service.metrics();
    let hot = snap.admission.tenant(HOT).expect("hot tenant tracked");
    assert_eq!(hot.admitted, BURST);
    assert_eq!(hot.throttled, FLOOD - BURST);
    let quiet = snap.admission.tenant(QUIET).expect("quiet tenant tracked");
    assert_eq!(quiet.admitted, 5);
    assert_eq!(quiet.shed, 0, "quiet tenant shed rate must be ~0");
    assert_eq!(quiet.throttled, 0);

    let report = service.shutdown();
    assert_eq!(report.decisions_served, BURST + 5);
    assert_eq!(report.throttled, FLOOD - BURST);
}

#[test]
fn remote_topology_carries_typed_throttles_across_the_wire() {
    // worker side: the same stack fact-shardd runs — a guarded service
    // with admission enabled behind a fact-net server
    let sock = std::env::temp_dir().join(format!("fact-serve-iso-{}.sock", std::process::id()));
    let worker = DecisionService::start(Arc::new(StubModel), worker_config()).unwrap();
    let handler = NetShardHandler::new(worker.clone(), Duration::from_secs(5));
    let mut server = Server::bind(&sock, Arc::new(handler) as Arc<dyn ShardHandler>).unwrap();

    // client side: a 4-slot map, every slot dialing the worker socket;
    // the client itself runs NO admission — policy lives with the worker
    let client = DecisionService::start(
        Arc::new(StubModel),
        ServeConfig {
            shards: 4,
            n_features: 1,
            guards: None,
            topology: Some(vec![ShardSlot::Remote(sock.clone()); 4]),
            default_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let (hot_ok, hot_throttled) = drive(&client);
    assert_eq!(hot_ok, BURST);
    assert_eq!(hot_throttled, FLOOD - BURST);

    // the worker tracked the tenants; the client mirrored the typed
    // errors into its shard counters
    let wsnap = worker.metrics();
    let hot = wsnap.admission.tenant(HOT).expect("hot tenant tracked");
    assert_eq!(hot.admitted, BURST);
    assert_eq!(hot.throttled, FLOOD - BURST);
    let quiet = wsnap.admission.tenant(QUIET).expect("quiet tenant tracked");
    assert_eq!(quiet.admitted, 5);
    assert_eq!(quiet.shed, 0);
    assert_eq!(quiet.throttled, 0);

    let csnap = client.metrics();
    let client_throttled: u64 = csnap.shards.iter().map(|s| s.throttled).sum();
    assert_eq!(
        client_throttled,
        FLOOD - BURST,
        "client shard counters must mirror remote throttles"
    );

    let creport = client.shutdown();
    assert_eq!(creport.decisions_served, BURST + 5);
    server.shutdown();
    let wreport = worker.shutdown();
    assert_eq!(wreport.decisions_served, BURST + 5);
    assert_eq!(wreport.throttled, FLOOD - BURST);
    let _ = std::fs::remove_file(&sock);
}
