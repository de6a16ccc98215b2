//! The decision service: sharded workers, micro-batching, admission
//! control, guard-driven degradation, and graceful shutdown.
//!
//! A [`DecisionService`] owns one worker thread per shard. Requests are
//! routed by key hash onto a shard's **bounded** queue (`try_send`): a full
//! queue sheds the request with [`ServeError::Busy`] instead of letting
//! latency collapse — admission control, not buffering. Each worker drains
//! its queue into micro-batches so one matrix-level `predict_proba` call
//! amortizes model overhead across requests, then walks the batch through
//! the shard's FACT guards. A tripped guard engages the configured
//! [`DegradePolicy`] for a cooldown: decisions are flagged for audit or
//! hard-rejected until the cooldown expires.
//!
//! Shutdown drops the queue senders; workers finish whatever is buffered
//! (every accepted request is answered) and exit, and the [`ServiceReport`]
//! is read from the counters they kept in the metrics registry.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fact_core::runtime::{Alert, Guards};
use fact_ml::Classifier;
use fact_net::oneshot::{self, RecvError};
use fact_net::{
    decode as net_decode, decode_request, decode_response, encode as net_encode, encode_response,
    CheckpointAckWire, ControlAckWire, ControlWire, DecisionWire, Endpoint, Frame, FrameKind,
    NetError, PendingPayload, PendingReply, RemoteShard, Reply, RequestWire, ResponseWire,
};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use crate::audit_sink::{
    AuditEvent, AuditSink, AuditSinkConfig, AuditSinkHandle, AuditStorage, RecoveryReport,
};
use crate::cache::{CacheConfig, CachedFeatureSource, SystemClock};
use crate::checkpoint::{
    build_guard_state, commit_transform, load_slots, CheckpointConfig, GuardCheckpoint, GuardSlots,
    TransformReport,
};
use crate::guards::{AlertHub, DegradePolicy, GuardConfig, ServiceAlert};
use crate::metrics::{
    write_layer_lines, write_shard_table, AdmissionSnapshot, CacheSnapshot, MetricsRegistry,
    MetricsSnapshot, ShardSnapshot,
};
use crate::source::{FeatureSource, InlineFeatures};

/// Errors surfaced to callers of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The target shard's queue is full (or past the adaptive effective
    /// capacity); the request was shed at admission.
    Busy {
        /// Shard whose queue was full.
        shard: usize,
    },
    /// The request's tenant is over its admission quota; retrying after
    /// backoff is the contract (well-behaved tenants never see this).
    Throttled {
        /// Tenant whose token bucket was empty.
        tenant: u64,
    },
    /// The caller's deadline passed before a decision arrived. The request
    /// is *not* cancelled — an accepted request is always served — but the
    /// reply is discarded.
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// A guard tripped and the hard-reject policy is active.
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// The request was malformed (e.g. wrong feature count).
    BadRequest(String),
    /// The service is shutting down (or already shut down).
    ShuttingDown,
    /// A live reshard's cutover outlasted the bounded hold window: the
    /// request was neither enqueued nor served. Retrying after backoff is
    /// safe — requests that arrive during cutover are held and replayed
    /// into the new topology, and only the tail past the hold window sees
    /// this error (see [`DecisionService::reshard`]).
    Resharding,
    /// The model failed on this batch.
    Internal(String),
    /// A remote shard failed at the transport level (worker down, torn
    /// connection, malformed reply) or answered with a worker-side error.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy { shard } => write!(f, "shard {shard} queue full"),
            ServeError::Throttled { tenant } => write!(f, "tenant {tenant} over quota"),
            ServeError::Timeout { waited } => write!(f, "timed out after {waited:?}"),
            ServeError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Resharding => write!(f, "resharding cutover exceeded the hold window"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
            ServeError::Remote(msg) => write!(f, "remote shard error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Machine-readable class for the fact-net wire (`ResponseWire.code`),
    /// so a client can rebuild the typed error across the process
    /// boundary. `None` for errors that stay opaque remotely.
    fn wire_code(&self) -> Option<&'static str> {
        match self {
            ServeError::Busy { .. } => Some("busy"),
            ServeError::Throttled { .. } => Some("throttled"),
            ServeError::Rejected { .. } => Some("rejected"),
            ServeError::Resharding => Some("resharding"),
            _ => None,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (threads).
    pub shards: usize,
    /// Feature-vector length every request must match.
    pub n_features: usize,
    /// Bounded queue capacity per shard; a full queue sheds requests.
    pub queue_cap: usize,
    /// Largest micro-batch a worker will assemble.
    pub batch_max: usize,
    /// How long a worker waits to top off a partial batch.
    pub batch_linger: Duration,
    /// Default caller deadline for [`DecisionService::decide`].
    pub default_timeout: Duration,
    /// Probability threshold for a favorable decision.
    pub threshold: f64,
    /// What happens to decisions while a guard trip is in effect.
    pub policy: DegradePolicy,
    /// Decisions a guard trip stays in effect for (per shard).
    pub trip_cooldown: u64,
    /// Minimum decisions between forwarded alerts of one kind (DP releases are never held).
    pub alert_debounce: u64,
    /// The FACT guard set; `None` serves unguarded (baseline).
    pub guards: Option<GuardConfig>,
    /// Seed decorrelating per-shard DP noise streams.
    pub seed: u64,
    /// Durable audit sink for flagged/rejected decisions and alerts;
    /// `None` keeps the pre-sink behavior (counters only).
    pub audit: Option<AuditSinkConfig>,
    /// Wrap the feature source in a [`CachedFeatureSource`] (sharded TTL
    /// map, negative caching, single-flight); `None` fetches every batch
    /// upstream. The cache's counters land in the service metrics and the
    /// final [`ServiceReport`].
    pub cache: Option<CacheConfig>,
    /// Where each shard runs: `None` keeps every shard in-process (the
    /// pre-fact-net behavior). When set, it must have exactly `shards`
    /// entries; [`ShardSlot::Remote`] entries are dialed over fact-net
    /// instead of getting a local worker thread, and the routing hash is
    /// unchanged either way.
    pub topology: Option<Vec<ShardSlot>>,
    /// Periodic + on-shutdown guard-state checkpointing for local shards;
    /// on startup each local shard restores its fairness window, ε
    /// ledger, and DP counters from [`GuardState`](crate::GuardState).
    pub checkpoint: Option<CheckpointConfig>,
    /// Adaptive admission control: an AIMD latency-target controller plus
    /// per-tenant token quotas layered on the depth gauge (see
    /// [`crate::admission`]). `None` keeps the static `queue_cap` bound.
    pub admission: Option<AdmissionConfig>,
    /// Longest a submit parks while a live
    /// [`reshard`](DecisionService::reshard) cutover is in progress before
    /// it is refused with [`ServeError::Resharding`]. The bound keeps the
    /// cutover from becoming an unbounded buffer: past it, callers get a
    /// typed, retryable refusal instead of latency collapse.
    pub reshard_hold: Duration,
}

/// Where one shard of the routing space is hosted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSlot {
    /// A worker thread in this process (the default).
    Local,
    /// A `fact-shardd` worker reached over the Unix socket at this path.
    Remote(PathBuf),
    /// A `fact-shardd` worker reached over TCP at this `host:port`
    /// address — same frame protocol, deadlines, and reconnect semantics
    /// as [`Remote`](ShardSlot::Remote), for workers on other hosts.
    RemoteTcp(String),
}

impl ShardSlot {
    /// The fact-net endpoint a remote slot dials; `None` for local slots.
    fn endpoint(&self) -> Option<Endpoint> {
        match self {
            ShardSlot::Local => None,
            ShardSlot::Remote(path) => Some(Endpoint::Unix(path.clone())),
            ShardSlot::RemoteTcp(addr) => Some(Endpoint::Tcp(addr.clone())),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            n_features: 1,
            queue_cap: 256,
            batch_max: 16,
            batch_linger: Duration::from_micros(200),
            default_timeout: Duration::from_secs(1),
            threshold: 0.5,
            policy: DegradePolicy::AuditAndFlag,
            trip_cooldown: 1_000,
            alert_debounce: 500,
            guards: Some(GuardConfig::default()),
            seed: 0,
            audit: None,
            cache: None,
            topology: None,
            checkpoint: None,
            admission: None,
            reshard_hold: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// Every static refusal of a start, checked before anything is planned.
    fn check(&self) -> Result<(), ServeError> {
        let adm = |bad: fn(&AdmissionConfig) -> bool| self.admission.as_ref().is_some_and(bad);
        let slots = self.topology.as_ref().map_or(self.shards, Vec::len);
        let sizes = [self.shards, self.queue_cap, self.batch_max, self.n_features];
        let refusal: String = if sizes.contains(&0) {
            "shards, queue_cap, batch_max, and n_features must be positive".into()
        } else if !(0.0..=1.0).contains(&self.threshold) {
            "threshold must be in [0, 1]".into()
        } else if (self.cache.as_ref())
            .is_some_and(|c| [c.stripes, c.capacity_per_stripe].contains(&0))
        {
            "cache stripes and capacity_per_stripe must be positive".into()
        } else if slots != self.shards {
            format!("topology has {slots} slots but shards is {}", self.shards)
        } else if (self.checkpoint.as_ref()).is_some_and(|c| c.every == 0) {
            "checkpoint.every must be positive".into()
        } else if adm(|a| a.target_p99.is_zero()) {
            "admission.target_p99 must be positive".into()
        } else if adm(|a| a.tick.is_zero()) {
            "admission.tick must be positive".into()
        } else if adm(|a| a.increase == 0) {
            "admission.increase must be at least 1".into()
        } else if adm(|a| !(a.decrease > 0.0 && a.decrease < 1.0)) {
            "admission.decrease must be in (0, 1)".into()
        } else if adm(|a| !a.tenant_rate.is_finite() || a.tenant_rate < 0.0) {
            "admission.tenant_rate must be finite and >= 0".into()
        } else if adm(|a| {
            a.tenant_rate > 0.0 && !(a.tenant_burst >= 1.0 && a.tenant_burst.is_finite())
        }) {
            "admission.tenant_burst must be >= 1 when quotas are on".into()
        } else if let Some(Err(e)) = self.audit.as_ref().map(AuditSinkConfig::validate) {
            format!("audit sink: {e}")
        } else {
            return Ok(());
        };
        Err(ServeError::BadRequest(refusal))
    }
}

/// One decision request.
#[derive(Debug, Clone)]
pub struct DecisionRequest {
    /// Feature vector (must have `n_features` entries).
    pub features: Vec<f64>,
    /// Protected-group membership, observed by the fairness guard.
    pub group_b: bool,
    /// Routing key (e.g. user id): requests with equal keys land on the
    /// same shard.
    pub route_key: u64,
    /// Tenant the request bills its admission quota against (e.g. the
    /// calling product or customer). Ignored unless
    /// [`ServeConfig::admission`] enables tenant quotas; 0 is a fine
    /// default for single-tenant callers.
    pub tenant: u64,
}

/// One served decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Model probability of the favorable class.
    pub probability: f64,
    /// The decision at the configured threshold.
    pub favorable: bool,
    /// True when served in degraded audit-and-flag mode.
    pub flagged: bool,
    /// Shard that served it.
    pub shard: usize,
}

/// The transport a handle is waiting on: a local worker's reply slot or a
/// fact-net in-flight frame.
enum HandleInner {
    Local(oneshot::Receiver<Result<Decision, ServeError>>),
    Remote {
        reply: PendingReply,
        enqueued: Instant,
    },
}

/// An in-flight decision returned by [`DecisionService::submit`]. The
/// caller cannot tell (and need not care) whether the shard is a local
/// worker thread or a remote process.
pub struct DecisionHandle {
    inner: HandleInner,
    shard: usize,
    metrics: Arc<MetricsRegistry>,
}

/// Convert a worker's wire reply into the local decision type, stamped
/// with the *client-side* slot index so routing stays observable.
fn decode_remote_decision(reply: &Frame, slot: usize) -> Result<Decision, ServeError> {
    let wire = decode_response(reply.version, &reply.payload)
        .map_err(|e| ServeError::Remote(e.to_string()))?;
    // a coded failure rebuilds the worker's typed error, so callers (and
    // per-tenant accounting) see the same shape across both topologies
    let code = wire.code.clone();
    let tenant = wire.tenant;
    let d = wire.into_result().map_err(|e| match e {
        NetError::Remote(msg) => match code.as_deref() {
            Some("busy") => ServeError::Busy { shard: slot },
            Some("throttled") => ServeError::Throttled {
                tenant: tenant.unwrap_or(0),
            },
            Some("rejected") => ServeError::Rejected { reason: msg },
            Some("resharding") => ServeError::Resharding,
            _ => ServeError::Remote(msg),
        },
        other => ServeError::Remote(other.to_string()),
    })?;
    Ok(Decision {
        probability: d.probability,
        favorable: d.favorable,
        flagged: d.flagged,
        shard: slot,
    })
}

/// Decode a remote worker's reply and count it in the client-side shard
/// counters the way a local shard would: a served decision with its
/// latency, or a typed admission refusal, so reports read the same across
/// both topologies.
fn settle_remote(
    metrics: &MetricsRegistry,
    shard: usize,
    reply: Result<Frame, NetError>,
    enqueued: Instant,
) -> Result<Decision, ServeError> {
    let result = reply
        .map_err(|e| ServeError::Remote(e.to_string()))
        .and_then(|frame| decode_remote_decision(&frame, shard));
    let m = metrics.shard(shard);
    match &result {
        Ok(_) => {
            m.served.fetch_add(1, Ordering::Relaxed);
            metrics.latency.record(enqueued.elapsed());
        }
        Err(ServeError::Busy { .. }) => {
            m.shed.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::Throttled { .. }) => {
            m.throttled.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {}
    }
    result
}

impl DecisionHandle {
    /// Block until the decision arrives or `timeout` passes.
    pub fn wait(self, timeout: Duration) -> Result<Decision, ServeError> {
        match self.inner {
            HandleInner::Local(mut rx) => match rx.wait(timeout) {
                Ok(result) => return result,
                // The worker exited without answering (only possible
                // mid-shutdown), or an earlier poll took the decision.
                Err(RecvError::Closed) => return Err(ServeError::ShuttingDown),
                Err(RecvError::Timeout) => {}
            },
            HandleInner::Remote { reply, enqueued } => match reply.wait(timeout) {
                Err(NetError::Timeout) => {}
                reply => return settle_remote(&self.metrics, self.shard, reply, enqueued),
            },
        }
        let m = self.metrics.shard(self.shard);
        m.timeouts.fetch_add(1, Ordering::Relaxed);
        Err(ServeError::Timeout { waited: timeout })
    }

    /// Non-blocking poll; `None` while the decision is still in flight.
    /// The handle is one-shot: once a poll has returned the decision,
    /// later polls return `Some(Err(ShuttingDown))`, and so does `wait`.
    pub fn try_wait(&self) -> Option<Result<Decision, ServeError>> {
        Some(match &self.inner {
            HandleInner::Local(rx) => rx.try_wait()?.unwrap_or(Err(ServeError::ShuttingDown)),
            HandleInner::Remote { reply, enqueued } => {
                settle_remote(&self.metrics, self.shard, reply.try_wait()?, *enqueued)
            }
        })
    }
}

/// Client-side view of one remote shard's connection at shutdown.
#[derive(Debug, Clone)]
pub struct RemoteShardReport {
    /// Shard slot the worker serves.
    pub shard: usize,
    /// Decisions this client observed served by the worker.
    pub served: u64,
    /// Frames sent to the worker.
    pub requests: u64,
    /// Reconnects after the worker dropped the connection.
    pub reconnects: u64,
    /// Transport-level errors (including timeouts).
    pub errors: u64,
    /// Mean request round-trip time in microseconds.
    pub rtt_mean_micros: f64,
    /// Frame version the connection negotiated (2: binary decision
    /// payloads; 1: JSON, with a worker that predates version 2).
    pub wire_version: u8,
}

/// The final accounting returned by [`DecisionService::shutdown`], read
/// from each topology epoch's final [`MetricsSnapshot`]. It covers the
/// service's whole lifetime: additive counters are summed over the
/// topology epochs, while ε and the shard and remote breakdowns are the
/// final epoch's, because the ε ledger is carried through every reshard.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Decisions served across all shards.
    pub decisions_served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests refused because their tenant was over quota.
    pub throttled: u64,
    /// Caller-side timeouts observed.
    pub timed_out: u64,
    /// Hard rejections issued by the degrade policy.
    pub rejected: u64,
    /// Decisions flagged for audit.
    pub flagged: u64,
    /// Alerts forwarded to the global channel.
    pub alerts_raised: u64,
    /// ε spent: the final epoch's shard ledgers summed, restored history
    /// included; bit-equal to the final snapshot's `epsilon_spent`.
    pub epsilon_spent: f64,
    /// Audit entries durably written (and fsynced) by the sink this run,
    /// including the sink's own lifecycle markers. Zero when no sink is
    /// configured.
    pub audited: u64,
    /// Entries a previous run's crash provably cost, as found by the
    /// sink's startup recovery pass (persisted chain head vs recovered
    /// log, plus any missing-middle segments quantified from neighboring
    /// handoff claims). Zero when no sink is configured.
    pub lost_on_recovery: u64,
    /// Audit-log segments present at shutdown (the sink rolls to a new
    /// segment when the active one exceeds the configured size). Zero when
    /// no sink is configured.
    pub audit_segments: u64,
    /// Feature-cache counters at shutdown (hits, misses, negative hits,
    /// evictions); all zero when no cache is configured.
    pub cache: CacheSnapshot,
    /// Admission-control counters at shutdown (ticks, capacity moves,
    /// per-tenant outcomes); all zero when admission control is off.
    pub admission: AdmissionSnapshot,
    /// Audit-archiver counters at shutdown (segments compacted, bytes
    /// before/after, verify failures); all zero when archiving is off.
    pub archive: crate::archive::ArchiveSnapshot,
    /// Guard checkpoints durably written across all local shards.
    pub checkpoints_written: u64,
    /// Every slot of the final epoch, indexed by slot. Remote slots carry
    /// the client-side counts (served, shed, throttled, timeouts); their
    /// guard counters live in the worker's own report.
    pub shards: Vec<ShardSnapshot>,
    /// Topology epochs the service ran: one at start plus one per
    /// [`reshard`](DecisionService::reshard) that drained the running
    /// topology, rolled-back ones included.
    pub epochs: u64,
    /// Client-side transport stats for each remote shard slot. Shutting
    /// down this service does *not* stop the remote workers — their
    /// lifecycle belongs to whoever spawned them.
    pub remotes: Vec<RemoteShardReport>,
}

impl ServiceReport {
    /// Fold per-epoch reports (oldest first, at least one) into one
    /// lifetime report.
    fn over_epochs(epochs: Vec<ServiceReport>) -> ServiceReport {
        let count = epochs.len() as u64;
        let mut older = epochs.into_iter().rev();
        let mut total = older.next().expect("a service runs at least one epoch");
        for e in older {
            total.decisions_served += e.decisions_served;
            total.shed += e.shed;
            total.throttled += e.throttled;
            total.timed_out += e.timed_out;
            total.rejected += e.rejected;
            total.flagged += e.flagged;
            total.alerts_raised += e.alerts_raised;
            total.checkpoints_written += e.checkpoints_written;
        }
        total.epochs = count;
        total
    }

    /// The report of one drained epoch: its final snapshot, summed.
    fn from_snapshot(snap: MetricsSnapshot, remotes: Vec<RemoteShardReport>) -> ServiceReport {
        let sum = |f: fn(&ShardSnapshot) -> u64| snap.shards.iter().map(f).sum::<u64>();
        ServiceReport {
            decisions_served: snap.served(),
            shed: snap.shed(),
            throttled: snap.throttled(),
            timed_out: sum(|s| s.timeouts),
            rejected: sum(|s| s.rejected),
            flagged: sum(|s| s.flagged),
            alerts_raised: snap.alerts,
            epsilon_spent: snap.epsilon_spent,
            audited: 0,
            lost_on_recovery: 0,
            audit_segments: 0,
            checkpoints_written: sum(|s| s.checkpoints),
            epochs: 1,
            shards: snap.shards,
            cache: snap.cache,
            admission: snap.admission,
            archive: snap.archive,
            remotes,
        }
    }

    /// Render as a plain-text block: one totals line, then the shard
    /// table and the cache, admission, tenant and archive lines that
    /// [`MetricsSnapshot::render_text`] prints through the same writers,
    /// then one line per remote slot.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "served={} shed={} throttled={} timed_out={} rejected={} flagged={} alerts={} \
             eps_spent={:.4} audited={} lost_on_recovery={} audit_segments={} checkpoints={} \
             epochs={}\n",
            self.decisions_served,
            self.shed,
            self.throttled,
            self.timed_out,
            self.rejected,
            self.flagged,
            self.alerts_raised,
            self.epsilon_spent,
            self.audited,
            self.lost_on_recovery,
            self.audit_segments,
            self.checkpoints_written,
            self.epochs,
        );
        write_shard_table(&mut out, &self.shards);
        write_layer_lines(&mut out, &self.cache, &self.admission, &self.archive);
        for r in &self.remotes {
            out.push_str(&format!(
                "remote shard {}: served={} requests={} reconnects={} errors={} \
                 rtt_mean={:.1}us wire_version={}\n",
                r.shard,
                r.served,
                r.requests,
                r.reconnects,
                r.errors,
                r.rtt_mean_micros,
                r.wire_version,
            ));
        }
        out
    }
}

/// One queued request inside a shard.
struct Job {
    features: Vec<f64>,
    group_b: bool,
    route_key: u64,
    enqueued: Instant,
    reply: oneshot::Sender<Result<Decision, ServeError>>,
}

/// One topology epoch: everything whose shape depends on the shard count.
/// A live [`reshard`](DecisionService::reshard) drains one epoch and
/// spawns the next; the rest of [`Inner`] lives as long as the service.
struct Epoch {
    /// One route per shard; the routing hash picks among them.
    routes: Vec<Route>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<MetricsRegistry>,
    /// The guard-state slots the local workers checkpoint into.
    guard_slots: Option<Arc<GuardSlots>>,
}

/// Where one shard's requests go.
enum Route {
    /// A local worker's bounded queue. Dropping it is what tells the
    /// worker to drain and exit.
    Local(SyncSender<Job>),
    /// The fact-net client of a remote worker.
    Remote(RemoteShard),
}

impl Epoch {
    /// Stop admitting into this epoch, let every shard serve what it
    /// already accepted and write its final checkpoint, and account for
    /// it from the registry's final snapshot. The audit fields stay zero:
    /// the sink outlives the epoch.
    fn drain(self) -> ServiceReport {
        // Dropping a local queue is what tells its worker to drain and
        // exit; the remote clients stay up until their stats are read.
        let remotes: Vec<(usize, Route)> = (self.routes.into_iter().enumerate())
            .filter(|(_, route)| matches!(route, Route::Remote(_)))
            .collect();
        for worker in self.workers {
            worker.join().expect("fact-serve worker panicked");
        }
        let snap = self.metrics.snapshot();
        let remotes = remote_reports(remotes.iter().map(|(shard, r)| (*shard, r)), &snap);
        ServiceReport::from_snapshot(snap, remotes)
    }
}

/// Client-side stats of each remote route, with served counts from `snap`.
fn remote_reports<'a>(
    routes: impl Iterator<Item = (usize, &'a Route)>,
    snap: &MetricsSnapshot,
) -> Vec<RemoteShardReport> {
    routes
        .filter_map(|(shard, route)| {
            let Route::Remote(remote) = route else {
                return None;
            };
            let s = remote.stats();
            Some(RemoteShardReport {
                shard,
                served: snap.shards[shard].served,
                requests: s.requests,
                reconnects: s.reconnects,
                errors: s.errors,
                rtt_mean_micros: s.rtt_mean_micros,
                wire_version: s.wire_version,
            })
        })
        .collect()
}

/// What `submit` finds behind the phase lock.
enum Phase {
    Serving(Epoch),
    /// A reshard is between drain and restart; submits park up to
    /// [`ServeConfig::reshard_hold`].
    Cutover,
    Stopped,
}

/// Slow-path state. Reshard and shutdown hold its lock for their whole
/// run, so they never interleave.
#[derive(Default)]
struct Lifecycle {
    /// Reports of the drained epochs, oldest first.
    drained: Vec<ServiceReport>,
    /// The final report, once shutdown has run.
    report: Option<ServiceReport>,
}

struct Inner {
    config: ServeConfig,
    model: Arc<dyn Classifier + Send + Sync>,
    /// The feature source, already cache-decorated when caching is on.
    source: Arc<dyn FeatureSource>,
    /// The cache decorating the feature source, retained so rollouts can
    /// invalidate it through the service; `None` when caching is off.
    cache: Option<Arc<CachedFeatureSource>>,
    /// Adaptive admission controller shared by every local shard's submit
    /// path; `None` keeps the static bound.
    admission: Option<Arc<AdmissionController>>,
    alert_tx: Sender<ServiceAlert>,
    alert_rx: Mutex<Receiver<ServiceAlert>>,
    /// The audit sink, finished (drained + stop marker + fsync) at
    /// shutdown, *after* the last epoch's workers have been joined. It
    /// stays open across cutovers, so the hash chain never restarts.
    sink: Mutex<Option<AuditSink>>,
    /// What the sink's startup recovery pass found, if a sink is on.
    audit_recovery: Option<RecoveryReport>,
    /// The newest epoch's registry: what [`DecisionService::metrics`]
    /// reads, and what the next epoch shares its cache, admission and
    /// archive counters with.
    metrics: Mutex<Arc<MetricsRegistry>>,
    phase: RwLock<Phase>,
    /// How many submits are parked on a cutover, waiting on `reopened`.
    /// Taken before the phase lock whenever both are held.
    gate: Mutex<u64>,
    reopened: Condvar,
    lifecycle: Mutex<Lifecycle>,
}

/// What one completed [`reshard`](DecisionService::reshard) did, with
/// enough numbers to *prove* nothing was lost in the transform.
#[derive(Debug, Clone)]
pub struct ReshardReport {
    /// Shard count before the cutover.
    pub from: usize,
    /// Shard count after the cutover.
    pub to: usize,
    /// What the checkpoint transform conserved, before and after.
    pub transform: TransformReport,
    /// Submits still parked when the new topology opened, all of them
    /// replayed into it (the tail past the hold window was refused and is
    /// not counted here).
    pub held: u64,
    /// How long the cutover lasted, from the drain to serving again.
    pub cutover: Duration,
    /// The drained epoch's own accounting. Its audit fields are zero:
    /// the audit sink outlives the epoch and reports at shutdown.
    pub epoch: ServiceReport,
}

/// A cheaply-cloneable handle to the serving fabric. All clones address the
/// same shards; the service keeps running until [`shutdown`] is called.
///
/// [`shutdown`]: DecisionService::shutdown
#[derive(Clone)]
pub struct DecisionService {
    inner: Arc<Inner>,
}

/// An epoch before launch: every shard's route, in shard order, each local
/// shard's queue end, guard set and restored decisions, and its slots.
#[derive(Default)]
struct Plan {
    routes: Vec<Route>,
    locals: Vec<(usize, Receiver<Job>, crate::checkpoint::ShardState)>,
    guard_slots: Option<Arc<GuardSlots>>,
}

/// Plan an epoch of one shard per slot: build every local shard's guard
/// state from its slot and dial every remote slot. It writes no file and
/// spawns no worker, so a refusal leaves the disk as it was (a dialed
/// remote closes on drop).
fn plan_epoch(
    config: &ServeConfig,
    slots: Vec<Option<GuardCheckpoint>>,
) -> Result<Plan, ServeError> {
    let shards = slots.len();
    let endpoint = |shard: usize| config.topology.as_ref()?[shard].endpoint();
    let local: Vec<usize> = (0..shards).filter(|&s| endpoint(s).is_none()).collect();
    let (built, guard_slots) = build_guard_state(config, slots, &local)?;
    let mut built = built.into_iter();
    let mut plan = Plan {
        guard_slots,
        ..Plan::default()
    };
    for shard in 0..shards {
        let Some(endpoint) = endpoint(shard) else {
            let (tx, rx) = sync_channel::<Job>(config.queue_cap);
            plan.routes.push(Route::Local(tx));
            plan.locals
                .push((shard, rx, built.next().expect("one state per local shard")));
            continue;
        };
        let remote = RemoteShard::connect_endpoint(endpoint.clone())
            .map_err(|e| ServeError::Remote(format!("shard {shard} at {endpoint}: {e}")))?;
        plan.routes.push(Route::Remote(remote));
    }
    Ok(plan)
}

fn shard_of(route_key: u64, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    route_key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

impl DecisionService {
    /// Start the worker shards around a trained model, with features taken
    /// inline from each request ([`InlineFeatures`]).
    pub fn start(
        model: Arc<dyn Classifier + Send + Sync>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        Self::start_with_source(model, config, Arc::new(InlineFeatures))
    }

    /// Start the worker shards around a trained model and an explicit
    /// [`FeatureSource`] that assembles each micro-batch's feature matrix
    /// (e.g. a simulated or real feature store) before the model scores it.
    pub fn start_with_source(
        model: Arc<dyn Classifier + Send + Sync>,
        config: ServeConfig,
        source: Arc<dyn FeatureSource>,
    ) -> Result<Self, ServeError> {
        Self::start_inner(model, config, source, None)
    }

    /// Start with an explicit [`AuditStorage`] backing the audit sink —
    /// the entry point for fault-injection tests and benchmarks. Sink
    /// tuning comes from `config.audit` (or its defaults when `None`);
    /// the configured path is ignored in favor of the given storage.
    pub fn start_with_audit_storage(
        model: Arc<dyn Classifier + Send + Sync>,
        config: ServeConfig,
        source: Arc<dyn FeatureSource>,
        storage: Box<dyn AuditStorage>,
    ) -> Result<Self, ServeError> {
        Self::start_inner(model, config, source, Some(storage))
    }

    /// Check, plan, open the audit sink (over `storage`, else at the path
    /// `config.audit` names), launch: every refusal comes before the sink
    /// opens, so a refused start touches no file and leaves no thread.
    fn start_inner(
        model: Arc<dyn Classifier + Send + Sync>,
        config: ServeConfig,
        source: Arc<dyn FeatureSource>,
        storage: Option<Box<dyn AuditStorage>>,
    ) -> Result<Self, ServeError> {
        config.check()?;
        let plan = plan_epoch(&config, load_slots(&config)?)?;
        let opened = match (storage, &config.audit) {
            (Some(storage), audit) => {
                AuditSink::open_with_storage(&audit.clone().unwrap_or_default(), storage).map(Some)
            }
            (None, Some(audit)) => AuditSink::open(audit).map(Some),
            (None, None) => Ok(None),
        };
        let sink = opened.map_err(|e| ServeError::Internal(format!("audit sink: {e}")))?;
        // The archiver's counters are shared with the registry so metrics
        // snapshots see compaction progress while the service runs.
        let archive_stats = sink
            .as_ref()
            .map(AuditSink::archive_stats)
            .unwrap_or_default();
        let metrics = Arc::new(MetricsRegistry::with_archive_stats(
            config.shards,
            archive_stats,
        ));
        let admission: Option<Arc<AdmissionController>> = config.admission.as_ref().map(|adm| {
            Arc::new(AdmissionController::new(
                adm.clone(),
                config.queue_cap,
                Arc::new(SystemClock),
                Arc::clone(&metrics.admission),
            ))
        });
        // The cache decorates whatever source the caller supplied, sharing
        // its counters with the registry so snapshots and the final report
        // see hits/misses/negative hits/evictions.
        let cache: Option<Arc<CachedFeatureSource>> = config.cache.as_ref().map(|cache_cfg| {
            Arc::new(CachedFeatureSource::with_clock_and_stats(
                Arc::clone(&source),
                cache_cfg.clone(),
                Arc::new(SystemClock),
                Arc::clone(&metrics.cache),
            ))
        });
        let source: Arc<dyn FeatureSource> = match &cache {
            Some(c) => Arc::clone(c) as Arc<dyn FeatureSource>,
            None => source,
        };
        let (alert_tx, alert_rx) = channel();
        let service = DecisionService {
            inner: Arc::new(Inner {
                config,
                model,
                source,
                cache,
                admission,
                alert_tx,
                alert_rx: Mutex::new(alert_rx),
                audit_recovery: sink.as_ref().map(|s| s.recovery().clone()),
                sink: Mutex::new(sink),
                metrics: Mutex::new(Arc::clone(&metrics)),
                phase: RwLock::new(Phase::Stopped),
                gate: Mutex::new(0),
                reopened: Condvar::new(),
                lifecycle: Mutex::default(),
            }),
        };
        let epoch = service.launch(plan, metrics)?;
        service.set_phase(Phase::Serving(epoch));
        Ok(service)
    }

    /// Spawn a worker per planned local shard, counting into `metrics`, the
    /// registry [`metrics`](Self::metrics) reads from then on. If a thread
    /// will not spawn, those already started are joined before the error.
    fn launch(&self, plan: Plan, metrics: Arc<MetricsRegistry>) -> Result<Epoch, ServeError> {
        let inner = &*self.inner;
        let config = &inner.config;
        let sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
        let mut epoch = Epoch {
            routes: plan.routes,
            workers: Vec::with_capacity(plan.locals.len()),
            metrics: Arc::clone(&metrics),
            guard_slots: plan.guard_slots,
        };
        for (shard, rx, (guards, resumed_at)) in plan.locals {
            // The shard's cells start from what it restored: the ε ledger
            // is history, not a per-epoch count.
            let m = metrics.shard(shard);
            m.resumed_at.store(resumed_at, Ordering::Relaxed);
            if let Some(g) = &guards {
                m.set_epsilon_spent(g.accountant.spent_epsilon());
            }
            let hub = AlertHub::new(
                shard,
                inner.alert_tx.clone(),
                Arc::clone(&metrics),
                config.alert_debounce,
            );
            let worker = ShardWorker {
                shard,
                rx,
                model: Arc::clone(&inner.model),
                source: Arc::clone(&inner.source),
                metrics: Arc::clone(&metrics),
                guards,
                hub,
                threshold: config.threshold,
                batch_max: config.batch_max,
                batch_linger: config.batch_linger,
                policy: config.policy,
                trip_cooldown: config.trip_cooldown,
                audit: sink.as_ref().map(AuditSink::handle),
                checkpoint: epoch.guard_slots.clone(),
                admission: inner.admission.clone(),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("fact-serve-{shard}"))
                .spawn(move || worker.run());
            match spawned {
                Ok(handle) => epoch.workers.push(handle),
                Err(e) => {
                    epoch.drain();
                    return Err(ServeError::Internal(format!("spawning shard {shard}: {e}")));
                }
            }
        }
        *inner.metrics.lock().unwrap_or_else(|e| e.into_inner()) = metrics;
        Ok(epoch)
    }

    /// Enqueue a request without waiting for the decision.
    ///
    /// Fails fast with [`ServeError::Busy`] when the shard's queue is full
    /// (load shedding) and [`ServeError::ShuttingDown`] after shutdown has
    /// begun. During a [`reshard`](Self::reshard) cutover the call parks
    /// up to [`ServeConfig::reshard_hold`], then enqueues into the new
    /// topology or returns [`ServeError::Resharding`].
    pub fn submit(&self, request: DecisionRequest) -> Result<DecisionHandle, ServeError> {
        if request.features.len() != self.inner.config.n_features {
            return Err(ServeError::BadRequest(format!(
                "expected {} features, got {}",
                self.inner.config.n_features,
                request.features.len()
            )));
        }
        let mut deadline = None;
        loop {
            match &*self.inner.phase.read().unwrap_or_else(|e| e.into_inner()) {
                Phase::Serving(epoch) => return self.enqueue(epoch, request),
                Phase::Stopped => return Err(ServeError::ShuttingDown),
                Phase::Cutover => {}
            }
            let deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.inner.config.reshard_hold);
            self.park(deadline)?;
        }
    }

    /// Wait until the phase leaves `Cutover`, or refuse with
    /// [`ServeError::Resharding`] once `deadline` passes.
    fn park(&self, deadline: Instant) -> Result<(), ServeError> {
        let mut parked = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let phase = self.inner.phase.read().unwrap_or_else(|e| e.into_inner());
            if !matches!(*phase, Phase::Cutover) {
                return Ok(());
            }
            drop(phase);
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Resharding);
            }
            *parked += 1;
            parked = self
                .inner
                .reopened
                .wait_timeout(parked, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            *parked -= 1;
        }
    }

    /// Swap the phase and wake every parked submit so it re-reads it.
    /// Returns the phase it replaced and how many submits were parked.
    fn set_phase(&self, next: Phase) -> (Phase, u64) {
        let parked = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::mem::replace(
            &mut *self.inner.phase.write().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        self.inner.reopened.notify_all();
        (prev, *parked)
    }

    /// Enqueue into `epoch`; the caller holds the phase read lock, so the
    /// epoch cannot be drained underneath.
    fn enqueue(
        &self,
        epoch: &Epoch,
        request: DecisionRequest,
    ) -> Result<DecisionHandle, ServeError> {
        let shard = shard_of(request.route_key, epoch.routes.len());
        let queue = match &epoch.routes[shard] {
            Route::Local(queue) => queue,
            // remote slots enforce their own admission policy worker-side,
            // where the depth gauge and latency window actually live
            Route::Remote(remote) => return submit_remote(epoch, remote, shard, request),
        };
        let m = epoch.metrics.shard(shard);
        if let Some(adm) = &self.inner.admission {
            match adm.admit(request.tenant, m.depth.load(Ordering::Relaxed)) {
                AdmissionDecision::Admit => {}
                AdmissionDecision::Shed => {
                    m.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Busy { shard });
                }
                AdmissionDecision::Throttle => {
                    m.throttled.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Throttled {
                        tenant: request.tenant,
                    });
                }
            }
        }
        let (reply_tx, reply_rx) = oneshot::channel();
        let job = Job {
            features: request.features,
            group_b: request.group_b,
            route_key: request.route_key,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        // The gauge goes up *before* the send: the worker may dequeue (and
        // decrement) the instant try_send returns, so incrementing after
        // would transiently wrap the gauge below zero.
        m.depth_inc();
        match queue.try_send(job) {
            Ok(()) => {
                m.enqueued.fetch_add(1, Ordering::Relaxed);
                Ok(DecisionHandle {
                    inner: HandleInner::Local(reply_rx),
                    shard,
                    metrics: Arc::clone(&epoch.metrics),
                })
            }
            Err(TrySendError::Full(_)) => {
                m.depth_dec();
                m.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Busy { shard })
            }
            Err(TrySendError::Disconnected(_)) => {
                m.depth_dec();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submit and wait for the decision under the configured default
    /// timeout.
    pub fn decide(&self, request: DecisionRequest) -> Result<Decision, ServeError> {
        let timeout = self.inner.config.default_timeout;
        self.submit(request)?.wait(timeout)
    }

    /// Change the shard count from the current `N` to `to` while serving,
    /// without dropping a request or forgetting guard state.
    ///
    /// Everything shaped by the shard count (queues, workers, remote
    /// slots, per-shard metrics, checkpoint generation) is one *topology
    /// epoch* behind the lock every submit takes for reading. A reshard
    /// replaces it:
    ///
    /// 1. **Drain** — the phase swaps to *cutover* under the write lock, so
    ///    a submit either enqueued into the old epoch or parks. The old
    ///    epoch answers every accepted request and each shard captures
    ///    its final [`GuardCheckpoint`] into the epoch's slot table, which
    ///    keeps it whether or not its write reaches the disk.
    /// 2. **Transform** — the drained slot table, not the document (an
    ///    older one if a final write failed), becomes M shards' state,
    ///    written in one atomic replacement: the fairness windows merged
    ///    and dealt, the ε ledger dealt round-robin, as
    ///    [`transform_checkpoints`](crate::transform_checkpoints) does.
    /// 3. **Restart** — an epoch of M shards restores from that state.
    ///    The model, feature source and cache, admission
    ///    controller, alert channel and audit sink belong to the service,
    ///    not the epoch, so the audit hash chain runs on unbroken.
    /// 4. **Replay** — the parked submits wake and enqueue into the new
    ///    topology (`key % M`; no routing table crosses the wire). Only
    ///    those parked past [`ServeConfig::reshard_hold`] see the retryable
    ///    [`ServeError::Resharding`], never a silent drop.
    ///
    /// The returned [`ReshardReport`] proves **conservation**: the summed
    /// window counts are equal cell for cell before and after, every
    /// ledger entry lands in exactly one successor, and lifetime decisions
    /// sum-then-split exactly.
    ///
    /// Requires `guards`, `checkpoint` and an all-local topology — the
    /// document *is* the portable form of the guard state; without it,
    /// or with `to == 0`, it fails with [`ServeError::BadRequest`] before
    /// touching the running service. If the transform refuses — e.g. a
    /// successor would replay more ε than its budget allows (the ledger is
    /// conserved, never truncated) or its write fails — the service
    /// **rolls back**: the transform replaced nothing, and it restarts at
    /// the old shard count on the drained slot table, so no ε spent before
    /// the cutover is refunded, and returns the error. Only if that
    /// restart fails too does the service stop.
    pub fn reshard(&self, to: usize) -> Result<ReshardReport, ServeError> {
        let config = &self.inner.config;
        if to == 0 {
            return Err(ServeError::BadRequest("cannot reshard to 0 shards".into()));
        }
        let (Some(guards), Some(checkpoint)) = (&config.guards, &config.checkpoint) else {
            return Err(ServeError::BadRequest(
                "resharding requires guards and checkpoint in the config \
                 (the checkpoint carries the guard state across the cutover)"
                    .into(),
            ));
        };
        if config.topology.is_some() {
            return Err(ServeError::BadRequest(
                "resharding a mixed local/remote topology is not supported; \
                 reshard each worker process and re-dial the topology instead"
                    .into(),
            ));
        }
        let mut life = self
            .inner
            .lifecycle
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Under the lifecycle lock the phase is Serving or Stopped.
        let (Phase::Serving(old), _) = self.set_phase(Phase::Cutover) else {
            self.set_phase(Phase::Stopped);
            return Err(ServeError::ShuttingDown);
        };
        let started = Instant::now();
        let from = old.routes.len();
        let table = (old.guard_slots.clone()).expect("guards and checkpoint give an epoch slots");
        // Drain: every request accepted before the swap is answered and
        // every shard captures its final checkpoint into the table.
        let epoch = old.drain();
        life.drained.push(epoch.clone());
        let drained = table.slots();
        let (slots, transform) =
            match commit_transform(&drained, &checkpoint.dir, to, guards.epsilon_budget) {
                Ok((successors, report)) => (successors, Ok(report)),
                Err(e) => (drained, Err(e)),
            };
        let restarted = self.restart(slots);
        let transform = transform?;
        let held = restarted?;
        Ok(ReshardReport {
            from,
            to,
            transform,
            held,
            cutover: started.elapsed(),
            epoch,
        })
    }

    /// Leave a cutover: plan an epoch of one shard per slot, launch it and
    /// serve it, or stop (loud, typed) if either fails rather than serve
    /// with unknown guard state. Returns how many parked submits the new
    /// epoch released.
    fn restart(&self, slots: Vec<Option<GuardCheckpoint>>) -> Result<u64, ServeError> {
        let metrics = Arc::new(self.latest_metrics().next_epoch(slots.len()));
        let epoch = plan_epoch(&self.inner.config, slots).and_then(|p| self.launch(p, metrics));
        match epoch {
            Ok(epoch) => Ok(self.set_phase(Phase::Serving(epoch)).1),
            Err(e) => {
                self.set_phase(Phase::Stopped);
                Err(e)
            }
        }
    }

    /// Ask every local worker to write a guard checkpoint at its next
    /// batch boundary (a worker idle on an empty queue flushes when its
    /// next batch completes). No-op when checkpointing is off.
    pub fn request_checkpoint(&self) {
        if let Phase::Serving(epoch) = &*self.inner.phase.read().unwrap_or_else(|e| e.into_inner())
        {
            if let Some(slots) = &epoch.guard_slots {
                slots.requested.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Client-side transport stats for each remote shard slot (empty when
    /// the whole topology is local, and once the service has stopped —
    /// the final [`ServiceReport`] carries them then).
    pub fn remote_stats(&self) -> Vec<RemoteShardReport> {
        match &*self.inner.phase.read().unwrap_or_else(|e| e.into_inner()) {
            Phase::Serving(epoch) => {
                remote_reports(epoch.routes.iter().enumerate(), &epoch.metrics.snapshot())
            }
            _ => Vec::new(),
        }
    }

    fn latest_metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// An instantaneous metrics snapshot of the current topology epoch.
    /// ε is each shard's ledger total, so it carries everything already
    /// spent through a checkpoint restore and a [`reshard`](Self::reshard);
    /// the per-shard counters (served, alerts, checkpoints, …) and the
    /// latency restart at each reshard; the cache, admission and archive
    /// counters span the service's lifetime.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.latest_metrics().snapshot()
    }

    /// Drain all alerts currently buffered on the global channel. It is
    /// unbounded, so a long-running owner that does not read the alerts
    /// must still drain and discard them; that loses nothing, as each one
    /// is counted in the registry and written to the audit sink, if any.
    pub fn drain_alerts(&self) -> Vec<ServiceAlert> {
        let rx = self
            .inner
            .alert_rx
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        while let Ok(a) = rx.try_recv() {
            out.push(a);
        }
        out
    }

    /// The current topology's shard count (the old count while a cutover
    /// is in progress).
    pub fn shards(&self) -> usize {
        self.latest_metrics().n_shards()
    }

    /// What the audit sink's startup recovery pass found, when a sink is
    /// configured: intact entries, truncated tail, and provable loss.
    pub fn audit_recovery(&self) -> Option<&RecoveryReport> {
        self.inner.audit_recovery.as_ref()
    }

    /// Invalidate every cached feature row — the hook a model or schema
    /// rollout calls so decisions stop being served from pre-rollout
    /// features. Bumps the cache's generation counter; stale entries are
    /// dropped lazily on their next lookup (no stop-the-world sweep) and
    /// counted in [`CacheStats`](crate::metrics::CacheStats) `invalidated`.
    /// Returns `false` when no cache is configured (nothing to
    /// invalidate).
    pub fn invalidate_features(&self) -> bool {
        match &self.inner.cache {
            Some(cache) => {
                cache.invalidate();
                true
            }
            None => false,
        }
    }

    /// Stop admitting requests, let every shard drain its queue, and join
    /// the workers. Every request accepted before shutdown is answered.
    /// Waits for an in-progress reshard first. Idempotent: later calls
    /// (from this or any clone) return the same report, which covers the
    /// service's whole lifetime (see [`ServiceReport`]).
    pub fn shutdown(&self) -> ServiceReport {
        let mut life = self
            .inner
            .lifecycle
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(report) = &life.report {
            return report.clone();
        }
        if let (Phase::Serving(epoch), _) = self.set_phase(Phase::Stopped) {
            life.drained.push(epoch.drain());
        }
        // The workers (and their sink handles) are gone: finishing the sink
        // now drains whatever they enqueued, stamps the stop marker, and
        // fsyncs the final batch.
        let sink_report = {
            let mut sink = self.inner.sink.lock().unwrap_or_else(|e| e.into_inner());
            sink.take().map(AuditSink::finish)
        };
        let mut report = ServiceReport::over_epochs(std::mem::take(&mut life.drained));
        if let Some(sink) = sink_report {
            report.audited = sink.audited;
            report.lost_on_recovery = sink.recovery.lost;
            report.audit_segments = sink.segments;
            report.archive = sink.archive;
        }
        life.report = Some(report.clone());
        report
    }
}

/// Ship a request to a remote worker over fact-net.
fn submit_remote(
    epoch: &Epoch,
    remote: &RemoteShard,
    shard: usize,
    request: DecisionRequest,
) -> Result<DecisionHandle, ServeError> {
    let wire = RequestWire {
        features: request.features,
        group_b: request.group_b,
        route_key: request.route_key,
        tenant: Some(request.tenant),
    };
    let enqueued = Instant::now();
    let reply = remote
        .request(&wire)
        .map_err(|e| ServeError::Remote(e.to_string()))?;
    epoch
        .metrics
        .shard(shard)
        .enqueued
        .fetch_add(1, Ordering::Relaxed);
    Ok(DecisionHandle {
        inner: HandleInner::Remote { reply, enqueued },
        shard,
        metrics: Arc::clone(&epoch.metrics),
    })
}

/// The per-shard worker loop.
struct ShardWorker {
    shard: usize,
    rx: Receiver<Job>,
    model: Arc<dyn Classifier + Send + Sync>,
    source: Arc<dyn FeatureSource>,
    metrics: Arc<MetricsRegistry>,
    guards: Option<Guards>,
    hub: AlertHub,
    threshold: f64,
    batch_max: usize,
    batch_linger: Duration,
    policy: DegradePolicy,
    trip_cooldown: u64,
    /// Sender into the durable audit sink; `None` when auditing is off.
    audit: Option<AuditSinkHandle>,
    /// The epoch's guard-state slots, checkpoint cadence and flush
    /// requests; `None` when guards or checkpointing are off.
    checkpoint: Option<Arc<GuardSlots>>,
    /// Feeds served latencies into the admission controller's rolling
    /// window; `None` when admission control is off.
    admission: Option<Arc<AdmissionController>>,
}

impl ShardWorker {
    /// Write a guard checkpoint if guards and checkpointing are both on,
    /// and count it as written or failed. Returns whether it was durably
    /// written; a failure does not stop serving (serving outranks
    /// checkpoint freshness — the previous document is still intact).
    fn write_guard_checkpoint(&self, decisions: u64) -> bool {
        let (Some(slots), Some(guards)) = (&self.checkpoint, &self.guards) else {
            return false;
        };
        let written = slots.checkpoint(guards, self.shard, decisions);
        let m = self.metrics.shard(self.shard);
        let counter = if written {
            &m.checkpoints
        } else {
            &m.checkpoint_failures
        };
        counter.fetch_add(1, Ordering::Relaxed);
        written
    }

    /// Serve until the queue disconnects. Every fact it serves is counted
    /// in its shard's registry cells; `served` is only the decision clock
    /// that drives the debounce, the cooldown and the checkpoint cadence.
    fn run(mut self) {
        let mut served: u64 = 0;
        // Lifetime decisions restored at startup: the shard keeps counting
        // from here, so its decision count survives restarts.
        let base_decisions = self
            .metrics
            .shard(self.shard)
            .resumed_at
            .load(Ordering::Relaxed);
        let mut last_checkpoint_at: u64 = base_decisions;
        // The epoch's generation starts at 0, so a flush requested before
        // this thread first ran is still honoured.
        let mut seen_gen = 0;
        // decision count until which the degrade policy stays engaged
        let mut degraded_until: u64 = 0;
        let mut batch: Vec<Job> = Vec::with_capacity(self.batch_max);

        loop {
            // Block for the first job; a disconnect here means the queue is
            // fully drained and shutdown can complete.
            match self.rx.recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
            // Top off the batch: greedily take what is buffered, then wait
            // out the linger for stragglers.
            let deadline = Instant::now() + self.batch_linger;
            while batch.len() < self.batch_max {
                match self.rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match self.rx.recv_timeout(deadline - now) {
                            Ok(job) => batch.push(job),
                            Err(_) => break,
                        }
                    }
                }
            }

            let m = self.metrics.shard(self.shard);
            for _ in 0..batch.len() {
                m.depth_dec();
            }
            m.batches.fetch_add(1, Ordering::Relaxed);
            m.batch_items
                .fetch_add(batch.len() as u64, Ordering::Relaxed);

            // One batched feature fetch per micro-batch, then one
            // matrix-level model call: both the round trip and the model
            // overhead are amortized across the whole batch.
            let keys: Vec<u64> = batch.iter().map(|j| j.route_key).collect();
            let rows: Vec<Vec<f64>> = batch.iter().map(|j| j.features.clone()).collect();
            let probs = self
                .source
                .fetch_batch(&keys, &rows)
                .and_then(|x| self.model.predict_proba(&x));
            let probs = match probs {
                Ok(p) => p,
                Err(e) => {
                    let msg = e.to_string();
                    for job in batch.drain(..) {
                        job.reply.send(Err(ServeError::Internal(msg.clone())));
                    }
                    continue;
                }
            };

            for (job, p) in batch.drain(..).zip(probs) {
                let favorable = p >= self.threshold;
                served += 1;
                if let Some(g) = &mut self.guards {
                    let v = g.observe(job.group_b, favorable, p);
                    let trip = v.fairness.then(|| g.fairness.alert());
                    let raised = [trip, v.dp, v.drift.map(Alert::Drift)];
                    for alert in raised.into_iter().flatten() {
                        if let Alert::DpRelease { .. } = &alert {
                            // every release spends ε, and the hub
                            // forwards every release
                            m.set_epsilon_spent(g.accountant.spent_epsilon());
                        } else {
                            // DP releases are routine; every other alert
                            // engages the degrade policy
                            degraded_until = served + self.trip_cooldown;
                        }
                        let summary = self.audit.as_ref().map(|_| format!("{alert:?}"));
                        if self.hub.raise(served, alert) {
                            if let (Some(sink), Some(summary)) = (&self.audit, summary) {
                                sink.record(AuditEvent::Alert {
                                    shard: self.shard,
                                    at_decision: served,
                                    summary,
                                });
                            }
                        }
                    }
                }
                let degraded = self.policy != DegradePolicy::Off && served <= degraded_until;
                let result = if degraded && self.policy == DegradePolicy::HardReject {
                    m.rejected.fetch_add(1, Ordering::Relaxed);
                    if let Some(sink) = &self.audit {
                        sink.record(AuditEvent::Rejected {
                            shard: self.shard,
                            route_key: job.route_key,
                        });
                    }
                    Err(ServeError::Rejected {
                        reason: "guard tripped; hard-reject policy active".into(),
                    })
                } else {
                    let flag = degraded && self.policy == DegradePolicy::AuditAndFlag;
                    if flag {
                        m.flagged.fetch_add(1, Ordering::Relaxed);
                        if let Some(sink) = &self.audit {
                            sink.record(AuditEvent::Flagged {
                                shard: self.shard,
                                route_key: job.route_key,
                                probability: p,
                                favorable,
                                group_b: job.group_b,
                            });
                        }
                    }
                    Ok(Decision {
                        probability: p,
                        favorable,
                        flagged: flag,
                        shard: self.shard,
                    })
                };
                m.served.fetch_add(1, Ordering::Relaxed);
                let latency = job.enqueued.elapsed();
                self.metrics.latency.record(latency);
                if let Some(adm) = &self.admission {
                    // also drives the control tick, so a draining queue
                    // keeps adapting even when arrivals pause
                    adm.record_latency(latency);
                }
                // The caller may have timed out and dropped the receiver;
                // an accepted request is still counted as served.
                job.reply.send(result);
            }

            // Periodic guard checkpoint at the batch boundary: on the
            // cadence, or when a flush was requested via the service.
            if let Some(slots) = &self.checkpoint {
                let decisions = base_decisions + served;
                let gen = slots.requested.load(Ordering::Acquire);
                if decisions.saturating_sub(last_checkpoint_at) >= slots.config.every
                    || gen != seen_gen
                {
                    if self.write_guard_checkpoint(decisions) {
                        last_checkpoint_at = decisions;
                    }
                    seen_gen = gen;
                }
            }
        }

        // Final checkpoint on clean drain, so a graceful shutdown loses
        // nothing at all.
        self.write_guard_checkpoint(base_decisions + served);
    }
}

/// The worker-side glue between a fact-net [`Server`](fact_net::Server)
/// and a local [`DecisionService`]: decodes request frames (binary or JSON,
/// per the frame's version; the server negotiates which), submits them
/// into the service on the connection's reader thread (fast — bounded
/// `try_send`), and hands the connection's writer thread a pending reply
/// that polls the decision with [`DecisionHandle::try_wait`] and waits for
/// it only once every finished reply ahead of it is sent. This is what
/// `fact-shardd` plugs into its server.
///
/// Control commands: `"ping"` acks; `"checkpoint"` requests a guard
/// checkpoint flush; `"shutdown"` sets the shutdown flag and acks —
/// actually stopping the service and exiting is the hosting process's
/// job, *after* it sees the flag, so the ack still reaches the client;
/// `"reshard <M>"` runs [`DecisionService::reshard`] on the connection's
/// writer thread and acks with the conservation numbers, or refuses with
/// the typed reason when the service's configuration cannot reshard
/// (`PROTOCOL.md §6 — Control commands`).
pub struct NetShardHandler {
    service: DecisionService,
    /// Worker-side ceiling on how long a reply waits for a decision.
    timeout: Duration,
    /// Set to true when a `"shutdown"` control command arrives.
    shutdown_requested: Arc<AtomicBool>,
}

impl NetShardHandler {
    /// Wrap `service` for serving over fact-net.
    pub fn new(service: DecisionService, timeout: Duration) -> Self {
        NetShardHandler {
            service,
            timeout,
            shutdown_requested: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The flag a `"shutdown"` control command raises; the hosting process
    /// polls it and performs the actual shutdown.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown_requested)
    }
}

impl fact_net::ShardHandler for NetShardHandler {
    fn wire_version(&self) -> u8 {
        fact_net::frame::VERSION
    }

    fn submit(&self, frame: Frame) -> Reply {
        fn emit<T: serde::Serialize>(value: &T) -> Vec<u8> {
            net_encode(value).unwrap_or_else(|_| b"{}".to_vec())
        }
        let version = frame.version;
        let payload = frame.payload;
        match frame.kind {
            FrameKind::Request => {
                // Decode + submit here (reader thread): admission control
                // stays immediate, so a full queue answers Busy without
                // waiting behind earlier replies.
                let submitted = decode_request(version, &payload)
                    .map_err(|e| ServeError::Remote(e.to_string()))
                    .and_then(|req| {
                        self.service.submit(DecisionRequest {
                            features: req.features,
                            group_b: req.group_b,
                            route_key: req.route_key,
                            // pre-tenant clients fold into tenant 0
                            tenant: req.tenant.unwrap_or(0),
                        })
                    });
                match submitted {
                    Ok(handle) => Reply::Pending(Box::new(PendingDecision {
                        handle,
                        version,
                        timeout: self.timeout,
                    })),
                    Err(e) => Reply::Ready(decision_payload(version, Err(e))),
                }
            }
            FrameKind::Checkpoint => {
                self.service.request_checkpoint();
                // lifetime decisions: restored plus served since
                let snap = self.service.metrics();
                Reply::Ready(emit(&CheckpointAckWire {
                    shards: snap.shards.len(),
                    decisions: snap.shards.iter().map(|s| s.resumed_at + s.served).sum(),
                }))
            }
            FrameKind::Control => {
                let command = net_decode::<ControlWire>(&payload)
                    .map(|c| c.command)
                    .unwrap_or_default();
                // "reshard <M>" blocks for the whole cutover, so it runs on
                // the writer thread: the reader thread stays free and the
                // ack carries the cutover's conservation numbers.
                if let Some(target) = command.strip_prefix("reshard ") {
                    let target: Result<usize, _> = target.trim().parse();
                    let service = self.service.clone();
                    return Reply::blocking(move || {
                        let (ok, info) = match target {
                            Err(_) => (false, "reshard needs a shard count".to_string()),
                            Ok(m) => match service.reshard(m) {
                                Ok(r) => (
                                    true,
                                    format!(
                                        "resharded {} -> {}: {} decisions drained, \
                                         {} ledger entries redistributed, {} held submits replayed",
                                        r.from,
                                        r.to,
                                        r.epoch.decisions_served,
                                        r.transform.ledger_entries,
                                        r.held
                                    ),
                                ),
                                Err(e) => (false, format!("reshard failed: {e}")),
                            },
                        };
                        emit(&ControlAckWire { ok, info })
                    });
                }
                let (ok, info) = match command.as_str() {
                    "ping" => (true, "pong".to_string()),
                    "checkpoint" => {
                        self.service.request_checkpoint();
                        (true, "checkpoint requested".to_string())
                    }
                    "shutdown" => {
                        self.shutdown_requested.store(true, Ordering::Release);
                        (true, "shutting down".to_string())
                    }
                    other => (false, format!("unknown command {other:?}")),
                };
                Reply::Ready(emit(&ControlAckWire { ok, info }))
            }
            // a response frame arriving at a server is a protocol error
            FrameKind::Response => Reply::Ready(respond(
                version,
                &ResponseWire::failure("unexpected response frame"),
            )),
        }
    }
}

/// A decision the worker's service accepted and has not answered yet.
struct PendingDecision {
    handle: DecisionHandle,
    version: u8,
    /// Worker-side ceiling on the blocking wait.
    timeout: Duration,
}

impl PendingPayload for PendingDecision {
    fn try_take(&mut self) -> Option<Vec<u8>> {
        let result = self.handle.try_wait()?;
        Some(decision_payload(self.version, result))
    }

    fn take(self: Box<Self>) -> Vec<u8> {
        decision_payload(self.version, self.handle.wait(self.timeout))
    }
}

/// The response payload for one decision outcome, in the request's frame
/// version.
fn decision_payload(version: u8, outcome: Result<Decision, ServeError>) -> Vec<u8> {
    let resp = match outcome {
        Ok(d) => ResponseWire::success(DecisionWire {
            probability: d.probability,
            favorable: d.favorable,
            flagged: d.flagged,
            shard: d.shard,
        }),
        Err(e) => match e.wire_code() {
            // typed admission refusals cross the wire as coded failures so
            // the client can rebuild them
            Some(code) => {
                let tenant = match &e {
                    ServeError::Throttled { tenant } => Some(*tenant),
                    _ => None,
                };
                ResponseWire::failure_coded(e.to_string(), code, tenant)
            }
            None => ResponseWire::failure(e.to_string()),
        },
    };
    respond(version, &resp)
}

/// A response payload in the request's frame version; one that will not
/// encode goes back as the encoding error instead.
fn respond(version: u8, resp: &ResponseWire) -> Vec<u8> {
    encode_response(version, resp).unwrap_or_else(|e| {
        encode_response(version, &ResponseWire::failure(e.to_string()))
            .expect("the server admits only versions with a payload encoding")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveConfig;

    /// A zero sink or archiver knob is a bad request, refused before
    /// recovery creates anything on disk or any thread spawns.
    #[test]
    fn zero_sink_and_archive_knobs_are_bad_requests_before_any_file_exists() {
        struct Half;
        impl Classifier for Half {
            fn predict_proba(&self, x: &fact_data::Matrix) -> fact_data::Result<Vec<f64>> {
                Ok(vec![0.5; x.rows()])
            }
        }
        let dir = std::env::temp_dir().join(format!("fact-serve-knobs-{}", std::process::id()));
        let sink = AuditSinkConfig {
            path: dir.join("audit.jsonl"),
            ..AuditSinkConfig::default()
        };
        let with = |knob: fn(&mut AuditSinkConfig)| {
            let mut audit = sink.clone();
            knob(&mut audit);
            audit
        };
        for (knob, audit) in [
            ("batch_max", with(|c| c.batch_max = 0)),
            ("queue_cap", with(|c| c.queue_cap = 0)),
            ("max_segment_bytes", with(|c| c.max_segment_bytes = 0)),
            (
                "archive tick",
                with(|c| {
                    c.archive = Some(ArchiveConfig {
                        retain_segments: 1,
                        tick: Duration::ZERO,
                    })
                }),
            ),
        ] {
            let config = ServeConfig {
                n_features: 1,
                audit: Some(audit),
                ..ServeConfig::default()
            };
            let err = DecisionService::start(Arc::new(Half), config)
                .err()
                .expect(knob);
            assert!(
                matches!(&err, ServeError::BadRequest(m) if m.contains(knob)),
                "{knob}: {err}"
            );
            assert!(!dir.exists(), "{knob}: nothing may be created");
        }
    }

    #[test]
    fn the_config_check_refuses_bad_admission_knobs() {
        let check = |knob: fn(&mut AdmissionConfig)| {
            let mut admission = AdmissionConfig::default();
            knob(&mut admission);
            let config = ServeConfig {
                admission: Some(admission),
                ..ServeConfig::default()
            };
            config.check()
        };
        assert!(check(|_| {}).is_ok());
        let bad: [fn(&mut AdmissionConfig); 10] = [
            |a| a.target_p99 = Duration::ZERO,
            |a| a.tick = Duration::ZERO,
            |a| a.increase = 0,
            |a| a.decrease = 0.0,
            |a| a.decrease = 1.0,
            |a| a.decrease = 1.5,
            |a| a.decrease = -0.5,
            |a| a.decrease = f64::NAN,
            |a| a.tenant_rate = f64::INFINITY,
            |a| {
                a.tenant_rate = 5.0;
                a.tenant_burst = 0.5;
            },
        ];
        for (i, knob) in bad.into_iter().enumerate() {
            let err = check(knob).expect_err("a bad knob passed");
            assert!(
                matches!(&err, ServeError::BadRequest(m) if m.starts_with("admission.")),
                "knob {i}: {err}"
            );
        }
    }

    #[test]
    fn a_local_handle_is_one_shot_for_polls_and_wait() {
        let (tx, rx) = oneshot::channel();
        let metrics = Arc::new(MetricsRegistry::new(1));
        let handle = DecisionHandle {
            inner: HandleInner::Local(rx),
            shard: 0,
            metrics: Arc::clone(&metrics),
        };
        assert!(handle.try_wait().is_none());
        tx.send(Ok(Decision {
            probability: 0.9,
            favorable: true,
            flagged: false,
            shard: 0,
        }));
        assert!(matches!(handle.try_wait(), Some(Ok(d)) if d.favorable));
        assert!(matches!(
            handle.try_wait(),
            Some(Err(ServeError::ShuttingDown))
        ));
        // the decision is gone, so waiting answers at once and is no timeout
        let started = Instant::now();
        assert!(matches!(
            handle.wait(Duration::from_secs(5)),
            Err(ServeError::ShuttingDown)
        ));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(metrics.snapshot().shards[0].timeouts, 0);
    }

    #[test]
    fn snapshot_and_report_render_the_same_registry_byte_for_byte() {
        let relaxed = Ordering::Relaxed;
        let m = MetricsRegistry::new(2);
        // slot 0: a local shard restored from a checkpoint
        let local = m.shard(0);
        for (cell, v) in [
            (&local.enqueued, 6),
            (&local.served, 5),
            (&local.rejected, 1),
            (&local.flagged, 2),
            (&local.batches, 2),
            (&local.batch_items, 5),
            (&local.alerts, 1),
            (&local.checkpoints, 3),
            (&local.checkpoint_failures, 1),
            (&local.resumed_at, 100),
        ] {
            cell.store(v, relaxed);
        }
        local.set_epsilon_spent(0.25);
        local.depth_inc();
        // slot 1: a remote shard, with client-side counts only
        let remote = m.shard(1);
        for (cell, v) in [
            (&remote.enqueued, 7),
            (&remote.served, 4),
            (&remote.shed, 1),
            (&remote.throttled, 1),
            (&remote.timeouts, 1),
        ] {
            cell.store(v, relaxed);
        }
        m.latency.record(Duration::from_nanos(1_000));
        m.cache.hits.store(3, relaxed);
        m.cache.misses.store(1, relaxed);
        m.cache.upstream_batches.store(1, relaxed);
        m.admission.effective_cap.store(8, relaxed);
        m.admission.ticks.store(3, relaxed);
        m.admission.grows.store(3, relaxed);
        m.admission.throttled.store(1, relaxed);
        m.admission.tenant_admitted(9);
        m.admission.tenant_throttled(9);
        m.archive.segments_archived.store(2, relaxed);
        m.archive.bytes_before.store(1_000, relaxed);
        m.archive.bytes_after.store(250, relaxed);
        m.archive.deletes_completed.store(2, relaxed);
        m.archive.ticks.store(4, relaxed);

        // the sections both renderings share, through one set of writers
        let table = concat!(
            "shard  served  shed  throttle  timeout  reject  flagged  depth  depth_max  mean_batch  batches  alerts  eps_spent  checkpoints  ckpt_failed  resumed_at\n",
            "    0       5     0         0        0       1        2      1          1        2.50        2       1     0.2500            3            1         100\n",
            "    1       4     1         1        1       0        0      0          0        0.00        0       0     0.0000            0            0           0\n",
        );
        let layers = concat!(
            "cache hits=3 misses=1 neg_hits=0 evictions=0 coalesced=0 upstream=1 invalidated=0 hit_rate=0.750\n",
            "admission cap=8 ticks=3 shrinks=0 grows=3 throttled=1 adm_shed=0 untracked=0\n",
            "tenant 9: admitted=1 shed=0 throttled=1\n",
            "archive segments=2 bytes_before=1000 bytes_after=250 ratio=0.250 verify_failures=0 io_errors=0 deletes=2 ticks=4\n",
        );
        let snap = m.snapshot();
        assert_eq!(
            snap.render_text(),
            format!(
                "{table}total served=9 shed=1 alerts=1 eps_spent=0.2500 \
                 p50=1.0us p95=1.0us p99=1.0us\n{layers}"
            )
        );
        let report = ServiceReport::from_snapshot(
            snap.clone(),
            vec![RemoteShardReport {
                shard: 1,
                served: 4,
                requests: 7,
                reconnects: 0,
                errors: 1,
                rtt_mean_micros: 42.5,
                wire_version: 2,
            }],
        );
        assert_eq!(
            report.render_text(),
            format!(
                "served=9 shed=1 throttled=1 timed_out=1 rejected=1 flagged=2 alerts=1 \
                 eps_spent=0.2500 audited=0 lost_on_recovery=0 audit_segments=0 \
                 checkpoints=3 epochs=1\n{table}{layers}remote shard 1: served=4 \
                 requests=7 reconnects=0 errors=1 rtt_mean=42.5us wire_version=2\n"
            )
        );
        // the report's totals are the snapshot's sums
        assert_eq!(report.decisions_served, snap.served());
        assert_eq!(report.epsilon_spent.to_bits(), snap.epsilon_spent.to_bits());
        assert_eq!(report.alerts_raised, snap.alerts);
        assert_eq!((report.shed, report.throttled, report.timed_out), (1, 1, 1));
        assert_eq!((report.rejected, report.flagged), (1, 2));
        assert_eq!(report.checkpoints_written, 3);
        assert_eq!(report.shards, snap.shards);
    }
}
