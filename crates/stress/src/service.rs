//! The graph-query service: a resident graph behind a bounded job queue
//! drained by a pool of OS-thread executors.
//!
//! The graph is loaded once and shared via [`Arc`]; callers submit
//! [`QueryRequest`]s and receive a [`Ticket`] whose [`Ticket::wait`]
//! blocks for the [`QueryResponse`]. The queue is bounded — what happens at
//! capacity is the [`QueueFullPolicy`]: [`QueueFullPolicy::Block`] applies
//! backpressure to submitters, [`QueueFullPolicy::Reject`] sheds the
//! request immediately with [`QueryError::Rejected`]. The queue itself is
//! the multi-tenant admission stage of [`crate::qos`] — per-tenant lanes
//! with token buckets, weighted-fair dequeue, a priority lane for point
//! lookups, and per-tenant full policies — which degenerates to a plain
//! FIFO under the default single-tenant [`ServiceConfig::qos`].
//!
//! The queue + executor machinery lives in the crate-internal [`Core`],
//! parameterized by an execution backend. [`GraphService`] is one core over
//! the full resident graph; the sharded service
//! ([`crate::shard::ShardedGraphService`]) runs `R ≥ 1` replica cores per
//! shard, each over the same vertex slice (see
//! [`ServiceConfig::replicas`]).
//!
//! Failure handling:
//! * attempts whose execution exceeds the request's per-attempt timeout are
//!   retried with exponential backoff plus deterministic jitter (seeded via
//!   the workspace `SplitMix64`), up to a configured attempt cap — the
//!   Pregel engine cannot be interrupted mid-superstep, so the timeout is
//!   enforced post-hoc;
//! * panics inside a workload are caught per request: the executor survives
//!   and the caller gets [`QueryError::Panicked`];
//! * requests whose absolute deadline has already passed when an executor
//!   dequeues them are answered [`QueryError::DeadlineExceeded`] without
//!   running the workload (an *early drop*, counted separately from
//!   timeouts);
//! * shutdown is graceful: [`GraphService::close`] stops admissions, then
//!   executors drain everything already accepted, so no accepted request
//!   loses its response.
//!
//! Result caching: each shard shares one [`ResultCache`] across its
//! replica cores (unless [`ServiceConfig::cache_capacity`] is zero).
//! [`Core::submit`] consults it *before* enqueueing — a hit is answered
//! immediately from the memoized `(workload, graph fingerprint, seed)`
//! entry without consuming a queue slot or an executor — and executors
//! insert every freshly computed workload answer on completion. Keys
//! carry no replica identity, so an answer computed on any replica serves
//! every replica of the shard.

use crate::cache::{CacheKey, CachedAnswer, ResultCache};
use crate::epoch::{
    spawn_writer, EpochManager, EpochRebuild, EpochSnapshot, MutationConfig, WriterReport,
    WriterStats,
};
use crate::interval::IntervalSeries;
use crate::qos::{Pop, QosConfig, TenantLaneStats, TenantQueue};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
use crate::router::RoutingPolicy;
use vcgp_testkit::LogHistogram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_core::fingerprint::graph_fingerprint;
use vcgp_graph::rng::mix3;
use vcgp_graph::{apply_batch, ApplyStats, Graph, Mutation, SplitMix64};
use vcgp_pregel::PregelConfig;

/// What [`Core::submit`] does when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueFullPolicy {
    /// Block the submitter until a slot frees up (backpressure).
    #[default]
    Block,
    /// Shed the request: the returned ticket resolves immediately to
    /// [`QueryError::Rejected`] and the reject is counted in
    /// [`ServiceStats::rejected`].
    Reject,
}

impl QueueFullPolicy {
    /// Parses a policy name (`block` / `reject`, case-insensitive).
    pub fn parse(s: &str) -> Result<QueueFullPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "block" => Ok(QueueFullPolicy::Block),
            "reject" => Ok(QueueFullPolicy::Reject),
            other => Err(format!("unknown queue policy {other:?} (expected block or reject)")),
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor threads draining the queue (per shard, when sharded).
    pub executors: usize,
    /// Queue capacity; at this many pending requests the
    /// [`QueueFullPolicy`] decides between backpressure and shedding.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub queue_policy: QueueFullPolicy,
    /// Maximum execution attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is
    /// `min(backoff_base · 2^(k-1), backoff_cap)`, halved and then extended
    /// by deterministic jitter up to the same amount.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff pause.
    pub backoff_cap: Duration,
    /// Seed of the retry-jitter stream (mixed with request id and attempt).
    pub seed: u64,
    /// Result-cache capacity in entries, per core (per shard when sharded).
    /// Zero disables caching entirely. Entries are scalar-sized, so the
    /// resident bound is a few hundred bytes per entry (see
    /// [`crate::cache::CacheStats::resident_bytes`]).
    pub cache_capacity: usize,
    /// Engine configuration for workload execution. Defaults to a single
    /// worker per executor — concurrency comes from running many requests
    /// at once, not from parallelizing each one. Its `partitioning` field
    /// doubles as the shard-placement strategy of the sharded service, so
    /// the `VCGP_PARTITIONING` override applies to both.
    pub engine: PregelConfig,
    /// Live-mutation settings. `None` (the default) keeps the service
    /// read-only: [`GraphService::submit_mutation`] fails with
    /// [`SubmitError::ReadOnly`], no writer thread is spawned, and queries
    /// always serve epoch 0.
    pub mutations: Option<MutationConfig>,
    /// Replica cores per shard (sharded service only; the single-instance
    /// service always runs one core). Each replica is a full
    /// queue-plus-executor-pool [`Core`] over the *same* epoch-pinned
    /// snapshot and shard slice, so replicating a hot shard costs queue
    /// state, not graph copies.
    pub replicas: usize,
    /// How the router picks a replica within a shard (sharded service
    /// only). See [`RoutingPolicy`].
    pub routing: RoutingPolicy,
    /// Multi-tenant QoS shape: one spec per tenant (weight, optional
    /// service-side token bucket, per-tenant queue-full policy). The
    /// default single-tenant config keeps every core a plain FIFO —
    /// bit-identical to the pre-QoS service. See [`crate::qos`].
    pub qos: QosConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            executors: std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(2),
            queue_capacity: 128,
            queue_policy: QueueFullPolicy::Block,
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            seed: 0x5354_5253, // "STRS"
            cache_capacity: 256,
            engine: PregelConfig::single_worker(),
            mutations: None,
            replicas: 1,
            routing: RoutingPolicy::RoundRobin,
            qos: QosConfig::default(),
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has been closed; no new work is admitted.
    Closed,
    /// The queue is at capacity (only from [`GraphService::try_submit`]).
    Full,
    /// A mutation was submitted to a service started without a
    /// [`MutationConfig`] — the graph is frozen.
    ReadOnly,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "service closed"),
            SubmitError::Full => write!(f, "queue full"),
            SubmitError::ReadOnly => {
                write!(f, "service is read-only (no mutation stream configured)")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Cumulative service counters (monotone; read with [`GraphService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error (includes rejects and early drops).
    pub failed: u64,
    /// Execution attempts beyond each request's first.
    pub retries: u64,
    /// Attempts that exceeded their per-attempt timeout.
    pub timeouts: u64,
    /// Panics contained by executors.
    pub panics: u64,
    /// Requests shed at submission under [`QueueFullPolicy::Reject`].
    pub rejected: u64,
    /// Requests dequeued with an already-expired deadline and answered
    /// without running (distinct from `timeouts`, which count attempts
    /// that ran too long).
    pub early_drops: u64,
    /// High-water mark of the queue depth (pending requests) since start —
    /// the occupancy gauge behind the stress report's per-shard column.
    pub queue_hwm: u64,
    /// Nanoseconds executors spent inside attempts (queueing and backoff
    /// excluded), summed across the core's executor threads — divided by
    /// `completed` this is the per-replica mean-service-latency column of
    /// the stress report.
    pub busy_ns: u64,
    /// Result-cache lookups answered without running the engine.
    pub cache_hits: u64,
    /// Result-cache lookups that found nothing (cacheable requests only).
    pub cache_misses: u64,
    /// Entries inserted into the result cache.
    pub cache_insertions: u64,
    /// Entries evicted from the result cache at capacity.
    pub cache_evictions: u64,
    /// Bytes currently resident in the result cache (a gauge, not a
    /// monotone counter; summed across cores by [`ServiceStats::absorb`]
    /// into the fleet-resident total).
    pub cache_bytes: u64,
}

impl ServiceStats {
    /// Folds another core's counters into this one (high-water marks take
    /// the maximum, everything else — including the resident-bytes gauge,
    /// which sums to the fleet total — adds).
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.panics += other.panics;
        self.rejected += other.rejected;
        self.early_drops += other.early_drops;
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        self.busy_ns += other.busy_ns;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_insertions += other.cache_insertions;
        self.cache_evictions += other.cache_evictions;
        self.cache_bytes += other.cache_bytes;
    }

    /// The counters accumulated *since* `earlier` (monotone counters
    /// subtract; the gauges — queue high-water mark and cache resident
    /// bytes — keep their current value). Used by the driver to scope a
    /// report to one run when several runs share a service process.
    pub fn delta_since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            completed: self.completed - earlier.completed,
            failed: self.failed - earlier.failed,
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            panics: self.panics - earlier.panics,
            rejected: self.rejected - earlier.rejected,
            early_drops: self.early_drops - earlier.early_drops,
            queue_hwm: self.queue_hwm,
            busy_ns: self.busy_ns - earlier.busy_ns,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_insertions: self.cache_insertions - earlier.cache_insertions,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_bytes: self.cache_bytes,
        }
    }
}

/// One replica core's measured service times: the run-total histogram plus
/// the per-interval series, merged across the core's executor threads.
/// The two are recorded by the same call, so the series' slots fold
/// *exactly* to `service` — the identity `--validate-report` checks per
/// replica.
#[derive(Debug, Clone)]
pub struct ReplicaSeries {
    /// Every executed request's service time since the last reset.
    pub service: LogHistogram,
    /// The same samples bucketed by completion interval.
    pub intervals: IntervalSeries,
}

/// One executor thread's service-time recorder. Each executor owns its own
/// mutex-guarded log (uncontended except during driver resets/reads), so
/// recording never crosses threads on the hot path.
struct ServiceLog {
    /// The instant interval indices are measured from (a phase start).
    origin: Instant,
    total: LogHistogram,
    series: IntervalSeries,
}

impl ServiceLog {
    fn new() -> ServiceLog {
        ServiceLog {
            origin: Instant::now(),
            total: LogHistogram::new(),
            series: IntervalSeries::new(1_000_000_000),
        }
    }

    fn record(&mut self, service_time: Duration, ok: bool) {
        let at = Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let v = service_time.as_nanos() as u64;
        self.total.record(v);
        self.series.record(at, v, ok);
    }

    fn reset(&mut self, origin: Instant, interval_ns: u64) {
        self.origin = origin;
        self.total.clear();
        if self.series.interval_ns() == interval_ns {
            self.series.clear();
        } else {
            self.series = IntervalSeries::new(interval_ns);
        }
    }
}

/// One replica core's identity and counters within a shard. The cache
/// fields of `stats` are always zero here: the result cache is shared by
/// every replica of a shard (a hit on any replica serves the shard), so
/// its counters appear once at the shard level, never per replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSnapshot {
    /// Replica index within the shard.
    pub replica: usize,
    /// The replica core's counters.
    pub stats: ServiceStats,
}

/// One shard's identity and counters, as reported to the stress driver.
/// `stats` folds every replica core (sums; queue high-water marks take the
/// maximum) plus the shard-shared result cache's counters.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index (0 for a single-instance service).
    pub shard: usize,
    /// Vertices this shard owns.
    pub owned: usize,
    /// The shard's counters, folded across replicas.
    pub stats: ServiceStats,
    /// Per-replica counters (one entry even when unreplicated).
    pub replicas: Vec<ReplicaSnapshot>,
}

/// Submit-side counter stripes appended after the per-executor slots, so
/// client threads bumping rejects/cache-hit counters do not contend with
/// executors (or each other, up to this many concurrent submitters).
const SUBMIT_STRIPES: usize = 8;

static NEXT_SUBMIT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each submitting thread claims one stripe on first use and keeps it.
    static SUBMIT_STRIPE: usize =
        NEXT_SUBMIT_STRIPE.fetch_add(1, Ordering::Relaxed) % SUBMIT_STRIPES;
}

/// One cache-line-padded stripe of the hot service counters. 128 bytes
/// covers the spatial-prefetcher pair of 64-byte lines on x86.
#[derive(Default)]
#[repr(align(128))]
struct CounterSlot {
    completed: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    rejected: AtomicU64,
    early_drops: AtomicU64,
    busy_ns: AtomicU64,
}

/// The hot counters, striped so executor threads never share a cache line:
/// executor `i` writes `slots[i]` exclusively, submit-side paths write one
/// of the trailing [`SUBMIT_STRIPES`] slots, and reads sum every stripe.
struct Counters {
    slots: Box<[CounterSlot]>,
}

impl Counters {
    fn new(executors: usize) -> Counters {
        Counters {
            slots: (0..executors + SUBMIT_STRIPES)
                .map(|_| CounterSlot::default())
                .collect(),
        }
    }

    /// The executor thread `i`'s private stripe.
    fn executor_slot(&self, i: usize) -> &CounterSlot {
        &self.slots[i]
    }

    /// The calling (submitting) thread's stripe.
    fn submit_slot(&self) -> &CounterSlot {
        let first = self.slots.len() - SUBMIT_STRIPES;
        &self.slots[first + SUBMIT_STRIPE.with(|s| *s)]
    }

    fn sum(&self, field: impl Fn(&CounterSlot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }
}

struct Job {
    req: QueryRequest,
    enqueued_at: Instant,
    tx: mpsc::Sender<QueryResponse>,
}

struct QueueState {
    /// The per-tenant admission stage (a plain FIFO when single-tenant).
    queue: TenantQueue<Job>,
    closed: bool,
    /// Deepest the queue (all lanes) has been (updated under the lock at
    /// enqueue).
    depth_hwm: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The instant lane-bucket timestamps are measured from (core start);
    /// [`TenantQueue::pop`] is a pure state machine over these.
    origin: Instant,
    counters: Counters,
    /// The core's result cache; `None` when caching is disabled. Shared
    /// (`Arc`) across every replica core of a shard, so keys stay
    /// replica-agnostic and a hit on any replica serves the shard.
    cache: Option<Arc<ResultCache>>,
    /// One service-time recorder per executor thread (executor `i` locks
    /// only `logs[i]`).
    logs: Box<[Mutex<ServiceLog>]>,
}

/// How an executor turns a dequeued request into an output. Implemented by
/// the full-graph backend below and by shard slices. Backends read the
/// request's pinned [`EpochSnapshot`] (stamped at submission), so a
/// request keeps serving its epoch even after the writer swaps in a newer
/// one.
pub(crate) trait ExecBackend: Send + Sync + 'static {
    fn execute(
        &self,
        req: &QueryRequest,
        engine: &PregelConfig,
    ) -> Result<QueryOutput, QueryError>;

    /// The result-cache identity of the request on this backend, or `None`
    /// for kinds that must not be memoized (point lookups, debug hooks).
    /// Derived from the request's pinned epoch, so lookup and insert agree
    /// on the fingerprint even when a swap lands mid-request. The default
    /// backend is uncacheable.
    fn cache_key(&self, req: &QueryRequest) -> Option<CacheKey> {
        let _ = req;
        None
    }
}

/// The memoizable payload of an output, if any (point-lookup and debug
/// payloads are never cached).
fn cacheable_output(output: &QueryOutput) -> Option<CachedAnswer> {
    match *output {
        QueryOutput::Workload { answer, supersteps, messages } => {
            Some(CachedAnswer { answer, supersteps, messages })
        }
        _ => None,
    }
}

/// Rehydrates a memoized answer into the response payload it was cached
/// from.
fn cached_output(value: CachedAnswer) -> QueryOutput {
    let CachedAnswer { answer, supersteps, messages } = value;
    QueryOutput::Workload { answer, supersteps, messages }
}

/// A pending response. Dropping the ticket abandons the response (the
/// executor's send is simply discarded); the request still runs.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<QueryResponse>,
}

impl Ticket {
    /// The submitted request's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives. If the service is torn down
    /// non-gracefully (executor channel dropped), returns a
    /// [`QueryError::ShuttingDown`] response rather than panicking.
    pub fn wait(self) -> QueryResponse {
        let id = self.id;
        self.rx
            .recv()
            .unwrap_or_else(|_| failure_response(id, QueryError::ShuttingDown))
    }
}

/// A zero-cost response for requests that never reached an executor.
fn failure_response(id: u64, error: QueryError) -> QueryResponse {
    QueryResponse {
        id,
        result: Err(error),
        attempts: 0,
        queue_wait: Duration::ZERO,
        service_time: Duration::ZERO,
        backoff: Duration::ZERO,
        route: Route::Direct,
        gather_wait: Duration::ZERO,
    }
}

/// One bounded queue + executor pool over an execution backend: the
/// reusable single-shard core shared by [`GraphService`] and every shard of
/// the sharded service.
pub(crate) struct Core {
    shared: Arc<Shared>,
    backend: Arc<dyn ExecBackend>,
    workers: Vec<JoinHandle<()>>,
    /// Per-tenant queue-full policy (index = tenant id), each resolved
    /// from its [`crate::qos::TenantSpec`] with the service-wide policy as
    /// the default — one tenant's backlog sheds only that tenant.
    policies: Box<[QueueFullPolicy]>,
}

impl Core {
    /// Spawns the executor pool over `backend`. `cache` is the result
    /// cache this core consults and fills — pass the *same* [`Arc`] to
    /// every replica core of a shard so the cache is shard-scoped (build
    /// it with [`service_cache`]).
    pub(crate) fn start(
        backend: Arc<dyn ExecBackend>,
        config: &ServiceConfig,
        thread_label: &str,
        cache: Option<Arc<ResultCache>>,
    ) -> Core {
        assert!(config.executors >= 1, "need at least one executor");
        assert!(config.queue_capacity >= 1, "queue capacity must be positive");
        assert!(config.max_attempts >= 1, "need at least one attempt");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: TenantQueue::new(&config.qos.tenants, config.queue_capacity),
                closed: false,
                depth_hwm: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            origin: Instant::now(),
            counters: Counters::new(config.executors),
            cache,
            logs: (0..config.executors).map(|_| Mutex::new(ServiceLog::new())).collect(),
        });
        let workers = (0..config.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let backend = Arc::clone(&backend);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("vcgp-stress-{thread_label}-{i}"))
                    .spawn(move || executor_loop(&*backend, &shared, &config, i))
                    .expect("spawn executor")
            })
            .collect();
        Core {
            shared,
            backend,
            workers,
            policies: config
                .qos
                .tenants
                .iter()
                .map(|t| t.policy.unwrap_or(config.queue_policy))
                .collect(),
        }
    }

    /// The tenant lane (clamped to the configured count) and priority
    /// class of a request: with multiple tenants, point lookups ride the
    /// priority lane so they are never stuck behind analytics backlogs.
    fn classify(&self, req: &QueryRequest) -> (usize, bool) {
        let tenant = (req.tenant as usize).min(self.policies.len() - 1);
        let prio = matches!(req.kind, QueryKind::Degree(_) | QueryKind::Neighbors(_));
        (tenant, prio)
    }

    /// Consults the result cache for `req`; a hit is answered immediately
    /// (counted as completed) without touching the queue. `None` means the
    /// request must execute: uncacheable kind, caching disabled, or a miss.
    fn cached_response(&self, req: &QueryRequest) -> Option<Ticket> {
        let cache = self.shared.cache.as_ref()?;
        let key = self.backend.cache_key(req)?;
        let value = cache.get(&key)?;
        self.shared
            .counters
            .submit_slot()
            .completed
            .fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(QueryResponse {
            id: req.id,
            result: Ok(cached_output(value)),
            attempts: 0,
            queue_wait: Duration::ZERO,
            service_time: Duration::ZERO,
            backoff: Duration::ZERO,
            route: Route::Direct,
            gather_wait: Duration::ZERO,
        });
        Some(Ticket { id: req.id, rx })
    }

    /// Submits a request under its tenant's [`QueueFullPolicy`]: blocks
    /// while the tenant's lane is full (`Block`), or sheds with an
    /// immediate [`QueryError::Rejected`] response (`Reject`) — only that
    /// tenant's backlog counts against it. A result-cache hit is answered
    /// without enqueueing (and is never shed — it costs no queue slot).
    /// Errs only when closed.
    pub(crate) fn submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        let mut state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        drop(state);
        if let Some(ticket) = self.cached_response(&req) {
            return Ok(ticket);
        }
        let (tenant, prio) = self.classify(&req);
        state = self.shared.state.lock().unwrap();
        loop {
            if state.closed {
                return Err(SubmitError::Closed);
            }
            if state.queue.lane_len(tenant) < self.shared.capacity {
                return Ok(self.enqueue(state, req, tenant, prio));
            }
            match self.policies[tenant] {
                QueueFullPolicy::Block => {
                    state = self.shared.not_full.wait(state).unwrap();
                }
                QueueFullPolicy::Reject => {
                    state.queue.note_reject(tenant);
                    drop(state);
                    let slot = self.shared.counters.submit_slot();
                    slot.rejected.fetch_add(1, Ordering::Relaxed);
                    slot.failed.fetch_add(1, Ordering::Relaxed);
                    let (tx, rx) = mpsc::channel();
                    let _ = tx.send(failure_response(req.id, QueryError::Rejected));
                    return Ok(Ticket { id: req.id, rx });
                }
            }
        }
    }

    /// Non-blocking submit: fails immediately when the tenant's lane is
    /// full or the service is closed, regardless of policy (cache hits
    /// still answer — they need no queue slot).
    pub(crate) fn try_submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        let state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        drop(state);
        if let Some(ticket) = self.cached_response(&req) {
            return Ok(ticket);
        }
        let (tenant, prio) = self.classify(&req);
        let state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.queue.lane_len(tenant) >= self.shared.capacity {
            return Err(SubmitError::Full);
        }
        Ok(self.enqueue(state, req, tenant, prio))
    }

    fn enqueue(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState>,
        req: QueryRequest,
        tenant: usize,
        prio: bool,
    ) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let id = req.id;
        let job = Job {
            req,
            enqueued_at: Instant::now(),
            tx,
        };
        // Lane capacity was checked under this same lock.
        state
            .queue
            .push(tenant, prio, job)
            .unwrap_or_else(|_| unreachable!("lane filled while the lock was held"));
        state.depth_hwm = state.depth_hwm.max(state.queue.len());
        drop(state);
        self.shared.not_empty.notify_one();
        Ticket { id, rx }
    }

    pub(crate) fn close(&self) {
        let mut state = self.shared.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Blocks until the executors have drained every accepted request.
    /// Call [`Core::close`] first.
    pub(crate) fn join(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// The core's counters, summed across stripes. The cache fields are
    /// always zero here: the result cache is shared across a shard's
    /// replicas, so its counters are overlaid once per shard (or per
    /// single-instance service) with [`overlay_cache`] — never per core,
    /// which would multiply them by the replica count.
    pub(crate) fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let hwm = self.shared.state.lock().unwrap().depth_hwm;
        ServiceStats {
            completed: c.sum(|s| &s.completed),
            failed: c.sum(|s| &s.failed),
            retries: c.sum(|s| &s.retries),
            timeouts: c.sum(|s| &s.timeouts),
            panics: c.sum(|s| &s.panics),
            rejected: c.sum(|s| &s.rejected),
            early_drops: c.sum(|s| &s.early_drops),
            queue_hwm: hwm as u64,
            busy_ns: c.sum(|s| &s.busy_ns),
            ..ServiceStats::default()
        }
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Per-tenant lane counters (enqueued/rejected/throttled/hwm), tenant
    /// order.
    pub(crate) fn qos_stats(&self) -> Vec<TenantLaneStats> {
        self.shared.state.lock().unwrap().queue.stats()
    }

    /// Resets every executor's service-time recorder to a fresh log whose
    /// intervals are measured from `origin` with the given width — how the
    /// driver scopes the per-replica series to one run (or phase).
    pub(crate) fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        for log in self.shared.logs.iter() {
            log.lock().unwrap().reset(origin, interval_ns);
        }
    }

    /// The core's service times since the last reset, merged across its
    /// executor threads (histogram merges are exact, so the fold identity
    /// between `service` and `intervals` survives the merge).
    pub(crate) fn service_series(&self) -> ReplicaSeries {
        let mut logs = self.shared.logs.iter();
        let first = logs.next().expect("core has at least one executor");
        let first = first.lock().unwrap();
        let mut out = ReplicaSeries {
            service: first.total.clone(),
            intervals: first.series.clone(),
        };
        drop(first);
        for log in logs {
            let log = log.lock().unwrap();
            out.service.merge(&log.total);
            out.intervals.merge(&log.series);
        }
        out
    }
}

/// Builds the result cache a [`Core`] (or a shard's set of replica cores)
/// will share; `None` when `cache_capacity` is zero.
pub(crate) fn service_cache(config: &ServiceConfig) -> Option<Arc<ResultCache>> {
    (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)))
}

/// Copies a shared cache's counters into `stats`'s cache fields (see
/// [`Core::stats`] for why they live apart from the core counters).
pub(crate) fn overlay_cache(stats: &mut ServiceStats, cache: Option<&ResultCache>) {
    let c = cache.map(ResultCache::stats).unwrap_or_default();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_insertions = c.insertions;
    stats.cache_evictions = c.evictions;
    stats.cache_bytes = c.resident_bytes;
}

/// An owned handle to one result cache's invalidation hook, so the epoch
/// writer thread can fire it at each swap without holding a reference to
/// any core. One per shard — the cache is shared by the shard's replicas.
pub(crate) struct CacheInvalidator {
    cache: Option<Arc<ResultCache>>,
}

impl CacheInvalidator {
    pub(crate) fn new(cache: Option<Arc<ResultCache>>) -> CacheInvalidator {
        CacheInvalidator { cache }
    }

    pub(crate) fn invalidate(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        self.close();
        self.join();
    }
}

/// The full-resident-graph execution backend behind [`GraphService`]:
/// serves each request from its pinned epoch's graph.
struct FullGraphBackend {
    /// Epoch-0 fallback for requests without a pinned snapshot (none in
    /// practice: the service stamps every submission).
    base: Arc<EpochSnapshot>,
}

impl ExecBackend for FullGraphBackend {
    fn execute(
        &self,
        req: &QueryRequest,
        engine: &PregelConfig,
    ) -> Result<QueryOutput, QueryError> {
        let snap = req.epoch.as_ref().unwrap_or(&self.base);
        execute_on_full_graph(&snap.graph, &req.kind, req.seed, engine)
    }

    fn cache_key(&self, req: &QueryRequest) -> Option<CacheKey> {
        let snap = req.epoch.as_ref().unwrap_or(&self.base);
        workload_cache_key(&req.kind, req.seed, snap.fingerprint)
    }
}

/// The epoch-rebuild backend of the single-instance service: apply the
/// batch to the full graph with the incremental CSR splice and refresh the
/// whole-answer fingerprint. No shard slices to maintain.
struct FullGraphRebuild {
    invalidator: CacheInvalidator,
}

impl EpochRebuild for FullGraphRebuild {
    fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats) {
        let (graph, delta) = apply_batch(&base.graph, batch);
        let graph = Arc::new(graph);
        let fingerprint = graph_fingerprint(&graph);
        (
            EpochSnapshot {
                id: base.id + 1,
                graph,
                fingerprint,
                locals: Vec::new(),
            },
            delta.stats,
        )
    }

    fn invalidate(&self) {
        self.invalidator.invalidate();
    }
}

/// The cache key of a workload request on a graph identified by
/// `fingerprint`. `None` for everything that must not be memoized (point
/// lookups, debug hooks). Shared with the shard backend.
pub(crate) fn workload_cache_key(
    kind: &QueryKind,
    seed: u64,
    fingerprint: u64,
) -> Option<CacheKey> {
    match *kind {
        QueryKind::Workload(workload) => Some(CacheKey { workload, fingerprint, seed }),
        _ => None,
    }
}

/// A resident graph serving typed queries from a bounded queue, with an
/// optional live-mutation stream installing epoch-versioned snapshots.
pub struct GraphService {
    graph: Arc<Graph>,
    core: Core,
    /// The core's result cache (held here too for stats overlay and
    /// invalidation; see [`Core::stats`]).
    cache: Option<Arc<ResultCache>>,
    epochs: Arc<EpochManager>,
    /// The epoch writer thread; `None` when the service is read-only.
    writer: Option<JoinHandle<()>>,
}

impl GraphService {
    /// Loads `graph` as epoch 0 (fingerprinting it once for the result
    /// cache) and spawns the executor pool — plus, when
    /// [`ServiceConfig::mutations`] is set, the epoch writer thread.
    pub fn start(graph: Arc<Graph>, config: ServiceConfig) -> GraphService {
        let epochs = Arc::new(EpochManager::new(
            EpochSnapshot {
                id: 0,
                graph: Arc::clone(&graph),
                fingerprint: graph_fingerprint(&graph),
                locals: Vec::new(),
            },
            config.mutations.as_ref(),
        ));
        let backend = Arc::new(FullGraphBackend {
            base: epochs.current(),
        });
        let cache = service_cache(&config);
        let core = Core::start(backend, &config, "exec", cache.clone());
        let writer = config.mutations.is_some().then(|| {
            spawn_writer(
                Arc::clone(&epochs),
                Box::new(FullGraphRebuild {
                    invalidator: CacheInvalidator::new(cache.clone()),
                }),
            )
        });
        GraphService {
            graph,
            core,
            cache,
            epochs,
            writer,
        }
    }

    /// The initially loaded (epoch 0) graph. Use [`GraphService::epoch`]
    /// for the currently serving version.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The currently serving epoch snapshot.
    pub fn epoch(&self) -> Arc<EpochSnapshot> {
        self.epochs.current()
    }

    /// Every epoch installed so far (including the initial one), when the
    /// service was started with [`MutationConfig::keep_history`]; `None`
    /// otherwise. Test instrumentation for checking answers against the
    /// full version history.
    pub fn epoch_history(&self) -> Option<Vec<Arc<EpochSnapshot>>> {
        self.epochs.history()
    }

    /// Submits a request, pinning it to the currently serving epoch.
    /// Under [`QueueFullPolicy::Block`] this blocks while the queue is
    /// full; under [`QueueFullPolicy::Reject`] a full queue yields a
    /// ticket that resolves immediately to [`QueryError::Rejected`]. Fails
    /// only when the service is closed.
    pub fn submit(&self, mut req: QueryRequest) -> Result<Ticket, SubmitError> {
        req.epoch = Some(self.epochs.current());
        self.core.submit(req)
    }

    /// Non-blocking submit: fails immediately when the queue is full or the
    /// service is closed.
    pub fn try_submit(&self, mut req: QueryRequest) -> Result<Ticket, SubmitError> {
        req.epoch = Some(self.epochs.current());
        self.core.try_submit(req)
    }

    /// Appends one mutation to the bounded write buffer (blocking while it
    /// is full), returning its accept sequence number. The writer thread
    /// applies buffered mutations in batches and installs each batch as
    /// the next epoch; queries submitted before the swap keep answering
    /// from their pinned epoch. Fails with [`SubmitError::ReadOnly`] when
    /// the service was started without [`ServiceConfig::mutations`].
    pub fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        self.epochs.accept(mutation)
    }

    /// Writer-side counters (epoch id, swaps, accepted/applied/no-op
    /// mutations, backlog).
    pub fn writer_stats(&self) -> WriterStats {
        self.epochs.writer_stats()
    }

    /// Writer counters plus the freshness histograms (swap pause,
    /// write-apply latency, freshness lag).
    pub fn writer_report(&self) -> WriterReport {
        self.epochs.writer_report()
    }

    /// Snapshots the writer counters and resets the freshness histograms —
    /// the run-scoping baseline (see
    /// [`crate::epoch::EpochManager::writer_baseline`]).
    pub fn writer_baseline(&self) -> WriterStats {
        self.epochs.writer_baseline()
    }

    /// Stops admitting new requests and new mutations. Already-accepted
    /// requests keep their place and will be answered; buffered mutations
    /// are still applied; pending and future [`submit`] calls return
    /// [`SubmitError::Closed`].
    ///
    /// [`submit`]: GraphService::submit
    pub fn close(&self) {
        self.core.close();
        self.epochs.close();
    }

    /// Closes the service and blocks until the writer has applied every
    /// accepted mutation and the executors have drained every accepted
    /// request. Returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        self.core.close();
        self.core.join();
        self.stats()
    }

    /// A snapshot of the cumulative counters (cache counters included).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.core.stats();
        overlay_cache(&mut stats, self.cache.as_deref());
        stats
    }

    /// The single-shard view of this service for the stress driver: one
    /// shard row (cache counters overlaid) carrying one replica row (raw
    /// core counters).
    pub(crate) fn shard_snapshot(&self) -> ShardSnapshot {
        let raw = self.core.stats();
        let mut stats = raw;
        overlay_cache(&mut stats, self.cache.as_deref());
        ShardSnapshot {
            shard: 0,
            owned: self.epoch().graph.num_vertices(),
            stats,
            replicas: vec![ReplicaSnapshot { replica: 0, stats: raw }],
        }
    }

    /// Resets the service-time recorders to measure from `origin` with the
    /// given interval width (see [`Core::reset_service_log`]).
    pub fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        self.core.reset_service_log(origin, interval_ns);
    }

    /// Per-shard, per-replica service-time series since the last reset —
    /// the single-instance service is one shard with one replica.
    pub fn replica_series(&self) -> Vec<Vec<ReplicaSeries>> {
        vec![vec![self.core.service_series()]]
    }

    /// Drops every result-cache entry. The invalidation hook that any
    /// future graph swap must fire before serving against the new graph
    /// (a no-op when caching is disabled).
    pub fn invalidate_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    /// Per-tenant admission counters of the single core (see
    /// [`crate::qos::TenantLaneStats`]).
    pub fn qos_stats(&self) -> Vec<TenantLaneStats> {
        self.core.qos_stats()
    }
}

impl Drop for GraphService {
    fn drop(&mut self) {
        // Stop and join the writer before the core's own Drop closes the
        // queues — a detached writer blocked on the write buffer would
        // leak its thread.
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

fn executor_loop(backend: &dyn ExecBackend, shared: &Shared, config: &ServiceConfig, index: usize) {
    let slot = shared.counters.executor_slot(index);
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                // A closing service drains every lane regardless of its
                // token bucket — accepted work is never stranded.
                let drain = state.closed;
                let now_ns = shared.origin.elapsed().as_nanos() as u64;
                match state.queue.pop(now_ns, drain) {
                    Pop::Job(_, job) => break job,
                    Pop::Throttled(wait_ns) => {
                        // Every queued lane is bucket-throttled: sleep
                        // until the earliest becomes conforming (a push
                        // into an unthrottled lane wakes us sooner).
                        let (s, _) = shared
                            .not_empty
                            .wait_timeout(state, Duration::from_nanos(wait_ns))
                            .unwrap();
                        state = s;
                    }
                    Pop::Empty => {
                        if state.closed {
                            return;
                        }
                        state = shared.not_empty.wait(state).unwrap();
                    }
                }
            }
        };
        shared.not_full.notify_all();
        let response = serve(backend, shared, config, &job.req, job.enqueued_at, slot);
        shared.logs[index]
            .lock()
            .unwrap()
            .record(response.service_time, response.result.is_ok());
        if response.result.is_ok() {
            slot.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.failed.fetch_add(1, Ordering::Relaxed);
        }
        // The caller may have dropped its ticket; that is fine.
        let _ = job.tx.send(response);
    }
}

/// Runs one request to completion: attempt, post-hoc timeout check, backoff,
/// retry, deadline enforcement.
fn serve(
    backend: &dyn ExecBackend,
    shared: &Shared,
    config: &ServiceConfig,
    req: &QueryRequest,
    enqueued_at: Instant,
    slot: &CounterSlot,
) -> QueryResponse {
    let started = Instant::now();
    let queue_wait = started.duration_since(enqueued_at);
    let mut service_time = Duration::ZERO;
    let mut backoff_total = Duration::ZERO;
    let mut attempts = 0u32;
    let result = loop {
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            if attempts == 0 {
                // Dead on arrival: dropped without consuming an execution
                // slot — counted apart from timeouts, which ran and lost.
                slot.early_drops.fetch_add(1, Ordering::Relaxed);
            }
            break Err(QueryError::DeadlineExceeded);
        }
        attempts += 1;
        if attempts > 1 {
            slot.retries.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            backend.execute(req, &config.engine)
        }));
        let elapsed = t0.elapsed();
        service_time += elapsed;
        match outcome {
            Err(payload) => {
                slot.panics.fetch_add(1, Ordering::Relaxed);
                break Err(QueryError::Panicked(panic_message(&*payload)));
            }
            Ok(Err(e)) => break Err(e), // permanent: retrying cannot help
            Ok(Ok(output)) => {
                // Memoize the computed answer even when this attempt blew
                // its timeout — the value is correct and deterministic, so
                // a later identical request (or this one's retry path, via
                // a fresh submit) gets it for free.
                if let Some(cache) = &shared.cache {
                    if let Some(key) = backend.cache_key(req) {
                        if let Some(value) = cacheable_output(&output) {
                            cache.insert(key, value);
                        }
                    }
                }
                if elapsed <= req.timeout {
                    break Ok(output);
                }
                slot.timeouts.fetch_add(1, Ordering::Relaxed);
                if attempts >= config.max_attempts {
                    break Err(QueryError::Timeout { attempts });
                }
                let pause = backoff_with_jitter(config, req.id, attempts);
                let pause = match req.deadline {
                    Some(d) => pause.min(d.saturating_duration_since(Instant::now())),
                    None => pause,
                };
                backoff_total += pause;
                std::thread::sleep(pause);
            }
        }
    };
    slot.busy_ns
        .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
    QueryResponse {
        id: req.id,
        result,
        attempts,
        queue_wait,
        service_time,
        backoff: backoff_total,
        route: Route::Direct,
        gather_wait: Duration::ZERO,
    }
}

/// Backoff before retry `attempt + 1`: exponential in the attempt number,
/// capped, then jittered deterministically into `[base/2, base)` so
/// simultaneous retries de-synchronize but a fixed seed reproduces exactly.
fn backoff_with_jitter(config: &ServiceConfig, req_id: u64, attempt: u32) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(config.backoff_cap);
    let ns = exp.as_nanos() as u64;
    if ns < 2 {
        return exp;
    }
    let mut rng = SplitMix64::new(mix3(config.seed, req_id, u64::from(attempt)));
    Duration::from_nanos(ns / 2 + rng.next_below(ns / 2))
}

/// Executes one request kind against the full resident graph. Shared with
/// the shard backend, which runs analytics whole on one shard.
pub(crate) fn execute_on_full_graph(
    graph: &Graph,
    kind: &QueryKind,
    seed: u64,
    engine: &PregelConfig,
) -> Result<QueryOutput, QueryError> {
    match *kind {
        QueryKind::Workload(w) => {
            let run = vcgp_core::service::run_workload(w, graph, engine, seed)
                .map_err(|e| QueryError::Unsupported(e.to_string()))?;
            Ok(QueryOutput::Workload {
                answer: run.answer,
                supersteps: run.stats.supersteps(),
                messages: run.stats.total_messages(),
            })
        }
        QueryKind::Degree(v) => {
            if (v as usize) >= graph.num_vertices() {
                return Err(QueryError::NoSuchVertex(v));
            }
            Ok(QueryOutput::Degree(graph.out_degree(v)))
        }
        QueryKind::Neighbors(v) => {
            if (v as usize) >= graph.num_vertices() {
                return Err(QueryError::NoSuchVertex(v));
            }
            Ok(QueryOutput::Neighbors(graph.out_neighbors(v).to_vec()))
        }
        QueryKind::DebugSleep(d) => {
            std::thread::sleep(d);
            Ok(QueryOutput::Slept)
        }
        QueryKind::DebugPanic => panic!("debug panic requested"),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
