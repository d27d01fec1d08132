//! Typed requests and responses of the graph-query service.

use crate::epoch::EpochSnapshot;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::Workload;
use vcgp_graph::VertexId;

/// What a request asks the service to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Run one Table 1 workload end to end on the resident graph.
    Workload(Workload),
    /// Out-degree of a vertex (point lookup).
    Degree(VertexId),
    /// Out-neighbor list of a vertex (point lookup).
    Neighbors(VertexId),
    /// Test hook: hold an executor for the given duration, then succeed.
    /// Lets tests drive the timeout/retry path deterministically without
    /// depending on a workload being slow on the test machine.
    DebugSleep(Duration),
    /// Test hook: panic inside the executor. Lets tests verify panic
    /// containment (the executor must survive and answer
    /// [`QueryError::Panicked`](crate::request::QueryError::Panicked)).
    DebugPanic,
}

impl QueryKind {
    /// Short label for reports and logs.
    pub fn label(&self) -> String {
        match self {
            QueryKind::Workload(w) => format!("{w:?}"),
            QueryKind::Degree(_) => "degree".to_string(),
            QueryKind::Neighbors(_) => "neighbors".to_string(),
            QueryKind::DebugSleep(_) => "debug-sleep".to_string(),
            QueryKind::DebugPanic => "debug-panic".to_string(),
        }
    }
}

/// One unit of work submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen identifier, echoed in the response. Also salts the
    /// retry-jitter stream, so give each request a distinct id.
    pub id: u64,
    /// The computation to run.
    pub kind: QueryKind,
    /// Seed for source-parameterized workloads (forwarded to
    /// [`vcgp_core::service::run_workload`]).
    pub seed: u64,
    /// Per-attempt latency budget. An attempt whose execution exceeds this
    /// counts as timed out and is retried (the engine cannot be interrupted
    /// mid-superstep, so the check is post-hoc).
    pub timeout: Duration,
    /// Optional absolute deadline for the whole request, retries included.
    /// Expired requests fail fast without consuming an execution slot.
    pub deadline: Option<Instant>,
    /// The epoch snapshot this request is pinned to, stamped by the
    /// service at submission (snapshot isolation: the request serves this
    /// version of the graph even if the writer swaps in a newer epoch
    /// mid-flight). `None` only before submission; backends fall back to
    /// epoch 0.
    pub epoch: Option<Arc<EpochSnapshot>>,
    /// Tenant id for the QoS admission stage (see [`crate::qos`]): picks
    /// the lane, token bucket, and queue-full policy the request falls
    /// under. Clamped to the configured tenant count at submission.
    /// Default 0.
    pub tenant: u32,
}

impl QueryRequest {
    /// A request with the given id and kind and no deadline; the per-attempt
    /// timeout defaults to five seconds.
    pub fn new(id: u64, kind: QueryKind) -> Self {
        QueryRequest {
            id,
            kind,
            seed: id,
            timeout: Duration::from_secs(5),
            deadline: None,
            epoch: None,
            tenant: 0,
        }
    }

    /// Sets the per-attempt timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tenant id.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Successful payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Workload result: the scalar answer plus run costs.
    Workload {
        /// Workload-specific scalar (component count, matched edges, …).
        answer: u64,
        /// Supersteps the run took.
        supersteps: u64,
        /// Algorithm-level messages the run sent.
        messages: u64,
    },
    /// Out-degree.
    Degree(usize),
    /// Out-neighbor list.
    Neighbors(Vec<VertexId>),
    /// The debug sleep completed.
    Slept,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The workload's preconditions do not hold on the resident graph.
    /// Never retried — the graph will not change.
    Unsupported(String),
    /// A vertex id outside the graph. Never retried.
    NoSuchVertex(VertexId),
    /// Every attempt exceeded the per-attempt timeout.
    Timeout {
        /// Attempts consumed (equals the configured maximum).
        attempts: u32,
    },
    /// The absolute deadline passed before an attempt could succeed.
    DeadlineExceeded,
    /// The queue was full and the service's admission policy is
    /// [`QueueFullPolicy::Reject`](crate::service::QueueFullPolicy::Reject):
    /// the request was shed at submission instead of blocking the producer.
    Rejected,
    /// The execution panicked; the message is the panic payload. The
    /// executor survives — panics are contained per request.
    Panicked(String),
    /// The service was shut down before the request could run.
    ShuttingDown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unsupported(m) => write!(f, "unsupported: {m}"),
            QueryError::NoSuchVertex(v) => write!(f, "no such vertex: {v}"),
            QueryError::Timeout { attempts } => {
                write!(f, "timed out after {attempts} attempts")
            }
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::Rejected => write!(f, "rejected: queue full"),
            QueryError::Panicked(m) => write!(f, "execution panicked: {m}"),
            QueryError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How a sharded front-end dispatched a request (echoed in the response so
/// load drivers can count routed traffic without asking the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Route {
    /// Answered by a single-instance service (or a non-sharded path).
    #[default]
    Direct,
    /// Routed to exactly one shard (and one replica core within it): the
    /// owner of a point lookup's vertex, or an analytics request's
    /// cache-affine shard.
    Routed {
        /// The shard that served the request.
        shard: u32,
        /// The replica core within the shard the routing policy picked
        /// (always 0 when the shard is unreplicated).
        replica: u32,
    },
    /// No longer constructed; kept until a benchmark change stops naming it.
    Scattered {
        /// Number of shards.
        shards: u32,
    },
}

/// The service's answer to one request, with per-request cost metrics.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Echo of [`QueryRequest::id`].
    pub id: u64,
    /// The payload or the failure.
    pub result: Result<QueryOutput, QueryError>,
    /// Execution attempts consumed (0 when the request never ran, e.g.
    /// expired deadline, shutdown, or a cache hit).
    pub attempts: u32,
    /// Time spent waiting in the service queue before the first attempt.
    pub queue_wait: Duration,
    /// Total execution time across all attempts (excludes queueing and
    /// backoff).
    pub service_time: Duration,
    /// Total time spent backing off between attempts.
    pub backoff: Duration,
    /// How the request was dispatched.
    pub route: Route,
    /// Always zero; kept until a benchmark change stops naming it.
    pub gather_wait: Duration,
}

impl QueryResponse {
    /// True when the request produced a payload.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}
