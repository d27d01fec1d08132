//! The sharded service's routing front-end.
//!
//! Sends each [`QueryKind`] submitted to a
//! [`ShardedGraphService`](crate::shard::ShardedGraphService) to exactly
//! one shard:
//!
//! * **Point lookups** (degree / neighbors) are *owner-routed*: the shard
//!   whose slice owns the vertex answers from that slice.
//! * **Analytics** run whole, once, on the shard `mix3(seed, workload,
//!   ANALYTICS_STREAM) % S`. The pick depends only on the request's
//!   `(workload, seed)`, so a repeat always lands on the same shard's
//!   result cache. Fanning a request out to every shard would rerun the
//!   whole algorithm once per shard for the same answer, multiplying the
//!   time-processor product by `S`.
//! * **Debug hooks** are spread round-robin by request id.
//!
//! The response carries the decision ([`Route::Routed`]), so load drivers
//! can count routed traffic without asking the service.
//!
//! **Replica routing.** When a shard runs more than one replica core
//! ([`crate::service::ServiceConfig::replicas`]), every dispatch that
//! lands on a shard additionally picks a replica by the service's
//! [`RoutingPolicy`]: `round-robin` walks the shard's replicas from a
//! seeded offset, `least-loaded` picks the replica with the smallest
//! queue-depth gauge (ties broken by the lowest replica id). Replicas
//! serve the same epoch-pinned snapshot and share the shard's result
//! cache, so the pick affects latency only, never answers.

use crate::epoch::{WriterReport, WriterStats};
use crate::qos::TenantLaneStats;
use crate::request::{QueryKind, QueryRequest, QueryResponse, Route};
use crate::service::{GraphService, ReplicaSeries, ShardSnapshot, SubmitError, Ticket};
use crate::shard::ShardedGraphService;
use std::time::Instant;
use vcgp_graph::rng::mix3;
use vcgp_graph::Mutation;

/// Domain separator of the analytics shard pick.
const ANALYTICS_STREAM: u64 = 0x414E_4C59; // "ANLY"

/// How the router picks a replica core within a shard. Irrelevant (and
/// unobservable beyond [`Route::Routed`]'s replica field) when every shard
/// runs a single replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Walk the shard's replicas in order from a per-shard seeded offset —
    /// deterministic dispatch *sequence* per shard, uniform in the long
    /// run, oblivious to load.
    #[default]
    RoundRobin,
    /// Pick the replica with the smallest instantaneous queue depth, ties
    /// broken by the lowest replica id — the load-aware policy that steers
    /// new work away from a replica stuck behind a slow request.
    LeastLoaded,
}

impl RoutingPolicy {
    /// Parses a policy name (`round-robin` / `least-loaded`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Result<RoutingPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "round-robin" => Ok(RoutingPolicy::RoundRobin),
            "least-loaded" => Ok(RoutingPolicy::LeastLoaded),
            other => Err(format!(
                "unknown routing policy {other:?} (expected round-robin or least-loaded)"
            )),
        }
    }

    /// The canonical name, as accepted by [`RoutingPolicy::parse`].
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// A pending response: the queue ticket plus the route patched into the
/// response.
pub struct AnyTicket {
    ticket: Ticket,
    route: Route,
}

impl AnyTicket {
    /// The submitted request's id.
    pub fn id(&self) -> u64 {
        self.ticket.id()
    }

    /// Blocks until the response arrives.
    pub fn wait(self) -> QueryResponse {
        let mut resp = self.ticket.wait();
        resp.route = self.route;
        resp
    }
}

impl ShardedGraphService {
    /// Routes and submits one request to exactly one shard: point lookups
    /// to the vertex's owner, analytics to the shard their `(workload,
    /// seed)` hashes to, debug hooks by request id. Within the shard the
    /// [`RoutingPolicy`] picks the replica.
    ///
    /// Fails with [`SubmitError::Closed`] once the service is closed.
    /// Every submission is pinned to the currently serving epoch.
    pub fn submit(&self, mut req: QueryRequest) -> Result<AnyTicket, SubmitError> {
        req.epoch = Some(self.epochs.current());
        let shards = self.shards.len() as u64;
        let shard = match req.kind {
            QueryKind::Degree(v) | QueryKind::Neighbors(v) => self.owner(v),
            QueryKind::Workload(w) => {
                (mix3(req.seed, w as u64, ANALYTICS_STREAM) % shards) as usize
            }
            QueryKind::DebugSleep(_) | QueryKind::DebugPanic => (req.id % shards) as usize,
        };
        let (ticket, replica) = self.shards[shard].submit(self.routing, req)?;
        Ok(AnyTicket {
            ticket,
            route: Route::Routed { shard: shard as u32, replica },
        })
    }
}

/// What the load driver needs from a service: submit an operation, and
/// report per-shard counters at the end of the run. Implemented by the
/// single-instance [`GraphService`] (one implicit shard) and by
/// [`ShardedGraphService`], so `driver::run` is generic over both.
pub trait StressTarget: Sync {
    /// Submits one operation.
    fn submit_op(&self, req: QueryRequest) -> Result<AnyTicket, SubmitError>;
    /// Number of shards (1 for a single-instance service).
    fn num_shards(&self) -> usize;
    /// Replica cores per shard (1 for a single-instance service).
    fn replicas_per_shard(&self) -> usize {
        1
    }
    /// The replica-routing policy's report label.
    fn routing_label(&self) -> &'static str {
        RoutingPolicy::RoundRobin.label()
    }
    /// Per-shard identity + counters.
    fn shard_snapshots(&self) -> Vec<ShardSnapshot>;
    /// Resets every replica core's service-time recorder to measure from
    /// `origin` with the given interval width — the driver calls this at
    /// each phase start so the per-replica series are phase-scoped.
    fn reset_service_log(&self, origin: Instant, interval_ns: u64);
    /// Per-shard, per-replica service-time series since the last reset
    /// (outer index = shard, inner = replica).
    fn replica_series(&self) -> Vec<Vec<ReplicaSeries>>;
    /// Submits one mutation to the write buffer. The default target is
    /// read-only.
    fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        let _ = mutation;
        Err(SubmitError::ReadOnly)
    }
    /// Snapshots the writer counters and resets the freshness histograms
    /// (run scoping). A no-op returning zeros on a read-only target.
    fn writer_baseline(&self) -> WriterStats {
        WriterStats::default()
    }
    /// Writer counters plus freshness histograms (empty on a read-only
    /// target).
    fn writer_report(&self) -> WriterReport {
        WriterReport::default()
    }
    /// Per-tenant admission counters folded across every replica core
    /// (counts sum; queue high-water marks take the max). One entry per
    /// configured tenant, in tenant-id order.
    fn qos_stats(&self) -> Vec<TenantLaneStats> {
        Vec::new()
    }
}

impl StressTarget for GraphService {
    fn submit_op(&self, req: QueryRequest) -> Result<AnyTicket, SubmitError> {
        Ok(AnyTicket {
            ticket: self.submit(req)?,
            route: Route::Direct,
        })
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        vec![self.shard_snapshot()]
    }

    fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        self.reset_service_log(origin, interval_ns);
    }

    fn replica_series(&self) -> Vec<Vec<ReplicaSeries>> {
        self.replica_series()
    }

    fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        self.submit_mutation(mutation)
    }

    fn writer_baseline(&self) -> WriterStats {
        self.writer_baseline()
    }

    fn writer_report(&self) -> WriterReport {
        self.writer_report()
    }

    fn qos_stats(&self) -> Vec<TenantLaneStats> {
        self.qos_stats()
    }
}

impl StressTarget for ShardedGraphService {
    fn submit_op(&self, req: QueryRequest) -> Result<AnyTicket, SubmitError> {
        self.submit(req)
    }

    fn num_shards(&self) -> usize {
        self.num_shards()
    }

    fn replicas_per_shard(&self) -> usize {
        self.replicas_per_shard()
    }

    fn routing_label(&self) -> &'static str {
        self.routing.label()
    }

    fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shard_snapshots()
    }

    fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        self.reset_service_log(origin, interval_ns);
    }

    fn replica_series(&self) -> Vec<Vec<ReplicaSeries>> {
        self.replica_series()
    }

    fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        self.submit_mutation(mutation)
    }

    fn writer_baseline(&self) -> WriterStats {
        self.writer_baseline()
    }

    fn writer_report(&self) -> WriterReport {
        self.writer_report()
    }

    fn qos_stats(&self) -> Vec<TenantLaneStats> {
        self.qos_stats()
    }
}
