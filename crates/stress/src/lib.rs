//! `vcgp-stress` — a graph-query service layer plus a concurrent,
//! rate-limited workload driver.
//!
//! The batch harness (`vcgp-core`) answers the paper's question for one
//! workload at a time on purpose-built inputs. This crate asks the
//! *production* question the roadmap points at: what does a vertex-centric
//! engine look like as a resident service under concurrent, heavy traffic?
//!
//! * [`request`] — typed [`request::QueryRequest`]s (any Table 1 workload,
//!   plus point lookups) with per-attempt timeouts and absolute deadlines,
//!   answered by [`request::QueryResponse`]s carrying per-request cost
//!   metrics;
//! * [`service`] — [`service::GraphService`]: the graph loaded once behind
//!   an [`std::sync::Arc`], a bounded MPMC job queue, OS-thread executors,
//!   post-hoc timeouts with bounded seeded-jitter retries, contained
//!   panics, queue-full admission policies (block / reject), deadline
//!   early drops, and graceful draining shutdown;
//! * [`shard`] + [`router`] — the sharded service:
//!   [`shard::ShardedGraphService`] splits vertex ownership across S
//!   shards, each running `R ≥ 1` replica cores over the same slice
//!   (placement via the engine's partitioner, so `VCGP_PARTITIONING`
//!   applies) and the router sends each request to exactly one shard —
//!   point lookups to the vertex's owner, analytics whole to the shard
//!   their `(workload, seed)` hashes to — and picks replicas by a
//!   pluggable policy (seeded round-robin or least-loaded queue depth);
//! * [`cache`] — the per-shard result cache: a capacity-bounded,
//!   segmented LRU memoizing `(workload, graph fingerprint, seed) →
//!   answer`, with deterministic (wall-clock-free) eviction and
//!   invalidation hooks for graph swaps / re-shards;
//! * [`epoch`] — live mutations: a bounded write buffer drained by a
//!   writer thread that applies seeded mutation batches off the serving
//!   path and installs immutable epoch snapshots (monotone ids, atomic
//!   swap, incremental shard-slice rebuild); queries pin their epoch at
//!   submission, so reads are snapshot-isolated while the graph evolves;
//! * [`rate`] — a GCRA token bucket over integer nanoseconds, exactly
//!   testable because it never reads a clock;
//! * [`qos`] — multi-tenant QoS: per-tenant lanes in front of every
//!   replica core's queue with per-tenant token buckets, weighted-fair
//!   (deficit-round-robin) dequeue, a priority lane for point lookups,
//!   per-tenant queue-full policies, and per-tenant counters that fold
//!   exactly into the run totals;
//! * [`mix`] — deterministic operation mixes: `(seed, index) → operation`
//!   as a pure function, so a fixed seed reproduces the exact sequence
//!   regardless of client interleaving;
//! * [`scenario`] + [`dist`] + [`interval`] — the scenario engine:
//!   declarative load specs (ordered warmup/measure/cooldown phases, each
//!   with its own stop criterion, rate, client count, and weighted op mix
//!   over per-op seeded key distributions) parsed from a dependency-free
//!   line format, resolved against the resident graph, and logged as
//!   per-interval latency histograms whose sums fold *exactly* to the
//!   end-of-run totals; legacy preset flags desugar to one-phase scenarios
//!   bit-identical to their historical op streams;
//! * [`driver`] — the load generator: client threads, token-bucket pacing
//!   (or unthrottled), coordinated-omission-corrected latency plus pure
//!   service time in mergeable log-bucketed histograms, and JSON/markdown
//!   reports via `vcgp-testkit`'s emitters;
//! * [`json`] — a minimal JSON reader (hosted in `vcgp-testkit` so bench
//!   binaries can gate on their own reports too) used to validate the
//!   driver's reports.
//!
//! Run the driver with `cargo run --release -p vcgp-stress --bin stress`.

pub mod cache;
pub mod dist;
pub mod driver;
pub mod epoch;
pub mod interval;
pub use vcgp_testkit::json;
pub mod mix;
pub mod qos;
pub mod rate;
pub mod request;
pub mod router;
pub mod scenario;
pub mod service;
pub mod shard;

pub use cache::{CacheKey, CacheStats, CachedAnswer, ResultCache};
pub use driver::{run, run_scenario, DriverConfig, PhaseReport, StressReport, TenantReport};
pub use epoch::{
    mutation_op, EpochSnapshot, MutationConfig, ShardSlice, WriterReport, WriterStats,
};
pub use dist::{DistSpec, KeySampler};
pub use interval::{IntervalSeries, IntervalSlot};
pub use mix::{Mix, Zipf};
pub use qos::{Pop, QosConfig, TenantLaneStats, TenantQueue, TenantSpec};
pub use rate::TokenBucket;
pub use scenario::{
    OpClass, OpSpec, Phase, PhaseMix, PhaseSpec, RateSpec, Scenario, ScenarioSpec, SloStop,
    SpanSpec,
};
pub use request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
pub use router::{AnyTicket, RoutingPolicy, StressTarget};
pub use service::{
    GraphService, QueueFullPolicy, ReplicaSeries, ReplicaSnapshot, ServiceConfig, ServiceStats,
    ShardSnapshot, SubmitError, Ticket,
};
pub use shard::ShardedGraphService;
