//! The six workloads: set-up, the measured window, the answer oracles,
//! and the metrics each run reports.
//!
//! Load comes only from the benchmark's own seeded request stream: request
//! `i` of a run is a pure function of `(seed, i)`. The service is driven
//! through its public API only, and batch jobs call
//! `vcgp_core::service::run_workload` directly.

use crate::measure::{self, ns, quantile, Cpu};
use crate::trace::{Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use vcgp_core::service::{run_workload, supported};
use vcgp_core::Workload;
use vcgp_graph::rng::mix3;
use vcgp_graph::{apply_batch, generators, Graph, Mutation, SplitMix64, VertexId};
use vcgp_pregel::{PregelConfig, RunStats};
use vcgp_stress::{
    mutation_op, AnyTicket, EpochSnapshot, GraphService, MutationConfig, QueryKind, QueryOutput,
    QueryRequest, QueryResponse, Route, RoutingPolicy, ServiceConfig, ServiceStats,
    ShardedGraphService, StressTarget, WriterStats,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointLookups,
    AnalyticsWhole,
    AnalyticsScatter,
    BatchJobs,
    LiveWrites,
    LiveWritesClosed,
}

impl Kind {
    /// The two workloads that run the epoch writer on the `live_writes`
    /// service and mix.
    fn writes(self) -> bool {
        matches!(self, Kind::LiveWrites | Kind::LiveWritesClosed)
    }
}

pub const WORKLOADS: [(&str, Kind); 6] = [
    ("point_lookups", Kind::PointLookups),
    ("analytics_whole", Kind::AnalyticsWhole),
    ("analytics_scatter", Kind::AnalyticsScatter),
    ("batch_jobs", Kind::BatchJobs),
    ("live_writes", Kind::LiveWrites),
    ("live_writes_closed", Kind::LiveWritesClosed),
];

/// Offered rate of `live_writes`, in requests per second: at most a third
/// of the closed-loop capacity of its mix (`live_writes_closed`
/// throughput) on a quiet 2-core Xeon VM (see README.md), which leaves
/// headroom for the hypervisor taking a share of the cores without
/// pushing the service toward saturation.
pub const LIVE_RATE: f64 = 300.0;

/// A `live_writes` run whose generator ran later than this at p99 is
/// invalid: the open loop was not keeping its schedule. Set well above
/// the 20–45 ms seen when the hypervisor took 25–40 % of the cores.
pub const LAG_BOUND_MS: f64 = 100.0;

/// A `live_writes` run that ends with more requests outstanding than this
/// many seconds of offered load is invalid: the service was not keeping up
/// (a saturated service's backlog grows without bound over the window).
pub const BACKLOG_BOUND_S: f64 = 1.0;

/// Warm-up before the measured window, as a share of `--seconds` (capped
/// at one second). Its requests are answer-checked like the rest.
const WARMUP_SHARE: f64 = 0.1;

/// The serving-suitable Table-1 analytics; the pool is the subset that
/// `vcgp_core::service::supported` accepts on the workload's graph.
const SERVING: [Workload; 10] = [
    Workload::CcHashMin,
    Workload::CcSv,
    Workload::SpanningTree,
    Workload::Sssp,
    Workload::PageRank,
    Workload::Coloring,
    Workload::Wcc,
    Workload::Scc,
    Workload::GraphSim,
    Workload::DualSim,
];

/// Per-layer median latency of each pool workload on the 4096-vertex
/// graph. `latency_p50_ms` weighs the six equally in log space, so one
/// workload alone must slow down about 3.8× (1.25^6) to move it past a
/// 0.25 bound; these show a smaller single-workload change.
const CLASS_P50: [(Workload, &str); 6] = [
    (Workload::CcHashMin, "analytics_p50_ms.cc_hash_min"),
    (Workload::CcSv, "analytics_p50_ms.cc_sv"),
    (Workload::SpanningTree, "analytics_p50_ms.spanning_tree"),
    (Workload::Sssp, "analytics_p50_ms.sssp"),
    (Workload::PageRank, "analytics_p50_ms.pagerank"),
    (Workload::Coloring, "analytics_p50_ms.coloring"),
];

// Domain separators of the benchmark's seeded streams.
const OP_STREAM: u64 = 0x5042_4f50; // "PBOP"
const KEY_STREAM: u64 = 0x5042_4b59; // "PBKY"
const MUTATION_STREAM: u64 = 0x5042_4d55; // "PBMU"
const ROUND_STREAM: u64 = 0x5042_524e; // "PBRN"

/// Fractional part of the golden ratio: consecutive multiples of it
/// spread over `[0, 1)` as evenly as any sequence can.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Seed of the 4096-vertex graph the analytics and `live_writes` workloads
/// share. It is fixed because Coloring's superstep count alone varies
/// from 771 to 909 across graph seeds, which would move every analytics
/// metric by about a tenth between runs; the run's seed drives the request
/// stream instead. `point_lookups` costs do not depend on the graph drawn,
/// so its graph follows the run's seed.
const SHARED_GRAPH_SEED: u64 = 7;

/// Requests covered by the `answer_hash_prefix` run fact.
const HASH_PREFIX: u64 = 64;

/// Zipf exponent of the `live_writes` point keys and analytics keys.
const ZIPF_S: f64 = 1.1;
/// Distinct (workload, seed) analytics keys `live_writes` draws from.
const LIVE_KEYS_PER_WORKLOAD: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small graphs, for the benchmark's own tests.
    pub tiny: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle and validity failures; empty when the run is correct.
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced window.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics of the traced window (empty without `--trace 1`).
    pub layers: Vec<Metric>,
    /// Run facts recorded with the result.
    pub info: Vec<(&'static str, String)>,
    pub spans: Vec<Span>,
    pub trace_overhead_frac: f64,
}

fn graph_shape(kind: Kind, tiny: bool) -> (usize, usize) {
    match (kind, tiny) {
        (Kind::PointLookups, false) => (1 << 20, 1 << 22),
        (Kind::PointLookups, true) | (_, false) => (4096, 16384),
        (_, true) => (256, 1024),
    }
}

/// Set-ups per run; `setup_s` is their median. A 4096-vertex set-up takes
/// 4–9 ms, mostly allocation and thread start, and single set-ups swing
/// by 2–4× with what else the host runs; the first few of a process are
/// also slower. The median of 51 (a quarter to half a second) sits in
/// the steady part.
fn setup_repeats(kind: Kind, tiny: bool) -> usize {
    match (kind, tiny) {
        (_, true) => 2,
        (Kind::PointLookups, false) => 3,
        (_, false) => 51,
    }
}

/// Generator threads of the closed loops (never more than the cores).
fn clients() -> usize {
    2.min(measure::nproc())
}

enum Svc {
    Whole(GraphService),
    Sharded(ShardedGraphService),
}

impl Svc {
    fn start(kind: Kind, graph: &Arc<Graph>) -> Option<(Svc, usize)> {
        let config = ServiceConfig::default();
        let executors = config.executors;
        Some(match kind {
            Kind::PointLookups | Kind::AnalyticsWhole => (
                Svc::Whole(GraphService::start(graph.clone(), config)),
                executors,
            ),
            Kind::AnalyticsScatter => (
                Svc::Sharded(ShardedGraphService::start(graph.clone(), config, 2)),
                2 * executors,
            ),
            Kind::LiveWrites | Kind::LiveWritesClosed => {
                let config = ServiceConfig {
                    replicas: 2,
                    routing: RoutingPolicy::LeastLoaded,
                    mutations: Some(MutationConfig::default()),
                    ..config
                };
                (
                    Svc::Sharded(ShardedGraphService::start(graph.clone(), config, 2)),
                    4 * executors,
                )
            }
            Kind::BatchJobs => return None,
        })
    }

    fn target(&self) -> &dyn StressTarget {
        match self {
            Svc::Whole(s) => s,
            Svc::Sharded(s) => s,
        }
    }

    fn stats(&self) -> ServiceStats {
        match self {
            Svc::Whole(s) => s.stats(),
            Svc::Sharded(s) => s.stats(),
        }
    }

    fn epoch(&self) -> Arc<EpochSnapshot> {
        match self {
            Svc::Whole(s) => s.epoch(),
            Svc::Sharded(s) => s.epoch(),
        }
    }

    fn writer_stats(&self) -> WriterStats {
        match self {
            Svc::Whole(s) => s.writer_stats(),
            Svc::Sharded(s) => s.writer_stats(),
        }
    }

    fn shutdown(self) {
        match self {
            Svc::Whole(s) => drop(s.shutdown()),
            Svc::Sharded(s) => drop(s.shutdown()),
        }
    }
}

/// One request of the benchmark's stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Point { v: VertexId, neighbors: bool },
    Analytics { workload: Workload, seed: u64 },
    Write,
}

impl Op {
    /// Latency class: degree, neighbors, or the analytics workload.
    fn class(&self) -> u8 {
        match *self {
            Op::Point { neighbors, .. } => u8::from(neighbors),
            Op::Analytics { workload, .. } => 2 + workload.row(),
            Op::Write => u8::MAX,
        }
    }

    fn request(&self, id: u64) -> QueryRequest {
        match *self {
            Op::Point {
                v,
                neighbors: false,
            } => QueryRequest::new(id, QueryKind::Degree(v)),
            Op::Point { v, neighbors: true } => QueryRequest::new(id, QueryKind::Neighbors(v)),
            Op::Analytics { workload, seed } => {
                QueryRequest::new(id, QueryKind::Workload(workload)).with_seed(seed)
            }
            Op::Write => unreachable!("writes go through submit_mutation"),
        }
    }
}

/// Zipfian ranks `[0, n)` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    /// The rank whose CDF interval holds `u ∈ [0, 1)`.
    fn at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// What every generator thread shares: the graph, the request stream, and
/// the next request and mutation indices.
struct Ctx {
    kind: Kind,
    seed: u64,
    graph: Arc<Graph>,
    pool: Vec<Workload>,
    live_keys: Vec<(Workload, u64)>,
    point_zipf: Zipf,
    key_zipf: Zipf,
    key_salt: u64,
    next: AtomicU64,
    next_mutation: AtomicU64,
    trace: bool,
}

impl Ctx {
    fn new(kind: Kind, seed: u64, graph: Arc<Graph>) -> Ctx {
        let pool: Vec<Workload> = SERVING
            .into_iter()
            .filter(|&w| supported(w, &graph).is_ok())
            .collect();
        // Fixed key order (rank r → cheap[r % len]), so which workload is
        // hot does not depend on the seed; only the request seeds do.
        // Coloring (800+ supersteps, ~100 ms a leg) is left out: its legs
        // alone kept the 2-core service busy enough that hypervisor steal
        // swung point-lookup latency twentyfold between runs.
        let cheap: Vec<Workload> = pool
            .iter()
            .copied()
            .filter(|&w| w != Workload::Coloring)
            .collect();
        let live_keys: Vec<(Workload, u64)> = (0..cheap.len() * LIVE_KEYS_PER_WORKLOAD)
            .map(|r| (cheap[r % cheap.len()], mix3(seed, r as u64, KEY_STREAM)))
            .collect();
        let n = graph.num_vertices();
        Ctx {
            kind,
            seed,
            point_zipf: Zipf::new(n, ZIPF_S),
            key_zipf: Zipf::new(live_keys.len(), ZIPF_S),
            key_salt: mix3(seed, 0, KEY_STREAM),
            graph,
            pool,
            live_keys,
            next: AtomicU64::new(0),
            next_mutation: AtomicU64::new(0),
            trace: false,
        }
    }

    /// Request `i` of the stream. The analytics mix and the `live_writes`
    /// kind mix are stratified, so every run gets the same proportions and
    /// run-to-run spread does not come from how many expensive requests a
    /// seed happened to draw: analytics walk the pool in seeded shuffled
    /// rounds, and `live_writes` steps a golden-ratio sequence whose
    /// fractional part picks the kind and then the zipfian key.
    fn op(&self, i: u64) -> Op {
        let mut rng = SplitMix64::new(mix3(self.seed, i, OP_STREAM));
        let n = self.graph.num_vertices();
        match self.kind {
            Kind::PointLookups => Op::Point {
                v: rng.next_index(n) as VertexId,
                neighbors: rng.next_below(2) == 1,
            },
            Kind::AnalyticsWhole | Kind::AnalyticsScatter | Kind::BatchJobs => {
                let len = self.pool.len() as u64;
                let mut round: Vec<usize> = (0..self.pool.len()).collect();
                SplitMix64::new(mix3(self.seed, i / len, ROUND_STREAM)).shuffle(&mut round);
                Op::Analytics {
                    workload: self.pool[round[(i % len) as usize]],
                    seed: rng.next_u64(),
                }
            }
            Kind::LiveWrites | Kind::LiveWritesClosed => {
                let u = (self.key_salt as f64 / u64::MAX as f64 + i as f64 * GOLDEN).fract();
                if u < 0.80 {
                    // An odd multiplier permutes a power-of-two id space, so
                    // the hot ranks land on seed-dependent vertices.
                    let rank = self.point_zipf.at(rng.next_f64()) as u64;
                    let v = rank
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(self.key_salt)
                        % n as u64;
                    Op::Point {
                        v: v as VertexId,
                        neighbors: rng.next_below(2) == 1,
                    }
                } else if u < 0.95 {
                    Op::Write
                } else {
                    let (workload, seed) = self.live_keys[self.key_zipf.at((u - 0.95) / 0.05)];
                    Op::Analytics { workload, seed }
                }
            }
        }
    }

    fn next_mutation(&self) -> Mutation {
        let j = self.next_mutation.fetch_add(1, Relaxed);
        mutation_op(
            mix3(self.seed, 0, MUTATION_STREAM),
            j,
            self.graph.num_vertices(),
        )
    }
}

/// Engine counters summed over runs.
#[derive(Debug, Default, Clone, Copy)]
struct PregelTotals {
    runs: u64,
    supersteps: u64,
    wall_ns: u64,
    compute_ns: u64,
    barrier_ns: u64,
    sent: u64,
    delivered: u64,
    combined_sender: u64,
    work: u64,
    chunks: u64,
    stolen: u64,
}

impl PregelTotals {
    fn add(&mut self, st: &RunStats) {
        self.runs += 1;
        self.supersteps += st.supersteps();
        self.wall_ns += ns(st.wall);
        self.work += st.total_work();
        for s in &st.superstep_stats {
            self.compute_ns += s.workers.iter().map(|w| ns(w.wall)).max().unwrap_or(0);
            self.barrier_ns += s.barrier_wait_ns;
            self.sent += s.messages_sent;
            self.delivered += s.messages_delivered;
            self.combined_sender += s.messages_combined_sender;
            self.chunks += s.chunks;
            self.stolen += s.chunks_stolen;
        }
    }

    fn merge(&mut self, o: &PregelTotals) {
        self.runs += o.runs;
        self.supersteps += o.supersteps;
        self.wall_ns += o.wall_ns;
        self.compute_ns += o.compute_ns;
        self.barrier_ns += o.barrier_ns;
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.combined_sender += o.combined_sender;
        self.work += o.work;
        self.chunks += o.chunks;
        self.stolen += o.stolen;
    }
}

/// An analytics answer to check against a direct `run_workload` call.
#[derive(Debug, Clone, Copy)]
struct Answer {
    idx: u64,
    workload: Workload,
    seed: u64,
    answer: u64,
    latency_ns: u64,
}

/// One request's latency and its class (see [`Op::class`]).
#[derive(Debug, Clone, Copy)]
struct Lat {
    ns: u64,
    class: u8,
}

fn values(lat: &[Lat]) -> Vec<u64> {
    lat.iter().map(|l| l.ns).collect()
}

/// The typical latency of a mix: the geometric mean, over the request
/// classes present, of each class's median. The analytics mix has three
/// cheap and three expensive workloads in equal shares, so the plain
/// median sits on the gap between them and jumps from one side to the
/// other between runs; each class's own median does not.
fn typical_ns(lat: &[Lat]) -> f64 {
    let mut classes: Vec<u8> = lat.iter().map(|l| l.class).collect();
    classes.sort_unstable();
    classes.dedup();
    if classes.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = classes
        .iter()
        .map(|&c| {
            let mut v: Vec<u64> = lat.iter().filter(|l| l.class == c).map(|l| l.ns).collect();
            quantile(&mut v, 0.5).max(1.0).ln()
        })
        .sum();
    (log_sum / classes.len() as f64).exp()
}

/// What generator threads record. Latencies of failed requests are
/// `u64::MAX`, so a failure exceeds every percentile.
#[derive(Default)]
struct Log {
    attempted: u64,
    completed: u64,
    failed: u64,
    point_lat: Vec<Lat>,
    analytics_lat: Vec<Lat>,
    answers: Vec<Answer>,
    mismatches: Vec<String>,
    accepted: Vec<(u64, Mutation)>,
    // Detail, recorded only in traced windows.
    submit_ns: Vec<u64>,
    queue_ns: Vec<u64>,
    exec_ns: Vec<u64>,
    handoff_ns: Vec<u64>,
    gather_ns: Vec<u64>,
    accept_ns: Vec<u64>,
    legs: u64,
    analytics_ops: u64,
    pregel: PregelTotals,
    // Open loop only.
    lag_ns: Vec<u64>,
    backlog_end: u64,
    gen_cpu: Cpu,
    spans: Vec<Span>,
}

impl Log {
    fn merge(&mut self, mut o: Log) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.point_lat.append(&mut o.point_lat);
        self.analytics_lat.append(&mut o.analytics_lat);
        self.answers.append(&mut o.answers);
        self.mismatches.append(&mut o.mismatches);
        self.accepted.append(&mut o.accepted);
        self.submit_ns.append(&mut o.submit_ns);
        self.queue_ns.append(&mut o.queue_ns);
        self.exec_ns.append(&mut o.exec_ns);
        self.handoff_ns.append(&mut o.handoff_ns);
        self.gather_ns.append(&mut o.gather_ns);
        self.accept_ns.append(&mut o.accept_ns);
        self.legs += o.legs;
        self.analytics_ops += o.analytics_ops;
        self.pregel.merge(&o.pregel);
        self.lag_ns.append(&mut o.lag_ns);
        self.backlog_end += o.backlog_end;
        self.gen_cpu.add(&o.gen_cpu);
        self.spans.append(&mut o.spans);
    }

    fn with_capacity(kind: Kind) -> Log {
        // Reserved up front (and touched only as used), so resident memory
        // grows smoothly with the request count instead of in doublings.
        let cap = if kind == Kind::PointLookups {
            4 << 20
        } else {
            1 << 16
        };
        Log {
            point_lat: Vec::with_capacity(cap),
            ..Log::default()
        }
    }

    /// Records one read's response. `latency_ns` is the caller's view.
    fn record_read(&mut self, ctx: &Ctx, idx: u64, op: Op, resp: &QueryResponse, latency_ns: u64) {
        self.attempted += 1;
        let ns_or_max = match &resp.result {
            Ok(out) => {
                self.completed += 1;
                if !ctx.kind.writes() {
                    self.check(ctx, idx, op, out, latency_ns);
                }
                latency_ns
            }
            Err(_) => {
                self.failed += 1;
                u64::MAX
            }
        };
        match op {
            Op::Point { .. } => self.point_lat.push(Lat {
                ns: ns_or_max,
                class: op.class(),
            }),
            _ => self.analytics_lat.push(Lat {
                ns: ns_or_max,
                class: op.class(),
            }),
        }
        if ctx.trace {
            self.queue_ns.push(ns(resp.queue_wait));
            self.exec_ns.push(ns(resp.service_time));
            let legs = match resp.route {
                Route::Scattered { shards } => {
                    self.gather_ns.push(ns(resp.gather_wait));
                    u64::from(shards)
                }
                _ => {
                    if resp.attempts > 0 {
                        let inside = ns(resp.queue_wait + resp.service_time + resp.backoff);
                        self.handoff_ns.push(latency_ns.saturating_sub(inside));
                    }
                    1
                }
            };
            if let Op::Analytics { .. } = op {
                self.analytics_ops += 1;
                self.legs += legs;
            }
        }
    }

    /// The point-lookup oracle (the benchmark's own read of the same
    /// graph), and the recording of analytics answers for the replay.
    fn check(&mut self, ctx: &Ctx, idx: u64, op: Op, out: &QueryOutput, latency_ns: u64) {
        let ok = match (op, out) {
            (
                Op::Point {
                    v,
                    neighbors: false,
                },
                QueryOutput::Degree(d),
            ) => *d == ctx.graph.out_degree(v),
            (Op::Point { v, neighbors: true }, QueryOutput::Neighbors(ns)) => {
                ns.as_slice() == ctx.graph.out_neighbors(v)
            }
            (Op::Analytics { workload, seed }, QueryOutput::Workload { answer, .. }) => {
                self.answers.push(Answer {
                    idx,
                    workload,
                    seed,
                    answer: *answer,
                    latency_ns,
                });
                true
            }
            _ => false,
        };
        if !ok && self.mismatches.len() < 8 {
            self.mismatches
                .push(format!("request {idx} ({op:?}) answered {out:?}"));
        }
    }
}

/// Service and process counters around one measured window.
struct Window {
    wall_ns: u64,
    proc_cpu: Cpu,
    steal_ms: f64,
    stats: ServiceStats,
    shard_busy_ns: Vec<u64>,
    shard_queue_hwm: u64,
    qos_throttled: u64,
    qos_queue_hwm: u64,
    threads_peak: u64,
    writer: WriterStats,
}

struct Before {
    at: Instant,
    cpu: Cpu,
    steal_ms: f64,
    stats: ServiceStats,
    shard_busy: Vec<u64>,
    throttled: u64,
    writer: WriterStats,
}

fn before(svc: Option<&Svc>) -> Before {
    let (stats, shard_busy, throttled, writer) = match svc {
        Some(s) => (
            s.stats(),
            s.target()
                .shard_snapshots()
                .iter()
                .map(|x| x.stats.busy_ns)
                .collect(),
            s.target().qos_stats().iter().map(|t| t.throttled).sum(),
            s.writer_stats(),
        ),
        None => Default::default(),
    };
    Before {
        at: Instant::now(),
        cpu: measure::process_cpu(),
        steal_ms: measure::steal_ms(),
        stats,
        shard_busy,
        throttled,
        writer,
    }
}

fn after(b: Before, svc: Option<&Svc>, threads_peak: u64) -> Window {
    let wall_ns = ns(b.at.elapsed());
    let proc_cpu = measure::process_cpu().since(&b.cpu);
    let mut w = Window {
        wall_ns,
        proc_cpu,
        steal_ms: measure::steal_ms() - b.steal_ms,
        stats: ServiceStats::default(),
        shard_busy_ns: Vec::new(),
        shard_queue_hwm: 0,
        qos_throttled: 0,
        qos_queue_hwm: 0,
        threads_peak,
        writer: WriterStats::default(),
    };
    if let Some(s) = svc {
        w.stats = s.stats().delta_since(&b.stats);
        let shards = s.target().shard_snapshots();
        w.shard_busy_ns = shards
            .iter()
            .zip(&b.shard_busy)
            .map(|(x, b)| x.stats.busy_ns - b)
            .collect();
        w.shard_queue_hwm = shards.iter().map(|x| x.stats.queue_hwm).max().unwrap_or(0);
        let qos = s.target().qos_stats();
        w.qos_throttled = qos.iter().map(|t| t.throttled).sum::<u64>() - b.throttled;
        w.qos_queue_hwm = qos.iter().map(|t| t.queue_hwm).max().unwrap_or(0);
        w.writer = s.writer_stats().delta_since(&b.writer);
    }
    w
}

/// Runs generator threads, sampling the process's thread count while they
/// run when tracing.
fn run_threads<'s, F>(ctx: &Ctx, jobs: Vec<F>) -> (Vec<Log>, u64)
where
    F: FnOnce() -> Log + Send + 's,
{
    thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|f| s.spawn(f)).collect();
        let mut peak = measure::threads();
        if ctx.trace {
            while !handles.iter().all(|h| h.is_finished()) {
                peak = peak.max(measure::threads());
                thread::sleep(Duration::from_millis(20));
            }
        }
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (logs, peak)
    })
}

/// Closed loop: each client sends its next request only after the
/// previous one answered. Latency runs from send to answer.
fn closed_loop(ctx: &Ctx, svc: &Svc, dur: Duration, tracer: Option<&Tracer>) -> (Log, u64) {
    let deadline = Instant::now() + dur;
    let client = || {
        let cpu0 = measure::thread_cpu();
        let mut log = Log::with_capacity(ctx.kind);
        while Instant::now() < deadline {
            let i = ctx.next.fetch_add(1, Relaxed);
            let op = ctx.op(i);
            let t0 = Instant::now();
            if let Op::Write = op {
                let m = ctx.next_mutation();
                let res = svc.target().submit_mutation(m);
                let t1 = Instant::now();
                log.attempted += 1;
                match res {
                    Ok(seq) => {
                        log.completed += 1;
                        log.accepted.push((seq, m));
                    }
                    Err(_) => log.failed += 1,
                }
                if let Some(t) = tracer {
                    log.accept_ns.push(ns(t1 - t0));
                    t.record(&mut log.spans, "bench.request", None, i, t0, t1);
                    t.record(
                        &mut log.spans,
                        "epoch.submit_mutation",
                        Some("bench.request"),
                        i,
                        t0,
                        t1,
                    );
                }
                continue;
            }
            let ticket = svc.target().submit_op(op.request(i));
            let t1 = Instant::now();
            let resp = match ticket {
                Ok(ticket) => ticket.wait(),
                Err(e) => {
                    log.attempted += 1;
                    log.failed += 1;
                    if log.mismatches.len() < 8 {
                        log.mismatches
                            .push(format!("request {i}: submit failed: {e}"));
                    }
                    continue;
                }
            };
            let t2 = Instant::now();
            log.record_read(ctx, i, op, &resp, ns(t2 - t0));
            if let Some(t) = tracer {
                log.submit_ns.push(ns(t1 - t0));
                t.record(&mut log.spans, "bench.request", None, i, t0, t2);
                t.record(
                    &mut log.spans,
                    "service.submit",
                    Some("bench.request"),
                    i,
                    t0,
                    t1,
                );
                t.record(
                    &mut log.spans,
                    "service.wait",
                    Some("bench.request"),
                    i,
                    t1,
                    t2,
                );
            }
        }
        log.gen_cpu = measure::thread_cpu().since(&cpu0);
        log
    };
    let (logs, peak) = run_threads(ctx, (0..clients()).map(|_| client).collect());
    let mut log = Log::default();
    logs.into_iter().for_each(|l| log.merge(l));
    (log, peak)
}

/// One caller runs batch jobs back to back with the engine's default
/// configuration (workers = cores). Latency is the call's duration.
fn batch_loop(ctx: &Ctx, dur: Duration, tracer: Option<&Tracer>) -> (Log, u64) {
    let deadline = Instant::now() + dur;
    let config = PregelConfig::default();
    let caller = || {
        let mut log = Log::default();
        while Instant::now() < deadline {
            let i = ctx.next.fetch_add(1, Relaxed);
            let op = ctx.op(i);
            let Op::Analytics { workload, seed } = op else {
                unreachable!("batch jobs are analytics")
            };
            let t0 = Instant::now();
            let run = run_workload(workload, &ctx.graph, &config, seed);
            let t1 = Instant::now();
            log.attempted += 1;
            match run {
                Ok(run) => {
                    log.completed += 1;
                    log.analytics_lat.push(Lat {
                        ns: ns(t1 - t0),
                        class: op.class(),
                    });
                    log.answers.push(Answer {
                        idx: i,
                        workload,
                        seed,
                        answer: run.answer,
                        latency_ns: ns(t1 - t0),
                    });
                    if tracer.is_some() {
                        log.pregel.add(&run.stats);
                        log.analytics_ops += 1;
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    log.analytics_lat.push(Lat {
                        ns: u64::MAX,
                        class: op.class(),
                    });
                    if log.mismatches.len() < 8 {
                        log.mismatches.push(format!("batch job {i}: {e}"));
                    }
                }
            }
            if let Some(t) = tracer {
                t.record(&mut log.spans, "bench.request", None, i, t0, t1);
                t.record(
                    &mut log.spans,
                    "core.run_workload",
                    Some("bench.request"),
                    i,
                    t0,
                    t1,
                );
            }
        }
        // The caller thread runs the engine itself, so its CPU is not
        // generator overhead and is left in the per-request cost.
        log
    };
    let (logs, peak) = run_threads(ctx, vec![caller]);
    let mut log = Log::default();
    logs.into_iter().for_each(|l| log.merge(l));
    (log, peak)
}

struct Pending {
    idx: u64,
    op: Op,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: AnyTicket,
}

/// Open loop: one submitter sends on a fixed schedule and never waits on
/// a response; one collector waits on the tickets in order. Latency runs
/// from each request's due time.
///
/// The collector can only wait on tickets in order, so it does not see
/// when a quick answer that queued behind a slow one completed. A point
/// lookup's completion is therefore taken from its response: send +
/// queue wait + service time + backoff (the executor's timestamps). A
/// cache hit completes at submission. Scattered analytics, which have no
/// single such timeline, complete when the collector receives them.
fn open_loop(
    ctx: &Ctx,
    svc: &Svc,
    dur: Duration,
    rate: f64,
    tracer: Option<&Tracer>,
) -> (Log, u64) {
    let t0 = Instant::now();
    let deadline = t0 + dur;
    let done = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Pending>();
    let done_ref = &done;
    let submitter = move || {
        let cpu0 = measure::thread_cpu();
        let mut log = Log::default();
        let mut sent_reads = 0u64;
        for k in 0u64.. {
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let sent = Instant::now();
            log.lag_ns.push(ns(sent.saturating_duration_since(due)));
            let i = ctx.next.fetch_add(1, Relaxed);
            let op = ctx.op(i);
            if let Op::Write = op {
                let m = ctx.next_mutation();
                let res = svc.target().submit_mutation(m);
                let t1 = Instant::now();
                log.attempted += 1;
                match res {
                    Ok(seq) => {
                        log.completed += 1;
                        log.accepted.push((seq, m));
                    }
                    Err(_) => log.failed += 1,
                }
                if let Some(t) = tracer {
                    log.accept_ns.push(ns(t1 - sent));
                    t.record(&mut log.spans, "bench.request", None, i, sent, t1);
                    t.record(
                        &mut log.spans,
                        "epoch.submit_mutation",
                        Some("bench.request"),
                        i,
                        sent,
                        t1,
                    );
                }
                continue;
            }
            match svc.target().submit_op(op.request(i)) {
                Ok(ticket) => {
                    let submitted = Instant::now();
                    if tracer.is_some() {
                        log.submit_ns.push(ns(submitted - sent));
                    }
                    sent_reads += 1;
                    tx.send(Pending {
                        idx: i,
                        op,
                        due,
                        sent,
                        submitted,
                        ticket,
                    })
                    .expect("collector outlives the submitter");
                }
                Err(_) => {
                    log.attempted += 1;
                    log.failed += 1;
                }
            }
        }
        log.backlog_end = sent_reads - done_ref.load(Relaxed);
        drop(tx);
        log.gen_cpu = measure::thread_cpu().since(&cpu0);
        log
    };
    let collector = move || {
        let cpu0 = measure::thread_cpu();
        let mut log = Log::default();
        for p in rx {
            let w0 = Instant::now();
            let resp = p.ticket.wait();
            let got = Instant::now();
            done_ref.fetch_add(1, Relaxed);
            let from_due = |t: Instant| ns(t.saturating_duration_since(p.due));
            let latency = if resp.attempts == 0 {
                from_due(p.submitted)
            } else if let Route::Scattered { .. } = resp.route {
                from_due(got)
            } else {
                from_due(p.sent + resp.queue_wait + resp.service_time + resp.backoff)
            };
            log.record_read(ctx, p.idx, p.op, &resp, latency);
            if let Some(t) = tracer {
                t.record(&mut log.spans, "bench.request", None, p.idx, p.sent, got);
                t.record(
                    &mut log.spans,
                    "service.submit",
                    Some("bench.request"),
                    p.idx,
                    p.sent,
                    p.submitted,
                );
                t.record(
                    &mut log.spans,
                    "service.wait",
                    Some("bench.request"),
                    p.idx,
                    w0,
                    got,
                );
            }
        }
        log.gen_cpu = measure::thread_cpu().since(&cpu0);
        log
    };
    let jobs: Vec<Box<dyn FnOnce() -> Log + Send + '_>> =
        vec![Box::new(submitter), Box::new(collector)];
    let (logs, peak) = run_threads(ctx, jobs);
    let mut log = Log::default();
    logs.into_iter().for_each(|l| log.merge(l));
    (log, peak)
}

/// One window of the workload's load, with its counters.
fn window(ctx: &Ctx, svc: Option<&Svc>, dur: Duration, tracer: Option<&Tracer>) -> (Log, Window) {
    let b = before(svc);
    let (log, peak) = match (ctx.kind, svc) {
        (Kind::BatchJobs, _) => batch_loop(ctx, dur, tracer),
        (Kind::LiveWrites, Some(s)) => open_loop(ctx, s, dur, LIVE_RATE, tracer),
        (_, Some(s)) => closed_loop(ctx, s, dur, tracer),
        (_, None) => unreachable!("only batch jobs run without a service"),
    };
    (log, after(b, svc, peak))
}

/// What the analytics replay found: answers that differ from a direct
/// call, engine counters, and each direct call's duration (and span).
#[derive(Default)]
struct Replay {
    bad: Vec<String>,
    totals: PregelTotals,
    direct_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// Replays analytics answers through direct `run_workload` calls with the
/// service's engine configuration. Untraced, the replay runs on every core;
/// traced, it runs serially so each call's time is its own.
fn replay(ctx: &Ctx, answers: &[Answer], tracer: Option<&Tracer>) -> Replay {
    let config = PregelConfig::single_worker();
    let threads = if tracer.is_some() {
        1
    } else {
        measure::nproc()
    };
    let parts: Vec<Replay> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let config = &config;
                s.spawn(move || {
                    let mut part = Replay::default();
                    for a in answers.iter().skip(t).step_by(threads) {
                        let t0 = Instant::now();
                        let run = run_workload(a.workload, &ctx.graph, config, a.seed);
                        let t1 = Instant::now();
                        match run {
                            Ok(run) if run.answer == a.answer => {
                                part.totals.add(&run.stats);
                                part.direct_ns.push(ns(t1 - t0));
                                if let Some(tr) = tracer {
                                    tr.record(&mut part.spans, "core.run_workload", None, a.idx, t0, t1);
                                }
                            }
                            other => part.bad.push(format!(
                                "request {} ({:?}, seed {}): answered {}, direct run_workload gave {:?}",
                                a.idx,
                                a.workload,
                                a.seed,
                                a.answer,
                                other.map(|r| r.answer)
                            )),
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = Replay::default();
    for mut part in parts {
        all.bad.append(&mut part.bad);
        all.totals.merge(&part.totals);
        all.direct_ns.append(&mut part.direct_ns);
        all.spans.append(&mut part.spans);
    }
    all
}

/// XOR over `(index, answer)` of the given answers.
fn answer_hash<'a>(answers: impl Iterator<Item = &'a Answer>) -> u64 {
    answers.fold(0, |h, a| h ^ mix3(a.idx, a.answer, 0x4841_5348))
}

struct Setup {
    graph: Arc<Graph>,
    svc: Option<Svc>,
    executors: usize,
    setup_s: f64,
    generate_s: f64,
    start_s: f64,
    setup_times: Vec<f64>,
}

/// Builds the graph and starts the service several times; keeps the last
/// and reports the median times.
fn setup(kind: Kind, p: &Params) -> Setup {
    let (n, m) = graph_shape(kind, p.tiny);
    let (mut total, mut gen, mut start) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..setup_repeats(kind, p.tiny) {
        if let Some((_, Some(svc), _)) = last.take() {
            Svc::shutdown(svc);
        }
        let t0 = Instant::now();
        let graph_seed = if kind == Kind::PointLookups {
            p.seed
        } else {
            SHARED_GRAPH_SEED
        };
        let graph = Arc::new(generators::gnm_connected(n, m, graph_seed));
        let t1 = Instant::now();
        let svc = Svc::start(kind, &graph);
        let t2 = Instant::now();
        gen.push((t1 - t0).as_secs_f64());
        start.push((t2 - t1).as_secs_f64());
        total.push((t2 - t0).as_secs_f64());
        let executors = svc.as_ref().map_or(0, |(_, e)| *e);
        last = Some((graph, svc.map(|(s, _)| s), executors));
    }
    let (graph, svc, executors) = last.expect("at least one set-up");
    Setup {
        graph,
        svc,
        executors,
        setup_s: measure::median(&total),
        generate_s: measure::median(&gen),
        start_s: measure::median(&start),
        setup_times: total,
    }
}

/// Waits until the epoch writer has installed every accepted mutation.
fn drain(svc: &Svc) -> WriterStats {
    let until = Instant::now() + Duration::from_secs(60);
    loop {
        let s = svc.writer_stats();
        if (s.pending == 0 && s.applied + s.noops == s.accepted) || Instant::now() > until {
            return s;
        }
        thread::sleep(Duration::from_millis(5));
    }
}

fn ms(v: f64) -> f64 {
    v / 1e6
}

fn us(v: f64) -> f64 {
    v / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs one workload end to end.
pub fn run(kind: Kind, p: &Params) -> Outcome {
    let Setup {
        graph,
        svc,
        executors,
        setup_s,
        generate_s,
        start_s,
        setup_times,
    } = setup(kind, p);
    let mut ctx = Ctx::new(kind, p.seed, graph.clone());
    let svc_ref = svc.as_ref();
    let seconds = Duration::from_secs_f64(p.seconds);
    let warmup = Duration::from_secs_f64((p.seconds * WARMUP_SHARE).min(1.0));

    let (mut all, _) = window(&ctx, svc_ref, warmup, None);
    let (plain, w_plain) = window(&ctx, svc_ref, seconds, None);
    let peak_rss_mb = measure::peak_rss_mb();
    let mut info: Vec<(&'static str, String)> = Vec::new();

    // The traced window follows the untraced one on the same service.
    let mut traced = None;
    let mut tracer = None;
    if p.trace {
        let origin = Instant::now();
        let t = Tracer::new(origin);
        ctx.trace = true;
        if let Some(s) = svc_ref {
            // Scopes the writer's histograms to the traced window.
            s.target().writer_baseline();
        }
        let (mut log, w) = window(&ctx, svc_ref, seconds, Some(&t));
        t.absorb(std::mem::take(&mut log.spans));
        traced = Some((log, w));
        tracer = Some(t);
    }

    let completed = |l: &Log| l.completed as f64;
    let primary_lat = |l: &Log| -> Vec<Lat> {
        match kind {
            Kind::PointLookups | Kind::LiveWrites | Kind::LiveWritesClosed => l.point_lat.clone(),
            _ => l.analytics_lat.clone(),
        }
    };
    // p99 of `point_lookups` spread by up to 0.36 between ten-run sets
    // under hypervisor steal; p95 stayed within 0.22. In
    // `live_writes_closed` p95 falls where point lookups start to queue
    // behind analytics legs (spread up to 0.22), while p99 lies inside
    // that queueing (spread 0.05). Analytics runs are too short for p99 to
    // have ten samples beyond it.
    let tail_q = match kind {
        Kind::PointLookups | Kind::LiveWrites => 0.95,
        Kind::LiveWritesClosed => 0.99,
        _ => 0.9,
    };

    // End-to-end metrics: the untraced window only.
    let gen_ms = if kind == Kind::BatchJobs {
        0.0
    } else {
        plain.gen_cpu.total_ms()
    };
    let primary = primary_lat(&plain);
    let mut lat = values(&primary);
    let samples = lat.len();
    let e2e = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: ms(typical_ns(&primary)),
        },
        Metric {
            name: "latency_tail_ms",
            unit: "ms",
            value: ms(quantile(&mut lat, tail_q)),
        },
        Metric {
            name: "cpu_ms_per_op",
            unit: "ms",
            value: (w_plain.proc_cpu.total_ms() - gen_ms) / completed(&plain).max(1.0),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
        },
    ];
    // Recorded, not gated: closed-loop throughput is clients ÷ mean
    // latency, and it swung further with hypervisor steal than any bound
    // allows (see README.md).
    let throughput = completed(&plain) / (w_plain.wall_ns as f64 / 1e9);
    info.push(("throughput_ops_s", format!("{throughput}")));
    info.push(("tail_quantile", format!("{tail_q}")));
    info.push(("setup_times_s", format!("{setup_times:?}")));
    let qs: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{}={}", q * 100.0, ms(quantile(&mut lat, q))))
        .collect();
    info.push(("latency_quantiles_ms", qs.join(" ")));
    info.push(("primary_samples", samples.to_string()));
    info.push((
        "samples_beyond_tail",
        (samples - (tail_q * samples as f64).ceil() as usize).to_string(),
    ));
    info.push(("measured_requests", plain.attempted.to_string()));
    let cpu_ms = w_plain.wall_ns as f64 / 1e6 * measure::nproc() as f64;
    info.push(("steal_frac", format!("{}", ratio(w_plain.steal_ms, cpu_ms))));
    info.push(("executors", executors.to_string()));

    let plain_attempted = plain.attempted;
    let plain_failed = plain.failed;
    let plain_cpu_per_op = w_plain.proc_cpu.total_ms() / completed(&plain).max(1.0);
    let mut plain_lag = plain.lag_ns.clone();
    let plain_backlog = plain.backlog_end;
    all.merge(plain);
    let mut failures: Vec<String> = Vec::new();

    // Open-loop validity.
    if kind == Kind::LiveWrites {
        let lag_p99 = ms(quantile(&mut plain_lag, 0.99));
        let backlog_bound = (LIVE_RATE * BACKLOG_BOUND_S) as u64;
        info.push(("offered_rate_ops_s", format!("{LIVE_RATE}")));
        info.push(("gen_lag_ms_p99", format!("{lag_p99}")));
        info.push(("backlog_end", plain_backlog.to_string()));
        if lag_p99 > LAG_BOUND_MS {
            failures.push(format!(
                "invalid open loop: generator lag p99 {lag_p99} ms > {LAG_BOUND_MS} ms"
            ));
        }
        if plain_backlog > backlog_bound {
            failures.push(format!(
                "invalid open loop: backlog {plain_backlog} > {backlog_bound} at end of run"
            ));
        }
    }

    let (tlog, tw) = traced.unzip();
    if let Some(l) = &tlog {
        all.answers.extend(l.answers.iter().copied());
        all.accepted.extend(l.accepted.iter().cloned());
        all.mismatches.extend(l.mismatches.iter().cloned());
    }

    // Oracles.
    failures.extend(all.mismatches.iter().cloned());
    let mut replay_totals = PregelTotals::default();
    let mut direct_ns = Vec::new();
    let mut apply_us_per_mutation = 0.0;
    let mut writer_report = None;
    match kind {
        Kind::AnalyticsWhole | Kind::AnalyticsScatter | Kind::BatchJobs => {
            let r = replay(&ctx, &all.answers, tracer.as_ref());
            failures.extend(r.bad.into_iter().take(8));
            replay_totals = r.totals;
            direct_ns = r.direct_ns;
            if let Some(t) = &tracer {
                t.absorb(r.spans);
            }
            let mut sorted = all.answers.clone();
            sorted.sort_by_key(|a| a.idx);
            info.push((
                "answer_hash",
                format!("{:016x}", answer_hash(sorted.iter())),
            ));
            // Requests 0..PREFIX complete in every full-size run, so this
            // hash is comparable across the three analytics workloads.
            let prefix: Vec<&Answer> = sorted.iter().filter(|a| a.idx < HASH_PREFIX).collect();
            let prefix_hash = if prefix.len() as u64 == HASH_PREFIX {
                format!("{:016x}", answer_hash(prefix.into_iter()))
            } else {
                "incomplete".to_string()
            };
            info.push(("answer_hash_prefix", prefix_hash));
            info.push(("answers_checked", sorted.len().to_string()));
        }
        Kind::LiveWrites | Kind::LiveWritesClosed => {
            let svc = svc_ref.expect("live writes run a service");
            let ws = drain(svc);
            if ws.applied + ws.noops != ws.accepted {
                failures.push(format!(
                    "writer did not drain: applied {} + noops {} != accepted {}",
                    ws.applied, ws.noops, ws.accepted
                ));
            }
            if ws.accepted != all.accepted.len() as u64 {
                failures.push(format!(
                    "writer accepted {} mutations, the benchmark submitted {}",
                    ws.accepted,
                    all.accepted.len()
                ));
            }
            let mut accepted = all.accepted.clone();
            accepted.sort_by_key(|(seq, _)| *seq);
            let batch: Vec<Mutation> = accepted.into_iter().map(|(_, m)| m).collect();
            let t0 = Instant::now();
            let (replayed, _) = apply_batch(&graph, &batch);
            apply_us_per_mutation = us(ns(t0.elapsed()) as f64) / (batch.len().max(1) as f64);
            let expected = vcgp_core::fingerprint::graph_fingerprint(&replayed);
            let got = svc.epoch().fingerprint;
            if expected != got {
                failures.push(format!(
                    "final epoch fingerprint {got:016x} != base graph with {} accepted mutations replayed ({expected:016x})",
                    batch.len()
                ));
            }
            info.push(("mutations_accepted", ws.accepted.to_string()));
            info.push(("final_epoch", svc.epoch().id.to_string()));
            if let Some(Svc::Sharded(s)) = svc_ref {
                writer_report = Some(s.writer_report());
            }
        }
        Kind::PointLookups => {
            info.push(("answers_checked", all.completed.to_string()));
        }
    }

    // Per-layer metrics: the traced window only.
    let mut layers = Vec::new();
    let mut overhead = 0.0;
    if let (Some(mut l), Some(w)) = (tlog, tw) {
        let traced_cpu_per_op = w.proc_cpu.total_ms() / completed(&l).max(1.0);
        overhead = traced_cpu_per_op / plain_cpu_per_op - 1.0;
        info.push(("cpu_ms_per_op_untraced", format!("{plain_cpu_per_op}")));
        info.push(("cpu_ms_per_op_traced", format!("{traced_cpu_per_op}")));
        // Engine counters: the measured jobs for batch, else the replay.
        let pg = if kind == Kind::BatchJobs {
            l.pregel
        } else {
            replay_totals
        };
        let an_ops = l.analytics_ops as f64;
        let shard_busy: Vec<f64> = w.shard_busy_ns.iter().map(|&b| b as f64).collect();
        let shard_mean = shard_busy.iter().sum::<f64>() / shard_busy.len().max(1) as f64;
        let shard_max = shard_busy.iter().copied().fold(0.0, f64::max);
        let (swap_p99, fresh_p99, visible_p99) = match &writer_report {
            Some(r) => (
                r.swap_pause.quantile(0.99) as f64,
                r.freshness_lag.quantile(0.99) as f64,
                r.write_apply.quantile(0.99) as f64,
            ),
            None => (0.0, 0.0, 0.0),
        };
        let core_lat: Vec<u64> = if kind == Kind::BatchJobs {
            values(&l.analytics_lat)
        } else {
            direct_ns.clone()
        };
        let core_share = if kind == Kind::BatchJobs {
            1.0
        } else {
            let svc_lat: f64 = all.answers.iter().map(|a| a.latency_ns as f64).sum();
            ratio(direct_ns.iter().map(|&d| d as f64).sum(), svc_lat)
        };
        let failed_frac = ratio(l.failed as f64, l.attempted as f64);
        let mut m = |name: &'static str, unit: &'static str, value: f64| {
            layers.push(Metric { name, unit, value })
        };
        // service + proc
        m(
            "service.submit_us_p99",
            "us",
            us(quantile(&mut l.submit_ns, 0.99)),
        );
        m(
            "service.queue_wait_us_p50",
            "us",
            us(quantile(&mut l.queue_ns, 0.5)),
        );
        m(
            "service.queue_wait_us_p99",
            "us",
            us(quantile(&mut l.queue_ns, 0.99)),
        );
        m(
            "service.exec_us_p50",
            "us",
            us(quantile(&mut l.exec_ns, 0.5)),
        );
        m(
            "service.handoff_us_p50",
            "us",
            us(quantile(&mut l.handoff_ns, 0.5)),
        );
        m(
            "service.busy_frac",
            "ratio",
            ratio(w.stats.busy_ns as f64, executors as f64 * w.wall_ns as f64),
        );
        m("service.retries", "count", w.stats.retries as f64);
        m("service.rejected", "count", w.stats.rejected as f64);
        m("service.timeouts", "count", w.stats.timeouts as f64);
        m(
            "proc.sys_cpu_frac",
            "ratio",
            ratio(w.proc_cpu.sys_ms, w.proc_cpu.total_ms()),
        );
        m("proc.threads_peak", "count", w.threads_peak as f64);
        let cpu_ms = w.wall_ns as f64 / 1e6 * measure::nproc() as f64;
        m("proc.steal_frac", "ratio", ratio(w.steal_ms, cpu_ms));
        // qos
        m("qos.throttled", "count", w.qos_throttled as f64);
        m("qos.queue_hwm", "count", w.qos_queue_hwm as f64);
        // cache
        let lookups = (w.stats.cache_hits + w.stats.cache_misses) as f64;
        m(
            "cache.hit_ratio",
            "ratio",
            ratio(w.stats.cache_hits as f64, lookups),
        );
        m("cache.evictions", "count", w.stats.cache_evictions as f64);
        // shard + router
        m("shard.legs_per_op", "count", ratio(l.legs as f64, an_ops));
        m(
            "shard.busy_ms_per_op",
            "ms",
            ratio(ms(shard_busy.iter().sum()), an_ops),
        );
        m(
            "shard.busy_max_over_mean",
            "ratio",
            ratio(shard_max, shard_mean),
        );
        m("shard.queue_hwm", "count", w.shard_queue_hwm as f64);
        m(
            "router.gather_wait_ms_p99",
            "ms",
            ms(quantile(&mut l.gather_ns, 0.99)),
        );
        // epoch
        let processed = (w.writer.applied + w.writer.noops) as f64;
        m("epoch.swaps", "count", w.writer.swaps as f64);
        m(
            "epoch.mutations_per_swap",
            "count",
            ratio(processed, w.writer.swaps as f64),
        );
        m("epoch.swap_pause_us_p99", "us", us(swap_p99));
        m("epoch.freshness_lag_ms_p99", "ms", ms(fresh_p99));
        m(
            "epoch.accept_us_p99",
            "us",
            us(quantile(&mut l.accept_ns, 0.99)),
        );
        // core
        let mut core_lat = core_lat;
        m(
            "core.run_workload_ms_p50",
            "ms",
            ms(quantile(&mut core_lat, 0.5)),
        );
        m(
            "core.run_workload_ms_p99",
            "ms",
            ms(quantile(&mut core_lat, 0.99)),
        );
        m("core.share_of_latency", "ratio", core_share);
        // pregel
        let per_run = |v: u64| ratio(v as f64, pg.runs as f64);
        m("pregel.supersteps_per_op", "count", per_run(pg.supersteps));
        m(
            "pregel.us_per_superstep",
            "us",
            ratio(us(pg.wall_ns as f64), pg.supersteps as f64),
        );
        m("pregel.compute_ms_per_op", "ms", ms(per_run(pg.compute_ns)));
        m(
            "pregel.sync_ms_per_op",
            "ms",
            ms(per_run(pg.wall_ns.saturating_sub(pg.compute_ns))),
        );
        m(
            "pregel.barrier_wait_ms_per_op",
            "ms",
            ms(per_run(pg.barrier_ns)),
        );
        m("pregel.messages_sent_per_op", "count", per_run(pg.sent));
        m(
            "pregel.messages_delivered_per_op",
            "count",
            per_run(pg.delivered),
        );
        m(
            "pregel.sender_combined_frac",
            "ratio",
            ratio(pg.combined_sender as f64, pg.sent as f64),
        );
        m("pregel.work_per_op", "count", per_run(pg.work));
        m(
            "pregel.stolen_chunk_frac",
            "ratio",
            ratio(pg.stolen as f64, pg.chunks as f64),
        );
        // graph
        m("graph.generate_s", "s", generate_s);
        m("service.start_s", "s", start_s);
        m(
            "graph.apply_batch_us_per_mutation",
            "us",
            apply_us_per_mutation,
        );
        // harness
        m(
            "bench.gen_lag_ms_p99",
            "ms",
            ms(quantile(&mut l.lag_ns, 0.99)),
        );
        m("bench.backlog_end", "count", l.backlog_end as f64);
        m("bench.trace_overhead_frac", "ratio", overhead);
        // Latency by request kind, in the traced window.
        let (mut point, mut analytics) = (values(&l.point_lat), values(&l.analytics_lat));
        m("point_p50_ms", "ms", ms(quantile(&mut point, 0.5)));
        m("point_p99_ms", "ms", ms(quantile(&mut point, 0.99)));
        m("analytics_p50_ms", "ms", ms(quantile(&mut analytics, 0.5)));
        m("analytics_p99_ms", "ms", ms(quantile(&mut analytics, 0.99)));
        for (workload, name) in CLASS_P50 {
            let class = Op::Analytics { workload, seed: 0 }.class();
            let mut v: Vec<u64> = l
                .analytics_lat
                .iter()
                .filter(|x| x.class == class)
                .map(|x| x.ns)
                .collect();
            m(name, "ms", ms(quantile(&mut v, 0.5)));
        }
        m("write_visible_p99_ms", "ms", ms(visible_p99));
        m("error_frac", "ratio", failed_frac);
        info.push(("traced_requests", l.attempted.to_string()));
    }

    let spans = tracer.map(|t| t.take()).unwrap_or_default();
    if let Some(s) = svc {
        s.shutdown();
    }
    Outcome {
        attempted: plain_attempted,
        failed: plain_failed,
        failures,
        e2e,
        layers,
        info,
        spans,
        trace_overhead_frac: overhead,
    }
}
