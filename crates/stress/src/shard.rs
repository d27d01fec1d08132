//! Shard-local slices of the resident graph and the sharded service built
//! from them.
//!
//! A [`ShardedGraphService`] splits serving across `S` shards at load time.
//! Vertex *ownership* is assigned by the same
//! [`vcgp_pregel::partition::Partitioner`] the engine uses for workers, so
//! the hash/range strategies — and the `VCGP_PARTITIONING` override, which
//! [`crate::service::ServiceConfig::default`] picks up through
//! `PregelConfig::default` — apply to shard placement too.
//!
//! Each shard materializes a **local subgraph**: the out-adjacency of its
//! owned vertices over the full vertex-id space (a directed CSR slice).
//! Owner-routed point lookups (degree / neighbors) are answered from this
//! slice alone, never touching the full graph's CSR. The *structural* full
//! graph is additionally shared by every shard behind one [`Arc`], because
//! each analytics request runs whole — once — on a single shard the router
//! picks from the request's `(workload, seed)` (see [`crate::router`]).
//!
//! Under live mutations the slices are **per-epoch**: every
//! [`EpochSnapshot`] carries one [`ShardSlice`] per shard, and the epoch
//! writer rebuilds them *incrementally* — [`vcgp_graph::splice_slice`]
//! patches only the touched rows of the previous epoch's slice (falling
//! back to a from-scratch rebuild when the delta is large), and the owned
//! count is extended rather than recomputed when the id space grows.
//! Ownership itself is **frozen at start**: the partitioner is
//! total over the whole `u32` id space, so vertices added later still get
//! a deterministic owner and the routing of pinned in-flight requests is
//! never invalidated (vertex removal detaches but never shrinks the id
//! space for the same reason).
//!
//! Each shard runs `R ≥ 1` **replica cores** ([`Core`]: bounded queue,
//! executor pool, striped counters, queue-depth high-water mark) over the
//! *same* epoch-pinned snapshot and shard slice — replicating a hot shard
//! costs queue/executor state, not graph copies. The router picks a
//! replica per dispatch via the configured
//! [`RoutingPolicy`](crate::router::RoutingPolicy); all replicas of a
//! shard share one result cache (keys are replica-agnostic), epoch swaps
//! fan the invalidation out once per shard, and teardown drains then joins
//! every replica core. Per-shard *and* per-replica occupancy is observable
//! ([`ShardedGraphService::shard_snapshots`]).

use crate::cache::{CacheKey, ResultCache};
use crate::epoch::{
    spawn_writer, EpochManager, EpochRebuild, EpochSnapshot, ShardSlice, WriterReport, WriterStats,
};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest};
use crate::router::RoutingPolicy;
use crate::service::{
    execute_on_full_graph, overlay_cache, service_cache, workload_cache_key, CacheInvalidator,
    Core, ExecBackend, ReplicaSeries, ReplicaSnapshot, ServiceConfig, ServiceStats, ShardSnapshot,
    SubmitError, Ticket,
};
use std::time::Instant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use vcgp_core::fingerprint::graph_fingerprint;
use vcgp_graph::rng::mix3;
use vcgp_graph::{apply_batch, splice_slice, ApplyDelta, ApplyStats, Graph, GraphBuilder, Mutation,
    VertexId};
use vcgp_pregel::partition::Partitioner;
use vcgp_pregel::PregelConfig;

/// Domain separator seeding each shard's round-robin replica cursor.
const RR_STREAM: u64 = 0x5252_4F54; // "RROT"

/// Builds shard `shard`'s local subgraph: a directed graph over the full
/// vertex-id space containing exactly the out-arcs of owned vertices (with
/// weights and labels preserved), so owned point lookups answer identically
/// to the full graph.
fn build_local_slice(full: &Graph, partitioner: &Partitioner, shard: usize) -> Graph {
    let n = full.num_vertices();
    let mut b = GraphBuilder::directed(n);
    for v in 0..n as VertexId {
        if partitioner.owner(v) == shard {
            for (t, w) in full.out_edges(v) {
                b.add_weighted_edge(v, t, w);
            }
        }
    }
    if let Some(labels) = full.labels() {
        b.set_labels(labels.to_vec());
    }
    b.build()
}

/// Builds one shard's [`ShardSlice`] from scratch: the local subgraph plus
/// the owned vertex count.
fn build_shard_slice(full: &Graph, partitioner: &Partitioner, shard: usize) -> ShardSlice {
    let owned = (0..full.num_vertices() as VertexId)
        .filter(|&v| partitioner.owner(v) == shard)
        .count();
    ShardSlice {
        local: build_local_slice(full, partitioner, shard),
        owned,
    }
}

/// Rebuilds one shard's slice for the next epoch, incrementally: count
/// the owned vertices among any the batch added (ownership of existing
/// ids is frozen) and splice only the touched rows of the previous slice.
/// Falls back to a from-scratch rebuild when the delta covers more than a
/// quarter of the graph — at that point the splice's row bookkeeping
/// costs more than it saves.
fn rebuild_slice(
    old: &ShardSlice,
    full: &Arc<Graph>,
    delta: &ApplyDelta,
    partitioner: &Partitioner,
    shard: usize,
    old_n: usize,
) -> ShardSlice {
    let owns = |v: VertexId| partitioner.owner(v) == shard;
    let added = (old_n..delta.new_n).filter(|&v| owns(v as VertexId)).count();
    let local = if delta.touched.len() * 4 > full.num_vertices() {
        build_local_slice(full, partitioner, shard)
    } else {
        splice_slice(&old.local, full, &delta.touched, &owns)
    };
    ShardSlice {
        local,
        owned: old.owned + added,
    }
}

/// The epoch-rebuild backend of the sharded service: apply the batch to
/// the full graph (incremental CSR splice), then rebuild each shard's
/// slice incrementally from the previous epoch's.
struct ShardedRebuild {
    partitioner: Partitioner,
    invalidators: Vec<CacheInvalidator>,
}

impl EpochRebuild for ShardedRebuild {
    fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats) {
        let old_n = base.graph.num_vertices();
        let (graph, delta) = apply_batch(&base.graph, batch);
        let graph = Arc::new(graph);
        let locals = base
            .locals
            .iter()
            .enumerate()
            .map(|(s, old)| {
                Arc::new(rebuild_slice(old, &graph, &delta, &self.partitioner, s, old_n))
            })
            .collect();
        (
            EpochSnapshot {
                id: base.id + 1,
                fingerprint: graph_fingerprint(&graph),
                graph,
                locals,
            },
            delta.stats,
        )
    }

    fn invalidate(&self) {
        for inv in &self.invalidators {
            inv.invalidate();
        }
    }
}

/// One shard's execution backend: the pinned epoch's local slice for point
/// lookups, its full structural graph for analytics.
struct ShardBackend {
    shard: usize,
    partitioner: Partitioner,
    /// Epoch-0 fallback for requests without a pinned snapshot (none in
    /// practice: the router stamps every submission).
    base: Arc<EpochSnapshot>,
}

impl ShardBackend {
    fn owns(&self, v: VertexId) -> bool {
        self.partitioner.owner(v) == self.shard
    }
}

impl ExecBackend for ShardBackend {
    fn execute(
        &self,
        req: &QueryRequest,
        engine: &PregelConfig,
    ) -> Result<QueryOutput, QueryError> {
        let snap = req.epoch.as_ref().unwrap_or(&self.base);
        match req.kind {
            // The router owner-routes lookups, so these normally hit the
            // local slice. A misrouted (e.g. directly submitted) lookup of
            // a non-owned vertex falls back to the full graph so the answer
            // stays correct either way.
            QueryKind::Degree(v) => {
                let local = &snap.locals[self.shard].local;
                if (v as usize) >= local.num_vertices() {
                    return Err(QueryError::NoSuchVertex(v));
                }
                let g = if self.owns(v) { local } else { &*snap.graph };
                Ok(QueryOutput::Degree(g.out_degree(v)))
            }
            QueryKind::Neighbors(v) => {
                let local = &snap.locals[self.shard].local;
                if (v as usize) >= local.num_vertices() {
                    return Err(QueryError::NoSuchVertex(v));
                }
                let g = if self.owns(v) { local } else { &*snap.graph };
                Ok(QueryOutput::Neighbors(g.out_neighbors(v).to_vec()))
            }
            // Analytics (run whole on the shard the router picked) and the
            // debug hooks behave exactly like the single-instance service.
            _ => execute_on_full_graph(&snap.graph, &req.kind, req.seed, engine),
        }
    }

    fn cache_key(&self, req: &QueryRequest) -> Option<CacheKey> {
        let snap = req.epoch.as_ref().unwrap_or(&self.base);
        workload_cache_key(&req.kind, req.seed, snap.fingerprint)
    }
}

/// One shard: `R ≥ 1` replica cores over the same slice, the shard-shared
/// result cache, and the round-robin replica cursor.
pub(crate) struct Shard {
    pub(crate) replicas: Vec<Core>,
    /// The result cache shared by every replica core (counters overlaid
    /// once per shard in [`Shard::snapshot`]).
    cache: Option<Arc<ResultCache>>,
    /// Round-robin cursor, seeded per shard so the dispatch sequence is
    /// deterministic for a fixed [`ServiceConfig::seed`].
    next_rr: AtomicU64,
}

impl Shard {
    /// Picks a replica for the next dispatch under `policy`.
    fn pick(&self, policy: RoutingPolicy) -> usize {
        if self.replicas.len() == 1 {
            return 0;
        }
        match policy {
            RoutingPolicy::RoundRobin => {
                (self.next_rr.fetch_add(1, Ordering::Relaxed) % self.replicas.len() as u64) as usize
            }
            RoutingPolicy::LeastLoaded => {
                let mut best = 0usize;
                let mut best_depth = usize::MAX;
                for (r, core) in self.replicas.iter().enumerate() {
                    let depth = core.queue_depth();
                    if depth < best_depth {
                        best = r;
                        best_depth = depth;
                    }
                }
                best
            }
        }
    }

    /// Picks a replica and submits, returning the ticket plus the pick
    /// (echoed in [`crate::request::Route::Routed`]). A shared-cache hit
    /// answers from whichever replica was picked without queueing.
    pub(crate) fn submit(
        &self,
        policy: RoutingPolicy,
        req: QueryRequest,
    ) -> Result<(Ticket, u32), SubmitError> {
        let replica = self.pick(policy);
        Ok((self.replicas[replica].submit(req)?, replica as u32))
    }

    /// Counters folded across replicas (sums; queue high-water marks take
    /// the maximum) with the shard cache's counters overlaid once.
    fn folded_stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        for core in &self.replicas {
            stats.absorb(&core.stats());
        }
        overlay_cache(&mut stats, self.cache.as_deref());
        stats
    }

    /// The shard's report row: folded counters plus one row per replica.
    fn snapshot(&self, shard: usize, owned: usize) -> ShardSnapshot {
        let replicas: Vec<ReplicaSnapshot> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(r, core)| ReplicaSnapshot { replica: r, stats: core.stats() })
            .collect();
        let mut stats = ServiceStats::default();
        for rs in &replicas {
            stats.absorb(&rs.stats);
        }
        overlay_cache(&mut stats, self.cache.as_deref());
        ShardSnapshot { shard, owned, stats, replicas }
    }
}

/// The resident graph served by `S` independent shard cores behind a
/// routing front-end that sends every request to exactly one shard (the
/// routing itself lives in [`crate::router`]), with an optional
/// live-mutation stream installing epoch-versioned snapshots (graph +
/// per-shard slices swap together).
pub struct ShardedGraphService {
    pub(crate) graph: Arc<Graph>,
    pub(crate) partitioner: Partitioner,
    pub(crate) shards: Vec<Shard>,
    /// How the router picks a replica within a shard.
    pub(crate) routing: RoutingPolicy,
    pub(crate) epochs: Arc<EpochManager>,
    /// The epoch writer thread; `None` when the service is read-only.
    writer: Option<JoinHandle<()>>,
}

impl ShardedGraphService {
    /// Splits `graph` into `num_shards` slices — placement strategy is
    /// `config.engine.partitioning` — and spawns
    /// [`ServiceConfig::replicas`] replica [`Core`]s (queue + executor
    /// pool, sized per `config`) per shard, plus the epoch writer thread
    /// when [`ServiceConfig::mutations`] is set.
    pub fn start(graph: Arc<Graph>, config: ServiceConfig, num_shards: usize) -> ShardedGraphService {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(config.replicas >= 1, "need at least one replica per shard");
        let n = graph.num_vertices();
        let partitioner = Partitioner::new(config.engine.partitioning, n, num_shards);
        let locals: Vec<Arc<ShardSlice>> = (0..num_shards)
            .map(|s| Arc::new(build_shard_slice(&graph, &partitioner, s)))
            .collect();
        let epochs = Arc::new(EpochManager::new(
            EpochSnapshot {
                id: 0,
                graph: Arc::clone(&graph),
                fingerprint: graph_fingerprint(&graph),
                locals,
            },
            config.mutations.as_ref(),
        ));
        let base = epochs.current();
        let shards: Vec<Shard> = (0..num_shards)
            .map(|s| {
                let backend: Arc<dyn ExecBackend> = Arc::new(ShardBackend {
                    shard: s,
                    partitioner,
                    base: Arc::clone(&base),
                });
                // ONE cache per shard, shared by every replica core: keys
                // carry no replica identity, so an answer computed on any
                // replica serves the whole shard.
                let cache = service_cache(&config);
                let replicas = (0..config.replicas)
                    .map(|r| {
                        Core::start(
                            Arc::clone(&backend),
                            &config,
                            &format!("shard{s}r{r}"),
                            cache.clone(),
                        )
                    })
                    .collect();
                Shard {
                    replicas,
                    cache,
                    next_rr: AtomicU64::new(mix3(config.seed, s as u64, RR_STREAM)),
                }
            })
            .collect();
        let writer = config.mutations.is_some().then(|| {
            // One invalidator per shard (not per replica): the cache is
            // shard-scoped, so each swap clears it exactly once.
            let invalidators = shards
                .iter()
                .map(|sh| CacheInvalidator::new(sh.cache.clone()))
                .collect();
            spawn_writer(
                Arc::clone(&epochs),
                Box::new(ShardedRebuild {
                    partitioner,
                    invalidators,
                }),
            )
        });
        ShardedGraphService {
            graph,
            partitioner,
            shards,
            routing: config.routing,
            epochs,
            writer,
        }
    }

    /// The initially loaded (epoch 0) graph. Use
    /// [`ShardedGraphService::epoch`] for the currently serving version.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The currently serving epoch snapshot.
    pub fn epoch(&self) -> Arc<EpochSnapshot> {
        self.epochs.current()
    }

    /// Every epoch installed so far (including the initial one), when the
    /// service was started with
    /// [`MutationConfig::keep_history`](crate::epoch::MutationConfig::keep_history);
    /// `None` otherwise. Test instrumentation.
    pub fn epoch_history(&self) -> Option<Vec<Arc<EpochSnapshot>>> {
        self.epochs.history()
    }

    /// Appends one mutation to the bounded write buffer (blocking while it
    /// is full), returning its accept sequence number. The writer applies
    /// batches to the full graph and incrementally rebuilds every shard's
    /// slice into the next epoch. Fails with [`SubmitError::ReadOnly`]
    /// when the service was started without [`ServiceConfig::mutations`].
    pub fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        self.epochs.accept(mutation)
    }

    /// Writer-side counters (epoch id, swaps, accepted/applied/no-op
    /// mutations, backlog).
    pub fn writer_stats(&self) -> WriterStats {
        self.epochs.writer_stats()
    }

    /// Writer counters plus the freshness histograms.
    pub fn writer_report(&self) -> WriterReport {
        self.epochs.writer_report()
    }

    /// Snapshots the writer counters and resets the freshness histograms —
    /// the run-scoping baseline.
    pub fn writer_baseline(&self) -> WriterStats {
        self.epochs.writer_baseline()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replica cores per shard (every shard runs the same count).
    pub fn replicas_per_shard(&self) -> usize {
        self.shards[0].replicas.len()
    }

    /// The shard that owns vertex `v` (total: out-of-range ids still map to
    /// a shard, which answers [`QueryError::NoSuchVertex`]).
    pub fn owner(&self, v: VertexId) -> usize {
        self.partitioner.owner(v).min(self.shards.len() - 1)
    }

    /// Per-shard identity + counters (each with one row per replica), for
    /// the stress report's occupancy and drop columns. Owned counts come
    /// from the serving epoch (they grow when mutations add vertices).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let snap = self.epochs.current();
        self.shards
            .iter()
            .enumerate()
            .map(|(s, sh)| sh.snapshot(s, snap.locals[s].owned))
            .collect()
    }

    /// Counters folded across every shard and replica (high-water marks
    /// take the max; each shard's cache counts once).
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for sh in &self.shards {
            total.absorb(&sh.folded_stats());
        }
        total
    }

    /// Drops every shard's result-cache entries (each shard's replicas
    /// share one cache, so this clears S caches). Fired by the epoch
    /// writer at every swap; also callable directly (a no-op when caching
    /// is disabled).
    pub fn invalidate_cache(&self) {
        for sh in &self.shards {
            if let Some(cache) = &sh.cache {
                cache.invalidate_all();
            }
        }
    }

    /// Stops admissions (requests and mutations) on every replica of every
    /// shard; accepted requests still drain and buffered mutations are
    /// still applied.
    pub fn close(&self) {
        for sh in &self.shards {
            for core in &sh.replicas {
                core.close();
            }
        }
        self.epochs.close();
    }

    /// Closes every replica core and blocks until the writer applied every
    /// accepted mutation and all executors drained (drain-then-join across
    /// the whole replica fleet), returning the folded counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        for sh in &self.shards {
            for core in &sh.replicas {
                core.close();
            }
        }
        let mut total = ServiceStats::default();
        for sh in &mut self.shards {
            let mut stats = ServiceStats::default();
            for core in &mut sh.replicas {
                core.join();
                stats.absorb(&core.stats());
            }
            overlay_cache(&mut stats, sh.cache.as_deref());
            total.absorb(&stats);
        }
        total
    }

    /// Pending requests per shard (summed across the shard's replica
    /// queues).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|sh| sh.replicas.iter().map(Core::queue_depth).sum())
            .collect()
    }

    /// Pending requests per replica queue of one shard (the gauge the
    /// least-loaded policy reads).
    pub fn replica_queue_depths(&self, shard: usize) -> Vec<usize> {
        self.shards[shard].replicas.iter().map(Core::queue_depth).collect()
    }

    /// Resets the service-time recorders of every replica core of every
    /// shard to measure from `origin` with the given interval width.
    pub fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        for sh in &self.shards {
            for core in &sh.replicas {
                core.reset_service_log(origin, interval_ns);
            }
        }
    }

    /// Per-shard, per-replica service-time series since the last reset
    /// (outer index = shard, inner = replica).
    pub fn replica_series(&self) -> Vec<Vec<ReplicaSeries>> {
        self.shards
            .iter()
            .map(|sh| sh.replicas.iter().map(Core::service_series).collect())
            .collect()
    }

    /// Per-tenant admission counters folded across every replica core of
    /// every shard: counts (enqueued/rejected/throttled) sum, queue
    /// high-water marks take the max — same conventions as
    /// [`ServiceStats::absorb`].
    pub fn qos_stats(&self) -> Vec<crate::qos::TenantLaneStats> {
        let mut folded: Vec<crate::qos::TenantLaneStats> = Vec::new();
        for sh in &self.shards {
            for core in &sh.replicas {
                for lane in core.qos_stats() {
                    if folded.len() <= lane.tenant {
                        folded.resize(lane.tenant + 1, Default::default());
                        folded[lane.tenant].tenant = lane.tenant;
                    }
                    let f = &mut folded[lane.tenant];
                    f.enqueued += lane.enqueued;
                    f.rejected += lane.rejected;
                    f.throttled += lane.throttled;
                    f.queue_hwm = f.queue_hwm.max(lane.queue_hwm);
                }
            }
        }
        folded
    }
}

impl Drop for ShardedGraphService {
    fn drop(&mut self) {
        // Stop and join the writer before the cores' own Drops close the
        // queues — a detached writer blocked on the write buffer would
        // leak its thread.
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::mutation_op;
    use vcgp_graph::generators;
    use vcgp_pregel::partition::Partitioning;

    #[test]
    fn local_slice_preserves_owned_adjacency() {
        let g = generators::gnm_connected(40, 90, 11);
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, g.num_vertices(), 3);
            for s in 0..3 {
                let local = build_local_slice(&g, &p, s);
                assert_eq!(local.num_vertices(), g.num_vertices());
                for v in 0..g.num_vertices() as VertexId {
                    if p.owner(v) == s {
                        assert_eq!(local.out_neighbors(v), g.out_neighbors(v), "v={v}");
                        assert_eq!(local.out_weights(v), g.out_weights(v), "v={v}");
                    } else {
                        assert!(local.out_neighbors(v).is_empty(), "v={v} not owned");
                    }
                }
            }
        }
    }

    #[test]
    fn every_vertex_owned_by_exactly_one_shard() {
        let g = generators::gnm_connected(33, 70, 5);
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, g.num_vertices(), 4);
            let mut owned = vec![0usize; g.num_vertices()];
            for s in 0..4 {
                for v in 0..g.num_vertices() as VertexId {
                    if p.owner(v) == s {
                        owned[v as usize] += 1;
                    }
                }
            }
            assert!(owned.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn incremental_slice_rebuild_matches_from_scratch() {
        let g = generators::gnm_connected(48, 100, 9);
        let old_n = g.num_vertices();
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, old_n, 3);
            let slices: Vec<ShardSlice> = (0..3).map(|s| build_shard_slice(&g, &p, s)).collect();
            let batch: Vec<Mutation> = (0..16).map(|i| mutation_op(13, i, old_n)).collect();
            let (new_full, delta) = apply_batch(&g, &batch);
            let new_full = Arc::new(new_full);
            for (s, old_slice) in slices.iter().enumerate() {
                let inc = rebuild_slice(old_slice, &new_full, &delta, &p, s, old_n);
                let scratch = build_shard_slice(&new_full, &p, s);
                assert_eq!(inc.local, scratch.local, "strategy {strategy:?} shard {s}");
                assert_eq!(inc.owned, scratch.owned, "strategy {strategy:?} shard {s}");
            }
        }
    }
}
