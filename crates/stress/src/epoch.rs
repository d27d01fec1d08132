//! Epoch-versioned graph snapshots: the live-mutation subsystem.
//!
//! Production graphs are not static. This module turns the frozen serving
//! stack into a *multi-version* one: the resident graph becomes a sequence
//! of immutable [`EpochSnapshot`]s with monotonically increasing epoch ids.
//! Queries pin the current snapshot at submission and run against it to
//! completion — even while a writer is already installing the next epoch —
//! so every answer is internally consistent with exactly one version of the
//! graph (*snapshot isolation*).
//!
//! Writes flow through the [`EpochManager`]:
//!
//! * [`EpochManager::accept`] appends a [`Mutation`] to a **bounded write
//!   buffer** (backpressure when full, like the query queue under
//!   [`crate::service::QueueFullPolicy::Block`]);
//! * a dedicated writer thread drains the buffer in batches (at most
//!   [`MutationConfig::max_batch`] per epoch), builds epoch *N+1* off the
//!   serving path via an [`EpochRebuild`] backend (incremental CSR splice —
//!   see [`vcgp_graph::apply_batch`] / [`vcgp_graph::splice_slice`] — not a
//!   from-scratch rebuild when the delta is small), then **swaps
//!   atomically** and fires the result-cache invalidation hook;
//! * in-flight queries keep serving from their pinned epoch; new
//!   submissions pick up the fresh one. Old snapshots die when the last
//!   pinned request drops its `Arc`.
//!
//! Replicated shards change nothing about versioning: every replica core of
//! a shard serves the same `Arc<EpochSnapshot>` and shard slice, a swap
//! installs the new snapshot once per *shard* (replicas observe it through
//! the shared pointer, never one replica at a time), and the invalidation
//! hook fires once per shard cache — replicas share that cache, so there is
//! no per-replica staleness window for the routing policy to expose.
//!
//! Cache correctness is belt *and* suspenders: every epoch recomputes the
//! order-independent graph fingerprint, so a stale entry can never
//! alias a new epoch's answer even without invalidation — the invalidation
//! at swap (the hook `cache.rs` reserved for exactly this) just stops dead
//! entries from pinning capacity.
//!
//! Freshness is measured, not assumed: the manager keeps mergeable
//! log-bucketed histograms of the **swap pause** (the serving-visible
//! window: pointer swap + cache invalidation; the rebuild itself happens
//! before, off the serving path), the **write-apply latency** (accept →
//! installed, per mutation), and the **freshness lag** (how stale the
//! serving epoch is relative to the newest accepted mutation, sampled at
//! each swap). [`EpochManager::writer_baseline`] snapshots the counters and
//! resets the histograms atomically, so the stress driver's `--repeat`
//! passes each report exactly their own run.
//!
//! The seeded mutation stream ([`mutation_op`]) is a pure
//! `(seed, index) → Mutation` function like the query mix, so a fixed seed
//! reproduces the exact write sequence regardless of client interleaving.

use crate::service::SubmitError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_graph::rng::mix3;
use vcgp_graph::{ApplyStats, Graph, Mutation, SplitMix64, VertexId};
use vcgp_testkit::LogHistogram;

/// Domain separator for the mutation stream.
pub const MUT_STREAM: u64 = 0x4D55_5453; // "MUTS"

/// One shard's slice of an epoch: the local subgraph the shard answers
/// point lookups from. Immutable once built, shared via [`Arc`].
#[derive(Debug)]
pub struct ShardSlice {
    /// The shard-local directed CSR slice (owned out-adjacency over the
    /// full vertex-id space).
    pub local: Graph,
    /// Vertices this shard owns in this epoch.
    pub owned: usize,
}

/// One immutable version of the resident graph. Queries pin the snapshot
/// current at submission; the writer installs successors with `id + 1`.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Monotone epoch id (0 = the initially loaded graph).
    pub id: u64,
    /// The full structural graph of this epoch.
    pub graph: Arc<Graph>,
    /// Order-independent structural fingerprint of `graph` (the whole-
    /// answer cache identity of this epoch).
    pub fingerprint: u64,
    /// Per-shard slices (empty for the single-instance service, which
    /// serves everything from `graph`).
    pub locals: Vec<Arc<ShardSlice>>,
}

/// Tuning knobs of the mutation subsystem. Present in
/// [`crate::service::ServiceConfig::mutations`] — `None` keeps the service
/// read-only (the pre-epoch behavior, with zero write-path overhead beyond
/// an `Arc` clone per submit).
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Write-buffer capacity; at this many pending mutations
    /// [`EpochManager::accept`] blocks the writer client (backpressure).
    pub write_buffer: usize,
    /// Most mutations drained into a single epoch rebuild. Small batches
    /// bound freshness lag; large ones amortize the rebuild.
    pub max_batch: usize,
    /// Retain every installed snapshot (epoch 0 included) for
    /// [`EpochManager::history`]. Test instrumentation — unbounded, so
    /// keep it off outside tests.
    pub keep_history: bool,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            write_buffer: 1024,
            max_batch: 64,
            keep_history: false,
        }
    }
}

/// Writer-side counters (monotone except the gauges; read with
/// [`EpochManager::writer_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Id of the epoch currently serving (a gauge).
    pub epoch: u64,
    /// Epoch swaps installed.
    pub swaps: u64,
    /// Mutations accepted into the write buffer.
    pub accepted: u64,
    /// Mutations that changed the graph when applied.
    pub applied: u64,
    /// Mutations that were guard-rejected no-ops (duplicate insert,
    /// delete-of-missing, self-loop, reweight on an unweighted graph, …).
    pub noops: u64,
    /// Accepted mutations not yet installed in a serving epoch (a gauge:
    /// buffer backlog plus any batch mid-rebuild).
    pub pending: u64,
}

impl WriterStats {
    /// The counters accumulated *since* `earlier` (monotone counters
    /// subtract; the `epoch` and `pending` gauges keep their current
    /// values). The writer-side analogue of
    /// [`crate::service::ServiceStats::delta_since`], so `--repeat` passes
    /// don't double-count mutations.
    pub fn delta_since(&self, earlier: &WriterStats) -> WriterStats {
        WriterStats {
            epoch: self.epoch,
            swaps: self.swaps - earlier.swaps,
            accepted: self.accepted - earlier.accepted,
            applied: self.applied - earlier.applied,
            noops: self.noops - earlier.noops,
            pending: self.pending,
        }
    }
}

/// Counters plus the freshness histograms, as reported to the stress
/// driver. Histogram counts tie to the counters by construction:
/// `swap_pause.count() == stats.swaps == freshness_lag.count()` and
/// `write_apply.count() == stats.applied + stats.noops` (both are updated
/// under one lock, and [`EpochManager::writer_baseline`] resets them under
/// the same lock).
#[derive(Debug, Clone, Default)]
pub struct WriterReport {
    /// The counter snapshot.
    pub stats: WriterStats,
    /// Serving-visible pause per swap in nanoseconds: atomic pointer swap
    /// plus cache invalidation (the rebuild runs before, off the serving
    /// path).
    pub swap_pause: LogHistogram,
    /// Accept → installed latency per mutation, in nanoseconds.
    pub write_apply: LogHistogram,
    /// Staleness of the just-installed epoch at each swap, in nanoseconds:
    /// age of the oldest still-pending accept if a backlog remains, else
    /// age of the newest mutation the swap installed.
    pub freshness_lag: LogHistogram,
}

/// A mutation waiting in the write buffer, stamped with its accept time so
/// apply latency and freshness lag are measurable.
struct PendingWrite {
    mutation: Mutation,
    accepted_at: Instant,
}

struct WriteQueue {
    pending: VecDeque<PendingWrite>,
    closed: bool,
}

/// Counters and histograms that must move together: updated and reset
/// under one lock so the histogram-count identities in [`WriterReport`]
/// hold at every observable instant.
#[derive(Default)]
struct WriterProgress {
    swaps: u64,
    applied: u64,
    noops: u64,
    swap_pause: LogHistogram,
    write_apply: LogHistogram,
    freshness_lag: LogHistogram,
}

/// The multi-version state of a service: the current [`EpochSnapshot`]
/// plus, when mutations are enabled, the bounded write buffer the writer
/// thread drains. Shared between submitters (pin + accept), executors
/// (through pinned requests), and the writer (drain + swap).
pub struct EpochManager {
    current: Mutex<Arc<EpochSnapshot>>,
    /// `current.id` mirrored outside the lock, so stats never nest the
    /// snapshot lock under the progress lock.
    epoch_id: AtomicU64,
    writable: bool,
    queue: Mutex<WriteQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    max_batch: usize,
    accepted: AtomicU64,
    progress: Mutex<WriterProgress>,
    /// Every installed snapshot, oldest first (epoch 0 included), when
    /// [`MutationConfig::keep_history`] is set.
    history: Option<Mutex<Vec<Arc<EpochSnapshot>>>>,
}

impl EpochManager {
    /// Wraps `initial` as the serving epoch. With `mutations: None` the
    /// manager is read-only: [`EpochManager::accept`] fails with
    /// [`SubmitError::ReadOnly`] and no write buffer exists.
    pub(crate) fn new(initial: EpochSnapshot, mutations: Option<&MutationConfig>) -> EpochManager {
        let initial = Arc::new(initial);
        let history = mutations
            .filter(|m| m.keep_history)
            .map(|_| Mutex::new(vec![Arc::clone(&initial)]));
        EpochManager {
            epoch_id: AtomicU64::new(initial.id),
            current: Mutex::new(initial),
            writable: mutations.is_some(),
            queue: Mutex::new(WriteQueue {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: mutations.map_or(0, |m| m.write_buffer.max(1)),
            max_batch: mutations.map_or(1, |m| m.max_batch.max(1)),
            accepted: AtomicU64::new(0),
            progress: Mutex::new(WriterProgress::default()),
            history,
        }
    }

    /// The snapshot new submissions should pin.
    pub fn current(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// The serving epoch id (lock-free).
    pub fn epoch_id(&self) -> u64 {
        self.epoch_id.load(Ordering::Acquire)
    }

    /// Every installed snapshot, oldest first — `None` unless
    /// [`MutationConfig::keep_history`] was set.
    pub fn history(&self) -> Option<Vec<Arc<EpochSnapshot>>> {
        self.history.as_ref().map(|h| h.lock().unwrap().clone())
    }

    /// Appends one mutation to the write buffer, blocking while it is at
    /// capacity (write backpressure). Returns the mutation's 1-based
    /// accept sequence number. Fails with [`SubmitError::ReadOnly`] when
    /// the service was started without a [`MutationConfig`], and
    /// [`SubmitError::Closed`] once the service is shut down.
    pub fn accept(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        if !self.writable {
            return Err(SubmitError::ReadOnly);
        }
        let mut queue = self.queue.lock().unwrap();
        loop {
            if queue.closed {
                return Err(SubmitError::Closed);
            }
            if queue.pending.len() < self.capacity {
                queue.pending.push_back(PendingWrite {
                    mutation,
                    accepted_at: Instant::now(),
                });
                drop(queue);
                let seq = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
                self.not_empty.notify_one();
                return Ok(seq);
            }
            queue = self.not_full.wait(queue).unwrap();
        }
    }

    /// Stops accepting mutations. The writer thread drains what was
    /// already accepted (installing final epochs) and then exits.
    pub fn close(&self) {
        let mut queue = self.queue.lock().unwrap();
        queue.closed = true;
        drop(queue);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// A snapshot of the writer counters.
    pub fn writer_stats(&self) -> WriterStats {
        let progress = self.progress.lock().unwrap();
        self.stats_locked(&progress)
    }

    /// Counters plus the freshness histograms.
    pub fn writer_report(&self) -> WriterReport {
        let progress = self.progress.lock().unwrap();
        WriterReport {
            stats: self.stats_locked(&progress),
            swap_pause: progress.swap_pause.clone(),
            write_apply: progress.write_apply.clone(),
            freshness_lag: progress.freshness_lag.clone(),
        }
    }

    /// Snapshots the counters **and resets the histograms** in one atomic
    /// step, so a driver run that starts from this baseline reports
    /// exactly its own swaps/applies in both the counter deltas and the
    /// histograms (log-bucketed histograms merge but cannot subtract).
    pub fn writer_baseline(&self) -> WriterStats {
        let mut progress = self.progress.lock().unwrap();
        let stats = self.stats_locked(&progress);
        progress.swap_pause = LogHistogram::new();
        progress.write_apply = LogHistogram::new();
        progress.freshness_lag = LogHistogram::new();
        stats
    }

    fn stats_locked(&self, progress: &WriterProgress) -> WriterStats {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let processed = progress.applied + progress.noops;
        WriterStats {
            epoch: self.epoch_id(),
            swaps: progress.swaps,
            accepted,
            applied: progress.applied,
            noops: progress.noops,
            // Backlog gauge; `accepted` is read after the progress lock is
            // held, so a racing accept can only make this larger, never
            // negative.
            pending: accepted.saturating_sub(processed),
        }
    }

    /// Blocks until at least one mutation is buffered, then drains up to
    /// `max_batch` of them. `None` once the queue is closed *and* empty —
    /// the writer's exit signal (close-then-drain, like the query queues).
    fn drain_batch(&self) -> Option<Vec<PendingWrite>> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if !queue.pending.is_empty() {
                let take = queue.pending.len().min(self.max_batch);
                let batch: Vec<PendingWrite> = queue.pending.drain(..take).collect();
                drop(queue);
                self.not_full.notify_all();
                return Some(batch);
            }
            if queue.closed {
                return None;
            }
            queue = self.not_empty.wait(queue).unwrap();
        }
    }

    /// Installs `snap` as the serving epoch and records the swap metrics.
    fn install(&self, snap: Arc<EpochSnapshot>, stats: ApplyStats, batch: &[PendingWrite]) {
        // The serving-visible pause: everything between "epoch N answers
        // submissions" and "epoch N+1 answers submissions with a cold
        // cache". The rebuild already happened, off the serving path.
        let t0 = Instant::now();
        {
            let mut current = self.current.lock().unwrap();
            *current = Arc::clone(&snap);
        }
        self.epoch_id.store(snap.id, Ordering::Release);
        let pause = t0.elapsed();
        let now = Instant::now();
        // Freshness lag of the new epoch: if a backlog remains, the oldest
        // still-pending accept bounds how stale serving still is; else the
        // newest mutation this swap installed.
        let lag = {
            let queue = self.queue.lock().unwrap();
            match queue.pending.front() {
                Some(w) => now.saturating_duration_since(w.accepted_at),
                None => batch
                    .last()
                    .map_or(Duration::ZERO, |w| now.saturating_duration_since(w.accepted_at)),
            }
        };
        {
            let mut progress = self.progress.lock().unwrap();
            progress.swaps += 1;
            progress.applied += stats.applied;
            progress.noops += stats.noops;
            progress.swap_pause.record(pause.as_nanos() as u64);
            progress.freshness_lag.record(lag.as_nanos() as u64);
            for w in batch {
                progress
                    .write_apply
                    .record(now.saturating_duration_since(w.accepted_at).as_nanos() as u64);
            }
        }
        if let Some(history) = &self.history {
            history.lock().unwrap().push(snap);
        }
    }
}

/// How the writer thread turns (base epoch, mutation batch) into the next
/// epoch. Implemented over the full graph by [`crate::service::GraphService`]
/// and with incremental per-shard slice rebuilds by
/// [`crate::shard::ShardedGraphService`].
pub(crate) trait EpochRebuild: Send + 'static {
    /// Builds epoch `base.id + 1` (graph, fingerprints, shard slices) from
    /// `base` with `batch` applied. Runs off the serving path.
    fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats);
    /// Fires the result-cache invalidation on every core, after the swap.
    fn invalidate(&self);
}

/// Spawns the writer thread: drain a batch, rebuild the next epoch, swap,
/// invalidate caches, repeat; exits once the manager is closed and the
/// buffer is drained (so no accepted mutation is ever lost).
pub(crate) fn spawn_writer(
    manager: Arc<EpochManager>,
    rebuild: Box<dyn EpochRebuild>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("vcgp-epoch-writer".to_string())
        .spawn(move || {
            while let Some(batch) = manager.drain_batch() {
                let base = manager.current();
                let mutations: Vec<Mutation> = batch.iter().map(|w| w.mutation).collect();
                let (mut snap, stats) = rebuild.rebuild(&base, &mutations);
                snap.id = base.id + 1;
                manager.install(Arc::new(snap), stats, &batch);
                // Invalidate *after* the swap: entries inserted for the old
                // epoch between swap and invalidation are keyed by the old
                // fingerprint and unreachable from new submissions anyway.
                rebuild.invalidate();
            }
        })
        .expect("spawn epoch writer")
}

/// The seeded mutation stream: the operation at `index` in the write run
/// seeded by `seed`, as a pure function (the write-side analogue of
/// [`crate::mix::Mix::op`]). Vertex ids are drawn from `[0, base_n)` — the
/// *initial* vertex-id space, so the stream is independent of how many
/// vertices earlier mutations added.
///
/// The mix: 45 % edge inserts (unit weight, never a self-loop), 25 %
/// rank-addressed edge deletes ([`Mutation::DeleteEdgeAt`] resolves the
/// rank against the live adjacency, so deletes hit existing edges instead
/// of missing ~everything on a sparse graph), 15 % rank-addressed
/// reweights (guard-rejected no-ops on unweighted graphs), 10 % vertex
/// adds, 5 % vertex removals (detach: the id space never shrinks, so
/// pinned epochs and the frozen partitioner stay valid).
pub fn mutation_op(seed: u64, index: u64, base_n: usize) -> Mutation {
    assert!(base_n >= 2, "mutation stream needs at least two vertices");
    let mut rng = SplitMix64::new(mix3(seed, index, MUT_STREAM));
    let roll = rng.next_below(100);
    let u = rng.next_index(base_n) as VertexId;
    if roll < 45 {
        let v = ((u as usize + 1 + rng.next_index(base_n - 1)) % base_n) as VertexId;
        Mutation::InsertEdge { u, v, w: 1.0 }
    } else if roll < 70 {
        Mutation::DeleteEdgeAt {
            u,
            rank: rng.next_below(1 << 20) as u32,
        }
    } else if roll < 85 {
        Mutation::ReweightAt {
            u,
            rank: rng.next_below(1 << 20) as u32,
            w: 0.5 + rng.next_f64() * 4.0,
        }
    } else if roll < 95 {
        Mutation::AddVertex {
            label: rng.next_below(8) as u32,
        }
    } else {
        Mutation::RemoveVertex { v: u }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    fn snapshot(graph: Graph, id: u64) -> EpochSnapshot {
        let fingerprint = vcgp_core::fingerprint::graph_fingerprint(&graph);
        EpochSnapshot {
            id,
            graph: Arc::new(graph),
            fingerprint,
            locals: Vec::new(),
        }
    }

    #[test]
    fn mutation_op_is_a_pure_function() {
        for i in 0..200 {
            assert_eq!(mutation_op(7, i, 64), mutation_op(7, i, 64), "index {i}");
        }
        let a: Vec<Mutation> = (0..64).map(|i| mutation_op(1, i, 64)).collect();
        let b: Vec<Mutation> = (0..64).map(|i| mutation_op(2, i, 64)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mutation_op_never_emits_a_self_loop_insert() {
        for i in 0..2000 {
            if let Mutation::InsertEdge { u, v, .. } = mutation_op(11, i, 16) {
                assert_ne!(u, v, "index {i}");
                assert!((u as usize) < 16 && (v as usize) < 16);
            }
        }
    }

    #[test]
    fn read_only_manager_rejects_writes() {
        let g = generators::gnm_connected(8, 10, 3);
        let mgr = EpochManager::new(snapshot(g, 0), None);
        assert_eq!(
            mgr.accept(Mutation::AddVertex { label: 0 }),
            Err(SubmitError::ReadOnly)
        );
        assert_eq!(mgr.epoch_id(), 0);
        assert_eq!(mgr.writer_stats(), WriterStats::default());
        assert!(mgr.history().is_none());
    }

    #[test]
    fn accept_sequences_and_close_rejects() {
        let g = generators::gnm_connected(8, 10, 3);
        let mgr = EpochManager::new(snapshot(g, 0), Some(&MutationConfig::default()));
        assert_eq!(mgr.accept(Mutation::AddVertex { label: 0 }), Ok(1));
        assert_eq!(mgr.accept(Mutation::AddVertex { label: 1 }), Ok(2));
        let stats = mgr.writer_stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.pending, 2);
        mgr.close();
        assert_eq!(
            mgr.accept(Mutation::AddVertex { label: 2 }),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn writer_thread_installs_monotone_epochs_and_drains_on_close() {
        struct Rebuild;
        impl EpochRebuild for Rebuild {
            fn rebuild(
                &self,
                base: &EpochSnapshot,
                batch: &[Mutation],
            ) -> (EpochSnapshot, ApplyStats) {
                let (g, delta) = vcgp_graph::apply_batch(&base.graph, batch);
                (snapshot(g, base.id + 1), delta.stats)
            }
            fn invalidate(&self) {}
        }
        let g = generators::gnm_connected(16, 30, 5);
        let cfg = MutationConfig {
            max_batch: 2,
            keep_history: true,
            ..MutationConfig::default()
        };
        let mgr = Arc::new(EpochManager::new(snapshot(g, 0), Some(&cfg)));
        let writer = spawn_writer(Arc::clone(&mgr), Box::new(Rebuild));
        for i in 0..5 {
            mgr.accept(Mutation::AddVertex { label: i }).unwrap();
        }
        mgr.close();
        writer.join().unwrap();
        let stats = mgr.writer_stats();
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.applied, 5);
        assert_eq!(stats.noops, 0);
        assert_eq!(stats.pending, 0);
        assert!(stats.swaps >= 3, "max_batch 2 needs ≥ 3 swaps for 5 writes");
        assert_eq!(stats.epoch, stats.swaps);
        assert_eq!(mgr.current().graph.num_vertices(), 16 + 5);
        // History: monotone ids from 0, one entry per installed epoch.
        let history = mgr.history().unwrap();
        assert_eq!(history.len() as u64, stats.swaps + 1);
        for (i, snap) in history.iter().enumerate() {
            assert_eq!(snap.id, i as u64);
        }
        // Histogram counts tie to the counters (recorded under one lock).
        let report = mgr.writer_report();
        assert_eq!(report.swap_pause.count(), stats.swaps);
        assert_eq!(report.freshness_lag.count(), stats.swaps);
        assert_eq!(report.write_apply.count(), stats.applied + stats.noops);
    }

    #[test]
    fn baseline_scopes_counters_and_resets_histograms() {
        struct Rebuild;
        impl EpochRebuild for Rebuild {
            fn rebuild(
                &self,
                base: &EpochSnapshot,
                batch: &[Mutation],
            ) -> (EpochSnapshot, ApplyStats) {
                let (g, delta) = vcgp_graph::apply_batch(&base.graph, batch);
                (snapshot(g, base.id + 1), delta.stats)
            }
            fn invalidate(&self) {}
        }
        let g = generators::gnm_connected(16, 30, 5);
        let mgr = Arc::new(EpochManager::new(
            snapshot(g, 0),
            Some(&MutationConfig::default()),
        ));
        let writer = spawn_writer(Arc::clone(&mgr), Box::new(Rebuild));
        mgr.accept(Mutation::AddVertex { label: 0 }).unwrap();
        // Wait for the first run's write to be installed.
        while mgr.writer_stats().pending > 0 {
            std::thread::yield_now();
        }
        let base = mgr.writer_baseline();
        assert_eq!(base.accepted, 1);
        assert!(mgr.writer_report().write_apply.is_empty(), "baseline resets");
        mgr.accept(Mutation::AddVertex { label: 1 }).unwrap();
        mgr.accept(Mutation::AddVertex { label: 2 }).unwrap();
        mgr.close();
        writer.join().unwrap();
        let delta = mgr.writer_stats().delta_since(&base);
        assert_eq!(delta.accepted, 2, "second run scoped to its own writes");
        assert_eq!(delta.applied, 2);
        let report = mgr.writer_report();
        assert_eq!(report.write_apply.count(), delta.applied + delta.noops);
        assert_eq!(report.swap_pause.count(), delta.swaps);
    }
}
