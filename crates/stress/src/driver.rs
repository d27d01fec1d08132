//! The load driver: client threads issuing a deterministic, seeded
//! operation stream against a [`StressTarget`] (the single-instance
//! [`GraphService`](crate::service::GraphService) or the sharded service),
//! paced by a token bucket (or unthrottled), recording latencies into
//! mergeable log-bucketed histograms.
//!
//! **Scenarios.** Every run is a [`Scenario`]: an ordered list of phases
//! (warmup / measure / cooldown), each with its own stop criterion
//! (duration and/or op count), client count, target rate, and compiled op
//! mix ([`crate::scenario::PhaseMix`]). The legacy entry point [`run`]
//! desugars a preset [`Mix`] + [`DriverConfig`] into a one-phase scenario
//! via [`Scenario::from_legacy`] — the desugaring reproduces the historical
//! op stream bit for bit, so the preset CLI surface is unchanged behavior
//! expressed through the scenario engine.
//!
//! **Interval logs.** Each phase's latency samples are additionally
//! bucketed by completion time into an [`IntervalSeries`] (striped per
//! client thread, merged exactly at the end), and the service side keeps
//! per-replica service-time series scoped to the run. Interval sums fold
//! *exactly* to the end-of-run histograms — `--validate-report` checks the
//! identity.
//!
//! **Coordinated omission.** When a rate is configured, each operation has
//! an *intended* start time on the fixed schedule `i · interval` and its
//! latency is measured from that intended time — so a stalled server is
//! charged for the operations that queued up behind the stall, not silently
//! excused. The separate service-time histogram measures execution only.
//!
//! **Sharding visibility.** Clients count routed dispatches from each
//! response's [`Route`]; at the end of the run the target's per-shard
//! snapshots contribute occupancy (queue high-water marks), rejects, early
//! drops, and result-cache hit counts to the report — plus one row per
//! replica core (completed, queue high-water mark, executor busy time, and
//! the measured service-time histogram with its interval series), so a
//! replicated hot shard's load split is visible directly.
//!
//! **Run scoping.** Service counters are monotone for the process, but one
//! process can host several driver runs (the bin's `--repeat`, the cache
//! warm/hot comparison in `scripts/verify.sh`). The driver snapshots the
//! per-shard counters before spawning clients and reports the *delta*, and
//! resets the service-time recorders at the run origin, so every report
//! describes exactly its own run; gauges (queue high-water mark, cache
//! resident bytes) keep their end-of-run values.
//!
//! **Answer hashing.** Each client folds every successful payload into an
//! order-independent 64-bit `answer_hash` (XOR of per-operation mixes), so
//! two runs of the same seeded scenario can be checked for *bit-identical
//! answers* — not just matching counts — from the reports alone. Phase
//! hashes XOR to the run hash.

use crate::epoch::{mutation_op, WriterReport};
use crate::interval::IntervalSeries;
use crate::mix::Mix;
use crate::qos::TenantSpec;
use crate::rate::TokenBucket;
use crate::request::{QueryError, QueryOutput, QueryRequest, Route};
use crate::router::StressTarget;
use crate::scenario::{Phase, RateSpec, Scenario, SloStop};
use crate::service::{ReplicaSeries, ReplicaSnapshot, ShardSnapshot, SubmitError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vcgp_graph::rng::mix3;
use vcgp_testkit::bench::json_escape;
use vcgp_testkit::LogHistogram;

/// Domain separator for per-request workload seeds.
const REQ_STREAM: u64 = 0x5245_5153; // "REQS"

/// Domain separator for the answer-hash fold.
const ANS_STREAM: u64 = 0x414E_5348; // "ANSH"

/// Domain separator for per-tenant op streams. Tenant 0 keeps the phase's
/// base seeds *unchanged* — a single-tenant run draws exactly the pre-QoS
/// stream — while tenant `t > 0` derives independent seeds, so each
/// tenant's operation sequence is a pure function of `(phase seed, t,
/// index)` no matter how many clients drive it or how they interleave.
const TENANT_STREAM: u64 = 0x544E_5354; // "TNST"

/// Hashes one successful payload, mixed with the operation id so identical
/// payloads at different stream positions stay distinguishable. XOR-folding
/// these per-operation mixes is order-independent, so the aggregate hash is
/// stable no matter how operations interleave across client threads.
fn output_hash(id: u64, out: &QueryOutput) -> u64 {
    let payload = match out {
        QueryOutput::Workload { answer, .. } => mix3(1, *answer, 0),
        QueryOutput::Degree(d) => mix3(5, *d as u64, 0),
        // Neighbor lists are order-significant (CSR order), so chain rather
        // than fold commutatively.
        QueryOutput::Neighbors(ns) => ns
            .iter()
            .fold(mix3(6, ns.len() as u64, 0), |acc, &v| {
                mix3(acc, u64::from(v), 0)
            }),
        QueryOutput::Slept => mix3(7, 0, 0),
    };
    mix3(id, payload, ANS_STREAM)
}

/// Driver settings for the legacy preset entry point ([`run`]). A scenario
/// file supersedes all of this; [`Scenario::from_legacy`] maps these fields
/// onto a one-phase scenario.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Concurrent client threads (each submits and waits synchronously).
    pub clients: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Optional hard cap on issued operations (useful for exact-count
    /// deterministic runs in tests).
    pub ops_limit: Option<u64>,
    /// Target operation rate in ops/s; `None` = unthrottled max throughput.
    pub rate: Option<f64>,
    /// Token-bucket burst allowance when paced.
    pub burst: u32,
    /// Seed of the operation stream.
    pub seed: u64,
    /// Per-attempt timeout stamped on every request.
    pub timeout: Duration,
    /// Fraction of stream indices that issue a mutation instead of a query
    /// (0.0 = pure reads — bit-identical to a run without any write path).
    /// The decision is a pure function of `(mutation_seed, index)`, so a
    /// fixed seed pair reproduces the exact read/write interleaving.
    pub write_ratio: f64,
    /// Seed of the mutation stream (both the write decision and the
    /// mutation drawn; independent of the query-mix seed so read and write
    /// streams can be varied separately).
    pub mutation_seed: u64,
    /// Width of the interval-log slots.
    pub interval: Duration,
    /// Tenant count for the QoS admission stage. Clients split round-robin
    /// across tenants; 1 (the default) is a single default tenant —
    /// bit-identical to the pre-QoS driver and service.
    pub tenants: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            clients: 4,
            duration: Duration::from_secs(2),
            ops_limit: None,
            rate: None,
            burst: 1,
            seed: 7,
            timeout: Duration::from_secs(5),
            write_ratio: 0.0,
            mutation_seed: 11,
            interval: Duration::from_secs(1),
            tenants: 1,
        }
    }
}

/// One phase's aggregated measurements within a [`StressReport`]. The
/// run-level counters are the exact fold of the phase counters (sums /
/// histogram merges / XOR for the answer hash) — an identity
/// `--validate-report` checks.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name from the scenario.
    pub name: String,
    /// Client threads the phase ran.
    pub clients: usize,
    /// Configured rate (`None` = unthrottled).
    pub rate: Option<f64>,
    /// Phase start, seconds after the run origin.
    pub start_s: f64,
    /// Wall-clock time the phase took.
    pub elapsed: Duration,
    /// Operations completed (ok + errored; writes counted apart).
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Errors that were precondition rejections (subset of `errors`).
    pub unsupported: u64,
    /// Operations that exhausted their attempts (subset of `errors`).
    pub timeouts: u64,
    /// Retry attempts beyond each operation's first.
    pub retries: u64,
    /// Operations routed to a single shard.
    pub routed: u64,
    /// Mutations accepted into the write buffer.
    pub writes: u64,
    /// Mutations refused at submission.
    pub write_errors: u64,
    /// XOR fold of this phase's successful payloads.
    pub answer_hash: u64,
    /// End-to-end latency (coordinated-omission-corrected when paced).
    pub latency: LogHistogram,
    /// Pure execution time reported per response.
    pub service_time: LogHistogram,
    /// Client-observed accept latency of successful mutation submissions.
    pub write_accept: LogHistogram,
    /// The phase's latency samples bucketed by completion time (relative
    /// to the phase start); folds exactly to `latency`, and its ok/error
    /// sums equal the phase counters.
    pub intervals: IntervalSeries,
}

/// Per-tenant accounting of one run. Always present — a single-tenant run
/// reports one row whose counters equal the run totals. The per-tenant
/// counters fold exactly into the run counters (`--validate-report`
/// identities): Σ ops == run ops, Σ ok == run ok, Σ rejects == run
/// rejects, XOR of the answer hashes == run answer hash, and each row's
/// latency count == its ops.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id (the row's lane index on every core).
    pub tenant: usize,
    /// Configured weighted-fair share.
    pub weight: u64,
    /// Configured admission-bucket rate (`None` = unlimited).
    pub rate: Option<f64>,
    /// Client threads that drove this tenant (maximum across phases).
    pub clients: usize,
    /// Read operations completed by this tenant's clients.
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error (rejects included).
    pub errors: u64,
    /// Operations shed at submission under the tenant's reject policy
    /// (client-observed; equals the service-side per-lane count).
    pub rejects: u64,
    /// Dequeue passes the service deferred because this tenant's admission
    /// bucket was empty (service-side, scoped to this run).
    pub throttled: u64,
    /// Deepest this tenant's lanes got on any core (gauge, end-of-run).
    pub queue_hwm: u64,
    /// XOR fold of this tenant's successful payloads; tenant hashes XOR
    /// to the run hash.
    pub answer_hash: u64,
    /// End-to-end latency of this tenant's operations.
    pub latency: LogHistogram,
}

/// Aggregated results of one driver run.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Scenario name (the mix preset name for legacy runs).
    pub mix: String,
    /// Operation-stream base seed.
    pub seed: u64,
    /// Client thread count (the maximum across phases).
    pub clients: usize,
    /// Configured rate of the first phase (`None` = unthrottled).
    pub rate: Option<f64>,
    /// Burst allowance of the first phase.
    pub burst: u32,
    /// Shards of the target service (1 = unsharded).
    pub shards: usize,
    /// Replica cores per shard (1 = unreplicated).
    pub replicas: usize,
    /// Replica-routing policy label (`round-robin` / `least-loaded`).
    pub routing: String,
    /// Interval-log slot width in nanoseconds.
    pub interval_ns: u64,
    /// Wall-clock time actually spent (all phases).
    pub elapsed: Duration,
    /// Operations completed (ok + errored).
    pub ops: u64,
    /// Operations that returned a payload.
    pub ok: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Errors that were precondition rejections (subset of `errors`).
    pub unsupported: u64,
    /// Operations that exhausted their attempts (subset of `errors`).
    pub timeouts: u64,
    /// Retry attempts beyond each operation's first.
    pub retries: u64,
    /// Operations routed to a single shard (every operation, on a sharded
    /// target).
    pub routed: u64,
    /// Requests shed at submission under the reject queue policy (from the
    /// service's counters).
    pub rejects: u64,
    /// Requests dropped at dequeue with an already-expired deadline (from
    /// the service's counters; disjoint from `timeouts`).
    pub early_drops: u64,
    /// Result-cache lookups answered without running the engine, summed
    /// across shards (this run only).
    pub cache_hits: u64,
    /// Result-cache misses on cacheable requests, summed across shards
    /// (this run only).
    pub cache_misses: u64,
    /// Result-cache insertions, summed across shards (this run only).
    pub cache_insertions: u64,
    /// Result-cache evictions at capacity, summed across shards (this run
    /// only).
    pub cache_evictions: u64,
    /// Bytes resident across every shard's result cache at the end of the
    /// run (a gauge — not scoped to the run).
    pub cache_bytes: u64,
    /// Mutations accepted into the write buffer by this run's clients
    /// (write operations are counted here, never in `ops`, so the read
    /// stream's accounting — and `answer_hash` — is write-ratio-0
    /// identical to a frozen run).
    pub writes: u64,
    /// Mutations refused at submission (read-only service, or closed).
    pub write_errors: u64,
    /// Writer-side counters and freshness histograms, scoped to this run
    /// (the driver takes a writer baseline next to the query-counter
    /// baseline, so `--repeat` passes don't double-count mutations). All
    /// zeros/empty for a read-only target.
    pub epochs: WriterReport,
    /// Client-observed accept latency of each successful mutation
    /// submission in nanoseconds (the write-side backpressure signal:
    /// rises when the write buffer fills faster than epochs install).
    pub write_accept: LogHistogram,
    /// Order-independent XOR fold of every successful payload (see the
    /// module docs). Two runs of the same seeded scenario over the same
    /// graph must report the same hash, cached or not.
    pub answer_hash: u64,
    /// End-to-end latency in nanoseconds; coordinated-omission-corrected
    /// (measured from the intended schedule) when a rate is set.
    pub latency: LogHistogram,
    /// Pure execution time in nanoseconds (excludes queueing and backoff).
    pub service_time: LogHistogram,
    /// One report per tenant (always at least one row); the rows fold
    /// exactly into the run counters — see [`TenantReport`].
    pub tenants: Vec<TenantReport>,
    /// One report per phase, in run order; the run counters above are
    /// their exact fold.
    pub phases: Vec<PhaseReport>,
    /// Per-shard identity + counters snapshot at the end of the run.
    pub per_shard: Vec<ShardSnapshot>,
    /// Per-shard, per-replica measured service times (histogram + interval
    /// series, origin = run start), positionally parallel to `per_shard`.
    pub replica_series: Vec<Vec<ReplicaSeries>>,
}

/// The sparse JSON rows of an interval series.
fn intervals_json(series: &IntervalSeries) -> String {
    series
        .nonempty()
        .map(|(i, slot)| {
            format!(
                "{{\"i\": {}, \"count\": {}, \"ok\": {}, \"errors\": {}, \"p50\": {}, \
                 \"p99\": {}, \"max\": {}}}",
                i,
                slot.hist.count(),
                slot.ok,
                slot.errors,
                slot.hist.quantile(0.50),
                slot.hist.quantile(0.99),
                slot.hist.max()
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn hist_json(h: &LogHistogram) -> String {
    format!(
        "{{\"count\": {}, \"min\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \
         \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        h.count(),
        h.min(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max()
    )
}

impl StressReport {
    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    /// The report as a JSON document (parsable by [`crate::json::parse`]).
    pub fn to_json(&self, name: &str) -> String {
        let hist = hist_json;
        let empty_series: Vec<ReplicaSeries> = Vec::new();
        let per_shard = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let series = self.replica_series.get(si).unwrap_or(&empty_series);
                let replicas = s
                    .replicas
                    .iter()
                    .enumerate()
                    .map(|(ri, r)| {
                        let (service_ns, intervals) = match series.get(ri) {
                            Some(rs) => (hist(&rs.service), intervals_json(&rs.intervals)),
                            None => (hist(&LogHistogram::new()), String::new()),
                        };
                        format!(
                            "{{\"replica\": {}, \"completed\": {}, \"failed\": {}, \
                             \"queue_hwm\": {}, \"busy_ns\": {}, \"service_ns\": {}, \
                             \"intervals\": [{}]}}",
                            r.replica,
                            r.stats.completed,
                            r.stats.failed,
                            r.stats.queue_hwm,
                            r.stats.busy_ns,
                            service_ns,
                            intervals
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                // The shard's measured service times: the exact merge of its
                // replicas' histograms.
                let mut shard_service = LogHistogram::new();
                for rs in series {
                    shard_service.merge(&rs.service);
                }
                format!(
                    "{{\"shard\": {}, \"owned\": {}, \"completed\": {}, \"failed\": {}, \
                     \"rejects\": {}, \"early_drops\": {}, \"cache_hits\": {}, \
                     \"queue_hwm\": {}, \"busy_ns\": {}, \"service_ns\": {}, \
                     \"replicas\": [{}]}}",
                    s.shard,
                    s.owned,
                    s.stats.completed,
                    s.stats.failed,
                    s.stats.rejected,
                    s.stats.early_drops,
                    s.stats.cache_hits,
                    s.stats.queue_hwm,
                    s.stats.busy_ns,
                    hist(&shard_service),
                    replicas
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let phases = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\": \"{}\", \"clients\": {}, \"rate\": {}, \"start_s\": {:.3}, \
                     \"elapsed_s\": {:.3}, \"ops\": {}, \"ok\": {}, \"errors\": {}, \
                     \"unsupported\": {}, \"timeouts\": {}, \"retries\": {}, \"routed\": {}, \
                     \"writes\": {}, \"write_errors\": {}, \
                     \"answer_hash\": \"{:016x}\", \"latency_ns\": {}, \"service_ns\": {}, \
                     \"intervals\": [{}]}}",
                    json_escape(&p.name),
                    p.clients,
                    p.rate.map_or("null".to_string(), |r| format!("{r:.1}")),
                    p.start_s,
                    p.elapsed.as_secs_f64(),
                    p.ops,
                    p.ok,
                    p.errors,
                    p.unsupported,
                    p.timeouts,
                    p.retries,
                    p.routed,
                    p.writes,
                    p.write_errors,
                    p.answer_hash,
                    hist(&p.latency),
                    hist(&p.service_time),
                    intervals_json(&p.intervals)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\": {}, \"weight\": {}, \"rate_ops_s\": {}, \"clients\": {}, \
                     \"ops\": {}, \"ok\": {}, \"errors\": {}, \"rejects\": {}, \
                     \"throttled\": {}, \"queue_hwm\": {}, \"answer_hash\": \"{:016x}\", \
                     \"latency_ns\": {}}}",
                    t.tenant,
                    t.weight,
                    t.rate.map_or("0".to_string(), |r| format!("{r:.1}")),
                    t.clients,
                    t.ops,
                    t.ok,
                    t.errors,
                    t.rejects,
                    t.throttled,
                    t.queue_hwm,
                    t.answer_hash,
                    hist(&t.latency)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        // The answer hash is a string: the reader parses numbers as f64,
        // which cannot hold a full 64-bit hash exactly.
        let cache = format!(
            "{{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \
             \"resident_bytes\": {}}}",
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_bytes
        );
        let epochs = format!(
            "{{\"epoch\": {}, \"swaps\": {}, \"accepted\": {}, \"applied\": {}, \
             \"noops\": {}, \"pending\": {}, \"swap_pause_ns\": {}, \"write_apply_ns\": {}, \
             \"freshness_lag_ns\": {}, \"write_accept_ns\": {}}}",
            self.epochs.stats.epoch,
            self.epochs.stats.swaps,
            self.epochs.stats.accepted,
            self.epochs.stats.applied,
            self.epochs.stats.noops,
            self.epochs.stats.pending,
            hist(&self.epochs.swap_pause),
            hist(&self.epochs.write_apply),
            hist(&self.epochs.freshness_lag),
            hist(&self.write_accept)
        );
        format!(
            "{{\n  \"name\": \"{}\",\n  \"mix\": \"{}\",\n  \"scenario\": \"{}\",\n  \
             \"seed\": {},\n  \"clients\": {},\n  \
             \"rate\": {},\n  \"burst\": {},\n  \"shards\": {},\n  \"replicas\": {},\n  \
             \"routing\": \"{}\",\n  \"interval_ms\": {},\n  \"elapsed_s\": {:.3},\n  \
             \"ops\": {},\n  \"ok\": {},\n  \"errors\": {},\n  \"unsupported\": {},\n  \
             \"timeouts\": {},\n  \"retries\": {},\n  \"routed\": {},\n  \
             \"rejects\": {},\n  \"early_drops\": {},\n  \"writes\": {},\n  \
             \"write_errors\": {},\n  \"throughput_ops_s\": {:.1},\n  \
             \"answer_hash\": \"{:016x}\",\n  \"cache\": {},\n  \"epochs\": {},\n  \
             \"latency_ns\": {},\n  \"service_ns\": {},\n  \
             \"tenants\": [{}],\n  \"phases\": [{}],\n  \"per_shard\": [{}]\n}}\n",
            json_escape(name),
            json_escape(&self.mix),
            json_escape(&self.mix),
            self.seed,
            self.clients,
            self.rate.map_or("null".to_string(), |r| format!("{r:.1}")),
            self.burst,
            self.shards,
            self.replicas,
            json_escape(&self.routing),
            self.interval_ns / 1_000_000,
            self.elapsed.as_secs_f64(),
            self.ops,
            self.ok,
            self.errors,
            self.unsupported,
            self.timeouts,
            self.retries,
            self.routed,
            self.rejects,
            self.early_drops,
            self.writes,
            self.write_errors,
            self.throughput(),
            self.answer_hash,
            cache,
            epochs,
            hist(&self.latency),
            hist(&self.service_time),
            tenants,
            phases,
            per_shard
        )
    }

    /// The report as a human-readable markdown table pair.
    pub fn to_markdown(&self, name: &str) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!("# Stress run: {name}\n\n"));
        out.push_str(&format!(
            "scenario `{}`, seed {}, {} clients, rate {}, burst {}, {} shard{} × {} replica{} \
             ({} routing), {} ms intervals\n\n",
            self.mix,
            self.seed,
            self.clients,
            self.rate
                .map_or("unthrottled".to_string(), |r| format!("{r:.0}/s")),
            self.burst,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            self.replicas,
            if self.replicas == 1 { "" } else { "s" },
            self.routing,
            self.interval_ns / 1_000_000
        ));
        out.push_str("| metric | value |\n|---|---|\n");
        out.push_str(&format!("| elapsed | {:.2} s |\n", self.elapsed.as_secs_f64()));
        out.push_str(&format!("| operations | {} |\n", self.ops));
        out.push_str(&format!("| ok / errors | {} / {} |\n", self.ok, self.errors));
        out.push_str(&format!(
            "| unsupported / timeouts | {} / {} |\n",
            self.unsupported, self.timeouts
        ));
        out.push_str(&format!("| retries | {} |\n", self.retries));
        out.push_str(&format!("| routed | {} |\n", self.routed));
        out.push_str(&format!(
            "| rejects / early drops | {} / {} |\n",
            self.rejects, self.early_drops
        ));
        out.push_str(&format!(
            "| writes / write errors | {} / {} |\n",
            self.writes, self.write_errors
        ));
        out.push_str(&format!(
            "| epoch / swaps | {} / {} |\n",
            self.epochs.stats.epoch, self.epochs.stats.swaps
        ));
        out.push_str(&format!(
            "| mutations applied / no-ops | {} / {} |\n",
            self.epochs.stats.applied, self.epochs.stats.noops
        ));
        out.push_str(&format!(
            "| cache hits / misses | {} / {} |\n",
            self.cache_hits, self.cache_misses
        ));
        out.push_str(&format!(
            "| cache insertions / evictions | {} / {} |\n",
            self.cache_insertions, self.cache_evictions
        ));
        out.push_str(&format!("| cache resident | {} B |\n", self.cache_bytes));
        out.push_str(&format!("| answer hash | `{:016x}` |\n", self.answer_hash));
        out.push_str(&format!("| throughput | {:.1} ops/s |\n\n", self.throughput()));
        out.push_str("| histogram (ms) | p50 | p90 | p99 | p99.9 | max |\n|---|---|---|---|---|---|\n");
        for (label, h) in [
            ("latency", &self.latency),
            ("service", &self.service_time),
            ("swap pause", &self.epochs.swap_pause),
            ("write apply", &self.epochs.write_apply),
            ("freshness lag", &self.epochs.freshness_lag),
            ("write accept", &self.write_accept),
        ] {
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |\n",
                label,
                ms(h.quantile(0.50)),
                ms(h.quantile(0.90)),
                ms(h.quantile(0.99)),
                ms(h.quantile(0.999)),
                ms(h.max())
            ));
        }
        out.push_str(
            "\n| phase | clients | rate | start s | elapsed s | ops | ok | errors | writes | \
             intervals | p50 ms | p99 ms |\n|---|---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} | {:.2} | {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
                p.name,
                p.clients,
                p.rate.map_or("—".to_string(), |r| format!("{r:.0}/s")),
                p.start_s,
                p.elapsed.as_secs_f64(),
                p.ops,
                p.ok,
                p.errors,
                p.writes,
                p.intervals.completed_intervals(),
                ms(p.latency.quantile(0.50)),
                ms(p.latency.quantile(0.99))
            ));
        }
        if self.tenants.len() > 1 {
            out.push_str(
                "\n| tenant | weight | rate | clients | ops | ok | errors | rejects | \
                 throttled | queue hwm | p50 ms | p99 ms | answer hash |\n\
                 |---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
            );
            for t in &self.tenants {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | \
                     `{:016x}` |\n",
                    t.tenant,
                    t.weight,
                    t.rate.map_or("—".to_string(), |r| format!("{r:.0}/s")),
                    t.clients,
                    t.ops,
                    t.ok,
                    t.errors,
                    t.rejects,
                    t.throttled,
                    t.queue_hwm,
                    ms(t.latency.quantile(0.50)),
                    ms(t.latency.quantile(0.99)),
                    t.answer_hash
                ));
            }
        }
        if !self.per_shard.is_empty() {
            out.push_str(
                "\n| shard | owned | completed | failed | rejects | early drops | cache hits | \
                 queue hwm | busy ms |\n|---|---|---|---|---|---|---|---|---|\n",
            );
            for s in &self.per_shard {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} |\n",
                    s.shard,
                    s.owned,
                    s.stats.completed,
                    s.stats.failed,
                    s.stats.rejected,
                    s.stats.early_drops,
                    s.stats.cache_hits,
                    s.stats.queue_hwm,
                    ms(s.stats.busy_ns)
                ));
            }
            out.push_str(
                "\n| shard | replica | completed | failed | queue hwm | busy ms | \
                 service p50 ms | service p99 ms |\n|---|---|---|---|---|---|---|---|\n",
            );
            for (si, s) in self.per_shard.iter().enumerate() {
                for (ri, r) in s.replicas.iter().enumerate() {
                    let series = self
                        .replica_series
                        .get(si)
                        .and_then(|shard| shard.get(ri));
                    let (p50, p99) = series.map_or((0, 0), |rs| {
                        (rs.service.quantile(0.50), rs.service.quantile(0.99))
                    });
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} | {:.3} | {:.4} | {:.4} |\n",
                        s.shard,
                        r.replica,
                        r.stats.completed,
                        r.stats.failed,
                        r.stats.queue_hwm,
                        ms(r.stats.busy_ns),
                        ms(p50),
                        ms(p99)
                    ));
                }
            }
        }
        out
    }
}

/// Phase-scoped latency-SLO watchdog: clients feed every completed sample
/// into a shared [`IntervalSeries`]; whenever a sample lands past the
/// newest evaluated interval, the monitor re-checks the trailing window
/// (the merge of the last `window / interval` *closed* slots) against the
/// bound and latches the stop flag. Evaluation happens only on interval
/// boundaries, so the check adds one mutex'd record per op and a rare
/// histogram merge — and uses the same interval histograms the report
/// already logs, not a second measurement path.
struct SloMonitor {
    slo: SloStop,
    interval_ns: u64,
    inner: Mutex<IntervalSeries>,
    stop: AtomicBool,
}

impl SloMonitor {
    fn new(slo: SloStop, interval_ns: u64) -> SloMonitor {
        SloMonitor {
            slo,
            interval_ns,
            inner: Mutex::new(IntervalSeries::new(interval_ns)),
            stop: AtomicBool::new(false),
        }
    }

    /// True once the windowed quantile has crossed the bound.
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Records one completed sample and re-evaluates the window when the
    /// sample closes one or more intervals.
    fn record(&self, at_ns: u64, latency_ns: u64, ok: bool) {
        let mut series = self.inner.lock().unwrap();
        let before = series.slots().len();
        series.record(at_ns, latency_ns, ok);
        let cur = (at_ns / self.interval_ns) as usize;
        // Closed slots are those strictly before the slot this sample
        // landed in; evaluate only when the sample opened a new slot.
        if before > cur {
            return;
        }
        let window = (self.slo.window_ns().div_ceil(self.interval_ns)).max(1) as usize;
        if cur < window {
            return;
        }
        let mut merged = LogHistogram::new();
        for slot in &series.slots()[cur - window..cur] {
            merged.merge(&slot.hist);
        }
        if merged.count() == 0 {
            return;
        }
        let q = merged.quantile(self.slo.quantile());
        let crossed = if self.slo.above {
            q > self.slo.bound_ns()
        } else {
            q < self.slo.bound_ns()
        };
        if crossed {
            self.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// How one tenant's clients pace themselves within a phase.
enum Pacing {
    /// Issue as fast as the target answers.
    None,
    /// Token bucket at a fixed rate, shared by the tenant's clients; the
    /// intended schedule is `i · step` for coordinated-omission correction.
    Fixed { bucket: Mutex<TokenBucket>, step_ns: u64 },
    /// Linear ramp `a → a + k·t` over the phase duration: operation `i`'s
    /// intended time solves `a·t + k·t²/2 = i` (the schedule with exactly
    /// `i` arrivals by time `t`), pure in elapsed time — no bucket state,
    /// so the schedule replays identically across runs.
    Ramp { a: f64, k: f64, dur_s: f64 },
}

struct ClientStats {
    ops: u64,
    ok: u64,
    errors: u64,
    unsupported: u64,
    timeouts: u64,
    rejects: u64,
    retries: u64,
    routed: u64,
    writes: u64,
    write_errors: u64,
    answer_hash: u64,
    latency: LogHistogram,
    service_time: LogHistogram,
    write_accept: LogHistogram,
    /// Latency samples bucketed by completion time relative to the phase
    /// start — striped per client, merged exactly at phase end.
    intervals: IntervalSeries,
}

impl ClientStats {
    fn new(interval_ns: u64) -> ClientStats {
        ClientStats {
            ops: 0,
            ok: 0,
            errors: 0,
            unsupported: 0,
            timeouts: 0,
            rejects: 0,
            retries: 0,
            routed: 0,
            writes: 0,
            write_errors: 0,
            answer_hash: 0,
            latency: LogHistogram::new(),
            service_time: LogHistogram::new(),
            write_accept: LogHistogram::new(),
            intervals: IntervalSeries::new(interval_ns),
        }
    }

    fn fold(&mut self, other: &ClientStats) {
        self.ops += other.ops;
        self.ok += other.ok;
        self.errors += other.errors;
        self.unsupported += other.unsupported;
        self.timeouts += other.timeouts;
        self.rejects += other.rejects;
        self.retries += other.retries;
        self.routed += other.routed;
        self.writes += other.writes;
        self.write_errors += other.write_errors;
        self.answer_hash ^= other.answer_hash;
        self.latency.merge(&other.latency);
        self.service_time.merge(&other.service_time);
        self.write_accept.merge(&other.write_accept);
        self.intervals.merge(&other.intervals);
    }
}

/// Runs the legacy preset workload described by `cfg` against `target` —
/// by desugaring it into a one-phase [`Scenario`] (see
/// [`Scenario::from_legacy`]) and running that. The desugared op stream is
/// bit-identical to the historical driver's, so reports keep their exact
/// counts and answer hashes.
pub fn run<T: StressTarget>(target: &T, mix: &Mix, cfg: &DriverConfig) -> StressReport {
    run_scenario(target, &Scenario::from_legacy(mix, cfg))
}

/// Runs a resolved scenario against `target`: each phase spawns its client
/// threads, drives its compiled mix under its own pacing and stop
/// criteria, and the run report folds the phase reports exactly.
pub fn run_scenario<T: StressTarget>(target: &T, scenario: &Scenario) -> StressReport {
    assert!(!scenario.phases.is_empty(), "scenario has no phases");
    let interval_ns = (scenario.interval.as_nanos() as u64).max(1);
    // Counter baseline: the same service process may host several runs, so
    // the report subtracts what was already on the clocks (see module docs).
    // The writer baseline also *resets* the freshness histograms (they
    // merge but cannot subtract), scoping them to this run too; the
    // service-log reset scopes the per-replica series the same way.
    let baseline = target.shard_snapshots();
    let writer_baseline = target.writer_baseline();
    let qos_baseline = target.qos_stats();
    // Mutation stream span: the initial vertex-id space (every vertex is
    // owned by exactly one shard, so the owned counts sum to n).
    let base_n = baseline.iter().map(|s| s.owned).sum::<usize>().max(2);
    let run_start = Instant::now();
    target.reset_service_log(run_start, interval_ns);

    let default_tenant = [TenantSpec::default()];
    let tenants: &[TenantSpec] = if scenario.tenants.is_empty() {
        &default_tenant
    } else {
        &scenario.tenants
    };
    let tcount = tenants.len();
    // Per-tenant fold across all phases (the tenant table of the report).
    let mut tenant_total: Vec<ClientStats> =
        (0..tcount).map(|_| ClientStats::new(interval_ns)).collect();
    let mut tenant_clients = vec![0usize; tcount];

    let mut phases: Vec<PhaseReport> = Vec::with_capacity(scenario.phases.len());
    for phase in &scenario.phases {
        // Client → tenant assignment: explicit per-tenant counts when every
        // tenant sets one (resolve validates all-or-none), round-robin over
        // the phase's client count otherwise.
        let assignment: Vec<usize> = if tenants.iter().all(|t| t.clients.is_some()) {
            tenants
                .iter()
                .enumerate()
                .flat_map(|(t, s)| std::iter::repeat_n(t, s.clients.unwrap()))
                .collect()
        } else {
            (0..phase.clients).map(|c| c % tcount).collect()
        };
        assert!(!assignment.is_empty(), "phase needs at least one client");
        let mut counts = vec![0usize; tcount];
        for &t in &assignment {
            counts[t] += 1;
        }
        for t in 0..tcount {
            tenant_clients[t] = tenant_clients[t].max(counts[t]);
        }
        // Per-tenant op streams: tenant 0 keeps the phase seeds unchanged
        // (single-tenant runs replay the pre-QoS stream bit for bit),
        // higher tenants derive independent seeds. Each tenant also gets
        // its own stream index counter and pacing, so a tenant's operation
        // sequence is independent of how the others progress.
        let seeds: Vec<(u64, u64)> = (0..tcount as u64)
            .map(|t| {
                if t == 0 {
                    (phase.seed, phase.mutation_seed)
                } else {
                    (
                        mix3(phase.seed, t, TENANT_STREAM),
                        mix3(phase.mutation_seed, t, TENANT_STREAM),
                    )
                }
            })
            .collect();
        let next_ops: Vec<AtomicU64> = (0..tcount).map(|_| AtomicU64::new(0)).collect();
        let fixed = |r: f64| Pacing::Fixed {
            bucket: Mutex::new(TokenBucket::new(r, phase.burst.max(1))),
            step_ns: ((1e9 / r).max(1.0)) as u64,
        };
        let pacing: Vec<Pacing> = tenants
            .iter()
            .map(|spec| match spec.pace {
                // A tenant's own pace overrides the phase rate — the
                // isolation gates use this to keep a victim inside its
                // admission bucket while the phase drives aggressors hard.
                Some(p) => fixed(p),
                None => match phase.rate {
                    Some(RateSpec::Fixed(r)) => fixed(r),
                    Some(RateSpec::Ramp(a, b)) => {
                        let d = phase
                            .duration
                            .expect("resolve validated: ramps have a duration")
                            .as_secs_f64();
                        Pacing::Ramp { a, k: (b - a) / d, dur_s: d }
                    }
                    None => Pacing::None,
                },
            })
            .collect();
        let slo = phase.slo.map(|s| SloMonitor::new(s, interval_ns));
        let phase_start = Instant::now();
        let end = phase.duration.map(|d| phase_start + d);
        let merged: Vec<(usize, ClientStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignment
                .iter()
                .map(|&t| {
                    let ctx = TenantCtx {
                        tenant: t,
                        seed: seeds[t].0,
                        mutation_seed: seeds[t].1,
                        ops_budget: tenants[t].ops,
                        next_op: &next_ops[t],
                        pacing: &pacing[t],
                    };
                    let slo = slo.as_ref();
                    scope.spawn(move || {
                        let stats = client_loop(
                            target,
                            phase,
                            ctx,
                            scenario.timeout,
                            interval_ns,
                            base_n,
                            slo,
                            phase_start,
                            end,
                        );
                        (t, stats)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = phase_start.elapsed();
        let mut total = ClientStats::new(interval_ns);
        for (t, c) in &merged {
            total.fold(c);
            tenant_total[*t].fold(c);
        }
        phases.push(PhaseReport {
            name: phase.name.clone(),
            clients: assignment.len(),
            rate: phase.rate.map(|r| r.start()),
            start_s: phase_start.duration_since(run_start).as_secs_f64(),
            elapsed,
            ops: total.ops,
            ok: total.ok,
            errors: total.errors,
            unsupported: total.unsupported,
            timeouts: total.timeouts,
            retries: total.retries,
            routed: total.routed,
            writes: total.writes,
            write_errors: total.write_errors,
            answer_hash: total.answer_hash,
            latency: total.latency,
            service_time: total.service_time,
            write_accept: total.write_accept,
            intervals: total.intervals,
        });
    }

    let elapsed = run_start.elapsed();
    // The run counters are the exact fold of the phase counters.
    let mut total = ClientStats::new(interval_ns);
    for p in &phases {
        total.ops += p.ops;
        total.ok += p.ok;
        total.errors += p.errors;
        total.unsupported += p.unsupported;
        total.timeouts += p.timeouts;
        total.retries += p.retries;
        total.routed += p.routed;
        total.writes += p.writes;
        total.write_errors += p.write_errors;
        total.answer_hash ^= p.answer_hash;
        total.latency.merge(&p.latency);
        total.service_time.merge(&p.service_time);
        total.write_accept.merge(&p.write_accept);
    }
    let per_shard: Vec<ShardSnapshot> = target
        .shard_snapshots()
        .into_iter()
        .zip(&baseline)
        .map(|(now, before)| ShardSnapshot {
            shard: now.shard,
            owned: now.owned,
            stats: now.stats.delta_since(&before.stats),
            // Replica sets are fixed for the life of a service, so the
            // baseline zips by position.
            replicas: now
                .replicas
                .iter()
                .zip(&before.replicas)
                .map(|(rn, rb)| ReplicaSnapshot {
                    replica: rn.replica,
                    stats: rn.stats.delta_since(&rb.stats),
                })
                .collect(),
        })
        .collect();
    let rejects = per_shard.iter().map(|s| s.stats.rejected).sum();
    let early_drops = per_shard.iter().map(|s| s.stats.early_drops).sum();
    // Writer counters scoped to this run; the histograms were reset at the
    // baseline, so they already are.
    let mut epochs = target.writer_report();
    epochs.stats = epochs.stats.delta_since(&writer_baseline);
    // The tenant table: client-side counters from the per-tenant fold,
    // service-side throttles/high-water marks as deltas over the QoS
    // baseline (counts subtract; the high-water mark is a gauge and keeps
    // its end-of-run value).
    let qos_now = target.qos_stats();
    let tenant_reports: Vec<TenantReport> = (0..tcount)
        .map(|t| {
            let spec = &tenants[t];
            let acc = &tenant_total[t];
            let now = qos_now.get(t).copied().unwrap_or_default();
            let before = qos_baseline.get(t).copied().unwrap_or_default();
            TenantReport {
                tenant: t,
                weight: spec.weight,
                rate: spec.rate,
                clients: tenant_clients[t],
                ops: acc.ops,
                ok: acc.ok,
                errors: acc.errors,
                rejects: acc.rejects,
                throttled: now.throttled.saturating_sub(before.throttled),
                queue_hwm: now.queue_hwm,
                answer_hash: acc.answer_hash,
                latency: acc.latency.clone(),
            }
        })
        .collect();
    StressReport {
        mix: scenario.name.clone(),
        seed: scenario.seed,
        clients: phases.iter().map(|p| p.clients).max().unwrap_or(1),
        rate: scenario.phases[0].rate.map(|r| r.start()),
        burst: scenario.phases[0].burst,
        shards: target.num_shards(),
        replicas: target.replicas_per_shard(),
        routing: target.routing_label().to_string(),
        interval_ns,
        elapsed,
        ops: total.ops,
        ok: total.ok,
        errors: total.errors,
        unsupported: total.unsupported,
        timeouts: total.timeouts,
        retries: total.retries,
        routed: total.routed,
        rejects,
        early_drops,
        writes: total.writes,
        write_errors: total.write_errors,
        epochs,
        write_accept: total.write_accept,
        cache_hits: per_shard.iter().map(|s| s.stats.cache_hits).sum(),
        cache_misses: per_shard.iter().map(|s| s.stats.cache_misses).sum(),
        cache_insertions: per_shard.iter().map(|s| s.stats.cache_insertions).sum(),
        cache_evictions: per_shard.iter().map(|s| s.stats.cache_evictions).sum(),
        cache_bytes: per_shard.iter().map(|s| s.stats.cache_bytes).sum(),
        answer_hash: total.answer_hash,
        latency: total.latency,
        service_time: total.service_time,
        tenants: tenant_reports,
        phases,
        per_shard,
        replica_series: target.replica_series(),
    }
}

/// The ramp schedule's elapsed seconds at which `r(t) = a + k·t` has
/// produced `i` arrivals: the positive root of `a·t + k·t²/2 = i`. `None`
/// when a downward ramp runs dry before its cumulative area reaches `i`.
fn ramp_time(a: f64, k: f64, i: u64) -> Option<f64> {
    let i = i as f64;
    if k.abs() < 1e-9 {
        return Some(i / a);
    }
    let disc = a * a + 2.0 * k * i;
    if disc < 0.0 {
        return None;
    }
    Some((disc.sqrt() - a) / k)
}

/// Everything a client thread needs that is specific to its tenant: the
/// tenant's seeds, shared stream-index counter, op budget, and pacing.
struct TenantCtx<'a> {
    tenant: usize,
    seed: u64,
    mutation_seed: u64,
    ops_budget: Option<u64>,
    next_op: &'a AtomicU64,
    pacing: &'a Pacing,
}

#[allow(clippy::too_many_arguments)]
fn client_loop<T: StressTarget>(
    target: &T,
    phase: &Phase,
    ctx: TenantCtx<'_>,
    timeout: Duration,
    interval_ns: u64,
    base_n: usize,
    slo: Option<&SloMonitor>,
    start: Instant,
    end: Option<Instant>,
) -> ClientStats {
    let mut stats = ClientStats::new(interval_ns);
    loop {
        if end.is_some_and(|e| Instant::now() >= e) {
            break;
        }
        if slo.is_some_and(|m| m.stopped()) {
            break;
        }
        let i = ctx.next_op.fetch_add(1, Ordering::Relaxed);
        // Both caps are per tenant stream: `ops` in a phase caps each
        // tenant's stream at that many indices (a single-tenant run is the
        // historical global cap), and a tenant's own `ops` budget caps just
        // that tenant.
        if phase.ops_limit.is_some_and(|cap| i >= cap) {
            break;
        }
        if ctx.ops_budget.is_some_and(|cap| i >= cap) {
            break;
        }
        // Pacing: wait for a token (or the ramp schedule); give up (and end
        // the phase) rather than issue an operation past the configured
        // duration. `ramp_due` carries the ramp's intended instant down to
        // the latency measurement.
        let mut ramp_due: Option<Instant> = None;
        match ctx.pacing {
            Pacing::None => {}
            Pacing::Fixed { bucket, .. } => {
                let mut gave_up = false;
                loop {
                    let now = Instant::now();
                    if end.is_some_and(|e| now >= e) {
                        gave_up = true;
                        break;
                    }
                    let now_ns = now.duration_since(start).as_nanos() as u64;
                    // Bind the decision first: matching on the lock expression
                    // directly would keep the MutexGuard temporary alive across
                    // the sleep, making every other client block on the bucket
                    // for the whole pause.
                    let decision = bucket.lock().unwrap().try_acquire(now_ns);
                    match decision {
                        Ok(()) => break,
                        Err(wait_ns) => {
                            let mut sleep = Duration::from_nanos(wait_ns);
                            if let Some(e) = end {
                                sleep = sleep.min(e.saturating_duration_since(now));
                            }
                            std::thread::sleep(sleep);
                        }
                    }
                }
                if gave_up {
                    break;
                }
            }
            Pacing::Ramp { a, k, dur_s } => {
                // The ramp's schedule is pure in elapsed time: operation i
                // is due at ramp_time(i), no bucket state involved. Past
                // the phase window (or a downward ramp run dry) the stream
                // is exhausted.
                let due_s = match ramp_time(*a, *k, i) {
                    Some(t) if t <= *dur_s => t,
                    _ => break,
                };
                let due = start + Duration::from_secs_f64(due_s);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                ramp_due = Some(due);
            }
        }
        // Write decision: a pure function of (mutation_seed, index), so
        // the read/write interleaving replays exactly. Write indices are
        // consumed from the shared stream but recorded apart from the read
        // accounting — with no mutate weight the loop below is bit-identical
        // to a run without any write path.
        if phase.mix.is_write(ctx.mutation_seed, i) {
            let t0 = Instant::now();
            match target.submit_mutation(mutation_op(ctx.mutation_seed, i, base_n)) {
                Ok(_) => {
                    stats.writes += 1;
                    stats.write_accept.record(t0.elapsed().as_nanos() as u64);
                }
                Err(SubmitError::Closed) => break,
                Err(_) => stats.write_errors += 1,
            }
            continue;
        }
        // Intended start on the fixed schedule (coordinated-omission
        // correction); actual submit time when unthrottled.
        let intended = match (ctx.pacing, ramp_due) {
            (Pacing::Fixed { step_ns, .. }, _) => {
                start + Duration::from_nanos(i.saturating_mul(*step_ns))
            }
            (_, Some(due)) => due,
            _ => Instant::now(),
        };
        let req = QueryRequest::new(i, phase.mix.op(ctx.seed, i))
            .with_seed(mix3(ctx.seed, i, REQ_STREAM))
            .with_timeout(timeout)
            .with_tenant(ctx.tenant as u32);
        let ticket = match target.submit_op(req) {
            Ok(t) => t,
            Err(_) => break,
        };
        let resp = ticket.wait();
        let done = Instant::now();
        stats.ops += 1;
        stats.retries += u64::from(resp.retries());
        if let Route::Routed { .. } = resp.route {
            stats.routed += 1;
        }
        let latency_ns = done.saturating_duration_since(intended).as_nanos() as u64;
        stats.latency.record(latency_ns);
        // The same sample, bucketed by when it completed within the phase —
        // slot sums fold exactly back to the latency histogram.
        let at_ns = done.saturating_duration_since(start).as_nanos() as u64;
        stats.intervals.record(at_ns, latency_ns, resp.result.is_ok());
        if let Some(m) = slo {
            m.record(at_ns, latency_ns, resp.result.is_ok());
        }
        stats.service_time.record(resp.service_time.as_nanos() as u64);
        match &resp.result {
            Ok(out) => {
                stats.ok += 1;
                stats.answer_hash ^= output_hash(resp.id, out);
            }
            Err(e) => {
                stats.errors += 1;
                match e {
                    QueryError::Unsupported(_) => stats.unsupported += 1,
                    QueryError::Timeout { .. } => stats.timeouts += 1,
                    QueryError::Rejected => stats.rejects += 1,
                    _ => {}
                }
            }
        }
    }
    stats
}
