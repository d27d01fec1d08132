//! Integration + property tests for the sharded service: analytics run
//! once on one shard with the unsharded answer, owner routing, admission
//! control, and deadline early drops.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::{run_workload, supported_workloads};
use vcgp_graph::{generators, VertexId};
use vcgp_pregel::partition::Partitioning;
use vcgp_pregel::PregelConfig;
use vcgp_stress::request::{QueryError, QueryKind, QueryOutput, QueryRequest, Route};
use vcgp_stress::service::{GraphService, QueueFullPolicy, ServiceConfig};
use vcgp_stress::shard::ShardedGraphService;
use vcgp_testkit::prop::Source;
use vcgp_testkit::{prop_assert, vcgp_props};

fn config_for(strategy: Partitioning) -> ServiceConfig {
    let mut engine = PregelConfig::single_worker();
    engine.partitioning = strategy;
    ServiceConfig {
        executors: 2,
        engine,
        ..ServiceConfig::default()
    }
}

vcgp_props! {
    #![cases(8)]

    // The acceptance property: for every supported workload, both
    // partitioning strategies, and S ∈ {1, 2, 4}, the sharded service
    // routes the request to exactly one shard, and its answer (and
    // superstep count) is identical to running the workload unsharded with
    // the same engine config and seed.
    fn sharded_analytics_run_once_and_equal_unsharded(
        graph_seed in 0u64..1_000,
        req_seed in 0u64..1_000_000,
        directed in 0u64..2,
    ) {
        let mut src = Source::new(graph_seed ^ 0x5348_4152);
        let n = 8 + src.next_below(17) as usize;
        let m = n + src.next_below(2 * n as u64) as usize;
        let graph = Arc::new(if directed == 0 {
            generators::gnm_connected(n, m, graph_seed)
        } else {
            generators::labeled_digraph(n, m, 3, graph_seed)
        });
        let workloads = supported_workloads(&graph);
        prop_assert!(!workloads.is_empty(), "graph supports no workloads");

        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let config = config_for(strategy);
            for shards in [1usize, 2, 4] {
                let service =
                    ShardedGraphService::start(Arc::clone(&graph), config.clone(), shards);
                for (i, &w) in workloads.iter().enumerate() {
                    let expected = run_workload(w, &graph, &config.engine, req_seed)
                        .expect("workload passed the supported() filter");
                    let req = QueryRequest::new(i as u64, QueryKind::Workload(w))
                        .with_seed(req_seed);
                    let resp = service.submit(req).expect("service open").wait();
                    match resp.result {
                        Ok(QueryOutput::Workload { answer, supersteps, .. }) => {
                            prop_assert!(
                                answer == expected.answer,
                                "{w:?} S={shards} {strategy:?}: answer {answer} != {}",
                                expected.answer
                            );
                            prop_assert!(
                                supersteps == expected.stats.supersteps(),
                                "{w:?} S={shards} {strategy:?}: supersteps {supersteps} != {}",
                                expected.stats.supersteps()
                            );
                        }
                        ref other => {
                            prop_assert!(
                                false,
                                "{w:?} S={shards} {strategy:?}: unexpected {other:?}"
                            );
                        }
                    }
                    let routed = matches!(
                        resp.route,
                        Route::Routed { shard, .. } if (shard as usize) < shards
                    );
                    prop_assert!(
                        routed,
                        "{w:?} S={shards} should be routed to one shard, got {:?}",
                        resp.route
                    );
                }
                service.shutdown();
            }
        }
    }
}

#[test]
fn point_lookups_are_owner_routed_and_exact() {
    let graph = Arc::new(generators::gnm_connected(64, 160, 3));
    for strategy in [Partitioning::Hash, Partitioning::Range] {
        let service = ShardedGraphService::start(Arc::clone(&graph), config_for(strategy), 4);
        for v in 0..graph.num_vertices() as VertexId {
            let deg = service
                .submit(QueryRequest::new(u64::from(v), QueryKind::Degree(v)))
                .unwrap()
                .wait();
            assert_eq!(
                deg.route,
                Route::Routed { shard: service.owner(v) as u32, replica: 0 },
                "v={v} routed to its owner"
            );
            assert_eq!(
                deg.result,
                Ok(QueryOutput::Degree(graph.out_degree(v))),
                "v={v} degree from the shard slice"
            );
            let nbrs = service
                .submit(QueryRequest::new(1000 + u64::from(v), QueryKind::Neighbors(v)))
                .unwrap()
                .wait();
            assert_eq!(
                nbrs.result,
                Ok(QueryOutput::Neighbors(graph.out_neighbors(v).to_vec())),
                "v={v} neighbors from the shard slice"
            );
        }
        // Out-of-range ids still route somewhere and answer NoSuchVertex.
        let miss = service
            .submit(QueryRequest::new(9999, QueryKind::Degree(10_000)))
            .unwrap()
            .wait();
        assert_eq!(miss.result, Err(QueryError::NoSuchVertex(10_000)));
        // Only owner-routed work: every shard that owns vertices completed
        // something.
        let snaps = service.shard_snapshots();
        assert_eq!(snaps.len(), 4);
        for s in &snaps {
            assert!(s.owned > 0, "shard {} owns vertices", s.shard);
            assert!(s.stats.completed > 0, "shard {} served lookups", s.shard);
        }
        service.shutdown();
    }
}

#[test]
fn each_analytics_request_runs_once_and_replays_hit_its_shard_cache() {
    // At S=4, R=2: N distinct (workload, seed) requests execute exactly N
    // times across the whole replica fleet, and replaying them is answered
    // N times from the cache of the shard each first ran on, without a
    // single new execution.
    let graph = Arc::new(generators::gnm_connected(40, 100, 9));
    let config = ServiceConfig { replicas: 2, ..config_for(Partitioning::Hash) };
    let requests: Vec<_> = supported_workloads(&graph)
        .into_iter()
        .flat_map(|w| (0..3u64).map(move |seed| (w, seed)))
        .collect();
    let n = requests.len() as u64;
    let service = ShardedGraphService::start(Arc::clone(&graph), config.clone(), 4);
    let submit_all = |first_id: u64| -> Vec<_> {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(w, seed))| {
                let req = QueryRequest::new(first_id + i as u64, QueryKind::Workload(w))
                    .with_seed(seed);
                service.submit(req).unwrap().wait()
            })
            .collect()
    };
    let replica_completed = || -> u64 {
        service
            .shard_snapshots()
            .iter()
            .flat_map(|s| &s.replicas)
            .map(|r| r.stats.completed)
            .sum()
    };
    let cold = submit_all(0);
    for (resp, &(w, seed)) in cold.iter().zip(&requests) {
        let expected = run_workload(w, &graph, &config.engine, seed).unwrap();
        match resp.result {
            Ok(QueryOutput::Workload { answer, .. }) => {
                assert_eq!(answer, expected.answer, "{w:?} seed {seed}")
            }
            ref other => panic!("{w:?} seed {seed}: unexpected {other:?}"),
        }
        assert!(resp.attempts >= 1, "{w:?} seed {seed}: cold request executed");
    }
    assert_eq!(replica_completed(), n, "each request ran on exactly one core");
    let before = service.stats();

    let warm = submit_all(n);
    let after = service.stats();
    assert_eq!(after.cache_hits - before.cache_hits, n, "every replay hit");
    assert_eq!(after.cache_misses, before.cache_misses, "no replay missed");
    assert_eq!(after.busy_ns, before.busy_ns, "no replay executed");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(w.result, c.result);
        assert_eq!(w.attempts, 0, "replay answered from the cache");
        let shard = |r: Route| match r {
            Route::Routed { shard, .. } => shard,
            other => panic!("expected a routed response, got {other:?}"),
        };
        assert_eq!(shard(w.route), shard(c.route), "replay landed on the same shard");
    }
    assert_eq!(replica_completed(), 2 * n, "cache hits count as completed");
    service.shutdown();
}

#[test]
fn reject_policy_sheds_when_queue_is_full() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = GraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            queue_capacity: 1,
            queue_policy: QueueFullPolicy::Reject,
            ..ServiceConfig::default()
        },
    );
    // Occupy the executor, give it time to dequeue, then fill the queue.
    let busy = service
        .submit(QueryRequest::new(1, QueryKind::DebugSleep(Duration::from_millis(300))))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let queued = service
        .submit(QueryRequest::new(2, QueryKind::DebugSleep(Duration::from_millis(1))))
        .unwrap();
    // Queue is now at capacity: the reject policy sheds instead of blocking.
    let shed = service
        .submit(QueryRequest::new(3, QueryKind::Degree(0)))
        .unwrap();
    let resp = shed.wait();
    assert_eq!(resp.result, Err(QueryError::Rejected));
    assert_eq!(resp.attempts, 0, "rejected before any attempt");
    assert!(busy.wait().is_ok());
    assert!(queued.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.failed, 1, "the reject is the only failure");
    assert_eq!(stats.completed, 2);
}

#[test]
fn expired_deadline_is_dropped_at_dequeue_without_running() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = GraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        },
    );
    // A deadline of "now" is already expired by the time an executor
    // dequeues the request.
    let resp = service
        .submit(
            QueryRequest::new(1, QueryKind::Degree(0)).with_deadline(Instant::now()),
        )
        .unwrap()
        .wait();
    assert_eq!(resp.result, Err(QueryError::DeadlineExceeded));
    assert_eq!(resp.attempts, 0, "never ran");
    assert_eq!(resp.service_time, Duration::ZERO);
    let stats = service.shutdown();
    assert_eq!(stats.early_drops, 1);
    assert_eq!(stats.timeouts, 0, "early drops are not timeouts");
}

#[test]
fn queue_high_water_mark_tracks_depth() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = GraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    // Hold the executor so submissions pile up.
    let tickets: Vec<_> = (0..5)
        .map(|i| {
            service
                .submit(QueryRequest::new(i, QueryKind::DebugSleep(Duration::from_millis(50))))
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = service.shutdown();
    // The executor held one job while at least some of the rest queued.
    assert!(stats.queue_hwm >= 2, "hwm {} should reflect queueing", stats.queue_hwm);
    assert!(stats.queue_hwm <= 5);
}

#[test]
fn sharded_stats_fold_across_shards() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let service = ShardedGraphService::start(Arc::clone(&graph), config_for(Partitioning::Hash), 2);
    for v in 0..8u32 {
        assert!(service
            .submit(QueryRequest::new(u64::from(v), QueryKind::Degree(v)))
            .unwrap()
            .wait()
            .is_ok());
    }
    let folded = service.stats();
    let snaps = service.shard_snapshots();
    assert_eq!(folded.completed, snaps.iter().map(|s| s.stats.completed).sum::<u64>());
    assert_eq!(folded.completed, 8);
    assert_eq!(
        snaps.iter().map(|s| s.owned).sum::<usize>(),
        graph.num_vertices(),
        "ownership partitions the vertex set"
    );
    let total = service.shutdown();
    assert_eq!(total.completed, 8);
}
