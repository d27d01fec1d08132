//! The serving path: run any Table 1 workload against a *resident* graph.
//!
//! The sweep runners in [`crate::workload`] build each row's adversarial
//! input family themselves; a service, by contrast, loads one graph and must
//! answer whatever workload a request names. This module is that mapping:
//! [`supported`] checks a workload's structural preconditions against the
//! resident graph (cheaply — each check is at most one traversal), and
//! [`run_workload`] executes the workload with a bounded superstep budget so
//! a single request can never wedge an executor on a non-converging input.
//!
//! Requests carry a `seed`; source-parameterized workloads (SSSP,
//! betweenness, the simulation family) derive their source vertex or query
//! pattern deterministically from it, so the same request is exactly
//! reproducible.

use crate::workload::Workload;
use vcgp_graph::{traversal, Graph, GraphBuilder, SplitMix64};
use vcgp_pregel::{PregelConfig, RunStats};

/// PageRank iterations used on the serving path (convergence-grade runs use
/// the sweep's `K = 30`; a service answer trades a little precision for
/// bounded latency).
pub const SERVICE_PAGERANK_ITERS: u32 = 10;

/// Hard superstep budget per service request. Every in-tree workload
/// converges far below this on sane inputs; the cap bounds the damage of an
/// adversarial input (e.g. a matching on massive-tie weights).
pub const SERVICE_MAX_SUPERSTEPS: u64 = 10_000;

/// Why a workload cannot run against the resident graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The workload that was requested.
    pub workload: Workload,
    /// Human-readable precondition that failed.
    pub reason: &'static str,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} unsupported on this graph: {}", self.workload, self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// Result of one serving-path workload execution.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Engine instrumentation of the run (merged across stages for
    /// multi-stage pipelines).
    pub stats: RunStats,
    /// A small workload-specific scalar (component count, colors, diameter,
    /// matched edges, …) so responses carry a semantically meaningful
    /// answer, not just costs.
    pub answer: u64,
}

/// Returns `Ok(nl)` if the graph is "layered bipartite": some split point
/// `nl` has every edge crossing `[0, nl) × [nl, n)` — the layout the
/// bipartite-matching program requires.
fn bipartite_split(g: &Graph) -> Option<usize> {
    let mut max_min = 0u32;
    let mut min_max = u32::MAX;
    let mut any = false;
    for v in g.vertices() {
        for &u in g.out_neighbors(v) {
            if v < u {
                any = true;
                max_min = max_min.max(v);
                min_max = min_max.min(u);
            }
        }
    }
    if any && max_min < min_max {
        Some(max_min as usize + 1)
    } else {
        None
    }
}

/// Whether the graph is an undirected tree (connected, `m = n - 1`).
fn is_tree(g: &Graph) -> bool {
    if g.is_directed() || g.num_vertices() < 2 || g.num_edges() != g.num_vertices() - 1 {
        return false;
    }
    traversal::connected_components(g).1 == 1
}

/// Checks the structural preconditions of `workload` against `graph`.
///
/// The checks are deliberately at most one `O(n + m)` pass, so a service can
/// evaluate all twenty at load time to publish its capability set.
pub fn supported(workload: Workload, graph: &Graph) -> Result<(), Unsupported> {
    let fail = |reason: &'static str| Err(Unsupported { workload, reason });
    if graph.num_vertices() < 2 {
        return fail("graph has fewer than two vertices");
    }
    match workload {
        Workload::Wcc | Workload::Scc if !graph.is_directed() => {
            fail("requires a directed graph")
        }
        Workload::GraphSim | Workload::DualSim | Workload::StrongSim
            if !graph.is_directed() =>
        {
            fail("simulation requires a directed data graph")
        }
        Workload::Mst | Workload::Matching if !graph.is_weighted() => {
            fail("requires edge weights")
        }
        Workload::EulerTour | Workload::TreeOrder if !is_tree(graph) => {
            fail("requires an undirected tree")
        }
        Workload::BipartiteMatching
            if graph.is_directed() || bipartite_split(graph).is_none() =>
        {
            fail("requires a layered bipartite graph")
        }
        Workload::Diameter | Workload::Apsp | Workload::Bcc | Workload::SpanningTree
        | Workload::CcHashMin | Workload::CcSv | Workload::Coloring
            if graph.is_directed() =>
        {
            fail("requires an undirected graph")
        }
        _ => Ok(()),
    }
}

/// The workloads [`supported`] admits on `graph`, in Table 1 order.
pub fn supported_workloads(graph: &Graph) -> Vec<Workload> {
    Workload::ALL
        .into_iter()
        .filter(|&w| supported(w, graph).is_ok())
        .collect()
}

/// A deterministic 2-cycle query pattern over the label of a seeded data
/// vertex — the cheapest query that still drives every simulation variant's
/// refinement loop.
fn seeded_query(graph: &Graph, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let v = rng.next_index(graph.num_vertices()) as u32;
    let label = graph.label(v);
    let mut qb = GraphBuilder::directed(2);
    qb.add_edge(0, 1);
    qb.add_edge(1, 0);
    qb.set_labels(vec![label, label]);
    qb.build()
}

/// Runs `workload` against the resident `graph`.
///
/// `seed` parameterizes source-dependent workloads; `config` supplies the
/// engine settings (its superstep cap is clamped to
/// [`SERVICE_MAX_SUPERSTEPS`]). Returns the merged run statistics plus a
/// workload-specific scalar answer, or the failed precondition.
pub fn run_workload(
    workload: Workload,
    graph: &Graph,
    config: &PregelConfig,
    seed: u64,
) -> Result<ServiceRun, Unsupported> {
    supported(workload, graph)?;
    let cfg = config
        .clone()
        .with_max_supersteps(config.max_supersteps.min(SERVICE_MAX_SUPERSTEPS));
    let mut rng = SplitMix64::new(seed);
    let source = rng.next_index(graph.num_vertices()) as u32;
    let run = match workload {
        Workload::Diameter | Workload::Apsp => {
            let r = vcgp_algorithms::diameter::run(graph, &cfg);
            ServiceRun { answer: u64::from(r.diameter), stats: r.stats }
        }
        Workload::PageRank => {
            let r = vcgp_algorithms::pagerank::run(graph, 0.85, SERVICE_PAGERANK_ITERS, &cfg);
            // Index of the top-ranked vertex.
            let top = r
                .scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            ServiceRun { answer: top as u64, stats: r.stats }
        }
        Workload::CcHashMin => {
            let r = vcgp_algorithms::cc_hashmin::run(graph, &cfg);
            ServiceRun { answer: distinct(&r.components), stats: r.stats }
        }
        Workload::CcSv => {
            let r = vcgp_algorithms::cc_sv::run(graph, &cfg);
            ServiceRun { answer: distinct(&r.components), stats: r.stats }
        }
        Workload::Bcc => {
            let r = vcgp_algorithms::bcc::run(graph, &cfg);
            ServiceRun { answer: r.count as u64, stats: r.stats }
        }
        Workload::Wcc => {
            let r = vcgp_algorithms::wcc::run(graph, &cfg);
            ServiceRun { answer: distinct(&r.components), stats: r.stats }
        }
        Workload::Scc => {
            let r = vcgp_algorithms::scc::run(graph, &cfg);
            ServiceRun { answer: r.count as u64, stats: r.stats }
        }
        Workload::EulerTour => {
            let r = vcgp_algorithms::euler_tour::run(graph, 0, &cfg);
            ServiceRun { answer: r.tour.len() as u64, stats: r.stats }
        }
        Workload::TreeOrder => {
            let r = vcgp_algorithms::tree_order::run(graph, 0, &cfg);
            ServiceRun { answer: r.pre.len() as u64, stats: r.stats }
        }
        Workload::SpanningTree => {
            let r = vcgp_algorithms::spanning_tree::run(graph, &cfg);
            ServiceRun { answer: r.tree_edges.len() as u64, stats: r.stats }
        }
        Workload::Mst => {
            let r = vcgp_algorithms::mst_boruvka::run(graph, &cfg);
            ServiceRun { answer: r.edges.len() as u64, stats: r.stats }
        }
        Workload::Coloring => {
            let r = vcgp_algorithms::coloring_mis::run(graph, &cfg);
            ServiceRun { answer: r.num_colors as u64, stats: r.stats }
        }
        Workload::Matching => {
            let r = vcgp_algorithms::matching_preis::run(graph, &cfg);
            ServiceRun { answer: r.size as u64, stats: r.stats }
        }
        Workload::BipartiteMatching => {
            let nl = bipartite_split(graph).expect("checked by supported()");
            let r = vcgp_algorithms::bipartite_matching::run(graph, nl, &cfg);
            ServiceRun { answer: r.size as u64, stats: r.stats }
        }
        Workload::Betweenness => {
            // Single seeded source: full Brandes is Θ(nm) and belongs in the
            // batch harness, not a per-request path.
            let r = vcgp_algorithms::betweenness::run(graph, Some(&[source]), &cfg);
            let top = r
                .scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i);
            ServiceRun { answer: top as u64, stats: r.stats }
        }
        Workload::Sssp => {
            let r = vcgp_algorithms::sssp::run(graph, source, &cfg);
            let reached = r.dist.iter().filter(|d| d.is_finite()).count();
            ServiceRun { answer: reached as u64, stats: r.stats }
        }
        Workload::GraphSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::graph_simulation::run(&q, graph, &cfg);
            ServiceRun { answer: match_count(&r.matches), stats: r.stats }
        }
        Workload::DualSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::dual_simulation::run(&q, graph, &cfg);
            ServiceRun { answer: match_count(&r.matches), stats: r.stats }
        }
        Workload::StrongSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::strong_simulation::run(&q, graph, &cfg);
            let centers = r.centers.iter().filter(|c| !c.is_empty()).count();
            ServiceRun { answer: centers as u64, stats: r.stats }
        }
    };
    Ok(run)
}

/// Number of distinct component labels.
fn distinct(components: &[u32]) -> u64 {
    let mut seen: Vec<u32> = components.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len() as u64
}

/// Total match-set size across query vertices.
fn match_count(matches: &[Vec<u32>]) -> u64 {
    matches.iter().map(|m| m.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn capability_set_on_plain_undirected_graph() {
        let g = generators::gnm_connected(64, 128, 5);
        let caps = supported_workloads(&g);
        // Unweighted undirected graph: no MST/matching (weights), no
        // WCC/SCC (direction), no tree rows, no bipartite layout.
        for w in [
            Workload::Mst,
            Workload::Matching,
            Workload::Wcc,
            Workload::Scc,
            Workload::EulerTour,
            Workload::TreeOrder,
            Workload::BipartiteMatching,
        ] {
            assert!(!caps.contains(&w), "{w:?} should be unsupported");
            assert!(supported(w, &g).is_err());
        }
        for w in [Workload::Diameter, Workload::PageRank, Workload::CcHashMin, Workload::Sssp] {
            assert!(caps.contains(&w), "{w:?} should be supported");
        }
    }

    #[test]
    fn capability_set_widens_with_structure() {
        let tree = generators::random_tree(32, 9);
        assert!(supported(Workload::EulerTour, &tree).is_ok());
        assert!(supported(Workload::TreeOrder, &tree).is_ok());

        let bip = generators::complete_bipartite(8, 4);
        assert!(supported(Workload::BipartiteMatching, &bip).is_ok());
        assert_eq!(bipartite_split(&bip), Some(8));

        let weighted =
            generators::with_random_weights(&generators::gnm_connected(24, 48, 3), 0.0, 1.0, 3, true);
        assert!(supported(Workload::Mst, &weighted).is_ok());
        assert!(supported(Workload::Matching, &weighted).is_ok());

        let digraph = generators::digraph_gnm(24, 60, 4);
        assert!(supported(Workload::Wcc, &digraph).is_ok());
        assert!(supported(Workload::Scc, &digraph).is_ok());
        assert!(supported(Workload::CcHashMin, &digraph).is_err());
    }

    #[test]
    fn tiny_graph_rejected() {
        let g = generators::path(1);
        for w in Workload::ALL {
            assert!(supported(w, &g).is_err(), "{w:?}");
        }
    }

    #[test]
    fn run_workload_answers_are_sane() {
        let g = generators::gnm_connected(48, 96, 7);
        let cfg = PregelConfig::single_worker();
        let cc = run_workload(Workload::CcHashMin, &g, &cfg, 1).unwrap();
        assert_eq!(cc.answer, 1, "connected input has one component");
        assert!(cc.stats.supersteps() > 0);

        let sssp = run_workload(Workload::Sssp, &g, &cfg, 1).unwrap();
        assert_eq!(sssp.answer, 48, "connected: every vertex reached");

        let span = run_workload(Workload::SpanningTree, &g, &cfg, 1).unwrap();
        assert_eq!(span.answer, 47, "spanning tree has n - 1 edges");

        let err = run_workload(Workload::Mst, &g, &cfg, 1).unwrap_err();
        assert_eq!(err.workload, Workload::Mst);
    }

    #[test]
    fn run_workload_is_deterministic_per_seed() {
        let g = generators::labeled_digraph(40, 120, 3, 11);
        let cfg = PregelConfig::single_worker();
        let a = run_workload(Workload::GraphSim, &g, &cfg, 42).unwrap();
        let b = run_workload(Workload::GraphSim, &g, &cfg, 42).unwrap();
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.stats.supersteps(), b.stats.supersteps());
        assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }

    #[test]
    fn superstep_budget_is_clamped() {
        let g = generators::path(16);
        let cfg = PregelConfig::single_worker().with_max_supersteps(u64::MAX);
        // The clamp happens inside run_workload; the run converges long
        // before the budget, so this just must not wedge or panic.
        let r = run_workload(Workload::CcHashMin, &g, &cfg, 0).unwrap();
        assert!(r.stats.supersteps() <= SERVICE_MAX_SUPERSTEPS);
    }
}
