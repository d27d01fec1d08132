//! Deterministic operation mixes.
//!
//! An operation mix maps a `(seed, operation index)` pair to a
//! [`QueryKind`] as a pure function — no shared RNG stream — so any number
//! of driver threads can draw operations concurrently and two runs with the
//! same seed issue the *identical* operation sequence regardless of thread
//! interleaving.
//!
//! Point-lookup keys are uniform over the mix's vertex span by default;
//! [`Mix::with_zipf`] switches them to a seeded **zipfian** draw
//! ([`Zipf`]), making hotspot skew a tunable dial instead of the fixed
//! low-id prefix of the `hotspot` preset. Rank 0 (the hottest key) is
//! vertex id 0, so zipfian skew composes with range shard placement to
//! concentrate load on shard 0 — the hot-shard reproduction the replica
//! experiments drive.

use crate::request::QueryKind;
use vcgp_core::{service, Workload};
use vcgp_graph::rng::mix3;
use vcgp_graph::{Graph, SplitMix64};

/// Workloads light enough for the serving path, in preference order.
/// (Diameter/APSP, betweenness, and the tree rows are batch-shaped: full
/// APSP floods `O(n·m)` messages and the tree rows need a tree input.)
const SERVING_WORKLOADS: [Workload; 10] = [
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

/// Domain separator for the operation stream. Shared with the scenario
/// engine's [`crate::scenario::PhaseMix`], which must reproduce the exact
/// per-operation RNG stream so preset desugarings stay bit-identical.
pub(crate) const MIX_STREAM: u64 = 0x4D49_5853; // "MIXS"

/// The serving-suitable workload pool on `graph`: the subset of
/// [`SERVING_WORKLOADS`] the graph supports.
pub(crate) fn serving_pool(graph: &Graph) -> Vec<Workload> {
    SERVING_WORKLOADS
        .into_iter()
        .filter(|&w| service::supported(w, graph).is_ok())
        .collect()
}

/// A zipfian sampler over ranks `[0, n)` (rank 0 most probable, mass of
/// rank `k` proportional to `1 / (k+1)^s`), sampled by rejection
/// inversion of the zipf distribution's integral approximation — O(1)
/// memory and time per draw for any `n`, no precomputed tables, so it
/// stays a *pure* function of the per-operation RNG the mix derives from
/// `(seed, index)` (the same construction cql-stress uses for seeded row
/// generation).
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// `H(1.5) - 1`: upper end of the inversion domain.
    h_x1: f64,
    /// `H(n + 0.5)`: lower end of the inversion domain.
    h_n: f64,
    /// Acceptance shortcut: `2 - H⁻¹(H(2.5) - h(2))`.
    threshold: f64,
}

impl Zipf {
    /// A sampler over `[0, n)` with exponent `s` (`s > 0`; `s = 1` is the
    /// classic zipf law, larger is more skewed).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "zipf needs a non-empty rank space");
        assert!(s > 0.0 && s.is_finite(), "zipf exponent must be positive");
        Zipf {
            n,
            s,
            h_x1: h_integral(1.5, s) - 1.0,
            h_n: h_integral(n as f64 + 0.5, s),
            threshold: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    /// The configured exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            // Accept k when it is close enough to x (the common case) or
            // when u falls under the true mass of k.
            if k - x <= self.threshold || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as usize - 1;
            }
        }
    }
}

/// `H(x) = ((x^(1-s)) - 1) / (1 - s)`, the integral of `h`, computed via
/// `expm1`/`log1p` helpers so the `s = 1` limit (`ln x`) falls out without
/// a special case.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^(-s)`, the mass density.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// `H⁻¹(x)`.
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    // Numerical round-off can push t slightly below the domain edge for
    // large exponents; clamp like the reference implementation.
    let t = (x * (1.0 - s)).max(-1.0);
    (helper1(t) * x).exp()
}

/// `ln(1 + x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))
    }
}

/// A resolved operation mix: percentage of point lookups plus the workload
/// pool drawn for the remainder, already filtered to what the resident
/// graph supports.
#[derive(Debug, Clone)]
pub struct Mix {
    name: &'static str,
    point_pct: u64,
    workloads: Vec<Workload>,
    /// Point lookups draw vertex ids from `[0, vertex_span)` — the full
    /// graph for the uniform presets, a small low-id prefix for `hotspot`.
    vertex_span: usize,
    /// When set, point-lookup keys are drawn zipfian over the span instead
    /// of uniformly (`None` keeps the op stream bit-identical to what it
    /// was before this knob existed).
    zipf: Option<Zipf>,
}

impl Mix {
    /// Resolves a named preset against `graph`:
    ///
    /// * `points` — 100 % point lookups (degree / neighbor reads);
    /// * `mixed` — 80 % point lookups, 20 % analytics workloads;
    /// * `analytics` — 100 % analytics workloads;
    /// * `hotspot` — 100 % point lookups over the lowest `max(1, n/8)`
    ///   vertex ids: a contiguous hot set, so under range shard placement
    ///   every request lands on one shard while hash placement spreads it —
    ///   the shard-locality probe.
    ///
    /// The workload pool is the serving-suitable subset of Table 1
    /// intersected with [`vcgp_core::service::supported_workloads`]; a
    /// preset that needs workloads fails on a graph that supports none.
    pub fn preset(name: &str, graph: &Graph) -> Result<Mix, String> {
        let (canonical, point_pct): (&'static str, u64) = match name {
            "points" => ("points", 100),
            "mixed" => ("mixed", 80),
            "analytics" => ("analytics", 0),
            "hotspot" => ("hotspot", 100),
            other => {
                return Err(format!(
                    "unknown mix '{other}' (expected points, mixed, analytics, or hotspot)"
                ))
            }
        };
        let workloads: Vec<Workload> = if point_pct == 100 {
            Vec::new()
        } else {
            serving_pool(graph)
        };
        if point_pct < 100 && workloads.is_empty() {
            return Err(format!(
                "mix '{canonical}' needs analytics workloads, but this graph supports none"
            ));
        }
        let n = graph.num_vertices();
        let vertex_span = if canonical == "hotspot" {
            (n / 8).max(1)
        } else {
            n
        };
        Ok(Mix {
            name: canonical,
            point_pct,
            workloads,
            vertex_span,
            zipf: None,
        })
    }

    /// Makes point lookups draw their vertex id zipfian over the span
    /// with exponent `s` (rank 0 = id 0 = hottest; composes with the
    /// `hotspot` span and with range placement). Fails for a
    /// non-positive or non-finite exponent; the default (no call) keeps
    /// the uniform draw and its exact historical operation stream.
    pub fn with_zipf(mut self, s: f64) -> Result<Mix, String> {
        if !(s > 0.0 && s.is_finite()) {
            return Err(format!("zipf exponent must be positive and finite, got {s}"));
        }
        self.zipf = Some(Zipf::new(self.vertex_span, s));
        Ok(self)
    }

    /// The configured zipf sampler, if any.
    pub fn zipf(&self) -> Option<&Zipf> {
        self.zipf.as_ref()
    }

    /// The id range point lookups draw from (`n` except for `hotspot`).
    pub fn vertex_span(&self) -> usize {
        self.vertex_span
    }

    /// Percentage of operations that are point lookups.
    pub(crate) fn point_pct(&self) -> u64 {
        self.point_pct
    }

    /// The preset name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The resolved workload pool.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The operation at `index` in the run seeded by `seed` — a pure
    /// function of its arguments.
    pub fn op(&self, seed: u64, index: u64) -> QueryKind {
        let mut rng = SplitMix64::new(mix3(seed, index, MIX_STREAM));
        let roll = rng.next_below(100);
        if roll < self.point_pct {
            let v = match &self.zipf {
                Some(z) => z.sample(&mut rng) as u32,
                None => rng.next_index(self.vertex_span) as u32,
            };
            if rng.next_bool(0.5) {
                QueryKind::Degree(v)
            } else {
                QueryKind::Neighbors(v)
            }
        } else {
            QueryKind::Workload(self.workloads[rng.next_index(self.workloads.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn presets_resolve_against_graph_capabilities() {
        let g = generators::gnm_connected(32, 64, 1);
        let points = Mix::preset("points", &g).unwrap();
        assert!(points.workloads().is_empty());
        let mixed = Mix::preset("mixed", &g).unwrap();
        assert!(!mixed.workloads().is_empty());
        // Undirected graph: no Wcc/Scc/sims in the pool.
        assert!(!mixed.workloads().contains(&Workload::Wcc));
        assert!(Mix::preset("nope", &g).is_err());
    }

    #[test]
    fn op_is_a_pure_function() {
        let g = generators::gnm_connected(32, 64, 1);
        let mix = Mix::preset("mixed", &g).unwrap();
        for i in 0..200 {
            assert_eq!(mix.op(7, i), mix.op(7, i), "index {i}");
        }
        // Different seeds give different sequences.
        let a: Vec<QueryKind> = (0..64).map(|i| mix.op(1, i)).collect();
        let b: Vec<QueryKind> = (0..64).map(|i| mix.op(2, i)).collect();
        assert_ne!(a, b);
    }

    /// The key of a point lookup, if the op is one.
    fn point_key(op: QueryKind) -> Option<u32> {
        match op {
            QueryKind::Degree(v) | QueryKind::Neighbors(v) => Some(v),
            _ => None,
        }
    }

    #[test]
    fn zipf_op_stays_pure_and_in_range() {
        let g = generators::gnm_connected(64, 128, 3);
        let mix = Mix::preset("points", &g).unwrap().with_zipf(1.0).unwrap();
        for i in 0..300 {
            let op = mix.op(9, i);
            assert_eq!(op, mix.op(9, i), "index {i}");
            let v = point_key(op).expect("points mix");
            assert!((v as usize) < g.num_vertices(), "key {v} out of span");
        }
    }

    #[test]
    fn zipf_skews_toward_rank_zero_and_sharpens_with_s() {
        let g = generators::gnm_connected(256, 512, 5);
        let count_low = |mix: &Mix| -> usize {
            (0..4000u64)
                .filter_map(|i| point_key(mix.op(21, i)))
                .filter(|&v| (v as usize) < g.num_vertices() / 16)
                .count()
        };
        let uniform = Mix::preset("points", &g).unwrap();
        let mild = Mix::preset("points", &g).unwrap().with_zipf(1.0).unwrap();
        let sharp = Mix::preset("points", &g).unwrap().with_zipf(2.0).unwrap();
        let (u, m, s) = (count_low(&uniform), count_low(&mild), count_low(&sharp));
        // Uniform puts ~1/16 of the mass in the lowest 1/16 of ids; s=1
        // puts far more there, and s=2 more still.
        assert!(m > u * 3, "zipf(1) low-id mass {m} not >> uniform {u}");
        assert!(s > m, "zipf(2) low-id mass {s} not above zipf(1) {m}");
        // The s=1 special case of the integral helpers must not produce
        // out-of-range or constant draws.
        let distinct: std::collections::BTreeSet<u32> =
            (0..2000u64).filter_map(|i| point_key(mild.op(21, i))).collect();
        assert!(distinct.len() > 10, "zipf(1) draws collapsed: {distinct:?}");
    }

    #[test]
    fn zipf_rejects_bad_exponents() {
        let g = generators::gnm_connected(16, 32, 1);
        assert!(Mix::preset("points", &g).unwrap().with_zipf(0.0).is_err());
        assert!(Mix::preset("points", &g).unwrap().with_zipf(-1.0).is_err());
        assert!(Mix::preset("points", &g).unwrap().with_zipf(f64::NAN).is_err());
    }

    #[test]
    fn zipf_none_preserves_historical_stream() {
        // The zipf field must not perturb the default draw: the op stream
        // with zipf disabled is byte-for-byte what it always was.
        let g = generators::gnm_connected(32, 64, 1);
        let mix = Mix::preset("hotspot", &g).unwrap();
        let rng_check = |i: u64| {
            let mut rng = SplitMix64::new(mix3(7, i, MIX_STREAM));
            let _ = rng.next_below(100);
            let v = rng.next_index(mix.vertex_span()) as u32;
            let degree = rng.next_bool(0.5);
            let expect = if degree { QueryKind::Degree(v) } else { QueryKind::Neighbors(v) };
            assert_eq!(mix.op(7, i), expect, "index {i}");
        };
        for i in 0..100 {
            rng_check(i);
        }
    }
}
