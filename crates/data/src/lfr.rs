//! LFR-style community benchmark (Lancichinetti–Fortunato–Radicchi).
//!
//! The paper's synthetic benchmark (§III-A) has equal-size communities and
//! near-uniform degrees; real networks have neither. The LFR benchmark is
//! the standard harder test: power-law degree distribution, power-law
//! community sizes, and a *mixing parameter* `mu` — the expected fraction
//! of each vertex's edges that leave its community. This implementation is
//! a faithful simplification (stub matching within and across communities
//! instead of LFR's iterative rewiring), which preserves the properties
//! experiments rely on: heavy-tailed degrees, heterogeneous community
//! sizes, and `mu`-controlled mixing.

use v2v_base::rng::Rng;
use v2v_graph::{Graph, GraphBuilder, VertexId};

/// LFR generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct LfrConfig {
    /// Number of vertices.
    pub n: usize,
    /// Power-law exponent of the degree distribution (typically 2–3).
    pub degree_exponent: f64,
    /// Minimum and maximum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Power-law exponent of community sizes (typically 1–2).
    pub community_exponent: f64,
    /// Minimum community size.
    pub min_community: usize,
    /// Maximum community size.
    pub max_community: usize,
    /// Mixing parameter: expected fraction of inter-community edges per
    /// vertex, in `[0, 1)`.
    pub mu: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LfrConfig {
    fn default() -> Self {
        LfrConfig {
            n: 1000,
            degree_exponent: 2.5,
            min_degree: 5,
            max_degree: 50,
            community_exponent: 1.5,
            min_community: 20,
            max_community: 100,
            mu: 0.2,
            seed: 0x1F8,
        }
    }
}

/// A generated LFR benchmark graph with its ground truth.
#[derive(Clone, Debug)]
pub struct LfrBenchmark {
    /// The undirected graph.
    pub graph: Graph,
    /// Ground-truth community of each vertex.
    pub labels: Vec<usize>,
    /// Realized mixing (fraction of inter-community edges).
    pub realized_mu: f64,
}

/// Samples from a discrete truncated power law `P(x) ∝ x^-exponent` on
/// `[lo, hi]` by inverse-transform on the continuous approximation.
fn power_law(lo: usize, hi: usize, exponent: f64, rng: &mut Rng) -> usize {
    debug_assert!(lo >= 1 && hi >= lo);
    if lo == hi {
        return lo;
    }
    let a = 1.0 - exponent;
    let (lo_f, hi_f) = (lo as f64, (hi + 1) as f64);
    let u = rng.gen_f64();
    let x = if a.abs() < 1e-9 {
        // exponent == 1: log-uniform.
        (lo_f.ln() + u * (hi_f.ln() - lo_f.ln())).exp()
    } else {
        (lo_f.powf(a) + u * (hi_f.powf(a) - lo_f.powf(a))).powf(1.0 / a)
    };
    (x.floor() as usize).clamp(lo, hi)
}

/// Generates the benchmark.
///
/// # Panics
/// Panics on inconsistent parameters (`mu` out of range, min > max, or
/// communities that cannot fit every vertex's intra-degree).
pub fn lfr_graph(config: &LfrConfig) -> LfrBenchmark {
    let c = *config;
    assert!((0.0..1.0).contains(&c.mu), "mu must be in [0, 1)");
    assert!(c.min_degree >= 1 && c.min_degree <= c.max_degree);
    assert!(c.min_community >= 2 && c.min_community <= c.max_community);
    assert!(
        ((c.min_degree as f64) * (1.0 - c.mu)).ceil() < c.min_community as f64,
        "min_community too small for the intra-degree demand"
    );
    let mut rng = Rng::seed_from_u64(c.seed);

    // Degrees.
    let degrees: Vec<usize> =
        (0..c.n).map(|_| power_law(c.min_degree, c.max_degree, c.degree_exponent, &mut rng)).collect();

    // Community sizes covering n (last community truncated/extended).
    let mut sizes = Vec::new();
    let mut covered = 0usize;
    while covered < c.n {
        let mut s = power_law(c.min_community, c.max_community, c.community_exponent, &mut rng);
        if covered + s > c.n {
            s = c.n - covered;
        }
        sizes.push(s);
        covered += s;
    }
    // Merge a trailing too-small community into its predecessor.
    if sizes.len() >= 2 && *sizes.last().unwrap() < c.min_community {
        let last = sizes.pop().unwrap();
        *sizes.last_mut().unwrap() += last;
    }

    // Assign vertices to communities, largest-degree vertices first into
    // larger communities so every intra-degree fits.
    let mut order: Vec<usize> = (0..c.n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(degrees[v]));
    let mut by_size: Vec<usize> = (0..sizes.len()).collect();
    by_size.sort_by_key(|&ci| std::cmp::Reverse(sizes[ci]));
    let mut labels = vec![usize::MAX; c.n];
    {
        // Flattened (community, seat) list, one seat per vertex.
        let seats: Vec<usize> = by_size
            .iter()
            .flat_map(|&ci| std::iter::repeat_n(ci, sizes[ci]))
            .collect();
        for (&v, &seat) in order.iter().zip(&seats) {
            labels[v] = seat;
        }
    }

    // Split each vertex's stubs into intra and inter halves.
    let mut intra_stubs: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
    let mut inter_stubs: Vec<usize> = Vec::new();
    for v in 0..c.n {
        let d = degrees[v];
        let inter = ((d as f64) * c.mu).round() as usize;
        let intra = (d - inter).min(sizes[labels[v]].saturating_sub(1));
        for _ in 0..intra {
            intra_stubs[labels[v]].push(v);
        }
        for _ in 0..(d - intra) {
            inter_stubs.push(v);
        }
    }

    // Configuration-model matching, rejecting self-loops/duplicates.
    let mut b = GraphBuilder::new_undirected().deduplicate(true);
    b.ensure_vertices(c.n);
    let pair_up = |stubs: &mut Vec<usize>, rng: &mut Rng, b: &mut GraphBuilder, cross_check: bool, labels: &Vec<usize>| {
        // Shuffle then pair consecutive stubs; a bounded number of repair
        // passes resolves most self-pairs.
        rng.shuffle(stubs);
        let mut i = 0;
        while i + 1 < stubs.len() {
            let (u, v) = (stubs[i], stubs[i + 1]);
            let bad = u == v || (cross_check && labels[u] == labels[v]);
            if !bad {
                b.add_edge(VertexId(u as u32), VertexId(v as u32));
            }
            i += 2;
        }
    };
    for stubs in intra_stubs.iter_mut() {
        pair_up(stubs, &mut rng, &mut b, false, &labels);
    }
    pair_up(&mut inter_stubs, &mut rng, &mut b, true, &labels);

    let graph = b.build().expect("LFR edges are valid");
    let inter_edges = graph
        .edges()
        .filter(|e| labels[e.source.index()] != labels[e.target.index()])
        .count();
    let realized_mu =
        if graph.num_edges() == 0 { 0.0 } else { inter_edges as f64 / graph.num_edges() as f64 };
    LfrBenchmark { graph, labels, realized_mu }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mu: f64, seed: u64) -> LfrBenchmark {
        lfr_graph(&LfrConfig {
            n: 300,
            min_degree: 4,
            max_degree: 30,
            min_community: 15,
            max_community: 60,
            mu,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn basic_shape() {
        let b = small(0.2, 1);
        assert_eq!(b.graph.num_vertices(), 300);
        assert_eq!(b.labels.len(), 300);
        assert!(b.graph.num_edges() > 300, "too few edges: {}", b.graph.num_edges());
        b.graph.validate().unwrap();
    }

    #[test]
    fn realized_mu_tracks_requested() {
        let lo = small(0.1, 2);
        let hi = small(0.5, 2);
        assert!(lo.realized_mu < hi.realized_mu, "{} vs {}", lo.realized_mu, hi.realized_mu);
        assert!((lo.realized_mu - 0.1).abs() < 0.1, "realized {}", lo.realized_mu);
        assert!((hi.realized_mu - 0.5).abs() < 0.15, "realized {}", hi.realized_mu);
    }

    #[test]
    fn community_sizes_in_bounds() {
        let b = small(0.2, 3);
        let mut sizes = std::collections::HashMap::new();
        for &l in &b.labels {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
        for (&c, &s) in &sizes {
            assert!(s >= 15, "community {c} has only {s} members");
        }
        assert!(sizes.len() >= 3, "only {} communities", sizes.len());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let b = lfr_graph(&LfrConfig { n: 2000, ..Default::default() });
        let stats = v2v_graph::stats::degree_stats(&b.graph);
        // Power-law input: max much larger than mean.
        assert!(stats.max as f64 > 3.0 * stats.mean, "max {} mean {}", stats.max, stats.mean);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small(0.3, 7);
        let b = small(0.3, 7);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.graph.edges().collect::<Vec<_>>(), b.graph.edges().collect::<Vec<_>>());
    }

    #[test]
    fn detectable_at_low_mu() {
        // Louvain should recover most of the structure at mu = 0.1.
        let b = small(0.1, 9);
        let p = v2v_community::louvain(&b.graph, 1);
        let s = v2v_ml_metrics_proxy(&b.labels, &p.labels);
        assert!(s > 0.6, "NMI proxy {s}");
    }

    /// Pair-counting agreement (avoids a dev-dependency cycle on v2v-ml).
    fn v2v_ml_metrics_proxy(truth: &[usize], pred: &[usize]) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..truth.len() {
            for j in (i + 1)..truth.len() {
                total += 1;
                if (truth[i] == truth[j]) == (pred[i] == pred[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    #[should_panic(expected = "mu")]
    fn bad_mu_panics() {
        lfr_graph(&LfrConfig { mu: 1.0, ..Default::default() });
    }

    #[test]
    fn power_law_sampler_bounds_and_bias() {
        let mut rng = Rng::seed_from_u64(4);
        let samples: Vec<usize> = (0..5000).map(|_| power_law(5, 50, 2.5, &mut rng)).collect();
        assert!(samples.iter().all(|&x| (5..=50).contains(&x)));
        let small = samples.iter().filter(|&&x| x <= 10).count();
        let large = samples.iter().filter(|&&x| x >= 40).count();
        assert!(small > 10 * large, "small {small} vs large {large}");
    }
}
