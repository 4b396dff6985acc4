//! The paper's synthetic community benchmark (V2V §III-A).
//!
//! `n` vertices are split into `k` equal groups; each group becomes an
//! α-quasi-clique by sampling, uniformly without replacement, an `α`
//! fraction of the `s(s-1)/2` edges a clique on `s` vertices would have
//! (`α = 1` gives full cliques). On top, `inter_edges` edges connect
//! vertices of different groups, also sampled uniformly without
//! replacement. The paper's instance: `n = 1000`, `k = 10`,
//! `inter_edges = 200` — at `α = 0.5` that is the "1000 vertices and 25000
//! edges" graph quoted in §I.

use v2v_base::rng::Rng;
use v2v_graph::generators::{pair_from_index, sample_distinct_indices};
use v2v_graph::{Graph, GraphBuilder, VertexId};

/// Parameters of the benchmark generator.
#[derive(Clone, Copy, Debug)]
pub struct QuasiCliqueConfig {
    /// Total vertices (`n`); must be divisible by `groups`.
    pub n: usize,
    /// Number of planted groups (`k`).
    pub groups: usize,
    /// Community strength `α` in `(0, 1]`.
    pub alpha: f64,
    /// Number of inter-group edges.
    pub inter_edges: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QuasiCliqueConfig {
    /// The paper's instance: 1000 vertices, 10 groups, 200 inter edges.
    pub fn paper(alpha: f64, seed: u64) -> Self {
        QuasiCliqueConfig { n: 1000, groups: 10, alpha, inter_edges: 200, seed }
    }
}

/// A generated benchmark graph with its ground truth.
#[derive(Clone, Debug)]
pub struct SyntheticCommunities {
    /// The undirected graph.
    pub graph: Graph,
    /// Ground-truth group of each vertex, in `0..groups`.
    pub labels: Vec<usize>,
    /// The α used.
    pub alpha: f64,
}

/// Generates the benchmark.
///
/// # Panics
/// Panics if `n` is not divisible by `groups`, `alpha` is outside `(0, 1]`,
/// or `inter_edges` exceeds the number of available inter-group pairs.
pub fn quasi_clique_graph(config: &QuasiCliqueConfig) -> SyntheticCommunities {
    let QuasiCliqueConfig { n, groups, alpha, inter_edges, seed } = *config;
    assert!(groups >= 1 && n % groups == 0, "n must be divisible by groups");
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    let s = n / groups;
    let intra_possible = s * (s - 1) / 2;
    let intra_per_group = ((alpha * intra_possible as f64).round() as usize).min(intra_possible);
    let inter_possible = n * (n - 1) / 2 - groups * intra_possible;
    assert!(inter_edges <= inter_possible, "too many inter-group edges requested");

    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected()
        .with_edge_capacity(groups * intra_per_group + inter_edges);
    b.ensure_vertices(n);

    let labels: Vec<usize> = (0..n).map(|v| v / s).collect();

    // Intra-group quasi-cliques.
    for g in 0..groups {
        let base = (g * s) as u32;
        for idx in sample_distinct_indices(intra_possible, intra_per_group, &mut rng) {
            let (u, v) = pair_from_index(idx);
            b.add_edge(VertexId(base + u as u32), VertexId(base + v as u32));
        }
    }

    // Inter-group edges: rejection-sample distinct cross pairs (the cross
    // space is vastly larger than 200, so rejection is cheap).
    let mut chosen = std::collections::HashSet::with_capacity(inter_edges);
    while chosen.len() < inter_edges {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if labels[u] == labels[v] {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            b.add_edge(VertexId(key.0 as u32), VertexId(key.1 as u32));
        }
    }

    SyntheticCommunities { graph: b.build().expect("generated edges are valid"), labels, alpha }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(alpha: f64, seed: u64) -> SyntheticCommunities {
        quasi_clique_graph(&QuasiCliqueConfig {
            n: 100,
            groups: 5,
            alpha,
            inter_edges: 30,
            seed,
        })
    }

    #[test]
    fn edge_counts_match_formula() {
        let d = small(0.5, 1);
        // 5 groups of 20: intra = round(0.5 * 190) = 95 each; + 30 inter.
        assert_eq!(d.graph.num_edges(), 5 * 95 + 30);
        assert_eq!(d.graph.num_vertices(), 100);
    }

    #[test]
    fn alpha_one_gives_cliques() {
        let d = small(1.0, 2);
        // Every within-group pair adjacent.
        for g in 0..5 {
            let base = g * 20;
            for u in 0..20 {
                for v in (u + 1)..20 {
                    assert!(d
                        .graph
                        .has_edge(VertexId((base + u) as u32), VertexId((base + v) as u32)));
                }
            }
        }
    }

    #[test]
    fn labels_partition_equally() {
        let d = small(0.3, 3);
        let mut counts = [0usize; 5];
        for &l in &d.labels {
            counts[l] += 1;
        }
        assert_eq!(counts, [20; 5]);
    }

    #[test]
    fn inter_edges_cross_groups() {
        let d = small(0.2, 4);
        let cross = d
            .graph
            .edges()
            .filter(|e| d.labels[e.source.index()] != d.labels[e.target.index()])
            .count();
        assert_eq!(cross, 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small(0.4, 9);
        let b = small(0.4, 9);
        assert_eq!(a.graph.edges().collect::<Vec<_>>(), b.graph.edges().collect::<Vec<_>>());
        let c = small(0.4, 10);
        assert_ne!(a.graph.edges().collect::<Vec<_>>(), c.graph.edges().collect::<Vec<_>>());
    }

    #[test]
    fn paper_instance_scale() {
        let d = quasi_clique_graph(&QuasiCliqueConfig::paper(0.5, 0));
        assert_eq!(d.graph.num_vertices(), 1000);
        // 10 * round(0.5 * 4950) + 200 = 24950: the "25000 edges" of §I.
        assert_eq!(d.graph.num_edges(), 10 * 2475 + 200);
        assert!(v2v_graph::traversal::is_connected(&d.graph));
    }

    #[test]
    fn graph_is_denser_inside() {
        let d = small(0.5, 5);
        let intra = d.graph.num_edges() - 30;
        assert!(intra > 10 * 30);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_n_panics() {
        quasi_clique_graph(&QuasiCliqueConfig { n: 10, groups: 3, alpha: 0.5, inter_edges: 1, seed: 0 });
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_panics() {
        quasi_clique_graph(&QuasiCliqueConfig { n: 10, groups: 2, alpha: 0.0, inter_edges: 1, seed: 0 });
    }
}
