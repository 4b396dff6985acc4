//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use v2v_graph::generators::{pair_from_index, sample_distinct_indices};
use v2v_graph::traversal::connected_components;
use v2v_graph::{GraphBuilder, VertexId};

proptest! {
    /// Any edge list builds a graph whose invariants validate, whose logical
    /// edge count matches the input, and whose degrees sum to the arc count.
    #[test]
    fn builder_invariants(edges in proptest::collection::vec((0u32..64, 0u32..64), 0..200),
                          directed in any::<bool>()) {
        let mut b = if directed { GraphBuilder::new_directed() } else { GraphBuilder::new_undirected() };
        for &(u, v) in &edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        let g = b.build().unwrap();
        g.validate().unwrap();
        prop_assert_eq!(g.num_edges(), edges.len());
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_arcs());
        prop_assert_eq!(g.edges().count(), edges.len());
    }

    /// Undirected adjacency is symmetric: u in N(v) iff v in N(u).
    #[test]
    fn undirected_symmetry(edges in proptest::collection::vec((0u32..32, 0u32..32), 1..100)) {
        let mut b = GraphBuilder::new_undirected();
        for &(u, v) in &edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        let g = b.build().unwrap();
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "missing reverse of {u}->{v}");
            }
        }
    }

    /// `pair_from_index` is a bijection from 0..n(n-1)/2 onto ordered pairs.
    #[test]
    fn pair_index_bijection(n in 2usize..80) {
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = pair_from_index(idx);
            prop_assert!(u < v && v < n);
            prop_assert!(seen.insert((u, v)));
        }
    }

    /// Floyd sampling returns exactly k distinct in-range indices.
    #[test]
    fn floyd_sampling_distinct(total in 1usize..500, seed in any::<u64>()) {
        let k = total / 2;
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let s = sample_distinct_indices(total, k, &mut rng);
        prop_assert_eq!(s.len(), k);
        let set: std::collections::HashSet<_> = s.iter().copied().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(set.iter().all(|&i| i < total));
    }

    /// Component labels are dense, and endpoints of every edge share one.
    #[test]
    fn components_are_consistent(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..80)) {
        let mut b = GraphBuilder::new_undirected();
        b.ensure_vertices(40);
        for &(u, v) in &edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        let g = b.build().unwrap();
        let (comp, k) = connected_components(&g);
        prop_assert!(comp.iter().all(|&c| c < k));
        let used: std::collections::HashSet<_> = comp.iter().copied().collect();
        prop_assert_eq!(used.len(), k);
        for e in g.edges() {
            prop_assert_eq!(comp[e.source.index()], comp[e.target.index()]);
        }
    }

    /// Weighted degree equals plain degree when all weights are 1.
    #[test]
    fn unit_weights_match_degree(edges in proptest::collection::vec((0u32..20, 0u32..20), 1..60)) {
        let mut b = GraphBuilder::new_undirected();
        for &(u, v) in &edges {
            b.add_weighted_edge(VertexId(u), VertexId(v), 1.0);
        }
        let g = b.build().unwrap();
        for v in g.vertices() {
            prop_assert!((g.weighted_degree(v) - g.degree(v) as f64).abs() < 1e-9);
        }
    }
}
