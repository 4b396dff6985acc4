//! Graph perturbation: edge deletion, insertion, and rewiring.
//!
//! Two of the paper's open questions need perturbed graphs: robustness to
//! "errors in data" (§III-C) and "graphs with missing or incorrect data"
//! (§VII). These helpers produce controlled corruptions with the removed /
//! added edges reported, so experiments can measure degradation and build
//! link-prediction test sets.

use crate::builder::GraphBuilder;
use crate::csr::{Edge, Graph};
use crate::id::VertexId;
use v2v_base::rng::Rng;

/// Result of a perturbation: the new graph plus what changed.
#[derive(Clone, Debug)]
pub struct Perturbed {
    /// The perturbed graph.
    pub graph: Graph,
    /// Edges that were removed (empty for pure insertions).
    pub removed: Vec<Edge>,
    /// Edges that were added (empty for pure deletions).
    pub added: Vec<(VertexId, VertexId)>,
}

fn rebuild(original: &Graph, keep: &[Edge], add: &[(VertexId, VertexId)]) -> Graph {
    let mut b = if original.is_directed() {
        GraphBuilder::new_directed()
    } else {
        GraphBuilder::new_undirected()
    };
    b.ensure_vertices(original.num_vertices());
    for e in keep {
        match (original.has_edge_weights(), e.timestamp) {
            (false, None) => b.add_edge(e.source, e.target),
            (true, None) => b.add_weighted_edge(e.source, e.target, e.weight),
            (false, Some(t)) => b.add_temporal_edge(e.source, e.target, t),
            (true, Some(t)) => b.add_weighted_temporal_edge(e.source, e.target, e.weight, t),
        }
    }
    for &(u, v) in add {
        b.add_edge(u, v);
    }
    b.build().expect("perturbed edges are valid")
}

/// Removes a uniformly random `fraction` of the edges (rounded down).
///
/// # Panics
/// Panics unless `0 <= fraction <= 1`.
pub fn remove_random_edges(graph: &Graph, fraction: f64, seed: u64) -> Perturbed {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let mut edges: Vec<Edge> = graph.edges().collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut edges);
    let cut = (edges.len() as f64 * fraction).floor() as usize;
    let removed = edges.split_off(edges.len() - cut);
    Perturbed { graph: rebuild(graph, &edges, &[]), removed, added: Vec::new() }
}

/// Adds `count` spurious edges between random non-adjacent vertex pairs
/// (no self-loops, no duplicates of existing or new edges).
pub fn add_random_edges(graph: &Graph, count: usize, seed: u64) -> Perturbed {
    let n = graph.num_vertices();
    assert!(n >= 2, "need at least two vertices to add edges");
    let mut rng = Rng::seed_from_u64(seed);
    let edges: Vec<Edge> = graph.edges().collect();
    let mut added = Vec::with_capacity(count);
    let mut new_set = std::collections::HashSet::new();
    let mut attempts = 0usize;
    while added.len() < count && attempts < count * 100 + 1000 {
        attempts += 1;
        let u = VertexId(rng.gen_range(0..n as u32));
        let v = VertexId(rng.gen_range(0..n as u32));
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = if graph.is_directed() { (u, v) } else { (u.min(v), u.max(v)) };
        if new_set.insert(key) {
            added.push((u, v));
        }
    }
    Perturbed { graph: rebuild(graph, &edges, &added), removed: Vec::new(), added }
}

/// Rewires a `fraction` of edges: each selected edge is removed and
/// replaced by a random non-edge — the paper's "incorrect data" model
/// (edge count preserved).
pub fn rewire_random_edges(graph: &Graph, fraction: f64, seed: u64) -> Perturbed {
    let removed = remove_random_edges(graph, fraction, seed);
    let count = removed.removed.len();
    let with_noise = add_random_edges(&removed.graph, count, seed ^ 0xABCD);
    Perturbed {
        graph: with_noise.graph,
        removed: removed.removed,
        added: with_noise.added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn removal_counts_and_membership() {
        let g = generators::complete(10); // 45 edges
        let p = remove_random_edges(&g, 0.2, 1);
        assert_eq!(p.removed.len(), 9);
        assert_eq!(p.graph.num_edges(), 36);
        for e in &p.removed {
            assert!(!p.graph.has_edge(e.source, e.target), "removed edge still present");
            assert!(g.has_edge(e.source, e.target), "removed edge not from original");
        }
        p.graph.validate().unwrap();
    }

    #[test]
    fn removal_extremes() {
        let g = generators::ring(8);
        assert_eq!(remove_random_edges(&g, 0.0, 2).graph.num_edges(), 8);
        let all = remove_random_edges(&g, 1.0, 2);
        assert_eq!(all.graph.num_edges(), 0);
        assert_eq!(all.graph.num_vertices(), 8);
    }

    #[test]
    fn addition_creates_fresh_edges() {
        let g = generators::ring(20);
        let p = add_random_edges(&g, 15, 3);
        assert_eq!(p.added.len(), 15);
        assert_eq!(p.graph.num_edges(), 35);
        for &(u, v) in &p.added {
            assert!(!g.has_edge(u, v), "added edge already existed");
            assert!(p.graph.has_edge(u, v));
        }
    }

    #[test]
    fn addition_on_near_complete_graph_caps_out() {
        let g = generators::complete(5); // only no non-edges remain
        let p = add_random_edges(&g, 10, 4);
        assert!(p.added.is_empty());
        assert_eq!(p.graph.num_edges(), 10);
    }

    #[test]
    fn rewiring_preserves_edge_count() {
        let g = generators::gnm(40, 200, 5);
        let p = rewire_random_edges(&g, 0.25, 6);
        assert_eq!(p.graph.num_edges(), 200);
        assert_eq!(p.removed.len(), 50);
        assert_eq!(p.added.len(), 50);
    }

    #[test]
    fn weights_survive_removal() {
        let mut b = GraphBuilder::new_undirected();
        for u in 0..10u32 {
            b.add_weighted_edge(VertexId(u), VertexId((u + 1) % 10), u as f64 + 1.0);
        }
        let g = b.build().unwrap();
        let p = remove_random_edges(&g, 0.3, 7);
        assert!(p.graph.has_edge_weights());
        // Total weight decreased by exactly the removed weights.
        let removed_w: f64 = p.removed.iter().map(|e| e.weight).sum();
        assert!((g.total_edge_weight() - p.graph.total_edge_weight() - removed_w).abs() < 1e-9);
    }

    #[test]
    fn directed_perturbation_respects_direction() {
        let g = generators::directed_ring(10);
        let p = add_random_edges(&g, 5, 8);
        assert!(p.graph.is_directed());
        for &(u, v) in &p.added {
            assert!(p.graph.has_edge(u, v));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnm(30, 100, 9);
        let a = remove_random_edges(&g, 0.5, 10);
        let b = remove_random_edges(&g, 0.5, 10);
        assert_eq!(a.removed, b.removed);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        remove_random_edges(&generators::ring(4), 1.5, 0);
    }
}
