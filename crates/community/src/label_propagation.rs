//! Asynchronous label propagation (Raghavan et al.), the cheapest baseline:
//! near-linear time, no objective, used in the ablation benches to bracket
//! the quality/runtime trade-off space that V2V's Table I explores.

use crate::Partition;
use std::collections::HashMap;
use v2v_base::rng::Rng;
use v2v_graph::Graph;

/// Runs asynchronous LPA: every vertex repeatedly adopts the (weighted)
/// majority label of its neighbors, in random order, until no vertex
/// changes or `max_iters` sweeps elapse. Deterministic per `seed`.
pub fn label_propagation(graph: &Graph, max_iters: usize, seed: u64) -> Partition {
    let n = graph.num_vertices();
    let mut labels: Vec<usize> = (0..n).collect();
    if n == 0 {
        return Partition { labels, num_communities: 0, modularity: 0.0 };
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..max_iters {
        rng.shuffle(&mut order);
        let mut changed = false;
        for &v in &order {
            let vid = v2v_graph::VertexId::from_index(v);
            let nbrs = graph.neighbors(vid);
            if nbrs.is_empty() {
                continue;
            }
            let weights = graph.neighbor_weights(vid);
            let mut votes: HashMap<usize, f64> = HashMap::new();
            for (i, u) in nbrs.iter().enumerate() {
                let w = weights.map_or(1.0, |ws| ws[i]);
                *votes.entry(labels[u.index()]).or_insert(0.0) += w;
            }
            // Majority; ties broken uniformly at random (standard LPA).
            let best = votes.values().cloned().fold(f64::MIN, f64::max);
            let tied: Vec<usize> = votes
                .iter()
                .filter(|(_, &w)| (w - best).abs() < 1e-12)
                .map(|(&l, _)| l)
                .collect();
            let pick = if tied.len() == 1 {
                tied[0]
            } else {
                // Sort for determinism before the random draw.
                let mut tied = tied;
                tied.sort_unstable();
                tied[rng.gen_range(0..tied.len())]
            };
            if pick != labels[v] {
                labels[v] = pick;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Partition::from_labels(graph, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::{generators, GraphBuilder, VertexId};

    #[test]
    fn two_cliques_found() {
        let mut b = GraphBuilder::new_undirected();
        for base in [0u32, 6] {
            for u in 0..6 {
                for v in (u + 1)..6 {
                    b.add_edge(VertexId(base + u), VertexId(base + v));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(6));
        let g = b.build().unwrap();
        let p = label_propagation(&g, 50, 1);
        assert!(p.num_communities >= 2, "communities: {}", p.num_communities);
        // Clique interiors agree.
        for c in 1..6 {
            assert_eq!(p.labels[1], p.labels[c.max(1)]);
        }
    }

    #[test]
    fn planted_partition_reasonable() {
        let (g, truth) = generators::planted_partition(120, 4, 0.5, 0.005, 9);
        let p = label_propagation(&g, 100, 2);
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..120 {
            for j in (i + 1)..120 {
                total += 1;
                if (truth[i] == truth[j]) == (p.labels[i] == p.labels[j]) {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.9);
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let mut b = GraphBuilder::new_undirected();
        b.ensure_vertices(3);
        b.add_edge(VertexId(0), VertexId(1));
        let g = b.build().unwrap();
        let p = label_propagation(&g, 10, 3);
        assert_ne!(p.labels[2], p.labels[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _) = generators::planted_partition(60, 3, 0.4, 0.02, 6);
        let a = label_propagation(&g, 30, 5);
        let b = label_propagation(&g, 30, 5);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new_undirected().build().unwrap();
        let p = label_propagation(&g, 10, 0);
        assert_eq!(p.num_communities, 0);
    }
}
