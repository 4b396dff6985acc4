//! Girvan–Newman divisive community detection.
//!
//! Repeatedly removes the edge with the highest betweenness centrality
//! (recomputed after every removal, per the original algorithm) and tracks
//! the connected-component partition with the best modularity. Betweenness
//! is computed with Brandes' algorithm, parallelized over BFS sources
//! (`v2v_base::par`) — this is the `O(m^2 n)` baseline responsible for the
//! hours-scale runtimes in the paper's Table I.

use crate::{compact_labels, Partition};
use std::collections::{HashMap, VecDeque};
use v2v_base::par;
use v2v_graph::Graph;

/// Result of a Girvan–Newman run: the best partition seen plus the order
/// in which edges were removed (the dendrogram, outermost first).
#[derive(Clone, Debug)]
pub struct GnResult {
    /// Partition at the modularity peak.
    pub partition: Partition,
    /// `(u, v)` pairs in removal order.
    pub removed_edges: Vec<(usize, usize)>,
}

/// Runs Girvan–Newman on an undirected graph.
///
/// Stops once `target_k` components exist (if given) or, otherwise, runs
/// the full dendrogram and returns the modularity peak. Self-loops are
/// ignored (they carry no betweenness and never separate components).
pub fn girvan_newman(graph: &Graph, target_k: Option<usize>) -> GnResult {
    let n = graph.num_vertices();
    // Mutable adjacency: adj[u] holds neighbor list (parallel edges kept).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in graph.edges() {
        let (u, v) = (e.source.index(), e.target.index());
        if u == v {
            continue;
        }
        adj[u].push(v);
        adj[v].push(u);
    }

    let mut best_labels = components(&adj);
    let mut best_q = crate::modularity::modularity(graph, &best_labels.0);
    let mut removed = Vec::new();

    loop {
        let labels = components(&adj);
        if let Some(k) = target_k {
            if labels.1 >= k {
                let q = crate::modularity::modularity(graph, &labels.0);
                return GnResult {
                    partition: Partition {
                        labels: labels.0,
                        num_communities: labels.1,
                        modularity: q,
                    },
                    removed_edges: removed,
                };
            }
        }
        let q = crate::modularity::modularity(graph, &labels.0);
        if q > best_q {
            best_q = q;
            best_labels = labels;
        }
        if adj.iter().all(Vec::is_empty) {
            break;
        }
        let (u, v) = max_betweenness_edge(&adj);
        remove_edge(&mut adj, u, v);
        removed.push((u, v));
        v2v_obs::global_metrics().counter("community.gn.edges_removed").inc();
    }

    GnResult {
        partition: Partition {
            labels: best_labels.0,
            num_communities: best_labels.1,
            modularity: best_q,
        },
        removed_edges: removed,
    }
}

/// The edge of highest betweenness (ties go to the smaller edge).
fn max_betweenness_edge(adj: &[Vec<usize>]) -> (usize, usize) {
    edge_betweenness(par::threads(), adj)
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(e, _)| e)
        .expect("graph has at least one edge")
}

/// Edge betweenness of every current edge (Brandes 2001, unweighted),
/// keyed by `(min, max)`: one map per block of sources, the maps summed
/// in block order.
fn edge_betweenness(threads: usize, adj: &[Vec<usize>]) -> HashMap<(usize, usize), f64> {
    let maps = par::blocks_on(threads, adj.len(), |sources| {
        let mut acc = HashMap::new();
        for s in sources {
            brandes_from(adj, s, &mut acc);
        }
        acc
    });
    let mut total = HashMap::new();
    for m in maps {
        for (k, v) in m {
            *total.entry(k).or_insert(0.0) += v;
        }
    }
    total
}

/// Single-source Brandes pass accumulating edge dependencies into `acc`.
fn brandes_from(adj: &[Vec<usize>], s: usize, acc: &mut HashMap<(usize, usize), f64>) {
    let n = adj.len();
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut dist = vec![usize::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<usize> = Vec::new();
    let mut queue = VecDeque::new();

    sigma[s] = 1.0;
    dist[s] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in &adj[v] {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
            if dist[w] == dist[v] + 1 {
                sigma[w] += sigma[v];
            }
        }
    }

    // Reverse BFS order: accumulate dependencies along tree/DAG edges.
    for &w in order.iter().rev() {
        for &v in &adj[w] {
            if dist[v] + 1 == dist[w] {
                let c = sigma[v] / sigma[w] * (1.0 + delta[w]);
                delta[v] += c;
                let key = (v.min(w), v.max(w));
                *acc.entry(key).or_insert(0.0) += c;
            }
        }
    }
}

/// Connected components of the working adjacency (isolated vertices are
/// their own components). Returns dense labels and the component count.
fn components(adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = adj.len();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if labels[s] != usize::MAX {
            continue;
        }
        labels[s] = next;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if labels[w] == usize::MAX {
                    labels[w] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    let (labels, k) = compact_labels(labels);
    (labels, k)
}

/// Removes one copy of undirected edge `(u, v)` from the working adjacency.
fn remove_edge(adj: &mut [Vec<usize>], u: usize, v: usize) {
    if let Some(pos) = adj[u].iter().position(|&x| x == v) {
        adj[u].swap_remove(pos);
    }
    if let Some(pos) = adj[v].iter().position(|&x| x == u) {
        adj[v].swap_remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::{generators, GraphBuilder, VertexId};

    fn barbell() -> Graph {
        // Two K4s joined by a single bridge: the bridge has max betweenness.
        let mut b = GraphBuilder::new_undirected();
        for base in [0u32, 4] {
            for u in 0..4 {
                for v in (u + 1)..4 {
                    b.add_edge(VertexId(base + u), VertexId(base + v));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(4));
        b.build().unwrap()
    }

    #[test]
    fn bridge_removed_first() {
        let g = barbell();
        let r = girvan_newman(&g, Some(2));
        assert_eq!(r.removed_edges[0], (0, 4));
        assert_eq!(r.partition.num_communities, 2);
        for v in 0..4 {
            assert_eq!(r.partition.labels[v], r.partition.labels[0]);
            assert_eq!(r.partition.labels[v + 4], r.partition.labels[4]);
        }
        assert!(r.partition.modularity > 0.3);
    }

    #[test]
    fn full_dendrogram_finds_peak() {
        let g = barbell();
        let r = girvan_newman(&g, None);
        assert_eq!(r.partition.num_communities, 2);
        // All edges eventually removed.
        assert_eq!(r.removed_edges.len(), g.num_edges());
    }

    #[test]
    fn planted_partition_recovered() {
        let (g, truth) = generators::planted_partition(48, 3, 0.7, 0.01, 11);
        let r = girvan_newman(&g, Some(3));
        let mut agree = 0;
        let mut total = 0;
        for i in 0..48 {
            for j in (i + 1)..48 {
                total += 1;
                if (truth[i] == truth[j]) == (r.partition.labels[i] == r.partition.labels[j]) {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.95);
    }

    #[test]
    fn betweenness_bits_do_not_depend_on_the_thread_count() {
        let (g, _) = generators::planted_partition(48, 3, 0.7, 0.05, 11);
        let mut adj = vec![Vec::new(); g.num_vertices()];
        for e in g.edges() {
            adj[e.source.index()].push(e.target.index());
            adj[e.target.index()].push(e.source.index());
        }
        let bits = |threads| -> std::collections::BTreeMap<(usize, usize), u64> {
            edge_betweenness(threads, &adj).into_iter().map(|(e, b)| (e, b.to_bits())).collect()
        };
        let one = bits(1);
        assert_eq!(one.len(), g.num_edges());
        for threads in [2, 5] {
            assert_eq!(bits(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn star_betweenness_structure() {
        // In a star, all edges tie; removal must still proceed and end with
        // all singletons at k = n.
        let g = generators::star(5);
        let r = girvan_newman(&g, Some(5));
        assert_eq!(r.partition.num_communities, 5);
    }

    #[test]
    fn disconnected_input_counts_components() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(2), VertexId(3));
        let g = b.build().unwrap();
        let r = girvan_newman(&g, Some(2));
        assert_eq!(r.partition.num_communities, 2);
        assert!(r.removed_edges.is_empty());
    }

    #[test]
    fn self_loops_ignored() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(VertexId(0), VertexId(0));
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        let g = b.build().unwrap();
        let r = girvan_newman(&g, None);
        assert!(r.partition.num_communities >= 1);
    }

    #[test]
    fn path_splits_in_middle() {
        // Betweenness of the middle edge of P6 is highest.
        let g = generators::path(6);
        let r = girvan_newman(&g, Some(2));
        assert_eq!(r.removed_edges[0], (2, 3));
    }
}
