//! Louvain modularity optimization (Blondel et al.), the fast modern
//! baseline used by the ablation benches — the paper's future-work note
//! about "larger scale networks" is exactly the regime Louvain serves.

use crate::{compact_labels, Partition};
use std::collections::BTreeMap;
use v2v_base::rng::Rng;
use v2v_graph::Graph;

/// Weighted working graph for the aggregation phases: adjacency maps with
/// explicit self-loop weights. Ordered maps, so gain ties and degree sums
/// resolve the same way on every run (hash-map order differs per map).
struct WorkGraph {
    adj: Vec<BTreeMap<usize, f64>>,
    self_loops: Vec<f64>,
    total_weight: f64, // m (undirected convention)
}

impl WorkGraph {
    fn from_graph(g: &Graph) -> WorkGraph {
        let n = g.num_vertices();
        let mut adj: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
        let mut self_loops = vec![0.0; n];
        let mut total = 0.0;
        for e in g.edges() {
            let (u, v, w) = (e.source.index(), e.target.index(), e.weight);
            total += w;
            if u == v {
                self_loops[u] += w;
            } else {
                *adj[u].entry(v).or_insert(0.0) += w;
                *adj[v].entry(u).or_insert(0.0) += w;
            }
        }
        WorkGraph { adj, self_loops, total_weight: total }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    /// Weighted degree including 2x self-loops (adjacency convention).
    fn degree(&self, v: usize) -> f64 {
        self.adj[v].values().sum::<f64>() + 2.0 * self.self_loops[v]
    }
}

/// One local-moving pass + aggregation. Returns (labels, improved).
fn one_level(wg: &WorkGraph, rng: &mut Rng) -> (Vec<usize>, bool) {
    let n = wg.n();
    let m = wg.total_weight;
    let mut community: Vec<usize> = (0..n).collect();
    let mut comm_tot: Vec<f64> = (0..n).map(|v| wg.degree(v)).collect();
    let degrees: Vec<f64> = comm_tot.clone();

    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let mut improved = false;
    let mut moved = true;
    let mut rounds = 0;
    while moved && rounds < 100 {
        moved = false;
        rounds += 1;
        for &v in &order {
            let cur = community[v];
            // Weights from v to each neighboring community.
            let mut to_comm: BTreeMap<usize, f64> = BTreeMap::new();
            for (&u, &w) in &wg.adj[v] {
                *to_comm.entry(community[u]).or_insert(0.0) += w;
            }
            let k_v = degrees[v];
            // Detach v.
            comm_tot[cur] -= k_v;
            let base = to_comm.get(&cur).copied().unwrap_or(0.0);
            // Gain of joining community c: k_vc/m - tot_c * k_v / (2 m^2).
            let gain = |c: usize, k_vc: f64, comm_tot: &[f64]| {
                k_vc / m - comm_tot[c] * k_v / (2.0 * m * m)
            };
            let mut best_c = cur;
            let mut best_gain = gain(cur, base, &comm_tot);
            for (&c, &k_vc) in &to_comm {
                if c == cur {
                    continue;
                }
                let g = gain(c, k_vc, &comm_tot);
                if g > best_gain + 1e-12 {
                    best_gain = g;
                    best_c = c;
                }
            }
            comm_tot[best_c] += k_v;
            if best_c != cur {
                community[v] = best_c;
                moved = true;
                improved = true;
            }
        }
    }
    (community, improved)
}

/// Aggregates communities into super-nodes.
fn aggregate(wg: &WorkGraph, labels: &[usize], k: usize) -> WorkGraph {
    let mut adj: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); k];
    let mut self_loops = vec![0.0; k];
    for v in 0..wg.n() {
        let cv = labels[v];
        self_loops[cv] += wg.self_loops[v];
        for (&u, &w) in &wg.adj[v] {
            if u < v {
                continue; // visit each undirected pair once
            }
            let cu = labels[u];
            if cu == cv {
                self_loops[cv] += w;
            } else {
                *adj[cv].entry(cu).or_insert(0.0) += w;
                *adj[cu].entry(cv).or_insert(0.0) += w;
            }
        }
    }
    WorkGraph { adj, self_loops, total_weight: wg.total_weight }
}

/// Runs Louvain. Deterministic for a fixed `seed` (node visiting order is
/// the only randomness).
pub fn louvain(graph: &Graph, seed: u64) -> Partition {
    let n = graph.num_vertices();
    if n == 0 {
        return Partition { labels: Vec::new(), num_communities: 0, modularity: 0.0 };
    }
    if graph.num_edges() == 0 {
        return Partition {
            labels: (0..n).collect(),
            num_communities: n,
            modularity: 0.0,
        };
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut wg = WorkGraph::from_graph(graph);
    // labels_full[v] tracks each original vertex's community.
    let mut labels_full: Vec<usize> = (0..n).collect();

    for _ in 0..32 {
        v2v_obs::global_metrics().counter("community.louvain.levels").inc();
        let (labels, improved) = one_level(&wg, &mut rng);
        if !improved {
            break;
        }
        let (dense, k) = compact_labels(labels);
        for l in labels_full.iter_mut() {
            *l = dense[*l];
        }
        wg = aggregate(&wg, &dense, k);
        if k == wg.n() && k == 1 {
            break;
        }
    }
    Partition::from_labels(graph, labels_full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::{generators, GraphBuilder, VertexId};

    #[test]
    fn two_cliques_split() {
        let mut b = GraphBuilder::new_undirected();
        for base in [0u32, 5] {
            for u in 0..5 {
                for v in (u + 1)..5 {
                    b.add_edge(VertexId(base + u), VertexId(base + v));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(5));
        let g = b.build().unwrap();
        let p = louvain(&g, 1);
        assert_eq!(p.num_communities, 2, "labels {:?}", p.labels);
        assert!(p.modularity > 0.3);
    }

    #[test]
    fn planted_partition_high_agreement() {
        let (g, truth) = generators::planted_partition(150, 5, 0.5, 0.01, 2);
        let p = louvain(&g, 3);
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..150 {
            for j in (i + 1)..150 {
                total += 1;
                if (truth[i] == truth[j]) == (p.labels[i] == p.labels[j]) {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.95);
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _) = generators::planted_partition(60, 3, 0.5, 0.02, 4);
        let a = louvain(&g, 7);
        let b = louvain(&g, 7);
        assert_eq!(a.labels, b.labels);

        // Gain ties and degree sums must not follow hash-map order, which
        // differs from one map to the next even inside one process.
        let graphs = [
            ("planted", generators::planted_partition(300, 10, 0.1, 0.02, 11).0),
            ("ring", generators::ring(60)),
            ("gnp", generators::gnp(200, 0.03, 5)),
            ("watts_strogatz", generators::watts_strogatz(200, 4, 0.1, 3)),
        ];
        for (name, g) in graphs {
            let first = louvain(&g, 7);
            for _ in 0..10 {
                let again = louvain(&g, 7);
                assert_eq!(again.labels, first.labels, "{name}");
                assert_eq!(again.modularity.to_bits(), first.modularity.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn edgeless_and_empty() {
        let mut b = GraphBuilder::new_undirected();
        b.ensure_vertices(3);
        let p = louvain(&b.build().unwrap(), 0);
        assert_eq!(p.num_communities, 3);
        let p = louvain(&GraphBuilder::new_undirected().build().unwrap(), 0);
        assert_eq!(p.num_communities, 0);
    }

    #[test]
    fn modularity_at_least_cnm_ballpark() {
        let (g, _) = generators::planted_partition(100, 4, 0.4, 0.02, 5);
        let lv = louvain(&g, 1);
        let cn = crate::cnm::cnm(&g, None);
        // Louvain should be within a small margin of CNM's modularity.
        assert!(lv.modularity > cn.modularity - 0.05, "louvain {} vs cnm {}", lv.modularity, cn.modularity);
    }

    #[test]
    fn weighted_graph_respected() {
        let mut b = GraphBuilder::new_undirected();
        // Two heavy pairs bridged lightly.
        b.add_weighted_edge(VertexId(0), VertexId(1), 10.0);
        b.add_weighted_edge(VertexId(2), VertexId(3), 10.0);
        b.add_weighted_edge(VertexId(1), VertexId(2), 0.1);
        let g = b.build().unwrap();
        let p = louvain(&g, 2);
        assert_eq!(p.labels[0], p.labels[1]);
        assert_eq!(p.labels[2], p.labels[3]);
        assert_ne!(p.labels[0], p.labels[2]);
    }
}
