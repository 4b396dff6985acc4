//! Deterministic (seeded) random-graph generators.
//!
//! These provide the generic building blocks; the paper-specific synthetic
//! benchmark (α-quasi-cliques with 200 inter-community edges, V2V §III-A)
//! lives in the `v2v-data` crate and is built on
//! [`sample_distinct_pairs`] from this module.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::id::VertexId;
use v2v_base::rng::Rng;

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible undirected edges
/// is present independently with probability `p`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    // Skip-sampling (geometric jumps) keeps this O(m) instead of O(n^2).
    if p > 0.0 {
        let ln_q = (1.0 - p).ln();
        let total_pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
        let mut idx: i64 = -1;
        loop {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = if p >= 1.0 { 1 } else { 1 + (r.ln() / ln_q).floor() as i64 };
            idx += skip.max(1);
            if idx as usize >= total_pairs {
                break;
            }
            let (u, v) = pair_from_index(idx as usize);
            b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
        }
    }
    b.build().expect("gnp edges are always valid")
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct undirected edges chosen
/// uniformly at random (no self-loops, no duplicates).
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let total = n * n.saturating_sub(1) / 2;
    assert!(m <= total, "requested {m} edges but only {total} distinct pairs exist");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    for idx in sample_distinct_indices(total, m, &mut rng) {
        let (u, v) = pair_from_index(idx);
        b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
    }
    b.build().expect("gnm edges are always valid")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
        }
    }
    b.build().expect("complete graph is valid")
}

/// The cycle `C_n` (ring).
pub fn ring(n: usize) -> Graph {
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    if n >= 2 {
        for u in 0..n {
            let v = (u + 1) % n;
            if n == 2 && u == 1 {
                break; // avoid duplicating the single edge of C_2
            }
            b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
        }
    }
    b.build().expect("ring is valid")
}

/// The path `P_n`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    for u in 1..n {
        b.add_edge(VertexId::from_index(u - 1), VertexId::from_index(u));
    }
    b.build().expect("path is valid")
}

/// The star `S_{n-1}`: vertex 0 connected to all others.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    for u in 1..n {
        b.add_edge(VertexId(0), VertexId::from_index(u));
    }
    b.build().expect("star is valid")
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m_attach` vertices, then each new vertex attaches to `m_attach` existing
/// vertices with probability proportional to degree.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1 && n > m_attach, "need n > m_attach >= 1");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    // `endpoints` holds one entry per arc endpoint, so sampling uniformly
    // from it is sampling proportional to degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * m_attach);
    for u in 0..m_attach {
        for v in (u + 1)..m_attach.max(2) {
            if v < m_attach || m_attach == 1 {
                b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
                endpoints.push(u);
                endpoints.push(v);
            }
        }
    }
    if m_attach == 1 {
        // Seed with a single edge 0-1 (loop above adds it via the max(2) trick).
    }
    let start = if m_attach == 1 { 2 } else { m_attach };
    for new in start..n {
        let mut chosen = std::collections::HashSet::with_capacity(m_attach);
        while chosen.len() < m_attach {
            let pick = if endpoints.is_empty() || rng.gen_bool(0.05) {
                // Small uniform mixing keeps early graphs connected and
                // avoids degenerate resampling when all endpoints are taken.
                rng.gen_range(0..new)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if pick < new {
                chosen.insert(pick);
            }
        }
        for &t in &chosen {
            b.add_edge(VertexId::from_index(new), VertexId::from_index(t));
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    b.build().expect("BA graph is valid")
}

/// Planted-partition graph: `k` equal groups over `n` vertices; an edge
/// appears within a group with probability `p_in` and across groups with
/// probability `p_out`. Returns the graph and the ground-truth group of each
/// vertex.
pub fn planted_partition(
    n: usize,
    k: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> (Graph, Vec<usize>) {
    assert!(k >= 1 && n >= k, "need n >= k >= 1");
    let mut rng = Rng::seed_from_u64(seed);
    let labels: Vec<usize> = (0..n).map(|v| v * k / n).collect();
    let mut b = GraphBuilder::new_undirected();
    b.ensure_vertices(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if labels[u] == labels[v] { p_in } else { p_out };
            if rng.gen_bool(p) {
                b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
            }
        }
    }
    (b.build().expect("planted partition is valid"), labels)
}

/// A directed ring with all edges pointing forward; useful for testing
/// directed walks.
pub fn directed_ring(n: usize) -> Graph {
    let mut b = GraphBuilder::new_directed();
    b.ensure_vertices(n);
    for u in 0..n {
        b.add_edge(VertexId::from_index(u), VertexId::from_index((u + 1) % n));
    }
    b.build().expect("directed ring is valid")
}

/// Maps a linear index in `0..n(n-1)/2` to the `idx`-th unordered pair
/// `(u, v)` with `u < v`, enumerating pairs as (0,1), (0,2), ..., (1,2), ...
pub fn pair_from_index(idx: usize) -> (usize, usize) {
    // Solve for u: the pairs starting at u occupy a triangular block.
    // Using the inverse triangular-number formula keeps this O(1).
    let idx_f = idx as f64;
    let mut u = ((1.0 + (1.0 + 8.0 * idx_f).sqrt()) / 2.0).floor() as usize;
    // Guard against floating-point rounding on block boundaries.
    while triangle(u) > idx {
        u -= 1;
    }
    while triangle(u + 1) <= idx {
        u += 1;
    }
    let v = idx - triangle(u);
    debug_assert!(v <= u);
    (v, u + 1)
}

#[inline]
fn triangle(u: usize) -> usize {
    u * (u + 1) / 2
}

/// Uniformly samples `k` distinct indices from `0..total` without
/// replacement, in `O(k)` expected time (Floyd's algorithm).
pub fn sample_distinct_indices(total: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(k <= total);
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (total - k)..total {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        out.push(pick);
    }
    out
}

/// Uniformly samples `k` distinct unordered pairs `(u, v)`, `u < v < n`.
pub fn sample_distinct_pairs(n: usize, k: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let total = n * n.saturating_sub(1) / 2;
    sample_distinct_indices(total, k, rng).into_iter().map(pair_from_index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_roundtrip_small() {
        // Enumerate all pairs for n = 8 and check bijection.
        let n = 8;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = pair_from_index(idx);
            assert!(u < v && v < n, "bad pair ({u},{v}) from idx {idx}");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn gnp_extremes() {
        let g0 = gnp(20, 0.0, 1);
        assert_eq!(g0.num_edges(), 0);
        let g1 = gnp(20, 1.0, 1);
        assert_eq!(g1.num_edges(), 190);
    }

    #[test]
    fn gnp_expected_density() {
        let g = gnp(200, 0.1, 42);
        let expected = 0.1 * (200.0 * 199.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!((m - expected).abs() < 4.0 * (expected * 0.9).sqrt(), "m = {m}, expected {expected}");
    }

    #[test]
    fn gnm_exact_count_and_simple() {
        let g = gnm(50, 300, 7);
        assert_eq!(g.num_edges(), 300);
        g.validate().unwrap();
        // No duplicates: every adjacency strictly increasing.
        for v in g.vertices() {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn gnm_determinism() {
        let a = gnm(40, 100, 9);
        let b = gnm(40, 100, 9);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        let c = gnm(40, 100, 10);
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn structured_graphs() {
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(ring(6).num_edges(), 6);
        assert_eq!(ring(2).num_edges(), 1);
        assert_eq!(path(6).num_edges(), 5);
        assert_eq!(star(6).num_edges(), 5);
        assert_eq!(star(6).degree(VertexId(0)), 5);
        let dr = directed_ring(4);
        assert!(dr.is_directed());
        assert_eq!(dr.degree(VertexId(0)), 1);
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(200, 3, 5);
        assert_eq!(g.num_vertices(), 200);
        // Each of the (200 - 3) later vertices adds exactly 3 edges.
        assert!(g.num_edges() >= 197 * 3);
        // The max degree should greatly exceed m_attach (hub formation).
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg > 10, "max degree {max_deg} too small for BA");
        g.validate().unwrap();
    }

    #[test]
    fn planted_partition_denser_inside() {
        let (g, labels) = planted_partition(120, 4, 0.4, 0.01, 3);
        assert_eq!(labels.len(), 120);
        let mut inside = 0usize;
        let mut across = 0usize;
        for e in g.edges() {
            if labels[e.source.index()] == labels[e.target.index()] {
                inside += 1;
            } else {
                across += 1;
            }
        }
        assert!(inside > 5 * across, "inside = {inside}, across = {across}");
    }

    #[test]
    fn sample_distinct_indices_properties() {
        let mut rng = Rng::seed_from_u64(11);
        let s = sample_distinct_indices(100, 100, &mut rng);
        let set: std::collections::HashSet<_> = s.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!(set.iter().all(|&i| i < 100));
        let s2 = sample_distinct_indices(1000, 10, &mut rng);
        assert_eq!(s2.iter().copied().collect::<std::collections::HashSet<_>>().len(), 10);
    }

    #[test]
    fn sample_distinct_pairs_valid() {
        let mut rng = Rng::seed_from_u64(2);
        let pairs = sample_distinct_pairs(30, 200, &mut rng);
        assert_eq!(pairs.len(), 200);
        let set: std::collections::HashSet<_> = pairs.iter().copied().collect();
        assert_eq!(set.len(), 200);
        for (u, v) in pairs {
            assert!(u < v && v < 30);
        }
    }
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex
/// connects to its `k` nearest neighbors (`k` even), with each edge
/// rewired to a random target with probability `beta`.
///
/// # Panics
/// Panics unless `k` is even, `k < n`, and `beta` is in `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k.is_multiple_of(2) && k >= 2, "k must be even and >= 2");
    assert!(k < n, "k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new_undirected().deduplicate(true);
    b.ensure_vertices(n);
    for u in 0..n {
        for hop in 1..=(k / 2) {
            let v = (u + hop) % n;
            if rng.gen_bool(beta) {
                // Rewire the far endpoint to a uniform non-self target.
                let mut w = rng.gen_range(0..n);
                while w == u {
                    w = rng.gen_range(0..n);
                }
                b.add_edge(VertexId::from_index(u), VertexId::from_index(w));
            } else {
                b.add_edge(VertexId::from_index(u), VertexId::from_index(v));
            }
        }
    }
    b.build().expect("watts-strogatz edges are valid")
}

#[cfg(test)]
mod ws_tests {
    use super::*;
    use crate::stats::average_clustering;
    use crate::traversal::diameter;

    #[test]
    fn lattice_limit_beta_zero() {
        let g = watts_strogatz(20, 4, 0.0, 1);
        // Exact ring lattice: every vertex has degree k.
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
        assert_eq!(g.num_edges(), 40);
    }

    #[test]
    fn small_world_regime() {
        // Moderate beta keeps clustering high while shrinking the diameter
        // relative to the lattice.
        let lattice = watts_strogatz(100, 6, 0.0, 2);
        let small_world = watts_strogatz(100, 6, 0.1, 2);
        let d_lat = diameter(&lattice).unwrap();
        let d_sw = diameter(&small_world).unwrap_or(d_lat);
        assert!(d_sw < d_lat, "diameter {d_sw} !< {d_lat}");
        assert!(average_clustering(&small_world) > 0.2);
    }

    #[test]
    fn full_rewiring_loses_lattice_clustering() {
        let lattice = watts_strogatz(200, 6, 0.0, 3);
        let random = watts_strogatz(200, 6, 1.0, 3);
        assert!(average_clustering(&random) < average_clustering(&lattice) / 2.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = watts_strogatz(40, 4, 0.3, 7);
        let b = watts_strogatz(40, 4, 0.3, 7);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_panics() {
        watts_strogatz(10, 3, 0.1, 0);
    }
}
