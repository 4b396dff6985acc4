//! ForceAtlas2 graph layout (Jacomy et al. 2014), used by the paper's
//! Fig 3 to draw the synthetic community graphs.
//!
//! Forces, per the published model:
//! * attraction along edges, linear in distance (`F_a = d`), optionally
//!   scaled by edge weight;
//! * repulsion between all pairs, `F_r = k_r (deg_u + 1)(deg_v + 1) / d`,
//!   computed exactly or via the Barnes–Hut [`crate::quadtree`];
//! * gravity pulling every node toward the origin, `F_g = k_g (deg + 1)`.
//!
//! The step size uses a simple global-speed annealing schedule, which is
//! enough for the paper-scale graphs (10^3 vertices).

use crate::quadtree::{Body, QuadTree};
use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_graph::Graph;

/// Layout parameters.
#[derive(Clone, Copy, Debug)]
pub struct ForceAtlasConfig {
    /// Number of iterations.
    pub iterations: usize,
    /// Repulsion coefficient `k_r`.
    pub repulsion: f64,
    /// Gravity coefficient `k_g`.
    pub gravity: f64,
    /// Use Barnes–Hut (theta = 0.5) instead of exact repulsion.
    pub barnes_hut: bool,
    /// Scale attraction by edge weight, when the graph is weighted.
    pub use_weights: bool,
    /// Initial step size; annealed multiplicatively each iteration.
    pub initial_step: f64,
    /// Seed for the random initial placement.
    pub seed: u64,
}

impl Default for ForceAtlasConfig {
    fn default() -> Self {
        ForceAtlasConfig {
            iterations: 200,
            repulsion: 1.0,
            gravity: 0.05,
            barnes_hut: true,
            use_weights: false,
            initial_step: 0.1,
            seed: 0xFA2,
        }
    }
}

/// The ForceAtlas2 layout engine.
pub struct ForceAtlas2;

impl ForceAtlas2 {
    /// Computes a 2-D layout for `graph`. Returns one `[x, y]` per vertex.
    pub fn layout(graph: &Graph, config: &ForceAtlasConfig) -> Vec<[f64; 2]> {
        let n = graph.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut pos: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let mass: Vec<f64> =
            graph.vertices().map(|v| graph.degree(v) as f64 + 1.0).collect();

        let mut step = config.initial_step;
        let anneal = 0.995f64.powf(200.0 / config.iterations.max(1) as f64);

        for _ in 0..config.iterations {
            let forces = Self::forces(graph, &pos, &mass, config);
            for (p, f) in pos.iter_mut().zip(&forces) {
                let mag = (f[0] * f[0] + f[1] * f[1]).sqrt();
                if mag > 0.0 {
                    // Clamp per-step displacement to the step size so one
                    // huge force cannot explode the layout.
                    let scale = step * (mag.min(10.0 / step) / mag);
                    p[0] += f[0] * scale;
                    p[1] += f[1] * scale;
                }
            }
            step *= anneal;
        }
        pos
    }

    /// One force evaluation for every vertex (parallel over vertices).
    fn forces(
        graph: &Graph,
        pos: &[[f64; 2]],
        mass: &[f64],
        config: &ForceAtlasConfig,
    ) -> Vec<[f64; 2]> {
        let n = pos.len();
        let tree = if config.barnes_hut {
            Some(QuadTree::build(
                &pos.iter()
                    .zip(mass)
                    .map(|(&p, &m)| Body { pos: p, mass: m })
                    .collect::<Vec<_>>(),
            ))
        } else {
            None
        };
        let bodies: Vec<Body> =
            pos.iter().zip(mass).map(|(&p, &m)| Body { pos: p, mass: m }).collect();

        par::map(n, |u| {
            let mut f = match &tree {
                Some(t) => t.repulsion(pos[u], mass[u], config.repulsion, 0.5),
                None => crate::quadtree::exact_repulsion(&bodies, u, config.repulsion),
            };
            // Gravity toward the origin.
            let d = (pos[u][0] * pos[u][0] + pos[u][1] * pos[u][1]).sqrt();
            if d > 1e-12 {
                let g = config.gravity * mass[u] / d;
                f[0] -= g * pos[u][0];
                f[1] -= g * pos[u][1];
            }
            // Attraction along incident edges (each arc once; for
            // undirected graphs both endpoints see the arc, which is
            // exactly the symmetric pull).
            let vid = v2v_graph::VertexId::from_index(u);
            let weights = graph.neighbor_weights(vid);
            for (i, w) in graph.neighbors(vid).iter().enumerate() {
                let v = w.index();
                if v == u {
                    continue;
                }
                let scale = if config.use_weights {
                    weights.map_or(1.0, |ws| ws[i])
                } else {
                    1.0
                };
                f[0] += scale * (pos[v][0] - pos[u][0]);
                f[1] += scale * (pos[v][1] - pos[u][1]);
            }
            f
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::{generators, GraphBuilder, VertexId};

    fn mean_dist(pos: &[[f64; 2]], pairs: &[(usize, usize)]) -> f64 {
        pairs
            .iter()
            .map(|&(a, b)| {
                let dx = pos[a][0] - pos[b][0];
                let dy = pos[a][1] - pos[b][1];
                (dx * dx + dy * dy).sqrt()
            })
            .sum::<f64>()
            / pairs.len() as f64
    }

    #[test]
    fn two_cliques_separate() {
        let mut b = GraphBuilder::new_undirected();
        for base in [0u32, 8] {
            for u in 0..8 {
                for v in (u + 1)..8 {
                    b.add_edge(VertexId(base + u), VertexId(base + v));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(8));
        let g = b.build().unwrap();
        let pos = ForceAtlas2::layout(&g, &ForceAtlasConfig::default());

        let within: Vec<(usize, usize)> =
            (0..8).flat_map(|a| ((a + 1)..8).map(move |b| (a, b))).collect();
        let across: Vec<(usize, usize)> =
            (1..8).flat_map(|a| (9..16).map(move |b| (a, b))).collect();
        let dw = mean_dist(&pos, &within);
        let da = mean_dist(&pos, &across);
        assert!(da > 1.5 * dw, "within {dw}, across {da}");
    }

    #[test]
    fn exact_and_barnes_hut_agree_qualitatively() {
        let g = generators::ring(20);
        let exact = ForceAtlas2::layout(
            &g,
            &ForceAtlasConfig { barnes_hut: false, iterations: 150, ..Default::default() },
        );
        let bh = ForceAtlas2::layout(
            &g,
            &ForceAtlasConfig { barnes_hut: true, iterations: 150, ..Default::default() },
        );
        // Both should place ring neighbors nearer than antipodes.
        for pos in [&exact, &bh] {
            let nbr: Vec<(usize, usize)> = (0..20).map(|i| (i, (i + 1) % 20)).collect();
            let anti: Vec<(usize, usize)> = (0..10).map(|i| (i, i + 10)).collect();
            assert!(mean_dist(pos, &anti) > mean_dist(pos, &nbr));
        }
    }

    #[test]
    fn layout_is_finite_and_bounded() {
        let g = generators::gnm(100, 300, 1);
        let pos = ForceAtlas2::layout(&g, &ForceAtlasConfig::default());
        assert_eq!(pos.len(), 100);
        for p in &pos {
            assert!(p[0].is_finite() && p[1].is_finite());
            assert!(p[0].abs() < 1e4 && p[1].abs() < 1e4, "layout exploded: {p:?}");
        }
    }

    #[test]
    fn deterministic_per_seed_exact() {
        // Exact repulsion + sequential-deterministic forces: same seed,
        // same layout.
        let g = generators::ring(12);
        let cfg = ForceAtlasConfig { barnes_hut: false, iterations: 50, ..Default::default() };
        let a = ForceAtlas2::layout(&g, &cfg);
        let b = ForceAtlas2::layout(&g, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new_undirected().build().unwrap();
        assert!(ForceAtlas2::layout(&g, &ForceAtlasConfig::default()).is_empty());
    }

    #[test]
    fn isolated_vertex_pulled_by_gravity_only() {
        let mut b = GraphBuilder::new_undirected();
        b.ensure_vertices(1);
        let g = b.build().unwrap();
        let pos = ForceAtlas2::layout(&g, &ForceAtlasConfig::default());
        // A single vertex drifts toward the origin under gravity.
        assert!(pos[0][0].abs() < 1.0 && pos[0][1].abs() < 1.0);
    }
}
