//! Single-walk generation under a [`WalkStrategy`].

use crate::alias::AliasTable;
use crate::strategy::WalkStrategy;
use std::fmt;
use v2v_base::rng::Rng;
use v2v_graph::{DeltaGraph, Graph, VertexId};

/// Errors from configuring a walker.
#[derive(Debug, PartialEq, Eq)]
pub enum WalkError {
    /// The strategy samples on an attribute the graph does not carry.
    MissingAttribute(&'static str),
    /// A strategy parameter is out of range.
    InvalidParameter(&'static str),
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::MissingAttribute(a) => write!(f, "graph is missing {a} required by the walk strategy"),
            WalkError::InvalidParameter(m) => write!(f, "invalid walk parameter: {m}"),
        }
    }
}

impl std::error::Error for WalkError {}

/// A prepared walker: strategy-specific per-vertex sampling structures are
/// built once, then [`Walker::walk`] is called many times (possibly from
/// many threads — `Walker` is `Sync`).
pub struct Walker<'g> {
    graph: &'g Graph,
    strategy: WalkStrategy,
    /// Per-vertex alias tables for the weighted strategies. `None` entries
    /// are vertices with no outgoing arcs or zero total weight.
    tables: Option<Vec<Option<AliasTable>>>,
}

impl<'g> Walker<'g> {
    /// Validates the strategy against the graph and precomputes sampling
    /// tables (for the weighted strategies: `O(arcs)`).
    pub fn new(graph: &'g Graph, strategy: WalkStrategy) -> Result<Self, WalkError> {
        strategy.validate(graph)?;
        let t0 = std::time::Instant::now();
        let tables = match strategy {
            WalkStrategy::EdgeWeighted => Some(build_tables(graph, |g, v| {
                g.neighbor_weights(v).map(<[f64]>::to_vec)
            })),
            WalkStrategy::VertexWeighted => Some(build_tables(graph, |g, v| {
                Some(g.neighbors(v).iter().map(|&t| g.vertex_weight(t).unwrap_or(1.0)).collect())
            })),
            _ => None,
        };
        if tables.is_some() {
            let secs = t0.elapsed().as_secs_f64();
            v2v_obs::global_metrics().gauge("walks.alias_build_secs").set(secs);
            v2v_obs::obs_debug!("alias tables for {} vertices built in {secs:.4}s",
                graph.num_vertices());
        }
        Ok(Walker { graph, strategy, tables })
    }

    /// The strategy this walker uses.
    pub fn strategy(&self) -> WalkStrategy {
        self.strategy
    }

    /// Generates one walk of at most `length` vertices starting at `start`.
    ///
    /// The walk always contains `start`; it is shorter than `length` only
    /// when the walk gets stuck (directed sink, temporal dead end, isolated
    /// vertex, or zero-weight neighborhood).
    pub fn walk(&self, start: VertexId, length: usize, rng: &mut Rng) -> Vec<VertexId> {
        assert!(start.index() < self.graph.num_vertices(), "start vertex out of range");
        let mut walk = Vec::with_capacity(length);
        if length == 0 {
            return walk;
        }
        walk.push(start);
        let mut cur = start;
        let mut prev: Option<VertexId> = None;
        // Timestamp of the last traversed edge (temporal strategy).
        let mut last_time: Option<u64> = None;

        while walk.len() < length {
            let next = match self.strategy {
                WalkStrategy::Uniform => self.step_uniform(cur, rng),
                WalkStrategy::EdgeWeighted | WalkStrategy::VertexWeighted => {
                    self.step_alias(cur, rng)
                }
                WalkStrategy::Temporal { window } => {
                    self.step_temporal(cur, last_time, window, rng).map(|(v, t)| {
                        last_time = Some(t);
                        v
                    })
                }
                WalkStrategy::Node2Vec { p, q } => self.step_node2vec(cur, prev, p, q, rng),
            };
            match next {
                Some(v) => {
                    walk.push(v);
                    prev = Some(cur);
                    cur = v;
                }
                None => break,
            }
        }
        walk
    }

    #[inline]
    fn step_uniform(&self, cur: VertexId, rng: &mut Rng) -> Option<VertexId> {
        let nbrs = self.graph.neighbors(cur);
        if nbrs.is_empty() {
            None
        } else {
            Some(nbrs[rng.gen_range(0..nbrs.len())])
        }
    }

    #[inline]
    fn step_alias(&self, cur: VertexId, rng: &mut Rng) -> Option<VertexId> {
        let table = self.tables.as_ref().expect("alias strategies build tables")[cur.index()]
            .as_ref()?;
        Some(self.graph.neighbors(cur)[table.sample(rng)])
    }

    fn step_temporal(
        &self,
        cur: VertexId,
        last_time: Option<u64>,
        window: Option<u64>,
        rng: &mut Rng,
    ) -> Option<(VertexId, u64)> {
        let nbrs = self.graph.neighbors(cur);
        let times = self.graph.neighbor_timestamps(cur).expect("validated temporal graph");
        // Reservoir-sample uniformly among qualifying arcs in one pass.
        let mut chosen: Option<(VertexId, u64)> = None;
        let mut count = 0usize;
        for (&v, &t) in nbrs.iter().zip(times) {
            let ok = match last_time {
                None => true,
                Some(lt) => t >= lt && window.is_none_or(|w| t - lt <= w),
            };
            if ok {
                count += 1;
                if rng.gen_range(0..count) == 0 {
                    chosen = Some((v, t));
                }
            }
        }
        chosen
    }

    fn step_node2vec(
        &self,
        cur: VertexId,
        prev: Option<VertexId>,
        p: f64,
        q: f64,
        rng: &mut Rng,
    ) -> Option<VertexId> {
        let nbrs = self.graph.neighbors(cur);
        if nbrs.is_empty() {
            return None;
        }
        let Some(prev) = prev else {
            // First step has no second-order context: uniform / weighted.
            return match self.graph.neighbor_weights(cur) {
                None => Some(nbrs[rng.gen_range(0..nbrs.len())]),
                Some(ws) => {
                    let table = AliasTable::new(ws);
                    Some(nbrs[table.sample(rng)])
                }
            };
        };
        // Second-order bias weights; computed per step because they depend
        // on `prev` (a per-(prev, cur) alias cache would be O(sum deg^2)).
        let ews = self.graph.neighbor_weights(cur);
        let mut total = 0.0;
        let weight_of = |i: usize, x: VertexId| -> f64 {
            let bias = if x == prev {
                1.0 / p
            } else if self.graph.has_edge(prev, x) {
                1.0
            } else {
                1.0 / q
            };
            bias * ews.map_or(1.0, |w| w[i])
        };
        for (i, &x) in nbrs.iter().enumerate() {
            total += weight_of(i, x);
        }
        if total <= 0.0 {
            return None;
        }
        let mut r = rng.gen_f64() * total;
        for (i, &x) in nbrs.iter().enumerate() {
            r -= weight_of(i, x);
            if r <= 0.0 {
                return Some(x);
            }
        }
        Some(*nbrs.last().unwrap())
    }
}

/// A [`WalkStrategy::Uniform`] walk over a [`DeltaGraph`] overlay, with no
/// CSR rebuild: step for step and draw for draw the walk
/// `Walker::new(&delta.materialize()?, WalkStrategy::Uniform)?.walk(start,
/// length, rng)` takes, because [`DeltaGraph::neighbor`] indexes the
/// overlay as that CSR lists it.
///
/// # Panics
/// Panics if `start` is not a vertex of the overlay.
pub fn uniform_overlay_walk(
    delta: &DeltaGraph,
    start: VertexId,
    length: usize,
    rng: &mut Rng,
) -> Vec<VertexId> {
    assert!(start.index() < delta.num_vertices(), "start vertex out of range");
    let mut walk = Vec::with_capacity(length);
    if length == 0 {
        return walk;
    }
    walk.push(start);
    let mut cur = start;
    while walk.len() < length {
        let degree = delta.degree(cur);
        if degree == 0 {
            break;
        }
        cur = delta.neighbor(cur, rng.gen_range(0..degree));
        walk.push(cur);
    }
    walk
}

fn build_tables(
    graph: &Graph,
    weights_of: impl Fn(&Graph, VertexId) -> Option<Vec<f64>>,
) -> Vec<Option<AliasTable>> {
    graph
        .vertices()
        .map(|v| {
            let ws = weights_of(graph, v)?;
            if ws.is_empty() || ws.iter().sum::<f64>() <= 0.0 {
                None
            } else {
                Some(AliasTable::new(&ws))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::{generators, GraphBuilder};

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn walk_has_requested_length_on_connected_graph() {
        let g = generators::complete(5);
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        let walk = w.walk(VertexId(0), 20, &mut rng(1));
        assert_eq!(walk.len(), 20);
        assert_eq!(walk[0], VertexId(0));
        for pair in walk.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]), "non-edge step {pair:?}");
        }
    }

    #[test]
    fn isolated_vertex_walk_is_singleton() {
        let mut b = GraphBuilder::new_undirected();
        b.ensure_vertices(3);
        b.add_edge(VertexId(0), VertexId(1));
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        assert_eq!(w.walk(VertexId(2), 10, &mut rng(2)), vec![VertexId(2)]);
    }

    #[test]
    fn zero_length_walk_is_empty() {
        let g = generators::complete(3);
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        assert!(w.walk(VertexId(0), 0, &mut rng(3)).is_empty());
    }

    #[test]
    fn directed_walk_follows_arcs_and_stops_at_sink() {
        // 0 -> 1 -> 2, 2 is a sink.
        let mut b = GraphBuilder::new_directed();
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        let walk = w.walk(VertexId(0), 10, &mut rng(4));
        assert_eq!(walk, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn edge_weighted_walk_prefers_heavy_edges() {
        // 0 connects to 1 (weight 99) and 2 (weight 1).
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(VertexId(0), VertexId(1), 99.0);
        b.add_weighted_edge(VertexId(0), VertexId(2), 1.0);
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::EdgeWeighted).unwrap();
        let mut r = rng(5);
        let mut to_heavy = 0;
        for _ in 0..1000 {
            let walk = w.walk(VertexId(0), 2, &mut r);
            if walk[1] == VertexId(1) {
                to_heavy += 1;
            }
        }
        assert!(to_heavy > 950, "took heavy edge only {to_heavy}/1000 times");
    }

    #[test]
    fn vertex_weighted_walk_prefers_heavy_vertices() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(0), VertexId(2));
        let g = b.build().unwrap().with_vertex_weights(vec![1.0, 9.0, 1.0]).unwrap();
        let w = Walker::new(&g, WalkStrategy::VertexWeighted).unwrap();
        let mut r = rng(6);
        let mut to_heavy = 0;
        for _ in 0..2000 {
            if w.walk(VertexId(0), 2, &mut r)[1] == VertexId(1) {
                to_heavy += 1;
            }
        }
        let frac = to_heavy as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.03, "fraction to heavy vertex: {frac}");
    }

    #[test]
    fn temporal_walk_is_time_increasing() {
        // 0 -[t=10]- 1 -[t=5]- 2 : after taking t=10 the walk cannot take
        // t=5, so it can only bounce between 0 and 1 on the t=10 edge.
        let mut b = GraphBuilder::new_undirected();
        b.add_temporal_edge(VertexId(0), VertexId(1), 10);
        b.add_temporal_edge(VertexId(1), VertexId(2), 5);
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Temporal { window: None }).unwrap();
        let mut r = rng(7);
        for _ in 0..100 {
            let walk = w.walk(VertexId(0), 8, &mut r);
            assert!(!walk.contains(&VertexId(2)), "violated time order: {walk:?}");
        }
        // Starting at 2 the walk can go 2 -(5)- 1 -(10)- 0.
        let reached_0 = (0..100).any(|_| w.walk(VertexId(2), 3, &mut r).contains(&VertexId(0)));
        assert!(reached_0);
    }

    #[test]
    fn temporal_window_limits_gap() {
        // 0 -(t=0)- 1 -(t=100)- 2 with window 50: walk 0->1 cannot continue.
        let mut b = GraphBuilder::new_undirected();
        b.add_temporal_edge(VertexId(0), VertexId(1), 0);
        b.add_temporal_edge(VertexId(1), VertexId(2), 100);
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Temporal { window: Some(50) }).unwrap();
        let mut r = rng(8);
        for _ in 0..50 {
            let walk = w.walk(VertexId(0), 5, &mut r);
            assert!(!walk.contains(&VertexId(2)), "window violated: {walk:?}");
        }
        // Without the window it can reach 2.
        let w2 = Walker::new(&g, WalkStrategy::Temporal { window: None }).unwrap();
        let reached = (0..100).any(|_| w2.walk(VertexId(0), 5, &mut r).contains(&VertexId(2)));
        assert!(reached);
    }

    #[test]
    fn node2vec_low_p_backtracks_often() {
        let g = generators::ring(10);
        let backtracky = Walker::new(&g, WalkStrategy::Node2Vec { p: 0.01, q: 1.0 }).unwrap();
        let explorey = Walker::new(&g, WalkStrategy::Node2Vec { p: 100.0, q: 1.0 }).unwrap();
        let count_backtracks = |w: &Walker, seed: u64| {
            let mut r = rng(seed);
            let mut backtracks = 0;
            for start in 0..10u32 {
                let walk = w.walk(VertexId(start), 50, &mut r);
                for win in walk.windows(3) {
                    if win[0] == win[2] {
                        backtracks += 1;
                    }
                }
            }
            backtracks
        };
        let low_p = count_backtracks(&backtracky, 9);
        let high_p = count_backtracks(&explorey, 9);
        assert!(low_p > 3 * high_p, "low_p {low_p} vs high_p {high_p}");
    }

    #[test]
    fn node2vec_respects_edge_weights_on_first_step() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(VertexId(0), VertexId(1), 99.0);
        b.add_weighted_edge(VertexId(0), VertexId(2), 1.0);
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Node2Vec { p: 1.0, q: 1.0 }).unwrap();
        let mut r = rng(10);
        let heavy = (0..500).filter(|_| w.walk(VertexId(0), 2, &mut r)[1] == VertexId(1)).count();
        assert!(heavy > 450);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn walk_from_invalid_vertex_panics() {
        let g = generators::complete(3);
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        w.walk(VertexId(99), 5, &mut rng(11));
    }

    /// Overlay walks equal walks over the materialized CSR, from every
    /// vertex, for a stream with repeated edges, loops, new vertices and
    /// an isolated one, over an edgeless base (the refresh worker's) and
    /// over a base with edges of its own.
    #[test]
    fn overlay_walks_equal_walks_over_the_materialized_graph() {
        use std::sync::Arc;
        let mut edgeless = GraphBuilder::new_undirected();
        edgeless.ensure_vertices(40);
        let bases = [edgeless.build().unwrap(), generators::gnm(40, 60, 3)];
        for base in bases {
            let mut delta = DeltaGraph::new(Arc::new(base));
            let mut r = rng(12);
            for i in 0..300u32 {
                // Up to vertex 54: new vertices join, 55 stays isolated.
                let u = r.gen_range(0..if i < 200 { 40 } else { 55u32 });
                let v = if i % 17 == 0 { u } else { r.gen_range(0..55u32).min(54) };
                delta.add_edge(VertexId(u), VertexId(v), 1.0, None).unwrap();
                if i % 5 == 0 {
                    delta.add_edge(VertexId(u), VertexId(v), 1.0, None).unwrap();
                }
            }
            delta.add_edge(VertexId(56), VertexId(56), 1.0, None).unwrap();
            let g = delta.materialize().unwrap();
            let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
            for v in g.vertices() {
                for seed in 0..3 {
                    let want = w.walk(v, 25, &mut rng(seed));
                    let got = uniform_overlay_walk(&delta, v, 25, &mut rng(seed));
                    assert_eq!(got, want, "walk from {v}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let g = generators::gnm(50, 200, 1);
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        let a = w.walk(VertexId(7), 30, &mut rng(42));
        let b = w.walk(VertexId(7), 30, &mut rng(42));
        assert_eq!(a, b);
    }
}
