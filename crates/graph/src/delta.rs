//! A mutable edge overlay on top of an immutable CSR [`Graph`].
//!
//! The streaming ingest path needs to apply edges as they arrive without
//! paying a full CSR rebuild per batch. [`DeltaGraph`] keeps the shared
//! base graph untouched (it stays behind an `Arc`, still served to
//! readers) and accumulates new edges in per-vertex overflow lists, each
//! kept in target order as the CSR keeps its adjacency. Neighbor queries
//! merge base + delta, and [`DeltaGraph::neighbor`] indexes the merged
//! list exactly as the CSR of [`DeltaGraph::materialize`] would, so a
//! uniform walk can step over the overlay itself (`v2v_walks`'
//! `uniform_overlay_walk`) with no rebuild. `materialize` folds
//! everything through [`crate::GraphBuilder`] and can seed the next
//! overlay.
//!
//! The overlay also tracks *touched* vertices (endpoints of edges applied
//! since the last [`DeltaGraph::take_touched`]), which is exactly the set
//! the refresh worker expands into "affected neighborhoods" for partial
//! re-walks and frozen-row fine-tuning.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::error::GraphError;
use crate::id::VertexId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One overlay arc out of a vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
struct DeltaArc {
    target: VertexId,
    weight: f64,
    timestamp: Option<u64>,
}

/// An immutable base graph plus an in-memory batch of applied edges.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: Arc<Graph>,
    /// Overflow adjacency, indexed by vertex; grows past the base graph's
    /// vertex count when an edge names a brand-new vertex. Each list is in
    /// target order, arcs to one target in application order.
    extra: Vec<Vec<DeltaArc>>,
    /// Logical delta edges in application order (undirected edges once).
    edges: Vec<crate::csr::Edge>,
    num_vertices: usize,
    /// Endpoints touched since the last `take_touched`.
    touched: BTreeSet<VertexId>,
}

impl DeltaGraph {
    /// Wraps `base` with an empty overlay.
    pub fn new(base: Arc<Graph>) -> DeltaGraph {
        let num_vertices = base.num_vertices();
        DeltaGraph { base, extra: Vec::new(), edges: Vec::new(), num_vertices, touched: BTreeSet::new() }
    }

    /// The untouched base graph.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Vertices in base plus any the overlay introduced.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Logical edges in base plus the overlay.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() + self.edges.len()
    }

    /// Overlay edges applied since construction (or the last materialize).
    pub fn num_delta_edges(&self) -> usize {
        self.edges.len()
    }

    /// Applies one edge to the overlay. Follows the base graph's
    /// directedness: on an undirected base the edge is visible from both
    /// endpoints. Weights must be finite and non-negative.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
        timestamp: Option<u64>,
    ) -> Result<(), GraphError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        self.num_vertices = self.num_vertices.max(u.index() + 1).max(v.index() + 1);
        if self.extra.len() < self.num_vertices {
            self.extra.resize(self.num_vertices, Vec::new());
        }
        let mut insert = |from: VertexId, target: VertexId| {
            let arcs = &mut self.extra[from.index()];
            let at = arcs.partition_point(|a| a.target <= target);
            arcs.insert(at, DeltaArc { target, weight, timestamp });
        };
        insert(u, v);
        if !self.base.is_directed() && u != v {
            insert(v, u);
        }
        let (source, target) =
            if self.base.is_directed() || u <= v { (u, v) } else { (v, u) };
        self.edges.push(crate::csr::Edge { source, target, weight, timestamp });
        self.touched.insert(u);
        self.touched.insert(v);
        Ok(())
    }

    /// Degree of `v` counting both base arcs and overlay arcs.
    pub fn degree(&self, v: VertexId) -> usize {
        let base = if v.index() < self.base.num_vertices() { self.base.degree(v) } else { 0 };
        base + self.extra.get(v.index()).map_or(0, Vec::len)
    }

    /// Calls `f` for every neighbor of `v` with `(target, weight,
    /// timestamp)` — base arcs first (in CSR order), then overlay arcs in
    /// target order.
    pub fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId, f64, Option<u64>)) {
        if v.index() < self.base.num_vertices() {
            let targets = self.base.neighbors(v);
            let weights = self.base.neighbor_weights(v);
            let times = self.base.neighbor_timestamps(v);
            for (i, &t) in targets.iter().enumerate() {
                f(
                    t,
                    weights.map_or(1.0, |w| w[i]),
                    times.map(|ts| ts[i]),
                );
            }
        }
        if let Some(arcs) = self.extra.get(v.index()) {
            for a in arcs {
                f(a.target, a.weight, a.timestamp);
            }
        }
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`) in the order the CSR of
    /// [`materialize`](DeltaGraph::materialize) lists it: by target. That
    /// CSR breaks ties between arcs to one target by timestamp, which
    /// changes nothing here, for the arcs name the same vertex.
    ///
    /// # Panics
    /// Panics if `i >= degree(v)`.
    pub fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        let base: &[VertexId] =
            if v.index() < self.base.num_vertices() { self.base.neighbors(v) } else { &[] };
        let extra = self.extra.get(v.index()).map_or(&[][..], Vec::as_slice);
        if extra.is_empty() {
            return base[i];
        }
        if base.is_empty() {
            return extra[i].target;
        }
        assert!(i < base.len() + extra.len(), "neighbor {i} of {v} is out of range");
        // Merge the two sorted lists up to position `i`.
        let (mut b, mut e) = (0, 0);
        loop {
            let from_base = e == extra.len() || (b < base.len() && base[b] <= extra[e].target);
            let next = if from_base { base[b] } else { extra[e].target };
            if b + e == i {
                return next;
            }
            if from_base {
                b += 1;
            } else {
                e += 1;
            }
        }
    }

    /// Whether `u -> v` exists in base or overlay.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (u.index() < self.base.num_vertices() && self.base.has_edge(u, v))
            || self.extra.get(u.index()).is_some_and(|arcs| arcs.iter().any(|a| a.target == v))
    }

    /// Vertices touched by overlay edges since the last call, draining the
    /// set. This is the seed set for affected-neighborhood re-walks.
    pub fn take_touched(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.touched).into_iter().collect()
    }

    /// Touched vertices without draining.
    pub fn touched(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.touched.iter().copied()
    }

    /// Re-marks vertices as touched. The refresh worker's failure path
    /// puts back a seed set it drained with [`take_touched`] but could
    /// not fold into a published state, so the retry still re-walks it.
    ///
    /// [`take_touched`]: DeltaGraph::take_touched
    pub fn mark_touched(&mut self, vertices: &[VertexId]) {
        self.touched.extend(vertices.iter().copied());
    }

    /// `seeds` expanded by one hop over the merged adjacency — the set of
    /// vertices whose walk neighborhoods changed when those seeds gained
    /// edges. Sorted and deduplicated.
    pub fn neighborhood(&self, seeds: &[VertexId]) -> Vec<VertexId> {
        let mut out: BTreeSet<VertexId> = seeds.iter().copied().collect();
        for &s in seeds {
            self.for_each_neighbor(s, &mut |t, _, _| {
                out.insert(t);
            });
        }
        out.into_iter().collect()
    }

    /// Folds base + overlay into a fresh immutable CSR [`Graph`]. The
    /// overlay is not consumed; callers typically rebuild a new
    /// `DeltaGraph` around the result.
    pub fn materialize(&self) -> Result<Graph, GraphError> {
        let mut b = if self.base.is_directed() {
            GraphBuilder::new_directed()
        } else {
            GraphBuilder::new_undirected()
        };
        b.ensure_vertices(self.num_vertices);
        for e in self.base.edges().chain(self.edges.iter().copied()) {
            match e.timestamp {
                Some(t) => b.add_weighted_temporal_edge(e.source, e.target, e.weight, t),
                None => b.add_weighted_edge(e.source, e.target, e.weight),
            }
        }
        let mut g = b.build()?;
        if let Some(vw) = self.base.vertex_weights() {
            // New vertices get the neutral weight.
            let mut weights = vw.to_vec();
            weights.resize(self.num_vertices, 1.0);
            g = g.with_vertex_weights(weights)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Arc<Graph> {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        Arc::new(b.build().unwrap())
    }

    fn neighbors(d: &DeltaGraph, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        d.for_each_neighbor(v, &mut |t, _, _| out.push(t));
        out
    }

    #[test]
    fn overlay_edges_merge_with_base() {
        let mut d = DeltaGraph::new(path3());
        assert_eq!(d.num_edges(), 2);
        d.add_edge(VertexId(0), VertexId(2), 1.0, None).unwrap();
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.degree(VertexId(0)), 2);
        assert_eq!(neighbors(&d, VertexId(0)), vec![VertexId(1), VertexId(2)]);
        // Undirected base: visible from the other endpoint too.
        assert_eq!(neighbors(&d, VertexId(2)), vec![VertexId(1), VertexId(0)]);
        assert!(d.has_edge(VertexId(2), VertexId(0)));
        assert!(!d.has_edge(VertexId(0), VertexId(3)));
    }

    #[test]
    fn new_vertices_grow_the_overlay() {
        let mut d = DeltaGraph::new(path3());
        d.add_edge(VertexId(2), VertexId(5), 2.0, Some(7)).unwrap();
        assert_eq!(d.num_vertices(), 6);
        assert_eq!(d.degree(VertexId(5)), 1);
        assert_eq!(d.degree(VertexId(4)), 0);
        assert_eq!(neighbors(&d, VertexId(5)), vec![VertexId(2)]);
        let mut seen = Vec::new();
        d.for_each_neighbor(VertexId(5), &mut |t, w, ts| seen.push((t, w, ts)));
        assert_eq!(seen, vec![(VertexId(2), 2.0, Some(7))]);
    }

    #[test]
    fn touched_tracks_and_drains_endpoints() {
        let mut d = DeltaGraph::new(path3());
        d.add_edge(VertexId(0), VertexId(2), 1.0, None).unwrap();
        d.add_edge(VertexId(2), VertexId(3), 1.0, None).unwrap();
        let touched = d.take_touched();
        assert_eq!(touched, vec![VertexId(0), VertexId(2), VertexId(3)]);
        assert!(d.take_touched().is_empty(), "take_touched drains");
        // The 1-hop neighborhood pulls in vertex 1 via base edges.
        let hood = d.neighborhood(&touched);
        assert_eq!(hood, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        // A failed refresh puts its seed set back; it merges with any
        // endpoints touched since and drains again as one set.
        d.mark_touched(&touched);
        d.add_edge(VertexId(3), VertexId(4), 1.0, None).unwrap();
        assert_eq!(
            d.take_touched(),
            vec![VertexId(0), VertexId(2), VertexId(3), VertexId(4)],
            "restored and newly touched endpoints merge"
        );
    }

    #[test]
    fn materialize_equals_building_from_scratch() {
        let mut d = DeltaGraph::new(path3());
        d.add_edge(VertexId(0), VertexId(2), 1.0, None).unwrap();
        d.add_edge(VertexId(3), VertexId(0), 1.0, None).unwrap();
        let g = d.materialize().unwrap();
        g.validate().unwrap();

        let mut b = GraphBuilder::new_undirected();
        b.add_edge(VertexId(0), VertexId(1));
        b.add_edge(VertexId(1), VertexId(2));
        b.add_edge(VertexId(0), VertexId(2));
        b.add_edge(VertexId(0), VertexId(3));
        let want = b.build().unwrap();
        assert_eq!(g.num_vertices(), want.num_vertices());
        assert_eq!(g.num_edges(), want.num_edges());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), want.neighbors(v), "adjacency of {v} differs");
        }
        // Materialized graph can seed the next overlay.
        let mut d2 = DeltaGraph::new(Arc::new(g));
        d2.add_edge(VertexId(3), VertexId(2), 1.0, None).unwrap();
        assert_eq!(d2.num_edges(), 5);
    }

    /// Indexing the overlay reads the CSR `materialize` builds, with a base
    /// and new edges interleaving by target, a repeated edge and a loop.
    #[test]
    fn neighbor_indexes_the_materialized_adjacency() {
        let mut d = DeltaGraph::new(path3());
        for (u, v) in [(1, 4), (1, 0), (2, 0), (1, 4), (3, 3), (0, 5), (5, 1)] {
            d.add_edge(VertexId(u), VertexId(v), 1.0, None).unwrap();
        }
        let g = d.materialize().unwrap();
        assert_eq!(g.num_vertices(), d.num_vertices());
        for v in g.vertices() {
            let listed: Vec<VertexId> = (0..d.degree(v)).map(|i| d.neighbor(v, i)).collect();
            assert_eq!(listed, g.neighbors(v), "adjacency of {v}");
        }
    }

    #[test]
    fn directed_base_stays_directed() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(VertexId(0), VertexId(1));
        let mut d = DeltaGraph::new(Arc::new(b.build().unwrap()));
        d.add_edge(VertexId(1), VertexId(2), 1.0, None).unwrap();
        assert!(d.has_edge(VertexId(1), VertexId(2)));
        assert!(!d.has_edge(VertexId(2), VertexId(1)), "directed overlay adds one arc");
        let g = d.materialize().unwrap();
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn invalid_weight_is_rejected() {
        let mut d = DeltaGraph::new(path3());
        assert!(d.add_edge(VertexId(0), VertexId(2), f64::NAN, None).is_err());
        assert!(d.add_edge(VertexId(0), VertexId(2), -1.0, None).is_err());
        assert_eq!(d.num_delta_edges(), 0);
        assert!(d.take_touched().is_empty(), "failed edge must not mark endpoints");
    }

    #[test]
    fn weighted_base_keeps_weights_through_materialize() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(VertexId(0), VertexId(1), 2.5);
        let mut d = DeltaGraph::new(Arc::new(b.build().unwrap()));
        d.add_edge(VertexId(1), VertexId(2), 0.5, None).unwrap();
        let g = d.materialize().unwrap();
        assert_eq!(g.weighted_degree(VertexId(1)), 3.0);
    }
}
