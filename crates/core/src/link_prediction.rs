//! Link prediction: the paper's §VII future-work application
//! ("predicting relationships between pairs of vertices").
//!
//! Protocol (Liben-Nowell & Kleinberg): hide a fraction of edges, train on
//! the remaining graph, then score hidden edges (positives) against an
//! equal number of sampled non-edges (negatives); report ROC AUC.
//!
//! The embedding-based scorer uses the cosine similarity of the endpoint
//! vectors; [`v2v_graph::similarity`] provides the direct-graph baselines
//! the experiment binaries compare against.

use crate::config::V2vConfig;
use crate::error::V2vError;
use crate::pipeline::V2vModel;
use v2v_base::rng::Rng;
use v2v_graph::perturb::remove_random_edges;
use v2v_graph::{Graph, VertexId};

/// A hidden-edge evaluation split.
#[derive(Clone, Debug)]
pub struct LinkPredictionSplit {
    /// The training graph (original minus the hidden edges).
    pub train_graph: Graph,
    /// Hidden true edges — the positives.
    pub positives: Vec<(VertexId, VertexId)>,
    /// Sampled non-edges (in the *original* graph) — the negatives.
    pub negatives: Vec<(VertexId, VertexId)>,
}

/// Builds a split: hides `fraction` of edges, samples as many non-edges.
///
/// # Panics
/// Panics if the graph has no edges to hide or is too dense to sample
/// enough non-edges.
pub fn make_split(graph: &Graph, fraction: f64, seed: u64) -> LinkPredictionSplit {
    let removed = remove_random_edges(graph, fraction, seed);
    assert!(!removed.removed.is_empty(), "no edges were hidden; raise the fraction");
    let positives: Vec<(VertexId, VertexId)> =
        removed.removed.iter().map(|e| (e.source, e.target)).collect();

    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_1E55);
    let n = graph.num_vertices() as u32;
    let mut negatives = Vec::with_capacity(positives.len());
    let mut seen = std::collections::HashSet::new();
    let mut attempts = 0;
    while negatives.len() < positives.len() {
        attempts += 1;
        assert!(attempts < positives.len() * 1000 + 10_000, "graph too dense to sample non-edges");
        let u = VertexId(rng.gen_range(0..n));
        let v = VertexId(rng.gen_range(0..n));
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = if graph.is_directed() { (u, v) } else { (u.min(v), u.max(v)) };
        if seen.insert(key) {
            negatives.push((u, v));
        }
    }
    LinkPredictionSplit { train_graph: removed.graph, positives, negatives }
}

impl V2vModel {
    /// Scores a candidate edge by the cosine similarity of its endpoint
    /// embeddings.
    pub fn edge_score(&self, u: VertexId, v: VertexId) -> f64 {
        self.embedding().cosine_similarity(u, v) as f64
    }
}

/// Runs the full V2V link-prediction experiment on `graph`: hide
/// `fraction` edges, train V2V on the rest, return the ROC AUC of the
/// cosine scorer over the hidden-vs-non-edge test set.
pub fn v2v_link_prediction_auc(
    graph: &Graph,
    config: &V2vConfig,
    fraction: f64,
    seed: u64,
) -> Result<(f64, LinkPredictionSplit), V2vError> {
    let split = make_split(graph, fraction, seed);
    let model = V2vModel::train(&split.train_graph, config)?;
    let auc = auc_of_scorer(&split, |u, v| model.edge_score(u, v));
    Ok((auc, split))
}

/// Evaluates any pairwise scorer on a prepared split.
pub fn auc_of_scorer(
    split: &LinkPredictionSplit,
    scorer: impl Fn(VertexId, VertexId) -> f64,
) -> f64 {
    let mut scores = Vec::with_capacity(split.positives.len() + split.negatives.len());
    let mut labels = Vec::with_capacity(scores.capacity());
    for &(u, v) in &split.positives {
        scores.push(scorer(u, v));
        labels.push(true);
    }
    for &(u, v) in &split.negatives {
        scores.push(scorer(u, v));
        labels.push(false);
    }
    v2v_ml::metrics::roc_auc(&scores, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_data::quasi_clique::{quasi_clique_graph, QuasiCliqueConfig};
    use v2v_graph::similarity;

    fn community_graph() -> v2v_data::SyntheticCommunities {
        quasi_clique_graph(&QuasiCliqueConfig {
            n: 100,
            groups: 5,
            alpha: 0.7,
            inter_edges: 20,
            seed: 9,
        })
    }

    #[test]
    fn split_is_well_formed() {
        let data = community_graph();
        let split = make_split(&data.graph, 0.1, 1);
        assert_eq!(split.positives.len(), split.negatives.len());
        assert_eq!(
            split.train_graph.num_edges() + split.positives.len(),
            data.graph.num_edges()
        );
        for &(u, v) in &split.positives {
            assert!(!split.train_graph.has_edge(u, v));
            assert!(data.graph.has_edge(u, v));
        }
        for &(u, v) in &split.negatives {
            assert!(!data.graph.has_edge(u, v));
        }
    }

    #[test]
    fn v2v_beats_chance_clearly() {
        let data = community_graph();
        let mut cfg = V2vConfig::default().with_dimensions(16).with_seed(5);
        cfg.walks.walks_per_vertex = 10;
        cfg.walks.walk_length = 60;
        cfg.embedding.epochs = 2;
        cfg.embedding.threads = 1;
        let (auc, _) = v2v_link_prediction_auc(&data.graph, &cfg, 0.1, 3).unwrap();
        assert!(auc > 0.8, "v2v link-prediction auc {auc}");
    }

    #[test]
    fn topological_baselines_also_beat_chance() {
        let data = community_graph();
        let split = make_split(&data.graph, 0.1, 7);
        let g = &split.train_graph;
        let aa = auc_of_scorer(&split, |u, v| similarity::adamic_adar(g, u, v));
        let cn = auc_of_scorer(&split, |u, v| similarity::common_neighbors(g, u, v) as f64);
        let jc = auc_of_scorer(&split, |u, v| similarity::jaccard(g, u, v));
        assert!(aa > 0.85, "adamic-adar auc {aa}");
        assert!(cn > 0.85, "common-neighbors auc {cn}");
        assert!(jc > 0.85, "jaccard auc {jc}");
    }

    #[test]
    fn random_scorer_is_chance() {
        let data = community_graph();
        let split = make_split(&data.graph, 0.2, 11);
        let state = std::cell::Cell::new(0x12345u64);
        let auc = auc_of_scorer(&split, |_, _| {
            state.set(state.get().wrapping_mul(6364136223846793005).wrapping_add(1));
            (state.get() >> 33) as f64
        });
        assert!((auc - 0.5).abs() < 0.15, "random auc {auc}");
    }
}
