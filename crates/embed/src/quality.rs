//! Intrinsic embedding quality: how much of the graph's local structure
//! the vector space preserves.
//!
//! The paper acknowledges the embedding "cannot exactly find the 1-hop
//! neighbors for a given vertex" (§I) — these metrics quantify how close
//! it gets, which the tests and ablations use as a label-free quality
//! signal.

use crate::embedding::Embedding;
use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_graph::{Graph, VertexId};

/// Mean neighborhood preservation: for each vertex `v` with degree `d`,
/// the fraction of its graph neighbors found among its `d` nearest
/// embedding neighbors (cosine). `1.0` means 1-hop structure survives
/// perfectly; a random embedding scores about `mean degree / n`.
///
/// Isolated vertices are skipped; returns `0` if every vertex is isolated.
pub fn neighborhood_preservation(graph: &Graph, embedding: &Embedding) -> f64 {
    assert_eq!(graph.num_vertices(), embedding.len(), "graph/embedding size mismatch");
    let results: Vec<Option<f64>> = par::map(graph.num_vertices(), |i| {
        let v = VertexId::from_index(i);
        let mut nbrs: Vec<VertexId> = graph.neighbors(v).to_vec();
        nbrs.sort_unstable();
        nbrs.dedup();
        nbrs.retain(|&u| u != v);
        if nbrs.is_empty() {
            return None;
        }
        let top = embedding.most_similar(v, nbrs.len());
        let hits = top.iter().filter(|(u, _)| nbrs.binary_search(u).is_ok()).count();
        Some(hits as f64 / nbrs.len() as f64)
    });
    mean_of_some(&results)
}

/// Mean margin between a vertex's similarity to its graph neighbors and
/// to an equal number of sampled non-neighbors. Positive = structure
/// preserved; ~0 = random.
pub fn similarity_margin(graph: &Graph, embedding: &Embedding, seed: u64) -> f64 {
    assert_eq!(graph.num_vertices(), embedding.len(), "graph/embedding size mismatch");
    let n = graph.num_vertices();
    if n < 3 {
        return 0.0;
    }
    let results: Vec<Option<f64>> = par::map(n, |i| {
        let v = VertexId::from_index(i);
        let nbrs = graph.neighbors(v);
        if nbrs.is_empty() {
            return None;
        }
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64) << 1);
        let pos: f64 = nbrs
            .iter()
            .map(|&u| embedding.cosine_similarity(v, u) as f64)
            .sum::<f64>()
            / nbrs.len() as f64;
        let mut neg_sum = 0.0;
        let mut neg_count = 0;
        let mut attempts = 0;
        while neg_count < nbrs.len() && attempts < nbrs.len() * 50 {
            attempts += 1;
            let u = VertexId(rng.gen_range(0..n as u32));
            if u == v || graph.has_edge(v, u) {
                continue;
            }
            neg_sum += embedding.cosine_similarity(v, u) as f64;
            neg_count += 1;
        }
        if neg_count == 0 {
            return None;
        }
        Some(pos - neg_sum / neg_count as f64)
    });
    mean_of_some(&results)
}

/// Mean of the `Some` entries, in order; `0` when there are none.
fn mean_of_some(results: &[Option<f64>]) -> f64 {
    let kept: Vec<f64> = results.iter().flatten().copied().collect();
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_walks::{WalkConfig, WalkCorpus};

    fn trained_on(g: &Graph, seed: u64) -> Embedding {
        let cfg = WalkConfig { walks_per_vertex: 15, walk_length: 40, seed, ..Default::default() };
        let corpus = WalkCorpus::generate(g, &cfg).unwrap();
        let ec = crate::EmbedConfig { dimensions: 16, epochs: 3, threads: 1, ..Default::default() };
        crate::train(&corpus, &ec).unwrap().0
    }

    fn random_embedding(n: usize, d: usize, seed: u64) -> Embedding {
        let mut rng = Rng::seed_from_u64(seed);
        Embedding::from_flat(d, (0..n * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn trained_beats_random_on_preservation() {
        let (g, _) = v2v_graph::generators::planted_partition(60, 3, 0.5, 0.02, 1);
        let trained = trained_on(&g, 2);
        let random = random_embedding(60, 16, 3);
        let p_trained = neighborhood_preservation(&g, &trained);
        let p_random = neighborhood_preservation(&g, &random);
        assert!(
            p_trained > 2.0 * p_random,
            "trained {p_trained} vs random {p_random}"
        );
        assert!(p_trained > 0.4, "trained preservation {p_trained}");
    }

    #[test]
    fn margin_positive_for_trained_zeroish_for_random() {
        let (g, _) = v2v_graph::generators::planted_partition(60, 3, 0.5, 0.02, 4);
        let trained = trained_on(&g, 5);
        let random = random_embedding(60, 16, 6);
        let m_trained = similarity_margin(&g, &trained, 7);
        let m_random = similarity_margin(&g, &random, 7);
        assert!(m_trained > 0.1, "trained margin {m_trained}");
        assert!(m_random.abs() < 0.1, "random margin {m_random}");
        assert!(m_trained > m_random + 0.1);
    }

    #[test]
    fn handles_isolated_vertices() {
        let mut b = v2v_graph::GraphBuilder::new_undirected();
        b.ensure_vertices(4);
        b.add_edge(v2v_graph::VertexId(0), v2v_graph::VertexId(1));
        let g = b.build().unwrap();
        let emb = random_embedding(4, 4, 1);
        // Only vertices 0 and 1 are scored; no panic on 2, 3.
        let p = neighborhood_preservation(&g, &emb);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn perfect_on_tiny_separable_case() {
        // Two pairs far apart: each vertex's single neighbor is its
        // nearest embedding neighbor by construction.
        let mut b = v2v_graph::GraphBuilder::new_undirected();
        b.add_edge(v2v_graph::VertexId(0), v2v_graph::VertexId(1));
        b.add_edge(v2v_graph::VertexId(2), v2v_graph::VertexId(3));
        let g = b.build().unwrap();
        let emb = Embedding::from_flat(
            2,
            vec![1.0, 0.05, 1.0, -0.05, -1.0, 0.05, -1.0, -0.05],
        );
        assert_eq!(neighborhood_preservation(&g, &emb), 1.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let g = v2v_graph::generators::ring(5);
        let emb = random_embedding(4, 4, 0);
        neighborhood_preservation(&g, &emb);
    }
}
