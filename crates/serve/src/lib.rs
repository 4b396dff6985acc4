//! `v2v-serve` — the serving layer of the V2V workspace.
//!
//! The paper frames training as a one-time cost whose output is reused
//! across tasks (§V: similarity queries, k-NN label prediction); the
//! ROADMAP's north star is serving that reuse at traffic. This crate is
//! the substrate for that, in three layers, all written from scratch and
//! dependency-free beyond the workspace:
//!
//! * [`hnsw`] — a Hierarchical Navigable Small World ANN index over flat
//!   `f32` vectors: configurable `M` / `ef_construction` / `ef_search`,
//!   cosine and Euclidean metrics, batched-parallel construction, and an
//!   exact brute-force fallback for small indexes and recall validation.
//! * Binary embedding loading lives in `v2v-store` — the `.v2s`
//!   shard-checksummed container the server mmaps and boots from without
//!   re-parsing text.
//! * [`http`] + [`api`] — a multithreaded HTTP/1.1 server over
//!   `std::net::TcpListener` (fixed worker pool, read timeouts, graceful
//!   shutdown on SIGINT via [`signal`]) answering from one route table
//!   ([`api::router`]): the reads `/healthz`, `/neighbors`,
//!   `/similarity`, `/predict` and `/batch`; the introspection routes
//!   `/metricz` and `/tracez`; and the control and feed routes `/reload`,
//!   `/ingest` ([`ingest`]) and `/qualityz` ([`sentinel`]) — JSON built
//!   on the `v2v-obs` JSON and metrics machinery. Resilience is built in:
//!   per-request deadlines (408), request-size limits (413/431), bounded
//!   queue load shedding (503 + `Retry-After`), per-request panic
//!   isolation (500), degraded exact-scan fallback when index validation
//!   fails, and hot reload (`POST /reload` or SIGHUP) through the
//!   [`swap`] pointer with zero dropped requests.
//!
//! The index also plugs into the exact classifier:
//! [`HnswIndex`] implements [`v2v_ml::knn::NeighborSearch`], so
//! `KnnClassifier::predict_with` can swap the `O(n d)` scan for the ANN
//! graph without changing vote semantics.
//!
//! ```
//! use v2v_serve::{HnswConfig, HnswIndex, Metric};
//!
//! // Ten points on a line; nearest neighbors of x=2.05 are x=2 then x=3.
//! let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
//! let index = HnswIndex::build(1, data, HnswConfig {
//!     metric: Metric::Euclidean, ..Default::default()
//! });
//! let found = index.search(&[2.05], 2);
//! assert_eq!(found[0].0, 2);
//! assert_eq!(found[1].0, 3);
//! ```

pub mod api;
pub mod hnsw;
pub mod http;
pub mod ingest;
pub mod sentinel;
pub mod signal;
pub mod swap;

pub use api::{Reloader, ServeHandle, ServeState, VectorSet};
pub use sentinel::{QualityState, SentinelConfig};
pub use hnsw::{build_fingerprint, HnswConfig, HnswIndex, Metric};
pub use http::{retry_after_secs, Handler, Request, Response, Server, ServerConfig};
pub use swap::Swap;

use v2v_ml::knn::NeighborSearch;

/// ANN-backed candidate source for [`v2v_ml::KnnClassifier::predict_with`]:
/// queries arrive as `f64` rows from the ML toolkit and are narrowed to
/// the index's `f32` space. Distances agree by construction — the index's
/// cosine distance and *squared* Euclidean match
/// [`v2v_ml::DistanceMetric`]'s ranking exactly.
impl NeighborSearch for HnswIndex {
    fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        let q: Vec<f32> = query.iter().map(|&x| x as f32).collect();
        self.search(&q, k).into_iter().map(|(i, d)| (i, d as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_linalg::RowMatrix;
    use v2v_ml::{DistanceMetric, KnnClassifier};

    #[test]
    fn ann_backed_knn_agrees_with_exact_on_clusters() {
        // 60 points in two well-separated clusters.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            rows.push(vec![sign * 1.0 + (i as f64) * 1e-3, sign * 0.5]);
            labels.push(usize::from(i % 2 == 1));
        }
        let data = RowMatrix::from_rows(&rows);
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);

        let flat: Vec<f32> = rows.iter().flatten().map(|&x| x as f32).collect();
        let index = HnswIndex::build(2, flat, HnswConfig::default());

        for q in [[1.0, 0.4], [-1.0, -0.6], [0.8, 0.6]] {
            for k in [1, 3, 7] {
                assert_eq!(
                    knn.predict_with(&index, &q, k),
                    knn.predict(&q, k),
                    "query {q:?} k {k}"
                );
            }
        }
    }
}
