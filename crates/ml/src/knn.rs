//! k-nearest-neighbor classification.
//!
//! The paper's feature-prediction application (§V): the label of an
//! unlabeled vertex is the majority vote of its `k` nearest embedding
//! vectors, with proximity measured by cosine distance. The classifier
//! itself ranks by brute force — `O(n d)` per query, parallelized over
//! queries — but the vote is decoupled from the ranking through
//! [`NeighborSearch`], so a sub-linear ANN index (`v2v-serve`'s HNSW)
//! can stand in for the exact scan via [`KnnClassifier::predict_with`].

use v2v_base::par;
use v2v_linalg::vector::{cosine_distance, euclidean_sq};
use v2v_linalg::RowMatrix;

/// Which distance to rank neighbors by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceMetric {
    /// `1 - cos(a, b)` — the paper's choice (§V).
    Cosine,
    /// Squared Euclidean (monotone-equivalent to Euclidean for ranking).
    Euclidean,
}

impl DistanceMetric {
    #[inline]
    fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DistanceMetric::Cosine => cosine_distance(a, b),
            DistanceMetric::Euclidean => euclidean_sq(a, b),
        }
    }
}

/// A source of nearest-neighbor candidates over the training rows.
///
/// Implemented by the brute-force [`KnnClassifier`] itself and by ANN
/// indexes (HNSW in `v2v-serve`); `nearest` returns `(training row,
/// distance)` pairs, nearest first. Implementations must return at most
/// `k` pairs and must not panic on NaN distances.
pub trait NeighborSearch {
    /// The up-to-`k` nearest training rows to `query`, nearest first.
    fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)>;
}

/// Majority vote over `(training row, distance)` neighbor pairs, nearest
/// first; ties break toward the label of the nearest neighbor among the
/// tied labels.
///
/// # Panics
/// Panics if `neighbors` is empty or names a row outside `labels`.
pub fn vote(labels: &[usize], neighbors: &[(usize, f64)]) -> usize {
    let mut votes: std::collections::HashMap<usize, (usize, usize)> =
        std::collections::HashMap::new();
    // Track (count, best_rank) per label; lower rank = nearer.
    for (rank, &(i, _)) in neighbors.iter().enumerate() {
        let e = votes.entry(labels[i]).or_insert((0, rank));
        e.0 += 1;
        e.1 = e.1.min(rank);
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
        .map(|(label, _)| label)
        .expect("at least one neighbor")
}

/// A fitted (memorized) k-NN classifier.
pub struct KnnClassifier<'a> {
    data: &'a RowMatrix,
    labels: &'a [usize],
    metric: DistanceMetric,
}

impl<'a> KnnClassifier<'a> {
    /// Wraps training points (one per row) and their labels.
    ///
    /// # Panics
    /// Panics if `labels.len() != data.rows()` or the training set is empty.
    pub fn fit(data: &'a RowMatrix, labels: &'a [usize], metric: DistanceMetric) -> Self {
        assert_eq!(data.rows(), labels.len(), "one label per training row");
        assert!(data.rows() > 0, "k-NN needs at least one training point");
        KnnClassifier { data, labels, metric }
    }

    /// The `k` nearest training indices to `query`, nearest first.
    ///
    /// Ranking uses `f64::total_cmp`, so a NaN distance (a degenerate
    /// embedding row under cosine) sorts last instead of panicking.
    pub fn neighbors(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        assert!(k >= 1, "k must be positive");
        let scored: Vec<(usize, f64)> = (0..self.data.rows())
            .map(|i| (i, self.metric.eval(query, self.data.row(i))))
            .collect();
        // Partial selection: only the top k need full ordering.
        v2v_linalg::top_k_by(scored, k, |a, b| a.1.total_cmp(&b.1))
    }

    /// Predicts by majority vote among the `k` nearest neighbors; ties are
    /// broken toward the label of the nearest neighbor among the tied
    /// labels.
    pub fn predict(&self, query: &[f64], k: usize) -> usize {
        vote(self.labels, &self.neighbors(query, k))
    }

    /// Predicts like [`predict`](KnnClassifier::predict) but sources the
    /// neighbor candidates from `index` (e.g. an HNSW ANN index built over
    /// the same training rows) instead of the exact scan.
    pub fn predict_with<I: NeighborSearch + ?Sized>(
        &self,
        index: &I,
        query: &[f64],
        k: usize,
    ) -> usize {
        assert!(k >= 1, "k must be positive");
        let nbrs = index.nearest(query, k);
        assert!(!nbrs.is_empty(), "neighbor index returned no candidates");
        vote(self.labels, &nbrs)
    }

    /// Predicts a batch of queries in parallel.
    pub fn predict_batch(&self, queries: &RowMatrix, k: usize) -> Vec<usize> {
        par::map(queries.rows(), |i| self.predict(queries.row(i), k))
    }
}

impl NeighborSearch for KnnClassifier<'_> {
    fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        self.neighbors(query, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (RowMatrix, Vec<usize>) {
        // Two clusters on the x axis.
        let data = RowMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.1, 0.1],
            vec![0.9, -0.1],
            vec![-1.0, 0.0],
            vec![-1.1, 0.1],
            vec![-0.9, -0.1],
        ]);
        (data, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn one_nn_predicts_nearest_label() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Euclidean);
        assert_eq!(knn.predict(&[1.05, 0.0], 1), 0);
        assert_eq!(knn.predict(&[-1.05, 0.0], 1), 1);
    }

    #[test]
    fn majority_vote_with_k3() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
        assert_eq!(knn.predict(&[0.8, 0.05], 3), 0);
        assert_eq!(knn.predict(&[-0.8, 0.05], 3), 1);
    }

    #[test]
    fn cosine_ignores_magnitude() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
        // A tiny vector pointing +x still classifies as cluster 0.
        assert_eq!(knn.predict(&[1e-3, 0.0], 3), 0);
    }

    #[test]
    fn neighbors_sorted_by_distance() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Euclidean);
        let nbrs = knn.neighbors(&[1.0, 0.0], 4);
        assert_eq!(nbrs.len(), 4);
        for w in nbrs.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(nbrs[0].0, 0); // the exact point
    }

    #[test]
    fn k_clamped_to_training_size() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Euclidean);
        assert_eq!(knn.neighbors(&[0.0, 0.0], 100).len(), 6);
        // Vote over everything: tie 3-3 broken toward nearest neighbor.
        let p = knn.predict(&[0.5, 0.0], 100);
        assert_eq!(p, 0);
    }

    #[test]
    fn tie_breaks_toward_nearest() {
        let data = RowMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let labels = vec![0, 1, 1, 0];
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Euclidean);
        // Query at 1.4: neighbors {1.0(l0), 2.0(l1), 3.0(l1), 4.0(l0)};
        // k=4 is a 2-2 tie; nearest is label 0.
        assert_eq!(knn.predict(&[1.4], 4), 0);
        // Query at 2.4: nearest is 2.0 (label 1).
        assert_eq!(knn.predict(&[2.4], 4), 1);
    }

    #[test]
    fn batch_matches_single() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
        let queries = RowMatrix::from_rows(&[vec![1.0, 0.0], vec![-1.0, 0.0]]);
        let batch = knn.predict_batch(&queries, 3);
        assert_eq!(batch, vec![knn.predict(&[1.0, 0.0], 3), knn.predict(&[-1.0, 0.0], 3)]);
    }

    #[test]
    #[should_panic(expected = "one label per training row")]
    fn label_length_mismatch_panics() {
        let data = RowMatrix::zeros(2, 2);
        let labels = vec![0];
        KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
        knn.neighbors(&[0.0, 0.0], 0);
    }

    #[test]
    fn nan_rows_rank_last_instead_of_panicking() {
        // Row 1 is degenerate: NaN components give a NaN distance under
        // both metrics; total_cmp must push it past every finite row.
        let data = RowMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![f64::NAN, f64::NAN],
            vec![0.9, 0.1],
            vec![-1.0, 0.0],
        ]);
        let labels = vec![0, 9, 0, 1];
        for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
            let knn = KnnClassifier::fit(&data, &labels, metric);
            let nbrs = knn.neighbors(&[1.0, 0.0], 4);
            assert_eq!(nbrs.len(), 4);
            assert_eq!(nbrs[3].0, 1, "NaN row must rank last under {metric:?}");
            assert_eq!(knn.predict(&[1.0, 0.0], 2), 0);
        }
    }

    #[test]
    fn predict_with_exact_index_matches_predict() {
        let (data, labels) = toy();
        let knn = KnnClassifier::fit(&data, &labels, DistanceMetric::Cosine);
        for q in [[1.0, 0.05], [-0.7, 0.2], [0.1, 0.9]] {
            for k in [1, 3, 5] {
                assert_eq!(knn.predict_with(&knn, &q, k), knn.predict(&q, k));
            }
        }
    }

    #[test]
    fn vote_majority_and_tiebreak() {
        let labels = vec![7, 8, 8, 7];
        assert_eq!(vote(&labels, &[(1, 0.1), (2, 0.2), (0, 0.3)]), 8);
        // 1-1 tie between labels 7 and 8: nearest neighbor wins.
        assert_eq!(vote(&labels, &[(0, 0.1), (1, 0.2)]), 7);
    }
}
