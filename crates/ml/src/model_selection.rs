//! Unsupervised model selection for clustering.
//!
//! The paper's §VII asks for "a principled manner of selecting the various
//! parameters". For the community-detection application the key parameter
//! is `k`, and the standard label-free selectors are implemented here:
//!
//! * [`silhouette_score`] — mean silhouette width of a clustering;
//! * [`select_k_by_silhouette`] — sweep `k`, keep the best silhouette;
//! * [`elbow_curve`] — the inertia-vs-k series behind the classic elbow
//!   heuristic.

use crate::kmeans::{kmeans, KMeansConfig};
use v2v_base::par;
use v2v_linalg::vector::euclidean;
use v2v_linalg::RowMatrix;

/// Mean silhouette width of `assignments` over `data`, in `[-1, 1]`.
///
/// For each point: `a` = mean distance to its own cluster's other members,
/// `b` = smallest mean distance to another cluster;
/// `s = (b - a) / max(a, b)`. Singleton clusters contribute `0` (the
/// scikit-learn convention). `O(n^2 d)` — intended for the paper-scale
/// thousands of points.
///
/// # Panics
/// Panics if lengths mismatch or fewer than 2 clusters are present.
pub fn silhouette_score(data: &RowMatrix, assignments: &[usize]) -> f64 {
    let n = data.rows();
    assert_eq!(n, assignments.len(), "one assignment per row");
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    assert!(k >= 2, "silhouette needs at least 2 clusters");
    let sizes = {
        let mut s = vec![0usize; k];
        for &a in assignments {
            s[a] += 1;
        }
        s
    };

    let per_point: Vec<f64> = par::map(n, |i| {
        let own = assignments[i];
        if sizes[own] <= 1 {
            return 0.0;
        }
        // Mean distance from i to each cluster.
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if i != j {
                sums[assignments[j]] += euclidean(data.row(i), data.row(j));
            }
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            return 0.0;
        }
        (b - a) / a.max(b).max(f64::MIN_POSITIVE)
    });
    per_point.iter().sum::<f64>() / n as f64
}

/// Sweeps `k` over `candidates`, clustering each with `base` (its `k`
/// field is overridden) and returns `(best_k, silhouettes)` where
/// `silhouettes[i]` pairs with `candidates[i]`.
///
/// # Panics
/// Panics if `candidates` is empty or contains `k < 2`.
pub fn select_k_by_silhouette(
    data: &RowMatrix,
    candidates: &[usize],
    base: &KMeansConfig,
) -> (usize, Vec<f64>) {
    assert!(!candidates.is_empty(), "no candidate k values");
    let scores: Vec<f64> = candidates
        .iter()
        .map(|&k| {
            assert!(k >= 2, "candidate k must be >= 2");
            let cfg = KMeansConfig { k, ..*base };
            let result = kmeans(data, &cfg);
            silhouette_score(data, &result.assignments)
        })
        .collect();
    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| candidates[i])
        .unwrap();
    (best, scores)
}

/// Inertia for each candidate `k` (the elbow curve).
pub fn elbow_curve(data: &RowMatrix, candidates: &[usize], base: &KMeansConfig) -> Vec<f64> {
    candidates
        .iter()
        .map(|&k| kmeans(data, &KMeansConfig { k, ..*base }).inertia)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(k: usize, per: usize, sep: f64, seed: u64) -> (RowMatrix, Vec<usize>) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for _ in 0..per {
                rows.push(vec![
                    c as f64 * sep + rng.gen_range(-0.5..0.5),
                    (c % 2) as f64 * sep + rng.gen_range(-0.5..0.5),
                ]);
                labels.push(c);
            }
        }
        (RowMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn perfect_clusters_score_high() {
        let (data, labels) = blobs(3, 20, 20.0, 1);
        let s = silhouette_score(&data, &labels);
        assert!(s > 0.9, "silhouette {s}");
    }

    #[test]
    fn random_assignment_scores_low() {
        let (data, _) = blobs(3, 20, 20.0, 2);
        let mut rng = v2v_base::rng::Rng::seed_from_u64(3);
        let random: Vec<usize> = (0..60).map(|_| rng.gen_range(0..3)).collect();
        let s = silhouette_score(&data, &random);
        assert!(s < 0.2, "silhouette of random labels {s}");
    }

    #[test]
    fn splitting_a_tight_cluster_scores_lower() {
        let (data, labels) = blobs(2, 30, 20.0, 4);
        let good = silhouette_score(&data, &labels);
        // Split cluster 0 arbitrarily into two.
        let split: Vec<usize> =
            labels.iter().enumerate().map(|(i, &l)| if l == 0 && i % 2 == 0 { 2 } else { l }).collect();
        let worse = silhouette_score(&data, &split);
        assert!(good > worse + 0.1, "good {good} vs split {worse}");
    }

    #[test]
    fn select_k_finds_true_k() {
        let (data, _) = blobs(4, 25, 15.0, 5);
        let base = KMeansConfig { restarts: 5, ..Default::default() };
        let (best, scores) = select_k_by_silhouette(&data, &[2, 3, 4, 5, 6], &base);
        assert_eq!(best, 4, "scores: {scores:?}");
    }

    #[test]
    fn elbow_curve_is_decreasing() {
        let (data, _) = blobs(3, 20, 10.0, 6);
        let base = KMeansConfig { restarts: 3, ..Default::default() };
        let curve = elbow_curve(&data, &[1, 2, 3, 4, 5], &base);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "inertia increased: {curve:?}");
        }
        // Big drop up to the true k = 3, little after.
        let drop_to_3 = curve[0] - curve[2];
        let drop_after = curve[2] - curve[4];
        assert!(drop_to_3 > 5.0 * drop_after);
    }

    #[test]
    fn singleton_clusters_contribute_zero() {
        let data = RowMatrix::from_rows(&[vec![0.0], vec![0.1], vec![10.0]]);
        // Cluster 1 is a singleton.
        let s = silhouette_score(&data, &[0, 0, 1]);
        assert!(s > 0.5); // the two-point cluster is very tight
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn single_cluster_panics() {
        let data = RowMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        silhouette_score(&data, &[0, 0]);
    }
}
