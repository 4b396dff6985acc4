//! Property-based tests for the ML toolkit invariants.

use proptest::prelude::*;
use v2v_linalg::RowMatrix;
use v2v_ml::cross_validation::kfold;
use v2v_ml::kmeans::{kmeans, KMeansConfig};
use v2v_ml::metrics::{
    accuracy, adjusted_rand_index, nmi, pairwise_scores, purity, roc_auc,
};

proptest! {
    /// All clustering metrics are bounded and perfect on identity.
    #[test]
    fn metrics_bounded(labels in proptest::collection::vec(0usize..6, 2..80),
                       pred in proptest::collection::vec(0usize..6, 2..80)) {
        let n = labels.len().min(pred.len());
        let (labels, pred) = (&labels[..n], &pred[..n]);
        let s = pairwise_scores(labels, pred);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!((0.0..=1.0).contains(&s.f1));
        prop_assert!((0.0..=1.0).contains(&accuracy(labels, pred)));
        prop_assert!((0.0..=1.0).contains(&purity(labels, pred)));
        prop_assert!((0.0..=1.0).contains(&nmi(labels, pred)));
        let ari = adjusted_rand_index(labels, pred);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ari));

        // Identity is perfect.
        let s = pairwise_scores(labels, labels);
        prop_assert_eq!((s.precision, s.recall), (1.0, 1.0));
    }

    /// Pairwise scores and NMI/ARI are invariant under label renaming.
    #[test]
    fn clustering_metrics_label_invariant(labels in proptest::collection::vec(0usize..5, 2..60),
                                          pred in proptest::collection::vec(0usize..5, 2..60),
                                          shift in 1usize..100) {
        let n = labels.len().min(pred.len());
        let (labels, pred) = (&labels[..n], &pred[..n]);
        let renamed: Vec<usize> = pred.iter().map(|&p| p + shift).collect();
        let a = pairwise_scores(labels, pred);
        let b = pairwise_scores(labels, &renamed);
        prop_assert_eq!(a, b);
        prop_assert!((nmi(labels, pred) - nmi(labels, &renamed)).abs() < 1e-12);
        prop_assert!((adjusted_rand_index(labels, pred) - adjusted_rand_index(labels, &renamed)).abs() < 1e-12);
    }

    /// k-means invariants: assignments dense and in range; inertia equals
    /// the recomputed objective; every cluster's centroid is finite.
    #[test]
    fn kmeans_invariants(seed in any::<u64>(), k in 1usize..5) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..30).map(|_| (0..3).map(|_| rng.gen_range(-5.0..5.0)).collect()).collect();
        let data = RowMatrix::from_rows(&rows);
        let cfg = KMeansConfig { k, restarts: 2, max_iters: 25, seed, ..Default::default() };
        let res = kmeans(&data, &cfg);
        prop_assert_eq!(res.assignments.len(), 30);
        prop_assert!(res.assignments.iter().all(|&a| a < k));
        prop_assert!(res.inertia.is_finite() && res.inertia >= 0.0);
        prop_assert!(res.centroids.as_flat().iter().all(|x| x.is_finite()));
        // Recompute the objective from the final assignment against the
        // final centroids; it can differ slightly from the reported value
        // (one update step after the last assignment) but must be close.
        let recomputed: f64 = (0..30)
            .map(|i| v2v_linalg::vector::euclidean_sq(data.row(i), res.centroids.row(res.assignments[i])))
            .sum();
        prop_assert!(recomputed <= res.inertia * 1.5 + 1e-6,
            "recomputed {recomputed} vs reported {}", res.inertia);
    }

    /// k-fold splits partition the index set for any (n, k).
    #[test]
    fn kfold_partitions(n in 2usize..200, folds in 1usize..10, seed in any::<u64>()) {
        let folds = folds.min(n);
        let splits = kfold(n, folds, seed);
        let mut seen = vec![false; n];
        for f in &splits {
            for &i in &f.test {
                prop_assert!(!seen[i], "index {i} in two folds");
                seen[i] = true;
            }
            prop_assert_eq!(f.train.len() + f.test.len(), n);
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// AUC is in [0, 1], flips under score negation, and is 1 for
    /// perfectly separated scores.
    #[test]
    fn auc_properties(pos in proptest::collection::vec(0.0f64..1.0, 1..40),
                      neg in proptest::collection::vec(0.0f64..1.0, 1..40)) {
        let mut scores: Vec<f64> = pos.iter().copied().chain(neg.iter().copied()).collect();
        let labels: Vec<bool> =
            std::iter::repeat_n(true, pos.len()).chain(std::iter::repeat_n(false, neg.len())).collect();
        let auc = roc_auc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&auc));
        for s in scores.iter_mut() {
            *s = -*s;
        }
        let flipped = roc_auc(&scores, &labels);
        prop_assert!((auc + flipped - 1.0).abs() < 1e-9, "auc {auc} + flipped {flipped} != 1");
    }
}
