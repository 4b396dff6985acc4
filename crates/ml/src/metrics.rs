//! Clustering and classification quality metrics.
//!
//! The paper scores community detection with *pairwise* precision and
//! recall over vertex pairs (§III-B): precision is the fraction of
//! same-cluster pairs that are truly same-community; recall is the fraction
//! of same-community pairs that land in one cluster. Both are computed in
//! `O(n + C)` from the contingency table, not by enumerating pairs.

use std::collections::HashMap;

/// Pairwise precision/recall/F1 of a clustering against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairwiseScores {
    /// Fraction of predicted same-cluster pairs that share a true community.
    pub precision: f64,
    /// Fraction of true same-community pairs that share a predicted cluster.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

#[inline]
fn choose2(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// Contingency cells `count[(truth, pred)]` plus the two marginals.
type Contingency = (HashMap<(usize, usize), u64>, HashMap<usize, u64>, HashMap<usize, u64>);

/// Builds the contingency table `count[(truth, pred)]` plus marginals.
fn contingency(truth: &[usize], pred: &[usize]) -> Contingency {
    assert_eq!(truth.len(), pred.len(), "label slices must align");
    let mut cells: HashMap<(usize, usize), u64> = HashMap::new();
    let mut truth_sizes: HashMap<usize, u64> = HashMap::new();
    let mut pred_sizes: HashMap<usize, u64> = HashMap::new();
    for (&t, &p) in truth.iter().zip(pred) {
        *cells.entry((t, p)).or_insert(0) += 1;
        *truth_sizes.entry(t).or_insert(0) += 1;
        *pred_sizes.entry(p).or_insert(0) += 1;
    }
    (cells, truth_sizes, pred_sizes)
}

/// Pairwise precision and recall (V2V §III-B). Conventions: with no
/// same-cluster pairs precision is 1 (nothing asserted, nothing wrong);
/// with no same-community pairs recall is 1.
pub fn pairwise_scores(truth: &[usize], pred: &[usize]) -> PairwiseScores {
    let (cells, truth_sizes, pred_sizes) = contingency(truth, pred);
    let tp: u64 = cells.values().map(|&c| choose2(c)).sum();
    let pred_pairs: u64 = pred_sizes.values().map(|&c| choose2(c)).sum();
    let truth_pairs: u64 = truth_sizes.values().map(|&c| choose2(c)).sum();
    let precision = if pred_pairs == 0 { 1.0 } else { tp as f64 / pred_pairs as f64 };
    let recall = if truth_pairs == 0 { 1.0 } else { tp as f64 / truth_pairs as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PairwiseScores { precision, recall, f1 }
}

/// Plain classification accuracy: fraction of positions where the labels
/// agree. Empty input counts as accuracy 1.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "label slices must align");
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth.iter().zip(pred).filter(|(a, b)| a == b).count();
    hits as f64 / truth.len() as f64
}

/// Cluster purity: each cluster votes its majority true label; purity is
/// the fraction of points covered by those majorities.
pub fn purity(truth: &[usize], pred: &[usize]) -> f64 {
    let (cells, _, _) = contingency(truth, pred);
    if truth.is_empty() {
        return 1.0;
    }
    let mut best: HashMap<usize, u64> = HashMap::new();
    for (&(_, p), &c) in &cells {
        let e = best.entry(p).or_insert(0);
        *e = (*e).max(c);
    }
    best.values().sum::<u64>() as f64 / truth.len() as f64
}

/// Normalized Mutual Information (arithmetic normalization) between two
/// labelings, in `[0, 1]`. Returns 1 when both labelings are constant.
pub fn nmi(truth: &[usize], pred: &[usize]) -> f64 {
    let (cells, truth_sizes, pred_sizes) = contingency(truth, pred);
    let n = truth.len() as f64;
    if truth.is_empty() {
        return 1.0;
    }
    let entropy = |sizes: &HashMap<usize, u64>| -> f64 {
        sizes
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let ht = entropy(&truth_sizes);
    let hp = entropy(&pred_sizes);
    let mut mi = 0.0;
    for (&(t, p), &c) in &cells {
        let pij = c as f64 / n;
        let pi = truth_sizes[&t] as f64 / n;
        let pj = pred_sizes[&p] as f64 / n;
        mi += pij * (pij / (pi * pj)).ln();
    }
    if ht == 0.0 && hp == 0.0 {
        1.0
    } else if mi <= 0.0 {
        0.0
    } else {
        (2.0 * mi / (ht + hp)).clamp(0.0, 1.0)
    }
}

/// Adjusted Rand Index in `[-1, 1]`; 1 for identical partitions, ~0 for
/// independent ones.
pub fn adjusted_rand_index(truth: &[usize], pred: &[usize]) -> f64 {
    let (cells, truth_sizes, pred_sizes) = contingency(truth, pred);
    let n = truth.len() as u64;
    if n < 2 {
        return 1.0;
    }
    let sum_cells: f64 = cells.values().map(|&c| choose2(c) as f64).sum();
    let sum_t: f64 = truth_sizes.values().map(|&c| choose2(c) as f64).sum();
    let sum_p: f64 = pred_sizes.values().map(|&c| choose2(c) as f64).sum();
    let total = choose2(n) as f64;
    let expected = sum_t * sum_p / total;
    let max_index = 0.5 * (sum_t + sum_p);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_cells - expected) / (max_index - expected)
}

/// Confusion matrix `counts[truth][pred]` over dense labels `0..k`.
///
/// # Panics
/// Panics if any label is `>= k`.
pub fn confusion_matrix(truth: &[usize], pred: &[usize], k: usize) -> Vec<Vec<u64>> {
    assert_eq!(truth.len(), pred.len());
    let mut m = vec![vec![0u64; k]; k];
    for (&t, &p) in truth.iter().zip(pred) {
        m[t][p] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let truth = vec![0, 0, 1, 1, 2, 2];
        let s = pairwise_scores(&truth, &truth);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
        assert_eq!(accuracy(&truth, &truth), 1.0);
        assert_eq!(purity(&truth, &truth), 1.0);
        assert!((nmi(&truth, &truth) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&truth, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_permutation_does_not_hurt_clustering_metrics() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![5, 5, 3, 3]; // same partition, renamed
        let s = pairwise_scores(&truth, &pred);
        assert_eq!((s.precision, s.recall), (1.0, 1.0));
        assert!((adjusted_rand_index(&truth, &pred) - 1.0).abs() < 1e-12);
        assert!((nmi(&truth, &pred) - 1.0).abs() < 1e-12);
        // ...but accuracy is label-sensitive by design.
        assert_eq!(accuracy(&truth, &pred), 0.0);
    }

    #[test]
    fn all_in_one_cluster_has_full_recall_low_precision() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 0, 0, 0];
        let s = pairwise_scores(&truth, &pred);
        assert_eq!(s.recall, 1.0);
        // TP = C(2,2)*2 = 2; predicted pairs = C(4,2) = 6.
        assert!((s.precision - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn singletons_have_full_precision_zero_recall() {
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 1, 2, 3];
        let s = pairwise_scores(&truth, &pred);
        assert_eq!(s.precision, 1.0); // vacuous
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn split_cluster_counts() {
        // Community {a,b,c} split into {a,b} and {c}: TP = 1,
        // pred pairs = 1, truth pairs = 3.
        let truth = vec![0, 0, 0];
        let pred = vec![0, 0, 1];
        let s = pairwise_scores(&truth, &pred);
        assert_eq!(s.precision, 1.0);
        assert!((s.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_counts_positions() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 1.0);
    }

    #[test]
    fn purity_majority_vote() {
        // Cluster 0 = {t0, t0, t1} majority 2; cluster 1 = {t1} majority 1.
        let truth = vec![0, 0, 1, 1];
        let pred = vec![0, 0, 0, 1];
        assert!((purity(&truth, &pred) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_labelings_near_zero() {
        // Truth alternates in pairs; pred alternates singly — independent-ish.
        let truth = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let pred = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(nmi(&truth, &pred) < 0.05);
        assert!(adjusted_rand_index(&truth, &pred).abs() < 0.3);
    }

    #[test]
    fn constant_labelings_edge_case() {
        let a = vec![0, 0, 0];
        assert_eq!(nmi(&a, &a), 1.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    fn confusion_matrix_layout() {
        let m = confusion_matrix(&[0, 0, 1], &[0, 1, 1], 2);
        assert_eq!(m, vec![vec![1, 1], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        pairwise_scores(&[0], &[0, 1]);
    }
}

/// Area under the ROC curve for binary scores: the probability that a
/// uniformly chosen positive outranks a uniformly chosen negative (ties
/// count half). This is the standard link-prediction quality measure.
///
/// # Panics
/// Panics if the slices differ in length or either class is empty.
pub fn roc_auc(scores: &[f64], is_positive: &[bool]) -> f64 {
    assert_eq!(scores.len(), is_positive.len(), "one label per score");
    let pos = is_positive.iter().filter(|&&p| p).count();
    let neg = is_positive.len() - pos;
    assert!(pos > 0 && neg > 0, "AUC needs both classes");

    // Rank-sum formulation with midranks for ties: O(n log n).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
    let mut rank_sum = 0.0f64; // sum of positive ranks (1-based, midrank)
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if is_positive[idx] {
                rank_sum += midrank;
            }
        }
        i = j + 1;
    }
    (rank_sum - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod auc_tests {
    use super::roc_auc;

    #[test]
    fn perfect_separation_is_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_separation_is_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn all_ties_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_partial_value() {
        // positives {0.8, 0.4}, negatives {0.6, 0.2}:
        // pairs won: (0.8>0.6), (0.8>0.2), (0.4<0.6 lost), (0.4>0.2) = 3/4.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn random_scores_near_half() {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(1);
        let scores: Vec<f64> = (0..4000).map(|_| rng.gen_f64()).collect();
        let labels: Vec<bool> = (0..4000).map(|_| rng.gen_bool(0.5)).collect();
        let auc = roc_auc(&scores, &labels);
        assert!((auc - 0.5).abs() < 0.03, "auc = {auc}");
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        roc_auc(&[0.1, 0.2], &[true, true]);
    }
}
