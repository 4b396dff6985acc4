//! Multinomial logistic regression (softmax regression).
//!
//! The paper concedes that "k-NN is not the best accuracy classification
//! algorithm" (§V); one-vs-rest / softmax logistic regression over the
//! embedding is what DeepWalk and node2vec actually evaluate with. This is
//! a plain batch gradient-descent implementation with L2 regularization —
//! adequate for embedding-sized feature matrices.

use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_linalg::RowMatrix;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct LogisticConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig { iterations: 200, learning_rate: 0.5, l2: 1e-4, seed: 0x106 }
    }
}

/// A trained softmax classifier.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    /// Weights, `num_classes x (d + 1)` (last column is the bias).
    weights: RowMatrix,
    num_classes: usize,
}

impl LogisticRegression {
    /// Fits on `data` (one sample per row) and dense labels `0..k`.
    ///
    /// # Panics
    /// Panics on empty data, mismatched lengths, or fewer than 2 classes.
    pub fn fit(data: &RowMatrix, labels: &[usize], config: &LogisticConfig) -> Self {
        Self::fit_on(par::threads(), data, labels, config)
    }

    /// [`fit`](Self::fit) on a given number of threads; the weights are the
    /// same for every count.
    fn fit_on(threads: usize, data: &RowMatrix, labels: &[usize], config: &LogisticConfig) -> Self {
        let n = data.rows();
        let d = data.cols();
        assert_eq!(n, labels.len(), "one label per row");
        assert!(n > 0, "empty training set");
        let k = labels.iter().copied().max().unwrap() + 1;
        assert!(k >= 2, "need at least 2 classes");

        let mut rng = Rng::seed_from_u64(config.seed);
        let mut weights = RowMatrix::from_flat(
            k,
            d + 1,
            (0..k * (d + 1)).map(|_| rng.gen_range(-0.01..0.01)).collect(),
        );

        let inv_n = 1.0 / n as f64;
        for _ in 0..config.iterations {
            // Per-sample gradient contributions: one partial gradient per
            // block of samples, added up in block order.
            let grad: Vec<f64> = par::blocks_on(threads, n, |samples| {
                let mut g = vec![0.0f64; k * (d + 1)];
                for i in samples {
                    let x = data.row(i);
                    let p = softmax_scores(&weights, x);
                    for (c, &pc) in p.iter().enumerate() {
                        let err = pc - f64::from(labels[i] == c);
                        let base = c * (d + 1);
                        for (j, &xj) in x.iter().enumerate() {
                            g[base + j] += err * xj;
                        }
                        g[base + d] += err; // bias
                    }
                }
                g
            })
            .into_iter()
            .reduce(|mut a, b| {
                for (ai, bi) in a.iter_mut().zip(b) {
                    *ai += bi;
                }
                a
            })
            .expect("n > 0, so there is a block");
            for c in 0..k {
                let row = weights.row_mut(c);
                for (j, w) in row.iter_mut().enumerate() {
                    let reg = if j == d { 0.0 } else { config.l2 * *w };
                    *w -= config.learning_rate * (grad[c * (d + 1) + j] * inv_n + reg);
                }
            }
        }
        LogisticRegression { weights, num_classes: k }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Class probabilities for one sample.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax_scores(&self.weights, x)
    }

    /// Most probable class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        let p = self.predict_proba(x);
        p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(c, _)| c).unwrap()
    }

    /// Predicts a batch in parallel.
    pub fn predict_batch(&self, data: &RowMatrix) -> Vec<usize> {
        par::map(data.rows(), |i| self.predict(data.row(i)))
    }

    /// Mean cross-entropy on a labeled set (useful to monitor fit).
    pub fn log_loss(&self, data: &RowMatrix, labels: &[usize]) -> f64 {
        assert_eq!(data.rows(), labels.len());
        let total: f64 = (0..data.rows())
            .map(|i| -self.predict_proba(data.row(i))[labels[i]].max(1e-12).ln())
            .sum();
        total / data.rows() as f64
    }
}

/// Numerically stable softmax of `W [x; 1]`.
fn softmax_scores(weights: &RowMatrix, x: &[f64]) -> Vec<f64> {
    let d = x.len();
    debug_assert_eq!(weights.cols(), d + 1, "feature dimension mismatch");
    let mut logits: Vec<f64> = (0..weights.rows())
        .map(|c| {
            let row = weights.row(c);
            v2v_linalg::vector::dot(&row[..d], x) + row[d]
        })
        .collect();
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        total += *l;
    }
    for l in logits.iter_mut() {
        *l /= total;
    }
    logits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (RowMatrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(1);
        let centers = [[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![
                    center[0] + rng.gen_range(-1.0..1.0),
                    center[1] + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        (RowMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn separable_blobs_learned() {
        let (data, labels) = blobs();
        let lr = LogisticRegression::fit(&data, &labels, &LogisticConfig::default());
        let pred = lr.predict_batch(&data);
        let acc = crate::metrics::accuracy(&labels, &pred);
        assert!(acc > 0.97, "train accuracy {acc}");
        assert_eq!(lr.num_classes(), 3);
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let (data, labels) = blobs();
        let lr = LogisticRegression::fit(&data, &labels, &LogisticConfig::default());
        let p = lr.predict_proba(&[1.0, 1.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn weights_do_not_depend_on_the_thread_count() {
        let (data, labels) = blobs();
        let cfg = LogisticConfig { iterations: 20, ..Default::default() };
        let bits = |threads| -> Vec<u64> {
            let model = LogisticRegression::fit_on(threads, &data, &labels, &cfg);
            model.weights.as_flat().iter().map(|w| w.to_bits()).collect()
        };
        let one = bits(1);
        for threads in [2, 5] {
            assert_eq!(bits(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn loss_decreases_with_training() {
        let (data, labels) = blobs();
        let short = LogisticRegression::fit(
            &data,
            &labels,
            &LogisticConfig { iterations: 2, ..Default::default() },
        );
        let long = LogisticRegression::fit(
            &data,
            &labels,
            &LogisticConfig { iterations: 300, ..Default::default() },
        );
        assert!(long.log_loss(&data, &labels) < short.log_loss(&data, &labels));
    }

    #[test]
    fn predicts_held_out_points() {
        let (data, labels) = blobs();
        let lr = LogisticRegression::fit(&data, &labels, &LogisticConfig::default());
        assert_eq!(lr.predict(&[0.2, -0.3]), 0);
        assert_eq!(lr.predict(&[6.5, 0.5]), 1);
        assert_eq!(lr.predict(&[-0.5, 6.2]), 2);
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (data, labels) = blobs();
        let weak = LogisticRegression::fit(
            &data,
            &labels,
            &LogisticConfig { l2: 0.0, iterations: 300, ..Default::default() },
        );
        let strong = LogisticRegression::fit(
            &data,
            &labels,
            &LogisticConfig { l2: 1.0, iterations: 300, ..Default::default() },
        );
        let norm = |m: &LogisticRegression| m.weights.frobenius_norm();
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn binary_case_works() {
        let data = RowMatrix::from_rows(&[
            vec![-1.0],
            vec![-2.0],
            vec![1.0],
            vec![2.0],
        ]);
        let labels = vec![0, 0, 1, 1];
        let lr = LogisticRegression::fit(&data, &labels, &LogisticConfig::default());
        assert_eq!(lr.predict(&[-1.5]), 0);
        assert_eq!(lr.predict(&[1.5]), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn single_class_panics() {
        let data = RowMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        LogisticRegression::fit(&data, &[0, 0], &LogisticConfig::default());
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn mismatched_labels_panic() {
        let data = RowMatrix::from_rows(&[vec![0.0]]);
        LogisticRegression::fit(&data, &[0, 1], &LogisticConfig::default());
    }
}
