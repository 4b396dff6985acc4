//! Exact t-SNE (van der Maaten & Hinton 2008).
//!
//! The paper names t-SNE alongside PCA as the principled projections for
//! exploring embeddings (§I). This is the exact `O(n^2)` formulation:
//! Gaussian input affinities with per-point bandwidths found by binary
//! search on perplexity, Student-t output affinities, gradient descent
//! with momentum and early exaggeration.

use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_linalg::RowMatrix;
use v2v_linalg::vector::euclidean_sq;

/// t-SNE parameters.
#[derive(Clone, Copy, Debug)]
pub struct TsneConfig {
    /// Output dimensionality (2 for plots).
    pub out_dims: usize,
    /// Target perplexity (effective neighborhood size).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Early-exaggeration factor applied for the first quarter of the run.
    pub exaggeration: f64,
    /// Seed for the initial placement.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            out_dims: 2,
            perplexity: 30.0,
            iterations: 400,
            learning_rate: 100.0,
            exaggeration: 12.0,
            seed: 0x75E,
        }
    }
}

/// Runs exact t-SNE on `data` (one point per row). Returns `n x out_dims`.
///
/// # Panics
/// Panics if fewer than 4 points or `perplexity >= n - 1`.
pub fn tsne(data: &RowMatrix, config: &TsneConfig) -> RowMatrix {
    let n = data.rows();
    assert!(n >= 4, "t-SNE needs at least 4 points");
    assert!(
        config.perplexity < (n - 1) as f64,
        "perplexity {} too large for {} points",
        config.perplexity,
        n
    );

    let p = joint_affinities(data, config.perplexity);

    let mut rng = Rng::seed_from_u64(config.seed);
    let d = config.out_dims;
    let mut y: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1e-2..1e-2)).collect();
    let mut velocity = vec![0.0f64; n * d];
    let exaggeration_until = config.iterations / 4;

    for iter in 0..config.iterations {
        let exag = if iter < exaggeration_until { config.exaggeration } else { 1.0 };
        let momentum = if iter < exaggeration_until { 0.5 } else { 0.8 };

        // Student-t kernel and its normalizer.
        let mut q_unnorm = vec![0.0f64; n * n];
        let mut z = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let mut dist = 0.0;
                for k in 0..d {
                    let diff = y[i * d + k] - y[j * d + k];
                    dist += diff * diff;
                }
                let w = 1.0 / (1.0 + dist);
                q_unnorm[i * n + j] = w;
                q_unnorm[j * n + i] = w;
                z += 2.0 * w;
            }
        }
        let z = z.max(1e-12);

        // Gradient: 4 sum_j (exag*p_ij - q_ij) w_ij (y_i - y_j).
        let grads: Vec<Vec<f64>> = par::map(n, |i| {
            let mut g = vec![0.0f64; d];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = q_unnorm[i * n + j];
                let q = w / z;
                let mult = 4.0 * (exag * p[i * n + j] - q) * w;
                for k in 0..d {
                    g[k] += mult * (y[i * d + k] - y[j * d + k]);
                }
            }
            g
        });

        for (idx, grad) in grads.iter().flatten().enumerate() {
            velocity[idx] = momentum * velocity[idx] - config.learning_rate * grad;
            y[idx] += velocity[idx];
        }

        // Recentering prevents drift.
        for k in 0..d {
            let mean: f64 = (0..n).map(|i| y[i * d + k]).sum::<f64>() / n as f64;
            for i in 0..n {
                y[i * d + k] -= mean;
            }
        }
    }

    RowMatrix::from_flat(n, d, y)
}

/// Symmetric joint affinities `P` (flattened `n x n`) with per-point
/// bandwidths binary-searched to hit `perplexity`.
fn joint_affinities(data: &RowMatrix, perplexity: f64) -> Vec<f64> {
    let n = data.rows();
    let target_entropy = perplexity.ln();

    // Conditional affinities, rows in parallel.
    let cond: Vec<Vec<f64>> = par::map(n, |i| {
        let d2: Vec<f64> = (0..n).map(|j| euclidean_sq(data.row(i), data.row(j))).collect();
        let mut beta = 1.0; // 1 / (2 sigma^2)
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        let mut row = vec![0.0f64; n];
        for _ in 0..64 {
            let mut sum = 0.0;
            for j in 0..n {
                row[j] = if i == j { 0.0 } else { (-beta * d2[j]).exp() };
                sum += row[j];
            }
            let sum = sum.max(1e-300);
            // Shannon entropy of the normalized row.
            let mut entropy = 0.0;
            for &rj in row.iter() {
                if rj > 0.0 {
                    let pj = rj / sum;
                    entropy -= pj * pj.ln();
                }
            }
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                lo = beta;
                beta = if hi.is_finite() { (beta + hi) / 2.0 } else { beta * 2.0 };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let sum: f64 = row.iter().sum::<f64>().max(1e-300);
        row.iter_mut().for_each(|x| *x /= sum);
        row
    });

    // Symmetrize: P_ij = (P_j|i + P_i|j) / 2n, floored away from zero.
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                p[i * n + j] = ((cond[i][j] + cond[j][i]) / (2.0 * n as f64)).max(1e-12);
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, seed: u64) -> (RowMatrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0], [0.0, 20.0, 0.0]]
            .iter()
            .enumerate()
        {
            for _ in 0..n_per {
                rows.push(vec![
                    center[0] + rng.gen_range(-0.5..0.5),
                    center[1] + rng.gen_range(-0.5..0.5),
                    center[2] + rng.gen_range(-0.5..0.5),
                ]);
                labels.push(c);
            }
        }
        (RowMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn preserves_cluster_structure() {
        let (data, labels) = blobs(15, 1);
        // 1000 iterations: some seeds need well past the early-exaggeration
        // phase before the clusters fully contract.
        let cfg = TsneConfig { perplexity: 10.0, iterations: 1000, ..Default::default() };
        let y = tsne(&data, &cfg);
        // Mean within-cluster distance must be well below across-cluster.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..45 {
            for j in (i + 1)..45 {
                let dx = y[(i, 0)] - y[(j, 0)];
                let dy = y[(i, 1)] - y[(j, 1)];
                let dist = (dx * dx + dy * dy).sqrt();
                if labels[i] == labels[j] {
                    within.0 += dist;
                    within.1 += 1;
                } else {
                    across.0 += dist;
                    across.1 += 1;
                }
            }
        }
        let w = within.0 / within.1 as f64;
        let a = across.0 / across.1 as f64;
        assert!(a > 2.0 * w, "within {w}, across {a}");
    }

    #[test]
    fn output_shape_and_finiteness() {
        let (data, _) = blobs(8, 2);
        let y = tsne(&data, &TsneConfig { perplexity: 5.0, iterations: 100, ..Default::default() });
        assert_eq!(y.rows(), 24);
        assert_eq!(y.cols(), 2);
        assert!(y.as_flat().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn output_is_centered() {
        let (data, _) = blobs(8, 3);
        let y = tsne(&data, &TsneConfig { perplexity: 5.0, iterations: 50, ..Default::default() });
        for k in 0..2 {
            let mean: f64 = (0..24).map(|i| y[(i, k)]).sum::<f64>() / 24.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs(6, 4);
        let cfg = TsneConfig { perplexity: 4.0, iterations: 60, ..Default::default() };
        // Note: the gradient uses parallel reduction but each element is
        // computed independently, so results are bitwise deterministic.
        let a = tsne(&data, &cfg);
        let b = tsne(&data, &cfg);
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn affinities_are_a_distribution() {
        let (data, _) = blobs(6, 5);
        let p = joint_affinities(&data, 5.0);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum = {total}");
        for i in 0..18 {
            assert_eq!(p[i * 18 + i], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "perplexity")]
    fn oversized_perplexity_panics() {
        let (data, _) = blobs(2, 6);
        tsne(&data, &TsneConfig { perplexity: 10.0, ..Default::default() });
    }
}
