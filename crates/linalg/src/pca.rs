//! Principal Component Analysis.
//!
//! The paper projects V2V embeddings onto their top two or three principal
//! components to draw Figs 4 and 8. Two symmetric eigensolvers are provided:
//!
//! * [`power_iteration_top_k`] — power iteration with Hotelling deflation;
//!   cheap when only the top 2–3 components of a large covariance are
//!   needed (the visualization case).
//! * [`jacobi_eigen`] — cyclic Jacobi; computes the full spectrum of small
//!   symmetric matrices, and cross-checks power iteration in tests.

use crate::matrix::RowMatrix;
use crate::stats;
use crate::vector;
use v2v_base::rng::Rng;

/// A fitted PCA model.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Column means of the training data (subtracted before projection).
    pub mean: Vec<f64>,
    /// Principal components, one per row, unit length, ordered by
    /// decreasing explained variance. Shape `k x d`.
    pub components: RowMatrix,
    /// Variance captured by each component (the eigenvalues).
    pub explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits a PCA with `k` components on `data` (one sample per row).
    ///
    /// Uses power iteration with deflation, which is exact enough for
    /// visualization and `O(k * iters * d^2)`.
    ///
    /// # Panics
    /// Panics if `k` is zero or exceeds the data dimensionality.
    pub fn fit(data: &RowMatrix, k: usize, seed: u64) -> Pca {
        let d = data.cols();
        assert!(k >= 1 && k <= d, "k = {k} out of range for dimension {d}");
        let (_, mean) = stats::center(data);
        let cov = stats::covariance(data);
        let (values, vectors) = power_iteration_top_k(&cov, k, 1000, 1e-12, seed);
        Pca { mean, components: vectors, explained_variance: values }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// Projects `data` (shape `n x d`) into component space (shape `n x k`).
    pub fn transform(&self, data: &RowMatrix) -> RowMatrix {
        assert_eq!(data.cols(), self.components.cols(), "dimension mismatch");
        let n = data.rows();
        let k = self.k();
        let mut out = RowMatrix::zeros(n, k);
        let mut centered = vec![0.0; data.cols()];
        for i in 0..n {
            for (c, (x, mu)) in centered.iter_mut().zip(data.row(i).iter().zip(&self.mean)) {
                *c = x - mu;
            }
            for j in 0..k {
                out[(i, j)] = vector::dot(&centered, self.components.row(j));
            }
        }
        out
    }

    /// Fits and immediately projects the training data.
    pub fn fit_transform(data: &RowMatrix, k: usize, seed: u64) -> (Pca, RowMatrix) {
        let pca = Pca::fit(data, k, seed);
        let projected = pca.transform(data);
        (pca, projected)
    }

    /// Fraction of total variance captured by each component, when the total
    /// variance of the training covariance is supplied.
    pub fn explained_variance_ratio(&self, total_variance: f64) -> Vec<f64> {
        if total_variance <= 0.0 {
            return vec![0.0; self.k()];
        }
        self.explained_variance.iter().map(|v| v / total_variance).collect()
    }
}

/// Top-`k` eigenpairs of a symmetric PSD matrix by power iteration with
/// Hotelling deflation. Returns `(eigenvalues, eigenvectors)` with
/// eigenvectors as rows, ordered by decreasing eigenvalue.
pub fn power_iteration_top_k(
    sym: &RowMatrix,
    k: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
) -> (Vec<f64>, RowMatrix) {
    let d = sym.rows();
    assert_eq!(sym.rows(), sym.cols(), "matrix must be square");
    assert!(k <= d);
    let mut rng = Rng::seed_from_u64(seed);
    let mut deflated = sym.clone();
    let mut values = Vec::with_capacity(k);
    let mut vectors = RowMatrix::zeros(k, d);

    for comp in 0..k {
        let mut v: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vector::normalize(&mut v);
        let mut lambda = 0.0;
        for _ in 0..max_iter {
            let mut w = deflated.matvec(&v);
            // Re-orthogonalize against already-found components to fight
            // numeric drift in the deflation.
            for prev in 0..comp {
                let p = vectors.row(prev);
                let proj = vector::dot(&w, p);
                for (wi, pi) in w.iter_mut().zip(p) {
                    *wi -= proj * pi;
                }
            }
            let n = vector::norm(&w);
            if n == 0.0 {
                // Matrix is (numerically) rank-deficient; the remaining
                // eigenvalues are zero and any orthogonal direction works.
                break;
            }
            for (wi, _) in w.iter_mut().zip(0..d) {
                *wi /= n;
            }
            let new_lambda = {
                let av = deflated.matvec(&w);
                vector::dot(&w, &av)
            };
            let done = (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0);
            lambda = new_lambda;
            v = w;
            if done {
                break;
            }
        }
        values.push(lambda.max(0.0));
        vectors.row_mut(comp).copy_from_slice(&v);
        // Hotelling deflation: A <- A - lambda v v^T.
        for a in 0..d {
            for b in 0..d {
                deflated[(a, b)] -= lambda * v[a] * v[b];
            }
        }
    }
    (values, vectors)
}

/// Full eigendecomposition of a symmetric matrix by the cyclic Jacobi
/// method. Returns `(eigenvalues, eigenvectors)` with eigenvectors as rows,
/// sorted by decreasing eigenvalue. Intended for small matrices
/// (`d` up to a few hundred).
pub fn jacobi_eigen(sym: &RowMatrix, max_sweeps: usize, tol: f64) -> (Vec<f64>, RowMatrix) {
    let d = sym.rows();
    assert_eq!(sym.rows(), sym.cols(), "matrix must be square");
    let mut a = sym.clone();
    let mut v = RowMatrix::identity(d);

    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..d {
            for q in (p + 1)..d {
                off += a[(p, q)] * a[(p, q)];
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..d {
            for q in (p + 1)..d {
                let apq = a[(p, q)];
                if apq.abs() <= tol / (d as f64 * d as f64).max(1.0) {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p, q, theta) on both sides of A and
                // accumulate it into V.
                for i in 0..d {
                    let aip = a[(i, p)];
                    let aiq = a[(i, q)];
                    a[(i, p)] = c * aip - s * aiq;
                    a[(i, q)] = s * aip + c * aiq;
                }
                for j in 0..d {
                    let apj = a[(p, j)];
                    let aqj = a[(q, j)];
                    a[(p, j)] = c * apj - s * aqj;
                    a[(q, j)] = s * apj + c * aqj;
                }
                for j in 0..d {
                    let vpj = v[(p, j)];
                    let vqj = v[(q, j)];
                    v[(p, j)] = c * vpj - s * vqj;
                    v[(q, j)] = s * vpj + c * vqj;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&i, &j| a[(j, j)].partial_cmp(&a[(i, i)]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
    let mut vectors = RowMatrix::zeros(d, d);
    for (row, &i) in order.iter().enumerate() {
        vectors.row_mut(row).copy_from_slice(v.row(i));
    }
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(values: &[f64]) -> RowMatrix {
        let mut m = RowMatrix::zeros(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    #[test]
    fn power_iteration_on_diagonal() {
        let m = diag(&[5.0, 2.0, 1.0]);
        let (vals, vecs) = power_iteration_top_k(&m, 2, 500, 1e-14, 1);
        assert!((vals[0] - 5.0).abs() < 1e-9, "vals = {vals:?}");
        assert!((vals[1] - 2.0).abs() < 1e-9);
        assert!(vecs.row(0)[0].abs() > 0.999);
        assert!(vecs.row(1)[1].abs() > 0.999);
    }

    #[test]
    fn power_iteration_components_orthonormal() {
        // Symmetric random PSD: B^T B.
        let mut rng = Rng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> =
            (0..6).map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let b = RowMatrix::from_rows(&rows);
        let m = b.transpose().matmul(&b);
        let (vals, vecs) = power_iteration_top_k(&m, 4, 2000, 1e-14, 7);
        for i in 0..4 {
            assert!((vector::norm(vecs.row(i)) - 1.0).abs() < 1e-6);
            for j in (i + 1)..4 {
                assert!(vector::dot(vecs.row(i), vecs.row(j)).abs() < 1e-6);
            }
        }
        // Eigenvalues decreasing and non-negative.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(vals.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn jacobi_matches_power_iteration() {
        let mut rng = Rng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> =
            (0..8).map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let b = RowMatrix::from_rows(&rows);
        let m = b.transpose().matmul(&b);
        let (jv, _) = jacobi_eigen(&m, 100, 1e-12);
        let (pv, _) = power_iteration_top_k(&m, 3, 5000, 1e-14, 5);
        for i in 0..3 {
            assert!(
                (jv[i] - pv[i]).abs() < 1e-6 * jv[0].max(1.0),
                "eigenvalue {i}: jacobi {} vs power {}",
                jv[i],
                pv[i]
            );
        }
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let m = RowMatrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let (vals, vecs) = jacobi_eigen(&m, 100, 1e-14);
        // Reconstruct sum_i lambda_i v_i v_i^T.
        let mut rec = RowMatrix::zeros(3, 3);
        for (i, &val) in vals.iter().enumerate() {
            let v = vecs.row(i);
            for a in 0..3 {
                for b in 0..3 {
                    rec[(a, b)] += val * v[a] * v[b];
                }
            }
        }
        assert!(m.max_abs_diff(&rec) < 1e-9);
    }

    #[test]
    fn pca_recovers_dominant_direction() {
        // Points spread along (1, 1)/sqrt(2) with small noise orthogonal.
        let mut rng = Rng::seed_from_u64(9);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let t: f64 = rng.gen_range(-5.0..5.0);
                let noise: f64 = rng.gen_range(-0.05..0.05);
                vec![t + noise, t - noise]
            })
            .collect();
        let data = RowMatrix::from_rows(&rows);
        let pca = Pca::fit(&data, 2, 0);
        let c0 = pca.components.row(0);
        let along = (c0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs();
        assert!(along < 0.01, "component {c0:?} not along diagonal");
        assert!(pca.explained_variance[0] > 100.0 * pca.explained_variance[1]);
    }

    #[test]
    fn pca_transform_centers_data() {
        let data = RowMatrix::from_rows(&[
            vec![10.0, 0.0],
            vec![12.0, 0.0],
            vec![14.0, 0.0],
        ]);
        let (_, proj) = Pca::fit_transform(&data, 1, 0);
        // Projection of the middle point is 0; endpoints symmetric.
        assert!(proj[(1, 0)].abs() < 1e-9);
        assert!((proj[(0, 0)] + proj[(2, 0)]).abs() < 1e-9);
        assert!((proj[(0, 0)].abs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pca_explained_variance_ratio() {
        let data = RowMatrix::from_rows(&[
            vec![-1.0, 0.0],
            vec![1.0, 0.0],
        ]);
        let pca = Pca::fit(&data, 1, 0);
        let ratios = pca.explained_variance_ratio(pca.explained_variance[0]);
        assert!((ratios[0] - 1.0).abs() < 1e-12);
        assert_eq!(pca.explained_variance_ratio(0.0), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pca_k_zero_panics() {
        let data = RowMatrix::zeros(3, 2);
        Pca::fit(&data, 0, 0);
    }

    #[test]
    fn rank_deficient_matrix_gives_zero_tail() {
        let m = diag(&[4.0, 0.0, 0.0]);
        let (vals, _) = power_iteration_top_k(&m, 3, 200, 1e-12, 2);
        assert!((vals[0] - 4.0).abs() < 1e-9);
        assert!(vals[1].abs() < 1e-9);
        assert!(vals[2].abs() < 1e-9);
    }
}
