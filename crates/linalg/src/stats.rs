//! Column statistics: means, centering, covariance.
//!
//! PCA (V2V §IV) operates on the covariance of the embedding matrix; these
//! helpers produce it. Covariance uses the population convention (`1/n`)
//! which matches what PCA needs (only eigenvector directions matter).

use crate::matrix::RowMatrix;
use v2v_base::par;

/// Per-column means of `m`. Empty matrix yields an empty vector.
pub fn column_means(m: &RowMatrix) -> Vec<f64> {
    if m.rows() == 0 {
        return vec![0.0; m.cols()];
    }
    let mut means = vec![0.0; m.cols()];
    for r in m.iter_rows() {
        for (mu, x) in means.iter_mut().zip(r) {
            *mu += x;
        }
    }
    let inv = 1.0 / m.rows() as f64;
    for mu in &mut means {
        *mu *= inv;
    }
    means
}

/// Returns a copy of `m` with each column mean-centered, plus the means.
pub fn center(m: &RowMatrix) -> (RowMatrix, Vec<f64>) {
    let means = column_means(m);
    let mut c = m.clone();
    for i in 0..c.rows() {
        let row = c.row_mut(i);
        for (x, mu) in row.iter_mut().zip(&means) {
            *x -= mu;
        }
    }
    (c, means)
}

/// Population covariance matrix (`d x d`) of the rows of `m`.
///
/// Computed as `X_c^T X_c / n` on the centered matrix, which is the
/// dominant cost for the paper's 1000-vertex x 600-dim settings. Bands of
/// output rows are computed in parallel (`v2v_base::par`): each cell sums
/// over the samples in row order on one thread, so nothing is reduced
/// across threads and the bits do not depend on how many there are.
pub fn covariance(m: &RowMatrix) -> RowMatrix {
    covariance_on(par::threads(), m)
}

/// [`covariance`] on a given number of threads; the matrix is the same for
/// every count.
fn covariance_on(threads: usize, m: &RowMatrix) -> RowMatrix {
    let d = m.cols();
    let n = m.rows();
    if n == 0 {
        return RowMatrix::zeros(d, d);
    }
    let (centered, _) = center(m);
    // One job per band of output rows, upper triangle only. A band reads
    // every sample once, so wider bands mean fewer passes over the matrix;
    // `MIN_ITEMS` bands is what it takes for `par::map` to use its threads.
    let band = (d / par::MIN_ITEMS).max(1);
    let bands: Vec<Vec<f64>> = par::map_on(threads, d.div_ceil(band), |t| {
        let rows = t * band..((t + 1) * band).min(d);
        let mut acc = vec![0.0f64; rows.len() * d];
        for r in centered.iter_rows() {
            for (a, acc_row) in rows.clone().zip(acc.chunks_exact_mut(d)) {
                let ra = r[a];
                if ra == 0.0 {
                    continue;
                }
                for (x, rb) in acc_row[a..].iter_mut().zip(&r[a..]) {
                    *x += ra * rb;
                }
            }
        }
        acc
    });
    let mut cov = RowMatrix::from_flat(d, d, bands.concat());
    let inv_n = 1.0 / n as f64;
    for a in 0..d {
        for b in a..d {
            let v = cov[(a, b)] * inv_n;
            cov[(a, b)] = v;
            cov[(b, a)] = v;
        }
    }
    cov
}

/// Sample variance (`1/(n-1)`) of a 1-D slice; `0` for fewer than 2 samples.
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_centering() {
        let m = RowMatrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0]]);
        assert_eq!(column_means(&m), vec![2.0, 20.0]);
        let (c, means) = center(&m);
        assert_eq!(means, vec![2.0, 20.0]);
        assert_eq!(c.row(0), &[-1.0, -10.0]);
        assert_eq!(column_means(&c), vec![0.0, 0.0]);
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        // y = 2x => cov = [[var(x), 2 var(x)], [2 var(x), 4 var(x)]].
        let m = RowMatrix::from_rows(&[
            vec![1.0, 2.0],
            vec![2.0, 4.0],
            vec![3.0, 6.0],
            vec![4.0, 8.0],
        ]);
        let cov = covariance(&m);
        let var_x = cov[(0, 0)];
        assert!(var_x > 0.0);
        assert!((cov[(0, 1)] - 2.0 * var_x).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0 * var_x).abs() < 1e-12);
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn covariance_of_independent_columns_is_diagonalish() {
        let m = RowMatrix::from_rows(&[
            vec![1.0, 1.0],
            vec![-1.0, 1.0],
            vec![1.0, -1.0],
            vec![-1.0, -1.0],
        ]);
        let cov = covariance(&m);
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 1.0).abs() < 1e-12);
        assert!(cov[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn covariance_empty_matrix() {
        let m = RowMatrix::zeros(0, 3);
        let cov = covariance(&m);
        assert_eq!(cov.rows(), 3);
        assert_eq!(cov.frobenius_norm(), 0.0);
    }

    #[test]
    fn covariance_bits_do_not_depend_on_the_thread_count() {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(7);
        // 16 columns run inline; 64 go through the worker threads.
        for d in [16, 64] {
            let n = 1000;
            let m =
                RowMatrix::from_flat(n, d, (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let bits = |threads| -> Vec<u64> {
                covariance_on(threads, &m).as_flat().iter().map(|x| x.to_bits()).collect()
            };
            let one = bits(1);
            for threads in [2, 5] {
                assert_eq!(bits(threads), one, "{d} columns, {threads} threads");
            }
        }
    }

    #[test]
    fn variance_basics() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_is_symmetric_random() {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> =
            (0..20).map(|_| (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let cov = covariance(&RowMatrix::from_rows(&rows));
        assert_eq!(cov.max_abs_diff(&cov.transpose()), 0.0);
        // Diagonal (variances) non-negative.
        for i in 0..5 {
            assert!(cov[(i, i)] >= 0.0);
        }
    }
}
