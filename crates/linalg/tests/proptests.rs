//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use v2v_linalg::pca::{jacobi_eigen, power_iteration_top_k};
use v2v_linalg::stats::covariance;
use v2v_linalg::vector::{cosine_similarity, dot, euclidean, norm};
use v2v_linalg::RowMatrix;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, len..=len)
}

proptest! {
    /// Cauchy–Schwarz and the triangle inequality hold.
    #[test]
    fn vector_inequalities(a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)) {
        prop_assert!(dot(&a, &b).abs() <= norm(&a) * norm(&b) + 1e-9);
        prop_assert!(euclidean(&a, &c) <= euclidean(&a, &b) + euclidean(&b, &c) + 1e-9);
        prop_assert!((-1.0..=1.0).contains(&cosine_similarity(&a, &b)));
    }

    /// Cosine similarity is scale-invariant for positive scales.
    #[test]
    fn cosine_scale_invariance(a in vec_strategy(5), b in vec_strategy(5), s in 0.01f64..100.0) {
        let scaled: Vec<f64> = b.iter().map(|x| x * s).collect();
        let c1 = cosine_similarity(&a, &b);
        let c2 = cosine_similarity(&a, &scaled);
        prop_assert!((c1 - c2).abs() < 1e-9, "{c1} vs {c2}");
    }

    /// Matrix multiplication distributes over addition (A(B + C) = AB + AC).
    #[test]
    fn matmul_distributes(seed in any::<u64>()) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let mut mk = |r: usize, c: usize| {
            RowMatrix::from_flat(r, c, (0..r * c).map(|_| rng.gen_range(-2.0..2.0)).collect())
        };
        let a = mk(4, 5);
        let b = mk(5, 3);
        let c = mk(5, 3);
        let sum = RowMatrix::from_flat(
            5,
            3,
            b.as_flat().iter().zip(c.as_flat()).map(|(x, y)| x + y).collect(),
        );
        let left = a.matmul(&sum);
        let right = {
            let ab = a.matmul(&b);
            let ac = a.matmul(&c);
            RowMatrix::from_flat(
                4,
                3,
                ab.as_flat().iter().zip(ac.as_flat()).map(|(x, y)| x + y).collect(),
            )
        };
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    /// Covariance is symmetric PSD: x^T C x >= 0 for random x.
    #[test]
    fn covariance_is_psd(seed in any::<u64>()) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..12).map(|_| (0..4).map(|_| rng.gen_range(-3.0..3.0)).collect()).collect();
        let cov = covariance(&RowMatrix::from_rows(&rows));
        prop_assert!(cov.max_abs_diff(&cov.transpose()) < 1e-12);
        for _ in 0..5 {
            let x: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let cx = cov.matvec(&x);
            prop_assert!(dot(&x, &cx) >= -1e-9, "not PSD");
        }
    }

    /// Power iteration and Jacobi agree on the top eigenvalue of random
    /// symmetric PSD matrices, and eigenvalues are non-negative.
    #[test]
    fn eigensolvers_agree(seed in any::<u64>()) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let d = 5;
        let b = RowMatrix::from_flat(
            d, d, (0..d * d).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let m = b.transpose().matmul(&b); // PSD
        let (pv, pvecs) = power_iteration_top_k(&m, 1, 3000, 1e-14, seed);
        let (jv, _) = jacobi_eigen(&m, 100, 1e-13);
        prop_assert!(pv[0] >= -1e-9);
        prop_assert!((pv[0] - jv[0]).abs() < 1e-6 * jv[0].max(1.0),
            "power {} vs jacobi {}", pv[0], jv[0]);
        // Rayleigh quotient of the returned vector equals the eigenvalue.
        let v = pvecs.row(0);
        let mv = m.matvec(v);
        let rq = dot(v, &mv) / dot(v, v).max(1e-300);
        prop_assert!((rq - pv[0]).abs() < 1e-6 * pv[0].max(1.0));
    }
}
