//! PCA projection helpers: embedding → 2-D/3-D point cloud (Figs 4 & 8).

use v2v_linalg::{Pca, RowMatrix};

/// A projected point cloud with the PCA model that produced it.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Projected coordinates, `n x k` (k = 2 or 3 for plots).
    pub points: RowMatrix,
    /// The fitted PCA (reusable on held-out vectors).
    pub pca: Pca,
}

impl Projection {
    /// Convenience accessor: point `i` as an `[x, y]` pair (first two
    /// components).
    pub fn xy(&self, i: usize) -> [f64; 2] {
        let r = self.points.row(i);
        [r[0], r[1]]
    }

    /// Point `i` as `[x, y, z]`; requires at least 3 components.
    pub fn xyz(&self, i: usize) -> [f64; 3] {
        let r = self.points.row(i);
        [r[0], r[1], r[2]]
    }
}

/// Projects row vectors onto their top `k` principal components — the
/// paper's visualization pipeline (§IV): fit PCA on the embedding matrix,
/// plot the first two (or three) components.
pub fn project_embedding(data: &RowMatrix, k: usize, seed: u64) -> Projection {
    let (pca, points) = Pca::fit_transform(data, k, seed);
    Projection { points, pca }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_shape() {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> =
            (0..40).map(|_| (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let data = RowMatrix::from_rows(&rows);
        let proj = project_embedding(&data, 3, 0);
        assert_eq!(proj.points.rows(), 40);
        assert_eq!(proj.points.cols(), 3);
        let p = proj.xyz(0);
        assert!(p.iter().all(|x| x.is_finite()));
        let q = proj.xy(1);
        assert_eq!(q, [proj.points[(1, 0)], proj.points[(1, 1)]]);
    }

    #[test]
    fn separated_clusters_stay_separated_in_2d() {
        // Two blobs far apart in 8-D must separate along PC1.
        let mut rng = v2v_base::rng::Rng::seed_from_u64(2);
        let mut rows = Vec::new();
        for c in 0..2 {
            for _ in 0..20 {
                let mut r: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.2..0.2)).collect();
                r[3] += c as f64 * 10.0;
                rows.push(r);
            }
        }
        let proj = project_embedding(&RowMatrix::from_rows(&rows), 2, 0);
        let mean_a: f64 = (0..20).map(|i| proj.xy(i)[0]).sum::<f64>() / 20.0;
        let mean_b: f64 = (20..40).map(|i| proj.xy(i)[0]).sum::<f64>() / 20.0;
        assert!((mean_a - mean_b).abs() > 5.0, "blobs overlap on PC1");
    }
}
