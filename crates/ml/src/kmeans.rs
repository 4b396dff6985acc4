//! Lloyd's k-means with k-means++ seeding and multi-restart.
//!
//! V2V's community detection (§III) clusters the vertex embeddings with
//! k-means, restarting Lloyd's algorithm 100 times and keeping the
//! partition with the smallest within-cluster sum of squares. Assignment is
//! the hot step and is parallelized over points (`v2v_base::par`); the
//! objective is then summed in point order, so it has the same bits on
//! every host.

use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_linalg::RowMatrix;
use v2v_linalg::vector::euclidean_sq;

/// How initial centroids are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KMeansInit {
    /// k distinct data points chosen uniformly.
    Random,
    /// k-means++ (Arthur & Vassilvitskii), the paper's cited seeding [16].
    PlusPlus,
}

/// k-means configuration.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations per restart.
    pub max_iters: usize,
    /// Independent restarts; the best objective wins (paper: 100).
    pub restarts: usize,
    /// Stop a restart early when the objective improves by less than this
    /// relative amount between iterations.
    pub tol: f64,
    /// Seeding method.
    pub init: KMeansInit,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 100,
            restarts: 10,
            tol: 1e-6,
            init: KMeansInit::PlusPlus,
            seed: 0xC1A55,
        }
    }
}

impl KMeansConfig {
    /// The paper's §III setting: 100 restarts of Lloyd's algorithm.
    pub fn paper_setting(k: usize) -> Self {
        KMeansConfig { k, restarts: 100, ..Default::default() }
    }
}

/// The best clustering found.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster index per point, in `0..k`.
    pub assignments: Vec<usize>,
    /// Final centroids, `k x d`.
    pub centroids: RowMatrix,
    /// Within-cluster sum of squared distances (the k-means objective).
    pub inertia: f64,
    /// Lloyd iterations used by the winning restart.
    pub iterations: usize,
}

/// Runs multi-restart k-means on `data` (one point per row).
///
/// # Panics
/// Panics if `k` is zero or exceeds the number of points.
pub fn kmeans(data: &RowMatrix, config: &KMeansConfig) -> KMeansResult {
    kmeans_on(par::threads(), data, config)
}

/// [`kmeans`] on a given number of threads; the result is the same for
/// every count.
fn kmeans_on(threads: usize, data: &RowMatrix, config: &KMeansConfig) -> KMeansResult {
    let n = data.rows();
    assert!(config.k >= 1, "k must be positive");
    assert!(config.k <= n, "k = {} exceeds {} points", config.k, n);
    assert!(config.restarts >= 1, "need at least one restart");
    assert!(config.max_iters >= 1, "need at least one iteration");

    let mut best: Option<KMeansResult> = None;
    for r in 0..config.restarts {
        let mut rng = Rng::seed_from_u64(config.seed.wrapping_add(r as u64 * 0x9E37));
        let result = lloyd_once(threads, data, config, &mut rng);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

fn lloyd_once(
    threads: usize,
    data: &RowMatrix,
    config: &KMeansConfig,
    rng: &mut Rng,
) -> KMeansResult {
    let n = data.rows();
    let d = data.cols();
    let k = config.k;

    let mut centroids = match config.init {
        KMeansInit::Random => init_random(data, k, rng),
        KMeansInit::PlusPlus => init_plus_plus(data, k, rng),
    };

    let mut assignments = vec![0usize; n];
    let mut prev_inertia = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step (parallel over points).
        let nearest = par::map_on(threads, n, |i| {
            let p = data.row(i);
            let mut best_c = 0usize;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dist = euclidean_sq(p, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best_c = c;
                }
            }
            (best_c, best_d)
        });
        let mut inertia = 0.0;
        for (a, (c, dist)) in assignments.iter_mut().zip(nearest) {
            *a = c;
            inertia += dist;
        }

        // Update step.
        let mut sums = RowMatrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            let row = sums.row_mut(a);
            for (s, x) in row.iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Empty cluster: restart it at the point farthest from its
                // current centroid assignment (standard fix).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = euclidean_sq(data.row(a), centroids.row(assignments[a]));
                        let db = euclidean_sq(data.row(b), centroids.row(assignments[b]));
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap_or_else(|| rng.gen_range(0..n));
                centroids.row_mut(c).copy_from_slice(data.row(far));
                continue;
            }
            let inv = 1.0 / count as f64;
            let row = sums.row(c).to_vec();
            for (cc, s) in centroids.row_mut(c).iter_mut().zip(row) {
                *cc = s * inv;
            }
        }

        // Convergence check on the objective.
        if prev_inertia.is_finite() {
            let rel = (prev_inertia - inertia) / prev_inertia.max(f64::MIN_POSITIVE);
            if rel.abs() < config.tol {
                prev_inertia = inertia;
                break;
            }
        }
        prev_inertia = inertia;
    }

    KMeansResult { assignments, centroids, inertia: prev_inertia, iterations }
}

fn init_random(data: &RowMatrix, k: usize, rng: &mut Rng) -> RowMatrix {
    let n = data.rows();
    let mut picked = std::collections::HashSet::new();
    let mut centroids = RowMatrix::zeros(k, data.cols());
    let mut c = 0;
    while c < k {
        let i = rng.gen_range(0..n);
        if picked.insert(i) {
            centroids.row_mut(c).copy_from_slice(data.row(i));
            c += 1;
        }
    }
    centroids
}

fn init_plus_plus(data: &RowMatrix, k: usize, rng: &mut Rng) -> RowMatrix {
    let n = data.rows();
    let mut centroids = RowMatrix::zeros(k, data.cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    // dist2[i] = squared distance to nearest chosen centroid.
    let mut dist2: Vec<f64> =
        (0..n).map(|i| euclidean_sq(data.row(i), centroids.row(0))).collect();

    for c in 1..k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_f64() * total;
            let mut pick = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(next));
        for (i, slot) in dist2.iter_mut().enumerate() {
            let d = euclidean_sq(data.row(i), centroids.row(c));
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs(seed: u64) -> (RowMatrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![cx + rng.gen_range(-0.5..0.5), cy + rng.gen_range(-0.5..0.5)]);
                labels.push(ci);
            }
        }
        (RowMatrix::from_rows(&rows), labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs(1);
        let cfg = KMeansConfig { k: 3, restarts: 5, ..Default::default() };
        let res = kmeans(&data, &cfg);
        let scores = crate::metrics::pairwise_scores(&truth, &res.assignments);
        assert_eq!(scores.precision, 1.0, "assignments: {:?}", res.assignments);
        assert_eq!(scores.recall, 1.0);
        assert!(res.inertia < 100.0);
        assert!(res.iterations >= 1);
    }

    #[test]
    fn random_init_also_works_with_restarts() {
        let (data, truth) = blobs(2);
        let cfg = KMeansConfig { k: 3, restarts: 10, init: KMeansInit::Random, ..Default::default() };
        let res = kmeans(&data, &cfg);
        let scores = crate::metrics::pairwise_scores(&truth, &res.assignments);
        assert!(scores.f1 > 0.99);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = blobs(3);
        let cfg1 = KMeansConfig { k: 1, ..Default::default() };
        let cfg3 = KMeansConfig { k: 3, ..Default::default() };
        let i1 = kmeans(&data, &cfg1).inertia;
        let i3 = kmeans(&data, &cfg3).inertia;
        assert!(i3 < i1 / 10.0, "k=1: {i1}, k=3: {i3}");
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = RowMatrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]);
        let cfg = KMeansConfig { k: 3, restarts: 3, ..Default::default() };
        let res = kmeans(&data, &cfg);
        assert!(res.inertia < 1e-12);
        let set: std::collections::HashSet<_> = res.assignments.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed_on_any_thread_count() {
        let (data, _) = blobs(4);
        let cfg = KMeansConfig { k: 3, ..Default::default() };
        let a = kmeans(&data, &cfg);
        for threads in [1, 2, 5] {
            let b = kmeans_on(threads, &data, &cfg);
            assert_eq!(a.assignments, b.assignments, "{threads} threads");
            assert_eq!(a.inertia.to_bits(), b.inertia.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn assignments_in_range_and_complete() {
        let (data, _) = blobs(5);
        let cfg = KMeansConfig { k: 4, ..Default::default() };
        let res = kmeans(&data, &cfg);
        assert_eq!(res.assignments.len(), data.rows());
        assert!(res.assignments.iter().all(|&a| a < 4));
        assert_eq!(res.centroids.rows(), 4);
    }

    #[test]
    fn duplicate_points_handled() {
        // All points identical: k-means++ total distance is 0.
        let data = RowMatrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let cfg = KMeansConfig { k: 3, ..Default::default() };
        let res = kmeans(&data, &cfg);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn k_larger_than_n_panics() {
        let data = RowMatrix::from_rows(&[vec![0.0]]);
        kmeans(&data, &KMeansConfig { k: 2, ..Default::default() });
    }

    #[test]
    fn paper_setting_uses_100_restarts() {
        let cfg = KMeansConfig::paper_setting(10);
        assert_eq!(cfg.restarts, 100);
        assert_eq!(cfg.k, 10);
    }
}
