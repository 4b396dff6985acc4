//! Property tests for the HNSW index: recall against the exact scan on
//! random clustered data, and exact equality when the beam is exhaustive.

use proptest::prelude::*;
use v2v_base::rng::Rng;
use v2v_serve::{HnswConfig, HnswIndex, Metric};

/// `n` vectors jittered around `clusters` random centers.
fn clustered(n: usize, dims: usize, clusters: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut out = Vec::with_capacity(n * dims);
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dims {
            out.push(centers[c * dims + d] + rng.gen_range(-0.2f32..0.2));
        }
    }
    out
}

fn config(metric: Metric) -> HnswConfig {
    HnswConfig {
        // Force the graph path even at proptest-sized n.
        brute_force_threshold: 0,
        ef_construction: 100,
        ..HnswConfig { metric, ..Default::default() }
    }
}

proptest! {
    /// recall@10 of the graph search vs. the exact scan stays >= 0.9 on
    /// random clustered vectors, for both metrics.
    #[test]
    fn recall_at_10_is_at_least_0_9(seed in any::<u64>(),
                                    n in 150usize..400,
                                    dims in 4usize..24,
                                    clusters in 3usize..12,
                                    euclidean in any::<bool>()) {
        let metric = if euclidean { Metric::Euclidean } else { Metric::Cosine };
        let data = clustered(n, dims, clusters, seed);
        let index = HnswIndex::build(dims, data.clone(), config(metric));
        prop_assert!(index.is_graph());

        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in (0..n).step_by(n / 16 + 1) {
            let q = &data[qi * dims..(qi + 1) * dims];
            let exact: std::collections::HashSet<usize> =
                index.search_exact(q, 10).into_iter().map(|(i, _)| i).collect();
            let approx = index.search(q, 10);
            prop_assert!(approx.len() <= 10);
            hits += approx.iter().filter(|(i, _)| exact.contains(i)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total as f64;
        prop_assert!(recall >= 0.9,
                     "recall@10 = {recall:.3} (n = {n}, dims = {dims}, {metric:?})");
    }

    /// With `ef_search = n` the beam visits everything reachable, and the
    /// result must equal the exact scan, id-for-id, in order.
    #[test]
    fn exhaustive_beam_equals_exact(seed in any::<u64>(),
                                    n in 100usize..250,
                                    dims in 2usize..10) {
        let data = clustered(n, dims, 5, seed);
        let index = HnswIndex::build(dims, data.clone(), config(Metric::Euclidean));
        for qi in [0, n / 2, n - 1] {
            let q = &data[qi * dims..(qi + 1) * dims];
            let exact: Vec<usize> =
                index.search_exact(q, 10).into_iter().map(|(i, _)| i).collect();
            let full_beam: Vec<usize> =
                index.search_ef(q, 10, n).into_iter().map(|(i, _)| i).collect();
            prop_assert_eq!(&exact, &full_beam, "query {}", qi);
        }
    }

    /// Distances reported by the graph search are the true metric values
    /// (not approximations), monotonically non-decreasing.
    #[test]
    fn reported_distances_are_true_and_sorted(seed in any::<u64>(),
                                              n in 150usize..300) {
        let dims = 8;
        let data = clustered(n, dims, 6, seed);
        let index = HnswIndex::build(dims, data.clone(), config(Metric::Euclidean));
        let q = &data[..dims];
        let found = index.search(q, 10);
        for w in found.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        for &(id, d) in &found {
            let v = &data[id * dims..(id + 1) * dims];
            let true_d: f32 = q.iter().zip(v).map(|(x, y)| (x - y) * (x - y)).sum();
            prop_assert!((d - true_d).abs() <= 1e-4 * (1.0 + true_d.abs()));
        }
    }
}
