//! Serving experiment: ANN quality/speed trade-off on embedding-scale
//! data.
//!
//! Builds an HNSW index over `n` clustered vectors (defaults: n = 10000,
//! d = 128 — the shape of a real V2V embedding of a mid-size graph),
//! sweeps `ef_search`, and reports recall@10 and query throughput against
//! the exact brute-force scan. This is the acceptance experiment for the
//! serving layer: the graph search must beat the scan on latency while
//! holding recall@10 >= 0.9.
//!
//! ```text
//! cargo run --release -p v2v-bench --bin ann_recall [--n 10000] [--dims 128]
//!     [--queries 200] [--clusters 64] [--euclidean]
//! ```

use std::time::Instant;
use v2v_base::rng::Rng;
use v2v_bench::{print_table, Args};
use v2v_serve::{HnswConfig, HnswIndex, Metric};

/// `n` vectors jittered around `clusters` random centers — the planted
/// structure V2V embeddings exhibit (one blob per community).
fn clustered(n: usize, dims: usize, clusters: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut out = Vec::with_capacity(n * dims);
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dims {
            out.push(centers[c * dims + d] + rng.gen_range(-0.25f32..0.25));
        }
    }
    out
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 10_000);
    let dims: usize = args.get("dims", 128);
    let queries: usize = args.get("queries", 200);
    let clusters: usize = args.get("clusters", 64);
    let metric = if args.flag("euclidean") { Metric::Euclidean } else { Metric::Cosine };
    let k = 10;

    println!(
        "ANN recall/QPS: n = {n}, dims = {dims}, {} metric, {queries} queries, k = {k}\n",
        metric.name()
    );
    let data = clustered(n, dims, clusters, 42);
    let query_ids: Vec<usize> = (0..queries).map(|q| (q * 7919) % n).collect();

    let t0 = Instant::now();
    let index = HnswIndex::build(
        dims,
        data.clone(),
        HnswConfig { metric, brute_force_threshold: 0, ..Default::default() },
    );
    let build_s = t0.elapsed().as_secs_f64();
    println!("index build: {build_s:.2}s ({:.0} vectors/s)\n", n as f64 / build_s);

    // Brute-force baseline: ground truth and the latency bar to beat.
    let t0 = Instant::now();
    let exact: Vec<Vec<usize>> = query_ids
        .iter()
        .map(|&qi| {
            index
                .search_exact(&data[qi * dims..(qi + 1) * dims], k)
                .into_iter()
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let exact_s = t0.elapsed().as_secs_f64();
    let exact_qps = queries as f64 / exact_s;
    let exact_us = 1e6 * exact_s / queries as f64;

    let mut rows = vec![vec![
        "exact".to_string(),
        format!("{exact_us:.0}"),
        format!("{exact_qps:.0}"),
        "1.000".to_string(),
        "1.0x".to_string(),
    ]];
    for ef in [8usize, 16, 32, 64, 128] {
        let t0 = Instant::now();
        let mut hits = 0usize;
        for (&qi, truth) in query_ids.iter().zip(&exact) {
            let found = index.search_ef(&data[qi * dims..(qi + 1) * dims], k, ef);
            hits += found.iter().filter(|(i, _)| truth.contains(i)).count();
        }
        let ann_s = t0.elapsed().as_secs_f64();
        let recall = hits as f64 / (queries * k) as f64;
        rows.push(vec![
            format!("hnsw ef={ef}"),
            format!("{:.0}", 1e6 * ann_s / queries as f64),
            format!("{:.0}", queries as f64 / ann_s),
            format!("{recall:.3}"),
            format!("{:.1}x", exact_s / ann_s),
        ]);
    }
    print_table(&["search", "us/query", "QPS", "recall@10", "speedup"], &rows);
}
