//! Training-throughput benchmark: the perf-trajectory anchor for the
//! embedding pipeline.
//!
//! Generates a quasi-clique community graph (the paper's synthetic
//! workload), builds a walk corpus, trains CBOW for a fixed number of
//! epochs single-threaded (deterministic, stable timing), and reports
//! wall time plus pairs/sec and tokens/sec. A thread-scaling sweep
//! (`--sweep 1,2,4,8` by default; `--sweep ""` to skip) then re-trains at
//! each thread count and records per-count throughput, scaling
//! efficiency `pairs_per_sec(t) / (t * pairs_per_sec(1))`, and the
//! trainer's concurrency attribution (throughput skew across workers and
//! barrier-wait fraction). Writes a machine-readable `BENCH_embed.json`
//! at the repo root (`--out-json` to relocate) so successive PRs record a
//! comparable trajectory; the schema is documented in EXPERIMENTS.md. The git revision is stamped from the
//! `GIT_REV` environment variable, and the active SIMD kernel backend
//! (`v2v_linalg::kernels`) is recorded so numbers are attributable to the
//! code path that produced them.

use std::fmt::Write as _;
use std::time::Instant;
use v2v_bench::Args;
use v2v_data::quasi_clique::{quasi_clique_graph, QuasiCliqueConfig};
use v2v_embed::{EmbedConfig, TrainStats};
use v2v_walks::{WalkConfig, WalkCorpus};

/// One timed training run; returns wall seconds and the trainer's stats.
fn run_train(corpus: &WalkCorpus, dim: usize, epochs: usize, threads: usize) -> (f64, TrainStats) {
    let config = EmbedConfig { dimensions: dim, epochs, threads, ..Default::default() };
    let t = Instant::now();
    let (embedding, stats) = v2v_embed::train(corpus, &config).expect("train");
    let secs = t.elapsed().as_secs_f64();
    assert!(embedding.as_flat().iter().all(|x| x.is_finite()));
    (secs, stats)
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 2000);
    let dim: usize = args.get("dim", 32);
    let epochs: usize = args.get("epochs", 5);
    let threads: usize = args.get("threads", 1);
    let sweep_arg: String = args.get("sweep", "1,2,4,8".to_string());
    let out_json: String = args.get("out-json", "BENCH_embed.json".to_string());
    let git_rev = std::env::var("GIT_REV").unwrap_or_else(|_| "unknown".into());
    let backend = v2v_linalg::kernels::backend_name();

    let data = quasi_clique_graph(&QuasiCliqueConfig {
        n,
        groups: 10,
        alpha: 0.8,
        inter_edges: n / 10,
        seed: 3,
    });
    let walk_config = WalkConfig {
        walks_per_vertex: 10,
        walk_length: 80,
        seed: 0x5EED,
        ..Default::default()
    };
    let t0 = Instant::now();
    let corpus = WalkCorpus::generate(&data.graph, &walk_config).expect("corpus");
    let walk_secs = t0.elapsed().as_secs_f64();

    let (train_secs, stats) = run_train(&corpus, dim, epochs, threads);

    let pairs_per_sec = stats.total_pairs as f64 / train_secs;
    let tokens_per_sec =
        (corpus.num_tokens() as u64 * stats.epochs_run as u64) as f64 / train_secs;
    println!(
        "bench_embed: {n} vertices / {} edges, {dim} dims, {epochs} epochs, {threads} thread(s), {backend} kernels",
        data.graph.num_edges()
    );
    println!(
        "walks {walk_secs:.2}s | train {train_secs:.2}s | {:.0} pairs/s | {:.0} tokens/s | final loss {:.5}",
        pairs_per_sec,
        tokens_per_sec,
        stats.epoch_losses.last().copied().unwrap_or(0.0)
    );

    // Thread-scaling sweep: throughput, efficiency, and the concurrency
    // attribution (skew, barrier wait) per thread count — the
    // report says not just *that* scaling is broken but *where* the time went.
    let sweep_counts: Vec<usize> = sweep_arg
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    let mut sweep: Vec<(usize, f64, v2v_obs::ConcurrencyReport)> = Vec::new();
    for &t in &sweep_counts {
        let (secs, s) = run_train(&corpus, dim, epochs, t);
        let pps = s.total_pairs as f64 / secs;
        let rep = &s.concurrency;
        println!(
            "sweep: {t} thread(s) -> {pps:.0} pairs/s | skew {:.2} | barrier {:.1}%",
            rep.throughput_skew,
            rep.barrier_wait_frac * 100.0
        );
        sweep.push((t, pps, s.concurrency));
    }
    let base_pps = sweep
        .iter()
        .find(|entry| entry.0 == 1)
        .map(|entry| entry.1)
        .unwrap_or(pairs_per_sec);

    // Machine-readable trajectory record; schema in EXPERIMENTS.md.
    let mut doc = String::from("{\n  \"bench\": \"embed\",\n");
    let _ = write!(doc, "  \"git_rev\": ");
    v2v_obs::json::write_escaped(&mut doc, &git_rev);
    doc.push_str(",\n  \"kernel_backend\": ");
    v2v_obs::json::write_escaped(&mut doc, backend);
    let _ = write!(
        doc,
        ",\n  \"n\": {n},\n  \"edges\": {},\n  \"dim\": {dim},\n  \"epochs\": {},\n  \"threads\": {threads},\n",
        data.graph.num_edges(),
        stats.epochs_run,
    );
    let _ = write!(doc, "  \"total_pairs\": {},\n  \"walk_secs\": ", stats.total_pairs);
    v2v_obs::json::write_f64(&mut doc, walk_secs);
    doc.push_str(",\n  \"train_secs\": ");
    v2v_obs::json::write_f64(&mut doc, train_secs);
    doc.push_str(",\n  \"pairs_per_sec\": ");
    v2v_obs::json::write_f64(&mut doc, pairs_per_sec);
    doc.push_str(",\n  \"tokens_per_sec\": ");
    v2v_obs::json::write_f64(&mut doc, tokens_per_sec);
    doc.push_str(",\n  \"final_loss\": ");
    v2v_obs::json::write_f64(&mut doc, stats.epoch_losses.last().copied().unwrap_or(0.0));
    doc.push_str(",\n  \"thread_sweep\": [");
    for (i, (t, pps, rep)) in sweep.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(doc, "\n    {{\"threads\": {t}, \"pairs_per_sec\": ");
        v2v_obs::json::write_f64(&mut doc, *pps);
        doc.push_str(", \"efficiency\": ");
        v2v_obs::json::write_f64(&mut doc, pps / (*t as f64 * base_pps));
        doc.push_str(", \"throughput_skew\": ");
        v2v_obs::json::write_f64(&mut doc, rep.throughput_skew);
        doc.push_str(", \"barrier_wait_frac\": ");
        v2v_obs::json::write_f64(&mut doc, rep.barrier_wait_frac);
        doc.push('}');
    }
    if !sweep.is_empty() {
        doc.push_str("\n  ");
    }
    doc.push_str("]\n}\n");
    std::fs::write(&out_json, doc).expect("write BENCH_embed.json");
    println!("wrote {out_json}");
}
