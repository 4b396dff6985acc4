//! Million-vertex synthetic corpus generator for the out-of-core
//! serving walkthrough (README "Million-vertex walkthrough",
//! EXPERIMENTS.md cold-start tables).
//!
//! Emits a quasi-clique community graph as a plain edge list, streamed
//! straight to a `BufWriter` — no adjacency structure is ever held in
//! memory, so generating 10^6 vertices costs a few MB of RSS and a few
//! seconds of wall clock. The layout mirrors the paper's §V synthetic
//! protocol scaled up: vertices are partitioned into fixed-size
//! communities, each vertex draws `intra` edges inside its community
//! plus a sparse trickle of inter-community edges so the graph is
//! connected and the walk corpus crosses community boundaries.
//!
//! ```text
//! gen_million --out edges_1m.txt [--n 1000000] [--community 100]
//!             [--intra 8] [--inter-per-1k 20] [--seed 42]
//! ```
//!
//! Determinism: splitmix64-driven; identical arguments produce an
//! identical byte-for-byte edge list, so downstream walk corpora and
//! embeddings are reproducible across machines.

use std::fs::File;
use std::io::{BufWriter, Write};
use v2v_base::rng::splitmix64;
use v2v_bench::Args;

/// Uniform in `[0, bound)` (bound > 0); modulo bias is irrelevant at
/// these bounds vs 2^64.
fn below(rng: &mut u64, bound: u64) -> u64 {
    splitmix64(rng) % bound
}

fn main() {
    let args = Args::parse();
    let n: u64 = args.get("n", 1_000_000u64);
    let community: u64 = args.get("community", 100u64);
    let intra: u64 = args.get("intra", 8u64);
    let inter_per_1k: u64 = args.get("inter-per-1k", 20u64);
    let seed: u64 = args.get("seed", 42u64);
    let out: String = args.get("out", "edges_1m.txt".to_string());

    assert!(n > 1, "need at least 2 vertices");
    let community = community.clamp(2, n);
    let file = File::create(&out).unwrap_or_else(|e| panic!("cannot create {out}: {e}"));
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut rng = seed;
    let mut edges: u64 = 0;

    let t0 = std::time::Instant::now();
    for v in 0..n {
        let base = (v / community) * community;
        let size = community.min(n - base);
        // Ring edge first: guarantees every vertex has degree >= 1 and
        // each community is connected regardless of the random draws.
        let ring = base + (v - base + 1) % size;
        if v != ring {
            writeln!(w, "{v} {ring}").expect("write edge");
            edges += 1;
        }
        if size > 1 {
            for _ in 0..intra {
                let u = base + below(&mut rng, size);
                if u != v {
                    writeln!(w, "{v} {u}").expect("write edge");
                    edges += 1;
                }
            }
        }
        // ~inter_per_1k inter-community edges per 1000 vertices keeps the
        // graph globally connected without washing out community structure.
        if below(&mut rng, 1000) < inter_per_1k {
            let u = below(&mut rng, n);
            if u != v {
                writeln!(w, "{v} {u}").expect("write edge");
                edges += 1;
            }
        }
    }
    w.flush().expect("flush edge list");
    println!(
        "gen_million: {n} vertices, {edges} edges ({} communities of <= {community}) \
         -> {out} in {:.2}s",
        n.div_ceil(community),
        t0.elapsed().as_secs_f64()
    );
}
