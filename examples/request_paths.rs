//! Training on pre-existing path data (paper §II's motivating scenario).
//!
//! The paper opens §II with a computer network of clients and workstations
//! where each service request traces a path through the machines — "node
//! contexts are already provided in data in the form of paths", so no
//! random walks are needed. This example simulates such request logs and
//! trains V2V directly on them via [`v2v_walks::WalkCorpus::from_walks`].
//!
//! ```text
//! cargo run --release --example request_paths
//! ```

use v2v::{V2vConfig, V2vModel, VertexId};
use v2v_base::rng::Rng;
use v2v_walks::WalkCorpus;

fn main() {
    // Two service tiers, each with its own workstation pool: requests for
    // service A traverse workstations 0..8, service B traverses 8..16.
    // Clients 16..40 issue requests to one service each.
    let num_workstations = 16usize;
    let num_clients = 24usize;
    let n = num_workstations + num_clients;
    let mut rng = Rng::seed_from_u64(99);

    let mut paths: Vec<Vec<VertexId>> = Vec::new();
    for client in 0..num_clients {
        let service_b = client % 2 == 1; // half the clients use service B
        let pool = if service_b { 8..16u32 } else { 0..8u32 };
        for _ in 0..40 {
            // A request: client -> 3-5 workstations of its service's pool.
            let mut path = vec![VertexId((num_workstations + client) as u32)];
            let hops = rng.gen_range(3..=5);
            for _ in 0..hops {
                path.push(VertexId(rng.gen_range(pool.clone())));
            }
            paths.push(path);
        }
    }
    println!(
        "simulated {} request paths over {} machines ({} workstations, {} clients)",
        paths.len(),
        n,
        num_workstations,
        num_clients
    );

    // No graph, no random walks: the corpus *is* the request log.
    let corpus = WalkCorpus::from_walks(paths, n);
    let mut cfg = V2vConfig::default().with_dimensions(16).with_seed(7);
    cfg.embedding.epochs = 4;
    cfg.embedding.threads = 1;
    let model = V2vModel::train_on_corpus(&corpus, &cfg, std::time::Duration::ZERO)
        .expect("training succeeds");

    // The embedding should separate the two service tiers without ever
    // having seen a graph.
    let communities = model.detect_communities(2, 30);
    let mut tier_a = std::collections::HashMap::new();
    for w in 0..8 {
        *tier_a.entry(communities.labels[w]).or_insert(0) += 1;
    }
    let mut tier_b = std::collections::HashMap::new();
    for w in 8..16 {
        *tier_b.entry(communities.labels[w]).or_insert(0) += 1;
    }
    println!("\nworkstation cluster assignment: tier A {tier_a:?}, tier B {tier_b:?}");

    let within = model.embedding().cosine_similarity(VertexId(0), VertexId(1));
    let across = model.embedding().cosine_similarity(VertexId(0), VertexId(9));
    println!("cosine(ws0, ws1) same tier:  {within:.3}");
    println!("cosine(ws0, ws9) cross tier: {across:.3}");
    assert!(within > across, "tiers did not separate");

    println!(
        "\nThe \"sentences\" here are real request traces, not random walks —\n\
         the §II scenario where V2V consumes whatever path data the system\n\
         already produces."
    );
}
