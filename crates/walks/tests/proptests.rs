//! Property-based tests for the walk engine.

use proptest::prelude::*;
use v2v_base::rng::Rng;
use v2v_walks::alias::AliasTable;
use v2v_walks::walker::Walker;
use v2v_walks::{WalkConfig, WalkCorpus, WalkStrategy};

proptest! {
    /// Alias tables with one dominant weight sample it most of the time.
    #[test]
    fn alias_dominant_weight(n in 2usize..20, seed in any::<u64>()) {
        let mut weights = vec![1.0; n];
        weights[0] = 1000.0;
        let t = AliasTable::new(&weights);
        let mut rng = Rng::seed_from_u64(seed);
        let hits = (0..500).filter(|_| t.sample(&mut rng) == 0).count();
        prop_assert!(hits > 400, "dominant outcome hit only {hits}/500");
    }

    /// Every step of a uniform walk follows a real edge, and the walk has
    /// the requested length on graphs with no sinks.
    #[test]
    fn walks_follow_edges(n in 4usize..30, seed in any::<u64>(), start in 0u32..4) {
        let g = v2v_graph::generators::ring(n);
        let w = Walker::new(&g, WalkStrategy::Uniform).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let walk = w.walk(v2v_graph::VertexId(start), 25, &mut rng);
        prop_assert_eq!(walk.len(), 25);
        for pair in walk.windows(2) {
            prop_assert!(g.has_edge(pair[0], pair[1]));
        }
    }

    /// Corpus shape invariants hold for arbitrary (t, l).
    #[test]
    fn corpus_shape(t in 1usize..5, l in 1usize..20, seed in any::<u64>()) {
        let g = v2v_graph::generators::complete(7);
        let cfg = WalkConfig { walks_per_vertex: t, walk_length: l, seed, ..Default::default() };
        let c = WalkCorpus::generate(&g, &cfg).unwrap();
        prop_assert_eq!(c.len(), 7 * t);
        prop_assert_eq!(c.num_tokens(), 7 * t * l);
        for walk in c.walks() {
            prop_assert_eq!(walk.len(), l);
        }
    }

    /// Window extraction yields exactly one pair per token and contexts
    /// never contain the center position itself.
    #[test]
    fn window_pair_count(l in 1usize..30, window in 1usize..8, seed in any::<u64>()) {
        let g = v2v_graph::generators::ring(9);
        let cfg = WalkConfig { walks_per_vertex: 1, walk_length: l, seed, ..Default::default() };
        let c = WalkCorpus::generate(&g, &cfg).unwrap();
        let mut pairs = 0usize;
        c.for_each_window(window, |_, ctx| {
            pairs += 1;
            assert!(ctx.len() <= 2 * window);
        });
        prop_assert_eq!(pairs, c.num_tokens());
    }

    /// Temporal walks never traverse decreasing timestamps.
    #[test]
    fn temporal_walks_monotone(seed in any::<u64>()) {
        // Random temporal ring: timestamps equal to edge index.
        let mut b = v2v_graph::GraphBuilder::new_undirected();
        for u in 0..10u32 {
            b.add_temporal_edge(v2v_graph::VertexId(u), v2v_graph::VertexId((u + 1) % 10), u as u64);
        }
        let g = b.build().unwrap();
        let w = Walker::new(&g, WalkStrategy::Temporal { window: None }).unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        for start in 0..10u32 {
            let walk = w.walk(v2v_graph::VertexId(start), 12, &mut rng);
            // Reconstruct traversed timestamps and check monotonicity.
            let mut last: Option<u64> = None;
            for pair in walk.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                let ts = g.neighbor_timestamps(u).unwrap();
                let nb = g.neighbors(u);
                // The only valid arcs are those to v with t >= last.
                let ok = nb.iter().zip(ts).any(|(&x, &t)| {
                    x == v && last.is_none_or(|lt| t >= lt)
                });
                prop_assert!(ok, "step {u}->{v} impossible at time {last:?}");
                // Advance `last` to the smallest feasible timestamp of this
                // step (conservative lower bound for the next check).
                let min_t = nb
                    .iter()
                    .zip(ts)
                    .filter(|&(&x, &t)| x == v && last.is_none_or(|lt| t >= lt))
                    .map(|(_, &t)| t)
                    .min()
                    .unwrap();
                last = Some(min_t);
            }
        }
    }
}
