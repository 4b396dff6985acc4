//! Property-based tests for the embedding substrates.

use proptest::prelude::*;
use v2v_embed::huffman::HuffmanTree;
use v2v_embed::negative::NegativeSampler;
use v2v_embed::sigmoid::SigmoidTable;

proptest! {
    /// Huffman codes are prefix-free and satisfy Kraft equality for any
    /// count vector.
    #[test]
    fn huffman_prefix_free_and_kraft(counts in proptest::collection::vec(0u64..1000, 2..48)) {
        let tree = HuffmanTree::new(&counts);
        // Kraft equality: codes form a full binary tree.
        let kraft: f64 = (0..counts.len()).map(|w| 0.5f64.powi(tree.code(w).len() as i32)).sum();
        prop_assert!((kraft - 1.0).abs() < 1e-9, "kraft = {kraft}");
        // Prefix-freedom.
        for a in 0..counts.len() {
            for b in 0..counts.len() {
                if a == b { continue; }
                let ca = tree.code(a);
                let cb = tree.code(b);
                let prefix = ca.len() <= cb.len() && ca == &cb[..ca.len()];
                prop_assert!(!prefix, "code {a} prefixes {b}");
            }
        }
    }

    /// Huffman is optimal: weighted length never beats the entropy bound
    /// and never exceeds entropy + 1 (per symbol).
    #[test]
    fn huffman_near_entropy(counts in proptest::collection::vec(1u64..500, 2..32)) {
        let tree = HuffmanTree::new(&counts);
        let total: u64 = counts.iter().sum();
        let mut expected_len = 0.0f64;
        let mut entropy = 0.0f64;
        for (w, &c) in counts.iter().enumerate() {
            let p = c as f64 / total as f64;
            expected_len += p * tree.code(w).len() as f64;
            entropy -= p * p.log2();
        }
        prop_assert!(expected_len >= entropy - 1e-9, "beat entropy: {expected_len} < {entropy}");
        prop_assert!(expected_len < entropy + 1.0 + 1e-9, "not within 1 bit: {expected_len} vs {entropy}");
    }

    /// Inner-node paths are aligned with codes and start at the root.
    #[test]
    fn huffman_paths_aligned(counts in proptest::collection::vec(1u64..100, 2..24)) {
        let tree = HuffmanTree::new(&counts);
        for w in 0..counts.len() {
            prop_assert_eq!(tree.code(w).len(), tree.point(w).len());
            prop_assert_eq!(tree.point(w)[0] as usize, tree.num_inner_nodes() - 1);
        }
    }

    /// The sigmoid table is monotone and bounded on arbitrary inputs.
    #[test]
    fn sigmoid_bounded_monotone(x in -100.0f32..100.0, y in -100.0f32..100.0) {
        let t = SigmoidTable::new();
        let (sx, sy) = (t.get(x), t.get(y));
        prop_assert!((0.0..=1.0).contains(&sx));
        if x + 0.05 < y {
            prop_assert!(sx <= sy + 1e-6, "sigma({x}) = {sx} > sigma({y}) = {sy}");
        }
        prop_assert!(t.neg_log(x).is_finite());
    }

    /// Negative sampling only produces valid, non-excluded indices.
    #[test]
    fn negative_sampler_valid(counts in proptest::collection::vec(0u64..50, 2..32), seed in any::<u64>()) {
        let sampler = NegativeSampler::new(&counts);
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        for exclude in 0..counts.len().min(4) {
            for _ in 0..50 {
                let s = sampler.sample(&mut rng, exclude);
                prop_assert!(s < counts.len());
                prop_assert_ne!(s, exclude);
            }
        }
    }

    /// Embedding text I/O round-trips arbitrary finite vectors exactly.
    #[test]
    fn embedding_io_roundtrip(rows in 1usize..12, dims in 1usize..8, seed in any::<u64>()) {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * dims).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let emb = v2v_embed::Embedding::from_flat(dims, data);
        let mut buf = Vec::new();
        v2v_embed::io::write_embedding(&emb, &mut buf).unwrap();
        let back = v2v_embed::io::read_embedding(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(emb, back);
    }
}
