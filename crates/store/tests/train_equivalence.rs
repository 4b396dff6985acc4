//! Out-of-core training equivalence: streaming epochs from disk shards
//! must be *bit-identical* to training from the same corpus in RAM at
//! `threads = 1`.
//!
//! This is the store's core correctness contract (ISSUE 7 acceptance
//! criterion): a walk's global index — not its storage location —
//! drives the per-walk RNG stream, so `ShardedCorpus` and `WalkCorpus`
//! present indistinguishable corpora to the trainer. Any drift in shard
//! iteration order, range slicing, or token accounting shows up here as
//! a float mismatch.

use v2v_embed::EmbedConfig;
use v2v_graph::VertexId;
use v2v_store::{CorpusShardWriter, ShardWriterConfig, ShardedCorpus};
use v2v_walks::WalkCorpus;

/// Deterministic synthetic walks over `n` vertices: community-biased so
/// the trainer has real structure to fit (non-degenerate loss).
fn synth_walks(num_walks: usize, n: u32, mut seed: u64) -> Vec<Vec<VertexId>> {
    let mut next = move || v2v_base::rng::splitmix64(&mut seed);
    (0..num_walks)
        .map(|_| {
            let len = 8 + (next() % 25) as usize;
            let community = next() % 4;
            (0..len)
                .map(|_| VertexId((community * (n as u64 / 4) + next() % (n as u64 / 4)) as u32))
                .collect()
        })
        .collect()
}

#[test]
fn training_from_shards_is_bit_identical_to_ram_at_one_thread() {
    let n = 40u32;
    let walks = synth_walks(300, n, 0xA11CE);

    let dir = std::env::temp_dir().join(format!("v2v_store_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // ~1 KiB shards force the corpus across many shards, so the streamed
    // reader's cross-shard range slicing is actually exercised.
    let mut w = CorpusShardWriter::create(
        &dir,
        n as usize,
        ShardWriterConfig { target_shard_bytes: 1024 },
    )
    .unwrap();
    for walk in &walks {
        w.push_walk(walk).unwrap();
    }
    w.finish().unwrap();

    let sharded = ShardedCorpus::open(&dir).unwrap();
    assert!(sharded.num_shards() > 1, "corpus must span multiple shards to test streaming");
    let in_ram = WalkCorpus::from_walks(walks, n as usize);

    let config = EmbedConfig {
        dimensions: 12,
        epochs: 3,
        threads: 1, // Hogwild nondeterminism off: bit-identity is the claim.
        seed: 77,
        ..EmbedConfig::default()
    };
    let (emb_disk, stats_disk) = v2v_embed::train_from_source(&sharded, &config).unwrap();
    let (emb_ram, stats_ram) = v2v_embed::train_from_source(&in_ram, &config).unwrap();

    assert_eq!(stats_disk.epoch_losses, stats_ram.epoch_losses, "per-epoch losses must match");
    assert_eq!(stats_disk.total_pairs, stats_ram.total_pairs);
    assert_eq!(
        emb_disk.as_flat(),
        emb_ram.as_flat(),
        "embeddings must be bit-identical between disk shards and RAM"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
