//! Property tests for the `v2v-store` containers: the V2VE v2 embedding
//! store round-trips arbitrary shapes and rejects arbitrary corruption,
//! and the sharded corpus writer never leaves a readable-but-wrong
//! corpus behind a torn write.
//!
//! The fault registry and the `atomic.write` fault point are
//! process-global, and every `write_store` call flows through them — so
//! all tests here serialize on one mutex rather than trip each other's
//! injected faults.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use v2v_graph::VertexId;
use v2v_store::{
    default_shard_rows, write_store, CorpusShardWriter, EmbeddingStore, ShardWriterConfig,
    ShardedCorpus,
};

/// Serializes tests that touch the process-global fault registry (or
/// write through code that consults it while another test arms it).
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(name: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("v2v_store_prop_{}_{name}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// splitmix64-derived payload so each case is cheap and reproducible.
fn payload(count: usize, dims: usize, mut seed: u64) -> Vec<f32> {
    let mut next = move || v2v_base::rng::splitmix64(&mut seed);
    (0..count * dims).map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5).collect()
}

const PAGE: usize = 4096;

proptest! {
    /// Any (dims, count, shard_rows) shape round-trips exactly: metadata,
    /// every vector, the full payload, and the optional index section all
    /// come back byte-identical, and rewriting the same payload with the
    /// same sharding reproduces the same fingerprint.
    #[test]
    fn store_round_trips_any_shape(
        dims in 1usize..10,
        count in 0usize..48,
        shard_rows in 1usize..9,
        seed in any::<u64>(),
    ) {
        let _g = global_lock();
        let dir = scratch("rt", seed);
        let path = dir.join("e.v2s");
        let data = payload(count, dims, seed);
        let index: Option<Vec<u8>> =
            (seed.is_multiple_of(2)).then(|| (0..=(seed % 250) as u8).collect());

        let fp = write_store(&path, dims, &data, shard_rows, index.as_deref()).unwrap();
        let store = EmbeddingStore::open(&path).unwrap();
        prop_assert_eq!(store.dims(), dims);
        prop_assert_eq!(store.len(), count);
        prop_assert_eq!(store.shard_rows(), shard_rows);
        prop_assert_eq!(store.fingerprint(), fp);
        prop_assert_eq!(store.index_section(), index.as_deref());
        store.verify_all().unwrap();
        prop_assert_eq!(store.payload().unwrap(), &data[..]);
        for i in 0..count {
            prop_assert_eq!(store.vector(i).unwrap(), &data[i * dims..(i + 1) * dims]);
        }
        prop_assert!(store.vector(count).is_err(), "out-of-range read must fail");
        drop(store);

        // Same payload + same sharding => same fingerprint, regardless of
        // the index section (`v2v index` relies on this to keep snapshots
        // valid across the rewrite).
        let fp2 = write_store(&path, dims, &data, shard_rows, Some(b"other index")).unwrap();
        prop_assert_eq!(fp, fp2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the file anywhere, or flipping any bit in the header or
    /// payload, is detected: open refuses the file outright, or the lazy
    /// verification path refuses the touched data. Never a silent wrong
    /// vector.
    #[test]
    fn store_rejects_truncation_and_bit_flips(
        dims in 1usize..8,
        count in 1usize..32,
        shard_rows in 1usize..5,
        seed in any::<u64>(),
    ) {
        let _g = global_lock();
        let dir = scratch("corrupt", seed);
        let path = dir.join("e.v2s");
        let data = payload(count, dims, seed);
        write_store(&path, dims, &data, shard_rows, None).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation: the header records every section offset and the
        // exact file length, so any shorter file is refused at open.
        let cut = (seed % good.len() as u64) as usize;
        std::fs::write(&path, &good[..cut]).unwrap();
        prop_assert!(
            EmbeddingStore::open(&path).is_err(),
            "truncation to {cut}/{} bytes must be refused", good.len()
        );

        // Bit flip in a checksummed region: the 80-byte header prefix
        // (fields + their checksum) or the payload.
        let payload_bytes = count * dims * 4;
        let flip_at = if seed.is_multiple_of(3) || payload_bytes == 0 {
            (seed / 3 % 80) as usize
        } else {
            PAGE + (seed / 3 % payload_bytes as u64) as usize
        };
        let mut bad = good.clone();
        bad[flip_at] ^= 1 << (seed % 8);
        std::fs::write(&path, &bad).unwrap();
        let caught = match EmbeddingStore::open(&path) {
            Err(_) => true,
            Ok(store) => store.verify_all().is_err(),
        };
        prop_assert!(caught, "bit flip at byte {flip_at} must be detected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn write (injected short write + error at an arbitrary point in
    /// the writer's lifetime) never yields a readable corpus with wrong
    /// content: either the writer finished cleanly and the corpus verifies
    /// in full, or `ShardedCorpus::open` refuses the directory. Staging
    /// temp files never survive either way.
    #[test]
    fn shard_writer_short_writes_never_yield_readable_corpus(
        walks in 1usize..40,
        num_vertices in 2u32..50,
        nth in 0u64..24,
        short in 0usize..64,
        seed in any::<u64>(),
    ) {
        let _g = global_lock();
        let dir = scratch("torn", seed ^ nth);
        v2v_fault::arm(
            "atomic.write",
            v2v_fault::FaultPlan::nth(nth, v2v_fault::Fault::ShortWrite(short)),
        );
        let result = (|| {
            let mut w = CorpusShardWriter::create(
                &dir,
                num_vertices as usize,
                // Tiny shards so multi-shard corpora exercise mid-corpus
                // failures, not just the final manifest write.
                ShardWriterConfig { target_shard_bytes: 256 },
            )?;
            let mut s = seed;
            for _ in 0..walks {
                let len = 1 + (s % 12) as usize;
                let walk: Vec<VertexId> =
                    (0..len).map(|i| VertexId((s.wrapping_add(i as u64) % num_vertices as u64) as u32)).collect();
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                w.push_walk(&walk)?;
            }
            w.finish()
        })();
        v2v_fault::disarm_all();

        match result {
            Ok((total_walks, _tokens)) => {
                let corpus = ShardedCorpus::open(&dir).unwrap();
                corpus.verify().unwrap();
                prop_assert_eq!(total_walks, walks);
            }
            Err(_) => {
                prop_assert!(
                    ShardedCorpus::open(&dir).is_err(),
                    "a torn write must not leave an openable corpus"
                );
            }
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            prop_assert!(!name.contains(".tmp."), "staging file {name} left behind");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `default_shard_rows` always yields a legal, MiB-scale shard.
    #[test]
    fn default_shard_rows_is_sane(dims in 1usize..5000) {
        let rows = default_shard_rows(dims);
        prop_assert!(rows >= 1);
        let bytes = rows * dims * 4;
        prop_assert!(bytes <= 2 << 20, "shard of {bytes} bytes at dims {dims}");
    }
}
