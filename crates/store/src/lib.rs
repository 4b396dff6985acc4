//! `v2v-store` — the out-of-core storage layer for million-vertex V2V.
//!
//! Three pieces, all zero-dependency and all writing through
//! `v2v-fault`'s atomic tmp+fsync+rename layer:
//!
//! * [`store`] — the **V2VE v2 container**: a fixed-stride, page-aligned,
//!   shard-checksummed embedding file that `v2v serve` opens via `mmap`
//!   (cold start = map + one header check; shard checksums verify lazily
//!   on first touch) with an automatic heap-loading fallback
//!   (non-unix, big-endian, or a failed map). The file
//!   can carry an opaque, self-checksummed index section — the persisted
//!   HNSW snapshot that `v2v serve` loads instead of rebuilding.
//! * [`corpus`] — **sharded on-disk walk corpora**: `v2v walks` streams
//!   bounded-memory shards to a directory, and [`ShardedCorpus`]
//!   implements `v2v_walks::WalkSource` so the trainer streams epochs
//!   from disk with one shard of readahead — same global walk indexes,
//!   same RNG streams, bit-identical results at `threads = 1`.
//! * [`mmap`] — a read-only memory-map wrapper declared straight against
//!   libc (the same no-crate idiom as `v2v-obs`'s perf-counter syscalls).
//!
//! ```
//! let dir = std::env::temp_dir().join(format!("v2v_store_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.v2s");
//! let data: Vec<f32> = (0..20).map(|i| i as f32).collect();
//! v2v_store::write_store(&path, 4, &data, 2, None).unwrap();
//! let store = v2v_store::EmbeddingStore::open(&path).unwrap();
//! assert_eq!((store.len(), store.dims()), (5, 4));
//! assert_eq!(store.vector(3).unwrap(), &[12.0, 13.0, 14.0, 15.0]);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod corpus;
pub mod error;
pub mod mmap;
pub mod store;

pub use corpus::{CorpusShardWriter, ShardWriterConfig, ShardedCorpus};
pub use error::StoreError;
pub use mmap::Mmap;
pub use store::{default_shard_rows, write_store, EmbeddingStore};
