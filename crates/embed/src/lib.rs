//! From-scratch CBOW / SkipGram embedding trainer for V2V (paper §II-B).
//!
//! The paper learns a vector per vertex by feeding random-walk sequences to
//! the Continuous-Bag-of-Words model of word2vec: the vocabulary is the
//! vertex set, each walk is a sentence, and a symmetric window of `n = 5`
//! provides the contexts. No ML framework is used — this crate implements
//! the whole model:
//!
//! * [`sigmoid`] — the precomputed logistic table from word2vec.
//! * [`huffman`] — Huffman coding of the vocabulary for hierarchical
//!   softmax.
//! * [`negative`] — the unigram^(3/4) negative-sampling distribution.
//! * [`hogwild`] — a lock-free shared weight matrix (relaxed atomics), the
//!   Hogwild! parallel-SGD pattern word2vec popularized.
//! * [`config`] — architecture (CBOW is the paper's choice; SkipGram is the
//!   DeepWalk/node2vec comparator), output layer, and schedule knobs.
//! * [`trainer`] — the parallel SGD loops, with optional convergence-based
//!   stopping (the paper's Fig 7 measures time-to-convergence).
//! * [`embedding`] — the trained result: per-vertex vectors + similarity
//!   queries.
//! * [`quality`] — intrinsic embedding-quality diagnostics
//!   (neighborhood preservation, similarity margin).
//! * [`io`] — word2vec-compatible text save/load (the binary format is
//!   the `.v2s` store in `v2v-store`).
//! * [`checkpoint`] — crash-safe training snapshots (chunked, per-section
//!   checksummed container) enabling kill-and-resume training.
//!
//! ```
//! use v2v_embed::{train, EmbedConfig};
//! use v2v_walks::{WalkConfig, WalkCorpus};
//!
//! let graph = v2v_graph::generators::complete(8);
//! let corpus = WalkCorpus::generate(&graph, &WalkConfig {
//!     walks_per_vertex: 4, walk_length: 12, ..Default::default()
//! }).unwrap();
//! let config = EmbedConfig { dimensions: 8, epochs: 2, threads: 1, ..Default::default() };
//! let (embedding, stats) = train(&corpus, &config).unwrap();
//! assert_eq!(embedding.len(), 8);
//! assert_eq!(embedding.dimensions(), 8);
//! assert_eq!(stats.epochs_run, 2);
//! ```

pub mod checkpoint;
pub mod config;
pub mod embedding;
pub mod hogwild;
pub mod huffman;
pub mod io;
pub mod negative;
pub mod quality;
pub mod sigmoid;
pub mod trainer;

pub use checkpoint::{CheckpointOptions, TrainCheckpoint};
pub use config::{Architecture, EmbedConfig, OutputLayer};
pub use embedding::Embedding;
pub use trainer::{
    fine_tune, train, train_from_source, train_source_with_checkpoints, train_with_checkpoints,
    TrainStats,
};
