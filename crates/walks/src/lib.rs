//! Constrained random-walk engine for V2V (paper §II-A).
//!
//! V2V learns vertex embeddings from "sentences" produced by random walks.
//! Starting from each vertex, `t` independent walks of length `l` are
//! generated; the walk steps can be *constrained* to respect edge direction,
//! edge or vertex weights, or edge timestamps — this flexibility is the core
//! of the paper's §II-A. A node2vec-style (p, q)-biased second-order walk is
//! included as the related-work comparator (§VI).
//!
//! * [`alias`] — Walker's alias method: O(1) weighted sampling per step.
//! * [`strategy`] — the constraint menu ([`WalkStrategy`]).
//! * [`walker`] — single-walk generation.
//! * [`corpus`] — parallel, deterministic corpus generation
//!   ([`WalkCorpus`]) and the sliding context windows consumed by the
//!   CBOW/SkipGram trainer.
//!
//! ```
//! use v2v_walks::{WalkConfig, WalkCorpus, WalkStrategy};
//!
//! let graph = v2v_graph::generators::ring(12);
//! let config = WalkConfig {
//!     walks_per_vertex: 3,
//!     walk_length: 10,
//!     strategy: WalkStrategy::Uniform,
//!     seed: 7,
//! };
//! let corpus = WalkCorpus::generate(&graph, &config).unwrap();
//! assert_eq!(corpus.len(), 12 * 3);
//! assert_eq!(corpus.num_tokens(), 12 * 3 * 10);
//! ```

pub mod alias;
pub mod corpus;
pub mod source;
pub mod stats;
pub mod strategy;
pub mod walker;

pub use corpus::{StreamedWalkError, WalkConfig, WalkCorpus};
pub use source::WalkSource;
pub use strategy::WalkStrategy;
