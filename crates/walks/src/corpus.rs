//! Parallel, deterministic walk-corpus generation and context windows.
//!
//! The paper starts `t` walks of length `l` from every vertex (defaults
//! `t = l = 1000` in the paper; scaled-down defaults here — see DESIGN.md
//! substitution #3) and feeds the resulting sequences to CBOW with window
//! `n = 5`. [`WalkCorpus::generate`] produces those sequences; thanks to
//! per-walk seed derivation the corpus is byte-identical for any number of
//! threads.

use crate::strategy::WalkStrategy;
use crate::walker::{WalkError, Walker};
use v2v_base::par;
use v2v_base::rng::{derive_seed, Rng};
use v2v_graph::{Graph, VertexId};

/// Parameters for corpus generation.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Number of walks started from each vertex (the paper's `t`).
    pub walks_per_vertex: usize,
    /// Number of vertices per walk (the paper's walk length `l`).
    pub walk_length: usize,
    /// Step rule.
    pub strategy: WalkStrategy,
    /// Master seed; the corpus is a pure function of it.
    pub seed: u64,
}

impl Default for WalkConfig {
    /// Scaled-down defaults (`t = 10`, `l = 80`) suitable for interactive
    /// use; the paper's defaults are `t = l = 1000`.
    fn default() -> Self {
        WalkConfig {
            walks_per_vertex: 10,
            walk_length: 80,
            strategy: WalkStrategy::Uniform,
            seed: 0x5EED,
        }
    }
}

impl WalkConfig {
    /// The paper's default configuration (`t = l = 1000`, uniform walks).
    /// Expect a corpus of `1000 * n * 1000` tokens.
    pub fn paper_scale() -> Self {
        WalkConfig { walks_per_vertex: 1000, walk_length: 1000, ..Default::default() }
    }
}

/// Error from [`WalkCorpus::generate_streamed`]: either walk generation
/// itself failed, or the caller's sink did.
#[derive(Debug)]
pub enum StreamedWalkError<E> {
    /// The walker could not be constructed or stepped.
    Walk(WalkError),
    /// The batch sink returned an error; generation stopped.
    Sink(E),
}

impl<E: std::fmt::Display> std::fmt::Display for StreamedWalkError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamedWalkError::Walk(e) => write!(f, "walk generation failed: {e}"),
            StreamedWalkError::Sink(e) => write!(f, "walk sink failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for StreamedWalkError<E> {}

/// Walks the jobs in `jobs` on `threads` threads and counts them into the
/// telemetry. Job `j` is repetition `j % t` from vertex `j / t` and draws
/// from its own derived seed, so neither the thread count nor where a
/// caller cuts its batches shows in the output.
fn walk_jobs(
    threads: usize,
    walker: &Walker,
    config: &WalkConfig,
    jobs: std::ops::Range<usize>,
) -> Vec<Vec<VertexId>> {
    let t = config.walks_per_vertex;
    let walks = par::map_on(threads, jobs.len(), |i| {
        let job = jobs.start + i;
        let v = VertexId::from_index(job / t);
        let seed = derive_seed(config.seed, v.0 as u64, (job % t) as u64);
        walker.walk(v, config.walk_length, &mut Rng::seed_from_u64(seed))
    });
    // Recorded once per batch, outside the hot loop. A walk shorter than
    // requested means the walker got stuck (directed sink, temporal dead
    // end, isolated vertex, or zero-weight neighborhood) — the only
    // early-termination reasons that exist.
    let metrics = v2v_obs::global_metrics();
    let full = walks.iter().filter(|w| w.len() == config.walk_length).count();
    let tokens: usize = walks.iter().map(Vec::len).sum();
    metrics.counter("walks.generated").add(walks.len() as u64);
    metrics.counter("walks.completed_full_length").add(full as u64);
    metrics.counter("walks.terminated_early").add((walks.len() - full) as u64);
    metrics.counter("walks.tokens").add(tokens as u64);
    v2v_obs::obs_debug!(
        "generated {} walks ({} tokens, {} cut short)",
        walks.len(),
        tokens,
        walks.len() - full
    );
    walks
}

/// A materialized set of walks over one graph.
#[derive(Clone, Debug)]
pub struct WalkCorpus {
    walks: Vec<Vec<VertexId>>,
    num_vertices: usize,
}

impl WalkCorpus {
    /// Generates `t x |V|` walks in parallel. Deterministic in
    /// `config.seed` regardless of thread count.
    pub fn generate(graph: &Graph, config: &WalkConfig) -> Result<WalkCorpus, WalkError> {
        let walker = Walker::new(graph, config.strategy)?;
        let n = graph.num_vertices();
        let _span = v2v_obs::span("walks");
        let walks = walk_jobs(par::threads(), &walker, config, 0..n * config.walks_per_vertex);
        Ok(WalkCorpus { walks, num_vertices: n })
    }

    /// Generates the same corpus as [`WalkCorpus::generate`] — same walks,
    /// same global order — but hands them to `sink` in bounded batches of
    /// `batch_walks` instead of materializing all of them, so callers can
    /// spill to disk with peak memory proportional to the batch, not the
    /// corpus. Each batch is still generated in parallel.
    ///
    /// `sink` receives `(first_global_walk_index, walks_of_this_batch)`;
    /// batches arrive in ascending index order with no gaps. Returning an
    /// error from `sink` aborts generation.
    pub fn generate_streamed<E>(
        graph: &Graph,
        config: &WalkConfig,
        batch_walks: usize,
        mut sink: impl FnMut(u64, Vec<Vec<VertexId>>) -> Result<(), E>,
    ) -> Result<(), StreamedWalkError<E>> {
        let walker = Walker::new(graph, config.strategy).map_err(StreamedWalkError::Walk)?;
        let total = graph.num_vertices() * config.walks_per_vertex;
        let batch = batch_walks.max(1);
        let _span = v2v_obs::span("walks");
        let mut lo = 0usize;
        while lo < total {
            let hi = (lo + batch).min(total);
            let walks = walk_jobs(par::threads(), &walker, config, lo..hi);
            sink(lo as u64, walks).map_err(StreamedWalkError::Sink)?;
            lo = hi;
        }
        Ok(())
    }

    /// Builds a corpus from pre-existing paths (the paper's computer-network
    /// example, §II: when path data is already available, random walks are
    /// unnecessary).
    pub fn from_walks(walks: Vec<Vec<VertexId>>, num_vertices: usize) -> WalkCorpus {
        debug_assert!(walks
            .iter()
            .flatten()
            .all(|v| v.index() < num_vertices));
        WalkCorpus { walks, num_vertices }
    }

    /// Number of walks.
    pub fn len(&self) -> usize {
        self.walks.len()
    }

    /// Whether the corpus holds no walks.
    pub fn is_empty(&self) -> bool {
        self.walks.is_empty()
    }

    /// Number of vertices of the underlying graph (the vocabulary size).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of tokens across all walks.
    pub fn num_tokens(&self) -> usize {
        self.walks.iter().map(Vec::len).sum()
    }

    /// The walks.
    pub fn walks(&self) -> &[Vec<VertexId>] {
        &self.walks
    }

    /// How many times each vertex occurs in the corpus (the unigram counts
    /// that the embedding trainer's negative-sampling table is built from).
    pub fn token_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_vertices];
        for walk in &self.walks {
            for v in walk {
                counts[v.index()] += 1;
            }
        }
        counts
    }

    /// Visits every (center, context) training pair under a symmetric
    /// window of `window` positions on each side, exactly as CBOW consumes
    /// them (V2V §II-B, default `n = 5`).
    pub fn for_each_window<F: FnMut(VertexId, &[VertexId])>(&self, window: usize, mut f: F) {
        let mut ctx: Vec<VertexId> = Vec::with_capacity(2 * window);
        for walk in &self.walks {
            for (i, &center) in walk.iter().enumerate() {
                ctx.clear();
                let lo = i.saturating_sub(window);
                let hi = (i + window + 1).min(walk.len());
                ctx.extend_from_slice(&walk[lo..i]);
                ctx.extend_from_slice(&walk[i + 1..hi]);
                f(center, &ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::generators;

    #[test]
    fn generate_counts_and_shape() {
        let g = generators::complete(6);
        let cfg = WalkConfig { walks_per_vertex: 3, walk_length: 10, ..Default::default() };
        let c = WalkCorpus::generate(&g, &cfg).unwrap();
        assert_eq!(c.len(), 18);
        assert!(!c.is_empty());
        assert_eq!(c.num_tokens(), 180);
        assert_eq!(c.num_vertices(), 6);
        // Each vertex starts exactly t walks.
        let mut starts = vec![0usize; 6];
        for w in c.walks() {
            starts[w[0].index()] += 1;
        }
        assert_eq!(starts, vec![3; 6]);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::gnm(40, 150, 3);
        let cfg = WalkConfig { walks_per_vertex: 2, walk_length: 15, ..Default::default() };
        let a = WalkCorpus::generate(&g, &cfg).unwrap();
        let b = WalkCorpus::generate(&g, &cfg).unwrap();
        assert_eq!(a.walks(), b.walks());
        let cfg2 = WalkConfig { seed: 999, ..cfg };
        let c = WalkCorpus::generate(&g, &cfg2).unwrap();
        assert_ne!(a.walks(), c.walks());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::gnm(30, 100, 5);
        let cfg = WalkConfig { walks_per_vertex: 2, walk_length: 12, ..Default::default() };
        let walker = Walker::new(&g, cfg.strategy).unwrap();
        let jobs = 0..g.num_vertices() * cfg.walks_per_vertex;
        let one = walk_jobs(1, &walker, &cfg, jobs.clone());
        assert_eq!(walk_jobs(3, &walker, &cfg, jobs), one);
        assert_eq!(WalkCorpus::generate(&g, &cfg).unwrap().walks(), one);
    }

    #[test]
    fn token_counts_sum_to_tokens() {
        let g = generators::ring(10);
        let cfg = WalkConfig { walks_per_vertex: 4, walk_length: 7, ..Default::default() };
        let c = WalkCorpus::generate(&g, &cfg).unwrap();
        let counts = c.token_counts();
        assert_eq!(counts.iter().sum::<u64>() as usize, c.num_tokens());
        // On a ring every vertex is visited at least as a start.
        assert!(counts.iter().all(|&x| x >= 4));
    }

    #[test]
    fn window_pairs_on_known_walk() {
        let corpus = WalkCorpus::from_walks(
            vec![vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]],
            4,
        );
        let mut seen = Vec::new();
        corpus.for_each_window(1, |center, ctx| {
            seen.push((center, ctx.to_vec()));
        });
        assert_eq!(
            seen,
            vec![
                (VertexId(0), vec![VertexId(1)]),
                (VertexId(1), vec![VertexId(0), VertexId(2)]),
                (VertexId(2), vec![VertexId(1), VertexId(3)]),
                (VertexId(3), vec![VertexId(2)]),
            ]
        );
    }

    #[test]
    fn window_larger_than_walk_is_clamped() {
        let corpus = WalkCorpus::from_walks(vec![vec![VertexId(0), VertexId(1)]], 2);
        let mut count = 0;
        corpus.for_each_window(10, |_, ctx| {
            assert_eq!(ctx.len(), 1);
            count += 1;
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_graph_corpus() {
        let g = v2v_graph::GraphBuilder::new_undirected().build().unwrap();
        let c = WalkCorpus::generate(&g, &WalkConfig::default()).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.num_tokens(), 0);
    }

    #[test]
    fn paper_scale_config_values() {
        let cfg = WalkConfig::paper_scale();
        assert_eq!(cfg.walks_per_vertex, 1000);
        assert_eq!(cfg.walk_length, 1000);
    }

    #[test]
    fn streamed_batches_equal_generate() {
        let g = generators::gnm(25, 80, 11);
        let cfg = WalkConfig { walks_per_vertex: 3, walk_length: 9, ..Default::default() };
        let whole = WalkCorpus::generate(&g, &cfg).unwrap();
        for batch in [1usize, 7, 25, 10_000] {
            let mut streamed: Vec<Vec<VertexId>> = Vec::new();
            let mut next_lo = 0u64;
            WalkCorpus::generate_streamed(&g, &cfg, batch, |lo, walks| {
                assert_eq!(lo, next_lo, "batches must arrive in order with no gaps");
                next_lo = lo + walks.len() as u64;
                streamed.extend(walks);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(streamed, whole.walks(), "batch={batch}");
        }
    }

    #[test]
    fn streamed_sink_error_aborts() {
        let g = generators::ring(8);
        let cfg = WalkConfig { walks_per_vertex: 2, walk_length: 5, ..Default::default() };
        let mut calls = 0;
        let err = WalkCorpus::generate_streamed(&g, &cfg, 4, |_, _| {
            calls += 1;
            Err("sink full")
        })
        .unwrap_err();
        assert!(matches!(err, StreamedWalkError::Sink("sink full")));
        assert_eq!(calls, 1);
    }

    #[test]
    fn strategy_error_propagates() {
        let g = generators::complete(3);
        let cfg = WalkConfig { strategy: WalkStrategy::EdgeWeighted, ..Default::default() };
        assert!(WalkCorpus::generate(&g, &cfg).is_err());
    }
}
