//! Parallel SGD training of CBOW / SkipGram on a walk corpus.
//!
//! Mirrors word2vec.c: a shared input matrix `syn0` (the embedding) and an
//! output matrix (`syn1neg` for negative sampling, `syn1` over Huffman
//! inner nodes for hierarchical softmax) are updated Hogwild-style by
//! worker threads, with a linearly decaying learning rate driven by a
//! shared token counter.
//!
//! Unlike word2vec we track the average objective loss per epoch, because
//! the paper's Fig 7 reports *time to convergence* as a function of
//! community strength — convergence-based stopping needs a convergence
//! signal.
//!
//! Under negative sampling each pair's negatives are drawn *before* its
//! forward pass, and their output rows (plus the positive's) are
//! prefetched, so the loads overlap the context sum instead of stalling
//! each `dot` in the output layer. With two or more Hogwild workers those
//! rows have usually just been written by another core, so those misses
//! are most of the output layer's cost. Only subsampling and these draws
//! consume the per-walk RNG, in pair order, so `threads == 1` output is a
//! function of the seed alone (pinned in `pin_tests`).

// Window arithmetic indexes `walk[j]` around a center position; an
// iterator form would obscure the symmetric-window logic.
#![allow(clippy::needless_range_loop)]

use crate::checkpoint::{self, CheckpointOptions, TrainCheckpoint};
use crate::config::{Architecture, EmbedConfig, OutputLayer};
use crate::embedding::Embedding;
use crate::hogwild::HogwildMatrix;
use crate::huffman::HuffmanTree;
use crate::negative::NegativeSampler;
use crate::sigmoid::SigmoidTable;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use v2v_base::rng::{derive_seed, Rng};
use v2v_linalg::kernels;
use v2v_graph::VertexId;
use v2v_obs::perthread::{set_phase, Phase, WorkerTable};
use v2v_obs::ConcurrencyReport;
use v2v_walks::{WalkCorpus, WalkSource};

/// What happened during training.
#[derive(Clone, Debug)]
pub struct TrainStats {
    /// Number of epochs actually run (≤ `config.epochs`), including epochs
    /// restored from a checkpoint on resume.
    pub epochs_run: usize,
    /// Average objective loss per training pair, one entry per epoch.
    pub epoch_losses: Vec<f64>,
    /// Total (center, context) pairs processed across all epochs.
    pub total_pairs: u64,
    /// Whether convergence-based stopping fired before `config.epochs`.
    pub converged: bool,
    /// `Some(epoch)` when this run resumed from a checkpoint holding
    /// `epoch` completed epochs.
    pub resumed_from: Option<usize>,
    /// Per-worker attribution of this run: pairs/busy/wait per thread,
    /// throughput skew and barrier-wait fraction.
    pub concurrency: ConcurrencyReport,
}

/// Trains an embedding on `corpus` under `config`.
///
/// Errors on invalid configuration or an empty corpus.
pub fn train(corpus: &WalkCorpus, config: &EmbedConfig) -> Result<(Embedding, TrainStats), String> {
    train_with_checkpoints(corpus, config, None)
}

/// [`train`] over any [`WalkSource`] — an in-RAM corpus or an on-disk
/// shard directory. Walks are consumed by global walk index, so two
/// sources presenting the same walks produce bit-identical models at
/// `threads = 1` regardless of where the walks live.
pub fn train_from_source<S: WalkSource + ?Sized>(
    source: &S,
    config: &EmbedConfig,
) -> Result<(Embedding, TrainStats), String> {
    train_source_with_checkpoints(source, config, None)
}

/// [`train`] with periodic crash-safe checkpointing.
///
/// With `Some(opts)`, the trainer writes a [`TrainCheckpoint`] into
/// `opts.dir` atomically (old-or-new, never torn) every
/// `opts.every_epochs` epochs — or sooner if `opts.every_secs` elapses —
/// plus once after the final epoch. With `opts.resume`, an existing
/// checkpoint whose fingerprint matches this config + corpus restarts
/// training from its epoch boundary; per-walk RNG streams are derived
/// from `(seed, epoch, walk index)`, so the continuation samples exactly
/// what the uninterrupted run would have (single-threaded runs are
/// bit-identical; Hogwild runs are equivalent in distribution, as always).
pub fn train_with_checkpoints(
    corpus: &WalkCorpus,
    config: &EmbedConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Result<(Embedding, TrainStats), String> {
    train_source_with_checkpoints(corpus, config, ckpt)
}

/// [`train_with_checkpoints`] over any [`WalkSource`]. The checkpoint
/// fingerprint folds the source's shape (vocabulary + token count), not
/// its storage, so a run checkpointed against an in-RAM corpus can resume
/// against the identical corpus streamed from disk shards.
pub fn train_source_with_checkpoints<S: WalkSource + ?Sized>(
    source: &S,
    config: &EmbedConfig,
    ckpt: Option<&CheckpointOptions>,
) -> Result<(Embedding, TrainStats), String> {
    config.validate()?;
    let n = source.num_vertices();
    if n == 0 || source.num_tokens() == 0 {
        return Err("cannot train on an empty corpus".into());
    }

    let dim = config.dimensions;
    let counts = source.token_counts();

    let (sampler, huffman, out_rows) = match config.output {
        OutputLayer::NegativeSampling { .. } => (Some(NegativeSampler::new(&counts)), None, n),
        OutputLayer::HierarchicalSoftmax => {
            let tree = HuffmanTree::new(&counts);
            let rows = tree.num_inner_nodes().max(1);
            (None, Some(tree), rows)
        }
    };

    // Resolve checkpointing up front: create the directory, and on resume
    // load + validate the existing checkpoint before any weight exists.
    let fp = checkpoint::fingerprint(config, n, source.num_tokens());
    let ckpt_path = match ckpt {
        Some(opts) => {
            std::fs::create_dir_all(&opts.dir).map_err(|e| {
                format!("cannot create checkpoint dir {}: {e}", opts.dir.display())
            })?;
            Some(checkpoint::path_in(&opts.dir))
        }
        None => None,
    };
    let mut restored: Option<TrainCheckpoint> = None;
    if let (Some(opts), Some(path)) = (ckpt, &ckpt_path) {
        if opts.resume && path.exists() {
            let c = TrainCheckpoint::load(path)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
            if c.fingerprint != fp {
                return Err(format!(
                    "checkpoint {} was produced by a different config, corpus, or \
                     kernel backend \
                     (fingerprint {:#018x}, expected {fp:#018x}); refusing to resume",
                    path.display(),
                    c.fingerprint,
                ));
            }
            if c.syn0.0 != n || c.syn0.1 != dim || c.syn1.0 != out_rows || c.syn1.1 != dim {
                return Err(format!(
                    "checkpoint {} shape mismatch: syn0 {}x{}, syn1 {}x{} \
                     (expected {n}x{dim} and {out_rows}x{dim})",
                    path.display(),
                    c.syn0.0,
                    c.syn0.1,
                    c.syn1.0,
                    c.syn1.1,
                ));
            }
            restored = Some(c);
        }
    }

    let start_epoch;
    let syn0;
    let syn1;
    let processed_init;
    let mut stats;
    match restored {
        Some(c) => {
            start_epoch = c.next_epoch;
            processed_init = c.processed;
            stats = TrainStats {
                epochs_run: c.next_epoch,
                epoch_losses: c.epoch_losses,
                total_pairs: c.total_pairs,
                converged: false,
                resumed_from: Some(c.next_epoch),
                concurrency: ConcurrencyReport::default(),
            };
            syn0 = HogwildMatrix::from_vec(n, dim, c.syn0.2);
            syn1 = HogwildMatrix::from_vec(out_rows, dim, c.syn1.2);
            v2v_obs::global_metrics().counter("train.resumes").inc();
            v2v_obs::obs_info!(
                "resumed from checkpoint: {} of {} epochs done, {} tokens processed",
                stats.epochs_run,
                config.epochs,
                processed_init
            );
        }
        None => {
            start_epoch = 0;
            processed_init = 0;
            stats = TrainStats {
                epochs_run: 0,
                epoch_losses: Vec::with_capacity(config.epochs),
                total_pairs: 0,
                converged: false,
                resumed_from: None,
                concurrency: ConcurrencyReport::default(),
            };
            // word2vec init: syn0 ~ U(-0.5, 0.5)/dim, output matrix zeros.
            let mut rng = Rng::seed_from_u64(derive_seed(config.seed, 0x1217, n as u64));
            let init: Vec<f32> = (0..n * dim).map(|_| (rng.gen_f32() - 0.5) / dim as f32).collect();
            syn0 = HogwildMatrix::from_vec(n, dim, init);
            syn1 = HogwildMatrix::zeros(out_rows, dim);
        }
    }
    let sigmoid = SigmoidTable::new();

    // word2vec subsampling: keep probability per vocabulary item.
    let keep_prob: Option<Vec<f32>> = config.subsample.map(|t| {
        let total: u64 = counts.iter().sum();
        counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    return 1.0;
                }
                let f = c as f64 / total as f64;
                (((f / t).sqrt() + 1.0) * (t / f)).min(1.0) as f32
            })
            .collect()
    });

    let total_tokens = source.num_tokens() as u64;
    let schedule_total = total_tokens * config.epochs as u64;
    let processed = AtomicU64::new(processed_init);

    let ctx = TrainContext {
        config,
        syn0: &syn0,
        syn1: &syn1,
        sigmoid: &sigmoid,
        sampler: sampler.as_ref(),
        huffman: huffman.as_ref(),
        processed: &processed,
        schedule_total,
        keep_prob: keep_prob.as_deref(),
        trainable: None,
    };

    // All telemetry is per-epoch: one span + a handful of atomics per
    // epoch, invisible next to millions of pair updates.
    let train_span = v2v_obs::span("train");
    let metrics = v2v_obs::global_metrics();
    // Per-run worker table (not the process-global one): concurrent
    // training runs in one process — the test suite does this — must not
    // scramble each other's attribution. The table still publishes into
    // the global registry per epoch, so `/metricz` sees the live view.
    let workers = WorkerTable::new();
    // Record which kernel backend runs the hot loop, so --metrics exports
    // and bench sidecars identify what produced the numbers.
    metrics
        .gauge(&format!("kernels.backend.{}", kernels::backend_name()))
        .set(1.0);

    // Snapshots everything a restart needs and lands it atomically: a
    // SIGKILL mid-save leaves the previous checkpoint intact.
    let write_checkpoint = |stats: &TrainStats| -> Result<(), String> {
        let path = ckpt_path.as_ref().expect("checkpoint path exists when options given");
        let started = std::time::Instant::now();
        // Fault point so tests can kill a run at a chosen epoch boundary.
        v2v_fault::inject::apply("train.checkpoint")
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        let snap = TrainCheckpoint {
            fingerprint: fp,
            next_epoch: stats.epochs_run,
            epochs_total: config.epochs,
            processed: processed.load(Ordering::Relaxed),
            total_pairs: stats.total_pairs,
            epoch_losses: stats.epoch_losses.clone(),
            syn0: (n, dim, syn0.to_vec()),
            syn1: (out_rows, dim, syn1.to_vec()),
        };
        snap.save(path)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        metrics.counter("train.checkpoints").inc();
        metrics.gauge("train.checkpoint_ms").set(ms);
        v2v_obs::obs_debug!(
            "checkpoint after epoch {} written in {ms:.1}ms",
            stats.epochs_run
        );
        Ok(())
    };

    let run_all = |stats: &mut TrainStats| -> Result<(), String> {
        let run_started = std::time::Instant::now();
        let mut last_ckpt_at = std::time::Instant::now();
        let mut epochs_since_ckpt = 0usize;
        // Cumulative per-worker pairs at the previous epoch boundary, for
        // per-epoch deltas in the `train.thread` flight events.
        let mut prev_pairs: Vec<u64> = Vec::new();
        for epoch in start_epoch..config.epochs {
            let epoch_started = std::time::Instant::now();
            let epoch_span = v2v_obs::span("epoch");
            let (loss, pairs) = if config.threads == 1 {
                run_epoch_sequential(source, &ctx, epoch as u64, &workers)
            } else {
                run_epoch_parallel(source, &ctx, epoch as u64, &workers)
            };
            drop(epoch_span);
            stats.epochs_run += 1;
            stats.total_pairs += pairs;
            let avg = if pairs == 0 { 0.0 } else { loss / pairs as f64 };
            let prev = stats.epoch_losses.last().copied();
            stats.epoch_losses.push(avg);

            let epoch_secs = epoch_started.elapsed().as_secs_f64();
            let done = processed.load(Ordering::Relaxed);
            let frac = done as f64 / schedule_total.max(1) as f64;
            let lr = (config.initial_lr as f64 * (1.0 - frac))
                .max(config.initial_lr as f64 * 1e-4);
            metrics.counter("train.epochs").inc();
            metrics.counter("train.pairs").add(pairs);
            metrics.gauge("train.loss").set(avg);
            metrics.gauge("train.lr").set(lr);
            if epoch_secs > 0.0 {
                metrics.gauge("train.pairs_per_sec").set(pairs as f64 / epoch_secs);
                // "Vectors" in the paper's sense: vertex rows touched per
                // second (every vertex's row is updated each epoch).
                metrics.gauge("train.vectors_per_sec").set(n as f64 / epoch_secs);
            }
            // Liveness + progress for external watchers: a scraper seeing
            // the heartbeat stall knows training is wedged, and the
            // progress/ETA gauges answer "how long until this run is done"
            // without parsing logs. ETA extrapolates this run's own pace
            // over the epochs still scheduled.
            metrics.counter("train.heartbeat").inc();
            metrics.gauge("train.progress").set(frac.clamp(0.0, 1.0));
            let epochs_done_here = (epoch + 1 - start_epoch) as f64;
            let secs_per_epoch = run_started.elapsed().as_secs_f64() / epochs_done_here;
            let eta_secs = secs_per_epoch * (config.epochs - epoch - 1) as f64;
            metrics.gauge("train.eta_secs").set(eta_secs);
            v2v_obs::record_event(
                v2v_obs::Event::new(
                    "train.epoch",
                    "",
                    &format!(
                        "epoch {epoch}: loss {avg:.5}, {pairs} pairs, eta {eta_secs:.1}s"
                    ),
                )
                .with_latency_ms(epoch_secs * 1e3),
            );
            // Thread-level liveness: bounded `train.thread.N.*` gauges for
            // scrapers plus one flight event per worker per epoch, so
            // `/tracez` and SIGUSR1 dumps show which workers made progress
            // (a wedged or starved worker shows up as a 0-pair event).
            workers.publish(metrics);
            for (w, snap) in workers.snapshot().iter().enumerate() {
                let before = prev_pairs.get(w).copied().unwrap_or(0);
                if prev_pairs.len() <= w {
                    prev_pairs.resize(w + 1, 0);
                }
                prev_pairs[w] = snap.pairs;
                let wait_ms = snap.wait_ns as f64 / 1e6;
                v2v_obs::record_event(
                    v2v_obs::Event::new(
                        "train.thread",
                        "",
                        &format!(
                            "epoch {epoch} thread {w}: {} pairs (+{}), wait {wait_ms:.1}ms total",
                            snap.pairs,
                            snap.pairs - before,
                        ),
                    )
                    .with_latency_ms(epoch_secs * 1e3),
                );
            }
            v2v_obs::obs_debug!(
                "epoch {epoch}: loss {avg:.5}, {pairs} pairs in {epoch_secs:.3}s (lr {lr:.5})"
            );

            if let (Some(tol), Some(prev)) = (config.convergence_tol, prev) {
                let rel_improvement = if prev > 0.0 { (prev - avg) / prev } else { 0.0 };
                if rel_improvement < tol {
                    stats.converged = true;
                }
            }

            if let Some(opts) = ckpt {
                epochs_since_ckpt += 1;
                let last = stats.converged || epoch + 1 == config.epochs;
                let due = epochs_since_ckpt >= opts.every_epochs.max(1)
                    || opts
                        .every_secs
                        .is_some_and(|t| last_ckpt_at.elapsed().as_secs_f64() >= t);
                if due || last {
                    write_checkpoint(stats)?;
                    last_ckpt_at = std::time::Instant::now();
                    epochs_since_ckpt = 0;
                }
            }
            if stats.converged {
                break;
            }
        }
        Ok(())
    };

    run_all(&mut stats)?;
    drop(train_span);
    stats.concurrency = workers.report();

    Ok((Embedding::from_flat(dim, syn0.into_vec()), stats))
}

/// Partial retraining for streaming updates: warm-starts `syn0` from
/// `base` and runs `config.epochs` of the normal walk loop over `source`,
/// but gradient writes land only on rows with `trainable[row] == true` —
/// everything else is frozen at its base value. Rows beyond `base.len()`
/// (vertices the stream introduced) get the standard word2vec
/// initialization from the config seed.
///
/// Freezing is write-masking, not graph surgery: frozen rows still
/// participate in forward passes and context averages, so the tuned rows
/// settle *against* the frozen embedding rather than drifting off on
/// their own — which is what keeps a partial refresh consistent with the
/// full model it patches.
pub fn fine_tune<S: WalkSource + ?Sized>(
    base: &Embedding,
    source: &S,
    config: &EmbedConfig,
    trainable: &[bool],
) -> Result<(Embedding, TrainStats), String> {
    config.validate()?;
    let n = source.num_vertices();
    if n == 0 || source.num_tokens() == 0 {
        return Err("cannot fine-tune on an empty corpus".into());
    }
    if base.len() > n {
        return Err(format!(
            "fine-tune source covers {n} vertices but the base embedding has {}",
            base.len()
        ));
    }
    if trainable.len() != n {
        return Err(format!(
            "trainable mask covers {} vertices, source has {n}",
            trainable.len()
        ));
    }
    if base.dimensions() != config.dimensions {
        return Err(format!(
            "base embedding is {}-dimensional, config wants {}",
            base.dimensions(),
            config.dimensions
        ));
    }

    let dim = config.dimensions;
    let counts = source.token_counts();
    let (sampler, huffman, out_rows) = match config.output {
        OutputLayer::NegativeSampling { .. } => (Some(NegativeSampler::new(&counts)), None, n),
        OutputLayer::HierarchicalSoftmax => {
            let tree = HuffmanTree::new(&counts);
            let rows = tree.num_inner_nodes().max(1);
            (None, Some(tree), rows)
        }
    };

    // Warm start: base rows verbatim, new rows word2vec-initialized from a
    // seed derived the same way as a fresh run over the grown vertex set.
    let mut init = Vec::with_capacity(n * dim);
    init.extend_from_slice(base.as_flat());
    if n > base.len() {
        let mut rng = Rng::seed_from_u64(derive_seed(config.seed, 0x1217, n as u64));
        init.extend((0..(n - base.len()) * dim).map(|_| (rng.gen_f32() - 0.5) / dim as f32));
    }
    let syn0 = HogwildMatrix::from_vec(n, dim, init);
    let syn1 = HogwildMatrix::zeros(out_rows, dim);
    let sigmoid = SigmoidTable::new();

    let keep_prob: Option<Vec<f32>> = config.subsample.map(|t| {
        let total: u64 = counts.iter().sum();
        counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    return 1.0;
                }
                let f = c as f64 / total as f64;
                (((f / t).sqrt() + 1.0) * (t / f)).min(1.0) as f32
            })
            .collect()
    });

    let schedule_total = source.num_tokens() as u64 * config.epochs as u64;
    let processed = AtomicU64::new(0);
    let ctx = TrainContext {
        config,
        syn0: &syn0,
        syn1: &syn1,
        sigmoid: &sigmoid,
        sampler: sampler.as_ref(),
        huffman: huffman.as_ref(),
        processed: &processed,
        schedule_total,
        keep_prob: keep_prob.as_deref(),
        trainable: Some(trainable),
    };

    let mut stats = TrainStats {
        epochs_run: 0,
        epoch_losses: Vec::with_capacity(config.epochs),
        total_pairs: 0,
        converged: false,
        resumed_from: None,
        concurrency: ConcurrencyReport::default(),
    };
    let workers = WorkerTable::new();
    let metrics = v2v_obs::global_metrics();
    for epoch in 0..config.epochs {
        let (loss, pairs) = if config.threads == 1 {
            run_epoch_sequential(source, &ctx, epoch as u64, &workers)
        } else {
            run_epoch_parallel(source, &ctx, epoch as u64, &workers)
        };
        stats.epochs_run += 1;
        stats.total_pairs += pairs;
        let avg = if pairs == 0 { 0.0 } else { loss / pairs as f64 };
        let prev = stats.epoch_losses.last().copied();
        stats.epoch_losses.push(avg);
        metrics.counter("train.finetune.epochs").inc();
        metrics.counter("train.finetune.pairs").add(pairs);
        if let (Some(tol), Some(prev)) = (config.convergence_tol, prev) {
            if prev > 0.0 && (prev - avg) / prev < tol {
                stats.converged = true;
                break;
            }
        }
    }
    Ok((Embedding::from_flat(dim, syn0.into_vec()), stats))
}

/// Shared references for one training run.
struct TrainContext<'a> {
    config: &'a EmbedConfig,
    syn0: &'a HogwildMatrix,
    syn1: &'a HogwildMatrix,
    sigmoid: &'a SigmoidTable,
    sampler: Option<&'a NegativeSampler>,
    huffman: Option<&'a HuffmanTree>,
    processed: &'a AtomicU64,
    schedule_total: u64,
    /// Per-vocabulary-item keep probability when subsampling is on.
    keep_prob: Option<&'a [f32]>,
    /// Per-row trainability mask for [`fine_tune`]: `syn0` row `i` takes
    /// gradient writes only when `trainable[i]`. `None` (full training)
    /// compiles to the unconditional write path — bit-identical to the
    /// trainer before this field existed. Output rows are never masked;
    /// frozen rows still shape their neighbors' gradients through the
    /// forward pass, they just don't move.
    trainable: Option<&'a [bool]>,
}

/// Whether `syn0` row `row` may be written under this context's mask.
#[inline(always)]
fn row_trainable(ctx: &TrainContext<'_>, row: usize) -> bool {
    ctx.trainable.is_none_or(|m| m[row])
}

/// Per-thread scratch reused across walks: the CBOW hidden activation,
/// the input-gradient accumulator and the current pair's pre-drawn
/// negatives. Saves a heap allocation per walk for each; resized (rarely)
/// when the dimensionality changes between runs.
struct Scratch {
    h: Vec<f32>,
    neu1e: Vec<f32>,
    negs: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch { h: Vec::new(), neu1e: Vec::new(), negs: Vec::new() })
    };
}

/// Worker count for one parallel epoch: `threads == 0` means the machine
/// default; never more workers than walks, never fewer than one.
fn resolve_workers(threads: usize, walks: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    t.min(walks).max(1)
}

/// One Hogwild epoch on explicit scoped workers.
///
/// The walk list splits into one contiguous static chunk per worker; walks
/// keep their *global* indexes, so per-walk RNG streams do not depend on
/// the split.
/// Each worker records into its own cache-line-padded [`WorkerTable`]
/// slot: pairs and walks as it goes, busy time per chunk, and — computed
/// by the parent after the join — how long it sat at the epoch barrier
/// waiting for the slowest sibling. That wait is
/// wall-clock by construction: a blocked thread burns no CPU, so the
/// SIGPROF profiler cannot see it, and these two measurements are
/// deliberately complementary (profiler = CPU split, slots = wall split).
fn run_epoch_parallel<S: WalkSource + ?Sized>(
    source: &S,
    ctx: &TrainContext<'_>,
    epoch: u64,
    workers: &WorkerTable,
) -> (f64, u64) {
    let num_walks = source.num_walks();
    let n_workers = resolve_workers(ctx.config.threads, num_walks);
    let chunk = num_walks.div_ceil(n_workers);
    let results: Vec<(f64, u64, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                let lo = (w * chunk).min(num_walks);
                let hi = ((w + 1) * chunk).min(num_walks);
                s.spawn(move || {
                    let slot = workers.slot(w);
                    let started = Instant::now();
                    set_phase(Phase::WalkFetch);
                    let mut loss = 0.0f64;
                    let mut pairs = 0u64;
                    source.for_each_walk_in(lo..hi, &mut |idx, walk| {
                        let (l, p) = train_walk(walk, idx, epoch, ctx);
                        loss += l;
                        pairs += p;
                        slot.add_walk(p);
                    });
                    slot.add_busy(started.elapsed().as_nanos() as u64);
                    set_phase(Phase::BarrierWait);
                    (loss, pairs, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("training worker panicked")).collect()
    });
    // The barrier "ends" when the slowest worker finishes; everyone else's
    // gap to that instant is time this epoch's static split wasted.
    let barrier_end = results.iter().map(|r| r.2).max().expect("at least one worker");
    let mut total = (0.0f64, 0u64);
    for (w, (loss, pairs, done)) in results.into_iter().enumerate() {
        workers
            .slot(w)
            .add_wait(barrier_end.duration_since(done).as_nanos() as u64);
        total.0 += loss;
        total.1 += pairs;
    }
    total
}

/// The `threads == 1` path: bit-identical to previous releases (checkpoint
/// resume tests depend on it), but it still records worker-0 telemetry so
/// single-thread runs get the same attribution columns.
fn run_epoch_sequential<S: WalkSource + ?Sized>(
    source: &S,
    ctx: &TrainContext<'_>,
    epoch: u64,
    workers: &WorkerTable,
) -> (f64, u64) {
    let slot = workers.slot(0);
    let started = Instant::now();
    set_phase(Phase::WalkFetch);
    let mut loss = 0.0;
    let mut pairs = 0u64;
    source.for_each_walk_in(0..source.num_walks(), &mut |idx, walk| {
        let (l, p) = train_walk(walk, idx, epoch, ctx);
        loss += l;
        pairs += p;
        slot.add_walk(p);
    });
    slot.add_busy(started.elapsed().as_nanos() as u64);
    set_phase(Phase::Idle);
    (loss, pairs)
}

/// Trains on one walk; returns (summed loss, pair count).
///
/// Dispatches **once per walk** into a per-backend instantiation of
/// [`train_walk_body`]. Per-kernel-call dispatch is ruinous here: a pair
/// update issues dozens of row kernels on dim-32..128 rows, and each
/// opaque call clobbers the caller-saved SIMD registers and re-checks CPU
/// features. Instantiating the whole walk loop per backend lets every
/// kernel inline and keeps rows in registers across adjacent kernels.
fn train_walk(walk: &[VertexId], walk_idx: u64, epoch: u64, ctx: &TrainContext<'_>) -> (f64, u64) {
    match kernels::backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `backend()` returns `Avx2Fma` only after runtime
        // detection of AVX2+FMA on this CPU.
        kernels::Backend::Avx2Fma => unsafe { train_walk_avx2(walk, walk_idx, epoch, ctx) },
        #[cfg(not(target_arch = "x86_64"))]
        kernels::Backend::Avx2Fma => unreachable!("avx2fma backend is x86-64 only"),
        kernels::Backend::Unrolled => {
            train_walk_body::<kernels::UnrolledKernels>(walk, walk_idx, epoch, ctx)
        }
        kernels::Backend::Scalar => {
            train_walk_body::<kernels::ScalarKernels>(walk, walk_idx, epoch, ctx)
        }
    }
}

/// The walk loop compiled with AVX2+FMA codegen: under the
/// `#[target_feature]` wrapper the `Avx2FmaKernels` calls inline into the
/// loop and the surrounding glue (scratch fills, hidden-layer averaging)
/// is vectorized with the same features.
///
/// # Safety
/// Requires AVX2+FMA; only called from the `Backend::Avx2Fma` dispatch arm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn train_walk_avx2(
    walk: &[VertexId],
    walk_idx: u64,
    epoch: u64,
    ctx: &TrainContext<'_>,
) -> (f64, u64) {
    train_walk_body::<kernels::Avx2FmaKernels>(walk, walk_idx, epoch, ctx)
}

/// One walk of training, generic over the compile-time kernel set.
///
/// All `K` calls are `unsafe` because they skip length checks and, for the
/// AVX2 backend, require CPU support; see the SAFETY notes inline. Every
/// kernel call in the body pairs equal-length buffers by construction:
/// `h` and `neu1e` are sized to `dim == syn0.cols() == syn1.cols()`.
#[inline(always)]
fn train_walk_body<K: kernels::Kernels>(
    walk: &[VertexId],
    walk_idx: u64,
    epoch: u64,
    ctx: &TrainContext<'_>,
) -> (f64, u64) {
    let dim = ctx.config.dimensions;
    let window = ctx.config.window;
    // Phase tags for the SIGPROF profiler: each `set_phase` is one plain
    // TLS byte store (~1 ns against ~350 ns per pair), transition points
    // chosen so the sampled split answers "where do the cycles go" —
    // walk setup vs hidden layer vs output kernels vs input gradient.
    set_phase(Phase::WalkFetch);
    let mut rng =
        Rng::seed_from_u64(derive_seed(ctx.config.seed ^ 0x7A1B, epoch, walk_idx));

    // Linear LR decay from the shared token counter, re-read per walk
    // (word2vec re-reads every 10k words; per-walk is the same idea).
    let done = ctx.processed.fetch_add(walk.len() as u64, Ordering::Relaxed);
    let frac = done as f32 / ctx.schedule_total.max(1) as f32;
    let lr = (ctx.config.initial_lr * (1.0 - frac)).max(ctx.config.initial_lr * 1e-4);

    let mut loss = 0.0f64;
    let mut pairs = 0u64;

    // Frequent-vertex subsampling happens before windowing, exactly as in
    // word2vec (the window then spans the *retained* tokens).
    let filtered: Vec<VertexId>;
    let walk: &[VertexId] = match ctx.keep_prob {
        None => walk,
        Some(keep) => {
            filtered = walk
                .iter()
                .copied()
                .filter(|v| rng.gen_f32() < keep[v.index()])
                .collect();
            &filtered
        }
    };

    SCRATCH.with(|scratch| {
        let Scratch { h, neu1e, negs } = &mut *scratch.borrow_mut();
        if h.len() != dim {
            h.clear();
            h.resize(dim, 0.0);
            neu1e.clear();
            neu1e.resize(dim, 0.0);
        }

        for (i, &center) in walk.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(walk.len());
            let ctx_len = hi - lo - 1;
            if ctx_len == 0 {
                continue;
            }
            pairs += 1;
            match ctx.config.architecture {
                Architecture::Cbow => {
                    set_phase(Phase::OutputUpdate);
                    draw_negatives(center.index(), &mut rng, negs, ctx);
                    // h = average of the context input vectors, whole rows
                    // at a time through the SIMD kernels.
                    set_phase(Phase::Forward);
                    h.fill(0.0);
                    for j in lo..hi {
                        if j != i {
                            // SAFETY: equal lengths (`dim`); K chosen by dispatch.
                            unsafe { K::axpy(1.0, ctx.syn0.row(walk[j].index()), h) };
                        }
                    }
                    let inv = 1.0 / ctx_len as f32;
                    // SAFETY: K chosen by dispatch.
                    unsafe { K::scale(h, inv) };
                    neu1e.fill(0.0);

                    set_phase(Phase::OutputUpdate);
                    loss += train_output::<K>(center.index(), h, neu1e, lr, negs, ctx);
                    set_phase(Phase::Gradient);

                    // The true gradient of the averaged hidden layer w.r.t.
                    // each input vector is neu1e / |context| (the "cbow_mean
                    // gradient fix"; word2vec.c skips the division, which
                    // inflates the input step by the window size and destroys
                    // small-vocabulary embeddings as training lengthens).
                    for j in lo..hi {
                        if j != i && row_trainable(ctx, walk[j].index()) {
                            // SAFETY: equal lengths (`dim`); K chosen by dispatch.
                            unsafe { K::axpy(inv, neu1e, ctx.syn0.row_mut(walk[j].index())) };
                        }
                    }
                }
                Architecture::SkipGram => {
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        // No forward pass to hide the prefetch behind here:
                        // the neu1e reset is all that precedes the output
                        // layer, so the whole pair is output_update.
                        set_phase(Phase::OutputUpdate);
                        draw_negatives(center.index(), &mut rng, negs, ctx);
                        let input = walk[j].index();
                        neu1e.fill(0.0);
                        // The input row is used directly as the hidden
                        // activation (as in word2vec.c) — no per-pair copy.
                        // It is only *read* until train_output returns;
                        // racing Hogwild writers are accepted noise.
                        loss += train_output::<K>(
                            center.index(),
                            ctx.syn0.row(input),
                            neu1e,
                            lr,
                            negs,
                            ctx,
                        );
                        set_phase(Phase::Gradient);
                        if row_trainable(ctx, input) {
                            // SAFETY: equal lengths (`dim`); K chosen by dispatch.
                            unsafe { K::axpy(1.0, neu1e, ctx.syn0.row_mut(input)) };
                        }
                    }
                }
            }
        }
    });
    (loss, pairs)
}

/// Draws the negatives of one pair with positive `target` into `negs` and
/// prefetches the output rows of the positive and every negative, so the
/// loads overlap the forward pass instead of stalling each `dot` in
/// [`train_output`] — under Hogwild another core has usually just written
/// those rows. Hierarchical softmax draws nothing.
#[inline(always)]
fn draw_negatives(target: usize, rng: &mut Rng, negs: &mut Vec<usize>, ctx: &TrainContext<'_>) {
    let OutputLayer::NegativeSampling { negatives } = ctx.config.output else {
        return;
    };
    let sampler = ctx.sampler.expect("sampler built for negative sampling");
    negs.clear();
    negs.extend((0..negatives).map(|_| sampler.sample(rng, target)));
    kernels::prefetch(ctx.syn1.row(target));
    for &t in negs.iter() {
        kernels::prefetch(ctx.syn1.row(t));
    }
}

/// One output-layer update for hidden activation `h` and target word
/// `target`; accumulates the input gradient into `neu1e` and returns the
/// loss contribution. Under negative sampling the negatives are `negs`,
/// pre-drawn by [`draw_negatives`] before the forward pass. Generic over
/// the compile-time kernel set so the dot/axpy calls inline into the
/// per-backend walk loop.
#[inline(always)]
fn train_output<K: kernels::Kernels>(
    target: usize,
    h: &[f32],
    neu1e: &mut [f32],
    lr: f32,
    negs: &[usize],
    ctx: &TrainContext<'_>,
) -> f64 {
    let mut loss = 0.0f64;
    match ctx.config.output {
        OutputLayer::NegativeSampling { .. } => {
            let samples = std::iter::once((target, 1.0f32)).chain(negs.iter().map(|&t| (t, 0.0)));
            for (t, label) in samples {
                let row = ctx.syn1.row(t);
                // SAFETY: all rows and scratch share length `dim`; K chosen
                // by dispatch (availability verified).
                let f = unsafe { K::dot(row, h) };
                let sig = ctx.sigmoid.get(f);
                loss += ctx.sigmoid.neg_log(if label == 1.0 { f } else { -f }) as f64;
                let g = (label - sig) * lr;
                // SAFETY: as above.
                unsafe { K::axpy(g, row, neu1e) };
                // SAFETY: as above.
                unsafe { K::axpy(g, h, ctx.syn1.row_mut(t)) };
            }
        }
        OutputLayer::HierarchicalSoftmax => {
            let tree = ctx.huffman.expect("tree built for hierarchical softmax");
            let code = tree.code(target);
            let point = tree.point(target);
            for (&p, &bit) in point.iter().zip(code) {
                let row = ctx.syn1.row(p as usize);
                // SAFETY: all rows and scratch share length `dim`; K chosen
                // by dispatch (availability verified).
                let f = unsafe { K::dot(row, h) };
                let sig = ctx.sigmoid.get(f);
                // code bit 0 -> label 1, bit 1 -> label 0 (word2vec).
                let label = 1.0 - bit as u8 as f32;
                loss += ctx.sigmoid.neg_log(if bit { -f } else { f }) as f64;
                let g = (label - sig) * lr;
                // SAFETY: as above.
                unsafe { K::axpy(g, row, neu1e) };
                // SAFETY: as above.
                unsafe { K::axpy(g, h, ctx.syn1.row_mut(p as usize)) };
            }
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_graph::generators;
    use v2v_walks::WalkConfig;

    pub(super) fn small_corpus(seed: u64) -> WalkCorpus {
        // Two cliques of 6 joined by one bridge edge: clear structure.
        let mut b = v2v_graph::GraphBuilder::new_undirected();
        for base in [0u32, 6] {
            for u in 0..6 {
                for v in (u + 1)..6 {
                    b.add_edge(VertexId(base + u), VertexId(base + v));
                }
            }
        }
        b.add_edge(VertexId(0), VertexId(6));
        let g = b.build().unwrap();
        let cfg = WalkConfig { walks_per_vertex: 20, walk_length: 20, seed, ..Default::default() };
        WalkCorpus::generate(&g, &cfg).unwrap()
    }

    pub(super) fn quick_config() -> EmbedConfig {
        EmbedConfig { dimensions: 16, epochs: 3, threads: 1, ..Default::default() }
    }

    #[test]
    fn fine_tune_moves_only_trainable_rows() {
        let corpus = small_corpus(3);
        let cfg = quick_config();
        let (base, _) = train(&corpus, &cfg).unwrap();
        let n = base.len();
        // Only the first clique's vertices may move.
        let mask: Vec<bool> = (0..n).map(|i| i < 6).collect();
        let (tuned, stats) = fine_tune(&base, &corpus, &cfg, &mask).unwrap();
        assert!(stats.total_pairs > 0);
        assert_eq!(tuned.len(), n);
        for i in 0..n {
            let same = tuned.vector(VertexId(i as u32)) == base.vector(VertexId(i as u32));
            if mask[i] {
                assert!(!same, "trainable row {i} never moved");
            } else {
                assert!(same, "frozen row {i} moved");
            }
        }
    }

    #[test]
    fn fine_tune_all_frozen_is_identity() {
        let corpus = small_corpus(4);
        let cfg = quick_config();
        let (base, _) = train(&corpus, &cfg).unwrap();
        let mask = vec![false; base.len()];
        let (tuned, _) = fine_tune(&base, &corpus, &cfg, &mask).unwrap();
        assert_eq!(tuned.as_flat(), base.as_flat());
    }

    #[test]
    fn fine_tune_rejects_shape_mismatches() {
        let corpus = small_corpus(5);
        let cfg = quick_config();
        let (base, _) = train(&corpus, &cfg).unwrap();
        assert!(fine_tune(&base, &corpus, &cfg, &[true; 3]).is_err(), "short mask");
        let fat = EmbedConfig { dimensions: 32, ..quick_config() };
        assert!(
            fine_tune(&base, &corpus, &fat, &vec![true; base.len()]).is_err(),
            "dimension mismatch"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let corpus = small_corpus(1);
        let (_, stats) = train(&corpus, &quick_config()).unwrap();
        assert_eq!(stats.epochs_run, 3);
        assert_eq!(stats.epoch_losses.len(), 3);
        assert!(
            stats.epoch_losses[2] < stats.epoch_losses[0],
            "loss did not decrease: {:?}",
            stats.epoch_losses
        );
        assert!(stats.total_pairs > 0);
    }

    #[test]
    fn embedding_separates_cliques() {
        let corpus = small_corpus(2);
        let cfg = EmbedConfig { epochs: 8, ..quick_config() };
        let (emb, _) = train(&corpus, &cfg).unwrap();
        // Average within-clique similarity must beat cross-clique.
        let mut within = 0.0;
        let mut across = 0.0;
        let mut wn = 0;
        let mut an = 0;
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                let s = emb.cosine_similarity(VertexId(a), VertexId(b));
                if (a < 6) == (b < 6) {
                    within += s;
                    wn += 1;
                } else {
                    across += s;
                    an += 1;
                }
            }
        }
        let within = within / wn as f32;
        let across = across / an as f32;
        assert!(
            within > across + 0.1,
            "within {within} not clearly above across {across}"
        );
    }

    #[test]
    fn deterministic_single_thread() {
        let corpus = small_corpus(3);
        let cfg = quick_config();
        let (a, _) = train(&corpus, &cfg).unwrap();
        let (b, _) = train(&corpus, &cfg).unwrap();
        assert_eq!(a, b);
        let cfg2 = EmbedConfig { seed: 999, ..cfg };
        let (c, _) = train(&corpus, &cfg2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn hierarchical_softmax_trains() {
        let corpus = small_corpus(4);
        let cfg = EmbedConfig {
            output: OutputLayer::HierarchicalSoftmax,
            epochs: 5,
            ..quick_config()
        };
        let (emb, stats) = train(&corpus, &cfg).unwrap();
        assert_eq!(emb.len(), 12);
        assert!(stats.epoch_losses[4] < stats.epoch_losses[0]);
        assert!(emb.as_flat().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn skipgram_trains_and_separates() {
        let corpus = small_corpus(5);
        let cfg = EmbedConfig {
            architecture: Architecture::SkipGram,
            epochs: 5,
            ..quick_config()
        };
        let (emb, stats) = train(&corpus, &cfg).unwrap();
        assert!(stats.epoch_losses[4] < stats.epoch_losses[0]);
        let same = emb.cosine_similarity(VertexId(1), VertexId(2));
        let diff = emb.cosine_similarity(VertexId(1), VertexId(8));
        assert!(same > diff, "skipgram: same-clique {same} <= cross {diff}");
    }

    #[test]
    fn convergence_stops_early() {
        let corpus = small_corpus(6);
        let cfg = EmbedConfig {
            epochs: 50,
            convergence_tol: Some(0.5), // absurdly lax: stops immediately
            ..quick_config()
        };
        let (_, stats) = train(&corpus, &cfg).unwrap();
        assert!(stats.converged);
        assert!(stats.epochs_run < 50, "ran {} epochs", stats.epochs_run);
    }

    #[test]
    fn parallel_training_produces_finite_sensible_vectors() {
        let corpus = small_corpus(7);
        let cfg = EmbedConfig { threads: 4, epochs: 6, ..quick_config() };
        let (emb, _) = train(&corpus, &cfg).unwrap();
        assert!(emb.as_flat().iter().all(|x| x.is_finite()));
        let same = emb.cosine_similarity(VertexId(1), VertexId(2));
        let diff = emb.cosine_similarity(VertexId(1), VertexId(8));
        assert!(same > diff, "hogwild: same-clique {same} <= cross {diff}");
    }

    #[test]
    fn parallel_training_attributes_work_per_thread() {
        let corpus = small_corpus(14);
        let cfg = EmbedConfig { threads: 3, epochs: 2, ..quick_config() };
        let (_, stats) = train(&corpus, &cfg).unwrap();
        let report = &stats.concurrency;
        assert_eq!(report.threads, 3);
        assert_eq!(
            report.per_thread_pairs.iter().sum::<u64>(),
            stats.total_pairs,
            "per-thread pairs must account for every trained pair: {report:?}"
        );
        assert!(report.per_thread_pairs.iter().all(|&p| p > 0), "a worker starved: {report:?}");
        assert!(report.throughput_skew >= 1.0);
        assert!((0.0..1.0).contains(&report.barrier_wait_frac), "{report:?}");
    }

    #[test]
    fn sequential_training_reports_single_worker() {
        let corpus = small_corpus(15);
        let (_, stats) = train(&corpus, &quick_config()).unwrap();
        let report = &stats.concurrency;
        assert_eq!(report.threads, 1);
        assert_eq!(report.per_thread_pairs, vec![stats.total_pairs]);
        assert_eq!(report.barrier_wait_frac, 0.0, "one worker never waits at a barrier");
    }

    #[test]
    fn more_threads_than_walks_clamps() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 100), 2);
        assert!(resolve_workers(0, 100) >= 1, "0 resolves to the machine default");
        assert_eq!(resolve_workers(5, 0), 1, "empty corpora still get one worker");
    }

    #[test]
    fn empty_corpus_rejected() {
        let g = v2v_graph::GraphBuilder::new_undirected().build().unwrap();
        let corpus = WalkCorpus::generate(&g, &WalkConfig::default()).unwrap();
        assert!(train(&corpus, &quick_config()).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let corpus = small_corpus(8);
        let cfg = EmbedConfig { dimensions: 0, ..Default::default() };
        assert!(train(&corpus, &cfg).is_err());
    }

    #[test]
    fn training_emits_progress_telemetry() {
        let corpus = small_corpus(9);
        train(&corpus, &quick_config()).unwrap();
        // The registry is process-global, so assert presence + sanity, not
        // exact values (other tests train concurrently).
        let snap = v2v_obs::global_metrics().snapshot();
        assert!(snap.counters.get("train.heartbeat").copied().unwrap_or(0) >= 3);
        let progress = snap.gauges["train.progress"];
        assert!((0.0..=1.0).contains(&progress), "progress {progress}");
        assert!(snap.gauges["train.eta_secs"] >= 0.0);
        assert!(snap.gauges["train.vectors_per_sec"] > 0.0);
        let events = v2v_obs::global_recorder().snapshot();
        assert!(
            events.iter().any(|e| e.kind == "train.epoch"),
            "per-epoch flight events missing"
        );
    }

    #[test]
    fn embedding_len_matches_graph() {
        let g = generators::ring(9);
        let wc = WalkConfig { walks_per_vertex: 2, walk_length: 10, ..Default::default() };
        let corpus = WalkCorpus::generate(&g, &wc).unwrap();
        let (emb, _) = train(&corpus, &quick_config()).unwrap();
        assert_eq!(emb.len(), 9);
        assert_eq!(emb.dimensions(), 16);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::tests::{quick_config, small_corpus};
    use super::*;
    use crate::checkpoint::path_in;
    use std::path::PathBuf;
    use std::sync::Mutex;
    use v2v_fault::{Fault, FaultPlan};

    /// Fault points are process-global and count every checkpoint write
    /// in the process: the test that arms `train.checkpoint` holds this,
    /// and so does every test that writes checkpoints, so no write of
    /// another test can use up or trip that plan.
    static FAULT_LOCK: Mutex<()> = Mutex::new(());

    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v_ckpt_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointing_does_not_change_the_result() {
        let _guard = fault_lock();
        let corpus = small_corpus(30);
        let cfg = EmbedConfig { epochs: 4, ..quick_config() };
        let (plain, plain_stats) = train(&corpus, &cfg).unwrap();

        let dir = scratch("same");
        let opts = CheckpointOptions::new(dir.clone());
        let (ckpt, stats) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        assert_eq!(plain, ckpt, "checkpointing must not perturb training");
        assert_eq!(stats.resumed_from, None);
        assert_eq!(plain_stats.epoch_losses, stats.epoch_losses);

        let on_disk = TrainCheckpoint::load(&path_in(&dir)).unwrap();
        assert_eq!(on_disk.next_epoch, 4);
        assert_eq!(on_disk.epoch_losses.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The in-process equivalent of `kill -9` mid-run: fail the 4th
    /// checkpoint write (epochs 1–3 land durably), then resume and demand
    /// the exact bits an uninterrupted run produces.
    #[test]
    fn resume_after_interrupted_run_is_bit_identical() {
        let _guard = fault_lock();
        let corpus = small_corpus(31);
        let cfg = EmbedConfig { epochs: 6, ..quick_config() };
        let (full, full_stats) = train(&corpus, &cfg).unwrap();

        let dir = scratch("resume");
        let opts = CheckpointOptions::new(dir.clone());
        v2v_fault::arm("train.checkpoint", FaultPlan::nth(3, Fault::Error));
        let err = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap_err();
        v2v_fault::inject::disarm("train.checkpoint");
        assert!(err.contains("injected fault"), "{err}");
        let on_disk = TrainCheckpoint::load(&path_in(&dir)).unwrap();
        assert_eq!(on_disk.next_epoch, 3, "last durable checkpoint is epoch 3");

        let opts = CheckpointOptions { resume: true, ..opts };
        let (resumed, stats) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        assert_eq!(stats.resumed_from, Some(3));
        assert_eq!(stats.epochs_run, 6);
        assert_eq!(resumed, full, "resumed run must equal the uninterrupted run");
        assert_eq!(stats.epoch_losses, full_stats.epoch_losses);
        assert_eq!(stats.total_pairs, full_stats.total_pairs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_refuses_resume() {
        let _guard = fault_lock();
        let corpus = small_corpus(32);
        let cfg = EmbedConfig { epochs: 2, ..quick_config() };
        let dir = scratch("mismatch");
        let opts = CheckpointOptions { resume: true, ..CheckpointOptions::new(dir.clone()) };
        train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();

        let other = EmbedConfig { dimensions: 8, ..cfg };
        let err = train_with_checkpoints(&corpus, &other, Some(&opts)).unwrap_err();
        assert!(err.contains("different config"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_trained_checkpoint_resumes_to_noop() {
        let _guard = fault_lock();
        let corpus = small_corpus(33);
        let cfg = EmbedConfig { epochs: 3, ..quick_config() };
        let dir = scratch("noop");
        let opts = CheckpointOptions { resume: true, ..CheckpointOptions::new(dir.clone()) };
        let (a, _) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        let (b, stats) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        assert_eq!(a, b, "no epochs left: weights come straight from the checkpoint");
        assert_eq!(stats.resumed_from, Some(3));
        assert_eq!(stats.epochs_run, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Without `resume` an existing checkpoint is ignored (and replaced).
    #[test]
    fn no_resume_flag_starts_fresh() {
        let _guard = fault_lock();
        let corpus = small_corpus(34);
        let cfg = EmbedConfig { epochs: 2, ..quick_config() };
        let dir = scratch("fresh");
        let opts = CheckpointOptions::new(dir.clone());
        train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        let (_, stats) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        assert_eq!(stats.resumed_from, None);
        assert_eq!(stats.epochs_run, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Convergence-based early stop still lands a final checkpoint.
    #[test]
    fn early_stop_writes_final_checkpoint() {
        let _guard = fault_lock();
        let corpus = small_corpus(35);
        let cfg =
            EmbedConfig { epochs: 50, convergence_tol: Some(0.5), ..quick_config() };
        let dir = scratch("converge");
        let opts = CheckpointOptions {
            every_epochs: usize::MAX,
            ..CheckpointOptions::new(dir.clone())
        };
        let (_, stats) = train_with_checkpoints(&corpus, &cfg, Some(&opts)).unwrap();
        assert!(stats.converged);
        let on_disk = TrainCheckpoint::load(&path_in(&dir)).unwrap();
        assert_eq!(on_disk.next_epoch, stats.epochs_run);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Byte pins on trained weights: one FNV-1a 64 of the `threads: 1` output
/// bits per output-layer path, captured before negatives were drawn ahead
/// of the forward pass. The RNG stream and the arithmetic order must not
/// move, so neither may these. SIMD reassociates sums, so each backend has
/// its own literal (the unrolled one cannot be forced from a test and goes
/// unpinned).
#[cfg(test)]
mod pin_tests {
    use super::tests::{quick_config, small_corpus};
    use super::*;
    use v2v_base::hash::{fnv1a64, FNV_OFFSET};

    fn bits(emb: &Embedding) -> u64 {
        let bytes: Vec<u8> = emb.as_flat().iter().flat_map(|x| x.to_le_bytes()).collect();
        fnv1a64(FNV_OFFSET, &bytes)
    }

    #[test]
    fn trained_bits_are_pinned() {
        // (case, avx2fma, scalar)
        let pins: [(&str, u64, u64); 5] = [
            ("cbow_ns", 0xe25f_83cb_4261_5758, 0xc61b_431f_60ee_8de2),
            ("cbow_ns_subsample", 0x2284_9ccf_28e9_6612, 0x1110_2e2f_2962_9d59),
            ("skipgram_ns", 0xf2e7_cd8b_2a07_2538, 0xa82a_565a_7432_667f),
            ("cbow_hs", 0x5fff_e411_967c_9c6a, 0xf4d4_ad59_3e36_e035),
            ("fine_tune_half_mask", 0x14cd_c72d_7484_286a, 0x5508_0717_d40e_80f6),
        ];
        let scalar = match kernels::backend() {
            kernels::Backend::Avx2Fma => false,
            kernels::Backend::Scalar => true,
            kernels::Backend::Unrolled => return,
        };
        let corpus = small_corpus(40);
        let cfg = quick_config();
        let run = |cfg: &EmbedConfig| bits(&train(&corpus, cfg).unwrap().0);
        let (base, _) = train(&corpus, &cfg).unwrap();
        let mask: Vec<bool> = (0..base.len()).map(|i| i % 2 == 0).collect();
        let got = [
            run(&cfg),
            run(&EmbedConfig { subsample: Some(1e-3), ..cfg }),
            run(&EmbedConfig { architecture: Architecture::SkipGram, ..cfg }),
            run(&EmbedConfig { output: OutputLayer::HierarchicalSoftmax, ..cfg }),
            bits(&fine_tune(&base, &corpus, &cfg, &mask).unwrap().0),
        ];
        let moved: Vec<String> = pins
            .iter()
            .zip(got)
            .filter(|((_, avx2, scalar_pin), got)| *got != if scalar { *scalar_pin } else { *avx2 })
            .map(|((case, _, _), got)| format!("{case}: {got:#018x}"))
            .collect();
        assert!(moved.is_empty(), "trained bits moved on {}: {moved:?}", kernels::backend_name());
    }
}

#[cfg(test)]
mod subsample_tests {
    use super::*;
    use v2v_walks::WalkConfig;

    /// A star graph makes the hub vastly overrepresented in walks;
    /// subsampling must still train and keep all vectors finite, and the
    /// hub's effective frequency drops (measured via pair counts).
    #[test]
    fn subsampling_reduces_pairs_and_stays_finite() {
        let g = v2v_graph::generators::star(40);
        let wc = WalkConfig { walks_per_vertex: 10, walk_length: 30, ..Default::default() };
        let corpus = WalkCorpus::generate(&g, &wc).unwrap();
        let base = EmbedConfig { dimensions: 12, epochs: 2, threads: 1, ..Default::default() };

        let (emb_plain, stats_plain) = train(&corpus, &base).unwrap();
        let cfg = EmbedConfig { subsample: Some(1e-3), ..base };
        let (emb_sub, stats_sub) = train(&corpus, &cfg).unwrap();

        assert!(emb_plain.as_flat().iter().all(|x| x.is_finite()));
        assert!(emb_sub.as_flat().iter().all(|x| x.is_finite()));
        // The hub is ~half of all tokens; aggressive subsampling must cut
        // the number of training pairs substantially.
        assert!(
            stats_sub.total_pairs < stats_plain.total_pairs,
            "subsampled pairs {} not below plain {}",
            stats_sub.total_pairs,
            stats_plain.total_pairs
        );
    }

    /// With a huge threshold every token is kept: identical pair counts.
    #[test]
    fn huge_threshold_keeps_everything() {
        let g = v2v_graph::generators::ring(20);
        let wc = WalkConfig { walks_per_vertex: 3, walk_length: 20, ..Default::default() };
        let corpus = WalkCorpus::generate(&g, &wc).unwrap();
        let base = EmbedConfig { dimensions: 8, epochs: 1, threads: 1, ..Default::default() };
        let (_, plain) = train(&corpus, &base).unwrap();
        let cfg = EmbedConfig { subsample: Some(1e9), ..base };
        let (_, kept) = train(&corpus, &cfg).unwrap();
        assert_eq!(plain.total_pairs, kept.total_pairs);
    }
}
