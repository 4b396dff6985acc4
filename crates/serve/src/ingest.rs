//! Streaming ingest: durable edge updates with zero-downtime refresh.
//!
//! `POST /ingest` accepts a batch of edges, appends them to the
//! `v2v-ingest` write-ahead log (fsync'd — the 200 response *is* the
//! durability acknowledgement), and queues them for the background
//! refresh worker. The worker drains committed batches and runs the
//! incremental pipeline:
//!
//! 1. apply the edges to a [`DeltaGraph`] overlay over the (initially
//!    edgeless) base graph;
//! 2. re-walk only the affected neighborhood (touched endpoints plus one
//!    hop) with short uniform walks, stepping over the overlay itself
//!    ([`uniform_overlay_walk`]: the walks a CSR rebuilt from it would
//!    give, without the rebuild);
//! 3. fine-tune just those vertex rows ([`v2v_embed::fine_tune`] with a
//!    trainable mask — every other row is frozen bit-exact);
//! 4. patch the live HNSW incrementally ([`HnswIndex::patched`]) instead
//!    of rebuilding it;
//! 5. hot-swap the new [`ServeState`] through the [`ServeHandle`]'s
//!    [`Swap`](crate::Swap) — in-flight requests finish against the state
//!    they loaded, zero are dropped.
//!
//! What a refresh copies: the fine-tune's working rows (one copy of the
//! published rows, which keep serving meanwhile), handed back as the new
//! rows without another copy and shared, behind one [`Arc`], by the state
//! that serves them and by the engine that evolves the next refresh from
//! them; and the patched index, whose link tables and normalized vectors
//! are a `memcpy` each plus the lists the patch rewrites. Nothing is
//! rebuilt, and the patched graph is validated in one linear scan of its
//! tables.
//!
//! Overload: when the committed-but-unapplied queue would exceed its
//! bound, the request is shed with `503` + an adaptive `Retry-After`
//! ([`retry_after_secs`]) *before* anything is written — never ACKed.
//!
//! Crash recovery: on [`start`], the WAL is opened (truncating any torn
//! tail), the whole committed log replays through the same pipeline
//! *before* traffic is served, and `/healthz` reports
//! `ingest.wal_replayed`, `ingest.lag_edges`, and
//! `ingest.last_applied_seq`. The refresh state itself is in-memory: a
//! restart reconstructs it deterministically from the base embedding plus
//! the full WAL, which is why replay is keyed by sequence number and
//! idempotent.

use crate::api::{ServeHandle, ServeState, VectorSet};
use crate::hnsw::HnswIndex;
use crate::http::{retry_after_secs, Response};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use v2v_base::rng::{mix, Rng};
use v2v_embed::{fine_tune, EmbedConfig, Embedding};
use v2v_graph::{DeltaGraph, GraphBuilder, VertexId};
use v2v_ingest::{EdgeUpdate, Wal, WalRecord};
use v2v_obs::{json, obs_error, obs_info, record_event, Event};
use v2v_walks::walker::uniform_overlay_walk;
use v2v_walks::WalkCorpus;

/// Tuning for the ingest path. `Default` suits tests and small graphs;
/// the CLI exposes the queue bound.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Maximum committed-but-unapplied edges before `/ingest` sheds 503.
    pub max_pending: usize,
    /// Maximum edges folded into one refresh cycle.
    pub batch_max: usize,
    /// How far past the current vertex count an edge may grow the graph.
    pub max_new_vertices: usize,
    /// Walks started from each affected vertex per refresh.
    pub walks_per_vertex: usize,
    /// Length of each refresh walk.
    pub walk_length: usize,
    /// Fine-tune epochs per refresh.
    pub epochs: usize,
    /// Seed for refresh walks and fine-tuning.
    pub seed: u64,
    /// Mean neighbor churn per touched row above which a refresh trips
    /// `quality.retrain_advised` (CLI `--quality-churn-threshold`).
    pub churn_threshold: f64,
    /// Touched rows sampled for the per-batch churn report (bounds the
    /// quality overhead of a refresh cycle).
    pub quality_sample: usize,
    /// Neighbors per sampled row in the per-batch churn report.
    pub quality_k: usize,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            max_pending: 8192,
            batch_max: 2048,
            max_new_vertices: 1024,
            walks_per_vertex: 4,
            walk_length: 12,
            epochs: 2,
            seed: 0x1_6E57,
            churn_threshold: 0.35,
            quality_sample: 16,
            quality_k: 10,
        }
    }
}

/// The admission-ordered heart of the ingest path, behind one mutex.
///
/// Sequence assignment (the WAL append) and queue insertion must be one
/// atomic step: with a multithreaded HTTP server, two concurrent
/// `POST /ingest` calls that appended under one lock and enqueued under
/// another could enqueue out of sequence order, and the refresh worker's
/// idempotence check (`seq < next_apply_seq` → already applied) would
/// then permanently skip the reordered lower-seq records — durable but
/// never served. Holding one lock from the admission check through the
/// enqueue also makes the `max_pending` and vertex-ceiling bounds exact
/// instead of racy. The critical section includes the fsync; that
/// serializes submits, which sequence assignment requires anyway.
struct IngestCore {
    wal: Wal,
    queue: VecDeque<WalRecord>,
    /// Vertex-count ceiling over everything admitted so far (base state
    /// plus every durable or queued edge) — the strict basis for the
    /// `max_new_vertices` admission bound, independent of how far the
    /// served state lags the stream.
    admitted_vertices: usize,
}

/// Shared ingest state: the WAL + queue core (durability and ordering),
/// and the observability counters `/healthz` reports.
pub struct IngestState {
    core: Mutex<IngestCore>,
    cond: Condvar,
    config: IngestConfig,
    shed_salt: AtomicU64,
    /// Records replayed from the WAL at boot, before serving.
    wal_replayed: u64,
    last_applied: AtomicU64,
    /// Edges folded into the refresh overlay (replay + live), mirrored
    /// from the engine after each cycle — `submitted == folded` is the
    /// "nothing was skipped" invariant tests and operators check.
    folded_edges: AtomicU64,
    shutdown: AtomicBool,
}

impl IngestState {
    /// Records replayed from the WAL before this process started serving.
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Highest sequence number the refresh worker has finished applying.
    pub fn last_applied_seq(&self) -> u64 {
        self.last_applied.load(Ordering::Acquire)
    }

    /// Edges ACKed as durable but not yet folded into the served state.
    pub fn lag_edges(&self) -> usize {
        self.core.lock().unwrap().queue.len()
    }

    /// Highest sequence number that is durable on disk.
    pub fn durable_seq(&self) -> u64 {
        self.core.lock().unwrap().wal.durable_seq()
    }

    /// Edges folded into the refresh overlay so far (replayed + live).
    pub fn folded_edges(&self) -> u64 {
        self.folded_edges.load(Ordering::Acquire)
    }

    /// On-disk WAL segment count (sealed plus active).
    pub fn wal_segments(&self) -> usize {
        self.core.lock().unwrap().wal.num_segments()
    }

    /// Total durable WAL bytes across all segments.
    pub fn wal_bytes(&self) -> u64 {
        self.core.lock().unwrap().wal.size_bytes()
    }

    /// Asks the refresh worker to exit once the queue is drained.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// Handles one `POST /ingest` body. The 200 response is the
    /// durability contract: it is sent only after the WAL append has
    /// fsync'd every edge in the batch.
    pub fn submit(&self, body: &[u8]) -> Response {
        let metrics = v2v_obs::global_metrics();
        // One critical section from the admission checks through the
        // enqueue: sequence numbers enter the queue in order (the refresh
        // worker's seq-based idempotence depends on it), and the
        // max_pending / vertex-ceiling bounds are exact rather than
        // check-then-race. Parsing and fsyncing under the lock serializes
        // submits, which sequence assignment requires anyway.
        let mut core = self.core.lock().unwrap();
        let limit = (core.admitted_vertices as u64)
            .saturating_add(self.config.max_new_vertices as u64);
        let edges = match parse_edges(body, limit) {
            Ok(edges) => edges,
            Err(e) => return Response::error(400, &e),
        };
        // Bound check before any write — an overloaded queue sheds with a
        // 503 that never leaves a durable-but-unacknowledged record the
        // client would have to reconcile.
        let depth = core.queue.len();
        if depth + edges.len() > self.config.max_pending {
            metrics.counter("ingest.shed").inc();
            let salt = self.shed_salt.fetch_add(1, Ordering::Relaxed);
            let secs = retry_after_secs(depth + edges.len(), self.config.max_pending, salt);
            return Response::error(503, "ingest queue is full, retry later")
                .with_header("Retry-After", secs.to_string());
        }
        let (first_seq, last_seq) = match core.wal.append_batch(&edges) {
            Ok(span) => span,
            Err(e) => {
                metrics.counter("ingest.wal_errors").inc();
                return Response::error(500, &format!("wal append failed, batch not accepted: {e}"));
            }
        };
        core.queue.extend(
            edges
                .iter()
                .enumerate()
                .map(|(i, &edge)| WalRecord { seq: first_seq + i as u64, edge }),
        );
        for e in &edges {
            core.admitted_vertices =
                core.admitted_vertices.max(e.src.max(e.dst) as usize + 1);
        }
        metrics.gauge("ingest.lag_edges").set(core.queue.len() as f64);
        drop(core);
        self.cond.notify_one();
        metrics.counter("ingest.accepted").add(edges.len() as u64);
        Response::json(
            200,
            format!(
                "{{\"acked\": {}, \"first_seq\": {first_seq}, \"last_seq\": {last_seq}, \"durable\": true}}",
                edges.len()
            ),
        )
    }
}

/// Parses `{"edges": [[src, dst], [src, dst, weight], [src, dst, weight,
/// ts], ...]}`. Every edge is validated up front — a batch is accepted or
/// rejected whole, so the WAL never holds records the refresh worker
/// would have to discard.
fn parse_edges(body: &[u8], vertex_limit: u64) -> Result<Vec<EdgeUpdate>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    let items = doc
        .get("edges")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "body must be an object with an \"edges\" array".to_string())?;
    if items.is_empty() {
        return Err("\"edges\" must not be empty".to_string());
    }
    let mut edges = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let tuple = item
            .as_array()
            .ok_or_else(|| format!("edge {i} must be an array [src, dst, weight?, ts?]"))?;
        if tuple.len() < 2 || tuple.len() > 4 {
            return Err(format!("edge {i} must have 2 to 4 elements, has {}", tuple.len()));
        }
        let vertex = |j: usize, name: &str| -> Result<u64, String> {
            let v = tuple[j]
                .as_u64()
                .ok_or_else(|| format!("edge {i}: {name} must be a non-negative integer"))?;
            if v >= vertex_limit || v >= u64::from(u32::MAX) {
                return Err(format!(
                    "edge {i}: vertex {v} is beyond the accepted range (limit {vertex_limit})"
                ));
            }
            Ok(v)
        };
        let src = vertex(0, "src")?;
        let dst = vertex(1, "dst")?;
        let weight = match tuple.get(2) {
            None => 1.0f32,
            Some(w) => {
                let w = w
                    .as_f64()
                    .ok_or_else(|| format!("edge {i}: weight must be a number"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(format!("edge {i}: weight {w} must be finite and non-negative"));
                }
                w as f32
            }
        };
        let timestamp = match tuple.get(3) {
            None => None,
            Some(t) => Some(
                t.as_u64()
                    .ok_or_else(|| format!("edge {i}: timestamp must be a non-negative integer"))?,
            ),
        };
        edges.push(EdgeUpdate { src, dst, weight, timestamp });
    }
    Ok(edges)
}

/// Where one refresh cycle's time went, phase by phase; the boot log
/// reports it for the WAL replay, each live refresh's `quality.refresh`
/// flight event (so `/tracez` and the SIGUSR1 dump) for itself.
#[derive(Clone, Copy, Default)]
struct RefreshSplit {
    /// The affected neighborhood and its walks.
    walks: Duration,
    fine_tune: Duration,
    /// The index patch (or the rebuild after a reload).
    patch: Duration,
    /// The churn report and the new serving state.
    publish: Duration,
}

impl std::fmt::Display for RefreshSplit {
    /// `walks a, fine-tune b, patch c, publish d` in milliseconds, to the
    /// formatter's precision (default 1).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(1);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "walks {:.p$}, fine-tune {:.p$}, patch {:.p$}, publish {:.p$}",
            ms(self.walks),
            ms(self.fine_tune),
            ms(self.patch),
            ms(self.publish)
        )
    }
}

/// The refresh worker's private state: the graph overlay, the full
/// embedding it evolves (the rows of the state it last published, shared
/// with that state), and everything needed to rebuild serving state.
struct RefreshEngine {
    delta: DeltaGraph,
    embedding: Arc<Embedding>,
    labels: Option<Vec<Option<usize>>>,
    config: IngestConfig,
    hnsw: crate::hnsw::HnswConfig,
    /// Replay idempotence: records with `seq` below this were already
    /// folded into `delta` and are skipped.
    next_apply_seq: u64,
    /// Edges folded into `delta` over this engine's lifetime.
    folded: u64,
    round: u64,
    /// The last successful refresh cycle's phase times.
    split: RefreshSplit,
}

impl RefreshEngine {
    /// Snapshots the current serving state into a mutable refresh
    /// context. The base graph starts edgeless — streamed edges are the
    /// only structure the refresh pipeline knows about.
    fn from_state(state: &ServeState, config: IngestConfig) -> Result<RefreshEngine, String> {
        let n = state.vectors().len();
        let embedding = match state.vectors() {
            VectorSet::Owned(rows) => Arc::clone(rows),
            store => {
                let mut flat = Vec::with_capacity(n * store.dimensions());
                for i in 0..n {
                    flat.extend_from_slice(store.vector(i)?);
                }
                Arc::new(Embedding::from_flat(store.dimensions(), flat))
            }
        };
        let mut builder = GraphBuilder::new_undirected();
        builder.ensure_vertices(n);
        let base = builder.build().map_err(|e| e.to_string())?;
        Ok(RefreshEngine {
            delta: DeltaGraph::new(Arc::new(base)),
            embedding,
            labels: state.labels().map(<[Option<usize>]>::to_vec),
            config,
            hnsw: state.index().config().clone(),
            next_apply_seq: 1,
            folded: 0,
            round: 0,
            split: RefreshSplit::default(),
        })
    }

    /// Folds one committed batch into a fresh [`ServeState`]:
    /// delta-apply, affected-neighborhood re-walk, masked fine-tune,
    /// incremental index patch. Returns `Ok(None)` when every record was
    /// already applied (idempotent replay). On error the folded edges
    /// stay in the overlay (seq-skipped on retry) but the touched seed
    /// set is restored, so a retried or later batch re-walks and
    /// fine-tunes exactly the vertices this one failed to publish.
    fn apply_batch(
        &mut self,
        records: &[WalRecord],
        current_index: &HnswIndex,
    ) -> Result<Option<ServeState>, String> {
        for rec in records {
            if rec.seq < self.next_apply_seq {
                continue;
            }
            self.next_apply_seq = rec.seq + 1;
            self.delta
                .add_edge(
                    VertexId(rec.edge.src as u32),
                    VertexId(rec.edge.dst as u32),
                    f64::from(rec.edge.weight),
                    rec.edge.timestamp,
                )
                .map_err(|e| e.to_string())?;
            self.folded += 1;
        }
        // The seed set: this batch's endpoints plus anything a previously
        // failed refresh put back. Empty means a fully idempotent replay
        // with no outstanding re-walk debt.
        let touched = self.delta.take_touched();
        if touched.is_empty() {
            return Ok(None);
        }
        self.round += 1;
        let result = self.refresh(&touched, current_index);
        if result.is_err() {
            self.delta.mark_touched(&touched);
        }
        result.map(Some)
    }

    /// The fallible tail of a refresh cycle: re-walk, fine-tune, index
    /// patch, state build. The engine's embedding is only advanced after
    /// every fallible step has succeeded, so a failure leaves the engine
    /// exactly where the last published state left it.
    fn refresh(
        &mut self,
        touched: &[VertexId],
        current_index: &HnswIndex,
    ) -> Result<ServeState, String> {
        let t0 = Instant::now();
        let affected = self.delta.neighborhood(touched);
        let n = self.delta.num_vertices();
        let dims = self.embedding.dimensions();
        let old_len = self.embedding.len();

        // Short walks from the affected neighborhood only; the rest of
        // the corpus is implicit in the frozen rows.
        let mut walks = Vec::with_capacity(affected.len() * self.config.walks_per_vertex);
        for &v in &affected {
            for t in 0..self.config.walks_per_vertex {
                let seed = mix(
                    self.config.seed
                        ^ self.round.wrapping_mul(0x517C_C1B7_2722_0A95)
                        ^ (v.index() as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
                        ^ t as u64,
                );
                let walk = uniform_overlay_walk(
                    &self.delta,
                    v,
                    self.config.walk_length,
                    &mut Rng::seed_from_u64(seed),
                );
                if walk.len() >= 2 {
                    walks.push(walk);
                }
            }
        }
        if walks.is_empty() {
            return Err("refresh produced no walks over the affected neighborhood".to_string());
        }
        let corpus = WalkCorpus::from_walks(walks, n);
        let walked = Instant::now();

        let mut trainable = vec![false; n];
        for &v in &affected {
            trainable[v.index()] = true;
        }
        for slot in trainable.iter_mut().skip(old_len) {
            // Brand-new vertices always train, even outside `affected`.
            *slot = true;
        }
        let embed_config = EmbedConfig {
            dimensions: dims,
            epochs: self.config.epochs,
            threads: 1,
            seed: mix(self.config.seed ^ self.round),
            ..Default::default()
        };
        let (tuned, stats) = fine_tune(&self.embedding, &corpus, &embed_config, &trainable)?;
        let tuned_at = Instant::now();

        // Patch the live index in place when it matches the embedding the
        // refresh evolved from; anything else (an operator /reload swapped
        // in a different file mid-stream) falls back to a full rebuild.
        let index = if current_index.len() == old_len && current_index.dims() == dims {
            let updates: Vec<(usize, Vec<f32>)> = affected
                .iter()
                .filter(|v| v.index() < old_len)
                .map(|v| (v.index(), tuned.vector(*v).to_vec()))
                .collect();
            current_index.patched(&updates, &tuned.as_flat()[old_len * dims..])
        } else {
            HnswIndex::build(dims, tuned.as_flat().to_vec(), self.hnsw.clone())
        };
        let patched_at = Instant::now();

        // Per-batch quality report: how far did this refresh move the
        // neighborhoods it touched? Old index + old rows vs new index +
        // tuned rows, over a bounded sample of the affected set. Skipped
        // (like the patch fast path) when the live index no longer matches
        // the embedding this engine evolved from.
        let batch_churn = if current_index.len() == old_len && current_index.dims() == dims {
            let k = self.config.quality_k;
            let neighbor_ids = |idx: &HnswIndex, q: &[f32], center: usize| -> Vec<usize> {
                idx.search(q, k + 1)
                    .into_iter()
                    .map(|(id, _)| id)
                    .filter(|&id| id != center)
                    .take(k)
                    .collect()
            };
            let sample: Vec<usize> = affected
                .iter()
                .map(|v| v.index())
                .filter(|&i| i < old_len)
                .take(self.config.quality_sample)
                .collect();
            let old_lists: Vec<Vec<usize>> = sample
                .iter()
                .map(|&i| {
                    neighbor_ids(current_index, self.embedding.vector(VertexId::from_index(i)), i)
                })
                .collect();
            let new_lists: Vec<Vec<usize>> = sample
                .iter()
                .map(|&i| neighbor_ids(&index, tuned.vector(VertexId::from_index(i)), i))
                .collect();
            (!sample.is_empty())
                .then(|| v2v_obs::quality::mean_churn(&old_lists, &new_lists))
        } else {
            None
        };
        let loss_delta = match (stats.epoch_losses.first(), stats.epoch_losses.last()) {
            (Some(first), Some(last)) => last - first,
            _ => 0.0,
        };

        let labels = self.labels.clone().map(|mut l| {
            l.resize(n, None);
            l
        });
        let tuned = Arc::new(tuned);
        let state = ServeState::from_parts(Arc::clone(&tuned), index, labels)?;
        self.embedding = tuned;
        self.split = RefreshSplit {
            walks: walked - t0,
            fine_tune: tuned_at - walked,
            patch: patched_at - tuned_at,
            publish: patched_at.elapsed(),
        };

        let metrics = v2v_obs::global_metrics();
        metrics.gauge("ingest.affected_vertices").set(affected.len() as f64);
        metrics
            .histogram("ingest.refresh_ms", &[1.0, 10.0, 100.0, 1000.0, 10000.0])
            .record(t0.elapsed().as_secs_f64() * 1e3);
        metrics.gauge("ingest.batch_loss_delta").set(loss_delta);
        if let Some(churn) = batch_churn {
            metrics.gauge("ingest.batch_churn").set(churn);
            if churn > self.config.churn_threshold {
                metrics.gauge("quality.retrain_advised").set(1.0);
                metrics.counter("quality.retrain_advisories").inc();
                record_event(
                    Event::new(
                        "quality.degraded",
                        "-",
                        &format!(
                            "refresh round {}: churn {churn:.4} per touched row (threshold {:.4}, {} touched); batch retrain advised",
                            self.round, self.config.churn_threshold, touched.len()
                        ),
                    )
                    .with_status(1),
                );
            }
        }
        record_event(
            Event::new(
                "quality.refresh",
                "-",
                &format!(
                    "round {}: {} touched, {} affected, churn {}, loss delta {loss_delta:.5}; ms: {}",
                    self.round,
                    touched.len(),
                    affected.len(),
                    batch_churn.map_or_else(|| "n/a".to_string(), |c| format!("{c:.4}")),
                    self.split
                ),
            )
            .with_latency_ms(t0.elapsed().as_secs_f64() * 1e3),
        );
        Ok(state)
    }
}

/// Opens the WAL in `wal_dir` (recovering any torn tail), replays the
/// whole committed log through the refresh pipeline **before** returning
/// — so the handler built afterwards never serves pre-crash state — and
/// spawns the background refresh worker.
pub fn start(
    handle: Arc<ServeHandle>,
    wal_dir: impl AsRef<Path>,
    config: IngestConfig,
) -> Result<(Arc<IngestState>, std::thread::JoinHandle<()>), String> {
    let wal = Wal::open(wal_dir.as_ref()).map_err(|e| e.to_string())?;
    let records = wal.read_all().map_err(|e| e.to_string())?;
    let mut engine = RefreshEngine::from_state(&handle.state(), config)?;
    let replayed = records.len() as u64;
    let mut last_applied = 0u64;
    let mut lineage = handle.state();
    if let Some(last) = records.last() {
        last_applied = last.seq;
        let t0 = Instant::now();
        match engine.apply_batch(&records, lineage.index()) {
            Ok(Some(state)) => {
                lineage = handle.install(state);
            }
            Ok(None) => {}
            Err(e) => return Err(format!("wal replay failed: {e}")),
        }
        obs_info!(
            "ingest: replayed {replayed} WAL records (through seq {last_applied}) in {:.0} ms: {:.0}",
            t0.elapsed().as_secs_f64() * 1e3,
            engine.split
        );
    }
    let metrics = v2v_obs::global_metrics();
    metrics.gauge("ingest.wal_replayed").set(replayed as f64);
    metrics.gauge("ingest.last_applied_seq").set(last_applied as f64);
    metrics.gauge("ingest.lag_edges").set(0.0);

    let admitted_vertices = engine.delta.num_vertices();
    let ingest = Arc::new(IngestState {
        core: Mutex::new(IngestCore {
            wal,
            queue: VecDeque::new(),
            admitted_vertices,
        }),
        cond: Condvar::new(),
        config,
        shed_salt: AtomicU64::new(0),
        wal_replayed: replayed,
        last_applied: AtomicU64::new(last_applied),
        folded_edges: AtomicU64::new(engine.folded),
        shutdown: AtomicBool::new(false),
    });
    let worker = {
        let ingest = ingest.clone();
        std::thread::Builder::new()
            .name("v2v-ingest-refresh".to_string())
            .spawn(move || {
                deprioritize_current_thread();
                worker_loop(&ingest, &handle, engine, lineage)
            })
            .map_err(|e| format!("cannot spawn refresh worker: {e}"))?
    };
    Ok((ingest, worker))
}

/// Drops the calling thread to background scheduling. Refresh cycles
/// (walks, fine-tuning, index patching) are CPU-bound and
/// latency-insensitive; on a saturated host — in the extreme, a
/// single-core box — they must lose the scheduler race to request
/// threads, or `/neighbors` tail latency inherits the refresh burst
/// length. The request path only ever sees the finished state through
/// an [`Arc`] swap, so starving the worker costs nothing but refresh
/// lag (visible as `ingest.lag_edges`).
#[cfg(target_os = "linux")]
pub(crate) fn deprioritize_current_thread() {
    // Same no-crate C-library idiom as v2v-obs's perf-counter syscalls.
    // SCHED_IDLE gives the thread the minimum CFS weight (~0.3% of a
    // contended core, vs ~1.5% for nice 19 — enough to push refresh
    // slices out of the request path's p99). On Linux pid 0 targets
    // the calling thread, not the whole process. Falls back to nice 19,
    // and ultimately to default priority, where a sandbox forbids it.
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    const PRIO_PROCESS: i32 = 0;
    let param: i32 = 0; // sched_param { sched_priority: 0 }
    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
        unsafe { setpriority(PRIO_PROCESS, 0, 19) };
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn deprioritize_current_thread() {}

/// The background refresh loop: block on the queue, drain up to
/// `batch_max` records, fold them into a new state, hot-swap it in.
///
/// `last_applied` (and its gauge) only advance when a batch actually
/// reaches the served state; a failed refresh re-queues its records at
/// the head and retries with backoff, so the edges are applied in-process
/// instead of waiting for a restart, and `/healthz` never claims
/// unapplied edges are live. Installs go through a compare-and-swap
/// against `lineage` — the state this engine's embedding evolved from —
/// so a concurrent `POST /reload` is never clobbered: on a lost race the
/// worker re-seeds from the reloaded state and replays the WAL on top.
fn worker_loop(
    ingest: &IngestState,
    handle: &ServeHandle,
    mut engine: RefreshEngine,
    mut lineage: Arc<ServeState>,
) {
    let metrics = v2v_obs::global_metrics();
    let mut backoff_ms = 100u64;
    loop {
        let batch: Vec<WalRecord> = {
            let mut core = ingest.core.lock().unwrap();
            loop {
                if !core.queue.is_empty() {
                    break;
                }
                if ingest.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _timeout) = ingest
                    .cond
                    .wait_timeout(core, std::time::Duration::from_millis(200))
                    .unwrap();
                core = guard;
            }
            let take = core.queue.len().min(ingest.config.batch_max);
            core.queue.drain(..take).collect()
        };
        let last = batch.last().map_or(0, |r| r.seq);
        let applied_through = match engine.apply_batch(&batch, lineage.index()) {
            Ok(Some(state)) => match handle.install_if(state, &lineage) {
                Ok(fresh) => {
                    lineage = fresh;
                    metrics.counter("ingest.refreshes").inc();
                    obs_info!(
                        "ingest refresh: applied through seq {last}, serving {} vectors",
                        lineage.vectors().len()
                    );
                    Some(last)
                }
                Err(_) => {
                    // A /reload published different data while this
                    // refresh was computed from the previous lineage;
                    // installing it would silently revert the reload.
                    // Drop the refresh, re-seed from the reloaded state,
                    // and replay the whole WAL on top of it. A stale
                    // lineage can never install, so reseed is the only
                    // way forward — retry it (with backoff) until it
                    // lands or shutdown is requested; the WAL keeps
                    // everything durable meanwhile.
                    metrics.counter("ingest.reseeds").inc();
                    obs_info!(
                        "ingest: served state was reloaded mid-refresh; re-seeding from it and replaying the WAL"
                    );
                    loop {
                        match reseed(ingest, handle, &mut engine, &mut lineage) {
                            Ok(replayed_through) => break Some(replayed_through.max(last)),
                            Err(e) => {
                                metrics.counter("ingest.refresh_failures").inc();
                                obs_error!("ingest re-seed failed, old state kept, retrying: {e}");
                                if ingest.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                let core = ingest.core.lock().unwrap();
                                let _ = ingest
                                    .cond
                                    .wait_timeout(
                                        core,
                                        std::time::Duration::from_millis(backoff_ms),
                                    )
                                    .unwrap();
                                backoff_ms = (backoff_ms * 2).min(5000);
                            }
                        }
                    }
                }
            },
            // Every record was already folded and no re-walk debt is
            // outstanding — a replay duplicate; the seqs are applied.
            Ok(None) => Some(last),
            Err(e) => {
                metrics.counter("ingest.refresh_failures").inc();
                obs_error!("ingest refresh failed (through seq {last}), old state kept: {e}");
                None
            }
        };
        match applied_through {
            Some(through) => {
                backoff_ms = 100;
                ingest.folded_edges.store(engine.folded, Ordering::Release);
                ingest.last_applied.store(through, Ordering::Release);
                metrics.gauge("ingest.last_applied_seq").set(through as f64);
                metrics.gauge("ingest.lag_edges").set(ingest.lag_edges() as f64);
            }
            None => {
                // Not acked-and-lost, and not claimed-applied either: the
                // records go back to the head of the queue (still durable
                // in the WAL) and last_applied stays put, so lag_edges
                // keeps counting them. Retry with backoff; on shutdown
                // leave them for the next boot's replay.
                {
                    let mut core = ingest.core.lock().unwrap();
                    for rec in batch.into_iter().rev() {
                        core.queue.push_front(rec);
                    }
                    metrics.gauge("ingest.lag_edges").set(core.queue.len() as f64);
                }
                if ingest.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let core = ingest.core.lock().unwrap();
                let _ = ingest
                    .cond
                    .wait_timeout(core, std::time::Duration::from_millis(backoff_ms))
                    .unwrap();
                backoff_ms = (backoff_ms * 2).min(5000);
            }
        }
    }
}

/// Rebuilds the refresh engine from the state being served *right now*
/// (after a `/reload` won an install race) and replays the full WAL on
/// top of it, CAS-installing the result. Loops only if yet another
/// reload lands during the replay. On success the engine, lineage, and
/// returned seq all describe the newly published state; on error the
/// caller keeps its old engine and retries later.
fn reseed(
    ingest: &IngestState,
    handle: &ServeHandle,
    engine: &mut RefreshEngine,
    lineage: &mut Arc<ServeState>,
) -> Result<u64, String> {
    loop {
        let current = handle.state();
        let mut rebuilt = RefreshEngine::from_state(&current, ingest.config)?;
        let records = ingest.core.lock().unwrap().wal.read_all().map_err(|e| e.to_string())?;
        let last = records.last().map_or(0, |r| r.seq);
        match rebuilt.apply_batch(&records, current.index())? {
            Some(state) => match handle.install_if(state, &current) {
                Ok(installed) => {
                    *engine = rebuilt;
                    *lineage = installed;
                    return Ok(last);
                }
                Err(_) => continue,
            },
            None => {
                *engine = rebuilt;
                *lineage = current;
                return Ok(last);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::HnswConfig;
    use crate::http::Request;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("v2v_serve_ingest_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Two tight clusters on the x axis; dims 4 so fine-tuning has room.
    fn seed_state() -> ServeState {
        let n = 12;
        let dims = 4;
        let mut flat = Vec::with_capacity(n * dims);
        for i in 0..n {
            let sign = if i < n / 2 { 1.0f32 } else { -1.0 };
            flat.extend_from_slice(&[sign, 0.1 * i as f32, -0.05 * i as f32, 0.3]);
        }
        ServeState::new(Embedding::from_flat(dims, flat), HnswConfig::default(), None).unwrap()
    }

    fn started(
        tag: &str,
    ) -> (Arc<ServeHandle>, Arc<IngestState>, std::thread::JoinHandle<()>, std::path::PathBuf)
    {
        let dir = temp_dir(tag);
        let handle = ServeHandle::new(seed_state(), None);
        let (ingest, worker) = start(
            handle.clone(),
            &dir,
            IngestConfig { epochs: 1, ..Default::default() },
        )
        .unwrap();
        (handle, ingest, worker, dir)
    }

    fn post(ingest: &IngestState, body: &str) -> Response {
        ingest.submit(body.as_bytes())
    }

    fn wait_applied(ingest: &IngestState, seq: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while ingest.last_applied_seq() < seq {
            assert!(std::time::Instant::now() < deadline, "refresh worker never caught up");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn rejects_malformed_bodies() {
        let (_handle, ingest, worker, dir) = started("badbody");
        for body in [
            "not json",
            "{}",
            "{\"edges\": []}",
            "{\"edges\": [[1]]}",
            "{\"edges\": [[1, 2, 3, 4, 5]]}",
            "{\"edges\": [[1, \"x\"]]}",
            "{\"edges\": [[0, 1, -2.0]]}",
            "{\"edges\": [[0, 999999]]}",
        ] {
            let r = post(&ingest, body);
            assert_eq!(r.status, 400, "{body} -> {}", r.body);
        }
        assert_eq!(ingest.durable_seq(), 0, "rejected batches must not touch the WAL");
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn ack_means_durable_and_refresh_applies() {
        let (handle, ingest, worker, dir) = started("ack");
        let r = post(&ingest, "{\"edges\": [[0, 6], [1, 7], [2, 8]]}");
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = json::parse(&r.body).unwrap();
        assert_eq!(doc.get("acked").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("first_seq").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("last_seq").unwrap().as_u64(), Some(3));
        assert_eq!(ingest.durable_seq(), 3, "ACK must follow durability");

        wait_applied(&ingest, 3);
        let state = handle.state();
        assert_eq!(state.index_source(), "refreshed");
        assert_eq!(state.vectors().len(), 12);
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn new_vertex_becomes_queryable_after_refresh() {
        let (handle, ingest, worker, dir) = started("growth");
        // Vertex 12 does not exist yet; tie it into cluster 0.
        let r = post(&ingest, "{\"edges\": [[12, 0], [12, 1], [12, 2]]}");
        assert_eq!(r.status, 200, "{}", r.body);
        wait_applied(&ingest, 3);

        let state = handle.state();
        assert_eq!(state.vectors().len(), 13, "ingest must grow the vertex set");
        let req = Request {
            method: "GET".into(),
            path: "/neighbors".into(),
            query: vec![("v".into(), "12".into()), ("k".into(), "3".into())],
            ..Default::default()
        };
        let resp = crate::api::handle(&state, &req);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).unwrap();
        let nbrs = doc.get("neighbors").unwrap().as_array().unwrap();
        assert_eq!(nbrs.len(), 3);
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn overload_sheds_503_with_adaptive_retry_after_and_no_wal_write() {
        let dir = temp_dir("shed");
        let handle = ServeHandle::new(seed_state(), None);
        let (ingest, worker) = start(
            handle,
            &dir,
            IngestConfig { max_pending: 4, epochs: 1, ..Default::default() },
        )
        .unwrap();
        // 5 edges against a bound of 4: shed before anything lands.
        let r = post(&ingest, "{\"edges\": [[0,1],[1,2],[2,3],[3,4],[4,5]]}");
        assert_eq!(r.status, 503, "{}", r.body);
        let retry = r
            .headers
            .iter()
            .find(|(k, _)| k == "Retry-After")
            .map(|(_, v)| v.parse::<u64>().unwrap())
            .expect("503 must carry Retry-After");
        assert!((1..=30).contains(&retry));
        assert_eq!(ingest.durable_seq(), 0, "a shed batch must never reach the WAL");
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `clusters` tight clusters of `n` rows in 8 dims, dealt round-robin:
    /// past `brute_force_threshold`, so the index is a real graph.
    fn clustered_state(n: usize, clusters: usize) -> ServeState {
        let dims = 8;
        let mut rng = Rng::seed_from_u64(0xC1A55);
        let centers: Vec<f32> =
            (0..clusters * dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let flat = (0..n * dims)
            .map(|i| centers[(i / dims) % clusters * dims + i % dims] + rng.gen_range(-0.1f32..0.1))
            .collect();
        ServeState::new(Embedding::from_flat(dims, flat), HnswConfig::default(), None).unwrap()
    }

    /// Streams `body` (`edges` edges over `vertices` vertices once
    /// applied) into a server built from `base`, "crashes" it, restarts on
    /// the same WAL and checks that the replayed state answers
    /// `/neighbors` for every vertex byte for byte like a never-crashed
    /// control that took the same edges live.
    fn assert_replay_matches_uninterrupted_run(
        tag: &str,
        base: impl Fn() -> ServeState,
        body: &str,
        edges: u64,
        vertices: usize,
    ) {
        let dir = temp_dir(tag);
        let config = IngestConfig { epochs: 1, ..Default::default() };

        // First life: ingest, wait for the refresh, then "crash" (drop
        // everything without any graceful persistence).
        {
            let (ingest, worker) = start(ServeHandle::new(base(), None), &dir, config).unwrap();
            assert_eq!(post(&ingest, body).status, 200);
            wait_applied(&ingest, edges);
            ingest.shutdown();
            worker.join().unwrap();
        }

        // Second life: same WAL dir, fresh base state.
        let restarted = ServeHandle::new(base(), None);
        let (ingest, worker) = start(restarted.clone(), &dir, config).unwrap();
        assert_eq!(ingest.wal_replayed(), edges);
        assert_eq!(ingest.last_applied_seq(), edges);
        assert_eq!(restarted.state().vectors().len(), vertices);

        // A never-crashed control: fresh base + the same edges via live
        // ingest into a different WAL dir.
        let control_dir = temp_dir(&format!("{tag}_control"));
        let control = ServeHandle::new(base(), None);
        let (control_ingest, control_worker) = start(control.clone(), &control_dir, config).unwrap();
        assert_eq!(post(&control_ingest, body).status, 200);
        wait_applied(&control_ingest, edges);

        for v in 0..vertices {
            let req = Request {
                method: "GET".into(),
                path: "/neighbors".into(),
                query: vec![("v".into(), v.to_string()), ("k".into(), "5".into())],
                ..Default::default()
            };
            let a = crate::api::handle(&restarted.state(), &req);
            let b = crate::api::handle(&control.state(), &req);
            assert_eq!(a.status, 200);
            assert_eq!(a.body, b.body, "recovered state must equal the never-crashed run (v={v})");
        }

        ingest.shutdown();
        worker.join().unwrap();
        control_ingest.shutdown();
        control_worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
        std::fs::remove_dir_all(control_dir).unwrap();
    }

    /// The crash-consistency core: ACKed edges survive a hard restart.
    /// Every record appended before the "crash" replays at the next
    /// `start` (before serving), and the recovered state answers
    /// /neighbors exactly like a process that never crashed.
    #[test]
    fn restart_replays_wal_and_matches_uninterrupted_run() {
        let body = "{\"edges\": [[12, 0], [12, 1], [0, 7], [3, 9]]}";
        assert_replay_matches_uninterrupted_run("replay", seed_state, body, 4, 13);
    }

    /// The same contract with a real graph under the index: 640 rows
    /// in 8 clusters and 300 streamed edges, 296 inside the clusters and
    /// 4 that add vertices, so the replay relinks and appends through
    /// `HnswIndex::patched`'s graph path rather than rescanning.
    #[test]
    fn graph_mode_restart_replays_wal_and_matches_uninterrupted_run() {
        let (n, clusters) = (640, 8);
        assert!(clustered_state(n, clusters).index().is_graph());
        let mut edges: Vec<String> = (0..296)
            .map(|i| {
                let v = i * 7 % n;
                format!("[{v}, {}]", (v + clusters * (1 + i % 5)) % n)
            })
            .collect();
        edges.extend((n..n + 4).map(|v| format!("[{v}, {}]", v % clusters)));
        let body = format!("{{\"edges\": [{}]}}", edges.join(", "));
        assert_replay_matches_uninterrupted_run(
            "replay_graph",
            || clustered_state(n, clusters),
            &body,
            300,
            n + 4,
        );
    }

    /// The refresh worker runs at background priority, and the helper
    /// threads its index patch fans out to must too: a patch on the
    /// request path's priority would put the replay's CPU burst back in
    /// the request tail. Linux threads inherit the creating thread's
    /// scheduling policy and nice value; this reads both back from
    /// `/proc/thread-self/stat` (fields 41 and 19).
    #[cfg(target_os = "linux")]
    #[test]
    fn par_helpers_inherit_the_refresh_workers_priority() {
        fn policy_and_nice() -> (u32, i32) {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            // Fields from 3 on follow the parenthesised thread name.
            let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
            (fields[41 - 3].parse().unwrap(), fields[19 - 3].parse().unwrap())
        }
        const SCHED_IDLE: u32 = 5;
        std::thread::spawn(|| {
            deprioritize_current_thread();
            let parent = policy_and_nice();
            assert!(
                parent.0 == SCHED_IDLE || parent.1 == 19,
                "deprioritize_current_thread left the thread at {parent:?}"
            );
            let me = std::thread::current().id();
            let helpers =
                v2v_base::par::map_on(2, 64, |_| (std::thread::current().id(), policy_and_nice()));
            for (id, helper) in helpers {
                assert_ne!(id, me, "par::map_on(2, 64, ..) must run on helper threads");
                if parent.0 == SCHED_IDLE {
                    assert_eq!(helper.0, SCHED_IDLE, "a helper left SCHED_IDLE");
                } else {
                    assert_eq!(helper.1, parent.1, "a helper lost the worker's nice value");
                }
            }
        })
        .join()
        .unwrap();
    }

    /// Sequence assignment and enqueueing happen under one lock, so
    /// however submits interleave across threads, the queue is in seq
    /// order and the worker's seq-based idempotence check never skips an
    /// ACKed record: every edge is folded into the overlay exactly once.
    #[test]
    fn concurrent_submits_fold_every_acked_edge() {
        let (_handle, ingest, worker, dir) = started("concurrent");
        let threads = 4u64;
        let batches = 6u64;
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let ingest = ingest.clone();
                std::thread::spawn(move || {
                    for b in 0..batches {
                        // A unique brand-new vertex per batch, tied into
                        // the existing graph.
                        let v = 12 + t * batches + b;
                        let body = format!(
                            "{{\"edges\": [[{v}, {}], [{v}, {}]]}}",
                            v % 12,
                            (v + 1) % 12
                        );
                        let r = ingest.submit(body.as_bytes());
                        assert_eq!(r.status, 200, "{}", r.body);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let total = threads * batches * 2;
        assert_eq!(ingest.durable_seq(), total);
        wait_applied(&ingest, total);
        assert_eq!(
            ingest.folded_edges(),
            total,
            "every ACKed record must be folded exactly once, none seq-skipped"
        );
        assert_eq!(ingest.lag_edges(), 0);
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The `max_new_vertices` bound is measured against everything
    /// admitted so far (durable + queued), not the lagging served state,
    /// so successive batches cannot compound past it.
    #[test]
    fn vertex_admission_ceiling_is_strict_and_monotonic() {
        let dir = temp_dir("ceiling");
        let handle = ServeHandle::new(seed_state(), None);
        let (ingest, worker) = start(
            handle,
            &dir,
            IngestConfig { max_new_vertices: 2, epochs: 1, ..Default::default() },
        )
        .unwrap();
        // Base has 12 vertices, so the ceiling starts at 14 (ids < 14).
        assert_eq!(post(&ingest, "{\"edges\": [[14, 0]]}").status, 400);
        assert_eq!(post(&ingest, "{\"edges\": [[13, 0]]}").status, 200);
        // Admitting vertex 13 raised the ceiling to 16, immediately —
        // independent of whether the refresh worker has caught up.
        assert_eq!(post(&ingest, "{\"edges\": [[15, 0]]}").status, 200);
        assert_eq!(post(&ingest, "{\"edges\": [[18, 0]]}").status, 400);
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// An operator `/reload` that lands between a refresh being computed
    /// and installed must win: the worker detects the lost CAS, re-seeds
    /// from the reloaded embedding, and replays the WAL on top — so the
    /// served state carries the reloaded rows *and* the streamed edges.
    #[test]
    fn reload_is_not_clobbered_by_inflight_refresh() {
        let dir = temp_dir("reload_race");
        // The reloader's base marks vertex 11 so we can tell which
        // lineage a served row descends from.
        let reloader: crate::api::Reloader = Box::new(|| {
            let (n, dims) = (12, 4);
            let mut flat = Vec::with_capacity(n * dims);
            for i in 0..n {
                if i == 11 {
                    flat.extend_from_slice(&[9.0f32; 4]);
                } else {
                    let sign = if i < n / 2 { 1.0f32 } else { -1.0 };
                    flat.extend_from_slice(&[sign, 0.1 * i as f32, -0.05 * i as f32, 0.3]);
                }
            }
            ServeState::new(Embedding::from_flat(dims, flat), HnswConfig::default(), None)
        });
        let handle = ServeHandle::new(seed_state(), Some(reloader));
        let (ingest, worker) =
            start(handle.clone(), &dir, IngestConfig { epochs: 1, ..Default::default() })
                .unwrap();
        assert_eq!(post(&ingest, "{\"edges\": [[12, 0]]}").status, 200);
        wait_applied(&ingest, 1);
        // The reload replaces the served state; the refresh engine still
        // descends from the boot lineage.
        handle.reload().unwrap();
        // The next refresh loses the install CAS and must re-seed.
        assert_eq!(post(&ingest, "{\"edges\": [[12, 1]]}").status, 200);
        wait_applied(&ingest, 2);

        let state = handle.state();
        assert_eq!(state.vectors().len(), 13, "streamed edges replay on top of the reload");
        // Vertex 11 sits outside every affected neighborhood (the edges
        // touch 12, 0, 1), so its row is frozen bit-exact: it must be the
        // reloaded marker, not the pre-reload lineage the refresh evolved.
        assert_eq!(
            state.vectors().vector(11).unwrap(),
            &[9.0f32; 4][..],
            "the reloaded embedding must survive the in-flight refresh"
        );
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn router_serves_ingest_and_reports_it_on_healthz() {
        let (handle, ingest, worker, dir) = started("routes");
        let h = crate::api::router(handle, Some(ingest.clone()), None);

        let r = h(&Request {
            method: "POST".into(),
            path: "/ingest".into(),
            body: b"{\"edges\": [[0, 6]]}".to_vec(),
            ..Default::default()
        });
        assert_eq!(r.status, 200, "{}", r.body);
        wait_applied(&ingest, 1);

        let r = h(&Request { method: "GET".into(), path: "/ingest".into(), ..Default::default() });
        assert_eq!(r.status, 405);

        // The refresh's flight event carries its phase split.
        let r = h(&Request { method: "GET".into(), path: "/tracez".into(), ..Default::default() });
        let doc = json::parse(&r.body).unwrap();
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert!(
            events.iter().any(|e| {
                e.get("kind").unwrap().as_str() == Some("quality.refresh")
                    && e.get("detail").unwrap().as_str().is_some_and(|d| {
                        ["; ms: walks ", ", fine-tune ", ", patch ", ", publish "]
                            .iter()
                            .all(|phase| d.contains(phase))
                    })
            }),
            "no quality.refresh event with a phase split in {}",
            r.body
        );

        let r = h(&Request {
            method: "GET".into(),
            path: "/healthz".into(),
            ..Default::default()
        });
        assert_eq!(r.status, 200);
        let doc = json::parse(&r.body).unwrap();
        assert_eq!(doc.get("ingest.wal_replayed").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("ingest.last_applied_seq").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("ingest.lag_edges").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("ingest.durable_seq").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("ingest.folded_edges").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("ingest.wal.segments").unwrap().as_u64(), Some(1));
        // 16-byte segment header + one 45-byte record.
        assert_eq!(doc.get("ingest.wal.bytes").unwrap().as_u64(), Some(61));
        ingest.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
