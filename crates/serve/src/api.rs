//! The query API: server state, the JSON endpoint handlers, and the
//! route table [`router`] serves them from.
//!
//! Routes (all responses are JSON):
//!
//! * `GET /healthz` — liveness + index shape, plus the `ingest.*` counters
//!   when streaming ingest is mounted.
//! * `GET /neighbors?v=<id>&k=<k>[&ef=<ef>]` — the `k` nearest vertices to
//!   vertex `v` (excluding `v`), via the ANN index.
//! * `GET /similarity?a=<id>&b=<id>` — cosine similarity of two vertices.
//! * `GET /predict?v=<id>[&k=<k>]` — k-NN majority vote over *labeled*
//!   neighbors of `v` (requires a label file at startup).
//! * `POST /predict` with body `{"vector": [...], "k": <k>}` — the same
//!   vote for an out-of-sample query vector, parsed with the `v2v-obs`
//!   JSON parser.
//! * `POST /batch` with body `{"queries": [{"op": "neighbors", "v": 0,
//!   "k": 5}, {"op": "similarity", "a": 0, "b": 1}, {"op": "predict",
//!   "v": 3}, ...]}` — up to [`BATCH_MAX`] heterogeneous queries answered
//!   in one exchange. Each query dispatches through the same handler as
//!   its single-query endpoint, so each result body is byte-identical to
//!   what that endpoint would have returned; per-query failures are
//!   reported in place without failing the rest of the batch.
//! * `GET /metricz` — the process metrics registry (request counters,
//!   latency histogram + rotating-window quantiles, index build time) as
//!   JSON; `?format=prometheus` returns the text exposition format for
//!   standard scrapers.
//! * `GET /tracez` — the flight recorder: the most recent structured
//!   events (requests with IDs/status/latency, sheds, reloads, panics)
//!   as JSON, for post-hoc "what just happened" queries.
//! * `POST /reload` — rebuild the state from the reload source and swap
//!   it in without dropping in-flight requests (see [`ServeHandle`]).
//! * `POST /ingest` — durable streaming edge updates
//!   ([`IngestState::submit`]); mounted when ingest runs.
//! * `GET /qualityz` — the quality sentinel's latest probe report;
//!   mounted when the sentinel runs.
//!
//! Resilience: if the freshly built ANN index fails structural
//! validation, the state comes up **degraded** — every query falls back
//! to the exact scan, which is slower but correct — rather than serving
//! wrong neighbors or refusing to start. `/healthz` reports the mode.

use crate::hnsw::{HnswConfig, HnswIndex};
use crate::http::{Handler, Request, Response, LATENCY_BOUNDS};
use crate::ingest::IngestState;
use crate::sentinel::QualityState;
use crate::swap::Swap;
use std::fmt::Write as _;
use std::sync::Arc;
use v2v_embed::Embedding;
use v2v_graph::VertexId;
use v2v_obs::json;
use v2v_store::EmbeddingStore;

/// Upper bound on queries accepted per `POST /batch` request. It caps a
/// transport-level abuse vector, like the body-size limit: one oversized
/// batch can monopolize a worker thread for the whole pipeline of queries
/// behind it.
pub const BATCH_MAX: usize = 64;

/// Where the served vectors live: an in-RAM [`Embedding`] (text/binary
/// file loads) or an [`EmbeddingStore`] — typically an `mmap`ed V2VE v2
/// container whose pages the kernel faults in on demand.
pub enum VectorSet {
    /// Fully materialized in RAM, shared with the streaming-ingest refresh
    /// engine, which evolves its next rows from these.
    Owned(Arc<Embedding>),
    /// Backed by a V2VE v2 store (mmap with lazy shard verification, or
    /// its checksummed heap-load fallback).
    Store(EmbeddingStore),
}

impl VectorSet {
    /// Number of vectors.
    pub fn len(&self) -> usize {
        match self {
            VectorSet::Owned(e) => e.len(),
            VectorSet::Store(s) => s.len(),
        }
    }

    /// Whether there are no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dimensions(&self) -> usize {
        match self {
            VectorSet::Owned(e) => e.dimensions(),
            VectorSet::Store(s) => s.dims(),
        }
    }

    /// Row `i`. The store path verifies the containing shard's checksum on
    /// first touch, so this can fail on a corrupted file — callers turn
    /// that into a 500, never into silently wrong vectors.
    pub fn vector(&self, i: usize) -> Result<&[f32], String> {
        match self {
            VectorSet::Owned(e) => Ok(e.vector(VertexId::from_index(i))),
            VectorSet::Store(s) => s.vector(i).map_err(|e| e.to_string()),
        }
    }

    /// Cosine similarity of rows `a` and `b` (`0` for zero vectors),
    /// matching [`Embedding::cosine_similarity`] exactly on both backings.
    pub fn cosine_similarity(&self, a: usize, b: usize) -> Result<f32, String> {
        match self {
            VectorSet::Owned(e) => {
                Ok(e.cosine_similarity(VertexId::from_index(a), VertexId::from_index(b)))
            }
            VectorSet::Store(s) => {
                let va = s.vector(a).map_err(|e| e.to_string())?;
                let vb = s.vector(b).map_err(|e| e.to_string())?;
                let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
                for (x, y) in va.iter().zip(vb) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    Ok(0.0)
                } else {
                    Ok((dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0))
                }
            }
        }
    }

    /// Which backing answers reads: `ram`, `mmap`, or `heap`.
    pub fn source(&self) -> &'static str {
        match self {
            VectorSet::Owned(_) => "ram",
            VectorSet::Store(s) => s.source(),
        }
    }
}

/// Everything a worker thread needs to answer queries, built once.
pub struct ServeState {
    vectors: VectorSet,
    index: HnswIndex,
    /// Per-vertex labels (`None` = unlabeled); present iff a label file
    /// was supplied.
    labels: Option<Vec<Option<usize>>>,
    /// `labels` with unlabeled slots collapsed to a sentinel, indexable by
    /// the vote helper (only labeled rows are ever passed to it).
    dense_labels: Vec<usize>,
    /// True when index validation failed and queries run the exact scan.
    degraded: bool,
    /// How the ANN index came to be: `snapshot` (loaded from a persisted
    /// section), `rebuilt` (constructed at startup), or `degraded`.
    index_source: &'static str,
}

impl ServeState {
    /// Builds the ANN index over `embedding` and records build telemetry
    /// (`serve.index.build_ms`, `serve.index.vectors`).
    pub fn new(
        embedding: Embedding,
        config: HnswConfig,
        labels: Option<Vec<Option<usize>>>,
    ) -> Result<ServeState, String> {
        let index = HnswIndex::from_embedding(&embedding, config);
        ServeState::finish(VectorSet::Owned(Arc::new(embedding)), index, labels, "rebuilt")
    }

    /// Builds serving state around an index constructed elsewhere — the
    /// streaming-ingest refresh path, where the worker patches the live
    /// HNSW incrementally instead of rebuilding it, and keeps sharing the
    /// rows with the state it publishes. The state still runs the full
    /// validation/degradation gauntlet in [`ServeState::finish`].
    pub fn from_parts(
        embedding: Arc<Embedding>,
        index: HnswIndex,
        labels: Option<Vec<Option<usize>>>,
    ) -> Result<ServeState, String> {
        ServeState::finish(VectorSet::Owned(embedding), index, labels, "refreshed")
    }

    /// Builds serving state over a V2VE v2 [`EmbeddingStore`]. When the
    /// store carries an index section and `allow_snapshot` is set, the
    /// persisted HNSW is loaded instead of rebuilt — the cold-start path
    /// for million-vertex serving. A snapshot that is corrupt, built under
    /// a different index configuration, or fingerprinted against different
    /// embedding payload is *refused* (with a log line and the
    /// `serve.index.snapshot_rejected` counter) and the index is rebuilt:
    /// slower, never wrong.
    pub fn from_store(
        store: EmbeddingStore,
        config: HnswConfig,
        labels: Option<Vec<Option<usize>>>,
        allow_snapshot: bool,
    ) -> Result<ServeState, String> {
        let dims = store.dims();
        let fingerprint = store.fingerprint();
        let metrics = v2v_obs::global_metrics();
        let mut loaded: Option<HnswIndex> = None;
        if allow_snapshot {
            if let Some(section) = store.index_section() {
                let payload = store.payload().map_err(|e| e.to_string())?.to_vec();
                match HnswIndex::from_snapshot(
                    section,
                    dims,
                    payload,
                    config.clone(),
                    fingerprint,
                ) {
                    Ok(index) => loaded = Some(index),
                    Err(e) => {
                        v2v_obs::obs_error!("refusing persisted ANN snapshot: {e}; rebuilding");
                        metrics.counter("serve.index.snapshot_rejected").inc();
                    }
                }
            }
        }
        let (index, source) = match loaded {
            Some(index) => (index, "snapshot"),
            None => {
                let payload = store.payload().map_err(|e| e.to_string())?.to_vec();
                (HnswIndex::build(dims, payload, config), "rebuilt")
            }
        };
        ServeState::finish(VectorSet::Store(store), index, labels, source)
    }

    /// Shared tail of every constructor: label checks, validation with
    /// exact-scan degradation, and telemetry.
    fn finish(
        vectors: VectorSet,
        index: HnswIndex,
        labels: Option<Vec<Option<usize>>>,
        index_source: &'static str,
    ) -> Result<ServeState, String> {
        if let Some(l) = &labels {
            if l.len() != vectors.len() {
                return Err(format!(
                    "label file covers {} vertices but the embedding has {}",
                    l.len(),
                    vectors.len()
                ));
            }
        }
        let metrics = v2v_obs::global_metrics();
        metrics.gauge("serve.index.build_ms").set(index.build_time().as_secs_f64() * 1e3);
        metrics.gauge("serve.index.vectors").set(index.len() as f64);
        // Which SIMD kernel backend evaluates distances — exported so
        // /metricz (JSON and Prometheus) identifies what produced the
        // latencies on this host.
        metrics
            .gauge(&format!("kernels.backend.{}", v2v_linalg::kernels::backend_name()))
            .set(1.0);
        // A structurally broken graph must not serve wrong neighbors;
        // degrade to the exact scan — slower, still correct — and say so.
        let (index, degraded, index_source) = match index.validate() {
            Ok(()) => (index, false, index_source),
            Err(e) => {
                v2v_obs::obs_error!(
                    "ANN index failed validation ({e}); serving degraded via exact scan"
                );
                metrics.counter("serve.index.degraded").inc();
                (index.into_exact(), true, "degraded")
            }
        };
        for s in ["snapshot", "rebuilt", "degraded", "refreshed"] {
            metrics
                .gauge(&["serve.index_source.", s].concat())
                .set(f64::from(s == index_source));
        }
        v2v_obs::record_event(v2v_obs::Event::new(
            "index",
            "",
            &format!(
                "index source: {index_source} ({} vectors, {} backing)",
                index.len(),
                vectors.source()
            ),
        ));
        let dense_labels = labels
            .as_deref()
            .map(|l| l.iter().map(|o| o.unwrap_or(usize::MAX)).collect())
            .unwrap_or_default();
        Ok(ServeState { vectors, index, labels, dense_labels, degraded, index_source })
    }

    /// The underlying ANN index.
    pub fn index(&self) -> &HnswIndex {
        &self.index
    }

    /// The vectors being served.
    pub fn vectors(&self) -> &VectorSet {
        &self.vectors
    }

    /// Per-vertex labels, when a label file was supplied at startup.
    pub fn labels(&self) -> Option<&[Option<usize>]> {
        self.labels.as_deref()
    }

    /// Whether index validation failed and queries run the exact scan.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// How the ANN index was obtained (`snapshot` / `rebuilt` / `degraded`).
    pub fn index_source(&self) -> &'static str {
        self.index_source
    }
}

/// Rebuilds a fresh [`ServeState`] from the reload source (typically by
/// re-reading the embedding and label files the server was started with).
pub type Reloader = Box<dyn Fn() -> Result<ServeState, String> + Send + Sync>;

/// A reload-capable server facade.
///
/// The handler loads the current state through a [`Swap`] on every
/// request, so `POST /reload` (or SIGHUP via the CLI watcher) can build
/// a fresh state and swap it in while requests are in flight: requests
/// that already loaded the old state finish against it, new requests see
/// the new one, and nothing is dropped. A failed reload leaves the old
/// state serving — the swap only happens after the rebuild succeeds.
pub struct ServeHandle {
    state: Swap<ServeState>,
    reloader: Option<Reloader>,
}

impl ServeHandle {
    /// Wraps an initial state; `reloader` powers `/reload` and SIGHUP
    /// (without one, reload requests are rejected with 400).
    pub fn new(initial: ServeState, reloader: Option<Reloader>) -> Arc<ServeHandle> {
        Arc::new(ServeHandle { state: Swap::new(Arc::new(initial)), reloader })
    }

    /// The state serving right now.
    pub fn state(&self) -> Arc<ServeState> {
        self.state.load()
    }

    /// Rebuilds the state from the reload source and swaps it in.
    /// On error the previous state keeps serving untouched.
    pub fn reload(&self) -> Result<Arc<ServeState>, String> {
        let reloader = self
            .reloader
            .as_ref()
            .ok_or_else(|| "server was started without a reload source".to_string())?;
        let fresh = match reloader() {
            Ok(state) => Arc::new(state),
            Err(e) => {
                v2v_obs::record_event(v2v_obs::Event::new(
                    "reload",
                    "",
                    &format!("reload failed, old state kept: {e}"),
                ));
                return Err(e);
            }
        };
        self.state.store(fresh.clone());
        v2v_obs::global_metrics().counter("serve.reloads").inc();
        v2v_obs::record_event(v2v_obs::Event::new(
            "reload",
            "",
            &format!("swapped in {} vectors", fresh.vectors.len()),
        ));
        v2v_obs::obs_info!("reloaded serving state: {} vectors", fresh.vectors.len());
        Ok(fresh)
    }

    /// Swaps in an externally built state — the ingest refresh path, where
    /// the worker fine-tunes vectors and patches the index off-thread and
    /// then publishes the result. Same zero-drop contract as
    /// [`reload`](ServeHandle::reload): in-flight requests finish against
    /// the state they loaded.
    pub fn install(&self, state: ServeState) -> Arc<ServeState> {
        let fresh = Arc::new(state);
        self.state.store(fresh.clone());
        v2v_obs::global_metrics().counter("serve.refreshes").inc();
        v2v_obs::record_event(v2v_obs::Event::new(
            "refresh",
            "",
            &format!("swapped in {} vectors", fresh.vectors.len()),
        ));
        fresh
    }

    /// Swaps in an externally built state only if `lineage` is still the
    /// state being served — the refresh worker's guard against clobbering
    /// a concurrent `POST /reload`. The worker derives every refreshed
    /// state from the snapshot it evolved (`lineage`); if an operator
    /// reload published different data in between, installing the refresh
    /// would silently revert it. On mismatch the refresh is refused and
    /// the winning state is returned so the caller can re-seed from it.
    pub fn install_if(
        &self,
        state: ServeState,
        lineage: &Arc<ServeState>,
    ) -> Result<Arc<ServeState>, Arc<ServeState>> {
        let fresh = self.state.compare_and_store(lineage, Arc::new(state))?;
        v2v_obs::global_metrics().counter("serve.refreshes").inc();
        v2v_obs::record_event(v2v_obs::Event::new(
            "refresh",
            "",
            &format!("swapped in {} vectors", fresh.vectors.len()),
        ));
        Ok(fresh)
    }

    /// The server's request handler with no feeds mounted.
    pub fn into_handler(self: Arc<Self>) -> Handler {
        router(self, None, None)
    }
}

/// What answers a route: a read of the serving state alone (which
/// [`handle`] answers), `/healthz`, or a control or feed route.
#[derive(Clone, Copy)]
enum Answer {
    Read(fn(&ServeState, &Request) -> Response),
    Health,
    Reload,
    Ingest,
    Quality,
}
use Answer::{Health, Ingest, Quality, Read, Reload};

/// One endpoint; `span` is static so the span tree stays bounded.
struct Route {
    path: &'static str,
    methods: &'static [&'static str],
    span: &'static str,
    answer: Answer,
}

const GET: &[&str] = &["GET"];
const POST: &[&str] = &["POST"];
const GET_POST: &[&str] = &["GET", "POST"];

/// Every endpoint the server answers, each declared once.
const ROUTES: [Route; 10] = [
    Route { path: "/healthz", methods: GET, span: "serve/healthz", answer: Health },
    Route { path: "/neighbors", methods: GET, span: "serve/neighbors", answer: Read(neighbors) },
    Route { path: "/similarity", methods: GET, span: "serve/similarity", answer: Read(similarity) },
    Route { path: "/predict", methods: GET_POST, span: "serve/predict", answer: Read(predict) },
    Route { path: "/batch", methods: POST, span: "serve/batch", answer: Read(batch) },
    Route { path: "/metricz", methods: GET, span: "serve/metricz", answer: Read(metricz) },
    Route { path: "/tracez", methods: GET, span: "serve/tracez", answer: Read(tracez) },
    Route { path: "/reload", methods: POST, span: "serve/reload", answer: Reload },
    Route { path: "/ingest", methods: POST, span: "serve/ingest", answer: Ingest },
    Route { path: "/qualityz", methods: GET, span: "serve/qualityz", answer: Quality },
];

impl Route {
    /// `answer()` under the route's span, or 405 for a method it does not take.
    fn serve(&self, req: &Request, answer: impl FnOnce() -> Response) -> Response {
        let _span = v2v_obs::span(self.span);
        if !req.request_id.is_empty() {
            v2v_obs::obs_debug!("[{}] {} {}", req.request_id, req.method, req.path);
        }
        if self.methods.contains(&req.method.as_str()) {
            answer()
        } else {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
    }
}

fn not_found(req: &Request) -> Response {
    Response::error(404, &format!("no such route {}", req.path))
}

/// The server's request handler: every route in `ROUTES`, less `/ingest`
/// without `ingest` and `/qualityz` without `quality`, each with its
/// `serve.requests.<route>` counter and `serve.latency.<route>` window
/// resolved here, once; every request to it counts, whatever its method or
/// status. Any other path is a 404 that makes no instrument.
pub fn router(
    serve: Arc<ServeHandle>,
    ingest: Option<Arc<IngestState>>,
    quality: Option<Arc<QualityState>>,
) -> Handler {
    let metrics = v2v_obs::global_metrics();
    let mounted: Vec<_> = ROUTES
        .iter()
        .filter(|route| match route.answer {
            Ingest => ingest.is_some(),
            Quality => quality.is_some(),
            _ => true,
        })
        .map(|route| {
            let name = &route.path[1..];
            let requests = metrics.counter(&["serve.requests.", name].concat());
            (route, requests, metrics.windowed(&["serve.latency.", name].concat(), &LATENCY_BOUNDS))
        })
        .collect();
    Arc::new(move |req: &Request| {
        let Some((route, requests, latency)) = mounted.iter().find(|(r, ..)| r.path == req.path)
        else {
            return not_found(req);
        };
        requests.inc();
        let response = match (route.answer, &ingest, &quality) {
            (Read(_), ..) => handle(&serve.state(), req),
            (Health, ..) => route.serve(req, || healthz(&serve.state(), ingest.as_deref())),
            (Reload, ..) => route.serve(req, || reload(&serve)),
            (Ingest, Some(ingest), _) => route.serve(req, || ingest.submit(&req.body)),
            (Quality, _, Some(quality)) => {
                route.serve(req, || Response::json(200, quality.to_json()))
            }
            // Unmounted, so filtered out above.
            (Ingest | Quality, ..) => not_found(req),
        };
        if let Some(started) = req.started {
            latency.record(started.elapsed().as_secs_f64() * 1e3);
        }
        response
    })
}

/// Answers the routes that need only `state`: the reads, and `/healthz`
/// without ingest keys. [`router`] calls this for the reads; every other
/// path is a 404 here.
pub fn handle(state: &ServeState, req: &Request) -> Response {
    match ROUTES.iter().find(|route| route.path == req.path) {
        Some(route @ Route { answer: Read(read), .. }) => route.serve(req, || read(state, req)),
        Some(route @ Route { answer: Health, .. }) => route.serve(req, || healthz(state, None)),
        _ => not_found(req),
    }
}

/// `POST /reload`: 400 without a reload source, 500 when the rebuild
/// fails (the old state keeps serving).
fn reload(serve: &ServeHandle) -> Response {
    match serve.reload() {
        Ok(state) => Response::json(
            200,
            format!(
                "{{\"reloaded\": true, \"vectors\": {}, \"degraded\": {}}}",
                state.vectors.len(),
                state.degraded
            ),
        ),
        Err(e) if serve.reloader.is_none() => Response::error(400, &e),
        Err(e) => Response::error(500, &format!("reload failed: {e}")),
    }
}

/// A `usize` query parameter, or a 400 explaining what's wrong.
fn usize_param(req: &Request, key: &str) -> Result<usize, Response> {
    match req.param(key) {
        None => Err(Response::error(400, &format!("missing query parameter {key}"))),
        Some(raw) => raw
            .parse()
            .map_err(|_| Response::error(400, &format!("query parameter {key}={raw:?} is not a non-negative integer"))),
    }
}

fn vertex_param(state: &ServeState, req: &Request, key: &str) -> Result<usize, Response> {
    let v = usize_param(req, key)?;
    if v >= state.vectors.len() {
        return Err(Response::error(
            404,
            &format!("vertex {v} out of range (embedding has {} vectors)", state.vectors.len()),
        ));
    }
    Ok(v)
}

/// With ingest mounted, its counters follow as flat keys, so scripts can
/// `grep` them without a JSON library.
fn healthz(state: &ServeState, ingest: Option<&IngestState>) -> Response {
    let mut body = String::from("{\"status\": \"ok\"");
    let _ = write!(
        body,
        ", \"vectors\": {}, \"dimensions\": {}, \"index\": \"{}\", \"index_source\": \"{}\", \"backing\": \"{}\", \"degraded\": {}, \"metric\": \"{}\", \"ef_search\": {}, \"labels\": {}",
        state.vectors.len(),
        state.vectors.dimensions(),
        if state.index.is_graph() { "hnsw" } else { "exact" },
        state.index_source,
        state.vectors.source(),
        state.degraded,
        state.index.config().metric.name(),
        state.index.config().ef_search,
        state.labels.is_some(),
    );
    if let Some(ingest) = ingest {
        let _ = write!(
            body,
            ", \"ingest.wal_replayed\": {}, \"ingest.lag_edges\": {}, \"ingest.last_applied_seq\": {}, \"ingest.durable_seq\": {}, \"ingest.folded_edges\": {}, \"ingest.wal.segments\": {}, \"ingest.wal.bytes\": {}",
            ingest.wal_replayed(),
            ingest.lag_edges(),
            ingest.last_applied_seq(),
            ingest.durable_seq(),
            ingest.folded_edges(),
            ingest.wal_segments(),
            ingest.wal_bytes(),
        );
    }
    body.push('}');
    Response::json(200, body)
}

fn neighbors(state: &ServeState, req: &Request) -> Response {
    let v = match vertex_param(state, req, "v") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let k = match req.param("k") {
        None => 10,
        Some(_) => match usize_param(req, "k") {
            Ok(0) => return Response::error(400, "k must be at least 1"),
            Ok(k) => k,
            Err(r) => return r,
        },
    };
    let query = match state.vectors.vector(v) {
        Ok(q) => q,
        Err(e) => return Response::error(500, &e),
    };
    // Over-fetch by one so the query vertex itself can be dropped.
    let found = match req.param("ef") {
        None => state.index.search(query, k + 1),
        Some(_) => match usize_param(req, "ef") {
            Ok(ef) => state.index.search_ef(query, k + 1, ef),
            Err(r) => return r,
        },
    };

    let mut body = String::with_capacity(64 + found.len() * 48);
    let _ = write!(
        body,
        "{{\"vertex\": {v}, \"k\": {k}, \"metric\": \"{}\", \"neighbors\": [",
        state.index.config().metric.name()
    );
    let mut first = true;
    for (u, d) in found.into_iter().filter(|&(u, _)| u != v).take(k) {
        if !first {
            body.push_str(", ");
        }
        first = false;
        let _ = write!(body, "{{\"vertex\": {u}, \"distance\": ");
        json::write_f64(&mut body, d as f64);
        body.push('}');
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn similarity(state: &ServeState, req: &Request) -> Response {
    let (a, b) = match (vertex_param(state, req, "a"), vertex_param(state, req, "b")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    let sim = match state.vectors.cosine_similarity(a, b) {
        Ok(s) => s,
        Err(e) => return Response::error(500, &e),
    };
    let mut body = format!("{{\"a\": {a}, \"b\": {b}, \"cosine\": ");
    json::write_f64(&mut body, sim as f64);
    body.push('}');
    Response::json(200, body)
}

/// Votes among the `k` nearest *labeled* neighbors of `query`, skipping
/// `exclude` (the query vertex itself, when predicting in-sample).
fn vote_labeled(
    state: &ServeState,
    query: &[f32],
    k: usize,
    exclude: Option<usize>,
) -> Result<usize, Response> {
    let labels = state
        .labels
        .as_deref()
        .ok_or_else(|| Response::error(400, "server was started without --labels"))?;
    // Over-fetch so unlabeled vertices between the true neighbors don't
    // starve the vote; falls back to exact top-k when the beam runs short.
    let fetch = (k * 4 + 16).min(state.index.len());
    let candidates: Vec<(usize, f64)> = state
        .index
        .search_ef(query, fetch, fetch.max(state.index.config().ef_search))
        .into_iter()
        .filter(|&(u, _)| Some(u) != exclude && labels[u].is_some())
        .take(k)
        .map(|(u, d)| (u, d as f64))
        .collect();
    if candidates.is_empty() {
        return Err(Response::error(400, "no labeled neighbors to vote with"));
    }
    Ok(v2v_ml::knn::vote(&state.dense_labels, &candidates))
}

/// `GET /predict` votes for vertex `v`, `POST /predict` for a body vector.
fn predict(state: &ServeState, req: &Request) -> Response {
    if req.method == "POST" {
        return predict_vector(state, req);
    }
    let v = match vertex_param(state, req, "v") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let k = match req.param("k") {
        None => 3,
        Some(_) => match usize_param(req, "k") {
            Ok(0) => return Response::error(400, "k must be at least 1"),
            Ok(k) => k,
            Err(r) => return r,
        },
    };
    let query = match state.vectors.vector(v) {
        Ok(q) => q.to_vec(),
        Err(e) => return Response::error(500, &e),
    };
    match vote_labeled(state, &query, k, Some(v)) {
        Ok(label) => Response::json(200, format!("{{\"vertex\": {v}, \"k\": {k}, \"label\": {label}}}")),
        Err(r) => r,
    }
}

fn predict_vector(state: &ServeState, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    predict_parsed(state, &doc)
}

/// The body of `POST /predict` after JSON parsing — shared with `/batch`
/// inline-vector queries so both paths run identical validation and
/// produce byte-identical responses.
fn predict_parsed(state: &ServeState, doc: &json::Value) -> Response {
    let Some(vector) = doc.get("vector").and_then(|v| v.as_array()) else {
        return Response::error(400, "body must be an object with a \"vector\" array");
    };
    let query: Option<Vec<f32>> =
        vector.iter().map(|x| x.as_f64().map(|f| f as f32)).collect();
    let Some(query) = query else {
        return Response::error(400, "\"vector\" must contain only numbers");
    };
    if query.len() != state.vectors.dimensions() {
        return Response::error(
            400,
            &format!(
                "\"vector\" has {} components, embedding has {}",
                query.len(),
                state.vectors.dimensions()
            ),
        );
    }
    let k = match doc.get("k") {
        None => 3,
        Some(v) => match v.as_u64() {
            Some(k) if k >= 1 => k as usize,
            _ => return Response::error(400, "\"k\" must be a positive integer"),
        },
    };
    match vote_labeled(state, &query, k, None) {
        Ok(label) => Response::json(200, format!("{{\"k\": {k}, \"label\": {label}}}")),
        Err(r) => r,
    }
}

/// `POST /batch`: up to [`BATCH_MAX`] heterogeneous queries answered in
/// one exchange — one connection round-trip and one request parse for N
/// lookups. Each query routes through the same handler function as its
/// single-query endpoint, so every result body is byte-identical to the
/// standalone response; per-query failures are reported in their result
/// slot without failing the rest of the batch.
fn batch(state: &ServeState, req: &Request) -> Response {
    let metrics = v2v_obs::global_metrics();
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
    };
    let Some(queries) = doc.get("queries").and_then(|q| q.as_array()) else {
        return Response::error(400, "body must be an object with a \"queries\" array");
    };
    if queries.len() > BATCH_MAX {
        metrics.counter("serve.batch.rejected").inc();
        return Response::error(
            400,
            &format!("batch has {} queries, limit is {BATCH_MAX}", queries.len()),
        );
    }
    metrics.counter("serve.batch.requests").inc();
    metrics.counter("serve.batch.queries").add(queries.len() as u64);

    let mut body = String::with_capacity(64 + queries.len() * 96);
    let _ = write!(body, "{{\"count\": {}, \"results\": [", queries.len());
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let r = batch_dispatch(state, q);
        // Every endpoint response body is a JSON object, so it embeds
        // verbatim — the byte-level parity the ci smoke compares.
        let _ = write!(body, "{{\"status\": {}, \"body\": {}}}", r.status, r.body);
    }
    body.push_str("]}");
    Response::json(200, body)
}

/// Routes one batch query to the single-endpoint handler it mirrors.
fn batch_dispatch(state: &ServeState, q: &json::Value) -> Response {
    let Some(op) = q.get("op").and_then(|o| o.as_str()) else {
        return Response::error(400, "each query must have a string \"op\"");
    };
    // GET-style parameters travel as JSON numbers; render them into a
    // synthesized request so the endpoint's own validation (missing
    // params, k >= 1, vertex range) applies unchanged.
    let mut synth = Request::default();
    for key in ["v", "k", "ef", "a", "b"] {
        if let Some(val) = q.get(key) {
            let Some(n) = val.as_u64() else {
                return Response::error(
                    400,
                    &format!("query parameter {key} must be a non-negative integer"),
                );
            };
            synth.query.push((key.to_string(), n.to_string()));
        }
    }
    match op {
        "neighbors" => neighbors(state, &synth),
        "similarity" => similarity(state, &synth),
        "predict" if q.get("vector").is_some() => predict_parsed(state, q),
        "predict" => predict(state, &synth),
        other => Response::error(
            400,
            &format!("unknown op {other:?} (neighbors, similarity, predict)"),
        ),
    }
}

/// Serializes the global metrics registry (counters, gauges, histogram
/// summaries, rotating-window quantiles) as one JSON object — or, with
/// `?format=prometheus`, as the text exposition format scrapers consume.
fn metricz(_: &ServeState, req: &Request) -> Response {
    let snap = v2v_obs::global_metrics().snapshot();
    match req.param("format") {
        Some("prometheus") => {
            return Response {
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                ..Response::text(200, v2v_obs::prometheus::write_prometheus(&snap))
            }
        }
        Some(other) if other != "json" => {
            return Response::error(400, &format!("unknown format {other:?} (json, prometheus)"))
        }
        _ => {}
    }
    let mut body = String::with_capacity(1024);
    body.push_str("{\"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        json::write_escaped(&mut body, name);
        let _ = write!(body, ": {value}");
    }
    body.push_str("}, \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        json::write_escaped(&mut body, name);
        body.push_str(": ");
        json::write_f64(&mut body, *value);
    }
    body.push_str("}, \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        json::write_escaped(&mut body, name);
        let _ = write!(body, ": {{\"count\": {}, \"sum\": ", h.count);
        json::write_f64(&mut body, h.sum);
        body.push_str(", \"min\": ");
        match h.min {
            Some(v) => json::write_f64(&mut body, v),
            None => body.push_str("null"),
        }
        body.push_str(", \"max\": ");
        match h.max {
            Some(v) => json::write_f64(&mut body, v),
            None => body.push_str("null"),
        }
        body.push_str(", \"bounds\": [");
        for (j, b) in h.bounds.iter().enumerate() {
            if j > 0 {
                body.push_str(", ");
            }
            json::write_f64(&mut body, *b);
        }
        body.push_str("], \"bucket_counts\": [");
        for (j, c) in h.bucket_counts.iter().enumerate() {
            if j > 0 {
                body.push_str(", ");
            }
            let _ = write!(body, "{c}");
        }
        body.push_str("]}");
    }
    body.push_str("}, \"windows\": {");
    for (i, (name, w)) in snap.windows.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        json::write_escaped(&mut body, name);
        let _ = write!(body, ": {{\"count\": {}, \"p50\": ", w.count);
        json::write_f64(&mut body, w.p50);
        body.push_str(", \"p95\": ");
        json::write_f64(&mut body, w.p95);
        body.push_str(", \"p99\": ");
        json::write_f64(&mut body, w.p99);
        body.push('}');
    }
    body.push_str("}}");
    Response::json(200, body)
}

/// Dumps the flight recorder: the most recent structured events, each
/// carrying the request ID the client saw in `X-Request-Id`.
fn tracez(_: &ServeState, _: &Request) -> Response {
    Response::json(200, v2v_obs::global_recorder().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_labels() -> ServeState {
        // Two clusters on the x axis, labels 0 / 1, vertex 5 unlabeled.
        let embedding = Embedding::from_flat(
            2,
            vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1],
        );
        let labels = vec![Some(0), Some(0), Some(0), Some(1), Some(1), None];
        ServeState::new(embedding, HnswConfig::default(), Some(labels)).unwrap()
    }

    fn get(state: &ServeState, path_query: &str) -> Response {
        let (path, q) = path_query.split_once('?').unwrap_or((path_query, ""));
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            query: q
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap_or((p, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            ..Default::default()
        };
        handle(state, &req)
    }

    #[test]
    fn healthz_shape() {
        let state = state_with_labels();
        let r = get(&state, "/healthz");
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("vectors").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("index").unwrap().as_str(), Some("exact"));
    }

    #[test]
    fn neighbors_excludes_self_and_orders() {
        let state = state_with_labels();
        let r = get(&state, "/neighbors?v=0&k=2");
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        let nbrs = v.get("neighbors").unwrap().as_array().unwrap();
        assert_eq!(nbrs.len(), 2);
        let ids: Vec<u64> =
            nbrs.iter().map(|n| n.get("vertex").unwrap().as_u64().unwrap()).collect();
        assert!(!ids.contains(&0), "self must be excluded");
        assert!(ids.contains(&1) || ids.contains(&2), "same-cluster vertex first");
    }

    #[test]
    fn neighbors_validates_params() {
        let state = state_with_labels();
        assert_eq!(get(&state, "/neighbors").status, 400);
        assert_eq!(get(&state, "/neighbors?v=banana").status, 400);
        assert_eq!(get(&state, "/neighbors?v=99").status, 404);
        assert_eq!(get(&state, "/neighbors?v=0&k=0").status, 400);
    }

    #[test]
    fn similarity_of_parallel_vectors() {
        let state = state_with_labels();
        let r = get(&state, "/similarity?a=0&b=3");
        let v = json::parse(&r.body).unwrap();
        let cos = v.get("cosine").unwrap().as_f64().unwrap();
        assert!(cos < -0.9, "opposite clusters, got {cos}");
    }

    #[test]
    fn predict_votes_with_labels() {
        let state = state_with_labels();
        let r = get(&state, "/predict?v=5&k=3");
        assert_eq!(r.status, 200, "{}", r.body);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("label").unwrap().as_u64(), Some(1), "vertex 5 sits in cluster 1");
    }

    #[test]
    fn predict_vector_body() {
        let state = state_with_labels();
        let req = Request {
            method: "POST".into(),
            path: "/predict".into(),
            body: br#"{"vector": [0.95, 0.02], "k": 3}"#.to_vec(),
            ..Default::default()
        };
        let r = handle(&state, &req);
        assert_eq!(r.status, 200, "{}", r.body);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("label").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn predict_rejects_bad_bodies() {
        let state = state_with_labels();
        for body in [
            &b"not json"[..],
            br#"{"vector": "nope"}"#,
            br#"{"vector": [1.0]}"#,
            br#"{"vector": [1.0, 0.0], "k": 0}"#,
        ] {
            let req = Request {
                method: "POST".into(),
                path: "/predict".into(),
                body: body.to_vec(),
                ..Default::default()
            };
            assert_eq!(handle(&state, &req).status, 400);
        }
    }

    fn post(state: &ServeState, path: &str, body: &[u8]) -> Response {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            body: body.to_vec(),
            ..Default::default()
        };
        handle(state, &req)
    }

    #[test]
    fn batch_answers_heterogeneous_queries_byte_identically() {
        let state = state_with_labels();
        let r = post(
            &state,
            "/batch",
            br#"{"queries": [
                {"op": "neighbors", "v": 0, "k": 2},
                {"op": "similarity", "a": 0, "b": 1},
                {"op": "predict", "v": 5, "k": 3},
                {"op": "predict", "vector": [0.95, 0.02], "k": 3},
                {"op": "neighbors", "v": 99}
            ]}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let v = json::parse(&r.body).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(5));
        let results = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 5);

        // Each embedded result body is byte-identical to its single-query
        // endpoint: the standalone response text appears verbatim.
        for single in [
            get(&state, "/neighbors?v=0&k=2"),
            get(&state, "/similarity?a=0&b=1"),
            get(&state, "/predict?v=5&k=3"),
        ] {
            assert!(
                r.body.contains(&single.body),
                "batch body must embed {:?} verbatim:\n{}",
                single.body,
                r.body
            );
        }
        assert_eq!(
            results[3].get("body").unwrap().get("label").unwrap().as_u64(),
            Some(0),
            "inline-vector predict votes with cluster 0"
        );
        // The out-of-range query fails in its slot without sinking the rest.
        for (i, want) in [(0u64, 200u64), (1, 200), (2, 200), (3, 200), (4, 404)] {
            assert_eq!(
                results[i as usize].get("status").unwrap().as_u64(),
                Some(want),
                "slot {i}"
            );
        }
    }

    #[test]
    fn batch_validates_shape_and_enforces_cap() {
        let state = state_with_labels();
        assert_eq!(post(&state, "/batch", b"not json").status, 400);
        assert_eq!(post(&state, "/batch", br#"{"nope": 1}"#).status, 400);

        // Bad op / bad param types fail per-slot, not the whole batch.
        let r = post(
            &state,
            "/batch",
            br#"{"queries": [{"op": "frobnicate"}, {"op": "neighbors", "v": "zero"}, {"op": "neighbors"}]}"#,
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let v = json::parse(&r.body).unwrap();
        for slot in v.get("results").unwrap().as_array().unwrap() {
            assert_eq!(slot.get("status").unwrap().as_u64(), Some(400));
        }

        // One query past the cap rejects the whole request.
        let mut big = String::from("{\"queries\": [");
        for i in 0..=BATCH_MAX {
            if i > 0 {
                big.push_str(", ");
            }
            big.push_str("{\"op\": \"similarity\", \"a\": 0, \"b\": 1}");
        }
        big.push_str("]}");
        let r = post(&state, "/batch", big.as_bytes());
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("limit is"), "{}", r.body);
    }

    #[test]
    fn predict_without_labels_is_400() {
        let embedding = Embedding::from_flat(2, vec![1.0, 0.0, 0.0, 1.0]);
        let state = ServeState::new(embedding, HnswConfig::default(), None).unwrap();
        assert_eq!(get(&state, "/predict?v=0").status, 400);
    }

    #[test]
    fn label_length_mismatch_rejected() {
        let embedding = Embedding::from_flat(2, vec![1.0, 0.0, 0.0, 1.0]);
        let err = ServeState::new(embedding, HnswConfig::default(), Some(vec![Some(1)]));
        assert!(err.is_err());
    }

    #[test]
    fn unknown_route_and_method() {
        let state = state_with_labels();
        assert_eq!(get(&state, "/nope").status, 404);
        let req = Request {
            method: "DELETE".into(),
            path: "/healthz".into(),
            ..Default::default()
        };
        assert_eq!(handle(&state, &req).status, 405);
        let req = Request {
            method: "POST".into(),
            path: "/tracez".into(),
            ..Default::default()
        };
        assert_eq!(handle(&state, &req).status, 405);
        let req = Request { path: "/batch".into(), ..Default::default() };
        assert_eq!(handle(&state, &req).status, 405, "GET /batch is not a thing");
    }

    /// The `/reload` status follows from whether there is a reload source,
    /// not from the error text: a reloader whose failure happens to name
    /// the missing-source phrase is still a 500.
    #[test]
    fn reload_status_follows_the_reload_source_not_the_message() {
        let post_reload = Request { method: "POST".into(), path: "/reload".into(), ..Default::default() };
        let failing: Reloader =
            Box::new(|| Err("/srv/server was started without a reload source/x.v2s: gone".into()));
        let r = ServeHandle::new(state_with_labels(), Some(failing)).into_handler()(&post_reload);
        assert_eq!(r.status, 500, "{}", r.body);
        assert!(r.body.starts_with("{\"error\": \"reload failed: "), "{}", r.body);

        let r = ServeHandle::new(state_with_labels(), None).into_handler()(&post_reload);
        assert_eq!(r.status, 400);
        assert_eq!(r.body, r#"{"error": "server was started without a reload source"}"#);
    }

    #[test]
    fn metricz_parses_and_contains_counters() {
        let state = state_with_labels();
        get(&state, "/healthz");
        let r = get(&state, "/metricz");
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).unwrap();
        assert!(v.get("counters").unwrap().as_object().is_some());
        assert!(v.get("gauges").unwrap().get("serve.index.vectors").is_some());
        assert!(v.get("windows").unwrap().as_object().is_some());
    }

    #[test]
    fn metricz_prometheus_format_validates() {
        let state = state_with_labels();
        get(&state, "/healthz");
        // A windowed instrument so the exposition includes quantile gauges.
        v2v_obs::global_metrics().windowed("serve.latency.test", &[1.0, 10.0]).record(2.0);
        let r = get(&state, "/metricz?format=prometheus");
        assert_eq!(r.status, 200);
        assert!(r.content_type.starts_with("text/plain"));
        let samples = v2v_obs::prometheus::validate(&r.body)
            .expect("exposition output must pass the format parser");
        assert!(samples > 0);
        assert!(r.body.contains("v2v_serve_latency_test_p50"));
        assert!(r.body.contains("v2v_serve_latency_test_p95"));
        assert!(r.body.contains("v2v_serve_latency_test_p99"));
        // Unknown formats are a client error, not silently JSON.
        assert_eq!(get(&state, "/metricz?format=xml").status, 400);
    }

    /// Serving from a V2VE v2 store: a persisted snapshot loads (reported
    /// as `index_source: snapshot` in /healthz) and answers every
    /// /neighbors query byte-identically to a from-scratch rebuild over
    /// the same store.
    #[test]
    fn from_store_snapshot_matches_rebuild() {
        let dir = std::env::temp_dir().join(format!("v2v_api_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("served.v2s");

        let (n, dims) = (600usize, 8usize);
        let mut x = 0x2545F4914F6CDD1Du64;
        let data: Vec<f32> = (0..n * dims)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1000) as f32 / 500.0 - 1.0
            })
            .collect();
        let config = HnswConfig { brute_force_threshold: 0, ..Default::default() };

        // Write payload-only, build + snapshot against its fingerprint,
        // rewrite with the index section embedded — the `v2v index` flow.
        let fp = v2v_store::write_store(&path, dims, &data, 64, None).unwrap();
        let built = HnswIndex::build(dims, data.clone(), config.clone());
        let snap = built.snapshot(fp);
        v2v_store::write_store(&path, dims, &data, 64, Some(&snap)).unwrap();

        let from_snap = ServeState::from_store(
            EmbeddingStore::open(&path).unwrap(),
            config.clone(),
            None,
            true,
        )
        .unwrap();
        assert_eq!(from_snap.index_source(), "snapshot");
        assert!(!from_snap.degraded());

        let rebuilt =
            ServeState::from_store(EmbeddingStore::open(&path).unwrap(), config, None, false)
                .unwrap();
        assert_eq!(rebuilt.index_source(), "rebuilt");

        for v in [0usize, 17, 599] {
            let a = get(&from_snap, &format!("/neighbors?v={v}&k=10"));
            let b = get(&rebuilt, &format!("/neighbors?v={v}&k=10"));
            assert_eq!(a.status, 200);
            assert_eq!(a.body, b.body, "snapshot and rebuilt must answer identically (v={v})");
        }

        let h = get(&from_snap, "/healthz");
        let doc = json::parse(&h.body).unwrap();
        assert_eq!(doc.get("index_source").unwrap().as_str(), Some("snapshot"));
        assert_eq!(doc.get("index").unwrap().as_str(), Some("hnsw"));
        let backing = doc.get("backing").unwrap().as_str().unwrap().to_string();
        assert!(backing == "mmap" || backing == "heap", "{backing}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store indexed by an earlier build's sharded layout carries a
    /// version-2 snapshot container: it is refused by version, counted,
    /// and the index is rebuilt — the store still serves.
    #[test]
    fn sharded_v2_snapshot_is_refused_and_rebuilt() {
        use v2v_base::bytes::{seal, Put};
        let dir = std::env::temp_dir().join(format!("v2v_api_v2snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sharded.v2s");

        let (n, dims) = (40usize, 4usize);
        let data: Vec<f32> = (0..n * dims).map(|i| (i % 7) as f32 - 3.0).collect();
        let fp = v2v_store::write_store(&path, dims, &data, 64, None).unwrap();

        // The version-2 header as those builds wrote it (two shards, child
        // blobs left out), checksummed so the reader gets to the version.
        let mut blob = crate::hnsw::SNAPSHOT_MAGIC.to_vec();
        blob.put(2u32);
        blob.put_all(&[0, fp, n as u64]); // the build fingerprint is never reached
        blob.put(2u32);
        seal(&mut blob, 0);

        let err =
            HnswIndex::from_snapshot(&blob, dims, data.clone(), HnswConfig::default(), fp)
                .unwrap_err();
        assert!(err.contains("unsupported snapshot version 2"), "{err}");

        v2v_store::write_store(&path, dims, &data, 64, Some(&blob)).unwrap();
        let rejected = v2v_obs::global_metrics().counter("serve.index.snapshot_rejected");
        let before = rejected.get();
        let state = ServeState::from_store(
            EmbeddingStore::open(&path).unwrap(),
            HnswConfig::default(),
            None,
            true,
        )
        .unwrap();
        assert_eq!(state.index_source(), "rebuilt");
        assert_eq!(rejected.get() - before, 1);
        assert_eq!(get(&state, "/neighbors?v=0&k=3").status, 200);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot list over its layer's cap fits no link table: the
    /// section is refused, counted, and the index rebuilt.
    #[test]
    fn over_cap_snapshot_is_refused_and_rebuilt() {
        let dir = std::env::temp_dir().join(format!("v2v_api_overcap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overcap.v2s");

        let (n, dims) = (600usize, 8usize);
        let data: Vec<f32> =
            (0..n * dims).map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0).collect();
        let config = HnswConfig { brute_force_threshold: 0, ..Default::default() };
        let fp = v2v_store::write_store(&path, dims, &data, 64, None).unwrap();
        let built = HnswIndex::build(dims, data.clone(), config.clone());
        let snap = crate::hnsw::overfull_snapshot(&built.snapshot(fp), 2 * config.m);
        v2v_store::write_store(&path, dims, &data, 64, Some(&snap)).unwrap();

        let rejected = v2v_obs::global_metrics().counter("serve.index.snapshot_rejected");
        let before = rejected.get();
        let state =
            ServeState::from_store(EmbeddingStore::open(&path).unwrap(), config, None, true)
                .unwrap();
        assert_eq!(state.index_source(), "rebuilt");
        assert!(!state.degraded());
        assert!(rejected.get() > before);
        assert_eq!(get(&state, "/neighbors?v=0&k=3").status, 200);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tracez_dumps_recorded_events() {
        let state = state_with_labels();
        v2v_obs::record_event(
            v2v_obs::Event::new("request", "test-trace-id-007", "GET /healthz")
                .with_status(200)
                .with_latency_ms(0.5),
        );
        let r = get(&state, "/tracez");
        assert_eq!(r.status, 200);
        let v = json::parse(&r.body).expect("tracez must be valid JSON");
        let events = v.get("events").unwrap().as_array().unwrap();
        assert!(
            events.iter().any(|e| {
                e.get("request_id").unwrap().as_str() == Some("test-trace-id-007")
            }),
            "recorded request ID must be retrievable from /tracez"
        );
    }
}
