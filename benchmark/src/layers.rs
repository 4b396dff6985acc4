//! The one file that names workspace APIs. The traced run calls each
//! layer's public functions from here, one span per call, and reads every
//! per-layer metric back from those spans. A refactor that changes a
//! function used below must keep it, or be preceded by a benchmark PR.
//!
//! The probes run on their own small seeded inputs, the same on every
//! workload, so a per-layer number never depends on which workload's traced
//! run printed it; only the `loadgen.*` metrics come from the workload.

use crate::datasets::{self, Mix, Query, QueryStream, Scale, K};
use crate::http::{self, Conn};
use crate::proc::nproc;
use crate::report::Metric;
use crate::stats::percentile;
use crate::trace::{self_time_us, Recorder};
use crate::workloads::{Config, Outcome};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_embed::EmbedConfig;
use v2v_graph::io::{read_edge_list, EdgeListFormat};
use v2v_ingest::{EdgeUpdate, Wal};
use v2v_serve::ingest::IngestConfig;
use v2v_serve::{
    api, HnswConfig, HnswIndex, Request, ServeHandle, ServeState, Server, ServerConfig,
};
use v2v_store::EmbeddingStore;
use v2v_walks::{WalkConfig, WalkCorpus, WalkStrategy};

/// Writes `data` (row-major, `dims` columns) as a `.v2s` store without an
/// index section — the input `v2v index` and `v2v serve` start from.
pub fn write_store(path: &Path, dims: usize, data: &[f32]) -> Result<(), String> {
    v2v_store::write_store(path, dims, data, v2v_store::default_shard_rows(dims), None)
        .map(|_| ())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The vectors of a `.v2s` store, row-major, with their dimension: what
/// the server serves from it, read without the server.
pub fn read_store(path: &Path) -> Result<(usize, Vec<f32>), String> {
    let store = EmbeddingStore::open(path).map_err(err("EmbeddingStore::open"))?;
    let payload = store.payload().map_err(err("EmbeddingStore::payload"))?;
    Ok((store.dims(), payload.to_vec()))
}

/// Probe inputs: big enough that the HNSW graph path runs (20× the
/// exact-scan threshold) and the trainer's threads have work, small enough
/// that all probes fit beside a traced workload in one run.
const PROBE: Scale = Scale {
    name: "probe",
    qc_groups: 10,
    qc_group_size: 200,
    qc_inter_edges: 200,
    blobs_n: 10_000,
    blobs_clusters: 64,
    dims: 64,
};
const PROBE_QUICK: Scale = Scale {
    name: "probe-quick",
    qc_groups: 4,
    qc_group_size: 100,
    qc_inter_edges: 40,
    blobs_n: 2_000,
    ..PROBE
};

/// How many times each kind of call is made; `quick` divides them by ten.
struct Reps {
    queries: usize,
    side_queries: usize,
    exact: usize,
    fresh: usize,
    pipelined_groups: usize,
    patches: usize,
    installs: usize,
    wal_batches: usize,
    refreshes: usize,
    backlog_batches: usize,
    kernel_calls: usize,
    obs_calls: usize,
    spawns: usize,
}

const REPS: Reps = Reps {
    queries: 10_000,
    side_queries: 2_000,
    exact: 200,
    fresh: 100,
    pipelined_groups: 250,
    patches: 5,
    installs: 5,
    wal_batches: 50,
    refreshes: 20,
    backlog_batches: 50,
    kernel_calls: 2_000_000,
    obs_calls: 200_000,
    spawns: 10,
};

/// Counts the probes make beside their spans: work done, bytes written.
#[derive(Default)]
struct Counts {
    edges: f64,
    tokens: f64,
    pairs: f64,
    final_loss: f64,
    barrier_wait_frac: f64,
    throughput_skew: f64,
    payload_bytes: f64,
    indexed_store_bytes: f64,
    snapshot_bytes: f64,
    recall_hits: f64,
    recall_asked: f64,
    wal_bytes_per_edge: f64,
    wal_edges: f64,
    backlog_edges: f64,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// graph → walks → embed → store, one span per stage under one parent.
fn offline(
    rec: &mut Recorder,
    c: &mut Counts,
    dir: &Path,
    seed: u64,
    scale: &Scale,
) -> Result<(), String> {
    let graph_path = dir.join("probe-graph.txt");
    let qc = datasets::qc_graph(seed, scale);
    std::fs::write(&graph_path, &qc.edge_list).map_err(err("write probe graph"))?;
    c.edges = qc.edges as f64;

    let whole = rec.open("offline", "pipeline");
    let stage = |rec: &mut Recorder, name: &'static str, layer: &'static str, from: Instant| {
        rec.record(name, layer, from, Instant::now(), Some(whole), None);
    };

    let t = Instant::now();
    let file = std::fs::File::open(&graph_path).map_err(err("open probe graph"))?;
    let graph = read_edge_list(std::io::BufReader::new(file), false, EdgeListFormat::Plain)
        .map_err(err("read_edge_list"))?;
    stage(rec, "graph.load", "graph", t);

    let t = Instant::now();
    let walks = WalkConfig {
        walks_per_vertex: 10,
        walk_length: 80,
        strategy: WalkStrategy::Uniform,
        seed,
    };
    let corpus = WalkCorpus::generate(&graph, &walks).map_err(err("WalkCorpus::generate"))?;
    stage(rec, "walks.generate", "walks", t);
    c.tokens = corpus.num_tokens() as f64;

    let t = Instant::now();
    let config = EmbedConfig {
        dimensions: scale.dims,
        epochs: 2,
        threads: nproc(),
        seed,
        ..Default::default()
    };
    let (embedding, stats) = v2v_embed::train(&corpus, &config)?;
    stage(rec, "embed.train", "embed", t);
    c.pairs = stats.total_pairs as f64;
    c.final_loss = stats.epoch_losses.last().copied().unwrap_or(f64::NAN);
    c.barrier_wait_frac = stats.concurrency.barrier_wait_frac;
    c.throughput_skew = stats.concurrency.throughput_skew;

    let t = Instant::now();
    let store_path = dir.join("probe-emb.v2s");
    write_store(&store_path, scale.dims, embedding.as_flat())?;
    stage(rec, "store.write", "store", t);
    c.payload_bytes = (embedding.as_flat().len() * 4) as f64;

    let t = Instant::now();
    let store = EmbeddingStore::open(&store_path).map_err(err("EmbeddingStore::open"))?;
    stage(rec, "store.open", "store", t);
    let t = Instant::now();
    store.verify_all().map_err(err("verify_all"))?;
    stage(rec, "store.verify_all", "store", t);

    // Hold the breakdown to its promise: the stages account for the
    // in-process total, within a tenth.
    rec.close(whole);
    let whole = rec
        .spans
        .iter()
        .find(|s| s.id == whole)
        .expect("just closed")
        .clone();
    let unaccounted = self_time_us(&whole, &rec.spans) / whole.dur_us();
    if unaccounted > 0.10 {
        return Err(format!(
            "offline stages leave {:.0} % of the in-process total unaccounted",
            unaccounted * 100.0
        ));
    }
    Ok(())
}

fn neighbors_request(v: u32) -> Request {
    Request {
        method: "GET".into(),
        path: "/neighbors".into(),
        query: vec![("v".into(), v.to_string()), ("k".into(), K.to_string())],
        keep_alive: true,
        ..Default::default()
    }
}

fn request_for(query: Query) -> Request {
    let (path, params) = match query {
        Query::Neighbors(v) => return neighbors_request(v),
        Query::Predict(v) => ("/predict", vec![("v", v.to_string()), ("k", K.to_string())]),
        Query::Similarity(a, b) => (
            "/similarity",
            vec![("a", a.to_string()), ("b", b.to_string())],
        ),
    };
    Request {
        method: "GET".into(),
        path: path.into(),
        query: params
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        keep_alive: true,
        ..Default::default()
    }
}

/// The serving stack bottom-up on clustered vectors: index build and
/// persistence, then the same seeded queries at three depths — search,
/// handler, socket — so each layer's share is a subtraction.
fn serving(
    rec: &mut Recorder,
    c: &mut Counts,
    dir: &Path,
    seed: u64,
    scale: &Scale,
    reps: &Reps,
) -> Result<(Arc<ServeHandle>, Vec<u32>), String> {
    let blobs = datasets::blobs(seed, scale);
    let (dims, n) = (blobs.dims, blobs.groups.len());
    let config = HnswConfig::default();
    let mut labels_rng = crate::rng::Rng::fork(seed, 0x1AB);
    let labels: Vec<Option<usize>> = blobs
        .groups
        .iter()
        .map(|g| labels_rng.chance(0.9).then_some(*g as usize))
        .collect();

    let index = rec.time("hnsw.build", "serve.hnsw", || {
        HnswIndex::build(dims, blobs.data.clone(), config.clone())
    });
    let store_path = dir.join("probe-blobs.v2s");
    let shard_rows = v2v_store::default_shard_rows(dims);
    let fingerprint = v2v_store::write_store(&store_path, dims, &blobs.data, shard_rows, None)
        .map_err(err("write_store"))?;
    let snapshot = rec.time("hnsw.snapshot", "serve.hnsw", || {
        index.snapshot(fingerprint)
    });
    v2v_store::write_store(&store_path, dims, &blobs.data, shard_rows, Some(&snapshot))
        .map_err(err("write_store with index"))?;
    c.snapshot_bytes = snapshot.len() as f64;
    c.indexed_store_bytes = std::fs::metadata(&store_path)
        .map_err(err("stat store"))?
        .len() as f64;
    c.payload_bytes = (n * dims * 4) as f64;
    rec.time("hnsw.from_snapshot", "serve.hnsw", || {
        HnswIndex::from_snapshot(
            &snapshot,
            dims,
            blobs.data.clone(),
            config.clone(),
            fingerprint,
        )
    })?;

    let open_state = |rec: &mut Recorder| -> Result<ServeState, String> {
        let store = EmbeddingStore::open(&store_path).map_err(err("EmbeddingStore::open"))?;
        rec.time("api.from_store", "serve.api", || {
            ServeState::from_store(store, config.clone(), Some(labels.clone()), true)
        })
    };
    let handle = ServeHandle::new(open_state(rec)?, None);
    let state = handle.state();
    if state.index_source() != "snapshot" {
        return Err(format!(
            "probe store booted from {:?}, not its snapshot",
            state.index_source()
        ));
    }

    // Depth 1: the index alone.
    let queries: Vec<u32> = QueryStream::new(seed, 0, n, Mix::Neighbors)
        .take(reps.queries)
        .map(|q| match q {
            Query::Neighbors(v) => v,
            _ => unreachable!("the neighbours mix holds nothing else"),
        })
        .collect();
    let vector = |v: u32| state.vectors().vector(v as usize);
    let mut found = Vec::with_capacity(queries.len());
    for v in &queries {
        let query = vector(*v)?;
        found.push(rec.time("hnsw.search", "serve.hnsw", || {
            state.index().search(query, K + 1)
        }));
    }
    for (v, approx) in queries.iter().zip(&found).take(reps.exact) {
        let query = vector(*v)?;
        let exact = rec.time("hnsw.search_exact", "serve.hnsw", || {
            state.index().search_exact(query, K + 1)
        });
        c.recall_asked += exact.len() as f64;
        c.recall_hits += exact
            .iter()
            .filter(|(id, _)| approx.iter().any(|(a, _)| a == id))
            .count() as f64;
    }

    // Depth 2: the request handler around it.
    for v in &queries {
        let request = neighbors_request(*v);
        let response = rec.time("api.handle.neighbors", "serve.api", || {
            api::handle(&state, &request)
        });
        if response.status != 200 {
            return Err(format!(
                "handle(/neighbors?v={v}) answered {}",
                response.status
            ));
        }
    }
    for query in QueryStream::new(seed, 1, n, Mix::ReadMix)
        .filter(|q| !matches!(q, Query::Neighbors(_)))
        .take(2 * reps.side_queries)
    {
        let request = request_for(query);
        let name = if matches!(query, Query::Predict(_)) {
            "api.handle.predict"
        } else {
            "api.handle.similarity"
        };
        let response = rec.time(name, "serve.api", || api::handle(&state, &request));
        if response.status != 200 {
            return Err(format!(
                "handle({}) answered {}: {}",
                query.path(),
                response.status,
                response.body
            ));
        }
    }

    // Depth 3: a real socket to an in-process server.
    let server = Server::bind(
        ServerConfig {
            watch_signals: false,
            ..Default::default()
        },
        handle.clone().into_handler(),
    )
    .map_err(err("Server::bind"))?;
    let (addr, stop) = (server.local_addr(), server.shutdown_flag());
    let sockets = std::thread::scope(|scope| -> Result<(), String> {
        let running = scope.spawn(move || server.run());
        let result = socket_probes(rec, addr, &queries, reps);
        stop.store(true, Ordering::SeqCst);
        running
            .join()
            .expect("server thread panicked")
            .map_err(err("Server::run"))?;
        result
    });
    sockets?;

    // Incremental change: patch 40 rows, publish a state.
    let mut rng = crate::rng::Rng::fork(seed, 0xA7C4);
    for _ in 0..reps.patches {
        let first = rng.below(n - datasets::INGEST_BATCH_EDGES);
        let updates: Vec<(usize, Vec<f32>)> = (first..first + datasets::INGEST_BATCH_EDGES)
            .map(|row| {
                let moved = blobs.data[row * dims..(row + 1) * dims]
                    .iter()
                    .map(|x| x + rng.range_f32(-0.01, 0.01));
                (row, moved.collect())
            })
            .collect();
        rec.time("hnsw.patch", "serve.hnsw", || {
            state.index().patched(&updates, &[])
        });
    }
    for _ in 0..reps.installs {
        let fresh = open_state(rec)?;
        rec.time("api.install", "serve.api", || handle.install(fresh));
    }
    Ok((handle, blobs.groups))
}

fn socket_probes(
    rec: &mut Recorder,
    addr: std::net::SocketAddr,
    queries: &[u32],
    reps: &Reps,
) -> Result<(), String> {
    let ok = |r: http::Response| {
        if r.status == 200 {
            Ok(())
        } else {
            Err(format!("socket probe answered {}", r.status))
        }
    };
    let mut conn = Conn::connect(addr).map_err(err("connect"))?;
    for v in queries {
        let request = http::get(&Query::Neighbors(*v).path(), false);
        let start = Instant::now();
        let (response, _) = conn
            .round_trip(&request)
            .map_err(err("keep-alive round trip"))?;
        rec.record("http.rtt", "serve.http", start, Instant::now(), None, None);
        if response.close {
            conn = Conn::connect(addr).map_err(err("reconnect"))?;
        }
        ok(response)?;
    }
    for v in queries.iter().take(reps.fresh) {
        let request = http::get(&Query::Neighbors(*v).path(), true);
        let start = Instant::now();
        let response = http::once(addr, &request).map_err(err("fresh round trip"))?;
        rec.record(
            "http.fresh_rtt",
            "serve.http",
            start,
            Instant::now(),
            None,
            None,
        );
        ok(response)?;
    }
    // Eight requests in one write on an established connection. A new
    // connection is warmed first, so the accept wait stays out of the span,
    // and replaced well before the server's 1024-request budget, which
    // would cut a burst in half.
    const GROUPS_PER_CONNECTION: usize = 100;
    let mut conn = None;
    for (i, group) in queries.chunks(8).take(reps.pipelined_groups).enumerate() {
        if i % GROUPS_PER_CONNECTION == 0 {
            let mut warmed = Conn::connect(addr).map_err(err("connect"))?;
            ok(warmed
                .round_trip(&http::get("/healthz", false))
                .map_err(err("warm round trip"))?
                .0)?;
            conn = Some(warmed);
        }
        let conn = conn.as_mut().expect("connected on the first group");
        let burst: Vec<u8> = group
            .iter()
            .flat_map(|v| http::get(&Query::Neighbors(*v).path(), false))
            .collect();
        let start = Instant::now();
        conn.send(&burst).map_err(err("pipelined send"))?;
        for _ in group {
            ok(conn.recv().map_err(err("pipelined reply"))?.0)?;
        }
        rec.record(
            "http.pipelined8",
            "serve.http",
            start,
            Instant::now(),
            None,
            None,
        );
    }
    Ok(())
}

/// The WAL alone, then the ingest path over a live [`ServeHandle`].
fn ingesting(
    rec: &mut Recorder,
    c: &mut Counts,
    dir: &Path,
    seed: u64,
    handle: Arc<ServeHandle>,
    groups: &[u32],
    reps: &Reps,
) -> Result<(), String> {
    let batches = datasets::ingest_batches(
        seed,
        groups,
        reps.wal_batches.max(reps.refreshes + reps.backlog_batches),
    );

    let mut wal = Wal::open(dir.join("probe-wal")).map_err(err("Wal::open"))?;
    let empty = wal.size_bytes();
    for batch in batches.iter().take(reps.wal_batches) {
        let edges: Vec<EdgeUpdate> = batch
            .iter()
            .map(|(a, b)| EdgeUpdate::new(u64::from(*a), u64::from(*b)))
            .collect();
        rec.time("wal.append_batch", "ingest", || wal.append_batch(&edges))
            .map_err(err("append_batch"))?;
    }
    c.wal_edges = (reps.wal_batches * datasets::INGEST_BATCH_EDGES) as f64;
    c.wal_bytes_per_edge = (wal.size_bytes() - empty) as f64 / c.wal_edges;
    let records = rec
        .time("wal.read_all", "ingest", || wal.read_all())
        .map_err(err("read_all"))?;
    if records.len() as f64 != c.wal_edges {
        return Err(format!(
            "WAL replayed {} records, {} appended",
            records.len(),
            c.wal_edges
        ));
    }

    let (ingest, worker) = v2v_serve::ingest::start(
        handle,
        dir.join("probe-ingest-wal"),
        IngestConfig::default(),
    )?;
    let caught_up = |limit: Duration| {
        crate::proc::poll(limit, Duration::from_micros(200), || {
            (ingest.last_applied_seq() == ingest.durable_seq()).then_some(())
        })
        .ok_or_else(|| format!("refresh did not catch up in {limit:?}"))
    };
    let submit = |rec: &mut Recorder, batch: &Vec<(u32, u32)>| -> Result<(), String> {
        let body = datasets::ingest_body(batch);
        let response = rec.time("ingest.submit", "serve.ingest", || {
            ingest.submit(body.as_bytes())
        });
        if response.status == 200 {
            Ok(())
        } else {
            Err(format!(
                "submit answered {}: {}",
                response.status, response.body
            ))
        }
    };
    let (one_by_one, backlog) = batches.split_at(reps.refreshes);
    let backlog = &backlog[..reps.backlog_batches];
    let mut measure = || -> Result<(), String> {
        // Idle server: how long one batch takes from ACK to served.
        for batch in one_by_one {
            submit(rec, batch)?;
            let acked = Instant::now();
            caught_up(Duration::from_secs(30))?;
            rec.record(
                "ingest.refresh",
                "serve.ingest",
                acked,
                Instant::now(),
                None,
                None,
            );
        }
        // A backlog, so the refresh worker folds full cycles back to back.
        let start = Instant::now();
        backlog.iter().try_for_each(|batch| submit(rec, batch))?;
        caught_up(Duration::from_secs(60))?;
        rec.record(
            "ingest.drain",
            "serve.ingest",
            start,
            Instant::now(),
            None,
            None,
        );
        Ok(())
    };
    let result = measure();
    c.backlog_edges = (backlog.len() * datasets::INGEST_BATCH_EDGES) as f64;
    // Stop the worker whatever happened, so no thread outlives the run.
    ingest.shutdown();
    worker
        .join()
        .map_err(|_| "refresh worker panicked".to_string())?;
    result
}

/// Kernels, telemetry primitives and process start: tight loops under one
/// span each, divided by the call count.
fn small_calls(rec: &mut Recorder, cfg: &Config, reps: &Reps) -> Result<(), String> {
    let mut rng = crate::rng::Rng::fork(cfg.seed, 0x11A);
    let a: Vec<f32> = (0..64).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let mut b: Vec<f32> = (0..64).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let calls = reps.kernel_calls;
    rec.time("linalg.dot64", "linalg", || {
        for _ in 0..calls {
            black_box(v2v_linalg::kernels::dot(black_box(&a), black_box(&b)));
        }
    });
    rec.time("linalg.cosine_prenormed64", "linalg", || {
        for _ in 0..calls {
            black_box(v2v_linalg::kernels::cosine_prenormed(
                black_box(&a),
                black_box(&b),
            ));
        }
    });
    rec.time("linalg.axpy64", "linalg", || {
        for i in 0..calls {
            // Alternating sign keeps `b` bounded over millions of calls.
            let alpha = if i % 2 == 0 { 1e-3 } else { -1e-3 };
            v2v_linalg::kernels::axpy(black_box(alpha), black_box(&a), black_box(&mut b));
        }
    });

    let metrics = v2v_obs::global_metrics();
    let calls = reps.obs_calls;
    rec.time("obs.counter_by_name", "obs", || {
        for _ in 0..calls {
            metrics.counter(black_box("bench.probe.counter")).inc();
        }
    });
    rec.time("obs.histogram_by_name", "obs", || {
        for _ in 0..calls {
            metrics
                .histogram(black_box("bench.probe.histogram"), &[1.0, 10.0, 100.0])
                .record(black_box(5.0));
        }
    });
    rec.time("obs.span", "obs", || {
        for _ in 0..calls {
            drop(black_box(v2v_obs::span("bench/probe")));
        }
    });

    for _ in 0..reps.spawns {
        let start = Instant::now();
        cfg.v2v.run(&["help"], &cfg.tmp.join("help.log"))?;
        rec.record("cli.spawn", "cli", start, Instant::now(), None, None);
    }
    Ok(())
}

/// Runs every probe, writes the trace, and returns the metrics of the
/// layers and of the load generator.
pub fn per_layer(cfg: &Config, o: &mut Outcome) -> Result<Vec<Metric>, String> {
    let quick = cfg.scale.name == datasets::QUICK.name;
    let scale = if quick { PROBE_QUICK } else { PROBE };
    let tenth = |n: usize| if quick { n.div_ceil(10) } else { n };
    let reps = Reps {
        queries: tenth(REPS.queries),
        side_queries: tenth(REPS.side_queries),
        kernel_calls: tenth(REPS.kernel_calls),
        obs_calls: tenth(REPS.obs_calls),
        pipelined_groups: tenth(REPS.pipelined_groups),
        ..REPS
    };
    std::fs::create_dir_all(&cfg.tmp).map_err(err("create probe directory"))?;
    let rec = &mut o.recorder;
    let (mut offline_counts, mut serve_counts) = (Counts::default(), Counts::default());
    offline(rec, &mut offline_counts, &cfg.tmp, cfg.seed, &scale)?;
    let (handle, groups) = serving(rec, &mut serve_counts, &cfg.tmp, cfg.seed, &scale, &reps)?;
    ingesting(
        rec,
        &mut serve_counts,
        &cfg.tmp,
        cfg.seed,
        handle,
        &groups,
        &reps,
    )?;
    small_calls(rec, cfg, &reps)?;

    let trace_path = cfg.tmp.with_extension("trace.json");
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&trace_path).map_err(err("create trace"))?);
    rec.write_chrome_json(cfg.workload.name(), &mut file)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(err("write trace"))?;
    println!(
        "trace: {} spans in {}",
        rec.spans.len(),
        trace_path.display()
    );

    let rec = &o.recorder;
    let sorted = |name: &str| {
        let mut d = rec.durations_us(name);
        d.sort_by(f64::total_cmp);
        d
    };
    let p50_us = |name: &str| {
        let d = sorted(name);
        if d.is_empty() {
            0.0
        } else {
            percentile(&d, 50.0)
        }
    };
    let total_s = |name: &str| rec.total_s(name);
    let per_call_ns = |name: &str, calls: usize| total_s(name) * 1e9 / calls as f64;
    let (oc, sc) = (&offline_counts, &serve_counts);
    let search = p50_us("hnsw.search");
    let handle_neighbors = p50_us("api.handle.neighbors");
    let rtt = p50_us("http.rtt");
    let plain = &o.reads;
    let traced = o
        .traced_reads
        .as_ref()
        .ok_or("the traced run recorded no traced reads")?;
    Ok(vec![
        ("graph.load_s", total_s("graph.load"), "s"),
        ("graph.edges_per_s", oc.edges / total_s("graph.load"), "1/s"),
        ("walks.generate_s", total_s("walks.generate"), "s"),
        (
            "walks.tokens_per_s",
            oc.tokens / total_s("walks.generate"),
            "1/s",
        ),
        ("walks.tokens", oc.tokens, "count"),
        ("embed.train_s", total_s("embed.train"), "s"),
        (
            "embed.pairs_per_s",
            oc.pairs / total_s("embed.train"),
            "1/s",
        ),
        ("embed.pairs", oc.pairs, "count"),
        ("embed.final_loss", oc.final_loss, "loss"),
        ("embed.barrier_wait_frac", oc.barrier_wait_frac, "ratio"),
        ("embed.throughput_skew", oc.throughput_skew, "ratio"),
        (
            "linalg.dot64_ns",
            per_call_ns("linalg.dot64", reps.kernel_calls),
            "ns",
        ),
        (
            "linalg.axpy64_ns",
            per_call_ns("linalg.axpy64", reps.kernel_calls),
            "ns",
        ),
        (
            "linalg.cosine_prenormed64_ns",
            per_call_ns("linalg.cosine_prenormed64", reps.kernel_calls),
            "ns",
        ),
        ("store.write_s", total_s("store.write"), "s"),
        (
            "store.write_mb_per_s",
            oc.payload_bytes / 1e6 / total_s("store.write"),
            "MB/s",
        ),
        ("store.open_ms", total_s("store.open") * 1e3, "ms"),
        (
            "store.verify_all_ms",
            total_s("store.verify_all") * 1e3,
            "ms",
        ),
        (
            "store.bytes_per_payload_byte",
            sc.indexed_store_bytes / sc.payload_bytes,
            "ratio",
        ),
        ("serve.hnsw.build_s", total_s("hnsw.build"), "s"),
        (
            "serve.hnsw.build_vectors_per_s",
            scale.blobs_n as f64 / total_s("hnsw.build"),
            "1/s",
        ),
        ("serve.hnsw.search_p50_us", search, "us"),
        (
            "serve.hnsw.search_p99_us",
            percentile(&sorted("hnsw.search"), 99.0),
            "us",
        ),
        (
            "serve.hnsw.search_exact_us",
            p50_us("hnsw.search_exact"),
            "us",
        ),
        (
            "serve.hnsw.recall_at_10",
            sc.recall_hits / sc.recall_asked,
            "ratio",
        ),
        (
            "serve.hnsw.snapshot_ms",
            total_s("hnsw.snapshot") * 1e3,
            "ms",
        ),
        (
            "serve.hnsw.from_snapshot_ms",
            total_s("hnsw.from_snapshot") * 1e3,
            "ms",
        ),
        ("serve.hnsw.snapshot_bytes", sc.snapshot_bytes, "bytes"),
        ("serve.hnsw.patch_ms", p50_us("hnsw.patch") / 1e3, "ms"),
        ("serve.api.handle_neighbors_p50_us", handle_neighbors, "us"),
        (
            "serve.api.handle_predict_p50_us",
            p50_us("api.handle.predict"),
            "us",
        ),
        (
            "serve.api.handle_similarity_p50_us",
            p50_us("api.handle.similarity"),
            "us",
        ),
        ("serve.api.overhead_p50_us", handle_neighbors - search, "us"),
        (
            "serve.api.from_store_ms",
            p50_us("api.from_store") / 1e3,
            "ms",
        ),
        ("serve.api.install_us", p50_us("api.install"), "us"),
        ("serve.http.rtt_p50_us", rtt, "us"),
        ("serve.http.overhead_p50_us", rtt - handle_neighbors, "us"),
        (
            "serve.http.connect_p50_ms",
            (p50_us("http.fresh_rtt") - rtt) / 1e3,
            "ms",
        ),
        (
            "serve.http.pipelined8_per_req_us",
            p50_us("http.pipelined8") / 8.0,
            "us",
        ),
        (
            "ingest.wal.append_batch_ms",
            p50_us("wal.append_batch") / 1e3,
            "ms",
        ),
        ("ingest.wal.bytes_per_edge", sc.wal_bytes_per_edge, "bytes"),
        (
            "ingest.wal.replay_edges_per_s",
            sc.wal_edges / total_s("wal.read_all"),
            "1/s",
        ),
        (
            "serve.ingest.submit_p50_ms",
            p50_us("ingest.submit") / 1e3,
            "ms",
        ),
        (
            "serve.ingest.refresh_ms",
            p50_us("ingest.refresh") / 1e3,
            "ms",
        ),
        (
            "serve.ingest.refresh_edges_per_s",
            sc.backlog_edges / total_s("ingest.drain"),
            "1/s",
        ),
        (
            "obs.counter_by_name_ns",
            per_call_ns("obs.counter_by_name", reps.obs_calls),
            "ns",
        ),
        (
            "obs.histogram_by_name_ns",
            per_call_ns("obs.histogram_by_name", reps.obs_calls),
            "ns",
        ),
        ("obs.span_ns", per_call_ns("obs.span", reps.obs_calls), "ns"),
        ("cli.spawn_ms", p50_us("cli.spawn") / 1e3, "ms"),
        (
            "loadgen.late_frac",
            (plain.late + traced.late) as f64 / (plain.attempted + traced.attempted) as f64,
            "ratio",
        ),
        ("loadgen.steal_frac", o.steal_frac, "ratio"),
        (
            "loadgen.trace_overhead_frac",
            1.0 - traced.rps / plain.rps,
            "ratio",
        ),
        ("loadgen.client_span_connect_us", p50_us("connect"), "us"),
        ("loadgen.client_span_wait_us", p50_us("wait"), "us"),
    ])
}
