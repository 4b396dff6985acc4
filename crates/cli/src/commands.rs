//! Subcommand implementations. Each takes parsed [`crate::opts::Opts`]
//! and returns a human-readable error string on failure so `main` can
//! print usage consistently.

use crate::opts::Opts;
use std::fs::File;
use v2v_obs::{obs_error, obs_info};
use std::io::{BufRead, BufReader, Write};
use v2v_core::{V2vConfig, V2vModel};
use v2v_graph::io::EdgeListFormat;
use v2v_graph::Graph;
use v2v_walks::WalkStrategy;

fn parse_format(opts: &Opts) -> Result<EdgeListFormat, String> {
    match opts.require("format")? {
        "plain" => Ok(EdgeListFormat::Plain),
        "weighted" => Ok(EdgeListFormat::Weighted),
        "temporal" => Ok(EdgeListFormat::Temporal),
        "weighted-temporal" => Ok(EdgeListFormat::WeightedTemporal),
        other => unreachable!("the option table admits no --format {other}"),
    }
}

fn load_graph(opts: &Opts) -> Result<Graph, String> {
    let path = opts.require("input")?;
    let format = parse_format(opts)?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    v2v_graph::io::read_edge_list(BufReader::new(file), opts.flag("directed"), format)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn parse_strategy(opts: &Opts) -> Result<WalkStrategy, String> {
    match opts.require("strategy")? {
        "uniform" => Ok(WalkStrategy::Uniform),
        "edge-weighted" => Ok(WalkStrategy::EdgeWeighted),
        "vertex-weighted" => Ok(WalkStrategy::VertexWeighted),
        "temporal" => Ok(WalkStrategy::Temporal { window: opts.get_opt("time-window")? }),
        "node2vec" => Ok(WalkStrategy::Node2Vec { p: opts.get("p")?, q: opts.get("q")? }),
        other => unreachable!("the option table admits no --strategy {other}"),
    }
}

/// The `WALK` flag group as a walk configuration.
fn walk_config(opts: &Opts) -> Result<v2v_walks::WalkConfig, String> {
    Ok(v2v_walks::WalkConfig {
        walks_per_vertex: opts.get("walks")?,
        walk_length: opts.get("length")?,
        strategy: parse_strategy(opts)?,
        seed: opts.get("seed")?,
    })
}

/// `v2v embed`: edge list (or a sharded walk corpus from `v2v walks`) →
/// embedding file. `--corpus <dir>` streams epochs from disk shards with
/// bounded memory instead of generating walks in RAM; the walk options are
/// then baked into the corpus and ignored here. A `.v2s` output writes the
/// mmap-able store `v2v serve` cold-starts from.
pub fn embed(opts: &Opts) -> Result<(), String> {
    let output = opts.require("output")?;
    // `.bin` / `.v2e` used to select a binary format that no longer exists;
    // refusing them before any training beats text under a binary name.
    if output.ends_with(".bin") || output.ends_with(".v2e") {
        return Err(format!(
            "{output}: the binary embedding format is the `.v2s` store; \
             use a .v2s extension (any other extension writes text)"
        ));
    }

    let mut config =
        V2vConfig::default().with_dimensions(opts.get("dims")?).with_seed(opts.get("seed")?);
    config.walks = walk_config(opts)?;
    config.embedding.window = opts.get("window")?;
    config.embedding.epochs = opts.get("epochs")?;
    config.embedding.threads = opts.get("threads")?;

    let checkpoint = match opts.get_str("checkpoint-dir") {
        Some(dir) => Some(v2v_core::CheckpointOptions {
            dir: dir.into(),
            every_epochs: opts.get("checkpoint-every-epochs")?,
            every_secs: opts.get_opt("checkpoint-every-secs")?,
            resume: opts.flag("resume"),
        }),
        None if opts.flag("resume") => {
            return Err("--resume requires --checkpoint-dir".into());
        }
        None => None,
    };

    // --profile: SIGPROF self-sampling across the whole pipeline. Only the
    // trainer tags phases, so walk generation and I/O sample as `idle`;
    // the flat profile answers "where do the training cycles go".
    let profiler = match opts.get_str("profile") {
        Some(_) => Some(
            v2v_obs::SelfProfiler::start(opts.env.profile_hz)
                .map_err(|e| format!("cannot start profiler: {e}"))?,
        ),
        None => None,
    };
    let model = match opts.get_str("corpus") {
        Some(dir) => {
            use v2v_walks::WalkSource;
            let corpus = v2v_store::ShardedCorpus::open(dir)
                .map_err(|e| format!("cannot open walk corpus {dir}: {e}"))?;
            obs_info!(
                "embedding {} vertices from sharded corpus {dir}: {} walks / {} tokens in {} shards",
                corpus.num_vertices(),
                corpus.num_walks(),
                corpus.num_tokens(),
                corpus.num_shards()
            );
            V2vModel::train_on_source_with_checkpoints(
                &corpus,
                &config,
                std::time::Duration::ZERO,
                checkpoint.as_ref(),
            )
            .map_err(|e| e.to_string())?
        }
        None => {
            let graph = load_graph(opts)?;
            obs_info!(
                "embedding {} vertices / {} edges: {} dims, {} walks x {} steps, {} epochs",
                graph.num_vertices(),
                graph.num_edges(),
                config.embedding.dimensions,
                config.walks.walks_per_vertex,
                config.walks.walk_length,
                config.embedding.epochs
            );
            V2vModel::train_with_checkpoints(&graph, &config, checkpoint.as_ref())
                .map_err(|e| e.to_string())?
        }
    };
    if let (Some(profiler), Some(path)) = (profiler, opts.get_str("profile")) {
        let flat = profiler.stop();
        v2v_core::io::write_atomic(path, flat.to_json().as_bytes())
            .map_err(|e| format!("cannot write profile {path}: {e}"))?;
        obs_info!(
            "wrote flat profile to {path} ({} samples at {} Hz; render with `v2v profile --input {path}`)",
            flat.total(),
            flat.hz
        );
    }
    if let Some(from) = model.stats().resumed_from {
        obs_info!("resumed from checkpoint at epoch {from}");
    }
    let report = &model.stats().concurrency;
    if report.threads > 1 {
        obs_info!(
            "concurrency: {} workers, skew {:.2}, barrier wait {:.1}%",
            report.threads,
            report.throughput_skew,
            report.barrier_wait_frac * 100.0
        );
    }
    obs_info!(
        "trained in {:.2?} (walks {:.2?}); final loss {:.4}",
        model.timing().training,
        model.timing().walk_generation,
        model.stats().epoch_losses.last().copied().unwrap_or(f64::NAN)
    );

    write_embedding_file(model.embedding(), output)?;
    obs_info!("wrote {output}");
    Ok(())
}

/// `v2v walks`: edge list → sharded on-disk walk corpus directory.
///
/// Walks stream to bounded-size checksummed shards as they are generated
/// (peak memory is one shard, not the corpus), a token-count sidecar, and
/// a manifest written last so a crashed run is recognizably incomplete.
/// `v2v embed --corpus <dir>` trains from the result out of core with the
/// same global walk indexes — bit-identical to in-RAM at `--threads 1`.
pub fn walks(opts: &Opts) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let out_dir = opts.require("output")?;
    let config = walk_config(opts)?;
    let shard_mb: usize = opts.get("shard-mb")?;
    let mut writer = v2v_store::CorpusShardWriter::create(
        out_dir,
        graph.num_vertices(),
        v2v_store::ShardWriterConfig { target_shard_bytes: shard_mb.max(1) << 20 },
    )
    .map_err(|e| format!("cannot create corpus directory {out_dir}: {e}"))?;
    v2v_walks::WalkCorpus::generate_streamed(&graph, &config, 4096, |_first, walks| {
        for walk in &walks {
            writer.push_walk(walk)?;
        }
        Ok::<(), v2v_store::StoreError>(())
    })
    .map_err(|e| e.to_string())?;
    let (total_walks, total_tokens) =
        writer.finish().map_err(|e| format!("cannot finalize corpus {out_dir}: {e}"))?;
    // Reopen through the reader: proves the manifest round-trips before the
    // user spends a training run on it, and reports the shard count.
    let corpus = v2v_store::ShardedCorpus::open(out_dir)
        .map_err(|e| format!("corpus verification failed for {out_dir}: {e}"))?;
    obs_info!(
        "wrote {total_walks} walks / {total_tokens} tokens to {} shards in {out_dir}",
        corpus.num_shards()
    );
    Ok(())
}

/// `v2v index`: build the HNSW graph over a `.v2s` store once and embed
/// the snapshot into the store's index section, fingerprinted against the
/// exact payload and build configuration. `v2v serve` then loads the
/// graph instead of rebuilding it — the difference between a sub-second
/// and a multi-minute cold start at large vertex counts.
pub fn index(opts: &Opts) -> Result<(), String> {
    let path = opts.require("store")?;
    let store = v2v_store::EmbeddingStore::open(path)
        .map_err(|e| format!("cannot open store {path}: {e}"))?;
    let config = v2v_serve::HnswConfig {
        m: opts.get("m")?,
        ef_construction: opts.get("ef-construction")?,
        ..Default::default()
    };
    let dims = store.dims();
    let shard_rows = store.shard_rows();
    let fingerprint = store.fingerprint();
    let data = store.payload().map_err(|e| format!("{path}: {e}"))?.to_vec();
    drop(store);

    let index = v2v_serve::HnswIndex::build(dims, data.clone(), config);
    index
        .validate()
        .map_err(|e| format!("freshly built index failed validation: {e}"))?;
    let snapshot = index.snapshot(fingerprint);
    // Same payload, same shard_rows → same fingerprint; only the index
    // section changes, and the rewrite is atomic (old store until rename).
    v2v_store::write_store(path, dims, &data, shard_rows, Some(&snapshot))
        .map_err(|e| format!("cannot rewrite {path}: {e}"))?;
    v2v_obs::global_metrics().counter("index.snapshots_written").inc();
    obs_info!(
        "indexed {} vectors x {dims} dims in {:.2?}; embedded {} KiB snapshot into {path}",
        index.len(),
        index.build_time(),
        snapshot.len() / 1024
    );
    Ok(())
}

/// `v2v profile`: render a flat profile written by `v2v embed --profile`
/// as an aligned text table (default) or normalized JSON.
pub fn profile(opts: &Opts) -> Result<(), String> {
    let path = opts.require("input")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let flat = v2v_obs::FlatProfile::from_json(&text)
        .map_err(|e| format!("{path} is not a v2v flat profile: {e}"))?;
    let rendered = match opts.require("format")? {
        "table" => flat.render_table(),
        "json" => flat.to_json(),
        other => unreachable!("the option table admits no --format {other}"),
    };
    write_stdout(|out| out.write_all(rendered.as_bytes()))
}

/// `v2v help`: the option table, rendered.
pub fn help(_opts: &Opts) -> Result<(), String> {
    write_stdout(|out| out.write_all(crate::opts::help().as_bytes()))
}

/// `.v2s` outputs get the mmap-able shard-checksummed store, everything
/// else the word2vec text format. Either way the file lands atomically: a
/// crash mid-write leaves the previous artifact, never a torn one.
fn write_embedding_file(emb: &v2v_embed::Embedding, output: &str) -> Result<(), String> {
    if output.ends_with(".v2s") {
        let dims = emb.dimensions();
        return v2v_store::write_store(
            output,
            dims,
            emb.as_flat(),
            v2v_store::default_shard_rows(dims),
            None,
        )
        .map(|_| ())
        .map_err(|e| format!("cannot write {output}: {e}"));
    }
    v2v_core::io::write_atomic_with(output, |w| {
        v2v_embed::io::write_embedding(emb, w).map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| format!("cannot write {output}: {e}"))
}

/// Streams `fill` into `--output` atomically (old-or-new on crash), or
/// into stdout when no output path was given.
fn write_output(
    opts: &Opts,
    fill: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), String> {
    match opts.get_str("output") {
        Some(path) => v2v_core::io::write_atomic_with(path, fill)
            .map_err(|e| format!("cannot write {path}: {e}")),
        None => write_stdout(fill),
    }
}

/// Streams `fill` into stdout; a reader that went away (`| head`) is an
/// error for `main` to report, not a `println!` panic.
fn write_stdout(fill: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    fill(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
}

/// An embedding artifact as opened from disk: the two formats there are.
enum EmbeddingFile {
    Text(v2v_embed::Embedding),
    Store(v2v_store::EmbeddingStore),
}

/// Opens any embedding artifact, sniffing the 4-byte `V2VE` magic once so
/// the extension does not matter: the magic goes to the store reader
/// (which refuses a pre-`.v2s` version-1 file by name), anything else is
/// text. Every subcommand, and `serve`'s boot/reload, routes through here.
fn open_embedding_path(path: &str) -> Result<EmbeddingFile, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let head = reader.fill_buf().map_err(|e| format!("cannot read {path}: {e}"))?;
    if head.starts_with(&v2v_store::store::MAGIC) {
        v2v_store::EmbeddingStore::open(path)
            .map(EmbeddingFile::Store)
            .map_err(|e| format!("cannot open store {path}: {e}"))
    } else {
        v2v_embed::io::read_embedding(reader).map(EmbeddingFile::Text).map_err(|e| e.to_string())
    }
}

/// [`open_embedding_path`] for the subcommands that want the vectors in RAM.
fn load_embedding_path(path: &str) -> Result<v2v_embed::Embedding, String> {
    match open_embedding_path(path)? {
        EmbeddingFile::Text(embedding) => Ok(embedding),
        EmbeddingFile::Store(store) => {
            let payload = store.payload().map_err(|e| format!("{path}: {e}"))?.to_vec();
            Ok(v2v_embed::Embedding::from_flat(store.dims(), payload))
        }
    }
}

/// `v2v drift`: offline diff of two embeddings / `.v2s` stores — the same
/// canary sampling, neighbor churn, and drift statistics the online
/// quality sentinel computes, so "what changed between yesterday's store
/// and today's?" is answerable without a serving process. Prints an
/// aligned table plus the JSON document (`--format table|json|both`);
/// `--output <path>` additionally writes the JSON to a file.
pub fn drift(opts: &Opts) -> Result<(), String> {
    let a_path = opts.require("a")?;
    let b_path = opts.require("b")?;
    let a = load_embedding_path(a_path)?;
    let b = load_embedding_path(b_path)?;
    let (dims_a, dims_b) = (a.dimensions(), b.dimensions());
    if dims_a != dims_b {
        return Err(format!(
            "dimensionality mismatch: {a_path} has {dims_a} dims, {b_path} has {dims_b}"
        ));
    }
    let config = v2v_obs::quality::QualityConfig {
        canaries: opts.get("quality-canaries")?,
        k: opts.get("k")?,
        seed: opts.get("seed")?,
        churn_threshold: opts.get("quality-churn-threshold")?,
    };
    let report =
        v2v_obs::quality::DriftReport::compute(dims_a, a.as_flat(), b.as_flat(), &config)?;
    let json = report.to_json();
    let (table, with_json) = match opts.require("format")? {
        "table" => (true, false),
        "json" => (false, true),
        "both" => (true, true),
        other => unreachable!("the option table admits no --format {other}"),
    };
    write_stdout(|out| {
        if table {
            out.write_all(report.render_table().as_bytes())?;
        }
        if with_json {
            writeln!(out, "{json}")?;
        }
        Ok(())
    })?;
    if let Some(out) = opts.get_str("output") {
        std::fs::write(out, format!("{json}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
        obs_info!("wrote drift report to {out}");
    }
    if report.retrain_advised {
        obs_info!(
            "neighbor churn {:.4} crossed threshold {:.4}: batch retrain advised",
            report.neighbor_churn,
            report.churn_threshold
        );
    }
    Ok(())
}

/// `v2v communities`: embedding file → one `vertex community` line each.
pub fn communities(opts: &Opts) -> Result<(), String> {
    let embedding = load_embedding_path(opts.require("embedding")?)?;
    let k: usize = opts.get("k")?;
    if k < 1 {
        return Err("--k must be >= 1".into());
    }
    let restarts: usize = opts.get("restarts")?;
    let matrix = embedding.to_matrix();
    let cfg = v2v_ml::kmeans::KMeansConfig {
        k,
        restarts,
        seed: opts.get("seed")?,
        ..Default::default()
    };
    let result = {
        let _span = v2v_obs::span("cluster");
        v2v_ml::kmeans::kmeans(&matrix, &cfg)
    };
    let metrics = v2v_obs::global_metrics();
    metrics.counter("cluster.kmeans.runs").inc();
    metrics.gauge("cluster.kmeans.inertia").set(result.inertia);
    obs_info!("k-means: k = {k}, {restarts} restarts, inertia {:.4}", result.inertia);

    write_output(opts, |out| {
        for (v, c) in result.assignments.iter().enumerate() {
            writeln!(out, "{v} {c}")?;
        }
        Ok(())
    })
}

/// Reads `vertex label` lines; `?` labels are targets to predict.
fn read_labels(path: &str, n: usize) -> Result<(Vec<Option<usize>>, Vec<usize>), String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut known = vec![None; n];
    let mut targets = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let v: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or(format!("{path}:{}: bad vertex id", lineno + 1))?;
        if v >= n {
            return Err(format!("{path}:{}: vertex {v} out of range", lineno + 1));
        }
        match toks.next() {
            Some("?") => targets.push(v),
            Some(l) => {
                known[v] = Some(
                    l.parse().map_err(|_| format!("{path}:{}: bad label {l:?}", lineno + 1))?,
                )
            }
            None => return Err(format!("{path}:{}: missing label", lineno + 1)),
        }
    }
    Ok((known, targets))
}

/// `v2v predict`: k-NN label prediction for `?`-marked vertices.
pub fn predict(opts: &Opts) -> Result<(), String> {
    let embedding = load_embedding_path(opts.require("embedding")?)?;
    let labels_path = opts.require("labels")?;
    let k: usize = opts.get("k")?;
    let (known, targets) = read_labels(labels_path, embedding.len())?;
    if targets.is_empty() {
        return Err("no '?' target vertices in the label file".into());
    }

    // Reuse the pipeline's predictor by wrapping the embedding in a model
    // facade: prediction only needs the vectors.
    let matrix = embedding.to_matrix();
    let (train_rows, train_labels): (Vec<Vec<f64>>, Vec<usize>) = known
        .iter()
        .enumerate()
        .filter_map(|(v, l)| l.map(|l| (matrix.row(v).to_vec(), l)))
        .unzip();
    if train_rows.is_empty() {
        return Err("label file contains no labeled vertices".into());
    }
    let train = v2v_linalg::RowMatrix::from_rows(&train_rows);
    let knn = v2v_ml::knn::KnnClassifier::fit(
        &train,
        &train_labels,
        v2v_ml::knn::DistanceMetric::Cosine,
    );

    // `--ann` swaps the exact scan for an HNSW index over the labeled
    // rows; vote semantics are unchanged (`KnnClassifier::predict_with`).
    let ann_index = if opts.flag("ann") {
        let flat: Vec<f32> =
            train_rows.iter().flat_map(|r| r.iter().map(|&x| x as f32)).collect();
        let config =
            v2v_serve::HnswConfig { ef_search: opts.get("ef-search")?, ..Default::default() };
        let index = v2v_serve::HnswIndex::build(embedding.dimensions(), flat, config);
        obs_info!(
            "built ANN index over {} labeled rows in {:.2?}",
            index.len(),
            index.build_time()
        );
        Some(index)
    } else {
        None
    };

    write_output(opts, |out| {
        for &t in &targets {
            let label = match &ann_index {
                Some(index) => knn.predict_with(index, matrix.row(t), k),
                None => knn.predict(matrix.row(t), k),
            };
            writeln!(out, "{t} {label}")?;
        }
        Ok(())
    })?;
    obs_info!("predicted {} labels with k = {k}", targets.len());
    Ok(())
}

/// `v2v serve`: load an embedding (text or `.v2s` store), build the ANN index,
/// and answer the route table of `v2v_serve::api::router` over HTTP until
/// SIGINT/SIGTERM: `/healthz`, `/neighbors`, `/similarity`, `/predict`,
/// `/batch`, `/metricz`, `/tracez` and `POST /reload`, plus `POST /ingest`
/// with `--wal-dir` and `/qualityz` unless `--quality-off`. SIGHUP (or
/// `/reload`) re-reads the embedding and label files and swaps the state
/// in without dropping in-flight requests.
pub fn serve(opts: &Opts) -> Result<(), String> {
    let cold_start = std::time::Instant::now();
    let embedding_path = opts.require("embedding")?.to_string();
    let labels_path = opts.get_str("labels").map(str::to_string);
    let rebuild_index = opts.flag("rebuild-index");
    let config = v2v_serve::HnswConfig { ef_search: opts.get("ef-search")?, ..Default::default() };
    // The reloader re-reads the same paths the server booted from, so a
    // retrain + atomic rename + `kill -HUP` rolls new vectors out live.
    let build: v2v_serve::Reloader = Box::new(move || {
        let read_label_file = |n: usize| match &labels_path {
            Some(path) => Ok::<_, String>(Some(read_labels(path, n)?.0)),
            None => Ok(None),
        };
        match open_embedding_path(&embedding_path)? {
            // A store is served in place: mmap (heap fallback), lazy shard
            // verification, and — unless --rebuild-index — the persisted
            // HNSW snapshot.
            EmbeddingFile::Store(store) => {
                let labels = read_label_file(store.len())?;
                v2v_serve::ServeState::from_store(store, config.clone(), labels, !rebuild_index)
            }
            EmbeddingFile::Text(embedding) => {
                let labels = read_label_file(embedding.len())?;
                v2v_serve::ServeState::new(embedding, config.clone(), labels)
            }
        }
        .map_err(|e| e.to_string())
    });
    let initial = build()?;
    obs_info!(
        "indexed {} vectors x {} dims (ef_search = {}, index {}, backing {}) in {:.2?}{}",
        initial.vectors().len(),
        initial.vectors().dimensions(),
        initial.index().config().ef_search,
        initial.index_source(),
        initial.vectors().source(),
        initial.index().build_time(),
        if initial.degraded() { " [DEGRADED: exact scan]" } else { "" }
    );
    let index_source = initial.index_source();
    let handle = v2v_serve::ServeHandle::new(initial, Some(build));

    // --wal-dir turns on durable streaming ingest: POST /ingest appends to
    // the WAL (ACK after fsync), a background worker folds committed edges
    // into the serving state, and the whole committed log replays here —
    // before the listener binds — so no request ever sees pre-crash state.
    let churn_threshold: f64 = opts.get("quality-churn-threshold")?;
    let ingest = match opts.get_str("wal-dir") {
        Some(dir) => {
            let ingest_config = v2v_serve::ingest::IngestConfig {
                max_pending: opts.get("ingest-queue")?,
                churn_threshold,
                ..Default::default()
            };
            let (ingest, _worker) = v2v_serve::ingest::start(handle.clone(), dir, ingest_config)
                .map_err(|e| format!("cannot start ingest from {dir}: {e}"))?;
            obs_info!(
                "ingest enabled: WAL at {dir}, {} records replayed (durable seq {})",
                ingest.wal_replayed(),
                ingest.durable_seq()
            );
            Some(ingest)
        }
        None => None,
    };

    // Quality sentinel: a SCHED_IDLE probe loop replaying a stable canary
    // set against every installed state — recall@10 vs brute force,
    // per-swap neighbor churn, centroid drift — exported on /metricz,
    // GET /qualityz, and the flight recorder. On by default.
    let quality = if opts.flag("quality-off") {
        None
    } else {
        let sentinel_config = v2v_serve::SentinelConfig {
            canaries: opts.get("quality-canaries")?,
            probe_interval: std::time::Duration::from_millis(
                opts.get::<u64>("quality-probe-ms")?.max(1),
            ),
            churn_threshold,
            ..Default::default()
        };
        let (quality, _probe) = v2v_serve::sentinel::start(handle.clone(), sentinel_config)
            .map_err(|e| format!("cannot start quality sentinel: {e}"))?;
        obs_info!(
            "quality sentinel: {} canaries, probe every {} ms, churn threshold {}",
            quality.canaries().len(),
            sentinel_config.probe_interval.as_millis(),
            sentinel_config.churn_threshold
        );
        Some(quality)
    };

    let server_config = v2v_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", opts.get::<u16>("port")?),
        threads: opts.get("threads")?,
        request_deadline: std::time::Duration::from_secs_f64(opts.get("request-deadline-secs")?),
        max_queue: opts.get("max-queue")?,
        max_body: opts.get("max-body")?,
        keep_alive_requests: opts.get("keep-alive")?,
        slow_request_ms: opts.env.slow_request_ms,
        access_log: opts.env.access_log.clone(),
        ..Default::default()
    };
    let handler = v2v_serve::api::router(handle.clone(), ingest, quality);
    let server = v2v_serve::Server::bind(server_config, handler)
        .map_err(|e| format!("cannot bind: {e}"))?;
    v2v_serve::signal::install();
    v2v_serve::signal::install_reload();
    v2v_serve::signal::install_dump();
    let flight_dump = opts.env.flight_dump.clone();
    install_flight_panic_hook(flight_dump.clone());
    // Watcher thread: turns SIGHUP into a state swap and SIGUSR1 into a
    // flight-recorder dump. Detached on purpose — it dies with the
    // process after the accept loop drains and main exits.
    std::thread::spawn(move || loop {
        if v2v_serve::signal::take_reload() {
            match handle.reload() {
                Ok(state) => obs_info!("SIGHUP reload: {} vectors", state.vectors().len()),
                Err(e) => obs_error!("SIGHUP reload failed, keeping old state: {e}"),
            }
        }
        if v2v_serve::signal::take_dump() {
            match std::fs::write(&flight_dump, v2v_obs::global_recorder().to_json()) {
                Ok(()) => obs_info!("SIGUSR1: wrote flight recorder to {flight_dump}"),
                Err(e) => {
                    obs_error!("SIGUSR1: cannot write flight recorder to {flight_dump}: {e}")
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    });
    // Ready to accept: everything from process entry to here is the cold
    // start the ROADMAP's million-vertex target cares about. Exposed as a
    // gauge so the restart smoke (and operators) can assert on it.
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    v2v_obs::global_metrics().gauge("serve.cold_start_ms").set(cold_ms);
    // Deploy-correlation info gauge (value 1, info in the name — our
    // Prometheus writer is label-free, so this follows the
    // `kernels.backend.<name>` idiom): which build, which revision, which
    // kernel backend produced the quality and latency series being scraped.
    v2v_obs::global_metrics()
        .gauge(&format!(
            "build_info.version.{}.rev.{}.backend.{}",
            env!("CARGO_PKG_VERSION"),
            opts.env.git_rev,
            v2v_linalg::kernels::backend_name()
        ))
        .set(1.0);
    v2v_obs::record_event(
        v2v_obs::Event::new(
            "cold_start",
            "",
            &format!("ready in {cold_ms:.1} ms (index {index_source})"),
        )
        .with_latency_ms(cold_ms),
    );
    obs_info!("cold start: ready in {cold_ms:.1} ms (index {index_source})");
    // The smoke test and scripts parse this line for the resolved port.
    write_stdout(|out| writeln!(out, "listening on {}", server.local_addr()))?;
    server.run().map_err(|e| format!("server error: {e}"))?;
    obs_info!("shut down cleanly");
    Ok(())
}

/// `v2v ingest`: stream edges from a file (or stdin) to a running
/// server's `POST /ingest` endpoint in batches. A 200 means every edge in
/// the batch is durable server-side; 503 responses are retried after the
/// server's `Retry-After` hint, so a temporarily saturated refresh queue
/// slows the stream down instead of losing edges.
///
/// Input lines: `src dst [weight [timestamp]]`; blank lines and `#`
/// comments are skipped.
pub fn ingest(opts: &Opts) -> Result<(), String> {
    let addr = match opts.get_str("addr") {
        Some(a) => a.to_string(),
        None => format!("127.0.0.1:{}", opts.get::<u16>("port")?),
    };
    let batch_size = opts.get::<usize>("batch")?.max(1);
    let reader: Box<dyn BufRead> = match opts.get_str("input") {
        Some(path) => Box::new(BufReader::new(
            File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?,
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };

    use std::fmt::Write as _;
    let mut batch: Vec<String> = Vec::with_capacity(batch_size);
    let (mut acked, mut batches, mut retries) = (0u64, 0u64, 0u64);
    let mut last_seq = 0u64;
    let flush = |batch: &mut Vec<String>,
                 batches: &mut u64,
                 retries: &mut u64|
     -> Result<(u64, u64), String> {
        if batch.is_empty() {
            return Ok((0, 0));
        }
        let body = format!("{{\"edges\": [{}]}}", batch.join(", "));
        batch.clear();
        *batches += 1;
        post_with_retry(&addr, &body, retries)
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read error on line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 2 || fields.len() > 4 {
            return Err(format!(
                "line {}: expected 'src dst [weight [timestamp]]', got {line:?}",
                lineno + 1
            ));
        }
        let src: u64 = fields[0]
            .parse()
            .map_err(|_| format!("line {}: bad src {:?}", lineno + 1, fields[0]))?;
        let dst: u64 = fields[1]
            .parse()
            .map_err(|_| format!("line {}: bad dst {:?}", lineno + 1, fields[1]))?;
        let mut edge = format!("[{src}, {dst}");
        if let Some(w) = fields.get(2) {
            let w: f64 =
                w.parse().map_err(|_| format!("line {}: bad weight {w:?}", lineno + 1))?;
            let _ = write!(edge, ", {w}");
            if let Some(t) = fields.get(3) {
                let t: u64 = t
                    .parse()
                    .map_err(|_| format!("line {}: bad timestamp {t:?}", lineno + 1))?;
                let _ = write!(edge, ", {t}");
            }
        }
        edge.push(']');
        batch.push(edge);
        if batch.len() >= batch_size {
            let (n, seq) = flush(&mut batch, &mut batches, &mut retries)?;
            acked += n;
            last_seq = seq.max(last_seq);
        }
    }
    let (n, seq) = flush(&mut batch, &mut batches, &mut retries)?;
    acked += n;
    last_seq = seq.max(last_seq);

    obs_info!("acked {acked} edges in {batches} batches ({retries} retries after 503)");
    // Scripts parse this line — keep the shape stable.
    write_stdout(|out| writeln!(out, "acked {acked} edges (last_seq {last_seq})"))
}

/// POSTs one /ingest body, sleeping out 503 `Retry-After` hints. Returns
/// `(acked, last_seq)` from the server's durability acknowledgement.
fn post_with_retry(addr: &str, body: &str, retries: &mut u64) -> Result<(u64, u64), String> {
    const MAX_RETRIES: u64 = 120;
    let mut attempt = 0u64;
    loop {
        let (status, headers, resp_body) = http_post(addr, "/ingest", body)?;
        match status {
            200 => {
                let doc = v2v_obs::json::parse(&resp_body)
                    .map_err(|e| format!("bad /ingest response: {e}"))?;
                let acked = doc.get("acked").and_then(|v| v.as_u64()).unwrap_or(0);
                let last_seq = doc.get("last_seq").and_then(|v| v.as_u64()).unwrap_or(0);
                return Ok((acked, last_seq));
            }
            503 => {
                attempt += 1;
                *retries += 1;
                if attempt > MAX_RETRIES {
                    return Err(format!("gave up after {MAX_RETRIES} 503 retries"));
                }
                let secs = headers
                    .lines()
                    .find_map(|l| l.to_ascii_lowercase().strip_prefix("retry-after:").map(str::trim).map(String::from))
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1);
                obs_info!("server shed the batch (503), retrying in {secs}s");
                std::thread::sleep(std::time::Duration::from_secs(secs.min(30)));
            }
            other => return Err(format!("POST /ingest returned {other}: {resp_body}")),
        }
    }
}

/// Minimal HTTP/1.1 POST over a fresh connection; returns `(status,
/// raw header block, body)`.
fn http_post(addr: &str, path: &str, body: &str) -> Result<(u16, String, String), String> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let (head, resp_body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response from {addr}: {head:?}"))?;
    Ok((status, head.to_string(), resp_body.to_string()))
}

/// Chains a panic hook that dumps the flight recorder before the default
/// hook prints the backtrace — the last seconds of request history
/// survive even a crash that takes the whole process down.
fn install_flight_panic_hook(path: String) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        v2v_obs::record_event(v2v_obs::Event::new("panic", "", &info.to_string()));
        if std::fs::write(&path, v2v_obs::global_recorder().to_json()).is_ok() {
            eprintln!("panic: flight recorder dumped to {path}");
        }
        default_hook(info);
    }));
}

/// `v2v project`: PCA projection to CSV (and optional SVG scatter).
pub fn project(opts: &Opts) -> Result<(), String> {
    let embedding = load_embedding_path(opts.require("embedding")?)?;
    let dims: usize = opts.get("dims")?;
    if dims < 1 || dims > embedding.dimensions() {
        return Err(format!("--dims must be in 1..={}", embedding.dimensions()));
    }
    let matrix = embedding.to_matrix();
    let (pca, points) = {
        let _span = v2v_obs::span("project");
        v2v_linalg::Pca::fit_transform(&matrix, dims, opts.get("seed")?)
    };
    obs_info!("explained variance: {:?}", pca.explained_variance);

    let output = opts.require("output")?;
    v2v_core::io::write_atomic_with(output, |w| {
        let header: Vec<String> = (0..dims).map(|d| format!("pc{}", d + 1)).collect();
        writeln!(w, "{}", header.join(","))?;
        for i in 0..points.rows() {
            let row: Vec<String> = points.row(i).iter().map(|x| x.to_string()).collect();
            writeln!(w, "{}", row.join(","))?;
        }
        Ok(())
    })
    .map_err(|e| format!("cannot write {output}: {e}"))?;
    obs_info!("wrote {output}");

    if let Some(svg_path) = opts.get_str("svg") {
        if dims < 2 {
            return Err("--svg needs --dims >= 2".into());
        }
        let labels: Vec<usize> = match opts.get_str("labels") {
            Some(path) => {
                let (known, _) = read_labels(path, embedding.len())?;
                known.into_iter().map(|l| l.unwrap_or(0)).collect()
            }
            None => vec![0; embedding.len()],
        };
        let pts: Vec<[f64; 2]> =
            (0..points.rows()).map(|i| [points[(i, 0)], points[(i, 1)]]).collect();
        v2v_core::io::write_atomic_with(svg_path, |w| {
            v2v_viz::svg::write_scatter(w, &pts, &labels, "V2V embedding (PCA)")
        })
        .map_err(|e| format!("cannot write {svg_path}: {e}"))?;
        obs_info!("wrote {svg_path}");
    }
    Ok(())
}

/// `v2v quality`: corpus + embedding diagnostics for a graph/embedding
/// pair (coverage, stationary divergence, neighborhood preservation,
/// similarity margin).
pub fn quality(opts: &Opts) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let embedding = load_embedding_path(opts.require("embedding")?)?;
    if embedding.len() != graph.num_vertices() {
        return Err(format!(
            "embedding has {} vectors but the graph has {} vertices",
            embedding.len(),
            graph.num_vertices()
        ));
    }
    // Corpus diagnostics under the same walk settings `embed` would use.
    let config = walk_config(opts)?;
    let corpus = v2v_walks::WalkCorpus::generate(&graph, &config)
        .map_err(|e| e.to_string())?;
    let cs = v2v_walks::stats::corpus_stats(&corpus);
    let divergence = (!graph.is_directed())
        .then(|| v2v_walks::stats::stationary_divergence(&corpus, &graph));
    let preservation = v2v_embed::quality::neighborhood_preservation(&graph, &embedding);
    let margin =
        v2v_embed::quality::similarity_margin(&graph, &embedding, config.seed);
    write_stdout(|out| {
        writeln!(out, "corpus coverage:            {:.3}", cs.coverage)?;
        writeln!(out, "mean walk length:           {:.1}", cs.mean_walk_length)?;
        writeln!(
            out,
            "visit entropy:              {:.3} / {:.3} max",
            cs.visit_entropy, cs.max_entropy
        )?;
        if let Some(div) = divergence {
            writeln!(out, "stationary divergence (TV): {div:.4}")?;
        }
        writeln!(out, "neighborhood preservation:  {preservation:.3}")?;
        writeln!(out, "similarity margin:          {margin:.3}")
    })
}

/// `v2v stats`: descriptive statistics of an edge list.
pub fn stats(opts: &Opts) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let d = v2v_graph::stats::degree_stats(&graph);
    let (_, components) = v2v_graph::traversal::connected_components(&graph);
    let clustering = (graph.num_vertices() <= 2000 && !graph.is_directed())
        .then(|| v2v_graph::stats::average_clustering(&graph));
    write_stdout(|out| {
        writeln!(out, "vertices:    {}", graph.num_vertices())?;
        writeln!(out, "edges:       {}", graph.num_edges())?;
        writeln!(out, "directed:    {}", graph.is_directed())?;
        writeln!(out, "weighted:    {}", graph.has_edge_weights())?;
        writeln!(out, "temporal:    {}", graph.has_timestamps())?;
        writeln!(out, "density:     {:.6}", graph.density())?;
        writeln!(
            out,
            "degree:      min {} / mean {:.2} / max {} (stddev {:.2})",
            d.min, d.mean, d.max, d.std_dev
        )?;
        writeln!(out, "components:  {components}")?;
        if let Some(c) = clustering {
            writeln!(out, "clustering:  {c:.4}")?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn opts(args: &[&str]) -> Opts {
        let env = crate::opts::Env::resolve(|_| None).unwrap();
        Opts::parse(args.iter().map(|s| s.to_string()), env).unwrap()
    }

    /// Two 3-vector clusters on the x axis.
    fn two_cluster_embedding() -> v2v_embed::Embedding {
        v2v_embed::Embedding::from_flat(
            2,
            vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1],
        )
    }

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("v2v_cli_test_{name}_{}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn end_to_end_embed_communities_predict() {
        // Two triangles joined by an edge.
        let edges = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n";
        let input = write_temp("edges", edges);
        let emb_path = std::env::temp_dir().join(format!("v2v_cli_emb_{}", std::process::id()));

        let o = opts(&[
            "embed",
            "--input", input.to_str().unwrap(),
            "--output", emb_path.to_str().unwrap(),
            "--dims", "8",
            "--walks", "20",
            "--length", "20",
            "--epochs", "3",
            "--threads", "1",
        ]);
        embed(&o).unwrap();

        // communities on the produced embedding
        let labels_out = std::env::temp_dir().join(format!("v2v_cli_comm_{}", std::process::id()));
        let o = opts(&[
            "communities",
            "--embedding", emb_path.to_str().unwrap(),
            "--k", "2",
            "--restarts", "10",
            "--output", labels_out.to_str().unwrap(),
        ]);
        communities(&o).unwrap();
        let text = std::fs::read_to_string(&labels_out).unwrap();
        let labels: Vec<usize> = text
            .lines()
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);

        // predict a hidden label
        let label_file = write_temp("labels", "0 0\n1 0\n2 0\n3 1\n4 1\n5 ?\n");
        let pred_out = std::env::temp_dir().join(format!("v2v_cli_pred_{}", std::process::id()));
        let o = opts(&[
            "predict",
            "--embedding", emb_path.to_str().unwrap(),
            "--labels", label_file.to_str().unwrap(),
            "--k", "2",
            "--output", pred_out.to_str().unwrap(),
        ]);
        predict(&o).unwrap();
        let pred = std::fs::read_to_string(&pred_out).unwrap();
        assert_eq!(pred.trim(), "5 1");
    }

    #[test]
    fn project_writes_csv_and_svg() {
        let edges = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n";
        let input = write_temp("edges_p", edges);
        let emb_path = std::env::temp_dir().join(format!("v2v_cli_emb_p_{}", std::process::id()));
        embed(&opts(&[
            "embed",
            "--input", input.to_str().unwrap(),
            "--output", emb_path.to_str().unwrap(),
            "--dims", "6",
            "--epochs", "1",
            "--threads", "1",
        ]))
        .unwrap();

        let csv = std::env::temp_dir().join(format!("v2v_cli_proj_{}.csv", std::process::id()));
        let svg = std::env::temp_dir().join(format!("v2v_cli_proj_{}.svg", std::process::id()));
        project(&opts(&[
            "project",
            "--embedding", emb_path.to_str().unwrap(),
            "--output", csv.to_str().unwrap(),
            "--svg", svg.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(text.lines().count(), 7); // header + 6 points
        assert!(std::fs::read_to_string(&svg).unwrap().contains("<svg"));
    }

    #[test]
    fn stats_runs_on_edge_list() {
        let input = write_temp("edges_s", "0 1\n1 2\n");
        stats(&opts(&["stats", "--input", input.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(load_graph(&opts(&["stats", "--input", "/nonexistent/file"])).is_err());
        assert!(communities(&opts(&["communities", "--embedding", "/nonexistent"])).is_err());
    }

    #[test]
    fn embedding_file_format_follows_extension_and_load_sniffs_both() {
        let emb = two_cluster_embedding();
        let dir = std::env::temp_dir();
        let txt = dir.join(format!("v2v_cli_fmt_{}.txt", std::process::id()));
        let v2s = dir.join(format!("v2v_cli_fmt_{}.v2s", std::process::id()));
        // A store under a name that does not say so: the sniff, not the
        // extension, routes it.
        let renamed = dir.join(format!("v2v_cli_fmt_{}.dat", std::process::id()));
        for path in [&txt, &v2s] {
            write_embedding_file(&emb, path.to_str().unwrap()).unwrap();
        }
        std::fs::copy(&v2s, &renamed).unwrap();
        assert!(std::fs::read_to_string(&txt).unwrap().starts_with("6 2"));
        assert!(std::fs::read(&v2s).unwrap().starts_with(b"V2VE"));

        // Every subcommand loads through this one function, so each
        // format must come back as the same vectors, bit for bit.
        for path in [&txt, &v2s, &renamed] {
            let loaded = load_embedding_path(path.to_str().unwrap()).unwrap();
            assert_eq!(loaded.dimensions(), 2);
            assert_eq!(loaded.as_flat(), emb.as_flat(), "{}", path.display());
        }

        // The binary format `.bin` / `.v2e` used to select is gone: the
        // extension is refused (before the input is even opened) with the
        // `.v2s` hint rather than becoming text, and a surviving v1 file —
        // magic, version 1, arbitrary bytes — is refused by version.
        let bin = dir.join(format!("v2v_cli_fmt_{}.bin", std::process::id()));
        let bin = bin.to_str().unwrap();
        let err = embed(&opts(&["embed", "--input", "/nonexistent", "--output", bin])).unwrap_err();
        assert!(err.contains(".v2s"), "{err}");
        std::fs::write(bin, [&b"V2VE"[..], &1u32.to_le_bytes(), &[0u8; 100]].concat()).unwrap();
        let err = load_embedding_path(bin).expect_err("v1 must be refused");
        assert!(err.contains("version 1"), "{err}");
    }

    /// `communities` and `predict` answer identically whichever of the
    /// two formats holds the vectors.
    #[test]
    fn communities_and_predict_agree_across_text_and_store() {
        let emb = two_cluster_embedding();
        let dir = std::env::temp_dir();
        let labels = write_temp("fmt_labels", "0 0\n1 0\n2 ?\n3 1\n4 1\n5 ?\n");
        let mut outputs = Vec::new();
        for ext in ["txt", "v2s"] {
            let emb_path = dir.join(format!("v2v_cli_xfmt_{}.{ext}", std::process::id()));
            write_embedding_file(&emb, emb_path.to_str().unwrap()).unwrap();
            let comm = dir.join(format!("v2v_cli_xfmt_comm_{}_{ext}", std::process::id()));
            communities(&opts(&[
                "communities",
                "--embedding", emb_path.to_str().unwrap(),
                "--k", "2",
                "--restarts", "5",
                "--output", comm.to_str().unwrap(),
            ]))
            .unwrap();
            let pred = dir.join(format!("v2v_cli_xfmt_pred_{}_{ext}", std::process::id()));
            predict(&opts(&[
                "predict",
                "--embedding", emb_path.to_str().unwrap(),
                "--labels", labels.to_str().unwrap(),
                "--k", "2",
                "--output", pred.to_str().unwrap(),
            ]))
            .unwrap();
            outputs.push((
                std::fs::read_to_string(&comm).unwrap(),
                std::fs::read_to_string(&pred).unwrap(),
            ));
        }
        assert_eq!(outputs[0].1, "2 0\n5 1\n");
        assert_eq!(outputs[0], outputs[1], "text vs .v2s");
    }

    #[test]
    fn predict_ann_agrees_with_exact_scan() {
        let emb = two_cluster_embedding();
        let dir = std::env::temp_dir();
        let emb_path = dir.join(format!("v2v_cli_ann_{}.v2s", std::process::id()));
        write_embedding_file(&emb, emb_path.to_str().unwrap()).unwrap();
        let labels = write_temp("ann_labels", "0 0\n1 0\n2 0\n3 1\n4 1\n5 ?\n");

        let mut outputs = Vec::new();
        for ann in [false, true] {
            let out = dir.join(format!("v2v_cli_ann_out_{}_{ann}", std::process::id()));
            let mut args = vec![
                "predict",
                "--embedding", emb_path.to_str().unwrap(),
                "--labels", labels.to_str().unwrap(),
                "--k", "3",
                "--output", out.to_str().unwrap(),
            ];
            if ann {
                args.push("--ann");
            }
            predict(&opts(&args)).unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(outputs[0].trim(), "5 1");
        assert_eq!(outputs[0], outputs[1], "--ann must not change predictions here");
    }

    #[test]
    fn bad_label_file_errors() {
        let path = write_temp("badlabels", "0 oops\n");
        assert!(read_labels(path.to_str().unwrap(), 5).is_err());
        let path = write_temp("oor", "99 1\n");
        assert!(read_labels(path.to_str().unwrap(), 5).is_err());
    }

    /// `embed --profile` must write a file the `profile` subcommand can
    /// parse back — the smoke contract scripts/ci.sh also exercises.
    #[test]
    fn embed_profile_output_feeds_profile_subcommand() {
        let edges = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n";
        let input = write_temp("edges_prof", edges);
        let dir = std::env::temp_dir();
        let emb_path = dir.join(format!("v2v_cli_prof_emb_{}", std::process::id()));
        let prof_path = dir.join(format!("v2v_cli_prof_{}.json", std::process::id()));

        embed(&opts(&[
            "embed",
            "--input", input.to_str().unwrap(),
            "--output", emb_path.to_str().unwrap(),
            "--dims", "8",
            "--epochs", "2",
            "--threads", "1",
            "--profile", prof_path.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&prof_path).unwrap();
        let flat = v2v_obs::FlatProfile::from_json(&text).expect("embed wrote a valid profile");
        assert!(flat.hz >= 1);
        assert!(flat.wall_secs > 0.0);

        // Both render formats parse from the file the embed run produced.
        for format in ["table", "json"] {
            profile(&opts(&[
                "profile",
                "--input", prof_path.to_str().unwrap(),
                "--format", format,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn profile_subcommand_rejects_bad_input() {
        assert!(profile(&opts(&["profile", "--input", "/nonexistent/prof.json"])).is_err());
        let junk = write_temp("prof_junk", "{\"not\": \"a profile\"}");
        let err = profile(&opts(&["profile", "--input", junk.to_str().unwrap()]))
            .expect_err("junk must be rejected");
        assert!(err.contains("not a v2v flat profile"), "got {err:?}");
    }
}

#[cfg(test)]
mod quality_tests {
    use super::tests::opts;
    use super::*;

    #[test]
    fn quality_runs_on_matched_pair() {
        let edges = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n";
        let input = std::env::temp_dir().join(format!("v2v_q_edges_{}", std::process::id()));
        std::fs::write(&input, edges).unwrap();
        let emb_path = std::env::temp_dir().join(format!("v2v_q_emb_{}", std::process::id()));
        embed(&opts(&[
            "embed", "--input", input.to_str().unwrap(),
            "--output", emb_path.to_str().unwrap(),
            "--dims", "6", "--epochs", "1", "--threads", "1",
        ]))
        .unwrap();
        quality(&opts(&[
            "quality", "--input", input.to_str().unwrap(), "--embedding", emb_path.to_str().unwrap(),
        ]))
        .unwrap();
    }

    fn write_text_embedding(name: &str, dims: usize, rows: &[Vec<f32>]) -> std::path::PathBuf {
        let mut text = format!("{} {dims}\n", rows.len());
        for (i, row) in rows.iter().enumerate() {
            text.push_str(&format!("{i}"));
            for v in row {
                text.push_str(&format!(" {v}"));
            }
            text.push('\n');
        }
        let path = std::env::temp_dir().join(format!("v2v_drift_{name}_{}.txt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    /// Rows on the unit circle: distinct, deterministic, non-degenerate.
    fn circle_rows(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let theta = i as f32 * 0.7;
                vec![theta.cos(), theta.sin()]
            })
            .collect()
    }

    #[test]
    fn drift_on_identical_stores_is_zero_and_does_not_advise_retrain() {
        let rows = circle_rows(12);
        let path = write_text_embedding("same", 2, &rows);
        let out = std::env::temp_dir().join(format!("v2v_drift_same_{}.json", std::process::id()));
        drift(&opts(&[
            "drift",
            "--a", path.to_str().unwrap(),
            "--b", path.to_str().unwrap(),
            "--k", "3",
            "--format", "json",
            "--output", out.to_str().unwrap(),
        ]))
        .unwrap();
        let report = v2v_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(report.get("neighbor_churn").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(report.get("centroid_shift").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(report.get("max_row_shift").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(report.get("retrain_advised").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(report.get("vectors_a").and_then(|v| v.as_u64()), Some(12));
    }

    #[test]
    fn drift_on_perturbed_store_trips_retrain_advised() {
        let rows = circle_rows(12);
        let mut reversed = rows.clone();
        reversed.reverse(); // every vertex gets a different vector → heavy churn
        let a = write_text_embedding("pa", 2, &rows);
        let b = write_text_embedding("pb", 2, &reversed);
        let out = std::env::temp_dir().join(format!("v2v_drift_pert_{}.json", std::process::id()));
        drift(&opts(&[
            "drift",
            "--a", a.to_str().unwrap(),
            "--b", b.to_str().unwrap(),
            "--k", "3",
            "--quality-churn-threshold", "0.05",
            "--format", "table",
            "--output", out.to_str().unwrap(),
        ]))
        .unwrap();
        let report = v2v_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let churn = report.get("neighbor_churn").and_then(|v| v.as_f64()).unwrap();
        assert!(churn > 0.05, "reversed rows must churn neighbor sets, got {churn}");
        assert_eq!(report.get("retrain_advised").and_then(|v| v.as_bool()), Some(true));
        assert!(report.get("max_row_shift").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn drift_rejects_missing_and_mismatched_inputs() {
        let rows2 = circle_rows(4);
        let rows3: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32, 0.0, 1.0]).collect();
        let a = write_text_embedding("m2", 2, &rows2);
        let b = write_text_embedding("m3", 3, &rows3);
        assert!(drift(&opts(&["drift", "--b", b.to_str().unwrap()])).is_err());
        let err = drift(&opts(&[
            "drift",
            "--a", a.to_str().unwrap(),
            "--b", b.to_str().unwrap(),
        ]))
        .expect_err("dims mismatch must be rejected");
        assert!(err.contains("dimensionality mismatch"), "got {err:?}");
    }

    #[test]
    fn quality_rejects_size_mismatch() {
        let edges = "0 1\n1 2\n";
        let input = std::env::temp_dir().join(format!("v2v_qm_edges_{}", std::process::id()));
        std::fs::write(&input, edges).unwrap();
        let emb = std::env::temp_dir().join(format!("v2v_qm_emb_{}", std::process::id()));
        std::fs::write(&emb, "2 2\n0 1.0 0.0\n1 0.0 1.0\n").unwrap();
        assert!(quality(&opts(&[
            "quality", "--input", input.to_str().unwrap(), "--embedding", emb.to_str().unwrap(),
        ]))
        .is_err());
    }
}
