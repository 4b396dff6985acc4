//! The four workloads. Each run walks the same user-visible lifecycle —
//! make inputs, build the artefacts with the `v2v` commands, boot the
//! server, read, stream edges in, crash, restart — so every end-to-end
//! metric has one definition on every workload. What a workload chooses is
//! the dataset, where the measured seconds go, and the shape of the reads.

use crate::checks::{self, Check};
use crate::datasets::{self, Mix, QueryStream, Scale};
use crate::http::KeepAlive;
use crate::ingest::{self, Health, IngestLog, BATCH_PERIOD};
use crate::layers;
use crate::load::{self, Pacing, ReadPlan, ReadSummary};
use crate::proc::{nproc, CpuTimes, Exit, Server, V2v};
use crate::stats::median;
use crate::trace::Recorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    ServeRead,
    ServeConnect,
    ServeIngest,
}

pub const ALL: [Workload; 4] = [
    Workload::Pipeline,
    Workload::ServeRead,
    Workload::ServeConnect,
    Workload::ServeIngest,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::ServeRead => "serve_read",
            Workload::ServeConnect => "serve_connect",
            Workload::ServeIngest => "serve_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists; printed with its results.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Pipeline => {
                "offline user: edge list to first answer; trainer and kernels do most of the work, HNSW build the rest"
            }
            Workload::ServeRead => {
                "callers that wait on keep-alive connections; search, dispatch, encode and parsing do all the work"
            }
            Workload::ServeConnect => {
                "same server and data, one fresh TCP connection per request; the accept path is ~99 % of latency"
            }
            Workload::ServeIngest => {
                "open-loop reads beside streamed edges; the only one where WAL fsync, refresh and hot swap run under load"
            }
        }
    }

    /// Trains from a quasi-clique graph (`true`) or serves ready-made
    /// clustered vectors (`false`).
    fn trains_a_graph(self) -> bool {
        self == Workload::Pipeline
    }

    fn read_plan(self) -> ReadPlan {
        match self {
            // The offline user asks with curl or a script: a connection per
            // question. (Keep-alive callers on so small an index measure
            // mostly which cores the scheduler picked: same-code spread 0.4.)
            Workload::Pipeline | Workload::ServeConnect => ReadPlan {
                clients: 1,
                fresh_connections: true,
                pacing: Pacing::Closed,
                mix: Mix::Neighbors,
            },
            Workload::ServeRead => ReadPlan {
                clients: nproc(),
                fresh_connections: false,
                pacing: Pacing::Closed,
                mix: Mix::ReadMix,
            },
            Workload::ServeIngest => ReadPlan {
                clients: 1,
                fresh_connections: false,
                pacing: Pacing::Open {
                    rate: INGEST_READ_RATE,
                },
                mix: Mix::Neighbors,
            },
        }
    }
}

/// Reads per second beside the writer: far below what one connection
/// carries, so the schedule holds and latency shows what writes cost reads.
const INGEST_READ_RATE: f64 = 2000.0;
/// Input generations per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Extra boots of the finished artefacts; `cold_start_ms` is the median of
/// these and the boot that ends each build.
const EXTRA_BOOTS: usize = 14;
/// `kill -9` → answering again, repeated; `restart_s` is the median. Replay
/// is deterministic, so every repetition does the same work; it is also the
/// longest step after a long write stretch, hence only three.
const RESTARTS: usize = 3;
/// Windows of a read stretch. Interference on this box comes in bursts of
/// a second or two; the median of ten windows ignores up to four hit by one.
const WINDOWS: usize = 10;
const WARMUP_S: f64 = 1.0;
/// Length of the read stretch where the measured seconds go elsewhere.
const SHORT_READ_S: f64 = 4.0;
/// Length of the write stretch where the measured seconds go elsewhere.
const SHORT_WRITE_S: f64 = 5.0;
const SEPARATION_PAIRS: usize = 400;
const PURITY_SAMPLE: usize = 500;
const RECALL_SAMPLE: usize = 200;

pub struct Config {
    pub v2v: V2v,
    /// Scratch directory of this run; wiped before use.
    pub tmp: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Record client and subprocess spans (the traced run).
    pub traced: bool,
    /// Self-test: expect one edge more than was sent, which must fail.
    pub sabotage: bool,
}

/// Generated inputs of one run.
struct Inputs {
    /// Planted group of every vertex.
    groups: Vec<u32>,
    /// The vectors, when they are inputs rather than trained.
    blobs: Option<datasets::Blobs>,
    /// Edge list (graph workloads) or store without index.
    source: PathBuf,
    labels: Option<PathBuf>,
    batches: Vec<Vec<(u32, u32)>>,
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("benchmark paths are UTF-8")
}

fn make_inputs(cfg: &Config, dir: &Path, write_s: f64) -> Result<Inputs, String> {
    fresh_dir(dir)?;
    let batch_count = (write_s / BATCH_PERIOD.as_secs_f64()).ceil() as usize;
    if cfg.workload.trains_a_graph() {
        let graph = datasets::qc_graph(cfg.seed, &cfg.scale);
        let source = dir.join("graph.txt");
        write(&source, &graph.edge_list)?;
        let batches = datasets::ingest_batches(cfg.seed, &graph.groups, batch_count);
        Ok(Inputs {
            groups: graph.groups,
            blobs: None,
            source,
            labels: None,
            batches,
        })
    } else {
        let blobs = datasets::blobs(cfg.seed, &cfg.scale);
        let source = dir.join("vectors.v2s");
        layers::write_store(&source, blobs.dims, &blobs.data)?;
        let labels = dir.join("labels.txt");
        write(&labels, &datasets::labels_file(cfg.seed, &blobs.groups))?;
        let batches = datasets::ingest_batches(cfg.seed, &blobs.groups, batch_count);
        Ok(Inputs {
            groups: blobs.groups.clone(),
            blobs: Some(blobs),
            source,
            labels: Some(labels),
            batches,
        })
    }
}

/// Everything the `v2v` children of a run cost.
#[derive(Default)]
struct Children {
    peak_rss_mb: f64,
    commands: u64,
}

impl Children {
    fn count(&mut self, exit: Exit) -> Exit {
        self.peak_rss_mb = self.peak_rss_mb.max(exit.peak_rss_mb);
        self.commands += 1;
        exit
    }
}

/// One pass from inputs to a first answer.
struct Build {
    embed_s: f64,
    index_s: f64,
    boot_ms: f64,
    cpu_s: f64,
}

/// What the answers served from one trained embedding are worth.
struct Trained {
    separation: f64,
    purity: f64,
    inconsistent_lists: u64,
}

struct Run<'a> {
    cfg: &'a Config,
    inputs: Inputs,
    children: Children,
    /// One entry per build of a trained embedding.
    trained: Vec<Trained>,
    /// The store the server boots from.
    store: PathBuf,
    wal: PathBuf,
    rec: Recorder,
}

impl Run<'_> {
    fn serve_args(&self) -> Vec<&str> {
        let mut args = vec![
            "--embedding",
            path_str(&self.store),
            "--wal-dir",
            path_str(&self.wal),
        ];
        if let Some(labels) = &self.inputs.labels {
            args.extend_from_slice(&["--labels", path_str(labels)]);
        }
        args
    }

    /// Spawns the server and waits for its first answer; returns it with
    /// the milliseconds from spawn to the reply's last byte.
    fn boot(&mut self) -> Result<(Server, f64), String> {
        let server = self
            .cfg
            .v2v
            .serve(&self.serve_args(), &self.cfg.tmp.join("serve.log"))?;
        KeepAlive::new(server.addr).get_ok(&datasets::Query::Neighbors(0).path())?;
        let now = Instant::now();
        self.rec.record(
            "v2v serve: spawn to first answer",
            "cli",
            server.started,
            now,
            None,
            None,
        );
        let boot_ms = now.duration_since(server.started).as_secs_f64() * 1e3;
        Ok((server, boot_ms))
    }

    fn kill(&mut self, server: Server) -> Result<Exit, String> {
        server
            .kill()
            .map(|exit| self.children.count(exit))
            .map_err(|e| format!("kill: {e}"))
    }

    fn command(&mut self, name: &'static str, args: &[&str]) -> Result<Exit, String> {
        let start = Instant::now();
        let exit = self.cfg.v2v.run(args, &self.cfg.tmp.join("command.log"))?;
        self.rec
            .record(name, "cli", start, Instant::now(), None, None);
        Ok(self.children.count(exit))
    }

    /// `v2v embed` (graph workloads) → `v2v index` → boot → first answer,
    /// in a fresh directory. The server is killed again; its cost counts.
    fn build(&mut self, dir: &Path) -> Result<Build, String> {
        fresh_dir(dir)?;
        self.store = dir.join("emb.v2s");
        self.wal = dir.join("wal");
        let (source, store) = (
            path_str(&self.inputs.source).to_string(),
            path_str(&self.store).to_string(),
        );
        let threads = nproc().to_string();
        let mut embed = Exit::default();
        if self.cfg.workload.trains_a_graph() {
            let dims = self.cfg.scale.dims.to_string();
            embed = self.command(
                "v2v embed",
                &[
                    "embed",
                    "--input",
                    &source,
                    "--output",
                    &store,
                    "--dims",
                    &dims,
                    "--walks",
                    "10",
                    "--length",
                    "80",
                    "--epochs",
                    "2",
                    "--threads",
                    &threads,
                    "--seed",
                    &self.cfg.seed.to_string(),
                ],
            )?;
        } else {
            std::fs::copy(&source, &store).map_err(|e| format!("copy store: {e}"))?;
        }
        let index = self.command("v2v index", &["index", "--store", &store])?;
        let (server, boot_ms) = self.boot()?;
        let served = self.kill(server)?;
        if self.cfg.workload.trains_a_graph() {
            // Training is not repeatable with more than one thread, so each
            // build's answers are judged; on a boot of their own, to keep
            // the check's queries out of the build's CPU time.
            let (server, _) = self.boot()?;
            let trained = self.check_trained(&server)?;
            self.trained.push(trained);
            self.kill(server)?;
        }
        Ok(Build {
            embed_s: embed.wall_s,
            index_s: index.wall_s,
            boot_ms,
            cpu_s: embed.cpu_s + index.cpu_s + served.cpu_s,
        })
    }

    /// Judges the answers served from the embedding just trained:
    /// planted-group recovery by the embedding (`/similarity`) and by the
    /// served neighbours, and the neighbour lists against the stored
    /// vectors as the driver reads them.
    fn check_trained(&self, server: &Server) -> Result<Trained, String> {
        let (seed, groups) = (self.cfg.seed, &self.inputs.groups);
        let sample = checks::sample_vertices(seed, groups.len(), PURITY_SAMPLE);
        let served = checks::served_neighbors(server.addr, &sample)?;
        let (dims, data) = layers::read_store(&self.store)?;
        Ok(Trained {
            separation: checks::planted_pair_separation(
                server.addr,
                groups,
                seed,
                SEPARATION_PAIRS,
            )?,
            purity: checks::neighbor_purity(groups, &sample, &served),
            inconsistent_lists: checks::inconsistent_lists(&data, dims, &sample, &served),
        })
    }

    /// The quality checks of the served answers: those of the trained
    /// embeddings, or recall against brute force for given vectors.
    /// Returns the checks and how many queries they made.
    fn check_answers(&self, server: &Server) -> Result<(Vec<Check>, u64), String> {
        match &self.inputs.blobs {
            None => {
                let over = |f: fn(&Trained) -> f64| self.trained.iter().map(f);
                let builds = self.trained.len();
                Ok((
                    vec![
                        Check::at_least(
                            "planted_pair_separation (worst build)",
                            over(|t| t.separation).fold(f64::INFINITY, f64::min),
                            checks::SEPARATION_FLOOR,
                        ),
                        Check::at_least(
                            "neighbor_purity (mean over builds)",
                            over(|t| t.purity).sum::<f64>() / builds as f64,
                            checks::PURITY_FLOOR,
                        ),
                        Check::equal(
                            "served neighbour lists that disagree with the store",
                            self.trained.iter().map(|t| t.inconsistent_lists).sum(),
                            0,
                        ),
                    ],
                    (builds * (2 * SEPARATION_PAIRS + PURITY_SAMPLE)) as u64,
                ))
            }
            Some(blobs) => {
                let sample =
                    checks::sample_vertices(self.cfg.seed, blobs.groups.len(), RECALL_SAMPLE);
                let recall =
                    checks::neighbor_recall(server.addr, &blobs.data, blobs.dims, &sample)?;
                Ok((
                    vec![Check::at_least(
                        "recall_at_10",
                        recall,
                        checks::RECALL_FLOOR,
                    )],
                    sample.len() as u64,
                ))
            }
        }
    }
}

/// The `kernels.backend.<name>` gauge of `/metricz`: rows measured on
/// different kernels must not be compared.
fn kernel_backend(server: &Server) -> Result<String, String> {
    let doc = crate::json::Value::parse(&KeepAlive::new(server.addr).get_ok("/metricz")?)?;
    let gauges = doc.get("gauges").ok_or("/metricz has no gauges")?;
    let name = gauges
        .fields()
        .iter()
        .find_map(|(k, _)| k.strip_prefix("kernels.backend."));
    Ok(name.unwrap_or("unknown").to_string())
}

/// What one run measured, before it is shaped into metrics.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub embed_s: Vec<f64>,
    pub index_s: Vec<f64>,
    pub pipeline_s: Vec<f64>,
    pub build_cpu_s: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub reads: ReadSummary,
    /// The same read stream with client spans on (traced run only).
    pub traced_reads: Option<ReadSummary>,
    pub ingest: IngestLog,
    pub restart_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub steal_frac: f64,
    /// The kernel backend the server says it runs (`avx2fma`, `scalar`, …).
    pub backend: String,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub recorder: Recorder,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let origin = Instant::now();
    let cpu_start = CpuTimes::now();
    let plan = cfg.workload.read_plan();
    let beside = matches!(plan.pacing, Pacing::Open { .. });
    // Where the measured seconds go: builds (pipeline), reads, or reads
    // beside writes (serve_ingest). The traced run halves its stretches to
    // leave room for the layer probes.
    let scale_s = if cfg.traced { 0.5 } else { 1.0 };
    let build_budget_s = if cfg.workload.trains_a_graph() {
        cfg.seconds * scale_s
    } else {
        0.0
    };
    let read_s = scale_s
        * match cfg.workload {
            Workload::Pipeline => SHORT_READ_S.min(cfg.seconds),
            _ => cfg.seconds,
        };
    let write_s = scale_s
        * if beside {
            cfg.seconds
        } else {
            SHORT_WRITE_S.min(cfg.seconds)
        };

    // Set-up: the benchmark's own work, repeated so its median is steady.
    // Every repetition replaces the files of the one before: writing each
    // to a directory of its own made the write take 1 ms or 19 ms by the
    // run (the file system's doing), which halved or doubled the median.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        inputs = Some(make_inputs(cfg, &cfg.tmp.join("inputs"), write_s)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut run = Run {
        cfg,
        inputs: inputs.expect("SETUPS is at least one"),
        children: Children::default(),
        trained: Vec::new(),
        store: PathBuf::new(),
        wal: PathBuf::new(),
        rec: Recorder::new(origin, 0),
    };

    // Builds: as many as fit the measured seconds; at least two of a
    // trained embedding, whose quality is judged as their mean.
    let least_builds = if cfg.workload.trains_a_graph() { 2 } else { 1 };
    let mut builds = Vec::new();
    let building = Instant::now();
    while builds.len() < least_builds || building.elapsed().as_secs_f64() < build_budget_s {
        builds.push(run.build(&cfg.tmp.join(format!("build-{}", builds.len())))?);
    }
    let mut boot_ms: Vec<f64> = builds.iter().map(|b| b.boot_ms).collect();
    for _ in 0..EXTRA_BOOTS {
        let (server, ms) = run.boot()?;
        boot_ms.push(ms);
        run.kill(server)?;
    }
    let (mut server, _) = run.boot()?;
    let backend = kernel_backend(&server)?;

    let (mut checks, check_queries) = run.check_answers(&server)?;

    // Reads, then writes — or both at once.
    let vertices = run.inputs.groups.len();
    let read = |server: &Server, stream_base: u64, warmup_s: f64, traced: bool| {
        let windows = if cfg.traced {
            WINDOWS.div_ceil(2)
        } else {
            WINDOWS
        };
        let secs = if cfg.traced { read_s / 2.0 } else { read_s };
        load::run_reads(
            server,
            &plan,
            &|c| QueryStream::new(cfg.seed, stream_base + c as u64, vertices, plan.mix),
            warmup_s,
            windows,
            secs / windows as f64,
            traced.then_some(&run.rec),
        )
    };
    let write = |server: &Server, after_s: f64| {
        let t0 = Instant::now() + Duration::from_secs_f64(after_s);
        ingest::write_and_drain(
            server.addr,
            &run.inputs.batches,
            t0,
            t0 + Duration::from_secs_f64(write_s),
        )
    };
    let (reads, traced_reads, written) = if beside {
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| write(&server, WARMUP_S));
            let plain = read(&server, 0, WARMUP_S, false);
            let traced = cfg.traced.then(|| read(&server, 1 << 16, 0.0, true));
            (
                plain,
                traced,
                writer.join().expect("writer thread panicked"),
            )
        })
    } else {
        let plain = read(&server, 0, WARMUP_S, false);
        let traced = cfg.traced.then(|| read(&server, 1 << 16, 0.0, true));
        (plain, traced, write(&server, 0.0))
    };
    let (ingest_log, drained) = written?;
    if ingest_log.ack_ms.is_empty() || ingest_log.fold_lag_ms.is_empty() {
        return Err(format!(
            "no ingest batch was acknowledged and applied: {ingest_log:?}"
        ));
    }
    let traced_reads = match traced_reads {
        Some(mut r) => {
            for rec in r.recorders.drain(..) {
                run.rec.absorb(rec);
            }
            Some(load::summarize(&r)?)
        }
        None => None,
    };
    let reads = load::summarize(&reads)?;

    let expected_edges = ingest_log.edges_acked + u64::from(cfg.sabotage);
    checks.push(Check::equal("reads answered non-2xx", reads.failed, 0));
    checks.push(Check::equal(
        "ingest batches refused",
        ingest_log.batches_failed,
        0,
    ));
    checks.push(Check::equal(
        "ACKs without durable: true",
        ingest_log.not_durable,
        0,
    ));
    checks.push(Check::equal(
        "ingest.folded_edges after drain",
        drained.folded_edges,
        expected_edges,
    ));

    // Crash and restart on the same WAL.
    let mut restart_s = Vec::new();
    let mut replayed = Health::default();
    for _ in 0..if cfg.traced { 1 } else { RESTARTS } {
        let killed = Instant::now();
        run.kill(server)?;
        (server, _) = run.boot()?;
        restart_s.push(killed.elapsed().as_secs_f64());
        replayed = ingest::fetch_health(server.addr)?;
    }
    run.kill(server)?;
    checks.push(Check::equal(
        "ingest.wal_replayed after kill -9",
        replayed.wal_replayed,
        expected_edges,
    ));
    checks.push(Check::equal(
        "ingest.folded_edges after kill -9",
        replayed.folded_edges,
        expected_edges,
    ));

    let attempted = reads.attempted
        + traced_reads.as_ref().map_or(0, |r| r.attempted)
        + ingest_log.batches_attempted
        + check_queries
        + run.children.commands;
    let mut out = Outcome {
        setup_s,
        embed_s: builds.iter().map(|b| b.embed_s).collect(),
        index_s: builds.iter().map(|b| b.index_s).collect(),
        pipeline_s: builds
            .iter()
            .map(|b| b.embed_s + b.index_s + b.boot_ms / 1e3)
            .collect(),
        build_cpu_s: builds.iter().map(|b| b.cpu_s).collect(),
        boot_ms,
        failed: reads.failed
            + traced_reads.as_ref().map_or(0, |r| r.failed)
            + ingest_log.batches_failed,
        reads,
        traced_reads,
        ingest: ingest_log,
        restart_s,
        peak_rss_mb: run.children.peak_rss_mb,
        steal_frac: CpuTimes::now().steal_frac_since(&cpu_start),
        backend,
        checks,
        attempted,
        recorder: run.rec,
    };
    if !out.correct() {
        // A failed check voids every operation of the workload.
        out.failed = out.attempted;
    }
    Ok(out)
}

/// Everything a run measures end to end. `BENCHMARK.json` says which of
/// these carry a bound (its `end_to_end` list, reported by the plain run)
/// and which do not (named in its `per_layer` list, reported by the traced
/// run; the plain run prints them too, marked as unbounded).
pub fn measured(o: &Outcome) -> Vec<crate::report::Metric> {
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("pipeline_s", median(&o.pipeline_s), "s"),
        ("embed_s", median(&o.embed_s), "s"),
        ("index_s", median(&o.index_s), "s"),
        ("cold_start_ms", median(&o.boot_ms), "ms"),
        ("cpu_s", median(&o.build_cpu_s), "CPU-s"),
        ("rps", o.reads.rps, "req/s"),
        ("p50_ms", o.reads.p50_ms, "ms"),
        ("p99_ms", o.reads.tail_ms, "ms"),
        ("cpu_us_per_req", o.reads.cpu_us_per_req, "us"),
        ("ingest_ack_p50_ms", median(&o.ingest.ack_ms), "ms"),
        ("fold_lag_p50_ms", median(&o.ingest.fold_lag_ms), "ms"),
        ("restart_s", median(&o.restart_s), "s"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
    ]
}
