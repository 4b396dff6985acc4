//! `v2v` — command-line interface to the V2V graph-embedding pipeline.
//!
//! ```text
//! v2v embed       --input edges.txt --output emb.txt [--dims 50] [--directed]
//!                 [--format plain|weighted|temporal|weighted-temporal]
//!                 [--strategy uniform|edge-weighted|vertex-weighted|temporal|node2vec]
//!                 [--walks 10] [--length 80] [--epochs 2] [--window 5]
//!                 [--p 1.0 --q 1.0] [--time-window T] [--threads 0] [--seed S]
//!                 [--checkpoint-dir DIR [--checkpoint-every-epochs 1]
//!                 [--checkpoint-every-secs T] [--resume]]
//!                 [--profile prof.json] [--corpus walks_dir/]
//!                 (a `.bin`/`.v2e` --output writes the checksummed binary format
//!                 and a `.v2s` --output writes the mmap-able V2VE v2 store;
//!                 --corpus trains from a sharded on-disk corpus written by
//!                 `v2v walks` instead of generating walks in RAM;
//!                 --checkpoint-dir snapshots training state atomically at epoch
//!                 boundaries and --resume restarts from the latest snapshot
//!                 after a crash or kill; --profile self-samples the run with a
//!                 SIGPROF timer and writes a flat phase profile as JSON)
//! v2v walks       --input edges.txt --output walks_dir/ [--walks 10] [--length 80]
//!                 [--strategy ...] [--seed S] [--shard-mb 8] [--directed] [--format ...]
//!                 (stream the walk corpus to bounded-size checksummed shards on
//!                 disk; `v2v embed --corpus walks_dir/` then trains out of core,
//!                 bit-identical to in-RAM training at --threads 1)
//! v2v index       --store emb.v2s [--m 16] [--ef-construction 200]
//!                 (build the HNSW graph once and persist its snapshot into the
//!                 store's index section, fingerprinted against the payload;
//!                 `v2v serve` then loads it instead of rebuilding)
//! v2v profile     --input prof.json [--format table|json]
//!                 (render a flat profile written by `v2v embed --profile` as an
//!                 aligned table, or normalized JSON for scripts)
//! v2v communities --embedding emb.txt --k 10 [--restarts 100] [--output labels.txt]
//! v2v predict     --embedding emb.txt --labels labels.txt [--k 3] [--output out.txt]
//!                 [--ann [--ef-search 64]]
//!                 (label file lines: "<vertex> <label>" or "<vertex> ?" to predict;
//!                 --ann ranks neighbors with an HNSW index instead of a full scan)
//! v2v serve       --embedding emb.txt [--labels labels.txt] [--port 7878]
//!                 [--ef-search 64] [--threads 0] [--request-deadline-secs 10]
//!                 [--max-queue 1024] [--max-body 1048576] [--rebuild-index]
//!                 [--keep-alive 1024]
//!                 (HTTP JSON endpoints: /neighbors?v=&k=  /similarity?a=&b=
//!                 /predict?v=&k= (or POST {"vector":[...],"k":n})  POST /batch
//!                 {"queries":[{"op":"neighbors",...},...]}  /healthz  /metricz;
//!                 connections are HTTP/1.1 keep-alive with pipelining —
//!                 --keep-alive caps requests per connection (0 = close after
//!                 each); POST /batch takes up to 64 queries;
//!                 --embedding may be text, binary, or a `.v2s` store — stores
//!                 are mmap-ed and served with their persisted HNSW snapshot for
//!                 millisecond cold starts (--rebuild-index forces a rebuild);
//!                 SIGINT/SIGTERM drains and
//!                 shuts down cleanly; SIGHUP or POST /reload re-reads the
//!                 embedding + label files and hot-swaps them without dropping
//!                 in-flight requests; overload sheds 503 + Retry-After;
//!                 --wal-dir DIR enables durable streaming ingest: POST /ingest
//!                 appends edges to a write-ahead log — the 200 ACK follows the
//!                 fsync — and a background worker re-walks just the affected
//!                 neighborhood, fine-tunes those rows, patches the HNSW, and
//!                 hot-swaps the state; on restart the committed WAL replays
//!                 before serving (--ingest-queue bounds the committed-but-
//!                 unapplied backlog, default 8192))
//! v2v ingest      [--input edges.txt] [--port 7878 | --addr host:port]
//!                 [--batch 512]
//!                 (stream edges from a file or stdin to a running
//!                 `v2v serve --wal-dir` instance via POST /ingest; a batch is
//!                 acknowledged only once durable server-side, and 503 sheds
//!                 are retried after the server's Retry-After hint)
//! v2v project     --embedding emb.txt --output points.csv [--dims 2]
//!                 [--svg plot.svg [--labels labels.txt]]
//! v2v stats       --input edges.txt [--directed] [--format ...]
//! v2v quality     --input edges.txt --embedding emb.txt
//!                 (corpus + embedding diagnostics)
//! v2v drift       --a old.v2s --b new.v2s [--k 10] [--quality-canaries 64]
//!                 [--seed S] [--quality-churn-threshold 0.35]
//!                 [--format table|json|both] [--output report.json]
//!                 (offline diff of two embeddings / stores: canary
//!                 neighbor churn, centroid shift, norm drift — the same
//!                 statistics the serve-side quality sentinel tracks live)
//! ```
//!
//! Every subcommand also accepts `--metrics <path>`: after the command
//! finishes, the run's telemetry (span tree, metrics, provenance) is
//! written there as JSON (`.csv` extension switches to CSV) and a
//! human-readable summary goes to stderr. Stderr verbosity is controlled
//! by `V2V_LOG` (`off`, `error`, `info` (default), `debug`, `trace`).

mod commands;
mod opts;

use opts::Opts;
use v2v_obs::{obs_error, obs_info};

const USAGE: &str = "usage: v2v <embed|walks|index|communities|predict|serve|ingest|project|stats|quality|drift|profile> [options]

common options (every subcommand):
  --metrics <path>      after the run, write telemetry (span tree, metrics,
                        provenance) to <path> as JSON (.csv extension switches
                        to CSV) and print a summary to stderr

profiling and concurrency telemetry:
  embed --profile <path>  self-sample the run with a SIGPROF timer and write a
                        flat profile (walk-fetch/forward/gradient/output-update/
                        barrier-wait CPU split) to <path> as JSON; render it
                        with `v2v profile --input <path> [--format table|json]`
  hardware counters     per-thread cache-miss telemetry (train.thread.*.cache_
                        miss_per_pair, bench cache_miss_per_pair) needs the
                        perf_event_open syscall; containers and locked-down
                        kernels (kernel.perf_event_paranoid >= 2, seccomp, no
                        PMU) deny it, and those metrics then read null with the
                        reason — everything else degrades gracefully

million-vertex serving (the v2v-store path):
  v2v walks --input edges.txt --output walks_dir/   stream walks to disk shards
                        of bounded size (--shard-mb, default 8)
  v2v embed --corpus walks_dir/ --output emb.v2s    train out of core, write a
                        page-aligned mmap-able store (`.v2s`)
  v2v index --store emb.v2s                         persist the HNSW snapshot
                        into the store, fingerprinted against the payload
  v2v serve --embedding emb.v2s                     mmap + snapshot load: cold
                        start in milliseconds (serve.cold_start_ms gauge;
                        --rebuild-index ignores the snapshot)

serving fast path (keep-alive, batching):
  v2v serve ... [--keep-alive 1024]
                        connections are HTTP/1.1 keep-alive with pipelining:
                        --keep-alive caps requests served per connection
                        before a forced close (0 restores one request per
                        connection; serve.conn.reused / serve.conn.opened on
                        /metricz); POST /batch answers up to 64
                        heterogeneous queries ({\"queries\":[{\"op\":\"neighbors\",
                        \"v\":0,\"k\":5},...]}) in one response, each slot
                        byte-identical to its single-endpoint body (a larger
                        batch is a 400, counted in serve.batch.rejected)

environment:
  V2V_LOG               stderr log level: off, error, info (default), debug, trace
  V2V_PROFILE_HZ        embed --profile: sampling frequency in Hz (default 97,
                        clamped to 1..10000); a prime default avoids
                        phase-locking with periodic work
  V2V_ACCESS_LOG        serve: write a JSON access-log line per request to this
                        file path (or 'stderr'); each line carries the request's
                        X-Request-Id, method, path, status, bytes, latency_ms
  V2V_SLOW_REQUEST_MS   serve: requests slower than this log their span tree
                        (default 250)
  V2V_FLIGHT_DUMP       serve: where SIGUSR1 (and panics) dump the flight
                        recorder (default v2v-flight-<pid>.json)
  V2V_NO_MMAP           set to 1 to load `.v2s` stores onto the heap instead of
                        mmap-ing them (verifies every shard checksum up front)
  V2V_NO_SIMD           set to 1 to force the scalar f32 kernels (no AVX2/
                        unrolled SIMD paths) in training and ANN search;
                        single-threaded scalar runs are bit-reproducible
                        across machines
  V2V_QUALITY_CHURN_THRESHOLD  serve/drift: neighbor churn above which
                        quality.retrain_advised trips (default 0.35); the
                        --quality-churn-threshold flag wins over the env
  V2V_QUALITY_CANARIES  serve/drift: canary vertices sampled for quality
                        probes (default 64; flag --quality-canaries)
  V2V_QUALITY_PROBE_MS  serve: sentinel probe interval in milliseconds
                        (default 2000; flag --quality-probe-ms)
  V2V_QUALITY_OFF       serve: set to 1 to disable the quality sentinel
                        (flag --quality-off)
  V2V_KEEP_ALIVE        serve: requests served per connection before a forced
                        close (default 1024, 0 disables reuse; flag --keep-alive)

dynamic graphs (durable streaming ingest):
  v2v serve --embedding emb.txt --wal-dir wal/   accept POST /ingest edge
                        batches; each 200 ACK follows the WAL fsync, a
                        background worker folds committed edges into the
                        serving state with zero dropped requests, and on
                        restart the WAL replays before serving (watch
                        ingest.wal_replayed / ingest.lag_edges /
                        ingest.last_applied_seq in /healthz)
  v2v ingest --input edges.txt --port 7878       stream an edge file (or
                        stdin) to /ingest, honoring 503 Retry-After; the
                        serve-side --ingest-queue bound (default 8192) caps
                        the committed-but-unapplied backlog

embedding quality observability (the quality sentinel + v2v drift):
  v2v serve ... [--quality-churn-threshold 0.35] [--quality-canaries 64]
                [--quality-probe-ms 2000] [--quality-off]
                        a SCHED_IDLE sentinel thread replays a stable seeded
                        canary set against every installed index: ANN-vs-exact
                        quality.recall_at_10, per-swap quality.neighbor_churn,
                        quality.centroid_shift, and quality.retrain_advised
                        gauges on /metricz (Prometheus included), a JSON
                        GET /qualityz endpoint, and quality.probe /
                        quality.degraded flight-recorder events; each ingest
                        refresh also reports per-batch churn and fine-tune
                        loss delta (ingest.batch_churn, ingest.batch_loss_delta)
  v2v drift --a old.v2s --b new.v2s                diff two stores offline with
                        the same canary/churn/drift statistics; prints an
                        aligned table + JSON and exits 0 (inspect
                        retrain_advised in the JSON to gate a batch retrain)

serve signals: SIGINT/SIGTERM drain and exit; SIGHUP hot-reloads the embedding;
SIGUSR1 dumps the flight recorder. Live introspection over HTTP: /metricz
(JSON; ?format=prometheus for scrapers), /tracez (recent request events),
/qualityz (sentinel drift + recall report).

run `v2v help` or see the crate docs for the per-subcommand option list";

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            obs_error!("{e}");
            if v2v_obs::log_enabled(v2v_obs::Level::Error) {
                eprintln!("{USAGE}");
            }
            std::process::exit(2);
        }
    };
    let command = opts.command.clone().unwrap_or_default();
    let result = match opts.command.as_deref() {
        Some("embed") => commands::embed(&opts),
        Some("walks") => commands::walks(&opts),
        Some("index") => commands::index(&opts),
        Some("communities") => commands::communities(&opts),
        Some("predict") => commands::predict(&opts),
        Some("serve") => commands::serve(&opts),
        Some("ingest") => commands::ingest(&opts),
        Some("project") => commands::project(&opts),
        Some("stats") => commands::stats(&opts),
        Some("quality") => commands::quality(&opts),
        Some("drift") => commands::drift(&opts),
        Some("profile") => commands::profile(&opts),
        Some("help") | None => {
            println!("{USAGE}");
            return;
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        obs_error!("{e}");
        if v2v_obs::log_enabled(v2v_obs::Level::Error) {
            eprintln!("{USAGE}");
        }
        std::process::exit(1);
    }
    if let Err(e) = export_metrics(&opts, &command) {
        obs_error!("{e}");
        std::process::exit(1);
    }
}

/// Writes the run's telemetry to `--metrics <path>` (JSON, or CSV when the
/// path ends in `.csv`) and prints a summary to stderr.
fn export_metrics(opts: &Opts, command: &str) -> Result<(), String> {
    let Some(path) = opts.get_str("metrics") else {
        return Ok(());
    };
    let telemetry = v2v_obs::Telemetry::capture_global()
        .with("tool", "v2v-cli")
        .with("command", command)
        .with("args", std::env::args().skip(1).collect::<Vec<_>>().join(" "));
    let result = if path.ends_with(".csv") {
        telemetry.write_csv(path)
    } else {
        telemetry.write_json(path)
    };
    result.map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    obs_info!("{}", telemetry.summary().trim_end());
    obs_info!("wrote telemetry to {path}");
    Ok(())
}
