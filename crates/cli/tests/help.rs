//! `v2v help` must document the observability surface: the `--metrics`
//! flag and the `V2V_LOG` / `V2V_ACCESS_LOG` environment variables (plus
//! the rest of the serve introspection story), so operators can discover
//! them without reading source.

use std::process::Command;

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .arg("help")
        .output()
        .expect("run v2v help");
    assert!(out.status.success(), "v2v help must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 help text")
}

#[test]
fn help_documents_observability_controls() {
    let help = help_output();
    for needle in [
        "--metrics",
        "V2V_LOG",
        "V2V_ACCESS_LOG",
        "V2V_SLOW_REQUEST_MS",
        "V2V_FLIGHT_DUMP",
        "V2V_NO_SIMD",
        "X-Request-Id",
        "/metricz",
        "/tracez",
        "format=prometheus",
        "SIGUSR1",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

/// The concurrency-observability surface added for the Hogwild-scaling
/// investigation: the self-sampling profiler (`--profile`, its sampling
/// rate knob, and the `v2v profile` renderer) and the perf-counter
/// availability caveat.
#[test]
fn help_documents_profiling_surface() {
    let help = help_output();
    for needle in [
        "--profile",
        "v2v profile",
        "--format table|json",
        "V2V_PROFILE_HZ",
        "SIGPROF",
        "perf_event_open",
        "perf_event_paranoid",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

/// The out-of-core / mmap-store surface: sharded walk corpora, the
/// `.v2s` store, snapshot indexing, and the serve-side cold-start story
/// must all be discoverable from `v2v help`.
#[test]
fn help_documents_store_surface() {
    let help = help_output();
    for needle in [
        "v2v walks",
        "v2v index",
        "--corpus",
        "--shard-mb",
        "--store",
        ".v2s",
        "--rebuild-index",
        "V2V_NO_MMAP",
        "serve.cold_start_ms",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

/// The durable-streaming-ingest surface: the serve-side WAL flags, the
/// `v2v ingest` streaming client, and the recovery gauges operators watch
/// after a restart must all be discoverable from `v2v help`.
#[test]
fn help_documents_ingest_surface() {
    let help = help_output();
    for needle in [
        "v2v ingest",
        "--wal-dir",
        "--ingest-queue",
        "/ingest",
        "ingest.wal_replayed",
        "ingest.lag_edges",
        "ingest.last_applied_seq",
        "Retry-After",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

/// The embedding-quality surface: the background quality sentinel (its
/// serve flags and env overrides), the `/qualityz` endpoint, the
/// `quality.*` gauges, and the offline `v2v drift` differ must all be
/// discoverable from `v2v help`.
#[test]
fn help_documents_quality_surface() {
    let help = help_output();
    for needle in [
        "v2v drift",
        "--quality-churn-threshold",
        "--quality-canaries",
        "--quality-probe-ms",
        "--quality-off",
        "V2V_QUALITY_CHURN_THRESHOLD",
        "V2V_QUALITY_CANARIES",
        "V2V_QUALITY_PROBE_MS",
        "V2V_QUALITY_OFF",
        "/qualityz",
        "quality.recall_at_10",
        "quality.neighbor_churn",
        "quality.centroid_shift",
        "quality.retrain_advised",
        "ingest.batch_churn",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

/// The serving fast-path surface: keep-alive connection reuse (the one
/// knob, with its env fallback) and the `/batch` endpoint with its fixed
/// cap must be discoverable from `v2v help`.
#[test]
fn help_documents_serving_fast_path() {
    let help = help_output();
    for needle in [
        "--keep-alive",
        "V2V_KEEP_ALIVE",
        "/batch",
        "up to 64",
        "pipelining",
        "serve.conn.reused",
        "serve.batch.rejected",
    ] {
        assert!(help.contains(needle), "v2v help must mention {needle}\n---\n{help}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .arg("frobnicate")
        .output()
        .expect("run v2v frobnicate");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: v2v"), "stderr must carry usage, got:\n{err}");
}
