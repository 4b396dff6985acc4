//! `v2v help` is the option table rendered, and the command line is
//! checked against the same table: what help must mention, and what the
//! parser must refuse.

use std::process::Command;

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .arg("help")
        .output()
        .expect("run v2v help");
    assert!(out.status.success(), "v2v help must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 help text")
}

/// Everything an operator must be able to discover from `v2v help`
/// without reading source, one surface per row.
#[test]
fn help_documents_every_surface() {
    let help = help_output();
    let surfaces: [(&str, &[&str]); 6] = [
        (
            "observability",
            &[
                "--metrics", "V2V_LOG", "V2V_ACCESS_LOG", "V2V_SLOW_REQUEST_MS", "V2V_FLIGHT_DUMP",
                "V2V_NO_SIMD", "X-Request-Id", "/metricz", "/tracez", "format=prometheus", "SIGUSR1",
            ],
        ),
        // The self-sampling profiler, its rate knob and its renderer.
        (
            "profiling",
            &["--profile", "v2v profile", "--format table|json", "V2V_PROFILE_HZ", "SIGPROF"],
        ),
        // Sharded walk corpora, the `.v2s` store, snapshot indexing, cold start.
        (
            "store",
            &[
                "v2v walks", "v2v index", "--corpus", "--shard-mb", "--store", ".v2s",
                "--rebuild-index", "serve.cold_start_ms",
            ],
        ),
        // The serve-side WAL flags, the streaming client, the recovery gauges.
        (
            "ingest",
            &[
                "v2v ingest", "--wal-dir", "--ingest-queue", "/ingest", "ingest.wal_replayed",
                "ingest.lag_edges", "ingest.last_applied_seq", "Retry-After",
            ],
        ),
        // The quality sentinel's flags, endpoint and gauges, and the offline differ.
        (
            "quality",
            &[
                "v2v drift", "--quality-churn-threshold", "--quality-canaries",
                "--quality-probe-ms", "--quality-off", "/qualityz", "quality.recall_at_10",
                "quality.neighbor_churn", "quality.centroid_shift", "quality.retrain_advised",
                "ingest.batch_churn",
            ],
        ),
        // Keep-alive (the one fast-path knob) and `/batch` with its fixed cap.
        (
            "serving fast path",
            &[
                "--keep-alive", "/batch", "up to 64", "pipelining", "serve.conn.reused",
                "serve.batch.rejected",
            ],
        ),
    ];
    for (surface, needles) in surfaces {
        for needle in needles {
            assert!(help.contains(needle), "{surface}: v2v help must mention {needle}\n---\n{help}");
        }
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .arg("frobnicate")
        .output()
        .expect("run v2v frobnicate");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: v2v"), "stderr must carry usage, got:\n{err}");
}

/// Every subcommand refuses a flag its table does not declare: exit 2, the
/// flag named, the subcommand's own flags listed, and nothing written —
/// the refusal comes before any work starts.
#[test]
fn every_subcommand_refuses_an_undeclared_flag() {
    let help = help_output();
    let usage = help.lines().next().expect("usage line");
    let commands: Vec<&str> = usage
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .expect("usage: v2v <a|b|...> [options]")
        .0
        .split('|')
        .collect();
    assert!(commands.len() >= 13 && commands.contains(&"embed"), "{usage}");

    let dir = std::env::temp_dir().join(format!("v2v_undeclared_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for command in commands {
        let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
            .args([command, "--no-such-flag", "x"])
            .current_dir(&dir)
            .output()
            .expect("run v2v");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "v2v {command}: {err}");
        assert!(err.contains("--no-such-flag"), "v2v {command} must name the flag:\n{err}");
        assert!(err.contains(&format!("v2v {command}\n")), "v2v {command}:\n{err}");
        assert!(err.contains("--metrics"), "v2v {command} must list its flags:\n{err}");
    }

    // The typo that used to train on every core and exit 0.
    std::fs::write(dir.join("edges.txt"), "0 1\n1 2\n2 0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .args(["embed", "--input", "edges.txt", "--output", "emb.txt", "--thread", "1"])
        .current_dir(&dir)
        .output()
        .expect("run v2v embed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--thread ") && err.contains("--threads <n>"), "{err}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["edges.txt"], "a refused command line must write nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
