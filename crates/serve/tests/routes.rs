//! The route contract: what every method × path pair answers, on the two
//! router shapes the server is built in — a bare [`ServeHandle`] (no
//! reload source, no feeds) and one with a reload source, streaming
//! ingest and the quality sentinel all mounted. Each answer is pinned as
//! status, `Content-Type` and the FNV-1a 64 of the body; `/metricz`,
//! `/tracez` and `/qualityz` carry counts and timestamps, so only their
//! status and `Content-Type` are pinned.

use std::sync::Arc;
use std::time::Duration;
use v2v_base::hash::{fnv1a64, FNV_OFFSET};
use v2v_embed::Embedding;
use v2v_serve::ingest::{IngestConfig, IngestState};
use v2v_serve::{
    Handler, HnswConfig, QualityState, Request, SentinelConfig, ServeHandle, ServeState,
};

const METHODS: [&str; 3] = ["GET", "POST", "PUT"];

const PATHS: [&str; 14] = [
    "/healthz",
    "/neighbors",
    "/similarity",
    "/predict",
    "/batch",
    "/metricz",
    "/tracez",
    "/reload",
    "/ingest",
    "/qualityz",
    "/",
    "/nope",
    "/a/b",
    "/reload/x",
];

/// Paths whose bodies hold counters or timestamps.
const UNPINNED_BODIES: [&str; 3] = ["/metricz", "/tracez", "/qualityz"];

/// Two labeled clusters on the x axis, vertex 5 unlabeled.
fn state() -> Result<ServeState, String> {
    let embedding = Embedding::from_flat(
        2,
        vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1],
    );
    let labels = vec![Some(0), Some(0), Some(0), Some(1), Some(1), None];
    ServeState::new(embedding, HnswConfig::default(), Some(labels))
}

fn full_router(
    handle: Arc<ServeHandle>,
    ingest: Arc<IngestState>,
    quality: Arc<QualityState>,
) -> Handler {
    v2v_serve::api::router(handle, Some(ingest), Some(quality))
}

/// Every method × path through `handler`, one line per pair:
/// `METHOD PATH STATUS CONTENT-TYPE FNV` (`-` for an unpinned body).
fn answers(handler: &Handler) -> Vec<String> {
    let mut lines = Vec::new();
    for path in PATHS {
        for method in METHODS {
            let req = Request {
                method: method.into(),
                path: path.into(),
                query: [("v", "0"), ("k", "2"), ("a", "0"), ("b", "3")]
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                request_id: "route-pin".into(),
                keep_alive: true,
                ..Default::default()
            };
            let r = handler(&req);
            let body = if UNPINNED_BODIES.contains(&path) {
                "-".to_string()
            } else {
                format!("{:016x}", fnv1a64(FNV_OFFSET, r.body.as_bytes()))
            };
            lines.push(format!("{method} {path} {} {} {body}", r.status, r.content_type));
        }
    }
    lines
}

fn assert_pinned(got: Vec<String>, pinned: &str) {
    let want: Vec<&str> = pinned.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    assert_eq!(got, want, "route contract moved; answers now:\n{}", got.join("\n"));
}

#[test]
fn bare_handle_answers_are_pinned() {
    let handler = ServeHandle::new(state().unwrap(), None).into_handler();
    assert_pinned(answers(&handler), BARE);
}

#[test]
fn mounted_feed_answers_are_pinned() {
    let dir = std::env::temp_dir().join(format!("v2v_routes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = ServeHandle::new(state().unwrap(), Some(Box::new(state)));
    let (ingest, worker) =
        v2v_serve::ingest::start(handle.clone(), &dir, IngestConfig::default()).unwrap();
    let config = SentinelConfig {
        canaries: 4,
        k: 2,
        probe_interval: Duration::from_millis(5),
        ..Default::default()
    };
    let (quality, probe) = v2v_serve::sentinel::start(handle.clone(), config).unwrap();
    quality.stop();
    probe.join().unwrap();

    let handler = full_router(handle, ingest.clone(), quality);
    let get_healthz = Request {
        method: "GET".into(),
        path: "/healthz".into(),
        ..Default::default()
    };
    // `benchmark/src/ingest.rs::parse_health` reads the `ingest.*` keys.
    assert_eq!(handler(&get_healthz).body, HEALTHZ_WITH_INGEST);
    assert_pinned(answers(&handler), MOUNTED);

    ingest.shutdown();
    worker.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

const HEALTHZ_WITH_INGEST: &str = r#"{"status": "ok", "vectors": 6, "dimensions": 2, "index": "exact", "index_source": "rebuilt", "backing": "ram", "degraded": false, "metric": "cosine", "ef_search": 64, "labels": true, "ingest.wal_replayed": 0, "ingest.lag_edges": 0, "ingest.last_applied_seq": 0, "ingest.durable_seq": 0, "ingest.folded_edges": 0, "ingest.wal.segments": 1, "ingest.wal.bytes": 16}"#;

const BARE: &str = "
    GET /healthz 200 application/json 8093230c608dc368
    POST /healthz 405 application/json 35cb371692fc2a77
    PUT /healthz 405 application/json e169cbf4d92b0fd8
    GET /neighbors 200 application/json 801ddd8df92bb4e6
    POST /neighbors 405 application/json 35cb371692fc2a77
    PUT /neighbors 405 application/json e169cbf4d92b0fd8
    GET /similarity 200 application/json 19c45b96b69cfda4
    POST /similarity 405 application/json 35cb371692fc2a77
    PUT /similarity 405 application/json e169cbf4d92b0fd8
    GET /predict 200 application/json 18020ef059aeb122
    POST /predict 400 application/json dff52a710da43bf3
    PUT /predict 405 application/json e169cbf4d92b0fd8
    GET /batch 405 application/json 1c0e8a6279c3bbff
    POST /batch 400 application/json dff52a710da43bf3
    PUT /batch 405 application/json e169cbf4d92b0fd8
    GET /metricz 200 application/json -
    POST /metricz 405 application/json -
    PUT /metricz 405 application/json -
    GET /tracez 200 application/json -
    POST /tracez 405 application/json -
    PUT /tracez 405 application/json -
    GET /reload 405 application/json 1c0e8a6279c3bbff
    POST /reload 400 application/json 8213f6a240f860a7
    PUT /reload 405 application/json e169cbf4d92b0fd8
    GET /ingest 404 application/json fd11f9d702c719f7
    POST /ingest 404 application/json fd11f9d702c719f7
    PUT /ingest 404 application/json fd11f9d702c719f7
    GET /qualityz 404 application/json -
    POST /qualityz 404 application/json -
    PUT /qualityz 404 application/json -
    GET / 404 application/json 70a2bb0a38fbb28b
    POST / 404 application/json 70a2bb0a38fbb28b
    PUT / 404 application/json 70a2bb0a38fbb28b
    GET /nope 404 application/json ecf2745e51537c43
    POST /nope 404 application/json ecf2745e51537c43
    PUT /nope 404 application/json ecf2745e51537c43
    GET /a/b 404 application/json 995bb9258fa04175
    POST /a/b 404 application/json 995bb9258fa04175
    PUT /a/b 404 application/json 995bb9258fa04175
    GET /reload/x 404 application/json 775cd0d4ebd401fd
    POST /reload/x 404 application/json 775cd0d4ebd401fd
    PUT /reload/x 404 application/json 775cd0d4ebd401fd
";

const MOUNTED: &str = "
    GET /healthz 200 application/json 00f95bd78a332d03
    POST /healthz 405 application/json 35cb371692fc2a77
    PUT /healthz 405 application/json e169cbf4d92b0fd8
    GET /neighbors 200 application/json 801ddd8df92bb4e6
    POST /neighbors 405 application/json 35cb371692fc2a77
    PUT /neighbors 405 application/json e169cbf4d92b0fd8
    GET /similarity 200 application/json 19c45b96b69cfda4
    POST /similarity 405 application/json 35cb371692fc2a77
    PUT /similarity 405 application/json e169cbf4d92b0fd8
    GET /predict 200 application/json 18020ef059aeb122
    POST /predict 400 application/json dff52a710da43bf3
    PUT /predict 405 application/json e169cbf4d92b0fd8
    GET /batch 405 application/json 1c0e8a6279c3bbff
    POST /batch 400 application/json dff52a710da43bf3
    PUT /batch 405 application/json e169cbf4d92b0fd8
    GET /metricz 200 application/json -
    POST /metricz 405 application/json -
    PUT /metricz 405 application/json -
    GET /tracez 200 application/json -
    POST /tracez 405 application/json -
    PUT /tracez 405 application/json -
    GET /reload 405 application/json 1c0e8a6279c3bbff
    POST /reload 200 application/json 7d451be73b63d9ee
    PUT /reload 405 application/json e169cbf4d92b0fd8
    GET /ingest 405 application/json 1c0e8a6279c3bbff
    POST /ingest 400 application/json dff52a710da43bf3
    PUT /ingest 405 application/json e169cbf4d92b0fd8
    GET /qualityz 200 application/json -
    POST /qualityz 405 application/json -
    PUT /qualityz 405 application/json -
    GET / 404 application/json 70a2bb0a38fbb28b
    POST / 404 application/json 70a2bb0a38fbb28b
    PUT / 404 application/json 70a2bb0a38fbb28b
    GET /nope 404 application/json ecf2745e51537c43
    POST /nope 404 application/json ecf2745e51537c43
    PUT /nope 404 application/json ecf2745e51537c43
    GET /a/b 404 application/json 995bb9258fa04175
    POST /a/b 404 application/json 995bb9258fa04175
    PUT /a/b 404 application/json 995bb9258fa04175
    GET /reload/x 404 application/json 775cd0d4ebd401fd
    POST /reload/x 404 application/json 775cd0d4ebd401fd
    PUT /reload/x 404 application/json 775cd0d4ebd401fd
";
