//! Per-route instruments: `serve.requests.<route>` and
//! `serve.latency.<route>` exist from boot for every mounted route, count
//! each request to it once, and are never made for a path outside the
//! route table. One test in its own binary, because it reads the
//! process-global registry from a fresh start.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use v2v_embed::Embedding;
use v2v_serve::ingest::{IngestConfig, IngestState};
use v2v_serve::{
    Handler, HnswConfig, QualityState, SentinelConfig, ServeHandle, ServeState, Server,
    ServerConfig,
};

const ROUTES: [&str; 10] = [
    "batch",
    "healthz",
    "ingest",
    "metricz",
    "neighbors",
    "predict",
    "qualityz",
    "reload",
    "similarity",
    "tracez",
];

fn full_router(
    handle: Arc<ServeHandle>,
    ingest: Arc<IngestState>,
    quality: Arc<QualityState>,
) -> Handler {
    v2v_serve::api::router(handle, Some(ingest), Some(quality))
}

fn get_status(addr: SocketAddr, path: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
}

/// Per-route `(requests, latency window count)`, keyed by route name, for
/// every `serve.requests.*` counter or `serve.latency.*` window in the
/// registry (`serve.latency.all` is the server-wide window, not a route).
fn per_route() -> BTreeMap<String, (Option<u64>, Option<u64>)> {
    let snap = v2v_obs::global_metrics().snapshot();
    let mut routes: BTreeMap<String, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for (name, &value) in &snap.counters {
        if let Some(route) = name.strip_prefix("serve.requests.") {
            routes.entry(route.to_string()).or_default().0 = Some(value);
        }
    }
    for (name, window) in &snap.windows {
        if let Some(route) = name.strip_prefix("serve.latency.").filter(|r| *r != "all") {
            routes.entry(route.to_string()).or_default().1 = Some(window.count);
        }
    }
    routes
}

fn every_route_at(n: u64) -> BTreeMap<String, (Option<u64>, Option<u64>)> {
    ROUTES.iter().map(|r| (r.to_string(), (Some(n), Some(n)))).collect()
}

#[test]
fn route_instruments_exist_from_boot_count_each_request_and_stay_bounded() {
    let dir = std::env::temp_dir().join(format!("v2v_route_metrics_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let embedding = Embedding::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, -1.0, 0.0, -0.9, 0.1]);
    let state = ServeState::new(embedding, HnswConfig::default(), None).unwrap();
    let handle = ServeHandle::new(state, None);
    let (ingest, worker) =
        v2v_serve::ingest::start(handle.clone(), &dir, IngestConfig::default()).unwrap();
    let config = SentinelConfig {
        canaries: 2,
        k: 1,
        probe_interval: Duration::from_millis(5),
        ..Default::default()
    };
    let (quality, probe) = v2v_serve::sentinel::start(handle.clone(), config).unwrap();
    quality.stop();
    probe.join().unwrap();
    let server = Server::bind(
        ServerConfig { threads: 2, watch_signals: false, ..Default::default() },
        full_router(handle, ingest.clone(), quality),
    )
    .expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let running = std::thread::spawn(move || server.run());

    assert_eq!(per_route(), every_route_at(0), "each route's instruments exist from boot");

    // Every method is counted, so a GET to a POST-only route (405) counts.
    for route in ROUTES {
        get_status(addr, &format!("/{route}"));
    }
    assert_eq!(per_route(), every_route_at(1), "one request per route counts once");

    for i in 0..200 {
        assert_eq!(get_status(addr, &format!("/x{i}")), 404);
    }
    assert_eq!(per_route(), every_route_at(1), "unknown paths mint no instrument");

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    running.join().unwrap().unwrap();
    ingest.shutdown();
    worker.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
