//! End-to-end server test: bind an ephemeral port, talk real HTTP/1.1
//! over `TcpStream`, assert JSON shapes, and shut down gracefully via the
//! programmatic flag (the SIGINT path sets the same flag from a handler).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use v2v_embed::Embedding;
use v2v_obs::json;
use v2v_serve::{Handler, HnswConfig, ServeHandle, ServeState, Server, ServerConfig};

fn test_handler() -> Handler {
    // Two clusters on the x axis; vertex 5 is the unlabeled probe.
    let embedding = Embedding::from_flat(
        2,
        vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1],
    );
    let labels = vec![Some(0), Some(0), Some(0), Some(1), Some(1), None];
    let state = ServeState::new(embedding, HnswConfig::default(), Some(labels)).unwrap();
    ServeHandle::new(state, None).into_handler()
}

/// One raw HTTP exchange; returns (status, parsed JSON body). Asks for
/// `Connection: close` so EOF frames the response (keep-alive reuse is
/// covered in `tracing.rs`).
fn roundtrip(addr: std::net::SocketAddr, request: &str) -> (u16, json::Value) {
    let request = request.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw.split("\r\n\r\n").nth(1).unwrap_or_default();
    (status, json::parse(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}")))
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, json::Value) {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
}

#[test]
fn serves_all_endpoints_then_shuts_down_cleanly() {
    let config = ServerConfig {
        threads: 3,
        watch_signals: false, // other tests in this process may fire signals
        ..Default::default()
    };
    let server = Server::bind(config, test_handler()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let running = std::thread::spawn(move || server.run());

    // /healthz
    let (status, v) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("vectors").unwrap().as_u64(), Some(6));

    // /neighbors: cluster structure visible, self excluded
    let (status, v) = get(addr, "/neighbors?v=0&k=2");
    assert_eq!(status, 200);
    let nbrs = v.get("neighbors").unwrap().as_array().unwrap();
    assert_eq!(nbrs.len(), 2);
    for n in nbrs {
        let u = n.get("vertex").unwrap().as_u64().unwrap();
        assert!(u != 0 && u <= 2, "same-cluster neighbors expected, got {u}");
        assert!(n.get("distance").unwrap().as_f64().unwrap() < 0.5);
    }

    // /similarity
    let (status, v) = get(addr, "/similarity?a=0&b=1");
    assert_eq!(status, 200);
    assert!(v.get("cosine").unwrap().as_f64().unwrap() > 0.9);

    // /predict by vertex and by posted vector
    let (status, v) = get(addr, "/predict?v=5&k=3");
    assert_eq!(status, 200);
    assert_eq!(v.get("label").unwrap().as_u64(), Some(1));

    let body = r#"{"vector": [0.95, 0.05], "k": 3}"#;
    let (status, v) = roundtrip(
        addr,
        &format!(
            "POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(v.get("label").unwrap().as_u64(), Some(0));

    // Errors come back as JSON too.
    let (status, v) = get(addr, "/neighbors?v=banana");
    assert_eq!(status, 400);
    assert!(v.get("error").unwrap().as_str().is_some());
    let (status, _) = get(addr, "/nowhere");
    assert_eq!(status, 404);

    // /metricz reflects the traffic this test generated.
    let (status, v) = get(addr, "/metricz");
    assert_eq!(status, 200);
    let requests = v
        .get("counters")
        .unwrap()
        .get("serve.requests")
        .expect("request counter exported")
        .as_u64()
        .unwrap();
    assert!(requests >= 7, "at least the requests above, got {requests}");
    assert!(v.get("histograms").unwrap().get("serve.latency_ms").is_some());

    // Graceful shutdown: flag flips, run() returns Ok, port closes.
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    running.join().expect("server thread").expect("clean shutdown");
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn concurrent_requests_are_all_answered() {
    let config = ServerConfig { threads: 4, watch_signals: false, ..Default::default() };
    let server = Server::bind(config, test_handler()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let running = std::thread::spawn(move || server.run());

    let handles: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let (status, v) = get(addr, &format!("/neighbors?v={}&k=3", i % 6));
                assert_eq!(status, 200);
                v.get("neighbors").unwrap().as_array().unwrap().len()
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap() <= 3);
    }

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    running.join().unwrap().unwrap();
}

/// Serializes the tests that run a server watching the process-global
/// signal flag, since one of them raises it (the signal module's own unit
/// test runs in another test binary, so in another process).
fn signal_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a server on `addr` that no client ever connects to, under the
/// production default `watch_signals: true`; once its accept loop has had
/// time to block, calls `stop` with the server's shutdown flag and asserts
/// `run()` returns cleanly within 1 s. Every embedder ends a server with a
/// bare store + join (or a signal), so a blocked `accept` that nothing
/// wakes would hang here.
fn stops_idle_server_within_a_second(addr: &str, stop: impl FnOnce(&AtomicBool)) {
    let config = ServerConfig { addr: addr.into(), threads: 2, ..Default::default() };
    let server = Server::bind(config, test_handler()).expect("bind");
    let flag = server.shutdown_flag();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.run()));
    std::thread::sleep(Duration::from_millis(100));
    stop(&flag);
    finished
        .recv_timeout(Duration::from_secs(1))
        .expect("run() did not return within 1 s of the stop")
        .expect("clean shutdown");
}

#[test]
fn shutdown_flag_stops_an_idle_server_within_a_second() {
    let _serialized = signal_lock();
    stops_idle_server_within_a_second("127.0.0.1:0", |flag| flag.store(true, Ordering::SeqCst));
    // Bound to every interface, the waker reaches the listener over loopback.
    stops_idle_server_within_a_second("0.0.0.0:0", |flag| flag.store(true, Ordering::SeqCst));
}

#[test]
fn signal_stops_an_idle_server_within_a_second() {
    let _serialized = signal_lock();
    stops_idle_server_within_a_second("127.0.0.1:0", |_| v2v_serve::signal::trigger());
    v2v_serve::signal::reset();
}

/// A fresh connection is served as soon as the kernel completes it, with
/// no accept-loop poll interval in front of its request.
#[test]
fn fresh_connections_are_served_without_an_accept_poll() {
    let config = ServerConfig { threads: 2, watch_signals: false, ..Default::default() };
    let server = Server::bind(config, test_handler()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let running = std::thread::spawn(move || server.run());

    get(addr, "/healthz");
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(get(addr, "/healthz").0, 200);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median fresh-connection round trip {median:?} (sorted: {rtts:?})"
    );

    shutdown.store(true, Ordering::SeqCst);
    running.join().unwrap().unwrap();
}
