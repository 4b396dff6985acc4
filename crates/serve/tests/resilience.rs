//! Resilience tests: the server under abuse, overload, panics, reloads,
//! injected index corruption, and shutdown-while-loaded. Everything here
//! talks real HTTP/1.1 over `TcpStream` against an ephemeral port —
//! no mocked transport — so the bytes on the wire are the contract.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use v2v_embed::Embedding;
use v2v_obs::json;
use v2v_serve::{Handler, HnswConfig, Request, Response, Server, ServeHandle, ServeState, ServerConfig};

fn test_embedding(extra: usize) -> Embedding {
    let mut flat = vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1];
    for i in 0..extra {
        flat.extend_from_slice(&[0.5 + i as f32 * 0.01, 0.5]);
    }
    Embedding::from_flat(2, flat)
}

fn test_state() -> ServeState {
    ServeState::new(test_embedding(0), HnswConfig::default(), None).unwrap()
}

/// One raw exchange; returns (status, raw headers, body). Injects
/// `Connection: close` so EOF frames the response (connection reuse is
/// covered by the keep-alive tests in `tracing.rs`).
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> (u16, String, String) {
    let mut request = request.to_vec();
    if let Some(pos) = request.windows(4).position(|w| w == b"\r\n\r\n") {
        request.splice(pos + 2..pos + 2, b"Connection: close\r\n".iter().copied());
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(&request).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw_roundtrip(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
}

fn spawn(server: Server) -> (SocketAddr, Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<std::io::Result<()>>) {
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let thread = std::thread::spawn(move || server.run());
    (addr, shutdown, thread)
}

fn stop(shutdown: &std::sync::atomic::AtomicBool, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    shutdown.store(true, Ordering::SeqCst);
    thread.join().unwrap().unwrap();
}

// ---------------------------------------------------------------- shedding

/// A gate the test holds closed while connections pile up.
struct Gate {
    open: Mutex<bool>,
    entered: AtomicUsize,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate { open: Mutex::new(false), entered: AtomicUsize::new(0), cv: Condvar::new() })
    }

    fn wait_inside(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

#[test]
fn overload_sheds_503_with_retry_after_and_recovers() {
    let gate = Gate::new();
    let handler: Handler = {
        let gate = gate.clone();
        Arc::new(move |_req: &Request| {
            gate.wait_inside();
            Response::json(200, "{\"ok\": true}")
        })
    };
    let config = ServerConfig {
        threads: 1,
        max_queue: 1,
        watch_signals: false,
        ..Default::default()
    };
    let (addr, shutdown, thread) = spawn(Server::bind(config, handler).expect("bind"));

    // A occupies the single worker; wait until its handler is running.
    let a = std::thread::spawn(move || get(addr, "/a"));
    let start = Instant::now();
    while gate.entered.load(Ordering::SeqCst) == 0 {
        assert!(start.elapsed() < Duration::from_secs(10), "handler never entered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // B fills the queue (capacity 1); give the accept loop time to park it.
    let b = std::thread::spawn(move || get(addr, "/b"));
    std::thread::sleep(Duration::from_millis(300));

    // C is over capacity: shed inline with 503 + Retry-After.
    let (status, head, body) = get(addr, "/c");
    assert_eq!(status, 503, "over-queue connection must be shed: {head} {body}");
    // Adaptive Retry-After: integer seconds, 1..=30 (scaled by overload
    // depth plus bounded jitter; here the queue is barely over capacity,
    // so the value sits in the low jitter band).
    let retry_after = head
        .to_ascii_lowercase()
        .lines()
        .find_map(|l| l.strip_prefix("retry-after:").map(|v| v.trim().to_string()))
        .unwrap_or_else(|| panic!("missing Retry-After in {head:?}"));
    let secs: u64 = retry_after
        .parse()
        .unwrap_or_else(|_| panic!("Retry-After must be integer seconds, got {retry_after:?}"));
    assert!((1..=3).contains(&secs), "barely-over-capacity shed gave Retry-After {secs}");
    assert!(body.contains("overloaded"));

    // Releasing the gate lets A and B complete normally — shedding is a
    // transient, not a death spiral.
    gate.release();
    assert_eq!(a.join().unwrap().0, 200);
    assert_eq!(b.join().unwrap().0, 200);
    let (status, _, _) = get(addr, "/after");
    assert_eq!(status, 200, "server must serve normally after load subsides");

    stop(&shutdown, thread);
}

// ------------------------------------------------------- slow-loris / 408

#[test]
fn slow_loris_gets_408_without_stalling_other_requests() {
    let config = ServerConfig {
        threads: 2,
        read_timeout: Duration::from_millis(400),
        request_deadline: Duration::from_millis(700),
        watch_signals: false,
        ..Default::default()
    };
    let handler = ServeHandle::new(test_state(), None).into_handler();
    let (addr, shutdown, thread) = spawn(Server::bind(config, handler).expect("bind"));

    // The staller dribbles one byte per 100 ms — always inside the per-read
    // timeout, so only the wall-clock deadline can cut it off.
    let staller = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let bytes = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut raw = Vec::new();
        for &b in bytes {
            if stream.write_all(&[b]).is_err() {
                break; // server already answered 408 and closed
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let _ = stream.read_to_end(&mut raw);
        String::from_utf8_lossy(&raw).into_owned()
    });

    // Meanwhile the other worker keeps answering immediately.
    for _ in 0..5 {
        let t0 = Instant::now();
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "health check stalled behind the slow client"
        );
    }

    let raw = staller.join().unwrap();
    assert!(raw.contains("408"), "staller should get 408, got {raw:?}");

    stop(&shutdown, thread);
}

// --------------------------------------------------------- panic isolation

#[test]
fn handler_panic_costs_one_request_not_the_worker() {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/boom" {
            panic!("intentional test panic");
        }
        Response::json(200, "{\"ok\": true}")
    });
    // One worker: if the panic killed it, every later request would hang.
    let config = ServerConfig { threads: 1, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) = spawn(Server::bind(config, handler).expect("bind"));

    for round in 0..2 {
        let (status, _, body) = get(addr, "/boom");
        assert_eq!(status, 500, "round {round}");
        assert!(body.contains("panicked"), "round {round}: {body:?}");
        let (status, _, _) = get(addr, "/fine");
        assert_eq!(status, 200, "worker must survive the panic (round {round})");
    }

    stop(&shutdown, thread);
}

// ------------------------------------------------- request parsing limits

#[test]
fn split_headers_oversized_bodies_and_huge_heads() {
    let config = ServerConfig {
        threads: 2,
        max_body: 64,
        watch_signals: false,
        ..Default::default()
    };
    let handler = ServeHandle::new(test_state(), None).into_handler();
    let (addr, shutdown, thread) = spawn(Server::bind(config, handler).expect("bind"));

    // Headers split across every byte boundary still parse.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        for &b in b"GET /healthz?v=1 HTTP/1.1\r\nHost: t\r\nX-Pad: yes\r\nConnection: close\r\n\r\n".iter() {
            stream.write_all(&[b]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "byte-split request failed: {raw:?}");
    }

    // Declared oversized body: 413 before the body is ever sent.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        stream
            .write_all(b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "expected 413, got {raw:?}");
    }

    // A head past the 16 KiB cap is 431, not unbounded buffering.
    {
        let huge = format!("GET /healthz?q={} HTTP/1.1\r\nHost: t\r\n\r\n", "x".repeat(32 * 1024));
        let (status, _, _) = raw_roundtrip(addr, huge.as_bytes());
        assert_eq!(status, 431);
    }

    stop(&shutdown, thread);
}

// -------------------------------------------------------------- hot reload

#[test]
fn reload_swaps_state_with_zero_dropped_requests() {
    let generation = Arc::new(AtomicUsize::new(0));
    let reloader: v2v_serve::Reloader = {
        let generation = generation.clone();
        Box::new(move || {
            let gen = generation.fetch_add(1, Ordering::SeqCst) + 1;
            ServeState::new(test_embedding(gen), HnswConfig::default(), None)
                .map_err(|e| e.to_string())
        })
    };
    let handle = ServeHandle::new(test_state(), Some(reloader));
    let config = ServerConfig { threads: 4, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) =
        spawn(Server::bind(config, handle.clone().into_handler()).expect("bind"));

    // Steady query load across reloads; every request must get a 200.
    let stop_load = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let stop_load = stop_load.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop_load.load(Ordering::SeqCst) {
                    let (status, _, body) = get(addr, "/healthz");
                    assert_eq!(status, 200, "dropped request during reload: {body:?}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    for round in 1..=3 {
        let (status, _, body) =
            raw_roundtrip(addr, b"POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(status, 200, "reload {round} failed: {body:?}");
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("reloaded").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("vectors").unwrap().as_u64(), Some(6 + round));
        std::thread::sleep(Duration::from_millis(50));
    }

    stop_load.store(true, Ordering::SeqCst);
    for c in clients {
        assert!(c.join().unwrap() > 0, "load thread served nothing");
    }

    // The swapped state is what serves now.
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(json::parse(&body).unwrap().get("vectors").unwrap().as_u64(), Some(9));
    // GET on /reload is a method error, not a reload.
    let (status, _, _) = get(addr, "/reload");
    assert_eq!(status, 405);

    stop(&shutdown, thread);
}

#[test]
fn reload_without_a_source_is_rejected_and_failed_reload_keeps_old_state() {
    let flip = Arc::new(AtomicUsize::new(0));
    let reloader: v2v_serve::Reloader = {
        let flip = flip.clone();
        Box::new(move || {
            if flip.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("injected reload failure".to_string())
            } else {
                ServeState::new(test_embedding(3), HnswConfig::default(), None)
                    .map_err(|e| e.to_string())
            }
        })
    };
    let handle = ServeHandle::new(test_state(), Some(reloader));
    assert_eq!(handle.state().vectors().len(), 6);
    // First reload fails: old state keeps serving untouched.
    assert!(handle.reload().is_err());
    assert_eq!(handle.state().vectors().len(), 6);
    // Second succeeds.
    assert!(handle.reload().is_ok());
    assert_eq!(handle.state().vectors().len(), 9);

    // No reloader at all → 400 over the wire.
    let bare = ServeHandle::new(test_state(), None);
    let config = ServerConfig { threads: 2, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) =
        spawn(Server::bind(config, bare.into_handler()).expect("bind"));
    let (status, _, body) =
        raw_roundtrip(addr, b"POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 400, "{body:?}");
    assert!(body.contains("without a reload source"));
    stop(&shutdown, thread);
}

// -------------------------------------------- degraded index via injection

#[test]
fn injected_index_validation_failure_degrades_to_exact_scan() {
    // Process-global fault registry: this is the only test in this binary
    // that arms a point, and it disarms before asserting server behavior.
    v2v_fault::inject::arm(
        "serve.index.validate",
        v2v_fault::inject::FaultPlan::always(v2v_fault::inject::Fault::Error),
    );
    let state = ServeState::new(test_embedding(40), HnswConfig::default(), None).unwrap();
    v2v_fault::inject::disarm("serve.index.validate");
    assert!(state.degraded(), "validation failure must degrade, not abort");
    assert!(!state.index().is_graph(), "degraded state must use the exact scan");

    // Degraded still answers correctly over the wire.
    let config = ServerConfig { threads: 2, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) =
        spawn(Server::bind(config, ServeHandle::new(state, None).into_handler()).expect("bind"));
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("index").unwrap().as_str(), Some("exact"));
    let (status, _, body) = get(addr, "/neighbors?v=0&k=2");
    assert_eq!(status, 200, "{body:?}");
    let v = json::parse(&body).unwrap();
    let nbrs = v.get("neighbors").unwrap().as_array().unwrap();
    assert_eq!(nbrs.len(), 2);
    assert!(nbrs.iter().all(|n| n.get("vertex").unwrap().as_u64().unwrap() <= 2));
    stop(&shutdown, thread);
}

// ------------------------------------------- ingest-driven refresh swaps

/// Durable streaming ingest under steady read load: every /neighbors
/// request gets a 200 while the refresh worker repeatedly hot-swaps new
/// states in behind them, and /healthz eventually reports the whole
/// stream applied with zero lag.
#[test]
fn ingest_refresh_swaps_state_with_zero_dropped_requests() {
    let dir = std::env::temp_dir().join(format!("v2v_resilience_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let handle = ServeHandle::new(test_state(), None);
    let (ingest, worker) = v2v_serve::ingest::start(
        handle.clone(),
        &dir,
        v2v_serve::ingest::IngestConfig { epochs: 1, ..Default::default() },
    )
    .expect("start ingest");
    let config = ServerConfig { threads: 4, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) = spawn(
        Server::bind(config, v2v_serve::api::router(handle, Some(ingest.clone()), None))
            .expect("bind"),
    );

    // Steady load on the ANN query path; every request must get a 200.
    let stop_load = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let stop_load = stop_load.clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop_load.load(Ordering::SeqCst) {
                    let (status, _, body) = get(addr, &format!("/neighbors?v={i}&k=3"));
                    assert_eq!(status, 200, "dropped request during ingest swap: {body:?}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Five durable batches, each triggering a refresh + hot swap.
    let mut expect_seq = 0u64;
    for round in 0..5u64 {
        let body = format!(
            "{{\"edges\": [[{}, {}], [{}, {}]]}}",
            round % 6,
            (round + 1) % 6,
            (round + 2) % 6,
            (round + 3) % 6
        );
        let req = format!(
            "POST /ingest HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (status, _, resp) = raw_roundtrip(addr, req.as_bytes());
        assert_eq!(status, 200, "ingest batch {round} failed: {resp:?}");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("durable").unwrap().as_bool(), Some(true));
        expect_seq += 2;
        assert_eq!(doc.get("last_seq").unwrap().as_u64(), Some(expect_seq));
        std::thread::sleep(Duration::from_millis(30));
    }

    // The stream must drain: /healthz reports the last sequence applied,
    // zero lag, and a "refreshed" (incrementally swapped) index.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        if doc.get("ingest.last_applied_seq").unwrap().as_u64() == Some(expect_seq) {
            assert_eq!(doc.get("index_source").unwrap().as_str(), Some("refreshed"));
            assert_eq!(doc.get("ingest.lag_edges").unwrap().as_u64(), Some(0));
            assert_eq!(doc.get("ingest.durable_seq").unwrap().as_u64(), Some(expect_seq));
            break;
        }
        assert!(Instant::now() < deadline, "refresh never caught up: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }

    stop_load.store(true, Ordering::SeqCst);
    for c in clients {
        assert!(c.join().unwrap() > 0, "load thread served nothing");
    }

    stop(&shutdown, thread);
    ingest.shutdown();
    worker.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------- graceful shutdown drain

#[test]
fn shutdown_under_load_completes_in_flight_requests_and_drains_fast() {
    let handler: Handler = Arc::new(|_req: &Request| {
        std::thread::sleep(Duration::from_millis(300));
        Response::json(200, "{\"ok\": true}")
    });
    let config = ServerConfig { threads: 2, watch_signals: false, ..Default::default() };
    let (addr, shutdown, thread) = spawn(Server::bind(config, handler).expect("bind"));

    // Six slow requests: two in flight, four queued behind them.
    let clients: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || get(addr, "/slow").0))
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // Shutdown mid-load (SIGINT/SIGTERM set this same flag): accepted work
    // must finish, and the drain must be bounded, not hang.
    let t0 = Instant::now();
    shutdown.store(true, Ordering::SeqCst);
    thread.join().unwrap().unwrap();
    let drain = t0.elapsed();
    assert!(drain < Duration::from_secs(5), "drain took {drain:?}");

    for c in clients {
        assert_eq!(c.join().unwrap(), 200, "accepted request dropped during shutdown");
    }

    // The listener is actually gone.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener should be closed after shutdown"
    );
}
