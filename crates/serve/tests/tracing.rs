//! End-to-end request tracing: every response carries `X-Request-Id`
//! (echoed when supplied, generated otherwise), the same ID shows up in
//! `/tracez` and the access log, slow requests are flagged against the
//! server's own threshold, and `/metricz?format=prometheus` serves valid
//! exposition text with per-endpoint window quantiles — all over real TCP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use v2v_embed::Embedding;
use v2v_obs::json;
use v2v_serve::{Handler, HnswConfig, ServeHandle, ServeState, Server, ServerConfig};

fn test_handler() -> Handler {
    let embedding = Embedding::from_flat(
        2,
        vec![1.0, 0.0, 1.0, 0.1, 0.9, -0.1, -1.0, 0.0, -1.0, 0.1, -0.9, -0.1],
    );
    let state = ServeState::new(embedding, HnswConfig::default(), None).unwrap();
    ServeHandle::new(state, None).into_handler()
}

/// Runs a server over [`test_handler`] under `config`; returns its address
/// and the call that shuts it down and joins it.
fn start(config: ServerConfig) -> (std::net::SocketAddr, impl FnOnce()) {
    let config = ServerConfig { threads: 2, watch_signals: false, ..config };
    let server = Server::bind(config, test_handler()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_flag();
    let running = std::thread::spawn(move || server.run());
    (addr, move || {
        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        running.join().unwrap().unwrap();
    })
}

/// One parsed response: (status, headers lowercased, body).
type Reply = (u16, Vec<(String, String)>, String);

/// One raw exchange. Asks
/// for `Connection: close` so EOF frames the response (the keep-alive
/// path is exercised by the pipelining test below).
fn roundtrip(addr: std::net::SocketAddr, request: &str) -> Reply {
    let request = request.replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// Splits a byte stream of back-to-back HTTP responses using
/// `Content-Length` framing (keep-alive responses have no EOF to frame
/// them).
fn split_responses(raw: &str) -> Vec<Reply> {
    let mut out = Vec::new();
    let mut rest = raw;
    while !rest.is_empty() {
        let (head, after) = rest.split_once("\r\n\r\n").expect("response head");
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
        let headers: Vec<(String, String)> = head
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once(": "))
            .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .expect("content-length");
        let body = &after[..len];
        out.push((status, headers, body.to_string()));
        rest = &after[len..];
    }
    out
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

#[test]
fn request_ids_thread_through_responses_and_tracez() {
    let (addr, stop) = start(ServerConfig::default());

    // Supplied ID is echoed verbatim.
    let (status, headers, _) = roundtrip(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: trace-test-42\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("trace-test-42"));

    // No ID supplied: a 16-hex-char one is generated.
    let (_, headers, _) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let generated = header(&headers, "x-request-id").expect("generated ID").to_string();
    assert_eq!(generated.len(), 16);
    assert!(generated.bytes().all(|b| b.is_ascii_hexdigit()));

    // Garbage IDs are not echoed back (log-injection guard) but still
    // get a generated replacement.
    let (_, headers, _) = roundtrip(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: bad id with spaces\r\n\r\n",
    );
    let replaced = header(&headers, "x-request-id").unwrap();
    assert_ne!(replaced, "bad id with spaces");
    assert_eq!(replaced.len(), 16);

    // Errors carry the ID too.
    let (status, headers, _) = roundtrip(
        addr,
        "GET /nowhere HTTP/1.1\r\nHost: t\r\nX-Request-Id: err-trace-7\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert_eq!(header(&headers, "x-request-id"), Some("err-trace-7"));

    // Both IDs are retrievable from /tracez, tied to their requests.
    let (status, _, body) = roundtrip(addr, "GET /tracez HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("tracez JSON");
    let events = doc.get("events").unwrap().as_array().unwrap();
    let find = |id: &str| {
        events
            .iter()
            .find(|e| e.get("request_id").unwrap().as_str() == Some(id))
            .unwrap_or_else(|| panic!("request {id} missing from /tracez"))
    };
    let sent = find("trace-test-42");
    assert_eq!(sent.get("status").unwrap().as_u64(), Some(200));
    assert!(sent.get("detail").unwrap().as_str().unwrap().contains("/healthz"));
    assert!(sent.get("latency_ms").unwrap().as_f64().unwrap() >= 0.0);
    let errored = find("err-trace-7");
    assert_eq!(errored.get("status").unwrap().as_u64(), Some(404));
    find(&generated);

    stop();
}

#[test]
fn pipelined_requests_get_ordered_responses_with_request_scoped_ids() {
    let (addr, stop) = start(ServerConfig::default());

    // Three requests written in one burst on one connection: two with
    // supplied IDs, one without. The last asks for close so EOF frames
    // the whole exchange.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let burst = concat!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: pipe-a\r\n\r\n",
        "GET /neighbors?v=0&k=2 HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /similarity?a=0&b=1 HTTP/1.1\r\nHost: t\r\n",
        "X-Request-Id: pipe-c\r\nConnection: close\r\n\r\n",
    );
    stream.write_all(burst.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read all responses");
    let responses = split_responses(&raw);
    assert_eq!(responses.len(), 3, "expected 3 framed responses, got:\n{raw}");

    // In order, none dropped, each answering its own request.
    assert!(responses[0].2.contains("\"status\": \"ok\""), "healthz first");
    assert!(responses[1].2.contains("\"neighbors\""), "neighbors second");
    assert!(responses[2].2.contains("\"cosine\""), "similarity third");
    for (status, _, _) in &responses {
        assert_eq!(*status, 200);
    }

    // X-Request-Id is regenerated per pipelined request, not per
    // connection: supplied IDs echo on exactly their own response, the
    // middle one gets a fresh generated ID.
    assert_eq!(header(&responses[0].1, "x-request-id"), Some("pipe-a"));
    let generated = header(&responses[1].1, "x-request-id").expect("generated ID");
    assert_eq!(generated.len(), 16);
    assert!(generated.bytes().all(|b| b.is_ascii_hexdigit()));
    assert_eq!(header(&responses[2].1, "x-request-id"), Some("pipe-c"));

    // Connection disposition: kept alive until the close request.
    assert_eq!(header(&responses[0].1, "connection"), Some("keep-alive"));
    assert_eq!(header(&responses[1].1, "connection"), Some("keep-alive"));
    assert_eq!(header(&responses[2].1, "connection"), Some("close"));

    // The reuse shows up on /metricz, and per-request accounting kept
    // counting one line per request under connection reuse.
    let (_, _, metricz) = roundtrip(addr, "GET /metricz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(metricz.contains("\"serve.conn.pipelined\""), "no pipelined counter:\n{metricz}");
    assert!(metricz.contains("\"serve.conn.reused\""), "no reused counter:\n{metricz}");

    stop();
}

#[test]
fn prometheus_endpoint_serves_valid_exposition_over_tcp() {
    let (addr, stop) = start(ServerConfig::default());

    // Generate traffic so per-endpoint windows exist.
    for _ in 0..5 {
        roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    let (status, headers, body) =
        roundtrip(addr, "GET /metricz?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type").unwrap().starts_with("text/plain"));
    let samples =
        v2v_obs::prometheus::validate(&body).expect("served exposition must validate");
    assert!(samples > 0);
    assert!(body.contains("# TYPE v2v_serve_requests_total counter"));
    assert!(body.contains("v2v_serve_latency_ms_bucket{le=\"+Inf\"}"));
    // Per-endpoint live quantiles from the rotating window.
    for q in ["p50", "p95", "p99"] {
        assert!(
            body.contains(&format!("v2v_serve_latency_healthz_{q} ")),
            "missing healthz {q} gauge"
        );
    }

    stop();
}

/// The access log is a per-server destination: one JSON line per request,
/// keyed by the ID the client received.
#[test]
fn access_log_records_request_ids_and_latencies() {
    let dir = std::env::temp_dir().join(format!("v2v-access-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let logged = |path: &std::path::Path| ServerConfig {
        access_log: Some(path.to_str().unwrap().to_string()),
        ..Default::default()
    };
    let (addr, stop) = start(logged(&log_path));
    roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: log-trace-1\r\n\r\n");
    roundtrip(addr, "GET /nowhere HTTP/1.1\r\nHost: t\r\nX-Request-Id: log-trace-2\r\n\r\n");
    stop();

    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let lines: Vec<json::Value> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad log line {l:?}: {e}")))
        .collect();
    assert_eq!(lines.len(), 2, "one line per request");
    let find = |id: &str| {
        lines
            .iter()
            .find(|l| l.get("request_id").unwrap().as_str() == Some(id))
            .unwrap_or_else(|| panic!("request {id} missing from access log"))
    };
    let ok = find("log-trace-1");
    assert_eq!(ok.get("method").unwrap().as_str(), Some("GET"));
    assert_eq!(ok.get("path").unwrap().as_str(), Some("/healthz"));
    assert_eq!(ok.get("status").unwrap().as_u64(), Some(200));
    assert!(ok.get("bytes").unwrap().as_u64().unwrap() > 0);
    assert!(ok.get("latency_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(ok.get("ts_ms").unwrap().as_u64().unwrap() > 0);
    assert_eq!(find("log-trace-2").get("status").unwrap().as_u64(), Some(404));

    // A destination that cannot be opened refuses to bind rather than
    // serving unlogged.
    let refused = Server::bind(logged(&dir.join("no-such-dir/a.jsonl")), test_handler());
    assert!(refused.err().expect("bind must fail").to_string().contains("access log"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Two servers, two thresholds, one process: every request to the first
/// is "slow", none to the second is.
#[test]
fn slow_request_threshold_is_per_server() {
    let (eager, stop_eager) = start(ServerConfig { slow_request_ms: 1e-9, ..Default::default() });
    let (lax, stop_lax) = start(ServerConfig { slow_request_ms: 1e9, ..Default::default() });
    roundtrip(eager, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: slow-eager\r\n\r\n");
    roundtrip(lax, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: slow-lax\r\n\r\n");
    stop_eager();
    stop_lax();
    let slow_events = |id: &str| {
        let events = v2v_obs::global_recorder().snapshot();
        events.iter().filter(|e| e.kind == "slow" && e.request_id == id).count()
    };
    assert_eq!(slow_events("slow-eager"), 1);
    assert_eq!(slow_events("slow-lax"), 0);
}
