//! A zero-dependency multithreaded HTTP/1.1 server over
//! `std::net::TcpListener`.
//!
//! Deliberately minimal — exactly what serving JSON lookups needs and no
//! more: an accept loop blocked in `accept(2)` feeding a fixed pool of
//! worker threads through a `Mutex<VecDeque>` + `Condvar` queue, so a new
//! connection reaches a worker as soon as the kernel completes it;
//! HTTP/1.1 keep-alive with pipelining on each connection; and graceful
//! shutdown: a small waker thread checks an atomic flag (set
//! programmatically or by SIGINT via [`crate::signal`]) every 20 ms and,
//! once it is set, connects to the listener once so the blocked `accept`
//! returns; the loop then stops accepting, drains the queue, and joins the
//! workers so in-flight responses complete.
//!
//! The connection model is the serving fast path: a connection is reused
//! for up to [`ServerConfig::keep_alive_requests`] requests (0 restores
//! the old close-per-request behavior), bytes past one request's body are
//! carried over as the start of the next (pipelining), and responses to
//! already-buffered pipelined requests are batched into one write. A
//! client `Connection: close` (or HTTP/1.0 without
//! `Connection: keep-alive`) closes after the response; an idle kept-alive
//! connection is closed quietly after [`ServerConfig::idle_timeout`].
//!
//! Overload and abuse are handled at the edges, not by falling over:
//!
//! * a **bounded queue** — beyond [`ServerConfig::max_queue`] waiting
//!   connections, the accept loop sheds load with `503` + `Retry-After`
//!   instead of queueing unboundedly (counted as `serve.shed`);
//! * a **request deadline** — a client that dribbles bytes slower than
//!   [`ServerConfig::request_deadline`] gets `408` instead of pinning a
//!   worker (the per-read socket timeout bounds each `read(2)` on top);
//! * **size limits** — oversized heads get `431`, oversized bodies `413`,
//!   checked against the declared `Content-Length` *before* reading the
//!   body so a hostile client cannot make the server buffer it;
//! * **panic isolation** — a panicking handler yields `500` for that one
//!   request (counted as `serve.panics`) instead of killing the worker.
//!
//! Every request is counted and timed into the global `v2v-obs` registry
//! (`serve.requests`, `serve.errors`, `serve.latency_ms`, the
//! rotating-window `serve.latency.all`; instruments resolved once at
//! bind), which `/metricz` then exports — the server measures itself with
//! the same machinery as the training pipeline. Per-route counts and
//! windows belong to the route table ([`crate::api::router`]). Each
//! request carries a trace
//! context: the client's `X-Request-Id` (validated) or a generated ID is
//! echoed on every response — including sheds and parse failures — logged
//! on the structured access log ([`ServerConfig::access_log`]), and
//! stamped on the flight-recorder events (`/tracez`); requests slower than
//! [`ServerConfig::slow_request_ms`] additionally log the span tree.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use v2v_obs::{obs_debug, Counter, Histogram, WindowedHistogram};

/// How often the shutdown waker checks whether a stop was requested: the
/// most a stop waits before a blocked `accept` is woken.
const WAKE_INTERVAL: Duration = Duration::from_millis(20);

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = one per available core, min 2).
    pub threads: usize,
    /// Per-read socket timeout (bounds each `read(2)`/`write(2)`).
    pub read_timeout: Duration,
    /// Total wall-clock budget for reading one request; exceeding it is a
    /// `408` (slow-loris defense — the per-read timeout alone lets a
    /// client stall indefinitely by sending one byte per timeout window).
    pub request_deadline: Duration,
    /// Max connections waiting for a worker; beyond this the accept loop
    /// answers `503` + `Retry-After` inline instead of queueing.
    pub max_queue: usize,
    /// Max request body bytes; larger declared or actual bodies get `413`.
    pub max_body: usize,
    /// Requests served on one connection before the server closes it;
    /// `0` disables keep-alive entirely (one request per connection).
    pub keep_alive_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it (quietly — an idle close is a normal
    /// end of connection, not a `408`).
    pub idle_timeout: Duration,
    /// Whether the server also stops on process signals
    /// ([`crate::signal::requested`]), noticed by the shutdown waker within
    /// 20 ms; tests turn this off.
    pub watch_signals: bool,
    /// Latency (ms) at or beyond which a request is logged as slow, with
    /// its span tree.
    pub slow_request_ms: f64,
    /// Structured access log: one JSON line per request to this file path
    /// (opened for append at bind), or to stderr if it is `"stderr"`;
    /// `None` = off. Each line carries the request ID the client received,
    /// so client logs, this log, and `/tracez` join on one key.
    pub access_log: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            max_queue: 1024,
            max_body: 1024 * 1024,
            keep_alive_requests: 1024,
            idle_timeout: Duration::from_secs(5),
            watch_signals: true,
            slow_request_ms: 250.0,
            access_log: None,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Default)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/neighbors`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request headers in order of appearance (names as sent).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Correlation ID: the validated `X-Request-Id` header if the client
    /// sent one, a generated ID otherwise. Always echoed on the response.
    pub request_id: String,
    /// Whether the client allows connection reuse after this request
    /// (HTTP/1.1 without `Connection: close`, or HTTP/1.0 with
    /// `Connection: keep-alive`).
    pub keep_alive: bool,
    /// When the server began reading this request; `None` for a request
    /// built in-process. Per-route latency is timed from here.
    pub started: Option<Instant>,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (case-insensitive, per RFC 9110).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response (JSON unless `content_type` says otherwise).
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Retry-After` on 503).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// A plain-text response (Prometheus exposition, debug dumps).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
        }
    }

    /// A JSON `{"error": ...}` response.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\": ");
        v2v_obs::json::write_escaped(&mut body, message);
        body.push('}');
        Response::json(status, body)
    }

    /// Adds a response header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Why a request could not be read; carries the status the client gets.
struct RequestError {
    status: u16,
    message: String,
}

impl RequestError {
    fn new(status: u16, message: impl Into<String>) -> RequestError {
        RequestError { status, message: message.into() }
    }

    fn bad(message: impl Into<String>) -> RequestError {
        RequestError::new(400, message)
    }
}

/// Request handler shared by all workers.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    handler: Handler,
    access_log: Option<Arc<AccessLog>>,
    instruments: Arc<Instruments>,
    shutdown: Arc<AtomicBool>,
}

/// The server's own request and connection instruments, resolved once at
/// bind so serving a request looks none of them up.
struct Instruments {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    panics: Arc<Counter>,
    latency_ms: Arc<Histogram>,
    latency_all: Arc<WindowedHistogram>,
    opened: Arc<Counter>,
    reused: Arc<Counter>,
    pipelined: Arc<Counter>,
    closed: Arc<Counter>,
}

impl Server {
    /// Binds `config.addr`, opens the access log if one is configured, and
    /// prepares the worker pool configuration.
    pub fn bind(config: ServerConfig, handler: Handler) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = v2v_obs::global_metrics();
        let access_log = match config.access_log.as_deref() {
            None => None,
            Some("stderr") => Some(AccessLog::Stderr),
            Some(path) => {
                let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
                let file = file.map_err(|e| {
                    std::io::Error::new(e.kind(), format!("cannot open access log {path}: {e}"))
                })?;
                Some(AccessLog::File(Mutex::new(file)))
            }
        };
        Ok(Server {
            listener,
            local_addr,
            config,
            handler,
            access_log: access_log.map(Arc::new),
            instruments: Arc::new(Instruments {
                requests: metrics.counter("serve.requests"),
                errors: metrics.counter("serve.errors"),
                panics: metrics.counter("serve.panics"),
                latency_ms: metrics.histogram("serve.latency_ms", &LATENCY_BOUNDS),
                latency_all: metrics.windowed("serve.latency.all", &LATENCY_BOUNDS),
                opened: metrics.counter("serve.conn.opened"),
                reused: metrics.counter("serve.conn.reused"),
                pipelined: metrics.counter("serve.conn.pipelined"),
                closed: metrics.counter("serve.conn.closed"),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A flag that stops [`run`](Server::run) when set (clone and keep it
    /// before calling `run`).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    fn should_stop(&self) -> bool {
        stop_requested(&self.shutdown, self.config.watch_signals)
    }

    /// Accepts and serves until the shutdown flag (or a watched signal)
    /// fires, then drains in-flight work and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        let threads = if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2).max(2)
        };

        // Work queue: `None` in `closing` state tells a worker to exit.
        struct Queue {
            jobs: Mutex<(VecDeque<TcpStream>, bool)>,
            ready: Condvar,
        }
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });

        // Set when the accept loop exits so workers parked in keep-alive
        // idle waits close their connections promptly instead of holding
        // the drain open for a full idle timeout, and so the waker exits.
        let stopping = Arc::new(AtomicBool::new(false));
        let waker = spawn_waker(
            self.local_addr,
            self.shutdown.clone(),
            self.config.watch_signals,
            stopping.clone(),
        );
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let queue = queue.clone();
                let handler = self.handler.clone();
                let config = self.config.clone();
                let access_log = self.access_log.clone();
                let instruments = self.instruments.clone();
                let stopping = stopping.clone();
                std::thread::spawn(move || loop {
                    let stream = {
                        let mut guard = queue.jobs.lock().unwrap();
                        loop {
                            if let Some(stream) = guard.0.pop_front() {
                                break Some(stream);
                            }
                            if guard.1 {
                                break None;
                            }
                            guard = queue.ready.wait(guard).unwrap();
                        }
                    };
                    match stream {
                        Some(stream) => handle_connection(
                            stream,
                            &handler,
                            &config,
                            access_log.as_deref(),
                            &instruments,
                            &stopping,
                        ),
                        None => return,
                    }
                })
            })
            .collect();

        let metrics = v2v_obs::global_metrics();
        // Connection-model knobs as gauges, so a /metricz scrape says how
        // the fast path is configured next to how it is behaving.
        metrics
            .gauge("serve.conn.max_requests")
            .set(self.config.keep_alive_requests as f64);
        metrics
            .gauge("serve.conn.idle_timeout_ms")
            .set(self.config.idle_timeout.as_millis() as f64);
        let shed = metrics.counter("serve.shed");
        let queue_depth = metrics.gauge("serve.queue_depth");
        // Numbers each shed so adaptive Retry-After jitter varies client
        // to client instead of synchronizing their retries.
        let mut shed_salt = 0u64;
        while !self.should_stop() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.should_stop() {
                        // The waker's connection, or a client that raced
                        // the stop: dropped unanswered, as the backlog is
                        // when the listener closes.
                        break;
                    }
                    let mut guard = queue.jobs.lock().unwrap();
                    if guard.0.len() >= self.config.max_queue {
                        // Shed rather than queue without bound: answer 503
                        // inline (tiny write; fits the socket buffer) so
                        // the client backs off instead of timing out.
                        let depth = guard.0.len();
                        drop(guard);
                        shed.inc();
                        shed_salt = shed_salt.wrapping_add(1);
                        shed_connection(stream, depth, self.config.max_queue, shed_salt);
                    } else {
                        guard.0.push_back(stream);
                        let depth = guard.0.len();
                        drop(guard);
                        queue_depth.set(depth as f64);
                        queue.ready.notify_one();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Out of descriptors (EMFILE/ENFILE) or kernel memory:
                    // `accept` fails again at once until something closes,
                    // so back off briefly rather than spin a core on it.
                    obs_debug!("accept error: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }

        // Graceful drain: no new accepts; idle kept-alive connections
        // close at the next wait slice; workers finish queued
        // connections, then see `closing` and exit.
        stopping.store(true, Ordering::SeqCst);
        {
            let mut guard = queue.jobs.lock().unwrap();
            guard.1 = true;
        }
        queue.ready.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = waker.join();
        Ok(())
    }
}

/// Whether `shutdown` is set or, when `watch_signals`, a SIGINT/SIGTERM
/// has arrived.
fn stop_requested(shutdown: &AtomicBool, watch_signals: bool) -> bool {
    shutdown.load(Ordering::SeqCst) || (watch_signals && crate::signal::requested())
}

/// Starts the thread that wakes [`Server::run`] out of a blocked `accept`
/// once a stop is requested. Nothing else would: the shutdown flag and the
/// signal handlers only set atomics, and `signal(2)` handlers restart an
/// interrupted `accept`. Every [`WAKE_INTERVAL`] the thread checks the stop
/// conditions; once they hold it connects to the listener (over loopback
/// when it is bound to an unspecified address) and exits — the accept loop
/// re-checks after every `accept` and drops that connection. It exits
/// without connecting once `exited` is set (a client woke the loop first).
fn spawn_waker(
    listener: SocketAddr,
    shutdown: Arc<AtomicBool>,
    watch_signals: bool,
    exited: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let target = match listener.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, listener.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, listener.port()).into(),
        _ => listener,
    };
    std::thread::spawn(move || {
        while !exited.load(Ordering::SeqCst) {
            std::thread::sleep(WAKE_INTERVAL);
            // A failed connect (say, out of descriptors) is retried on the
            // next tick; the accept loop cannot exit until one lands.
            if stop_requested(&shutdown, watch_signals)
                && TcpStream::connect_timeout(&target, WAKE_INTERVAL).is_ok()
            {
                return;
            }
        }
    })
}

/// Adaptive `Retry-After` for every load-shed path (the accept queue here,
/// the ingest queue in `crate::ingest`): integer seconds that scale with
/// how deep past capacity the queue is, plus 0–2 s of deterministic jitter
/// so a stampede of shed clients does not retry in lockstep. `salt` is a
/// per-shed sequence number (each shed client draws a different jitter);
/// the result is a pure function of `(depth, capacity, salt)` so tests can
/// lock the header format. Always in `1..=30`.
pub fn retry_after_secs(depth: usize, capacity: usize, salt: u64) -> u64 {
    // 1 s at an exactly-full queue, +1 s per additional 25% of capacity
    // beyond it.
    let over = depth.saturating_sub(capacity) as u64;
    let scaled = 1 + over.saturating_mul(4) / capacity.max(1) as u64;
    let jitter = v2v_base::rng::mix(salt) % 3;
    (scaled + jitter).clamp(1, 30)
}

/// Answers an over-queue connection with `503` + `Retry-After` and closes
/// it. Called from the accept loop; the short write timeout keeps a
/// hostile non-reading client from stalling accepts, and the short drain
/// budget bounds how long one shed connection can hold up accepts.
/// `depth`/`capacity` describe the queue at shed time and `salt` numbers
/// this shed, together picking the adaptive `Retry-After` value.
fn shed_connection(stream: TcpStream, depth: usize, capacity: usize, salt: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut stream = stream;
    // The request was never read, so there is no client ID to echo; a
    // generated one still lets the shed be found in the flight recorder.
    let request_id = v2v_obs::gen_request_id();
    v2v_obs::record_event(
        v2v_obs::Event::new("shed", &request_id, "queue full, answered 503 inline")
            .with_status(503),
    );
    let response = Response::error(503, "server overloaded, retry later")
        .with_header("Retry-After", retry_after_secs(depth, capacity, salt).to_string())
        .with_header("X-Request-Id", request_id);
    write_response(&mut stream, &response);
    drain_before_close(&mut stream, Duration::from_millis(100));
}

/// Consumes whatever the client already sent, then half-closes. Closing a
/// socket with unread received bytes turns the teardown into an RST,
/// which also discards data the *client* has not read yet — i.e. the
/// error response just written. Every path that answers without reading
/// the full request (shed, 413, 431, 408) must drain first or the client
/// sees "connection reset" instead of the status code.
fn drain_before_close(stream: &mut TcpStream, budget: Duration) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let deadline = Instant::now() + budget;
    let mut scratch = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break, // EOF, idle (WouldBlock), or reset
            Ok(_) => {}
        }
    }
}

/// Serializes `response` into `out`; `close` picks the `Connection`
/// header. The caller flushes — under pipelining, responses to
/// already-buffered requests batch into one write.
fn encode_response(out: &mut Vec<u8>, response: &Response, close: bool) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.status_text(),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    out.extend_from_slice(head.as_bytes());
    for (name, value) in &response.headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(response.body.as_bytes());
}

/// Serializes a final `response` onto `stream` immediately (best-effort;
/// the client may be gone).
fn write_response(stream: &mut TcpStream, response: &Response) {
    let mut out = Vec::with_capacity(256 + response.body.len());
    encode_response(&mut out, response, true);
    let _ = stream.write_all(&out);
    let _ = stream.flush();
}

/// Writes and clears any batched response bytes. `false` means the write
/// failed (client gone, or the write timeout expired mid-response) — the
/// stream may hold a truncated response, so the caller must close the
/// connection rather than serve another request on it.
fn flush_out(stream: &mut TcpStream, out: &mut Vec<u8>) -> bool {
    if out.is_empty() {
        return true;
    }
    let ok = stream.write_all(out).and_then(|()| stream.flush()).is_ok();
    out.clear();
    ok
}

/// Per-connection reusable state under keep-alive: `carry` holds bytes
/// past the request being parsed (the start of the next pipelined
/// request), `out` batches response bytes not yet written.
struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
    out: Vec<u8>,
}

/// Serves requests on `stream` until the connection ends, recording
/// metrics, the access log, and the flight recorder — all keyed by each
/// request's own ID (trace context, latency windows, and log lines are
/// request-scoped, not connection-scoped). The connection closes after
/// [`ServerConfig::keep_alive_requests`] requests, on client
/// `Connection: close`, on a request-framing error (the byte stream can
/// no longer be trusted), on a handler panic, or after
/// [`ServerConfig::idle_timeout`] with no next request.
fn handle_connection(
    stream: TcpStream,
    handler: &Handler,
    config: &ServerConfig,
    access_log: Option<&AccessLog>,
    metrics: &Instruments,
    stopping: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let mut conn = Conn {
        stream,
        carry: Vec::with_capacity(512),
        out: Vec::with_capacity(1024),
    };
    metrics.opened.inc();
    let max_requests = config.keep_alive_requests;
    let mut served = 0usize;
    let mut drain = false;

    loop {
        if served > 0 {
            if conn.carry.is_empty() {
                // Idle between requests: flush batched responses, then
                // wait up to `idle_timeout` for the next request's first
                // bytes — in short slices, so server shutdown can close
                // idle connections promptly. EOF, the idle deadline, or
                // shutdown here is a normal close, not a 408.
                if !flush_out(&mut conn.stream, &mut conn.out) {
                    break;
                }
                let idle_deadline = Instant::now() + config.idle_timeout;
                let slice =
                    config.idle_timeout.min(Duration::from_millis(100)).max(Duration::from_millis(1));
                let _ = conn.stream.set_read_timeout(Some(slice));
                let mut got = 0usize;
                while !stopping.load(Ordering::SeqCst) {
                    let mut chunk = [0u8; 1024];
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => {
                            conn.carry.extend_from_slice(&chunk[..n]);
                            got = n;
                            break;
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            if Instant::now() >= idle_deadline {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                if got == 0 {
                    break;
                }
                let _ = conn.stream.set_read_timeout(Some(config.read_timeout));
            } else {
                // The next request (or its start) arrived before the
                // previous response was written: true pipelining.
                metrics.pipelined.inc();
            }
            metrics.reused.inc();
        }

        let started = Instant::now();
        let deadline = started + config.request_deadline;
        // Closing is the default only when this request exhausts the
        // connection's budget (or keep-alive is off entirely).
        let mut close = max_requests == 0 || served + 1 >= max_requests.max(1);
        let mut method = String::new();
        let mut path = String::new();
        let mut trace = None;
        let response = match read_request(&mut conn, deadline, config.max_body) {
            Ok(Some(mut request)) => {
                if !request.keep_alive {
                    close = true;
                }
                // Adopt the client's X-Request-Id or mint one; the handler
                // sees it on the request, the client gets it echoed back.
                let ctx = match request.header("x-request-id") {
                    Some(supplied) => v2v_obs::TraceCtx::from_supplied(supplied),
                    None => v2v_obs::TraceCtx::new(),
                };
                request.request_id = ctx.request_id;
                request.started = Some(started);
                method = request.method.clone();
                path = request.path.clone();
                trace = Some(request.request_id.clone());
                metrics.requests.inc();
                // A panicking handler must cost one request, not a worker
                // thread: catch it, count it, answer 500. The handler only
                // sees `&Request` and internally-shared state, so observing
                // it mid-panic here cannot leave broken invariants behind.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)))
                {
                    Ok(response) => response,
                    Err(_) => {
                        metrics.panics.inc();
                        close = true;
                        v2v_obs::record_event(
                            v2v_obs::Event::new(
                                "panic",
                                &request.request_id,
                                &format!("handler panicked on {} {}", request.method, request.path),
                            )
                            .with_status(500),
                        );
                        Response::error(500, "handler panicked; see server logs")
                    }
                }
            }
            Ok(None) => break, // client closed without starting a request
            Err(e) => {
                metrics.requests.inc();
                close = true;
                drain = true;
                Response::error(e.status, &e.message)
            }
        };
        let request_id = trace.unwrap_or_else(v2v_obs::gen_request_id);
        let response = response.with_header("X-Request-Id", request_id.clone());
        if response.status >= 400 {
            metrics.errors.inc();
        }
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        metrics.latency_ms.record(latency_ms);
        // Live tail quantiles over a rotating window, so `/metricz` shows
        // "now" and not "since boot".
        metrics.latency_all.record(latency_ms);
        v2v_obs::record_event(
            v2v_obs::Event::new(
                "request",
                &request_id,
                &format!("{method} {path}"),
            )
            .with_status(response.status)
            .with_latency_ms(latency_ms),
        );
        if latency_ms >= config.slow_request_ms {
            // Outliers get the full span tree so "what was slow" is
            // answerable from the log alone.
            v2v_obs::record_event(
                v2v_obs::Event::new("slow", &request_id, &format!("{method} {path}"))
                    .with_status(response.status)
                    .with_latency_ms(latency_ms),
            );
            v2v_obs::obs_info!(
                "slow request [{request_id}] {method} {path} took {latency_ms:.1}ms; spans:\n{}",
                v2v_obs::Telemetry::capture_global().summary()
            );
        }
        if let Some(sink) = access_log {
            let bytes = response.body.len();
            write_access_log(sink, &request_id, &method, &path, response.status, bytes, latency_ms);
        }

        encode_response(&mut conn.out, &response, close);
        served += 1;
        if close {
            break;
        }
        // No explicit flush: if `carry` already holds the next request the
        // response batches with its answer; otherwise the idle wait (or
        // the next blocking read inside `read_request`) flushes first.
    }
    let _ = flush_out(&mut conn.stream, &mut conn.out);
    metrics.closed.inc();
    if drain {
        // The last request was rejected before it was fully read; see
        // `drain_before_close` for why closing now would eat the response.
        drain_before_close(&mut conn.stream, Duration::from_secs(1));
    }
}

/// The opened destination of [`ServerConfig::access_log`], shared by the
/// workers of one server.
enum AccessLog {
    Stderr,
    File(Mutex<std::fs::File>),
}

/// Appends one request's JSON line to `sink`.
fn write_access_log(
    sink: &AccessLog,
    request_id: &str,
    method: &str,
    path: &str,
    status: u16,
    bytes: usize,
    latency_ms: f64,
) {
    let mut line = format!("{{\"ts_ms\": {}, \"request_id\": ", v2v_obs::recorder::now_ms());
    v2v_obs::json::write_escaped(&mut line, request_id);
    line.push_str(", \"method\": ");
    v2v_obs::json::write_escaped(&mut line, method);
    line.push_str(", \"path\": ");
    v2v_obs::json::write_escaped(&mut line, path);
    let _ = {
        use std::fmt::Write as _;
        write!(line, ", \"status\": {status}, \"bytes\": {bytes}, \"latency_ms\": ")
    };
    v2v_obs::json::write_f64(&mut line, latency_ms);
    line.push_str("}\n");
    match sink {
        AccessLog::Stderr => eprint!("{line}"),
        AccessLog::File(f) => {
            let _ = f.lock().unwrap().write_all(line.as_bytes());
        }
    }
}

/// Exponential latency buckets: `0.05 * 2^i` ms for `i` in `0..12`, i.e.
/// 0.05 ms … ~100 ms.
pub(crate) const LATENCY_BOUNDS: [f64; 12] =
    [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 51.2, 102.4];

const MAX_HEAD: usize = 16 * 1024;

/// Maps one socket read onto the typed request errors, honoring
/// `deadline`: a timed-out read (or one that lands after the deadline)
/// is a 408, not a 400. Returns the bytes read (0 = orderly EOF). Any
/// batched pipelined responses are flushed first — a blocking read is the
/// last moment they can be delivered without risking a client that waits
/// for its answers before sending more.
fn read_some(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, RequestError> {
    if Instant::now() >= deadline {
        return Err(RequestError::new(408, "request deadline exceeded"));
    }
    if !flush_out(stream, out) {
        // A response write already failed; the stream can't be trusted to
        // carry another response, so fail the framing and close.
        return Err(RequestError::bad("write error flushing responses"));
    }
    match stream.read(chunk) {
        Ok(n) => Ok(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(RequestError::new(408, "timed out reading request"))
        }
        Err(e) => Err(RequestError::bad(format!("read error: {e}"))),
    }
}

/// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; a `Connection`
/// header naming the other token flips the default.
fn wants_keep_alive(version: &str, connection: Option<&str>) -> bool {
    let tokens = connection.unwrap_or("").to_ascii_lowercase();
    let has = |token: &str| tokens.split(',').any(|t| t.trim() == token);
    if version == "HTTP/1.0" {
        has("keep-alive")
    } else {
        !has("close")
    }
}

/// Reads and parses one request out of the connection's carry buffer,
/// refilling from the socket as needed; bytes past this request's body
/// stay in `conn.carry` as the start of the next pipelined request.
/// `Ok(None)` on EOF before any byte of a request. Tolerates arbitrary
/// TCP fragmentation (headers split across any byte boundary) and
/// enforces the head limit (431), the body limit (413, checked against
/// `Content-Length` before buffering), and `deadline` (408).
fn read_request(
    conn: &mut Conn,
    deadline: Instant,
    max_body: usize,
) -> Result<Option<Request>, RequestError> {
    // Read until the blank line ending the headers.
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&conn.carry) {
            break pos;
        }
        if conn.carry.len() > MAX_HEAD {
            return Err(RequestError::new(431, "request head too large"));
        }
        match read_some(&mut conn.stream, &mut conn.out, &mut chunk, deadline)? {
            0 => {
                if conn.carry.is_empty() {
                    return Ok(None);
                }
                return Err(RequestError::bad("connection closed mid-request"));
            }
            n => conn.carry.extend_from_slice(&chunk[..n]),
        }
    };

    let head = std::str::from_utf8(&conn.carry[..head_end])
        .map_err(|_| RequestError::bad("non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().ok_or_else(|| RequestError::bad("malformed request line"))?;
    let version = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || !version.starts_with("HTTP/") {
        return Err(RequestError::bad("malformed request line"));
    }

    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| RequestError::bad("invalid Content-Length"))?;
            }
            headers.push((name.trim().to_string(), value.to_string()));
        }
    }
    if content_length > max_body {
        return Err(RequestError::new(
            413,
            format!("request body of {content_length} bytes exceeds the {max_body} byte limit"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    // Body: the `content_length` bytes after the head; anything beyond
    // them is the next pipelined request and stays in the carry buffer.
    let body_start = head_end + 4;
    while conn.carry.len() < body_start + content_length {
        match read_some(&mut conn.stream, &mut conn.out, &mut chunk, deadline)? {
            0 => return Err(RequestError::bad("connection closed mid-body")),
            n => conn.carry.extend_from_slice(&chunk[..n]),
        }
    }
    let body = conn.carry[body_start..body_start + content_length].to_vec();
    conn.carry.drain(..body_start + content_length);

    let keep_alive = wants_keep_alive(
        &version,
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("connection"))
            .map(|(_, v)| v.as_str()),
    );
    Ok(Some(Request {
        method,
        path: percent_decode(&path),
        query,
        headers,
        body,
        // Populated by `handle_connection` once the trace context exists.
        request_id: String::new(),
        keep_alive,
        started: None,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses `a=1&b=x` with percent- and `+`-decoding.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding (`%XX` and `+` → space); invalid escapes pass
/// through verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("plain"), "plain");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("v=3&k=10&flag&x=a%26b");
        assert_eq!(q[0], ("v".into(), "3".into()));
        assert_eq!(q[1], ("k".into(), "10".into()));
        assert_eq!(q[2], ("flag".into(), String::new()));
        assert_eq!(q[3], ("x".into(), "a&b".into()));
    }

    #[test]
    fn request_param_lookup() {
        let req = Request {
            query: vec![("k".into(), "5".into())],
            ..Default::default()
        };
        assert_eq!(req.param("k"), Some("5"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = Request {
            headers: vec![
                ("X-Request-Id".into(), "abc".into()),
                ("Content-Length".into(), "0".into()),
            ],
            ..Default::default()
        };
        assert_eq!(req.header("x-request-id"), Some("abc"));
        assert_eq!(req.header("X-REQUEST-ID"), Some("abc"));
        assert_eq!(req.header("x-missing"), None);
    }

    #[test]
    fn keep_alive_negotiation_follows_http_defaults() {
        // HTTP/1.1: keep-alive unless the client says close.
        assert!(wants_keep_alive("HTTP/1.1", None));
        assert!(wants_keep_alive("HTTP/1.1", Some("keep-alive")));
        assert!(!wants_keep_alive("HTTP/1.1", Some("close")));
        assert!(!wants_keep_alive("HTTP/1.1", Some("Close")));
        assert!(!wants_keep_alive("HTTP/1.1", Some("TE, close")));
        // HTTP/1.0: close unless the client opts in.
        assert!(!wants_keep_alive("HTTP/1.0", None));
        assert!(wants_keep_alive("HTTP/1.0", Some("Keep-Alive")));
    }

    #[test]
    fn encoded_response_names_its_connection_disposition() {
        let r = Response::json(200, "{}");
        let mut keep = Vec::new();
        encode_response(&mut keep, &r, false);
        assert!(String::from_utf8(keep).unwrap().contains("Connection: keep-alive\r\n"));
        let mut close = Vec::new();
        encode_response(&mut close, &r, true);
        let close = String::from_utf8(close).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.ends_with("\r\n\r\n{}"));
    }

    /// The `/metricz` latency buckets must not move: each bound is
    /// `0.05 * 2^i` bit for bit.
    #[test]
    fn latency_bounds_are_doubling_from_50_us() {
        for (i, bound) in LATENCY_BOUNDS.iter().enumerate() {
            assert_eq!(bound.to_bits(), (0.05 * 2f64.powi(i as i32)).to_bits(), "bound {i}");
        }
    }

    #[test]
    fn text_responses_carry_plain_content_type() {
        let r = Response::text(200, "ok");
        assert!(r.content_type.starts_with("text/plain"));
        assert_eq!(Response::json(200, "{}").content_type, "application/json");
    }

    #[test]
    fn error_response_is_json() {
        let r = Response::error(400, "bad \"k\"");
        assert_eq!(r.status, 400);
        let v = v2v_obs::json::parse(&r.body).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad \"k\""));
    }

    /// Locks the adaptive `Retry-After` contract: a pure function of
    /// `(depth, capacity, salt)`, always an integer 1..=30, scaling with
    /// queue overload, with salt-driven jitter bounded by 2 s.
    #[test]
    fn retry_after_is_bounded_deterministic_and_scales_with_depth() {
        for depth in [0, 10, 100, 1_000, 100_000] {
            for capacity in [1, 64, 1024] {
                for salt in 0..16 {
                    let s = retry_after_secs(depth, capacity, salt);
                    assert!((1..=30).contains(&s), "{s} out of range");
                    assert_eq!(s, retry_after_secs(depth, capacity, salt), "not deterministic");
                }
            }
        }
        // Scaling: deeper overload never shortens the wait (same salt),
        // and a 5x-over-capacity queue waits strictly longer than an
        // exactly-full one.
        for salt in 0..8 {
            let full = retry_after_secs(64, 64, salt);
            let over = retry_after_secs(5 * 64, 64, salt);
            assert!(over > full, "depth 320/64 gave {over}, full queue gave {full}");
            let mut prev = 0;
            for depth in [64, 128, 256, 512, 1024] {
                let s = retry_after_secs(depth, 64, salt);
                assert!(s >= prev, "not monotone in depth at {depth}");
                prev = s;
            }
        }
        // Jitter: bounded by 2 s and actually varies across salts.
        let base: Vec<u64> = (0..32).map(|salt| retry_after_secs(64, 64, salt)).collect();
        assert!(base.iter().all(|&s| (1..=3).contains(&s)), "jitter exceeded 2s: {base:?}");
        assert!(base.iter().any(|&s| s != base[0]), "jitter never varied: {base:?}");
        // The header renders as bare integer seconds.
        assert!(retry_after_secs(0, 1024, 0).to_string().parse::<u64>().unwrap() >= 1);
    }
}
