//! The load generator: closed- and open-loop pacing over HTTP clients, and
//! the reduction of their samples to per-window statistics.

use crate::datasets::QueryStream;
use crate::http::{self, Conn};
use crate::proc::{sleep_until, CpuTimes, Server};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::Recorder;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A send this far behind its due time counts as late.
const LATE: Duration = Duration::from_millis(1);

#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// The next request goes out when the previous reply is in: callers
    /// that wait. Latency runs from the send.
    Closed,
    /// Request `i` is due at `t0 + i / rate` whatever happened before:
    /// independent users. Latency runs from the due time, so a stall is
    /// charged to every request it delayed.
    Open { rate: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Seconds after `t0` the request was sent (closed) or due (open): the
    /// window its latency belongs to.
    pub at_s: f64,
    pub latency_ms: f64,
}

impl Sample {
    /// Seconds after `t0` the reply was complete.
    fn done_s(&self) -> f64 {
        self.at_s + self.latency_ms / 1e3
    }
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Open loop only: sends more than 1 ms behind schedule.
    pub late: u64,
}

/// Runs `exchange` (one request; `true` when it succeeded) from `t0` until
/// `stop` under the given pacing.
pub fn drive(
    t0: Instant,
    stop: Instant,
    pacing: Pacing,
    mut exchange: impl FnMut() -> bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let from = match pacing {
            Pacing::Closed => Instant::now(),
            Pacing::Open { rate } => t0 + Duration::from_secs_f64(log.attempted as f64 / rate),
        };
        if from >= stop {
            return log;
        }
        if matches!(pacing, Pacing::Open { .. }) {
            sleep_until(from);
            if Instant::now().saturating_duration_since(from) > LATE {
                log.late += 1;
            }
        }
        log.attempted += 1;
        if exchange() {
            log.samples.push(Sample {
                at_s: from.saturating_duration_since(t0).as_secs_f64(),
                latency_ms: from.elapsed().as_secs_f64() * 1e3,
            });
        } else {
            log.failed += 1;
        }
    }
}

/// One HTTP client walking a seeded query stream.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// A new TCP connection per request, asked for with `Connection:
    /// close`; otherwise keep-alive, reconnecting when the server ends it.
    fresh_connections: bool,
    queries: QueryStream,
    requests: u64,
    pub reconnects: u64,
    /// Client-side spans, when this is the traced run.
    pub recorder: Option<Recorder>,
}

impl Client {
    pub fn new(addr: SocketAddr, queries: QueryStream, fresh_connections: bool) -> Client {
        Client {
            addr,
            conn: None,
            fresh_connections,
            queries,
            requests: 0,
            reconnects: 0,
            recorder: None,
        }
    }

    /// Sends the next query and reads its reply; `true` on a 2xx.
    pub fn exchange(&mut self) -> bool {
        let query = self.queries.next().expect("query streams are endless");
        let request = http::get(&query.path(), self.fresh_connections);
        let start = Instant::now();
        let reused = self.conn.is_some();
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => match Conn::connect(self.addr) {
                Ok(conn) => conn,
                Err(_) => return false,
            },
        };
        let connected = Instant::now();
        let Ok((response, timing)) = conn.round_trip(&request) else {
            return false;
        };
        if !self.fresh_connections {
            if response.close {
                self.reconnects += 1;
            } else {
                self.conn = Some(conn);
            }
        }
        self.requests += 1;
        if let Some(rec) = &mut self.recorder {
            let id = Some(self.requests);
            let parent = Some(rec.record("request", "loadgen", start, timing.end, None, id));
            if !reused {
                rec.record("connect", "loadgen", start, connected, parent, id);
            }
            rec.record(
                "write",
                "loadgen",
                timing.write_start,
                timing.write_end,
                parent,
                id,
            );
            rec.record(
                "wait",
                "loadgen",
                timing.write_end,
                timing.first_byte,
                parent,
                id,
            );
            rec.record("read", "loadgen", timing.first_byte, timing.end, parent, id);
        }
        (200..300).contains(&response.status)
    }
}

/// What the read stream of a workload looks like.
#[derive(Clone, Copy, Debug)]
pub struct ReadPlan {
    pub clients: usize,
    pub fresh_connections: bool,
    pub pacing: Pacing,
    pub mix: crate::datasets::Mix,
}

/// Everything the clients of one timed stretch logged, plus the server CPU
/// and machine steal sampled at each window boundary.
pub struct ReadRun {
    pub logs: Vec<ClientLog>,
    pub reconnects: u64,
    pub recorders: Vec<Recorder>,
    pub window_s: f64,
    /// `windows + 1` readings of the server's CPU seconds.
    pub server_cpu_s: Vec<f64>,
    pub cpu_times: Vec<CpuTimes>,
}

/// Runs the read stream against `server` for `windows` windows of
/// `window_s` seconds after `warmup_s` of untimed warm-up. Client `c` walks
/// `queries(c)`. `trace`, when set, turns client spans on.
pub fn run_reads(
    server: &Server,
    plan: &ReadPlan,
    queries: &(dyn Fn(usize) -> QueryStream + Sync),
    warmup_s: f64,
    windows: usize,
    window_s: f64,
    trace: Option<&Recorder>,
) -> ReadRun {
    let begin = Instant::now();
    let t0 = begin + Duration::from_secs_f64(warmup_s);
    let stop = t0 + Duration::from_secs_f64(window_s * windows as f64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|c| {
                let mut client = Client::new(server.addr, queries(c), plan.fresh_connections);
                let recorder = trace.map(|t| t.lane(c as u32 + 1));
                scope.spawn(move || {
                    // Warm-up: same traffic, nothing kept. Open-loop
                    // clients stay on their schedule from the start.
                    drive(begin, t0, plan.pacing, || client.exchange());
                    client.recorder = recorder;
                    let log = drive(t0, stop, plan.pacing, || client.exchange());
                    (log, client.reconnects, client.recorder.take())
                })
            })
            .collect();
        let (mut server_cpu_s, mut cpu_times) = (Vec::new(), Vec::new());
        for w in 0..=windows {
            sleep_until(t0 + Duration::from_secs_f64(window_s * w as f64));
            server_cpu_s.push(server.cpu_s());
            cpu_times.push(CpuTimes::now());
        }
        let mut run = ReadRun {
            logs: Vec::new(),
            reconnects: 0,
            recorders: Vec::new(),
            window_s,
            server_cpu_s,
            cpu_times,
        };
        for handle in handles {
            let (log, reconnects, recorder) = handle.join().expect("client thread panicked");
            run.logs.push(log);
            run.reconnects += reconnects;
            run.recorders.extend(recorder);
        }
        run
    })
}

#[derive(Clone, Debug)]
pub struct Window {
    pub rps: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub cpu_us_per_req: f64,
    pub steal_frac: f64,
}

/// The read stream reduced to the numbers the metrics are made of.
#[derive(Clone, Debug)]
pub struct ReadSummary {
    pub windows: Vec<Window>,
    /// Medians over the windows: one disturbed window does not move them.
    pub rps: f64,
    pub p50_ms: f64,
    /// Per window, latency at the highest percentile its sample count
    /// supports (`tail_pct`, p99 from a thousand samples up); then the
    /// median over windows.
    pub tail_ms: f64,
    pub tail_pct: f64,
    /// Server CPU over the whole stretch per completed request; CPU time is
    /// counted in 10 ms ticks, too coarse to take per window at low rates.
    pub cpu_us_per_req: f64,
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    pub late: u64,
    pub reconnects: u64,
}

pub fn summarize(run: &ReadRun) -> Result<ReadSummary, String> {
    let count = run.server_cpu_s.len() - 1;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); count];
    // First send and last completion of each window's requests: the time
    // its throughput is taken over, as measured rather than as planned.
    let mut busy = vec![(f64::INFINITY, 0.0f64); count];
    for s in run.logs.iter().flat_map(|l| &l.samples) {
        let w = ((s.at_s / run.window_s) as usize).min(count - 1);
        per_window[w].push(s.latency_ms);
        busy[w] = (busy[w].0.min(s.at_s), busy[w].1.max(s.done_s()));
    }
    let samples: usize = per_window.iter().map(Vec::len).sum();
    let fewest = per_window.iter().map(Vec::len).min().unwrap_or(0);
    if fewest == 0 {
        return Err("a window completed no request".into());
    }
    // One percentile for all windows, so their tails are comparable.
    let tail_pct = supported_tail(fewest);
    let mut windows = Vec::new();
    for (w, lat) in per_window.iter_mut().enumerate() {
        lat.sort_by(f64::total_cmp);
        windows.push(Window {
            rps: lat.len() as f64 / (busy[w].1 - busy[w].0),
            p50_ms: percentile(lat, 50.0),
            tail_ms: percentile(lat, tail_pct),
            cpu_us_per_req: (run.server_cpu_s[w + 1] - run.server_cpu_s[w]) * 1e6
                / lat.len() as f64,
            steal_frac: run.cpu_times[w + 1].steal_frac_since(&run.cpu_times[w]),
        });
    }
    let over = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Ok(ReadSummary {
        rps: over(|w| w.rps),
        p50_ms: over(|w| w.p50_ms),
        tail_ms: over(|w| w.tail_ms),
        tail_pct,
        cpu_us_per_req: (run.server_cpu_s[count] - run.server_cpu_s[0]) * 1e6 / samples as f64,
        samples,
        attempted: run.logs.iter().map(|l| l.attempted).sum(),
        failed: run.logs.iter().map(|l| l.failed).sum(),
        late: run.logs.iter().map(|l| l.late).sum(),
        reconnects: run.reconnects,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delayed() {
        // 100 requests/s; request 3 stalls for 50 ms, every other exchange
        // is instant. Requests 4..8 were due during the stall, so their
        // latency from the due time is what is left of it — a closed loop
        // would have reported ~0 for them.
        let t0 = Instant::now();
        let mut calls = 0;
        let log = drive(
            t0,
            t0 + Duration::from_millis(150),
            Pacing::Open { rate: 100.0 },
            || {
                calls += 1;
                if calls == 4 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                true
            },
        );
        assert_eq!(log.attempted, 15);
        let lat: Vec<f64> = log.samples.iter().map(|s| s.latency_ms).collect();
        assert!(lat[3] >= 50.0, "{lat:?}");
        assert!(
            lat[4] >= 39.0 && lat[5] >= 29.0 && lat[6] >= 19.0 && lat[7] >= 9.0,
            "{lat:?}"
        );
        // Due times, not completion times, place the samples.
        assert!((log.samples[4].at_s - 0.04).abs() < 1e-9);
        assert!(log.late >= 4, "late {}", log.late);
        // Before the stall nothing waited.
        assert!(lat[..3].iter().all(|l| *l < 9.0), "{lat:?}");
    }

    #[test]
    fn closed_loop_times_from_the_send_and_counts_failures() {
        let t0 = Instant::now();
        let mut calls = 0;
        let log = drive(t0, t0 + Duration::from_millis(60), Pacing::Closed, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(5));
            calls != 2
        });
        assert_eq!(log.failed, 1);
        assert_eq!(log.samples.len() as u64, log.attempted - 1);
        assert!(log
            .samples
            .iter()
            .all(|s| (5.0..30.0).contains(&s.latency_ms)));
        assert_eq!(log.late, 0);
    }

    /// A server that ends every connection after two replies, announcing it
    /// on the second — what `v2v serve` does when a connection has used up
    /// its request budget.
    fn closing_server(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                let mut seen = Vec::new();
                for reply in 1..=2 {
                    // One GET at a time: read until the blank line.
                    let mut byte = [0u8; 1];
                    while !seen.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap() == 0 {
                            return;
                        }
                        seen.push(byte[0]);
                    }
                    seen.clear();
                    let connection = if reply == 2 { "close" } else { "keep-alive" };
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: {connection}\r\n\r\n"
                    );
                    // Head and body in separate writes, so the client
                    // also sees a reply split across reads.
                    stream.write_all(head.as_bytes()).unwrap();
                    stream.flush().unwrap();
                    stream.write_all(b"{}").unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_client_reconnects_when_the_server_closes_mid_run() {
        let (addr, server) = closing_server(4);
        let queries = QueryStream::new(1, 0, 100, crate::datasets::Mix::Neighbors);
        let mut client = Client::new(addr, queries, false);
        client.recorder = Some(Recorder::new(Instant::now(), 1));
        for i in 0..7 {
            assert!(client.exchange(), "exchange {i} failed");
        }
        assert_eq!(client.reconnects, 3);
        // One connect span per new connection, one request span per exchange.
        let rec = client.recorder.take().unwrap();
        assert_eq!(rec.durations_us("connect").len(), 4);
        assert_eq!(rec.durations_us("request").len(), 7);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn summary_takes_medians_over_windows_and_a_pooled_tail() {
        let sample = |at_s, latency_ms| Sample { at_s, latency_ms };
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..400 {
                samples.push(sample(w as f64 + i as f64 / 400.0, (w + 1) as f64));
            }
        }
        let run = ReadRun {
            logs: vec![ClientLog {
                samples,
                attempted: 1201,
                failed: 1,
                late: 0,
            }],
            reconnects: 2,
            recorders: Vec::new(),
            window_s: 1.0,
            server_cpu_s: vec![0.0, 0.4, 0.8, 1.6],
            cpu_times: vec![CpuTimes::default(); 4],
        };
        let s = summarize(&run).unwrap();
        assert_eq!(s.windows.len(), 3);
        // 400 requests from 1.0 s to 1.9975 s + 2 ms.
        assert!((s.rps - 400.0 / 0.9995).abs() < 1e-6, "{}", s.rps);
        assert_eq!(s.p50_ms, 2.0);
        // 1.6 CPU-seconds over 1200 requests; per window 1000, 1000, 2000.
        assert!((s.cpu_us_per_req - 1.6e6 / 1200.0).abs() < 1e-9);
        assert_eq!(s.windows[2].cpu_us_per_req, 2000.0);
        // 400 samples a window support p95; window tails are 1, 2, 3 ms.
        assert_eq!((s.samples, s.tail_pct, s.tail_ms), (1200, 95.0, 2.0));
        assert_eq!((s.attempted, s.failed, s.reconnects), (1201, 1, 2));
    }
}
