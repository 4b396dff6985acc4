//! The write side: one connection posting edge batches on a schedule and
//! watching `/healthz` to see when each acknowledged batch reaches the
//! served state.

use crate::datasets::ingest_body;
use crate::http::{self, KeepAlive};
use crate::json::Value;
use crate::proc::sleep_until;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One batch is due every period: 40 edges / 100 ms = 400 edges/s, below
/// what the refresh worker sustains, so the backlog stays flat.
pub const BATCH_PERIOD: Duration = Duration::from_millis(100);
/// How often `/healthz` is asked whether an acknowledged batch is applied.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// How long the backlog may take to drain once writing stops.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// The ingest counters `/healthz` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Health {
    pub vectors: u64,
    pub wal_replayed: u64,
    pub last_applied_seq: u64,
    pub durable_seq: u64,
    pub folded_edges: u64,
}

#[derive(Debug, Default)]
pub struct IngestLog {
    /// `POST /ingest` round trips, fsync included.
    pub ack_ms: Vec<f64>,
    /// ACK → the batch's last edge visible in the served state.
    pub fold_lag_ms: Vec<f64>,
    pub batches_attempted: u64,
    pub batches_failed: u64,
    pub edges_acked: u64,
    /// ACKs that did not say `"durable": true`.
    pub not_durable: u64,
}

pub fn parse_health(body: &str) -> Result<Health, String> {
    let v = Value::parse(body)?;
    let n = |key: &str| v.num_at(key).map(|n| n as u64);
    Ok(Health {
        vectors: n("vectors")?,
        wal_replayed: n("ingest.wal_replayed")?,
        last_applied_seq: n("ingest.last_applied_seq")?,
        durable_seq: n("ingest.durable_seq")?,
        folded_edges: n("ingest.folded_edges")?,
    })
}

fn health(link: &mut KeepAlive) -> Result<Health, String> {
    parse_health(&link.get_ok("/healthz")?)
}

pub fn fetch_health(addr: SocketAddr) -> Result<Health, String> {
    health(&mut KeepAlive::new(addr))
}

/// Asks `/healthz` once and turns every pending ACK the served state has
/// caught up with into a fold-lag sample.
fn settle(
    link: &mut KeepAlive,
    log: &mut IngestLog,
    pending: &mut VecDeque<(Instant, u64)>,
) -> Option<Health> {
    let health = health(link).ok()?;
    let seen = Instant::now();
    while pending
        .front()
        .is_some_and(|(_, seq)| *seq <= health.last_applied_seq)
    {
        let (acked, _) = pending.pop_front().expect("front was checked");
        log.fold_lag_ms
            .push(seen.duration_since(acked).as_secs_f64() * 1e3);
    }
    Some(health)
}

/// Posts `batches` one per [`BATCH_PERIOD`] from `t0` until `stop` (or the
/// batches run out), then waits for the server to apply everything it
/// acknowledged. Returns the log and the server's counters after the drain.
pub fn write_and_drain(
    addr: SocketAddr,
    batches: &[Vec<(u32, u32)>],
    t0: Instant,
    stop: Instant,
) -> Result<(IngestLog, Health), String> {
    let mut link = KeepAlive::new(addr);
    let mut log = IngestLog::default();
    // (when the ACK arrived, the batch's last sequence number)
    let mut pending: VecDeque<(Instant, u64)> = VecDeque::new();
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + BATCH_PERIOD * i as u32;
        if due >= stop {
            break;
        }
        while Instant::now() < due {
            if !pending.is_empty() {
                settle(&mut link, &mut log, &mut pending);
            }
            sleep_until(due.min(Instant::now() + POLL_EVERY));
        }
        log.batches_attempted += 1;
        let sent = Instant::now();
        let reply = link.call(&http::post("/ingest", &ingest_body(batch))).ok();
        let acked = Instant::now();
        let ack = reply
            .filter(|r| r.status == 200)
            .and_then(|r| Value::parse(r.text()).ok());
        let Some(ack) = ack else {
            log.batches_failed += 1;
            continue;
        };
        log.ack_ms
            .push(acked.duration_since(sent).as_secs_f64() * 1e3);
        log.edges_acked += ack.num_at("acked").unwrap_or(0.0) as u64;
        if ack.get("durable") != Some(&Value::Bool(true)) {
            log.not_durable += 1;
        }
        pending.push_back((acked, ack.num_at("last_seq").unwrap_or(0.0) as u64));
    }

    let deadline = Instant::now() + DRAIN_LIMIT;
    loop {
        let health = settle(&mut link, &mut log, &mut pending);
        match health {
            Some(h) if pending.is_empty() && h.last_applied_seq == h.durable_seq => {
                return Ok((log, h))
            }
            _ if Instant::now() >= deadline => {
                return Err(format!(
                    "backlog did not drain in {DRAIN_LIMIT:?}: {health:?}"
                ));
            }
            _ => std::thread::sleep(POLL_EVERY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_ingest_counters_from_healthz() {
        let body = r#"{"status": "ok", "vectors": 2001, "dimensions": 64, "index": "hnsw", "labels": false, "ingest.wal_replayed": 7, "ingest.lag_edges": 0, "ingest.last_applied_seq": 2, "ingest.durable_seq": 3, "ingest.folded_edges": 2, "ingest.wal.segments": 1}"#;
        assert_eq!(
            parse_health(body),
            Ok(Health {
                vectors: 2001,
                wal_replayed: 7,
                last_applied_seq: 2,
                durable_seq: 3,
                folded_edges: 2
            })
        );
        assert!(parse_health(r#"{"status": "ok", "vectors": 5}"#).is_err());
    }
}
