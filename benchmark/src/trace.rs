//! In-memory spans for the traced run, written once at exit in Chrome
//! trace-event format (opens in Perfetto / `chrome://tracing`). Per-layer
//! metrics are read back from these spans, not from separate timers.

use crate::json::{obj, Value};
use std::io::{self, Write};
use std::time::Instant;

pub type SpanId = u64;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// The repo module the span's time belongs to.
    pub layer: &'static str,
    /// Microseconds since the trace origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Shared by every span of one request.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans on one thread; recorders of one run share an origin and
/// differ in `lane`, so ids never collide and merging is concatenation.
#[derive(Clone, Debug)]
pub struct Recorder {
    origin: Instant,
    lane: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, lane: u32) -> Recorder {
        Recorder {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn lane(&self, lane: u32) -> Recorder {
        Recorder::new(self.origin, lane)
    }

    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let id = (u64::from(self.lane) << 40) | self.spans.len() as u64;
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_us: us(start),
            end_us: us(end),
            request,
        });
        id
    }

    /// Opens a span that will have children: it starts now and ends at
    /// [`close`](Recorder::close).
    pub fn open(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        let now = Instant::now();
        self.record(name, layer, now, now, None, None)
    }

    /// Ends a span of this recorder's own lane now.
    pub fn close(&mut self, id: SpanId) {
        let end = Instant::now()
            .saturating_duration_since(self.origin)
            .as_secs_f64()
            * 1e6;
        let span = &mut self.spans[(id & ((1 << 40) - 1)) as usize];
        assert_eq!(span.id, id, "close() takes a span this recorder opened");
        span.end_us = end;
    }

    /// Times `work` as a span and hands its result back.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = work();
        self.record(name, layer, start, Instant::now(), None, None);
        out
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Writes the spans as Chrome trace events, one at a time: a traced
    /// run holds a few hundred thousand.
    pub fn write_chrome_json(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let num = |v: Option<u64>| v.map_or(Value::Null, |v| Value::Num(v as f64));
            let event = obj([
                ("name", Value::from(s.name)),
                ("cat", s.layer.into()),
                ("ph", "X".into()),
                ("ts", s.start_us.into()),
                ("dur", s.dur_us().into()),
                ("pid", 1.0.into()),
                ("tid", ((s.id >> 40) as f64).into()),
                (
                    "args",
                    obj([
                        ("id", num(Some(s.id))),
                        ("parent", num(s.parent)),
                        ("layer", s.layer.into()),
                        ("workload", workload.into()),
                        ("request", num(s.request)),
                    ]),
                ),
            ]);
            write!(out, "{}{event}", if i == 0 { "" } else { ",\n" })?;
        }
        out.write_all(b"], \"displayTimeUnit\": \"ms\"}\n")
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children counted once).
pub fn self_time_us(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut covered, mut reach) = (0.0, span.start_us);
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    span.dur_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin, 0);
        let root = r.record(
            "request",
            "loadgen",
            at(origin, 0),
            at(origin, 100),
            None,
            Some(1),
        );
        r.record(
            "write",
            "loadgen",
            at(origin, 10),
            at(origin, 30),
            Some(root),
            Some(1),
        );
        // Overlaps the first child by 10 µs and runs 20 µs past the parent.
        r.record(
            "wait",
            "loadgen",
            at(origin, 20),
            at(origin, 120),
            Some(root),
            Some(1),
        );
        // A grandchild and a stranger must not count.
        r.record(
            "inner",
            "loadgen",
            at(origin, 40),
            at(origin, 50),
            Some(root + 2),
            Some(1),
        );
        r.record(
            "other",
            "loadgen",
            at(origin, 0),
            at(origin, 100),
            None,
            Some(2),
        );
        let root_span = r.spans[0].clone();
        // Children cover [10, 100] of [0, 100].
        assert!((self_time_us(&root_span, &r.spans) - 10.0).abs() < 1e-6);
        let leaf = r.spans[1].clone();
        assert!((self_time_us(&leaf, &r.spans) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn an_opened_span_closes_over_its_children() {
        let mut r = Recorder::new(Instant::now(), 2);
        r.time("before", "graph", || ());
        let parent = r.open("offline", "pipeline");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        r.record("stage", "graph", start, Instant::now(), Some(parent), None);
        r.close(parent);
        let whole = r.spans[1].clone();
        assert_eq!(whole.name, "offline");
        assert!(whole.dur_us() >= 2_000.0);
        assert!(self_time_us(&whole, &r.spans) < whole.dur_us() - 1_900.0);
    }

    #[test]
    fn lanes_keep_ids_apart_and_chrome_json_parses() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0);
        let mut b = a.lane(3);
        let ia = a.record("x", "graph", at(origin, 0), at(origin, 5), None, None);
        let ib = b.record(
            "y",
            "walks",
            at(origin, 1),
            at(origin, 2),
            Some(ia),
            Some(9),
        );
        assert_ne!(ia, ib);
        a.absorb(b);
        assert_eq!(a.durations_us("y"), vec![1.0]);
        let mut text = Vec::new();
        a.write_chrome_json("pipeline", &mut text).unwrap();
        let parsed = Value::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = parsed.get("traceEvents").and_then(Value::arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("tid").and_then(Value::num), Some(3.0));
        assert_eq!(
            events[1].get("args").unwrap().num_at("parent"),
            Ok(ia as f64)
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("workload")
                .and_then(Value::str),
            Some("pipeline")
        );
    }
}
