//! Metrics primitives: atomic counters, gauges, and fixed-bucket
//! histograms, collected in a [`Registry`].
//!
//! Everything is wait-free on the record path (relaxed atomics; the
//! histogram's `sum`/`min`/`max` use short CAS loops), so instruments are
//! safe to touch from the Hogwild training loop. Lookup by name takes a
//! registry lock — resolve instruments *once* outside hot loops and hold
//! the returned `Arc`. For per-item counting inside a tight loop, shard
//! with [`LocalCounter`], which accumulates in a plain integer and merges
//! into the shared counter on drop.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::window::{WindowSnapshot, WindowedHistogram};

/// Monotone event count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point level (stored as `f64` bits).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: `bounds = [b0, b1, ...]` defines buckets
/// `(-inf, b0], (b0, b1], ..., (bk, +inf)`, plus exact `count`, `sum`,
/// `min`, and `max` of every recorded value.
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Observations rejected for being NaN/±inf (they would otherwise
    /// fall through every bucket comparison and poison `sum`).
    nonfinite: AtomicU64,
}

impl Histogram {
    /// Builds a histogram over `bounds` (must be finite and ascending).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            nonfinite: AtomicU64::new(0),
        }
    }

    /// Ten exponentially-spaced bounds from `lo` up — the default shape
    /// for duration- and length-like metrics.
    pub fn exponential(lo: f64, factor: f64, n: usize) -> Histogram {
        assert!(lo > 0.0 && factor > 1.0);
        let bounds: Vec<f64> =
            (0..n).scan(lo, |b, _| { let cur = *b; *b *= factor; Some(cur) }).collect();
        Histogram::new(&bounds)
    }

    /// Records one observation (wait-free apart from short CAS loops).
    /// Non-finite values are counted in [`nonfinite`](Histogram::nonfinite)
    /// and otherwise dropped: a NaN compares false against every bound, so
    /// without the guard it would land in the overflow bucket and turn
    /// `sum` (and so `mean`) into NaN forever.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            self.nonfinite.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum_bits, v);
        update_extreme(&self.min_bits, v, |new, cur| new < cur);
        update_extreme(&self.max_bits, v, |new, cur| new > cur);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Observations rejected by [`record`](Histogram::record) for being
    /// NaN or infinite.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// `None` until something is recorded.
    pub fn min(&self) -> Option<f64> {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    pub fn max(&self) -> Option<f64> {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

/// `target += v` on an `f64` stored as bits, via CAS.
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// CAS-updates a min/max cell when `better(new, current)`.
fn update_extreme(bits: &AtomicU64, v: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = bits.load(Ordering::Relaxed);
    while better(v, f64::from_bits(cur)) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Thread-local shard of a shared [`Counter`]: increments are plain
/// integer adds, merged into the shared counter on [`flush`] or drop.
///
/// [`flush`]: LocalCounter::flush
pub struct LocalCounter {
    target: Arc<Counter>,
    pending: u64,
}

impl LocalCounter {
    pub fn new(target: Arc<Counter>) -> LocalCounter {
        LocalCounter { target, pending: 0 }
    }

    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Publishes pending increments to the shared counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.target.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Point-in-time copy of every instrument, for export.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Live-window quantiles from [`WindowedHistogram`] instruments.
    pub windows: BTreeMap<String, WindowSnapshot>,
}

/// Frozen histogram state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub bucket_counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

/// A named collection of instruments. Instruments are created on first
/// use and live for the registry's lifetime; re-registering a name
/// returns the existing instrument.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    windows: Mutex<BTreeMap<String, Arc<WindowedHistogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// The gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`; `bounds` applies only on first creation.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, || Histogram::new(bounds))
    }

    /// The rotating-window histogram named `name` (default 4×15 s ring;
    /// `bounds` applies only on first creation).
    pub fn windowed(&self, name: &str, bounds: &[f64]) -> Arc<WindowedHistogram> {
        get_or_create(&self.windows, name, || WindowedHistogram::new(bounds))
    }

    /// Copies every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds().to_vec(),
                            bucket_counts: h.bucket_counts(),
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                        },
                    )
                })
                .collect(),
            windows: self
                .windows
                .lock()
                .unwrap()
                .iter()
                .map(|(k, w)| (k.clone(), w.snapshot()))
                .collect(),
        }
    }

    /// Drops every instrument (tests; existing `Arc`s keep working but are
    /// no longer exported).
    pub fn clear(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        self.histograms.lock().unwrap().clear();
        self.windows.lock().unwrap().clear();
    }
}

/// The instrument named `name` in `map`, made by `make` on first use. A
/// hit looks the name up as `&str` and allocates nothing; only an insert
/// copies it into an owned key.
fn get_or_create<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    let made = Arc::new(make());
    map.insert(name.to_string(), made.clone());
    made
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every pipeline layer records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("c").get(), 5, "same name returns same counter");
        let g = r.gauge("g");
        g.set(2.5);
        assert_eq!(r.gauge("g").get(), 2.5);
    }

    #[test]
    fn relookup_returns_the_first_instrument_and_its_bounds() {
        let r = Registry::new();
        let h = r.histogram("h", &[1.0, 2.0]);
        assert!(Arc::ptr_eq(&h, &r.histogram("h", &[5.0])));
        assert_eq!(r.histogram("h", &[5.0]).bounds(), &[1.0, 2.0]);
        let w = r.windowed("w", &[1.0]);
        assert!(Arc::ptr_eq(&w, &r.windowed("w", &[5.0])));
        assert_eq!(r.snapshot().histograms.len(), 1);
        assert_eq!(r.snapshot().windows.len(), 1);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        // (-inf,1], (1,10], (10,100], (100,inf)
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(500.0));
        assert!((h.sum() - 556.5).abs() < 1e-9);
        assert!((h.mean() - 111.3).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exponential_bounds_shape() {
        let h = Histogram::exponential(1.0, 2.0, 5);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn local_counter_merges_on_drop() {
        let r = Registry::new();
        let shared = r.counter("walks");
        {
            let mut local = LocalCounter::new(shared.clone());
            local.inc();
            local.add(9);
            assert_eq!(shared.get(), 0, "nothing published before flush");
        }
        assert_eq!(shared.get(), 10);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let r = Registry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let shared = r.counter("hits");
                s.spawn(move || {
                    // Odd threads exercise the sharded LocalCounter path,
                    // even threads hammer the shared atomic directly.
                    if t % 2 == 0 {
                        for _ in 0..PER_THREAD {
                            shared.inc();
                        }
                    } else {
                        let mut local = LocalCounter::new(shared);
                        for _ in 0..PER_THREAD {
                            local.inc();
                        }
                    }
                });
            }
        });
        assert_eq!(r.counter("hits").get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn concurrent_histogram_records_exactly() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        let r = Registry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = r.histogram("lat", &[1.0, 10.0]);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Values cycle 0.5, 5.0, 50.0 -> one per bucket.
                        let v = [0.5, 5.0, 50.0][(t + i) % 3];
                        h.record(v);
                    }
                });
            }
        });
        let h = r.histogram("lat", &[1.0, 10.0]);
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(h.count(), total);
        // 8 threads x 5000 values, cycle position (t + i) % 3: count per
        // bucket must sum back to the total regardless of interleaving.
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), total);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(50.0));
        // Exact sum: each thread contributes a deterministic multiset.
        let expected: f64 = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| [0.5, 5.0, 50.0][(t + i) % 3]))
            .sum();
        assert!((h.sum() - expected).abs() < 1e-6, "sum {} != {expected}", h.sum());
    }

    #[test]
    fn snapshot_is_complete() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.gauge("b").set(3.0);
        r.histogram("h", &[1.0]).record(2.0);
        r.windowed("w", &[1.0, 10.0]).record(5.0);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 1);
        assert_eq!(s.gauges["b"], 3.0);
        assert_eq!(s.histograms["h"].count, 1);
        assert_eq!(s.histograms["h"].bucket_counts, vec![0, 1]);
        assert_eq!(s.windows["w"].count, 1);
        assert!(s.windows["w"].p50 > 1.0);
    }

    #[test]
    fn nonfinite_records_are_rejected() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.record(2.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        // The poison values must not reach any bucket or statistic:
        // before the guard, NaN landed in the overflow bucket and made
        // `sum`/`mean` NaN for the rest of the process.
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_counts(), vec![0, 1, 0]);
        assert_eq!(h.sum(), 2.0);
        assert!(h.mean().is_finite());
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(2.0));
        assert_eq!(h.nonfinite(), 3);
    }
}
