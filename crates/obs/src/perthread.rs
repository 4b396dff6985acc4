//! Per-thread training telemetry: cache-line-padded stat slots and cheap
//! phase tags.
//!
//! The Hogwild trainer's aggregate gauges (`train.pairs_per_sec`) say
//! *that* parallel scaling is broken, not *why*. This module gives each
//! worker thread its own [`WorkerSlot`] — a `#[repr(align(64))]` block of
//! relaxed atomics, so two workers bumping their own counters never share
//! a cache line and the telemetry cannot itself create the false sharing
//! it is meant to diagnose. Slots are aggregated lock-free into
//! cardinality-bounded `train.thread.N.*` gauges plus skew/imbalance
//! summaries (see [`WorkerTable::publish`]).
//!
//! Each thread also carries a **phase tag** — a plain thread-local byte
//! naming what the thread is doing right now (walk-fetch / forward /
//! gradient / output-update / barrier-wait). Setting it is a single
//! non-atomic TLS store (~1 ns), cheap enough for per-pair transitions in
//! the training hot loop; the [`crate::sampler`] SIGPROF profiler reads it
//! from the signal handler to build a flat time-in-phase profile without
//! timing a single transition.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::metrics::Registry;

/// Upper bound on tracked workers: indexes at or above this share the last
/// slot, so metric cardinality stays bounded no matter what thread count a
/// caller asks for.
pub const MAX_WORKERS: usize = 64;

/// What a training thread is doing right now. Stored as a thread-local
/// byte by [`set_phase`]; sampled asynchronously by the SIGPROF profiler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Not inside the trainer (or between epochs).
    Idle = 0,
    /// Walk setup: RNG derivation, subsample filtering, window bookkeeping.
    WalkFetch = 1,
    /// Hidden-layer construction (CBOW context averaging / SkipGram row read).
    Forward = 2,
    /// Applying the accumulated input gradient back onto `syn0` rows.
    Gradient = 3,
    /// Output-layer update: sigmoid table lookups + `syn1` dot/axpy kernels.
    OutputUpdate = 4,
    /// Done with this epoch's chunk, waiting for the slowest worker.
    BarrierWait = 5,
}

impl Phase {
    /// Number of distinct phases (array sizes in the sampler).
    pub const COUNT: usize = 6;

    /// Every phase, in tag order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Idle,
        Phase::WalkFetch,
        Phase::Forward,
        Phase::Gradient,
        Phase::OutputUpdate,
        Phase::BarrierWait,
    ];

    /// Stable lowercase name (used in profile JSON and metric names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::WalkFetch => "walk_fetch",
            Phase::Forward => "forward",
            Phase::Gradient => "gradient",
            Phase::OutputUpdate => "output_update",
            Phase::BarrierWait => "barrier_wait",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Decodes a raw tag byte; unknown bytes map to `Idle` so a torn or
    /// stale read can never index out of bounds.
    #[inline]
    pub fn from_tag(tag: u8) -> Phase {
        *Phase::ALL.get(tag as usize).unwrap_or(&Phase::Idle)
    }
}

thread_local! {
    /// The current thread's phase tag. A plain `Cell` (not an atomic): it
    /// is only ever written by this thread and read by this thread —
    /// including from the SIGPROF handler, which interrupts *this* thread
    /// and therefore observes the program-ordered value. Const-initialized
    /// so access is a bare TLS load with no lazy-init branch and no
    /// destructor registration (async-signal-safe to read).
    static PHASE: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Tags the current thread with `phase`. One TLS byte store; safe to call
/// millions of times per second from the training hot loop.
#[inline(always)]
pub fn set_phase(phase: Phase) {
    PHASE.with(|c| c.set(phase as u8));
}

/// The current thread's raw phase tag. Async-signal-safe: a bare TLS read.
#[inline(always)]
pub fn current_phase_tag() -> u8 {
    PHASE.with(std::cell::Cell::get)
}

/// The current thread's phase.
#[inline]
pub fn current_phase() -> Phase {
    Phase::from_tag(current_phase_tag())
}

/// One worker thread's statistics, padded to its own cache line(s).
///
/// All fields are relaxed atomics: workers only ever *add* to their own
/// slot, readers snapshot asynchronously, and no ordering between fields
/// is required (a snapshot mid-epoch is a monitoring view, not a ledger).
#[derive(Default)]
#[repr(align(64))]
pub struct WorkerSlot {
    /// (center, context) pairs trained.
    pairs: AtomicU64,
    /// Walks consumed.
    walks: AtomicU64,
    /// Nanoseconds spent training (chunk start → chunk end).
    busy_ns: AtomicU64,
    /// Nanoseconds spent at the epoch barrier waiting for slower workers.
    wait_ns: AtomicU64,
}

/// `WorkerSlot` must start on its own cache line *and* span a whole number
/// of them, so adjacent slots in the table never share a line.
const _SLOT_LAYOUT: () = assert!(
    std::mem::align_of::<WorkerSlot>() == 64
        && std::mem::size_of::<WorkerSlot>().is_multiple_of(64)
);

impl WorkerSlot {
    /// Folds in one walk's results (called per walk from the hot loop; one
    /// relaxed add per field on this worker's private cache line).
    #[inline]
    pub fn add_walk(&self, pairs: u64) {
        self.pairs.fetch_add(pairs, Ordering::Relaxed);
        self.walks.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds chunk busy time (called once per epoch per worker).
    pub fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds barrier wait time (called once per epoch per worker).
    pub fn add_wait(&self, ns: u64) {
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn load(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            pairs: self.pairs.load(Ordering::Relaxed),
            walks: self.walks.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.pairs.store(0, Ordering::Relaxed);
        self.walks.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        self.wait_ns.store(0, Ordering::Relaxed);
    }
}

/// Frozen copy of one slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    pub pairs: u64,
    pub walks: u64,
    pub busy_ns: u64,
    pub wait_ns: u64,
}

/// Aggregate attribution of one training run's concurrency behaviour,
/// computed from the worker slots. This is what `bench_embed --sweep`
/// writes into `BENCH_embed.json` and what the trainer surfaces in its
/// `TrainStats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConcurrencyReport {
    /// Workers that actually recorded work.
    pub threads: usize,
    /// Pairs trained per worker, slot order.
    pub per_thread_pairs: Vec<u64>,
    /// Busy seconds per worker, slot order.
    pub per_thread_busy_secs: Vec<f64>,
    /// Barrier-wait seconds per worker, slot order.
    pub per_thread_wait_secs: Vec<f64>,
    /// `max(per-thread pairs/busy-sec) / mean(per-thread pairs/busy-sec)`:
    /// 1.0 = perfectly balanced, 2.0 = the fastest worker ran twice the
    /// mean rate (some workers starved or stalled).
    pub throughput_skew: f64,
    /// Fraction of total worker time spent waiting at epoch barriers:
    /// `sum(wait) / (sum(busy) + sum(wait))`.
    pub barrier_wait_frac: f64,
}

/// Fixed table of [`MAX_WORKERS`] padded slots, registered process-global
/// so the trainer writes and `/metricz` scrapers read the same instance.
pub struct WorkerTable {
    slots: Box<[WorkerSlot]>,
    /// High-water worker count of the current run.
    active: AtomicUsize,
}

impl Default for WorkerTable {
    fn default() -> Self {
        WorkerTable::new()
    }
}

impl WorkerTable {
    pub fn new() -> WorkerTable {
        WorkerTable {
            slots: (0..MAX_WORKERS).map(|_| WorkerSlot::default()).collect(),
            active: AtomicUsize::new(0),
        }
    }

    /// The slot for worker `index`. Indexes beyond [`MAX_WORKERS`] clamp to
    /// the last slot: their stats merge rather than growing cardinality.
    pub fn slot(&self, index: usize) -> &WorkerSlot {
        let clamped = index.min(MAX_WORKERS - 1);
        let prev = self.active.load(Ordering::Relaxed);
        if clamped + 1 > prev {
            self.active.fetch_max(clamped + 1, Ordering::Relaxed);
        }
        &self.slots[clamped]
    }

    /// Workers that have claimed slots since the last [`reset`].
    ///
    /// [`reset`]: WorkerTable::reset
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Zeroes every slot and the active count (start of a training run).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.reset();
        }
        self.active.store(0, Ordering::Relaxed);
    }

    /// Snapshots the active slots, slot order.
    pub fn snapshot(&self) -> Vec<WorkerSnapshot> {
        self.slots[..self.active()].iter().map(WorkerSlot::load).collect()
    }

    /// Computes the run-level attribution summary from the active slots.
    pub fn report(&self) -> ConcurrencyReport {
        let snaps = self.snapshot();
        let mut report = ConcurrencyReport { threads: snaps.len(), ..Default::default() };
        if snaps.is_empty() {
            return report;
        }
        let mut rates = Vec::with_capacity(snaps.len());
        let (mut busy, mut wait) = (0u64, 0u64);
        for s in &snaps {
            report.per_thread_pairs.push(s.pairs);
            report.per_thread_busy_secs.push(s.busy_ns as f64 / 1e9);
            report.per_thread_wait_secs.push(s.wait_ns as f64 / 1e9);
            if s.busy_ns > 0 {
                rates.push(s.pairs as f64 / (s.busy_ns as f64 / 1e9));
            }
            busy += s.busy_ns;
            wait += s.wait_ns;
        }
        let mean_rate = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        let max_rate = rates.iter().cloned().fold(0.0f64, f64::max);
        report.throughput_skew = if mean_rate > 0.0 { max_rate / mean_rate } else { 1.0 };
        let total = busy + wait;
        report.barrier_wait_frac = if total > 0 { wait as f64 / total as f64 } else { 0.0 };
        report
    }

    /// Publishes the active slots as bounded-cardinality gauges:
    /// `train.thread.N.pairs`, `train.thread.N.pairs_per_sec`,
    /// `train.thread.N.busy_secs`, `train.thread.N.wait_frac`, plus the
    /// summary gauges `train.threads.active`,
    /// `train.threads.throughput_skew` and `train.threads.barrier_wait_frac`.
    pub fn publish(&self, registry: &Registry) {
        let report = self.report();
        for (w, s) in self.snapshot().iter().enumerate() {
            let busy_secs = s.busy_ns as f64 / 1e9;
            registry.gauge(&format!("train.thread.{w}.pairs")).set(s.pairs as f64);
            registry.gauge(&format!("train.thread.{w}.walks")).set(s.walks as f64);
            registry.gauge(&format!("train.thread.{w}.busy_secs")).set(busy_secs);
            if busy_secs > 0.0 {
                registry
                    .gauge(&format!("train.thread.{w}.pairs_per_sec"))
                    .set(s.pairs as f64 / busy_secs);
            }
            let total_ns = s.busy_ns + s.wait_ns;
            if total_ns > 0 {
                registry
                    .gauge(&format!("train.thread.{w}.wait_frac"))
                    .set(s.wait_ns as f64 / total_ns as f64);
            }
        }
        registry.gauge("train.threads.active").set(report.threads as f64);
        registry.gauge("train.threads.throughput_skew").set(report.throughput_skew);
        registry.gauge("train.threads.barrier_wait_frac").set(report.barrier_wait_frac);
    }
}

static GLOBAL: OnceLock<WorkerTable> = OnceLock::new();

/// The process-wide worker table the trainer records into.
pub fn workers() -> &'static WorkerTable {
    GLOBAL.get_or_init(WorkerTable::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_occupy_distinct_cache_lines() {
        // The padding claim, asserted: alignment pins the first byte to a
        // line boundary and the size is a whole number of lines, so no two
        // slots in a contiguous table can share a line.
        assert_eq!(std::mem::align_of::<WorkerSlot>(), 64);
        assert_eq!(std::mem::size_of::<WorkerSlot>() % 64, 0);
        assert!(std::mem::size_of::<WorkerSlot>() >= 64);
        let table = WorkerTable::new();
        let a = table.slot(0) as *const _ as usize;
        let b = table.slot(1) as *const _ as usize;
        assert_eq!(a % 64, 0, "slot 0 not line-aligned");
        assert_eq!(b % 64, 0, "slot 1 not line-aligned");
        assert!(b - a >= 64, "adjacent slots {a:#x} and {b:#x} share a cache line");
    }

    #[test]
    fn phase_tags_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_tag(p as u8), p);
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_tag(200), Phase::Idle, "unknown tags decode as idle");
        set_phase(Phase::Gradient);
        assert_eq!(current_phase(), Phase::Gradient);
        set_phase(Phase::Idle);
        assert_eq!(current_phase(), Phase::Idle);
    }

    #[test]
    fn indexes_beyond_capacity_clamp() {
        let table = WorkerTable::new();
        table.slot(MAX_WORKERS + 10).add_walk(3);
        table.slot(MAX_WORKERS - 1).add_walk(4);
        assert_eq!(table.active(), MAX_WORKERS);
        let snaps = table.snapshot();
        assert_eq!(snaps[MAX_WORKERS - 1].pairs, 7, "overflow workers merge into the last slot");
    }

    #[test]
    fn report_attributes_skew_and_waits() {
        let table = WorkerTable::new();
        // Worker 0: 1000 pairs in 1 s, no wait. Worker 1: 500 pairs in
        // 1 s, then 1 s of barrier wait.
        table.slot(0).add_walk(1000);
        table.slot(0).add_busy(1_000_000_000);
        table.slot(1).add_walk(500);
        table.slot(1).add_busy(1_000_000_000);
        table.slot(1).add_wait(1_000_000_000);
        let report = table.report();
        assert_eq!(report.threads, 2);
        assert_eq!(report.per_thread_pairs, vec![1000, 500]);
        // Rates are 1000/s and 500/s: mean 750, max 1000 -> skew 4/3.
        assert!((report.throughput_skew - 4.0 / 3.0).abs() < 1e-9);
        // 1 s wait out of 3 s total worker time.
        assert!((report.barrier_wait_frac - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let table = WorkerTable::new();
        table.slot(2).add_walk(9);
        table.reset();
        assert_eq!(table.active(), 0);
        assert!(table.snapshot().is_empty());
        assert_eq!(table.report().threads, 0);
    }

    #[test]
    fn publish_emits_bounded_gauges() {
        let table = WorkerTable::new();
        table.slot(0).add_walk(10);
        table.slot(0).add_busy(1_000_000);
        table.slot(1).add_walk(20);
        table.slot(1).add_busy(1_000_000);
        table.slot(1).add_wait(500_000);
        let registry = Registry::new();
        table.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["train.threads.active"], 2.0);
        assert_eq!(snap.gauges["train.thread.0.pairs"], 10.0);
        assert_eq!(snap.gauges["train.thread.1.pairs"], 20.0);
        assert!(snap.gauges["train.thread.1.wait_frac"] > 0.0);
        assert!(snap.gauges["train.threads.throughput_skew"] >= 1.0);
    }
}
