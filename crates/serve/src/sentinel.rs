//! The online quality sentinel: a background probe loop that continuously
//! answers "is the index still returning the right neighbors?".
//!
//! Mechanical telemetry (latency quantiles, queue depths, swap counters)
//! cannot see *semantic* regressions: streaming ingest fine-tunes rows and
//! patches the HNSW in place, and a drifting embedding keeps serving fast,
//! confident, wrong answers. The sentinel closes that gap:
//!
//! - At startup it samples a stable **canary set** of vertices with the
//!   seeded reservoir sampler from [`v2v_obs::quality`] — same seed + same
//!   store ⇒ the identical canaries across restarts, so drift numbers are
//!   comparable across process lifetimes.
//! - A **SCHED_IDLE probe thread** (the same deprioritization trick as the
//!   ingest refresh worker, so probes lose the scheduler race to request
//!   threads) periodically replays the canary queries against the currently
//!   installed [`ServeState`]: ANN top-k vs `search_exact` ground truth
//!   gives `recall@k`; the canary centroid vs the startup baseline gives
//!   centroid shift.
//! - When a probe observes a **hot swap** (the `Arc<ServeState>` pointer
//!   changed since the last probe), it computes neighbor-set Jaccard churn
//!   between the consecutive indexes' canary answers.
//!
//! Everything is exported three ways: gauges on /metricz (Prometheus
//! included) — `quality.recall_at_10`, `quality.neighbor_churn`,
//! `quality.centroid_shift`, `quality.retrain_advised` — a `GET /qualityz`
//! JSON endpoint (mounted by [`crate::api::router`]), and
//! `quality.probe` / `quality.degraded` flight-recorder events.

use crate::api::{ServeHandle, ServeState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use v2v_obs::quality::{self, NormStats};
use v2v_obs::{json, record_event, Event};

/// Sentinel knobs; defaults match the `QualityConfig` defaults so online
/// and offline (`v2v drift`) numbers are computed over the same canaries.
#[derive(Clone, Copy, Debug)]
pub struct SentinelConfig {
    /// Canary vertices to sample at startup.
    pub canaries: usize,
    /// Neighbors per canary query (recall@k and churn@k).
    pub k: usize,
    /// Reservoir seed — fixed so restarts probe the identical canary set.
    pub seed: u64,
    /// Pause between probes.
    pub probe_interval: Duration,
    /// Per-swap neighbor churn above which `quality.retrain_advised` trips.
    pub churn_threshold: f64,
    /// Recall below this floor records a `quality.degraded` event.
    pub recall_floor: f64,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        let q = quality::QualityConfig::default();
        SentinelConfig {
            canaries: q.canaries,
            k: q.k,
            seed: q.seed,
            probe_interval: Duration::from_millis(2_000),
            churn_threshold: q.churn_threshold,
            recall_floor: 0.5,
        }
    }
}

/// The most recent probe results, served verbatim on `/qualityz`.
#[derive(Clone, Debug, Default)]
struct Report {
    probes: u64,
    swaps_observed: u64,
    recall_at_k: f64,
    /// `None` until the first hot swap has been probed.
    neighbor_churn: Option<f64>,
    centroid_shift: f64,
    norms: NormStats,
    retrain_advised: bool,
    degraded_events: u64,
    last_probe_ms: f64,
}

/// What the previous probe saw, kept to detect swaps and compute churn.
struct PrevProbe {
    state: Arc<ServeState>,
    neighbors: Vec<Vec<usize>>,
}

struct Inner {
    canaries: Vec<usize>,
    baseline_centroid: Vec<f64>,
    prev: Option<PrevProbe>,
    report: Report,
}

/// Shared sentinel state: the probe loop writes it, `/qualityz` reads it.
pub struct QualityState {
    config: SentinelConfig,
    inner: Mutex<Inner>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl QualityState {
    /// The sampled canary vertex ids (stable for the process lifetime).
    pub fn canaries(&self) -> Vec<usize> {
        self.inner.lock().unwrap().canaries.clone()
    }

    /// Asks the probe loop to exit; pair with joining the handle returned
    /// by [`start`].
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.inner.lock().unwrap();
        self.wake.notify_all();
    }

    /// Runs one probe against `state` and publishes the results. Called by
    /// the background loop; public so tests (and benches) can drive probes
    /// deterministically.
    pub fn probe(&self, state: &Arc<ServeState>) {
        let t0 = Instant::now();
        let metrics = v2v_obs::global_metrics();
        let mut inner = self.inner.lock().unwrap();
        let k = self.config.k;
        let n = state.vectors().len();
        let mut ann_lists: Vec<Vec<usize>> = Vec::with_capacity(inner.canaries.len());
        let mut recall_sum = 0.0f64;
        let mut recall_n = 0usize;
        let mut centroid = vec![0.0f64; state.vectors().dimensions()];
        let mut centroid_rows = 0usize;
        let mut norms: Vec<f32> = Vec::with_capacity(inner.canaries.len() * centroid.len());
        for &c in inner.canaries.iter().filter(|&&c| c < n) {
            let Ok(query) = state.vectors().vector(c) else { continue };
            let ann: Vec<usize> = state
                .index()
                .search(query, k + 1)
                .into_iter()
                .map(|(id, _)| id)
                .filter(|&id| id != c)
                .take(k)
                .collect();
            let exact: Vec<usize> = state
                .index()
                .search_exact(query, k + 1)
                .into_iter()
                .map(|(id, _)| id)
                .filter(|&id| id != c)
                .take(k)
                .collect();
            recall_sum += quality::recall(&ann, &exact);
            recall_n += 1;
            for (acc, &v) in centroid.iter_mut().zip(query) {
                *acc += v as f64;
            }
            centroid_rows += 1;
            norms.extend_from_slice(query);
            ann_lists.push(ann);
        }
        if centroid_rows > 0 {
            for acc in &mut centroid {
                *acc /= centroid_rows as f64;
            }
        }
        let recall = if recall_n > 0 { recall_sum / recall_n as f64 } else { 1.0 };
        let dims = centroid.len().max(1);
        let norm_stats = NormStats::from_rows(dims, &norms);
        let centroid_shift = if inner.baseline_centroid.len() == centroid.len() {
            quality::l2_distance(&inner.baseline_centroid, &centroid)
        } else {
            0.0
        };

        // Per-swap churn: only meaningful when the installed state changed
        // since the last probe (a refresh or reload hot-swapped the index).
        let mut swap_churn = None;
        if let Some(prev) = &inner.prev {
            if !Arc::ptr_eq(&prev.state, state) {
                swap_churn = Some(quality::mean_churn(&prev.neighbors, &ann_lists));
            }
        }

        let recall_gauge = format!("quality.recall_at_{k}");
        metrics.gauge(&recall_gauge).set(recall);
        metrics.gauge("quality.centroid_shift").set(centroid_shift);
        metrics.counter("quality.probes").inc();
        let mut degraded = false;
        if let Some(churn) = swap_churn {
            metrics.gauge("quality.neighbor_churn").set(churn);
            metrics.counter("quality.swaps_observed").inc();
            inner.report.swaps_observed += 1;
            inner.report.neighbor_churn = Some(churn);
            if churn > self.config.churn_threshold {
                metrics.gauge("quality.retrain_advised").set(1.0);
                metrics.counter("quality.retrain_advisories").inc();
                inner.report.retrain_advised = true;
                degraded = true;
                record_event(
                    Event::new("quality.degraded", "-", &format!(
                        "swap churn {churn:.4} over {} canaries crossed threshold {:.4}; batch retrain advised",
                        ann_lists.len(),
                        self.config.churn_threshold
                    ))
                    .with_status(1),
                );
            }
        }
        if recall < self.config.recall_floor {
            degraded = true;
            record_event(
                Event::new("quality.degraded", "-", &format!(
                    "recall@{k} {recall:.4} below floor {:.4}",
                    self.config.recall_floor
                ))
                .with_status(1),
            );
        }
        if degraded {
            inner.report.degraded_events += 1;
        }

        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        inner.report.probes += 1;
        inner.report.recall_at_k = recall;
        inner.report.centroid_shift = centroid_shift;
        inner.report.norms = norm_stats;
        inner.report.last_probe_ms = elapsed_ms;
        record_event(
            Event::new("quality.probe", "-", &format!(
                "recall@{k} {recall:.4}, centroid shift {centroid_shift:.5}{}",
                match swap_churn {
                    Some(c) => format!(", swap churn {c:.4}"),
                    None => String::new(),
                }
            ))
            .with_latency_ms(elapsed_ms),
        );
        inner.prev = Some(PrevProbe { state: Arc::clone(state), neighbors: ann_lists });
    }

    /// The `/qualityz` body: latest probe results plus configuration.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let r = &inner.report;
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"canaries\": {},\n", inner.canaries.len()));
        out.push_str(&format!("  \"k\": {},\n", self.config.k));
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!(
            "  \"probe_interval_ms\": {},\n",
            self.config.probe_interval.as_millis()
        ));
        out.push_str(&format!("  \"probes\": {},\n", r.probes));
        out.push_str(&format!("  \"swaps_observed\": {},\n", r.swaps_observed));
        out.push_str(&format!("  \"recall_at_{}\": ", self.config.k));
        json::write_f64(&mut out, r.recall_at_k);
        out.push_str(",\n  \"neighbor_churn\": ");
        match r.neighbor_churn {
            Some(c) => json::write_f64(&mut out, c),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"centroid_shift\": ");
        json::write_f64(&mut out, r.centroid_shift);
        out.push_str(",\n  \"norm_mean\": ");
        json::write_f64(&mut out, r.norms.mean);
        out.push_str(",\n  \"norm_p95\": ");
        json::write_f64(&mut out, r.norms.p95);
        out.push_str(",\n  \"churn_threshold\": ");
        json::write_f64(&mut out, self.config.churn_threshold);
        out.push_str(",\n  \"recall_floor\": ");
        json::write_f64(&mut out, self.config.recall_floor);
        out.push_str(&format!(",\n  \"retrain_advised\": {},\n", r.retrain_advised));
        out.push_str(&format!("  \"degraded_events\": {},\n", r.degraded_events));
        out.push_str("  \"last_probe_ms\": ");
        json::write_f64(&mut out, r.last_probe_ms);
        out.push_str("\n}");
        out
    }
}

/// Samples the canary set from the currently installed state, runs one
/// synchronous probe (so gauges are live before the listener opens), and
/// spawns the SCHED_IDLE probe loop. Returns the shared state (for the
/// `/qualityz` handler and for [`QualityState::stop`]) plus the loop's
/// join handle.
pub fn start(
    handle: Arc<ServeHandle>,
    config: SentinelConfig,
) -> Result<(Arc<QualityState>, std::thread::JoinHandle<()>), String> {
    let state = handle.state();
    let n = state.vectors().len();
    if n == 0 {
        return Err("quality sentinel: cannot probe an empty embedding".into());
    }
    let canaries = quality::canary_sample(n, config.canaries.max(1), config.seed);
    let dims = state.vectors().dimensions();
    let mut flat: Vec<f32> = Vec::with_capacity(canaries.len() * dims);
    let mut rows: Vec<usize> = Vec::with_capacity(canaries.len());
    for (i, &c) in canaries.iter().enumerate() {
        if let Ok(v) = state.vectors().vector(c) {
            flat.extend_from_slice(v);
            rows.push(i);
        }
    }
    let baseline_centroid = quality::centroid(dims, &flat, &rows);
    let quality_state = Arc::new(QualityState {
        config,
        inner: Mutex::new(Inner {
            canaries,
            baseline_centroid,
            prev: None,
            report: Report::default(),
        }),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });
    // Gauge exists (at 0) from the first scrape, not only after a trip.
    v2v_obs::global_metrics().gauge("quality.retrain_advised").set(0.0);
    quality_state.probe(&state);

    let loop_state = Arc::clone(&quality_state);
    let probe_loop = std::thread::Builder::new()
        .name("v2v-quality-sentinel".into())
        .spawn(move || {
            crate::ingest::deprioritize_current_thread();
            loop {
                {
                    let guard = loop_state.inner.lock().unwrap();
                    let (_guard, _timeout) = loop_state
                        .wake
                        .wait_timeout(guard, loop_state.config.probe_interval)
                        .unwrap();
                }
                if loop_state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                loop_state.probe(&handle.state());
            }
        })
        .map_err(|e| format!("quality sentinel: cannot spawn probe thread: {e}"))?;
    Ok((quality_state, probe_loop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::HnswConfig;
    use v2v_embed::embedding::Embedding;

    /// Two tight clusters on the x axis, mirroring the ingest tests.
    fn cluster_state(flip_first_cluster: bool) -> ServeState {
        let n = 12;
        let dims = 4;
        let mut flat = Vec::with_capacity(n * dims);
        for i in 0..n {
            let mut sign = if i < n / 2 { 1.0f32 } else { -1.0 };
            if flip_first_cluster && i < n / 2 {
                sign = -sign;
            }
            flat.extend_from_slice(&[sign, 0.1 * i as f32, -0.05 * i as f32, 0.3]);
        }
        ServeState::new(Embedding::from_flat(dims, flat), HnswConfig::default(), None).unwrap()
    }

    /// Serializes tests that assert on shared `quality.*` gauges: the
    /// registry is process-global and the test binary runs in parallel.
    fn gauge_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn started(config: SentinelConfig) -> (Arc<ServeHandle>, Arc<QualityState>) {
        let handle = ServeHandle::new(cluster_state(false), None);
        let (quality, probe) = start(Arc::clone(&handle), config).unwrap();
        quality.stop();
        probe.join().unwrap();
        (handle, quality)
    }

    fn small_config() -> SentinelConfig {
        SentinelConfig {
            canaries: 8,
            k: 3,
            probe_interval: Duration::from_millis(5),
            ..Default::default()
        }
    }

    #[test]
    fn canary_set_is_identical_across_restarts() {
        let _serialized = gauge_lock();
        let (_, first) = started(small_config());
        let (_, second) = started(small_config());
        assert_eq!(first.canaries(), second.canaries());
        let (_, reseeded) = started(SentinelConfig { seed: 7, ..small_config() });
        assert_ne!(first.canaries(), reseeded.canaries());
    }

    #[test]
    fn initial_probe_populates_recall_and_qualityz() {
        let _serialized = gauge_lock();
        let (_, quality) = started(small_config());
        let body = quality.to_json();
        let parsed = json::parse(&body).unwrap();
        // 12 vectors < brute_force_threshold ⇒ exact index ⇒ perfect recall.
        assert_eq!(parsed.get("recall_at_3").and_then(|v| v.as_f64()), Some(1.0));
        assert!(parsed.get("probes").and_then(|v| v.as_u64()).unwrap() >= 1);
        assert_eq!(parsed.get("swaps_observed").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(parsed.get("neighbor_churn").map(|v| v.as_f64()), Some(None));
        assert_eq!(parsed.get("retrain_advised").and_then(|v| v.as_bool()), Some(false));
        let snap = v2v_obs::global_metrics().snapshot();
        assert_eq!(snap.gauges.get("quality.recall_at_3"), Some(&1.0));
        assert_eq!(snap.gauges.get("quality.retrain_advised"), Some(&0.0));
    }

    #[test]
    fn swap_probe_computes_churn_and_trips_retrain_advice() {
        let _serialized = gauge_lock();
        let (handle, quality) = started(SentinelConfig {
            churn_threshold: 0.05,
            ..small_config()
        });
        // Hot-swap a state whose first cluster flipped sign: every canary in
        // that cluster changes neighborhoods, so churn is large.
        handle.install(cluster_state(true));
        quality.probe(&handle.state());
        let parsed = json::parse(&quality.to_json()).unwrap();
        assert_eq!(parsed.get("swaps_observed").and_then(|v| v.as_u64()), Some(1));
        let churn = parsed.get("neighbor_churn").and_then(|v| v.as_f64()).unwrap();
        assert!(churn > 0.05, "flipping a cluster must churn neighbors, got {churn}");
        assert_eq!(parsed.get("retrain_advised").and_then(|v| v.as_bool()), Some(true));
        let shift = parsed.get("centroid_shift").and_then(|v| v.as_f64()).unwrap();
        assert!(shift > 0.0, "flipped cluster must move the canary centroid");
        let snap = v2v_obs::global_metrics().snapshot();
        assert_eq!(snap.gauges.get("quality.retrain_advised"), Some(&1.0));
        assert!(snap.gauges.get("quality.neighbor_churn").unwrap() > &0.05);
    }

    #[test]
    fn probe_without_swap_leaves_churn_untouched() {
        let _serialized = gauge_lock();
        let (handle, quality) = started(small_config());
        quality.probe(&handle.state()); // same Arc: not a swap
        let parsed = json::parse(&quality.to_json()).unwrap();
        assert_eq!(parsed.get("swaps_observed").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(parsed.get("neighbor_churn").map(|v| v.as_f64()), Some(None));
    }

    #[test]
    fn router_serves_qualityz_beside_the_reads() {
        let _serialized = gauge_lock();
        let (handle, quality) = started(small_config());
        let wrapped = crate::api::router(handle, None, Some(quality));
        let mut req = crate::http::Request {
            method: "GET".into(),
            path: "/qualityz".into(),
            request_id: "q-test".into(),
            keep_alive: true,
            ..Default::default()
        };
        let resp = wrapped(&req);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"recall_at_3\""));
        req.method = "POST".into();
        assert_eq!(wrapped(&req).status, 405);
        req.method = "GET".into();
        req.path = "/healthz".into();
        assert_eq!(wrapped(&req).status, 200);
    }

    #[test]
    fn empty_store_is_rejected() {
        let handle = ServeHandle::new(
            ServeState::new(
                Embedding::from_flat(2, Vec::new()),
                HnswConfig::default(),
                None,
            )
            .unwrap(),
            None,
        );
        assert!(start(handle, SentinelConfig::default()).is_err());
    }
}
