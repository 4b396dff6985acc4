//! `v2v-obs` — the measurement substrate for the V2V workspace.
//!
//! The paper's headline claims are *performance* claims (Table I training
//! breakdowns, Fig 7 time-to-convergence, the parallel-scaling study), so
//! every layer of this workspace records what it does through this crate:
//!
//! * **Spans** ([`span`], [`SpanTree`]) — RAII wall-clock timers that nest
//!   (`pipeline → walks`, `pipeline → train → epoch`) and aggregate
//!   repeated entries, producing a timing tree for a whole run.
//! * **Metrics** ([`metrics`]) — atomic counters, gauges, and fixed-bucket
//!   histograms cheap enough for the Hogwild hot loop (relaxed atomics;
//!   [`metrics::LocalCounter`] shards per thread and merges on drop).
//! * **Logging** (`obs_error!` / `obs_info!` / `obs_debug!` /
//!   `obs_trace!`) — leveled stderr logging gated by the `V2V_LOG`
//!   environment variable (`off`, `error`, `info` (default), `debug`,
//!   `trace`).
//! * **Export** ([`export`]) — serializes a run's span tree + metrics +
//!   config provenance to JSON or CSV with a hand-written writer; the CLI
//!   exposes this as `--metrics <path>` and the bench binaries emit it as
//!   a sidecar next to their results.
//!
//! * **Tracing** ([`trace`]) — per-request [`TraceCtx`] correlation IDs,
//!   accepted or generated at the serving edge and echoed via
//!   `X-Request-Id`, so one identifier follows a request across the
//!   access log, the flight recorder, and the caller's own logs.
//! * **Windowed quantiles** ([`window`]) — rotating-window histograms
//!   (4×15 s ring) giving live p50/p95/p99 per endpoint, as opposed to
//!   the cumulative-since-boot histograms above.
//! * **Flight recorder** ([`recorder`]) — a bounded ring of recent
//!   structured events (requests, sheds, reloads, panics, epochs),
//!   dumped via `/tracez`, `SIGUSR1`, or the panic hook.
//! * **Quality primitives** ([`quality`]) — seeded canary sampling,
//!   neighbor-set churn, centroid/norm drift statistics, and recall@k
//!   estimation shared by the online sentinel, the ingest refresh report,
//!   and the offline `v2v drift` differ.
//! * **Prometheus exposition** ([`prometheus`]) — renders any
//!   [`metrics::MetricsSnapshot`] in the text format standard scrapers
//!   consume (`/metricz?format=prometheus`).
//! * **Per-thread training telemetry** ([`perthread`]) — cache-line-padded
//!   per-worker stat slots and cheap phase tags, aggregated into bounded
//!   `train.thread.N.*` gauges plus skew/imbalance summaries.
//! * **Self-sampling profiler** ([`sampler`]) — SIGPROF/itimer flat
//!   profiles over the phase tags, dumped by `v2v embed --profile` and
//!   rendered by `v2v profile`.
//!
//! Everything is process-global by default (like any metrics runtime) but
//! the underlying [`SpanTree`] and [`metrics::Registry`] types are plain
//! values too, so tests can use private instances without cross-talk.
//!
//! The crate has **zero external dependencies** and builds offline.

pub mod export;
pub mod json;
pub mod log;
pub mod metrics;
pub mod perthread;
pub mod prometheus;
pub mod quality;
pub mod recorder;
pub mod sampler;
pub mod span;
pub mod trace;
pub mod window;

pub use export::Telemetry;
pub use log::{log_enabled, max_level, Level};
pub use metrics::{global as global_metrics, Counter, Gauge, Histogram, Registry};
pub use perthread::{
    current_phase, set_phase, workers, ConcurrencyReport, Phase, WorkerTable,
};
pub use quality::{DriftReport, NormStats, QualityConfig};
pub use recorder::{global_recorder, record_event, Event, FlightRecorder};
pub use sampler::{FlatProfile, SelfProfiler};
pub use span::{global_spans, span, SpanGuard, SpanSnapshot, SpanTree};
pub use trace::{gen_request_id, TraceCtx};
pub use window::{WindowSnapshot, WindowedHistogram};
