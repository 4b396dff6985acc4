//! SIGPROF self-sampling profiler: time-in-phase attribution with ~zero
//! hot-loop cost.
//!
//! Instrumenting the trainer with timers per phase would cost two
//! `Instant::now()` calls per pair — far more than the 2% overhead budget.
//! Instead the trainer only *tags* its current phase (one TLS byte store,
//! [`crate::perthread::set_phase`]) and this module samples the tag from a
//! `SIGPROF` handler driven by `setitimer(ITIMER_PROF)`: the kernel
//! decrements the profiling timer in process CPU time and delivers the
//! signal to a thread that is currently running, so over thousands of
//! ticks the per-phase sample counts converge on the CPU-time split
//! between walk-fetch / forward / gradient / output-update / barrier-wait
//! — precisely the breakdown needed to attribute the Hogwild plateau.
//!
//! The handler does exactly two async-signal-safe things: a TLS byte load
//! (const-initialized `Cell`, no lazy init, no destructor) and a relaxed
//! `fetch_add` on a static atomic. No locks, no allocation, no syscalls.
//!
//! One profiler may run at a time (enforced with a CAS); [`SelfProfiler`]
//! disarms the timer on drop. The result is a [`FlatProfile`] that
//! serializes to JSON (`v2v embed --profile <path>`) and renders as an
//! aligned text table (`v2v profile`). The caller picks the sampling
//! frequency (the CLI: `V2V_PROFILE_HZ`, default [`DEFAULT_HZ`]).
//!
//! On non-unix targets `SelfProfiler::start` returns an error and
//! everything else compiles to no-ops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::{self, Value};
use crate::perthread::Phase;

/// Default sampling frequency (Hz). Prime, to avoid phase-locking with
/// any periodic structure in the training loop.
pub const DEFAULT_HZ: u64 = 97;

/// Per-phase sample counts, indexed by `Phase as u8`. Static (not part of
/// the profiler object) because the signal handler cannot capture state.
static SAMPLES: [AtomicU64; Phase::COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Guards the single running profiler.
static RUNNING: AtomicBool = AtomicBool::new(false);

/// A running SIGPROF sampler. Construct with [`SelfProfiler::start`];
/// stops (disarms the interval timer) on [`stop`](SelfProfiler::stop) or
/// drop.
pub struct SelfProfiler {
    hz: u64,
    started: Instant,
}

impl SelfProfiler {
    /// Arms `ITIMER_PROF` at `hz` (clamped to 1..=10000) samples per second
    /// of process CPU time and installs the SIGPROF handler. Errors if a
    /// profiler is already running or the platform has no profiling timer.
    pub fn start(hz: u64) -> Result<SelfProfiler, String> {
        let hz = hz.clamp(1, 10_000);
        if RUNNING
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err("a profiler is already running in this process".to_string());
        }
        for cell in &SAMPLES {
            cell.store(0, Ordering::Relaxed);
        }
        if let Err(e) = imp::arm(hz) {
            RUNNING.store(false, Ordering::SeqCst);
            return Err(e);
        }
        Ok(SelfProfiler { hz, started: Instant::now() })
    }

    /// Disarms the timer and returns the collected profile.
    pub fn stop(self) -> FlatProfile {
        // Drop does the disarm; snapshot after so no tick lands mid-copy.
        let (hz, started) = (self.hz, self.started);
        drop(self);
        let mut profile = FlatProfile {
            hz,
            wall_secs: started.elapsed().as_secs_f64(),
            samples: [0; Phase::COUNT],
        };
        for (i, cell) in SAMPLES.iter().enumerate() {
            profile.samples[i] = cell.load(Ordering::Relaxed);
        }
        profile
    }
}

impl Drop for SelfProfiler {
    fn drop(&mut self) {
        imp::disarm();
        RUNNING.store(false, Ordering::SeqCst);
    }
}

/// Counts one sample against the current thread's phase tag. This is the
/// body of the SIGPROF handler; exposed for tests (calling it is exactly
/// what a timer tick does).
#[inline]
pub fn record_sample_here() {
    let tag = crate::perthread::current_phase_tag() as usize;
    let idx = if tag < Phase::COUNT { tag } else { 0 };
    SAMPLES[idx].fetch_add(1, Ordering::Relaxed);
}

/// A completed flat profile: per-phase CPU-time sample counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatProfile {
    /// Sampling frequency the run used (samples per CPU-second).
    pub hz: u64,
    /// Wall-clock duration of the profiled region, seconds.
    pub wall_secs: f64,
    /// Samples per phase, indexed like [`Phase::ALL`].
    pub samples: [u64; Phase::COUNT],
}

impl FlatProfile {
    /// Total samples across all phases.
    pub fn total(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Fraction of samples in `phase` (0 when the profile is empty).
    pub fn frac(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.samples[phase as usize] as f64 / total as f64
        }
    }

    /// Approximate CPU seconds attributed to `phase` (`samples / hz`).
    pub fn cpu_secs(&self, phase: Phase) -> f64 {
        self.samples[phase as usize] as f64 / self.hz as f64
    }

    /// Serializes to the flat-profile JSON document (schema:
    /// `{"v2v_profile": 1, "hz": …, "wall_secs": …, "samples": {phase: n}}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"v2v_profile\": 1,\n  \"hz\": ");
        out.push_str(&self.hz.to_string());
        out.push_str(",\n  \"wall_secs\": ");
        json::write_f64(&mut out, self.wall_secs);
        out.push_str(",\n  \"total_samples\": ");
        out.push_str(&self.total().to_string());
        out.push_str(",\n  \"samples\": {");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_escaped(&mut out, phase.name());
            out.push_str(": ");
            out.push_str(&self.samples[i].to_string());
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a document produced by [`to_json`](FlatProfile::to_json).
    /// Unknown phase names are rejected (they would silently vanish from
    /// the table otherwise); missing phases read as zero.
    pub fn from_json(text: &str) -> Result<FlatProfile, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("v2v_profile")
            .and_then(Value::as_u64)
            .ok_or("not a v2v profile (missing \"v2v_profile\")")?;
        if version != 1 {
            return Err(format!("unsupported profile version {version}"));
        }
        let hz = doc.get("hz").and_then(Value::as_u64).ok_or("missing \"hz\"")?;
        if hz == 0 {
            return Err("\"hz\" must be positive".to_string());
        }
        let wall_secs =
            doc.get("wall_secs").and_then(Value::as_f64).ok_or("missing \"wall_secs\"")?;
        if !wall_secs.is_finite() || wall_secs < 0.0 {
            return Err("\"wall_secs\" must be non-negative".to_string());
        }
        let samples_obj = doc
            .get("samples")
            .and_then(Value::as_object)
            .ok_or("missing \"samples\" object")?;
        let mut samples = [0u64; Phase::COUNT];
        for (name, value) in samples_obj {
            let phase = Phase::from_name(name)
                .ok_or_else(|| format!("unknown phase {name:?} in profile"))?;
            samples[phase as usize] =
                value.as_u64().ok_or_else(|| format!("phase {name:?} count is not a count"))?;
        }
        Ok(FlatProfile { hz, wall_secs, samples })
    }

    /// Renders an aligned text table, phases sorted by sample count:
    ///
    /// ```text
    /// phase          samples      cpu_s   frac
    /// output_update     1432      14.76  71.6%
    /// ...
    /// ```
    pub fn render_table(&self) -> String {
        let total = self.total();
        let mut rows: Vec<Phase> = Phase::ALL.to_vec();
        rows.sort_by_key(|p| std::cmp::Reverse(self.samples[*p as usize]));
        let name_w = Phase::ALL.iter().map(|p| p.name().len()).max().unwrap_or(5).max(5);
        let mut out = format!(
            "{:<name_w$}  {:>8}  {:>9}  {:>6}\n",
            "phase", "samples", "cpu_s", "frac"
        );
        for phase in rows {
            let n = self.samples[phase as usize];
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>9.2}  {:>5.1}%\n",
                phase.name(),
                n,
                self.cpu_secs(phase),
                self.frac(phase) * 100.0,
            ));
        }
        // Kernels with coarse itimer resolution (e.g. CONFIG_HZ=250) round
        // the requested period up and deliver fewer samples than asked; the
        // delivered rate tells the reader how much CPU time one sample
        // represents, and whether `cpu_s` (samples / requested Hz) is an
        // underestimate. The per-phase fractions are unbiased either way.
        let delivered = if self.wall_secs > 0.0 { total as f64 / self.wall_secs } else { 0.0 };
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>9.2}  ({} Hz requested, {:.0}/s delivered, {:.2}s wall)\n",
            "total",
            total,
            total as f64 / self.hz as f64,
            self.hz,
            delivered,
            self.wall_secs,
        ));
        out
    }
}

#[cfg(unix)]
mod imp {
    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;

    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    extern "C" {
        // glibc `signal()` gives BSD semantics (SA_RESTART), so sampled
        // syscalls resume instead of failing with EINTR.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    extern "C" fn on_sigprof(_sig: i32) {
        // Async-signal-safe: TLS byte load + relaxed fetch_add, nothing
        // else (see module docs).
        super::record_sample_here();
    }

    pub fn arm(hz: u64) -> Result<(), String> {
        unsafe { signal(SIGPROF, on_sigprof) };
        let usec = (1_000_000 / hz).max(1) as i64;
        let interval = Itimerval {
            it_interval: Timeval { tv_sec: 0, tv_usec: usec },
            it_value: Timeval { tv_sec: 0, tv_usec: usec },
        };
        let rc = unsafe { setitimer(ITIMER_PROF, &interval, std::ptr::null_mut()) };
        if rc != 0 {
            return Err("setitimer(ITIMER_PROF) failed".to_string());
        }
        Ok(())
    }

    pub fn disarm() {
        let zero = Itimerval {
            it_interval: Timeval { tv_sec: 0, tv_usec: 0 },
            it_value: Timeval { tv_sec: 0, tv_usec: 0 },
        };
        unsafe { setitimer(ITIMER_PROF, &zero, std::ptr::null_mut()) };
        // Leave the (harmless) handler installed: a tick already in
        // flight lands on record_sample_here, not SIG_DFL termination.
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn arm(_hz: u64) -> Result<(), String> {
        Err("self-profiling requires unix signals (SIGPROF/setitimer)".to_string())
    }

    pub fn disarm() {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perthread::set_phase;
    use std::sync::Mutex;

    /// SAMPLES/RUNNING are process-global; profiler tests serialize.
    static PROFILER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn json_roundtrip_exact() {
        let profile = FlatProfile {
            hz: 97,
            wall_secs: 1.25,
            samples: [3, 14, 15, 92, 65, 35],
        };
        let text = profile.to_json();
        let back = FlatProfile::from_json(&text).unwrap();
        assert_eq!(back, profile);
        assert_eq!(back.total(), 224);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(FlatProfile::from_json("{}").is_err(), "missing marker");
        assert!(FlatProfile::from_json("not json").is_err());
        assert!(
            FlatProfile::from_json(r#"{"v2v_profile": 2, "hz": 97, "wall_secs": 1, "samples": {}}"#)
                .is_err(),
            "future version"
        );
        assert!(
            FlatProfile::from_json(
                r#"{"v2v_profile": 1, "hz": 97, "wall_secs": 1, "samples": {"warp_drive": 3}}"#
            )
            .is_err(),
            "unknown phase"
        );
        assert!(
            FlatProfile::from_json(
                r#"{"v2v_profile": 1, "hz": 0, "wall_secs": 1, "samples": {}}"#
            )
            .is_err(),
            "zero hz"
        );
    }

    #[test]
    fn missing_phases_read_as_zero() {
        let p = FlatProfile::from_json(
            r#"{"v2v_profile": 1, "hz": 50, "wall_secs": 2.0, "samples": {"forward": 10}}"#,
        )
        .unwrap();
        assert_eq!(p.samples[Phase::Forward as usize], 10);
        assert_eq!(p.samples[Phase::BarrierWait as usize], 0);
        assert_eq!(p.frac(Phase::Forward), 1.0);
        assert_eq!(p.cpu_secs(Phase::Forward), 0.2);
    }

    #[test]
    fn table_renders_all_phases_and_total() {
        let profile = FlatProfile { hz: 100, wall_secs: 0.5, samples: [1, 2, 3, 4, 5, 6] };
        let table = profile.render_table();
        for phase in Phase::ALL {
            assert!(table.contains(phase.name()), "table missing {}", phase.name());
        }
        assert!(table.contains("total"));
        assert!(table.contains("21"), "total samples 21 missing from:\n{table}");
        // 21 samples over 0.5s wall = 42/s actually delivered vs 100 Hz asked.
        assert!(table.contains("42/s delivered"), "delivered rate missing from:\n{table}");
    }

    #[test]
    fn manual_samples_attribute_to_current_phase() {
        let _guard = PROFILER_LOCK.lock().unwrap();
        // Drive the handler body directly: deterministic, no timers.
        let profiler = SelfProfiler::start(DEFAULT_HZ);
        set_phase(Phase::OutputUpdate);
        record_sample_here();
        record_sample_here();
        set_phase(Phase::BarrierWait);
        record_sample_here();
        set_phase(Phase::Idle);
        match profiler {
            Ok(p) => {
                let profile = p.stop();
                assert!(profile.samples[Phase::OutputUpdate as usize] >= 2);
                assert!(profile.samples[Phase::BarrierWait as usize] >= 1);
            }
            Err(_) => {
                // Platform without timers: record_sample_here still works
                // against the static table; nothing to assert beyond "no
                // panic".
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn timer_ticks_land_while_burning_cpu() {
        let _guard = PROFILER_LOCK.lock().unwrap();
        let profiler = SelfProfiler::start(1000).expect("unix must support ITIMER_PROF");
        set_phase(Phase::Gradient);
        // Burn CPU until ticks arrive (ITIMER_PROF counts CPU time, so
        // sleeping would never fire it). Bounded by wall-clock to stay
        // robust on slow machines.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut acc = 0u64;
        while SAMPLES[Phase::Gradient as usize].load(Ordering::Relaxed) < 3 {
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            if std::time::Instant::now() > deadline {
                break;
            }
        }
        set_phase(Phase::Idle);
        let profile = profiler.stop();
        assert!(
            profile.samples[Phase::Gradient as usize] >= 3,
            "expected >=3 SIGPROF ticks in 5s of CPU burn, got {:?}",
            profile.samples
        );
    }

    #[test]
    fn second_profiler_is_rejected() {
        let _guard = PROFILER_LOCK.lock().unwrap();
        if let Ok(first) = SelfProfiler::start(DEFAULT_HZ) {
            assert!(SelfProfiler::start(DEFAULT_HZ).is_err());
            drop(first);
            // Dropping releases the slot.
            let again = SelfProfiler::start(DEFAULT_HZ).expect("slot must free on drop");
            drop(again);
        }
    }

    #[test]
    fn hz_env_parsing() {
        // Not using set_var (process-global, races other tests); exercise
        // the clamp logic through start() instead.
        assert_eq!(DEFAULT_HZ, 97);
        let _guard = PROFILER_LOCK.lock().unwrap();
        if let Ok(p) = SelfProfiler::start(1_000_000) {
            let profile = p.stop();
            assert_eq!(profile.hz, 10_000, "hz must clamp to 10k");
        }
    }
}
