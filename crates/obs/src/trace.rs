//! Request tracing: per-request identity threaded through the stack.
//!
//! Every request entering the serving layer gets a [`TraceCtx`] holding a
//! request ID — either the caller's `X-Request-Id` (validated, so a
//! malicious header cannot smuggle control bytes into logs) or a freshly
//! generated one. The ID is echoed on the response, stamped on access-log
//! lines and flight-recorder events, and retrievable from `/tracez`, so
//! one identifier follows a request across client, server log, and
//! post-hoc diagnostics.
//!
//! Generation is splitmix64 over a per-process seed plus an atomic
//! counter: unique within a process, overwhelmingly unlikely to collide
//! across processes, and allocation-cheap (one atomic add + 16 hex
//! chars). Not cryptographic — these are correlation handles, not tokens.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Longest accepted caller-supplied request ID; longer values are
/// replaced with a generated ID rather than truncated (a truncated ID
/// would correlate with nothing on the caller's side).
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// Identity of one in-flight request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Correlation ID echoed via `X-Request-Id`.
    pub request_id: String,
    /// True if the ID came from the caller rather than being generated.
    pub supplied: bool,
}

impl TraceCtx {
    /// A context with a freshly generated ID.
    pub fn new() -> TraceCtx {
        TraceCtx { request_id: gen_request_id(), supplied: false }
    }

    /// Adopts a caller-supplied ID when it is usable (non-empty after
    /// trimming, ≤ [`MAX_REQUEST_ID_LEN`] visible ASCII characters);
    /// otherwise falls back to a generated ID.
    pub fn from_supplied(supplied: &str) -> TraceCtx {
        let trimmed = supplied.trim();
        let ok = !trimmed.is_empty()
            && trimmed.len() <= MAX_REQUEST_ID_LEN
            && trimmed.bytes().all(|b| (0x21..=0x7E).contains(&b));
        if ok {
            TraceCtx { request_id: trimmed.to_string(), supplied: true }
        } else {
            TraceCtx::new()
        }
    }
}

impl Default for TraceCtx {
    fn default() -> TraceCtx {
        TraceCtx::new()
    }
}

/// A fresh 16-hex-character request ID, unique within this process.
pub fn gen_request_id() -> String {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        nanos ^ (std::process::id() as u64).rotate_left(32)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", v2v_base::rng::mix(seed ^ n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_are_distinct_hex() {
        let a = gen_request_id();
        let b = gen_request_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn supplied_ids_are_echoed() {
        let ctx = TraceCtx::from_supplied("  abc-DEF_123  ");
        assert_eq!(ctx.request_id, "abc-DEF_123");
        assert!(ctx.supplied);
    }

    #[test]
    fn bad_supplied_ids_fall_back_to_generated() {
        for bad in ["", "   ", "has space", "ctrl\x07byte", "nön-ascii",
                    &"x".repeat(MAX_REQUEST_ID_LEN + 1)] {
            let ctx = TraceCtx::from_supplied(bad);
            assert!(!ctx.supplied, "{bad:?} must not be adopted");
            assert_eq!(ctx.request_id.len(), 16);
        }
    }

    #[test]
    fn max_length_boundary() {
        let at = "y".repeat(MAX_REQUEST_ID_LEN);
        assert!(TraceCtx::from_supplied(&at).supplied);
    }

    #[test]
    fn concurrent_generation_yields_unique_ids() {
        let ids: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..500).map(|_| gen_request_id()).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let unique: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "request IDs must not collide in-process");
    }
}
