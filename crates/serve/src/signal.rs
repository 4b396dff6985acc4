//! SIGINT/SIGTERM → shutdown flag, SIGHUP → reload flag, SIGUSR1 →
//! flight-recorder dump flag.
//!
//! The server's shutdown waker polls [`requested`] and wakes the accept
//! loop out of its blocking `accept`, so Ctrl-C drains in-flight requests
//! and exits 0 instead of killing the process mid-write, and the
//! CLI's reload watcher polls [`take_reload`] so `kill -HUP` hot-swaps the
//! served embedding (the conventional "re-read your config" signal). No
//! signal crate exists in this offline workspace; on Unix the handlers are
//! registered straight against libc's `signal(2)`, which `std` already
//! links. The handlers only store to atomics — the one thing that is
//! async-signal-safe.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);
static RELOAD: AtomicBool = AtomicBool::new(false);
static DUMP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    extern "C" fn on_signal(_signum: i32) {
        super::trigger();
    }

    extern "C" fn on_reload(_signum: i32) {
        super::trigger_reload();
    }

    extern "C" fn on_dump(_signum: i32) {
        super::trigger_dump();
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn install_reload() {
        const SIGHUP: i32 = 1;
        unsafe {
            signal(SIGHUP, on_reload);
        }
    }

    pub fn install_dump() {
        const SIGUSR1: i32 = 10;
        unsafe {
            signal(SIGUSR1, on_dump);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}

    pub fn install_reload() {}

    pub fn install_dump() {}
}

/// Installs the SIGINT/SIGTERM handler (idempotent; no-op off Unix).
pub fn install() {
    imp::install();
}

/// Installs the SIGHUP → reload handler (idempotent; no-op off Unix).
/// Separate from [`install`] because a SIGHUP with no handler must keep
/// its default die-on-hangup meaning for callers that don't reload.
pub fn install_reload() {
    imp::install_reload();
}

/// Whether a shutdown signal has arrived.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Sets the flag programmatically — what the signal handler does, exposed
/// so tests and embedders can request shutdown without raising a signal.
pub fn trigger() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears the shutdown flag so a process can serve again after a drained
/// shutdown (used by tests, which share one process across servers).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

/// Consumes a pending reload request: true at most once per SIGHUP (or
/// [`trigger_reload`]).
pub fn take_reload() -> bool {
    RELOAD.swap(false, Ordering::SeqCst)
}

/// Requests a reload programmatically — what the SIGHUP handler does.
pub fn trigger_reload() {
    RELOAD.store(true, Ordering::SeqCst);
}

/// Installs the SIGUSR1 → flight-recorder-dump handler (idempotent;
/// no-op off Unix). The CLI's watcher thread polls [`take_dump`] and
/// writes the recorder JSON to its flight-dump path.
pub fn install_dump() {
    imp::install_dump();
}

/// Consumes a pending dump request: true at most once per SIGUSR1 (or
/// [`trigger_dump`]).
pub fn take_dump() -> bool {
    DUMP.swap(false, Ordering::SeqCst)
}

/// Requests a flight-recorder dump programmatically — what the SIGUSR1
/// handler does.
pub fn trigger_dump() {
    DUMP.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    #[test]
    fn trigger_sets_requested() {
        // Note: the flag is process-global, so this test intentionally
        // does not assert the initial state (other tests may have fired).
        super::install();
        super::trigger();
        assert!(super::requested());
        super::reset();
        assert!(!super::requested());
    }

    #[test]
    fn reload_is_consumed_once() {
        super::install_reload();
        super::trigger_reload();
        assert!(super::take_reload());
        assert!(!super::take_reload(), "take_reload must consume the flag");
    }

    #[test]
    fn dump_is_consumed_once() {
        super::install_dump();
        super::trigger_dump();
        assert!(super::take_dump());
        assert!(!super::take_dump(), "take_dump must consume the flag");
    }
}
