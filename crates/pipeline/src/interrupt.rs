//! Graceful-shutdown plumbing: SIGINT/SIGTERM → a drained batch, not a
//! dead one.
//!
//! [`install`] registers handlers (via the C runtime's `signal`, declared
//! here directly so no FFI crate is needed) whose only action is setting a
//! process-global flag — the one operation that is async-signal-safe. The
//! pipeline's unit loop polls [`requested`] before *claiming* each unit:
//! in-flight units finish (their results are journaled and reported),
//! unclaimed units are skipped, and the run flushes a partial report marked
//! `"interrupted": true` so nothing computed before the signal is lost. A
//! follow-up `--resume` picks up exactly where the drain stopped.
//!
//! [`request`]/[`reset`] expose the same flag to tests, which cannot send
//! real signals to themselves without taking the whole test harness down.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sys {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        // A relaxed store is async-signal-safe; everything else is not.
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// No signal story off Unix; runs are simply not interruptible.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers. Call once, from the binary's
/// entry point — the flag is process-global, so installing from a library
/// context would surprise the embedding application.
pub fn install() {
    sys::install();
}

/// Whether a shutdown has been requested (by a signal or by [`request`]).
pub fn requested() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Requests a shutdown programmatically (tests).
pub fn request() {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Clears the flag so a later run in the same process starts fresh (tests).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reset_roundtrip() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
    }
}
