//! The daemon's live counters — what `status` prints and
//! [`ServerHandle::stats`](crate::ServerHandle::stats) hands out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Live daemon counters, shared by the engine thread, the acceptors,
/// connection threads and subscriber writers; surfaced through the `status`
/// reply and [`ServerHandle::stats`](crate::ServerHandle::stats).
#[derive(Debug, Default)]
pub struct ServeStats {
    shed: AtomicUsize,
    evicted_slow: AtomicUsize,
    degraded_rounds: AtomicUsize,
    engine_restarts: AtomicUsize,
    accept_errors: AtomicUsize,
    round_ms: Mutex<Vec<u64>>,
}

/// Round-latency samples kept for percentiles (newest overwrite oldest).
const ROUND_SAMPLES: usize = 512;

impl ServeStats {
    /// Socket edits refused because the request queue was full.
    pub fn shed(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }

    /// Subscribers evicted for not keeping up (full queue or write
    /// deadline).
    pub fn evicted_slow(&self) -> usize {
        self.evicted_slow.load(Ordering::Relaxed)
    }

    /// Rounds that panicked under supervision.
    pub fn degraded_rounds(&self) -> usize {
        self.degraded_rounds.load(Ordering::Relaxed)
    }

    /// Engines rebuilt after a poisoned round.
    pub fn engine_restarts(&self) -> usize {
        self.engine_restarts.load(Ordering::Relaxed)
    }

    /// Failed `accept` calls (aborted handshakes, interrupted calls,
    /// descriptor exhaustion); the acceptor retries after every one.
    pub fn accept_errors(&self) -> usize {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Round-latency percentile in milliseconds over the retained samples
    /// (`q` in 0..=100); `None` before the first completed round.
    pub fn round_percentile_ms(&self, q: u32) -> Option<u64> {
        let samples = self.round_ms.lock().unwrap_or_else(|p| p.into_inner());
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = (q as usize * (sorted.len() - 1)).div_ceil(100);
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_evicted(&self) {
        self.evicted_slow.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_degraded(&self) {
        self.degraded_rounds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_restart(&self) {
        self.engine_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_round(&self, elapsed: Duration) {
        let mut samples = self.round_ms.lock().unwrap_or_else(|p| p.into_inner());
        if samples.len() == ROUND_SAMPLES {
            samples.remove(0);
        }
        samples.push(elapsed.as_millis() as u64);
    }
}
