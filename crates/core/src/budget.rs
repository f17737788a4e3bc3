//! Analysis budgets with *sound* degradation.
//!
//! At batch scale (§5–6: global analysis of million-LoC programs) one
//! pathologically slow translation unit must not stall the whole run. A
//! [`Budget`] bounds a fixpoint computation by step count and/or wall-clock
//! deadline. When a solver exhausts its budget it does **not** abort and it
//! does **not** return the half-iterated state: it finishes the ascending
//! phase in *degraded mode* — every dependency-cycle head widens
//! immediately with the plain (threshold-free, delay-free) widening
//! operator, so all still-moving bounds escape to ±∞ in one step — and the
//! descending (narrowing) phase is skipped. The result is a genuine
//! post-fixpoint of the abstract semantics, i.e. a sound over-approximation
//! of the unbounded analysis; it is merely less precise, and the run is
//! flagged `degraded` so reports and gates can see it.
//!
//! Step budgets (`max_steps`) are deterministic: the same program and
//! budget degrade at exactly the same solver step on every machine and for
//! every `--jobs` value. Deadline budgets (`timeout_ms`) are inherently
//! machine-dependent and should be left off when reproducibility matters
//! (they are still sound).

use std::time::{Duration, Instant};

/// A bound on how much work one fixpoint computation may do.
///
/// The default budget is unbounded — both limits off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum ascending-phase node evaluations before degradation.
    pub max_steps: Option<u64>,
    /// Wall-clock limit for the ascending phase, in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Budget {
    /// No limits: the solver runs to its exact (narrowed) fixpoint.
    pub const fn unbounded() -> Budget {
        Budget {
            max_steps: None,
            timeout_ms: None,
        }
    }

    /// A pure step budget (deterministic).
    pub const fn with_max_steps(max_steps: u64) -> Budget {
        Budget {
            max_steps: Some(max_steps),
            timeout_ms: None,
        }
    }

    /// A pure wall-clock budget (machine-dependent).
    pub const fn with_timeout_ms(timeout_ms: u64) -> Budget {
        Budget {
            max_steps: None,
            timeout_ms: Some(timeout_ms),
        }
    }

    /// A stable textual rendering for cache keys: depends only on the
    /// configured limits, never on wall-clock state.
    pub fn cache_tag(&self) -> String {
        format!(
            "steps={:?},timeout_ms={:?}",
            self.max_steps, self.timeout_ms
        )
    }

    /// Starts metering against this budget (resolves the deadline now).
    pub fn start(&self) -> BudgetMeter {
        BudgetMeter {
            max_steps: self.max_steps.unwrap_or(u64::MAX),
            deadline: self
                .timeout_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            steps: 0,
            exhausted: false,
        }
    }
}

/// Hard per-worker resource limits, enforced from *outside* the analysis.
///
/// A [`Budget`] is cooperative: the solver meters its own steps and
/// degrades soundly when it runs out. `WorkerLimits` is the uncooperative
/// complement for process-isolated execution — an address-space cap
/// (`RLIMIT_AS`) and a wall-clock deadline the supervisor enforces with
/// SIGKILL. Exceeding a budget yields a `degraded` unit; exceeding a worker
/// limit kills the worker and yields a `crashed` unit. The two are kept
/// distinct on purpose: degradation is a sound analysis result, a kill is
/// not a result at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerLimits {
    /// Address-space cap per worker process, in MiB (`RLIMIT_AS`).
    pub mem_mb: Option<u64>,
    /// Wall-clock limit per worker attempt, in milliseconds. The parent
    /// SIGKILLs a worker that outlives it.
    pub timeout_ms: Option<u64>,
}

impl WorkerLimits {
    /// No hard limits (the default): workers run unconfined.
    pub const fn unbounded() -> WorkerLimits {
        WorkerLimits {
            mem_mb: None,
            timeout_ms: None,
        }
    }

    /// The `RLIMIT_CPU` backstop (whole seconds) derived from the wall-clock
    /// limit: a worker the supervisor somehow fails to kill still dies on
    /// its own once it has *burned* this much CPU. One second of headroom
    /// past the rounded-up wall limit keeps the backstop from firing before
    /// the supervisor on a busy worker.
    pub fn cpu_limit_secs(&self) -> Option<u64> {
        self.timeout_ms.map(|ms| ms.div_ceil(1000) + 1)
    }
}

/// How often the (comparatively expensive) deadline clock is consulted.
const DEADLINE_CHECK_PERIOD: u64 = 128;

/// A running meter over a [`Budget`]. One meter covers one solve.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    max_steps: u64,
    deadline: Option<Instant>,
    steps: u64,
    exhausted: bool,
}

impl BudgetMeter {
    /// Counts one solver step. Returns `true` from the exhausting step on
    /// (exhaustion is sticky — once over budget, always over budget).
    pub fn step(&mut self) -> bool {
        if self.exhausted {
            return true;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.exhausted = true;
        } else if let Some(deadline) = self.deadline {
            if self.steps.is_multiple_of(DEADLINE_CHECK_PERIOD) && Instant::now() >= deadline {
                self.exhausted = true;
            }
        }
        self.exhausted
    }

    /// Steps counted so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_exhausts() {
        let mut m = Budget::unbounded().start();
        for _ in 0..10_000 {
            assert!(!m.step());
        }
        assert_eq!(m.steps(), 10_000);
    }

    #[test]
    fn step_budget_trips_exactly_past_the_limit() {
        let mut m = Budget::with_max_steps(3).start();
        assert!(!m.step());
        assert!(!m.step());
        assert!(!m.step());
        assert!(m.step(), "step 4 exceeds max_steps=3");
        assert!(m.step(), "exhaustion is sticky");
    }

    #[test]
    fn zero_timeout_trips_at_first_check() {
        let mut m = Budget::with_timeout_ms(0).start();
        let mut tripped = false;
        for _ in 0..(DEADLINE_CHECK_PERIOD * 2) {
            if m.step() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "an already-expired deadline must trip");
    }

    #[test]
    fn cache_tag_is_stable_and_distinguishes() {
        assert_eq!(
            Budget::unbounded().cache_tag(),
            Budget::default().cache_tag()
        );
        assert_ne!(
            Budget::with_max_steps(10).cache_tag(),
            Budget::with_max_steps(11).cache_tag()
        );
        assert_ne!(
            Budget::with_max_steps(10).cache_tag(),
            Budget::with_timeout_ms(10).cache_tag()
        );
    }
}
