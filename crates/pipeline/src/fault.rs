//! Deterministic fault injection for the batch driver.
//!
//! A [`FaultPlan`] names, per unit *index*, faults to inject while the
//! pipeline runs: worker panics, budget exhaustion, cache-entry corruption
//! after a store, and transient cache IO errors. Plans are plain data —
//! built explicitly, parsed from a CLI spec ([`FaultPlan::parse`]), or
//! drawn from a seeded RNG ([`FaultPlan::seeded`]) — so every injected
//! failure is reproducible: the same plan over the same corpus produces the
//! same report, byte for byte, at any `--jobs` value.
//!
//! The injection points live in the pipeline itself (`run`, `cache`), which
//! keeps the faulted code path identical to the production path right up to
//! the induced failure.
//!
//! The serve daemon reuses the same plan format with a different index
//! space: `sga serve --faults panic@2,stall@3=200` keys faults by *round
//! number* (1-based edit rounds) instead of unit index, injecting them on
//! the engine thread after the round's sources are persisted — so a
//! panicked round loses no edit and the supervisor's recovery is testable.

use sga_core::budget::Budget;

/// How to damage a just-written cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Cut the file roughly in half (simulates a killed writer on a
    /// filesystem without atomic rename, or a torn copy).
    Truncate,
    /// Flip one bit in the middle of the file (simulates media rot).
    BitFlip,
    /// Rewrite the payload with a *valid* checksum over wrong content
    /// (simulates semantic rot the envelope cannot catch — a buggy writer,
    /// a bit flipped before checksumming). Only the `--validate` oracle's
    /// recompute-and-compare pass detects it.
    Forge,
}

/// One fault, aimed at one unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The unit's worker panics mid-analysis.
    Panic,
    /// The unit's fixpoint runs under a tiny step budget and degrades.
    BudgetExhaust {
        /// The injected `max_steps` value.
        max_steps: u64,
    },
    /// The unit's cache entry is corrupted right after it is stored.
    CorruptStore {
        /// The damage to apply.
        mode: CorruptionMode,
    },
    /// The unit's cache store fails with a synthetic IO error on its first
    /// `fail_first` attempts (exercises the bounded-backoff retry; values
    /// above the retry limit make the store fail outright).
    IoError {
        /// Number of leading attempts to fail.
        fail_first: u32,
    },
    /// The whole *process* aborts (`std::process::abort`) the moment this
    /// unit's worker claims it — a deterministic stand-in for OOM kills and
    /// CI timeouts, for exercising journal replay (`--resume`).
    Abort,
    /// The unit's worker sleeps this long before analyzing — opens a
    /// deterministic window for signal-delivery tests.
    Stall {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// A graceful-shutdown request (as if SIGTERM arrived) fires when this
    /// unit's worker claims it: the unit itself completes (drain), units
    /// not yet claimed are skipped and the report is marked `interrupted`.
    Stop,
    /// The unit's worker reserves this many MiB of address space and then
    /// dies (allocation failure under `RLIMIT_AS`, or a deterministic abort
    /// standing in for the OOM killer once the reservation succeeds).
    /// Uncatchable in-process — exactly what `--isolation process` exists
    /// to contain.
    Oom {
        /// MiB of address space to claim.
        mb: u64,
    },
    /// The unit's worker overflows its stack (unbounded recursion). Like
    /// `Oom`, fatal to whichever process runs the unit.
    StackOverflow,
    /// The unit's worker busy-spins — a *non-cooperative* stall no budget
    /// meter ever observes — for this long, then dies. Under `--isolation
    /// process` with a `--worker-timeout-ms` below `ms`, the wall-clock
    /// supervisor SIGKILLs it first.
    Spin {
        /// Busy-spin duration in milliseconds.
        ms: u64,
    },
}

impl FaultKind {
    /// The directive name this kind parses from (`oom@I=MB` → `"oom"`).
    pub fn directive(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::BudgetExhaust { .. } => "budget",
            FaultKind::CorruptStore {
                mode: CorruptionMode::Truncate,
            } => "truncate",
            FaultKind::CorruptStore {
                mode: CorruptionMode::BitFlip,
            } => "bitflip",
            FaultKind::CorruptStore {
                mode: CorruptionMode::Forge,
            } => "forge",
            FaultKind::IoError { .. } => "io",
            FaultKind::Abort => "abort",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Stop => "stop",
            FaultKind::Oom { .. } => "oom",
            FaultKind::StackOverflow => "stackoverflow",
            FaultKind::Spin { .. } => "spin",
        }
    }

    /// The directive's `=N` argument, for the kinds that take one.
    fn arg(&self) -> Option<u64> {
        match *self {
            FaultKind::BudgetExhaust { max_steps } => Some(max_steps),
            FaultKind::IoError { fail_first } => Some(u64::from(fail_first)),
            FaultKind::Stall { ms } | FaultKind::Spin { ms } => Some(ms),
            FaultKind::Oom { mb } => Some(mb),
            _ => None,
        }
    }
}

/// A reproducible set of faults, keyed by unit index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds one fault aimed at `unit`.
    pub fn add(mut self, unit: usize, kind: FaultKind) -> FaultPlan {
        self.faults.push((unit, kind));
        self
    }

    /// Unit indices the plan touches (with duplicates preserved, in plan
    /// order) — the "faulted set" determinism tests exclude.
    pub fn faulted_units(&self) -> Vec<usize> {
        self.faults.iter().map(|&(u, _)| u).collect()
    }

    /// Whether `unit`'s worker should panic.
    pub fn should_panic(&self, unit: usize) -> bool {
        self.faults
            .iter()
            .any(|(u, k)| *u == unit && matches!(k, FaultKind::Panic))
    }

    /// The injected budget for `unit`, if any.
    pub fn budget_for(&self, unit: usize) -> Option<Budget> {
        self.faults.iter().find_map(|(u, k)| match k {
            FaultKind::BudgetExhaust { max_steps } if *u == unit => {
                Some(Budget::with_max_steps(*max_steps))
            }
            _ => None,
        })
    }

    /// The post-store corruption for `unit`'s cache entry, if any.
    pub fn corruption_for(&self, unit: usize) -> Option<CorruptionMode> {
        self.faults.iter().find_map(|(u, k)| match k {
            FaultKind::CorruptStore { mode } if *u == unit => Some(*mode),
            _ => None,
        })
    }

    /// How many leading store attempts for `unit` fail with a synthetic IO
    /// error (0 = none).
    pub fn io_fail_count(&self, unit: usize) -> u32 {
        self.faults
            .iter()
            .find_map(|(u, k)| match k {
                FaultKind::IoError { fail_first } if *u == unit => Some(*fail_first),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Whether the process should hard-abort when `unit`'s worker starts.
    fn should_abort(&self, unit: usize) -> bool {
        self.faults
            .iter()
            .any(|(u, k)| *u == unit && matches!(k, FaultKind::Abort))
    }

    /// How long `unit`'s worker should sleep before analyzing, if at all.
    pub fn stall_ms(&self, unit: usize) -> Option<u64> {
        self.faults.iter().find_map(|(u, k)| match k {
            FaultKind::Stall { ms } if *u == unit => Some(*ms),
            _ => None,
        })
    }

    /// Whether a graceful-shutdown request fires when `unit`'s worker
    /// starts.
    pub fn should_stop(&self, unit: usize) -> bool {
        self.faults
            .iter()
            .any(|(u, k)| *u == unit && matches!(k, FaultKind::Stop))
    }

    /// MiB of address space `unit`'s worker should claim before dying, if
    /// any.
    fn oom_mb(&self, unit: usize) -> Option<u64> {
        self.faults.iter().find_map(|(u, k)| match k {
            FaultKind::Oom { mb } if *u == unit => Some(*mb),
            _ => None,
        })
    }

    /// Whether `unit`'s worker should overflow its stack.
    fn should_stackoverflow(&self, unit: usize) -> bool {
        self.faults
            .iter()
            .any(|(u, k)| *u == unit && matches!(k, FaultKind::StackOverflow))
    }

    /// How long `unit`'s worker should busy-spin (non-cooperatively) before
    /// dying, if at all.
    fn spin_ms(&self, unit: usize) -> Option<u64> {
        self.faults.iter().find_map(|(u, k)| match k {
            FaultKind::Spin { ms } if *u == unit => Some(*ms),
            _ => None,
        })
    }

    /// The directives aimed at `unit`, under their own index.
    pub fn only(&self, unit: usize) -> FaultPlan {
        FaultPlan {
            faults: self
                .faults
                .iter()
                .filter(|(u, _)| *u == unit)
                .cloned()
                .collect(),
        }
    }

    /// Fires `unit`'s process-level faults: a stall, then the first of abort,
    /// OOM, stack overflow and spin, each of which kills the process running
    /// the unit. The one interpreter of those directives, called wherever the
    /// unit runs: by the batch driver in thread mode (the death takes the
    /// parent down — precisely what `--isolation process` exists to prevent)
    /// and by the isolated worker, inside its limits.
    pub fn fire_fatal(&self, unit: usize) {
        if let Some(ms) = self.stall_ms(unit) {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if self.should_abort(unit) {
            // A hard crash, not a panic: nothing unwinds, nothing flushes.
            // Exactly what an OOM kill looks like to the next run.
            std::process::abort();
        }
        if let Some(mb) = self.oom_mb(unit) {
            trigger_oom(mb);
        }
        if self.should_stackoverflow(unit) {
            trigger_stackoverflow();
        }
        if let Some(ms) = self.spin_ms(unit) {
            trigger_spin(ms);
        }
    }

    /// Directives the serve daemon cannot interpret, in plan order
    /// (deduplicated). The daemon keys faults by *round attempt*, not unit
    /// index, and only `panic@ROUND` and `stall@ROUND=MS` have a meaning
    /// there — the rest are batch-driver directives (cache corruption,
    /// process death, journal replay) that a daemon plan must reject
    /// loudly instead of silently ignoring.
    pub fn serve_unsupported(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for (_, kind) in &self.faults {
            if matches!(kind, FaultKind::Panic | FaultKind::Stall { .. }) {
                continue;
            }
            let name = kind.directive();
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    /// Parses a CLI fault spec: comma-separated directives
    /// `panic@I` | `budget@I=STEPS` | `truncate@I` | `bitflip@I` |
    /// `forge@I` | `io@I=N` | `abort@I` | `stall@I=MS` | `stop@I` |
    /// `oom@I=MB` | `stackoverflow@I` | `spin@I=MS`,
    /// where `I` is a unit index (the serve daemon reads `I` as a 1-based
    /// round attempt instead, and accepts only `panic` and `stall`).
    /// Example: `panic@2,budget@0=50,io@1=2`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for raw in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (head, arg) = match raw.split_once('=') {
                Some((h, a)) => (h, Some(a)),
                None => (raw, None),
            };
            let (kind, unit) = head
                .split_once('@')
                .ok_or_else(|| format!("fault `{raw}`: expected KIND@UNIT"))?;
            let unit: usize = unit
                .parse()
                .map_err(|_| format!("fault `{raw}`: bad unit index `{unit}`"))?;
            let arg_num = |what: &str| -> Result<u64, String> {
                arg.ok_or_else(|| format!("fault `{raw}`: `{kind}` needs ={what}"))?
                    .parse()
                    .map_err(|_| format!("fault `{raw}`: bad {what}"))
            };
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "budget" => FaultKind::BudgetExhaust {
                    max_steps: arg_num("STEPS")?,
                },
                "truncate" => FaultKind::CorruptStore {
                    mode: CorruptionMode::Truncate,
                },
                "bitflip" => FaultKind::CorruptStore {
                    mode: CorruptionMode::BitFlip,
                },
                "forge" => FaultKind::CorruptStore {
                    mode: CorruptionMode::Forge,
                },
                "io" => FaultKind::IoError {
                    fail_first: arg_num("N")? as u32,
                },
                "abort" => FaultKind::Abort,
                "stall" => FaultKind::Stall { ms: arg_num("MS")? },
                "stop" => FaultKind::Stop,
                "oom" => FaultKind::Oom { mb: arg_num("MB")? },
                "stackoverflow" => FaultKind::StackOverflow,
                "spin" => FaultKind::Spin { ms: arg_num("MS")? },
                other => return Err(format!("fault `{raw}`: unknown kind `{other}`")),
            };
            plan = plan.add(unit, kind);
        }
        Ok(plan)
    }

    /// Draws one random fault per kind from a seeded RNG over `units` unit
    /// indices — a reproducible chaos preset for stress tests.
    pub fn seeded(seed: u64, units: usize) -> FaultPlan {
        use rand::{Rng, SeedableRng};
        if units == 0 {
            return FaultPlan::none();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::none();
        plan = plan.add(rng.gen_range(0..units), FaultKind::Panic);
        plan = plan.add(
            rng.gen_range(0..units),
            FaultKind::BudgetExhaust {
                max_steps: rng.gen_range(1..64),
            },
        );
        let mode = if rng.gen_range(0..2) == 0 {
            CorruptionMode::Truncate
        } else {
            CorruptionMode::BitFlip
        };
        plan = plan.add(rng.gen_range(0..units), FaultKind::CorruptStore { mode });
        plan = plan.add(
            rng.gen_range(0..units),
            FaultKind::IoError {
                fail_first: rng.gen_range(1..3),
            },
        );
        plan
    }
}

/// The plan as the spec text [`FaultPlan::parse`] reads back — how the
/// isolated worker's request carries a unit's directives.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (n, (unit, kind)) in self.faults.iter().enumerate() {
            let sep = if n == 0 { "" } else { "," };
            write!(f, "{sep}{}@{unit}", kind.directive())?;
            if let Some(arg) = kind.arg() {
                write!(f, "={arg}")?;
            }
        }
        Ok(())
    }
}

// ---- fatal fault executors ---------------------------------------------
//
// The executors for the three process-killing faults, reached only through
// [`FaultPlan::fire_fatal`], so the batch driver (thread mode: the fault takes
// the parent down, by design) and the isolated worker (process mode: the
// fault takes only the worker down) run the *same* death, not two
// approximations of it.

/// Claims `mb` MiB of address space, then dies. Under an `RLIMIT_AS` below
/// `mb` the reservation itself fails and Rust's allocation-failure handler
/// aborts; otherwise the (untouched, so RSS-free) reservation succeeds and
/// an explicit abort stands in for the OOM killer. Either way the process
/// hosting the unit is gone, deterministically.
fn trigger_oom(mb: u64) -> ! {
    let bytes = (mb as usize).saturating_mul(1 << 20);
    let reservation: Vec<u8> = Vec::with_capacity(bytes.max(1));
    std::hint::black_box(&reservation);
    std::process::abort();
}

/// Overflows the stack with unbounded recursion (each frame pins a buffer
/// so the optimizer cannot collapse the recursion into a loop).
fn trigger_stackoverflow() -> ! {
    // The recursion is the whole point: every call pushes a real frame
    // until the guard page faults.
    #[allow(unconditional_recursion)]
    fn dive(depth: u64) -> u64 {
        let frame = [depth; 512];
        std::hint::black_box(&frame);
        dive(depth + 1) ^ std::hint::black_box(frame[0])
    }
    let _ = std::hint::black_box(dive(0));
    // Unreachable: the recursion faults first. Satisfies the `!` return.
    std::process::abort();
}

/// Busy-spins — no sleeping, no budget metering, no cancellation points —
/// for `ms` wall-clock milliseconds, then dies. A worker under a shorter
/// `--worker-timeout-ms` is SIGKILLed mid-spin instead.
fn trigger_spin(ms: u64) -> ! {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
    let mut x = 0u64;
    while std::time::Instant::now() < deadline {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("panic@2, budget@0=50, truncate@1, bitflip@3, io@4=2").unwrap();
        assert!(plan.should_panic(2));
        assert!(!plan.should_panic(0));
        assert_eq!(plan.budget_for(0), Some(Budget::with_max_steps(50)));
        assert_eq!(plan.budget_for(2), None);
        assert_eq!(plan.corruption_for(1), Some(CorruptionMode::Truncate));
        assert_eq!(plan.corruption_for(3), Some(CorruptionMode::BitFlip));
        assert_eq!(plan.io_fail_count(4), 2);
        assert_eq!(plan.io_fail_count(2), 0);
        assert_eq!(plan.faulted_units(), vec![2, 0, 1, 3, 4]);
    }

    #[test]
    fn parse_durability_faults() {
        let plan = FaultPlan::parse("abort@1,stall@2=250,stop@3,forge@0").unwrap();
        assert!(plan.should_abort(1));
        assert!(!plan.should_abort(0));
        assert_eq!(plan.stall_ms(2), Some(250));
        assert_eq!(plan.stall_ms(1), None);
        assert!(plan.should_stop(3));
        assert!(!plan.should_stop(2));
        assert_eq!(plan.corruption_for(0), Some(CorruptionMode::Forge));
        assert!(FaultPlan::parse("stall@2").is_err());
        assert!(FaultPlan::parse("abort@x").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic@x").is_err());
        assert!(FaultPlan::parse("budget@1").is_err());
        assert!(FaultPlan::parse("explode@1").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_isolation_faults() {
        let plan = FaultPlan::parse("oom@4=64,stackoverflow@1,spin@6=5000").unwrap();
        assert_eq!(plan.oom_mb(4), Some(64));
        assert_eq!(plan.oom_mb(1), None);
        assert!(plan.should_stackoverflow(1));
        assert!(!plan.should_stackoverflow(4));
        assert_eq!(plan.spin_ms(6), Some(5000));
        assert_eq!(plan.spin_ms(4), None);
        assert!(FaultPlan::parse("oom@1").is_err());
        assert!(FaultPlan::parse("spin@1").is_err());
        assert!(FaultPlan::parse("oom@1=x").is_err());
    }

    /// The spec text a plan displays parses back to the same plan — the
    /// worker request's encoding of a unit's directives — and `only` keeps
    /// exactly one unit's directives, in plan order.
    #[test]
    fn display_roundtrips_through_parse() {
        let spec = "panic@2,budget@0=50,truncate@1,bitflip@3,forge@3,io@4=2,abort@1,\
                    stall@2=250,stop@3,oom@4=64,stackoverflow@1,spin@6=5000";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert_eq!(
            plan.only(1).to_string(),
            "truncate@1,abort@1,stackoverflow@1"
        );
        assert_eq!(FaultPlan::none().to_string(), "");
        assert!(plan.only(5).is_empty());
    }

    #[test]
    fn serve_rejects_what_it_cannot_interpret() {
        let daemon_ok = FaultPlan::parse("panic@1,stall@2=100").unwrap();
        assert!(daemon_ok.serve_unsupported().is_empty());
        let mixed = FaultPlan::parse("panic@1,abort@2,oom@3=64,abort@4,spin@5=10").unwrap();
        assert_eq!(mixed.serve_unsupported(), vec!["abort", "oom", "spin"]);
    }

    #[test]
    fn seeded_is_reproducible() {
        assert_eq!(FaultPlan::seeded(42, 8), FaultPlan::seeded(42, 8));
        assert_ne!(FaultPlan::seeded(42, 8), FaultPlan::seeded(43, 8));
        assert!(FaultPlan::seeded(7, 0).is_empty());
    }
}
