//! Per-unit analysis: the sparse interval analysis of one translation unit,
//! its checkers and its triage.
//!
//! The staging is `sga-core`'s own, pass by pass: pre-analysis and ICFG,
//! [`defuse::compute`], [`depgen::generate`], [`sparse::solve`] — the
//! sequential passes of `sga_core::interval::analyze_with`'s sparse branch,
//! each under its own stage timer. A unit runs on one thread; [`crate::run`]
//! and [`crate::analyze_units`] run units concurrently.

use sga_core::budget::Budget;
use sga_core::defuse::{self, DefUse};
use sga_core::depgen::{self, DataDeps, DepGenOptions};
use sga_core::icfg::Icfg;
use sga_core::interface::{self, UnitInterface};
use sga_core::interval::{Engine, IntervalResult, IntervalSparseSpec};
use sga_core::preanalysis::{self, PreAnalysis};
use sga_core::stats::AnalysisStats;
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::{WideningConfig, WideningPlan};
use sga_core::{checker, sparse};
use sga_diag::Diagnostic;
use sga_domains::State;
use sga_ir::{Cp, Program};
use sga_utils::stats::StageTimers;
use sga_utils::{fxhash, FxHashMap};

/// Everything the driver keeps about one analyzed unit.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitAnalysis {
    /// Procedures the unit defines (externals not counted).
    pub procs: usize,
    /// The unit's link boundary: exported per-function interfaces and
    /// imported external symbols with their reverse dependents — the
    /// incremental daemon's invalidation substrate.
    pub interface: UnitInterface,
    /// Structured diagnostics in canonical order: all four checkers, with
    /// content fingerprints assigned and the octagon triage verdicts
    /// applied.
    pub diags: Vec<Diagnostic>,
    /// Whether the triage octagon run degraded under its budget (triage
    /// then discharges less; the unit's own `degraded` flag is separate).
    pub triage_degraded: bool,
    /// Order-independent hash of every (point, location, value) binding.
    pub fingerprint: u64,
    /// Ascending-phase node evaluations.
    pub iterations: usize,
    /// Interned abstract locations.
    pub num_locs: usize,
    /// Dependency edges before the bypass contraction.
    pub dep_edges_raw: usize,
    /// Dependency edges the solver actually propagates along.
    pub dep_edges: usize,
    /// Whether the fixpoint ran out of its analysis budget and finished in
    /// degraded (sound but less precise) mode.
    pub degraded: bool,
}

/// The solver-facing artifacts of one unit's analysis, kept past the
/// report-facing [`UnitAnalysis`] so the validation oracle
/// ([`sga_core::validate`]) can re-check the fixpoint it actually came from.
pub struct UnitInternals {
    /// Pre-analysis the result was derived from.
    pub pre: PreAnalysis,
    /// Def/use sets (with the interned location table).
    pub du: DefUse,
    /// The dependency edges the solver propagated along.
    pub deps: DataDeps,
    /// The solved fixpoint the diagnostics came from (`stats.degraded` says
    /// whether it degraded under its budget).
    pub result: IntervalResult,
}

/// Runs the full sparse interval analysis of one parsed unit, then its
/// checkers and triage. Stage wall times are added to `timers`, which
/// [`crate::run`] shares between the units in flight: with several at once,
/// a stage's time is work summed over units, not elapsed wall time.
pub fn analyze_unit(
    program: &Program,
    options: DepGenOptions,
    widening: WideningConfig,
    triage_mode: TriageMode,
    budget: &Budget,
    timers: &StageTimers,
) -> (UnitAnalysis, UnitInternals) {
    let (pre, icfg) = timers.time("pre", || {
        let pre = preanalysis::run(program);
        let icfg = Icfg::build(program, &pre);
        (pre, icfg)
    });
    let du = timers.time("defuse", || defuse::compute(program, &pre));
    let deps = timers.time("dep", || depgen::generate(program, &pre, &du, options));

    // The result outlives the check stage: the path-condition triage layer
    // evaluates dominating guards against the same fixpoint the alarms came
    // from (and its `degraded` flag gates that layer off entirely).
    let result = timers.time("fix", || {
        let spec = IntervalSparseSpec {
            program,
            pre: &pre,
            du: &du,
        };
        let plan = WideningPlan::for_program(program, widening);
        let solved = sparse::solve(program, &icfg, &deps, &spec, &plan, budget);
        IntervalResult {
            engine: Engine::Sparse,
            values: solved
                .values
                .into_iter()
                .map(|(cp, m)| (cp, State::from_pmap(m)))
                .collect(),
            stats: AnalysisStats {
                iterations: solved.iterations,
                num_locs: du.locs.len(),
                degraded: solved.degraded,
                ..AnalysisStats::default()
            },
        }
    });
    let (iterations, degraded) = (result.stats.iterations, result.stats.degraded);
    let (mut diags, fingerprint) = timers.time("check", || {
        (
            checker::check_all(program, &result, &pre),
            fingerprint_values(&result.values),
        )
    });

    let triage_degraded = timers.time("triage", || {
        let topts = TriageOptions {
            engine: Engine::Sparse,
            depgen: options,
            widening,
            budget: triage::derived_budget(iterations, budget),
            mode: triage_mode,
            ..TriageOptions::default()
        };
        triage::discharge_staged(program, &pre, &du, &icfg, &result, &mut diags, &topts).degraded
    });

    let analysis = UnitAnalysis {
        procs: program.procs.iter().filter(|p| !p.is_external).count(),
        interface: interface::unit_interface(program, &pre, &du),
        diags,
        triage_degraded,
        fingerprint,
        iterations,
        num_locs: du.locs.len(),
        dep_edges_raw: deps.stats.raw_edges,
        dep_edges: deps.stats.final_edges,
        degraded,
    };
    let internals = UnitInternals {
        pre,
        du,
        deps,
        result,
    };
    (analysis, internals)
}

/// Order-independent content hash of a value map: every binding rendered to
/// one line, lines sorted, the sorted list hashed.
fn fingerprint_values(values: &FxHashMap<Cp, State>) -> u64 {
    let mut lines: Vec<String> = Vec::new();
    for (cp, state) in values {
        for (l, v) in state.iter() {
            lines.push(format!("{cp} {l:?} = {v:?}"));
        }
    }
    lines.sort_unstable();
    fxhash::hash_one(&lines)
}
