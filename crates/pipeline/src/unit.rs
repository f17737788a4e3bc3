//! Per-unit staged analysis: the sparse interval analysis of one
//! translation unit, scheduled per procedure.
//!
//! This reimplements `sga_core::interval::analyze_with`'s sparse branch on
//! top of the staged public APIs so that the independent per-procedure
//! pieces can run on worker threads:
//!
//! * def/use pass 1 ([`defuse::real_sets_for_proc`]) — independent per
//!   procedure;
//! * def/use pass 2 ([`defuse::summarize_scc`]) — bottom-up over the call
//!   graph's SCC condensation, SCCs at the same level run concurrently;
//! * def/use pass 3 ([`defuse::relay_sets_for_proc`]) — independent per
//!   procedure, merged in procedure order by [`defuse::finish`] so location
//!   interning stays deterministic;
//! * dependency segments ([`depgen::proc_dep_edges`]) — independent per
//!   procedure, merged in procedure order by [`depgen::assemble`];
//! * the sparse fixpoint itself is sequential (a chaotic-iteration solver
//!   over one shared worklist), as are the checkers.
//!
//! Every parallel stage merges results in procedure (or SCC) order, so the
//! outcome is bit-identical for any worker count.

use crate::par;
use sga_core::budget::Budget;
use sga_core::depgen::{self, DepGenOptions, IntervalDepSource};
use sga_core::icfg::Icfg;
use sga_core::interface::{self, UnitInterface};
use sga_core::interval::{Engine, IntervalResult, IntervalSparseSpec};
use sga_core::stats::AnalysisStats;
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::{WideningConfig, WideningPlan};
use sga_core::{checker, defuse, preanalysis, sparse};
use sga_diag::Diagnostic;
use sga_domains::{AbsLoc, State, Value};
use sga_ir::{Cp, ProcId, Program};
use sga_utils::stats::StageTimers;
use sga_utils::{fxhash, FxHashMap, Idx, IndexVec, PMap};

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

/// Groups the call graph's SCC condensation into bottom-up *levels*: SCCs in
/// the same level have no call path between them, so their pass-2 summaries
/// can be computed concurrently. Returns lists of component ids into
/// `bottom_up_sccs()`, innermost level first.
fn scc_levels(pre: &preanalysis::PreAnalysis) -> Vec<Vec<usize>> {
    let sccs = pre.callgraph.bottom_up_sccs();
    let comp = &pre.callgraph.scc.component;
    let mut level = vec![0usize; sccs.len()];
    // Components come callees-first, so every callee component has a smaller
    // id and its level is already final when we get to the caller.
    for (i, members) in sccs.iter().enumerate() {
        let mut lv = 0usize;
        for &p in members {
            for &q in &pre.callgraph.callees[ProcId::new(p)] {
                let cq = comp[q.index()];
                if cq != i {
                    lv = lv.max(level[cq] + 1);
                }
            }
        }
        level[i] = lv;
    }
    let depth = level.iter().copied().max().map_or(0, |m| m + 1);
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); depth];
    for (i, &lv) in level.iter().enumerate() {
        by_level[lv].push(i);
    }
    by_level
}

/// The solver-facing artifacts of one unit's analysis, kept alive past the
/// report-facing [`UnitAnalysis`] so the validation oracle
/// ([`sga_core::validate`]) can re-check the fixpoint it actually came from.
pub struct UnitInternals {
    /// Pre-analysis the result was derived from.
    pub pre: preanalysis::PreAnalysis,
    /// Def/use sets (with the interned location table).
    pub du: defuse::DefUse,
    /// The dependency edges the solver propagated along.
    pub deps: depgen::DataDeps,
    /// The final sparse value map, in solver form.
    pub sparse_values: FxHashMap<Cp, PMap<AbsLoc, Value>>,
    /// Whether the fixpoint degraded under its budget.
    pub degraded: bool,
}

/// Runs the full sparse interval analysis of one parsed unit with up to
/// `jobs` worker threads for the per-procedure stages. Stage wall times are
/// accumulated into `timers` (they sum *work* across workers, not elapsed
/// wall time, once `jobs > 1`).
pub fn analyze_unit(
    program: &Program,
    jobs: usize,
    options: DepGenOptions,
    widening: WideningConfig,
    triage: TriageMode,
    budget: &Budget,
    timers: &StageTimers,
) -> UnitAnalysis {
    analyze_unit_inner(
        program, jobs, options, widening, triage, budget, timers, false,
    )
    .0
}

/// [`analyze_unit`] keeping the solver internals alive for the validation
/// oracle. Costs one extra clone of the sparse value map.
pub fn analyze_unit_traced(
    program: &Program,
    jobs: usize,
    options: DepGenOptions,
    widening: WideningConfig,
    triage: TriageMode,
    budget: &Budget,
    timers: &StageTimers,
) -> (UnitAnalysis, UnitInternals) {
    let (analysis, internals) = analyze_unit_inner(
        program, jobs, options, widening, triage, budget, timers, true,
    );
    (
        analysis,
        internals.expect("traced analysis keeps internals"),
    )
}

#[allow(clippy::too_many_arguments)]
fn analyze_unit_inner(
    program: &Program,
    jobs: usize,
    options: DepGenOptions,
    widening: WideningConfig,
    triage_mode: TriageMode,
    budget: &Budget,
    timers: &StageTimers,
    keep_internals: bool,
) -> (UnitAnalysis, Option<UnitInternals>) {
    let pids: Vec<ProcId> = program.procs.indices().collect();

    let (pre, icfg) = timers.time("pre", || {
        let pre = preanalysis::run(program);
        let icfg = Icfg::build(program, &pre);
        (pre, icfg)
    });

    let du = timers.time("defuse", || {
        // Pass 1: real def/use sets, independent per procedure.
        let mut sets = FxHashMap::default();
        for part in par::run_indexed(jobs, &pids, |_, &pid| {
            defuse::real_sets_for_proc(program, &pre, &pre.state, pid)
        }) {
            sets.extend(part);
        }

        // Pass 2: callee-access summaries, bottom-up over the SCC
        // condensation; SCCs at the same level run concurrently.
        let sccs = pre.callgraph.bottom_up_sccs();
        let nprocs = program.procs.len();
        let mut summary_defs: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
        let mut summary_uses: IndexVec<ProcId, Vec<_>> = IndexVec::from_elem_n(Vec::new(), nprocs);
        for lvl in scc_levels(&pre) {
            let summaries = par::run_indexed(jobs, &lvl, |_, &ci| {
                defuse::summarize_scc(
                    program,
                    &pre,
                    &sets,
                    &sccs[ci],
                    &summary_defs,
                    &summary_uses,
                )
            });
            for (&ci, (defs, uses)) in lvl.iter().zip(summaries) {
                for &praw in &sccs[ci] {
                    summary_defs[ProcId::new(praw)] = defs.clone();
                    summary_uses[ProcId::new(praw)] = uses.clone();
                }
            }
        }

        // Pass 3: full D̂/Û sets, independent per procedure; merged in
        // procedure order so interning is deterministic.
        let parts = par::run_indexed(jobs, &pids, |_, &pid| {
            defuse::relay_sets_for_proc(program, &pre, pid, &sets, &summary_defs, &summary_uses)
        });
        defuse::finish(sets, summary_defs, summary_uses, parts)
    });

    let deps = timers.time("dep", || {
        let source = IntervalDepSource::new(program, &pre, &du);
        let segments = par::run_indexed(jobs, &pids, |_, &pid| {
            depgen::proc_dep_edges(program, &source, pid)
        });
        depgen::assemble(&source, options, &segments)
    });

    let (values, sparse_values, iterations, degraded) = timers.time("fix", || {
        let spec = IntervalSparseSpec {
            program,
            pre: &pre,
            du: &du,
        };
        let plan = WideningPlan::for_program(program, widening);
        let solved = sparse::solve(program, &icfg, &deps, &spec, &plan, budget);
        let sparse_values = keep_internals.then(|| solved.values.clone());
        let values: FxHashMap<Cp, State> = solved
            .values
            .into_iter()
            .map(|(cp, m)| (cp, State::from_pmap(m)))
            .collect();
        (values, sparse_values, solved.iterations, solved.degraded)
    });

    // The result outlives the check stage: the path-condition triage layer
    // evaluates dominating guards against the same fixpoint the alarms came
    // from (and its `degraded` flag gates that layer off entirely).
    let result = IntervalResult {
        engine: Engine::Sparse,
        values,
        stats: AnalysisStats {
            iterations,
            num_locs: du.locs.len(),
            degraded,
            ..AnalysisStats::default()
        },
    };
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
    let internals = sparse_values.map(|sparse_values| UnitInternals {
        pre,
        du,
        deps,
        sparse_values,
        degraded,
    });
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
