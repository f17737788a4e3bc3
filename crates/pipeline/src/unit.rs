//! Per-unit analysis: the sparse interval analysis of one translation unit,
//! its checkers and its triage.
//!
//! A unit is staged and solved by `sga-core`'s one staging of the sparse
//! chain, [`Pipeline`] — the same [`Pipeline::prepare`] and
//! [`Pipeline::solve`] that `sga_core::interval::analyze_with` and the
//! CLI's checks run — and its stage wall times are the ones the staging
//! measured. A unit runs on one thread; [`crate::run`] and
//! [`crate::analyze_units`] run units concurrently.

use sga_core::budget::Budget;
use sga_core::checker;
use sga_core::depgen::DepGenOptions;
use sga_core::interface::{self, UnitInterface};
use sga_core::interval::{AnalyzeOptions, Engine, IntervalResult, Pipeline};
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::WideningConfig;
use sga_diag::Diagnostic;
use sga_domains::{AbsLoc, State};
use sga_ir::{Cp, Program};
use sga_utils::fxhash::FxHasher;
use sga_utils::stats::StageTimers;
use sga_utils::FxHashMap;
use std::fmt::Write;
use std::hash::{Hash, Hasher};

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
pub struct UnitInternals<'p> {
    /// The unit's staging: pre-analysis, ICFG, def/use sets and the
    /// dependency edges the solver propagated along.
    pub staged: Pipeline<'p>,
    /// The solved fixpoint the diagnostics came from (`stats.degraded` says
    /// whether it degraded under its budget).
    pub result: IntervalResult,
}

/// Runs the full sparse interval analysis of one parsed unit, then its
/// checkers and triage. Stage wall times are added to `timers`, which
/// [`crate::run`] shares between the units in flight: with several at once,
/// a stage's time is work summed over units, not elapsed wall time.
pub fn analyze_unit<'p>(
    program: &'p Program,
    options: DepGenOptions,
    widening: WideningConfig,
    triage_mode: TriageMode,
    budget: &Budget,
    timers: &StageTimers,
) -> (UnitAnalysis, UnitInternals<'p>) {
    let analyze = AnalyzeOptions {
        depgen: options,
        widening,
        ..AnalyzeOptions::default()
    };
    let staged = Pipeline::prepare(program, analyze);
    // The result outlives the check stage: the path-condition triage layer
    // evaluates dominating guards against the same inputs the alarms read
    // (and its `degraded` flag gates that layer off entirely).
    let result = staged.solve(budget);
    let stats = &result.stats;
    timers.add("pre", stats.pre_time);
    timers.add("defuse", stats.defuse_time);
    timers.add("dep", stats.dep_time - stats.defuse_time);
    timers.add("fix", stats.fix_time);
    // The checkers and the path layer read values before a point as the
    // inputs the solve computed: the in-edges of the staged relation.
    let q = staged.inputs(&result);
    let (mut diags, fingerprint) = timers.time("check", || {
        (
            checker::check_all_staged(&q, &staged.pre),
            fingerprint_values(&result.values),
        )
    });

    let triage_degraded = timers.time("triage", || {
        let topts = TriageOptions {
            engine: Engine::Sparse,
            depgen: options,
            widening,
            budget: triage::derived_budget(stats.iterations, budget),
            mode: triage_mode,
            ..TriageOptions::default()
        };
        triage::discharge_staged(&staged.pre, &q, &mut diags, &topts).degraded
    });

    let analysis = UnitAnalysis {
        procs: program.procs.iter().filter(|p| !p.is_external).count(),
        interface: interface::unit_interface(program, &staged.pre, &staged.du),
        diags,
        triage_degraded,
        fingerprint,
        iterations: stats.iterations,
        num_locs: stats.num_locs,
        dep_edges_raw: stats.dep_edges_raw,
        dep_edges: stats.dep_edges,
        degraded: stats.degraded,
    };
    (analysis, UnitInternals { staged, result })
}

/// Order-independent content hash of a value map: the fxhash of the sorted
/// list of lines `format!("{cp} {l:?} = {v:?}")`, one per binding.
///
/// Computed without the list. No point or location text holds a space, so
/// the point heads `"{cp} "` are prefix-free, and so are the location keys
/// `"{l:?} = "`: the sorted line order is the heads' order, then each
/// point's keys' order. Each head and key is formatted once; each line is
/// built in one reused buffer and fed to the hasher as hashing the list of
/// lines feeds it — the list's length, then every line in order.
pub fn fingerprint_values(values: &FxHashMap<Cp, State>) -> u64 {
    let (mut heads, mut keys) = (String::new(), String::new());
    let mut key_of: FxHashMap<&AbsLoc, (usize, usize)> = FxHashMap::default();
    let mut points = Vec::with_capacity(values.len());
    let mut lines = 0;
    for (cp, state) in values {
        let start = heads.len();
        write!(heads, "{cp} ").expect("writing to a String");
        points.push((start, heads.len(), state));
        for (l, _) in state.iter() {
            key_of.entry(l).or_insert_with(|| {
                let start = keys.len();
                write!(keys, "{l:?} = ").expect("writing to a String");
                (start, keys.len())
            });
        }
        lines += state.len();
    }
    points.sort_unstable_by_key(|&(start, end, _)| &heads[start..end]);
    let mut hasher = FxHasher::default();
    hasher.write_usize(lines);
    let (mut bindings, mut line) = (Vec::new(), String::new());
    for &(start, end, state) in &points {
        bindings.clear();
        bindings.extend(state.iter().map(|(l, v)| {
            let (a, b) = key_of[l];
            (&keys[a..b], v)
        }));
        bindings.sort_unstable_by_key(|&(key, _)| key);
        for &(key, v) in &bindings {
            line.clear();
            line.push_str(&heads[start..end]);
            line.push_str(key);
            write!(line, "{v:?}").expect("writing to a String");
            line.as_str().hash(&mut hasher);
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cgen::GenConfig;
    use sga_core::interval;
    use sga_domains::locs::AllocSite;
    use sga_domains::Value;
    use sga_ir::{FieldId, NodeId, ProcId, VarId};
    use sga_utils::{fxhash, Idx};
    use std::path::Path;

    /// The definition: every binding rendered to one line
    /// `format!("{cp} {l:?} = {v:?}")`, the lines sorted, the sorted list of
    /// `String`s hashed with fxhash.
    fn by_definition(values: &FxHashMap<Cp, State>) -> u64 {
        let mut lines: Vec<String> = Vec::new();
        for (cp, state) in values {
            for (l, v) in state.iter() {
                lines.push(format!("{cp} {l:?} = {v:?}"));
            }
        }
        lines.sort_unstable();
        fxhash::hash_one(&lines)
    }

    fn assert_by_definition(what: &str, program: &Program) {
        assert_values_by_definition(what, &interval::analyze(program, Engine::Sparse).values);
    }

    fn assert_values_by_definition(what: &str, values: &FxHashMap<Cp, State>) {
        assert!(!values.is_empty(), "{what}: nothing bound");
        assert_eq!(
            fingerprint_values(values),
            by_definition(values),
            "{what}: the fingerprint left its definition"
        );
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_sorted_binding_lines() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms");
        let mut units = 0;
        for entry in std::fs::read_dir(dir).expect("tests/alarms") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "c") {
                let src = std::fs::read_to_string(&path).expect("a readable unit");
                let program = sga_cfront::parse(&src).expect("the unit parses");
                assert_by_definition(&path.display().to_string(), &program);
                units += 1;
            }
        }
        assert!(units >= 20, "tests/alarms has {units} units");
        let scc = GenConfig {
            target_loc: 600,
            functions: 20,
            max_scc: 18,
            ..GenConfig::sized(22, 1)
        };
        for (what, config) in [("flat", GenConfig::sized(21, 1)), ("scc", scc)] {
            let program = sga_cfront::parse(&sga_cgen::generate(&config)).expect("parses");
            assert_by_definition(what, &program);
        }
        assert_values_by_definition("prefixes", &prefixes());
    }

    /// Bindings whose point and location texts are prefixes of one
    /// another — `p1:n2` and `p1:n23`, `v1`, `v12` and `v1.f0`, an
    /// allocation site and its field — and whose numeric order is not
    /// their text order (`p1:n3` after `p1:n23`, `v2` after `v12`).
    fn prefixes() -> FxHashMap<Cp, State> {
        let cp = |p: usize, n: usize| Cp::new(ProcId::new(p), NodeId::new(n));
        let (var, field) = (|v: usize| VarId::new(v), FieldId::new(0));
        let site = |p, n| AllocSite(cp(p, n));
        let locs = [
            AbsLoc::Var(var(1)),
            AbsLoc::Var(var(12)),
            AbsLoc::Var(var(2)),
            AbsLoc::Field(var(1), field),
            AbsLoc::Field(var(12), field),
            AbsLoc::Alloc(site(1, 2)),
            AbsLoc::AllocField(site(1, 2), field),
            AbsLoc::Alloc(site(1, 23)),
            AbsLoc::AllocField(site(1, 23), field),
        ];
        let points = [cp(1, 2), cp(1, 23), cp(1, 3), cp(12, 0), cp(2, 0)];
        let mut values = FxHashMap::default();
        for (i, &at) in points.iter().enumerate() {
            let state = (locs.iter().enumerate()).fold(State::new(), |state, (j, &l)| {
                state.set(l, Value::constant((i * locs.len() + j) as i64))
            });
            values.insert(at, state);
        }
        values
    }
}
