//! An independent post-fixpoint validation oracle.
//!
//! The paper gives three checkable contracts that together say a sparse
//! analysis result is trustworthy, and this module re-checks all three
//! *after* the fact, with code deliberately independent of the solvers:
//!
//! 1. **Post-fixpoint (§2.3).** A result `X̂` is sound iff
//!    `f̂_c(X̂) ⊑ X̂` at every program point: one extra transfer-function
//!    pass over the final values must produce nothing outside what is
//!    stored. [`check_sparse_post_fixpoint`] replays the sparse engine's
//!    gather/transfer step from scratch (its own `assemble`, not the
//!    solver's) and compares binding by binding. This also covers
//!    *degraded* (budget-exhausted) results, whose post-fixpoint claim is
//!    otherwise only an argument in a comment.
//! 2. **Lemma 1 (§2.7).** The sparse and dense fixpoints are *equal* on
//!    defined entries. [`check_lemma1`] holds the constant-propagation
//!    instance to it with `==`: sparse over the unit's own dependency
//!    relation, dense base over its ICFG. The flat lattice has finite height
//!    and no widening, so the least fixpoint is unique and any difference is
//!    a lost or invented flow — in def/use, dependency generation, the
//!    bypass, call/return routing or forwarding. No dense engine checks the
//!    reported *interval* values; a self-consistent bug in their own call
//!    transfer passes the post-fixpoint check, which replays it.
//! 3. **Def. 5.** The def/use over-approximation must satisfy
//!    `D̂(c) − D(c) ⊆ Û(c)`: every spurious definition is also a use, so
//!    relayed values are propagated, not invented. Tavares et al. show
//!    conventional def-use chains violate exactly this side condition;
//!    [`check_defuse_side_condition`] asserts it against the computed
//!    [`DefUse`] sets.
//!
//! The checks return structured [`Violation`]s; the batch driver turns a
//! non-empty list into the `invalid` per-unit outcome (never cached, fails
//! the bench gate).

use crate::budget::Budget;
use crate::constprop::{self, Const, ConstSpec};
use crate::defuse::DefUse;
use crate::dense;
use crate::depgen::DataDeps;
use crate::depstore::{solved_points, CsrDeps};
use crate::icfg::Icfg;
use crate::interval::{AnalyzeOptions, IntervalSparseSpec};
use crate::preanalysis::PreAnalysis;
use crate::sparse::{self, SparseRows, SparseSpec};
use crate::widening::WideningPlan;
use sga_domains::lattice::Lattice;
use sga_domains::{AbsLoc, Value};
use sga_ir::{Cp, Program};
use sga_utils::{FxHashMap, PMap};

/// Cap on recorded violations per check — a genuinely broken transfer
/// function would otherwise flood the report with thousands of bindings.
/// The count of *suppressed* violations is still reported.
const MAX_VIOLATIONS: usize = 64;

/// Which oracle check a violation came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// `f̂_c(X̂) ⊑ X̂` failed at some point (§2.3).
    PostFixpoint,
    /// Sparse and dense constant propagation differ on a defined entry
    /// (Lemma 1).
    Lemma1,
    /// `D̂(c) − D(c) ⊆ Û(c)` failed (Def. 5).
    DefUseSide,
    /// A cached result disagrees with a fresh recomputation (batch-driver
    /// check: the checksum was valid but the content is wrong).
    CacheMismatch,
}

impl CheckKind {
    /// Stable name used in rendered reports.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::PostFixpoint => "post_fixpoint",
            CheckKind::Lemma1 => "lemma1",
            CheckKind::DefUseSide => "defuse_side_condition",
            CheckKind::CacheMismatch => "cache_mismatch",
        }
    }
}

/// One concrete oracle failure.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The failed check.
    pub kind: CheckKind,
    /// Human-readable location + evidence.
    pub detail: String,
}

impl Violation {
    fn new(kind: CheckKind, detail: String) -> Violation {
        Violation { kind, detail }
    }

    /// `check_name: detail`, the rendering reports use.
    pub fn render(&self) -> String {
        format!("{}: {}", self.kind.name(), self.detail)
    }
}

/// Outcome of one check: how much was looked at, and what failed.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Program points examined.
    pub points: usize,
    /// Individual bindings (or set members) examined.
    pub bindings: usize,
    /// Recorded failures (capped at [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Failures beyond the cap.
    pub suppressed: usize,
}

impl CheckReport {
    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }
}

/// Everything the oracle found about one unit.
#[derive(Clone, Debug, Default)]
pub struct UnitValidation {
    /// Post-fixpoint check over the interval sparse result.
    pub interval: CheckReport,
    /// Post-fixpoint check over the octagon sparse result.
    pub octagon: CheckReport,
    /// Sparse-vs-dense equality (constant propagation).
    pub lemma1: CheckReport,
    /// Def. 5 side-condition check.
    pub defuse: CheckReport,
    /// Driver-level violations (cache cross-check).
    pub extra: Vec<Violation>,
}

impl UnitValidation {
    /// The four checks, in report order.
    fn checks(&self) -> [&CheckReport; 4] {
        [&self.interval, &self.octagon, &self.lemma1, &self.defuse]
    }

    /// All violations, in deterministic report order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> + '_ {
        let checked = self.checks().into_iter().flat_map(|c| &c.violations);
        checked.chain(&self.extra)
    }

    /// Violations dropped by the per-check caps.
    pub fn suppressed(&self) -> usize {
        self.checks().iter().map(|c| c.suppressed).sum()
    }

    /// Whether every check passed.
    pub fn is_valid(&self) -> bool {
        self.violations().next().is_none() && self.suppressed() == 0
    }

    /// Records a driver-level violation (e.g. cache cross-check failure).
    pub fn add_extra(&mut self, kind: CheckKind, detail: String) {
        self.extra.push(Violation::new(kind, detail));
    }
}

/// Re-checks `f̂_c(X̂) ⊑ X̂` at every program point of a finished sparse
/// result: re-assembles each point's input from its data dependencies
/// (independently of the solver's own bookkeeping), applies the transfer
/// function once, and requires every produced binding to be `⊑` the stored
/// one. Holds for exact *and* degraded fixpoints — degradation changes
/// where widening stops the ascent, not the post-fixpoint property.
/// `values` are the solve's rows, a stored value read by location.
pub fn check_sparse_post_fixpoint<S: SparseSpec>(
    program: &Program,
    deps: &DataDeps,
    spec: &S,
    values: &SparseRows<S::L, S::V>,
) -> CheckReport {
    let main_entry = Cp::new(program.main, program.procs[program.main].entry);
    let gather = |edges: &[(u32, Cp)], mut acc: PMap<S::L, S::V>| -> PMap<S::L, S::V> {
        for &(loc_id, from) in edges {
            let l = spec.loc_of(loc_id);
            if let Some(v) = values.lookup(from, &l) {
                let joined = match acc.get(&l) {
                    Some(old) => old.join(v),
                    None => v.clone(),
                };
                acc = acc.insert(l, joined);
            }
        }
        acc
    };

    let mut report = CheckReport::default();
    for cp in solved_points(program) {
        report.points += 1;
        let seed = if cp == main_entry {
            spec.initial().into_iter().collect()
        } else {
            PMap::new()
        };
        // The oracle assembles its own maps and hands them over as the rows
        // the transfer takes.
        let pre = gather(deps.deps_into(cp), seed).to_sorted_vec();
        let ret = gather(deps.deps_into_ret(cp), PMap::new()).to_sorted_vec();
        let out = spec.transfer(cp, &pre, &ret);
        for (l, v) in &out {
            report.bindings += 1;
            let stored = values.lookup(cp, l);
            let holds = match stored {
                Some(s) => v.le(s),
                None => v.le(&S::V::bottom()),
            };
            if !holds {
                report.push(Violation::new(
                    CheckKind::PostFixpoint,
                    format!("{cp}: {l:?}: f\u{302}(X\u{302}) = {v:?} \u{22d4} stored {stored:?}"),
                ));
            }
        }
    }
    report
}

/// Lemma 1 with `==`: solves sparse constant propagation over `du` and
/// `deps` (the relation the interval instance ran on) and dense base
/// constant propagation over `icfg` (built from `pre`), and requires them
/// equal at every point on
///
/// * every real definition `D(c)` (absent = ⊥ on both sides), and
/// * every other `D̂(c)` entry the sparse result binds — with the §5 bypass
///   on, relay points are contracted away and bind nothing by design.
///
/// A call binds its effects on the dense engine's ICFG edges, so a call's
/// sparse row is compared with what its own return edges carry
/// (`ConstSpec::dense_binding`); the callee formals it binds are passed
/// on call edges and are left out.
/// Unbounded on purpose: the lattice has finite height, so the check costs
/// two fixpoints of bounded length and degraded units are checked too.
pub fn check_lemma1(
    program: &Program,
    pre: &PreAnalysis,
    icfg: &Icfg,
    du: &DefUse,
    deps: &DataDeps,
) -> CheckReport {
    let spec = ConstSpec::new(program, pre, du);
    let (naive, unbounded) = (WideningPlan::naive(), Budget::unbounded());
    let csr = CsrDeps::build(program, icfg, deps);
    let sparse = sparse::solve_rows(program, icfg, &csr, &spec, &naive, &unbounded);
    let dense = dense::solve(program, icfg, &spec);
    let mut report = CheckReport::default();
    for cp in solved_points(program) {
        report.points += 1;
        let want = spec.dense_binding(icfg, &dense.post, cp);
        let formal = |l: &AbsLoc| {
            let callees = pre.call_targets(cp).iter().map(|&t| &program.procs[t]);
            callees
                .flat_map(|p| &p.params)
                .any(|&p| AbsLoc::Var(p) == *l)
        };
        let bound = sparse.row(cp).unwrap_or_default();
        let bound = bound.iter().map(|&(r, _)| sparse.locs()[r as usize]);
        let mut compared: Vec<AbsLoc> = du.real_defs(cp).iter().copied().chain(bound).collect();
        compared.sort_unstable();
        compared.dedup();
        for l in compared.iter().filter(|l| !formal(l)) {
            report.bindings += 1;
            let got = sparse.lookup(cp, l).cloned().unwrap_or(Const::Bot);
            let expected = constprop::get(&want, l);
            if got != expected {
                report.push(Violation::new(
                    CheckKind::Lemma1,
                    format!("{cp}: {l:?}: sparse {got:?} \u{2260} dense {expected:?}"),
                ));
            }
        }
    }
    report
}

/// Asserts Def. 5's side condition `D̂(c) − D(c) ⊆ Û(c)` point by point:
/// every *spurious* definition (a relay, not a semantic def) must also be
/// a use, otherwise the sparse engine would invent a value at `c` instead
/// of relaying one through it.
pub fn check_defuse_side_condition(program: &Program, du: &DefUse) -> CheckReport {
    let mut report = CheckReport::default();
    for cp in solved_points(program) {
        report.points += 1;
        let (real_defs, uses) = (du.real_defs(cp), du.uses(cp));
        for l in du.defs(cp) {
            report.bindings += 1;
            if real_defs.binary_search(l).is_err() && uses.binary_search(l).is_err() {
                report.push(Violation::new(
                    CheckKind::DefUseSide,
                    format!(
                        "{cp}: {l:?} \u{2208} D\u{302}(c) \u{2212} D(c) but \u{2209} U\u{302}(c)"
                    ),
                ));
            }
        }
    }
    report
}

/// Borrowed artifacts of an already-solved interval sparse analysis, as the
/// batch driver holds them.
pub struct ValidationInputs<'a> {
    /// Pre-analysis (call targets, points-to) the result was built from.
    pub pre: &'a PreAnalysis,
    /// Def/use sets with the interned location table.
    pub du: &'a DefUse,
    /// The dependency edges the solver propagated along.
    pub deps: &'a DataDeps,
    /// The final sparse value map.
    pub sparse_values: &'a FxHashMap<Cp, PMap<AbsLoc, Value>>,
    /// Whether the solve degraded. Read by no check (each holds for
    /// degraded results too); stays because the frozen benchmark harness
    /// writes this struct as an exhaustive literal.
    pub degraded: bool,
}

/// Runs all three oracle checks against one unit: the post-fixpoint check
/// over the interval solve's `rows` *and* over a freshly solved octagon
/// result (both under `options.budget`, so degraded units are validated in
/// their degraded form), Lemma 1 over the unit's relation `deps`
/// ([`check_lemma1`]), and the Def. 5 side condition. `icfg` is the one
/// the unit was staged with, built from `pre`.
pub fn validate_rows(
    program: &Program,
    pre: &PreAnalysis,
    icfg: &Icfg,
    du: &DefUse,
    deps: &DataDeps,
    rows: &SparseRows<AbsLoc, Value>,
    options: AnalyzeOptions,
) -> UnitValidation {
    let spec = IntervalSparseSpec { program, pre, du };
    UnitValidation {
        interval: check_sparse_post_fixpoint(program, deps, &spec, rows),
        octagon: crate::octagon::sparse_post_fixpoint_check(program, pre, icfg, du, options),
        lemma1: check_lemma1(program, pre, icfg, du, deps),
        defuse: check_defuse_side_condition(program, du),
        extra: Vec::new(),
    }
}

/// [`validate_rows`] over an interval result held as maps: the maps become
/// rows over the relation's rank table once, and the ICFG is built from
/// `inputs.pre`.
pub fn validate_unit(
    program: &Program,
    inputs: &ValidationInputs<'_>,
    options: AnalyzeOptions,
) -> UnitValidation {
    let maps = inputs.sparse_values.iter();
    let rows = crate::interval::rows_of_maps(program, inputs.deps, inputs.du, maps);
    let icfg = Icfg::build(program, inputs.pre);
    validate_rows(
        program,
        inputs.pre,
        &icfg,
        inputs.du,
        inputs.deps,
        &rows,
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Pipeline;
    use sga_cfront::parse;

    const LOOPY: &str = r#"
        int g;
        int inc(int x) { return x + 1; }
        int main() {
            int i;
            int a[10];
            for (i = 0; i < 10; i = inc(i)) {
                a[i] = i;
                g = g + i;
            }
            return g;
        }
    "#;

    /// The interval sparse solve of `staged`'s unit over `deps`, and
    /// [`validate_rows`]' verdict on its rows: the unit as the product would
    /// run and check it had dependency generation produced `deps`.
    fn validate_over(
        staged: &Pipeline<'_>,
        deps: &DataDeps,
        options: AnalyzeOptions,
    ) -> (SparseRows<AbsLoc, Value>, UnitValidation) {
        let (program, icfg, plan) = (staged.program, &staged.icfg, &staged.widening);
        let csr = CsrDeps::build(program, icfg, deps);
        let rows = sparse::solve_rows(program, icfg, &csr, &staged.spec(), plan, &options.budget);
        let verdict = validate_rows(program, &staged.pre, icfg, &staged.du, deps, &rows, options);
        (rows, verdict)
    }

    /// [`validate_rows`] of the unit staged as [`Pipeline::prepare`] stages it.
    fn validate(program: &Program, options: AnalyzeOptions) -> UnitValidation {
        let staged = Pipeline::prepare(program, options);
        validate_over(&staged, &staged.deps, options).1
    }

    /// `rows` without `cp`'s row.
    fn without(
        program: &Program,
        rows: &SparseRows<AbsLoc, Value>,
        cp: Cp,
    ) -> SparseRows<AbsLoc, Value> {
        let kept = rows.iter().filter(|&(at, _)| at != cp);
        let kept = kept.map(|(at, row)| {
            let row = row
                .iter()
                .map(|(r, v)| (rows.locs()[*r as usize], v.clone()));
            (at, row.collect::<Vec<_>>())
        });
        SparseRows::from_bindings(program, rows.locs().to_vec(), kept)
    }

    /// Everything a report says.
    fn report_line(c: &CheckReport) -> String {
        let found: Vec<String> = c.violations.iter().map(Violation::render).collect();
        format!("{} {} {} {found:?}", c.points, c.bindings, c.suppressed)
    }

    /// Everything a verdict says, check by check.
    fn verdict_lines(v: &UnitValidation) -> Vec<String> {
        let checks = v.checks().into_iter().map(report_line);
        checks
            .chain(v.extra.iter().map(Violation::render))
            .collect()
    }

    /// [`validate_unit`], the adapter over maps, is [`validate_rows`] over the
    /// rows those maps came from, on every `tests/alarms` unit and an
    /// SCC-heavy generated one: the whole verdict under the default options,
    /// and — since the interval check is the only one that reads the
    /// answer — its report over the maps' rows and over the solve's own
    /// with the bypass on and off, under a budget that degrades the solve,
    /// and on the rows with their last bound point dropped, where it
    /// reports violations.
    #[test]
    fn the_map_adapter_gives_the_rows_verdict() {
        let units = crate::sparse::differential::corpus().into_iter();
        let units = units.filter(|(name, _)| name.ends_with(".c") || name.ends_with("max_scc 18"));
        let units: Vec<_> = units.collect();
        assert!(units.iter().any(|(name, _)| name.starts_with("cgen")));
        let no_bypass = crate::depgen::DepGenOptions { bypass: false };
        let configs = [
            AnalyzeOptions::default(),
            AnalyzeOptions {
                depgen: no_bypass,
                ..AnalyzeOptions::default()
            },
            AnalyzeOptions {
                budget: Budget::with_max_steps(20),
                ..AnalyzeOptions::default()
            },
        ];
        let mut degraded = 0;
        for (name, program) in &units {
            for (k, options) in configs.into_iter().enumerate() {
                let staged = Pipeline::prepare(program, options);
                let (pre, du, deps) = (&staged.pre, &staged.du, &staged.deps);
                let rows = staged.solve(&options.budget).rows;
                degraded += usize::from(rows.degraded);
                let maps = rows.clone().into_result().values;
                if k == 0 {
                    let inputs = ValidationInputs {
                        pre,
                        du,
                        deps,
                        sparse_values: &maps,
                        degraded: rows.degraded,
                    };
                    let by_maps = validate_unit(program, &inputs, options);
                    let by_rows =
                        validate_rows(program, pre, &staged.icfg, du, deps, &rows, options);
                    assert_eq!(verdict_lines(&by_maps), verdict_lines(&by_rows), "{name}");
                    assert!(by_rows.is_valid(), "{name}");
                }
                let victim = rows.iter().filter(|(_, row)| !row.is_empty()).last();
                let dropped = without(program, &rows, victim.expect("some point is bound").0);
                let mut dropped_maps = maps.clone();
                dropped_maps.retain(|cp, _| dropped.row(*cp).is_some());
                for (rows, maps, clean) in [(rows, maps, true), (dropped, dropped_maps, false)] {
                    let converted = crate::interval::rows_of_maps(program, deps, du, maps.iter());
                    let check =
                        |rows| check_sparse_post_fixpoint(program, deps, &staged.spec(), rows);
                    let by_rows = check(&rows);
                    let what = format!("{name}, {options:?}, clean {clean}");
                    assert_eq!(
                        report_line(&check(&converted)),
                        report_line(&by_rows),
                        "{what}"
                    );
                    assert_eq!(by_rows.violations.is_empty(), clean, "{what}");
                }
            }
        }
        assert!(degraded > 0, "no solve degraded");
    }

    #[test]
    fn clean_program_validates() {
        let program = parse(LOOPY).unwrap();
        let v = validate(&program, AnalyzeOptions::default());
        assert!(
            v.is_valid(),
            "unexpected violations: {:?}",
            v.violations().map(Violation::render).collect::<Vec<_>>()
        );
        assert!(v.interval.points > 0 && v.interval.bindings > 0);
        assert!(v.octagon.points > 0);
        assert!(v.defuse.bindings > 0);
        assert!(v.lemma1.points > 0 && v.lemma1.bindings > 0);
    }

    #[test]
    fn degraded_result_is_still_a_post_fixpoint() {
        let program = parse(LOOPY).unwrap();
        let options = AnalyzeOptions {
            budget: Budget::with_max_steps(5),
            ..AnalyzeOptions::default()
        };
        let staged = Pipeline::prepare(&program, options);
        let (solved, v) = validate_over(&staged, &staged.deps, options);
        assert!(solved.degraded, "budget of 5 steps must degrade this loop");
        assert!(
            v.is_valid(),
            "degraded result must still pass: {:?}",
            v.violations().map(Violation::render).collect::<Vec<_>>()
        );
        assert!(v.lemma1.bindings > 0, "lemma1 checks degraded units too");
    }

    #[test]
    fn broken_result_is_caught_by_the_post_fixpoint_check() {
        let program = parse(LOOPY).unwrap();
        let options = AnalyzeOptions::default();
        let staged = Pipeline::prepare(&program, options);
        let solved = staged.solve(&options.budget).rows;

        // Sabotage: drop one point's stored row. The transfer pass
        // re-derives its bindings from the (unchanged) inputs, so the oracle
        // must see bindings that are ⋢ the (now missing) stored state.
        let bound = solved.iter().filter(|(_, row)| !row.is_empty());
        let victim = bound.map(|(cp, _)| cp).max().expect("some point is bound");
        let broken = without(&program, &solved, victim);
        assert!(broken.row(victim).is_none());

        let report = check_sparse_post_fixpoint(&program, &staged.deps, &staged.spec(), &broken);
        assert!(
            !report.violations.is_empty(),
            "dropping {victim}'s bindings must violate f\u{302}(X\u{302}) \u{2291} X\u{302}"
        );
        assert_eq!(report.violations[0].kind, CheckKind::PostFixpoint);
    }

    #[test]
    fn generated_corpus_units_validate_cleanly() {
        // The same seeds the pipeline tests and the benchmark corpus use:
        // interprocedural generated code, where call/return routing and the
        // bypass are exercised most, is Lemma 1's real proving ground.
        for seed in [11u64, 12, 0xFEED] {
            let source = sga_cgen::generate(&sga_cgen::GenConfig::sized(seed, 1));
            let program = parse(&source).unwrap();
            let v = validate(&program, AnalyzeOptions::default());
            assert!(
                v.is_valid(),
                "seed {seed}: {:?}",
                v.violations().map(Violation::render).collect::<Vec<_>>()
            );
        }
    }

    /// A lost flow: dependency generation dropping edges. The interval
    /// solve and its post-fixpoint re-check read the same broken relation,
    /// so only Lemma 1 can see it. Over a sample of single-edge drops from a
    /// generated unit, some drop makes [`validate_unit`] report a `lemma1`
    /// violation, and the unmutated relation reports none.
    #[test]
    fn dropped_dependency_edges_are_caught_by_lemma1() {
        let source = sga_cgen::generate(&sga_cgen::GenConfig::sized(11, 1));
        let program = parse(&source).unwrap();
        let options = AnalyzeOptions::default();
        let staged = Pipeline::prepare(&program, options);
        let (_, intact) = validate_over(&staged, &staged.deps, options);
        assert!(intact.is_valid() && intact.lemma1.bindings > 0);

        let mut edges: Vec<(Cp, u32, Cp)> = staged.deps.iter().collect();
        edges.sort_unstable();
        let stride = edges.len() / 41 + 1;
        let caught = edges.iter().step_by(stride).any(|&(from, loc, to)| {
            let deps = staged.deps.without(from, loc, to);
            validate_over(&staged, &deps, options)
                .1
                .violations()
                .any(|v| v.kind == CheckKind::Lemma1)
        });
        assert!(caught, "no sampled edge drop was caught by lemma1");
    }

    #[test]
    fn defuse_side_condition_holds_on_parsed_programs() {
        let program = parse(LOOPY).unwrap();
        let pre = crate::preanalysis::run(&program);
        let du = crate::defuse::compute(&program, &pre);
        let report = check_defuse_side_condition(&program, &du);
        assert!(report.violations.is_empty());
        assert!(report.bindings > 0);
    }
}
