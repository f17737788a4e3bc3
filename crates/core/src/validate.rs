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
//! 2. **Lemma 1.** The sparse and dense fixpoints agree on defined
//!    entries — the sparse value of `l ∈ D̂(c)` and the dense value at the
//!    same point must describe the same concrete states. Widening-point
//!    placement differs between the engines (WTO heads vs dependency
//!    cycles), so the two *iteration sequences* may settle on different
//!    but comparable post-fixpoints; [`check_lemma1_interval`] therefore
//!    counts comparable disagreement as `drift` and flags only
//!    ⊑-incomparable bindings — those cannot both over-approximate one
//!    least fixpoint trajectory and indicate a transfer/propagation bug.
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
use crate::defuse::DefUse;
use crate::depgen::DataDeps;
use crate::depstore::solved_points;
use crate::interval::{self, AnalyzeOptions, Engine, IntervalResult, IntervalSparseSpec};
use crate::preanalysis::{self, PreAnalysis};
use crate::sparse::SparseSpec;
use sga_domains::lattice::Lattice;
use sga_domains::{AbsLoc, Value};
use sga_ir::{Cmd, Cp, Program};
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
    /// Sparse and dense bindings are ⊑-incomparable on a defined entry
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

/// Outcome of the Lemma 1 cross-check.
#[derive(Clone, Debug, Default)]
pub struct Lemma1Report {
    /// Defined-entry bindings compared.
    pub bindings: usize,
    /// Bindings where sparse and dense agree exactly.
    pub equal: usize,
    /// Comparable-but-unequal bindings (different widening-point placement;
    /// informational, not a violation).
    pub drift: usize,
    /// Whether the check was skipped (degraded fixpoints stop at
    /// strategy-dependent post-fixpoints, so cross-engine comparison says
    /// nothing).
    pub skipped: bool,
    /// ⊑-incomparable bindings — genuine violations.
    pub violations: Vec<Violation>,
    /// Violations beyond the cap.
    pub suppressed: usize,
}

/// Everything the oracle found about one unit.
#[derive(Clone, Debug, Default)]
pub struct UnitValidation {
    /// Post-fixpoint check over the interval sparse result.
    pub interval: CheckReport,
    /// Post-fixpoint check over the octagon sparse result.
    pub octagon: CheckReport,
    /// Sparse-vs-dense cross-check (interval domain).
    pub lemma1: Lemma1Report,
    /// Def. 5 side-condition check.
    pub defuse: CheckReport,
    /// Driver-level violations (cache cross-check).
    pub extra: Vec<Violation>,
}

impl UnitValidation {
    /// All violations, in deterministic report order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> + '_ {
        self.interval
            .violations
            .iter()
            .chain(&self.octagon.violations)
            .chain(&self.lemma1.violations)
            .chain(&self.defuse.violations)
            .chain(&self.extra)
    }

    /// Violations dropped by the per-check caps.
    pub fn suppressed(&self) -> usize {
        self.interval.suppressed
            + self.octagon.suppressed
            + self.lemma1.suppressed
            + self.defuse.suppressed
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
pub fn check_sparse_post_fixpoint<S: SparseSpec>(
    program: &Program,
    deps: &DataDeps,
    spec: &S,
    values: &FxHashMap<Cp, PMap<S::L, S::V>>,
) -> CheckReport {
    let main_entry = Cp::new(program.main, program.procs[program.main].entry);
    let gather = |edges: &[(u32, Cp)], mut acc: PMap<S::L, S::V>| -> PMap<S::L, S::V> {
        for &(loc_id, from) in edges {
            let l = spec.loc_of(loc_id);
            if let Some(v) = values.get(&from).and_then(|m| m.get(&l)) {
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
        let stored = values.get(&cp);
        for (l, v) in &out {
            report.bindings += 1;
            let holds = match stored.and_then(|m| m.get(l)) {
                Some(s) => v.le(s),
                None => v.le(&S::V::bottom()),
            };
            if !holds {
                report.push(Violation::new(
                    CheckKind::PostFixpoint,
                    format!(
                        "{cp}: {l:?}: f\u{302}(X\u{302}) = {v:?} \u{22d4} stored {:?}",
                        stored.and_then(|m| m.get(l))
                    ),
                ));
            }
        }
    }
    report
}

/// Cross-checks sparse vs dense interval bindings on defined entries
/// (Lemma 1). Call points are skipped — the sparse engine parks parameter
/// and relay bindings there that the dense engine scopes differently.
/// Exact agreement is counted as `equal`, comparable disagreement (the
/// engines widen at different point sets, so one may settle slightly above
/// the other) as `drift`, and only ⊑-*incomparable* bindings — which no
/// widening-placement argument can explain — become violations.
pub fn check_lemma1_interval(
    program: &Program,
    sparse: &FxHashMap<Cp, PMap<AbsLoc, Value>>,
    dense: &IntervalResult,
) -> Lemma1Report {
    let mut report = Lemma1Report::default();
    for cp in solved_points(program) {
        if matches!(program.cmd(cp), Cmd::Call { .. }) {
            continue;
        }
        let Some(bindings) = sparse.get(&cp) else {
            continue;
        };
        for (l, sv) in bindings.iter() {
            report.bindings += 1;
            let dv = dense.value_at(cp, l);
            if *sv == dv {
                report.equal += 1;
            } else if sv.le(&dv) || dv.le(sv) {
                report.drift += 1;
            } else if report.violations.len() < MAX_VIOLATIONS {
                report.violations.push(Violation::new(
                    CheckKind::Lemma1,
                    format!("{cp}: {l:?}: sparse {sv:?} incomparable with dense {dv:?}"),
                ));
            } else {
                report.suppressed += 1;
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
        let Some(sets) = du.sets.get(&cp) else {
            continue;
        };
        report.points += 1;
        for l in &sets.defs {
            report.bindings += 1;
            if sets.real_defs.binary_search(l).is_err() && sets.uses.binary_search(l).is_err() {
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

/// Runs the octagon sparse analysis under `options` and post-fixpoint-checks
/// its result (the octagon spec types are private to [`crate::octagon`], so
/// the solve-then-check glue lives there).
pub fn check_octagon_sparse(program: &Program, options: AnalyzeOptions) -> CheckReport {
    crate::octagon::sparse_post_fixpoint_check(program, &preanalysis::run(program), options)
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
    /// Whether the solve degraded (skips the Lemma 1 cross-check).
    pub degraded: bool,
}

/// Runs all three oracle checks against one unit: the post-fixpoint check
/// over the given interval result *and* over a freshly solved octagon
/// result (both under `options.budget`, so degraded units are validated in
/// their degraded form), the Lemma 1 sparse-vs-dense cross-check (exact
/// fixpoints only — the dense reference runs unbounded), and the Def. 5
/// side condition.
pub fn validate_unit(
    program: &Program,
    inputs: &ValidationInputs<'_>,
    options: AnalyzeOptions,
) -> UnitValidation {
    let spec = IntervalSparseSpec {
        program,
        pre: inputs.pre,
        du: inputs.du,
    };
    let interval_report =
        check_sparse_post_fixpoint(program, inputs.deps, &spec, inputs.sparse_values);
    let octagon_report = crate::octagon::sparse_post_fixpoint_check(program, inputs.pre, options);
    let lemma1 = if inputs.degraded {
        Lemma1Report {
            skipped: true,
            ..Lemma1Report::default()
        }
    } else {
        // The dense reference must be an exact fixpoint: a budget that the
        // sparse solve survived could still degrade the (more iteration-
        // hungry) dense solve and ruin comparability.
        let dense = interval::analyze_with(
            program,
            Engine::Base,
            AnalyzeOptions {
                budget: Budget::unbounded(),
                ..options
            },
        );
        check_lemma1_interval(program, inputs.sparse_values, &dense)
    };
    let defuse = check_defuse_side_condition(program, inputs.du);
    UnitValidation {
        interval: interval_report,
        octagon: octagon_report,
        lemma1,
        defuse,
        extra: Vec::new(),
    }
}

/// Self-contained validation of one program: runs the interval sparse
/// analysis itself, then [`validate_unit`]. Entry point for callers without
/// a staged pipeline (tests, one-shot audits).
pub fn validate_program(program: &Program, options: AnalyzeOptions) -> UnitValidation {
    let ValidationParts {
        pre,
        du,
        deps,
        values,
        degraded,
    } = solve_for_validation(program, options);
    validate_unit(
        program,
        &ValidationInputs {
            pre: &pre,
            du: &du,
            deps: &deps,
            sparse_values: &values,
            degraded,
        },
        options,
    )
}

/// Owned artifacts of one interval sparse solve (see
/// [`solve_for_validation`]).
pub struct ValidationParts {
    /// Pre-analysis result.
    pub pre: PreAnalysis,
    /// Def/use sets.
    pub du: DefUse,
    /// Dependency edges.
    pub deps: DataDeps,
    /// Final sparse values.
    pub values: FxHashMap<Cp, PMap<AbsLoc, Value>>,
    /// Whether the solve degraded.
    pub degraded: bool,
}

/// Runs the interval sparse analysis and returns everything the oracle
/// needs, still warm.
pub fn solve_for_validation(program: &Program, options: AnalyzeOptions) -> ValidationParts {
    use crate::widening::WideningPlan;
    use crate::{defuse, depgen, icfg::Icfg, preanalysis, sparse};

    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let du = defuse::compute(program, &pre);
    let deps = depgen::generate(program, &pre, &du, options.depgen);
    let spec = IntervalSparseSpec {
        program,
        pre: &pre,
        du: &du,
    };
    let plan = WideningPlan::for_program(program, options.widening);
    let solved = sparse::solve(program, &icfg, &deps, &spec, &plan, &options.budget);
    ValidationParts {
        values: solved.values,
        degraded: solved.degraded,
        pre,
        du,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn clean_program_validates() {
        let program = parse(LOOPY).unwrap();
        let v = validate_program(&program, AnalyzeOptions::default());
        assert!(
            v.is_valid(),
            "unexpected violations: {:?}",
            v.violations().map(Violation::render).collect::<Vec<_>>()
        );
        assert!(v.interval.points > 0 && v.interval.bindings > 0);
        assert!(v.octagon.points > 0);
        assert!(v.defuse.bindings > 0);
        assert!(!v.lemma1.skipped && v.lemma1.bindings > 0);
    }

    #[test]
    fn degraded_result_is_still_a_post_fixpoint() {
        let program = parse(LOOPY).unwrap();
        let options = AnalyzeOptions {
            budget: Budget::with_max_steps(5),
            ..AnalyzeOptions::default()
        };
        let parts = solve_for_validation(&program, options);
        assert!(parts.degraded, "budget of 5 steps must degrade this loop");
        let v = validate_program(&program, options);
        assert!(
            v.is_valid(),
            "degraded result must still pass: {:?}",
            v.violations().map(Violation::render).collect::<Vec<_>>()
        );
        assert!(v.lemma1.skipped, "lemma1 is skipped for degraded units");
    }

    #[test]
    fn broken_result_is_caught_by_the_post_fixpoint_check() {
        let program = parse(LOOPY).unwrap();
        let options = AnalyzeOptions::default();
        let mut parts = solve_for_validation(&program, options);

        // Sabotage: drop one point's stored bindings. The transfer pass
        // re-derives them from the (unchanged) inputs, so the oracle must
        // see bindings that are ⋢ the (now missing) stored state.
        let victim = {
            let mut cps: Vec<Cp> = parts
                .values
                .iter()
                .filter(|(_, m)| !m.is_empty())
                .map(|(cp, _)| *cp)
                .collect();
            cps.sort();
            *cps.last().expect("analysis bound at least one point")
        };
        parts.values.remove(&victim);

        let spec = IntervalSparseSpec {
            program: &program,
            pre: &parts.pre,
            du: &parts.du,
        };
        let report = check_sparse_post_fixpoint(&program, &parts.deps, &spec, &parts.values);
        assert!(
            !report.violations.is_empty(),
            "dropping {victim}'s bindings must violate f\u{302}(X\u{302}) \u{2291} X\u{302}"
        );
        assert_eq!(report.violations[0].kind, CheckKind::PostFixpoint);
    }

    #[test]
    fn generated_corpus_units_validate_cleanly() {
        // The same seeds the pipeline tests and the benchmark corpus use:
        // interprocedural generated code is where sparse/dense widening
        // placement differs most, so this is the oracle's real proving
        // ground for "drift is comparable, never incomparable".
        for seed in [11u64, 12, 0xFEED] {
            let source = sga_cgen::generate(&sga_cgen::GenConfig::sized(seed, 1));
            let program = parse(&source).unwrap();
            let v = validate_program(&program, AnalyzeOptions::default());
            assert!(
                v.is_valid(),
                "seed {seed}: {:?}",
                v.violations().map(Violation::render).collect::<Vec<_>>()
            );
        }
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
