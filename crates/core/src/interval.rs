//! The interval-domain analyzers of §6.1: `Interval_vanilla`,
//! `Interval_base`, and `Interval_sparse`.
//!
//! * **vanilla** — the global dense analysis: whole abstract states flow
//!   along every ICFG edge, including through callees.
//! * **base** — vanilla plus *access-based localization* \[38\]: a call passes
//!   the callee only the locations it (transitively) accesses; the rest of
//!   the caller's state meets the callee's effects at the return point.
//!   This is the paper's baseline, "not a straw-man".
//! * **sparse** — the analysis derived by the framework: pre-analysis,
//!   D̂/Û approximation, dependency generation, sparse fixpoint.
//!
//! All three share the transfer functions of [`crate::semantics`]; `sparse`
//! preserves `base`'s precision on every `D̂(c)` entry (Lemma 2), which the
//! workspace's integration tests assert program-by-program.

use crate::budget::Budget;
use crate::defuse::{self, DefUse};
use crate::dense::{self, DenseSpec};
use crate::depgen::{self, DataDeps, DepGenOptions};
use crate::depstore::{CsrDeps, DepBackend};
use crate::icfg::Icfg;
use crate::preanalysis::{self, PreAnalysis};
use crate::semantics::{self, Env};
use crate::sparse::{self, Row, SparseRows, SparseSpec};
use crate::stats::AnalysisStats;
use crate::widening::{WideningConfig, WideningPlan};
use sga_domains::{AbsLoc, Lattice, LocSet, State, Thresholds, Value};
use sga_ir::{Cmd, Cp, Expr, LVal, ProcId, Program};
use sga_utils::stats::{peak_rss_bytes, Phase};
use sga_utils::{FxHashMap, IndexVec, PMap};
use std::borrow::Cow;
use std::cell::OnceCell;

/// Which analyzer to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Global dense analysis without localization.
    Vanilla,
    /// Dense analysis with access-based localization (the baseline).
    Base,
    /// The sparse analysis derived by the framework.
    Sparse,
}

/// Extra knobs for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzeOptions {
    /// Dependency-generation options (sparse only).
    pub depgen: DepGenOptions,
    /// Read by nothing (there is one store); stays because the frozen
    /// benchmark harness writes this struct as an exhaustive literal.
    pub dep_backend: DepBackend,
    /// Derive D̂/Û in the semi-sparse regime (§3.2's Hardekopf & Lin
    /// instance): only top-level variables treated sparsely.
    pub semi_sparse: bool,
    /// Widening strategy applied at cycle heads / widening points.
    pub widening: WideningConfig,
    /// Work budget for the fixpoint; on exhaustion the solve degrades
    /// soundly and `stats.degraded` is set.
    pub budget: Budget,
}

/// An interval analysis result.
#[derive(Debug)]
pub struct IntervalResult {
    /// The engine that produced it.
    pub engine: Engine,
    /// Post-states per control point. Dense engines bind every location
    /// they saw; the sparse engine binds exactly `D̂(c)` (Lemma 1's
    /// guarantee covers those entries).
    pub values: FxHashMap<Cp, State>,
    /// Phase statistics.
    pub stats: AnalysisStats,
}

impl IntervalResult {
    /// The abstract value of `l` in the post-state of `cp` (⊥ if unbound).
    pub fn value_at(&self, cp: Cp, l: &AbsLoc) -> Value {
        self.values.get(&cp).map_or_else(Value::bot, |s| s.get(l))
    }

    /// The post-state at `cp` (empty if nothing reached it).
    pub fn state_at(&self, cp: Cp) -> State {
        self.values.get(&cp).cloned().unwrap_or_default()
    }
}

/// The sparse interval solve's answer as the engine holds it — one
/// rank-keyed row per point ([`SparseRows`]) — with the staging's and the
/// solve's statistics. [`Pipeline::inputs`] reads it as it is;
/// [`SparseSolution::into_result`] is the conversion to the [`State`] map of
/// an [`IntervalResult`].
#[derive(Debug)]
pub struct SparseSolution {
    /// The rows, keyed by the ranks of the relation they were solved over.
    pub rows: SparseRows<AbsLoc, Value>,
    /// Phase statistics.
    pub stats: AnalysisStats,
}

impl SparseSolution {
    /// The rows as the [`State`] map of an [`IntervalResult`], each row
    /// freed as its state is built.
    pub fn into_result(self) -> IntervalResult {
        let mut values = FxHashMap::default();
        values.reserve(self.rows.evaluated());
        let states = self.rows.into_pmaps();
        values.extend(states.map(|(cp, m)| (cp, State::from_pmap(m))));
        IntervalResult {
            engine: Engine::Sparse,
            values,
            stats: self.stats,
        }
    }
}

/// Runs the chosen interval analyzer with default options.
pub fn analyze(program: &Program, engine: Engine) -> IntervalResult {
    analyze_with(program, engine, AnalyzeOptions::default())
}

/// Runs the chosen interval analyzer: [`analyze_staged`]'s answer as an
/// [`IntervalResult`]. `total_time` and `peak_mem_bytes` include building
/// that result.
pub fn analyze_with(program: &Program, engine: Engine, options: AnalyzeOptions) -> IntervalResult {
    let total = Phase::start("total");
    let mut result = analyze_staged(program, engine, options).into_result();
    result.stats.total_time = total.stop();
    result.stats.peak_mem_bytes = peak_rss_bytes();
    result
}

/// Runs the chosen interval analyzer and hands back its answer as the
/// engine holds it, with what the engine staged, so a caller that checks
/// the answer reads its inputs through [`Solved::inputs`] instead of
/// staging the unit again.
pub fn analyze_staged(program: &Program, engine: Engine, options: AnalyzeOptions) -> Solved<'_> {
    let total = Phase::start("total");
    let mut solved = match engine {
        Engine::Vanilla | Engine::Base => {
            let (result, staged) = analyze_dense(program, engine, options);
            Solved::Dense(Box::new(staged), result)
        }
        Engine::Sparse => {
            let staged = Pipeline::prepare(program, options);
            let solution = staged.solve(&options.budget);
            Solved::Sparse(Box::new(staged), solution)
        }
    };
    let stats = match &mut solved {
        Solved::Sparse(_, solution) => &mut solution.stats,
        Solved::Dense(_, result) => &mut result.stats,
    };
    stats.total_time = total.stop();
    stats.peak_mem_bytes = peak_rss_bytes();
    solved
}

/// A unit [`analyze_staged`] solved: the engine's answer and what the
/// engine staged for it.
pub enum Solved<'p> {
    /// The sparse chain and its rows.
    Sparse(Box<Pipeline<'p>>, SparseSolution),
    /// A dense engine's pre-analysis, ICFG, def/use sets and localization,
    /// and its post-states.
    Dense(Box<DenseStaging<'p>>, IntervalResult),
}

impl<'p> Solved<'p> {
    /// The engine that solved the unit.
    pub fn engine(&self) -> Engine {
        match self {
            Solved::Sparse(..) => Engine::Sparse,
            Solved::Dense(_, result) => result.engine,
        }
    }

    /// Phase statistics.
    pub fn stats(&self) -> &AnalysisStats {
        match self {
            Solved::Sparse(_, solution) => &solution.stats,
            Solved::Dense(_, result) => &result.stats,
        }
    }

    /// The pre-analysis the answer was computed from.
    pub fn pre(&self) -> &PreAnalysis {
        match self {
            Solved::Sparse(staged, _) => &staged.pre,
            Solved::Dense(staged, _) => &staged.pre,
        }
    }

    /// The inputs of the answer, read as its engine computed them.
    pub fn inputs(&self) -> Inputs<'_> {
        match self {
            Solved::Sparse(staged, solution) => staged.inputs(solution),
            Solved::Dense(staged, result) => staged.inputs(result),
        }
    }

    /// The post-state at `cp` (empty if nothing reached it), as
    /// [`IntervalResult::state_at`] gives it.
    pub fn state_at(&self, cp: Cp) -> State {
        match self {
            Solved::Sparse(_, solution) => {
                let rows = &solution.rows;
                let row = rows.row(cp).unwrap_or_default().iter();
                let bound = row.map(|(r, v)| (rows.locs()[*r as usize], v.clone()));
                State::from_pmap(PMap::from_sorted_vec(bound.collect()))
            }
            Solved::Dense(_, result) => result.state_at(cp),
        }
    }

    /// The answer as an [`IntervalResult`], the staging freed first.
    pub fn into_result(self) -> IntervalResult {
        match self {
            Solved::Sparse(staged, solution) => {
                drop(staged);
                solution.into_result()
            }
            Solved::Dense(_, result) => result,
        }
    }
}

/// A dense engine's staging: what its solve ran over, kept for the reads
/// of [`Inputs`].
pub struct DenseStaging<'p> {
    program: &'p Program,
    pre: PreAnalysis,
    icfg: Icfg,
    /// The base engine's def/use sets; vanilla's solve needs none, so they
    /// are computed at the first read of [`DenseStaging::inputs`].
    du: OnceCell<DefUse>,
    spec: IntervalDenseSpec<'p>,
}

impl DenseStaging<'_> {
    /// The inputs of `result`, read through the engine's own edge transfer.
    pub fn inputs<'a>(&'a self, result: &'a IntervalResult) -> Inputs<'a> {
        let du = (self.du).get_or_init(|| defuse::compute(self.program, &self.pre));
        Inputs {
            program: self.program,
            icfg: &self.icfg,
            du,
            degraded: result.stats.degraded,
            source: InputSource::Dense(Cow::Borrowed(&self.spec), &result.values),
        }
    }
}

/// The dense engines: whole states along every ICFG edge, localized by the
/// def/use access summaries for `base`. `pre` times the pre-analysis and
/// the ICFG, as [`Pipeline::prepare`] does.
fn analyze_dense(
    program: &Program,
    engine: Engine,
    options: AnalyzeOptions,
) -> (IntervalResult, DenseStaging<'_>) {
    let pre_phase = Phase::start("pre");
    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let mut stats = AnalysisStats {
        widening: options.widening.strategy.name(),
        ..AnalysisStats::default()
    };
    stats.record_pre(&pre, pre_phase.stop());
    let du = (engine == Engine::Base).then(|| defuse::compute(program, &pre));
    if let Some(du) = &du {
        stats.record_defuse(du);
    }
    let spec = IntervalDenseSpec::new(program, du.as_ref());
    let plan = WideningPlan::for_program(program, options.widening);
    let fix = Phase::start("fix");
    let result = dense::solve_with(program, &icfg, &spec, &plan, &options.budget);
    stats.fix_time = fix.stop();
    stats.iterations = result.iterations;
    stats.degraded = result.degraded;
    let result = IntervalResult {
        engine,
        values: result.post,
        stats,
    };
    let du = du.map_or_else(OnceCell::new, OnceCell::from);
    let staged = DenseStaging {
        program,
        pre,
        icfg,
        du,
        spec,
    };
    (result, staged)
}

/// The sparse interval chain of one program, staged once: pre-analysis and
/// the ICFG, `D̂`/`Û`, the dependency relation (§2.6) and the widening
/// plan. It is the one staging of that chain: [`analyze_with`]'s sparse
/// engine, the batch driver's units, the CLI's checks and the differential
/// oracle each [`Pipeline::prepare`] a unit once, [`Pipeline::solve`] it,
/// and read what reaches a use through [`Pipeline::inputs`].
pub struct Pipeline<'p> {
    /// The analyzed program.
    pub program: &'p Program,
    /// Pre-analysis result.
    pub pre: PreAnalysis,
    /// Interprocedural CFG.
    pub icfg: Icfg,
    /// Def/use sets (semi-sparse under [`AnalyzeOptions::semi_sparse`]).
    pub du: DefUse,
    /// Data dependencies.
    pub deps: DataDeps,
    /// The widening plan resolved against the program.
    pub widening: WideningPlan,
    /// What staging counted and timed, which every solve's statistics start
    /// from: pre-analysis work, the def/use table sizes, the relation's
    /// edges and walks, the widening strategy, and `pre_time` (pre-analysis
    /// and ICFG), `defuse_time` and `dep_time` (def/use and dependency
    /// generation).
    pub stats: AnalysisStats,
}

impl<'p> Pipeline<'p> {
    /// Runs pre-analysis, the ICFG build, def/use, dependency generation
    /// and threshold harvesting.
    pub fn prepare(program: &'p Program, options: AnalyzeOptions) -> Pipeline<'p> {
        let pre_phase = Phase::start("pre");
        let pre = preanalysis::run(program);
        let icfg = Icfg::build(program, &pre);
        let mut stats = AnalysisStats {
            widening: options.widening.strategy.name(),
            ..AnalysisStats::default()
        };
        stats.record_pre(&pre, pre_phase.stop());
        let dep_phase = Phase::start("dep");
        let du = if options.semi_sparse {
            let coarse = preanalysis::coarsen_semi_sparse(program, &pre.state);
            defuse::compute_with_state(program, &pre, &coarse)
        } else {
            defuse::compute(program, &pre)
        };
        stats.defuse_time = dep_phase.elapsed();
        let deps = depgen::generate(program, &pre, &du, options.depgen);
        stats.dep_time = dep_phase.stop();
        stats.record_defuse(&du);
        stats.dep_edges_raw = deps.stats.raw_edges;
        stats.dep_edges = deps.stats.final_edges;
        stats.dep_walk_visits = deps.stats.walk_visits;
        stats.dep_walk_defs = deps.stats.walk_defs;
        let widening = WideningPlan::for_program(program, options.widening);
        Pipeline {
            program,
            pre,
            icfg,
            du,
            deps,
            widening,
            stats,
        }
    }

    /// The interval instance of the sparse engine over this staging.
    pub fn spec(&self) -> IntervalSparseSpec<'_> {
        IntervalSparseSpec {
            program: self.program,
            pre: &self.pre,
            du: &self.du,
        }
    }

    /// The sparse fixpoint over the staged relation under `budget`, as the
    /// engine's rows. Its statistics are the staging's plus the solve's:
    /// `fix_time`, `iterations`, `fix_work` and `degraded`.
    pub fn solve(&self, budget: &Budget) -> SparseSolution {
        let fix = Phase::start("fix");
        let (program, plan) = (self.program, &self.widening);
        let csr = CsrDeps::build(program, &self.icfg, &self.deps);
        let rows = sparse::solve_rows(program, &self.icfg, &csr, &self.spec(), plan, budget);
        drop(csr);
        SparseSolution {
            stats: AnalysisStats {
                fix_time: fix.stop(),
                iterations: rows.iterations,
                fix_work: rows.work,
                degraded: rows.degraded,
                ..self.stats.clone()
            },
            rows,
        }
    }

    /// The inputs of `solved`, a [`Pipeline::solve`] of this staging, read
    /// off its rows through the relation it was solved over.
    pub fn inputs<'a>(&'a self, solved: &'a SparseSolution) -> Inputs<'a> {
        Inputs {
            program: self.program,
            icfg: &self.icfg,
            du: &self.du,
            degraded: solved.stats.degraded,
            source: InputSource::InEdges(&self.deps, Cow::Borrowed(&solved.rows)),
        }
    }
}

// ---------------------------------------------------------------------------
// What reaches a use
// ---------------------------------------------------------------------------

/// The one answer to "what value of `l` reaches `cp`": the input the engine
/// that produced a result computed at `cp` — by Lemma 1, the join over its
/// dependency in-edges. The checkers and the path layer of triage read a
/// value before a point through [`Inputs::value`] and nothing else.
///
/// * **Sparse:** the join of `cp`'s pre-flow in-edges for `l`
///   ([`DataDeps::defs_reaching`]), plus the main-entry seed — the engine's own
///   gather, read after the solve off its rows, each bisected by `l`'s rank.
///   Return edges are not read, so call arguments see pre-call values, as
///   the call transfer does.
/// * **Dense:** [`dense::input`] over the stored post-states, which follows
///   the ICFG through the engine's own edge transfer: a return point sees
///   the callee.
///
/// ⊥ means no value reaches the read — the analysis proved it unreachable,
/// or (sparse) `l ∉ Û(cp)`, which has no in-edges.
pub struct Inputs<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// The program's ICFG.
    pub icfg: &'a Icfg,
    /// The program's def/use sets, whose location table numbers `deps`.
    pub du: &'a DefUse,
    /// Whether the fixpoint the inputs are read from ran out of its budget.
    pub degraded: bool,
    source: InputSource<'a>,
}

enum InputSource<'a> {
    /// A sparse answer's rows, ranked as the relation ranks its locations.
    InEdges(&'a DataDeps, Cow<'a, SparseRows<AbsLoc, Value>>),
    /// A dense engine and its post-states.
    Dense(Cow<'a, IntervalDenseSpec<'a>>, &'a FxHashMap<Cp, State>),
}

impl<'a> Inputs<'a> {
    /// The inputs of `result`. A sparse result is read through `deps`: the
    /// relation it was solved over, or any relation generated with the
    /// bypass on — its edges all start at real definitions, which a sparse
    /// solve binds alike whatever its bypass setting. Its states are
    /// converted to rows over `deps`' ranks here, once: the rows are what
    /// [`Inputs::value`] reads. Dense results ignore `deps`.
    ///
    /// # Panics
    ///
    /// Panics if `result` is sparse and `deps` is `None`.
    pub fn new(
        program: &'a Program,
        result: &'a IntervalResult,
        icfg: &'a Icfg,
        du: &'a DefUse,
        deps: Option<&'a DataDeps>,
    ) -> Inputs<'a> {
        let source = match result.engine {
            Engine::Sparse => {
                let deps = deps.expect("a sparse result is read through its dependency in-edges");
                let (_, locs) = sparse::rank_tables(deps.loc_rank(), |id| du.locs.loc(id));
                let states = result.values.iter();
                let bindings = states.map(|(cp, s)| (*cp, s.iter().map(|(l, v)| (*l, v.clone()))));
                let rows = SparseRows::from_bindings(program, locs, bindings);
                InputSource::InEdges(deps, Cow::Owned(rows))
            }
            Engine::Base => InputSource::Dense(
                Cow::Owned(IntervalDenseSpec::new(program, Some(du))),
                &result.values,
            ),
            Engine::Vanilla => InputSource::Dense(
                Cow::Owned(IntervalDenseSpec::new(program, None)),
                &result.values,
            ),
        };
        Inputs {
            program,
            icfg,
            du,
            degraded: result.stats.degraded,
            source,
        }
    }

    /// The value of `l` flowing into `cp` (⊥ if none does).
    pub fn value(&self, cp: Cp, l: &AbsLoc) -> Value {
        let program = self.program;
        match &self.source {
            InputSource::InEdges(deps, rows) => {
                let main_entry = Cp::new(program.main, program.procs[program.main].entry);
                let mut acc = if cp == main_entry {
                    initial_state(program).get(l)
                } else {
                    Value::bot()
                };
                let Some(id) = self.du.locs.id(l) else {
                    return acc;
                };
                let r = deps.loc_rank()[id as usize];
                debug_assert!(rows.locs()[r as usize] == *l, "the rows are ranked as deps");
                for &(_, from) in deps.defs_reaching(cp, id) {
                    if let Some(v) = rows.get(from, r) {
                        acc = acc.join(v);
                    }
                }
                acc
            }
            InputSource::Dense(spec, values) => {
                dense::input(program, self.icfg, &**spec, values, cp).get(l)
            }
        }
    }
}

/// The ICFG, def/use sets and — for a sparse result — bypass-on dependency
/// relation that [`Inputs`] over a result of `engine` reads, computed from
/// scratch for callers that hold none of them.
pub fn stage_inputs(
    program: &Program,
    pre: &PreAnalysis,
    engine: Engine,
) -> (Icfg, DefUse, Option<DataDeps>) {
    let icfg = Icfg::build(program, pre);
    let du = defuse::compute(program, pre);
    let deps = (engine == Engine::Sparse)
        .then(|| depgen::generate(program, pre, &du, DepGenOptions::default()));
    (icfg, du, deps)
}

/// `f` over the inputs of `engine`'s result for `program`, everything
/// staged from scratch.
#[cfg(test)]
pub(crate) fn with_inputs<T>(program: &Program, engine: Engine, f: impl FnOnce(&Inputs) -> T) -> T {
    let pre = preanalysis::run(program);
    let result = analyze(program, engine);
    let (icfg, du, deps) = stage_inputs(program, &pre, engine);
    f(&Inputs::new(program, &result, &icfg, &du, deps.as_ref()))
}

// ---------------------------------------------------------------------------
// Dense spec
// ---------------------------------------------------------------------------

/// Localization sets per procedure: what flows in at a call edge and what
/// flows back at a return edge.
pub(crate) type InSets = IndexVec<ProcId, LocSet>;
pub(crate) type OutSets = IndexVec<ProcId, LocSet>;

pub(crate) fn localization_sets(program: &Program, du: &DefUse) -> (InSets, OutSets) {
    let mut ins: InSets = IndexVec::with_capacity(program.procs.len());
    let mut outs: OutSets = IndexVec::with_capacity(program.procs.len());
    for (pid, proc) in program.procs.iter_enumerated() {
        let mut in_set: Vec<AbsLoc> = du.summary_uses[pid].clone();
        in_set.extend(proc.params.iter().map(|&p| AbsLoc::Var(p)));
        ins.push(in_set.into_iter().collect());
        let mut out_set: Vec<AbsLoc> = du.summary_defs[pid].clone();
        out_set.push(AbsLoc::Var(proc.ret_var));
        outs.push(out_set.into_iter().collect());
    }
    (ins, outs)
}

#[derive(Clone)]
pub(crate) struct IntervalDenseSpec<'p> {
    program: &'p Program,
    localize: bool,
    in_sets: InSets,
    out_sets: OutSets,
}

impl<'p> IntervalDenseSpec<'p> {
    /// `base` (localized by `du`'s access summaries) or `vanilla`.
    pub(crate) fn new(program: &'p Program, du: Option<&DefUse>) -> Self {
        let (in_sets, out_sets) = match du {
            Some(du) => localization_sets(program, du),
            None => (IndexVec::new(), IndexVec::new()),
        };
        IntervalDenseSpec {
            program,
            localize: du.is_some(),
            in_sets,
            out_sets,
        }
    }
}

impl DenseSpec for IntervalDenseSpec<'_> {
    type St = State;

    fn bottom(&self) -> State {
        State::new()
    }

    fn initial(&self) -> State {
        initial_state(self.program)
    }

    fn transfer(&self, cp: Cp, input: &State) -> State {
        semantics::transfer(self.program, cp, input)
    }

    fn bind_args(&self, callee: ProcId, args: &[Expr], s: &State) -> State {
        let params = self.program.procs[callee].params.iter().enumerate();
        params.fold(s.clone(), |out, (i, &p)| {
            let arg = args.get(i);
            let v = arg.map_or_else(Value::unknown_int, |a| semantics::eval(self.program, a, s));
            out.set(AbsLoc::Var(p), v)
        })
    }

    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, s: &State) -> State {
        let Some(lv) = ret else { return s.clone() };
        let v = s.get(&AbsLoc::Var(self.program.procs[callee].ret_var));
        semantics::assign(self.program, s, lv, &v)
    }

    /// No side effects (§6); the result is an arbitrary integer.
    fn bind_external(&self, ret: Option<&LVal>, s: &State) -> State {
        let Some(lv) = ret else { return s.clone() };
        semantics::assign(self.program, s, lv, &Value::unknown_int())
    }

    fn passed_to(&self, callee: ProcId, s: &State) -> Option<State> {
        self.localize.then(|| s.restrict(&self.in_sets[callee]))
    }

    fn handed_back(&self, callee: ProcId, s: &State) -> Option<State> {
        self.localize.then(|| s.restrict(&self.out_sets[callee]))
    }

    fn join(&self, a: &State, b: &State) -> State {
        a.join(b)
    }

    fn widen(&self, a: &State, b: &State) -> State {
        a.widen(b)
    }

    fn widen_with(&self, a: &State, b: &State, thresholds: &Thresholds) -> State {
        a.widen_with(b, thresholds)
    }

    fn narrow(&self, a: &State, b: &State) -> State {
        a.narrow(b)
    }
}

/// The state entering `main`: its parameters are unknown integers.
pub fn initial_state(program: &Program) -> State {
    let mut s = State::new();
    for &p in &program.procs[program.main].params {
        s = s.set(AbsLoc::Var(p), Value::unknown_int());
    }
    s
}

// ---------------------------------------------------------------------------
// Sparse spec
// ---------------------------------------------------------------------------

/// The interval instance of [`SparseSpec`] — public so external drivers
/// (the batch pipeline, the validation oracle) can solve and re-check a
/// staged unit themselves.
pub struct IntervalSparseSpec<'p> {
    /// The analyzed program.
    pub program: &'p Program,
    /// Pre-analysis result (call targets, points-to).
    pub pre: &'p PreAnalysis,
    /// Def/use sets with the interned location table.
    pub du: &'p DefUse,
}

impl SparseSpec for IntervalSparseSpec<'_> {
    type L = AbsLoc;
    type V = Value;

    fn loc_of(&self, id: u32) -> AbsLoc {
        self.du.locs.loc(id)
    }

    fn initial(&self) -> Row<AbsLoc, Value> {
        initial_state(self.program).as_pmap().to_sorted_vec()
    }

    fn forwards(&self, cp: Cp, id: u32) -> bool {
        self.du.forwards(cp, id)
    }

    fn keeps(&self, v: &Value) -> bool {
        !v.is_bottom()
    }

    /// Each `D̂(cp)` entry straight from `pre`, `ret` and the command's
    /// [`semantics::writes`]: the row to return is the only state built.
    fn transfer(
        &self,
        cp: Cp,
        pre: &[(AbsLoc, Value)],
        ret: &[(AbsLoc, Value)],
    ) -> Row<AbsLoc, Value> {
        let defs = self.du.defs(cp);
        let mut out = match self.program.cmd(cp) {
            Cmd::Call {
                ret: ret_lv, args, ..
            } => {
                // The post-call view of callee-affected locations joins the
                // pre-call value (the "spurious definition" side of Def 5)
                // with what returns from the callee exits.
                let mut out = sparse::join_rows(pre, ret);
                let mut ret_val: Option<Value> = None;
                let mut any_internal = false;
                for &t in self.pre.call_targets(cp) {
                    let callee = &self.program.procs[t];
                    if callee.is_external {
                        continue;
                    }
                    any_internal = true;
                    for (i, &p) in callee.params.iter().enumerate() {
                        // Arguments are evaluated in the PRE-call state.
                        let v = match args.get(i) {
                            Some(a) => semantics::eval(self.program, a, pre),
                            None => Value::unknown_int(),
                        };
                        bind(&mut out, AbsLoc::Var(p), v, true);
                    }
                    let rv = ret.read(&AbsLoc::Var(callee.ret_var));
                    ret_val = Some(match ret_val {
                        Some(acc) => acc.join(&rv),
                        None => rv,
                    });
                }
                let external = !any_internal
                    || self
                        .pre
                        .call_targets(cp)
                        .iter()
                        .any(|&t| self.program.procs[t].is_external);
                if external {
                    let u = Value::unknown_int();
                    ret_val = Some(match ret_val {
                        Some(acc) => acc.join(&u),
                        None => u,
                    });
                }
                if let (Some(lv), Some(v)) = (ret_lv, ret_val) {
                    // The return l-value's targets are read off the joined
                    // row with the formals bound.
                    match semantics::direct_target(lv) {
                        Some(l) => bind(&mut out, l, v, true),
                        None => {
                            let (targets, strong) =
                                semantics::lval_targets(self.program, lv, &out[..]);
                            semantics::store_to(&targets, strong, v, &mut |l, v, strong| {
                                bind(&mut out, l, v, strong);
                            });
                        }
                    }
                }
                out
            }
            _ => {
                // Only `D̂(cp)` survives, so only it is copied from `pre`.
                let mut out = Row::with_capacity(defs.len());
                let mut bound = pre.iter().peekable();
                for l in defs {
                    while bound.next_if(|(k, _)| k < l).is_some() {}
                    if let Some((_, v)) = bound.next_if(|(k, _)| k == l) {
                        out.push((*l, v.clone()));
                    }
                }
                semantics::writes(self.program, cp, pre, &mut |l, v, strong| {
                    bind(&mut out, l, v, strong);
                });
                out
            }
        };
        // Keep exactly the D̂(cp) bindings (both sides ascend).
        let mut kept = defs.iter().peekable();
        out.retain(|(l, v)| {
            while kept.next_if(|d| *d < l).is_some() {}
            kept.next_if_eq(&l).is_some() && !v.is_bottom()
        });
        out
    }
}

/// One of [`semantics::writes`]' bindings made on a row: a strong one
/// replaces the location's value, a weak one joins it.
fn bind(row: &mut Row<AbsLoc, Value>, l: AbsLoc, v: Value, strong: bool) {
    match sparse::find(row, &l) {
        Ok(at) if strong => row[at].1 = v,
        Ok(at) => row[at].1 = row[at].1.join(&v),
        Err(at) => row.insert(at, (l, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cfront::parse;
    use sga_domains::Interval;
    use sga_ir::VarId;

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    fn exit_value(program: &Program, result: &IntervalResult, name: &str) -> Value {
        // Read at the last definition point of the variable (sparse results
        // are defined exactly at definition points).
        let v = var(program, name);
        let l = AbsLoc::Var(v);
        let mut best = Value::bot();
        for (cp, s) in &result.values {
            let _ = cp;
            if let Some(val) = s.get_ref(&l) {
                best = best.join(val);
            }
        }
        best
    }

    #[test]
    fn counting_loop_all_engines() {
        let p = parse("int main() { int i = 0; while (i < 10) { i = i + 1; } return i; }").unwrap();
        let ret = AbsLoc::Var(p.procs[p.main].ret_var);
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            // Find the Return node's post-state: ret var must be exactly 10.
            let ret_cp = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Return(Some(_))))
                .unwrap();
            let v = r.value_at(ret_cp, &ret);
            assert_eq!(v.itv, Interval::constant(10), "{engine:?} got {v:?}");
        }
    }

    #[test]
    fn interprocedural_constant_flows() {
        let p = parse(
            "int add(int a, int b) { return a + b; }
             int main() { int r = add(2, 3); return r; }",
        )
        .unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let v = exit_value(&p, &r, "r");
            assert_eq!(v.itv, Interval::constant(5), "{engine:?}");
        }
    }

    #[test]
    fn pointers_across_engines() {
        let p = parse(
            "int x; int y; int *p;
             int main(int c) {
                if (c) p = &x; else p = &y;
                *p = 42;
                int r = x;
                return r;
             }",
        )
        .unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let v = exit_value(&p, &r, "r");
            // x is either untouched (⊥ joined from init 0? x is global,
            // uninitialized = absent) or 42 via the weak store.
            assert!(
                Interval::constant(42).le(&v.itv),
                "{engine:?}: weak store must reach x: {v:?}"
            );
        }
    }

    #[test]
    fn recursion_terminates_with_widening() {
        let p = parse(
            "int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }
             int main() { return f(100); }",
        )
        .unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            assert!(r.stats.iterations > 0, "{engine:?}");
        }
    }

    #[test]
    fn sparse_states_are_smaller() {
        let p = parse(
            "int a; int b; int c; int d;
             int main() {
                a = 1; b = 2; c = 3; d = 4;
                int s = a + b + c + d;
                return s;
             }",
        )
        .unwrap();
        let dense = analyze(&p, Engine::Base);
        let sparse = analyze(&p, Engine::Sparse);
        let dense_bindings: usize = dense.values.values().map(State::len).sum();
        let sparse_bindings: usize = sparse.values.values().map(State::len).sum();
        assert!(
            sparse_bindings < dense_bindings,
            "sparse {sparse_bindings} !< dense {dense_bindings}"
        );
    }

    #[test]
    fn malloc_overrun_shape() {
        let p = parse(
            "int main() {
                int *buf = malloc(10);
                int i = 0;
                while (i < 10) { buf[i] = i; i = i + 1; }
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        // The store through buf[i] must see offsets [0, 9] and size 10.
        let store_cp = p
            .all_points()
            .filter(|cp| matches!(p.cmd(*cp), Cmd::Assign(sga_ir::LVal::Deref(_), _)))
            .last()
            .unwrap();
        let Cmd::Assign(sga_ir::LVal::Deref(ptr), _) = p.cmd(store_cp) else {
            unreachable!()
        };
        // The pointer temp feeding the store is defined at its own assign
        // node; look through all states for its array block.
        let mut seen = false;
        for s in r.values.values() {
            if let Some(v) = s.get_ref(&AbsLoc::Var(*ptr)) {
                for (_, info) in v.arr.iter() {
                    seen = true;
                    assert!(
                        info.offset.le(&Interval::range(0, 9)),
                        "offset {:?}",
                        info.offset
                    );
                    assert_eq!(info.size, Interval::constant(10));
                }
            }
        }
        assert!(seen, "no array block reached the store pointer");
    }
}

#[cfg(test)]
mod semi_sparse_tests {
    use super::*;
    use sga_cfront::parse;

    /// A program with both top-level and address-taken flows.
    const SRC: &str = "
        int x; int y; int *p;
        int main(int c) {
            int top = 3;
            if (c) p = &x; else p = &y;
            *p = top;
            int t2 = top + 1;
            int r = x + t2;
            return r;
        }";

    #[test]
    fn semi_sparse_coarsens_address_taken_only() {
        let program = parse(SRC).unwrap();
        let precise = Pipeline::prepare(&program, AnalyzeOptions::default());
        let semi_sparse = AnalyzeOptions {
            semi_sparse: true,
            ..AnalyzeOptions::default()
        };
        let coarse_du = Pipeline::prepare(&program, semi_sparse).du;
        // Semi-sparse def/use sets are at least as big everywhere…
        for cp in program.all_points() {
            for l in precise.du.defs(cp) {
                assert!(
                    coarse_du.defs(cp).contains(l),
                    "semi-sparse D̂ lost {l:?} at {cp}"
                );
            }
        }
        // …and strictly bigger at the store through p (it may now hit every
        // address-taken location, not just {x, y}).
        let store = program
            .all_points()
            .find(|cp| matches!(program.cmd(*cp), Cmd::Assign(sga_ir::LVal::Deref(_), _)))
            .unwrap();
        assert!(coarse_du.defs(store).len() >= precise.du.defs(store).len());
    }

    #[test]
    fn semi_sparse_results_match_precise_sparse() {
        let program = parse(SRC).unwrap();
        let precise = analyze_with(&program, Engine::Sparse, AnalyzeOptions::default());
        let semi = analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                semi_sparse: true,
                ..AnalyzeOptions::default()
            },
        );
        // Coarser dependencies are still a safe approximation (Def. 5): the
        // computed values agree on every location the precise run binds.
        for (cp, st) in &precise.values {
            if matches!(program.cmd(*cp), Cmd::Call { .. }) {
                continue;
            }
            for (l, v) in st.iter() {
                use sga_domains::Lattice as _;
                if v.is_bottom() {
                    continue;
                }
                assert_eq!(
                    *v,
                    semi.value_at(*cp, l),
                    "semi-sparse changed the result at {cp} {l:?}"
                );
            }
        }
        // But it pays for the coarseness with more dependency edges.
        assert!(
            semi.stats.dep_edges >= precise.stats.dep_edges,
            "semi {} < precise {}",
            semi.stats.dep_edges,
            precise.stats.dep_edges
        );
    }
}
