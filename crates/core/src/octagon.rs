//! The packed relational (octagon) instance of §4 — the
//! `Octagon{vanilla,base,sparse}` analyzers of §6.2.
//!
//! Abstract locations are variable *packs*; abstract values are octagon
//! constraints over the pack's members. The design follows the paper:
//!
//! * **packing** ([`build_packs`]) — the syntactic heuristic of §6.2:
//!   variables appearing together in assignments/conditions/calls are
//!   grouped (scope-local, capped at [`PACK_SIZE_LIMIT`] = 10, "large packs
//!   … were split down"); singleton packs always exist so the projection
//!   `π_x` of §4.2 is defined;
//! * **transfer** — assignments whose right-hand side is octagonal
//!   (`y + c`) update each pack containing the target exactly; everything
//!   else goes through the interval projection, mirroring the program
//!   transformation `T` of §4.1 (replace out-of-pack variables by their
//!   projected values);
//! * **def/use** (§4.2) — `D̂(c) = pack(x)` and
//!   `Û(c) = pack(x) ∪ {⟪l⟫ | l ∈ V(e) − pack(x)}`, derived from the
//!   interval instance's [`DefUse`] by mapping defined variables to their
//!   packs and read variables to their singletons;
//! * engines — the same dense/sparse solvers as the interval instance,
//!   instantiated at pack granularity.
//!
//! Pointers, arrays and structures are "handled in the same way as the
//! interval analysis" (§6.2): here, the pre-analysis supplies points-to
//! facts, and memory writes through pointers *havoc* (forget) the affected
//! variables in every pack. Heap cells themselves are not tracked
//! relationally, matching practical packed analyses.

use crate::defuse::DefUse;
use crate::dense::{self, DenseSpec};
use crate::depgen::{self, DataDeps, DepSource};
use crate::depstore::{solved_points, CsrDeps};
use crate::icfg::Icfg;
use crate::interval::AnalyzeOptions;
use crate::preanalysis::{self, PreAnalysis};
use crate::sparse::{self, Row, SparseRows, SparseSpec};
use crate::stats::AnalysisStats;
use crate::widening::WideningPlan;
use sga_domains::{AbsLoc, Interval, Lattice, Octagon, Pack, PackId, PackSet, Thresholds};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, LVal, PointNumbering, ProcId, Program, RelOp, VarId};
use sga_utils::graph::WtoItem;
use sga_utils::stats::{peak_rss_bytes, Stage};
use sga_utils::{BitSet, FxHashMap, FxHashSet, Idx, IndexVec, PMap, Rows};
use std::time::Instant;

/// Maximum pack size before the heuristic refuses to merge further (§6.2).
pub const PACK_SIZE_LIMIT: usize = 10;

/// The packed relational state: packs to octagons (absent = ⊥).
pub type OctState = PMap<PackId, Octagon>;

/// Which octagon analyzer to run.
pub type Engine = crate::interval::Engine;

/// An octagon solve's post-states, in the shape its engine produced them.
#[derive(Debug)]
pub enum OctValues {
    /// The dense engines' state maps: as rows, points would stop sharing packs.
    Dense(FxHashMap<Cp, OctState>),
    /// The sparse engine's rows, over every pack: a pack's rank is its id.
    Sparse(SparseRows<PackId, Octagon>),
}

/// Result of an octagon analysis.
#[derive(Debug)]
pub struct OctagonResult {
    /// The engine used.
    pub engine: Engine,
    /// Post-states per control point, read through [`OctagonResult::get`].
    pub values: OctValues,
    /// The pack set the analysis ran with.
    pub packs: PackSet,
    /// Points the fixpoint ran over: every point of a non-external
    /// procedure under the dense engines, under the sparse one those that
    /// can bind a solved pack ([`OctDefUse::bindable_points`]).
    pub points: usize,
    /// Stage times and work counts.
    pub stats: AnalysisStats,
    /// The point numbering `defs` is over.
    num: PointNumbering,
    /// Per point, `D̂(c)` in pack ids, ascending.
    defs: Rows<u32>,
}

impl OctagonResult {
    /// Whether pack `pid` is in `D̂(cp)`: a point that defines the pack
    /// and does not bind it leaves its value unknown there.
    pub fn defines(&self, cp: Cp, pid: PackId) -> bool {
        let defs = self.defs.row(self.num.index(cp));
        defs.binary_search(&pid.0).is_ok()
    }

    /// What `cp` binds pack `pid` to, if it does.
    pub fn get(&self, cp: Cp, pid: PackId) -> Option<&Octagon> {
        match &self.values {
            OctValues::Dense(states) => states.get(&cp)?.get(&pid),
            OctValues::Sparse(rows) => rows.get(cp, pid.0),
        }
    }

    /// Projects variable `x` to an interval at `cp`, meeting the
    /// projections of every pack that contains `x`.
    pub fn itv_of(&self, cp: Cp, x: VarId) -> Interval {
        project_all(&self.packs, |pid| self.get(cp, pid), x)
    }

    /// The tightest known bound on `x − y` at `cp`, if some pack relates
    /// them.
    pub fn diff_bound(&self, cp: Cp, x: VarId, y: VarId) -> Option<i64> {
        let bounds = self.packs.packs_of(x).iter().filter_map(|&pid| {
            let pack = self.packs.pack(pid);
            let (ix, iy) = (pack.index_of(x)?, pack.index_of(y)?);
            self.get(cp, pid)?.diff_bound(ix, iy)
        });
        bounds.min()
    }
}

/// Runs the chosen octagon analyzer.
pub fn analyze(program: &Program, engine: Engine) -> OctagonResult {
    analyze_with(program, engine, AnalyzeOptions::default())
}

/// Runs the chosen octagon analyzer with analysis options (dependency
/// generation + widening strategy; `semi_sparse` is interval-only and
/// ignored here). Its stages are the interval chain's: `pre` times the
/// pre-analysis and the ICFG, `defuse` the interval def/use sets and the
/// packs' ones built from them.
pub fn analyze_with(program: &Program, engine: Engine, options: AnalyzeOptions) -> OctagonResult {
    let total = Instant::now();
    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let pre_done = Instant::now();
    let du = crate::defuse::compute(program, &pre);
    let defuse_took = pre_done.elapsed();
    let mut result = analyze_with_pre(program, &pre, &du, &icfg, None, engine, options);
    result.stats.times.add(Stage::Pre, pre_done - total);
    result.stats.times.add(Stage::Defuse, defuse_took);
    result.stats.record_pre(&pre);
    result.stats.total_time = total.elapsed();
    result.stats.peak_mem_bytes = peak_rss_bytes();
    result
}

/// [`analyze_with`] over the pre-analysis, def/use sets and ICFG the caller
/// already holds (triage runs after the interval pipeline, which computed
/// all three for the same program): it charges no `pre` stage, its
/// `defuse` stage is the packs' def/use alone, and its `total_time` is
/// left to [`analyze_with`].
///
/// With `seeds` the sparse solve is demand-driven — dependencies are
/// generated and solved for [`slice_packs`] only; the dense engines have no
/// relation to slice. `stats.num_locs` counts the packs solved for.
pub(crate) fn analyze_with_pre(
    program: &Program,
    pre: &PreAnalysis,
    du: &DefUse,
    icfg: &Icfg,
    seeds: Option<&[VarId]>,
    engine: Engine,
    options: AnalyzeOptions,
) -> OctagonResult {
    let seeds = seeds.filter(|_| engine == Engine::Sparse);
    let mut stats = AnalysisStats {
        widening: options.widening.strategy.name(),
        ..AnalysisStats::default()
    };
    let staged = stats.times.time(Stage::Defuse, || {
        Staged::new(program, pre, du, seeds, options)
    });
    stats.num_locs = staged.solved_packs;
    stats.avg_defs = staged.odu.avg_def_size();
    stats.avg_uses = staged.odu.avg_use_size();

    let sem = OctSemantics::new(program, pre, &staged.packs, &staged.fresh);

    let (values, points) = match engine {
        Engine::Vanilla | Engine::Base => {
            let spec = OctDenseSpec::new(&sem, du, engine == Engine::Base);
            let result = stats.times.time(Stage::Fix, || {
                dense::solve_with(program, icfg, &spec, &staged.plan, &options.budget)
            });
            stats.iterations = result.iterations;
            stats.degraded = result.degraded;
            let points = solved_points(program).count();
            (OctValues::Dense(result.post), points)
        }
        Engine::Sparse => {
            let deps = stats.times.time(Stage::Dep, || {
                depgen::generate_from(program, &staged.odu, options.depgen)
            });
            stats.dep_edges_raw = deps.stats.raw_edges;
            stats.dep_edges = deps.stats.final_edges;
            stats.dep_walk_visits = deps.stats.walk_visits;
            stats.dep_walk_defs = deps.stats.walk_defs;
            let (_, rows) = stats.times.time(Stage::Fix, || {
                staged.solve_sparse(program, icfg, &sem, du, &deps, options)
            });
            stats.iterations = rows.iterations;
            stats.degraded = rows.degraded;
            stats.fix_work = rows.work;
            debug_assert_eq!(rows.locs().len(), staged.packs.len(), "ranked by pack id");
            let points = rows.points;
            (OctValues::Sparse(rows), points)
        }
    };

    let (num, defs) = staged.odu.into_defs();
    OctagonResult {
        engine,
        values,
        packs: staged.packs,
        points,
        stats,
        num,
        defs,
    }
}

/// Solves the sparse octagon analysis under `options`, over the unit's
/// interval def/use sets `du`, and re-checks `f̂_c(X̂) ⊑ X̂` at every point
/// with [`crate::validate`]'s independent transfer pass. Lives here because
/// the octagon spec types are private; [`crate::validate::validate_rows`]
/// calls it over the unit's `icfg`.
pub(crate) fn sparse_post_fixpoint_check(
    program: &Program,
    pre: &PreAnalysis,
    icfg: &Icfg,
    du: &DefUse,
    options: AnalyzeOptions,
) -> crate::validate::CheckReport {
    let staged = Staged::new(program, pre, du, None, options);
    let sem = OctSemantics::new(program, pre, &staged.packs, &staged.fresh);
    let deps = depgen::generate_from(program, &staged.odu, options.depgen);
    let (spec, rows) = staged.solve_sparse(program, icfg, &sem, du, &deps, options);
    crate::validate::check_sparse_post_fixpoint(program, &deps, &spec, &rows)
}

/// What every octagon engine runs on, staged once from the program and its
/// pre-analysis.
struct Staged {
    packs: PackSet,
    /// [`fresh_packs_of`] the packs, for def/use and the semantics alike.
    fresh: IndexVec<ProcId, Vec<PackId>>,
    odu: OctDefUse,
    plan: WideningPlan,
    /// Packs solved for: every pack, or the slice's.
    solved_packs: usize,
}

impl Staged {
    fn new(
        program: &Program,
        pre: &PreAnalysis,
        du: &DefUse,
        seeds: Option<&[VarId]>,
        options: AnalyzeOptions,
    ) -> Staged {
        let packs = build_packs(program);
        let keep = seeds.map(|seeds| slice_packs(program, du, &packs, seeds));
        let fresh = fresh_packs_of(program, &packs);
        Staged {
            solved_packs: keep.as_ref().map_or(packs.len(), BitSet::count),
            odu: OctDefUse::compute(program, pre, du, &packs, &fresh, keep),
            plan: WideningPlan::for_program(program, options.widening),
            fresh,
            packs,
        }
    }

    /// The sparse fixpoint over `deps`, visiting only the points that can
    /// bind a pack ([`OctDefUse::bindable_points`]), and the spec it was
    /// solved with.
    fn solve_sparse<'s>(
        &'s self,
        program: &Program,
        icfg: &Icfg,
        sem: &'s OctSemantics<'s>,
        du: &'s DefUse,
        deps: &DataDeps,
        options: AnalyzeOptions,
    ) -> (OctSparseSpec<'s>, SparseRows<PackId, Octagon>) {
        let spec = OctSparseSpec {
            sem,
            du,
            odu: &self.odu,
        };
        let store = CsrDeps::over(program, icfg, deps, self.odu.bindable_points(deps));
        let rows = sparse::solve_rows(program, icfg, &store, &spec, &self.plan, &options.budget);
        (spec, rows)
    }
}

fn var_of(l: &AbsLoc) -> Option<VarId> {
    match l {
        AbsLoc::Var(v) => Some(*v),
        _ => None,
    }
}

/// The packs a demand-driven solve keeps for the `seeds` its queries read:
/// `packs_of(W)`, `W` the least variable set holding the seeds in which
/// `x ∈ W` brings every member of every pack of `x` and every variable
/// really used where `x` is really defined ([`crate::defuse`]'s real sets:
/// actuals and the callee's return at calls, both sides of an assume, a
/// weak store's targets).
///
/// The closure keeps the slice's verdicts equal to the whole unit's: the
/// transfer is strict on an absent pack (`assign_var`, `project_all`), so a
/// kept definition with a dropped input would compute ⊥ and leave its row,
/// and a query stopping there would answer ⊤. Filtering by pack id — never
/// by point — keeps every definition point of a kept pack.
fn slice_packs(program: &Program, du: &DefUse, packs: &PackSet, seeds: &[VarId]) -> BitSet {
    let real_defs = du.points().iter().flat_map(|&cp| {
        let vars = du.real_defs(cp).iter().filter_map(var_of);
        vars.map(move |x| (x.index(), cp))
    });
    let def_points = Rows::scatter(program.vars.len(), real_defs);
    let mut keep = BitSet::new(packs.len());
    let mut seen = BitSet::new(program.vars.len());
    let mut work: Vec<VarId> = Vec::new();
    for &x in seeds {
        if seen.insert(x.index()) {
            work.push(x);
        }
    }
    while let Some(x) = work.pop() {
        let members = packs.packs_of(x).iter().flat_map(|&p| {
            keep.insert(p.index());
            packs.pack(p).members().iter().copied()
        });
        let read = def_points
            .row(x.index())
            .iter()
            .flat_map(|&cp| du.real_uses(cp).iter().filter_map(var_of));
        for y in members.chain(read) {
            if seen.insert(y.index()) {
                work.push(y);
            }
        }
    }
    keep
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// The syntactic packing heuristic of §6.2: group variables with syntactic
/// locality (same assignment, condition, or call binding), refuse merges
/// beyond [`PACK_SIZE_LIMIT`], and give every variable a singleton pack.
pub fn build_packs(program: &Program) -> PackSet {
    // Union-find over variables with size-capped merging.
    let n = program.vars.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut Vec<usize>, size: &mut Vec<usize>, a: VarId, b: VarId| {
        let (ra, rb) = (find(parent, a.index()), find(parent, b.index()));
        if ra == rb {
            return;
        }
        if size[ra] + size[rb] > PACK_SIZE_LIMIT {
            return; // §6.2: keep packs below the threshold
        }
        let (big, small) = if size[ra] >= size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        parent[small] = big;
        size[big] += size[small];
    };

    let group = |parent: &mut Vec<usize>, size: &mut Vec<usize>, vars: &[VarId]| {
        for w in vars.windows(2) {
            union(parent, size, w[0], w[1]);
        }
    };

    let defined = || program.procs.iter().filter(|proc| !proc.is_external);
    let (mut vars, mut pair): (Vec<VarId>, Vec<VarId>) = (Vec::new(), Vec::new());
    for proc in defined() {
        for node in &proc.nodes {
            vars.clear();
            match &node.cmd {
                Cmd::Assign(LVal::Var(x), e) => {
                    vars.push(*x);
                    e.vars(&mut vars);
                }
                Cmd::Assume(c) => {
                    c.lhs.vars(&mut vars);
                    c.rhs.vars(&mut vars);
                }
                Cmd::Return(Some(e)) => {
                    vars.push(proc.ret_var);
                    e.vars(&mut vars);
                }
                // Actual/formal pairs "capture relations across procedure
                // boundaries" (§6.2).
                Cmd::Call {
                    ret,
                    callee: sga_ir::Callee::Direct(t),
                    args,
                } if !program.procs[*t].is_external => {
                    let callee_proc = &program.procs[*t];
                    for (i, &p) in callee_proc.params.iter().enumerate() {
                        pair.clear();
                        pair.push(p);
                        if let Some(a) = args.get(i) {
                            a.vars(&mut pair);
                        }
                        group(&mut parent, &mut size, &pair);
                    }
                    if let Some(LVal::Var(x)) = ret {
                        group(&mut parent, &mut size, &[*x, callee_proc.ret_var]);
                    }
                }
                _ => {}
            }
            vars.sort_unstable();
            vars.dedup();
            group(&mut parent, &mut size, &vars);
        }
    }

    // Loop locality (§6.2: "abstract locations involved in … loops are
    // grouped together"): variables of linear statements within the same
    // WTO component (loop) get grouped, still size-capped.
    for proc in defined() {
        let wto = sga_utils::graph::weak_topological_order(&proc.cfg_view(), proc.entry.index());
        let mut stack: Vec<&WtoItem> = wto.items.iter().collect();
        while let Some(item) = stack.pop() {
            if let WtoItem::Component(_, body) = item {
                vars.clear();
                for n in item.nodes() {
                    match &proc.nodes[sga_ir::NodeId::new(n)].cmd {
                        Cmd::Assign(LVal::Var(x), e) if !matches!(linearize(e), Lin::Other) => {
                            vars.push(*x);
                            e.vars(&mut vars);
                        }
                        Cmd::Assume(c) => {
                            c.lhs.vars(&mut vars);
                            c.rhs.vars(&mut vars);
                        }
                        _ => {}
                    }
                }
                vars.sort_unstable();
                vars.dedup();
                group(&mut parent, &mut size, &vars);
                stack.extend(body.iter());
            }
        }
    }

    // Collect classes: sorted by (root, variable), each class is a run.
    let mut classes: Vec<(usize, VarId)> = (0..n)
        .map(|v| (find(&mut parent, v), VarId::new(v)))
        .collect();
    classes.sort_unstable();
    let class = |run: &[(usize, VarId)]| Pack::new(run.iter().map(|&(_, v)| v).collect());
    let mut packs: Vec<Pack> = classes.chunk_by(|a, b| a.0 == b.0).map(class).collect();
    // Deterministic order.
    packs.sort();
    PackSet::new(packs)
}

// ---------------------------------------------------------------------------
// Semantics
// ---------------------------------------------------------------------------

/// Linear shapes an octagon can handle exactly or near-exactly.
#[derive(Clone, Copy, Debug)]
enum Lin {
    Const(i64),
    VarPlus(VarId, i64),
    /// `y + z` — evaluated from the pack's sum constraints when possible.
    VarSum(VarId, VarId),
    /// `y − z` — evaluated from the pack's difference constraints.
    VarDiff(VarId, VarId),
    Other,
}

fn linearize(e: &Expr) -> Lin {
    match e {
        Expr::Const(n) => Lin::Const(*n),
        Expr::Var(x) => Lin::VarPlus(*x, 0),
        Expr::Binop(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(x), Expr::Const(c)) | (Expr::Const(c), Expr::Var(x)) => Lin::VarPlus(*x, *c),
            (Expr::Var(y), Expr::Var(z)) => Lin::VarSum(*y, *z),
            _ => Lin::Other,
        },
        Expr::Binop(BinOp::Sub, a, b) => match (&**a, &**b) {
            (Expr::Var(x), Expr::Const(c)) => Lin::VarPlus(*x, -*c),
            (Expr::Var(y), Expr::Var(z)) => Lin::VarDiff(*y, *z),
            _ => Lin::Other,
        },
        _ => Lin::Other,
    }
}

struct OctSemantics<'p> {
    program: &'p Program,
    pre: &'p PreAnalysis,
    packs: &'p PackSet,
    /// Per procedure: packs containing any variable owned by the procedure.
    /// They become unconstrained (⊤) at the procedure's entry — each
    /// activation's locals/params/temps start with arbitrary values.
    fresh_packs: &'p IndexVec<ProcId, Vec<PackId>>,
    /// One ⊤ per pack size, shared: an entry evaluation clones an `Rc`
    /// instead of allocating `(2k)²` words per fresh pack.
    tops: Vec<Octagon>,
}

/// Packs containing at least one variable owned by each procedure.
pub(crate) fn fresh_packs_of(program: &Program, packs: &PackSet) -> IndexVec<ProcId, Vec<PackId>> {
    let owned = program.vars.iter_enumerated().filter_map(|(v, info)| {
        let owner = info.kind.owner()?;
        Some(packs.packs_of(v).iter().map(move |&p| (owner, p)))
    });
    let mut pairs: Vec<(ProcId, PackId)> = owned.flatten().collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut fresh = IndexVec::from_elem_n(Vec::new(), program.procs.len());
    for (owner, p) in pairs {
        fresh[owner].push(p);
    }
    fresh
}

impl<'p> OctSemantics<'p> {
    fn new(
        program: &'p Program,
        pre: &'p PreAnalysis,
        packs: &'p PackSet,
        fresh_packs: &'p IndexVec<ProcId, Vec<PackId>>,
    ) -> Self {
        let widest = packs.iter().map(|(_, pack)| pack.len()).max().unwrap_or(0);
        OctSemantics {
            program,
            pre,
            packs,
            fresh_packs,
            tops: (0..=widest).map(Octagon::top).collect(),
        }
    }

    /// The unconstrained octagon of pack `pid`.
    fn top(&self, pid: PackId) -> Octagon {
        self.tops[self.packs.pack(pid).len()].clone()
    }

    /// `π_x`: the interval of `x`, met across every pack containing it
    /// (the singleton pack guarantees at least one projection exists).
    fn project_var(&self, st: &OctState, x: VarId) -> Interval {
        project_all(self.packs, |pid| st.get(&pid), x)
    }

    /// Interval evaluation of an arbitrary expression under projections —
    /// the `T` transformation of §4.1 collapsed into evaluation.
    fn eval_itv(&self, st: &OctState, e: &Expr) -> Interval {
        match e {
            Expr::Const(n) => Interval::constant(*n),
            Expr::Var(x) => self.project_var(st, *x),
            Expr::Binop(op, a, b) => {
                let (ia, ib) = (self.eval_itv(st, a), self.eval_itv(st, b));
                match op {
                    BinOp::Add => ia.add(&ib),
                    BinOp::Sub => ia.sub(&ib),
                    BinOp::Mul => ia.mul(&ib),
                    BinOp::Div => ia.div(&ib),
                    BinOp::Mod => ia.rem(&ib),
                    BinOp::Cmp(rel) => ia.cmp_result(*rel, &ib),
                    _ => Interval::top(),
                }
            }
            Expr::Unop(sga_ir::UnOp::Neg, a) => self.eval_itv(st, a).neg(),
            // Loads, address-ofs, unknowns: numerically unconstrained.
            _ => Interval::top(),
        }
    }

    /// `x := e` on every pack containing `x`.
    fn assign_var(&self, st: &OctState, x: VarId, e: &Expr) -> OctState {
        let lin = linearize(e);
        let mut out = st.clone();
        for &pid in self.packs.packs_of(x) {
            let Some(oct) = st.get(&pid) else { continue }; // strict on ⊥
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(x).expect("pack contains x");
            let new = match lin {
                Lin::Const(c) => oct.assign_interval(ix, &Interval::constant(c)),
                Lin::VarPlus(y, c) => match pack.index_of(y) {
                    Some(iy) => oct.assign_var_plus(ix, iy, c),
                    None => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::VarSum(y, z) => match (pack.index_of(y), pack.index_of(z)) {
                    (Some(iy), Some(iz)) if iy != iz => {
                        oct.assign_interval(ix, &oct.sum_interval(iy, iz))
                    }
                    _ => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::VarDiff(y, z) => match (pack.index_of(y), pack.index_of(z)) {
                    (Some(iy), Some(iz)) if iy != iz => {
                        oct.assign_interval(ix, &oct.diff_interval(iy, iz))
                    }
                    _ => oct.assign_interval(ix, &self.eval_itv(st, e)),
                },
                Lin::Other => oct.assign_interval(ix, &self.eval_itv(st, e)),
            };
            out = out.insert(pid, new);
        }
        out
    }

    /// Forgets every constraint on `x` (memory writes through pointers,
    /// unknown call effects).
    fn havoc_var(&self, st: &OctState, x: VarId) -> OctState {
        let mut out = st.clone();
        for &pid in self.packs.packs_of(x) {
            let Some(oct) = st.get(&pid) else { continue };
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(x).expect("pack contains x");
            out = out.insert(pid, oct.forget(ix));
        }
        out
    }

    /// Variables a store through `lv` may clobber, per the pre-analysis.
    fn clobbered_vars(&self, lv: &LVal) -> Vec<VarId> {
        match lv {
            LVal::Var(x) => vec![*x],
            LVal::Field(_, _) => Vec::new(), // fields are not packed
            LVal::Deref(p) | LVal::DerefField(p, _) => {
                let v = self.pre.state.get(&AbsLoc::Var(*p));
                v.deref_targets()
                    .iter()
                    .filter_map(|l| match l {
                        AbsLoc::Var(t) => Some(*t),
                        _ => None,
                    })
                    .collect()
            }
        }
    }

    /// Refines with `assume(cond)`.
    fn refine(&self, st: &OctState, cond: &Cond) -> OctState {
        let mut out = st.clone();
        out = self.refine_side(&out, &cond.lhs, cond.op, &cond.rhs);
        out = self.refine_side(&out, &cond.rhs, cond.op.swap(), &cond.lhs);
        out
    }

    fn refine_side(&self, st: &OctState, lhs: &Expr, op: RelOp, rhs: &Expr) -> OctState {
        let Expr::Var(x) = lhs else { return st.clone() };
        let rhs_lin = linearize(rhs);
        let rhs_itv = self.eval_itv(st, rhs);
        let mut out = st.clone();
        for &pid in self.packs.packs_of(*x) {
            let Some(oct) = st.get(&pid) else { continue };
            let pack = self.packs.pack(pid);
            let ix = pack.index_of(*x).expect("pack contains x");
            let new = match rhs_lin {
                Lin::Const(c) => oct.assume_const(ix, op, c),
                Lin::VarPlus(y, c) => match pack.index_of(y) {
                    Some(iy) => oct.assume_var(ix, op, iy, c),
                    None => assume_interval(oct, ix, op, &rhs_itv),
                },
                _ => assume_interval(oct, ix, op, &rhs_itv),
            };
            out = out.insert(pid, new);
        }
        out
    }

    /// The full-state node transfer (calls are the identity; parameter and
    /// return binding happen on edges / in the sparse call case).
    fn transfer(&self, cp: Cp, st: &OctState) -> OctState {
        if cp.node == self.program.procs[cp.proc].entry {
            // A fresh activation: the procedure's own packs are
            // unconstrained, whatever flowed in.
            let mut out = st.clone();
            for &pid in &self.fresh_packs[cp.proc] {
                out = out.insert(pid, self.top(pid));
            }
            return out;
        }
        match self.program.cmd(cp) {
            Cmd::Skip | Cmd::Call { .. } => st.clone(),
            Cmd::Assign(LVal::Var(x), e) => self.assign_var(st, *x, e),
            Cmd::Assign(lv, _) | Cmd::Alloc(lv, _) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            Cmd::Assume(cond) => self.refine(st, cond),
            Cmd::Return(e) => {
                let ret = self.program.procs[cp.proc].ret_var;
                match e {
                    Some(e) => self.assign_var(st, ret, e),
                    None => self.havoc_var(st, ret),
                }
            }
        }
    }

    /// Binds actuals to formals at a call edge.
    fn bind_args(&self, callee: ProcId, args: &[Expr], st: &OctState) -> OctState {
        let mut out = st.clone();
        for (i, &p) in self.program.procs[callee].params.iter().enumerate() {
            out = match args.get(i) {
                Some(a) => self.assign_var(&out, p, a),
                None => self.havoc_var(&out, p),
            };
        }
        out
    }

    /// Binds the callee's return variable into the call's return l-value.
    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, st: &OctState) -> OctState {
        match ret {
            Some(LVal::Var(x)) => {
                let rv = self.program.procs[callee].ret_var;
                self.assign_var(st, *x, &Expr::Var(rv))
            }
            Some(lv) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            None => st.clone(),
        }
    }

    /// External call: the return target becomes unconstrained.
    fn bind_external(&self, ret: Option<&LVal>, st: &OctState) -> OctState {
        match ret {
            Some(LVal::Var(x)) => self.havoc_var(st, *x),
            Some(lv) => {
                let mut out = st.clone();
                for v in self.clobbered_vars(lv) {
                    out = self.havoc_var(&out, v);
                }
                out
            }
            None => st.clone(),
        }
    }

    /// The state entering `main`, as an ascending row: every pack `kept`
    /// admits unconstrained.
    fn initial(&self, kept: impl Fn(PackId) -> bool) -> Row<PackId, Octagon> {
        let packs = self.packs.iter().filter(|&(pid, _)| kept(pid));
        packs.map(|(pid, _)| (pid, self.top(pid))).collect()
    }
}

/// The meet of `x`'s projections over all packs containing it, each
/// pack's octagon read through `bound`. ⊥ when no pack binds it (strict
/// states).
fn project_all<'a>(
    packs: &PackSet,
    bound: impl Fn(PackId) -> Option<&'a Octagon>,
    x: VarId,
) -> Interval {
    let each = packs.packs_of(x).iter().filter_map(|&pid| {
        Some(bound(pid)?.project(packs.pack(pid).index_of(x).expect("pack contains x")))
    });
    each.reduce(|a, p| a.meet(&p)).unwrap_or(Interval::Bot)
}

/// `x ⋈ [lo, hi]` as octagon constraints.
fn assume_interval(oct: &Octagon, ix: usize, op: RelOp, itv: &Interval) -> Octagon {
    use sga_domains::interval::Bound;
    let Interval::Range(lo, hi) = *itv else {
        return Octagon::Bot;
    };
    match op {
        RelOp::Lt | RelOp::Le => {
            let slack = i64::from(op == RelOp::Lt);
            match hi {
                Bound::Int(h) => oct.add_upper(ix, h - slack),
                _ => oct.clone(),
            }
        }
        RelOp::Gt | RelOp::Ge => {
            let slack = i64::from(op == RelOp::Gt);
            match lo {
                Bound::Int(l) => oct.add_lower(ix, l + slack),
                _ => oct.clone(),
            }
        }
        RelOp::Eq => {
            let mut out = oct.clone();
            if let Bound::Int(h) = hi {
                out = out.add_upper(ix, h);
            }
            if let Bound::Int(l) = lo {
                out = out.add_lower(ix, l);
            }
            out
        }
        RelOp::Ne => oct.clone(),
    }
}

// ---------------------------------------------------------------------------
// Def/use at pack granularity (§4.2)
// ---------------------------------------------------------------------------

/// Pack-level def/use sets and summaries; also the octagon [`DepSource`].
pub struct OctDefUse {
    num: PointNumbering,
    /// Per point, `D̂(c)`, `Û(c)`, and the packs the point really (not as a
    /// relay) defines or uses, each ascending: rows over the point
    /// numbering, empty at every point that touches no kept pack.
    defs: Rows<u32>,
    uses: Rows<u32>,
    real: Rows<u32>,
    /// The interval instance's def/use points, and the sums of their
    /// `|D̂(c)|` and `|Û(c)|` in packs: what the averages are over.
    population: usize,
    def_total: usize,
    use_total: usize,
    inter: Vec<(u32, Cp, Cp, bool)>,
    routes: depgen::Routes,
    /// Packs in the unit, kept or not: the location ids are pack ids.
    packs: usize,
    /// The packs solved for: the slice's, or (`None`) every pack.
    keep: Option<BitSet>,
}

impl OctDefUse {
    /// Derives pack-level sets from the interval instance's [`DefUse`];
    /// `fresh` holds, per procedure, the packs that contain a variable the
    /// procedure owns. With `keep`, restricted to those pack ids (see
    /// [`slice_packs`]).
    pub fn compute(
        program: &Program,
        pre: &PreAnalysis,
        du: &DefUse,
        packs: &PackSet,
        fresh: &IndexVec<ProcId, Vec<PackId>>,
        keep: Option<BitSet>,
    ) -> OctDefUse {
        let kept = |p: &PackId| keep.as_ref().is_none_or(|k| k.contains(p.index()));
        let packs_of = |v: VarId| packs.packs_of(v).iter().filter(|p| kept(p)).map(|p| p.0);
        let singleton = |v: VarId| packs.singleton_id(v).filter(kept).map(|p| p.0);
        let names_kept = |set: &[AbsLoc]| {
            let mut vars = set.iter().filter_map(var_of);
            vars.any(|v| packs_of(v).next().is_some())
        };

        let num = program.point_numbering();
        let (mut defs, mut uses, mut real) = (Rows::default(), Rows::default(), Rows::default());
        let (mut d, mut u, mut r) = (Vec::new(), Vec::new(), Vec::new());
        let (mut def_total, mut use_total) = (0, 0);
        for &cp in du.points() {
            let proc = &program.procs[cp.proc];
            let fresh_here = if cp.node == proc.entry {
                fresh[cp.proc].as_slice()
            } else {
                &[]
            };
            let (real_defs, real_uses) = (du.real_defs(cp), du.real_uses(cp));
            // Every set below is made of the kept packs of a variable these
            // four sets name, or of the entry's fresh packs: anywhere else
            // all three are empty.
            let sets = [real_defs, real_uses, du.defs(cp), du.uses(cp)];
            if !fresh_here.iter().any(kept) && !sets.into_iter().any(names_kept) {
                continue;
            }
            for ids in [&mut d, &mut u, &mut r] {
                ids.clear();
            }
            // Fresh packs originate (⊤) at their procedure's entry.
            for pid in fresh_here.iter().filter(|p| kept(p)) {
                d.push(pid.0);
                r.push(pid.0);
            }
            let has = |set: &[AbsLoc], v: VarId| set.binary_search(&AbsLoc::Var(v)).is_ok();
            // Real defs: every pack containing a defined variable.
            for v in real_defs.iter().filter_map(var_of) {
                for p in packs_of(v) {
                    d.push(p);
                    u.push(p); // §4.2: Û ⊇ pack(x)
                    r.push(p);
                }
            }
            // Real uses: singleton packs (projections).
            for v in real_uses.iter().filter_map(var_of) {
                if let Some(p) = singleton(v) {
                    u.push(p);
                    r.push(p);
                }
            }
            // Relay parts: whole packs flow through calls/entries/exits.
            for v in du.defs(cp).iter().filter_map(var_of) {
                if !has(real_defs, v) {
                    for p in packs_of(v) {
                        d.push(p);
                        u.push(p);
                    }
                }
            }
            // Relayed uses stay uses only; at calls, the dependency
            // generator routes them to the callee entry directly (the same
            // pre/return separation as the interval instance).
            for v in du.uses(cp).iter().filter_map(var_of) {
                if !has(real_uses, v) {
                    u.extend(packs_of(v));
                }
            }
            // Entry/exit relays also define what they relay.
            if cp.node == proc.entry || cp.node == proc.exit {
                for v in du.uses(cp).iter().filter_map(var_of) {
                    d.extend(packs_of(v));
                }
            }
            for ids in [&mut d, &mut u, &mut r] {
                ids.sort_unstable();
                ids.dedup();
            }
            def_total += d.len();
            use_total += u.len();
            let at = num.index(cp);
            for (rows, ids) in [(&mut defs, &d), (&mut uses, &u), (&mut real, &r)] {
                rows.pad_to(at);
                rows.push_row(ids.iter().copied());
            }
        }
        for rows in [&mut defs, &mut uses, &mut real] {
            rows.pad_to(num.len());
        }

        // Interprocedural edges, and the routing of callee-used packs.
        let boundary = Boundary::new(program, du, packs, kept);
        let (mut inter, mut routed) = (Vec::new(), Vec::new());
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                if !matches!(node.cmd, Cmd::Call { .. }) {
                    continue;
                }
                let cp = Cp::new(pid, nid);
                for &t_pid in pre.call_targets(cp) {
                    let callee = &program.procs[t_pid];
                    if callee.is_external {
                        continue;
                    }
                    let entry = Cp::new(t_pid, callee.entry);
                    let exit = Cp::new(t_pid, callee.exit);
                    // Parameter packs travel over explicit call → entry
                    // edges; callee-used packs route def → entry directly.
                    for p in proc_param_packs(program, packs, t_pid)
                        .iter()
                        .filter(|p| kept(p))
                    {
                        inter.push((p.0, cp, entry, false));
                    }
                    routed.extend(boundary.uses[t_pid].iter().map(|&p| (cp, p, entry)));
                    for &p in &boundary.out[t_pid] {
                        inter.push((p.0, exit, cp, true));
                    }
                }
            }
        }
        let has = |set: &[u32], id| set.binary_search(&id).is_ok();
        let consumes = |cp, id| {
            let at = num.index(cp);
            has(real.row(at), id) || has(defs.row(at), id)
        };
        let routes = depgen::Routes::new(&num, routed, consumes);

        OctDefUse {
            num,
            defs,
            uses,
            real,
            population: du.points().len(),
            def_total,
            use_total,
            inter,
            routes,
            packs: packs.len(),
            keep,
        }
    }

    /// Average `|D̂(c)|` in packs, over every def/use point of the
    /// interval instance.
    pub fn avg_def_size(&self) -> f64 {
        avg(self.def_total, self.population)
    }

    /// Average `|Û(c)|` in packs, over the same points.
    pub fn avg_use_size(&self) -> f64 {
        avg(self.use_total, self.population)
    }

    /// Whether pack `pid` is solved for.
    fn kept(&self, pid: PackId) -> bool {
        self.keep.as_ref().is_none_or(|k| k.contains(pid.index()))
    }

    /// The point numbering and every point's `D̂(c)`, the rest of the sets
    /// dropped.
    fn into_defs(self) -> (PointNumbering, Rows<u32>) {
        (self.num, self.defs)
    }

    /// The points a sparse solve over `deps` visits: those whose `D̂` holds
    /// a pack, and every point `deps` names (a pop requeues the users of
    /// what it changed). Anywhere else the transfer's row is empty whatever
    /// flows in — it binds `D̂(c)` only — so such a point would bind
    /// nothing in the result, as it binds nothing here.
    pub(crate) fn bindable_points(&self, deps: &DataDeps) -> Vec<Cp> {
        let mut points = BitSet::new(self.num.len());
        for i in 0..self.num.len() {
            let out = deps.out.row(i);
            if !self.defs.row(i).is_empty() || !out.is_empty() {
                points.insert(i);
            }
            for &(_, to) in out {
                points.insert(self.num.index(to));
            }
        }
        points.iter().map(|i| self.num.cp(i)).collect()
    }
}

/// What crosses each procedure's boundary, in the packs `kept` admits: the
/// packs of its callee-used summary, and the packs flowing out of it (its
/// callee-defined summary's and its return variable's).
struct Boundary {
    /// Per procedure, the packs of its `Û` summary, ascending.
    uses: IndexVec<ProcId, Vec<u32>>,
    /// Per procedure, the packs flowing out. A hash set: its iteration order
    /// is the order of the exit → call edges, so of the locations
    /// [`depgen::assemble`] first meets on them, which ranks the relation.
    out: IndexVec<ProcId, FxHashSet<PackId>>,
}

impl Boundary {
    fn new(
        program: &Program,
        du: &DefUse,
        packs: &PackSet,
        kept: impl Fn(&PackId) -> bool,
    ) -> Self {
        let packs_of = |v: VarId| packs.packs_of(v).iter().filter(|p| kept(p)).map(|p| p.0);
        let n = program.procs.len();
        let (mut uses, mut out) = (IndexVec::with_capacity(n), IndexVec::with_capacity(n));
        for (pid, proc) in program.procs.iter_enumerated() {
            let summary = |of: &IndexVec<ProcId, Vec<AbsLoc>>| {
                let vars = of[pid].iter().filter_map(var_of);
                vars.flat_map(packs_of).collect::<Vec<u32>>()
            };
            let mut used = summary(&du.summary_uses);
            used.sort_unstable();
            used.dedup();
            uses.push(used);
            // Grown one insert at a time, as the order above requires.
            let mut defined: FxHashSet<u32> = FxHashSet::default();
            for p in summary(&du.summary_defs) {
                defined.insert(p);
            }
            let mut outp: FxHashSet<PackId> = defined.iter().map(|&p| PackId(p)).collect();
            outp.extend(packs_of(proc.ret_var).map(PackId));
            out.push(outp);
        }
        Boundary { uses, out }
    }
}

fn proc_param_packs(program: &Program, packs: &PackSet, pid: ProcId) -> Vec<PackId> {
    let mut out: Vec<PackId> = Vec::new();
    for &p in &program.procs[pid].params {
        out.extend(packs.packs_of(p).iter().copied());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn avg(total: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

impl DepSource for OctDefUse {
    fn defs(&self, cp: Cp) -> &[u32] {
        self.defs.row(self.num.index(cp))
    }

    fn uses(&self, cp: Cp) -> &[u32] {
        self.uses.row(self.num.index(cp))
    }

    fn is_real(&self, cp: Cp, loc: u32) -> bool {
        let real = self.real.row(self.num.index(cp));
        real.binary_search(&loc).is_ok()
    }

    fn loc_count(&self) -> usize {
        self.packs
    }

    fn use_routes(&self, cp: Cp, loc: u32) -> depgen::UseRoutes<'_> {
        self.routes.get(cp, loc)
    }

    fn inter_edges(&self, sink: &mut dyn FnMut(u32, Cp, Cp, bool)) {
        for &(l, a, b, k) in &self.inter {
            sink(l, a, b, k);
        }
    }
}

// ---------------------------------------------------------------------------
// Engine specs
// ---------------------------------------------------------------------------

struct OctDenseSpec<'p> {
    sem: &'p OctSemantics<'p>,
    localize: bool,
    /// Packs flowing into each procedure (the localization restriction):
    /// its callee-used packs and its parameters', ascending.
    in_packs: IndexVec<ProcId, Vec<PackId>>,
    /// Packs flowing out of each procedure.
    out_packs: IndexVec<ProcId, FxHashSet<PackId>>,
}

impl<'p> OctDenseSpec<'p> {
    fn new(sem: &'p OctSemantics<'p>, du: &DefUse, localize: bool) -> Self {
        let (program, packs) = (sem.program, sem.packs);
        let boundary = Boundary::new(program, du, packs, |_| true);
        let in_packs = program.procs.iter_enumerated().map(|(pid, proc)| {
            let used = boundary.uses[pid].iter().map(|&p| PackId(p));
            let params = proc.params.iter().flat_map(|&p| packs.packs_of(p));
            let mut inp: Vec<PackId> = used.chain(params.copied()).collect();
            inp.sort_unstable();
            inp.dedup();
            inp
        });
        OctDenseSpec {
            sem,
            localize,
            in_packs: in_packs.collect(),
            out_packs: boundary.out,
        }
    }
}

fn join_st(a: &OctState, b: &OctState) -> OctState {
    a.union_with(b, |_, x, y| x.join(y))
}

impl DenseSpec for OctDenseSpec<'_> {
    type St = OctState;

    fn bottom(&self) -> OctState {
        PMap::new()
    }

    fn initial(&self) -> OctState {
        PMap::from_sorted_vec(self.sem.initial(|_| true))
    }

    fn transfer(&self, cp: Cp, input: &OctState) -> OctState {
        self.sem.transfer(cp, input)
    }

    fn bind_args(&self, callee: ProcId, args: &[Expr], st: &OctState) -> OctState {
        self.sem.bind_args(callee, args, st)
    }

    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, st: &OctState) -> OctState {
        self.sem.bind_return(callee, ret, st)
    }

    fn bind_external(&self, ret: Option<&LVal>, st: &OctState) -> OctState {
        self.sem.bind_external(ret, st)
    }

    fn passed_to(&self, callee: ProcId, st: &OctState) -> Option<OctState> {
        self.localize.then(|| {
            let keep = &self.in_packs[callee];
            st.filter(|pid, _| keep.binary_search(pid).is_ok())
        })
    }

    fn handed_back(&self, callee: ProcId, st: &OctState) -> Option<OctState> {
        self.localize.then(|| {
            let keep = &self.out_packs[callee];
            st.filter(|pid, _| keep.contains(pid))
        })
    }

    fn join(&self, a: &OctState, b: &OctState) -> OctState {
        join_st(a, b)
    }

    fn widen(&self, a: &OctState, b: &OctState) -> OctState {
        a.union_with(b, |_, x, y| x.widen(y))
    }

    fn widen_with(&self, a: &OctState, b: &OctState, thresholds: &Thresholds) -> OctState {
        a.union_with(b, |_, x, y| x.widen_with(y, thresholds))
    }

    fn narrow(&self, a: &OctState, b: &OctState) -> OctState {
        a.union_with(b, |_, x, y| x.narrow(y))
    }
}

/// Binds actuals (evaluated in `arg_view`) to formals, updating `st`.
fn bind_args_from(
    sem: &OctSemantics<'_>,
    callee: ProcId,
    args: &[Expr],
    arg_view: &OctState,
    st: &OctState,
) -> OctState {
    let mut out = st.clone();
    for (i, &p) in sem.program.procs[callee].params.iter().enumerate() {
        match args.get(i) {
            Some(a) => {
                // Linear args relate param and actual exactly when a shared
                // pack exists; otherwise fall back to the projected interval
                // evaluated in the pre-call view.
                let lin = linearize(a);
                match lin {
                    Lin::VarPlus(_, _) | Lin::Const(_) => {
                        // assign_var reads only the target packs and, for
                        // projections, the source's packs — both from the
                        // pre-call view joined state; safe because callee
                        // effects cannot touch the actual's packs before the
                        // call executes. Evaluate via arg_view for the
                        // interval fallback.
                        out = assign_var_with_view(sem, &out, p, a, arg_view);
                    }
                    _ => {
                        let itv = sem.eval_itv(arg_view, a);
                        out = assign_itv(sem, &out, p, &itv);
                    }
                }
            }
            None => out = sem.havoc_var(&out, p),
        }
    }
    out
}

/// `x := e` where interval fallbacks evaluate in `view` instead of `st`.
fn assign_var_with_view(
    sem: &OctSemantics<'_>,
    st: &OctState,
    x: VarId,
    e: &Expr,
    view: &OctState,
) -> OctState {
    let lin = linearize(e);
    let mut out = st.clone();
    for &pid in sem.packs.packs_of(x) {
        let Some(oct) = st.get(&pid) else { continue };
        let pack = sem.packs.pack(pid);
        let ix = pack.index_of(x).expect("pack contains x");
        let new = match lin {
            Lin::Const(c) => oct.assign_interval(ix, &Interval::constant(c)),
            Lin::VarPlus(y, c) => match pack.index_of(y) {
                Some(iy) => oct.assign_var_plus(ix, iy, c),
                None => oct.assign_interval(ix, &sem.eval_itv(view, e)),
            },
            _ => oct.assign_interval(ix, &sem.eval_itv(view, e)),
        };
        out = out.insert(pid, new);
    }
    out
}

/// `x := [lo,hi]` on every pack containing `x`.
fn assign_itv(sem: &OctSemantics<'_>, st: &OctState, x: VarId, itv: &Interval) -> OctState {
    let mut out = st.clone();
    for &pid in sem.packs.packs_of(x) {
        let Some(oct) = st.get(&pid) else { continue };
        let pack = sem.packs.pack(pid);
        let ix = pack.index_of(x).expect("pack contains x");
        out = out.insert(pid, oct.assign_interval(ix, itv));
    }
    out
}

struct OctSparseSpec<'p> {
    sem: &'p OctSemantics<'p>,
    du: &'p DefUse,
    odu: &'p OctDefUse,
}

impl SparseSpec for OctSparseSpec<'_> {
    type L = PackId;
    type V = Octagon;

    fn loc_of(&self, id: u32) -> PackId {
        PackId(id)
    }

    /// The slice's packs only: a row binds `D̂` packs, `D̂` holds kept packs
    /// only, and a kept definition reads kept packs only (the closure of
    /// [`slice_packs`]), so no other pack's seed would reach a binding.
    fn initial(&self) -> Row<PackId, Octagon> {
        self.sem.initial(|pid| self.odu.kept(pid))
    }

    /// `is_real` is what the bypass asks, not all the transfer touches: a
    /// projection meets *every* bound pack of the variable it reads, the
    /// relayed ones too, and a store through a pointer havocs packs the
    /// real sets do not name. So a pack is forwarded only past a `Skip` (an
    /// entry resets its fresh packs, which are real) or past a call that
    /// returns into a variable or nowhere and really uses none of the
    /// pack's members.
    fn forwards(&self, cp: Cp, pid: u32) -> bool {
        let plain = matches!(
            self.sem.program.cmd(cp),
            Cmd::Skip
                | Cmd::Call {
                    ret: None | Some(LVal::Var(_)),
                    ..
                }
        );
        let real_uses = self.du.real_uses(cp);
        let used = |v: &VarId| real_uses.binary_search(&AbsLoc::Var(*v)).is_ok();
        plain
            && self.odu.defs(cp).binary_search(&pid).is_ok()
            && !self.odu.is_real(cp, pid)
            && !self.sem.packs.pack(PackId(pid)).members().iter().any(used)
    }

    fn keeps(&self, oct: &Octagon) -> bool {
        !matches!(oct.close(), Octagon::Bot)
    }

    /// The packed semantics works on [`OctState`] maps, so the rows are
    /// turned into them here (an octagon clone shares its matrix).
    fn transfer(
        &self,
        cp: Cp,
        pre: &[(PackId, Octagon)],
        ret_in: &[(PackId, Octagon)],
    ) -> Row<PackId, Octagon> {
        // The row binds D̂(cp) only.
        let defs = self.odu.defs(cp);
        if defs.is_empty() {
            return Row::new();
        }
        let program = self.sem.program;
        let input = PMap::from_sorted_vec(sparse::join_rows(pre, ret_in));
        let post = match program.cmd(cp) {
            Cmd::Call { ret, args, .. } => {
                let pre = &PMap::from_sorted_vec(pre.to_vec());
                let mut out = input.clone();
                let mut any_internal = false;
                for &t in self.sem.pre.call_targets(cp) {
                    let callee = &program.procs[t];
                    if callee.is_external {
                        continue;
                    }
                    any_internal = true;
                    // Arguments read the pre-call state; effects land on the
                    // joined view.
                    out = bind_args_from(self.sem, t, args, pre, &out);
                    out = self.sem.bind_return(t, ret.as_ref(), &out);
                }
                let has_external = !any_internal
                    || self
                        .sem
                        .pre
                        .call_targets(cp)
                        .iter()
                        .any(|&t| program.procs[t].is_external);
                if has_external {
                    out = self.sem.bind_external(ret.as_ref(), &out);
                }
                out
            }
            _ => self.sem.transfer(cp, &input),
        };
        let mut out = Row::with_capacity(defs.len());
        for &id in defs {
            let pid = PackId(id);
            if let Some(oct) = post.get(&pid) {
                if !matches!(oct.close(), Octagon::Bot) {
                    out.push((pid, oct.clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cfront::parse;

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    /// Table 3's `Dep` is Table 2's: the sparse interval and the sparse
    /// octagon runs charge the same stages, the octagon's ICFG build and
    /// interval def/use included, so `dep_phase` sums the same three.
    #[test]
    fn sparse_interval_and_octagon_charge_the_same_stages() {
        let p = parse("int g; int f(int x) { g = g + x; return g; } int main() { return f(2); }");
        let p = p.unwrap();
        let stages = |s: &AnalysisStats| s.times.iter().map(|(name, _)| name).collect::<Vec<_>>();
        let itv = crate::interval::analyze(&p, Engine::Sparse);
        assert_eq!(stages(&itv.stats), ["pre", "defuse", "dep", "fix"]);
        assert_eq!(
            stages(&analyze(&p, Engine::Sparse).stats),
            stages(&itv.stats)
        );
    }

    #[test]
    fn packs_group_related_vars() {
        let p = parse("int main() { int a = 1; int b = a + 2; int c = 9; return b; }").unwrap();
        let packs = build_packs(&p);
        let (a, b, c) = (var(&p, "a"), var(&p, "b"), var(&p, "c"));
        let shared = packs
            .packs_of(a)
            .iter()
            .any(|pid| packs.pack(*pid).contains(b));
        assert!(shared, "a and b must share a pack");
        // c is only related to itself (the constant 9 assignment).
        assert!(packs.singleton_id(c).is_some());
        assert!(packs.average_size() >= 1.0);
    }

    #[test]
    fn pack_size_capped() {
        // A chain of 30 related variables must not form one mega-pack.
        let mut src = String::from("int main() { int x0 = 0;");
        for i in 1..30 {
            src.push_str(&format!("int x{i} = x{} + 1;", i - 1));
        }
        src.push_str("return x29; }");
        let p = parse(&src).unwrap();
        let packs = build_packs(&p);
        for (_, pack) in packs.iter() {
            assert!(pack.len() <= PACK_SIZE_LIMIT, "pack too big: {pack:?}");
        }
    }

    #[test]
    fn relational_invariant_beats_intervals() {
        // y = x + 1 with unknown x: intervals know nothing about y − x, the
        // octagon knows y − x = 1.
        let p = parse(
            "int main(int x) {
                int y = x + 1;
                int d = y - x;
                return d;
             }",
        )
        .unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let (x, y) = (var(&p, "x"), var(&p, "y"));
            let y_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == y))
                .unwrap();
            assert_eq!(
                r.diff_bound(y_def, y, x),
                Some(1),
                "{engine:?}: y - x ≤ 1 must be known"
            );
            assert_eq!(r.diff_bound(y_def, x, y), Some(-1), "{engine:?}");
            // And d's projection is exactly [1,1].
            let d = var(&p, "d");
            let d_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
                .unwrap();
            assert_eq!(r.itv_of(d_def, d), Interval::constant(1), "{engine:?}");
        }
    }

    #[test]
    fn loop_invariant_with_widening() {
        let p = parse(
            "int main() {
                int i = 0; int j = 0;
                while (i < 100) { i = i + 1; j = j + 1; }
                return j;
             }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let (i, j) = (var(&p, "i"), var(&p, "j"));
            // After the loop, i = 100 exactly (narrowing recovers the bound).
            let exit_assume = p
                .all_points()
                .find(|cp| match p.cmd(*cp) {
                    Cmd::Assume(c) => c.op == RelOp::Ge,
                    _ => false,
                })
                .unwrap();
            let iv = r.itv_of(exit_assume, i);
            assert_eq!(iv, Interval::constant(100), "{engine:?}: i at exit = {iv}");
            // The relational invariant i = j survives the loop.
            assert_eq!(r.diff_bound(exit_assume, i, j), Some(0), "{engine:?}");
        }
    }

    #[test]
    fn interprocedural_relation_through_params() {
        let p = parse(
            "int inc(int a) { return a + 1; }
             int main(int x) { int y = inc(x); int d = y - x; return d; }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let d = var(&p, "d");
            let d_def = p
                .all_points()
                .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
                .unwrap();
            let dv = r.itv_of(d_def, d);
            // The relation a = x + 0 → ret = x + 1 → y = x + 1 needs the
            // call-boundary packs; at minimum d must be bounded.
            assert!(
                Interval::constant(1).le(&dv),
                "{engine:?}: d should include 1, got {dv}"
            );
        }
    }

    #[test]
    fn pointer_store_havocs_target() {
        let p = parse(
            "int main() {
                int a = 5; int *p = &a;
                *p = 100;
                int b = a;
                return b;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let b = var(&p, "b");
        let b_def = p
            .all_points()
            .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == b))
            .unwrap();
        // a was havocked by the store, so b is unconstrained — but crucially
        // NOT still [5,5].
        let bv = r.itv_of(b_def, b);
        assert_ne!(bv, Interval::constant(5), "store through p must havoc a");
    }

    #[test]
    fn sparse_matches_base_on_defs() {
        let p = parse(
            "int main(int n) {
                int i = 0; int s = 0;
                while (i < n) { s = s + 1; i = i + 1; }
                int d = s - i;
                return d;
             }",
        )
        .unwrap();
        let base = analyze(&p, Engine::Base);
        let sparse = analyze(&p, Engine::Sparse);
        let d = var(&p, "d");
        let d_def = p
            .all_points()
            .find(|cp| matches!(p.cmd(*cp), Cmd::Assign(LVal::Var(v), _) if *v == d))
            .unwrap();
        assert_eq!(base.itv_of(d_def, d), sparse.itv_of(d_def, d));
    }

    /// One staged program: what triage holds when it calls the octagon.
    struct Unit {
        program: Program,
        pre: PreAnalysis,
        du: DefUse,
        icfg: Icfg,
    }

    fn unit(config: &sga_cgen::GenConfig) -> Unit {
        staged_unit(parse(&sga_cgen::generate(config)).expect("generated unit must parse"))
    }

    fn staged_unit(program: Program) -> Unit {
        let pre = preanalysis::run(&program);
        let du = crate::defuse::compute(&program, &pre);
        let icfg = Icfg::build(&program, &pre);
        Unit {
            program,
            pre,
            du,
            icfg,
        }
    }

    /// Three flat units and three with 28 of 32 procedures on one call
    /// cycle (the shape `tests/diagnostics.rs` pins by digest).
    fn differential_units() -> Vec<Unit> {
        let flat = |seed| sga_cgen::GenConfig {
            seed,
            target_loc: 500,
            ..sga_cgen::GenConfig::default()
        };
        let scc = |seed| sga_cgen::GenConfig {
            seed,
            target_loc: 800,
            functions: 32,
            globals: 16,
            global_ptrs: 4,
            max_scc: 28,
            ..sga_cgen::GenConfig::default()
        };
        [
            flat(65261),
            flat(7),
            flat(123),
            scc(65261),
            scc(7),
            scc(123),
        ]
        .iter()
        .map(unit)
        .collect()
    }

    /// `n` distinct variables of the program, drawn by a fixed LCG.
    fn draw_seeds(program: &Program, n: usize, mut state: u64) -> Vec<VarId> {
        let mut seeds = FxHashSet::default();
        while seeds.len() < n.min(program.vars.len()) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seeds.insert(VarId::new((state >> 33) as usize % program.vars.len()));
        }
        seeds.into_iter().collect()
    }

    /// Solves `u` sparsely — sliced to `seeds`, or whole — and
    /// post-fixpoint-checks the result against the relation and spec it was
    /// solved with.
    fn solve_checked(u: &Unit, seeds: Option<&[VarId]>) -> SparseRows<PackId, Octagon> {
        let options = AnalyzeOptions::default();
        let staged = Staged::new(&u.program, &u.pre, &u.du, seeds, options);
        let sem = OctSemantics::new(&u.program, &u.pre, &staged.packs, &staged.fresh);
        let deps = depgen::generate_from(&u.program, &staged.odu, options.depgen);
        let (spec, rows) = staged.solve_sparse(&u.program, &u.icfg, &sem, &u.du, &deps, options);
        let report = crate::validate::check_sparse_post_fixpoint(&u.program, &deps, &spec, &rows);
        assert!(
            report.violations.is_empty(),
            "not a post-fixpoint of its own relation (seeds {seeds:?}): {:?}",
            report.violations.first()
        );
        rows
    }

    /// The demand-driven solve is the whole-unit analysis on fewer
    /// locations: every binding of a kept pack is *equal* on both sides and
    /// exists on both or neither. Equality leans on the fixpoint's
    /// trajectory, whose delayed-widening and descent counters are per
    /// *point*: should a counter-example ever appear here (a widening point
    /// binding kept and dropped packs together, the whole-unit run widening
    /// the kept one earlier), the fix is per-`(point, location)` counters in
    /// [`crate::sparse`] — not a looser assertion.
    #[test]
    fn sliced_solve_equals_the_whole_unit_on_kept_packs() {
        for (k, u) in differential_units().iter().enumerate() {
            let whole = solve_checked(u, None);
            let packs = build_packs(&u.program);
            for n in [1, 4, 16] {
                let mut seeds = draw_seeds(&u.program, n.max(32), (k * 100 + n) as u64);
                if n == 1 {
                    // Random sets land in the giant component (≈ 88 % of the
                    // packs); the lone seed is the drawn variable with the
                    // smallest slice that still crosses a definition, so
                    // the small-slice regime triage lives in is covered too.
                    seeds.sort_by_key(|&x| {
                        let size = slice_packs(&u.program, &u.du, &packs, &[x]).count();
                        (size <= packs.packs_of(x).len(), size)
                    });
                }
                seeds.truncate(n);
                let keep = slice_packs(&u.program, &u.du, &packs, &seeds);
                let sliced = solve_checked(u, Some(&seeds));
                for (cp, row) in sliced.iter() {
                    for &(pid, ref oct) in row {
                        assert!(
                            keep.contains(pid as usize),
                            "unit {k}: {cp}: dropped pack {pid}"
                        );
                        assert_eq!(
                            whole.get(cp, pid),
                            Some(oct),
                            "unit {k}, {n} seeds: {cp} pack {pid}"
                        );
                    }
                }
                for (cp, row) in whole.iter() {
                    for &(pid, _) in row.iter().filter(|(pid, _)| keep.contains(*pid as usize)) {
                        assert!(
                            sliced.get(cp, pid).is_some(),
                            "unit {k}, {n} seeds: {cp} pack {pid} bound by the whole-unit run only"
                        );
                    }
                }
            }
        }
    }

    /// The point set: one solve seeded with every point and one with
    /// [`OctDefUse::bindable_points`] only, whole-unit and sliced. Every
    /// `(point, pack)` binding is equal, a point outside the set binds
    /// nothing even where it is evaluated, and the set pops strictly less
    /// whenever it leaves a point out.
    /// Both are post-fixpoints of their relation at every point, the
    /// skipped ones included (`validate`'s check walks them all).
    #[test]
    fn solving_only_the_points_that_can_bind_a_pack_binds_the_same() {
        let alarms = crate::sparse::differential::corpus()
            .into_iter()
            .filter(|(name, _)| name.ends_with(".c"))
            .map(|(_, program)| staged_unit(program));
        let options = AnalyzeOptions::default();
        for (k, u) in differential_units().into_iter().chain(alarms).enumerate() {
            for seeds in [None, Some(draw_seeds(&u.program, 4, k as u64))] {
                let staged = Staged::new(&u.program, &u.pre, &u.du, seeds.as_deref(), options);
                let sem = OctSemantics::new(&u.program, &u.pre, &staged.packs, &staged.fresh);
                let deps = depgen::generate_from(&u.program, &staged.odu, options.depgen);
                let spec = OctSparseSpec {
                    sem: &sem,
                    du: &u.du,
                    odu: &staged.odu,
                };
                let solve = |store: &CsrDeps| {
                    let (plan, budget) = (&staged.plan, &options.budget);
                    let r = sparse::solve_rows(&u.program, &u.icfg, store, &spec, plan, budget);
                    let report =
                        crate::validate::check_sparse_post_fixpoint(&u.program, &deps, &spec, &r);
                    assert!(
                        report.violations.is_empty(),
                        "unit {k}: {:?}",
                        report.violations
                    );
                    r
                };
                let points = staged.odu.bindable_points(&deps);
                let every = solve(&CsrDeps::build(&u.program, &u.icfg, &deps));
                let some = solve(&CsrDeps::over(&u.program, &u.icfg, &deps, points.clone()));
                let what = format!("unit {k}, seeds {seeds:?}");
                for (cp, row) in every.iter() {
                    assert!(
                        row.is_empty() || points.binary_search(&cp).is_ok(),
                        "{what}: {cp} binds outside the set"
                    );
                    for &(pid, ref oct) in row {
                        assert_eq!(some.get(cp, pid), Some(oct), "{what}: {cp} pack {pid}");
                    }
                }
                for (cp, row) in some.iter() {
                    assert_eq!(row.len(), every.row(cp).unwrap().len(), "{what}: {cp}");
                }
                let pops = |r: &SparseRows<PackId, Octagon>| r.iterations + r.narrowing_rounds;
                // Every point pops at least once a phase, so leaving one out
                // pops less; a small file can define a pack everywhere, a
                // generated unit cannot.
                assert!(pops(&some) <= pops(&every), "{what}");
                assert_eq!(
                    pops(&some) < pops(&every),
                    some.points < every.points,
                    "{what}"
                );
                assert!(k >= 6 || some.points < every.points, "{what}");
                assert_eq!((some.points, some.degraded), (points.len(), every.degraded));
            }
        }
    }

    #[test]
    fn slice_is_closed_under_packs_and_real_definitions() {
        for (k, u) in differential_units().iter().enumerate() {
            let packs = build_packs(&u.program);
            let keep = slice_packs(
                &u.program,
                &u.du,
                &packs,
                &draw_seeds(&u.program, 4, k as u64),
            );
            let kept = |x: VarId| packs.packs_of(x).iter().all(|p| keep.contains(p.index()));
            for pid in keep.iter() {
                for &m in packs.pack(PackId::new(pid)).members() {
                    assert!(kept(m), "unit {k}: member {m:?} of kept pack {pid}");
                }
            }
            for &cp in u.du.points() {
                if u.du.real_defs(cp).iter().filter_map(var_of).any(kept) {
                    for y in u.du.real_uses(cp).iter().filter_map(var_of) {
                        assert!(kept(y), "unit {k}: {cp} defines a kept pack, reads {y:?}");
                    }
                }
            }
        }
    }
}
