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
use crate::icfg::{EdgeKind, Icfg, InEdge};
use crate::interval::AnalyzeOptions;
use crate::preanalysis::{self, PreAnalysis};
use crate::sparse::{self, Row, SparseSpec};
use crate::stats::AnalysisStats;
use crate::widening::WideningPlan;
use sga_domains::{AbsLoc, Interval, Lattice, Octagon, Pack, PackId, PackSet, Thresholds};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, LVal, ProcId, Program, RelOp, VarId};
use sga_utils::stats::{peak_rss_bytes, Phase};
use sga_utils::{BitSet, FxHashMap, FxHashSet, Idx, IndexVec, PMap};

/// Maximum pack size before the heuristic refuses to merge further (§6.2).
pub const PACK_SIZE_LIMIT: usize = 10;

/// The packed relational state: packs to octagons (absent = ⊥).
pub type OctState = PMap<PackId, Octagon>;

fn collect_wto_nodes(items: &[sga_utils::graph::WtoItem], out: &mut Vec<usize>) {
    for item in items {
        match item {
            sga_utils::graph::WtoItem::Node(n) => out.push(*n),
            sga_utils::graph::WtoItem::Component(h, body) => {
                out.push(*h);
                collect_wto_nodes(body, out);
            }
        }
    }
}

/// Which octagon analyzer to run.
pub type Engine = crate::interval::Engine;

/// Result of an octagon analysis.
#[derive(Debug)]
pub struct OctagonResult {
    /// The engine used.
    pub engine: Engine,
    /// Post-states per control point.
    pub values: FxHashMap<Cp, OctState>,
    /// The pack set the analysis ran with.
    pub packs: PackSet,
    /// Points the fixpoint ran over: every point of a non-external
    /// procedure under the dense engines, under the sparse one those that
    /// can bind a solved pack ([`OctDefUse::bindable_points`]).
    pub points: usize,
    /// Phase statistics.
    pub stats: AnalysisStats,
    /// `D̂(c)` in pack ids, ascending, of every point whose `D̂` holds one.
    defs: FxHashMap<Cp, Vec<u32>>,
}

impl OctagonResult {
    /// Whether pack `pid` is in `D̂(cp)`: a point that defines the pack
    /// and does not bind it leaves its value unknown there.
    pub fn defines(&self, cp: Cp, pid: PackId) -> bool {
        self.defs
            .get(&cp)
            .is_some_and(|d| d.binary_search(&pid.0).is_ok())
    }

    /// Projects variable `x` to an interval at `cp`, meeting the
    /// projections of every pack that contains `x`.
    pub fn itv_of(&self, cp: Cp, x: VarId) -> Interval {
        let Some(st) = self.values.get(&cp) else {
            return Interval::Bot;
        };
        project_all(&self.packs, st, x)
    }

    /// The tightest known bound on `x − y` at `cp`, if some pack relates
    /// them.
    pub fn diff_bound(&self, cp: Cp, x: VarId, y: VarId) -> Option<i64> {
        let st = self.values.get(&cp)?;
        let mut best: Option<i64> = None;
        for &pid in self.packs.packs_of(x) {
            let pack = self.packs.pack(pid);
            let (Some(ix), Some(iy)) = (pack.index_of(x), pack.index_of(y)) else {
                continue;
            };
            if let Some(oct) = st.get(&pid) {
                if let Some(c) = oct.diff_bound(ix, iy) {
                    best = Some(best.map_or(c, |b| b.min(c)));
                }
            }
        }
        best
    }
}

/// Runs the chosen octagon analyzer.
pub fn analyze(program: &Program, engine: Engine) -> OctagonResult {
    analyze_with(program, engine, AnalyzeOptions::default())
}

/// Runs the chosen octagon analyzer with analysis options (dependency
/// generation + widening strategy; `semi_sparse` is interval-only and
/// ignored here).
pub fn analyze_with(program: &Program, engine: Engine, options: AnalyzeOptions) -> OctagonResult {
    let total = Phase::start("total");
    let pre_phase = Phase::start("pre");
    let pre = preanalysis::run(program);
    let pre_time = pre_phase.stop();
    let du = crate::defuse::compute(program, &pre);
    let icfg = Icfg::build(program, &pre);
    let mut result = analyze_with_pre(program, &pre, &du, &icfg, None, engine, options);
    result.stats.record_pre(&pre, pre_time);
    result.stats.total_time = total.stop();
    result
}

/// [`analyze_with`] over the pre-analysis, def/use sets and ICFG the caller
/// already holds (triage runs after the interval pipeline, which computed
/// all three for the same program); `stats.pre_time` stays zero.
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
    let total = Phase::start("total");
    let seeds = seeds.filter(|_| engine == Engine::Sparse);
    let staged = Staged::new(program, pre, du, seeds, options);
    let mut stats = AnalysisStats {
        widening: options.widening.strategy.name(),
        ..AnalysisStats::default()
    };
    stats.num_locs = staged.solved_packs;
    stats.avg_defs = staged.odu.avg_def_size();
    stats.avg_uses = staged.odu.avg_use_size();

    let sem = OctSemantics::new(program, pre, &staged.packs, &staged.fresh);

    let (values, points) = match engine {
        Engine::Vanilla | Engine::Base => {
            let spec = OctDenseSpec {
                sem: &sem,
                localize: engine == Engine::Base,
                in_packs: staged.odu.in_packs.clone(),
                out_packs: staged.odu.out_packs.clone(),
            };
            let fix = Phase::start("fix");
            let result = dense::solve_with(program, icfg, &spec, &staged.plan, &options.budget);
            stats.fix_time = fix.stop();
            stats.iterations = result.iterations;
            stats.degraded = result.degraded;
            (result.post, solved_points(program).count())
        }
        Engine::Sparse => {
            let dep_phase = Phase::start("dep");
            let deps = depgen::generate_from(program, &staged.odu, options.depgen);
            stats.dep_time = dep_phase.stop();
            stats.dep_edges_raw = deps.stats.raw_edges;
            stats.dep_edges = deps.stats.final_edges;
            let fix = Phase::start("fix");
            let (_, result) = staged.solve_sparse(program, icfg, &sem, du, &deps, options);
            stats.fix_time = fix.stop();
            stats.iterations = result.iterations;
            stats.degraded = result.degraded;
            stats.fix_work = result.work;
            (result.values, result.points)
        }
    };

    stats.total_time = total.stop();
    stats.peak_mem_bytes = peak_rss_bytes();
    OctagonResult {
        engine,
        values,
        packs: staged.packs,
        points,
        stats,
        defs: staged.odu.into_defs(),
    }
}

/// Solves the sparse octagon analysis under `options`, over the unit's
/// interval def/use sets `du`, and re-checks `f̂_c(X̂) ⊑ X̂` at every point
/// with [`crate::validate`]'s independent transfer pass. Lives here because
/// the octagon spec types are private; [`crate::validate::validate_unit`]
/// calls it.
pub(crate) fn sparse_post_fixpoint_check(
    program: &Program,
    pre: &PreAnalysis,
    du: &DefUse,
    options: AnalyzeOptions,
) -> crate::validate::CheckReport {
    let icfg = Icfg::build(program, pre);
    let staged = Staged::new(program, pre, du, None, options);
    let sem = OctSemantics::new(program, pre, &staged.packs, &staged.fresh);
    let deps = depgen::generate_from(program, &staged.odu, options.depgen);
    let (spec, result) = staged.solve_sparse(program, &icfg, &sem, du, &deps, options);
    crate::validate::check_sparse_post_fixpoint(program, &deps, &spec, &result.values)
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
        let keep = seeds.map(|seeds| slice_packs(du, &packs, seeds));
        let fresh = fresh_packs_of(program, &packs);
        Staged {
            odu: OctDefUse::compute(program, pre, du, &packs, &fresh, keep.as_ref()),
            plan: WideningPlan::for_program(program, options.widening),
            solved_packs: keep.map_or(packs.len(), |k| k.count()),
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
    ) -> (OctSparseSpec<'s>, sparse::SparseResult<PackId, Octagon>) {
        let spec = OctSparseSpec {
            sem,
            du,
            odu: &self.odu,
        };
        let store = CsrDeps::over(program, icfg, deps, self.odu.bindable_points(deps));
        let result = sparse::solve_with(program, icfg, &store, &spec, &self.plan, &options.budget);
        (spec, result)
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
fn slice_packs(du: &DefUse, packs: &PackSet, seeds: &[VarId]) -> BitSet {
    let mut def_points: FxHashMap<VarId, Vec<Cp>> = FxHashMap::default();
    for (cp, sets) in &du.sets {
        for x in sets.real_defs.iter().filter_map(var_of) {
            def_points.entry(x).or_default().push(*cp);
        }
    }
    let mut keep = BitSet::new(packs.len());
    let mut seen: FxHashSet<VarId> = seeds.iter().copied().collect();
    let mut work: Vec<VarId> = seen.iter().copied().collect();
    while let Some(x) = work.pop() {
        let members = packs.packs_of(x).iter().flat_map(|&p| {
            keep.insert(p.index());
            packs.pack(p).members().iter().copied()
        });
        let read = def_points
            .get(&x)
            .into_iter()
            .flatten()
            .flat_map(|cp| du.sets[cp].real_uses.iter().filter_map(var_of));
        for y in members.chain(read) {
            if seen.insert(y) {
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

    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for node in &proc.nodes {
            let mut vars: Vec<VarId> = Vec::new();
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
                Cmd::Call { ret, callee, args } => {
                    // Actual/formal pairs "capture relations across
                    // procedure boundaries" (§6.2).
                    let targets: Vec<ProcId> = match callee {
                        sga_ir::Callee::Direct(t) => vec![*t],
                        sga_ir::Callee::Indirect(_) => Vec::new(),
                    };
                    for t in targets {
                        let callee_proc = &program.procs[t];
                        if callee_proc.is_external {
                            continue;
                        }
                        for (i, &p) in callee_proc.params.iter().enumerate() {
                            let mut pair = vec![p];
                            if let Some(a) = args.get(i) {
                                a.vars(&mut pair);
                            }
                            group(&mut parent, &mut size, &pair);
                        }
                        if let Some(LVal::Var(x)) = ret {
                            group(&mut parent, &mut size, &[*x, callee_proc.ret_var]);
                        }
                    }
                }
                _ => {}
            }
            vars.sort_unstable();
            vars.dedup();
            group(&mut parent, &mut size, &vars);
        }
        let _ = pid;
    }

    // Loop locality (§6.2: "abstract locations involved in … loops are
    // grouped together"): variables of linear statements within the same
    // WTO component (loop) get grouped, still size-capped.
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        let _ = pid;
        let wto = sga_utils::graph::weak_topological_order(&proc.cfg_view(), proc.entry.index());
        let mut stack: Vec<&sga_utils::graph::WtoItem> = wto.items.iter().collect();
        while let Some(item) = stack.pop() {
            if let sga_utils::graph::WtoItem::Component(head, body) = item {
                let mut nodes: Vec<usize> = vec![*head];
                collect_wto_nodes(body, &mut nodes);
                let mut vars: Vec<VarId> = Vec::new();
                for &n in &nodes {
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

    // Collect classes.
    let mut classes: FxHashMap<usize, Vec<VarId>> = FxHashMap::default();
    for v in 0..n {
        classes
            .entry(find(&mut parent, v))
            .or_default()
            .push(VarId::new(v));
    }
    let mut packs: Vec<Pack> = classes.into_values().map(Pack::new).collect();
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
    let mut fresh: IndexVec<ProcId, FxHashSet<PackId>> =
        IndexVec::from_elem_n(FxHashSet::default(), program.procs.len());
    for (v, info) in program.vars.iter_enumerated() {
        if let Some(owner) = info.kind.owner() {
            fresh[owner].extend(packs.packs_of(v).iter().copied());
        }
    }
    fresh
        .into_iter()
        .map(|set| {
            let mut v: Vec<PackId> = set.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
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
        project_all(self.packs, st, x)
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

    /// The state entering `main`: every pack unconstrained.
    fn initial(&self) -> OctState {
        let mut st = PMap::new();
        for (pid, _) in self.packs.iter() {
            st = st.insert(pid, self.top(pid));
        }
        st
    }
}

/// The meet of `x`'s projections over all packs containing it. ⊥ when no
/// pack binds it (strict states).
fn project_all(packs: &PackSet, st: &OctState, x: VarId) -> Interval {
    let mut acc: Option<Interval> = None;
    for &pid in packs.packs_of(x) {
        if let Some(oct) = st.get(&pid) {
            let ix = packs.pack(pid).index_of(x).expect("pack contains x");
            let proj = oct.project(ix);
            acc = Some(match acc {
                Some(a) => a.meet(&proj),
                None => proj,
            });
        }
    }
    acc.unwrap_or(Interval::Bot)
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
    /// The sets of the points that touch a kept pack; every other point's
    /// are empty.
    sets: FxHashMap<Cp, PackSets>,
    /// The interval instance's def/use points, and the sums of their
    /// `|D̂(c)|` and `|Û(c)|` in packs: what the averages are over.
    population: usize,
    def_total: usize,
    use_total: usize,
    inter: Vec<(u32, Cp, Cp, bool)>,
    routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>>,
    /// Packs flowing into each procedure (localization restriction).
    pub in_packs: IndexVec<ProcId, FxHashSet<PackId>>,
    /// Packs flowing out of each procedure.
    pub out_packs: IndexVec<ProcId, FxHashSet<PackId>>,
}

/// One point's pack ids, each list ascending.
struct PackSets {
    /// `D̂(c)`.
    defs: Vec<u32>,
    /// `Û(c)`.
    uses: Vec<u32>,
    /// The packs the point really defines or uses (not as a relay).
    real: Vec<u32>,
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
        keep: Option<&BitSet>,
    ) -> OctDefUse {
        let kept = |p: &PackId| keep.is_none_or(|k| k.contains(p.index()));
        let packs_of = |v: VarId| packs.packs_of(v).iter().filter(|p| kept(p)).map(|p| p.0);
        let singleton = |v: VarId| packs.singleton_id(v).filter(kept).map(|p| p.0);

        let mut point_sets: FxHashMap<Cp, PackSets> = FxHashMap::default();
        let (mut def_total, mut use_total) = (0, 0);
        for (cp, sets) in &du.sets {
            let (mut d, mut u, mut r) = (Vec::new(), Vec::new(), Vec::new());
            let proc = &program.procs[cp.proc];
            if cp.node == proc.entry {
                // Fresh packs originate (⊤) at their procedure's entry.
                for pid in fresh[cp.proc].iter().filter(|p| kept(p)) {
                    d.push(pid.0);
                    r.push(pid.0);
                }
            }
            let has = |set: &[AbsLoc], v: VarId| set.binary_search(&AbsLoc::Var(v)).is_ok();
            // Real defs: every pack containing a defined variable.
            for v in sets.real_defs.iter().filter_map(var_of) {
                for p in packs_of(v) {
                    d.push(p);
                    u.push(p); // §4.2: Û ⊇ pack(x)
                    r.push(p);
                }
            }
            // Real uses: singleton packs (projections).
            for v in sets.real_uses.iter().filter_map(var_of) {
                if let Some(p) = singleton(v) {
                    u.push(p);
                    r.push(p);
                }
            }
            // Relay parts: whole packs flow through calls/entries/exits.
            for v in sets.defs.iter().filter_map(var_of) {
                if !has(&sets.real_defs, v) {
                    for p in packs_of(v) {
                        d.push(p);
                        u.push(p);
                    }
                }
            }
            // Relayed uses stay uses only; at calls, the dependency
            // generator routes them to the callee entry directly (the same
            // pre/return separation as the interval instance).
            for v in sets.uses.iter().filter_map(var_of) {
                if !has(&sets.real_uses, v) {
                    u.extend(packs_of(v));
                }
            }
            // Entry/exit relays also define what they relay.
            if cp.node == proc.entry || cp.node == proc.exit {
                for v in sets.uses.iter().filter_map(var_of) {
                    d.extend(packs_of(v));
                }
            }
            for ids in [&mut d, &mut u, &mut r] {
                ids.sort_unstable();
                ids.dedup();
            }
            def_total += d.len();
            use_total += u.len();
            // What is real is defined or used: a point with neither touches
            // no kept pack.
            if !d.is_empty() || !u.is_empty() {
                let (defs, uses, real) = (d, u, r);
                point_sets.insert(*cp, PackSets { defs, uses, real });
            }
        }

        // Pack-level summaries and interprocedural edges.
        let nprocs = program.procs.len();
        let mut sum_def_packs: IndexVec<ProcId, FxHashSet<u32>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        let mut sum_use_packs: IndexVec<ProcId, FxHashSet<u32>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        for (pid, _) in program.procs.iter_enumerated() {
            for v in du.summary_defs[pid].iter().filter_map(var_of) {
                sum_def_packs[pid].extend(packs_of(v));
            }
            for v in du.summary_uses[pid].iter().filter_map(var_of) {
                sum_use_packs[pid].extend(packs_of(v));
            }
        }

        let mut inter: Vec<(u32, Cp, Cp, bool)> = Vec::new();
        let mut in_packs: IndexVec<ProcId, FxHashSet<PackId>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        let mut out_packs: IndexVec<ProcId, FxHashSet<PackId>> =
            IndexVec::from_elem_n(FxHashSet::default(), nprocs);
        for (pid, proc) in program.procs.iter_enumerated() {
            let mut inp: FxHashSet<PackId> =
                sum_use_packs[pid].iter().map(|&p| PackId(p)).collect();
            for &p in &proc.params {
                inp.extend(packs_of(p).map(PackId));
            }
            in_packs[pid] = inp;
            let mut outp: FxHashSet<PackId> =
                sum_def_packs[pid].iter().map(|&p| PackId(p)).collect();
            outp.extend(packs_of(proc.ret_var).map(PackId));
            out_packs[pid] = outp;
        }
        let mut routes: FxHashMap<Cp, FxHashMap<u32, (bool, Vec<Cp>)>> = FxHashMap::default();
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                if !matches!(node.cmd, Cmd::Call { .. }) {
                    continue;
                }
                let cp = Cp::new(pid, nid);
                let mut per_loc: FxHashMap<u32, (bool, Vec<Cp>)> = FxHashMap::default();
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
                    for &p in &sum_use_packs[t_pid] {
                        per_loc
                            .entry(p)
                            .or_insert((false, Vec::new()))
                            .1
                            .push(entry);
                    }
                    for &p in &out_packs[t_pid] {
                        inter.push((p.0, exit, cp, true));
                    }
                }
                if per_loc.is_empty() {
                    continue;
                }
                let here = point_sets.get(&cp);
                for (id, (self_edge, _)) in per_loc.iter_mut() {
                    *self_edge = here.is_some_and(|h| {
                        h.real.binary_search(id).is_ok() || h.defs.binary_search(id).is_ok()
                    });
                }
                routes.insert(cp, per_loc);
            }
        }

        OctDefUse {
            sets: point_sets,
            population: du.sets.len(),
            def_total,
            use_total,
            inter,
            routes,
            in_packs,
            out_packs,
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

    /// Every point's non-empty `D̂(c)`, the rest of the sets dropped.
    fn into_defs(self) -> FxHashMap<Cp, Vec<u32>> {
        let defining = self.sets.into_iter().filter(|(_, s)| !s.defs.is_empty());
        defining.map(|(cp, s)| (cp, s.defs)).collect()
    }

    /// The points a sparse solve over `deps` visits: those whose `D̂` holds
    /// a pack, and every point `deps` names (a pop requeues the users of
    /// what it changed). Anywhere else the transfer's row is empty whatever
    /// flows in — it binds `D̂(c)` only — so such a point would bind
    /// nothing in the result, as it binds nothing here.
    pub(crate) fn bindable_points(&self, deps: &DataDeps) -> Vec<Cp> {
        let defining = self.sets.iter().filter(|(_, s)| !s.defs.is_empty());
        let named = [&deps.out, &deps.into, &deps.into_ret]
            .into_iter()
            .flat_map(|m| m.keys());
        let mut points: Vec<Cp> = defining.map(|(cp, _)| cp).chain(named).copied().collect();
        points.sort_unstable();
        points.dedup();
        points
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
        self.sets.get(&cp).map_or(&[], |s| &s.defs)
    }

    fn uses(&self, cp: Cp) -> &[u32] {
        self.sets.get(&cp).map_or(&[], |s| &s.uses)
    }

    fn is_real(&self, cp: Cp, loc: u32) -> bool {
        self.sets
            .get(&cp)
            .is_some_and(|s| s.real.binary_search(&loc).is_ok())
    }

    fn use_routes(&self, cp: Cp, loc: u32) -> depgen::UseRoutes<'_> {
        match self.routes.get(&cp).and_then(|m| m.get(&loc)) {
            Some((self_edge, entries)) => depgen::UseRoutes {
                self_edge: *self_edge,
                entries: entries.as_slice(),
            },
            None => depgen::UseRoutes {
                self_edge: true,
                entries: &[],
            },
        }
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
    in_packs: IndexVec<ProcId, FxHashSet<PackId>>,
    out_packs: IndexVec<ProcId, FxHashSet<PackId>>,
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
        self.sem.initial()
    }

    fn transfer(&self, cp: Cp, input: &OctState) -> OctState {
        self.sem.transfer(cp, input)
    }

    fn edge(
        &self,
        dst: Cp,
        edge: &InEdge,
        src_post: &OctState,
        lookup: &dyn Fn(Cp) -> Option<OctState>,
    ) -> OctState {
        let program = self.sem.program;
        match edge.kind {
            EdgeKind::Intra => src_post.clone(),
            EdgeKind::Call { site } => {
                let Cmd::Call { args, .. } = program.cmd(site) else {
                    unreachable!("call edge from non-call site")
                };
                let bound = self.sem.bind_args(dst.proc, args, src_post);
                if self.localize {
                    let keep = &self.in_packs[dst.proc];
                    bound.filter(|pid, _| keep.contains(pid))
                } else {
                    bound
                }
            }
            EdgeKind::Return { site } => {
                let callee = edge.src.proc;
                let Cmd::Call { ret, .. } = program.cmd(site) else {
                    unreachable!("return edge without call site")
                };
                if self.localize {
                    let keep = &self.out_packs[callee];
                    let effects = src_post.filter(|pid, _| keep.contains(pid));
                    let caller = lookup(site).unwrap_or_default();
                    let merged = join_st(&caller, &effects);
                    self.sem.bind_return(callee, ret.as_ref(), &merged)
                } else {
                    self.sem.bind_return(callee, ret.as_ref(), src_post)
                }
            }
            EdgeKind::ExternalRet { site } => {
                let Cmd::Call { ret, .. } = program.cmd(site) else {
                    unreachable!("external-return edge without call site")
                };
                self.sem.bind_external(ret.as_ref(), src_post)
            }
        }
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

    fn initial(&self) -> Row<PackId, Octagon> {
        self.sem.initial().to_sorted_vec()
    }

    /// `is_real` is what the bypass asks, not all the transfer touches: a
    /// projection meets *every* bound pack of the variable it reads, the
    /// relayed ones too, and a store through a pointer havocs packs the
    /// real sets do not name. So a pack is forwarded only past a `Skip` (an
    /// entry resets its fresh packs, which are real) or past a call that
    /// returns into a variable or nowhere and really uses none of the
    /// pack's members.
    fn forwards(&self, cp: Cp, pid: &PackId) -> bool {
        let plain = matches!(
            self.sem.program.cmd(cp),
            Cmd::Skip
                | Cmd::Call {
                    ret: None | Some(LVal::Var(_)),
                    ..
                }
        );
        let Some(sets) = self.du.sets.get(&cp) else {
            return false;
        };
        let used = |v: &VarId| sets.real_uses.binary_search(&AbsLoc::Var(*v)).is_ok();
        plain
            && self.odu.defs(cp).binary_search(&pid.0).is_ok()
            && !self.odu.is_real(cp, pid.0)
            && !self.sem.packs.pack(*pid).members().iter().any(used)
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
    fn solve_checked(u: &Unit, seeds: Option<&[VarId]>) -> FxHashMap<Cp, OctState> {
        let options = AnalyzeOptions::default();
        let staged = Staged::new(&u.program, &u.pre, &u.du, seeds, options);
        let sem = OctSemantics::new(&u.program, &u.pre, &staged.packs, &staged.fresh);
        let deps = depgen::generate_from(&u.program, &staged.odu, options.depgen);
        let (spec, result) = staged.solve_sparse(&u.program, &u.icfg, &sem, &u.du, &deps, options);
        let report =
            crate::validate::check_sparse_post_fixpoint(&u.program, &deps, &spec, &result.values);
        assert!(
            report.violations.is_empty(),
            "not a post-fixpoint of its own relation (seeds {seeds:?}): {:?}",
            report.violations.first()
        );
        result.values
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
                        let size = slice_packs(&u.du, &packs, &[x]).count();
                        (size <= packs.packs_of(x).len(), size)
                    });
                }
                seeds.truncate(n);
                let keep = slice_packs(&u.du, &packs, &seeds);
                let sliced = solve_checked(u, Some(&seeds));
                for (cp, st) in &sliced {
                    for (pid, oct) in st.iter() {
                        assert!(
                            keep.contains(pid.index()),
                            "unit {k}: {cp}: dropped {pid:?}"
                        );
                        assert_eq!(
                            whole.get(cp).and_then(|w| w.get(pid)),
                            Some(oct),
                            "unit {k}, {n} seeds: {cp} {pid:?}"
                        );
                    }
                }
                for (cp, st) in &whole {
                    for (pid, _) in st.iter().filter(|(pid, _)| keep.contains(pid.index())) {
                        assert!(
                            sliced.get(cp).is_some_and(|s| s.get(pid).is_some()),
                            "unit {k}, {n} seeds: {cp} {pid:?} bound by the whole-unit run only"
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
                    let r = sparse::solve_with(&u.program, &u.icfg, store, &spec, plan, budget);
                    let report = crate::validate::check_sparse_post_fixpoint(
                        &u.program, &deps, &spec, &r.values,
                    );
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
                for (cp, st) in &every.values {
                    assert!(
                        st.is_empty() || points.binary_search(cp).is_ok(),
                        "{what}: {cp} binds outside the set"
                    );
                    for (pid, oct) in st.iter() {
                        let other = some.values.get(cp).and_then(|s| s.get(pid));
                        assert_eq!(other, Some(oct), "{what}: {cp} {pid:?}");
                    }
                }
                for (cp, st) in &some.values {
                    assert_eq!(st.len(), every.values[cp].len(), "{what}: {cp}");
                }
                let pops =
                    |r: &sparse::SparseResult<PackId, Octagon>| r.iterations + r.narrowing_rounds;
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
            let keep = slice_packs(&u.du, &packs, &draw_seeds(&u.program, 4, k as u64));
            let kept = |x: VarId| packs.packs_of(x).iter().all(|p| keep.contains(p.index()));
            for pid in keep.iter() {
                for &m in packs.pack(PackId::new(pid)).members() {
                    assert!(kept(m), "unit {k}: member {m:?} of kept pack {pid}");
                }
            }
            for (cp, sets) in &u.du.sets {
                if sets.real_defs.iter().filter_map(var_of).any(kept) {
                    for y in sets.real_uses.iter().filter_map(var_of) {
                        assert!(kept(y), "unit {k}: {cp} defines a kept pack, reads {y:?}");
                    }
                }
            }
        }
    }
}
