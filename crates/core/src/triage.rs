//! Alarm triage: discharging interval alarms with the packed relational
//! analysis of §4 (octagon layer) and with dominating-guard path
//! conditions (path layer), selectable via [`TriageMode`].
//!
//! The interval checkers ([`crate::checker`]) over-approximate each
//! variable in isolation, so loop-bounded accesses like
//! `while (i < n) buf[i] = …` (with `buf = malloc(n)`) alarm even though
//! `i < n` always holds at the access. The packed octagon domain *does*
//! track `i − n ≤ −1`, so the octagon pass re-examines every **possible**
//! (open, non-definite) alarm against an octagon run and demotes the ones
//! whose error condition is relationally refuted to
//! [`Status::Discharged`].
//!
//! The path layer ([`crate::pathcond`]) is orthogonal: instead of refuting
//! the error *condition* it refutes the error *point*. For each remaining
//! possible alarm it collects the chain of `assume` guards dominating the
//! alarm (with the branch polarity actually taken) and discharges when
//! the guard conjunction is infeasible under sound interval evaluation —
//! either a single dominating guard can never hold on its own inputs, or
//! the conjunction of write-free ("stable") dominating guards refines
//! some variable to ⊥. Discharges carry the `path_infeasible` method and
//! a proving pack naming the guard chain. Degraded interval results skip
//! the path layer entirely: its queries lean on the fixpoint being a
//! genuine post-fixpoint.
//!
//! # Soundness
//!
//! A discharge always requires a *positive refuting constraint* from a
//! recorded pack — never absence of evidence:
//!
//! * any control point, variable or pack the octagon result does not bind
//!   maps to ⊤ (unknown), which never refutes anything;
//! * the octagon analysis is itself a sound over-approximation, including
//!   under budget degradation — a degraded run only *loses* constraints,
//!   so it discharges fewer alarms, never wrong ones;
//! * `definite` alarms are structurally excluded from triage: the interval
//!   semantics already proved the error, and a sound refinement cannot
//!   contradict it.
//!
//! For buffer overruns the pass additionally verifies, syntactically, that
//! the relational variables it reasons about denote what the alarm is
//! about: the accessed pointer must be a single-assignment `base + index`
//! sum whose base provably holds a fresh block from the alarm's allocation
//! site (a dominating single-write chain down to the `alloc`), and a
//! variable-sized refutation `index − size ≤ −1` is only accepted when the
//! size variable is never written and the procedure makes no calls, so the
//! size at the allocation and at the access are the same activation's
//! value.
//!
//! # Budget
//!
//! The octagon run is gated by a per-unit budget derived from the interval
//! fixpoint's own iteration count ([`derived_budget`]), so triage can
//! never be slower than an unbounded re-analysis; on exhaustion the
//! octagon solver degrades soundly and the pass simply discharges less.

use crate::budget::Budget;
use crate::checker;
use crate::depgen::DepGenOptions;
use crate::depstore::{solved_points, DepBackend};
use crate::interval::{stage_inputs, AnalyzeOptions, Engine, Inputs, IntervalResult};
use crate::octagon::{self, OctagonResult};
use crate::pathcond::{self, DomTree, GuardSite, PathIndex};
use crate::preanalysis::PreAnalysis;
use crate::widening::WideningConfig;
use sga_diag::{DiagKind, Diagnostic, DischargeMethod, Evidence, Status};
use sga_domains::interval::Bound;
use sga_domains::{AbsLoc, Interval, Lattice, Octagon, PackId};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, LVal, NodeId, Proc, ProcId, Program, VarId};
use sga_utils::rows::{Rows, Scatter};
use sga_utils::{FxHashSet, Idx};

/// Which triage layers run. The octagon layer refutes error conditions
/// relationally; the path layer proves alarm points unreachable from
/// their dominating guards. `Both` runs octagon first, then path on
/// whatever stays open — its discharged set is a superset of either layer
/// alone by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TriageMode {
    /// Octagon layer only (the pre-path behavior).
    Octagon,
    /// Path-condition layer only (no octagon fixpoint).
    Path,
    /// Octagon, then path on the remaining open alarms.
    #[default]
    Both,
}

impl TriageMode {
    /// Stable name, as accepted by `--triage` and recorded in reports.
    pub fn name(self) -> &'static str {
        match self {
            TriageMode::Octagon => "octagon",
            TriageMode::Path => "path",
            TriageMode::Both => "both",
        }
    }

    /// Parses a `--triage` argument.
    pub fn parse(s: &str) -> Option<TriageMode> {
        match s {
            "octagon" => Some(TriageMode::Octagon),
            "path" => Some(TriageMode::Path),
            "both" => Some(TriageMode::Both),
            _ => None,
        }
    }

    fn runs_octagon(self) -> bool {
        matches!(self, TriageMode::Octagon | TriageMode::Both)
    }

    fn runs_path(self) -> bool {
        matches!(self, TriageMode::Path | TriageMode::Both)
    }
}

/// How the triage pass is configured.
#[derive(Clone, Debug)]
pub struct TriageOptions {
    /// Octagon engine (defaults to sparse, like the main analysis).
    pub engine: Engine,
    /// Dependency-generation options for the sparse octagon run.
    pub depgen: DepGenOptions,
    /// Read by nothing (there is one store); stays because the frozen
    /// benchmark harness writes this struct as an exhaustive literal.
    pub dep_backend: DepBackend,
    /// Widening strategy for the octagon run.
    pub widening: WideningConfig,
    /// Work budget for the octagon fixpoint (see [`derived_budget`]).
    pub budget: Budget,
    /// Which triage layers run.
    pub mode: TriageMode,
}

impl Default for TriageOptions {
    fn default() -> TriageOptions {
        TriageOptions {
            engine: Engine::Sparse,
            depgen: DepGenOptions::default(),
            dep_backend: DepBackend::default(),
            widening: WideningConfig::default(),
            budget: Budget::unbounded(),
            mode: TriageMode::default(),
        }
    }
}

/// What the triage pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TriageStats {
    /// Open, non-definite alarms examined.
    pub candidates: usize,
    /// Alarms demoted to discharged (all layers).
    pub discharged: usize,
    /// Alarms discharged by the path-condition layer specifically.
    pub discharged_path: usize,
    /// Whether the octagon fixpoint ran at all: some candidate planned a
    /// query (never in `--triage path` mode).
    pub octagon_ran: bool,
    /// Packs the octagon solved for (under the sparse engine, a slice).
    pub octagon_packs: usize,
    /// Packs of the unit.
    pub octagon_packs_total: usize,
    /// Points the octagon fixpoint ran over (under the sparse engine, the
    /// ones that can bind a solved pack).
    pub octagon_points: usize,
    /// Points of the unit's non-external procedures.
    pub octagon_points_total: usize,
    /// Octagon node evaluations.
    pub octagon_iterations: usize,
    /// Whether the octagon fixpoint degraded under its budget.
    pub degraded: bool,
}

/// The triage budget for a unit whose interval fixpoint took
/// `interval_iterations` node evaluations: a few multiples of the interval
/// cost (octagon transfer steps are costlier per node but the pack
/// restriction keeps their count comparable), capped by the user's own
/// budget if one is set. This guarantees triage is never slower than an
/// unbounded octagon re-analysis of the unit.
pub fn derived_budget(interval_iterations: usize, base: &Budget) -> Budget {
    let cap = 4 * interval_iterations as u64 + 256;
    Budget {
        max_steps: Some(base.max_steps.map_or(cap, |b| b.min(cap))),
        timeout_ms: base.timeout_ms,
    }
}

/// [`discharge_staged`] for callers that hold no [`Inputs`]: the ICFG,
/// def/use sets and (for a sparse result) dependency relation it reads are
/// computed here, once per call.
pub fn discharge(
    program: &Program,
    pre: &PreAnalysis,
    result: &IntervalResult,
    diags: &mut [Diagnostic],
    options: &TriageOptions,
) -> TriageStats {
    let (icfg, du, deps) = stage_inputs(program, pre, result.engine);
    let q = Inputs::new(program, result, &icfg, &du, deps.as_ref());
    discharge_staged(pre, &q, diags, options)
}

/// Runs the triage layers selected by `options.mode` and demotes every
/// refuted alarm in `diags` to discharged, recording the proving packs
/// (octagon member sets, or dominating guard chains) and the refuting
/// constraint. `q` reads the interval fixpoint the alarms came from — the
/// path layer evaluates guard conditions against its inputs — and carries
/// the def/use sets and ICFG the octagon is solved over.
///
/// The octagon layer is demand-driven: candidates are first *planned* into
/// the [`Query`] values their refutations read, the octagon is solved over
/// the slice those need (none, if nothing is planned), and each plan is
/// then *decided* against the result.
pub fn discharge_staged(
    pre: &PreAnalysis,
    q: &Inputs,
    diags: &mut [Diagnostic],
    options: &TriageOptions,
) -> TriageStats {
    let program = q.program;
    let mut stats = TriageStats::default();
    let candidates: Vec<usize> = diags
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            d.is_open()
                && !d.definite
                && matches!(
                    d.kind,
                    DiagKind::BufferOverrun | DiagKind::NullDeref | DiagKind::DivByZero
                )
        })
        .map(|(i, _)| i)
        .collect();
    stats.candidates = candidates.len();
    if candidates.is_empty() {
        return stats;
    }

    // Dominator trees and assume-site indices are built lazily per
    // procedure and shared by both layers (the octagon overrun check needs
    // dominance for its alloc chains, the path layer for guard chains).
    let mut paths = PathIndex::new();

    let plans: Vec<(usize, Plan)> = if options.mode.runs_octagon() {
        let writes = DirectWrites::new(program);
        (candidates.iter())
            .filter_map(|&i| Some((i, plan(program, pre, &writes, &mut paths, &diags[i])?)))
            .collect()
    } else {
        Vec::new()
    };
    if !plans.is_empty() {
        // Seeds come off the very queries `decide` will ask: what is solved
        // for and what is asked cannot diverge.
        let seeds: Vec<VarId> = plans.iter().flat_map(|(_, p)| p.vars()).collect();
        let res = octagon::analyze_with_pre(
            program,
            pre,
            q.du,
            q.icfg,
            Some(&seeds),
            options.engine,
            AnalyzeOptions {
                depgen: options.depgen,
                widening: options.widening,
                budget: options.budget,
                ..AnalyzeOptions::default()
            },
        );
        stats.octagon_ran = true;
        stats.octagon_packs = res.stats.num_locs;
        stats.octagon_packs_total = res.packs.len();
        stats.octagon_points = res.points;
        stats.octagon_points_total = solved_points(program).count();
        stats.octagon_iterations = res.stats.iterations;
        stats.degraded = res.stats.degraded;

        let oq = OctQuery { program, res: &res };
        for (i, plan) in &plans {
            if let Some((pack, reason)) = plan.decide(&oq) {
                diags[*i].status = Status::Discharged {
                    method: DischargeMethod::Octagon,
                    pack,
                    reason,
                };
                stats.discharged += 1;
            }
        }
    }

    // The path layer runs on whatever the octagon layer left open, so in
    // `Both` mode its discharged set can only grow. A degraded interval
    // fixpoint is skipped outright: the guard evaluation below is only
    // sound against a genuine post-fixpoint.
    if options.mode.runs_path() && !q.degraded {
        for &i in &candidates {
            if !diags[i].is_open() {
                continue;
            }
            if let Some((pack, reason)) = try_discharge_path(q, &mut paths, &diags[i]) {
                diags[i].status = Status::Discharged {
                    method: DischargeMethod::PathInfeasible,
                    pack,
                    reason,
                };
                stats.discharged += 1;
                stats.discharged_path += 1;
            }
        }
    }
    stats
}

/// The path-condition layer for one alarm: collect the dominating assume
/// guards, then either (a) find a single dominating guard that can never
/// hold on its own inputs — the alarm point is unreachable — or (b) refute
/// the conjunction of the *stable* dominating guards (no writes to their
/// variables between guard and alarm) by iterated interval refinement.
fn try_discharge_path(
    q: &Inputs,
    paths: &mut PathIndex,
    d: &Diagnostic,
) -> Option<(String, String)> {
    let program = q.program;
    let pid = d.cp.proc;
    let proc = &program.procs[pid];
    if proc.is_external {
        return None;
    }
    let pp = paths.proc_paths(program, pid);
    let chain = pp.guard_chain(d.cp.node);
    if chain.is_empty() {
        return None;
    }

    // (a) A dead dominating guard: the proving pack is the chain prefix up
    // to and including the guard that can never hold.
    for (i, g) in chain.iter().enumerate() {
        if let Some(reason) = pathcond::guard_is_dead(q, pid, g.node) {
            let pack = pathcond::render_chain(program, proc, &chain[..=i]);
            return Some((pack, reason));
        }
    }

    // (b) Contradictory conjunction of stable guards. A single guard can
    // never contradict the seed (the seed already reflects it), so only
    // bother from two guards up.
    let stable: Vec<&GuardSite> = chain
        .iter()
        .copied()
        .filter(|g| pathcond::guard_is_stable(program, pid, g.node, d.cp.node))
        .collect();
    if stable.len() < 2 {
        return None;
    }
    let guards: Vec<(NodeId, &Cond)> = stable
        .iter()
        .filter_map(|g| match &proc.nodes[g.node].cmd {
            Cmd::Assume(c) => Some((g.node, c)),
            _ => None,
        })
        .collect();
    let reason = pathcond::refute_conjunction(q, d.cp, &guards)?;
    Some((pathcond::render_chain(program, proc, &stable), reason))
}

/// A value a discharge rule reads off the octagon result, *before* `cp`.
#[derive(Clone, Copy, Debug)]
enum Query {
    /// The interval of `x`.
    Itv { cp: Cp, x: VarId },
    /// The interval of `x − y` (`x + y` with `sum`).
    Rel {
        cp: Cp,
        x: VarId,
        y: VarId,
        sum: bool,
    },
}

impl Query {
    fn vars(self) -> impl Iterator<Item = VarId> {
        let (x, y) = match self {
            Query::Itv { x, .. } => (x, None),
            Query::Rel { x, y, .. } => (x, Some(y)),
        };
        std::iter::once(x).chain(y)
    }

    fn render(self, program: &Program) -> String {
        match self {
            Query::Itv { x, .. } => var_name(program, x).to_string(),
            Query::Rel { x, y, sum, .. } => {
                let sign = if sum { "+" } else { "-" };
                format!("{} {sign} {}", var_name(program, x), var_name(program, y))
            }
        }
    }
}

/// The planned refutation of one candidate, chosen syntactically: the value
/// it reads and what that value must show. [`Plan::decide`] evaluates the
/// same queries against an octagon result.
#[derive(Clone, Copy, Debug)]
struct Plan {
    query: Query,
    must: Must,
}

#[derive(Clone, Copy, Debug)]
enum Must {
    /// Exclude 0 (null dereferences, divisors).
    NonZero,
    /// As the index of a fresh block of this many cells, lie within it.
    Within(i64),
    /// Be non-negative while this query — the index minus the block's size
    /// variable — is at most −1.
    Below(Query),
}

impl Plan {
    /// The variables its queries read: what the octagon must be solved for.
    fn vars(&self) -> impl Iterator<Item = VarId> {
        let diff = match self.must {
            Must::Below(diff) => Some(diff),
            _ => None,
        };
        std::iter::once(self.query)
            .chain(diff)
            .flat_map(Query::vars)
    }

    /// The proving packs and the refuting constraint, if `q`'s result
    /// refutes the alarm.
    fn decide(&self, q: &OctQuery<'_>) -> Option<(String, String)> {
        let (itv, mut pids) = q.eval(self.query);
        let name = self.query.render(q.program);
        let nonneg = matches!(itv.lo(), Some(Bound::Int(l)) if l >= 0);
        let reason = match self.must {
            Must::NonZero if !itv.is_bottom() && !itv.contains(0) => {
                format!("{name} in {itv} excludes 0")
            }
            Must::Within(size) if nonneg && matches!(itv.hi(), Some(Bound::Int(h)) if h < size) => {
                format!("{name} in {itv} within [0, {}]", size - 1)
            }
            Must::Below(diff) if nonneg => {
                let (diff_itv, diff_pids) = q.eval(diff);
                if !matches!(diff_itv.hi(), Some(Bound::Int(h)) if h <= -1) {
                    return None;
                }
                pids.extend(diff_pids);
                format!("{name} >= 0 and {} <= -1", diff.render(q.program))
            }
            _ => return None,
        };
        (!pids.is_empty()).then(|| (q.render_packs(pids), reason))
    }
}

/// Plans the octagon refutation of candidate `d`: every check that needs no
/// octagon happens here, so a candidate that plans nothing costs nothing.
fn plan(
    program: &Program,
    pre: &PreAnalysis,
    writes: &DirectWrites,
    paths: &mut PathIndex,
    d: &Diagnostic,
) -> Option<Plan> {
    match d.kind {
        DiagKind::BufferOverrun => plan_overrun(program, pre, writes, paths, d),
        DiagKind::NullDeref => Some(Plan {
            query: Query::Itv {
                cp: d.cp,
                x: d.var?,
            },
            must: Must::NonZero,
        }),
        DiagKind::DivByZero => plan_div(program, d),
        _ => None,
    }
}

/// Relational queries against the octagon result, evaluated *before* a
/// control point by a walk back through the CFG. Anything unbound is ⊤.
struct OctQuery<'a> {
    program: &'a Program,
    res: &'a OctagonResult,
}

impl OctQuery<'_> {
    /// The octagon of pack `pid` flowing into `cp`: the join, over every
    /// backward path, of the first point whose `D̂` holds the pack — that
    /// point's binding, the last value the pack took on the path. `None`
    /// means ⊤: such a point leaves the pack unbound (a write it cannot
    /// show, say from a callee), or a backward path reaches the procedure
    /// entry first. A dense engine's call binds the *pre*-call state — what
    /// the callee leaves arrives over the return edge — so there a call
    /// defining the pack answers ⊤ too.
    fn before(&self, cp: Cp, pid: PackId) -> Option<Octagon> {
        let proc = &self.program.procs[cp.proc];
        let mut stack: Vec<NodeId> = proc.preds_of(cp.node).to_vec();
        if stack.is_empty() {
            return None;
        }
        let mut visited: FxHashSet<NodeId> = stack.iter().copied().collect();
        let mut acc = Octagon::bottom();
        while let Some(n) = stack.pop() {
            let at = Cp::new(cp.proc, n);
            let defines = self.res.defines(at, pid);
            let pre_call =
                self.res.engine != Engine::Sparse && matches!(proc.nodes[n].cmd, Cmd::Call { .. });
            let bound = self.res.get(at, pid);
            if let Some(o) = bound.filter(|_| !(defines && pre_call)) {
                acc = acc.join(o);
                continue;
            }
            let preds = proc.preds_of(n);
            if preds.is_empty() || defines {
                return None;
            }
            for &p in preds {
                if visited.insert(p) {
                    stack.push(p);
                }
            }
        }
        // ⊥ here would claim the point unreachable; refuse to conclude
        // that from a *query* — refutations must come from real
        // constraints.
        (!acc.is_bottom()).then_some(acc)
    }

    /// The queried interval before its point: the meet over every pack
    /// that binds the queried variable(s), with the packs that actually
    /// constrained it.
    fn eval(&self, query: Query) -> (Interval, Vec<PackId>) {
        let (Query::Itv { cp, x } | Query::Rel { cp, x, .. }) = query;
        let mut acc = Interval::top();
        let mut used = Vec::new();
        for &pid in self.res.packs.packs_of(x) {
            let pack = self.res.packs.pack(pid);
            if !query.vars().all(|v| pack.contains(v)) {
                continue;
            }
            let Some(o) = self.before(cp, pid) else {
                continue;
            };
            let ix = |v| {
                pack.index_of(v)
                    .expect("pack contains the queried variables")
            };
            let itv = match query {
                Query::Itv { x, .. } => o.project(ix(x)),
                Query::Rel { x, y, sum, .. } if sum => o.sum_interval(ix(x), ix(y)),
                Query::Rel { x, y, .. } => o.diff_interval(ix(x), ix(y)),
            };
            if itv.is_bottom() || itv == Interval::top() {
                continue;
            }
            acc = acc.meet(&itv);
            used.push(pid);
        }
        (acc, used)
    }

    /// Renders the contributing packs as their member-name sets.
    fn render_packs(&self, mut pids: Vec<PackId>) -> String {
        pids.sort_unstable();
        pids.dedup();
        pids.iter()
            .map(|&pid| {
                let names: Vec<&str> = self
                    .res
                    .packs
                    .pack(pid)
                    .members()
                    .iter()
                    .map(|&v| self.program.vars[v].name.as_str())
                    .collect();
                format!("{{{}}}", names.join(","))
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Every variable's direct writes anywhere in the program — assignments,
/// allocations and call-return bindings with the variable as the plain
/// left-hand side — each variable's in program order: one walk over the
/// program, built once per triage run and read per query.
struct DirectWrites(Rows<Cp>);

impl DirectWrites {
    fn new(program: &Program) -> DirectWrites {
        let writes = || {
            let points = program.all_points();
            points.filter_map(|cp| Some((direct_write(program.cmd(cp))?, cp)))
        };
        let mut rows = Scatter::new(program.vars.len());
        for (v, _) in writes() {
            rows.count(v.index());
        }
        for (v, cp) in writes() {
            rows.place(v.index(), cp);
        }
        DirectWrites(rows.finish())
    }

    /// The direct writes to `x`.
    fn of(&self, x: VarId) -> &[Cp] {
        self.0.row(x.index())
    }
}

/// The variable `cmd` writes directly, if any.
fn direct_write(cmd: &Cmd) -> Option<VarId> {
    match cmd {
        Cmd::Assign(LVal::Var(v), _)
        | Cmd::Alloc(LVal::Var(v), _)
        | Cmd::Call {
            ret: Some(LVal::Var(v)),
            ..
        } => Some(*v),
        _ => None,
    }
}

/// Follows single-write copy chains from `base` down to the alarm's
/// allocation: every link must be the variable's only direct write in the
/// whole program, must not be address-taken, must live in `proc`, and must
/// dominate the point the previous link is consumed at — so at the access,
/// `base` provably holds offset 0 of a block allocated *this* activation
/// at `alloc_cp`. Returns the allocation's size expression. Dominance
/// comes from the shared memoized dominator tree ([`DomTree`]) rather
/// than a per-query reachability walk.
#[allow(clippy::too_many_arguments)]
fn alloc_chain_size<'p>(
    program: &'p Program,
    writes: &DirectWrites,
    pid: ProcId,
    dom: &DomTree,
    base: VarId,
    alloc_cp: Cp,
    use_node: NodeId,
    depth: usize,
) -> Option<&'p Expr> {
    if depth == 0 {
        return None;
    }
    if program.vars[base].address_taken {
        return None;
    }
    let [w] = writes.of(base) else {
        return None;
    };
    if w.proc != pid {
        return None;
    }
    let proc = &program.procs[pid];
    if !dom.dominates(w.node, use_node) {
        return None;
    }
    match &proc.nodes[w.node].cmd {
        Cmd::Alloc(LVal::Var(_), size) => (*w == alloc_cp).then_some(size),
        Cmd::Assign(LVal::Var(_), Expr::Var(src)) => {
            alloc_chain_size(program, writes, pid, dom, *src, alloc_cp, w.node, depth - 1)
        }
        _ => None,
    }
}

fn has_calls(proc: &Proc) -> bool {
    proc.nodes.iter().any(|n| matches!(n.cmd, Cmd::Call { .. }))
}

fn var_name(program: &Program, x: VarId) -> &str {
    &program.vars[x].name
}

fn plan_overrun(
    program: &Program,
    pre: &PreAnalysis,
    writes: &DirectWrites,
    paths: &mut PathIndex,
    d: &Diagnostic,
) -> Option<Plan> {
    let t = d.var?;
    let Evidence::Overrun {
        alloc: Some((ap, an)),
        ..
    } = &d.evidence
    else {
        return None;
    };
    let alloc_cp = Cp::new(ProcId::new(*ap as usize), NodeId::new(*an as usize));
    let pid = d.cp.proc;
    if alloc_cp.proc != pid || program.vars[t].address_taken {
        return None;
    }
    let proc = &program.procs[pid];

    // The accessed pointer must be a single-assignment `base + index` sum
    // computed immediately before the access.
    let [def] = writes.of(t) else {
        return None;
    };
    if def.proc != pid || !proc.preds_of(d.cp.node).contains(&def.node) {
        return None;
    }
    let Cmd::Assign(LVal::Var(_), Expr::Binop(BinOp::Add, a, b)) = &proc.nodes[def.node].cmd else {
        return None;
    };
    let (Expr::Var(a), Expr::Var(b)) = (&**a, &**b) else {
        return None;
    };
    let is_base = |v: VarId| {
        pre.state
            .get_ref(&AbsLoc::Var(v))
            .is_some_and(|val| !val.arr.is_empty())
    };
    let (base, idx) = match (is_base(*a), is_base(*b)) {
        (true, false) => (*a, *b),
        (false, true) => (*b, *a),
        _ => return None,
    };

    let dom = &paths.proc_paths(program, pid).dom;
    let size = alloc_chain_size(program, writes, pid, dom, base, alloc_cp, d.cp.node, 4)?;

    let must = match size {
        Expr::Const(c) if *c >= 1 => Must::Within(*c),
        // The size variable must denote the same value at the allocation
        // and at the access: no direct writes anywhere, not address-taken,
        // and no calls in the procedure (so no other activation can rebind
        // it between the two points).
        Expr::Var(s)
            if !program.vars[*s].address_taken && writes.of(*s).is_empty() && !has_calls(proc) =>
        {
            Must::Below(Query::Rel {
                cp: d.cp,
                x: idx,
                y: *s,
                sum: false,
            })
        }
        _ => return None,
    };
    let query = Query::Itv { cp: d.cp, x: idx };
    Some(Plan { query, must })
}

fn plan_div(program: &Program, d: &Diagnostic) -> Option<Plan> {
    let Evidence::DivByZero { nth, .. } = &d.evidence else {
        return None;
    };
    let mut divisors: Vec<&Expr> = Vec::new();
    checker::collect_divisors_cmd(program.cmd(d.cp), &mut divisors);
    let cp = d.cp;
    let query = match *divisors.get(*nth as usize)? {
        Expr::Var(x) => Query::Itv { cp, x: *x },
        Expr::Binop(op @ (BinOp::Sub | BinOp::Add), a, b) => {
            let (Expr::Var(x), Expr::Var(y)) = (&**a, &**b) else {
                return None;
            };
            let sum = matches!(op, BinOp::Add);
            Query::Rel {
                cp,
                x: *x,
                y: *y,
                sum,
            }
        }
        _ => return None,
    };
    let must = Must::NonZero;
    Some(Plan { query, must })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defuse;
    use crate::icfg::Icfg;
    use crate::interval::analyze;
    use crate::octagon::OctValues;
    use crate::preanalysis;
    use sga_cfront::parse;
    use sga_utils::FxHashMap;

    fn triage(src: &str) -> (Vec<Diagnostic>, TriageStats) {
        triage_with(src, TriageMode::default())
    }

    fn triage_with(src: &str, mode: TriageMode) -> (Vec<Diagnostic>, TriageStats) {
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        let r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        let opts = TriageOptions {
            mode,
            ..TriageOptions::default()
        };
        let stats = discharge(&p, &pre, &r, &mut diags, &opts);
        (diags, stats)
    }

    #[test]
    fn loop_overrun_with_symbolic_size_is_discharged() {
        // Interval: size [1,+oo] gives max index [0,0] while offset grows
        // to [0,+oo] — possible alarm. Octagon: i >= 0 and i - n <= -1.
        let (diags, stats) = triage(
            "int probe(int n) {
                int s = 0;
                if (n > 0) {
                    int *buf = malloc(n);
                    int i = 0;
                    while (i < n) { buf[i] = i; i = i + 1; }
                    s = i;
                }
                return s;
             }
             int main(int argc) { return probe(argc); }",
        );
        let overruns: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::BufferOverrun)
            .collect();
        assert!(!overruns.is_empty(), "interval must alarm first: {diags:?}");
        assert!(
            overruns
                .iter()
                .any(|d| matches!(&d.status, Status::Discharged { .. })),
            "octagon should discharge the loop access: {overruns:?}"
        );
        assert!(stats.discharged >= 1, "{stats:?}");
        if let Some(Status::Discharged { pack, reason, .. }) =
            overruns.iter().find(|d| !d.is_open()).map(|d| &d.status)
        {
            assert!(
                pack.contains('i') && reason.contains("i - n"),
                "{pack} / {reason}"
            );
        }
    }

    #[test]
    fn constant_size_overrun_is_discharged_when_bounded() {
        let (diags, _) = triage(
            "int main(int c) {
                int *buf = malloc(4);
                int i = 0;
                if (c) { i = 3; }
                buf[i] = 1;
                return 0;
             }",
        );
        // Interval keeps i in [0,3] ⊆ [0,3]: no alarm at all. Now make the
        // bound relational-only:
        let (diags2, stats2) = triage(
            "int main(int n) {
                if (n < 0) { return 0; }
                if (n > 3) { return 0; }
                int *buf = malloc(4);
                int t = 0;
                t = n;
                buf[t] = 1;
                return 0;
             }",
        );
        let _ = diags;
        let overruns: Vec<_> = diags2
            .iter()
            .filter(|d| d.kind == DiagKind::BufferOverrun)
            .collect();
        // Whether the interval analysis alarms here depends on refinement
        // propagation; if it alarms, triage must not *wrongly* discharge —
        // and if it discharges, the reason must be the constant bound.
        for d in &overruns {
            if let Status::Discharged { reason, .. } = &d.status {
                assert!(reason.contains("within [0, 3]"), "{reason}");
            }
        }
        let _ = stats2;
    }

    #[test]
    fn definite_alarms_are_never_candidates() {
        let (diags, stats) = triage(
            "int main() {
                int *buf = malloc(4);
                buf[9] = 1;
                int *p = 0;
                *p = 2;
                return 0;
             }",
        );
        assert!(diags.iter().any(|d| d.definite));
        assert!(
            diags.iter().filter(|d| d.definite).all(|d| d.is_open()),
            "definite alarms must survive triage: {diags:?}"
        );
        let _ = stats;
    }

    #[test]
    fn div_by_relational_difference_is_discharged() {
        // Interval knows nothing about n - m; the octagon pack {m,n}
        // carries m - n <= -1 from the guard.
        let (diags, stats) = triage(
            "int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                return r;
             }",
        );
        let divs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::DivByZero)
            .collect();
        assert_eq!(divs.len(), 1, "{diags:?}");
        assert!(
            matches!(&divs[0].status, Status::Discharged { reason, .. } if reason.contains("excludes 0")),
            "{divs:?}"
        );
        assert_eq!(stats.discharged, 1, "{stats:?}");
    }

    #[test]
    fn unprovable_alarms_stay_open() {
        let (diags, stats) = triage(
            "int main(int n, int m) {
                int r = 100 / (n - m);
                int *buf = malloc(8);
                buf[n] = r;
                return 0;
             }",
        );
        assert!(
            diags.iter().filter(|d| !d.definite).all(|d| d.is_open()),
            "nothing is provable here: {diags:?}"
        );
        assert_eq!(stats.discharged, 0);
    }

    #[test]
    fn triage_without_candidates_skips_octagon() {
        let (_, stats) = triage("int main() { int x = 1; return x; }");
        assert_eq!(stats.candidates, 0);
        assert!(!stats.octagon_ran);
    }

    #[test]
    fn candidates_without_a_planned_query_skip_the_octagon() {
        // `p` is written twice, so it is no single-assignment `base + idx`
        // sum: the overrun plans nothing and no octagon is solved.
        let (diags, stats) = triage_with(
            "int main(int n) {
                int *buf = malloc(4);
                int *p = buf;
                if (n > 0) { p = p + n; }
                *p = 1;
                return 0;
             }",
            TriageMode::Octagon,
        );
        assert!(stats.candidates > 0, "{diags:?}");
        assert!(!stats.octagon_ran, "{stats:?}");
        assert_eq!((stats.octagon_packs, stats.octagon_iterations), (0, 0));
        assert!(diags.iter().all(|d| d.is_open()));
    }

    type Verdict = Option<(String, String)>;

    /// Every candidate's plan, decided against the demand-driven octagon
    /// result and against the whole-unit one (`seeds: None`).
    fn verdicts(p: &Program) -> Vec<(Verdict, Verdict)> {
        let pre = preanalysis::run(p);
        let r = analyze(p, Engine::Sparse);
        let diags = checker::check_all(p, &r, &pre);
        let (mut paths, writes) = (PathIndex::new(), DirectWrites::new(p));
        let plans: Vec<Plan> = diags
            .iter()
            .filter(|d| d.is_open() && !d.definite)
            .filter_map(|d| plan(p, &pre, &writes, &mut paths, d))
            .collect();
        let seeds: Vec<VarId> = plans.iter().flat_map(Plan::vars).collect();
        let (du, icfg) = (defuse::compute(p, &pre), Icfg::build(p, &pre));
        let solve = |seeds: Option<&[VarId]>| {
            let options = AnalyzeOptions::default();
            octagon::analyze_with_pre(p, &pre, &du, &icfg, seeds, Engine::Sparse, options)
        };
        let (sliced, whole) = (solve(Some(&seeds)), solve(None));
        assert!(sliced.stats.num_locs <= whole.stats.num_locs);
        let decide = |plan: &Plan, res| plan.decide(&OctQuery { program: p, res });
        plans
            .iter()
            .map(|plan| (decide(plan, &sliced), decide(plan, &whole)))
            .collect()
    }

    /// [`OctQuery::before`] as it read the octagon's answer held as a map
    /// of states: the reference for the rows-reading one.
    fn before_in_map(
        res: &OctagonResult,
        map: &FxHashMap<Cp, octagon::OctState>,
        program: &Program,
        cp: Cp,
        pid: PackId,
    ) -> Option<Octagon> {
        let proc = &program.procs[cp.proc];
        let mut stack: Vec<NodeId> = proc.preds_of(cp.node).to_vec();
        if stack.is_empty() {
            return None;
        }
        let mut visited: FxHashSet<NodeId> = stack.iter().copied().collect();
        let mut acc = Octagon::bottom();
        while let Some(n) = stack.pop() {
            let at = Cp::new(cp.proc, n);
            let defines = res.defines(at, pid);
            let pre_call =
                res.engine != Engine::Sparse && matches!(proc.nodes[n].cmd, Cmd::Call { .. });
            let bound = map.get(&at).and_then(|st| st.get(&pid));
            if let Some(o) = bound.filter(|_| !(defines && pre_call)) {
                acc = acc.join(o);
                continue;
            }
            let preds = proc.preds_of(n);
            if preds.is_empty() || defines {
                return None;
            }
            for &p in preds {
                if visited.insert(p) {
                    stack.push(p);
                }
            }
        }
        (!acc.is_bottom()).then_some(acc)
    }

    /// `itv_of`, `diff_bound` and [`OctQuery::before`] read the octagon's
    /// answer through [`OctagonResult::get`], and give what the map of
    /// states of the same solve gives (a dense engine's own, the sparse
    /// rows turned into maps), under every engine, the sparse one whole and
    /// sliced, on `tests/alarms` and a generated SCC-heavy unit.
    #[test]
    fn octagon_answers_from_the_rows_equal_the_maps() {
        let units = crate::sparse::differential::corpus().into_iter();
        let units = units.filter(|(name, _)| name.ends_with(".c") || name.ends_with("max_scc 18"));
        let mut compared = [0usize; 3];
        for (name, p) in units {
            let pre = preanalysis::run(&p);
            let (du, icfg) = (defuse::compute(&p, &pre), Icfg::build(&p, &pre));
            let seeds: Vec<VarId> = p.vars.indices().step_by(7).collect();
            let runs = [
                (Engine::Vanilla, None),
                (Engine::Base, None),
                (Engine::Sparse, None),
                (Engine::Sparse, Some(&seeds[..])),
            ];
            let points: Vec<Cp> = p.all_points().collect();
            let stride = points.len() / 150 + 1;
            for (engine, seeds) in runs {
                let options = AnalyzeOptions::default();
                let res = octagon::analyze_with_pre(&p, &pre, &du, &icfg, seeds, engine, options);
                let map: FxHashMap<Cp, octagon::OctState> = match &res.values {
                    OctValues::Dense(states) => states.clone(),
                    OctValues::Sparse(rows) => rows.clone().into_pmaps().collect(),
                };
                let what = |cp| format!("{name}, {engine:?}, sliced {}: {cp}", seeds.is_some());
                let q = OctQuery {
                    program: &p,
                    res: &res,
                };
                for &cp in points.iter().step_by(stride) {
                    let st = map.get(&cp);
                    for (pid, pack) in res.packs.iter() {
                        assert_eq!(res.get(cp, pid), st.and_then(|st| st.get(&pid)));
                        let want = before_in_map(&res, &map, &p, cp, pid);
                        assert_eq!(q.before(cp, pid), want, "{}", what(cp));
                        compared[0] += usize::from(want.is_some());
                        for (i, &x) in pack.members().iter().enumerate() {
                            for (j, &y) in pack.members().iter().enumerate() {
                                let bound = st.and_then(|st| st.get(&pid)?.diff_bound(i, j));
                                let best = res.packs.packs_of(x).iter().filter_map(|&other| {
                                    let pack = res.packs.pack(other);
                                    let (ix, iy) = (pack.index_of(x)?, pack.index_of(y)?);
                                    st?.get(&other)?.diff_bound(ix, iy)
                                });
                                assert_eq!(res.diff_bound(cp, x, y), best.min(), "{}", what(cp));
                                compared[1] += usize::from(bound.is_some());
                            }
                        }
                    }
                    for (x, _) in p.vars.iter_enumerated() {
                        let want = st.map_or(Interval::Bot, |st| {
                            let bound = res.packs.packs_of(x).iter().filter_map(|pid| {
                                let ix = res.packs.pack(*pid).index_of(x)?;
                                Some(st.get(pid)?.project(ix))
                            });
                            bound.reduce(|a, b| a.meet(&b)).unwrap_or(Interval::Bot)
                        });
                        assert_eq!(res.itv_of(cp, x), want, "{}", what(cp));
                        compared[2] += usize::from(!want.is_bottom());
                    }
                }
            }
        }
        assert!(compared.iter().all(|&n| n > 0), "{compared:?}");
    }

    #[test]
    fn proving_pack_with_a_formal_reaches_the_callers_actuals() {
        // The proving pack {i, n, ..} holds `probe`'s formal `n`, which the
        // call in `main` really defines from `argc`: the slice has to keep
        // the caller's side or that definition would compute ⊥.
        let (diags, stats) = triage(
            "int probe(int n) {
                int s = 0;
                if (n > 0) {
                    int *buf = malloc(n);
                    int i = 0;
                    while (i < n) { buf[i] = i; i = i + 1; }
                    s = i;
                }
                return s;
             }
             int pad(int a) { int b = a * 2; return b; }
             int main(int argc) { int z = pad(7); probe(argc); return z; }",
        );
        let Some(Status::Discharged { pack, reason, .. }) =
            diags.iter().find(|d| !d.is_open()).map(|d| &d.status)
        else {
            panic!("the loop access must discharge: {diags:?}");
        };
        assert!(
            pack.contains('n') && reason.contains("i - n"),
            "{pack}: {reason}"
        );
        assert!(
            stats.octagon_packs < stats.octagon_packs_total,
            "`pad` is outside the slice: {stats:?}"
        );
    }

    #[test]
    fn may_aliased_store_refuses_the_discharge_like_the_whole_unit_run() {
        // `*p` may clobber the index `k` between its guards and the access.
        let with_store = |store: &str| {
            let src = format!(
                "int g;
                 int main(int n, int k, int c) {{
                    int *p = &g;
                    if (c) {{ p = &k; }}
                    if (n > 0) {{
                        int *buf = malloc(n);
                        if (k >= 0) {{ if (k < n) {{ {store} buf[k] = 1; }} }}
                    }}
                    return 0;
                 }}"
            );
            verdicts(&parse(&src).unwrap())
        };
        let clobbered = with_store("*p = 7;");
        assert_eq!(clobbered, vec![(None, None)]);
        let [(sliced, whole)] = with_store("").try_into().expect("one candidate");
        assert_eq!(sliced, whole);
        assert!(sliced.is_some_and(|(_, reason)| reason.contains("k - n <= -1")));
    }

    #[test]
    fn sliced_verdicts_equal_whole_unit_verdicts_on_generated_units() {
        let mut discharged = 0;
        for seed in [65261, 7, 123] {
            let source = sga_cgen::generate(&sga_cgen::GenConfig {
                seed,
                target_loc: 600,
                ..sga_cgen::GenConfig::default()
            });
            for (sliced, whole) in verdicts(&parse(&source).unwrap()) {
                assert_eq!(sliced, whole, "generator seed {seed}");
                discharged += usize::from(sliced.is_some());
            }
        }
        assert!(discharged > 0, "no unit discharged anything");
    }

    #[test]
    fn exhausted_budget_degrades_to_fewer_discharges() {
        let src = "int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                return r;
             }";
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        let r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        let opts = TriageOptions {
            budget: Budget::with_max_steps(1),
            ..TriageOptions::default()
        };
        let stats = discharge(&p, &pre, &r, &mut diags, &opts);
        assert!(stats.octagon_ran);
        // Degraded or not, every status change must still carry a pack.
        for d in &diags {
            if let Status::Discharged { pack, .. } = &d.status {
                assert!(!pack.is_empty());
            }
        }
    }

    #[test]
    fn derived_budget_caps_at_user_budget() {
        let b = derived_budget(100, &Budget::unbounded());
        assert_eq!(b.max_steps, Some(656));
        let b = derived_budget(100, &Budget::with_max_steps(10));
        assert_eq!(b.max_steps, Some(10));
    }

    /// A null deref guarded by a dominating condition that can never hold:
    /// the octagon layer cannot refute it (the pointer genuinely may be
    /// null), the path layer proves the deref unreachable.
    const DEAD_GUARD: &str = "int g;
        int main(int n) {
            int x = 3;
            int *p = 0;
            if (n > 0) { p = &g; }
            if (x > 10) { *p = 1; }
            return 0;
         }";

    #[test]
    fn dead_dominating_guard_discharges_via_path_layer() {
        let (diags, stats) = triage(DEAD_GUARD);
        let nulls: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::NullDeref)
            .collect();
        assert!(!nulls.is_empty(), "interval must alarm first: {diags:?}");
        let discharged = nulls.iter().find(|d| !d.is_open()).expect("discharged");
        let Status::Discharged {
            method,
            pack,
            reason,
        } = &discharged.status
        else {
            panic!("{discharged:?}");
        };
        assert_eq!(*method, DischargeMethod::PathInfeasible, "{discharged:?}");
        assert!(pack.contains("then@") && pack.contains("x > 10"), "{pack}");
        assert!(reason.contains("never holds"), "{reason}");
        assert_eq!(stats.discharged_path, 1, "{stats:?}");
    }

    #[test]
    fn octagon_mode_leaves_path_only_alarms_open() {
        let (diags, stats) = triage_with(DEAD_GUARD, TriageMode::Octagon);
        assert!(
            diags
                .iter()
                .filter(|d| d.kind == DiagKind::NullDeref)
                .all(|d| d.is_open()),
            "octagon alone cannot refute a may-null pointer: {diags:?}"
        );
        assert_eq!(stats.discharged_path, 0);
        assert!(stats.octagon_ran);
    }

    #[test]
    fn path_mode_skips_the_octagon_fixpoint() {
        let (diags, stats) = triage_with(DEAD_GUARD, TriageMode::Path);
        assert!(!stats.octagon_ran);
        assert_eq!(stats.discharged, stats.discharged_path);
        assert!(
            diags
                .iter()
                .filter(|d| d.kind == DiagKind::NullDeref)
                .any(|d| !d.is_open()),
            "{diags:?}"
        );
    }

    #[test]
    fn both_mode_discharges_a_superset_of_octagon_mode() {
        // One octagon-dischargeable alarm (relational divisor) plus one
        // path-dischargeable alarm (dead guard over a may-null deref).
        let src = "int g;
            int main(int n, int m) {
                int r = 0;
                if (m < n) { r = 100 / (n - m); }
                int x = 1;
                int *p = 0;
                if (n > 0) { p = &g; }
                if (x > 5) { *p = r; }
                return r;
             }";
        let (oct, _) = triage_with(src, TriageMode::Octagon);
        let (both, stats) = triage_with(src, TriageMode::Both);
        let discharged = |v: &[Diagnostic]| -> Vec<u64> {
            v.iter()
                .filter(|d| !d.is_open())
                .map(|d| d.fingerprint)
                .collect()
        };
        let oct_set = discharged(&oct);
        let both_set = discharged(&both);
        assert!(
            oct_set.iter().all(|fp| both_set.contains(fp)),
            "both must contain every octagon discharge: {oct_set:?} vs {both_set:?}"
        );
        assert!(
            both_set.len() > oct_set.len(),
            "path layer must add a discharge: {oct_set:?} vs {both_set:?}"
        );
        // Definite alarms are untouched in every mode.
        let definite = |v: &[Diagnostic]| -> Vec<(u64, bool)> {
            v.iter()
                .filter(|d| d.definite)
                .map(|d| (d.fingerprint, d.is_open()))
                .collect()
        };
        assert_eq!(definite(&oct), definite(&both));
        assert!(stats.discharged_path >= 1, "{stats:?}");
    }

    #[test]
    fn contradictory_stable_guards_discharge_via_refinement() {
        // n > 5 and n < 3 cannot hold together; n is never written between
        // the guards and the division. Path-only mode, so the octagon layer
        // (which also refutes this divisor) cannot get there first.
        let (diags, stats) = triage_with(
            "int main(int n) {
                int r = 0;
                if (n > 5) {
                    if (n < 3) { r = 100 / n; }
                }
                return r;
             }",
            TriageMode::Path,
        );
        let divs: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagKind::DivByZero)
            .collect();
        if divs.is_empty() {
            // The interval refinement may already prove the branch dead and
            // raise no alarm at all — also acceptable.
            return;
        }
        for d in &divs {
            let Status::Discharged {
                method,
                pack,
                reason,
            } = &d.status
            else {
                panic!("contradictory guards must discharge: {d:?}");
            };
            assert_eq!(*method, DischargeMethod::PathInfeasible);
            assert!(pack.contains("n > 5") && pack.contains("n < 3"), "{pack}");
            assert!(
                reason.contains("conflict") || reason.contains("never holds"),
                "{reason}"
            );
        }
        let _ = stats;
    }

    #[test]
    fn loop_carried_guard_is_never_path_discharged() {
        // The loop guard i < 8 dominates the body access but i is written
        // inside the guard→access region, so it is not stable and the path
        // layer must not reason with it. In Path-only mode everything
        // stays open.
        let (diags, stats) = triage_with(
            "int probe(int n) {
                int s = 0;
                if (n > 0) {
                    int *buf = malloc(n);
                    int i = 0;
                    while (i < n) { buf[i] = i; i = i + 1; }
                    s = i;
                }
                return s;
             }
             int main(int argc) { return probe(argc); }",
            TriageMode::Path,
        );
        assert!(
            diags.iter().any(|d| d.kind == DiagKind::BufferOverrun),
            "interval must alarm first: {diags:?}"
        );
        assert!(
            diags.iter().filter(|d| !d.definite).all(|d| d.is_open()),
            "loop-carried guards must not discharge: {diags:?}"
        );
        assert_eq!(stats.discharged_path, 0);
    }

    #[test]
    fn degraded_interval_result_skips_the_path_layer() {
        let p = parse(DEAD_GUARD).unwrap();
        let pre = preanalysis::run(&p);
        let mut r = analyze(&p, Engine::Sparse);
        let mut diags = checker::check_all(&p, &r, &pre);
        r.stats.degraded = true;
        let stats = discharge(&p, &pre, &r, &mut diags, &TriageOptions::default());
        assert_eq!(
            stats.discharged_path, 0,
            "degraded fixpoints must not feed path discharge: {stats:?}"
        );
    }

    /// The scan [`DirectWrites`] replaced: `x`'s direct writes, found by
    /// walking the whole program.
    fn writes_of(program: &Program, x: VarId) -> Vec<Cp> {
        let mut out = Vec::new();
        for (pid, proc) in program.procs.iter_enumerated() {
            for (nid, node) in proc.nodes.iter_enumerated() {
                let written = match &node.cmd {
                    Cmd::Assign(LVal::Var(v), _) | Cmd::Alloc(LVal::Var(v), _) => *v == x,
                    Cmd::Call {
                        ret: Some(LVal::Var(v)),
                        ..
                    } => *v == x,
                    _ => false,
                };
                if written {
                    out.push(Cp::new(pid, nid));
                }
            }
        }
        out
    }

    /// The index holds, for every variable, exactly the writes the scan
    /// finds, in the scan's order: over every `tests/alarms` unit and a
    /// generated unit with a large call cycle.
    #[test]
    fn the_write_index_equals_the_scan() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms");
        let mut sources = Vec::new();
        for entry in std::fs::read_dir(dir).expect("tests/alarms") {
            let path = entry.expect("a directory entry").path();
            if path.extension().is_some_and(|e| e == "c") {
                sources.push(std::fs::read_to_string(&path).expect("a readable unit"));
            }
        }
        assert!(
            sources.len() >= 20,
            "tests/alarms has {} units",
            sources.len()
        );
        sources.push(sga_cgen::generate(&sga_cgen::GenConfig {
            target_loc: 800,
            functions: 32,
            max_scc: 28,
            ..sga_cgen::GenConfig::sized(65261, 1)
        }));
        let mut written = 0;
        for src in &sources {
            let p = parse(src).expect("the unit parses");
            let writes = DirectWrites::new(&p);
            for (x, _) in p.vars.iter_enumerated() {
                let scanned = writes_of(&p, x);
                assert_eq!(writes.of(x), scanned.as_slice(), "{}", p.vars[x].name);
                written += usize::from(!scanned.is_empty());
            }
        }
        assert!(written > 100, "only {written} variables are written");
    }
}
