//! Path-condition support for alarm triage: dominator trees, dominating
//! `assume` guard chains, and sound interval evaluation of guard
//! conjunctions.
//!
//! The interval and octagon triage layers reason about *values*; this
//! module adds the *path* dimension. For an alarm at control point `A`,
//! every `assume` node that **dominates** `A` was passed — with the branch
//! polarity baked into its condition — on *every* execution reaching `A`.
//! If the conjunction of those dominating guards is infeasible under a
//! sound interval evaluation of the analysis result, no execution reaches
//! `A` and the alarm can be discharged (`path_infeasible`).
//!
//! Why only *dominating* assumes: a guard on merely *some* path to `A`
//! constrains only that path; using it to refute `A` would be unsound the
//! moment a second path exists. Dominance is exactly the "every path"
//! property the argument needs, and the dominator tree gives the whole
//! chain in O(depth) per alarm ([`ProcPaths::guard_chain`]).
//!
//! # Soundness of the queries
//!
//! Refutations must come from real constraints, so the value queries here
//! are deliberately *more* conservative than the checker's:
//!
//! * [`value_before`] walks backwards to the nearest post-states binding
//!   the variable and joins them — if **any** backwards path reaches the
//!   procedure entry unbound, the query answers ⊤ (`None`), never ⊥;
//! * values carrying pointer/array/procedure components evaluate to ⊤
//!   numerically (a concrete address is not in the numeric interval);
//! * a ⊥ interval from a query is refused — ⊥ would claim unreachability,
//!   which a query must not conclude on its own.
//!
//! Sparse results bind `assume` refinements (`D̂` includes the directly
//! refined locations), so the backwards walk answers identically over
//! dense and sparse results — the golden corpus pins this.

use crate::interval::IntervalResult;
use sga_domains::{AbsLoc, Interval, Lattice, Value};
use sga_ir::{
    pretty, BinOp, Cmd, Cond, Cp, Expr, LVal, NodeId, Proc, ProcId, Program, RelOp, UnOp, VarId,
    VarKind,
};
use sga_utils::graph::reverse_postorder;
use sga_utils::{FxHashMap, FxHashSet, Idx};

// ---------------------------------------------------------------------------
// Dominator tree
// ---------------------------------------------------------------------------

const UNREACHABLE: u32 = u32::MAX;

/// An immediate-dominator tree of one procedure's CFG, built once with the
/// Cooper–Harvey–Kennedy iteration over the reverse postorder and then
/// queried in O(tree depth).
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[v]` — immediate dominator; the entry points at itself and
    /// unreachable nodes carry [`UNREACHABLE`].
    idom: Vec<u32>,
    entry: u32,
}

impl DomTree {
    /// Builds the dominator tree of `proc`'s CFG.
    pub fn build(proc: &Proc) -> DomTree {
        let n = proc.num_nodes();
        let entry = proc.entry.index();
        let rpo = reverse_postorder(&proc.cfg_view(), entry);
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &v) in rpo.iter().enumerate() {
            rpo_num[v] = i;
        }
        let mut idom: Vec<u32> = vec![UNREACHABLE; n];
        idom[entry] = entry as u32;
        let mut changed = true;
        while changed {
            changed = false;
            for &v in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in proc.preds_of(NodeId::new(v)) {
                    let p = p.index();
                    if idom[p] == UNREACHABLE {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[v] != ni as u32 {
                        idom[v] = ni as u32;
                        changed = true;
                    }
                }
            }
        }
        DomTree {
            idom,
            entry: entry as u32,
        }
    }

    /// The immediate dominator of `n` (`None` for the entry and for nodes
    /// unreachable from it).
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        let i = n.index();
        if i as u32 == self.entry || self.idom[i] == UNREACHABLE {
            return None;
        }
        Some(NodeId::new(self.idom[i] as usize))
    }

    /// Whether every entry→`target` path passes through `dom`
    /// (`dom == target` is trivially true, and an unreachable `target` is
    /// vacuously dominated by everything).
    pub fn dominates(&self, dom: NodeId, target: NodeId) -> bool {
        if dom == target || dom.index() as u32 == self.entry {
            return true;
        }
        let t = target.index();
        if self.idom[t] == UNREACHABLE {
            return true;
        }
        let d = dom.index() as u32;
        let mut n = t as u32;
        while n != self.entry {
            let p = self.idom[n as usize];
            if p == d {
                return true;
            }
            if p == n {
                break;
            }
            n = p;
        }
        false
    }

    /// The strict dominators of `n`, nearest first, ending at the entry.
    /// Empty for the entry itself and for unreachable nodes.
    pub fn strict_dominators(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = n;
        while let Some(d) = self.idom(cur) {
            out.push(d);
            cur = d;
        }
        out
    }
}

/// CHK two-finger intersection: climb the deeper (larger RPO number) side.
fn intersect(idom: &[u32], rpo_num: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_num[a] > rpo_num[b] {
            a = idom[a] as usize;
        }
        while rpo_num[b] > rpo_num[a] {
            b = idom[b] as usize;
        }
    }
    a
}

// ---------------------------------------------------------------------------
// Guard sites
// ---------------------------------------------------------------------------

/// Which side of its branch an `assume` node sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Polarity {
    /// First successor of a two-way branch: the condition held.
    Then,
    /// Second successor: the negated condition held.
    Else,
    /// Not part of a recognizable two-way branch (switch arms, synthetic
    /// assumes).
    Assume,
}

impl Polarity {
    /// Stable label used in proving packs.
    pub fn label(self) -> &'static str {
        match self {
            Polarity::Then => "then",
            Polarity::Else => "else",
            Polarity::Assume => "assume",
        }
    }
}

/// One `assume` node with its source line and branch polarity.
#[derive(Clone, Debug)]
pub struct GuardSite {
    /// The assume node.
    pub node: NodeId,
    /// Source line of the branch.
    pub line: u32,
    /// Which side of the branch the assume is.
    pub polarity: Polarity,
}

/// Per-procedure path structures: the dominator tree plus an index of
/// every `assume` site keyed by node, so the dominating guard chain of an
/// alarm is one O(depth) tree walk.
#[derive(Clone, Debug)]
pub struct ProcPaths {
    /// The memoized dominator tree.
    pub dom: DomTree,
    guards: FxHashMap<NodeId, GuardSite>,
}

impl ProcPaths {
    /// Builds the dominator tree and the assume-site index for `proc`.
    pub fn build(proc: &Proc) -> ProcPaths {
        let dom = DomTree::build(proc);
        let mut guards = FxHashMap::default();
        for (nid, node) in proc.nodes.iter_enumerated() {
            if !matches!(node.cmd, Cmd::Assume(_)) {
                continue;
            }
            // The frontend lowers a two-way branch to one pred with the
            // successor order [then, else]; recover the polarity from it.
            let preds = proc.preds_of(nid);
            let polarity = match preds {
                [p] => {
                    let succs = proc.succs_of(*p);
                    let both_assume = succs.len() == 2
                        && succs
                            .iter()
                            .all(|&s| matches!(proc.nodes[s].cmd, Cmd::Assume(_)));
                    if both_assume && succs[0] == nid {
                        Polarity::Then
                    } else if both_assume && succs[1] == nid {
                        Polarity::Else
                    } else {
                        Polarity::Assume
                    }
                }
                _ => Polarity::Assume,
            };
            guards.insert(
                nid,
                GuardSite {
                    node: nid,
                    line: node.line,
                    polarity,
                },
            );
        }
        ProcPaths { dom, guards }
    }

    /// The chain of `assume` sites strictly dominating `n`, outermost
    /// (entry-side) first.
    pub fn guard_chain(&self, n: NodeId) -> Vec<&GuardSite> {
        let mut chain: Vec<&GuardSite> = self
            .dom
            .strict_dominators(n)
            .into_iter()
            .filter_map(|d| self.guards.get(&d))
            .collect();
        chain.reverse();
        chain
    }
}

/// Lazily-built, memoized [`ProcPaths`] per procedure — one triage run
/// builds each tree at most once no matter how many alarms share it.
#[derive(Debug, Default)]
pub struct PathIndex {
    procs: FxHashMap<ProcId, ProcPaths>,
}

impl PathIndex {
    /// Creates an empty index.
    pub fn new() -> PathIndex {
        PathIndex::default()
    }

    /// The path structures of `pid`, built on first use.
    pub fn proc_paths(&mut self, program: &Program, pid: ProcId) -> &ProcPaths {
        self.procs
            .entry(pid)
            .or_insert_with(|| ProcPaths::build(&program.procs[pid]))
    }
}

// ---------------------------------------------------------------------------
// Sound value queries
// ---------------------------------------------------------------------------

/// The value of `x` flowing into `cp`, as a refutation-grade
/// over-approximation: the join of the nearest binding post-states
/// backwards through the CFG. `None` means ⊤ — some backwards path
/// reaches the procedure entry (or an unexplored corner) without a
/// binding, or the join is ⊥, so nothing may be concluded.
pub fn value_before(program: &Program, result: &IntervalResult, cp: Cp, x: VarId) -> Option<Value> {
    let l = AbsLoc::Var(x);
    let proc = &program.procs[cp.proc];
    let mut stack: Vec<NodeId> = proc.preds_of(cp.node).to_vec();
    if stack.is_empty() {
        return None;
    }
    let mut visited: FxHashSet<NodeId> = stack.iter().copied().collect();
    let mut acc = Value::bot();
    while let Some(n) = stack.pop() {
        if let Some(v) = result
            .values
            .get(&Cp::new(cp.proc, n))
            .and_then(|s| s.get_ref(&l))
        {
            if !v.is_bottom() {
                acc = acc.join(v);
                continue;
            }
        }
        let preds = proc.preds_of(n);
        if preds.is_empty() {
            // Reached the entry with the variable unbound.
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

/// The numeric interval of the value, or `None` (⊤) when the value has
/// pointer/array/procedure components (a concrete address is not in the
/// interval) or a ⊥ interval (refuse ⊥ conclusions from queries).
pub fn numeric_itv(v: &Value) -> Option<Interval> {
    if !v.ptr.is_empty() || !v.arr.is_empty() || !v.procs.is_empty() || v.itv.is_bottom() {
        return None;
    }
    Some(v.itv)
}

/// Interval of a unary operator applied to an operand interval.
pub(crate) fn unop_itv(op: UnOp, v: &Interval) -> Interval {
    match op {
        UnOp::Neg => v.neg(),
        // `!x` is exactly `x == 0`.
        UnOp::Not => v.cmp_result(RelOp::Eq, &Interval::constant(0)),
        // Two's complement: `~x = -(x+1)`, exact on intervals.
        UnOp::BitNot => v.add(&Interval::constant(1)).neg(),
    }
}

fn binop_itv(op: BinOp, ia: &Interval, ib: &Interval) -> Interval {
    match op {
        BinOp::Add => ia.add(ib),
        BinOp::Sub => ia.sub(ib),
        BinOp::Mul => ia.mul(ib),
        BinOp::Div => ia.div(ib),
        BinOp::Mod => ia.rem(ib),
        BinOp::Cmp(r) => ia.cmp_result(r, ib),
        BinOp::And | BinOp::Or => Interval::range(0, 1),
        BinOp::Bits => Interval::top(),
    }
}

/// Evaluates a pure expression to an interval with a caller-supplied
/// variable environment; anything the environment cannot answer is ⊤.
/// Leaves never produce ⊥, so neither does any derived interval — the
/// caller may treat ⊥ (reachable only through `filter` refinement) as a
/// genuine contradiction.
fn eval_itv_env(e: &Expr, lookup: &dyn Fn(VarId) -> Interval) -> Interval {
    match e {
        Expr::Const(n) => Interval::constant(*n),
        Expr::Var(x) => lookup(*x),
        Expr::Unop(op, a) => unop_itv(*op, &eval_itv_env(a, lookup)),
        Expr::Binop(op, a, b) => binop_itv(*op, &eval_itv_env(a, lookup), &eval_itv_env(b, lookup)),
        _ => Interval::top(),
    }
}

/// Evaluates a pure expression to an interval against the sound
/// before-state at `cp` (via [`value_before`]). ⊤ wherever the result
/// does not constrain the expression.
pub fn eval_itv_before(program: &Program, result: &IntervalResult, cp: Cp, e: &Expr) -> Interval {
    eval_itv_env(e, &|x| {
        value_before(program, result, cp, x)
            .as_ref()
            .and_then(numeric_itv)
            .unwrap_or_else(Interval::top)
    })
}

/// Whether the guard condition at `assume` node `g` can never hold on its
/// own inputs: both operands evaluate to non-⊤-garbage intervals whose
/// comparison is *definitely false*. A dead dominating guard makes every
/// node it dominates unreachable. Returns the refuting fact, rendered.
pub fn guard_is_dead(
    program: &Program,
    result: &IntervalResult,
    pid: ProcId,
    g: NodeId,
) -> Option<String> {
    let proc = &program.procs[pid];
    let Cmd::Assume(cond) = &proc.nodes[g].cmd else {
        return None;
    };
    let cp = Cp::new(pid, g);
    let li = eval_itv_before(program, result, cp, &cond.lhs);
    let ri = eval_itv_before(program, result, cp, &cond.rhs);
    if li.is_bottom() || ri.is_bottom() {
        return None;
    }
    if li.cmp_result(cond.op, &ri) != Interval::constant(0) {
        return None;
    }
    Some(format!(
        "guard {} never holds: {} in {li}, {} in {ri}",
        pretty::cond(program, cond),
        pretty::expr(program, &cond.lhs),
        pretty::expr(program, &cond.rhs),
    ))
}

// ---------------------------------------------------------------------------
// Guard stability and conjunction refutation
// ---------------------------------------------------------------------------

/// Whether every variable of the expression is a non-address-taken
/// local/temp/param/return slot of `pid`, and the expression reads no
/// memory (no dereference, field or unknown) — the shapes whose value a
/// direct-write scan fully accounts for.
fn expr_is_stable_shape(program: &Program, pid: ProcId, e: &Expr) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(x) => {
            let info = &program.vars[*x];
            !info.address_taken
                && matches!(
                    info.kind,
                    VarKind::Local(o) | VarKind::Param(o) | VarKind::Temp(o) | VarKind::Return(o)
                        if o == pid
                )
        }
        Expr::Unop(_, a) => expr_is_stable_shape(program, pid, a),
        Expr::Binop(_, a, b) => {
            expr_is_stable_shape(program, pid, a) && expr_is_stable_shape(program, pid, b)
        }
        _ => false,
    }
}

/// Nodes of `proc` from which `target` is reachable (including `target`).
fn backward_region(proc: &Proc, target: NodeId) -> FxHashSet<NodeId> {
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let mut stack = vec![target];
    seen.insert(target);
    while let Some(n) = stack.pop() {
        for &p in proc.preds_of(n) {
            if seen.insert(p) {
                stack.push(p);
            }
        }
    }
    seen
}

/// Whether guard `g`'s condition still holds, with the same variable
/// values, at `alarm`: its variables are procedure-owned scalars
/// ([`expr_is_stable_shape`]) with **no direct write on any path between
/// the guard and the alarm** (forward-reachable from `g`'s successors ∩
/// backward-reachable to `alarm` — loop-carried rebindings land in this
/// region and disqualify the guard).
pub fn guard_is_stable(program: &Program, pid: ProcId, g: NodeId, alarm: NodeId) -> bool {
    let proc = &program.procs[pid];
    let Cmd::Assume(cond) = &proc.nodes[g].cmd else {
        return false;
    };
    if !expr_is_stable_shape(program, pid, &cond.lhs)
        || !expr_is_stable_shape(program, pid, &cond.rhs)
    {
        return false;
    }
    let mut vars: Vec<VarId> = Vec::new();
    cond.lhs.vars(&mut vars);
    cond.rhs.vars(&mut vars);
    vars.sort_unstable();
    vars.dedup();

    let back = backward_region(proc, alarm);
    // Forward scan from the guard's successors, pruned to the alarm's
    // backward region: exactly the nodes on some guard→alarm path.
    let mut stack: Vec<NodeId> = proc
        .succs_of(g)
        .iter()
        .copied()
        .filter(|s| back.contains(s))
        .collect();
    let mut seen: FxHashSet<NodeId> = stack.iter().copied().collect();
    while let Some(n) = stack.pop() {
        let written = match &proc.nodes[n].cmd {
            Cmd::Assign(LVal::Var(v), _) | Cmd::Alloc(LVal::Var(v), _) => vars.contains(v),
            Cmd::Call {
                ret: Some(LVal::Var(v)),
                ..
            } => vars.contains(v),
            _ => false,
        };
        if written {
            return false;
        }
        for &s in proc.succs_of(n) {
            if back.contains(&s) && seen.insert(s) {
                stack.push(s);
            }
        }
    }
    true
}

/// Tries to refute the conjunction of stable dominating guards at the
/// alarm point `cp`: each variable is seeded with its sound interval at
/// the alarm (⊤ when unknown) and the guard conditions are applied as
/// `filter` refinements to a local fixpoint. A variable refined to ⊥ — or
/// a condition that can no longer hold — proves no concrete valuation
/// satisfies every guard, so no execution reaches `cp`. Returns the
/// refuting fact, rendered.
pub fn refute_conjunction(
    program: &Program,
    result: &IntervalResult,
    cp: Cp,
    guards: &[(NodeId, &Cond)],
) -> Option<String> {
    let mut vars: Vec<VarId> = Vec::new();
    for (_, cond) in guards {
        cond.lhs.vars(&mut vars);
        cond.rhs.vars(&mut vars);
    }
    vars.sort_unstable();
    vars.dedup();

    let mut env: FxHashMap<VarId, Interval> = FxHashMap::default();
    for &x in &vars {
        let seed = value_before(program, result, cp, x)
            .as_ref()
            .and_then(numeric_itv)
            .unwrap_or_else(Interval::top);
        env.insert(x, seed);
    }

    // A handful of passes reaches the local fixpoint on any realistic
    // chain; the pass count only affects completeness, never soundness.
    for _ in 0..(2 * guards.len() + 2) {
        let mut changed = false;
        for (_, cond) in guards {
            let lookup = |x: VarId| env.get(&x).cloned().unwrap_or_else(Interval::top);
            let li = eval_itv_env(&cond.lhs, &lookup);
            let ri = eval_itv_env(&cond.rhs, &lookup);
            if li.cmp_result(cond.op, &ri) == Interval::constant(0) {
                return Some(format!(
                    "guards conflict: {} in {li} cannot satisfy {}",
                    pretty::expr(program, &cond.lhs),
                    pretty::cond(program, cond),
                ));
            }
            if let Expr::Var(x) = &cond.lhs {
                let refined = li.filter(cond.op, &ri);
                if refined.is_bottom() {
                    return Some(format!(
                        "guards conflict: {} in {li} refines to empty under {}",
                        program.vars[*x].name,
                        pretty::cond(program, cond),
                    ));
                }
                if refined != li {
                    env.insert(*x, refined);
                    changed = true;
                }
            }
            if let Expr::Var(y) = &cond.rhs {
                let lookup = |x: VarId| env.get(&x).cloned().unwrap_or_else(Interval::top);
                let li = eval_itv_env(&cond.lhs, &lookup);
                let ry = lookup(*y);
                let refined = ry.filter(cond.op.swap(), &li);
                if refined.is_bottom() {
                    return Some(format!(
                        "guards conflict: {} in {ry} refines to empty under {}",
                        program.vars[*y].name,
                        pretty::cond(program, cond),
                    ));
                }
                if refined != ry {
                    env.insert(*y, refined);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    None
}

/// Renders a guard chain as a proving pack: `polarity@line(cond)` terms
/// joined with ` & `, in entry→alarm order.
pub fn render_chain(program: &Program, proc: &Proc, chain: &[&GuardSite]) -> String {
    chain
        .iter()
        .map(|g| {
            let cond = match &proc.nodes[g.node].cmd {
                Cmd::Assume(c) => pretty::cond(program, c),
                _ => "?".to_string(),
            };
            format!("{}@{}({})", g.polarity.label(), g.line, cond)
        })
        .collect::<Vec<_>>()
        .join(" & ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use sga_cfront::parse;

    /// The pre-existing per-query dominance algorithm (entry-removal
    /// reachability), kept here as the reference the memoized tree is
    /// pinned against.
    fn reference_dominates(proc: &Proc, dom: NodeId, target: NodeId) -> bool {
        if dom == target || proc.entry == dom {
            return true;
        }
        let mut stack = vec![proc.entry];
        let mut visited: FxHashSet<NodeId> = stack.iter().copied().collect();
        while let Some(n) = stack.pop() {
            if n == dom {
                continue;
            }
            if n == target {
                return false;
            }
            for &s in proc.succs_of(n) {
                if visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        true
    }

    const PROGRAMS: &[&str] = &[
        "int main() { int x = 0; while (x < 10) { x = x + 1; } return x; }",
        "int main(int c) {
            int x = 0;
            if (c > 0) { x = 1; } else { x = 2; }
            while (x < 8) { if (x > 3) { x = x + 2; } x = x + 1; }
            return x;
         }",
        "int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }
         int main(int c) { if (c) { return f(3); } return f(4); }",
        "int main(int c) {
            if (c) { return 1; }
            int y = 0;
            while (y < 3) { y = y + 1; if (y == 2) { return y; } }
            return y;
         }",
    ];

    #[test]
    fn dom_tree_matches_reference_on_all_pairs() {
        for src in PROGRAMS {
            let p = parse(src).unwrap();
            for proc in p.procs.iter().filter(|pr| !pr.is_external) {
                let tree = DomTree::build(proc);
                for a in proc.nodes.indices() {
                    for b in proc.nodes.indices() {
                        assert_eq!(
                            tree.dominates(a, b),
                            reference_dominates(proc, a, b),
                            "{}: dominates({a}, {b}) diverged in {}",
                            src,
                            proc.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn entry_dominates_everything_and_chain_ends_at_entry() {
        let p = parse(PROGRAMS[1]).unwrap();
        let proc = &p.procs[p.main];
        let tree = DomTree::build(proc);
        for n in proc.nodes.indices() {
            assert!(tree.dominates(proc.entry, n));
            let chain = tree.strict_dominators(n);
            if n != proc.entry && tree.idom(n).is_some() {
                assert_eq!(chain.last(), Some(&proc.entry), "chain of {n}: {chain:?}");
            }
        }
    }

    #[test]
    fn guard_chain_collects_dominating_assumes_with_polarity() {
        let p = parse(
            "int main(int n) {
                int r = 0;
                if (n > 0) {
                    if (n < 10) { r = 1; } else { r = 2; }
                }
                return r;
             }",
        )
        .unwrap();
        let proc = &p.procs[p.main];
        let paths = ProcPaths::build(proc);
        // The `r = 2` node sits under then(n > 0) and else(!(n < 10)).
        let r2 = proc
            .nodes
            .iter_enumerated()
            .find(|(_, nd)| matches!(&nd.cmd, Cmd::Assign(LVal::Var(v), Expr::Const(2)) if p.vars[*v].name == "r"))
            .map(|(n, _)| n)
            .expect("r = 2 node");
        let chain = paths.guard_chain(r2);
        assert_eq!(chain.len(), 2, "{chain:?}");
        assert_eq!(chain[0].polarity, Polarity::Then);
        assert_eq!(chain[1].polarity, Polarity::Else);
        let rendered = render_chain(&p, proc, &chain);
        assert!(
            rendered.contains("then@") && rendered.contains("else@"),
            "{rendered}"
        );
        assert!(rendered.contains("n > 0"), "{rendered}");
    }

    #[test]
    fn value_before_refuses_unbound_paths() {
        let p = parse(
            "int main(int c) {
                int x = 0;
                if (c) { x = 5; }
                return x;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let proc = &p.procs[p.main];
        let x = p
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == "x")
            .map(|(i, _)| i)
            .unwrap();
        let ret = proc
            .nodes
            .iter_enumerated()
            .find(|(_, nd)| matches!(nd.cmd, Cmd::Return(Some(_))))
            .map(|(n, _)| n)
            .unwrap();
        let v = value_before(&p, &r, Cp::new(p.main, ret), x);
        let itv = v.as_ref().and_then(numeric_itv).expect("x is bound");
        // Join over both arms: [0,0] ⊔ [5,5].
        assert!(itv.contains(0) && itv.contains(5), "{itv}");
    }

    #[test]
    fn guard_stability_rejects_loop_carried_writes() {
        let p = parse(
            "int main(int n) {
                int i = 0;
                if (n > 0) {
                    while (i < n) { i = i + 1; }
                }
                return i;
             }",
        )
        .unwrap();
        let proc = &p.procs[p.main];
        let paths = ProcPaths::build(proc);
        // The loop-body increment is guarded by assume(i < n), which is NOT
        // stable w.r.t. itself-downstream: `i` is written inside the region.
        let inc = proc
            .nodes
            .iter_enumerated()
            .find(|(_, nd)| {
                matches!(&nd.cmd, Cmd::Assign(LVal::Var(v), Expr::Binop(BinOp::Add, _, _)) if p.vars[*v].name == "i")
            })
            .map(|(n, _)| n)
            .expect("i = i + 1 node");
        let chain = paths.guard_chain(inc);
        let loop_guard = chain
            .iter()
            .find(
                |g| matches!(&proc.nodes[g.node].cmd, Cmd::Assume(c) if matches!(c.op, RelOp::Lt)),
            )
            .expect("loop guard dominates the increment");
        assert!(
            !guard_is_stable(&p, p.main, loop_guard.node, inc),
            "loop-carried guard must not be stable"
        );
        // The outer n > 0 guard is stable: n is never written.
        let outer = chain
            .iter()
            .find(
                |g| matches!(&proc.nodes[g.node].cmd, Cmd::Assume(c) if matches!(c.op, RelOp::Gt)),
            )
            .expect("outer guard");
        assert!(guard_is_stable(&p, p.main, outer.node, inc));
    }

    #[test]
    fn contradictory_conjunction_is_refuted() {
        let p = parse(
            "int main(int n) {
                int r = 0;
                if (n > 5) {
                    if (n < 3) { r = 1; }
                }
                return r;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let proc = &p.procs[p.main];
        let paths = ProcPaths::build(proc);
        let r1 = proc
            .nodes
            .iter_enumerated()
            .find(|(_, nd)| matches!(&nd.cmd, Cmd::Assign(LVal::Var(v), Expr::Const(1)) if p.vars[*v].name == "r"))
            .map(|(n, _)| n)
            .expect("r = 1 node");
        let chain = paths.guard_chain(r1);
        let guards: Vec<(NodeId, &Cond)> = chain
            .iter()
            .filter(|g| guard_is_stable(&p, p.main, g.node, r1))
            .filter_map(|g| match &proc.nodes[g.node].cmd {
                Cmd::Assume(c) => Some((g.node, c)),
                _ => None,
            })
            .collect();
        assert!(guards.len() >= 2, "{guards:?}");
        let reason = refute_conjunction(&p, &r, Cp::new(p.main, r1), &guards);
        assert!(
            reason.as_deref().is_some_and(|s| s.contains("conflict")),
            "{reason:?}"
        );
    }

    #[test]
    fn feasible_conjunction_is_not_refuted() {
        let p = parse(
            "int main(int n) {
                int r = 0;
                if (n > 0) {
                    if (n < 10) { r = 1; }
                }
                return r;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let proc = &p.procs[p.main];
        let paths = ProcPaths::build(proc);
        let r1 = proc
            .nodes
            .iter_enumerated()
            .find(|(_, nd)| matches!(&nd.cmd, Cmd::Assign(LVal::Var(v), Expr::Const(1)) if p.vars[*v].name == "r"))
            .map(|(n, _)| n)
            .unwrap();
        let chain = paths.guard_chain(r1);
        let guards: Vec<(NodeId, &Cond)> = chain
            .iter()
            .filter_map(|g| match &proc.nodes[g.node].cmd {
                Cmd::Assume(c) => Some((g.node, c)),
                _ => None,
            })
            .collect();
        assert!(refute_conjunction(&p, &r, Cp::new(p.main, r1), &guards).is_none());
    }
}
