//! A third framework instance: **constant propagation**, sparse and dense.
//!
//! The paper's related-work section traces sparse analysis to constant
//! propagation (Reif & Lewis 1977; Wegman & Zadeck's conditional constant
//! propagation) and §2.9 claims any member of the baseline abstraction
//! family can be made sparse in two steps. This module substantiates the
//! claim with a *flat constant lattice* instance built entirely from the
//! existing machinery: the same pre-analysis, the same `D̂`/`Û` sets, the
//! same dependency generator, the same engines — only the value domain and
//! transfer function change.
//!
//! The domain is the classic flat lattice `⊥ ⊑ n ⊑ ⊤` per location, with
//! pointers delegated to the pre-analysis (constants don't track targets;
//! stores through pointers use the pre-analysis' points-to sets for their
//! def sets, exactly like the interval instance's D̂).
//!
//! [`ConstSpec`] is both halves of Lemma 1: a [`SparseSpec`] and the
//! [`DenseSpec`] of the *base* engine (access-based localization, the
//! interval instance's `localization_sets`, routed by the same
//! [`dense::edge`] as every dense instance). Both read expressions through
//! one evaluator and commands through one transfer — the sparse transfer of
//! a non-call command is the dense one restricted to `D̂(c)`. The lattice has
//! finite height and no widening, so each engine reaches its unique least
//! fixpoint and the two must agree with `==`;
//! [`crate::validate::check_lemma1`] holds them to it.

use crate::defuse::DefUse;
use crate::dense::{self, DenseSpec};
use crate::icfg::{EdgeKind, Icfg, InEdge};
use crate::interval::{localization_sets, InSets, OutSets};
use crate::preanalysis::PreAnalysis;
use crate::semantics;
use crate::sparse::{self, Row, SparseSpec};
use sga_domains::{AbsLoc, Lattice};
use sga_ir::{BinOp, Cmd, Cp, Expr, LVal, Proc, ProcId, Program, RelOp, UnOp};
use sga_utils::{FxHashMap, PMap};

/// The flat constant lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Const {
    /// No value yet.
    Bot,
    /// Exactly this integer, on every run reaching the point.
    Val(i64),
    /// More than one value (or a non-constant source).
    Top,
}

impl Lattice for Const {
    fn bottom() -> Self {
        Const::Bot
    }

    fn le(&self, other: &Self) -> bool {
        matches!((self, other), (Const::Bot, _) | (_, Const::Top)) || self == other
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (Const::Bot, x) | (x, Const::Bot) => *x,
            (Const::Val(a), Const::Val(b)) if a == b => *self,
            _ => Const::Top,
        }
    }
    // Flat lattices have finite height: default widen (= join) terminates.
}

/// The constant state: locations to flat constants.
pub type ConstState = PMap<AbsLoc, Const>;

/// The binding of `l` in `s` (⊥ if unbound).
pub(crate) fn get(s: &ConstState, l: &AbsLoc) -> Const {
    s.get(l).copied().unwrap_or(Const::Bot)
}

/// Both engines' specification of constant propagation over a staged unit.
pub struct ConstSpec<'p> {
    program: &'p Program,
    pre: &'p PreAnalysis,
    du: &'p DefUse,
    /// What a call edge passes each procedure, and what its return edge
    /// hands back (the base engine's localization).
    in_sets: InSets,
    out_sets: OutSets,
}

impl<'p> ConstSpec<'p> {
    /// The spec over `pre`'s points-to facts and `du`'s sets.
    pub fn new(program: &'p Program, pre: &'p PreAnalysis, du: &'p DefUse) -> Self {
        let (in_sets, out_sets) = localization_sets(program, du);
        ConstSpec {
            program,
            pre,
            du,
            in_sets,
            out_sets,
        }
    }

    /// `Ê(e)` with each location's binding given by `read`.
    fn eval(&self, e: &Expr, read: &dyn Fn(&AbsLoc) -> Const) -> Const {
        match e {
            Expr::Const(n) => Const::Val(*n),
            Expr::Var(x) => read(&AbsLoc::Var(*x)),
            Expr::Field(x, f) => read(&AbsLoc::Field(*x, *f)),
            Expr::Deref(_) | Expr::DerefField(_, _) => {
                // A load joins over the pre-analysis' `Û(e)`: the targets
                // and the pointer itself — sound but noisy; ⊤ is the honest
                // answer unless all agree.
                let mut used = Vec::new();
                semantics::used_locs(self.program, e, &self.pre.state, &mut used);
                used.iter().fold(Const::Bot, |acc, l| acc.join(&read(l)))
            }
            // Addresses and unknowns are not integer constants.
            Expr::AddrOf(_) | Expr::AddrOfField(_, _) | Expr::AddrOfProc(_) | Expr::Unknown => {
                Const::Top
            }
            Expr::Unop(op, a) => match (op, self.eval(a, read)) {
                (_, Const::Bot) => Const::Bot,
                (UnOp::Neg, Const::Val(n)) => Const::Val(n.wrapping_neg()),
                (UnOp::Not, Const::Val(n)) => Const::Val(i64::from(n == 0)),
                (UnOp::BitNot, Const::Val(n)) => Const::Val(!n),
                _ => Const::Top,
            },
            Expr::Binop(op, a, b) => match (self.eval(a, read), self.eval(b, read)) {
                (Const::Bot, _) | (_, Const::Bot) => Const::Bot,
                (Const::Val(x), Const::Val(y)) => eval_binop(*op, x, y),
                _ => Const::Top,
            },
        }
    }

    /// `s` with `v` written through `lv`, whose targets the pre-analysis
    /// gives: a strong update on a unique non-summary target, a weak one on
    /// each otherwise.
    fn store(&self, mut s: ConstState, lv: &LVal, v: Const) -> ConstState {
        let (targets, strong) = semantics::lval_targets(self.program, lv, &self.pre.state);
        for &l in &targets {
            let v = if strong { v } else { get(&s, &l).join(&v) };
            s = s.insert(l, v);
        }
        s
    }

    /// [`ConstSpec::store`] through a call's return l-value, if it has one.
    fn store_ret(&self, s: ConstState, ret: Option<&LVal>, v: Const) -> ConstState {
        match ret {
            Some(lv) => self.store(s, lv, v),
            None => s,
        }
    }

    /// `s` with `callee`'s formals bound to `args` evaluated over `read` (⊤
    /// for a missing actual).
    fn bind_formals(
        &self,
        mut s: ConstState,
        callee: &Proc,
        args: &[Expr],
        read: &dyn Fn(&AbsLoc) -> Const,
    ) -> ConstState {
        for (i, &p) in callee.params.iter().enumerate() {
            let v = args.get(i).map_or(Const::Top, |a| self.eval(a, read));
            s = s.insert(AbsLoc::Var(p), v);
        }
        s
    }

    /// The node transfer `f̂_c` over a whole state, one for both engines.
    /// Calls bind nothing at their node (their bindings live on the ICFG
    /// edges, see [`semantics`]); constants do not refine on conditions, so
    /// `assume` is the identity too.
    fn transfer_state(&self, cp: Cp, s: &ConstState) -> ConstState {
        let read = |l: &AbsLoc| get(s, l);
        match self.program.cmd(cp) {
            Cmd::Skip | Cmd::Assume(_) | Cmd::Call { .. } => s.clone(),
            Cmd::Assign(lv, e) => self.store(s.clone(), lv, self.eval(e, &read)),
            // An address, not an integer constant.
            Cmd::Alloc(lv, _) => self.store(s.clone(), lv, Const::Top),
            Cmd::Return(e) => s.insert(
                AbsLoc::Var(self.program.procs[cp.proc].ret_var),
                e.as_ref().map_or(Const::Bot, |e| self.eval(e, &read)),
            ),
        }
    }

    /// What the dense base fixpoint `post` binds at `cp`: its post-state,
    /// or at a call — whose effects the engine binds on the edges leaving
    /// it — the join of what the call's own return edges carry into its CFG
    /// successors. A successor's whole input is not it: other paths may
    /// join there too.
    pub(crate) fn dense_binding(
        &self,
        icfg: &Icfg,
        post: &FxHashMap<Cp, ConstState>,
        cp: Cp,
    ) -> ConstState {
        if !matches!(self.program.cmd(cp), Cmd::Call { .. }) {
            return post.get(&cp).cloned().unwrap_or_default();
        }
        let ours = |e: &&InEdge| match e.kind {
            EdgeKind::Return { site } | EdgeKind::ExternalRet { site } => site == cp,
            EdgeKind::Intra | EdgeKind::Call { .. } => false,
        };
        let mut acc = PMap::new();
        for &s in self.program.procs[cp.proc].succs_of(cp.node) {
            let succ = Cp::new(cp.proc, s);
            for e in icfg.incoming(succ).iter().filter(ours) {
                if let Some(v) = dense::edge(self.program, self, post, succ, e) {
                    acc = self.join(&acc, &v);
                }
            }
        }
        acc
    }

    /// The state entering `main`: its parameters are unknown.
    fn initial_state(&self) -> ConstState {
        let params = &self.program.procs[self.program.main].params;
        params
            .iter()
            .map(|&p| (AbsLoc::Var(p), Const::Top))
            .collect()
    }
}

fn eval_binop(op: BinOp, x: i64, y: i64) -> Const {
    let cmp = |r: bool| Const::Val(i64::from(r));
    match op {
        BinOp::Add => Const::Val(x.wrapping_add(y)),
        BinOp::Sub => Const::Val(x.wrapping_sub(y)),
        BinOp::Mul => Const::Val(x.wrapping_mul(y)),
        BinOp::Div | BinOp::Mod if y == 0 => Const::Top,
        BinOp::Div => Const::Val(x.wrapping_div(y)),
        BinOp::Mod => Const::Val(x.wrapping_rem(y)),
        BinOp::Cmp(RelOp::Lt) => cmp(x < y),
        BinOp::Cmp(RelOp::Le) => cmp(x <= y),
        BinOp::Cmp(RelOp::Gt) => cmp(x > y),
        BinOp::Cmp(RelOp::Ge) => cmp(x >= y),
        BinOp::Cmp(RelOp::Eq) => cmp(x == y),
        BinOp::Cmp(RelOp::Ne) => cmp(x != y),
        BinOp::And => cmp(x != 0 && y != 0),
        BinOp::Or => cmp(x != 0 || y != 0),
        BinOp::Bits => Const::Top,
    }
}

impl SparseSpec for ConstSpec<'_> {
    type L = AbsLoc;
    type V = Const;

    fn loc_of(&self, id: u32) -> AbsLoc {
        self.du.locs.loc(id)
    }

    fn initial(&self) -> Row<AbsLoc, Const> {
        self.initial_state().to_sorted_vec()
    }

    fn forwards(&self, cp: Cp, id: u32) -> bool {
        self.du.forwards(cp, id)
    }

    fn keeps(&self, v: &Const) -> bool {
        *v != Const::Bot
    }

    /// A non-call command is the dense engine's transfer; a call relays
    /// `pre ⊔ ret`, binds the formals of every internal target to the
    /// actuals over `pre`, and writes the joined return values (⊤ from an
    /// external target) through its return l-value. Restricted to `D̂(cp)`.
    fn transfer(
        &self,
        cp: Cp,
        pre: &[(AbsLoc, Const)],
        ret: &[(AbsLoc, Const)],
    ) -> Row<AbsLoc, Const> {
        let post = match self.program.cmd(cp) {
            Cmd::Call {
                ret: ret_lv, args, ..
            } => {
                let read_pre = |l: &AbsLoc| row_bound(pre, l);
                let mut post = PMap::from_sorted_vec(sparse::join_rows(pre, ret));
                let targets = self.pre.call_targets(cp);
                let procs = &self.program.procs;
                let external = targets.is_empty() || targets.iter().any(|&t| procs[t].is_external);
                let mut ret_val = if external { Const::Top } else { Const::Bot };
                for callee in targets
                    .iter()
                    .map(|&t| &procs[t])
                    .filter(|p| !p.is_external)
                {
                    post = self.bind_formals(post, callee, args, &read_pre);
                    ret_val = ret_val.join(&row_bound(ret, &AbsLoc::Var(callee.ret_var)));
                }
                self.store_ret(post, ret_lv.as_ref(), ret_val)
            }
            _ => self.transfer_state(cp, &PMap::from_sorted_vec(pre.to_vec())),
        };
        self.du
            .defs(cp)
            .iter()
            .map(|l| (*l, get(&post, l)))
            .filter(|(_, v)| *v != Const::Bot)
            .collect()
    }
}

/// The binding of `l` in the ascending row `s` (⊥ if unbound).
fn row_bound(s: &[(AbsLoc, Const)], l: &AbsLoc) -> Const {
    sparse::find(s, l).map_or(Const::Bot, |at| s[at].1)
}

/// The base engine: [`dense::edge`]'s routing with the interval instance's
/// localization sets.
impl DenseSpec for ConstSpec<'_> {
    type St = ConstState;

    fn bottom(&self) -> ConstState {
        PMap::new()
    }

    fn initial(&self) -> ConstState {
        self.initial_state()
    }

    fn transfer(&self, cp: Cp, input: &ConstState) -> ConstState {
        self.transfer_state(cp, input)
    }

    fn bind_args(&self, callee: ProcId, args: &[Expr], s: &ConstState) -> ConstState {
        let callee = &self.program.procs[callee];
        self.bind_formals(s.clone(), callee, args, &|l| get(s, l))
    }

    fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, s: &ConstState) -> ConstState {
        let v = get(s, &AbsLoc::Var(self.program.procs[callee].ret_var));
        self.store_ret(s.clone(), ret, v)
    }

    fn bind_external(&self, ret: Option<&LVal>, s: &ConstState) -> ConstState {
        self.store_ret(s.clone(), ret, Const::Top)
    }

    fn passed_to(&self, callee: ProcId, s: &ConstState) -> Option<ConstState> {
        let keep = &self.in_sets[callee];
        Some(s.filter(|l, _| keep.contains(l)))
    }

    fn handed_back(&self, callee: ProcId, s: &ConstState) -> Option<ConstState> {
        let keep = &self.out_sets[callee];
        Some(s.filter(|l, _| keep.contains(l)))
    }

    fn join(&self, a: &ConstState, b: &ConstState) -> ConstState {
        a.union_with(b, |_, x, y| x.join(y))
    }

    fn widen(&self, a: &ConstState, b: &ConstState) -> ConstState {
        self.join(a, b)
    }

    fn narrow(&self, a: &ConstState, _: &ConstState) -> ConstState {
        a.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::depstore::CsrDeps;
    use crate::interval::{AnalyzeOptions, Pipeline};
    use crate::sparse::SparseRows;
    use crate::widening::WideningPlan;
    use sga_cfront::parse;
    use sga_domains::lattice::laws::{check_join_laws, check_widen_narrow_laws};
    use sga_ir::VarId;

    /// Sparse constant propagation over `program` staged with the default
    /// options.
    fn analyze(program: &Program) -> SparseRows<AbsLoc, Const> {
        let staged = Pipeline::prepare(program, AnalyzeOptions::default());
        let spec = ConstSpec::new(program, &staged.pre, &staged.du);
        let csr = CsrDeps::build(program, &staged.icfg, &staged.deps);
        let (naive, unbounded) = (WideningPlan::naive(), Budget::unbounded());
        sparse::solve_rows(program, &staged.icfg, &csr, &spec, &naive, &unbounded)
    }

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    fn last_def(program: &Program, name: &str) -> Cp {
        let v = var(program, name);
        program
            .all_points()
            .filter(|cp| matches!(program.cmd(*cp), Cmd::Assign(LVal::Var(x), _) if *x == v))
            .last()
            .unwrap_or_else(|| panic!("no assignment to {name}"))
    }

    /// The constant bound to `name` at its last assignment.
    fn at_last_def(program: &Program, r: &SparseRows<AbsLoc, Const>, name: &str) -> Const {
        let l = AbsLoc::Var(var(program, name));
        r.lookup(last_def(program, name), &l)
            .cloned()
            .unwrap_or(Const::Bot)
    }

    #[test]
    fn flat_lattice_laws() {
        let samples = [Const::Bot, Const::Val(0), Const::Val(7), Const::Top];
        for a in samples {
            for b in samples {
                for c in samples {
                    check_join_laws(&a, &b, &c);
                    check_widen_narrow_laws(&a, &b);
                }
            }
        }
    }

    #[test]
    fn propagates_through_expressions_and_calls() {
        let p = parse(
            "int scale(int x) { return x * 10; }
             int main() {
                int a = 4;
                int b = a + 1;
                int c = scale(b);
                return c;
             }",
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(at_last_def(&p, &r, "b"), Const::Val(5));
        assert_eq!(at_last_def(&p, &r, "c"), Const::Val(50));
        let constants = (r.iter().flat_map(|(_, row)| row))
            .filter(|(_, v)| matches!(v, Const::Val(_)))
            .count();
        assert!(constants >= 3);
    }

    #[test]
    fn joins_to_top_at_merges() {
        let p = parse(
            "int main(int c) {
                int x;
                if (c) x = 1; else x = 2;
                int y = x;
                int z = 3;
                if (c) z = 3;  /* same value on both paths stays constant */
                int w = z;
                return y + w;
             }",
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(at_last_def(&p, &r, "y"), Const::Top);
        assert_eq!(at_last_def(&p, &r, "w"), Const::Val(3));
    }

    #[test]
    fn loop_carried_variable_goes_top() {
        let p = parse(
            "int main() {
                int i = 0;
                int k = 42;
                while (i < 9) { i = i + 1; }
                int m = k;
                return i + m;
             }",
        )
        .unwrap();
        let r = analyze(&p);
        // i varies; k is loop-invariant and stays constant.
        assert_eq!(at_last_def(&p, &r, "m"), Const::Val(42));
        assert_eq!(at_last_def(&p, &r, "i"), Const::Top);
    }

    #[test]
    fn pointer_stores_weakly_join() {
        let p = parse(
            "int x; int y; int *p;
             int main(int c) {
                x = 7; y = 7;
                if (c) p = &x; else p = &y;
                *p = 7;          /* same constant: x and y stay 7 */
                int r = x;
                return r;
             }",
        )
        .unwrap();
        let r = analyze(&p);
        assert_eq!(at_last_def(&p, &r, "r"), Const::Val(7));
    }

    #[test]
    fn agrees_with_interval_on_constants() {
        // Cross-instance check: wherever constprop proves `Val(n)`, the
        // interval instance must bound the location by [n, n] or better
        // lose-ly include it.
        let cfg = sga_cgen::GenConfig::sized(31, 1);
        let src = sga_cgen::generate(&cfg);
        let p = parse(&src).unwrap();
        let consts = analyze(&p);
        let itv = crate::interval::analyze(&p, crate::interval::Engine::Sparse);
        let mut checked = 0;
        for (cp, row) in consts.iter() {
            for (r, v) in row {
                let l = &consts.locs()[*r as usize];
                if let Const::Val(n) = v {
                    let iv = itv.value_at(cp, l).itv;
                    assert!(
                        iv.contains(*n) || iv.is_bottom(),
                        "constprop says {l:?}={n} at {cp} but interval says {iv}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "too few constants to compare: {checked}");
    }
}
