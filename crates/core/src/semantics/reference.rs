//! Reference oracle for [`super::writes`] and the row transfer built on it:
//! the `State → State` bodies of `transfer` / `assign` / `refine` and the
//! interval instance's sparse transfer as they were while each kept its own
//! copy of the `match` over commands — verbatim, compiled for tests only —
//! and the differential tests holding the two equal at every evaluation of
//! real fixpoints.

use super::{direct_loc, eval, lval_targets};
use crate::interval::IntervalSparseSpec;
use crate::sparse::Row;
use sga_domains::array::ArrayBlk;
use sga_domains::locs::AllocSite;
use sga_domains::{AbsLoc, Lattice, State, Value};
use sga_ir::{Cmd, Cond, Cp, LVal, Program};
use sga_utils::PMap;

pub(crate) fn assign(program: &Program, s: &State, lv: &LVal, v: &Value) -> State {
    let (targets, strong) = lval_targets(program, lv, s);
    if strong {
        if let Some(l) = targets.as_singleton() {
            return s.set(l, v.clone());
        }
    }
    s.weak_set_all(&targets, v)
}

pub(crate) fn refine(program: &Program, s: &State, cond: &Cond) -> State {
    let lv = eval(program, &cond.lhs, s);
    let rv = eval(program, &cond.rhs, s);
    let mut out = s.clone();
    if let Some(l) = direct_loc(&cond.lhs) {
        let refined = lv.itv.filter(cond.op, &rv.itv);
        out = out.set(l, out.get(&l).with_itv(refined));
    }
    if let Some(r) = direct_loc(&cond.rhs) {
        let refined = rv.itv.filter(cond.op.swap(), &lv.itv);
        out = out.set(r, out.get(&r).with_itv(refined));
    }
    out
}

pub(crate) fn transfer(program: &Program, cp: Cp, s: &State) -> State {
    match program.cmd(cp) {
        Cmd::Skip | Cmd::Call { .. } => s.clone(),
        Cmd::Assign(lv, e) => {
            let v = eval(program, e, s);
            assign(program, s, lv, &v)
        }
        Cmd::Alloc(lv, size) => {
            let sz = eval(program, size, s).itv;
            let site = AbsLoc::Alloc(AllocSite(cp));
            let v = Value::of_arr(ArrayBlk::alloc(site, sz));
            assign(program, s, lv, &v)
        }
        Cmd::Assume(cond) => refine(program, s, cond),
        Cmd::Return(e) => {
            let ret = program.procs[cp.proc].ret_var;
            let v = match e {
                Some(e) => eval(program, e, s),
                None => Value::bot(),
            };
            s.set(AbsLoc::Var(ret), v)
        }
    }
}

/// [`IntervalSparseSpec`]'s `SparseSpec::transfer` over tree states.
pub(crate) fn sparse_transfer(
    spec: &IntervalSparseSpec,
    cp: Cp,
    pre_in: &PMap<AbsLoc, Value>,
    ret_in: &PMap<AbsLoc, Value>,
) -> Row<AbsLoc, Value> {
    let pre_state = State::from_pmap(pre_in.clone());
    let post = match spec.program.cmd(cp) {
        Cmd::Call { ret, args, .. } => {
            // The post-call view of callee-affected locations joins the
            // pre-call value (the "spurious definition" side of Def 5)
            // with what returns from the callee exits.
            let joined = State::from_pmap(pre_in.union_with(ret_in, |_, a, b| a.join(b)));
            let mut out = joined.clone();
            let mut ret_val: Option<Value> = None;
            let mut any_internal = false;
            for &t in spec.pre.call_targets(cp) {
                let callee = &spec.program.procs[t];
                if callee.is_external {
                    continue;
                }
                any_internal = true;
                for (i, &p) in callee.params.iter().enumerate() {
                    // Arguments are evaluated in the PRE-call state.
                    let v = match args.get(i) {
                        Some(a) => eval(spec.program, a, &pre_state),
                        None => Value::unknown_int(),
                    };
                    out = out.set(AbsLoc::Var(p), v);
                }
                let rv = ret_in
                    .get(&AbsLoc::Var(callee.ret_var))
                    .cloned()
                    .unwrap_or_else(Value::bot);
                ret_val = Some(match ret_val {
                    Some(acc) => acc.join(&rv),
                    None => rv,
                });
            }
            let external = !any_internal
                || spec
                    .pre
                    .call_targets(cp)
                    .iter()
                    .any(|&t| spec.program.procs[t].is_external);
            if external {
                let u = Value::unknown_int();
                ret_val = Some(match ret_val {
                    Some(acc) => acc.join(&u),
                    None => u,
                });
            }
            match (ret, ret_val) {
                (Some(lv), Some(v)) => assign(spec.program, &out, lv, &v),
                _ => out,
            }
        }
        _ => transfer(spec.program, cp, &pre_state),
    };
    // Keep exactly the D̂(cp) bindings.
    let defs = spec.du.defs(cp);
    let mut out = Row::with_capacity(defs.len());
    for l in defs {
        if let Some(v) = post.get_ref(l) {
            if !v.is_bottom() {
                out.push((*l, v.clone()));
            }
        }
    }
    out
}

mod tests {
    use super::super::{refinements, with_writes, writes, Env};
    use super::*;
    use crate::budget::Budget;
    use crate::dense::{self, DenseSpec};
    use crate::interval::{AnalyzeOptions, IntervalDenseSpec, Pipeline};
    use crate::semantics;
    use crate::sparse::{self, SparseSpec};
    use sga_cfront::parse;
    use sga_domains::{Interval, LocSet, Thresholds};
    use sga_ir::{Expr, ProcId, RelOp};
    use std::cell::Cell;

    /// The dense interval instance, every node evaluation checked: the fold
    /// of [`writes`] against the `State → State` body on the fixpoint's own
    /// input, and the same list folded over the input as a row.
    struct CheckedDense<'p> {
        program: &'p Program,
        spec: IntervalDenseSpec<'p>,
        evaluations: Cell<usize>,
    }

    impl DenseSpec for CheckedDense<'_> {
        type St = State;

        fn transfer(&self, cp: Cp, input: &State) -> State {
            self.evaluations.set(self.evaluations.get() + 1);
            let want = transfer(self.program, cp, input);
            let got = self.spec.transfer(cp, input);
            assert!(got == want, "{cp}: {got:?}, the state body gives {want:?}");
            // What the sparse instance does: the input read as a row.
            let row = input.as_pmap().to_sorted_vec();
            let over_row = with_writes(input, |mut sink| {
                writes(self.program, cp, &row[..], &mut sink);
            });
            assert!(over_row == want, "{cp}: read as a row {over_row:?}");
            if let Cmd::Call { ret: Some(lv), .. } = self.program.cmd(cp) {
                let v = Value::unknown_int();
                let got = semantics::assign(self.program, input, lv, &v);
                assert!(got == assign(self.program, input, lv, &v), "{cp}: {lv:?}");
            }
            got
        }

        fn bottom(&self) -> State {
            self.spec.bottom()
        }
        fn initial(&self) -> State {
            self.spec.initial()
        }
        fn bind_args(&self, callee: ProcId, args: &[Expr], s: &State) -> State {
            self.spec.bind_args(callee, args, s)
        }
        fn bind_return(&self, callee: ProcId, ret: Option<&LVal>, s: &State) -> State {
            self.spec.bind_return(callee, ret, s)
        }
        fn bind_external(&self, ret: Option<&LVal>, s: &State) -> State {
            self.spec.bind_external(ret, s)
        }
        fn passed_to(&self, callee: ProcId, s: &State) -> Option<State> {
            self.spec.passed_to(callee, s)
        }
        fn handed_back(&self, callee: ProcId, s: &State) -> Option<State> {
            self.spec.handed_back(callee, s)
        }
        fn join(&self, a: &State, b: &State) -> State {
            self.spec.join(a, b)
        }
        fn widen(&self, a: &State, b: &State) -> State {
            self.spec.widen(a, b)
        }
        fn widen_with(&self, a: &State, b: &State, thresholds: &Thresholds) -> State {
            self.spec.widen_with(a, b, thresholds)
        }
        fn narrow(&self, a: &State, b: &State) -> State {
            self.spec.narrow(a, b)
        }
    }

    /// The sparse interval instance, every whole pop's row checked against
    /// the transfer over tree states.
    struct CheckedSparse<'p> {
        spec: IntervalSparseSpec<'p>,
        evaluations: Cell<usize>,
    }

    impl SparseSpec for CheckedSparse<'_> {
        type L = AbsLoc;
        type V = Value;

        fn transfer(
            &self,
            cp: Cp,
            pre: &[(AbsLoc, Value)],
            ret: &[(AbsLoc, Value)],
        ) -> Row<AbsLoc, Value> {
            self.evaluations.set(self.evaluations.get() + 1);
            let map = |row: &[(AbsLoc, Value)]| PMap::from_sorted_vec(row.to_vec());
            let want = sparse_transfer(&self.spec, cp, &map(pre), &map(ret));
            let got = self.spec.transfer(cp, pre, ret);
            assert!(got == want, "{cp}: {got:?}, over states {want:?}");
            got
        }

        fn loc_of(&self, id: u32) -> AbsLoc {
            self.spec.loc_of(id)
        }
        fn initial(&self) -> Row<AbsLoc, Value> {
            self.spec.initial()
        }
        fn forwards(&self, cp: Cp, id: u32) -> bool {
            self.spec.forwards(cp, id)
        }
        fn keeps(&self, v: &Value) -> bool {
            self.spec.keeps(v)
        }
    }

    /// Both operands one location, on a scalar, a field and through a
    /// pointer's target; the generator emits none of these.
    const SAME_OPERAND: &str = "
        struct pair { int a; int b; };
        int g; int *p; struct pair s;
        int main(int x) {
            p = &g; g = x; s.a = x;
            if (x < x) { g = 1; }
            if (x <= x) { g = g + 1; }
            if (g != g) { x = 0; }
            if (s.a == s.a) { s.b = 3; }
            if (*p > *p) { g = 5; }
            while (g >= g) { g = g - 1; if (g < 0) { return x; } }
            return g;
        }";

    /// Every evaluation of the dense (`vanilla` and `base`) and sparse
    /// fixpoints of `tests/alarms/`, the hand-written call shapes and
    /// generated units from flat to SCC-heavy.
    #[test]
    fn one_match_gives_what_the_three_bodies_gave() {
        let mut corpus = sparse::differential::corpus();
        corpus.push(("x < x".to_string(), parse(SAME_OPERAND).unwrap()));
        let (mut dense_evaluations, mut sparse_evaluations) = (0, 0);
        for (name, program) in &corpus {
            let staged = Pipeline::prepare(program, AnalyzeOptions::default());
            let (icfg, plan) = (&staged.icfg, &staged.widening);
            let budget = Budget::unbounded();
            for localize in [None, Some(&staged.du)] {
                let checked = CheckedDense {
                    program,
                    spec: IntervalDenseSpec::new(program, localize),
                    evaluations: Cell::new(0),
                };
                let solved = dense::solve_with(program, icfg, &checked, plan, &budget);
                assert!(!solved.post.is_empty(), "{name}");
                dense_evaluations += checked.evaluations.get();
            }
            let checked = CheckedSparse {
                spec: staged.spec(),
                evaluations: Cell::new(0),
            };
            let solved = sparse::solve(program, icfg, &staged.deps, &checked, plan, &budget);
            assert_eq!(checked.evaluations.get(), solved.work.whole, "{name}");
            sparse_evaluations += solved.work.whole;
        }
        assert!(dense_evaluations > 10_000 && sparse_evaluations > 10_000);
    }

    /// `x < x` by hand, on a value with every component: both bindings go
    /// to one location, the second standing on the first.
    #[test]
    fn an_assume_with_one_location_on_both_sides() {
        let program = parse("int y; int main(int x) { return x; }").unwrap();
        let var = |name: &str| {
            let named = |(_, v): &(_, &sga_ir::VarInfo)| v.name == name;
            program.vars.iter_enumerated().find(named).unwrap().0
        };
        let (x, y) = (AbsLoc::Var(var("x")), AbsLoc::Var(var("y")));
        let value = Value {
            itv: Interval::range(0, 10),
            ptr: LocSet::singleton(y),
            arr: ArrayBlk::alloc(y, Interval::constant(4)),
            procs: LocSet::singleton(AbsLoc::Proc(program.main)),
        };
        let states = [
            State::new(),
            State::new().set(x, value.clone()),
            State::new()
                .set(x, value.with_itv(Interval::Bot))
                .set(y, Value::constant(1)),
        ];
        let side = || Expr::Var(var("x"));
        for s in &states {
            let row = s.as_pmap().to_sorted_vec();
            for op in [
                RelOp::Lt,
                RelOp::Le,
                RelOp::Gt,
                RelOp::Ge,
                RelOp::Eq,
                RelOp::Ne,
            ] {
                let cond = Cond::new(side(), op, side());
                let want = refine(&program, s, &cond);
                let mut bindings = 0;
                let got = with_writes(s, |sink| {
                    refinements(&program, &cond, s, &mut |l, v, strong| {
                        assert!(l == x && strong);
                        bindings += 1;
                        sink(l, v, strong);
                    });
                });
                assert_eq!(bindings, 2);
                assert!(got == want, "{op:?} on {s:?}: {got:?}, not {want:?}");
                let over_row = with_writes(s, |mut sink| {
                    refinements(&program, &cond, &row[..], &mut sink);
                });
                assert!(over_row == want);
                // The refined location keeps its other components.
                let (before, after) = (s.read(&x), got.get(&x));
                assert!(after.ptr == before.ptr && after.arr == before.arr);
                assert!(after.procs == before.procs && after.itv.le(&before.itv));
            }
        }
    }
}
