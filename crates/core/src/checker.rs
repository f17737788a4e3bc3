//! Sparrow-style clients: error checkers on top of an interval analysis
//! result, reporting structured [`Diagnostic`]s.
//!
//! Four checks:
//!
//! * **buffer overruns** ([`check_overruns`]) — for every access through a
//!   pointer carrying an array block `(base, offset, size)`, alarm unless
//!   `offset ⊆ [0, size-1]` is provable;
//! * **null dereferences** ([`check_null_derefs`]) — null is the integer
//!   component of a pointer value (the frontend lowers `NULL` to `0`), so a
//!   dereferenced pointer whose abstract value contains 0 may be null; one
//!   with *only* 0 definitely is;
//! * **division by zero** ([`check_div_by_zero`]) — every `/` or `%`
//!   divisor whose interval contains 0;
//! * **uninitialized reads** ([`check_uninit_reads`]) — reads of local
//!   scalars that the flow-insensitive pre-analysis (`T̂`) binds nowhere;
//!   since `T̂` over-approximates every assignment in the program, an
//!   unbound local provably has no initializing write.
//!
//! [`check_all`] runs all four, orders the result canonically and assigns
//! the stable fingerprints. The non-definite subset is what the octagon
//! triage pass ([`crate::triage`]) later tries to discharge.
//!
//! This is the class of property the original system hunts (SPARROW is an
//! error-detection tool for full C), and it is the client we use to
//! sanity-check that precision survives sparsification end to end.

use crate::interval::IntervalResult;
use crate::pathcond::unop_itv;
use crate::preanalysis::PreAnalysis;
use sga_diag::{DiagKind, Diagnostic, Evidence};
use sga_domains::interval::Bound;
use sga_domains::{AbsLoc, Interval, Lattice, Value};
use sga_ir::{pretty, BinOp, Cmd, Cp, Expr, LVal, Program, VarId, VarKind};
use sga_utils::Idx;

/// Scans the program for array accesses whose offset may escape the block.
pub fn check_overruns(program: &Program, result: &IntervalResult) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            let mut ptrs: Vec<VarId> = Vec::new();
            collect_deref_ptrs(&node.cmd, &mut ptrs);
            for ptr in ptrs {
                // The pointer's value at the access: its value in the input
                // states — approximate with its reaching definitions' join
                // over all stored states that bind it at this point's
                // predecessors; the definition point's own state is exact
                // for temps (which array accesses are lowered through).
                let v = value_before(program, result, cp, ptr);
                for (loc, info) in v.arr.iter() {
                    if info.offset.is_bottom() || info.size.is_bottom() {
                        continue;
                    }
                    let max_index = match info.size.lo() {
                        Some(Bound::Int(s)) => Interval::range(0, (s - 1).max(0)),
                        _ => Interval::top(),
                    };
                    if !info.offset.le(&max_index) {
                        let definite = info.offset.meet(&max_index).is_bottom();
                        let alloc = match loc {
                            AbsLoc::Alloc(site) => {
                                Some((site.0.proc.index() as u32, site.0.node.index() as u32))
                            }
                            _ => None,
                        };
                        diags.push(Diagnostic::new(
                            DiagKind::BufferOverrun,
                            cp,
                            node.line,
                            &proc.name,
                            Some(ptr),
                            &program.vars[ptr].name,
                            definite,
                            Evidence::Overrun {
                                offset: info.offset.to_string(),
                                size: info.size.to_string(),
                                block: format!("{loc:?}"),
                                alloc,
                            },
                        ));
                    }
                }
            }
        }
    }
    diags.sort_by_key(|d| (d.line, d.cp));
    diags
}

/// Scans for dereferences of potentially-null pointers.
pub fn check_null_derefs(program: &Program, result: &IntervalResult) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            let mut ptrs: Vec<VarId> = Vec::new();
            collect_deref_ptrs(&node.cmd, &mut ptrs);
            for ptr in ptrs {
                let v = value_before(program, result, cp, ptr);
                let has_targets = !v.ptr.is_empty() || !v.arr.is_empty();
                if !v.itv.contains(0) {
                    continue;
                }
                diags.push(Diagnostic::new(
                    DiagKind::NullDeref,
                    cp,
                    node.line,
                    &proc.name,
                    Some(ptr),
                    &program.vars[ptr].name,
                    !has_targets && v.itv.as_const() == Some(0),
                    Evidence::Null {
                        value: v.itv.to_string(),
                    },
                ));
            }
        }
    }
    diags.sort_by_key(|d| (d.line, d.cp));
    diags
}

/// Scans for `/` and `%` whose divisor's interval contains zero.
pub fn check_div_by_zero(program: &Program, result: &IntervalResult) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            let mut divisors: Vec<&Expr> = Vec::new();
            collect_divisors_cmd(&node.cmd, &mut divisors);
            for (nth, d) in divisors.into_iter().enumerate() {
                let itv = eval_itv_before(program, result, cp, d);
                if !itv.contains(0) {
                    continue;
                }
                let (var, subject) = match d {
                    Expr::Var(x) => (Some(*x), program.vars[*x].name.clone()),
                    _ => (None, pretty::expr(program, d)),
                };
                diags.push(Diagnostic::new(
                    DiagKind::DivByZero,
                    cp,
                    node.line,
                    &proc.name,
                    var,
                    subject,
                    itv.as_const() == Some(0),
                    Evidence::DivByZero {
                        divisor: itv.to_string(),
                        nth: nth as u32,
                    },
                ));
            }
        }
    }
    diags.sort_by_key(|d| (d.line, d.cp));
    diags
}

/// Scans for reads of local scalars no assignment in the whole program
/// ever initializes. The fact source is the pre-analysis' global invariant
/// `T̂`: it over-approximates every binding the program can create, so a
/// local unbound in `T̂` has no initializing write on *any* path — such
/// reads are definite.
pub fn check_uninit_reads(program: &Program, pre: &PreAnalysis) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let cp = Cp::new(pid, nid);
            let mut reads: Vec<VarId> = Vec::new();
            collect_var_reads(&node.cmd, &mut reads);
            reads.sort_unstable();
            reads.dedup();
            for x in reads {
                let info = &program.vars[x];
                // Globals are zero-initialized, params are bound by calls,
                // temps and return slots are synthetic single-assignment.
                if !matches!(info.kind, VarKind::Local(owner) if owner == pid) {
                    continue;
                }
                // An address-taken local may be written through pointers the
                // cheap syntactic argument below cannot see.
                if info.address_taken {
                    continue;
                }
                if pre
                    .state
                    .get_ref(&AbsLoc::Var(x))
                    .is_some_and(|v| !v.is_bottom())
                {
                    continue;
                }
                diags.push(Diagnostic::new(
                    DiagKind::UninitRead,
                    cp,
                    node.line,
                    &proc.name,
                    Some(x),
                    &info.name,
                    true,
                    Evidence::Uninit,
                ));
            }
        }
    }
    diags.sort_by_key(|d| (d.line, d.cp));
    diags
}

/// Runs every checker, orders the findings canonically and assigns the
/// stable content fingerprints.
pub fn check_all(program: &Program, result: &IntervalResult, pre: &PreAnalysis) -> Vec<Diagnostic> {
    let mut diags = check_overruns(program, result);
    diags.extend(check_null_derefs(program, result));
    diags.extend(check_div_by_zero(program, result));
    diags.extend(check_uninit_reads(program, pre));
    sga_diag::sort_canonical(&mut diags);
    sga_diag::assign_fingerprints(&mut diags);
    diags
}

/// The value of `ptr` flowing into `cp`: join over the post-states of its
/// CFG predecessors (dense) or of its recorded definitions (sparse).
pub(crate) fn value_before(
    program: &Program,
    result: &IntervalResult,
    cp: Cp,
    ptr: VarId,
) -> Value {
    let l = AbsLoc::Var(ptr);
    let proc = &program.procs[cp.proc];
    let mut acc = Value::bot();
    for &p in proc.preds_of(cp.node) {
        acc = acc.join(&result.value_at(Cp::new(cp.proc, p), &l));
    }
    if acc.is_bottom() {
        // Sparse results may not bind the pointer at the predecessor; fall
        // back to the join over the points that bind it. For a procedure's
        // own locals (and temps/return slots) only the owning procedure's
        // points can legitimately bind the location — other procedures'
        // states carry relay/bypass copies from unrelated call contexts,
        // and joining those manufactures cross-procedure false alarms.
        // Params and globals keep the program-wide join: their bindings
        // genuinely live at call points (resp. anywhere), and the join is
        // the context-insensitive value.
        let scoped = matches!(
            program.vars[ptr].kind,
            VarKind::Local(owner) | VarKind::Temp(owner) | VarKind::Return(owner)
                if owner == cp.proc
        );
        for (point, s) in result.values.iter() {
            if scoped && point.proc != cp.proc {
                continue;
            }
            if let Some(v) = s.get_ref(&l) {
                acc = acc.join(v);
            }
        }
    }
    acc
}

/// Evaluates a pure expression to an interval against the before-state at
/// `cp`, via [`value_before`] lookups. Pointer-valued subexpressions and
/// unmodeled operators go to ⊤.
fn eval_itv_before(program: &Program, result: &IntervalResult, cp: Cp, e: &Expr) -> Interval {
    match e {
        Expr::Const(n) => Interval::constant(*n),
        Expr::Var(x) => {
            let v = value_before(program, result, cp, *x);
            if !v.ptr.is_empty() || !v.arr.is_empty() || !v.procs.is_empty() {
                return Interval::top();
            }
            v.itv
        }
        Expr::Unop(op, a) => unop_itv(*op, &eval_itv_before(program, result, cp, a)),
        Expr::Binop(op, a, b) => {
            let ia = eval_itv_before(program, result, cp, a);
            let ib = eval_itv_before(program, result, cp, b);
            match op {
                BinOp::Add => ia.add(&ib),
                BinOp::Sub => ia.sub(&ib),
                BinOp::Mul => ia.mul(&ib),
                BinOp::Div => ia.div(&ib),
                BinOp::Mod => ia.rem(&ib),
                BinOp::Cmp(r) => ia.cmp_result(*r, &ib),
                BinOp::And | BinOp::Or => {
                    if ia.is_bottom() || ib.is_bottom() {
                        Interval::Bot
                    } else {
                        Interval::range(0, 1)
                    }
                }
                BinOp::Bits => {
                    if ia.is_bottom() || ib.is_bottom() {
                        Interval::Bot
                    } else {
                        Interval::top()
                    }
                }
            }
        }
        Expr::Unknown => Interval::top(),
        // Loads and address constants: no numeric approximation here.
        _ => Interval::top(),
    }
}

fn collect_expr_ptrs(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Deref(inner) | Expr::DerefField(inner, _) => {
            if let Expr::Var(v) = &**inner {
                out.push(*v);
            }
            collect_expr_ptrs(inner, out);
        }
        Expr::Binop(_, a, b) => {
            collect_expr_ptrs(a, out);
            collect_expr_ptrs(b, out);
        }
        Expr::Unop(_, a) => collect_expr_ptrs(a, out),
        _ => {}
    }
}

fn collect_deref_ptrs(cmd: &Cmd, out: &mut Vec<VarId>) {
    match cmd {
        Cmd::Assign(lv, e) | Cmd::Alloc(lv, e) => {
            if let LVal::Deref(v) | LVal::DerefField(v, _) = lv {
                out.push(*v);
            }
            collect_expr_ptrs(e, out);
        }
        Cmd::Assume(c) => {
            collect_expr_ptrs(&c.lhs, out);
            collect_expr_ptrs(&c.rhs, out);
        }
        Cmd::Call { ret, args, .. } => {
            if let Some(LVal::Deref(v) | LVal::DerefField(v, _)) = ret {
                out.push(*v);
            }
            for a in args {
                collect_expr_ptrs(a, out);
            }
        }
        Cmd::Return(Some(e)) => collect_expr_ptrs(e, out),
        _ => {}
    }
}

fn collect_divisors_expr<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binop(op, a, b) => {
            collect_divisors_expr(a, out);
            collect_divisors_expr(b, out);
            if matches!(op, BinOp::Div | BinOp::Mod) {
                out.push(b);
            }
        }
        Expr::Unop(_, a) | Expr::Deref(a) | Expr::DerefField(a, _) => collect_divisors_expr(a, out),
        _ => {}
    }
}

pub(crate) fn collect_divisors_cmd<'a>(cmd: &'a Cmd, out: &mut Vec<&'a Expr>) {
    match cmd {
        Cmd::Assign(_, e) | Cmd::Alloc(_, e) => collect_divisors_expr(e, out),
        Cmd::Assume(c) => {
            collect_divisors_expr(&c.lhs, out);
            collect_divisors_expr(&c.rhs, out);
        }
        Cmd::Call { args, .. } => {
            for a in args {
                collect_divisors_expr(a, out);
            }
        }
        Cmd::Return(Some(e)) => collect_divisors_expr(e, out),
        _ => {}
    }
}

fn collect_var_reads_expr(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Var(v) => out.push(*v),
        Expr::Deref(a) | Expr::DerefField(a, _) => collect_var_reads_expr(a, out),
        Expr::Binop(_, a, b) => {
            collect_var_reads_expr(a, out);
            collect_var_reads_expr(b, out);
        }
        Expr::Unop(_, a) => collect_var_reads_expr(a, out),
        // `x.f` reads the field location, `&x` reads no value.
        _ => {}
    }
}

fn collect_var_reads(cmd: &Cmd, out: &mut Vec<VarId>) {
    match cmd {
        Cmd::Assign(lv, e) | Cmd::Alloc(lv, e) => {
            if let LVal::Deref(v) | LVal::DerefField(v, _) = lv {
                out.push(*v);
            }
            collect_var_reads_expr(e, out);
        }
        Cmd::Assume(c) => {
            collect_var_reads_expr(&c.lhs, out);
            collect_var_reads_expr(&c.rhs, out);
        }
        Cmd::Call { ret, args, .. } => {
            if let Some(LVal::Deref(v) | LVal::DerefField(v, _)) = ret {
                out.push(*v);
            }
            for a in args {
                collect_var_reads_expr(a, out);
            }
        }
        Cmd::Return(Some(e)) => collect_var_reads_expr(e, out),
        _ => {}
    }
}

/// Reports `assume` points whose condition is provably never true — dead
/// branches (`if (x) …` where the analysis bounds `x` away from the
/// condition). A development-time client: dead guards often flag logic
/// errors or stale feature checks.
pub fn check_dead_branches(program: &Program, result: &IntervalResult) -> Vec<Cp> {
    let mut dead = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        if proc.is_external {
            continue;
        }
        for (nid, node) in proc.nodes.iter_enumerated() {
            let Cmd::Assume(cond) = &node.cmd else {
                continue;
            };
            let cp = Cp::new(pid, nid);
            match &cond.lhs {
                // The refined value of a directly-mentioned location: ⊥
                // numeric with a non-⊥ input means the condition excluded
                // every value.
                Expr::Var(x) => {
                    let l = AbsLoc::Var(*x);
                    let after = result.value_at(cp, &l);
                    let before = value_before(program, result, cp, *x);
                    if after.itv.is_bottom()
                        && !before.itv.is_bottom()
                        && before.ptr.is_empty()
                        && before.arr.is_empty()
                    {
                        dead.push(cp);
                    }
                }
                // A negated variable (`if (-x)`, `if (~x)`): the semantics
                // does not refine `x` through the operator, so the
                // post-state test above never fires. Decide feasibility
                // directly: apply the operator to the input interval and
                // check the relation can hold at all.
                Expr::Unop(op, inner) => {
                    let Expr::Var(x) = &**inner else { continue };
                    let before = value_before(program, result, cp, *x);
                    if before.itv.is_bottom() || !before.ptr.is_empty() || !before.arr.is_empty() {
                        continue;
                    }
                    let lhs = unop_itv(*op, &before.itv);
                    let rhs = eval_itv_before(program, result, cp, &cond.rhs);
                    if rhs.is_bottom() {
                        continue;
                    }
                    if lhs.filter(cond.op, &rhs).is_bottom() {
                        dead.push(cp);
                    }
                }
                _ => {}
            }
        }
    }
    dead.sort();
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use sga_cfront::parse;

    #[test]
    fn in_bounds_loop_is_clean() {
        let p = parse(
            "int main() {
                int *buf = malloc(10);
                int i = 0;
                while (i < 10) { buf[i] = 1; i = i + 1; }
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_overruns(&p, &r);
        assert!(alarms.is_empty(), "false alarms: {alarms:?}");
    }

    #[test]
    fn off_by_one_is_reported() {
        let p = parse(
            "int main() {
                int *buf = malloc(10);
                int i = 0;
                while (i <= 10) { buf[i] = 1; i = i + 1; }
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_overruns(&p, &r);
        assert!(!alarms.is_empty(), "off-by-one missed");
    }

    #[test]
    fn definite_overrun_flagged() {
        let p = parse(
            "int main() {
                int *buf = malloc(4);
                buf[9] = 1;
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_overruns(&p, &r);
        assert!(alarms.iter().any(|a| a.definite), "{alarms:?}");
    }

    #[test]
    fn overrun_evidence_records_alloc_site() {
        let p = parse(
            "int main() {
                int *buf = malloc(4);
                buf[9] = 1;
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_overruns(&p, &r);
        assert!(alarms
            .iter()
            .all(|a| matches!(&a.evidence, Evidence::Overrun { alloc: Some(_), .. })));
    }

    #[test]
    fn engines_agree_on_alarm_count() {
        let src = "int main(int n) {
                int *buf = malloc(8);
                int i = 0;
                while (i < n) { buf[i] = i; i = i + 1; }
                buf[7] = 0;
                return 0;
             }";
        let p = parse(src).unwrap();
        let base = check_overruns(&p, &analyze(&p, Engine::Base)).len();
        let sparse = check_overruns(&p, &analyze(&p, Engine::Sparse)).len();
        assert_eq!(base, sparse, "alarm counts must match between engines");
    }

    #[test]
    fn value_before_fallback_stays_in_procedure() {
        // Both procedures declare a local pointer `p`; only main's may be
        // null. The fallback used to join every binding of a location
        // program-wide, which can leak another context's value (relay and
        // bypass states bind locals at other procedures' points) into an
        // unrelated procedure's query.
        let src = "int g;
             int set(int c) {
                int *p = &g;
                if (c) { g = 1; }
                *p = 2;
                return 0;
             }
             int main(int c) {
                int *p = 0;
                if (c) { p = &g; *p = 3; }
                set(c);
                return 0;
             }";
        let p = parse(src).unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let alarms = check_null_derefs(&p, &r);
            assert!(
                alarms.iter().all(|a| a.proc_name == "main"),
                "{engine:?}: `set`'s p is always &g, {alarms:?}"
            );
        }
    }

    #[test]
    fn param_fallback_still_sees_caller_bindings() {
        // A parameter's bindings live at the *call* points in callers; the
        // procedure-scoped fallback must not apply to params, or the sparse
        // engine would silently drop this (real) null dereference that the
        // Base engine reports.
        let src = "int g;
             int h(int *q) { *q = 1; return 0; }
             int main(int c) {
                if (c) { h(&g); } else { h(0); }
                return 0;
             }";
        let p = parse(src).unwrap();
        let base = check_null_derefs(&p, &analyze(&p, Engine::Base));
        let sparse = check_null_derefs(&p, &analyze(&p, Engine::Sparse));
        assert_eq!(base.len(), 1, "{base:?}");
        assert_eq!(
            base.len(),
            sparse.len(),
            "engines must agree: {base:?} vs {sparse:?}"
        );
    }
}

#[cfg(test)]
mod null_tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use sga_cfront::parse;

    #[test]
    fn definite_null_deref() {
        let p = parse("int main() { int *p = 0; *p = 1; return 0; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_null_derefs(&p, &r);
        assert!(alarms.iter().any(|a| a.definite), "{alarms:?}");
    }

    #[test]
    fn possible_null_after_join() {
        let p = parse(
            "int g;
             int main(int c) {
                int *p = 0;
                if (c) p = &g;
                *p = 1;
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_null_derefs(&p, &r);
        assert_eq!(alarms.len(), 1);
        assert!(!alarms[0].definite, "join with &g makes it only possible");
    }

    #[test]
    fn guarded_deref_is_clean() {
        let p = parse(
            "int g;
             int main(int c) {
                int *p = 0;
                if (c) p = &g;
                if (p != 0) { *p = 1; }
                return 0;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_null_derefs(&p, &r);
        // The null-comparison refinement prunes 0 from p's interval
        // component inside the guard.
        assert!(alarms.is_empty(), "{alarms:?}");
    }

    #[test]
    fn malloc_result_not_null_flagged() {
        let p = parse("int main() { int *p = malloc(4); *p = 1; return 0; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        assert!(check_null_derefs(&p, &r).is_empty());
    }

    #[test]
    fn engines_agree_on_null_derefs() {
        let src = "int g;
             int main(int c) {
                int *p = 0;
                int *q = 0;
                if (c) p = &g;
                *p = 1;
                if (q != 0) { *q = 2; }
                return 0;
             }";
        let p = parse(src).unwrap();
        let base = check_null_derefs(&p, &analyze(&p, Engine::Base));
        let sparse = check_null_derefs(&p, &analyze(&p, Engine::Sparse));
        assert_eq!(base.len(), sparse.len(), "{base:?} vs {sparse:?}");
    }
}

#[cfg(test)]
mod div_tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use sga_cfront::parse;

    #[test]
    fn definite_div_by_zero() {
        let p = parse("int main(int n) { int z = 0; return n / z; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_div_by_zero(&p, &r);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(alarms[0].definite);
    }

    #[test]
    fn possible_div_by_unbounded() {
        let p = parse("int main(int n) { return 100 / n; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_div_by_zero(&p, &r);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(!alarms[0].definite);
    }

    #[test]
    fn guarded_divisor_is_clean() {
        let p = parse("int main(int n) { if (n > 0) { return 100 / n; } return 0; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        let alarms = check_div_by_zero(&p, &r);
        assert!(alarms.is_empty(), "{alarms:?}");
    }

    #[test]
    fn nonzero_constant_divisor_is_clean() {
        let p = parse("int main(int n) { return n / 4 + n % 8; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        assert!(check_div_by_zero(&p, &r).is_empty());
    }

    #[test]
    fn modulo_divisor_checked() {
        let p = parse("int main(int n, int m) { return n % m; }").unwrap();
        let r = analyze(&p, Engine::Sparse);
        assert_eq!(check_div_by_zero(&p, &r).len(), 1);
    }
}

#[cfg(test)]
mod uninit_tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use crate::preanalysis;
    use sga_cfront::parse;

    fn uninit(src: &str) -> Vec<Diagnostic> {
        let p = parse(src).unwrap();
        let pre = preanalysis::run(&p);
        check_uninit_reads(&p, &pre)
    }

    #[test]
    fn never_assigned_local_is_flagged() {
        let alarms = uninit("int main() { int x; return x; }");
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(alarms[0].definite);
        assert_eq!(alarms[0].subject, "x");
    }

    #[test]
    fn assigned_local_is_clean() {
        assert!(uninit("int main() { int x; x = 1; return x; }").is_empty());
    }

    #[test]
    fn conditionally_assigned_local_is_not_flagged() {
        // T̂ is flow-insensitive: one assignment anywhere binds the local,
        // so only *never*-initialized locals are reported (no false
        // positives on partial paths, by construction).
        assert!(uninit("int main(int c) { int x; if (c) { x = 1; } return x; }").is_empty());
    }

    #[test]
    fn globals_and_params_are_exempt() {
        assert!(uninit("int g; int main(int c) { return g + c; }").is_empty());
    }

    #[test]
    fn uninit_findings_are_in_check_all() {
        let p = parse("int main() { int x; return x / 2; }").unwrap();
        let pre = preanalysis::run(&p);
        let r = analyze(&p, Engine::Sparse);
        let all = check_all(&p, &r, &pre);
        assert!(
            all.iter().any(|d| d.kind == DiagKind::UninitRead),
            "{all:?}"
        );
        assert!(all.iter().all(|d| d.fingerprint != 0));
    }
}

#[cfg(test)]
mod dead_branch_tests {
    use super::*;
    use crate::interval::{analyze, Engine};
    use sga_cfront::parse;

    #[test]
    fn impossible_guard_is_dead() {
        let p = parse(
            "int main() {
                int x = 3;
                if (x > 10) { x = 0; }
                return x;
             }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let dead = check_dead_branches(&p, &r);
            assert_eq!(dead.len(), 1, "{engine:?}: {dead:?}");
        }
    }

    #[test]
    fn feasible_guards_are_live() {
        let p = parse(
            "int main(int c) {
                int x = c;
                if (x > 10) { x = 0; }
                if (x < 0) { x = 1; }
                return x;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        assert!(check_dead_branches(&p, &r).is_empty());
    }

    #[test]
    fn negated_guard_on_nonzero_var_is_dead() {
        // `if (-x)` with x = 3: the true branch (`-x != 0`) is live, the
        // false branch (`-x == 0`) is dead. Nothing refines x through the
        // negation, so only the Unop-aware feasibility test can see it.
        let p = parse(
            "int main() {
                int x = 3;
                if (-x) { x = 1; }
                return x;
             }",
        )
        .unwrap();
        for engine in [Engine::Base, Engine::Sparse] {
            let r = analyze(&p, engine);
            let dead = check_dead_branches(&p, &r);
            assert_eq!(dead.len(), 1, "{engine:?}: {dead:?}");
        }
    }

    #[test]
    fn negated_guard_on_unknown_var_is_live() {
        let p = parse(
            "int main(int c) {
                if (-c) { c = 1; }
                return c;
             }",
        )
        .unwrap();
        let r = analyze(&p, Engine::Sparse);
        assert!(check_dead_branches(&p, &r).is_empty());
    }

    #[test]
    fn engines_agree_on_dead_branches() {
        let src = "int main(int c) {
                int x = 3;
                int y = c;
                if (x > 10) { x = 0; }
                if (-x) { y = 1; }
                if (y < 100000) { y = 2; }
                return x + y;
             }";
        let p = parse(src).unwrap();
        let base = check_dead_branches(&p, &analyze(&p, Engine::Base));
        let sparse = check_dead_branches(&p, &analyze(&p, Engine::Sparse));
        assert_eq!(base, sparse, "engines must agree on dead branches");
    }
}
