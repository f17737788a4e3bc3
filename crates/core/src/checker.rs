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
//! The first three read a value before a point as [`Inputs::value`], the
//! input the engine computed there, so a read no value reaches raises
//! nothing.
//!
//! [`check_all`] runs all four, orders the result canonically and assigns
//! the stable fingerprints. The non-definite subset is what the octagon
//! triage pass ([`crate::triage`]) later tries to discharge.
//!
//! This is the class of property the original system hunts (SPARROW is an
//! error-detection tool for full C), and it is the client we use to
//! sanity-check that precision survives sparsification end to end.

use crate::interval::{stage_inputs, Inputs, IntervalResult};
use crate::pathcond::eval_itv;
use crate::preanalysis::PreAnalysis;
use sga_diag::{DiagKind, Diagnostic, Evidence};
use sga_domains::interval::Bound;
use sga_domains::{AbsLoc, Interval, Lattice};
use sga_ir::{pretty, BinOp, Cmd, Cp, Expr, LVal, Program, VarId, VarKind};
use sga_utils::Idx;

/// Scans the program for array accesses whose offset may escape the block.
pub fn check_overruns(q: &Inputs) -> Vec<Diagnostic> {
    let program = q.program;
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
                let v = q.value(cp, &AbsLoc::Var(ptr));
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
pub fn check_null_derefs(q: &Inputs) -> Vec<Diagnostic> {
    let program = q.program;
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
                let v = q.value(cp, &AbsLoc::Var(ptr));
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

/// Scans for `/` and `%` whose divisor's interval contains zero. A
/// variable with pointer, array or procedure components reads as ⊤, one no
/// value reaches as ⊥.
pub fn check_div_by_zero(q: &Inputs) -> Vec<Diagnostic> {
    let program = q.program;
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
                let itv = eval_itv(d, &|x| {
                    let v = q.value(cp, &AbsLoc::Var(x));
                    if v.ptr.is_empty() && v.arr.is_empty() && v.procs.is_empty() {
                        v.itv
                    } else {
                        Interval::top()
                    }
                });
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
/// stable content fingerprints. Computes the ICFG, def/use sets and (for a
/// sparse result) dependency relation that [`Inputs`] reads; a caller that
/// holds them calls [`check_all_staged`].
pub fn check_all(program: &Program, result: &IntervalResult, pre: &PreAnalysis) -> Vec<Diagnostic> {
    let (icfg, du, deps) = stage_inputs(program, pre, result.engine);
    check_all_staged(
        &Inputs::new(program, result, &icfg, &du, deps.as_ref()),
        pre,
    )
}

/// [`check_all`] over inputs the caller built.
pub fn check_all_staged(q: &Inputs, pre: &PreAnalysis) -> Vec<Diagnostic> {
    let mut diags = check_overruns(q);
    diags.extend(check_null_derefs(q));
    diags.extend(check_div_by_zero(q));
    diags.extend(check_uninit_reads(q.program, pre));
    sga_diag::sort_canonical(&mut diags);
    sga_diag::assign_fingerprints(&mut diags);
    diags
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{with_inputs, Engine};
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
        let alarms = with_inputs(&p, Engine::Sparse, check_overruns);
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
        let alarms = with_inputs(&p, Engine::Sparse, check_overruns);
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
        let alarms = with_inputs(&p, Engine::Sparse, check_overruns);
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
        let alarms = with_inputs(&p, Engine::Sparse, check_overruns);
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
        let base = with_inputs(&p, Engine::Base, check_overruns).len();
        let sparse = with_inputs(&p, Engine::Sparse, check_overruns).len();
        assert_eq!(base, sparse, "alarm counts must match between engines");
    }

    #[test]
    fn a_local_reads_only_what_reaches_it_in_its_own_procedure() {
        // Both procedures declare a local pointer `p`; only main's may be
        // null. What reaches `set`'s `*p` is `set`'s own `&g`, whatever
        // other contexts bind to main's `p`.
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
            let alarms = with_inputs(&p, engine, check_null_derefs);
            assert!(
                alarms.iter().all(|a| a.proc_name == "main"),
                "{engine:?}: `set`'s p is always &g, {alarms:?}"
            );
        }
    }

    #[test]
    fn a_parameter_reads_every_call_sites_argument() {
        // A parameter is bound at the call points in callers: both
        // arguments reach `*q`, so the null one raises the same alarm under
        // both engines.
        let src = "int g;
             int h(int *q) { *q = 1; return 0; }
             int main(int c) {
                if (c) { h(&g); } else { h(0); }
                return 0;
             }";
        let p = parse(src).unwrap();
        let base = with_inputs(&p, Engine::Base, check_null_derefs);
        let sparse = with_inputs(&p, Engine::Sparse, check_null_derefs);
        assert_eq!(base.len(), 1, "{base:?}");
        assert_eq!(base, sparse, "engines must agree");
    }

    #[test]
    fn a_read_no_value_reaches_raises_nothing() {
        // `gp` is always null, so the analysis proves the guarded store
        // unreachable: the input at `*gp` binds it to ⊥ under every engine,
        // however many points elsewhere bind it to 0.
        let src = "int g; int *gp;
             int main(int c) {
                gp = 0;
                if (gp != 0) { *gp = 1; }
                return 0;
             }";
        let p = parse(src).unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let alarms = with_inputs(&p, engine, check_null_derefs);
            assert!(alarms.is_empty(), "{engine:?}: {alarms:?}");
        }
    }

    #[test]
    fn a_store_after_a_call_reads_what_the_callee_left() {
        // `f` nulls `p`: the store right after the call reads the callee's
        // write under every engine — the dense ones over the return edge,
        // the sparse one over its in-edge from the call. Base and Sparse
        // join it with the pre-call `&g` (the weak return join), so both
        // report the same possible alarm.
        let src = "int g; int *p;
             int f() { p = 0; return 0; }
             int main() { p = &g; f(); *p = 1; return 0; }";
        let p = parse(src).unwrap();
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let alarms = with_inputs(&p, engine, check_null_derefs);
            assert_eq!(alarms.len(), 1, "{engine:?}: {alarms:?}");
        }
        assert_eq!(
            with_inputs(&p, Engine::Base, check_null_derefs),
            with_inputs(&p, Engine::Sparse, check_null_derefs)
        );
    }
}

#[cfg(test)]
mod null_tests {
    use super::*;
    use crate::interval::{with_inputs, Engine};
    use sga_cfront::parse;

    #[test]
    fn definite_null_deref() {
        let p = parse("int main() { int *p = 0; *p = 1; return 0; }").unwrap();
        let alarms = with_inputs(&p, Engine::Sparse, check_null_derefs);
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
        let alarms = with_inputs(&p, Engine::Sparse, check_null_derefs);
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
        let alarms = with_inputs(&p, Engine::Sparse, check_null_derefs);
        // The null-comparison refinement prunes 0 from p's interval
        // component inside the guard.
        assert!(alarms.is_empty(), "{alarms:?}");
    }

    #[test]
    fn malloc_result_not_null_flagged() {
        let p = parse("int main() { int *p = malloc(4); *p = 1; return 0; }").unwrap();
        assert!(with_inputs(&p, Engine::Sparse, check_null_derefs).is_empty());
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
        let base = with_inputs(&p, Engine::Base, check_null_derefs);
        let sparse = with_inputs(&p, Engine::Sparse, check_null_derefs);
        assert_eq!(base.len(), sparse.len(), "{base:?} vs {sparse:?}");
    }
}

#[cfg(test)]
mod div_tests {
    use super::*;
    use crate::interval::{with_inputs, Engine};
    use sga_cfront::parse;

    #[test]
    fn definite_div_by_zero() {
        let p = parse("int main(int n) { int z = 0; return n / z; }").unwrap();
        let alarms = with_inputs(&p, Engine::Sparse, check_div_by_zero);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(alarms[0].definite);
    }

    #[test]
    fn possible_div_by_unbounded() {
        let p = parse("int main(int n) { return 100 / n; }").unwrap();
        let alarms = with_inputs(&p, Engine::Sparse, check_div_by_zero);
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(!alarms[0].definite);
    }

    #[test]
    fn guarded_divisor_is_clean() {
        let p = parse("int main(int n) { if (n > 0) { return 100 / n; } return 0; }").unwrap();
        let alarms = with_inputs(&p, Engine::Sparse, check_div_by_zero);
        assert!(alarms.is_empty(), "{alarms:?}");
    }

    #[test]
    fn nonzero_constant_divisor_is_clean() {
        let p = parse("int main(int n) { return n / 4 + n % 8; }").unwrap();
        assert!(with_inputs(&p, Engine::Sparse, check_div_by_zero).is_empty());
    }

    #[test]
    fn modulo_divisor_checked() {
        let p = parse("int main(int n, int m) { return n % m; }").unwrap();
        assert_eq!(with_inputs(&p, Engine::Sparse, check_div_by_zero).len(), 1);
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
