//! The non-relational abstract semantics of §3.1, extended with the C
//! features of §6.1 (arrays, structures, allocation, calls).
//!
//! [`eval`] is the paper's `Ê(e)(ŝ)`; [`used_locs`] is `Û(e)(ŝ)` from §3.2
//! (the locations referenced while evaluating `e`); [`writes`] is `f̂_c` as
//! the list of bindings it makes, and [`transfer`] that list folded into a
//! [`State`]. All of them read their input through [`Env`], so the dense
//! engines hand over a tree [`State`] and the sparse instance the sorted row
//! it gathered, and neither converts.
//!
//! Call commands write nothing — parameter binding and return binding live
//! on ICFG *edges* ([`crate::dense::DenseSpec::bind_args`] and the rest; the
//! sparse instance binds them in its call transfer) so that the same node
//! semantics serves every engine.

use sga_domains::array::ArrayBlk;
use sga_domains::locs::AllocSite;
use sga_domains::{AbsLoc, Interval, Lattice, LocSet, State, Value};
use sga_ir::{BinOp, Cmd, Cond, Cp, Expr, FieldId, LVal, Program, RelOp, UnOp};

/// A read-only abstract state: what the semantics may ask of its input.
pub trait Env {
    /// The binding of `l` (`None` = ⊥).
    fn lookup(&self, l: &AbsLoc) -> Option<&Value>;

    /// The value of `l`, ⊥ for unbound locations.
    fn read(&self, l: &AbsLoc) -> Value {
        self.lookup(l).cloned().unwrap_or(Value::bot())
    }
}

impl Env for State {
    fn lookup(&self, l: &AbsLoc) -> Option<&Value> {
        self.get_ref(l)
    }
}

/// A row of bindings in strictly ascending location order.
impl Env for [(AbsLoc, Value)] {
    fn lookup(&self, l: &AbsLoc) -> Option<&Value> {
        let at = self.binary_search_by(|(k, _)| k.cmp(l)).ok()?;
        Some(&self[at].1)
    }
}

/// Evaluates expression `e` in state `s` — `Ê(e)(ŝ)`.
#[allow(clippy::only_used_in_recursion)] // `program` is part of the eval signature
pub fn eval<E: Env + ?Sized>(program: &Program, e: &Expr, s: &E) -> Value {
    match e {
        Expr::Const(n) => Value::constant(*n),
        Expr::Unknown => Value::unknown_int(),
        Expr::Var(x) => s.read(&AbsLoc::Var(*x)),
        Expr::Field(x, f) => s.read(&AbsLoc::Field(*x, *f)),
        Expr::AddrOf(x) => Value::of_ptr(LocSet::singleton(AbsLoc::Var(*x))),
        Expr::AddrOfField(x, f) => Value::of_ptr(LocSet::singleton(AbsLoc::Field(*x, *f))),
        Expr::AddrOfProc(p) => Value::of_procs(LocSet::singleton(AbsLoc::Proc(*p))),
        Expr::Deref(inner) => {
            let v = eval(program, inner, s);
            read_locs(s, v.deref_targets().iter().copied())
        }
        Expr::DerefField(inner, f) => {
            let v = eval(program, inner, s);
            read_locs(s, field_targets(&v, *f))
        }
        Expr::Unop(op, inner) => {
            let v = eval(program, inner, s);
            match op {
                UnOp::Neg => Value::of_itv(v.itv.neg()),
                UnOp::Not => Value::of_itv(v.itv.cmp_result(RelOp::Eq, &Interval::constant(0))),
                UnOp::BitNot => {
                    if v.itv.is_bottom() {
                        Value::bot()
                    } else {
                        Value::unknown_int()
                    }
                }
            }
        }
        Expr::Binop(op, a, b) => {
            let va = eval(program, a, s);
            let vb = eval(program, b, s);
            eval_binop(*op, &va, &vb)
        }
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Value {
    match op {
        BinOp::Add | BinOp::Sub => {
            let itv = if op == BinOp::Add {
                a.itv.add(&b.itv)
            } else {
                a.itv.sub(&b.itv)
            };
            // Pointer arithmetic: points-to sets are offset-insensitive; the
            // array component shifts its offsets.
            let delta = |i: &Interval| -> Interval {
                let d = if i.is_bottom() {
                    Interval::constant(0)
                } else {
                    *i
                };
                if op == BinOp::Add {
                    d
                } else {
                    d.neg()
                }
            };
            let mut arr = ArrayBlk::empty();
            if !a.arr.is_empty() {
                arr = arr.join(&a.arr.shift(&delta(&b.itv)));
            }
            if !b.arr.is_empty() && op == BinOp::Add {
                arr = arr.join(&b.arr.shift(&if a.itv.is_bottom() {
                    Interval::constant(0)
                } else {
                    a.itv
                }));
            }
            Value {
                itv,
                ptr: a.ptr.join(&b.ptr),
                arr,
                procs: a.procs.join(&b.procs),
            }
        }
        BinOp::Mul => Value::of_itv(a.itv.mul(&b.itv)),
        BinOp::Div => Value::of_itv(a.itv.div(&b.itv)),
        BinOp::Mod => Value::of_itv(a.itv.rem(&b.itv)),
        BinOp::Cmp(rel) => Value::of_itv(a.itv.cmp_result(rel, &b.itv)),
        BinOp::And | BinOp::Or | BinOp::Bits => {
            if a.itv.is_bottom() && a.ptr.is_empty() && a.arr.is_empty() {
                Value::bot()
            } else {
                Value::unknown_int()
            }
        }
    }
}

fn read_locs<E: Env + ?Sized>(s: &E, locs: impl Iterator<Item = AbsLoc>) -> Value {
    let mut out = Value::bot();
    for l in locs {
        if let Some(v) = s.lookup(&l) {
            out = out.join(v);
        }
    }
    out
}

/// The locations `(*v).f` denotes.
fn field_targets(v: &Value, f: FieldId) -> impl Iterator<Item = AbsLoc> + '_ {
    v.deref_targets()
        .iter()
        .map(move |l| refine_field(*l, f))
        .collect::<Vec<_>>()
        .into_iter()
}

/// Adds a field selector to a pointed-to location (nested aggregates
/// collapse onto the outermost field, a standard coarse approximation).
fn refine_field(l: AbsLoc, f: FieldId) -> AbsLoc {
    match l {
        AbsLoc::Var(x) => AbsLoc::Field(x, f),
        AbsLoc::Alloc(site) => AbsLoc::AllocField(site, f),
        other => other,
    }
}

/// `Û(e)(ŝ)` from §3.2: the abstract locations referenced while computing
/// `Ê(e)(ŝ)`.
pub fn used_locs<E: Env + ?Sized>(program: &Program, e: &Expr, s: &E, out: &mut Vec<AbsLoc>) {
    match e {
        Expr::Const(_)
        | Expr::Unknown
        | Expr::AddrOf(_)
        | Expr::AddrOfField(_, _)
        | Expr::AddrOfProc(_) => {}
        Expr::Var(x) => out.push(AbsLoc::Var(*x)),
        Expr::Field(x, f) => out.push(AbsLoc::Field(*x, *f)),
        Expr::Deref(inner) => {
            used_locs(program, inner, s, out);
            let v = eval(program, inner, s);
            out.extend(v.deref_targets().iter().copied());
        }
        Expr::DerefField(inner, f) => {
            used_locs(program, inner, s, out);
            let v = eval(program, inner, s);
            out.extend(field_targets(&v, *f));
        }
        Expr::Unop(_, inner) => used_locs(program, inner, s, out),
        Expr::Binop(_, a, b) => {
            used_locs(program, a, s, out);
            used_locs(program, b, s, out);
        }
    }
}

/// The assignment targets of l-value `lv` in state `s`, plus whether a
/// strong update is permitted (single non-summary target).
pub fn lval_targets<E: Env + ?Sized>(_program: &Program, lv: &LVal, s: &E) -> (LocSet, bool) {
    let deref = |x| {
        s.lookup(&AbsLoc::Var(x))
            .map_or(LocSet::empty(), Value::deref_targets)
    };
    let weak_unless_unique = |targets: LocSet| {
        let strong = targets.as_singleton().is_some_and(|l| !l.is_summary());
        (targets, strong)
    };
    match lv {
        LVal::Var(x) => (LocSet::singleton(AbsLoc::Var(*x)), true),
        LVal::Field(x, f) => (LocSet::singleton(AbsLoc::Field(*x, *f)), true),
        LVal::Deref(x) => weak_unless_unique(deref(*x)),
        LVal::DerefField(x, f) => {
            weak_unless_unique(deref(*x).iter().map(|l| refine_field(*l, *f)).collect())
        }
    }
}

/// Locations read while evaluating l-value `lv`'s target set.
pub fn lval_used(lv: &LVal, out: &mut Vec<AbsLoc>) {
    match lv {
        LVal::Var(_) | LVal::Field(_, _) => {}
        LVal::Deref(x) | LVal::DerefField(x, _) => out.push(AbsLoc::Var(*x)),
    }
}

/// What the command at `cp` writes given input `s` — the node transfer
/// function `f̂_c` as a list of `(location, value, strong)` handed to `sink`
/// in order. A strong binding replaces the location's value, a weak one
/// joins it (§2.1's `f[{…} ⤇ b]`), each over the bindings made before it.
/// Nothing for `skip` and calls (see the module docs); `cp` also names the
/// allocation site of an `alloc`.
///
/// `{x < n}` (§3.1), generalized to refine both operands when they are
/// directly locations, refines *only the mentioned locations*; it never
/// smashes the whole state to ⊥ on a contradiction (the refined locations
/// become ⊥-valued instead). This per-location behaviour is what makes the
/// sparse analysis' precision identical (Lemma 2): refinement is a def of
/// exactly `D̂(c)`, so values of unrelated locations flow around the assume
/// in both engines.
pub fn writes<E: Env + ?Sized>(
    program: &Program,
    cp: Cp,
    s: &E,
    sink: &mut impl FnMut(AbsLoc, Value, bool),
) {
    match program.cmd(cp) {
        Cmd::Skip | Cmd::Call { .. } => {}
        Cmd::Assign(lv, e) => {
            let v = eval(program, e, s);
            store(program, lv, v, s, sink);
        }
        Cmd::Alloc(lv, size) => {
            let sz = eval(program, size, s).itv;
            let site = AbsLoc::Alloc(AllocSite(cp));
            store(
                program,
                lv,
                Value::of_arr(ArrayBlk::alloc(site, sz)),
                s,
                sink,
            );
        }
        Cmd::Assume(cond) => refinements(program, cond, s, sink),
        Cmd::Return(e) => {
            let v = e.as_ref().map_or(Value::bot(), |e| eval(program, e, s));
            sink(AbsLoc::Var(program.procs[cp.proc].ret_var), v, true);
        }
    }
}

/// [`writes`] of `assume(cond)`.
fn refinements<E: Env + ?Sized>(
    program: &Program,
    cond: &Cond,
    s: &E,
    sink: &mut impl FnMut(AbsLoc, Value, bool),
) {
    // A refined operand keeps its other components, which no refinement
    // touches: with one location on both sides (`x < x`) the second binding
    // stands on the first's and replaces it.
    let lv = eval(program, &cond.lhs, s);
    let rv = eval(program, &cond.rhs, s);
    if let Some(l) = direct_loc(&cond.lhs) {
        sink(l, lv.with_itv(lv.itv.filter(cond.op, &rv.itv)), true);
    }
    if let Some(r) = direct_loc(&cond.rhs) {
        sink(r, rv.with_itv(rv.itv.filter(cond.op.swap(), &lv.itv)), true);
    }
}

/// Writes `v` through `lv`, whose targets are read off `s`.
pub fn store<E: Env + ?Sized>(
    program: &Program,
    lv: &LVal,
    v: Value,
    s: &E,
    sink: &mut impl FnMut(AbsLoc, Value, bool),
) {
    let (targets, strong) = lval_targets(program, lv, s);
    store_to(&targets, strong, v, sink);
}

/// Writes `v` to `targets`: a strong update on a unique non-summary target,
/// a weak one on each otherwise.
pub fn store_to(
    targets: &LocSet,
    strong: bool,
    v: Value,
    sink: &mut impl FnMut(AbsLoc, Value, bool),
) {
    match targets.as_singleton() {
        Some(l) => sink(l, v, strong),
        None => targets.iter().for_each(|&l| sink(l, v.clone(), false)),
    }
}

fn direct_loc(e: &Expr) -> Option<AbsLoc> {
    match e {
        Expr::Var(x) => Some(AbsLoc::Var(*x)),
        Expr::Field(x, f) => Some(AbsLoc::Field(*x, *f)),
        _ => None,
    }
}

/// Whether a refined branch state is unreachable: some location the
/// condition constrains became ⊥ while its input was not.
pub fn branch_is_dead<E: Env + ?Sized>(program: &Program, s: &E, cond: &Cond) -> bool {
    let lv = eval(program, &cond.lhs, s);
    let rv = eval(program, &cond.rhs, s);
    if lv.itv.is_bottom() || rv.itv.is_bottom() {
        // No numeric evidence either way (pointers compared, or ⊥ inputs):
        // only dead if the whole inputs are ⊥.
        return lv.is_bottom() || rv.is_bottom();
    }
    lv.itv.cmp_result(cond.op, &rv.itv) == Interval::constant(0)
}

/// `s` with the bindings `make` hands its sink, in order.
fn with_writes(s: &State, make: impl FnOnce(&mut dyn FnMut(AbsLoc, Value, bool))) -> State {
    let mut out = s.clone();
    make(&mut |l, v, strong| {
        out = if strong {
            out.set(l, v)
        } else {
            out.weak_set(l, &v)
        };
    });
    out
}

/// The node transfer function `f̂_c` over whole states: `s` with
/// [`writes`]' bindings (identity for call nodes; see the module docs).
pub fn transfer(program: &Program, cp: Cp, s: &State) -> State {
    with_writes(s, |mut sink| writes(program, cp, s, &mut sink))
}

/// Writes `v` through `lv`: strong update on a unique non-summary target,
/// weak update otherwise.
pub fn assign(program: &Program, s: &State, lv: &LVal, v: &Value) -> State {
    with_writes(s, |mut sink| store(program, lv, v.clone(), s, &mut sink))
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cfront::parse;
    use sga_ir::VarId;
    use sga_utils::Idx;

    fn prog() -> Program {
        parse("int main() { return 0; }").unwrap()
    }

    fn refine(program: &Program, s: &State, cond: &Cond) -> State {
        with_writes(s, |mut sink| refinements(program, cond, s, &mut sink))
    }

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn eval_constants_and_arith() {
        let p = prog();
        let s = State::new();
        let e = Expr::binop(BinOp::Add, Expr::Const(2), Expr::Const(3));
        assert_eq!(eval(&p, &e, &s).itv, Interval::constant(5));
        let cmp = Expr::binop(BinOp::Cmp(RelOp::Lt), Expr::Const(2), Expr::Const(3));
        assert_eq!(eval(&p, &cmp, &s).itv, Interval::constant(1));
    }

    #[test]
    fn eval_var_and_deref() {
        let p = parse("int main() { int x; int *q; return 0; }").unwrap();
        let x = var(&p, "x");
        let q = var(&p, "q");
        let s = State::new().set(AbsLoc::Var(x), Value::constant(7)).set(
            AbsLoc::Var(q),
            Value::of_ptr(LocSet::singleton(AbsLoc::Var(x))),
        );
        let deref = Expr::deref(Expr::Var(q));
        assert_eq!(eval(&p, &deref, &s).itv, Interval::constant(7));
        // Û(*q) = {q, x}
        let mut used = Vec::new();
        used_locs(&p, &deref, &s, &mut used);
        used.sort_unstable();
        assert_eq!(used, vec![AbsLoc::Var(x), AbsLoc::Var(q)]);
    }

    #[test]
    fn strong_vs_weak_update() {
        let p = parse("int main() { int a; int b; int *q; return 0; }").unwrap();
        let (a, b, q) = (var(&p, "a"), var(&p, "b"), var(&p, "q"));
        // q -> {a}: strong update overwrites.
        let s = State::new().set(AbsLoc::Var(a), Value::constant(1)).set(
            AbsLoc::Var(q),
            Value::of_ptr(LocSet::singleton(AbsLoc::Var(a))),
        );
        let s2 = assign(&p, &s, &LVal::Deref(q), &Value::constant(9));
        assert_eq!(s2.get(&AbsLoc::Var(a)).itv, Interval::constant(9));
        // q -> {a, b}: weak update joins.
        let two: LocSet = [AbsLoc::Var(a), AbsLoc::Var(b)].into_iter().collect();
        let s3 = s.set(AbsLoc::Var(q), Value::of_ptr(two));
        let s4 = assign(&p, &s3, &LVal::Deref(q), &Value::constant(9));
        assert_eq!(s4.get(&AbsLoc::Var(a)).itv, Interval::range(1, 9));
        assert_eq!(s4.get(&AbsLoc::Var(b)).itv, Interval::range(9, 9));
    }

    #[test]
    fn assume_refines_both_sides() {
        let p = parse("int main() { int x; int y; return 0; }").unwrap();
        let (x, y) = (var(&p, "x"), var(&p, "y"));
        let s = State::new()
            .set(AbsLoc::Var(x), Value::of_itv(Interval::range(0, 100)))
            .set(AbsLoc::Var(y), Value::of_itv(Interval::range(40, 60)));
        let cond = Cond::new(Expr::Var(x), RelOp::Lt, Expr::Var(y));
        let r = refine(&p, &s, &cond);
        assert_eq!(r.get(&AbsLoc::Var(x)).itv, Interval::range(0, 59));
        assert_eq!(
            r.get(&AbsLoc::Var(y)).itv,
            Interval::range(40, 60).filter(RelOp::Gt, &Interval::range(0, 100))
        );
    }

    #[test]
    fn dead_branch_detected() {
        let p = parse("int main() { int x; return 0; }").unwrap();
        let x = var(&p, "x");
        let s = State::new().set(AbsLoc::Var(x), Value::constant(5));
        let cond = Cond::new(Expr::Var(x), RelOp::Gt, Expr::Const(10));
        assert!(branch_is_dead(&p, &s, &cond));
        let cond2 = Cond::new(Expr::Var(x), RelOp::Le, Expr::Const(10));
        assert!(!branch_is_dead(&p, &s, &cond2));
    }

    #[test]
    fn alloc_creates_array_block() {
        let p = parse("int main() { int *q = malloc(10); return 0; }").unwrap();
        // Find the alloc node.
        let main = &p.procs[p.main];
        let (nid, _) = main
            .nodes
            .iter_enumerated()
            .find(|(_, n)| matches!(n.cmd, Cmd::Alloc(_, _)))
            .expect("has alloc");
        let cp = Cp::new(p.main, nid);
        let s = transfer(&p, cp, &State::new());
        let Cmd::Alloc(lv, _) = p.cmd(cp) else {
            unreachable!()
        };
        let target = AbsLoc::Var(lv.base());
        let v = s.get(&target);
        assert_eq!(v.arr.len(), 1);
        let (base, info) = v.arr.iter().next().unwrap();
        assert_eq!(*base, AbsLoc::Alloc(AllocSite(cp)));
        assert_eq!(info.size, Interval::constant(10));
    }

    #[test]
    fn pointer_arith_shifts_array_offset() {
        let p = prog();
        let site = AllocSite(Cp::new(p.main, sga_ir::NodeId::new(0)));
        let arr = Value::of_arr(ArrayBlk::alloc(AbsLoc::Alloc(site), Interval::constant(10)));
        let shifted = eval_binop(BinOp::Add, &arr, &Value::constant(3));
        let info = shifted.arr.get(&AbsLoc::Alloc(site)).unwrap();
        assert_eq!(info.offset, Interval::constant(3));
        let back = eval_binop(BinOp::Sub, &shifted, &Value::constant(1));
        let info2 = back.arr.get(&AbsLoc::Alloc(site)).unwrap();
        assert_eq!(info2.offset, Interval::constant(2));
    }

    #[test]
    fn return_sets_ret_var() {
        let p = parse("int main() { return 41; }").unwrap();
        let main = &p.procs[p.main];
        let (nid, _) = main
            .nodes
            .iter_enumerated()
            .find(|(_, n)| matches!(n.cmd, Cmd::Return(_)))
            .unwrap();
        let s = transfer(&p, Cp::new(p.main, nid), &State::new());
        assert_eq!(
            s.get(&AbsLoc::Var(main.ret_var)).itv,
            Interval::constant(41)
        );
    }
}
