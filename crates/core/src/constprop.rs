//! A third framework instance: sparse **constant propagation**.
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

use crate::budget::Budget;
use crate::defuse::DefUse;
use crate::depgen::{self, DataDeps, DepGenOptions};
use crate::icfg::Icfg;
use crate::preanalysis::{self, PreAnalysis};
use crate::semantics;
use crate::sparse::{self, Row, SparseSpec};
use crate::stats::AnalysisStats;
use crate::widening::WideningPlan;
use sga_domains::{AbsLoc, Lattice};
use sga_ir::{BinOp, Cmd, Cp, Expr, Program, RelOp, UnOp};
use sga_utils::stats::{peak_rss_bytes, Phase};
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
        matches!(
            (self, other),
            (Const::Bot, _) | (_, Const::Top) | (Const::Val(_), Const::Val(_))
        ) && match (self, other) {
            (Const::Val(a), Const::Val(b)) => a == b,
            _ => true,
        }
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

/// Result of a constant-propagation run.
#[derive(Debug)]
pub struct ConstResult {
    /// Output bindings per control point (sparse: exactly `D̂(c)`).
    pub values: FxHashMap<Cp, ConstState>,
    /// Phase statistics.
    pub stats: AnalysisStats,
}

impl ConstResult {
    /// The constant bound for `l` at `cp`.
    pub fn value_at(&self, cp: Cp, l: &AbsLoc) -> Const {
        self.values
            .get(&cp)
            .and_then(|m| m.get(l))
            .copied()
            .unwrap_or(Const::Bot)
    }

    /// Number of point-location pairs proven constant.
    pub fn constants_found(&self) -> usize {
        self.values
            .values()
            .map(|m| m.iter().filter(|(_, v)| matches!(v, Const::Val(_))).count())
            .sum()
    }
}

/// Runs sparse constant propagation.
pub fn analyze(program: &Program) -> ConstResult {
    let total = Phase::start("total");
    let pre_phase = Phase::start("pre");
    let pre = preanalysis::run(program);
    let pre_time = pre_phase.stop();
    let icfg = Icfg::build(program, &pre);
    let dep_phase = Phase::start("dep");
    let du = crate::defuse::compute(program, &pre);
    let deps = depgen::generate(program, &pre, &du, DepGenOptions::default());
    let dep_time = dep_phase.stop();

    let mut stats = AnalysisStats {
        dep_time,
        ..AnalysisStats::default()
    };
    stats.record_pre(&pre, pre_time);
    stats.num_locs = du.locs.len();
    stats.dep_edges = deps.stats.final_edges;

    let spec = ConstSpec {
        program,
        pre: &pre,
        du: &du,
    };
    let fix = Phase::start("fix");
    let result = sparse::solve(
        program,
        &icfg,
        &deps,
        &spec,
        &WideningPlan::naive(),
        &Budget::unbounded(),
    );
    stats.fix_time = fix.stop();
    stats.iterations = result.iterations;
    stats.fix_work = result.work;
    stats.total_time = total.stop();
    stats.peak_mem_bytes = peak_rss_bytes();
    ConstResult {
        values: result.values,
        stats,
    }
}

/// Exposes the dependency structures for callers staging their own runs.
pub fn prepare(program: &Program) -> (PreAnalysis, Icfg, DefUse, DataDeps) {
    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let du = crate::defuse::compute(program, &pre);
    let deps = depgen::generate(program, &pre, &du, DepGenOptions::default());
    (pre, icfg, du, deps)
}

struct ConstSpec<'p> {
    program: &'p Program,
    pre: &'p PreAnalysis,
    du: &'p DefUse,
}

/// The binding of `l` in the ascending row `s` (⊥ if unbound).
fn bound(s: &[(AbsLoc, Const)], l: &AbsLoc) -> Const {
    sparse::find(s, l).map_or(Const::Bot, |at| s[at].1)
}

impl ConstSpec<'_> {
    fn eval(&self, e: &Expr, s: &[(AbsLoc, Const)]) -> Const {
        match e {
            Expr::Const(n) => Const::Val(*n),
            Expr::Var(x) => bound(s, &AbsLoc::Var(*x)),
            Expr::Field(x, f) => bound(s, &AbsLoc::Field(*x, *f)),
            Expr::Deref(_) | Expr::DerefField(_, _) => {
                // Loads join over the pre-analysis' targets.
                let mut targets = Vec::new();
                semantics::used_locs(self.program, e, &self.pre.state, &mut targets);
                let mut acc = Const::Bot;
                for l in targets {
                    acc = acc.join(&bound(s, &l));
                }
                // The used-locs set includes the pointer itself; joining it
                // in is sound but noisy — ⊤ is the honest answer unless all
                // agree.
                acc
            }
            // Addresses and unknowns are not integer constants.
            Expr::AddrOf(_) | Expr::AddrOfField(_, _) | Expr::AddrOfProc(_) | Expr::Unknown => {
                Const::Top
            }
            Expr::Unop(op, a) => match (op, self.eval(a, s)) {
                (_, Const::Bot) => Const::Bot,
                (UnOp::Neg, Const::Val(n)) => Const::Val(n.wrapping_neg()),
                (UnOp::Not, Const::Val(n)) => Const::Val(i64::from(n == 0)),
                (UnOp::BitNot, Const::Val(n)) => Const::Val(!n),
                _ => Const::Top,
            },
            Expr::Binop(op, a, b) => {
                let (va, vb) = (self.eval(a, s), self.eval(b, s));
                match (va, vb) {
                    (Const::Bot, _) | (_, Const::Bot) => Const::Bot,
                    (Const::Val(x), Const::Val(y)) => eval_binop(*op, x, y),
                    _ => Const::Top,
                }
            }
        }
    }
}

fn eval_binop(op: BinOp, x: i64, y: i64) -> Const {
    let cmp = |r: bool| Const::Val(i64::from(r));
    match op {
        BinOp::Add => Const::Val(x.wrapping_add(y)),
        BinOp::Sub => Const::Val(x.wrapping_sub(y)),
        BinOp::Mul => Const::Val(x.wrapping_mul(y)),
        BinOp::Div => {
            if y == 0 {
                Const::Top
            } else {
                Const::Val(x.wrapping_div(y))
            }
        }
        BinOp::Mod => {
            if y == 0 {
                Const::Top
            } else {
                Const::Val(x.wrapping_rem(y))
            }
        }
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
        let params = &self.program.procs[self.program.main].params;
        let mut seeded: Row<AbsLoc, Const> = params
            .iter()
            .map(|&p| (AbsLoc::Var(p), Const::Top))
            .collect();
        seeded.sort_unstable_by_key(|e| e.0);
        seeded
    }

    fn forwards(&self, cp: Cp, l: &AbsLoc) -> bool {
        self.du.forwards(cp, l)
    }

    fn keeps(&self, v: &Const) -> bool {
        *v != Const::Bot
    }

    fn transfer(
        &self,
        cp: Cp,
        pre_in: &[(AbsLoc, Const)],
        ret_in: &[(AbsLoc, Const)],
    ) -> Row<AbsLoc, Const> {
        let mut post: ConstState = PMap::from_sorted_vec(sparse::join_rows(pre_in, ret_in));
        match self.program.cmd(cp) {
            Cmd::Skip | Cmd::Assume(_) => {
                // Constants don't refine on conditions (that's what makes
                // this *unconditional* constant propagation); assume nodes
                // just relay their refined variables.
            }
            Cmd::Assign(lv, e) | Cmd::Alloc(lv, e) => {
                let v = if matches!(self.program.cmd(cp), Cmd::Alloc(_, _)) {
                    Const::Top // an address, not an integer constant
                } else {
                    self.eval(e, pre_in)
                };
                let (targets, strong) = semantics::lval_targets(self.program, lv, &self.pre.state);
                if strong && targets.as_singleton().is_some() {
                    post = post.insert(targets.as_singleton().expect("checked"), v);
                } else {
                    for &l in &targets {
                        let old = post.get(&l).copied().unwrap_or(Const::Bot);
                        post = post.insert(l, old.join(&v));
                    }
                }
            }
            Cmd::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, pre_in),
                    None => Const::Bot,
                };
                post = post.insert(AbsLoc::Var(self.program.procs[cp.proc].ret_var), v);
            }
            Cmd::Call { ret, args, .. } => {
                let mut ret_val = Const::Bot;
                let mut any_internal = false;
                for &t in self.pre.call_targets(cp) {
                    let callee = &self.program.procs[t];
                    if callee.is_external {
                        continue;
                    }
                    any_internal = true;
                    for (i, &p) in callee.params.iter().enumerate() {
                        let v = match args.get(i) {
                            Some(a) => self.eval(a, pre_in),
                            None => Const::Top,
                        };
                        post = post.insert(AbsLoc::Var(p), v);
                    }
                    ret_val = ret_val.join(&bound(ret_in, &AbsLoc::Var(callee.ret_var)));
                }
                let external = !any_internal
                    || self
                        .pre
                        .call_targets(cp)
                        .iter()
                        .any(|&t| self.program.procs[t].is_external);
                if external {
                    ret_val = ret_val.join(&Const::Top);
                }
                if let Some(lv) = ret {
                    let (targets, strong) =
                        semantics::lval_targets(self.program, lv, &self.pre.state);
                    if strong && targets.as_singleton().is_some() {
                        post = post.insert(targets.as_singleton().expect("checked"), ret_val);
                    } else {
                        for &l in &targets {
                            let old = post.get(&l).copied().unwrap_or(Const::Bot);
                            post = post.insert(l, old.join(&ret_val));
                        }
                    }
                }
            }
        }
        // Restrict to D̂(cp).
        let defs = self.du.defs(cp);
        let mut out = Row::with_capacity(defs.len());
        for l in defs {
            if let Some(v) = post.get(l) {
                if *v != Const::Bot {
                    out.push((*l, *v));
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
    use sga_domains::lattice::laws::{check_join_laws, check_widen_narrow_laws};
    use sga_ir::{LVal, VarId};

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
        assert_eq!(
            r.value_at(last_def(&p, "b"), &AbsLoc::Var(var(&p, "b"))),
            Const::Val(5)
        );
        assert_eq!(
            r.value_at(last_def(&p, "c"), &AbsLoc::Var(var(&p, "c"))),
            Const::Val(50)
        );
        assert!(r.constants_found() >= 3);
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
        assert_eq!(
            r.value_at(last_def(&p, "y"), &AbsLoc::Var(var(&p, "y"))),
            Const::Top
        );
        assert_eq!(
            r.value_at(last_def(&p, "w"), &AbsLoc::Var(var(&p, "w"))),
            Const::Val(3)
        );
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
        assert_eq!(
            r.value_at(last_def(&p, "m"), &AbsLoc::Var(var(&p, "m"))),
            Const::Val(42)
        );
        let i_def = last_def(&p, "i");
        assert_eq!(r.value_at(i_def, &AbsLoc::Var(var(&p, "i"))), Const::Top);
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
        assert_eq!(
            r.value_at(last_def(&p, "r"), &AbsLoc::Var(var(&p, "r"))),
            Const::Val(7)
        );
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
        for (cp, st) in &consts.values {
            for (l, v) in st.iter() {
                if let Const::Val(n) = v {
                    let iv = itv.value_at(*cp, l).itv;
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
