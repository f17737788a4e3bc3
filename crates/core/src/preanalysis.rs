//! The flow-insensitive pre-analysis of §3.2.
//!
//! "The abstraction ignores the control flows of programs and computes a
//! single global invariant." Its result `T̂` is what the safe D̂/Û
//! approximations read points-to information from, and — per §5 — what
//! resolves function pointers to fix the call graph for every engine.
//!
//! The pointer component behaves like inclusion-based (Andersen-style)
//! points-to analysis, combined with the numeric component, matching the
//! paper's footnote 3.

use crate::semantics::{self, eval};
use sga_domains::{AbsLoc, Lattice, State, Value};
use sga_ir::callgraph::CallGraph;
use sga_ir::{Callee, Cmd, Cp, Expr, LVal, Program};
use sga_utils::FxHashMap;

/// The pre-analysis result.
#[derive(Debug)]
pub struct PreAnalysis {
    /// The single global invariant `T̂` (used as `T̂(c)` for every `c`).
    pub state: State,
    /// Call graph with function pointers resolved against `T̂`.
    pub callgraph: CallGraph,
    /// Number of global rounds until the fixpoint.
    pub rounds: usize,
    /// Commands that can bind a location: all but `skip` and `assume`.
    pub commands: usize,
    /// Command evaluations over all rounds (`rounds × commands` if every
    /// round evaluated every command).
    pub evaluations: usize,
}

impl PreAnalysis {
    /// Resolved targets of the call at `cp` (empty for pure externals).
    pub fn call_targets(&self, cp: Cp) -> &[sga_ir::ProcId] {
        self.callgraph
            .site_targets
            .get(&cp)
            .map_or(&[], Vec::as_slice)
    }
}

/// Runs the flow-insensitive pre-analysis to its fixpoint.
///
/// Jacobi rounds: round *r* evaluates commands against `state_r` and merges
/// their contributions into `state_{r+1}`. Only the commands that read a
/// location whose binding the previous round changed are evaluated — any
/// other would contribute what it did before, which that round's merge
/// already absorbed (join and widening are upper bounds, `a ∇ a = a`), so
/// the states are those of evaluating every command every round.
pub fn run(program: &Program) -> PreAnalysis {
    // The contributing commands in program order. `skip` and `assume` bind
    // nothing: refinement can only shrink values, and flow-insensitive
    // joining makes it a no-op.
    let mut cmds: Vec<Cp> = Vec::new();
    for (pid, proc) in program.procs.iter_enumerated() {
        for (nid, node) in proc.nodes.iter_enumerated() {
            if !proc.is_external && !matches!(node.cmd, Cmd::Skip | Cmd::Assume(_)) {
                cmds.push(Cp::new(pid, nid));
            }
        }
    }
    let mut state = seed(program);
    // What each command read at its last evaluation (sorted) and the
    // inverse index; both only grow, as the values read sets derive from do.
    let mut reads: Vec<Vec<AbsLoc>> = vec![Vec::new(); cmds.len()];
    let mut readers: FxHashMap<AbsLoc, Vec<usize>> = FxHashMap::default();
    let mut dirty = vec![true; cmds.len()];
    // Per touched location, the old binding joined with this round's
    // contributions in arrival order (an unbound location takes the first
    // one as is, so an explicit ⊥ such as `return;`'s still gets bound).
    let mut touched: FxHashMap<AbsLoc, Value> = FxHashMap::default();
    let (mut rounds, mut evaluations) = (0usize, 0usize);
    loop {
        rounds += 1;
        for (i, &cp) in cmds.iter().enumerate() {
            if !std::mem::take(&mut dirty[i]) {
                continue;
            }
            evaluations += 1;
            let mut used = Vec::new();
            contribute(program, cp, &state, &mut used, &mut |l, v| {
                let old = touched.get(&l).or_else(|| state.get_ref(&l));
                let acc = old.map_or_else(|| v.clone(), |old| old.join(v));
                touched.insert(l, acc);
            });
            used.sort_unstable();
            used.dedup();
            for &l in used.iter().filter(|l| reads[i].binary_search(l).is_err()) {
                readers.entry(l).or_default().push(i);
            }
            reads[i] = used;
        }
        // Plain joins for two rounds (cheap precision), widening afterwards
        // to force convergence of the numeric component. Only the bindings
        // that differ are written back, and only their readers run next.
        let mut changed = false;
        for (l, contributed) in touched.drain() {
            let old = state.get_ref(&l);
            let merged = match old {
                None => contributed,
                Some(old) if rounds <= 2 => old.join(&contributed),
                Some(old) => old.widen(&contributed),
            };
            if old == Some(&merged) {
                continue;
            }
            changed = true;
            for &i in readers.get(&l).into_iter().flatten() {
                dirty[i] = true;
            }
            state = state.set(l, merged);
        }
        if !changed {
            break;
        }
    }
    let callgraph = CallGraph::build(program, |cp| {
        let Cmd::Call { callee, .. } = program.cmd(cp) else {
            return Vec::new();
        };
        resolve_targets(program, callee, &state)
    });
    PreAnalysis {
        state,
        callgraph,
        rounds,
        commands: cmds.len(),
        evaluations,
    }
}

/// Evaluates the command at `cp` against `s`: its (weakly updated) delta
/// goes to `weak` — flow-insensitivity makes that equivalent to a full
/// state join — and every location it read from `s` to `used`.
fn contribute(
    program: &Program,
    cp: Cp,
    s: &State,
    used: &mut Vec<AbsLoc>,
    weak: &mut impl FnMut(AbsLoc, &Value),
) {
    let ev = |e: &Expr, used: &mut Vec<AbsLoc>| {
        semantics::used_locs(program, e, s, used);
        eval(program, e, s)
    };
    let targets = |lv: &LVal, used: &mut Vec<AbsLoc>| {
        semantics::lval_used(lv, used);
        semantics::lval_targets(program, lv, s).0
    };
    match program.cmd(cp) {
        Cmd::Skip | Cmd::Assume(_) => {}
        Cmd::Assign(lv, e) => {
            let v = ev(e, used);
            for &l in &targets(lv, used) {
                weak(l, &v);
            }
        }
        Cmd::Alloc(lv, size) => {
            let sz = ev(size, used).itv;
            let site = AbsLoc::Alloc(sga_domains::locs::AllocSite(cp));
            let v = Value::of_arr(sga_domains::array::ArrayBlk::alloc(site, sz));
            for &l in &targets(lv, used) {
                weak(l, &v);
            }
        }
        Cmd::Return(e) => {
            let v = e.as_ref().map_or_else(Value::bot, |e| ev(e, used));
            weak(AbsLoc::Var(program.procs[cp.proc].ret_var), &v);
        }
        Cmd::Call { ret, callee, args } => {
            if let Callee::Indirect(e) = callee {
                semantics::used_locs(program, e, s, used);
            }
            let mut ret_val: Option<Value> = None;
            for &t in &resolve_targets(program, callee, s) {
                let callee_proc = &program.procs[t];
                if callee_proc.is_external {
                    continue;
                }
                for (i, &p) in callee_proc.params.iter().enumerate() {
                    let v = args.get(i).map_or_else(Value::unknown_int, |a| ev(a, used));
                    weak(AbsLoc::Var(p), &v);
                }
                used.push(AbsLoc::Var(callee_proc.ret_var));
                let rv = s.get(&AbsLoc::Var(callee_proc.ret_var));
                ret_val = Some(match ret_val {
                    Some(acc) => acc.join(&rv),
                    None => rv,
                });
            }
            // No internal target: the call returns an arbitrary integer.
            let ret_val = ret_val.unwrap_or_else(Value::unknown_int);
            if let Some(lv) = ret {
                for &l in &targets(lv, used) {
                    weak(l, &ret_val);
                }
            }
        }
    }
}

/// Call targets under state `s`: syntactic for direct calls, the
/// function-pointer component of the callee expression otherwise.
pub fn resolve_targets(program: &Program, callee: &Callee, s: &State) -> Vec<sga_ir::ProcId> {
    match callee {
        Callee::Direct(p) => vec![*p],
        Callee::Indirect(e) => {
            let v = eval(program, e, s);
            let mut out: Vec<sga_ir::ProcId> = v
                .procs
                .iter()
                .filter_map(|l| match l {
                    AbsLoc::Proc(p) => Some(*p),
                    _ => None,
                })
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }
    }
}

/// Coarsens a pre-analysis state to the *semi-sparse* regime of
/// Hardekopf & Lin [POPL 2009], which §3.2 shows is a restricted instance
/// of the framework: "pre-analysis which computes a fixpoint T̂ such that
/// T̂(c)(x).P̂ = L̂ for all x that are not top-level variables". Address-taken
/// variables and heap cells get ⊤ values (they may point anywhere), so only
/// top-level variables are treated sparsely; the result is still a safe
/// approximation (strictly bigger D̂/Û), hence precision is still preserved.
pub fn coarsen_semi_sparse(program: &Program, precise: &State) -> State {
    use sga_domains::array::ArrayBlk;
    use sga_domains::{Interval, LocSet};
    // The universe of addressable locations.
    let mut universe: Vec<AbsLoc> = Vec::new();
    for (v, info) in program.vars.iter_enumerated() {
        if info.address_taken {
            universe.push(AbsLoc::Var(v));
        }
    }
    for (l, _) in precise.iter() {
        if !matches!(l, AbsLoc::Var(_)) {
            universe.push(*l);
        }
    }
    let all: LocSet = universe.iter().copied().collect();
    let arr_all: ArrayBlk = universe
        .iter()
        .filter(|l| l.is_summary())
        .map(|&l| {
            (
                l,
                sga_domains::array::ArrInfo {
                    offset: Interval::top(),
                    size: Interval::top(),
                },
            )
        })
        .collect();
    let top_value = Value {
        itv: Interval::top(),
        ptr: all.clone(),
        arr: arr_all,
        procs: LocSet::empty(),
    };
    let mut out = precise.clone();
    // Every non-top-level location's value becomes ⊤-ish.
    for (l, _) in precise.iter() {
        let coarse = match l {
            AbsLoc::Var(v) if !program.vars[*v].address_taken => continue,
            _ => top_value.clone(),
        };
        out = out.set(*l, coarse);
    }
    // Address-taken variables never written still may be read through
    // pointers: bind them too.
    for l in &universe {
        if out.get_ref(l).is_none() {
            out = out.set(*l, top_value.clone());
        }
    }
    out
}

/// Initial state: `main`'s parameters (argc/argv) are unknown.
fn seed(program: &Program) -> State {
    let mut s = State::new();
    for &p in &program.procs[program.main].params {
        s = s.set(AbsLoc::Var(p), Value::unknown_int());
    }
    s
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use sga_cfront::parse;
    use sga_domains::Interval;
    use sga_ir::VarId;

    pub(super) fn var(program: &Program, name: &str) -> VarId {
        program
            .vars
            .iter_enumerated()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn computes_global_pointer_facts() {
        let p = parse(
            "int x; int y; int *p;
             int main() { p = &x; if (x) p = &y; *p = 3; return 0; }",
        )
        .unwrap();
        let pre = run(&p);
        let pv = pre.state.get(&AbsLoc::Var(var(&p, "p")));
        assert!(pv.ptr.contains(&AbsLoc::Var(var(&p, "x"))));
        assert!(pv.ptr.contains(&AbsLoc::Var(var(&p, "y"))));
        // *p = 3 reaches both x and y (weakly, via join).
        assert!(Interval::constant(3).le(&pre.state.get(&AbsLoc::Var(var(&p, "x"))).itv));
    }

    #[test]
    fn widening_terminates_counting_loop() {
        let p =
            parse("int main() { int i = 0; while (i < 1000000) i = i + 1; return i; }").unwrap();
        let pre = run(&p);
        assert!(pre.rounds < 20, "diverged: {} rounds", pre.rounds);
        let iv = pre.state.get(&AbsLoc::Var(var(&p, "i"))).itv;
        assert!(
            Interval::constant(500).le(&iv),
            "flow-insensitively i is unbounded-ish: {iv}"
        );
    }

    #[test]
    fn resolves_function_pointers() {
        let p = parse(
            "int f(int a) { return a; }
             int g(int a) { return a + 1; }
             int main(int c) {
                int (*fp)(int);
                if (c) fp = f; else fp = g;
                return fp(1);
             }",
        )
        .unwrap();
        let pre = run(&p);
        let f = p.proc_by_name("f").unwrap();
        let g = p.proc_by_name("g").unwrap();
        let main = p.proc_by_name("main").unwrap();
        assert!(pre.callgraph.callees[main].contains(&f));
        assert!(pre.callgraph.callees[main].contains(&g));
        // And the argument flowed into both callees' params.
        let fa = p.procs[f].params[0];
        assert!(Interval::constant(1).le(&pre.state.get(&AbsLoc::Var(fa)).itv));
    }

    #[test]
    fn interprocedural_return_flow() {
        let p = parse(
            "int id(int a) { return a; }
             int main() { int r = id(42); return r; }",
        )
        .unwrap();
        let pre = run(&p);
        let r = var(&p, "r");
        assert!(Interval::constant(42).le(&pre.state.get(&AbsLoc::Var(r)).itv));
    }

    #[test]
    fn external_calls_return_top() {
        let p = parse("int mystery(int); int main() { int r = mystery(3); return r; }").unwrap();
        let pre = run(&p);
        let r = var(&p, "r");
        assert_eq!(pre.state.get(&AbsLoc::Var(r)).itv, Interval::top());
    }
}
