//! Reference oracle for [`super::run`]: the pre-analysis as it was before
//! the delta-driven schedule — kept verbatim, compiled for tests only — and
//! the differential test holding the two equal.

use super::{resolve_targets, seed, PreAnalysis};
use crate::semantics;
use sga_domains::{AbsLoc, Lattice, State, Value};
use sga_ir::callgraph::CallGraph;
use sga_ir::{Cmd, Cp, Program};

/// Every command, every round, against a path-copied whole-state `next`.
pub(crate) fn run_full_rounds(program: &Program) -> PreAnalysis {
    let mut state = seed(program);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Each command contributes only its (weakly updated) delta —
        // evaluated against the previous round's state — instead of a full
        // state join; flow-insensitivity makes the two equivalent.
        let mut next = state.clone();
        let weak = |next: &mut State, l: AbsLoc, v: &Value| {
            *next = next.weak_set(l, v);
        };
        for (pid, proc) in program.procs.iter_enumerated() {
            if proc.is_external {
                continue;
            }
            for (nid, node) in proc.nodes.iter_enumerated() {
                let cp = Cp::new(pid, nid);
                match &node.cmd {
                    Cmd::Skip | Cmd::Assume(_) => {
                        // Refinement can only shrink values; flow-insensitive
                        // joining makes it a no-op, so skip the work.
                    }
                    Cmd::Assign(lv, e) => {
                        let v = semantics::eval(program, e, &state);
                        let (targets, _) = semantics::lval_targets(program, lv, &state);
                        for &l in &targets {
                            weak(&mut next, l, &v);
                        }
                    }
                    Cmd::Alloc(lv, size) => {
                        let sz = semantics::eval(program, size, &state).itv;
                        let site = sga_domains::locs::AllocSite(cp);
                        let v = Value::of_arr(sga_domains::array::ArrayBlk::alloc(
                            AbsLoc::Alloc(site),
                            sz,
                        ));
                        let (targets, _) = semantics::lval_targets(program, lv, &state);
                        for &l in &targets {
                            weak(&mut next, l, &v);
                        }
                    }
                    Cmd::Return(e) => {
                        let v = match e {
                            Some(e) => semantics::eval(program, e, &state),
                            None => Value::bot(),
                        };
                        weak(&mut next, AbsLoc::Var(proc.ret_var), &v);
                    }
                    Cmd::Call { ret, callee, args } => {
                        let targets = resolve_targets(program, callee, &state);
                        let mut ret_val: Option<Value> = None;
                        let mut any_internal = false;
                        for &t in &targets {
                            let callee_proc = &program.procs[t];
                            if callee_proc.is_external {
                                continue;
                            }
                            any_internal = true;
                            for (i, &p) in callee_proc.params.iter().enumerate() {
                                let v = match args.get(i) {
                                    Some(a) => semantics::eval(program, a, &state),
                                    None => Value::unknown_int(),
                                };
                                weak(&mut next, AbsLoc::Var(p), &v);
                            }
                            let rv = state.get(&AbsLoc::Var(callee_proc.ret_var));
                            ret_val = Some(match ret_val {
                                Some(acc) => acc.join(&rv),
                                None => rv,
                            });
                        }
                        if !any_internal {
                            ret_val = Some(match ret_val {
                                Some(acc) => acc.join(&Value::unknown_int()),
                                None => Value::unknown_int(),
                            });
                        }
                        if let (Some(lv), Some(v)) = (ret, ret_val) {
                            let (targets, _) = semantics::lval_targets(program, lv, &state);
                            for &l in &targets {
                                weak(&mut next, l, &v);
                            }
                        }
                    }
                }
            }
        }
        // Plain joins for two rounds (cheap precision), widening afterwards
        // to force convergence of the numeric component.
        let merged = if rounds <= 2 {
            state.join(&next)
        } else {
            state.widen(&next)
        };
        if merged == state {
            break;
        }
        state = merged;
    }
    let callgraph = CallGraph::build(program, |cp| {
        let Cmd::Call { callee, .. } = program.cmd(cp) else {
            return Vec::new();
        };
        resolve_targets(program, callee, &state)
    });
    let commands = program
        .procs
        .iter()
        .filter(|p| !p.is_external)
        .flat_map(|p| p.nodes.iter())
        .filter(|n| !matches!(n.cmd, Cmd::Skip | Cmd::Assume(_)))
        .count();
    PreAnalysis {
        state,
        callgraph,
        rounds,
        commands,
        evaluations: rounds * commands,
    }
}

/// Hand-written programs aimed at the schedule's edge cases, by name.
pub(crate) const HAND_WRITTEN: &[(&str, &str)] = &[
    (
        "function pointer whose target set grows in a late round",
        "int f(int a) { return a; }
         int g(int a) { return a + 1; }
         int main(int c) {
            int (*fp)(int); int (*p3)(int); int (*p2)(int); int (*p1)(int);
            fp = f;
            int r = fp(1);
            fp = p3; p3 = p2; p2 = p1; p1 = g;
            return r;
         }",
    ),
    (
        "*p = e where p's points-to set grows after e stabilised",
        "int x; int y; int *p; int *q3; int *q2; int *q1;
         int main() { p = &x; *p = 5; p = q3; q3 = q2; q2 = q1; q1 = &y; return x + y; }",
    ),
    (
        "field store through a pointer",
        "struct S { int a; int b; };
         struct S s; struct S t; struct S *ps; struct S *pt;
         int main(int c) {
            ps = &s; ps->a = 3;
            if (c) ps = pt;
            pt = &t;
            ps->b = ps->a + 1;
            return t.b;
         }",
    ),
    (
        "malloc in a loop",
        "int main(int n) {
            int *p; int i = 0;
            while (i < n) { p = malloc(i + 1); *p = i; i = i + 1; }
            return *p;
         }",
    ),
    (
        "recursion",
        "int acc;
         int f(int n) { if (n <= 0) return 0; acc = acc + n; return f(n - 1) + 1; }
         int main() { return f(9) + acc; }",
    ),
    (
        "return; binds the return variable to an explicit bottom",
        "void f(int *p) { if (*p) return; *p = 1; }
         int main() { int x = 0; f(&x); return x; }",
    ),
];

/// The inputs of the differential tests: the golden corpus, the
/// hand-written cases, and generated units at three recursion-cycle sizes.
pub(crate) fn differential_programs() -> Vec<(String, Program)> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let alarms = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/alarms");
    let mut files: Vec<_> = std::fs::read_dir(alarms)
        .expect("tests/alarms exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    assert!(files.len() >= 10, "golden corpus went missing");
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable corpus file");
        sources.push((f.display().to_string(), src));
    }
    for (name, src) in HAND_WRITTEN {
        sources.push((name.to_string(), src.to_string()));
    }
    for max_scc in [2, 10, 30] {
        for seed in [65261, 7, 123] {
            let cfg = sga_cgen::GenConfig {
                seed,
                target_loc: 600,
                functions: 34,
                globals: 16,
                max_scc,
                ..sga_cgen::GenConfig::default()
            };
            sources.push((
                format!("cgen seed {seed} max_scc {max_scc}"),
                sga_cgen::generate(&cfg),
            ));
        }
    }
    sources
        .into_iter()
        .map(|(name, src)| {
            let program = sga_cfront::parse(&src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            (name, program)
        })
        .collect()
}

#[test]
fn delta_rounds_equal_full_rounds() {
    for (name, program) in differential_programs() {
        let new = super::run(&program);
        let old = run_full_rounds(&program);
        assert_eq!(new.state, old.state, "{name}: state");
        assert_eq!(new.rounds, old.rounds, "{name}: rounds");
        assert_eq!(
            new.callgraph.site_targets, old.callgraph.site_targets,
            "{name}: call targets"
        );
        assert_eq!(new.commands, old.commands, "{name}: commands");
        assert!(new.evaluations <= old.evaluations, "{name}: evaluations");
        if name.starts_with("cgen") {
            assert!(
                new.evaluations < new.rounds * new.commands,
                "{name}: {} evaluations in {} rounds of {} commands",
                new.evaluations,
                new.rounds,
                new.commands
            );
        }
    }
}

/// The hand-written cases exercise what their names say (otherwise the
/// differential above would pass them vacuously).
#[test]
fn hand_written_cases_hit_their_edge() {
    let run_case = |i: usize| {
        let program = sga_cfront::parse(HAND_WRITTEN[i].1).expect(HAND_WRITTEN[i].0);
        let pre = super::run(&program);
        (program, pre)
    };
    // Late function-pointer growth: `g` is a target, found after widening
    // started (round 3).
    let (program, pre) = run_case(0);
    let (main, g) = (program.main, program.proc_by_name("g").unwrap());
    assert!(pre.callgraph.callees[main].contains(&g));
    assert!(pre.rounds > 4, "{} rounds", pre.rounds);
    // Late points-to growth: the store reached `y`.
    let (program, pre) = run_case(1);
    let y = AbsLoc::Var(super::tests::var(&program, "y"));
    assert!(sga_domains::Interval::constant(5).le(&pre.state.get(&y).itv));
    assert!(pre.rounds > 4, "{} rounds", pre.rounds);
    // `return;`: f's return variable is bound, to ⊥.
    let (program, pre) = run_case(5);
    let f = program.proc_by_name("f").unwrap();
    let ret = pre.state.get_ref(&AbsLoc::Var(program.procs[f].ret_var));
    assert_eq!(ret, Some(&Value::bot()));
}
