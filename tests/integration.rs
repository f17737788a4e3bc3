//! Cross-crate integration tests: generator → frontend → IR → analyses →
//! checker, exercised end to end.

use sga::analysis::checker::check_overruns;
use sga::analysis::interval::{analyze, stage_inputs, Engine, Inputs};
use sga::analysis::{octagon, preanalysis};
use sga::cgen::{generate, GenConfig};
use sga::domains::{AbsLoc, Interval, Lattice};
use sga::frontend::parse;
use sga::ir::metrics::ProgramMetrics;
use sga::ir::{Cmd, LVal, Program, VarId};

fn var(program: &Program, name: &str) -> VarId {
    program
        .vars
        .iter_enumerated()
        .find(|(_, v)| v.name == name)
        .map(|(i, _)| i)
        .unwrap_or_else(|| panic!("no var {name}"))
}

fn def_of(program: &Program, name: &str) -> sga::ir::Cp {
    let v = var(program, name);
    program
        .all_points()
        .filter(|cp| matches!(program.cmd(*cp), Cmd::Assign(LVal::Var(x), _) if *x == v))
        .last()
        .unwrap_or_else(|| panic!("no assignment to {name}"))
}

#[test]
fn generated_programs_run_through_all_engines() {
    for seed in [1, 7, 42] {
        let cfg = GenConfig::sized(seed, 1);
        let src = generate(&cfg);
        let program = parse(&src).expect("generated source parses");
        assert!(sga::ir::validate::validate(&program).is_empty());
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            let r = analyze(&program, engine);
            assert!(r.stats.iterations > 0, "seed {seed} {engine:?} did nothing");
            assert!(!r.values.is_empty());
        }
    }
}

#[test]
fn metrics_reflect_generator_knobs() {
    let cfg = GenConfig {
        max_scc: 5,
        functions: 12,
        ..GenConfig::default()
    };
    let src = generate(&cfg);
    let program = parse(&src).unwrap();
    let pre = preanalysis::run(&program);
    let m = ProgramMetrics::measure(&program, &pre.callgraph);
    assert!(m.functions >= 12, "functions: {}", m.functions);
    assert!(m.max_scc >= 2 && m.max_scc <= 5, "maxSCC: {}", m.max_scc);
    assert!(m.statements > 0 && m.blocks > 0);
}

#[test]
fn whole_pipeline_on_linked_list_program() {
    // Pointers, structs, heap allocation, a loop and a helper — the paper's
    // Example-1 ingredients in one program.
    let src = r#"
        struct node { int data; struct node *next; };

        struct node *cons(int v, struct node *tail) {
            struct node *n = malloc(16);
            n->data = v;
            n->next = tail;
            return n;
        }

        int sum(struct node *l) {
            int s = 0;
            while (l != 0) {
                s = s + l->data;
                l = l->next;
            }
            return s;
        }

        int main() {
            struct node *list = 0;
            int i = 0;
            while (i < 5) {
                list = cons(i, list);
                i = i + 1;
            }
            int total = sum(list);
            return total;
        }
    "#;
    let program = parse(src).unwrap();
    for engine in [Engine::Base, Engine::Sparse] {
        let r = analyze(&program, engine);
        // i is bounded by the loop condition.
        let i_def = def_of(&program, "i");
        let iv = r.value_at(i_def, &AbsLoc::Var(var(&program, "i")));
        assert!(
            iv.itv.le(&Interval::range(1, 5)),
            "{engine:?}: i = {:?}",
            iv.itv
        );
        // list points to the single allocation site in cons.
        let list_def = def_of(&program, "list");
        let lv = r.value_at(list_def, &AbsLoc::Var(var(&program, "list")));
        assert!(
            !lv.arr.is_empty() || !lv.ptr.is_empty(),
            "{engine:?}: list = {lv:?}"
        );
    }
}

#[test]
fn checker_agrees_across_engines_on_generated_code() {
    for seed in [3, 9] {
        let cfg = GenConfig::sized(seed, 1);
        let src = generate(&cfg);
        let program = parse(&src).unwrap();
        let pre = preanalysis::run(&program);
        let overruns = |engine| {
            let result = analyze(&program, engine);
            let (icfg, du, deps) = stage_inputs(&program, &pre, engine);
            check_overruns(&Inputs::new(&program, &result, &icfg, &du, deps.as_ref()))
        };
        let (base, sparse) = (overruns(Engine::Base), overruns(Engine::Sparse));
        // Identical alarm sets — the client-level statement of precision
        // preservation.
        assert_eq!(
            base.len(),
            sparse.len(),
            "seed {seed}: base {base:#?} vs sparse {sparse:#?}"
        );
    }
}

#[test]
fn octagon_engines_run_on_generated_code() {
    let cfg = GenConfig::sized(11, 1);
    let src = generate(&cfg);
    let program = parse(&src).unwrap();
    for engine in [octagon::Engine::Base, octagon::Engine::Sparse] {
        let r = octagon::analyze(&program, engine);
        assert!(r.stats.iterations > 0);
        assert!(!r.packs.is_empty());
    }
}

#[test]
fn function_pointers_resolve_end_to_end() {
    let src = r#"
        int twice(int x) { return x + x; }
        int thrice(int x) { return x + x + x; }
        int apply(int (*f)(int), int v) { return f(v); }
        int main(int c) {
            int (*op)(int);
            if (c) op = twice; else op = thrice;
            int r = apply(op, 7);
            return r;
        }
    "#;
    let program = parse(src).unwrap();
    let pre = preanalysis::run(&program);
    let apply = program.proc_by_name("apply").unwrap();
    let twice = program.proc_by_name("twice").unwrap();
    let thrice = program.proc_by_name("thrice").unwrap();
    assert!(pre.callgraph.callees[apply].contains(&twice));
    assert!(pre.callgraph.callees[apply].contains(&thrice));
    for engine in [Engine::Base, Engine::Sparse] {
        let r = analyze(&program, engine);
        let rv = r.value_at(def_of(&program, "r"), &AbsLoc::Var(var(&program, "r")));
        // twice(7)=14, thrice(7)=21: result ∈ [14, 21].
        assert!(
            rv.itv.le(&Interval::range(14, 21)),
            "{engine:?}: r = {:?}",
            rv.itv
        );
        assert!(
            Interval::constant(14).le(&rv.itv),
            "{engine:?}: r = {:?}",
            rv.itv
        );
    }
}

#[test]
fn dependency_stores_capture_generated_relation() {
    use sga::analysis::interval::{AnalyzeOptions, Pipeline};
    use sga::bdd::{BddDepStore, DepStore, SetDepStore};

    let cfg = GenConfig::sized(5, 1);
    let src = generate(&cfg);
    let program = parse(&src).unwrap();
    let pl = Pipeline::prepare(&program, AnalyzeOptions::default());
    let numbering = program.point_numbering();

    let mut set = SetDepStore::new();
    let mut bdd = BddDepStore::new(numbering.len() as u32, pl.du.locs.len() as u32);
    for (from, loc, to) in pl.deps.iter() {
        let t = sga::bdd::relation::DepTriple {
            from: numbering.index(from) as u32,
            to: numbering.index(to) as u32,
            loc,
        };
        set.insert(t);
        bdd.insert(t);
    }
    assert_eq!(set.len(), bdd.len());
    assert_eq!(set.len(), pl.deps.stats.final_edges);
    // Spot-check membership parity on the actual triples.
    for (from, loc, to) in pl.deps.iter().take(500) {
        let t = sga::bdd::relation::DepTriple {
            from: numbering.index(from) as u32,
            to: numbering.index(to) as u32,
            loc,
        };
        assert!(set.contains(t) && bdd.contains(t));
    }
}
