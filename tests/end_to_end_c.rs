//! Frontend robustness: a battery of C-subset programs that must parse,
//! lower to valid IR, and analyze without panicking — plus targeted checks
//! that the analysis results are sensible.

use sga::analysis::interval::{analyze, Engine};
use sga::domains::{AbsLoc, Interval, Lattice};
use sga::frontend::parse;
use sga::ir::{Cmd, LVal, Program, VarId};

fn analyze_ok(src: &str) -> (Program, sga::analysis::interval::IntervalResult) {
    let program = parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
    let errs = sga::ir::validate::validate(&program);
    assert!(errs.is_empty(), "{errs:?}");
    let r = analyze(&program, Engine::Sparse);
    (program, r)
}

fn var(program: &Program, name: &str) -> VarId {
    program
        .vars
        .iter_enumerated()
        .find(|(_, v)| v.name == name)
        .map(|(i, _)| i)
        .unwrap_or_else(|| panic!("no var {name}"))
}

fn last_def(program: &Program, name: &str) -> sga::ir::Cp {
    let v = var(program, name);
    program
        .all_points()
        .filter(|cp| matches!(program.cmd(*cp), Cmd::Assign(LVal::Var(x), _) if *x == v))
        .last()
        .unwrap_or_else(|| panic!("no assignment to {name}"))
}

#[test]
fn control_flow_zoo() {
    analyze_ok(
        "int main(int argc) {
            int x = 0;
            for (int i = 0; i < 10; i++) { if (i % 2) continue; x += i; }
            do { x--; } while (x > 3);
            switch (argc) {
                case 0: x = 1; break;
                case 1: case 2: x = 2; break;
                default: x = 3; break;
            }
            int guard = 0;
          again:
            guard++;
            if (guard < 2) goto again;
            while (1) { if (x) break; x++; }
            return x;
        }",
    );
}

#[test]
fn expression_zoo() {
    analyze_ok(
        "int main(int a, int b) {
            int x = a ? b : -b;
            x = (a, b, x);
            x += 1; x -= 2; x *= 3; x /= 2; x %= 7;
            x = a && b || !a;
            x = a & b | a ^ b;
            x = a << 2 >> 1;
            x = ~a;
            int pre = ++x;
            int post = x--;
            return pre + post;
        }",
    );
}

#[test]
fn pointer_zoo() {
    let (p, r) = analyze_ok(
        "int g1; int g2;
         int main(int c) {
            int local = 4;
            int *p = &local;
            int **pp = &p;
            **pp = 8;
            int v = *p;
            if (c) p = &g1;
            *p = 15;
            int w = g1;
            return v + w;
         }",
    );
    // **pp = 8 strong-updates local through the unique chain.
    let v = r.value_at(last_def(&p, "v"), &AbsLoc::Var(var(&p, "v")));
    assert_eq!(v.itv, Interval::constant(8), "v = {v:?}");
    // g1 receives 15 weakly (p may be local or &g1).
    let w = r.value_at(last_def(&p, "w"), &AbsLoc::Var(var(&p, "w")));
    assert!(Interval::constant(15).le(&w.itv), "w = {w:?}");
}

#[test]
fn struct_zoo() {
    let (p, r) = analyze_ok(
        "struct point { int x; int y; };
         struct rect { int w; int h; };
         int main() {
            struct point a;
            a.x = 3; a.y = 4;
            struct point *pa = &a;
            pa->x = pa->x + pa->y;
            struct rect *pr = malloc(8);
            pr->w = a.x;
            int area = pr->w;
            return area;
         }",
    );
    let area = r.value_at(last_def(&p, "area"), &AbsLoc::Var(var(&p, "area")));
    assert_eq!(area.itv, Interval::constant(7), "area = {area:?}");
}

#[test]
fn string_and_stub_zoo() {
    analyze_ok(
        "int main() {
            char *msg = \"hello world\";
            char *buf = malloc(32);
            strcpy(buf, msg);
            int n = strlen(buf);
            printf(\"%s %d\", msg, n);
            free(buf);
            int r = rand() % 10;
            if (r < 0) r = 0;
            return r;
        }",
    );
}

#[test]
fn recursion_zoo() {
    let (p, r) = analyze_ok(
        "int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
         }
         int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
         }
         int main() { int a = fib(10); int b = fact(5); return a + b; }",
    );
    // No exact values expected (widening over recursion), but both must be
    // bound and non-⊥ at their definitions.
    for name in ["a", "b"] {
        let v = r.value_at(last_def(&p, name), &AbsLoc::Var(var(&p, name)));
        assert!(!v.itv.is_bottom(), "{name} = {v:?}");
    }
}

#[test]
fn mutual_recursion_with_globals() {
    let (p, r) = analyze_ok(
        "int depth;
         int odd(int n);
         int even(int n) {
            depth = depth + 1;
            if (n == 0) return 1;
            return odd(n - 1);
         }
         int odd(int n) {
            if (n == 0) return 0;
            return even(n - 1);
         }
         int main() { depth = 0; int r = even(8); return r; }",
    );
    // Widening over the mutual-recursion cycle may lose either bound
    // (which bound survives depends on iteration order); the exact result
    // {0, 1} must be included and at least one side must stay finite.
    let rv = r.value_at(last_def(&p, "r"), &AbsLoc::Var(var(&p, "r")));
    assert!(Interval::range(0, 1).le(&rv.itv), "r = {rv:?}");
    assert_ne!(rv.itv, Interval::top(), "r lost both bounds");
}

#[test]
fn interval_refinement_through_conditionals() {
    let (p, r) = analyze_ok(
        "int clamp(int v, int lo, int hi) {
            if (v < lo) return lo;
            if (v > hi) return hi;
            return v;
         }
         int main(int raw) {
            int c = clamp(raw, 0, 100);
            return c;
         }",
    );
    let c = r.value_at(last_def(&p, "c"), &AbsLoc::Var(var(&p, "c")));
    assert_eq!(c.itv, Interval::range(0, 100), "clamped = {c:?}");
}

#[test]
fn globals_initialized_before_main_body() {
    let (p, r) = analyze_ok(
        "int table_size = 64;
         int limit = 100;
         int main() {
            int x = table_size + limit;
            return x;
         }",
    );
    let x = r.value_at(last_def(&p, "x"), &AbsLoc::Var(var(&p, "x")));
    assert_eq!(x.itv, Interval::constant(164));
}

#[test]
fn frontend_rejects_garbage_with_line_numbers() {
    for (src, line) in [
        ("int main() {\n  int x = ;\n}", 2),
        ("int main() {\n\n  foo bar baz;\n}", 3),
        ("int main() { return 0; } struct {", 1),
    ] {
        let err = parse(src).unwrap_err();
        assert!(err.line >= 1, "error should carry a line: {err}");
        let _ = line;
    }
}

#[test]
fn larger_generated_program_full_pipeline() {
    let cfg = sga::cgen::GenConfig::sized(123, 2);
    let src = sga::cgen::generate(&cfg);
    let (program, r) = analyze_ok(&src);
    assert!(program.num_points() > 1000);
    let pre = sga::analysis::preanalysis::run(&program);
    let (icfg, du, deps) = sga::analysis::interval::stage_inputs(&program, &pre, Engine::Sparse);
    let q = sga::analysis::interval::Inputs::new(&program, &r, &icfg, &du, deps.as_ref());
    let alarms = sga::analysis::checker::check_overruns(&q);
    // The generator indexes gbuf within bounds by construction.
    assert!(alarms.iter().all(|a| !a.definite), "{alarms:#?}");
}
