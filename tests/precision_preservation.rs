//! Lemma 2 as an executable oath: the sparse analysis preserves the
//! baseline's precision.
//!
//! * On intraprocedural programs the results are **identical** on every
//!   `D̂(c)` entry (Lemma 1/2 verbatim — dependencies are exact there).
//! * Interprocedurally, the engines place widening points differently
//!   (WTO heads + recursive entries vs. dependency cycles), so individual
//!   entries may differ by over-approximation — usually in one direction
//!   (⊑-comparable), occasionally each losing a *different* bound on
//!   recursion-heavy code (incomparable but still sound; the soundness
//!   suite checks both against concrete runs). The overwhelming majority
//!   must be exactly equal.
//!
//! * Constant propagation never widens, so there Lemma 1 holds with `==`
//!   on every program, interprocedural ones included
//!   (`constprop_sparse_equals_dense_base_exactly`).
//!
//! The interval comparisons skip call nodes: the sparse engine stores
//! parameter/relay bindings there, which dense engines keep on ICFG edges.

use sga::analysis::interval::{analyze, Engine, IntervalResult};
use sga::domains::Lattice;
use sga::frontend::parse;
use sga::ir::{Cmd, Program};

struct Comparison {
    checked: usize,
    equal: usize,
    comparable: usize,
    incomparable: Vec<String>,
}

fn compare(program: &Program, base: &IntervalResult, sparse: &IntervalResult) -> Comparison {
    let mut cmp = Comparison {
        checked: 0,
        equal: 0,
        comparable: 0,
        incomparable: Vec::new(),
    };
    for (cp, st) in &sparse.values {
        if matches!(program.cmd(*cp), Cmd::Call { .. }) {
            continue;
        }
        for (loc, v) in st.iter() {
            if v.is_bottom() {
                continue;
            }
            cmp.checked += 1;
            let bv = base.value_at(*cp, loc);
            if *v == bv {
                cmp.equal += 1;
            } else if v.le(&bv) || bv.le(v) {
                cmp.comparable += 1;
            } else {
                cmp.incomparable.push(format!(
                    "{cp} {loc:?}: sparse {v:?} vs base {bv:?} ({})",
                    sga::ir::pretty::cmd(program, program.cmd(*cp))
                ));
            }
        }
    }
    cmp
}

fn assert_exact(src: &str) {
    let program = parse(src).unwrap();
    let base = analyze(&program, Engine::Base);
    let sparse = analyze(&program, Engine::Sparse);
    let cmp = compare(&program, &base, &sparse);
    assert!(cmp.checked > 0, "nothing compared");
    assert_eq!(
        cmp.equal, cmp.checked,
        "expected exact equality, got {} / {} ({:?})",
        cmp.equal, cmp.checked, cmp.incomparable
    );
}

#[test]
fn exact_on_straight_line() {
    assert_exact(
        "int main() {
            int a = 3; int b = a * 2; int c = b - a;
            return c;
        }",
    );
}

#[test]
fn exact_on_branches() {
    assert_exact(
        "int main(int c) {
            int x = 0;
            if (c > 10) { x = c; } else { x = 10 - c; }
            int y = x + 1;
            return y;
        }",
    );
}

#[test]
fn exact_on_loops() {
    assert_exact(
        "int main() {
            int i = 0; int s = 0;
            while (i < 100) { s = s + 2; i = i + 1; }
            int t = s - i;
            return t;
        }",
    );
}

#[test]
fn exact_on_nested_loops() {
    assert_exact(
        "int main() {
            int i = 0; int total = 0;
            while (i < 10) {
                int j = 0;
                while (j < i) { total = total + 1; j = j + 1; }
                i = i + 1;
            }
            return total;
        }",
    );
}

#[test]
fn exact_on_pointers_weak_and_strong() {
    assert_exact(
        "int x; int y; int *p; int *q;
         int main(int c) {
            q = &x;
            *q = 5;            /* strong: q = {x} */
            if (c) p = &x; else p = &y;
            *p = 9;            /* weak: p = {x, y} */
            int r = x + y;
            return r;
         }",
    );
}

#[test]
fn exact_on_arrays() {
    assert_exact(
        "int main() {
            int a[10];
            int i = 0;
            while (i < 10) { a[i] = i; i = i + 1; }
            int v = a[3];
            return v;
        }",
    );
}

#[test]
fn exact_on_paper_example_program() {
    // The §2 running example (p ↦ {x, y} via branching).
    assert_exact(
        "int y; int z; int *x; int **p;
         int main(int c) {
            if (c) p = &x; else p = (int**)&y;
            x = &y;
            *p = &z;
            y = (int)x;
            return 0;
         }",
    );
}

#[test]
fn interprocedural_single_call_chain_is_exact() {
    assert_exact(
        "int g;
         int h() { g = g + 1; return g; }
         int f() { return h() + 1; }
         int main() { g = 10; int r = f(); return r + g; }",
    );
}

#[test]
fn interprocedural_comparable_and_mostly_equal() {
    for seed in [2026, 13, 99] {
        let cfg = sga::cgen::GenConfig::sized(seed, 1);
        let src = sga::cgen::generate(&cfg);
        let program = parse(&src).unwrap();
        let base = analyze(&program, Engine::Base);
        let sparse = analyze(&program, Engine::Sparse);
        let cmp = compare(&program, &base, &sparse);
        let equal_ratio = cmp.equal as f64 / cmp.checked as f64;
        let incomparable_ratio = cmp.incomparable.len() as f64 / cmp.checked as f64;
        assert!(
            equal_ratio > 0.90,
            "seed {seed}: only {:.1}% of {} bindings equal",
            equal_ratio * 100.0,
            cmp.checked
        );
        assert!(
            incomparable_ratio < 0.02,
            "seed {seed}: {:.1}% incomparable bindings — more than widening-point \
             placement explains:\n{}",
            incomparable_ratio * 100.0,
            cmp.incomparable.join("\n")
        );
    }
}

#[test]
fn octagon_sparse_matches_base_on_relations() {
    let src = "int main(int n) {
            int i = 0; int j = 0; int k = 5;
            while (i < n) { i = i + 1; j = j + 1; }
            int d = i - j;
            int e = k + 1;
            return d + e;
         }";
    let program = parse(src).unwrap();
    let base = sga::analysis::octagon::analyze(&program, Engine::Base);
    let sparse = sga::analysis::octagon::analyze(&program, Engine::Sparse);
    for name in ["d", "e", "k"] {
        let v = program
            .vars
            .iter_enumerated()
            .find(|(_, info)| info.name == name)
            .map(|(i, _)| i)
            .unwrap();
        let def = program
            .all_points()
            .filter(
                |cp| matches!(program.cmd(*cp), Cmd::Assign(sga::ir::LVal::Var(x), _) if *x == v),
            )
            .last()
            .unwrap();
        assert_eq!(
            base.itv_of(def, v),
            sparse.itv_of(def, v),
            "octagon precision differs on {name}"
        );
    }
}

// Bit-equality between bypass on/off is *not* graph-shape-independent under
// naive widening: without bypass, joins reach a cycle node through relay
// hops in several worklist steps, so the node observes a transiently growing
// bound and widens it to ±oo, while with bypass the full join arrives in one
// step and the bound stays stable (on cgen seed 77, naive widening leaves 6
// of ~1629 bindings differing by a lost lower bound, e.g. [9, 30] vs
// [-oo, 30]). The default `delayed` strategy restores equality: the first
// DEFAULT_DELAY *changing* joins at each cycle head are plain joins, which
// absorbs the relay-hop transients, so both evaluation orders enter actual
// widening with the same accumulated state.
#[test]
fn bypass_optimization_preserves_results() {
    use sga::analysis::depgen::DepGenOptions;
    use sga::analysis::interval::{analyze_with, AnalyzeOptions};
    let cfg = sga::cgen::GenConfig::sized(77, 1);
    let src = sga::cgen::generate(&cfg);
    let program = parse(&src).unwrap();
    let with = analyze_with(
        &program,
        Engine::Sparse,
        AnalyzeOptions {
            depgen: DepGenOptions { bypass: true },
            ..Default::default()
        },
    );
    let without = analyze_with(
        &program,
        Engine::Sparse,
        AnalyzeOptions {
            depgen: DepGenOptions { bypass: false },
            ..Default::default()
        },
    );
    // The optimization only shortens chains; every binding must be equal.
    let mut checked = 0;
    for (cp, st) in &with.values {
        for (loc, v) in st.iter() {
            if v.is_bottom() {
                continue;
            }
            checked += 1;
            assert_eq!(
                *v,
                without.value_at(*cp, loc),
                "bypass changed the result at {cp} {loc:?}"
            );
        }
    }
    assert!(checked > 100, "too few bindings compared: {checked}");
}

/// Lemma 1 verbatim on the instance with no widening: sparse constant
/// propagation equals dense base constant propagation with `==` under
/// `validate::check_lemma1`'s comparison rule (DESIGN.md §9), with the
/// bypass on and off, on every file of `tests/alarms/`, a flat generated
/// unit, one whose call-graph SCC holds 9 in 10 of its procedures, and
/// three bare calls whose CFG successor is a join node.
#[test]
fn constprop_sparse_equals_dense_base_exactly() {
    use sga::analysis::depgen::{self, DepGenOptions};
    use sga::analysis::{defuse, icfg::Icfg, preanalysis, validate};
    let alarms = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/alarms");
    let mut units: Vec<(String, String)> = std::fs::read_dir(alarms)
        .expect("tests/alarms must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .map(|p| {
            (
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    assert!(units.len() >= 21, "the golden corpus went missing");
    let flat = sga::cgen::GenConfig::sized(21, 1);
    let scc = sga::cgen::GenConfig {
        target_loc: 600,
        functions: 20,
        max_scc: 18,
        ..sga::cgen::GenConfig::sized(22, 1)
    };
    units.push(("flat".into(), sga::cgen::generate(&flat)));
    units.push(("scc".into(), sga::cgen::generate(&scc)));
    // A bare call whose CFG successor other paths reach too (it ends a
    // branch, a loop body, or precedes a shared exit): the call is compared
    // with what its own return edges carry, not with the join there.
    // Globals start at 0, so the call relays h = 0 while the join sees ⊤.
    let f = "int h; void f() { h = 0; }";
    for (what, main) in [
        (
            "call ends a branch",
            "int main(int c) { if (c) f(); else h = 2; return h; }",
        ),
        (
            "call ends a loop body",
            "int main(int c) { h = 2; while (c) { c = c - 1; h = 0; f(); } return h; }",
        ),
        (
            "call before a shared exit",
            "void g(int c) { if (c) { h = 5; return; } f(); } int main(int c) { g(c); return h; }",
        ),
    ] {
        units.push((what.into(), format!("{f} {main}")));
    }
    for (what, source) in &units {
        let program = parse(source).unwrap();
        let pre = preanalysis::run(&program);
        let icfg = Icfg::build(&program, &pre);
        let du = defuse::compute(&program, &pre);
        for bypass in [true, false] {
            let deps = depgen::generate(&program, &pre, &du, DepGenOptions { bypass });
            let report = validate::check_lemma1(&program, &pre, &icfg, &du, &deps);
            let shown: Vec<String> = report.violations.iter().map(|v| v.render()).collect();
            assert!(
                shown.is_empty() && report.suppressed == 0,
                "{what}, bypass {bypass}: {} mismatches:\n{}",
                shown.len() + report.suppressed,
                shown.join("\n")
            );
            assert!(report.bindings > 0, "{what}: nothing compared");
        }
    }
}
