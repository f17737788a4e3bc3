//! The differential oracle for forwarding: every solve is run twice, once
//! as it ships and once with every pop forced whole
//! ([`super::tests::forcing_whole`] — the engine before forwarding, by
//! construction), and the two must agree on every row, on `iterations`,
//! `narrowing_rounds` and `degraded`. It fails as soon as an instance's
//! [`SparseSpec::forwards`] promises more than its transfer keeps.

use super::tests::forcing_whole;
use super::*;
use crate::interval::{AnalyzeOptions, Engine, IntervalSparseSpec};
use crate::stats::AnalysisStats;
use crate::widening::{WideningConfig, WideningStrategy};
use crate::{constprop, defuse, depgen, octagon, preanalysis};
use sga_cfront::parse;
use sga_cgen::GenConfig;
use sga_ir::VarId;
use std::fmt::Debug;

/// What two runs of one solve must agree on. `rendered` is the rows'
/// `Debug` form, which for the octagon goes through each matrix's closure.
#[derive(PartialEq)]
struct Outcome {
    rendered: Vec<String>,
    iterations: usize,
    pops: usize,
    degraded: bool,
}

fn render<S: Debug>(program: &Program, values: &FxHashMap<Cp, S>) -> Vec<String> {
    let row = |cp| Some(format!("{cp}: {:?}", values.get(&cp)?));
    program.all_points().filter_map(row).collect()
}

/// Asserts `run` computes the same with forwarding as with every pop
/// whole, and returns the forwarded run's work counts beside the forced
/// run's.
fn assert_same<V: PartialEq>(what: &str, run: impl Fn() -> (V, Outcome, FixWork)) -> [FixWork; 2] {
    let (values, outcome, work) = run();
    let (whole_values, whole_outcome, whole_work) = forcing_whole(&run);
    assert!(values == whole_values, "{what}: some row differs");
    for (got, want) in outcome.rendered.iter().zip(&whole_outcome.rendered) {
        assert_eq!(got, want, "{what}");
    }
    assert!(outcome == whole_outcome, "{what}: counts differ");
    assert_eq!(work.pops(), outcome.pops);
    assert_eq!(
        (whole_work.whole, whole_work.forwarded, whole_work.skipped),
        (whole_outcome.pops, 0, 0),
        "{what}: forcing whole leaves nothing else"
    );
    [work, whole_work]
}

/// Stages the interval instance over `program` and hands `run` what a
/// solve takes: the ICFG, the relation, the spec and the widening plan.
fn interval_staged<R>(
    program: &Program,
    options: AnalyzeOptions,
    run: impl FnOnce(&Icfg, &DataDeps, &IntervalSparseSpec, &WideningPlan) -> R,
) -> R {
    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let du = if options.semi_sparse {
        let coarse = preanalysis::coarsen_semi_sparse(program, &pre.state);
        defuse::compute_with_state(program, &pre, &coarse)
    } else {
        defuse::compute(program, &pre)
    };
    let deps = depgen::generate(program, &pre, &du, options.depgen);
    let spec = IntervalSparseSpec {
        program,
        pre: &pre,
        du: &du,
    };
    let plan = WideningPlan::for_program(program, options.widening);
    run(&icfg, &deps, &spec, &plan)
}

fn interval(program: &Program, options: AnalyzeOptions) -> (impl PartialEq, Outcome, FixWork) {
    let solved = interval_staged(program, options, |icfg, deps, spec, plan| {
        solve(program, icfg, deps, spec, plan, &options.budget)
    });
    let outcome = Outcome {
        rendered: render(program, &solved.values),
        iterations: solved.iterations,
        pops: solved.iterations + solved.narrowing_rounds,
        degraded: solved.degraded,
    };
    (solved.values, outcome, solved.work)
}

/// The outcome of a front-door run, read off its statistics.
fn outcome_of<S: Debug>(
    program: &Program,
    values: &FxHashMap<Cp, S>,
    stats: &AnalysisStats,
) -> Outcome {
    Outcome {
        rendered: render(program, values),
        iterations: stats.iterations,
        pops: stats.fix_work.pops(),
        degraded: stats.degraded,
    }
}

fn octagon(
    program: &Program,
    seeds: Option<&[VarId]>,
    options: AnalyzeOptions,
) -> (impl PartialEq, Outcome, FixWork) {
    let pre = preanalysis::run(program);
    let icfg = Icfg::build(program, &pre);
    let du = defuse::compute(program, &pre);
    let solved =
        octagon::analyze_with_pre(program, &pre, &du, &icfg, seeds, Engine::Sparse, options);
    let outcome = outcome_of(program, &solved.values, &solved.stats);
    (solved.values, outcome, solved.stats.fix_work)
}

fn constants(program: &Program) -> (impl PartialEq, Outcome, FixWork) {
    let solved = constprop::analyze(program);
    let outcome = outcome_of(program, &solved.values, &solved.stats);
    (solved.values, outcome, solved.stats.fix_work)
}

/// The default options and each knob moved on its own: the three widening
/// strategies, a budget that degrades at once and one that degrades midway
/// (or not at all on a small unit), the semi-sparse sets, bypass off.
fn configurations() -> Vec<(&'static str, AnalyzeOptions)> {
    let base = AnalyzeOptions::default();
    let widening = |strategy| AnalyzeOptions {
        widening: WideningConfig::of(strategy),
        ..base
    };
    let budget = |steps| AnalyzeOptions {
        budget: Budget::with_max_steps(steps),
        ..base
    };
    vec![
        ("delayed", widening(WideningStrategy::Delayed)),
        ("naive", widening(WideningStrategy::Naive)),
        ("threshold", widening(WideningStrategy::Threshold)),
        ("budget 1", budget(1)),
        ("budget 2000", budget(2000)),
        (
            "budget 2000, naive",
            AnalyzeOptions {
                budget: Budget::with_max_steps(2000),
                ..widening(WideningStrategy::Naive)
            },
        ),
        (
            "semi-sparse",
            AnalyzeOptions {
                semi_sparse: true,
                ..base
            },
        ),
        (
            "no bypass",
            AnalyzeOptions {
                depgen: depgen::DepGenOptions { bypass: false },
                ..base
            },
        ),
        (
            "no bypass, naive",
            AnalyzeOptions {
                depgen: depgen::DepGenOptions { bypass: false },
                ..widening(WideningStrategy::Naive)
            },
        ),
    ]
}

/// Hand-written units for the call shapes the generator does not emit.
const HAND_WRITTEN: [(&str, &str); 5] = [
    (
        // The pack {y, g, h, i} is relayed through the call (the callee
        // writes g) and is no real use there — the actual's *singleton* is —
        // yet the formal is bound to the meet of y's projections from both.
        // It moves with h while the singleton stands still.
        "an actual projected from a relayed pack",
        "int g; int h; int seen;
         void note(int a) { g = g + 0; seen = a; return; }
         int main(int y, int g0) {
             void (*fp)(int); int i;
             fp = note; g = g0;
             if (y >= 0) { if (y <= 100) { if (g >= 0) { if (g <= 100) {
                 i = 50;
                 while (i > 0) {
                     h = i;
                     if (y > g) { if (g > h) { fp(y); } }
                     i = i - 1;
                 }
             } } } }
             return seen;
         }",
    ),
    (
        "function pointer, two internal targets",
        "int g; int h;
         int inc(int x) { g = g + x; return x + 1; }
         int dec(int x) { h = h - x; return x - 1; }
         int main(int c) {
             int (*f)(int); int i; int r;
             if (c) f = inc; else f = dec;
             i = 0; r = 0;
             while (i < 10) { r = f(i); i = i + 1; }
             return r + g + h;
         }",
    ),
    (
        "x = f() through *p",
        "int a; int b; int *p; int depth;
         int f() { depth = depth + 1; if (depth < 5) { a = f(); } return depth; }
         int main(int c) {
             if (c) p = &a; else p = &b;
             *p = f();
             *p = f();
             return a + b;
         }",
    ),
    (
        "recursion, a global passed and written",
        "int g;
         int walk(int n) {
             int r;
             if (n <= 0) return g;
             g = g + n;
             r = walk(g);
             g = r + 1;
             return walk(n - 1) + g;
         }
         int main() { g = 1; return walk(g); }",
    ),
    (
        "return;",
        "int g;
         void bump(int n) { if (n > 3) return; g = g + n; bump(n + 1); return; }
         int main() { g = 0; bump(0); bump(g); return g; }",
    ),
];

/// `tests/alarms/*.c`, the hand-written units, and three seeds of a
/// generated unit at each of `max_scc` 2, 10 and 9⁄10 of the procedures.
pub(crate) fn corpus() -> Vec<(String, Program)> {
    let alarms = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/alarms");
    let mut sources: Vec<(String, String)> = std::fs::read_dir(alarms)
        .expect("tests/alarms")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "c"))
        .map(|path| {
            let source = std::fs::read_to_string(&path).unwrap();
            (path.display().to_string(), source)
        })
        .collect();
    sources.sort();
    assert!(sources.len() >= 15, "tests/alarms moved?");
    let hand = HAND_WRITTEN.iter();
    sources.extend(hand.map(|(name, source)| (name.to_string(), source.to_string())));
    for seed in [65261, 7, 123] {
        for max_scc in [2, 10, 18] {
            let config = GenConfig {
                seed,
                target_loc: 400,
                functions: 20,
                globals: 10,
                global_ptrs: 3,
                max_scc,
                ..GenConfig::default()
            };
            let name = format!("cgen seed {seed}, max_scc {max_scc}");
            sources.push((name, sga_cgen::generate(&config)));
        }
    }
    let parsed = |(name, source): (String, String)| {
        let program = parse(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        (name, program)
    };
    sources.into_iter().map(parsed).collect()
}

/// Every seventh variable: a slice that keeps some packs and drops others.
fn some_seeds(program: &Program) -> Vec<VarId> {
    program.vars.indices().step_by(7).collect()
}

#[test]
fn forwarding_equals_whole_evaluation() {
    let mut total = [FixWork::default(); 2];
    let mut add = |work: [FixWork; 2]| {
        for (sum, w) in total.iter_mut().zip(work) {
            sum.forwarded += w.forwarded;
            sum.skipped += w.skipped;
            sum.edge_reads += w.edge_reads;
        }
    };
    for (name, program) in &corpus() {
        for (config, options) in configurations() {
            let what = format!("{name}, {config}");
            add(assert_same(&format!("interval, {what}"), || {
                interval(program, options)
            }));
            if options.semi_sparse {
                continue; // interval-only
            }
            add(assert_same(&format!("octagon, {what}"), || {
                octagon(program, None, options)
            }));
        }
        let seeds = some_seeds(program);
        add(assert_same(&format!("sliced octagon, {name}"), || {
            octagon(program, Some(&seeds), AnalyzeOptions::default())
        }));
        add(assert_same(&format!("constants, {name}"), || {
            constants(program)
        }));
    }
    let [forwarding, whole] = total;
    assert!(forwarding.forwarded > 0 && forwarding.skipped > 0);
    assert!(
        forwarding.edge_reads < whole.edge_reads,
        "{forwarding:?} against {whole:?}"
    );
}

/// The pop-order oracle over real schedules: every unit of the corpus —
/// `tests/alarms`, the hand-written call shapes, and the generated units up
/// to `max_scc` 18, the shape where delayed widening makes the pop order
/// matter — solved under each option set once per worklist. The flat
/// worklist must replay the `BTreeSet` reference pop for pop, so rows and
/// every count agree.
#[test]
fn flat_worklist_replays_the_btreeset_reference() {
    for (name, program) in &corpus() {
        for (config, options) in configurations() {
            let what = format!("{name}, {config}");
            // `solve` runs the flat worklist; `solve_with` over the bare
            // relation runs `depstore::reference`'s `BTreeSet`.
            let (flat, reference) = interval_staged(program, options, |icfg, deps, spec, plan| {
                (
                    solve(program, icfg, deps, spec, plan, &options.budget),
                    solve_with(program, icfg, deps, spec, plan, &options.budget),
                )
            });
            assert!(flat.values == reference.values, "{what}: some row differs");
            assert_eq!(
                (flat.iterations, flat.narrowing_rounds, flat.degraded),
                (
                    reference.iterations,
                    reference.narrowing_rounds,
                    reference.degraded
                ),
                "{what}"
            );
            assert_eq!(flat.work, reference.work, "{what}");
        }
    }
}

/// The `batch_scc` workload's core unit: 94 of 105 procedures on one call
/// cycle, where the relay hubs are — most pops past the first visits are
/// answered per location and the edges read fall to a fraction.
#[test]
fn forwarding_reads_a_fifth_of_the_edges_on_an_scc_heavy_unit() {
    let source = sga_cgen::generate(&GenConfig {
        target_loc: 2637,
        functions: 105,
        globals: 29,
        global_ptrs: 6,
        max_scc: 94,
        ..GenConfig::sized(65261, 1)
    });
    let program = parse(&source).unwrap();
    let [forwarding, whole] = assert_same("scc-heavy unit", || {
        interval(&program, AnalyzeOptions::default())
    });
    assert!(
        forwarding.edge_reads * 5 <= whole.edge_reads,
        "{forwarding:?} against {whole:?}"
    );
    assert!(forwarding.forwarded_locs < 2 * forwarding.forwarded);
}
