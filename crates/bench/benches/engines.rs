//! Criterion micro-benchmarks of the three interval engines — the
//! continuous-integration-sized companion to Table 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sga::analysis::budget::Budget;
use sga::analysis::interval::{analyze, AnalyzeOptions, Engine, IntervalSparseSpec, Pipeline};
use sga::analysis::sparse;
use sga::cgen::GenConfig;
use sga::ir::Program;

fn programs() -> Vec<(String, Program)> {
    [(500usize, 1u64), (1500, 2)]
        .into_iter()
        .map(|(loc, seed)| {
            let mut cfg = GenConfig::sized(seed, 1);
            cfg.target_loc = loc;
            cfg.functions = (loc / 25).max(4);
            let src = sga::cgen::generate(&cfg);
            let program = sga::frontend::parse(&src).expect("parses");
            (format!("{loc}loc"), program)
        })
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let programs = programs();
    let mut group = c.benchmark_group("interval_engines");
    group.sample_size(10);
    for (name, program) in &programs {
        for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
            // Vanilla on the larger program is too slow for a micro-bench.
            if engine == Engine::Vanilla && name != "500loc" {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), name),
                program,
                |b, p| b.iter(|| analyze(p, engine)),
            );
        }
    }
    group.finish();
}

fn bench_octagon(c: &mut Criterion) {
    let mut cfg = GenConfig::sized(3, 1);
    cfg.target_loc = 400;
    cfg.functions = 16;
    let src = sga::cgen::generate(&cfg);
    let program = sga::frontend::parse(&src).expect("parses");
    let mut group = c.benchmark_group("octagon_engines");
    group.sample_size(10);
    for engine in [Engine::Base, Engine::Sparse] {
        group.bench_function(format!("{engine:?}"), |b| {
            b.iter(|| sga::analysis::octagon::analyze(&program, engine))
        });
    }
    group.finish();
}

/// The sparse fixpoint alone, at both ends of what forwarding does for it;
/// everything up to the dependency relation is staged outside the timed
/// closure.
///
/// `solve_scc` — 28 of 32 procedures on one call-graph cycle (the shape
/// `tests/diagnostics.rs` pins): the solve runs through the m×n relay hubs
/// at call sites, entries and exits, and most pops past the first visits
/// are answered per dirty location. Expected to show the large factor.
///
/// `solve_flat` — a 1-kLOC unit with `max_scc = 2`: few hubs, short rows,
/// and first visits plus small assign / assume re-evaluations (all whole)
/// dominate. Expected to show the small end: the descent's skipped opening
/// round and little else.
fn bench_sparse_solve(c: &mut Criterion) {
    let scc = GenConfig {
        seed: 65261,
        target_loc: 800,
        functions: 32,
        globals: 16,
        global_ptrs: 4,
        max_scc: 28,
        ..Default::default()
    };
    let flat = GenConfig {
        target_loc: 1000,
        ..GenConfig::sized(65261, 1)
    };
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    for (name, config) in [("solve_scc", scc), ("solve_flat", flat)] {
        let src = sga::cgen::generate(&config);
        let program = sga::frontend::parse(&src).expect("parses");
        let staged = Pipeline::prepare(&program, AnalyzeOptions::default());
        let spec = IntervalSparseSpec {
            program: &program,
            pre: &staged.pre,
            du: &staged.du,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                sparse::solve(
                    &program,
                    &staged.icfg,
                    &staged.deps,
                    &spec,
                    &staged.widening,
                    &Budget::unbounded(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_octagon, bench_sparse_solve);
criterion_main!(benches);
