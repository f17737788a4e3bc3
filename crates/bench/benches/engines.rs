//! Criterion micro-benchmarks of the three interval engines — the
//! continuous-integration-sized companion to Table 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sga::analysis::budget::Budget;
use sga::analysis::depstore::DepBackend;
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

/// The sparse fixpoint alone, over a unit with 28 of its 32 procedures on
/// one call-graph cycle (the shape `tests/diagnostics.rs` pins): everything
/// up to the dependency relation is staged outside the timed closure.
fn bench_sparse_solve(c: &mut Criterion) {
    let src = sga::cgen::generate(&GenConfig {
        seed: 65261,
        target_loc: 800,
        functions: 32,
        globals: 16,
        global_ptrs: 4,
        max_scc: 28,
        ..Default::default()
    });
    let program = sga::frontend::parse(&src).expect("parses");
    let staged = Pipeline::prepare(&program, AnalyzeOptions::default());
    let spec = IntervalSparseSpec {
        program: &program,
        pre: &staged.pre,
        du: &staged.du,
    };
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    group.bench_function("solve_scc", |b| {
        b.iter(|| {
            sparse::solve_backend(
                DepBackend::Csr,
                &program,
                &staged.icfg,
                &staged.deps,
                &spec,
                &staged.widening,
                &Budget::unbounded(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engines, bench_octagon, bench_sparse_solve);
criterion_main!(benches);
