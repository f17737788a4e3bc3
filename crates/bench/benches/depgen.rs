//! Criterion micro-benchmarks of the sparse pipeline's phases: the
//! flow-insensitive pre-analysis, def/use derivation, and dependency
//! generation with/without the bypass optimization — the `Dep` column of
//! Table 2 decomposed. The two kernels whose cost depends on the call
//! graph's shape — pre-analysis rounds and the reaching-definitions walk —
//! are timed on a flat unit and on one with 9 in 10 procedures on a cycle.

use criterion::{criterion_group, criterion_main, Criterion};
use sga::analysis::depgen::{self, DepGenOptions, IntervalDepSource};
use sga::analysis::{defuse, preanalysis};
use sga::cgen::GenConfig;

fn bench_phases(c: &mut Criterion) {
    let flat = GenConfig::sized(0xDE9, 1);
    let scc = GenConfig {
        max_scc: flat.functions * 9 / 10,
        ..flat.clone()
    };
    let parse = |cfg: &GenConfig| sga::frontend::parse(&sga::cgen::generate(cfg)).expect("parses");

    let mut group = c.benchmark_group("dep_phase");
    group.sample_size(20);
    let programs = [("", parse(&flat)), ("_scc", parse(&scc))];
    for (shape, program) in &programs {
        group.bench_function(format!("preanalysis{shape}"), |b| {
            b.iter(|| preanalysis::run(program))
        });
        let pre = preanalysis::run(program);
        println!(
            "preanalysis{shape}: {} rounds, {} of {} evaluations",
            pre.rounds,
            pre.evaluations,
            pre.rounds * pre.commands
        );
        let du = defuse::compute(program, &pre);
        let source = IntervalDepSource::new(program, &pre, &du);
        // The per-procedure segments alone: no `assemble`, no bypass.
        group.bench_function(format!("reaching_defs{shape}"), |b| {
            b.iter(|| {
                program
                    .procs
                    .indices()
                    .map(|pid| depgen::proc_dep_edges(program, &source, pid).len())
                    .sum::<usize>()
            })
        });
    }

    let program = &programs[0].1;
    let pre = preanalysis::run(program);
    group.bench_function("defuse", |b| b.iter(|| defuse::compute(program, &pre)));

    let du = defuse::compute(program, &pre);
    group.bench_function("depgen_bypass_on", |b| {
        b.iter(|| depgen::generate(program, &pre, &du, DepGenOptions { bypass: true }))
    });
    group.bench_function("depgen_bypass_off", |b| {
        b.iter(|| depgen::generate(program, &pre, &du, DepGenOptions { bypass: false }))
    });
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
