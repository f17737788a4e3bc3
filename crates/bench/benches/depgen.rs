//! Criterion micro-benchmarks of the sparse pipeline's phases: the
//! flow-insensitive pre-analysis, def/use derivation, and dependency
//! generation with/without the bypass optimization — the `Dep` column of
//! Table 2 decomposed. Every row is timed on a flat unit and on one with 9
//! in 10 procedures on a cycle (suffix `_scc`): pre-analysis rounds, the
//! reaching-definitions walk and the bypass contraction all cost by the
//! call graph's shape.

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
        group.bench_function(format!("defuse{shape}"), |b| {
            b.iter(|| defuse::compute(program, &pre))
        });
        let du = defuse::compute(program, &pre);
        let source = IntervalDepSource::new(program, &pre, &du);
        // The per-procedure segments alone: no `assemble`, no bypass.
        group.bench_function(format!("reaching_defs{shape}"), |b| {
            b.iter(|| {
                let mut walks = depgen::Walks::new(du.locs.len());
                let mut edges = depgen::Segments::new(program);
                for pid in program.procs.indices() {
                    walks.proc_edges(program, &source, pid, &mut edges);
                }
                edges
            })
        });
        for bypass in [true, false] {
            let name = format!("depgen_bypass_{}{shape}", if bypass { "on" } else { "off" });
            group.bench_function(name, |b| {
                b.iter(|| depgen::generate(program, &pre, &du, DepGenOptions { bypass }))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
