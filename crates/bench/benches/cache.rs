//! Criterion micro-benchmarks of the on-disk store, per entry: what one
//! cache hit and one cache store cost for the real `UnitAnalysis` of one
//! generated 1-kLOC flat (`max_scc = 2`) unit — its diagnostics, which is
//! where an entry's bytes are. `cache/load_hit` is `Cache::load` end to end
//! (read, checksum over the bytes, payload parse, decode); `cache/store` is
//! `Cache::store` (encode, seal, temp file + rename). The repository
//! benchmark's `warm_rerun` is thirteen of the former a pass; this makes
//! the per-entry number reproducible without the harness.

use criterion::{criterion_group, criterion_main, Criterion};
use sga::cgen::GenConfig;
use sga::pipeline::cache::LoadOutcome;
use sga::pipeline::{analyze_units, unit_cache_key, Cache, PipelineOptions, UnitInput};

fn bench_cache(c: &mut Criterion) {
    let options = PipelineOptions::default();
    let unit = UnitInput {
        name: "unit.c".to_string(),
        source: sga::cgen::generate(&GenConfig::sized(0xCAC4E, 1)),
    };
    let key = unit_cache_key(&options, &unit.source);
    let analysis = analyze_units(std::slice::from_ref(&unit), &options, None)
        .pop()
        .and_then(|outcome| outcome.analysis)
        .expect("the generated unit analyses");

    let dir = std::env::temp_dir().join(format!("sga-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&dir).expect("open scratch cache");
    cache.store(&unit.name, key, &analysis).expect("store");
    let bytes = std::fs::metadata(cache.path_for(&unit.name, key)).map_or(0, |m| m.len());
    println!(
        "cache entry: {} diagnostics, {bytes} bytes",
        analysis.diags.len()
    );

    let mut group = c.benchmark_group("cache");
    group.sample_size(30);
    group.bench_function("load_hit", |b| {
        b.iter(|| match cache.load(&unit.name, key) {
            LoadOutcome::Hit(found) => found,
            other => panic!("expected a hit, got {other:?}"),
        })
    });
    group.bench_function("store", |b| {
        b.iter(|| cache.store(&unit.name, key, &analysis).expect("store"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
