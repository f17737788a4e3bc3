//! Sparse vs. dense, head to head: generate a synthetic program, run all
//! three interval analyzers, and print the paper's Table-2-style row —
//! times, state sizes, dependency counts, and the precision check.
//!
//! ```sh
//! cargo run --release -p sga --example sparse_vs_dense [kloc]
//! ```

use sga::analysis::interval::{analyze, Engine};
use sga::cgen::{generate, GenConfig};
use sga::domains::Lattice;
use sga::frontend;
use sga::utils::stats::Stage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kloc: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let config = GenConfig::sized(2026, kloc);
    let src = generate(&config);
    let program = frontend::parse(&src)?;
    println!(
        "generated ~{} LOC ({} procedures, {} control points)\n",
        src.lines().count(),
        program.procs.len(),
        program.num_points()
    );

    let mut results = Vec::new();
    for engine in [Engine::Vanilla, Engine::Base, Engine::Sparse] {
        // The point of the paper: the dense global analysis does not scale.
        // Don't make the demo wait for it beyond a few KLOC.
        if engine == Engine::Vanilla && kloc > 3 {
            println!(
                "{:8}  skipped (dense global analysis beyond 3 KLOC takes minutes–hours)",
                "Vanilla"
            );
            continue;
        }
        let r = analyze(&program, engine);
        let bindings: usize = r.values.values().map(|s| s.len()).sum();
        println!(
            "{:8}  total {:>9.3?}  fix {:>9.3?}  evaluations {:>8}  state bindings {:>9}",
            format!("{engine:?}"),
            r.stats.total_time,
            r.stats.times.get(Stage::Fix),
            r.stats.iterations,
            bindings,
        );
        if engine == Engine::Sparse {
            println!(
                "{:8}  dep-gen {:?} ({} edges, {} before bypass), avg |D̂|={:.1} |Û|={:.1}",
                "",
                r.stats.dep_phase(),
                r.stats.dep_edges,
                r.stats.dep_edges_raw,
                r.stats.avg_defs,
                r.stats.avg_uses,
            );
        }
        results.push((engine, r));
    }

    // Precision: sparse must match base on every location it binds
    // (Lemma 2: same result on D̂(c)).
    let base = &results[results.len() - 2].1;
    let sparse = &results[results.len() - 1].1;
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for (cp, st) in &sparse.values {
        // Call nodes hold edge-owned bindings (parameters, callee relays)
        // that dense engines keep on ICFG edges; skip them.
        if matches!(program.cmd(*cp), sga::ir::Cmd::Call { .. }) {
            continue;
        }
        for (loc, v) in st.iter() {
            if v.is_bottom() {
                continue;
            }
            checked += 1;
            if *v != base.value_at(*cp, loc) {
                mismatches += 1;
            }
        }
    }
    println!(
        "\nprecision: {checked} sparse bindings compared against base, {mismatches} mismatches"
    );
    Ok(())
}
