//! **Ablation C** — performance tracks sparsity, not program size (§6.3).
//!
//! "The analysis performance is more dependent on the sparsity than the
//! program size … average D̂(c) size of emacs-22.1 is 30 times bigger than
//! the one of ghostscript-9.00." This ablation fixes LOC and sweeps the
//! global-variable density (the interprocedural-flow driver) and the call
//! cycle size, reporting avg |D̂|/|Û| against fixpoint cost.
//!
//! ```sh
//! cargo run --release -p sga-bench --bin ablation_sparsity
//! ```

use sga::analysis::interval::{analyze, Engine};
use sga::cgen::GenConfig;
use sga::utils::stats::Stage;

fn main() {
    println!(
        "{:>8} {:>7} {:>7} | {:>6} {:>6} {:>9} {:>10} {:>9}",
        "globals", "ptrdens", "maxSCC", "D̂(c)", "Û(c)", "depEdges", "fixEvals", "fix(ms)"
    );
    let base = GenConfig::sized(0x5BA125E, 2);
    for (globals, ptr_density, max_scc) in [
        // Sweep 1: global density at fixed pointer density and SCC.
        (6, 0.20, 2),
        (20, 0.20, 2),
        (60, 0.20, 2),
        // Sweep 2: call-cycle size at fixed density (the emacs effect).
        (60, 0.20, 12),
        (60, 0.20, 30),
        (60, 0.20, 60),
    ] {
        let cfg = GenConfig {
            globals,
            global_ptrs: (globals / 6).max(2),
            ptr_density,
            max_scc,
            ..base.clone()
        };
        let src = sga::cgen::generate(&cfg);
        let program = sga::frontend::parse(&src).expect("generated source parses");
        let r = analyze(&program, Engine::Sparse);
        println!(
            "{:>8} {:>7.2} {:>7} | {:>6.1} {:>6.1} {:>9} {:>10} {:>9.0}",
            globals,
            ptr_density,
            max_scc,
            r.stats.avg_defs,
            r.stats.avg_uses,
            r.stats.dep_edges,
            r.stats.iterations,
            r.stats.times.get(Stage::Fix).as_secs_f64() * 1000.0,
        );
    }
    println!("\nHigher global/pointer density ⇒ larger D̂/Û ⇒ slower fixpoint at equal LOC (§6.3).");
}
