//! **Ablation B** — the §5 bypass optimization on/off.
//!
//! "Even when x is not used inside g, value of x is propagated to h only
//! after it is first propagated to g … This optimization makes the analysis
//! more sparse, leading to a significant speed up." This ablation builds
//! deep call chains with pass-through middle procedures and measures edge
//! counts, fixpoint evaluations, and times both ways — plus a result-
//! equality check (the optimization must be precision-neutral).
//!
//! ```sh
//! cargo run --release -p sga-bench --bin ablation_bypass
//! ```

use sga::analysis::depgen::DepGenOptions;
use sga::analysis::interval::{analyze_with, AnalyzeOptions, Engine};
use sga::domains::Lattice;
use sga::utils::stats::Stage;
use std::fmt::Write as _;

/// Builds a depth-`n` call chain where only the leaf touches the globals.
fn chain_program(depth: usize, globals: usize) -> String {
    let mut src = String::new();
    for g in 0..globals {
        let _ = writeln!(src, "int g{g} = {g};");
    }
    // Leaf uses & defines every global.
    let _ = writeln!(src, "int f0(int x) {{");
    for g in 0..globals {
        let _ = writeln!(src, "  g{g} = g{g} + 1;");
    }
    let _ = writeln!(src, "  return x; }}");
    // Middle procedures neither use nor define globals.
    for i in 1..depth {
        let _ = writeln!(
            src,
            "int f{i}(int x) {{ int t = x + 1; return f{}(t); }}",
            i - 1
        );
    }
    let _ = writeln!(
        src,
        "int main() {{ int r = f{}(0); int s = g0; return r + s; }}",
        depth - 1
    );
    src
}

fn main() {
    println!(
        "{:>6} {:>8} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>7}",
        "depth",
        "globals",
        "edges_off",
        "evals_off",
        "fix_off",
        "edges_on",
        "evals_on",
        "fix_on",
        "equal?"
    );
    for (depth, globals) in [(10, 10), (20, 20), (40, 40), (60, 60)] {
        let src = chain_program(depth, globals);
        let program = sga::frontend::parse(&src).expect("chain program parses");
        let off = analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                depgen: DepGenOptions { bypass: false },
                ..Default::default()
            },
        );
        let on = analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                depgen: DepGenOptions { bypass: true },
                ..Default::default()
            },
        );
        // Precision neutrality.
        let mut equal = true;
        for (cp, st) in &on.values {
            for (loc, v) in st.iter() {
                if !v.is_bottom() && *v != off.value_at(*cp, loc) {
                    equal = false;
                }
            }
        }
        println!(
            "{:>6} {:>8} | {:>10} {:>10} {:>9.0}ms | {:>10} {:>10} {:>9.0}ms | {:>7}",
            depth,
            globals,
            off.stats.dep_edges,
            off.stats.iterations,
            off.stats.times.get(Stage::Fix).as_secs_f64() * 1000.0,
            on.stats.dep_edges,
            on.stats.iterations,
            on.stats.times.get(Stage::Fix).as_secs_f64() * 1000.0,
            if equal { "yes" } else { "NO" },
        );
    }
    println!("\nedges/evals with the optimization off vs on; results must stay equal.");
}
