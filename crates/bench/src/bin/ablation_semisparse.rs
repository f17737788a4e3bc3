//! **Ablation D** — the semi-sparse instance (§3.2).
//!
//! The paper shows Hardekopf & Lin's *semi-sparse* analysis (POPL 2009) is
//! a restricted instance of the framework: a coarser pre-analysis that
//! gives non-top-level (address-taken) variables ⊤ points-to information,
//! so only top-level variables are treated sparsely. This ablation runs
//! both regimes on chains of memory-resident pointers and compares
//! dependency volume and fixpoint cost — the price of the coarser
//! instance; the coarse results must cover the precise ones (both are safe
//! approximations).
//!
//! ```sh
//! cargo run --release -p sga-bench --bin ablation_semisparse
//! ```

use sga::analysis::interval::{analyze_with, AnalyzeOptions, Engine};
use sga::domains::Lattice;
use sga::utils::stats::Stage;
use std::fmt::Write as _;

/// A family where the two regimes genuinely differ: pointers stored *in
/// memory* (each `p_i` is address-taken through `q_i`). Semi-sparse treats
/// only top-level variables sparsely — the value of an address-taken
/// pointer is ⊤-targets, so every `**q_i` store may touch every
/// address-taken location; the framework's precise pre-analysis keeps each
/// chain singleton (`**q_i ↦ {a_i}`).
fn pointer_family(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "int a{i} = {i}; int *p{i}; int **q{i};");
    }
    let _ = writeln!(src, "int main() {{");
    for i in 0..n {
        let _ = writeln!(src, "  p{i} = &a{i};");
        let _ = writeln!(src, "  q{i} = &p{i};");
    }
    let _ = writeln!(src, "  int round = 0;");
    let _ = writeln!(src, "  while (round < 10) {{");
    for i in 0..n {
        let _ = writeln!(src, "    **q{i} = **q{i} + 1;");
    }
    let _ = writeln!(src, "    round = round + 1;");
    let _ = writeln!(src, "  }}");
    let _ = writeln!(src, "  int sum = 0;");
    for i in 0..n {
        let _ = writeln!(src, "  sum = sum + a{i};");
    }
    let _ = writeln!(src, "  return sum;");
    let _ = writeln!(src, "}}");
    src
}

fn main() {
    println!(
        "{:>8} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9} | {:>7}",
        "pointers", "edges_pre", "evals_pre", "fix_pre", "edges_ss", "evals_ss", "fix_ss", "sound?"
    );
    for n in [10usize, 30, 60, 100] {
        let src = pointer_family(n);
        let program = sga::frontend::parse(&src).expect("family parses");

        let precise = analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                semi_sparse: false,
                ..Default::default()
            },
        );
        let semi = analyze_with(
            &program,
            Engine::Sparse,
            AnalyzeOptions {
                semi_sparse: true,
                ..Default::default()
            },
        );

        // Both are safe approximations: the coarse run must cover the
        // precise one (it may be less precise, never incomparable-below).
        let mut sound = true;
        for (cp, st) in &precise.values {
            if matches!(program.cmd(*cp), sga::ir::Cmd::Call { .. }) {
                continue;
            }
            for (l, v) in st.iter() {
                if !v.is_bottom() && !v.le(&semi.value_at(*cp, l)) {
                    sound = false;
                }
            }
        }
        println!(
            "{:>8} | {:>10} {:>10} {:>8.0}ms | {:>10} {:>10} {:>8.0}ms | {:>7}",
            n,
            precise.stats.dep_edges,
            precise.stats.iterations,
            precise.stats.times.get(Stage::Fix).as_secs_f64() * 1000.0,
            semi.stats.dep_edges,
            semi.stats.iterations,
            semi.stats.times.get(Stage::Fix).as_secs_f64() * 1000.0,
            if sound { "yes" } else { "NO" },
        );
    }
    println!(
        "\nSemi-sparse (the Hardekopf-&-Lin instance, §3.2): conflating\n\
         address-taken variables multiplies dependency edges and fixpoint\n\
         work; the framework's precise pre-analysis keeps stores singleton."
    );
}
