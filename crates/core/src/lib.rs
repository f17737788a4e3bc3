//! The sparse global analysis framework of Oh, Heo, Lee, Lee & Yi
//! (*Design and Implementation of Sparse Global Analyses for C-like
//! Languages*, PLDI 2012).
//!
//! The crate provides, mirroring the paper's structure:
//!
//! * [`semantics`] — the non-relational abstract semantics of §3.1
//!   (interval × points-to × array-block values) with the `Ê`/`Û` evaluation
//!   functions of §3.2;
//! * [`preanalysis`] — the flow-insensitive conservative pre-analysis that
//!   D̂/Û are derived from (§3.2);
//! * [`defuse`] — the safe approximations `D̂(c)`/`Û(c)` (Definition 5) plus
//!   the per-procedure access summaries of §5;
//! * [`icfg`] — the interprocedural CFG with call/return/bypass edges shared
//!   by the dense engines;
//! * [`dense`] — the baseline worklist engine: `vanilla` (global, whole
//!   states) and `base` (access-based localization \[38\]);
//! * [`depgen`] — data-dependency generation: per-procedure
//!   reaching-definitions over D̂/Û, interprocedural linking, and the bypass
//!   optimization of §5;
//! * [`sparse`] — the sparse engine: values propagate along data
//!   dependencies instead of control flow (§2.7);
//! * [`interval`] — the `Interval{vanilla,base,sparse}` analyzers of §6.1;
//! * [`octagon`] — the packed relational instance of §4 and the
//!   `Octagon{vanilla,base,sparse}` analyzers of §6.2;
//! * [`constprop`] — a third instance, constant propagation (the original
//!   sparse analysis per the related-work lineage), sparse and dense base
//!   from the same D̂/Û sets, dependencies and engines; it never widens, so
//!   [`validate`] holds its two fixpoints equal with `==` (Lemma 1);
//! * [`checker`] — the Sparrow-style buffer-overrun + null-deref client;
//! * [`pathcond`] — dominator trees, dominating `assume` guard chains and
//!   the sound guard-conjunction evaluation behind path-sensitive triage;
//! * [`stats`] — the per-phase measurements the tables report.
//!
//! # Quickstart
//!
//! ```
//! use sga_core::interval::{analyze, Engine};
//!
//! let program = sga_cfront::parse(
//!     "int main() { int x = 0; while (x < 10) x = x + 1; return x; }",
//! ).expect("parses");
//! let result = analyze(&program, Engine::Sparse);
//! // The return variable of main is bounded by the loop exit condition.
//! let main = program.main;
//! let ret = program.procs[main].ret_var;
//! let exit = program.procs[main].exit;
//! let v = result.value_at(sga_ir::Cp::new(main, exit), &sga_domains::AbsLoc::Var(ret));
//! assert_eq!(v.itv, sga_domains::Interval::constant(10));
//! ```

pub mod budget;
pub mod checker;
pub mod constprop;
pub mod defuse;
pub mod dense;
pub mod depgen;
pub mod depstore;
pub mod icfg;
pub mod interface;
pub mod interval;
pub mod octagon;
pub mod pathcond;
pub mod preanalysis;
pub mod semantics;
pub mod sparse;
pub mod stats;
pub mod triage;
pub mod validate;
pub mod widening;

#[cfg(test)]
mod examples_paper;
