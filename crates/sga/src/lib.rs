//! **SGA** — sparse global analyses for C-like languages.
//!
//! A from-scratch Rust implementation of the framework of Oh, Heo, Lee,
//! Lee & Yi, *Design and Implementation of Sparse Global Analyses for
//! C-like Languages* (PLDI 2012): precision-preserving sparse abstract
//! interpretation, with interval and packed-octagon instances, a C-subset
//! frontend, and the supporting substrates (persistent maps, BDDs, a
//! synthetic benchmark generator).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`frontend`] (`sga-cfront`) — parse C source to the IR;
//! * [`ir`] (`sga-ir`) — the control-flow-graph program representation;
//! * [`domains`] (`sga-domains`) — intervals, points-to sets, octagons;
//! * [`analysis`] (`sga-core`) — the three interval analyzers
//!   (`vanilla`/`base`/`sparse`), the octagon analyzers, and the
//!   buffer-overrun checker;
//! * [`diag`] (`sga-diag`) — structured diagnostics, SARIF 2.1.0 emission,
//!   and run-over-run baseline diffing;
//! * [`bdd`] (`sga-bdd`) — the BDD package and dependency-relation stores;
//! * [`cgen`] (`sga-cgen`) — the deterministic benchmark-program generator;
//! * [`pipeline`] (`sga-pipeline`) — the parallel, cache-aware batch
//!   analysis driver behind `sga analyze`;
//! * [`serve`] (`sga-serve`) — the incremental analysis daemon behind
//!   `sga serve` / `sga watch`;
//! * [`utils`] (`sga-utils`) — support data structures.
//!
//! # Quickstart
//!
//! ```
//! use sga::analysis::interval::{analyze, Engine};
//!
//! let program = sga::frontend::parse(
//!     "int main() { int x = 0; while (x < 10) x = x + 1; return x; }",
//! )?;
//! let result = analyze(&program, Engine::Sparse);
//! let pre = sga::analysis::preanalysis::run(&program);
//! let alarms = sga::analysis::checker::check_all(&program, &result, &pre);
//! assert!(alarms.is_empty());
//! # Ok::<(), sga::frontend::FrontError>(())
//! ```

pub use sga_bdd as bdd;
pub use sga_cfront as frontend;
pub use sga_cgen as cgen;
pub use sga_core as analysis;
pub use sga_diag as diag;
pub use sga_domains as domains;
pub use sga_ir as ir;
pub use sga_pipeline as pipeline;
pub use sga_serve as serve;
pub use sga_utils as utils;
