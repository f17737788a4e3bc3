//! Shared fixtures for the pipeline crate's unit tests.
//!
//! The cache and journal tests all start the same way — a scratch
//! directory, an opened cache, a representative analysis artifact, often
//! already stored — so the boilerplate lives here once instead of being
//! repeated (with slightly diverging `unwrap()` chains) per test module.

use crate::cache::Cache;
use crate::unit::UnitAnalysis;
use sga_core::interface::{ImportRef, ProcInterface, UnitInterface};
use sga_diag::{DiagKind, Diagnostic, DischargeMethod, Evidence, Status};
use sga_ir::{Cp, NodeId, ProcId};
use sga_utils::Idx;
use std::path::PathBuf;

/// A representative per-unit artifact with every field populated — enough
/// structure that encode/decode bugs can't hide behind empty collections.
pub(crate) fn sample_analysis() -> UnitAnalysis {
    UnitAnalysis {
        procs: 1,
        interface: UnitInterface {
            exports: vec![ProcInterface {
                name: "main".into(),
                arity: 0,
                hash: 0x0123_4567_89AB_CDEF,
            }],
            imports: vec![ImportRef {
                symbol: "ext_helper".into(),
                arity: 2,
                dependents: vec!["main".into()],
            }],
        },
        diags: vec![
            Diagnostic {
                fingerprint: 0x1122_3344_5566_7788,
                ..Diagnostic::new(
                    DiagKind::BufferOverrun,
                    Cp::new(ProcId::new(0), NodeId::new(3)),
                    3,
                    "main",
                    None,
                    "buf",
                    false,
                    Evidence::Overrun {
                        offset: "[0,+oo]".into(),
                        size: "[4,4]".into(),
                        block: "Alloc@main:n1".into(),
                        alloc: Some((0, 1)),
                    },
                )
            },
            Diagnostic {
                fingerprint: 0x99AA_BBCC_DDEE_FF00,
                status: Status::Discharged {
                    method: DischargeMethod::PathInfeasible,
                    pack: "then@3(n > 0) & else@6(i <= 0)".into(),
                    reason: "guards conflict: i in [1,+oo] refines to empty".into(),
                },
                ..Diagnostic::new(
                    DiagKind::DivByZero,
                    Cp::new(ProcId::new(0), NodeId::new(5)),
                    7,
                    "main",
                    None,
                    "n - m",
                    false,
                    Evidence::DivByZero {
                        divisor: "[-oo,+oo]".into(),
                        nth: 0,
                    },
                )
            },
        ],
        triage_degraded: false,
        fingerprint: 0xDEAD_BEEF_0BAD_CAFE,
        iterations: 42,
        num_locs: 9,
        dep_edges_raw: 12,
        dep_edges: 10,
        degraded: false,
    }
}

/// Every damaged copy of `intact` the failure model names, each with a
/// description for the assertion message: every proper prefix (a torn
/// write), and at every offset the byte changed by `^0x01`, `^0x40` and
/// `^0x80` — the last makes the text invalid UTF-8. `4 × len` copies.
pub(crate) fn every_damage(intact: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..intact.len()).map(|n| (format!("cut to {n} bytes"), intact[..n].to_vec()));
    let flips = (0..intact.len()).flat_map(move |at| {
        [0x01u8, 0x40, 0x80].into_iter().map(move |mask| {
            let mut bytes = intact.to_vec();
            bytes[at] ^= mask;
            (format!("byte {at} ^ {mask:#04x}"), bytes)
        })
    });
    cuts.chain(flips)
}

/// [`sample_analysis`] as the format-7 binary stored it: today's shape
/// under schema 7, whose diagnostics came from the checkers before they
/// read the engine's inputs.
pub(crate) fn previous_format_entry() -> String {
    let mut v7 = crate::cache::encode(&sample_analysis());
    v7.set("schema", 7u32);
    crate::store::seal(&v7)
}

/// A fresh scratch directory under the system temp dir (wiped if a previous
/// run left one behind). `tag` must be unique per test within this crate.
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sga-pipeline-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An opened cache rooted in a fresh scratch directory.
pub(crate) fn temp_cache(tag: &str) -> Cache {
    Cache::open(&temp_dir(tag)).expect("open temp cache")
}

/// The common open-then-store prologue of the corruption tests: a cache
/// holding [`sample_analysis`] for `unit` under `key`.
pub(crate) fn stored_cache(tag: &str, unit: &str, key: u64) -> (Cache, UnitAnalysis) {
    let cache = temp_cache(tag);
    let analysis = sample_analysis();
    cache.store(unit, key, &analysis).expect("store sample");
    (cache, analysis)
}
