//! `RoundJournal`: one sealed record per unit, written and never read.
//!
//! The daemon keeps no journal — its durable state is the corpus directory
//! and the content-keyed cache (see [`crate::engine`]). This type is an
//! adapter kept for the benchmark harness, which times one record write
//! (`serve.journal.record_ms`); no product code constructs it (DESIGN.md
//! §3, "Frozen for the harness"). A record is one [`SealedDir`] file named
//! by the unit name's hash, holding the unit's rendered object, its
//! diagnostics and its interface in the cache-entry codec.

use sga_core::interface::UnitInterface;
use sga_diag::Diagnostic;
use sga_pipeline::cache;
use sga_pipeline::store::SealedDir;
use sga_utils::{fxhash, Json};
use std::path::Path;

/// An open record directory.
pub struct RoundJournal {
    dir: SealedDir,
}

impl RoundJournal {
    /// Opens (creating if needed) a record directory rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<RoundJournal> {
        Ok(RoundJournal {
            dir: SealedDir::open(dir)?,
        })
    }

    /// Writes one unit's record: checksummed envelope, atomic write. Unit
    /// names are client-supplied file names, so the file is named by the
    /// name's hash, never by the name.
    pub fn record(
        &self,
        name: &str,
        key: u64,
        json: &Json,
        diags: &[Diagnostic],
        interface: &UnitInterface,
    ) -> std::io::Result<()> {
        let payload = Json::obj()
            .with("name", name)
            .with("key", format!("{key:016x}"))
            .with("unit", json.clone())
            .with(
                "diagnostics",
                diags.iter().map(Diagnostic::to_json).collect::<Vec<_>>(),
            )
            .with("interface", cache::encode_interface(interface));
        self.dir
            .put(&format!("u-{:016x}", fxhash::hash_one(&name)), &payload)
    }
}
