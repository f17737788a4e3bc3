//! The daemon's round journal: crash-safe warm restart for `sga serve`.
//!
//! The batch pipeline's write-ahead journal makes *one run* resumable; a
//! daemon has no "run" to finish — it accumulates state round after round
//! until something kills it. The round journal makes that accumulated
//! state durable: after the initial analysis and after every edit round,
//! each (re-)analyzed unit's live state — its rendered report object, its
//! diagnostics, and its link interface — is committed to one file per
//! unit, keyed by the unit's full cache key (source × analysis options).
//!
//! `sga serve --resume` replays the journal at startup: a unit whose
//! on-disk source still hashes to its record's key is restored verbatim
//! (no re-analysis), and only units the crash caught mid-round — source
//! persisted, record not yet rewritten — are recomputed. Because the
//! record carries the *normalized* rendered object (the same bytes
//! [`crate::engine::Engine::report`] accumulates), a resumed daemon's
//! report is byte-identical to the report the killed daemon would have
//! produced, which is in turn byte-identical to a cold batch run of the
//! corpus directory's current state.
//!
//! On disk the journal is a [`SealedDir`] — the store the pipeline's cache
//! and journal use: the envelope checksummed over the bytes written, the
//! temp-file + rename write — holding one record per unit, with the
//! cache-entry interface codec ([`cache::encode_interface`]). A torn or
//! rotten record fails to decode and its unit is simply recomputed — a
//! SIGKILL at any byte offset costs work, never correctness.

use sga_core::interface::UnitInterface;
use sga_diag::Diagnostic;
use sga_pipeline::cache;
use sga_pipeline::store::SealedDir;
use sga_utils::{fxhash, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Round-journal record schema version (inside the envelope payload).
pub const ROUND_JOURNAL_FORMAT: u32 = 2;

/// One unit's journaled live state.
#[derive(Clone, Debug)]
pub struct SavedUnit {
    /// The unit's full cache key when the record was written; a record is
    /// only replayed when the current source still hashes to this key.
    pub key: u64,
    /// The normalized rendered per-unit report object.
    pub json: Json,
    /// The unit's diagnostics (what alarm diffs and totals are built from).
    pub diags: Vec<Diagnostic>,
    /// The unit's link boundary (what invalidation is built from).
    pub interface: UnitInterface,
}

/// An open round-journal directory.
pub struct RoundJournal {
    dir: SealedDir,
}

/// One record per unit, named by the unit name's hash — unit names are
/// client-supplied file names, so they never become path components.
fn name_of(unit: &str) -> String {
    format!("u-{:016x}", fxhash::hash_one(&unit))
}

impl RoundJournal {
    /// Opens (creating if needed) a round journal rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<RoundJournal> {
        Ok(RoundJournal {
            dir: SealedDir::open(dir)?,
        })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        self.dir.dir()
    }

    /// Commits one unit's state: checksummed envelope, atomic write. A
    /// failed write is reported but non-fatal to the caller by convention —
    /// like a failed cache store, it only costs the next restart a
    /// recompute.
    pub fn record(
        &self,
        name: &str,
        key: u64,
        json: &Json,
        diags: &[Diagnostic],
        interface: &UnitInterface,
    ) -> std::io::Result<()> {
        let payload = Json::obj()
            .with("schema", ROUND_JOURNAL_FORMAT)
            .with("name", name)
            .with("key", format!("{key:016x}"))
            .with("unit", json.clone())
            .with(
                "diagnostics",
                diags.iter().map(Diagnostic::to_json).collect::<Vec<_>>(),
            )
            .with("interface", cache::encode_interface(interface));
        self.dir.put(&name_of(name), &payload)
    }

    /// Loads every decodable record, keyed by unit name. Damaged records
    /// (torn writes, bit rot, stale schema) are skipped — their units are
    /// recomputed on resume.
    pub fn load(&self) -> BTreeMap<String, SavedUnit> {
        self.dir
            .scan()
            .into_iter()
            .filter_map(|(_, payload)| decode(&payload?))
            .collect()
    }

    /// Drops records for units no longer in the corpus (plus undecodable
    /// records and stranded temp files), so a shrunken corpus cannot
    /// resurrect deleted units.
    pub fn retain(&self, live: &dyn Fn(&str) -> bool) {
        for (file, payload) in self.dir.scan() {
            if payload
                .and_then(|p| decode(&p))
                .is_none_or(|(name, _)| !live(&name))
            {
                self.dir.remove(&file);
            }
        }
        let _ = self.dir.sweep_tmp();
    }

    /// Removes every record, keeping the directory — a fresh (non-resumed)
    /// start owns the journal, like a fresh batch run owns the pipeline's.
    pub fn clear(&self) -> std::io::Result<()> {
        self.dir.clear()
    }
}

fn decode(payload: &Json) -> Option<(String, SavedUnit)> {
    if payload.get("schema")?.as_u64()? != u64::from(ROUND_JOURNAL_FORMAT) {
        return None;
    }
    let name = payload.get("name")?.as_str()?.to_string();
    let diags = payload
        .get("diagnostics")?
        .as_arr()?
        .iter()
        .map(Diagnostic::from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((
        name,
        SavedUnit {
            key: u64::from_str_radix(payload.get("key")?.as_str()?, 16).ok()?,
            json: payload.get("unit")?.clone(),
            diags,
            interface: cache::decode_interface(payload.get("interface")?)?,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sga-roundj-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(name: &str, key: u64) -> (Json, Vec<Diagnostic>, UnitInterface) {
        let json = Json::obj()
            .with("name", name)
            .with("outcome", "ok")
            .with("source_hash", format!("{key:016x}"))
            .with("diagnostics", Vec::<Json>::new());
        (json, Vec::new(), UnitInterface::default())
    }

    #[test]
    fn record_load_roundtrip_keyed_by_name() {
        let j = RoundJournal::open(&temp_dir("roundtrip")).unwrap();
        for (name, key) in [("a.c", 0x11u64), ("b.c", 0x22)] {
            let (json, diags, iface) = sample(name, key);
            j.record(name, key, &json, &diags, &iface).unwrap();
        }
        let loaded = j.load();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded["a.c"].key, 0x11);
        assert_eq!(loaded["b.c"].key, 0x22);
        assert_eq!(
            loaded["a.c"].json.get("name").and_then(Json::as_str),
            Some("a.c")
        );
    }

    #[test]
    fn rerecording_a_unit_replaces_its_record() {
        let j = RoundJournal::open(&temp_dir("replace")).unwrap();
        let (json, diags, iface) = sample("a.c", 1);
        j.record("a.c", 1, &json, &diags, &iface).unwrap();
        let (json, diags, iface) = sample("a.c", 2);
        j.record("a.c", 2, &json, &diags, &iface).unwrap();
        let loaded = j.load();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["a.c"].key, 2);
    }

    #[test]
    fn damaged_records_are_skipped_and_retain_prunes() {
        let j = RoundJournal::open(&temp_dir("damage")).unwrap();
        for name in ["a.c", "b.c", "gone.c"] {
            let (json, diags, iface) = sample(name, 7);
            j.record(name, 7, &json, &diags, &iface).unwrap();
        }
        // Tear b.c's record in half and drop in noise.
        let torn = j.dir.path_of(&name_of("b.c"));
        let text = std::fs::read_to_string(&torn).unwrap();
        std::fs::write(&torn, &text[..text.len() / 2]).unwrap();
        std::fs::write(j.dir().join("stranded.json.tmp"), b"junk").unwrap();
        std::fs::write(j.dir().join("noise.json"), b"{}").unwrap();
        let loaded = j.load();
        assert_eq!(loaded.len(), 2, "torn record must be skipped");
        // Prune everything that isn't a live unit; damaged files go too.
        j.retain(&|name| name == "a.c");
        let after = j.load();
        assert_eq!(after.len(), 1);
        assert!(after.contains_key("a.c"));
        assert!(!j.dir().join("stranded.json.tmp").exists());
        assert!(!j.dir().join("noise.json").exists());
    }

    /// A stale schema under a valid envelope is skipped like damage.
    #[test]
    fn stale_schema_record_is_skipped() {
        use sga_pipeline::store::Found;
        let j = RoundJournal::open(&temp_dir("stale")).unwrap();
        let (json, diags, iface) = sample("a.c", 1);
        j.record("a.c", 1, &json, &diags, &iface).unwrap();
        let Found::Payload(mut stale) = j.dir.get(&name_of("a.c")) else {
            panic!("the record verifies");
        };
        stale.set("schema", ROUND_JOURNAL_FORMAT - 1);
        j.dir.put(&name_of("a.c"), &stale).unwrap();
        assert!(j.load().is_empty());
    }

    /// Every torn write and every single-byte change of the record of a
    /// really analysed unit — diagnostics and interface populated — costs
    /// that record and nothing else.
    #[test]
    fn every_damage_to_a_record_skips_it() {
        use sga_pipeline::{analyze_units, PipelineOptions, UnitInput};

        let unit = UnitInput {
            name: "a.c".to_string(),
            source: "int main() { int z = 0; return 7 / z; }".to_string(),
        };
        let outcome = analyze_units(&[unit], &PipelineOptions::default(), None)
            .pop()
            .expect("one unit in, one outcome out");
        let a = outcome.analysis.expect("the unit analyses");
        assert!(!a.diags.is_empty() && !a.interface.exports.is_empty());

        let j = RoundJournal::open(&temp_dir("every-damage")).unwrap();
        j.record("a.c", 7, &outcome.json, &a.diags, &a.interface)
            .unwrap();
        let saved = &j.load()["a.c"];
        assert_eq!(
            (&saved.json, &saved.diags, &saved.interface),
            (&outcome.json, &a.diags, &a.interface)
        );
        let path = j.dir.path_of(&name_of("a.c"));
        let intact = std::fs::read(&path).unwrap();
        for at in 0..intact.len() {
            std::fs::write(&path, &intact[..at]).unwrap();
            assert!(j.load().is_empty(), "cut to {at} bytes");
            for mask in [0x01u8, 0x40, 0x80] {
                let mut bytes = intact.clone();
                bytes[at] ^= mask;
                std::fs::write(&path, bytes).unwrap();
                assert!(j.load().is_empty(), "byte {at} ^ {mask:#04x}");
            }
        }
    }

    #[test]
    fn clear_empties_the_journal() {
        let j = RoundJournal::open(&temp_dir("clear")).unwrap();
        let (json, diags, iface) = sample("a.c", 1);
        j.record("a.c", 1, &json, &diags, &iface).unwrap();
        j.clear().unwrap();
        assert!(j.load().is_empty());
        assert!(j.dir().is_dir());
    }
}
