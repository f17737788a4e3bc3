//! Write-ahead unit journal: the durability half of crash recovery.
//!
//! As each unit finishes — analyzed, degraded, invalid, or crashed — the
//! driver appends one record to `journal/` under the cache root *before*
//! the unit's cache store. A rerun with
//! `--resume` replays those records: journaled units return their recorded
//! report object verbatim (no recompute, no cache lookup), and only the
//! units the crash cut short are analyzed. Because the record carries the
//! rendered per-unit JSON, a resumed report is byte-identical to an
//! uninterrupted run's.
//!
//! The write-ahead ordering is load-bearing: journaling *before* storing
//! means a crash can never leave a unit cached but unjournaled — which
//! would flip that unit's recorded `"cache": "miss"` into a `"hit"` on
//! resume and break byte-identity.
//!
//! On disk the journal is a [`SealedDir`] of one record per unit, named by
//! the unit index alone (`NNNN`), so recording a unit again replaces its
//! record; a torn or rotten record simply fails to verify and its unit is
//! recomputed. Each record carries the unit's cache key, cross-checked on
//! replay, so editing a source file or changing analysis options
//! invalidates its record naturally.

use crate::store::SealedDir;
use sga_utils::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Journal record schema version (inside the envelope payload).
pub const JOURNAL_FORMAT: u32 = 2;

/// How a journaled unit failed, when it did — preserved so a resumed
/// `--fail-fast` run reports the same error class as the original.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The frontend rejected the unit.
    Frontend,
    /// The unit's worker panicked.
    Panic,
}

impl Failure {
    /// How a record (or a worker response) spells the failure.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Failure::Frontend => "frontend",
            Failure::Panic => "panic",
        }
    }

    /// Reads what [`Failure::as_str`] wrote.
    pub(crate) fn from_str(s: &str) -> Option<Failure> {
        match s {
            "frontend" => Some(Failure::Frontend),
            "panic" => Some(Failure::Panic),
            _ => None,
        }
    }
}

/// One committed unit outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    /// The unit's index in the project's deterministic order.
    pub index: usize,
    /// The unit's display name (cross-checked on replay).
    pub name: String,
    /// The unit's cache key (source × options × format — cross-checked on
    /// replay, so stale records never resurrect).
    pub key: u64,
    /// How the unit failed, if it did.
    pub failure: Option<Failure>,
    /// The rendered per-unit report object, replayed verbatim.
    pub unit: Json,
}

/// An open journal directory.
pub struct Journal {
    dir: SealedDir,
}

/// The record name of unit `index`.
fn name_of(index: usize) -> String {
    format!("{index:04}")
}

impl Journal {
    /// Opens (creating if needed) a journal rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Journal> {
        Ok(Journal {
            dir: SealedDir::open(dir)?,
        })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        self.dir.dir()
    }

    /// Commits one record, replacing any earlier record of its unit index.
    pub fn record(&self, rec: &JournalRecord) -> std::io::Result<()> {
        let mut payload = Json::obj()
            .with("schema", JOURNAL_FORMAT)
            .with("index", rec.index)
            .with("name", rec.name.as_str())
            .with("key", format!("{:016x}", rec.key))
            .with("unit", rec.unit.clone());
        if let Some(f) = rec.failure {
            payload.set("failure", f.as_str());
        }
        self.dir.put(&name_of(rec.index), &payload)
    }

    /// Loads every decodable record filed under its own unit index, keyed
    /// by that index. Damaged records (torn writes, bit rot, stale schema)
    /// and strays are skipped — their units are simply recomputed.
    pub fn load(&self) -> BTreeMap<usize, JournalRecord> {
        self.dir
            .scan()
            .into_iter()
            .filter_map(|(name, payload)| {
                decode(&payload?).filter(|rec| name == name_of(rec.index))
            })
            .map(|rec| (rec.index, rec))
            .collect()
    }

    /// Removes every record (and stranded temp file), keeping the
    /// directory. Called when a run starts fresh and when it completes —
    /// the journal only ever holds the *current* run's progress.
    pub fn clear(&self) -> std::io::Result<()> {
        self.dir.clear()
    }
}

fn decode(payload: &Json) -> Option<JournalRecord> {
    if payload.get("schema")?.as_u64()? != u64::from(JOURNAL_FORMAT) {
        return None;
    }
    let failure = match payload.get("failure") {
        Some(f) => Some(Failure::from_str(f.as_str()?)?),
        None => None,
    };
    Some(JournalRecord {
        index: payload.get("index")?.as_u64()? as usize,
        name: payload.get("name")?.as_str()?.to_string(),
        key: u64::from_str_radix(payload.get("key")?.as_str()?, 16).ok()?,
        failure,
        unit: payload.get("unit")?.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Found;
    use crate::testfix::{every_damage, sample_analysis, temp_dir};

    fn sample_record(index: usize, failure: Option<Failure>) -> JournalRecord {
        JournalRecord {
            index,
            name: format!("unit{index:03}"),
            key: 0xABCD + index as u64,
            failure,
            unit: Json::obj()
                .with("name", format!("unit{index:03}"))
                .with("outcome", if failure.is_some() { "crashed" } else { "ok" })
                .with("diagnostics", Vec::<Json>::new()),
        }
    }

    #[test]
    fn record_load_roundtrip() {
        let journal = Journal::open(&temp_dir("journal-roundtrip")).unwrap();
        let recs = [
            sample_record(0, None),
            sample_record(2, Some(Failure::Panic)),
            sample_record(1, Some(Failure::Frontend)),
        ];
        for r in &recs {
            journal.record(r).unwrap();
        }
        let loaded = journal.load();
        assert_eq!(loaded.len(), 3);
        for r in &recs {
            assert_eq!(loaded.get(&r.index), Some(r));
        }
    }

    /// A unit journaled again under a new key (an edited unit in an
    /// interrupted resumed run) is replaced, whatever the two keys' order.
    #[test]
    fn rerecording_an_index_replaces_its_record() {
        let journal = Journal::open(&temp_dir("journal-rerecord")).unwrap();
        for key in [0xF, 0x1] {
            journal
                .record(&JournalRecord {
                    key,
                    ..sample_record(0, None)
                })
                .unwrap();
        }
        let loaded = journal.load();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[&0].key, 0x1);
    }

    #[test]
    fn damaged_records_are_skipped_not_fatal() {
        let journal = Journal::open(&temp_dir("journal-damage")).unwrap();
        journal.record(&sample_record(0, None)).unwrap();
        journal.record(&sample_record(1, None)).unwrap();
        // Tear record 1 in half, reseal record 4 under a stale schema, leave
        // a stranded temp file, drop in unrelated garbage, and file a copy
        // of record 0 under another name; only record 0 should survive.
        journal.record(&sample_record(4, None)).unwrap();
        let Found::Payload(mut stale) = journal.dir.get(&name_of(4)) else {
            panic!("record 4 verifies");
        };
        stale.set("schema", JOURNAL_FORMAT - 1);
        journal.dir.put(&name_of(4), &stale).unwrap();
        let torn = journal.dir.path_of(&name_of(1));
        let text = std::fs::read_to_string(&torn).unwrap();
        std::fs::write(&torn, &text[..text.len() / 2]).unwrap();
        std::fs::write(journal.dir().join("0003.json.tmp"), b"torn").unwrap();
        std::fs::write(journal.dir().join("noise.json"), b"{}").unwrap();
        let copy = journal.dir().join("0002.json");
        std::fs::copy(journal.dir.path_of(&name_of(0)), copy).unwrap();
        let loaded = journal.load();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[&0], sample_record(0, None));
    }

    /// Every torn write and every single-byte change of a record costs that
    /// record — its unit is recomputed — and nothing else.
    #[test]
    fn every_damage_to_a_record_skips_it() {
        let journal = Journal::open(&temp_dir("journal-every-damage")).unwrap();
        let rec = JournalRecord {
            index: 0,
            name: "u".to_string(),
            key: 7,
            failure: None,
            unit: crate::render_analyzed(
                "u",
                7,
                crate::CacheStatus::Miss,
                &sample_analysis(),
                None,
            ),
        };
        journal.record(&rec).unwrap();
        assert_eq!(journal.load().get(&0), Some(&rec));
        let path = journal.dir.path_of(&name_of(0));
        let intact = std::fs::read(&path).unwrap();
        for (what, bytes) in every_damage(&intact) {
            std::fs::write(&path, bytes).unwrap();
            assert!(journal.load().is_empty(), "{what}");
        }
    }

    #[test]
    fn clear_empties_the_journal() {
        let journal = Journal::open(&temp_dir("journal-clear")).unwrap();
        journal.record(&sample_record(0, None)).unwrap();
        journal.record(&sample_record(1, None)).unwrap();
        assert_eq!(journal.load().len(), 2);
        journal.clear().unwrap();
        assert!(journal.load().is_empty());
        assert!(journal.dir().is_dir());
    }
}
