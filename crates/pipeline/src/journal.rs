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
//! On disk the journal is one file per record, `NNNN-KKKK.json` (unit index,
//! unit key), each sealed exactly like a cache entry ([`cache::seal`]: the
//! checksum covers the bytes written) and written with the same temp-file +
//! rename dance; a torn or rotten record simply fails to verify and its unit
//! is recomputed. Records are keyed by the unit's cache key, so
//! editing a source file or changing analysis options invalidates its
//! record naturally.

use crate::cache;
use sga_utils::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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
    fn as_str(self) -> &'static str {
        match self {
            Failure::Frontend => "frontend",
            Failure::Panic => "panic",
        }
    }

    fn from_str(s: &str) -> Option<Failure> {
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
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) a journal rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
        })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, index: usize, key: u64) -> PathBuf {
        self.dir.join(format!("{index:04}-{key:016x}.json"))
    }

    /// Commits one record: checksummed envelope, atomic write.
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
        let path = self.path_of(rec.index, rec.key);
        cache::write_atomic(&path, cache::seal(&payload).as_bytes())
    }

    /// Loads every decodable record, keyed by unit index. Damaged records
    /// (torn writes, bit rot, stale schema) are skipped — their units are
    /// simply recomputed — and duplicate indices keep the lexicographically
    /// last file, deterministically.
    pub fn load(&self) -> BTreeMap<usize, JournalRecord> {
        let mut records = BTreeMap::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return records;
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Some(rec) = cache::unseal(&text).as_ref().and_then(decode) {
                records.insert(rec.index, rec);
            }
        }
        records
    }

    /// Removes every record (and stranded temp file), keeping the
    /// directory. Called when a run starts fresh and when it completes —
    /// the journal only ever holds the *current* run's progress.
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let path = entry.path();
            if path.is_file() {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
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

    #[test]
    fn damaged_records_are_skipped_not_fatal() {
        let journal = Journal::open(&temp_dir("journal-damage")).unwrap();
        journal.record(&sample_record(0, None)).unwrap();
        journal.record(&sample_record(1, None)).unwrap();
        // Tear record 1 in half, leave a stranded temp file, and drop in
        // unrelated garbage; only record 0 should survive.
        let torn = journal.path_of(1, 0xABCE);
        let text = std::fs::read_to_string(&torn).unwrap();
        std::fs::write(&torn, &text[..text.len() / 2]).unwrap();
        std::fs::write(journal.dir().join("0003-beef.json.tmp"), b"torn").unwrap();
        std::fs::write(journal.dir().join("noise.json"), b"{}").unwrap();
        let loaded = journal.load();
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains_key(&0));
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
        let path = journal.path_of(0, 7);
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
