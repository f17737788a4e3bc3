//! One sealed directory: the only code that puts sealed records on disk and
//! reads them back. The cache and the batch journal are codecs over a
//! [`SealedDir`] — each decides what a record's payload holds and what its
//! name is — and this module decides
//! the rest: the envelope ([`seal`], [`unseal`]: a checksum over the
//! payload's bytes as written), atomic temp-file + rename writes, file
//! naming (`<dir>/<name>.json`, every byte outside `[A-Za-z0-9._-]` replaced
//! by `_`), telling a missing record from a damaged one, the name-ordered
//! scan, and a bounded `quarantine/` for damaged records.

use sga_utils::{fxhash, Json};
use std::path::{Path, PathBuf};

/// Quarantined records kept (newest first) after each quarantine. `sga
/// cache gc --keep N` prunes to another bound offline.
pub const DEFAULT_QUARANTINE_KEEP: usize = 16;

/// The envelope around a compact payload: `{"checksum":"` + 16 lowercase hex
/// digits + `","payload":` — 41 bytes — then the payload, then `}` and a
/// newline.
const HEAD: &str = "{\"checksum\":\"";
const MID: &str = "\",\"payload\":";
const TAIL: &str = "}\n";

/// Seals `payload` as the exact text to write: the fixed 41-byte head
/// carrying the fxhash of the payload's compact rendering, that rendering,
/// `}` and a newline — one valid JSON document. Every record on disk and
/// both directions of the worker pipe are this text and nothing else.
pub fn seal(payload: &Json) -> String {
    let body = payload.to_compact();
    format!("{HEAD}{:016x}{MID}{body}{TAIL}", checksum(&body))
}

/// What the envelope's hex digits say: the fxhash of the payload's bytes.
fn checksum(body: &str) -> u64 {
    fxhash::hash_one(&body)
}

/// Verifies a sealed text and returns its payload, or `None` on any damage.
/// The head and tail are matched literally and the checksum is compared
/// against the hash of the payload *bytes* before anything is parsed: a
/// truncation, a flipped bit, or a re-formatting that still parses to the
/// same tree is refused, and only the payload itself is ever parsed.
pub fn unseal(text: &str) -> Option<Json> {
    let rest = text.strip_prefix(HEAD)?;
    let (hex, rest) = (rest.get(..16)?, rest.get(16..)?);
    let body = rest.strip_prefix(MID)?.strip_suffix(TAIL)?;
    // Compared as text: exactly the sixteen lowercase digits `seal` wrote.
    if format!("{:016x}", checksum(body)) != hex {
        return None;
    }
    Json::parse(body).ok()
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename. The temp name is derived from the target name; only one
/// writer per name exists within a run, and cross-run collisions just race
/// to identical content.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// What [`SealedDir::get`] found under a name.
#[derive(Debug, PartialEq)]
pub enum Found {
    /// No record.
    Absent,
    /// A record that cannot be read or that the envelope refuses.
    Damaged,
    /// A verified payload.
    Payload(Json),
}

/// A directory of sealed records.
pub struct SealedDir {
    dir: PathBuf,
}

impl SealedDir {
    /// Opens (creating if needed) the directory `dir`.
    pub fn open(dir: &Path) -> std::io::Result<SealedDir> {
        std::fs::create_dir_all(dir)?;
        Ok(SealedDir::at(dir))
    }

    /// Names the directory `dir` without creating it: reads of a missing
    /// directory find nothing, and maintenance of one does nothing.
    pub fn at(dir: &Path) -> SealedDir {
        SealedDir {
            dir: dir.to_path_buf(),
        }
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where record `name` lives.
    pub fn path_of(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}.json"))
    }

    /// The `quarantine/` directory of damaged records (created on the first
    /// quarantine).
    pub fn quarantined(&self) -> SealedDir {
        SealedDir::at(&self.dir.join("quarantine"))
    }

    /// Seals `payload` and writes it atomically as record `name`, replacing
    /// any record of that name.
    pub fn put(&self, name: &str, payload: &Json) -> std::io::Result<()> {
        write_atomic(&self.path_of(name), seal(payload).as_bytes())
    }

    /// Reads and verifies record `name`.
    pub fn get(&self, name: &str) -> Found {
        match std::fs::read_to_string(self.path_of(name)) {
            Ok(text) => unseal(&text).map_or(Found::Damaged, Found::Payload),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Found::Absent,
            Err(_) => Found::Damaged,
        }
    }

    /// Every record in name order, its payload `None` when damaged. A
    /// directory that cannot be listed has none.
    pub fn scan(&self) -> Vec<(String, Option<Json>)> {
        let Ok(entries) = self.read_dir() else {
            return Vec::new();
        };
        let mut records: Vec<(String, Option<Json>)> = entries
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json") && p.is_file())
            .filter_map(|path| {
                let name = path.file_stem()?.to_str()?.to_string();
                let payload = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| unseal(&text));
                Some((name, payload))
            })
            .collect();
        records.sort_by(|a, b| a.0.cmp(&b.0));
        records
    }

    /// Removes record `name`, if there is one.
    pub fn remove(&self, name: &str) {
        let _ = std::fs::remove_file(self.path_of(name));
    }

    /// Sets record `name`'s modification time to now, so [`Self::keep_newest`]
    /// counts it as recently used. Best effort: a failed touch only makes the
    /// record look older than it is.
    pub fn touch(&self, name: &str) {
        let _ = std::fs::File::options()
            .append(true)
            .open(self.path_of(name))
            .and_then(|f| f.set_modified(std::time::SystemTime::now()));
    }

    /// Moves record `name` into `quarantine/` (evidence for post-mortems;
    /// deleted instead when the move fails), then prunes the quarantine to
    /// its newest [`DEFAULT_QUARANTINE_KEEP`] records. Returns whether there
    /// was a record to move.
    pub fn quarantine(&self, name: &str) -> bool {
        let path = self.path_of(name);
        if !path.exists() {
            return false;
        }
        let q = self.quarantined();
        let moved = std::fs::create_dir_all(&q.dir).is_ok()
            && path
                .file_name()
                .is_some_and(|file| std::fs::rename(&path, q.dir.join(file)).is_ok());
        if !moved {
            let _ = std::fs::remove_file(&path);
        }
        let _ = q.keep_newest(DEFAULT_QUARANTINE_KEEP);
        true
    }

    /// Keeps the `keep` most recently modified records (file names break
    /// ties, so the choice is deterministic) and removes the rest. Returns
    /// how many went.
    pub fn keep_newest(&self, keep: usize) -> std::io::Result<usize> {
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = self
            .read_dir()?
            .filter_map(|entry| {
                let path = entry.path();
                let meta = entry.metadata().ok()?;
                (meta.is_file() && path.extension().is_some_and(|x| x == "json"))
                    .then(|| (meta.modified().unwrap_or(std::time::UNIX_EPOCH), path))
            })
            .collect();
        // Oldest first.
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let excess = files.len().saturating_sub(keep);
        Ok(files
            .into_iter()
            .take(excess)
            .filter(|(_, path)| std::fs::remove_file(path).is_ok())
            .count())
    }

    /// Removes the temp files killed writers left behind. Returns how many.
    pub fn sweep_tmp(&self) -> std::io::Result<usize> {
        Ok(self
            .read_dir()?
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .filter(|p| std::fs::remove_file(p).is_ok())
            .count())
    }

    /// Removes every file in the directory (records, temp files, strays),
    /// keeping the directory and its subdirectories.
    pub fn clear(&self) -> std::io::Result<()> {
        for path in self.read_dir()?.map(|e| e.path()).filter(|p| p.is_file()) {
            std::fs::remove_file(&path)?;
        }
        Ok(())
    }

    /// The directory's entries; a missing directory has none.
    fn read_dir(&self) -> std::io::Result<impl Iterator<Item = std::fs::DirEntry>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => Some(entries),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(entries.into_iter().flatten().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{every_damage, sample_analysis, temp_dir};

    /// A payload with every kind of value a codec writes: the cache entry of
    /// the representative analysis.
    fn sample_payload() -> Json {
        crate::cache::encode(&sample_analysis())
    }

    #[test]
    fn a_record_is_one_compact_json_document() {
        let d = SealedDir::open(&temp_dir("store-doc")).unwrap();
        let payload = sample_payload();
        d.put("u", &payload).unwrap();
        assert_eq!(d.get("u"), Found::Payload(payload.clone()));
        assert_eq!(d.get("v"), Found::Absent);
        let text = std::fs::read_to_string(d.path_of("u")).unwrap();
        assert_eq!(text, seal(&payload));
        let whole = Json::parse(&text).unwrap();
        assert_eq!(whole.get("payload"), Some(&payload));
        assert!(text.ends_with("}\n") && !text.trim_end().contains('\n'));
    }

    /// Every torn write and every single-byte change of a record is damage —
    /// to a lookup and to a scan — never a payload and never a panic. The
    /// cache and the journal read through here; their own every-damage
    /// tests pin what each codec makes of it.
    #[test]
    fn every_damage_to_a_record_is_refused() {
        let d = SealedDir::open(&temp_dir("store-every-damage")).unwrap();
        d.put("u", &sample_payload()).unwrap();
        let intact = std::fs::read(d.path_of("u")).unwrap();
        let mut damaged = 0;
        for (what, bytes) in every_damage(&intact) {
            std::fs::write(d.path_of("u"), bytes).unwrap();
            assert_eq!(d.get("u"), Found::Damaged, "{what}");
            assert_eq!(d.scan(), vec![("u".to_string(), None)], "{what}");
            damaged += 1;
        }
        assert_eq!(damaged, intact.len() * 4);
    }

    #[test]
    fn scan_is_in_name_order_and_names_are_file_safe() {
        let d = SealedDir::open(&temp_dir("store-scan")).unwrap();
        for name in ["b", "a/../c", "0001"] {
            d.put(name, &Json::from(name)).unwrap();
        }
        std::fs::write(d.dir().join("stray.json.tmp"), b"torn").unwrap();
        let names: Vec<String> = d.scan().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["0001", "a_.._c", "b"]);
        assert_eq!(d.get("a/../c"), Found::Payload(Json::from("a/../c")));
        // A missing directory has nothing to scan, sweep or prune.
        let gone = SealedDir::at(&temp_dir("store-missing"));
        assert!(gone.scan().is_empty() && !gone.dir().exists());
        assert_eq!(gone.sweep_tmp().unwrap() + gone.keep_newest(0).unwrap(), 0);
    }
}
