//! Content-hash-keyed on-disk cache of per-procedure analysis artifacts —
//! checksummed, atomically written, and self-healing.
//!
//! One JSON file per translation unit, named `<unit>-<key>.json` where the
//! key is a hash of the unit's *source text* plus the analysis options and
//! the cache format version. Editing a unit, flipping an option, or bumping
//! the format all change the key, so stale entries are simply never looked
//! up again (they are overwritten lazily, not garbage-collected).
//!
//! A cache file stores everything the driver needs to skip re-analysis
//! entirely: the per-procedure callee-access summaries and dependency
//! segments (the expensive artifacts named by the paper's pre-analysis and
//! dependency-generation phases), plus the unit's alarms, degradation flag,
//! and the fixpoint fingerprint.
//!
//! Robustness model (the cache must survive killed runs and bad disks):
//!
//! * **Atomic stores.** Entries are written to a temp file in the cache
//!   directory and `rename`d into place, so readers never observe a
//!   half-written entry from a concurrent or killed writer.
//! * **Checksums over the bytes written.** An entry is exactly the text
//!   [`seal`] returns — `{"checksum":"<16 hex>","payload":<compact payload>}`
//!   and a newline, the checksum being the fxhash of the payload's bytes as
//!   rendered. A load matches the fixed head literally, hashes the payload
//!   slice, and only then parses it ([`unseal`]), so any byte that differs
//!   from what was written is caught — not only bytes that change the parsed
//!   tree — and nothing is re-rendered to verify. The file is still one JSON
//!   document, readable with any JSON tool.
//! * **Packed dependency segments.** A procedure's segment is one string,
//!   `"loc from_proc from_node to_proc to_node is_return;"` per row in
//!   decimal, not an array of number arrays: a unit holds thousands of rows,
//!   and the cost of a hit was their JSON nodes, not the analysis.
//! * **Quarantine, not panic.** A present-but-damaged entry (unreadable,
//!   unparsable, checksum mismatch, wrong embedded schema, shape mismatch)
//!   is moved into `quarantine/` under the cache root and reported as
//!   [`LoadOutcome::MissCorrupt`]; the driver recomputes and overwrites.
//! * **Bounded retry.** Stores retry transient IO errors a few times with
//!   short backoff before giving up; a final failure is returned to the
//!   caller (it costs the *next* run a hit, never this run its result).
//!
//! [`CacheHealth`] counts quarantines, IO retries, and failed stores so the
//! run report can surface self-healing activity.

use crate::fault::CorruptionMode;
use crate::unit::{ProcArtifact, UnitAnalysis};
use sga_core::interface::{ImportRef, ProcInterface, UnitInterface};
use sga_diag::Diagnostic;
use sga_utils::{fxhash, Json};
use std::fmt::Write as _;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bump when the cached schema or any analysis semantics change.
///
/// v6: the envelope's checksum covers the payload's bytes as written (it used
/// to cover a re-rendering of the parsed tree), entries are compact, and a
/// dependency segment is one packed string instead of an array of six-number
/// arrays. The report schema is unchanged.
///
/// v5: discharge records carry a `method` (`octagon` | `path_infeasible`)
/// and the path-condition triage layer exists — entries written by a
/// pre-path binary describe a different discharged set, so they must not
/// be served to one that runs it (the triage mode itself also joins the
/// options tag).
///
/// v4: entries carry the unit's link `interface` (per-function export
/// hashes and imported external symbols with reverse dependents) — the
/// incremental daemon's invalidation substrate.
///
/// v3: stringly `alarms` replaced by structured `diagnostics` (the
/// [`sga_diag::Diagnostic`] JSON shape, with triage verdicts and content
/// fingerprints), plus the `triage_degraded` flag.
///
/// v2: checksummed `{checksum, payload}` envelope, atomic writes, the
/// `degraded` flag.
pub const CACHE_FORMAT: u32 = 6;

/// Store attempts per entry (first try + retries of transient IO errors).
const STORE_ATTEMPTS: u32 = 3;

/// Default number of quarantined entries to retain (newest first). Without a
/// cap every healing event would leak a file forever.
pub const DEFAULT_QUARANTINE_KEEP: usize = 16;

/// Backoff before retry `n` (1-based), in milliseconds.
const RETRY_BACKOFF_MS: [u64; 2] = [1, 4];

/// Cache key of one unit: format version + option fingerprint + source text.
/// A lookup key only: the `source_hash` a report renders is hashed apart
/// from the format version, so bumping the format moves no report byte.
pub fn unit_key(source: &str, options_tag: &str) -> u64 {
    fxhash::hash_one(&(CACHE_FORMAT, options_tag, source))
}

/// Self-healing activity counters, shared across worker threads.
#[derive(Debug, Default)]
pub struct CacheHealth {
    quarantined: AtomicUsize,
    io_retries: AtomicUsize,
    store_errors: AtomicUsize,
    evicted: AtomicUsize,
}

/// A point-in-time copy of [`CacheHealth`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheHealthSnapshot {
    /// Damaged entries moved to `quarantine/` (and recomputed).
    pub quarantined: usize,
    /// Transient store failures that were retried.
    pub io_retries: usize,
    /// Stores that failed even after retrying.
    pub store_errors: usize,
    /// Entries removed by the LRU-by-access sweep (`max_entries` cap).
    pub evicted: usize,
}

impl CacheHealth {
    fn snapshot(&self) -> CacheHealthSnapshot {
        CacheHealthSnapshot {
            quarantined: self.quarantined.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

/// What a lookup found.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A validated entry.
    Hit(Box<UnitAnalysis>),
    /// No entry under this key.
    MissAbsent,
    /// An entry existed but was damaged; it has been quarantined.
    MissCorrupt,
}

/// A directory of per-unit cache files.
pub struct Cache {
    dir: PathBuf,
    health: CacheHealth,
    quarantine_keep: usize,
    max_entries: Option<usize>,
}

impl Cache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Cache> {
        std::fs::create_dir_all(dir)?;
        Ok(Cache {
            dir: dir.to_path_buf(),
            health: CacheHealth::default(),
            quarantine_keep: DEFAULT_QUARANTINE_KEEP,
            max_entries: None,
        })
    }

    /// Caps `quarantine/` at the newest `keep` entries (set before sharing
    /// the cache across workers).
    pub fn set_quarantine_keep(&mut self, keep: usize) {
        self.quarantine_keep = keep;
    }

    /// Caps the cache at `max` entries, evicted LRU-by-access by
    /// [`Cache::sweep_lru`] (set before sharing the cache across workers).
    /// `None` (the default) means unbounded.
    pub fn set_max_entries(&mut self, max: Option<usize>) {
        self.max_entries = max;
    }

    /// Evicts entries beyond the `max_entries` cap, least-recently-accessed
    /// first (hits refresh an entry's mtime, so mtime order *is* access
    /// order). Called once per batch/round rather than per store: eviction
    /// is a policy sweep, not a hot-path bookkeeping step. Returns how many
    /// entries were removed (also accumulated in [`CacheHealth`]).
    pub fn sweep_lru(&self) -> usize {
        let Some(max) = self.max_entries else {
            return 0;
        };
        let evicted = prune_entries_to_newest(&self.dir, max).unwrap_or(0);
        self.health.evicted.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// The entry path for `unit` under `key` (exposed so tests and fault
    /// injection can damage entries directly).
    pub fn path_for(&self, unit: &str, key: u64) -> PathBuf {
        let safe: String = unit
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}-{key:016x}.json"))
    }

    /// Where damaged entries go.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Self-healing counters so far.
    pub fn health(&self) -> CacheHealthSnapshot {
        self.health.snapshot()
    }

    /// Looks `unit` up under `key`, validating checksum, schema, and shape.
    /// Damaged entries are quarantined and reported as
    /// [`LoadOutcome::MissCorrupt`].
    pub fn load(&self, unit: &str, key: u64) -> LoadOutcome {
        let path = self.path_for(unit, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::MissAbsent,
            Err(_) => {
                // Present but unreadable — treat like damage.
                self.quarantine(&path);
                return LoadOutcome::MissCorrupt;
            }
        };
        match unseal(&text).as_ref().and_then(decode) {
            Some(analysis) => {
                // Refresh the entry's access time so the LRU sweep sees a
                // hit as recent use. Best effort: a failed touch only makes
                // the entry *look* colder than it is.
                if self.max_entries.is_some() {
                    let _ = std::fs::File::options()
                        .append(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(std::time::SystemTime::now()));
                }
                LoadOutcome::Hit(Box::new(analysis))
            }
            None => {
                self.quarantine(&path);
                LoadOutcome::MissCorrupt
            }
        }
    }

    /// Stores `analysis` for `unit` under `key`: temp file + rename, with
    /// bounded retry of transient IO errors.
    pub fn store(&self, unit: &str, key: u64, analysis: &UnitAnalysis) -> std::io::Result<()> {
        self.store_injected(unit, key, analysis, 0)
    }

    /// [`Cache::store`] with `inject_fail_first` leading attempts failing
    /// with a synthetic IO error — the [`crate::fault`] harness's entry
    /// point for exercising the retry path.
    pub fn store_injected(
        &self,
        unit: &str,
        key: u64,
        analysis: &UnitAnalysis,
        inject_fail_first: u32,
    ) -> std::io::Result<()> {
        let path = self.path_for(unit, key);
        let text = seal(&encode(unit, analysis));
        let mut attempt = 0;
        loop {
            let result = if attempt < inject_fail_first {
                Err(std::io::Error::other("injected fault: cache IO error"))
            } else {
                write_atomic(&path, text.as_bytes())
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt >= STORE_ATTEMPTS {
                        self.health.store_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    self.health.io_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = RETRY_BACKOFF_MS[(attempt as usize - 1).min(1)];
                    std::thread::sleep(std::time::Duration::from_millis(backoff));
                }
            }
        }
    }

    /// Damages the stored entry for `unit`/`key` in place (fault injection;
    /// also what the robustness tests call directly).
    pub fn corrupt_entry(&self, unit: &str, key: u64, mode: CorruptionMode) -> std::io::Result<()> {
        let path = self.path_for(unit, key);
        match mode {
            CorruptionMode::Truncate => {
                let len = std::fs::metadata(&path)?.len();
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(len / 2)?;
            }
            CorruptionMode::BitFlip => {
                let mut file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)?;
                let len = std::fs::metadata(&path)?.len();
                let mid = len / 2;
                let mut byte = [0u8; 1];
                file.seek(SeekFrom::Start(mid))?;
                file.read_exact(&mut byte)?;
                byte[0] ^= 0x40;
                file.seek(SeekFrom::Start(mid))?;
                file.write_all(&byte)?;
            }
            CorruptionMode::Forge => {
                // Tamper the payload *then re-seal* with a valid checksum:
                // the envelope passes, the content is wrong. Only the
                // validation oracle's recompute-and-compare catches this.
                let text = std::fs::read_to_string(&path)?;
                let mut payload =
                    unseal(&text).ok_or_else(|| std::io::Error::other("forge: bad envelope"))?;
                let fp = payload
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| std::io::Error::other("forge: no fingerprint"))?;
                payload.set("fingerprint", format!("{:016x}", fp ^ 0x1));
                write_atomic(&path, seal(&payload).as_bytes())?;
            }
        }
        Ok(())
    }

    /// Quarantines the entry for `unit`/`key` explicitly — the validation
    /// oracle's hook for evicting entries whose checksum is fine but whose
    /// *content* disagrees with a recomputed result.
    pub fn quarantine_entry(&self, unit: &str, key: u64) {
        let path = self.path_for(unit, key);
        if path.exists() {
            self.quarantine(&path);
        }
    }

    /// Moves a damaged entry aside so the next store starts clean and the
    /// evidence survives for post-mortems. Failures fall back to deletion;
    /// if even that fails the recompute-and-overwrite path still heals. The
    /// quarantine directory is pruned to the newest `quarantine_keep`
    /// entries afterwards so healing activity cannot leak disk forever.
    fn quarantine(&self, path: &Path) {
        self.health.quarantined.fetch_add(1, Ordering::Relaxed);
        let qdir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && path
                .file_name()
                .is_some_and(|name| std::fs::rename(path, qdir.join(name)).is_ok());
        if !moved {
            let _ = std::fs::remove_file(path);
        }
        let _ = prune_dir_to_newest(&qdir, self.quarantine_keep);
    }
}

/// What [`gc`] cleaned up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Quarantined entries removed (oldest beyond the cap).
    pub quarantine_removed: usize,
    /// Stranded `.tmp` files removed (leftovers of killed writers).
    pub tmp_removed: usize,
    /// Cache entries evicted by the LRU-by-access sweep.
    pub evicted: usize,
}

/// Offline cache maintenance (`sga cache gc`): prunes `quarantine/` to the
/// newest `keep` entries, sweeps stranded `.tmp` files (from killed atomic
/// writers) out of the cache root and the `journal/` and `serve-journal/`
/// subdirectories, and — when `max_entries` is set — evicts cache entries
/// beyond the cap, least-recently-accessed first.
///
/// The serve daemon's `serve-journal/` records are **spared** by the entry
/// sweep (they are warm-restart state, not cache entries, and the daemon
/// retains only records of units it still has): only their stranded `.tmp`
/// files are removed.
pub fn gc(dir: &Path, keep: usize, max_entries: Option<usize>) -> std::io::Result<GcStats> {
    Ok(GcStats {
        quarantine_removed: prune_dir_to_newest(&dir.join("quarantine"), keep)?,
        tmp_removed: sweep_tmp(dir)?
            + sweep_tmp(&dir.join("journal"))?
            + sweep_tmp(&dir.join("serve-journal"))?,
        evicted: match max_entries {
            Some(max) => prune_entries_to_newest(dir, max)?,
            None => 0,
        },
    })
}

/// Keeps the newest `keep` cache *entry* files (`*.json` directly under the
/// cache root; the `journal/` and `quarantine/` subdirectories are not
/// entries) and removes the rest, oldest access first.
fn prune_entries_to_newest(dir: &Path, keep: usize) -> std::io::Result<usize> {
    prune_to_newest(dir, keep, |p| p.extension().is_some_and(|e| e == "json"))
}

/// Removes `.tmp` files directly under `dir`. A missing directory is fine.
fn sweep_tmp(dir: &Path) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Keeps the newest `keep` files in `dir` (by mtime, file name as the
/// deterministic tiebreak) and removes the rest. Missing directory = no-op.
fn prune_dir_to_newest(dir: &Path, keep: usize) -> std::io::Result<usize> {
    prune_to_newest(dir, keep, |_| true)
}

/// [`prune_dir_to_newest`] restricted to files matching `select`.
fn prune_to_newest(
    dir: &Path,
    keep: usize,
    select: impl Fn(&Path) -> bool,
) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if !select(&path) {
                return None;
            }
            let meta = entry.metadata().ok()?;
            meta.is_file()
                .then(|| (meta.modified().unwrap_or(std::time::UNIX_EPOCH), path))
        })
        .collect();
    if files.len() <= keep {
        return Ok(0);
    }
    // Oldest first; names break mtime ties so pruning is deterministic.
    files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let excess = files.len() - keep;
    let mut removed = 0;
    for (_, path) in files.into_iter().take(excess) {
        if std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename. The temp name is derived from the target name; only one
/// writer per key exists within a run (each unit is analyzed once), and
/// cross-run collisions just race to identical content. Shared with the
/// write-ahead journal and the serve daemon's round journal, which have
/// the same torn-write problem.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The envelope around a compact payload: `{"checksum":"` + 16 lowercase hex
/// digits + `","payload":` — 41 bytes — then the payload, then `}` and a
/// newline.
const HEAD: &str = "{\"checksum\":\"";
const MID: &str = "\",\"payload\":";
const TAIL: &str = "}\n";

/// Seals `payload` as the exact text to write: the fixed 41-byte head
/// carrying the fxhash of the payload's compact rendering, that rendering,
/// `}` and a newline — one valid JSON document. Cache entries, both journals
/// and the worker pipe all write this and nothing else, so every durable or
/// piped record verifies the same way.
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

/// Packs dependency-segment rows as one string: six decimal fields separated
/// by one space, every row closed by `;`.
fn pack_rows(rows: &[[u64; 6]]) -> String {
    let mut out = String::with_capacity(rows.len() * 20);
    for [first, rest @ ..] in rows {
        let _ = write!(out, "{first}");
        for x in rest {
            let _ = write!(out, " {x}");
        }
        out.push(';');
    }
    out
}

/// Reads what [`pack_rows`] wrote and nothing else: digits, single spaces
/// and `;`, exactly six non-empty fields a row, every field a `u64`,
/// nothing after the last `;`.
fn unpack_rows(text: &str) -> Option<Vec<[u64; 6]>> {
    let bytes = text.as_bytes();
    let mut rows = Vec::with_capacity(bytes.iter().filter(|&&b| b == b';').count());
    let mut row = [0u64; 6];
    let (mut field, mut digits) = (0, 0);
    for &b in bytes {
        match b {
            b'0'..=b'9' => {
                row[field] = row[field]
                    .checked_mul(10)?
                    .checked_add(u64::from(b - b'0'))?;
                digits += 1;
            }
            b' ' if digits > 0 && field < 5 => (field, digits) = (field + 1, 0),
            b';' if digits > 0 && field == 5 => {
                rows.push(std::mem::take(&mut row));
                (field, digits) = (0, 0);
            }
            _ => return None,
        }
    }
    (field == 0 && digits == 0).then_some(rows)
}

/// Renders a [`UnitAnalysis`] as a cache-entry payload (to be [`seal`]ed).
/// Crate-visible so the isolated worker ships its artifacts back to the
/// parent inside its response in exactly the shape the cache stores.
pub(crate) fn encode(unit: &str, a: &UnitAnalysis) -> Json {
    let procs: Vec<Json> = a
        .procs
        .iter()
        .map(|p| {
            Json::obj()
                .with("name", p.name.as_str())
                .with("summary_defs", strs(&p.summary_defs))
                .with("summary_uses", strs(&p.summary_uses))
                .with("dep_segment", pack_rows(&p.dep_segment))
        })
        .collect();
    Json::obj()
        .with("schema", CACHE_FORMAT)
        .with("unit", unit)
        .with("fingerprint", format!("{:016x}", a.fingerprint))
        .with("iterations", a.iterations)
        .with("num_locs", a.num_locs)
        .with("dep_edges_raw", a.dep_edges_raw)
        .with("dep_edges", a.dep_edges)
        .with("degraded", a.degraded)
        .with("triage_degraded", a.triage_degraded)
        .with(
            "diagnostics",
            a.diags.iter().map(Diagnostic::to_json).collect::<Vec<_>>(),
        )
        .with("interface", encode_interface(&a.interface))
        .with("procs", procs)
}

/// Renders a [`UnitInterface`] in the cache-entry shape. Public so the
/// serve daemon's round journal persists interfaces in exactly the format
/// the cache already proves durable.
pub fn encode_interface(iface: &UnitInterface) -> Json {
    Json::obj()
        .with(
            "exports",
            iface
                .exports
                .iter()
                .map(|e| {
                    Json::obj()
                        .with("name", e.name.as_str())
                        .with("arity", e.arity)
                        .with("hash", format!("{:016x}", e.hash))
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "imports",
            iface
                .imports
                .iter()
                .map(|i| {
                    Json::obj()
                        .with("symbol", i.symbol.as_str())
                        .with("arity", i.arity)
                        .with("dependents", strs(&i.dependents))
                })
                .collect::<Vec<_>>(),
        )
}

/// Parses the shape written by [`encode_interface`]; `None` on any damage.
pub fn decode_interface(j: &Json) -> Option<UnitInterface> {
    let mut exports = Vec::new();
    for e in j.get("exports")?.as_arr()? {
        exports.push(ProcInterface {
            name: e.get("name")?.as_str()?.to_string(),
            arity: e.get("arity")?.as_u64()? as usize,
            hash: u64::from_str_radix(e.get("hash")?.as_str()?, 16).ok()?,
        });
    }
    let mut imports = Vec::new();
    for i in j.get("imports")?.as_arr()? {
        imports.push(ImportRef {
            symbol: i.get("symbol")?.as_str()?.to_string(),
            arity: i.get("arity")?.as_u64()? as usize,
            dependents: str_list(i.get("dependents")?)?,
        });
    }
    Some(UnitInterface { exports, imports })
}

/// Parses the payload written by [`encode`]; `None` on any damage (the
/// isolated worker's response decoder shares this path with cache loads).
pub(crate) fn decode(payload: &Json) -> Option<UnitAnalysis> {
    if payload.get("schema")?.as_u64()? != u64::from(CACHE_FORMAT) {
        return None;
    }
    let fingerprint = u64::from_str_radix(payload.get("fingerprint")?.as_str()?, 16).ok()?;
    let mut procs = Vec::new();
    for p in payload.get("procs")?.as_arr()? {
        let dep_segment = unpack_rows(p.get("dep_segment")?.as_str()?)?;
        procs.push(ProcArtifact {
            name: p.get("name")?.as_str()?.to_string(),
            summary_defs: str_list(p.get("summary_defs")?)?,
            summary_uses: str_list(p.get("summary_uses")?)?,
            dep_segment,
        });
    }
    let diags = payload
        .get("diagnostics")?
        .as_arr()?
        .iter()
        .map(Diagnostic::from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(UnitAnalysis {
        procs,
        interface: decode_interface(payload.get("interface")?)?,
        diags,
        triage_degraded: payload.get("triage_degraded")?.as_bool()?,
        fingerprint,
        iterations: payload.get("iterations")?.as_u64()? as usize,
        num_locs: payload.get("num_locs")?.as_u64()? as usize,
        dep_edges_raw: payload.get("dep_edges_raw")?.as_u64()? as usize,
        dep_edges: payload.get("dep_edges")?.as_u64()? as usize,
        degraded: payload.get("degraded")?.as_bool()?,
    })
}

fn strs(v: &[String]) -> Vec<Json> {
    v.iter().map(|s| Json::from(s.as_str())).collect()
}

fn str_list(j: &Json) -> Option<Vec<String>> {
    j.as_arr()?
        .iter()
        .map(|s| Some(s.as_str()?.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testfix::{
        every_damage, previous_format_entry, sample_analysis as sample, stored_cache, temp_cache,
    };

    #[test]
    fn roundtrip() {
        let a = sample();
        let sealed = seal(&encode("u", &a));
        assert_eq!(decode(&unseal(&sealed).unwrap()).unwrap(), a);
        // One JSON document, compact: any JSON tool reads the file.
        let whole = Json::parse(&sealed).unwrap();
        assert_eq!(whole.get("payload"), unseal(&sealed).as_ref());
        assert!(sealed.ends_with("}\n") && !sealed.trim_end().contains('\n'));
    }

    /// A stale schema under a *valid* envelope: the checksum does not vouch
    /// for schema compatibility, so it is the schema check that must refuse.
    #[test]
    fn schema_mismatch_is_rejected() {
        let cache = temp_cache("schema");
        let mut payload = encode("u", &sample());
        payload.set("schema", CACHE_FORMAT - 1);
        let stale = seal(&payload);
        assert_eq!(unseal(&stale).as_ref(), Some(&payload), "envelope verifies");
        assert!(decode(&payload).is_none());
        std::fs::write(cache.path_for("u", 7), stale).unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
    }

    #[test]
    fn checksum_mismatch_is_rejected() {
        let sealed = seal(&encode("u", &sample()));
        // Damage that still parses to a well-formed entry, and a
        // re-formatting that parses to the *same* tree: both are bytes that
        // were not written.
        let edited = sealed.replace("\"iterations\":42", "\"iterations\":43");
        assert_ne!(edited, sealed);
        assert!(Json::parse(&edited).is_ok() && unseal(&edited).is_none());
        let spaced = sealed.replace("\"iterations\":42", "\"iterations\": 42");
        assert_eq!(Json::parse(&spaced), Json::parse(&sealed));
        assert!(unseal(&spaced).is_none());
        // The checksum is the sixteen lowercase digits `seal` wrote, not any
        // spelling of the same number.
        let digits = HEAD.len()..HEAD.len() + 16;
        let mut shouted = sealed.clone();
        shouted.replace_range(digits.clone(), &sealed[digits].to_uppercase());
        assert_ne!(shouted, sealed, "the sample's checksum has a letter in it");
        assert!(Json::parse(&shouted).is_ok() && unseal(&shouted).is_none());
    }

    /// Every torn write and every single-byte change of a stored entry is a
    /// quarantined miss, never a hit and never a panic.
    #[test]
    fn every_damage_to_an_entry_is_a_corrupt_miss() {
        let mut cache = temp_cache("every-damage");
        cache.set_quarantine_keep(1);
        let intact = seal(&encode("u", &sample()));
        let mut damaged = 0;
        for (what, bytes) in every_damage(intact.as_bytes()) {
            std::fs::write(cache.path_for("u", 7), bytes).unwrap();
            let outcome = cache.load("u", 7);
            assert!(matches!(outcome, LoadOutcome::MissCorrupt), "{what}");
            damaged += 1;
        }
        assert_eq!(damaged, intact.len() * 4);
        assert_eq!(cache.health().quarantined, damaged);
    }

    /// An entry in the previous format's shape copied under a current key
    /// is refused at the envelope and quarantined.
    #[test]
    fn previous_format_entry_under_a_current_key_is_quarantined() {
        let cache = temp_cache("v5-shape");
        std::fs::write(cache.path_for("u", 7), previous_format_entry()).unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
        assert_eq!(cache.health().quarantined, 1);
    }

    #[test]
    fn packed_rows_roundtrip() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        assert_eq!(pack_rows(&[]), "");
        assert_eq!(unpack_rows(""), Some(Vec::new()));
        let edge = [[u64::MAX; 6], [0; 6], [u64::MAX, 0, 1, 9, 10, 1]];
        assert_eq!(unpack_rows(&pack_rows(&edge)).as_deref(), Some(&edge[..]));
        assert_eq!(pack_rows(&[[3, 0, 1, 0, 4, 0]]), "3 0 1 0 4 0;");
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..200 {
            let rows: Vec<[u64; 6]> = (0..rng.gen_range(0..40))
                .map(|_| {
                    // Every magnitude, not just 20-digit values.
                    std::array::from_fn(|_| rng.gen::<u64>() >> rng.gen_range(0..64))
                })
                .collect();
            assert_eq!(unpack_rows(&pack_rows(&rows)), Some(rows));
        }
    }

    #[test]
    fn packed_rows_refuse_everything_pack_rows_does_not_write() {
        for bad in [
            "1 2 3 4 5;",     // five fields
            "1 2 3 4 5 6 7;", // seven
            "1 2  3 4 5 6;",  // double space
            " 1 2 3 4 5 6;",  // leading space
            "1 2 3 4 5 6 ;",  // trailing space
            "1 2 3 4 5 6",    // missing final `;`
            "1 2 3 4 5 6;7",  // text after it
            "1 2 3 4 5 6;;",  // an empty row
            ";",
            "-1 2 3 4 5 6;", // signs
            "+1 2 3 4 5 6;",
            "18446744073709551616 2 3 4 5 6;", // 2^64
            "99999999999999999999 2 3 4 5 6;",
            "1\t2 3 4 5 6;",      // a tab
            "1 2 3 4 5 6;\n",     // a newline
            "\u{661} 2 3 4 5 6;", // ARABIC-INDIC DIGIT ONE
            "1.0 2 3 4 5 6;",     // not an integer
            "0x1 2 3 4 5 6;",
        ] {
            assert_eq!(unpack_rows(bad), None, "{bad:?}");
        }
        assert_eq!(
            unpack_rows("18446744073709551615 2 3 4 5 6;"),
            Some(vec![[u64::MAX, 2, 3, 4, 5, 6]])
        );
        // A damaged segment inside an otherwise well-formed entry is a
        // decode failure like any other.
        let entry = encode("u", &sample()).to_compact();
        let short = entry.replace("3 0 1 0 4 0;", "3 0 1 0 4;");
        assert_ne!(short, entry);
        assert!(decode(&Json::parse(&entry).unwrap()).is_some());
        assert!(decode(&Json::parse(&short).unwrap()).is_none());
    }

    #[test]
    fn store_load_roundtrip_and_absent_miss() {
        let (cache, a) = stored_cache("roundtrip", "u", 7);
        match cache.load("u", 7) {
            LoadOutcome::Hit(got) => assert_eq!(*got, a),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(cache.load("u", 8), LoadOutcome::MissAbsent));
        assert_eq!(cache.health(), CacheHealthSnapshot::default());
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let (cache, _) = stored_cache("truncate", "u", 7);
        cache
            .corrupt_entry("u", 7, CorruptionMode::Truncate)
            .unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
        assert_eq!(cache.health().quarantined, 1);
        // The damaged file moved aside; the slot is free again.
        assert!(!cache.path_for("u", 7).exists());
        assert!(std::fs::read_dir(cache.quarantine_dir()).unwrap().count() == 1);
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissAbsent));
    }

    #[test]
    fn bitflipped_entry_is_quarantined() {
        let (cache, _) = stored_cache("bitflip", "u", 7);
        cache
            .corrupt_entry("u", 7, CorruptionMode::BitFlip)
            .unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
        assert_eq!(cache.health().quarantined, 1);
    }

    #[test]
    fn forged_entry_passes_the_envelope_but_lies() {
        // A forge re-seals tampered content with a valid checksum: the
        // envelope cannot tell, so the load is a Hit — with the wrong
        // fingerprint. Catching this is exactly the validation oracle's job.
        let (cache, a) = stored_cache("forge", "u", 7);
        cache.corrupt_entry("u", 7, CorruptionMode::Forge).unwrap();
        let forged = std::fs::read_to_string(cache.path_for("u", 7)).unwrap();
        assert!(unseal(&forged).is_some(), "the forged envelope verifies");
        match cache.load("u", 7) {
            LoadOutcome::Hit(got) => {
                assert_ne!(got.fingerprint, a.fingerprint);
                assert_eq!(got.iterations, a.iterations);
            }
            other => panic!("expected (lying) hit, got {other:?}"),
        }
        assert_eq!(cache.health().quarantined, 0);
    }

    #[test]
    fn explicit_quarantine_evicts_the_entry() {
        let (cache, _) = stored_cache("evict", "u", 7);
        cache.quarantine_entry("u", 7);
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissAbsent));
        assert_eq!(cache.health().quarantined, 1);
        // Quarantining a missing entry is a no-op, not an error.
        cache.quarantine_entry("u", 99);
        assert_eq!(cache.health().quarantined, 1);
    }

    #[test]
    fn quarantine_growth_is_bounded() {
        let mut cache = temp_cache("qcap");
        cache.set_quarantine_keep(2);
        for key in 0..5u64 {
            cache.store("u", key, &sample()).unwrap();
            cache
                .corrupt_entry("u", key, CorruptionMode::Truncate)
                .unwrap();
            assert!(matches!(cache.load("u", key), LoadOutcome::MissCorrupt));
        }
        assert_eq!(cache.health().quarantined, 5);
        let retained = std::fs::read_dir(cache.quarantine_dir()).unwrap().count();
        assert_eq!(retained, 2);
    }

    #[test]
    fn gc_prunes_quarantine_and_sweeps_tmp_files() {
        let cache = temp_cache("gc");
        for key in 0..4u64 {
            cache.store("u", key, &sample()).unwrap();
            cache
                .corrupt_entry("u", key, CorruptionMode::BitFlip)
                .unwrap();
            assert!(matches!(cache.load("u", key), LoadOutcome::MissCorrupt));
        }
        let dir = cache.path_for("u", 0).parent().unwrap().to_path_buf();
        std::fs::write(dir.join("stranded.json.tmp"), b"half a write").unwrap();
        let jdir = dir.join("journal");
        std::fs::create_dir_all(&jdir).unwrap();
        std::fs::write(jdir.join("0001-xyz.json.tmp"), b"torn").unwrap();
        let stats = gc(&dir, 1, None).unwrap();
        assert_eq!(stats.quarantine_removed, 3);
        assert_eq!(stats.tmp_removed, 2);
        assert_eq!(
            std::fs::read_dir(dir.join("quarantine")).unwrap().count(),
            1
        );
        // Idempotent: a second pass finds nothing to do.
        assert_eq!(gc(&dir, 1, None).unwrap(), GcStats::default());
    }

    #[test]
    fn gc_spares_serve_journal_records() {
        let cache = temp_cache("gc-serve");
        for key in 0..3u64 {
            cache.store("u", key, &sample()).unwrap();
        }
        let dir = cache.path_for("u", 0).parent().unwrap().to_path_buf();
        let sdir = dir.join("serve-journal");
        std::fs::create_dir_all(&sdir).unwrap();
        for name in ["u-aaaa.json", "u-bbbb.json", "u-cccc.json"] {
            std::fs::write(sdir.join(name), b"round record").unwrap();
        }
        std::fs::write(sdir.join("u-dddd.json.tmp"), b"torn").unwrap();

        // Tmp strays are swept, records are spared — even under an
        // aggressive cache-entry cap.
        let stats = gc(&dir, DEFAULT_QUARANTINE_KEEP, Some(1)).unwrap();
        assert_eq!(stats.tmp_removed, 1);
        assert_eq!(stats.evicted, 2);
        assert!(sdir.join("u-aaaa.json").exists());
        assert!(sdir.join("u-bbbb.json").exists());
        assert!(sdir.join("u-cccc.json").exists());
    }

    /// Backdates an entry's mtime by `secs` so LRU ordering is
    /// deterministic without sleeping.
    fn backdate(cache: &Cache, unit: &str, key: u64, secs: u64) {
        let past = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
        std::fs::File::options()
            .append(true)
            .open(cache.path_for(unit, key))
            .and_then(|f| f.set_modified(past))
            .expect("backdate entry");
    }

    #[test]
    fn lru_sweep_evicts_oldest_access_first() {
        let mut cache = temp_cache("lru");
        cache.set_max_entries(Some(2));
        for key in 0..4u64 {
            cache.store("u", key, &sample()).unwrap();
            backdate(&cache, "u", key, 1000 - key * 100);
        }
        // A hit refreshes key 0 (the oldest by store order) to "now".
        assert!(matches!(cache.load("u", 0), LoadOutcome::Hit(_)));
        assert_eq!(cache.sweep_lru(), 2);
        // Survivors: the hit-refreshed key 0 and the youngest key 3.
        assert!(matches!(cache.load("u", 0), LoadOutcome::Hit(_)));
        assert!(matches!(cache.load("u", 3), LoadOutcome::Hit(_)));
        assert!(matches!(cache.load("u", 1), LoadOutcome::MissAbsent));
        assert!(matches!(cache.load("u", 2), LoadOutcome::MissAbsent));
        assert_eq!(cache.health().evicted, 2);
        // Under the cap: a second sweep is a no-op.
        assert_eq!(cache.sweep_lru(), 0);
    }

    #[test]
    fn lru_sweep_is_off_by_default_and_spares_journal_and_quarantine() {
        let cache = temp_cache("lru-off");
        for key in 0..3u64 {
            cache.store("u", key, &sample()).unwrap();
        }
        assert_eq!(cache.sweep_lru(), 0);

        // With a cap, only entry files are candidates: the journal and
        // quarantine subdirectories are untouched.
        let dir = cache.path_for("u", 0).parent().unwrap().to_path_buf();
        let jdir = dir.join("journal");
        std::fs::create_dir_all(&jdir).unwrap();
        std::fs::write(jdir.join("0001-abc.json"), b"journal record").unwrap();
        let stats = gc(&dir, DEFAULT_QUARANTINE_KEEP, Some(1)).unwrap();
        assert_eq!(stats.evicted, 2);
        assert!(jdir.join("0001-abc.json").exists());
    }

    #[test]
    fn transient_io_errors_are_retried() {
        let cache = temp_cache("retry");
        cache.store_injected("u", 7, &sample(), 2).unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::Hit(_)));
        assert_eq!(cache.health().io_retries, 2);
        assert_eq!(cache.health().store_errors, 0);
    }

    #[test]
    fn persistent_io_errors_surface() {
        let cache = temp_cache("io-fail");
        let err = cache.store_injected("u", 7, &sample(), STORE_ATTEMPTS);
        assert!(err.is_err());
        assert_eq!(cache.health().store_errors, 1);
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissAbsent));
    }
}
