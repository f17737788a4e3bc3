//! Content-hash-keyed on-disk cache of unit analyses — checksummed,
//! atomically written, and self-healing.
//!
//! One sealed record per translation unit in a [`SealedDir`], named
//! `<unit>-<key>` where the key is a hash of the unit's *source text* plus
//! the analysis options and the cache format version. Editing a unit,
//! flipping an option, or bumping the format all change the key, so stale
//! entries are simply never looked up again (they are overwritten lazily,
//! not garbage-collected).
//!
//! An entry holds exactly what a hit returns — the [`UnitAnalysis`]: the
//! unit's diagnostics, link interface, degradation flags, fixpoint
//! fingerprint and counts — so an unchanged unit is never re-analyzed, and
//! every stored field is read back.
//!
//! The envelope, atomic writes and quarantine are the store's
//! ([`crate::store`]); this module adds the codec and the policy:
//!
//! * **Quarantine, not panic.** A present-but-damaged entry (unreadable,
//!   refused by the envelope, wrong embedded schema, shape mismatch) is moved
//!   into `quarantine/` under the cache root and reported as
//!   [`LoadOutcome::MissCorrupt`]; the driver recomputes and overwrites.
//! * **Bounded retry.** Stores retry transient IO errors a few times with
//!   short backoff before giving up; a final failure is returned to the
//!   caller (it costs the *next* run a hit, never this run its result).
//! * **LRU by access.** With an entry cap, a hit refreshes its entry's
//!   mtime and [`Cache::sweep_lru`] evicts the least recently used.
//!
//! [`CacheHealth`] counts quarantines, IO retries, failed stores and
//! evictions so the run report can surface self-healing activity.

use crate::fault::CorruptionMode;
use crate::store::{Found, SealedDir};
use crate::unit::UnitAnalysis;
use sga_core::interface::{ImportRef, ProcInterface, UnitInterface};
use sga_diag::Diagnostic;
use sga_utils::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bump when the cached schema or any analysis semantics change.
///
/// v8: the checkers and the path layer read a value before a point as the
/// input the engine computed there (`sga_core::interval::Inputs`), so the
/// diagnostics of a v7 entry — raised by the old program-wide fallback
/// scan, path-discharged by the old CFG walk — must not replay. The entry
/// shape is unchanged.
///
/// v7: an entry holds what a hit returns and nothing else — the
/// per-procedure artifacts (callee-access summaries and packed dependency
/// segments, 95 % of an entry's bytes, never read back) are gone, `procs`
/// is the procedure count, and the `unit` name (already in the file name)
/// is no longer written.
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
pub const CACHE_FORMAT: u32 = 8;

/// Store attempts per entry (first try + retries of transient IO errors).
const STORE_ATTEMPTS: u32 = 3;

/// Backoff before retry `n` (1-based), in milliseconds.
const RETRY_BACKOFF_MS: [u64; 2] = [1, 4];

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

/// A directory of per-unit cache entries.
pub struct Cache {
    dir: SealedDir,
    health: CacheHealth,
    max_entries: Option<usize>,
}

/// The record name of `unit`'s entry under `key`.
fn entry_name(unit: &str, key: u64) -> String {
    format!("{unit}-{key:016x}")
}

impl Cache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Cache> {
        Ok(Cache {
            dir: SealedDir::open(dir)?,
            health: CacheHealth::default(),
            max_entries: None,
        })
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
        let evicted = self.dir.keep_newest(max).unwrap_or(0);
        self.health.evicted.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// The entry path for `unit` under `key` (exposed so tests and fault
    /// injection can damage entries directly).
    pub fn path_for(&self, unit: &str, key: u64) -> PathBuf {
        self.dir.path_of(&entry_name(unit, key))
    }

    /// Self-healing counters so far.
    pub fn health(&self) -> CacheHealthSnapshot {
        self.health.snapshot()
    }

    /// Looks `unit` up under `key`, validating checksum, schema, and shape.
    /// Damaged entries are quarantined and reported as
    /// [`LoadOutcome::MissCorrupt`].
    pub fn load(&self, unit: &str, key: u64) -> LoadOutcome {
        let name = entry_name(unit, key);
        let decoded = match self.dir.get(&name) {
            Found::Absent => return LoadOutcome::MissAbsent,
            Found::Damaged => None,
            Found::Payload(payload) => decode(&payload),
        };
        match decoded {
            Some(analysis) => {
                // A hit is recent use for the LRU sweep.
                if self.max_entries.is_some() {
                    self.dir.touch(&name);
                }
                LoadOutcome::Hit(Box::new(analysis))
            }
            None => {
                self.quarantine_entry(unit, key);
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
        let name = entry_name(unit, key);
        let payload = encode(analysis);
        let mut attempt = 0;
        loop {
            let result = if attempt < inject_fail_first {
                Err(std::io::Error::other("injected fault: cache IO error"))
            } else {
                self.dir.put(&name, &payload)
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
            CorruptionMode::Truncate | CorruptionMode::BitFlip => {
                let mut bytes = std::fs::read(&path)?;
                let mid = bytes.len() / 2;
                if mode == CorruptionMode::Truncate {
                    bytes.truncate(mid);
                } else if let Some(byte) = bytes.get_mut(mid) {
                    *byte ^= 0x40;
                }
                std::fs::write(&path, bytes)?;
            }
            CorruptionMode::Forge => {
                // Tamper the payload *then re-seal* with a valid checksum:
                // the envelope passes, the content is wrong. Only the
                // validation oracle's recompute-and-compare catches this.
                let name = entry_name(unit, key);
                let Found::Payload(mut payload) = self.dir.get(&name) else {
                    return Err(std::io::Error::other("forge: bad envelope"));
                };
                let fp = payload
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| std::io::Error::other("forge: no fingerprint"))?;
                payload.set("fingerprint", format!("{:016x}", fp ^ 0x1));
                self.dir.put(&name, &payload)?;
            }
        }
        Ok(())
    }

    /// Moves the entry for `unit`/`key` aside (see [`SealedDir::quarantine`])
    /// and counts it — what a load does with a damaged entry, and the
    /// validation oracle's hook for evicting entries whose checksum is fine
    /// but whose *content* disagrees with a recomputed result.
    pub fn quarantine_entry(&self, unit: &str, key: u64) {
        if self.dir.quarantine(&entry_name(unit, key)) {
            self.health.quarantined.fetch_add(1, Ordering::Relaxed);
        }
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
/// writers) out of the cache root and its `journal/`, and — when
/// `max_entries` is set — evicts cache entries beyond the cap,
/// least-recently-accessed first.
pub fn gc(dir: &Path, keep: usize, max_entries: Option<usize>) -> std::io::Result<GcStats> {
    let root = SealedDir::at(dir);
    let tmp_removed = root.sweep_tmp()? + SealedDir::at(&dir.join("journal")).sweep_tmp()?;
    Ok(GcStats {
        quarantine_removed: root.quarantined().keep_newest(keep)?,
        tmp_removed,
        evicted: match max_entries {
            Some(max) => root.keep_newest(max)?,
            None => 0,
        },
    })
}

/// Renders a [`UnitAnalysis`] as a cache-entry payload. Crate-visible so the
/// isolated worker ships its analysis back to the parent inside its
/// response in exactly the shape the cache stores.
pub(crate) fn encode(a: &UnitAnalysis) -> Json {
    Json::obj()
        .with("schema", CACHE_FORMAT)
        .with("fingerprint", format!("{:016x}", a.fingerprint))
        .with("procs", a.procs)
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
}

/// Renders a [`UnitInterface`] in the cache-entry shape.
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
                        .with(
                            "dependents",
                            i.dependents
                                .iter()
                                .map(|s| Json::from(s.as_str()))
                                .collect::<Vec<_>>(),
                        )
                })
                .collect::<Vec<_>>(),
        )
}

/// Parses the shape written by [`encode_interface`]; `None` on any damage.
fn decode_interface(j: &Json) -> Option<UnitInterface> {
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
            dependents: i
                .get("dependents")?
                .as_arr()?
                .iter()
                .map(|s| Some(s.as_str()?.to_string()))
                .collect::<Option<_>>()?,
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
    let diags = payload
        .get("diagnostics")?
        .as_arr()?
        .iter()
        .map(Diagnostic::from_json)
        .collect::<Option<Vec<_>>>()?;
    Some(UnitAnalysis {
        procs: payload.get("procs")?.as_u64()? as usize,
        interface: decode_interface(payload.get("interface")?)?,
        diags,
        triage_degraded: payload.get("triage_degraded")?.as_bool()?,
        fingerprint: u64::from_str_radix(payload.get("fingerprint")?.as_str()?, 16).ok()?,
        iterations: payload.get("iterations")?.as_u64()? as usize,
        num_locs: payload.get("num_locs")?.as_u64()? as usize,
        dep_edges_raw: payload.get("dep_edges_raw")?.as_u64()? as usize,
        dep_edges: payload.get("dep_edges")?.as_u64()? as usize,
        degraded: payload.get("degraded")?.as_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DEFAULT_QUARANTINE_KEEP;
    use crate::testfix::{
        every_damage, previous_format_entry, sample_analysis as sample, stored_cache, temp_cache,
    };

    #[test]
    fn roundtrip() {
        let a = sample();
        assert_eq!(decode(&encode(&a)), Some(a));
    }

    /// Every top-level field of an entry is read back: without any one of
    /// them the payload does not decode, so nothing is stored that a hit
    /// does not return.
    #[test]
    fn every_payload_field_is_load_bearing() {
        let Json::Obj(fields) = encode(&sample()) else {
            panic!("an entry payload is an object");
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            let mut without = fields.clone();
            without.remove(i);
            assert_eq!(decode(&Json::Obj(without)), None, "{key} is never read");
        }
    }

    #[test]
    fn checksum_mismatch_is_rejected() {
        let (cache, _) = stored_cache("checksum", "u", 7);
        let path = cache.path_for("u", 7);
        let sealed = std::fs::read_to_string(&path).unwrap();
        // Damage that still parses to a well-formed entry, and a
        // re-formatting that parses to the *same* tree: both are bytes that
        // were not written.
        let edited = sealed.replace("\"iterations\":42", "\"iterations\":43");
        let spaced = sealed.replace("\"iterations\":42", "\"iterations\": 42");
        assert_ne!(edited, sealed);
        assert_eq!(Json::parse(&spaced), Json::parse(&sealed));
        // The checksum is the sixteen lowercase digits the store wrote, not
        // any spelling of the same number.
        let at = "{\"checksum\":\"".len();
        let digits = at..at + 16;
        let mut shouted = sealed.clone();
        shouted.replace_range(digits.clone(), &sealed[digits].to_uppercase());
        assert_ne!(shouted, sealed, "the sample's checksum has a letter in it");
        for damaged in [edited, spaced, shouted] {
            assert!(Json::parse(&damaged).is_ok());
            std::fs::write(&path, damaged).unwrap();
            assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
        }
        assert_eq!(cache.health().quarantined, 3);
    }

    /// Every torn write and every single-byte change of a stored entry is a
    /// corrupt miss that quarantines it — never a hit and never a panic.
    #[test]
    fn every_damage_to_an_entry_is_a_corrupt_miss() {
        let (cache, _) = stored_cache("every-damage", "u", 7);
        let intact = std::fs::read(cache.path_for("u", 7)).unwrap();
        let mut damaged = 0;
        for (what, bytes) in every_damage(&intact) {
            std::fs::write(cache.path_for("u", 7), bytes).unwrap();
            let outcome = cache.load("u", 7);
            assert!(matches!(outcome, LoadOutcome::MissCorrupt), "{what}");
            damaged += 1;
        }
        assert_eq!(damaged, intact.len() * 4);
        assert_eq!(cache.health().quarantined, damaged);
    }

    /// A stale schema under a *valid* envelope: the checksum does not vouch
    /// for schema compatibility, so it is the schema check that must refuse.
    #[test]
    fn schema_mismatch_is_rejected() {
        let cache = temp_cache("schema");
        let mut payload = encode(&sample());
        payload.set("schema", CACHE_FORMAT - 1);
        assert!(decode(&payload).is_none());
        cache.dir.put(&entry_name("u", 7), &payload).unwrap();
        assert_eq!(cache.dir.get(&entry_name("u", 7)), Found::Payload(payload));
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
    }

    /// An entry in the previous format's shape copied under a current key
    /// is refused and quarantined.
    #[test]
    fn previous_format_entry_under_a_current_key_is_quarantined() {
        let cache = temp_cache("v7-shape");
        std::fs::write(cache.path_for("u", 7), previous_format_entry()).unwrap();
        assert!(matches!(cache.load("u", 7), LoadOutcome::MissCorrupt));
        assert_eq!(cache.health().quarantined, 1);
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
        assert_eq!(cache.dir.quarantined().scan().len(), 1);
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
        assert!(matches!(
            cache.dir.get(&entry_name("u", 7)),
            Found::Payload(_)
        ));
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
        let cache = temp_cache("qcap");
        let damaged = DEFAULT_QUARANTINE_KEEP as u64 + 3;
        for key in 0..damaged {
            cache.store("u", key, &sample()).unwrap();
            cache
                .corrupt_entry("u", key, CorruptionMode::Truncate)
                .unwrap();
            assert!(matches!(cache.load("u", key), LoadOutcome::MissCorrupt));
        }
        assert_eq!(cache.health().quarantined as u64, damaged);
        let retained = cache.dir.quarantined().scan().len();
        assert_eq!(retained, DEFAULT_QUARANTINE_KEEP);
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
        let dir = cache.dir.dir().to_path_buf();
        std::fs::write(dir.join("stranded.json.tmp"), b"half a write").unwrap();
        let jdir = dir.join("journal");
        std::fs::create_dir_all(&jdir).unwrap();
        std::fs::write(jdir.join("0001.json.tmp"), b"torn").unwrap();
        let stats = gc(&dir, 1, None).unwrap();
        assert_eq!(stats.quarantine_removed, 3);
        assert_eq!(stats.tmp_removed, 2);
        assert_eq!(cache.dir.quarantined().scan().len(), 1);
        // Idempotent: a second pass finds nothing to do.
        assert_eq!(gc(&dir, 1, None).unwrap(), GcStats::default());
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
        let dir = cache.dir.dir().to_path_buf();
        let jdir = dir.join("journal");
        std::fs::create_dir_all(&jdir).unwrap();
        std::fs::write(jdir.join("0001.json"), b"journal record").unwrap();
        let stats = gc(&dir, DEFAULT_QUARANTINE_KEEP, Some(1)).unwrap();
        assert_eq!(stats.evicted, 2);
        assert!(jdir.join("0001.json").exists());
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
