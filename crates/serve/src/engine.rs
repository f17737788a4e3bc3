//! The daemon's analysis state machine: a loaded corpus, per-unit results,
//! and dependency-aware invalidation of edits.
//!
//! The engine owns one [`UnitState`] per translation unit — its source
//! text, its rendered report object, its diagnostics, and its link
//! [`UnitInterface`]. An edit round ([`Engine::apply_edits`]) re-analyzes
//! the edited units, then walks the cross-unit dependency frontier: a unit
//! is invalidated only when a symbol it actually *imports* changed
//! interface (per-function summary hash), never merely because a sibling
//! file was touched. Each round ends with a corpus-wide alarm diff
//! ([`sga_diag::baseline::diff_open`]) — the daemon's streamed event.
//!
//! **Convergence invariant.** After any edit sequence, [`Engine::report`]
//! is byte-identical to a fresh cold batch run of the corpus directory's
//! final state (`sga analyze <dir> --no-cache --canonical`, i.e.
//! [`cold_report`]), at any job count. Two mechanisms carry it: per-unit
//! report objects are normalized (`cache` reads `"off"`, matching a
//! cache-less run), and re-analysis is idempotent — an invalidated unit
//! whose source did not change reproduces its exact previous result, so
//! over-invalidation can never corrupt state, only waste work.
//!
//! **Durability.** When a cache directory is configured, every
//! (re-)analyzed unit is committed to a [`RoundJournal`] at the end of its
//! round. [`Engine::open`] with `resume` replays those records: a unit
//! whose current on-disk source still hashes to its record's cache key is
//! restored without analysis, so a daemon killed mid-round (`kill -9`,
//! OOM, a supervised panic) warm-restarts in time proportional to the
//! interrupted round's frontier, not the corpus — and, because analysis is
//! a pure function of (source, options), replay preserves the convergence
//! invariant exactly.

use crate::journal::RoundJournal;
use sga_core::interface::UnitInterface;
use sga_diag::baseline::{self, BaselineDiff};
use sga_diag::Diagnostic;
use sga_pipeline::{
    analyze_units, assemble_report, load_project, store, unit_cache_key, Cache, PipelineError,
    PipelineOptions, Project, UnitInput,
};
use sga_utils::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One unit's live state inside the daemon.
struct UnitState {
    /// Current source text (mirrors the file on disk).
    source: String,
    /// Rendered per-unit report object, normalized so the accumulated
    /// report matches a cold cache-less run byte for byte: the `cache`
    /// field (when present — crashed units have none) reads `"off"`.
    json: Json,
    /// The unit's open and discharged diagnostics (empty when it crashed).
    diags: Vec<Diagnostic>,
    /// The unit's link boundary (empty when it crashed).
    interface: UnitInterface,
}

/// What one edit round produced.
#[derive(Clone, Debug, Default)]
pub struct RoundOutcome {
    /// Units whose new source was applied this round, name-sorted.
    pub edited: Vec<String>,
    /// Units re-analyzed this round: the edited units plus everything the
    /// invalidation worklist reached, name-sorted.
    pub invalidated: Vec<String>,
    /// Corpus-wide alarm diff, before vs after the round.
    pub diff: BaselineDiff,
    /// Open alarms across the corpus after the round.
    pub alarms: usize,
}

impl RoundOutcome {
    /// Whether the round did anything (no-op edits produce no round).
    pub fn is_noop(&self) -> bool {
        self.edited.is_empty()
    }
}

/// Faults to inject into one edit round — the serve-side projection of a
/// [`sga_pipeline::FaultPlan`] directive keyed by round number. Injection
/// happens on the engine thread *after* the round's sources are persisted
/// to the corpus directory, so a faulted round never loses an
/// acknowledged edit: the supervisor's recovery re-reads the directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundFault {
    /// Panic the engine thread (exercises supervision).
    pub panic: bool,
    /// Sleep this long before analyzing (opens a deterministic overload /
    /// kill window).
    pub stall_ms: Option<u64>,
}

impl RoundFault {
    /// No injection.
    pub fn none() -> RoundFault {
        RoundFault::default()
    }
}

/// The incremental analysis engine behind `sga serve`.
pub struct Engine {
    dir: PathBuf,
    options: PipelineOptions,
    cache: Option<Cache>,
    journal: Option<RoundJournal>,
    units: BTreeMap<String, UnitState>,
    rounds: usize,
    resumed: usize,
}

impl Engine {
    /// Loads the corpus at `dir` and performs the initial (cache-warming)
    /// analysis of every unit. `options.canonical` is forced on — the
    /// daemon's report is defined as the canonical one. Equivalent to
    /// [`Engine::open`] with `resume` off.
    pub fn new(dir: &Path, options: &PipelineOptions) -> Result<Engine, PipelineError> {
        Engine::open(dir, options, false)
    }

    /// Loads the corpus at `dir`, replaying the round journal when `resume`
    /// is set: units whose on-disk source still matches a journaled record
    /// are restored verbatim, the rest (including units a crash caught
    /// mid-round) are analyzed. Without `resume` the journal is cleared —
    /// a fresh start owns it. The journal lives at `serve-journal/` under
    /// the cache root, or nowhere (no durability, `resume` then degrades to
    /// a cold start).
    pub fn open(
        dir: &Path,
        options: &PipelineOptions,
        resume: bool,
    ) -> Result<Engine, PipelineError> {
        let mut options = options.clone();
        options.canonical = true;
        options.baseline = None;
        let cache = match &options.cache_dir {
            Some(cdir) => {
                let mut c = Cache::open(cdir).map_err(|e| {
                    PipelineError::Io(format!("cannot open cache {}: {e}", cdir.display()))
                })?;
                c.set_max_entries(options.cache_max_entries);
                Some(c)
            }
            None => None,
        };
        let journal = match &options.cache_dir {
            Some(cdir) => {
                let jdir = cdir.join("serve-journal");
                Some(RoundJournal::open(&jdir).map_err(|e| {
                    PipelineError::Io(format!("cannot open journal {}: {e}", jdir.display()))
                })?)
            }
            None => None,
        };
        let inputs = load_project(&Project::Dir(dir.to_path_buf()))?;
        let mut engine = Engine {
            dir: dir.to_path_buf(),
            options,
            cache,
            journal,
            units: BTreeMap::new(),
            rounds: 0,
            resumed: 0,
        };

        // Partition the corpus into journal hits (restored verbatim) and
        // misses (analyzed now). A non-resume start analyzes everything.
        let saved = match (&engine.journal, resume) {
            (Some(j), true) => j.load(),
            (Some(j), false) => {
                j.clear().map_err(|e| {
                    PipelineError::Io(format!("cannot clear journal {}: {e}", j.dir().display()))
                })?;
                BTreeMap::new()
            }
            (None, _) => BTreeMap::new(),
        };
        let mut misses: Vec<UnitInput> = Vec::new();
        for input in inputs {
            match saved.get(&input.name) {
                Some(rec) if rec.key == unit_cache_key(&engine.options, &input.source) => {
                    engine.units.insert(
                        input.name.clone(),
                        UnitState {
                            source: input.source,
                            json: rec.json.clone(),
                            diags: rec.diags.clone(),
                            interface: rec.interface.clone(),
                        },
                    );
                    engine.resumed += 1;
                }
                _ => misses.push(input),
            }
        }
        let outcomes = analyze_units(&misses, &engine.options, engine.cache.as_ref());
        for (input, out) in misses.into_iter().zip(outcomes) {
            let state = state_of(input.source, out);
            engine.journal_unit(&input.name, &state);
            engine.units.insert(input.name, state);
        }
        if let Some(j) = &engine.journal {
            let units = &engine.units;
            j.retain(&|name| units.contains_key(name));
        }
        if let Some(c) = &engine.cache {
            c.sweep_lru();
        }
        Ok(engine)
    }

    /// The corpus directory the engine mirrors.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The engine's (massaged) analysis options — what a supervisor passes
    /// back to [`Engine::open`] to rebuild a poisoned engine.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// Unit names, in report order.
    pub fn unit_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }

    /// Completed (non-no-op) edit rounds so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Units restored from the round journal at open (0 without `resume`).
    pub fn resumed_units(&self) -> usize {
        self.resumed
    }

    /// Open alarms across the corpus right now.
    pub fn alarms(&self) -> usize {
        self.units
            .values()
            .flat_map(|u| &u.diags)
            .filter(|d| d.is_open())
            .count()
    }

    /// The current source of `unit`, if loaded.
    pub fn source_of(&self, unit: &str) -> Option<&str> {
        self.units.get(unit).map(|u| u.source.as_str())
    }

    /// The accumulated whole-project report — canonical, and byte-identical
    /// to [`cold_report`] of the corpus directory's current state.
    pub fn report(&self) -> Result<Json, PipelineError> {
        let units_json: Vec<Json> = self.units.values().map(|u| u.json.clone()).collect();
        // Report options describe what the accumulated objects *are* — a
        // canonical cache-less run — not how the daemon computed them.
        let mut opts = self.options.clone();
        opts.cache_dir = None;
        assemble_report(units_json, &opts)
    }

    /// Applies a batch of edits (`(unit name, new source)`, last write wins
    /// per unit) as one round: writes the sources to the corpus directory,
    /// re-analyzes the edited units, then walks the invalidation frontier —
    /// units importing a symbol whose exported interface changed — to a
    /// fixpoint, each unit at most once per round. Unknown names create new
    /// units. Edits whose source matches the current state are dropped; an
    /// all-no-op batch returns a no-op outcome and counts no round.
    pub fn apply_edits(
        &mut self,
        edits: Vec<(String, String)>,
    ) -> Result<RoundOutcome, PipelineError> {
        self.apply_edits_injected(edits, RoundFault::none())
    }

    /// [`Engine::apply_edits`] with deterministic fault injection: the
    /// fault fires after the round's sources are persisted (so no
    /// acknowledged edit is ever lost) and before analysis. A no-op batch
    /// returns before the injection point — faults aimed at no-op rounds
    /// do not fire.
    pub fn apply_edits_injected(
        &mut self,
        edits: Vec<(String, String)>,
        fault: RoundFault,
    ) -> Result<RoundOutcome, PipelineError> {
        let mut latest: BTreeMap<String, String> = BTreeMap::new();
        for (name, source) in edits {
            latest.insert(name, source);
        }
        latest.retain(|name, source| self.units.get(name).is_none_or(|u| u.source != *source));
        if latest.is_empty() {
            return Ok(RoundOutcome {
                alarms: self.alarms(),
                ..RoundOutcome::default()
            });
        }

        let before: Vec<Diagnostic> = self
            .units
            .values()
            .flat_map(|u| u.diags.iter().cloned())
            .collect();

        // Persist first: the corpus directory is the ground truth the
        // convergence anchor (a cold batch run) reads — and what the
        // supervisor or a `--resume` restart recovers from.
        for (name, source) in &latest {
            // Atomic, so a concurrently-started cold run never reads a
            // half-written source.
            store::write_atomic(&self.dir.join(name), source.as_bytes())
                .map_err(|e| PipelineError::Io(format!("cannot write {name}: {e}")))?;
        }

        if let Some(ms) = fault.stall_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if fault.panic {
            panic!("injected fault: engine round panic");
        }

        let edited: Vec<String> = latest.keys().cloned().collect();
        let mut done: BTreeSet<String> = BTreeSet::new();
        let mut frontier: BTreeSet<String> = latest.keys().cloned().collect();
        let sources: BTreeMap<String, String> = latest;
        while !frontier.is_empty() {
            let batch: Vec<UnitInput> = frontier
                .iter()
                .map(|name| UnitInput {
                    name: name.clone(),
                    source: sources
                        .get(name)
                        .map(String::as_str)
                        .or_else(|| self.source_of(name))
                        .unwrap_or_default()
                        .to_string(),
                })
                .collect();
            let outcomes = analyze_units(&batch, &self.options, self.cache.as_ref());

            let mut changed: BTreeSet<String> = BTreeSet::new();
            for (input, out) in batch.into_iter().zip(outcomes) {
                let state = state_of(input.source, out);
                let old_iface = self
                    .units
                    .get(&input.name)
                    .map(|u| u.interface.clone())
                    .unwrap_or_default();
                changed.extend(state.interface.changed_exports(&old_iface));
                self.units.insert(input.name, state);
            }
            done.append(&mut frontier);

            // The next frontier: units whose imports include a changed
            // symbol. Re-analysis of an unedited unit reproduces its
            // interface, so in practice this converges after one hop — but
            // the worklist form keeps the rule locally obvious.
            frontier = self
                .units
                .iter()
                .filter(|(name, state)| {
                    !done.contains(*name)
                        && changed.iter().any(|s| state.interface.imports_symbol(s))
                })
                .map(|(name, _)| name.clone())
                .collect();
        }

        // Commit the round's results to the journal. A kill between the
        // source writes above and here leaves stale records whose keys no
        // longer match the on-disk sources — resume recomputes exactly
        // those units.
        for name in &done {
            if let Some(state) = self.units.get(name) {
                self.journal_unit(name, state);
            }
        }

        let after: Vec<&Diagnostic> = self.units.values().flat_map(|u| &u.diags).collect();
        let diff = baseline::diff_open(after.iter().copied(), &before);
        let alarms = after.iter().filter(|d| d.is_open()).count();
        self.rounds += 1;
        if let Some(c) = &self.cache {
            c.sweep_lru();
        }
        Ok(RoundOutcome {
            edited,
            invalidated: done.into_iter().collect(),
            diff,
            alarms,
        })
    }

    /// Best-effort journal commit of one unit's state — a failed write only
    /// costs the next restart a recompute, mirroring a failed cache store.
    fn journal_unit(&self, name: &str, state: &UnitState) {
        if let Some(j) = &self.journal {
            let key = unit_cache_key(&self.options, &state.source);
            let _ = j.record(name, key, &state.json, &state.diags, &state.interface);
        }
    }
}

/// Builds a unit's live state from one analysis outcome.
fn state_of(source: String, out: sga_pipeline::UnitOutcome) -> UnitState {
    let mut json = out.json;
    if json.get("cache").is_some() {
        json.set("cache", "off");
    }
    let (diags, interface) = match out.analysis {
        Some(a) => (a.diags.clone(), a.interface.clone()),
        None => (Vec::new(), UnitInterface::default()),
    };
    UnitState {
        source,
        json,
        diags,
        interface,
    }
}

/// The convergence anchor: a fresh cold batch run of `dir` under the same
/// analysis options, cache off, canonical report.
pub fn cold_report(dir: &Path, options: &PipelineOptions) -> Result<Json, PipelineError> {
    let mut opts = options.clone();
    opts.cache_dir = None;
    opts.cache_max_entries = None;
    opts.canonical = true;
    opts.baseline = None;
    opts.resume = false;
    sga_pipeline::run(&Project::Dir(dir.to_path_buf()), &opts)
}
