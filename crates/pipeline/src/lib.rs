//! `sga-pipeline` — a parallel, cache-aware batch analysis driver.
//!
//! The single-file `sga` analyzer runs one translation unit end to end.
//! This crate drives the same sparse analysis over a *project* — a
//! directory of C files, or a generated corpus — with three additions:
//!
//! 1. **Units in parallel.** Up to `jobs` units are analyzed at once, each
//!    on one scoped worker thread. A unit runs `sga-core`'s own passes in
//!    sequence — pre-analysis, def/use, dependency generation, the sparse
//!    fixpoint, checkers, triage — each under a stage timer. See
//!    [`mod@unit`].
//! 2. **Content-hash caching.** Each unit's analysis — its diagnostics,
//!    link interface, fixpoint fingerprint and counts, exactly what a hit
//!    returns — is persisted to an on-disk cache keyed by a hash of the
//!    unit's source and the analysis options; an unchanged unit is never
//!    re-analyzed. The cache and the journal are codecs over one sealed
//!    directory ([`store`]). See [`cache`].
//! 3. **Machine-readable reports.** Every run produces a deterministic JSON
//!    report (per-unit alarms and statistics, cache hit rate, per-stage
//!    wall time) consumed by `sga analyze` and the benchmark harness.
//!
//! Determinism is a hard invariant: a unit's analysis is sequential, and the
//! unit loop merges results in input order ([`par::run_indexed`]), so the
//! report — timings aside — is byte-identical for any `--jobs` value. The
//! `canonical` option drops the timing and job-count fields, making the
//! *entire* report byte-comparable.
//!
//! The driver is also **fault-tolerant**: a panicking unit is isolated with
//! `catch_unwind` and recorded as a `crashed` outcome while the rest of the
//! batch completes (`keep_going`, the default), fixpoints run under an
//! optional [`sga_core::budget::Budget`] and degrade soundly instead of
//! running away, and the cache self-heals from damaged entries (see
//! [`cache`]). The [`fault`] module injects all of these failure modes
//! deterministically for testing.
//!
//! Batch runs are **durable** and **checkable**:
//!
//! * Each completed unit is committed to a write-ahead [`journal`] before
//!   its cache store; `resume` replays those records so a run killed by
//!   anything — OOM, SIGKILL, a CI timeout — restarts where it stopped and
//!   still produces a byte-identical report.
//! * SIGINT/SIGTERM (see [`interrupt`]) drain in-flight workers, skip
//!   unclaimed units, and flush a partial report marked `interrupted`.
//! * `validate` runs the independent post-fixpoint oracle of
//!   [`sga_core::validate`] over every unit (including cache hits, which are
//!   cross-checked against a recomputation); a violated contract becomes the
//!   `invalid` outcome, which is never cached.

pub mod cache;
pub mod fault;
pub mod interrupt;
pub mod journal;
mod options;
pub mod par;
pub mod store;
pub mod unit;
pub mod worker;

#[cfg(test)]
mod testfix;

pub use cache::Cache;
pub use fault::FaultPlan;
pub use journal::Journal;
pub use options::PipelineOptions;
pub use unit::{analyze_unit, UnitAnalysis, UnitInternals};
pub use worker::IsolationMode;

use journal::JournalRecord;
use sga_core::budget::Budget;
use sga_core::validate::{self, CheckKind, UnitValidation};
use sga_utils::stats::{Stage, StageTimes};
use sga_utils::{fxhash, Json};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe, PanicHookInfo};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Report schema version (`"schema"` field of the emitted JSON).
///
/// v5, later: the `--validate`-only `validation` block lost `lemma1_equal`,
/// `lemma1_drift` and `lemma1_skipped`; `lemma1_bindings` now counts
/// [`sga_core::validate::check_lemma1`]'s constant-propagation comparison.
///
/// v5: discharge records carry a `method` (`octagon` | `path_infeasible`;
/// absent in older reports means `octagon`) with path discharges' proving
/// packs naming the dominating guard chain; totals grow `discharged_path`;
/// the options block grows `triage` (the [`sga_core::triage::TriageMode`]
/// that ran).
///
/// v4: stringly per-unit `alarms` replaced by structured `diagnostics`
/// (the [`sga_diag::Diagnostic`] JSON shape: kind, control point, line,
/// subject, evidence, open/discharged status with the proving pack, and a
/// stable content fingerprint); units gain `triage_degraded`; totals grow
/// `alarms` (open diagnostics), `discharged`, and `definite`; runs under
/// `--baseline` carry a `baseline` block (`new`/`fixed`/`unchanged`/
/// `new_definite`) and every open diagnostic an individual `baseline`
/// classification.
///
/// v3: per-unit outcomes grow `invalid` (oracle violation) and `skipped`
/// (graceful shutdown before the unit was claimed); totals grow `invalid`,
/// `validated`, and `skipped`; a top-level `interrupted` flag is always
/// present; analyzed units may carry a `validation` block; non-canonical
/// reports may carry a `journal` block.
///
/// v2: per-unit `outcome` (`ok` | `degraded` | `crashed`, with `error` on
/// crashes), `degraded`/`crashed` totals, and a `cache_health` block in
/// non-canonical reports.
pub const REPORT_SCHEMA: u32 = 5;

/// What to analyze.
#[derive(Clone, Debug)]
pub enum Project {
    /// Every `*.c` file directly inside a directory, in name order.
    Dir(PathBuf),
    /// A deterministic generated corpus: `units` translation units of
    /// roughly `kloc` thousand lines each, seeded from `seed`.
    Corpus {
        units: usize,
        kloc: usize,
        seed: u64,
    },
}

/// One translation unit, loaded.
#[derive(Clone, Debug)]
pub struct UnitInput {
    /// Display name (file name, or `unitNNN` for corpus members).
    pub name: String,
    /// C source text.
    pub source: String,
}

/// Why a run failed outright. With `keep_going` (the default) per-unit
/// failures are *recorded* in the report instead; only I/O errors — or any
/// unit failure under `fail-fast` — abort the run.
#[derive(Debug)]
pub enum PipelineError {
    /// Filesystem trouble (project loading or cache directory creation).
    Io(String),
    /// A unit did not parse (fail-fast mode only).
    Frontend {
        /// The offending unit.
        unit: String,
        /// Rendered frontend error.
        message: String,
    },
    /// A unit's worker panicked (fail-fast mode only).
    Crashed {
        /// The offending unit.
        unit: String,
        /// Rendered panic payload.
        message: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(m) => write!(f, "{m}"),
            PipelineError::Frontend { unit, message } => write!(f, "{unit}: {message}"),
            PipelineError::Crashed { unit, message } => {
                write!(f, "{unit}: analysis crashed: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Resolves a requested job count: `0` means the machine's available
/// parallelism (1 when it cannot be determined), anything else is taken
/// literally. The report stays byte-identical across job counts either way,
/// so auto-detection never costs determinism.
pub fn effective_jobs(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Loads a project's translation units in deterministic order.
pub fn load_project(project: &Project) -> Result<Vec<UnitInput>, PipelineError> {
    match project {
        Project::Dir(dir) => {
            let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| PipelineError::Io(format!("cannot read {}: {e}", dir.display())))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "c"))
                .collect();
            names.sort();
            names
                .into_iter()
                .map(|path| {
                    let source = std::fs::read_to_string(&path).map_err(|e| {
                        PipelineError::Io(format!("cannot read {}: {e}", path.display()))
                    })?;
                    let name = path.file_name().map_or_else(
                        || path.display().to_string(),
                        |n| n.to_string_lossy().into_owned(),
                    );
                    Ok(UnitInput { name, source })
                })
                .collect()
        }
        Project::Corpus { units, kloc, seed } => Ok((0..*units)
            .map(|i| UnitInput {
                name: format!("unit{i:03}"),
                source: sga_cgen::generate(&sga_cgen::GenConfig::sized(seed + i as u64, *kloc)),
            })
            .collect()),
    }
}

/// How a unit's artifacts were obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheStatus {
    Hit,
    Miss,
    Off,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Off => "off",
        }
    }
}

/// Renders a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Violations rendered per unit before the rest are summarized by count.
const MAX_RENDERED_VIOLATIONS: usize = 16;

/// The per-unit `validation` block: check sizes (so "passed" is visibly
/// distinct from "checked nothing") and rendered violations.
fn validation_json(v: &UnitValidation) -> Json {
    let all: Vec<String> = v.violations().map(|x| x.render()).collect();
    let shown: Vec<Json> = all
        .iter()
        .take(MAX_RENDERED_VIOLATIONS)
        .map(|s| Json::from(s.as_str()))
        .collect();
    let mut j = Json::obj()
        .with("interval_points", v.interval.points)
        .with("octagon_points", v.octagon.points)
        .with("lemma1_bindings", v.lemma1.bindings)
        .with("defuse_points", v.defuse.points)
        .with("violations", shown);
    let hidden = all.len().saturating_sub(MAX_RENDERED_VIOLATIONS) + v.suppressed();
    if hidden > 0 {
        j.set("violations_suppressed", hidden);
    }
    j
}

/// The per-unit report object of an analyzed (possibly degraded or invalid)
/// unit.
fn render_analyzed(
    name: &str,
    key: u64,
    status: CacheStatus,
    a: &UnitAnalysis,
    validation: Option<&UnitValidation>,
) -> Json {
    let invalid = validation.is_some_and(|v| !v.is_valid());
    let outcome = if invalid {
        "invalid"
    } else if a.degraded {
        "degraded"
    } else {
        "ok"
    };
    let mut j = Json::obj()
        .with("name", name)
        .with("outcome", outcome)
        .with("source_hash", format!("{key:016x}"))
        .with("procs", a.procs)
        .with("locs", a.num_locs)
        .with("dep_edges_raw", a.dep_edges_raw)
        .with("dep_edges", a.dep_edges)
        .with("iterations", a.iterations)
        .with("fingerprint", format!("{:016x}", a.fingerprint))
        .with("cache", status.as_str())
        .with("triage_degraded", a.triage_degraded)
        .with(
            "diagnostics",
            a.diags
                .iter()
                .map(sga_diag::Diagnostic::to_json)
                .collect::<Vec<_>>(),
        );
    if let Some(v) = validation {
        j.set("validation", validation_json(v));
    }
    j
}

/// The per-unit report object of a unit a graceful shutdown skipped.
fn render_skipped(name: &str) -> Json {
    Json::obj()
        .with("name", name)
        .with("outcome", "skipped")
        .with("diagnostics", Vec::<Json>::new())
}

/// The `(fingerprint, open-and-definite)` pairs of every *open* diagnostic
/// in a report's `units` array, in report order. Discharged diagnostics
/// never participate in baseline matching: an alarm the octagon proved
/// impossible is not an outstanding finding on either side of the diff.
fn open_fingerprints(units: &[Json]) -> Vec<(u64, bool)> {
    let mut out = Vec::new();
    for u in units {
        for d in u.get("diagnostics").and_then(Json::as_arr).unwrap_or(&[]) {
            if d.get("status").and_then(Json::as_str) != Some("open") {
                continue;
            }
            if let Some(fp) = d
                .get("fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            {
                let definite = d.get("definite").and_then(Json::as_bool) == Some(true);
                out.push((fp, definite));
            }
        }
    }
    out
}

/// Loads the baseline report at `path`, classifies this run's open
/// diagnostics against it by fingerprint (annotating each with a
/// `baseline` field), and returns the report's `baseline` block.
fn apply_baseline(path: &std::path::Path, units_json: &mut [Json]) -> Result<Json, PipelineError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PipelineError::Io(format!("cannot read baseline {}: {e}", path.display())))?;
    let old = Json::parse(&text).map_err(|e| {
        PipelineError::Io(format!(
            "baseline {} is not valid JSON: {e}",
            path.display()
        ))
    })?;
    let old_units = old.get("units").and_then(Json::as_arr).ok_or_else(|| {
        PipelineError::Io(format!(
            "baseline {} has no `units` array (not an sga-pipeline report?)",
            path.display()
        ))
    })?;
    let base: Vec<u64> = open_fingerprints(old_units)
        .into_iter()
        .map(|(fp, _)| fp)
        .collect();
    let current = open_fingerprints(units_json);
    let (classes, diff) = sga_diag::baseline::classify(&current, &base);

    let mut k = 0;
    for u in units_json.iter_mut() {
        let Json::Obj(fields) = u else { continue };
        let Some(Json::Arr(diags)) = fields
            .iter_mut()
            .find(|(key, _)| key == "diagnostics")
            .map(|(_, v)| v)
        else {
            continue;
        };
        for d in diags.iter_mut() {
            if d.get("status").and_then(Json::as_str) == Some("open") {
                d.set("baseline", classes[k]);
                k += 1;
            }
        }
    }
    debug_assert_eq!(k, classes.len());
    Ok(diff.to_json())
}

/// Shared per-worker context of [`process_unit`].
struct UnitCtx<'a> {
    options: &'a PipelineOptions,
    cache: Option<&'a Cache>,
}

/// What [`process_unit`] produced for one unit.
struct Processed {
    /// The rendered per-unit report object.
    json: Json,
    /// Failure class and message, when the unit crashed.
    failure: Option<(journal::Failure, String)>,
    /// The artifacts (`None` when the unit crashed or was replayed, and
    /// once [`run`] has stored them).
    analysis: Option<Box<UnitAnalysis>>,
    /// The artifacts are fresh and cacheable (a miss that validated). The
    /// *caller* performs the store, so write-ahead ordering — journal
    /// record before cache store — stays in its hands.
    store: bool,
    /// Where the unit's time went, in whichever process analyzed it
    /// (nothing, for a unit replayed from the journal).
    times: StageTimes,
}

impl Processed {
    /// A unit that crashed (its frontend rejected it, or it panicked): the
    /// report object, rendering `key` as its `source_hash`, and the
    /// failure; no artifacts.
    fn crashed(
        name: &str,
        key: u64,
        failure: (journal::Failure, String),
        times: StageTimes,
    ) -> Self {
        let json = Json::obj()
            .with("name", name)
            .with("outcome", "crashed")
            .with("source_hash", format!("{key:016x}"))
            .with("error", failure.1.as_str())
            .with("diagnostics", Vec::<Json>::new());
        Processed {
            json,
            failure: Some(failure),
            analysis: None,
            store: false,
            times,
        }
    }
}

/// Analyzes one unit end to end — cache lookup, parse, fixpoint, optional
/// validation oracle, panic isolation — and renders its report object.
/// [`step`] calls it for the batch driver and the incremental daemon alike,
/// so both produce byte-identical per-unit objects from identical inputs;
/// an isolated worker calls it in thread mode.
fn process_unit(
    ctx: &UnitCtx,
    i: usize,
    input: &UnitInput,
    key: u64,
    render_key: u64,
    budget: &Budget,
) -> Processed {
    let options = ctx.options;
    let cache = ctx.cache;

    // Process isolation: ship the unit to a supervised worker process (the
    // worker runs this same function in thread mode). Everything after —
    // journal ordering, cache store, report assembly — is isolation-blind.
    if options.isolation == IsolationMode::Process {
        return worker::run_unit_in_worker(ctx, i, input, key, render_key, budget);
    }
    // The unit's process-killing faults fire where it runs: in a batch
    // thread, or inside an isolated worker's limits.
    options.faults.fire_fatal(i);

    type Analyzed = (CacheStatus, Box<UnitAnalysis>, Option<UnitValidation>);
    let mut times = StageTimes::default();
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<Analyzed, String> {
        if options.faults.should_panic(i) {
            panic!("injected fault: worker panic in {}", input.name);
        }
        let mut cached_hit: Option<Box<UnitAnalysis>> = None;
        if let Some(c) = cache {
            if let cache::LoadOutcome::Hit(found) = c.load(&input.name, key) {
                if options.validate {
                    // Under the oracle a hit is a *claim* — held back and
                    // cross-checked against a recomputation below. The
                    // envelope checksum cannot catch an entry whose content
                    // was wrong before it was sealed.
                    cached_hit = Some(found);
                } else {
                    return Ok((CacheStatus::Hit, found, None));
                }
            }
        }
        let program = times
            .time(Stage::Parse, || sga_cfront::parse(&input.source))
            .map_err(|e| e.to_string())?;
        let (analysis, internals) = unit::analyze_unit(&program, options, budget);
        times.merge(&internals.solved.stats.times);
        let missed = if cache.is_some() {
            CacheStatus::Miss
        } else {
            CacheStatus::Off
        };
        if !options.validate {
            return Ok((missed, Box::new(analysis), None));
        }
        let mut validation = times.time(Stage::Validate, || {
            let staged = &internals.staged;
            validate::validate_rows(
                &program,
                &staged.pre,
                &staged.icfg,
                &staged.du,
                &staged.deps,
                &internals.solved.rows,
                options.analyze_options(budget),
            )
        });
        let status = match cached_hit {
            Some(cached) if *cached == analysis => CacheStatus::Hit,
            Some(cached) => {
                validation.add_extra(
                    CheckKind::CacheMismatch,
                    format!(
                        "cached entry (fingerprint {:016x}) disagrees with \
                         recomputation (fingerprint {:016x})",
                        cached.fingerprint, analysis.fingerprint,
                    ),
                );
                if let Some(c) = cache {
                    c.quarantine_entry(&input.name, key);
                }
                CacheStatus::Miss
            }
            None => missed,
        };
        Ok((status, Box::new(analysis), Some(validation)))
    }));

    match caught {
        Ok(Ok((status, a, validation))) => {
            let invalid = validation.as_ref().is_some_and(|v| !v.is_valid());
            let json = render_analyzed(&input.name, render_key, status, &a, validation.as_ref());
            Processed {
                json,
                failure: None,
                // Invalid results are never cached; hits already are.
                store: status == CacheStatus::Miss && !invalid,
                analysis: Some(a),
                times,
            }
        }
        Ok(Err(message)) => {
            let failure = (journal::Failure::Frontend, message);
            Processed::crashed(&input.name, render_key, failure, times)
        }
        Err(payload) => {
            let failure = (journal::Failure::Panic, panic_message(&*payload));
            Processed::crashed(&input.name, render_key, failure, times)
        }
    }
}

/// One unit through the driver, shared by [`run`] and [`analyze_units`]:
/// its budget and keys (`tag` is the options' semantic tag, computed once
/// per run), then `before`, which may answer for the unit (the
/// batch driver's journal replay and fault decisions), else
/// [`process_unit`], `commit` (the batch driver's write-ahead journal
/// record) and the cache store.
fn step(
    ctx: &UnitCtx,
    tag: &str,
    i: usize,
    input: &UnitInput,
    before: impl FnOnce(u64) -> Option<Processed>,
    commit: impl FnOnce(u64, &Processed),
) -> Processed {
    let options = ctx.options;
    // An injected budget changes the unit's analysis semantics, so it
    // participates in that unit's keys — a faulted run never hits an entry
    // the fault-free run stored, and vice versa.
    let budget = options.faults.budget_for(i).unwrap_or(options.budget);
    let (key, render_key) = unit_keys(tag, &input.source, &budget);
    if let Some(p) = before(key) {
        return p;
    }
    let p = process_unit(ctx, i, input, key, render_key, &budget);
    commit(key, &p);
    if let (true, Some(c), Some(a)) = (p.store, ctx.cache, &p.analysis) {
        // A store failure is retried inside the cache and, if it sticks,
        // counted in cache health; it only costs the next run its hit.
        let _ = c.store_injected(&input.name, key, a, options.faults.io_fail_count(i));
        if let Some(mode) = options.faults.corruption_for(i) {
            let _ = c.corrupt_entry(&input.name, key, mode);
        }
    }
    p
}

/// The panic hook, silenced while this lives when `on` (under
/// `keep_going`, and around a daemon round): the panics are then expected,
/// caught and recorded, and one bad unit must not flood stderr with
/// backtraces. Dropping it puts the previous hook back, on every exit path
/// but an unwinding one (a panicking thread may not swap the hook).
pub struct QuietPanics(Option<PanicHook>);

/// What [`std::panic::take_hook`] hands back.
type PanicHook = Box<dyn Fn(&PanicHookInfo<'_>) + Sync + Send>;

impl QuietPanics {
    /// Silences the hook when `on`; otherwise leaves it alone.
    pub fn new(on: bool) -> QuietPanics {
        QuietPanics(on.then(|| {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            hook
        }))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(hook) = self.0.take().filter(|_| !std::thread::panicking()) {
            std::panic::set_hook(hook);
        }
    }
}

/// Version component of the rendered `source_hash`, frozen at the cache
/// format the two were split at: the hash names a (source, result-shaping
/// options) pair in canonical reports, so a bump of an on-disk format —
/// which changes no analysis result — must not move a report byte.
const RENDERED_HASH_VERSION: u32 = 5;

/// The two hashes of a unit with this `source` under the options' semantic
/// `tag` and `budget`, both over source × tag × budget: the cache and
/// journal lookup key, which also carries [`cache::CACHE_FORMAT`], and the
/// `source_hash` its report object renders, which carries
/// [`RENDERED_HASH_VERSION`] instead so no on-disk format moves a report.
fn unit_keys(tag: &str, source: &str, budget: &Budget) -> (u64, u64) {
    let tag = format!("{tag}|{}", budget.cache_tag());
    (
        fxhash::hash_one(&(cache::CACHE_FORMAT, tag.as_str(), source)),
        fxhash::hash_one(&(RENDERED_HASH_VERSION, tag.as_str(), source)),
    )
}

/// The full per-unit cache key under `options` for a unit with this
/// `source`: the batch driver's key exactly. An adapter for the benchmark
/// harness and tests (DESIGN.md §3, "Frozen for the harness"); the product
/// derives its keys inside [`analyze_units`] and [`run`]. Per-unit fault
/// budget overrides are a batch-driver concern and are not applied here.
pub fn unit_cache_key(options: &PipelineOptions, source: &str) -> u64 {
    unit_keys(&options.routes().tag, source, &options.budget).0
}

/// One unit's result from [`analyze_units`].
pub struct UnitOutcome {
    /// The rendered per-unit report object — the same shape as an entry of
    /// a [`run`] report's `units` array.
    pub json: Json,
    /// The analysis artifacts; `None` when the unit crashed.
    pub analysis: Option<Box<UnitAnalysis>>,
    /// The rendered frontend error or panic payload, when the unit crashed.
    pub failure: Option<String>,
}

/// Analyzes an arbitrary set of units under `options`, sharing `cache` when
/// given — the incremental daemon's entry point for re-analyzing just the
/// invalidated frontier of a project. Unlike [`run`] there is no journal
/// and no report assembly: the caller gets each unit's rendered object plus
/// its in-memory artifacts and maintains project state itself (see
/// [`assemble_report`]). Determinism matches [`run`]: results come back in
/// input order, byte-identical for any `options.jobs`, and cache keys are
/// computed identically, so the daemon and a cold batch run share entries.
pub fn analyze_units(
    units: &[UnitInput],
    options: &PipelineOptions,
    cache: Option<&Cache>,
) -> Vec<UnitOutcome> {
    let ctx = UnitCtx { options, cache };
    let tag = options.routes().tag;
    let _quiet = QuietPanics::new(options.keep_going);
    par::run_indexed(effective_jobs(options.jobs), units, |i, input| {
        let p = step(&ctx, &tag, i, input, |_| None, |_, _| {});
        UnitOutcome {
            json: p.json,
            analysis: p.analysis,
            failure: p.failure.map(|(_, message)| message),
        }
    })
}

/// Assembles the run report from per-unit report objects — the same
/// aggregation [`run`] uses, exposed so the incremental daemon can rebuild
/// the whole-project report from accumulated per-unit state. `units_json`
/// must hold one entry per unit, in project order (with the `skipped`
/// outcome for units a shutdown drained). Produces the canonical fields
/// only (`schema` through `interrupted`, plus `baseline` when
/// `options.baseline` is set); [`run`] appends the non-canonical extras
/// (journal, cache health, timing) itself.
pub fn assemble_report(
    mut units_json: Vec<Json>,
    options: &PipelineOptions,
) -> Result<Json, PipelineError> {
    let (mut procs, mut alarms, mut hits, mut misses) = (0usize, 0usize, 0usize, 0usize);
    let (mut discharged, mut discharged_path, mut definite) = (0usize, 0usize, 0usize);
    let (mut degraded_units, mut crashed_units, mut invalid_units) = (0usize, 0usize, 0usize);
    let (mut validated_units, mut skipped_units) = (0usize, 0usize);
    // Totals aggregate over the rendered objects (rather than over
    // in-memory analysis values) so replayed and daemon-accumulated units
    // count exactly like the run that produced them.
    for j in &units_json {
        let outcome = j.get("outcome").and_then(Json::as_str).unwrap_or("");
        let nprocs = j.get("procs").and_then(Json::as_u64).unwrap_or(0) as usize;
        procs += nprocs;
        for d in j.get("diagnostics").and_then(Json::as_arr).unwrap_or(&[]) {
            match d.get("status").and_then(Json::as_str) {
                Some("open") => {
                    alarms += 1;
                    if d.get("definite").and_then(Json::as_bool) == Some(true) {
                        definite += 1;
                    }
                }
                Some("discharged") => {
                    discharged += 1;
                    let method = d
                        .get("discharge")
                        .and_then(|x| x.get("method"))
                        .and_then(Json::as_str);
                    if method == Some("path_infeasible") {
                        discharged_path += 1;
                    }
                }
                _ => {}
            }
        }
        match outcome {
            "degraded" => degraded_units += 1,
            "crashed" => crashed_units += 1,
            "invalid" => invalid_units += 1,
            "skipped" => skipped_units += 1,
            _ => {}
        }
        if j.get("validation").is_some() && outcome != "invalid" {
            validated_units += 1;
        }
        match j.get("cache").and_then(Json::as_str) {
            Some("hit") => hits += nprocs,
            Some("miss") => misses += nprocs,
            _ => {}
        }
    }
    let interrupted = skipped_units > 0;

    // Run-over-run baseline: classify this run's open diagnostics against
    // the previous report's open fingerprints (multiset match), annotating
    // each one in place.
    let baseline_json = match &options.baseline {
        Some(path) => Some(apply_baseline(path, &mut units_json)?),
        None => None,
    };

    let looked_up = hits + misses;
    let totals = Json::obj()
        .with("units", units_json.len())
        .with("procs", procs)
        .with("alarms", alarms)
        .with("discharged", discharged)
        .with("discharged_path", discharged_path)
        .with("definite", definite)
        .with("degraded", degraded_units)
        .with("crashed", crashed_units)
        .with("invalid", invalid_units)
        .with("validated", validated_units)
        .with("skipped", skipped_units)
        .with("cache_hits", hits)
        .with("cache_misses", misses)
        .with(
            "hit_rate",
            if looked_up == 0 {
                0.0
            } else {
                hits as f64 / looked_up as f64
            },
        );

    let mut report = Json::obj()
        .with("schema", REPORT_SCHEMA)
        .with("tool", "sga-pipeline")
        .with("options", options.routes().report)
        .with("units", units_json)
        .with("totals", totals)
        .with("interrupted", interrupted);
    if let Some(b) = baseline_json {
        report.set("baseline", b);
    }
    Ok(report)
}

/// Runs the whole project and returns the JSON run report.
pub fn run(project: &Project, options: &PipelineOptions) -> Result<Json, PipelineError> {
    let wall = Instant::now();
    let mut times = StageTimes::default();
    let jobs = effective_jobs(options.jobs);

    let units = times.time(Stage::Load, || load_project(project))?;
    let cache = options.open_cache()?;

    // The write-ahead journal lives under the cache root; without a cache
    // there is nothing durable to resume from.
    let journal = match &options.cache_dir {
        Some(dir) => {
            let dir = dir.join("journal");
            Some(Journal::open(&dir).map_err(|e| {
                PipelineError::Io(format!("cannot open journal {}: {e}", dir.display()))
            })?)
        }
        None => None,
    };
    let replay: BTreeMap<usize, JournalRecord> = if options.resume {
        match &journal {
            Some(j) => j.load(),
            None => {
                return Err(PipelineError::Io(
                    "resume needs a journal: enable the cache".into(),
                ))
            }
        }
    } else {
        // A fresh run owns the journal: whatever a previous run left behind
        // (it completed, or nobody resumed it) is stale now.
        if let Some(j) = &journal {
            j.clear().map_err(|e| {
                PipelineError::Io(format!("cannot clear journal {}: {e}", j.dir().display()))
            })?;
        }
        BTreeMap::new()
    };

    let replayed_count = AtomicUsize::new(0);
    let recorded_count = AtomicUsize::new(0);
    // Containment counters are process-wide and cumulative; the report
    // carries this run's movement.
    let isolation_before = worker::stats();
    // Set by the `stop@I` fault; real shutdown requests arrive through
    // `interrupt` (signals). Either drains the batch: in-flight units
    // finish, unclaimed units are skipped.
    let fault_stop = AtomicBool::new(false);
    let stop_requested = || fault_stop.load(Ordering::Relaxed) || interrupt::requested();

    let ctx = UnitCtx {
        options,
        cache: cache.as_ref(),
    };
    let tag = options.routes().tag;
    let quiet = QuietPanics::new(options.keep_going);
    let results: Vec<Option<Processed>> =
        par::run_indexed_interruptible(jobs, &units, stop_requested, |i, input| {
            // A journaled unit is already committed: replay its record
            // verbatim — before fault injection, so a fault that killed the
            // original run cannot re-fire on the unit it already finished.
            let before = |key| {
                if let Some(rec) = replay
                    .get(&i)
                    .filter(|r| r.name == input.name && r.key == key)
                {
                    replayed_count.fetch_add(1, Ordering::Relaxed);
                    let failure = rec.failure.map(|f| {
                        let message = rec.unit.get("error").and_then(Json::as_str);
                        (f, message.unwrap_or_default().to_string())
                    });
                    return Some(Processed {
                        json: rec.unit.clone(),
                        failure,
                        analysis: None,
                        store: false,
                        times: StageTimes::default(),
                    });
                }
                if options.faults.should_stop(i) {
                    fault_stop.store(true, Ordering::Relaxed);
                }
                None
            };
            // Write-ahead ordering: the journal record commits *before* the
            // cache store. A crash between the two re-runs the unit from the
            // journal — never from a cache entry the journal knows nothing
            // about, which would flip the unit's recorded miss into a hit on
            // resume and break byte-identity. A failed record only costs the
            // resume a recompute.
            let commit = |key, p: &Processed| {
                if let Some(j) = &journal {
                    let rec = JournalRecord {
                        index: i,
                        name: input.name.clone(),
                        key,
                        failure: p.failure.as_ref().map(|(f, _)| *f),
                        unit: p.json.clone(),
                    };
                    if j.record(&rec).is_ok() {
                        recorded_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            // The analysis is stored; the report needs only the rest.
            Processed {
                analysis: None,
                ..step(&ctx, &tag, i, input, before, commit)
            }
        });
    drop(quiet);

    // Fail-fast: the first failed unit, in unit order, fails the run.
    let failed = (units.iter().zip(&results))
        .find_map(|(input, slot)| Some((input, slot.as_ref()?.failure.clone()?)))
        .filter(|_| !options.keep_going);
    if let Some((input, (kind, message))) = failed {
        let unit = input.name.clone();
        return Err(match kind {
            journal::Failure::Frontend => PipelineError::Frontend { unit, message },
            journal::Failure::Panic => PipelineError::Crashed { unit, message },
        });
    }

    // Unit-index order, whatever order the units finished in.
    for w in results.iter().flatten() {
        times.merge(&w.times);
    }
    let units_json: Vec<Json> = units
        .iter()
        .zip(results)
        .map(|(input, slot)| match slot {
            Some(w) => w.json,
            None => render_skipped(&input.name),
        })
        .collect();

    // All stores are committed; evict beyond the entry cap (if any),
    // least-recently-accessed first.
    if let Some(c) = &cache {
        c.sweep_lru();
    }

    let mut report = assemble_report(units_json, options)?;
    let interrupted = report.get("interrupted").and_then(Json::as_bool) == Some(true);

    // A completed run retires its journal; an interrupted one leaves it in
    // place for `resume`. (Error paths above return before this point, so
    // fail-fast aborts stay resumable too.)
    if !interrupted {
        if let Some(j) = &journal {
            let _ = j.clear();
        }
    }

    if !options.canonical {
        // Replay/record activity depends on what a *previous* run left
        // behind, so like cache health it stays out of the canonical
        // report — resume byte-identity is over the canonical fields.
        if journal.is_some() {
            report.set(
                "journal",
                Json::obj()
                    .with("replayed", replayed_count.load(Ordering::Relaxed))
                    .with("recorded", recorded_count.load(Ordering::Relaxed)),
            );
        }
        // Self-healing activity varies with prior on-disk state (a corrupt
        // entry quarantined here was stored by an earlier run), so it lives
        // with the other run-specific fields, outside the canonical report.
        if let Some(c) = &cache {
            let health = c.health();
            report.set(
                "cache_health",
                Json::obj()
                    .with("quarantined", health.quarantined)
                    .with("io_retries", health.io_retries)
                    .with("store_errors", health.store_errors)
                    .with("evicted", health.evicted),
            );
        }
        // Containment activity (kills, retries, OOM deaths, supervisor
        // SIGKILLs) depends on injected faults and machine state, never on
        // analysis semantics — non-canonical, like cache health.
        if options.isolation == IsolationMode::Process {
            let moved = worker::stats().since(&isolation_before);
            report.set(
                "isolation",
                Json::obj()
                    .with("killed", moved.killed)
                    .with("retried", moved.retried)
                    .with("oom", moved.oom)
                    .with("stalls", moved.stalls),
            );
        }
        let mut timing = times.to_json();
        timing.set("wall", wall.elapsed().as_secs_f64() * 1000.0);
        report.set("timing_ms", timing);
    }
    Ok(report)
}

#[cfg(test)]
mod tag_tests {
    use super::*;

    /// The options part of the default cache key, pinned to a literal: it
    /// names every entry and journal record on disk, so a change here
    /// abandons every filled cache directory (as dropping the dependency
    /// backend from it did once) and has to be meant.
    #[test]
    fn default_cache_tag_is_pinned() {
        assert_eq!(
            PipelineOptions::default().routes().tag,
            "DepGenOptions { bypass: true }|WideningConfig { strategy: Delayed }|both"
        );
    }

    /// The rendered `source_hash` of a fixed (source, options) pair, pinned
    /// to a literal: it is in every canonical report, so no on-disk format
    /// version (`CACHE_FORMAT` is hashed into the lookup key only) may move
    /// it.
    #[test]
    fn rendered_hash_is_pinned_apart_from_the_cache_format() {
        let options = PipelineOptions::default();
        let source = "int main() { return 0; }";
        assert_eq!(
            unit_keys(&options.routes().tag, source, &options.budget).1,
            0x682b_318b_c1c4_54dd,
        );
    }

    /// A directory left by the format-7 binary: its entries sit under keys
    /// that hashed 7 in, so a run never looks them up — no hit, nothing
    /// quarantined, the report of a run over an empty directory — and
    /// leaves them where they are.
    #[test]
    fn previous_format_directory_is_never_looked_up() {
        let project = Project::Corpus {
            units: 2,
            kloc: 1,
            seed: 11,
        };
        let in_dir = |tag: &str| PipelineOptions {
            cache_dir: Some(testfix::temp_dir(tag)),
            ..PipelineOptions::default()
        };
        let (fresh, stale) = (in_dir("v7-dir-fresh"), in_dir("v7-dir-stale"));
        let cache = Cache::open(stale.cache_dir.as_ref().unwrap()).unwrap();
        let tag = format!("{}|{}", stale.routes().tag, stale.budget.cache_tag());
        let left: Vec<PathBuf> = load_project(&project)
            .unwrap()
            .iter()
            .map(|u| {
                let v7_key = fxhash::hash_one(&(7u32, tag.as_str(), u.source.as_str()));
                assert_ne!(v7_key, unit_cache_key(&stale, &u.source));
                let path = cache.path_for(&u.name, v7_key);
                std::fs::write(&path, testfix::previous_format_entry()).unwrap();
                path
            })
            .collect();

        let expected = run(&project, &fresh).unwrap();
        let report = run(&project, &stale).unwrap();
        for field in ["units", "totals"] {
            assert_eq!(report.get(field), expected.get(field), "{field}");
        }
        let count = |block: &str, field: &str| report.get(block)?.get(field)?.as_u64();
        assert_eq!(count("totals", "cache_hits"), Some(0));
        assert_eq!(count("cache_health", "quarantined"), Some(0));
        for path in left {
            assert_eq!(
                std::fs::read_to_string(path).unwrap(),
                testfix::previous_format_entry()
            );
        }
    }

    /// The triage mode changes the diagnostics themselves (`both`
    /// discharges strictly more than `octagon`), so unlike the backend it
    /// splits the cache key *and* the rendered `source_hash`: a stale
    /// journal or cache entry from another mode can never replay.
    #[test]
    fn triage_mode_splits_cache_key_and_rendered_hash() {
        use sga_core::triage::TriageMode;
        let octagon = PipelineOptions {
            triage: TriageMode::Octagon,
            ..PipelineOptions::default()
        };
        let both = PipelineOptions {
            triage: TriageMode::Both,
            ..PipelineOptions::default()
        };
        assert_ne!(octagon.routes().tag, both.routes().tag);
        let source = "int main() { return 0; }";
        assert_ne!(
            unit_cache_key(&octagon, source),
            unit_cache_key(&both, source)
        );
        let hash = |o: &PipelineOptions| unit_keys(&o.routes().tag, source, &o.budget).1;
        assert_ne!(hash(&octagon), hash(&both));
    }

    /// Isolation is pure run mechanics: it splits *neither* the cache key
    /// (thread and process runs share entries) nor the canonical report —
    /// only the non-canonical options block says where the units ran.
    #[test]
    fn isolation_splits_neither_cache_key_nor_canonical_report() {
        let thread = PipelineOptions::default();
        let process = PipelineOptions {
            isolation: IsolationMode::Process,
            ..PipelineOptions::default()
        };
        assert_eq!(thread.routes().tag, process.routes().tag);
        let source = "int main() { return 0; }";
        assert_eq!(
            unit_cache_key(&thread, source),
            unit_cache_key(&process, source)
        );

        let canonical = assemble_report(
            Vec::new(),
            &PipelineOptions {
                canonical: true,
                isolation: IsolationMode::Process,
                ..PipelineOptions::default()
            },
        )
        .unwrap();
        assert!(canonical.get("options").unwrap().get("isolation").is_none());
        let full = assemble_report(Vec::new(), &process).unwrap();
        assert_eq!(
            full.get("options")
                .unwrap()
                .get("isolation")
                .and_then(Json::as_str),
            Some("process")
        );
    }

    /// Where a knob shows in the report's `options` block.
    #[derive(Clone, Copy, Debug)]
    enum Shown {
        No,
        /// Under this entry in both blocks.
        Canonical(&'static str),
        /// Under this entry in the non-canonical block only.
        NonCanonical(&'static str),
    }

    /// A baseline report with no units, for the `baseline` row.
    fn empty_baseline() -> PathBuf {
        let path = testfix::temp_dir("knob-baseline.json");
        std::fs::write(&path, r#"{"units": []}"#).unwrap();
        path
    }

    /// The entries of `block` that differ from those of `was`.
    fn moved(was: &Json, block: &Json) -> Vec<String> {
        let (Json::Obj(was), Json::Obj(now)) = (was, block) else {
            panic!("an options block is an object");
        };
        let at = |fields: &[(String, Json)], key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        let all = was.iter().chain(now).map(|(k, _)| k.clone());
        let mut keys: Vec<String> = all.filter(|k| at(was, k) != at(now, k)).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Every field of [`PipelineOptions`] as DESIGN.md §17 routes it, one
    /// row each, in declaration order: a change from its default, whether
    /// it shapes results, where the `options` block shows it, and whether
    /// it crosses the worker pipe. Changing the knob moves the unit key and
    /// the rendered `source_hash` exactly when it shapes results, moves
    /// exactly its own entry of the canonical and the non-canonical block,
    /// and survives the sealed worker request exactly when it crosses (the
    /// rest reach the worker at their defaults).
    #[test]
    fn each_knob_goes_where_its_row_says() {
        use sga_core::budget::WorkerLimits;
        use sga_core::depstore::DepBackend;
        use sga_core::triage::TriageMode;
        use sga_core::widening::{WideningConfig, WideningStrategy};
        use Shown::{Canonical, No, NonCanonical};
        type Row = (&'static str, fn(&mut PipelineOptions), bool, Shown, bool);
        #[rustfmt::skip]
        let rows: [Row; 16] = [
            ("jobs", |o| o.jobs = 3, false, NonCanonical("jobs"), false),
            ("cache_dir", |o| o.cache_dir = Some("knob-cache".into()), false, Canonical("cache"), true),
            ("cache_max_entries", |o| o.cache_max_entries = Some(4), false, No, true),
            // It picks the block, which the non-canonical rows read.
            ("canonical", |o| o.canonical = true, false, No, false),
            ("depgen", |o| o.depgen.bypass = false, true, Canonical("bypass"), true),
            // One variant, read by nothing: there is nothing to change it to.
            ("dep_backend", |o| o.dep_backend = DepBackend::Csr, false, No, false),
            ("widening", |o| o.widening = WideningConfig::of(WideningStrategy::Naive), true, Canonical("widening"), true),
            ("triage", |o| o.triage = TriageMode::Octagon, true, Canonical("triage"), true),
            ("isolation", |o| o.isolation = IsolationMode::Process, false, NonCanonical("isolation"), false),
            ("worker_limits", |o| o.worker_limits = WorkerLimits { mem_mb: Some(512), timeout_ms: Some(1500) }, false, No, true),
            ("keep_going", |o| o.keep_going = false, false, No, false),
            ("budget", |o| o.budget = Budget { max_steps: Some(50), timeout_ms: Some(900) }, true, No, true),
            ("faults", |o| o.faults = FaultPlan::parse("panic@0,oom@0=64,spin@0=10").unwrap(), false, No, true),
            ("validate", |o| o.validate = true, false, Canonical("validate"), true),
            ("resume", |o| o.resume = true, false, No, false),
            ("baseline", |o| o.baseline = Some(empty_baseline()), false, No, false),
        ];
        let pretty = format!("{:#?}", PipelineOptions::default());
        let fields: Vec<&str> = (pretty.lines())
            .filter_map(|l| l.strip_prefix("    ")?.split_once(':'))
            .map(|(field, _)| field)
            .filter(|field| !field.starts_with(' '))
            .collect();
        let named: Vec<&str> = rows.iter().map(|row| row.0).collect();
        assert_eq!(named, fields, "one row per field, in declaration order");

        let input = UnitInput {
            name: "unit000".into(),
            source: "int main() { return 0; }".into(),
        };
        let keys = |o: &PipelineOptions| unit_keys(&o.routes().tag, &input.source, &o.budget);
        let block = |o: &PipelineOptions, canonical: bool| {
            let o = PipelineOptions {
                canonical,
                ..o.clone()
            };
            assemble_report(Vec::new(), &o)
                .unwrap()
                .get("options")
                .unwrap()
                .clone()
        };
        let sent = |o: &PipelineOptions| {
            let ctx = UnitCtx {
                options: o,
                cache: None,
            };
            let sealed = worker::encode_request(&ctx, 0, &input, 1, 2, &o.budget);
            worker::decode_request(&sealed)
                .expect("the request decodes")
                .options
        };
        let default = PipelineOptions::default();
        for (field, flip, shapes, shown, crosses) in rows {
            let mut o = default.clone();
            flip(&mut o);
            let ((key, hash), (key0, hash0)) = (keys(&o), keys(&default));
            assert_eq!(
                (key != key0, hash != hash0),
                (shapes, shapes),
                "{field}: key, hash"
            );
            for canonical in [true, false] {
                let want: Vec<&str> = match shown {
                    Canonical(entry) => vec![entry],
                    NonCanonical(entry) if !canonical => vec![entry],
                    _ => Vec::new(),
                };
                let got = moved(&block(&default, canonical), &block(&o, canonical));
                assert_eq!(got, want, "{field}: options block, canonical {canonical}");
            }
            let mut want = sent(&default);
            if crosses {
                flip(&mut want);
            }
            let got = format!("{:?}", sent(&o));
            assert_eq!(got, format!("{want:?}"), "{field}: worker request");
        }
    }
}
