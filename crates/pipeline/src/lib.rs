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
//!    re-analyzed. The cache and both journals are codecs over one sealed
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
pub mod par;
pub mod store;
pub mod unit;
pub mod worker;

#[cfg(test)]
mod testfix;

pub use cache::Cache;
pub use fault::FaultPlan;
pub use journal::Journal;
pub use unit::{analyze_unit, UnitAnalysis, UnitInternals};
pub use worker::IsolationMode;

use journal::JournalRecord;
use sga_core::budget::{Budget, WorkerLimits};
use sga_core::depgen::DepGenOptions;
use sga_core::depstore::DepBackend;
use sga_core::interval::AnalyzeOptions;
use sga_core::triage::TriageMode;
use sga_core::validate::{self, CheckKind, UnitValidation};
use sga_core::widening::WideningConfig;
use sga_utils::stats::{Stage, StageTimes};
use sga_utils::{fxhash, Json};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Units analyzed at once, one worker thread each (1 = fully
    /// sequential, 0 = auto-detect via [`auto_jobs`]).
    pub jobs: usize,
    /// Cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Cap on cache entry files; a run ends with an LRU-by-access sweep
    /// evicting entries beyond it (hits refresh an entry's access time).
    /// `None` (the default) means unbounded.
    pub cache_max_entries: Option<usize>,
    /// Emit the canonical (timing-free, job-count-free) report, suitable
    /// for byte comparison across runs and `--jobs` values.
    pub canonical: bool,
    /// Dependency-generation options forwarded to the sparse analysis.
    pub depgen: DepGenOptions,
    /// Read by nothing (there is one store); stays because the frozen
    /// benchmark harness copies it into the core option structs.
    pub dep_backend: DepBackend,
    /// Widening strategy forwarded to the fixpoint solver.
    pub widening: WideningConfig,
    /// Which triage layers run over each unit's possible alarms. Shapes
    /// the diagnostics, so it joins both the cache key and the rendered
    /// `source_hash` (modes are *not* byte-equivalent — `both` discharges
    /// strictly more than `octagon`).
    pub triage: TriageMode,
    /// Where each unit's analysis runs: in-process worker threads (the
    /// default) or supervised re-exec'd worker processes that survive
    /// aborts, OOM, stack overflow, and hard stalls (see [`worker`]). Run
    /// mechanics like `jobs`: joins neither the cache key nor the canonical
    /// report.
    pub isolation: IsolationMode,
    /// Hard per-worker limits (`RLIMIT_AS` + wall-clock SIGKILL), applied
    /// only under [`IsolationMode::Process`].
    pub worker_limits: WorkerLimits,
    /// Record a crashing unit and keep analyzing the rest (`true`, the
    /// default), or abort the whole run on the first failure.
    pub keep_going: bool,
    /// Per-unit fixpoint work budget; exhaustion degrades soundly and marks
    /// the unit `degraded`.
    pub budget: Budget,
    /// Deterministic fault injection (testing only; empty in production).
    pub faults: FaultPlan,
    /// Run the post-fixpoint validation oracle over every unit; violations
    /// become the `invalid` outcome and are never cached.
    pub validate: bool,
    /// Replay the write-ahead journal: units a previous (killed or
    /// interrupted) run already committed are served from their journal
    /// records instead of being recomputed.
    pub resume: bool,
    /// Previous run report to diff against: every open diagnostic of this
    /// run is classified `new`/`unchanged` against the baseline's open
    /// fingerprints, and the report gains a `baseline` block.
    pub baseline: Option<PathBuf>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: 1,
            cache_dir: None,
            cache_max_entries: None,
            canonical: false,
            depgen: DepGenOptions::default(),
            dep_backend: DepBackend::default(),
            widening: WideningConfig::default(),
            triage: TriageMode::default(),
            isolation: IsolationMode::default(),
            worker_limits: WorkerLimits::unbounded(),
            keep_going: true,
            budget: Budget::unbounded(),
            faults: FaultPlan::none(),
            validate: false,
            resume: false,
            baseline: None,
        }
    }
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

/// The `--jobs 0` auto value: the machine's available parallelism (1 when
/// it cannot be determined).
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested job count: `0` means auto-detect ([`auto_jobs`]),
/// anything else is taken literally. The report stays byte-identical across
/// job counts either way, so auto-detection never costs determinism.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        auto_jobs()
    } else {
        jobs
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
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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

/// The per-unit report object of a crashed (frontend-rejected or panicked)
/// unit.
fn render_crashed(name: &str, key: u64, message: &str) -> Json {
    Json::obj()
        .with("name", name)
        .with("outcome", "crashed")
        .with("source_hash", format!("{key:016x}"))
        .with("error", message)
        .with("diagnostics", Vec::<Json>::new())
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

/// Analyzes one unit end to end — cache lookup, parse, fixpoint, optional
/// validation oracle, panic isolation — and renders its report object.
/// Shared by the batch driver ([`run`]) and the incremental daemon's
/// frontier re-analysis ([`analyze_units`]), so both produce byte-identical
/// per-unit objects from identical inputs.
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
        let (analysis, internals) = unit::analyze_unit(
            &program,
            options.depgen,
            options.widening,
            options.triage,
            budget,
        );
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
                &staged.du,
                &staged.deps,
                &internals.solved.rows,
                AnalyzeOptions {
                    depgen: options.depgen,
                    widening: options.widening,
                    budget: *budget,
                    ..AnalyzeOptions::default()
                },
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
        Ok(Err(message)) => Processed {
            json: render_crashed(&input.name, render_key, &message),
            failure: Some((journal::Failure::Frontend, message)),
            analysis: None,
            store: false,
            times,
        },
        Err(payload) => {
            let message = panic_message(payload);
            Processed {
                json: render_crashed(&input.name, render_key, &message),
                failure: Some((journal::Failure::Panic, message)),
                analysis: None,
                store: false,
                times,
            }
        }
    }
}

/// The options part of a unit's keys: only knobs that shape the analysis
/// result (dependency options, widening, triage mode; the budget joins per
/// unit). Run mechanics (`jobs`, isolation) never join it. The triage mode
/// is in it because modes genuinely change the stored diagnostics: an
/// `--triage octagon` entry (or journal record) must never be served to an
/// `--triage both` run.
fn semantic_tag(options: &PipelineOptions) -> String {
    format!(
        "{:?}|{:?}|{}",
        options.depgen,
        options.widening,
        options.triage.name()
    )
}

/// Version component of the rendered `source_hash`, frozen at the cache
/// format the two were split at: the hash names a (source, result-shaping
/// options) pair in canonical reports, so a bump of an on-disk format —
/// which changes no analysis result — must not move a report byte.
const RENDERED_HASH_VERSION: u32 = 5;

/// The two hashes of a unit with this `source` under `options` and
/// `budget`, both over source × [`semantic_tag`] × budget: the cache and
/// journal lookup key, which also carries [`cache::CACHE_FORMAT`], and the
/// `source_hash` its report object renders, which carries
/// [`RENDERED_HASH_VERSION`] instead so no on-disk format moves a report.
fn unit_keys(options: &PipelineOptions, source: &str, budget: &Budget) -> (u64, u64) {
    let tag = format!("{}|{}", semantic_tag(options), budget.cache_tag());
    (
        fxhash::hash_one(&(cache::CACHE_FORMAT, tag.as_str(), source)),
        fxhash::hash_one(&(RENDERED_HASH_VERSION, tag.as_str(), source)),
    )
}

/// The full per-unit cache key under `options` for a unit with this
/// `source`: the batch driver's key exactly — source × dependency options ×
/// widening × triage mode × budget — so an embedder that needs to know
/// whether a stored artifact still describes a source (the serve daemon's
/// round journal) asks the same question the cache does. Per-unit fault
/// budget overrides are a batch-driver concern and are not applied here.
pub fn unit_cache_key(options: &PipelineOptions, source: &str) -> u64 {
    unit_keys(options, source, &options.budget).0
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
    let jobs = effective_jobs(options.jobs);
    let ctx = UnitCtx { options, cache };
    let prev_hook = if options.keep_going {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Some(hook)
    } else {
        None
    };
    let out = par::run_indexed(jobs, units, |i, input| {
        let budget = options.faults.budget_for(i).unwrap_or(options.budget);
        let (key, render_key) = unit_keys(options, &input.source, &budget);
        let p = process_unit(&ctx, i, input, key, render_key, &budget);
        if p.store {
            if let (Some(c), Some(a)) = (cache, &p.analysis) {
                let _ = c.store(&input.name, key, a);
            }
        }
        UnitOutcome {
            json: p.json,
            analysis: p.analysis,
            failure: p.failure.map(|(_, message)| message),
        }
    });
    if let Some(hook) = prev_hook {
        std::panic::set_hook(hook);
    }
    out
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

    let mut opts_json = Json::obj()
        .with("engine", "sparse")
        .with("bypass", options.depgen.bypass)
        .with("widening", options.widening.strategy.name())
        .with("triage", options.triage.name())
        .with("cache", options.cache_dir.is_some())
        .with("validate", options.validate);
    if !options.canonical {
        opts_json.set("jobs", effective_jobs(options.jobs));
        // Like `jobs`: run mechanics, not semantics. Thread and process runs
        // are byte-equivalent (`tests/isolation.rs` holds it), so only the
        // non-canonical report says where the units ran.
        opts_json.set("isolation", options.isolation.as_str());
    }

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
        .with("options", opts_json)
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
    let cache = match &options.cache_dir {
        Some(dir) => {
            let mut c = Cache::open(dir).map_err(|e| {
                PipelineError::Io(format!("cannot open cache {}: {e}", dir.display()))
            })?;
            c.set_max_entries(options.cache_max_entries);
            Some(c)
        }
        None => None,
    };

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

    // With keep_going, worker panics are expected, caught, and recorded in
    // the report — silence the default hook's per-panic backtrace spew for
    // the duration of the unit loop so one bad unit doesn't flood stderr.
    let prev_hook = if options.keep_going {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        Some(hook)
    } else {
        None
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
    let results: Vec<Option<Processed>> =
        par::run_indexed_interruptible(jobs, &units, stop_requested, |i, input| {
            // An injected budget changes the unit's analysis semantics, so it
            // participates in that unit's keys — a faulted run never hits an
            // entry the fault-free run stored, and vice versa.
            let budget = options.faults.budget_for(i).unwrap_or(options.budget);
            let (key, render_key) = unit_keys(options, &input.source, &budget);

            // A journaled unit is already committed: replay its record
            // verbatim — before fault injection, so a fault that killed the
            // original run cannot re-fire on the unit it already finished.
            if let Some(rec) = replay.get(&i) {
                if rec.name == input.name && rec.key == key {
                    replayed_count.fetch_add(1, Ordering::Relaxed);
                    let failure = rec.failure.map(|f| {
                        let message = rec
                            .unit
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string();
                        (f, message)
                    });
                    return Processed {
                        json: rec.unit.clone(),
                        failure,
                        analysis: None,
                        store: false,
                        times: StageTimes::default(),
                    };
                }
            }

            // The process-killing faults execute wherever the unit executes:
            // here in thread mode, or inside the worker process, delegated
            // via its request.
            if options.isolation == IsolationMode::Thread {
                options.faults.fire_fatal(i);
            }
            if options.faults.should_stop(i) {
                fault_stop.store(true, Ordering::Relaxed);
            }

            let p = process_unit(&ctx, i, input, key, render_key, &budget);

            if let Some(j) = &journal {
                // Write-ahead ordering: the journal record commits *before*
                // the cache store. A crash between the two re-runs the unit
                // from the journal — never from a cache entry the journal
                // knows nothing about, which would flip the unit's recorded
                // miss into a hit on resume and break byte-identity. A
                // failed record only costs the resume a recompute.
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
            if p.store {
                if let (Some(c), Some(a)) = (&cache, &p.analysis) {
                    // A store failure is retried inside the cache and, if it
                    // sticks, counted in cache health; it only costs the
                    // next run its hit.
                    let _ = c.store_injected(&input.name, key, a, options.faults.io_fail_count(i));
                    if let Some(mode) = options.faults.corruption_for(i) {
                        let _ = c.corrupt_entry(&input.name, key, mode);
                    }
                }
            }
            // The analysis is stored; the report needs only the rest.
            Processed {
                analysis: None,
                ..p
            }
        });
    if let Some(hook) = prev_hook {
        std::panic::set_hook(hook);
    }

    if !options.keep_going {
        for (input, slot) in units.iter().zip(&results) {
            if let Some(Processed {
                failure: Some((kind, message)),
                ..
            }) = slot
            {
                return Err(match kind {
                    journal::Failure::Frontend => PipelineError::Frontend {
                        unit: input.name.clone(),
                        message: message.clone(),
                    },
                    journal::Failure::Panic => PipelineError::Crashed {
                        unit: input.name.clone(),
                        message: message.clone(),
                    },
                });
            }
        }
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
                    .with("mode", options.isolation.as_str())
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
            semantic_tag(&PipelineOptions::default()),
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
            unit_keys(&options, source, &options.budget).1,
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
        let tag = format!("{}|{}", semantic_tag(&stale), stale.budget.cache_tag());
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
        assert_ne!(semantic_tag(&octagon), semantic_tag(&both));
        let source = "int main() { return 0; }";
        assert_ne!(
            unit_cache_key(&octagon, source),
            unit_cache_key(&both, source)
        );
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
        assert_eq!(semantic_tag(&thread), semantic_tag(&process));
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
}
