//! The driver's knobs, declared once: [`PipelineOptions::routes`] is the
//! one place that names every field, and everything that reads the options
//! derives from it (DESIGN.md §17 tabulates where each knob goes).

use crate::cache::Cache;
use crate::fault::FaultPlan;
use crate::worker::IsolationMode;
use crate::{effective_jobs, PipelineError};
use sga_core::budget::{Budget, WorkerLimits};
use sga_core::depgen::DepGenOptions;
use sga_core::depstore::DepBackend;
use sga_core::interval::{AnalyzeOptions, Engine};
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::widening::{WideningConfig, WideningStrategy};
use sga_utils::Json;
use std::path::{Path, PathBuf};

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Units analyzed at once, one worker thread each (1 = fully
    /// sequential, 0 = auto-detect via [`crate::effective_jobs`]).
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
    /// Which triage layers run over each unit's possible alarms.
    pub triage: TriageMode,
    /// Where each unit's analysis runs: in-process worker threads (the
    /// default) or supervised re-exec'd worker processes that survive
    /// aborts, OOM, stack overflow, and hard stalls (see [`crate::worker`]).
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

/// Every knob of a [`PipelineOptions`] where it goes: what
/// [`PipelineOptions::routes`] returns.
pub(crate) struct Routes<'a> {
    /// The knobs that shape results, as the unit keys hash them.
    pub tag: String,
    /// The core options they set, for a sparse triage under no budget.
    pub triage: TriageOptions,
    /// The cache directory, with its entry cap.
    pub cache: Option<(&'a Path, Option<usize>)>,
    /// The report's `options` block.
    pub report: Json,
    /// The worker request's `options` object ([`PipelineOptions::from_worker`]).
    pub worker: Json,
}

impl PipelineOptions {
    /// Routes every knob. The destructuring names every field, so a new one
    /// fails to compile here until it is routed.
    pub(crate) fn routes(&self) -> Routes<'_> {
        let PipelineOptions {
            // Shape results: the tag, the core options, the canonical block
            // and the worker. Triage modes are not byte-equivalent (`both`
            // discharges more than `octagon`), so the mode is in the tag.
            depgen,
            widening,
            triage,
            // Shapes results too; it joins each unit's keys, and is sent, as
            // that unit's own budget (a `budget@` fault overrides it).
            budget,
            // Read by nothing; the core options carry it for the harness.
            dep_backend,
            // The canonical block and the worker. The oracle never changes a
            // result, so `validate` is not in the tag.
            cache_dir,
            validate,
            // The cache and the worker: the LRU sweep reads the access times
            // a capped cache refreshes on the worker's hits.
            cache_max_entries,
            // The worker: its limits, and the unit's own fault directives.
            worker_limits,
            faults,
            // Run mechanics: the non-canonical block only.
            jobs,
            isolation,
            // Stay with the parent.
            canonical,
            keep_going: _,
            resume: _,
            baseline: _,
        } = self;
        let mut report = Json::obj()
            .with("engine", "sparse")
            .with("bypass", depgen.bypass)
            .with("widening", widening.strategy.name())
            .with("triage", triage.name())
            .with("cache", cache_dir.is_some())
            .with("validate", *validate);
        // The worker is sent the canonical block and its own knobs; an unset
        // one is `null`.
        let number = |n: Option<u64>| n.map_or(Json::Null, |n| Json::from(n as usize));
        let cap = cache_max_entries.map(|n| n as u64);
        let dir = cache_dir
            .as_ref()
            .map(|d| Json::from(d.display().to_string()));
        let worker = (report.clone())
            .with("faults", faults.to_string())
            .with("max_steps", number(budget.max_steps))
            .with("timeout_ms", number(budget.timeout_ms))
            .with("worker_mem_mb", number(worker_limits.mem_mb))
            .with("worker_timeout_ms", number(worker_limits.timeout_ms))
            .with("cache_max_entries", number(cap))
            .with("cache_dir", dir.unwrap_or(Json::Null));
        if !canonical {
            report.set("jobs", effective_jobs(*jobs));
            report.set("isolation", isolation.as_str());
        }
        Routes {
            tag: format!("{depgen:?}|{widening:?}|{}", triage.name()),
            triage: TriageOptions {
                depgen: *depgen,
                dep_backend: *dep_backend,
                widening: *widening,
                mode: *triage,
                ..TriageOptions::default()
            },
            cache: cache_dir.as_deref().map(|dir| (dir, *cache_max_entries)),
            report,
            worker,
        }
    }

    /// The options a worker runs its unit under, read back from
    /// [`Routes::worker`]; `None` when a field is missing or malformed.
    pub(crate) fn from_worker(j: &Json) -> Option<PipelineOptions> {
        let number = |key: &str| j.get(key).and_then(Json::as_u64);
        Some(PipelineOptions {
            depgen: DepGenOptions {
                bypass: j.get("bypass")?.as_bool()?,
            },
            widening: WideningConfig::of(WideningStrategy::parse(j.get("widening")?.as_str()?)?),
            triage: TriageMode::parse(j.get("triage")?.as_str()?)?,
            validate: j.get("validate")?.as_bool()?,
            faults: FaultPlan::parse(j.get("faults")?.as_str()?).ok()?,
            budget: Budget {
                max_steps: number("max_steps"),
                timeout_ms: number("timeout_ms"),
            },
            worker_limits: WorkerLimits {
                mem_mb: number("worker_mem_mb"),
                timeout_ms: number("worker_timeout_ms"),
            },
            cache_max_entries: number("cache_max_entries").map(|n| n as usize),
            cache_dir: j.get("cache_dir").and_then(Json::as_str).map(PathBuf::from),
            // What stays with the parent takes its default: the worker runs
            // in thread mode, so isolation does not recurse.
            ..PipelineOptions::default()
        })
    }

    /// The core analysis options under `budget`.
    pub fn analyze_options(&self, budget: &Budget) -> AnalyzeOptions {
        let core = self.routes().triage;
        AnalyzeOptions {
            depgen: core.depgen,
            dep_backend: core.dep_backend,
            widening: core.widening,
            budget: *budget,
            ..AnalyzeOptions::default()
        }
    }

    /// The triage options over a unit that `engine` solved in
    /// `interval_iterations` evaluations under `budget`: the octagon's own
    /// budget derives from both ([`triage::derived_budget`]).
    pub fn triage_options(
        &self,
        engine: Engine,
        interval_iterations: usize,
        budget: &Budget,
    ) -> TriageOptions {
        TriageOptions {
            engine,
            budget: triage::derived_budget(interval_iterations, budget),
            ..self.routes().triage
        }
    }

    /// The cache, opened with its entry cap; `None` when caching is off.
    pub fn open_cache(&self) -> Result<Option<Cache>, PipelineError> {
        let Some((dir, max)) = self.routes().cache else {
            return Ok(None);
        };
        let mut cache = Cache::open(dir)
            .map_err(|e| PipelineError::Io(format!("cannot open cache {}: {e}", dir.display())))?;
        cache.set_max_entries(max);
        Ok(Some(cache))
    }
}
